"""Differentially private federated fine-tuning of low-rank adapters, desk scale.

Library layout:

- ``linalg``: keyed random streams, Gaussian draws, the Frobenius norm, the entry check
  on arrays, and the in-order worker helper
- ``privacy``: the release of a factor pair (clip, then noise) and its noise calibration
- ``adapters``: low-rank factor pairs, plain ``(b, a)`` arrays, and the stacking aggregation
- ``config``: ``RunConfig``, the one record of a run's settings, checked where parsed
- ``simulation``: synthetic tasks on one client axis, local training, the federated round loop
- ``noise_stats``: expectation/variance analysis of noisy factor products
- ``attacks``: trained updates, the membership-inference game, the privacy-bound check
- ``runner`` / ``cli``: experiment orchestration and the command line

The package root re-exports nothing: import each name from the module that
defines it, as in ``from fedlora_dp.config import RunConfig``.
"""

__version__ = "0.1.0"
