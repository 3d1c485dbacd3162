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
"""

from .adapters import FrozenBase, GlobalAdapter, aggregate_stack, global_delta, init_adapter
from .config import STRATEGIES, RunConfig
from .linalg import RngStream, frobenius_norm, sample_gaussian
from .noise_stats import (
    NoiseModel,
    exact_total_variance,
    rank_sweep,
    size_sweep,
    variance_bound,
)
from .privacy import (
    MechanismParams,
    PrivacyBudget,
    calibrate_sigma,
    clip_frobenius,
    clip_pair,
    compose_budget,
    privatize,
)
from .simulation import (
    ExperimentResult,
    SyntheticTask,
    generate_task,
    local_train,
    run_experiment,
    run_round,
)

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "frobenius_norm",
    "sample_gaussian",
    "PrivacyBudget",
    "MechanismParams",
    "clip_frobenius",
    "clip_pair",
    "calibrate_sigma",
    "privatize",
    "compose_budget",
    "GlobalAdapter",
    "FrozenBase",
    "aggregate_stack",
    "global_delta",
    "init_adapter",
    "NoiseModel",
    "exact_total_variance",
    "variance_bound",
    "rank_sweep",
    "size_sweep",
    "STRATEGIES",
    "RunConfig",
    "SyntheticTask",
    "ExperimentResult",
    "generate_task",
    "local_train",
    "run_round",
    "run_experiment",
    "__version__",
]
