"""The release of a factor pair: per-factor Frobenius-norm clipping, then Gaussian noise.

``privatize`` is the one release step: it clips each factor of a pair (B, A)
to its own norm budget (``clip_pair``), then adds isotropic Gaussian noise to
each clipped factor, at a scale calibrated from its clip (the sensitivity)
and an (epsilon, delta) budget, and returns ``(clean, released)``: the
clipped pair and its release.  The round and the membership-inference game
both release through it, so the game audits the mechanism the round deploys.

Each value of a release is checked once, where it enters: ``PrivacyBudget``
checks a budget, and ``MechanismParams`` each clip (> 0) and sigma (>= 0).
``clip_frobenius``, ``calibrate_sigma`` and ``privatize`` check none of them
again.  Nothing here composes a budget over rounds: a run prints no epsilon
until one is computed for the mechanism it deployed (ROADMAP item 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .adapters import FactorPair
from .linalg import RngStream, frobenius_norm, sample_gaussian

__all__ = [
    "PrivacyBudget",
    "MechanismParams",
    "IDENTITY_MECHANISM",
    "clip_frobenius",
    "clip_pair",
    "calibrate_sigma",
    "privatize",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) privacy budget; epsilon > 0, 0 < delta < 1."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class MechanismParams:
    """Per-matrix clip thresholds and noise scales for an update pair.

    A private run's comes from ``runner._calibrated``, which calibrates each
    factor's sigma from its clip and budget; a non-private run's is
    ``IDENTITY_MECHANISM``.
    """

    clip_b: float
    clip_a: float
    sigma_b: float
    sigma_a: float

    def __post_init__(self):
        for c in (self.clip_b, self.clip_a):
            if not c > 0:
                raise ValueError(f"clip threshold must be > 0, got {c}")
        for s in (self.sigma_b, self.sigma_a):
            if not 0 <= s < math.inf:  # an inf sigma comes from a subnormal epsilon
                raise ValueError(f"noise scale must be finite and >= 0, got {s}")


# The non-private release: no clip binds and no noise is drawn, so ``privatize``
# hands every factor back as itself.
IDENTITY_MECHANISM = MechanismParams(clip_b=math.inf, clip_a=math.inf, sigma_b=0.0, sigma_a=0.0)


def clip_frobenius(m: np.ndarray, c: float) -> np.ndarray:
    """Scale ``m`` by min(1, c / ||m||_F).

    A matrix already within the budget is returned unchanged (the identical
    object, not a copy), so the non-clipped path is bit-exact.  Rescaling can
    overshoot the threshold by an ulp, so it is repeated until the norm is at
    or below ``c``; that makes clipping idempotent at the bit level.  ``c``
    is a ``MechanismParams`` clip, checked > 0 there and not here.
    """
    norm = frobenius_norm(m)
    if norm <= c:
        return m
    out = m * (c / norm)
    for _ in range(4):
        norm = frobenius_norm(out)
        if norm <= c:
            return out
        out = out * (c / norm)
    return out


def clip_pair(pair: FactorPair, mechanism: MechanismParams) -> FactorPair:
    """Clip B to ``clip_b`` and A to ``clip_a``; a factor within its clip comes back itself."""
    b, a = pair
    return clip_frobenius(b, mechanism.clip_b), clip_frobenius(a, mechanism.clip_a)


def calibrate_sigma(c: float, budget: PrivacyBudget) -> float:
    """Classical Gaussian noise scale for sensitivity ``c``: c*sqrt(2 ln(1.25/delta))/epsilon.

    The log is natural, and the classical bound is taken with equality.  That
    bound is proven only for epsilon < 1 (Dwork and Roth, Theorem A.1); above
    it, this sigma can fall short of the budget.  At sensitivity ``c`` and
    delta = 1e-5, the exact delta of this sigma is 2.3e-5 at epsilon = 10 and
    7.7e-3 at epsilon = 25.  Nothing checks the delta a run's sigma reaches yet.
    ``c`` is not checked here: ``runner._calibrated`` puts it in the
    ``MechanismParams`` it builds, which rejects a clip <= 0.
    """
    return c * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon


def privatize(pair: FactorPair, mechanism: MechanismParams, stream_b: RngStream,
              stream_a: RngStream, count: int | None = None) -> tuple[FactorPair, FactorPair]:
    """``(clip_pair(pair), release)``: N(0, sigma^2) noise on each clipped factor.

    B's noise comes from ``stream_b`` and A's from ``stream_a``; a factor whose
    sigma is 0 is released as its clipped self and draws nothing.  With
    ``count``, each factor is released ``count`` times, stacked as (count,
    rows, cols) from one draw of its stream, the first release equal to the
    single one bit for bit.  ``count`` must be >= 1 and is not checked:
    ``attacks.run_game``, the one caller that passes it, skips an empty bit.
    """
    b, a = clean = clip_pair(pair, mechanism)
    return clean, (_noised(b, mechanism.sigma_b, stream_b, count),
                   _noised(a, mechanism.sigma_a, stream_a, count))


def _noised(m: np.ndarray, sigma: float, rng: RngStream, count: int | None) -> np.ndarray:
    if sigma == 0:
        return m if count is None else np.repeat(m[np.newaxis], count, axis=0)
    releases = sample_gaussian(m.shape[0], m.shape[1], sigma, rng, count=count)
    releases += m
    return releases
