"""Frobenius-norm clipping and Gaussian-mechanism noise calibration.

A matrix is clipped to a norm budget (``clip_frobenius``), then perturbed
with isotropic Gaussian noise (``privatize``) whose scale is calibrated from
the clip threshold (the sensitivity) and an (epsilon, delta) privacy budget.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RngStream, frobenius_norm, sample_gaussian

__all__ = [
    "PrivacyBudget",
    "MechanismParams",
    "clip_frobenius",
    "calibrate_sigma",
    "privatize",
    "compose_budget",
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
    """Per-matrix clip thresholds and calibrated noise scales for an update pair."""

    clip_b: float
    clip_a: float
    sigma_b: float
    sigma_a: float

    def __post_init__(self):
        _check_clip(self.clip_b)
        _check_clip(self.clip_a)
        if self.sigma_b < 0 or self.sigma_a < 0:
            raise ValueError("noise scales must be >= 0")

    @classmethod
    def calibrated(cls, clip_b: float, clip_a: float, budget_b: PrivacyBudget,
                   budget_a: PrivacyBudget) -> "MechanismParams":
        return cls(
            clip_b=clip_b,
            clip_a=clip_a,
            sigma_b=calibrate_sigma(clip_b, budget_b),
            sigma_a=calibrate_sigma(clip_a, budget_a),
        )


def _check_clip(c: float) -> None:
    if not c > 0:
        raise ValueError(f"clip threshold must be > 0, got {c}")


def clip_frobenius(m: np.ndarray, c: float) -> np.ndarray:
    """Scale ``m`` by min(1, c / ||m||_F).

    A matrix already within the budget is returned unchanged (the identical
    object, not a copy), so the non-clipped path is bit-exact.  Rescaling can
    overshoot the threshold by an ulp, so it is repeated until the norm is at
    or below ``c``; that makes clipping idempotent at the bit level.
    """
    _check_clip(c)
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


def calibrate_sigma(c: float, budget: PrivacyBudget) -> float:
    """Tightest Gaussian noise scale for sensitivity ``c``: c*sqrt(2 ln(1.25/delta))/epsilon.

    The log is natural; the equality form of the standard bound is used so the
    deployed noise is the minimum compliant with the budget.
    """
    _check_clip(c)
    return c * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon


def privatize(m: np.ndarray, sigma: float, rng: RngStream,
              count: int | None = None) -> np.ndarray:
    """Add N(0, sigma^2) noise to an already clipped ``m``; sigma == 0 returns ``m`` itself.

    The caller clips ``m`` (``clip_frobenius``) exactly once; this only adds
    noise.  With ``count``, returns ``count`` independent releases of ``m``
    stacked as (count, rows, cols), all the noise from one draw of ``rng``.
    Release 0 equals the single release on the same stream bit for bit,
    since the draw fills entries in the same order.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if sigma == 0:
        return m if count is None else np.repeat(m[np.newaxis], count, axis=0)
    releases = sample_gaussian(m.shape[0], m.shape[1], sigma, rng, count=count)
    releases += m
    return releases


def compose_budget(eps_b: float, eps_a: float, rounds: int) -> float:
    """Naive sequential composition: rounds * (eps_b + eps_a).

    Reported in run summaries as the total spent budget; never enforced.
    """
    if not eps_b > 0 or not eps_a > 0:
        raise ValueError(f"per-matrix budgets must be > 0, got ({eps_b}, {eps_a})")
    if not isinstance(rounds, int) or rounds < 1:
        raise ValueError(f"rounds must be a positive integer, got {rounds}")
    return rounds * (eps_b + eps_a)
