"""Membership-inference distinguishing game against the privatized update mechanism.

The two neighboring datasets are two ``(x, y)`` array pairs of equal shape
that differ only in row 0, the replaced record.  Each is trained once into
its un-noised mean update (``trained_update``: the factor pair one client
trains under the config's ``mia_*`` keys), and the game is played on the two
trained means: a fair coin picks one, the mean is released as a round
releases a pair (``privacy.privatize``), and an attacker with worst-case
knowledge scores the release by projecting it onto the unit difference of
the two clipped, un-noised means, and guesses the replaced dataset when the
score is above their midpoint's; ``run_game`` builds both direction and
threshold, once per game.  This linear score is the likelihood-ratio
statistic only when both factors carry the same noise scale
(sigma_b == sigma_a); with unequal scales the unweighted projection is a
weaker attack than the likelihood ratio, whose score weights each factor's
block by 1/sigma^2.  The ROC is checked against the two-sided (eps, delta)
region: tpr <= e^eps * fpr + delta and 1 - fpr <= e^eps * (1 - tpr) + delta.

Training randomness is keyed by the caller's stream, not the trial, so each
dataset maps to one deterministic mean; ``run_game`` clips both means once,
so trial scores are exact Gaussian mean shifts.

Trials are played in blocks of a fixed size set by the factor shapes
(``_block_size``).  Under the game's stream, block k draws its coin flips
from child (k, 0), the B noise of its releases with bit ``bit`` from child
(k, 1, bit) and their A noise from child (k, 2, bit).  Within a block the
releases with one bit are one ``privatize`` call, in trial order, so the
first such trial gets the same noise as a single release on those children.
A game's trials are two arrays in trial order: the coin flips (``bits``, 0
or 1) and the attacker's scores; the game also returns the midpoint rule's
accuracy over them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adapters import FactorPair, FrozenBase, init_adapter
from .config import RunConfig
from .linalg import RngStream, as_matrix
from .privacy import MechanismParams, clip_pair, privatize
from .simulation import local_train

__all__ = [
    "RocCurve",
    "DpBoundCheck",
    "trained_update",
    "run_game",
    "roc_curve",
    "check_dp_bound",
]


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep of (fpr, tpr) pairs, endpoints (0,0) and (1,1) included."""

    thresholds: tuple[float, ...]
    fpr: tuple[float, ...]
    tpr: tuple[float, ...]

    def __post_init__(self):
        if len(self.fpr) != len(self.tpr) or len(self.fpr) < 2:
            raise ValueError("curve needs matching fpr/tpr sequences of length >= 2")
        if self.fpr[0] != 0 or self.tpr[0] != 0 or self.fpr[-1] != 1 or self.tpr[-1] != 1:
            raise ValueError("curve must start at (0,0) and end at (1,1)")
        if any(b < a for a, b in zip(self.fpr, self.fpr[1:])):
            raise ValueError("fpr must be nondecreasing")
        if any(b < a for a, b in zip(self.tpr, self.tpr[1:])):
            raise ValueError("tpr must be nondecreasing")


@dataclass(frozen=True)
class DpBoundCheck:
    """Worst observed gap outside the two-sided (eps, delta) privacy region.

    The region is bounded by two inequalities, and ``max_violation`` is the
    larger excess over either:

        tpr     <= e^eps * fpr       + delta   (forward)
        1 - fpr <= e^eps * (1 - tpr) + delta   (reverse: classes swapped)
    """

    max_violation: float
    mc_tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.mc_tolerance


def trained_update(x: np.ndarray, y: np.ndarray, base: FrozenBase, config: RunConfig,
                   stream: RngStream) -> FactorPair:
    """Un-noised, unclipped factor pair (b, a) one client trains on the rows of ``(x, y)``.

    The pair has rank ``mia_rank`` and LoRA scale 1 (its product enters
    unscaled), is drawn from ``stream.child(0)``, and trains for
    ``mia_epochs`` at ``mia_batch_size`` and ``mia_lr`` against the frozen
    base, shuffled by ``stream.child(1)``.  Called with one stream on both
    datasets of a neighboring pair, it keeps the difference of their updates
    down to the replaced row.
    """
    m, n = base.shape
    b, a = init_adapter(m, n, config.mia_rank, stream.child(0))
    resid = x @ base.w.T
    resid -= y
    result = local_train([0], x[np.newaxis], b[np.newaxis], a[np.newaxis], 1.0,
                         resid[np.newaxis], [stream.child(1)], epochs=config.mia_epochs,
                         batch_size=config.mia_batch_size, lr=config.mia_lr)
    return result.b[0], result.a[0]


def _block_size(b_size: int, a_size: int) -> int:
    """Trials per block: the largest noise draw of a block stays within 64k floats."""
    return max(1, 65_536 // max(b_size, a_size))


def run_game(
    mean0: FactorPair,
    mean1: FactorPair,
    mechanism: MechanismParams,
    trials: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Distinguishing game on two factor pairs, clipped, then noised per trial.

    The pairs are the un-noised mean updates of the two datasets: trained
    ones (``trained_update``), or synthetic ones such as antipodes on the clip
    sphere.  They are checked (``as_matrix``) and clipped once per game
    (``clip_pair``), for the attacker's scoring reference; ``privatize``'s
    clip hands the clipped means back unchanged.  Trials run in blocks of
    ``_block_size`` (the last block may be shorter); block k draws its bits
    from ``rng.child(k, 0)``, and for each bit present one ``privatize`` call
    draws all of that bit's releases, B noise from ``rng.child(k, 1, bit)``
    and A noise from ``rng.child(k, 2, bit)``.  Each release is scored by
    its projection onto the unit difference of the clipped means, b entries
    first.  Returns the trials' bits, their scores, and the accuracy of the
    midpoint rule: the share of trials where a score above the clipped
    means' midpoint score matches bit 1.  Means that coincide after clipping
    leave no direction to score along and are rejected.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    means = [clip_pair((as_matrix(b, "mean b"), as_matrix(a, "mean a")), mechanism)
             for b, a in (mean0, mean1)]
    shapes = sorted({(b.shape, a.shape) for b, a in means})
    if len(shapes) != 1 or shapes[0][0][1] != shapes[0][1][0]:
        raise ValueError(f"factor pairs must share one (m x r, r x n) shape, got {shapes}")
    mu0, mu1 = (np.concatenate([b.ravel(), a.ravel()]) for b, a in means)
    direction = mu1 - mu0
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("clipped means coincide; scoring direction is undefined")
    unit = direction / norm
    midpoint = float(unit @ (mu0 + mu1) / 2.0)
    split = means[0][0].size
    units = (unit[:split], unit[split:])
    block = _block_size(means[0][0].size, means[0][1].size)
    bits = np.empty(trials, dtype=np.int64)
    scores = np.zeros(trials)
    for k, start in enumerate(range(0, trials, block)):
        stop = min(start + block, trials)
        bits[start:stop] = rng.child(k, 0).generator().integers(0, 2, size=stop - start)
        for bit in (0, 1):
            rows = start + np.flatnonzero(bits[start:stop] == bit)
            if rows.size == 0:
                continue
            _, releases = privatize(means[bit], mechanism, rng.child(k, 1, bit),
                                    rng.child(k, 2, bit), count=rows.size)
            for release, factor_unit in zip(releases, units):
                scores[rows] += release.reshape(rows.size, -1) @ factor_unit
    accuracy = int(np.count_nonzero((scores > midpoint) == (bits == 1))) / trials
    return bits, scores, accuracy


def roc_curve(bits: np.ndarray, scores: np.ndarray) -> RocCurve:
    """Threshold sweep over scores, high scores predicting the replaced dataset.

    One point per distinct score, from the highest down: the point counts
    every trial scoring at or above it, so tied trials enter together.
    """
    if len(scores) == 0:
        raise ValueError("cannot build a curve from zero trials")
    n_pos = int(np.count_nonzero(bits))
    n_neg = len(bits) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need trials from both classes to build a curve")

    distinct, group = np.unique(scores, return_inverse=True)
    tp = np.cumsum(np.bincount(group[bits == 1], minlength=distinct.size)[::-1])
    fp = np.cumsum(np.bincount(group[bits == 0], minlength=distinct.size)[::-1])
    return RocCurve(
        thresholds=(math.inf, *distinct[::-1].tolist()),
        fpr=(0.0, *(fp / n_neg).tolist()),
        tpr=(0.0, *(tp / n_pos).tolist()),
    )


def check_dp_bound(curve: RocCurve, epsilon: float, delta: float, trials: int) -> DpBoundCheck:
    """Compare the empirical curve against the two-sided (eps, delta) region.

    Every point must satisfy both

        tpr     <= e^eps * fpr       + delta
        1 - fpr <= e^eps * (1 - tpr) + delta

    the second being the first with the classes swapped.  The region's upper
    boundary is therefore ``min(1, e^eps * fpr + delta,
    1 - e^-eps * (1 - fpr - delta))``, not the forward line alone.  The pass
    tolerance absorbs binomial sampling error at the given trial count.

    e^eps overflows a float past eps = 709.78, so eps is capped at 700.  The
    cap moves no verdict: at e^700 ~ 1e304, every point with fpr > 0 meets
    the forward line and every point with tpr < 1 the reverse one, as at any
    larger eps, while the fpr = 0 and tpr = 1 edges keep their delta.
    """
    fpr = np.array(curve.fpr)
    tpr = np.array(curve.tpr)
    scale = math.exp(min(epsilon, 700.0))
    forward = tpr - (scale * fpr + delta)
    reverse = (1.0 - fpr) - (scale * (1.0 - tpr) + delta)
    max_violation = float(max(forward.max(), reverse.max()))
    return DpBoundCheck(max_violation=max_violation,
                        mc_tolerance=3.0 * math.sqrt(0.25 / trials))
