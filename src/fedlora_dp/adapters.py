"""Low-rank factor pairs and stacking aggregation.

A trainable update to a frozen base matrix W is a factor pair: a tall factor
``b`` (m x r) and a wide factor ``a`` (r x n), passed around as two plain
arrays.  Its dense update is ``scale * b @ a`` with ``scale = lora_scale /
rank``; the caller holds the scale.  The server combines pairs of possibly
different ranks by concatenating the ``b`` factors horizontally and the ``a``
factors vertically; the stacked product equals the weighted sum of the
pairs' products.

Only ``FrozenBase`` checks its entries (2-D, non-empty, finite).  Every
factor pair comes from ``simulation.local_train``, at the round's shapes,
and training raises ``NumericError`` on a non-finite number, so
``aggregate_stack`` checks neither entries nor shapes.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import RngStream, as_matrix

__all__ = [
    "GlobalAdapter",
    "FrozenBase",
    "aggregate_stack",
    "global_delta",
    "init_adapter",
]

FactorPair = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FrozenBase:
    """Immutable base weight matrix shared by all clients."""

    w: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.w, "base weight")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape


@dataclass(frozen=True)
class GlobalAdapter:
    """Stacked factors of all contributing pairs, in stacking order."""

    b_stacked: np.ndarray
    a_stacked: np.ndarray


def aggregate_stack(pairs: list[FactorPair], weights: list[float]) -> GlobalAdapter:
    """Stack factor pairs into one global adapter, in list order.

    Each pair's weight is folded into its b factor only, so the stacked
    product equals sum_k weights[k] * b_k @ a_k.
    """
    return GlobalAdapter(
        b_stacked=np.hstack([w * b for (b, _), w in zip(pairs, weights)]),
        a_stacked=np.vstack([a for _, a in pairs]),
    )


def global_delta(g: GlobalAdapter) -> np.ndarray:
    """Dense update of the stacked pair."""
    return g.b_stacked @ g.a_stacked


def init_adapter(m: int, n: int, rank: int, rng: RngStream) -> FactorPair:
    """Fresh factor pair (b, a): b is zero, a has i.i.d. N(0, 1/rank) entries.

    The zero b factor makes a fresh pair's delta exactly zero.
    """
    a = rng.generator().standard_normal((rank, n)) / np.sqrt(rank)
    return np.zeros((m, rank)), a
