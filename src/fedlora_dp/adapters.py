"""Low-rank adapter pairs and stacking aggregation.

A trainable update to a frozen base matrix W is factored as the product of a
tall factor ``b`` (m x r) and a wide factor ``a`` (r x n), scaled by
``lora_scale / rank``.  The server combines client updates of possibly
different ranks by concatenating the ``b`` factors horizontally and the ``a``
factors vertically; the stacked product equals the weighted sum of per-client
products.

Only ``FrozenBase`` checks its entries (2-D, non-empty, finite).  The factor
pairs come from training, which raises ``NumericError`` on a non-finite
number, so ``LoraAdapter``, ``ClientUpdate`` and ``GlobalAdapter`` check only
shapes, ranks, weights and spans.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import RngStream, as_matrix

__all__ = [
    "LoraAdapter",
    "ClientUpdate",
    "GlobalAdapter",
    "FrozenBase",
    "adapter_delta",
    "aggregate_stack",
    "global_delta",
    "init_adapter",
]


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
class LoraAdapter:
    """Trainable factor pair (b: m x r, a: r x n) with a scale hyperparameter.

    The effective update is (lora_scale / rank) * b @ a, so configurations
    with lora_scale == rank have unit scale.
    """

    b: np.ndarray
    a: np.ndarray
    rank: int
    lora_scale: float

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.b.shape[1] != self.rank or self.a.shape[0] != self.rank:
            raise ValueError(
                f"factor shapes {self.b.shape} and {self.a.shape} do not match rank {self.rank}"
            )
        if not self.lora_scale > 0:
            raise ValueError(f"lora_scale must be > 0, got {self.lora_scale}")

    @property
    def scale(self) -> float:
        return self.lora_scale / self.rank

    def with_factors(self, b: np.ndarray, a: np.ndarray) -> "LoraAdapter":
        return LoraAdapter(b=b, a=a, rank=self.rank, lora_scale=self.lora_scale)


@dataclass(frozen=True)
class ClientUpdate:
    """A client's released factor pair, plus its aggregation weight."""

    client_id: int
    b_tilde: np.ndarray
    a_tilde: np.ndarray
    rank: int
    weight: float = 1.0

    def __post_init__(self):
        b, a = self.b_tilde, self.a_tilde
        if b.shape[1] != self.rank or a.shape[0] != self.rank:
            raise ValueError(
                f"client {self.client_id}: factor shapes {b.shape} and {a.shape} "
                f"do not match rank {self.rank}"
            )
        if self.weight < 0:
            raise ValueError(f"client {self.client_id}: weight must be >= 0, got {self.weight}")


@dataclass(frozen=True)
class GlobalAdapter:
    """Stacked factors covering all contributing clients.

    ``spans`` records (client_id, column offset, rank) for each client, in
    stacking order; the offsets partition [0, total rank) contiguously.
    """

    b_stacked: np.ndarray
    a_stacked: np.ndarray
    spans: tuple[tuple[int, int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        b, a = self.b_stacked, self.a_stacked
        if b.shape[1] != a.shape[0]:
            raise ValueError(f"stacked shapes {b.shape} and {a.shape} do not chain")
        offset = 0
        for client_id, start, rank in self.spans:
            if start != offset:
                raise ValueError(f"span for client {client_id} starts at {start}, expected {offset}")
            offset += rank
        if self.spans and offset != b.shape[1]:
            raise ValueError(f"spans cover {offset} columns, stacked rank is {b.shape[1]}")

    @property
    def total_rank(self) -> int:
        return self.b_stacked.shape[1]


def adapter_delta(ad: LoraAdapter) -> np.ndarray:
    """Dense update (lora_scale / rank) * b @ a."""
    return ad.scale * (ad.b @ ad.a)


def aggregate_stack(updates: list[ClientUpdate]) -> GlobalAdapter:
    """Stack client updates into one global adapter, in list order.

    Each client's aggregation weight is folded into its b factor only, so the
    stacked product equals sum_k weight_k * b_k @ a_k.
    """
    if not updates:
        raise ValueError("need at least one client update to aggregate")
    m = updates[0].b_tilde.shape[0]
    n = updates[0].a_tilde.shape[1]
    for u in updates:
        if u.b_tilde.shape[0] != m:
            raise ValueError(f"client {u.client_id}: b has {u.b_tilde.shape[0]} rows, expected {m}")
        if u.a_tilde.shape[1] != n:
            raise ValueError(f"client {u.client_id}: a has {u.a_tilde.shape[1]} cols, expected {n}")
    b_parts = [u.weight * u.b_tilde for u in updates]
    a_parts = [u.a_tilde for u in updates]
    spans = []
    offset = 0
    for u in updates:
        spans.append((u.client_id, offset, u.rank))
        offset += u.rank
    return GlobalAdapter(
        b_stacked=np.hstack(b_parts),
        a_stacked=np.vstack(a_parts),
        spans=tuple(spans),
    )


def global_delta(g: GlobalAdapter) -> np.ndarray:
    """Dense update of the stacked pair."""
    return g.b_stacked @ g.a_stacked


def init_adapter(m: int, n: int, rank: int, lora_scale: float, rng: RngStream) -> LoraAdapter:
    """Fresh adapter: b is zero, a has i.i.d. N(0, 1/rank) entries.

    The zero b factor makes a fresh adapter's delta exactly zero.
    """
    if m < 1 or n < 1 or rank < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}, rank={rank}")
    a = rng.generator().standard_normal((rank, n)) / np.sqrt(rank)
    return LoraAdapter(b=np.zeros((m, rank)), a=a, rank=rank, lora_scale=lora_scale)
