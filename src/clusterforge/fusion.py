"""Type-I fusion, bond cost accounting, and reproducible randomness.

Fusion is the only stochastic primitive: it succeeds with probability
1/2, merging two qubits from different clusters into one that inherits
both neighborhoods, and on failure effectively Z-measures both targets.
Bond costs follow the destroyed-edge convention: only edges removed by
measurements and fusion failures count, while bonds created by local
unitaries or by successful fusion rewiring are free.  :func:`step_cost`
is the one place that convention is written down.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .graphstate import GraphState

__all__ = [
    "RngStream",
    "CostLedger",
    "step_cost",
    "FusionOutcome",
    "type1_fuse",
    "merge_disjoint",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(v: int) -> int:
    """SplitMix64 finalizer; full-period bijection on 64-bit ints."""
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    v = (v ^ (v >> 27)) * 0x94D049BB133111EB & _MASK64
    return v ^ (v >> 31)


class RngStream:
    """Counter-based 64-bit generator (SplitMix64) with substreams.

    The state is ``seed + draws * gamma``; outputs come from a fixed
    integer mixing function, so identical seeds give identical
    sequences on any platform, and numbered substreams are independent
    of how many draws their parent has made.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK64
        self.counter = counter

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.seed + self.counter * _GAMMA) & _MASK64)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_bool(self, p: float = 0.5) -> bool:
        return self.next_float() < p

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; deterministic in (seed, index) only."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        child = _mix64(self.seed ^ _mix64((index + 1) * _GAMMA & _MASK64))
        return RngStream(child)


def _draw_counts(seed: int, n: int, p: float) -> list[int]:
    """Draws each substream 0..n-1 of ``RngStream(seed)`` takes up to its first
    ``next_bool(p)`` success, p > 0: their arithmetic, without their calls."""
    seed &= _MASK64
    counts = []
    for i in range(1, n + 1):
        child = _mix64(seed ^ _mix64(i * _GAMMA & _MASK64))
        draws = 1
        while not (_mix64(child + draws * _GAMMA & _MASK64) >> 11) * 2.0**-53 < p:
            draws += 1
        counts.append(draws)
    return counts


class CostLedger(NamedTuple):
    """Additive resource counters for a build sequence."""

    bonds_consumed: int = 0
    qubits_consumed: int = 0
    fusion_attempts: int = 0
    fusion_successes: int = 0

    def __add__(self, other: "CostLedger") -> "CostLedger":
        return CostLedger(*map(operator.add, self, other))

    def to_dict(self) -> dict[str, int]:
        return self._asdict()


def step_cost(step: Mapping) -> CostLedger:
    """Ledger delta of one trace step.

    Measurements pay the measured vertex's degree and consume it; a
    fusion consumes one qubit on success and both targets on failure,
    paying the bonds recorded on the step; discarded isolated vertices
    cost no bonds.  Every other op is a free rewrite.
    """
    op = step["op"]
    if op in ("measure_z", "measure_y"):
        return CostLedger(step["bonds"], 1)
    if op == "fuse":
        success = step["outcome"] == "S"
        return CostLedger(step["bonds"], 1 if success else 2, 1, int(success))
    if op == "drop_isolated":
        return CostLedger(0, len(step["vertices"]))
    return CostLedger()


@dataclass(frozen=True)
class FusionOutcome:
    """Result tag for one fusion attempt.

    ``merged`` is the fresh vertex id on success, None on failure.
    """

    success: bool
    merged: int | None = None

    def __post_init__(self) -> None:
        if self.success and self.merged is None:
            raise ValueError("successful fusion must name the merged vertex")
        if not self.success and self.merged is not None:
            raise ValueError("failed fusion cannot name a merged vertex")


def type1_fuse(
    g: GraphState,
    a: int,
    b: int,
    rng: RngStream | None = None,
    forced: str | None = None,
    *,
    allow_nonleaf: bool = False,
) -> tuple[GraphState, FusionOutcome, CostLedger]:
    """Attempt a type-I fusion of qubits a and b.

    Success (probability 1/2) replaces both with a fresh vertex
    ``max(vertices) + 1`` adjacent to the symmetric difference of their
    neighborhoods; on the canonical branch the result is again a plain
    graph state.  Failure Z-measures both targets, costing their
    combined degree in bonds.

    One draw is taken from ``rng`` per attempt even when ``forced``
    ('S' or 'F') decides the branch, so forced and stochastic
    traces stay aligned.  Targets must be distinct, non-adjacent, and
    leaves (degree <= 1) unless ``allow_nonleaf`` opts into the
    generalized rule, which is oracle-validated in the test suite.
    A recipe's working graph is edited in place and returned.
    """
    na, nb = g.neighbors(a), g.neighbors(b)
    if a == b:
        raise ValueError("unsupported fusion target: cannot fuse a vertex with itself")
    if b in na:
        raise ValueError("unsupported fusion target: vertices are adjacent")
    if not allow_nonleaf and (len(na) > 1 or len(nb) > 1):
        raise ValueError(
            "unsupported fusion target: degree > 1 (pass allow_nonleaf for the "
            "generalized rule)"
        )

    drawn = rng.next_bool() if rng is not None else None
    if forced is None:
        if drawn is None:
            raise ValueError("fusion needs an rng or a forced outcome")
        success = drawn
    elif forced in ("S", "F"):
        success = forced == "S"
    else:
        raise ValueError(f"forced outcome must be 'S' or 'F', got {forced!r}")

    cut = [(a, u) for u in na] + [(b, u) for u in nb]
    if success:
        merged = g._fresh()
        out = g._rewired(cut + [(merged, u) for u in na ^ nb], add=merged, drop=(a, b))
        outcome = FusionOutcome(True, merged=merged)
        bonds = 0
    else:
        bonds = len(cut)
        out = g._rewired(cut, drop=(a, b))
        outcome = FusionOutcome(False)
    step = {"op": "fuse", "outcome": "S" if success else "F", "bonds": bonds}
    return out, outcome, step_cost(step)


def merge_disjoint(ga: GraphState, gb: GraphState) -> GraphState:
    """Union of two graphs over disjoint vertex sets; a recipe's working
    graph as ``ga`` takes ``gb`` in place."""
    overlap = ga.vertices & gb.vertices
    if overlap:
        raise ValueError(
            f"vertex sets overlap: {sorted(overlap)}; relabel one side first"
        )
    return ga._merged(gb)
