"""Executable construction recipes with cost accounting and replayable traces.

Each recipe turns one or more resource chains into a target cluster
shape and returns a :class:`RecipeResult`: the final graph, the local
frame of residual single-qubit corrections, and a step-by-step trace,
which is the run's one record.  Traces serialize to JSON and
:func:`replay` re-executes one against the recorded starting material,
requiring every step to re-record identically, forced fusion outcomes
included.

Cost conventions: every destroyed edge costs one bond (measurements pay
the measured vertex's degree, failed fusions pay both targets'
degrees), bonds created by the box rewrite or by successful fusion are
free, and every measured, fused, or discarded qubit counts once in
``qubits_consumed``.  The cost ledger is the sum of
:func:`~clusterforge.fusion.step_cost` over the trace; it is derived,
never stored beside the trace, and :func:`result_from_doc` rejects a
document whose stored ledger is not that sum.

A recipe copies its input once into a working graph that the public
rewrite functions edit in place, and freezes an immutable graph only
for its result and where it reads the whole graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import cliffords
from .fusion import CostLedger, FusionOutcome, RngStream, merge_disjoint, step_cost, type1_fuse
from .graphstate import (
    GraphState,
    _WorkingGraph,
    chain_to_box,
    frame_from_doc,
    frame_to_doc,
    graph_from_doc,
    graph_to_doc,
    measure_y,
    measure_z,
    path_vertices,
    y_byproduct_frame,
)

__all__ = [
    "RecipeResult",
    "ResourcesExhaustedError",
    "parse_schedule",
    "build_l_shape",
    "build_cross",
    "build_h_shape",
    "grow_ladder",
    "grow_depth",
    "build_double_box",
    "build_triple_box",
    "join_double_boxes",
    "close_second_rung",
    "salvage_failed_join",
    "build_ring8",
    "nodeless_rung",
    "trace_ledger",
    "result_to_doc",
    "result_from_doc",
    "result_from_checked_doc",
    "result_to_json",
    "replay",
]


# A string schedule expands to one token per attempt; far longer than any
# chain can host, and small enough to expand in memory.
MAX_SCHEDULE_TOKENS = 10**6


class ResourcesExhaustedError(RuntimeError):
    """A retry loop ran out of chain material before succeeding.

    ``partial`` holds the RecipeResult at the point of exhaustion so the
    ledger spent so far stays inspectable.
    """

    def __init__(self, message: str, partial: "RecipeResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True, eq=True)
class RecipeResult:
    """Outcome of one recipe run.

    ``frame`` maps surviving vertices to single-qubit Clifford labels
    relating the physical state to the canonical graph state of
    ``graph``.  ``trace`` replays against ``initial`` to the same
    result; ``annotations`` carries derived structural metadata (rail
    paths, rung ids, forced-outcome summaries) that replay reproduces
    deterministically.  ``ledger`` is the trace's summed step costs.
    """

    name: str
    graph: GraphState
    frame: dict[int, str]
    trace: tuple[dict, ...]
    initial: GraphState
    annotations: dict = field(default_factory=dict)

    @cached_property
    def ledger(self) -> CostLedger:
        return trace_ledger(self.trace)


def parse_schedule(forced) -> list[str]:
    """Normalize a forced-outcome schedule to a list of 'S'/'F' tokens.

    Accepts None, an iterable of 'S'/'F', or a compact string like
    "S", "F,S", or "F*3,S" of at most :data:`MAX_SCHEDULE_TOKENS` tokens.
    """
    if forced is None:
        return []
    if isinstance(forced, str):
        runs: list[tuple[str, int]] = []
        for token in forced.split(","):
            token = token.strip().upper()
            if not token:
                continue
            sym, star, count = token.partition("*")
            if sym not in ("S", "F") or (star and not count.isdigit()):
                raise ValueError(f"bad forced-outcome token: {token!r}")
            runs.append((sym, int(count) if star else 1))
        if sum(count for _, count in runs) > MAX_SCHEDULE_TOKENS:
            raise ValueError(
                f"forced schedule longer than {MAX_SCHEDULE_TOKENS} tokens"
            )
        out: list[str] = []
        for sym, count in runs:
            out.extend([sym] * count)
        return out
    out = list(forced)
    for item in out:
        if item not in ("S", "F"):
            raise ValueError(f"bad forced-outcome entry: {item!r}")
    return out


class _Builder:
    """Mutable recipe executor: edits a working graph in place and
    accumulates frame and trace; ``graph`` freezes the working graph on each read."""

    def __init__(self, graph: GraphState, rng: RngStream | None = None, forced=None):
        self.work = _WorkingGraph(graph)
        self.initial = graph
        self.rng = rng
        self._forced = iter(parse_schedule(forced))
        self.frame: dict[int, str] = {}
        self.trace: list[dict] = []

    @classmethod
    def resume(cls, result: RecipeResult, rng=None, forced=None) -> "_Builder":
        """A builder that goes on from a result: it edits a copy of the
        result's graph and extends copies of its frame and steps."""
        b = cls(result.graph, rng, forced)
        b.initial = result.initial
        b.frame = dict(result.frame)
        b.trace = [dict(step) for step in result.trace]
        return b

    @property
    def graph(self) -> GraphState:
        return self.work.freeze()

    def _push_frame(self, v: int, label: str) -> None:
        # Existing corrections sit outside new ones: the physical state is
        # frame * |graph>, and a rewrite's byproduct lands next to the graph.
        combined = cliffords.compose_labels(self.frame.get(v, "I"), label)
        if combined == "I":
            self.frame.pop(v, None)
        else:
            self.frame[v] = combined

    def _require_frame_free(self, *vertices: int) -> None:
        for v in vertices:
            if v in self.frame:
                raise ValueError(f"vertex {v} carries a frame correction; absorb it first")

    # -- steps -----------------------------------------------------------

    def box(self, segment: tuple[int, int, int, int]) -> None:
        chain_to_box(self.work, segment)
        self.trace.append({"op": "box", "segment": list(segment)})

    def zmeas(self, v: int) -> None:
        self._require_frame_free(v)
        bonds = self.work.degree(v)
        measure_z(self.work, v)
        self.trace.append({"op": "measure_z", "vertex": v, "bonds": bonds})

    def ymeas(self, v: int) -> None:
        self._require_frame_free(v)
        corrections = y_byproduct_frame(self.work, v)
        bonds = self.work.degree(v)
        measure_y(self.work, v)
        for b, label in corrections.items():
            self._push_frame(b, label)
        self.trace.append({"op": "measure_y", "vertex": v, "bonds": bonds})

    def fuse(self, a: int, b: int, *, allow_nonleaf: bool = False) -> FusionOutcome:
        self._require_frame_free(a, b)
        forced = next(self._forced, None)
        _, outcome, delta = type1_fuse(
            self.work, a, b, rng=self.rng, forced=forced, allow_nonleaf=allow_nonleaf
        )
        tag = "S" if outcome.success else "F"
        self.trace.append({"op": "fuse", "a": a, "b": b, "outcome": tag, "merged": outcome.merged,
                           "bonds": delta.bonds_consumed, "allow_nonleaf": allow_nonleaf})
        return outcome

    def merge_step(self, extra: GraphState) -> None:
        """Bring fresh disjoint material into the working graph mid-recipe."""
        merge_disjoint(self.work, extra)
        self.trace.append({"op": "merge", **graph_to_doc(extra)})

    def absorb(self, other: RecipeResult) -> None:
        """Adopt a finished disjoint result: graphs, frames and traces join."""
        merge_disjoint(self.work, other.graph)
        self.initial = merge_disjoint(self.initial, other.initial)
        self.frame.update(other.frame)
        self.trace.extend(dict(step) for step in other.trace)

    def relabel(self, mapping: Mapping[int, int]) -> None:
        self.work = _WorkingGraph(self.graph.relabel(mapping))
        self.frame = {mapping.get(v, v): lab for v, lab in self.frame.items()}
        self.trace.append(
            {"op": "relabel", "mapping": {str(k): v for k, v in sorted(mapping.items())}}
        )

    def drop_isolated(self) -> list[int]:
        isolated = sorted(self.graph.isolated_vertices())
        self._require_frame_free(*isolated)
        self.work._rewired((), drop=tuple(isolated))
        self.trace.append({"op": "drop_isolated", "vertices": isolated})
        return isolated

    def tableau_rewrite(self, hadamards: Sequence[int], swaps: Sequence[tuple[int, int]]) -> None:
        """Apply Hadamards and label swaps exactly, re-extracting the graph.

        Runs through the stabilizer tableau (imported here) so any
        residual corrections land in the frame instead of being dropped.
        """
        from . import tableau as tb

        if self.frame:
            raise ValueError("tableau rewrite requires an empty frame")
        g = self.graph
        g._require(*hadamards, *(v for pair in swaps for v in pair))
        order = g.sorted_vertices()
        index = {v: i for i, v in enumerate(order)}
        t = tb.from_graph(g)
        for v in hadamards:
            t = t.apply("H", index[v])
        for a, b in swaps:
            t = t.apply("SWAP", index[a], index[b])
        g_pos, frame_pos = tb.to_graph(t)
        self.work = _WorkingGraph(g_pos.relabel({i: v for i, v in enumerate(order)}))
        self.frame = {order[q]: lab for q, lab in sorted(frame_pos.items())}
        swaps = [list(p) for p in swaps]
        self.trace.append({"op": "tableau_rewrite", "hadamards": list(hadamards), "swaps": swaps})

    def finish(self, name: str, annotations: dict | None = None) -> RecipeResult:
        return RecipeResult(name, self.graph, dict(self.frame), tuple(self.trace), self.initial,
                            annotations or {})


# -- deterministic single-chain recipes -------------------------------------


def _consecutive_path(g: GraphState, length: int, what: str) -> list[int]:
    """Validate that g is a path of ``length`` consecutively labeled vertices."""
    p = path_vertices(g)
    if len(p) != length:
        raise ValueError(f"{what} needs a {length}-vertex chain, got {len(p)}")
    if p != list(range(p[0], p[0] + length)):
        raise ValueError(f"{what} needs consecutive labels along the chain")
    return p


def build_l_shape(
    g: GraphState, segment: tuple[int, int, int, int] | None = None
) -> RecipeResult:
    """Chain into an L: box rewrite, then delete the inner corner.

    Deterministic, exactly 2 bonds.  The result keeps the chain running
    through q1 and q4 with the arm qubit q3 dangling from q1.  Default
    segment is the first four vertices walking from the low-id endpoint.
    """
    if segment is None:
        p = path_vertices(g)
        if len(p) < 4:
            raise ValueError("invalid box segment: chain has fewer than four vertices")
        segment = tuple(p[:4])
    b = _Builder(g)
    b.box(segment)
    b.zmeas(segment[1])
    return b.finish("L", {"hub": segment[0], "arm": segment[2]})


def _boxed_run(
    g: GraphState, start: int | None, boxes: int, what: str
) -> tuple[_Builder, int]:
    """A builder on g after ``boxes`` chained box rewrites, and the run's start.

    The run is ``3 * boxes + 1`` consecutively labeled chain vertices;
    neighboring boxes share a corner.  With ``start=None`` the whole
    graph must be such a chain.  With an explicit start, the run is
    checked in place: interior vertices (including the shared box
    corners) must have no outside neighbors, while the two run ends may
    carry extensions.
    """
    length = 3 * boxes + 1
    if start is None:
        start = _consecutive_path(g, length, what)[0]
    run = range(start, start + length)
    for v in run:
        if v not in g.vertices:
            raise ValueError(f"{what} needs vertices {start}..{start + length - 1}")
    for v in run[:-1]:
        if not g.has_edge(v, v + 1):
            raise ValueError(f"{what} needs the chain edge {v}-{v + 1}")
    for v in run[1:-1]:
        if g.neighbors(v) != {v - 1, v + 1}:
            raise ValueError(
                f"invalid box segment: vertex {v} must have no outside neighbors"
            )
    b = _Builder(g)
    for corner in run[:-1:3]:
        b.box((corner, corner + 1, corner + 2, corner + 3))
    return b, start


def build_double_box(g: GraphState, start: int | None = None) -> RecipeResult:
    """Two box rewrites sharing a corner, from a consecutive 7-chain.

    Deterministic and free: the cross precursor with edge set
    {1-3,2-3,2-4,1-4, 4-6,5-6,5-7,4-7} (shifted by the chain's start).
    """
    b, s = _boxed_run(g, start, 2, "double box")
    return b.finish(
        "double-box", {"start": s, "hubs": [s + 3], "wings": [s + 1, s + 6]}
    )


def build_triple_box(g: GraphState, start: int | None = None) -> RecipeResult:
    """Three chained box rewrites from a consecutive 10-chain; free."""
    b, s = _boxed_run(g, start, 3, "triple box")
    return b.finish("triple-box", {"start": s, "hubs": [s + 3, s + 6]})


def build_cross(g: GraphState, start: int | None = None) -> RecipeResult:
    """Cross (4-star) from a consecutive 7-chain at exactly 4 bonds.

    Double box, then delete the two outer box corners; the shared corner
    becomes the center, adjacent to the four remaining ends.  With an
    explicit ``start`` the chain may extend past the run's two ends.
    """
    b, s = _boxed_run(g, start, 2, "cross")
    b.zmeas(s + 2)
    b.zmeas(s + 4)
    return b.finish("cross", {"center": s + 3})


# -- probabilistic joining recipes -------------------------------------------


def _l_start(path: list[int]) -> int | None:
    """Index of the next L segment on a chain walked from its anchor end.

    The hub sits one step inside the chain when there is room, so the joined
    shape gets a proper interior corner; a bare 4-chain falls back to the end
    segment (the minimal L of the basic rewrite)."""
    if len(path) >= 5:
        return 1
    if len(path) == 4:
        return 0
    return None


def _attempt_rung(b: _Builder, hosts: Sequence[list[int]], starts: Sequence[int]) -> FusionOutcome:
    """One rung attempt between two host paths.

    Builds an L on the four-vertex segment of each host at its start
    index (box, then Z on the segment's second vertex) and fuses the two
    arm qubits.  The measured and fused vertices leave their host paths
    in place, so each segment's first vertex keeps its index."""
    segments = [tuple(host[i : i + 4]) for host, i in zip(hosts, starts)]
    for seg in segments:
        b.box(seg)
        b.zmeas(seg[1])
    outcome = b.fuse(segments[0][2], segments[1][2])
    for host, i in zip(hosts, starts):
        del host[i + 1 : i + 3]
    return outcome


def _exhaust(b: _Builder, name: str, annotations: dict) -> ResourcesExhaustedError:
    annotations = dict(annotations)
    annotations["exhausted"] = True
    return ResourcesExhaustedError(
        "resource chains exhausted: no room left for another attempt",
        b.finish(name, annotations),
    )


def build_h_shape(
    chain_a: GraphState,
    chain_b: GraphState,
    *,
    rng: RngStream | None = None,
    forced=None,
) -> RecipeResult:
    """Join two chains into a sideways H through one rung qubit.

    Loop: build an L on each chain (2 bonds each), fuse the two arm
    qubits.  Success yields the H at 6k-2 bonds after k attempts; each
    failure costs 2 extra bonds and shortens both chains by two
    vertices, re-anchoring at the end that held the previous arm.
    Raises :class:`ResourcesExhaustedError` when a chain can no longer
    host an L segment.
    """
    path_a = path_vertices(chain_a)
    path_b = path_vertices(chain_b)
    g = merge_disjoint(chain_a, chain_b)
    b = _Builder(g, rng, forced)
    while True:
        starts = [_l_start(path_a), _l_start(path_b)]
        if None in starts:
            raise _exhaust(b, "H", {"rails": [path_a, path_b], "rungs": []})
        outcome = _attempt_rung(b, (path_a, path_b), starts)
        if outcome.success:
            annotations = {
                "rails": [path_a, path_b],
                "cursors": starts,
                "rungs": [outcome.merged],
            }
            return b.finish("H", annotations)


def _rail_state(result: RecipeResult) -> tuple[list[list[int]], list[int], list[int]]:
    ann = result.annotations
    if "rails" not in ann or "cursors" not in ann:
        raise ValueError("result does not carry rail annotations; build the H first")
    rails = [list(r) for r in ann["rails"]]
    cursors = list(ann["cursors"])
    rungs = list(ann.get("rungs", []))
    return rails, cursors, rungs


def grow_ladder(
    h: RecipeResult,
    chains: Iterable[GraphState],
    rung_count: int,
    *,
    rng: RngStream | None = None,
    forced=None,
) -> RecipeResult:
    """Add rungs along an H, turning it into a sideways ladder.

    Each rung repeats the L+L+fuse pattern on the next free segment of
    both rails.  When a rail runs too short, the next chain from
    ``chains`` is fused leaf-to-leaf onto its far end (one more
    probabilistic attempt; failure shortens both ends by one).  With no
    material left, or once failures have eaten a rail back to its last
    rung, raises :class:`ResourcesExhaustedError`.
    """
    if rung_count < 0:
        raise ValueError(f"rung count must be non-negative, got {rung_count}")
    if rung_count == 0:
        return h
    rails, cursors, rungs = _rail_state(h)
    b = _Builder.resume(h, rng, forced)
    pool = [{"path": path_vertices(c), "graph": c, "merged": False} for c in chains]
    name = "ladder"

    def ensure_rail(i: int) -> None:
        while len(rails[i]) < cursors[i] + 5:
            # The vertex at the cursor holds the last rung, so only a leaf
            # past it may take a spare chain.
            if not pool or len(rails[i]) <= cursors[i] + 1:
                raise _exhaust(
                    b, name, {"rails": rails, "cursors": cursors, "rungs": rungs}
                )
            spare = pool[0]
            if not spare["merged"]:
                b.merge_step(spare["graph"])
                spare["merged"] = True
            tail, head = rails[i][-1], spare["path"][0]
            outcome = b.fuse(tail, head)
            if outcome.success:
                rails[i][-1:] = [outcome.merged, *spare["path"][1:]]
                pool.pop(0)
            else:
                rails[i].pop()
                spare["path"] = spare["path"][1:]
                if len(spare["path"]) < 2:
                    pool.pop(0)

    added = 0
    while added < rung_count:
        ensure_rail(0)
        ensure_rail(1)
        outcome = _attempt_rung(b, rails, [c + 1 for c in cursors])
        if outcome.success:
            rungs.append(outcome.merged)
            cursors = [c + 1 for c in cursors]
            added += 1
    return b.finish(name, {"rails": rails, "cursors": cursors, "rungs": rungs})


def grow_depth(
    h: RecipeResult,
    new_chain: GraphState,
    *,
    rng: RngStream | None = None,
    forced=None,
) -> RecipeResult:
    """Adjoin a parallel chain to the outer side of an H or ladder.

    The outer rail hosts an L on its next free segment, the new chain
    hosts one of its own, and the arms fuse into a rung; the result is
    one chain deeper.  Failures shorten both hosts and retry.
    """
    rails, cursors, rungs = _rail_state(h)
    b = _Builder.resume(h, rng, forced)
    b.merge_step(new_chain)
    outer = len(rails) - 1
    new_path = path_vertices(new_chain)
    while True:
        c = cursors[outer]
        start_n = _l_start(new_path)
        if len(rails[outer]) < c + 5 or start_n is None:
            raise _exhaust(b, "depth", {"rails": rails, "cursors": cursors, "rungs": rungs})
        outcome = _attempt_rung(b, (rails[outer], new_path), (c + 1, start_n))
        if outcome.success:
            rungs.append(outcome.merged)
            cursors[outer] = c + 1
            rails.append(new_path)
            cursors.append(start_n)
            return b.finish(
                "depth", {"rails": rails, "cursors": cursors, "rungs": rungs}
            )


# -- double-box joining pipeline ---------------------------------------------


def join_double_boxes(
    x: RecipeResult,
    y: RecipeResult,
    *,
    rng: RngStream | None = None,
    forced=None,
) -> RecipeResult:
    """Attempt to weld two double boxes into a two-rung block.

    Fuses x's hub-side wing corners with y's, in id order: first
    (x_start+1, y_start), then (x_start+6, y_start+5).  Both corners
    have degree 2, so this uses the generalized fusion rule (validated
    against the dense oracle in the tests).  A first-fusion failure
    stops immediately; salvage the remnant with
    :func:`salvage_failed_join`.  A second-fusion failure leaves the
    one-rung remnant that :func:`close_second_rung` repairs.
    """
    for r, what in ((x, "x"), (y, "y")):
        if "start" not in r.annotations:
            raise ValueError(f"{what} does not look like a double-box result")
    sx = x.annotations["start"]
    sy = y.annotations["start"]
    b = _Builder.resume(x, rng, forced)
    b.absorb(y)
    outcomes = []
    rungs = []
    first = b.fuse(sx + 1, sy, allow_nonleaf=True)
    outcomes.append("S" if first.success else "F")
    if first.success:
        rungs.append(first.merged)
        second = b.fuse(sx + 6, sy + 5, allow_nonleaf=True)
        outcomes.append("S" if second.success else "F")
        if second.success:
            rungs.append(second.merged)
    return b.finish("join", {"join_outcomes": outcomes, "rungs": rungs})


def close_second_rung(
    d: RecipeResult,
    *,
    rng: RngStream | None = None,
    forced=None,
) -> RecipeResult:
    """Finish a one-rung join remnant into the two-rung block.

    Fuse the remnant's two leaves; on success the two in-between
    connector qubits come out by Y measurements (leaving S corrections
    on their neighbors), which bends the merged path into the second
    rung.  If that fusion fails, the connectors themselves are now
    leaves and one more fusion attempt closes the same rung directly.
    If both fail, the survivor is again double-box-shaped.
    """
    leaves = sorted(v for v in d.graph.vertices if d.graph.degree(v) == 1)
    if len(leaves) != 2:
        raise ValueError("result does not look like a one-rung join remnant")
    la, lb = leaves
    connectors = sorted({next(iter(d.graph.neighbors(v))) for v in leaves})
    b = _Builder.resume(d, rng, forced)
    outcomes = []
    first = b.fuse(la, lb)
    outcomes.append("S" if first.success else "F")
    if first.success:
        for v in connectors:
            b.ymeas(v)
    else:
        second = b.fuse(connectors[0], connectors[1])
        outcomes.append("S" if second.success else "F")
    return b.finish("close-rung", {"close_outcomes": outcomes})


def _salvage_targets(g: GraphState, component: frozenset[int]) -> tuple[int, int]:
    """Locate (opposite corner, tail vertex) in a broken double box.

    The component keeps one intact 4-cycle whose far corner is the
    common second neighbor of the hub's two cycle neighbors; the third
    hub neighbor starts the leftover two-vertex tail.
    """
    hubs = [v for v in component if g.degree(v) == 3]
    if len(hubs) != 1:
        raise ValueError("remnant component lacks a unique degree-3 hub")
    hub = hubs[0]
    nbrs = sorted(g.neighbors(hub))
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            a, b = nbrs[i], nbrs[j]
            others_a = g.neighbors(a) - {hub}
            others_b = g.neighbors(b) - {hub}
            common = others_a & others_b
            if len(common) == 1:
                (corner,) = common
                (tail,) = set(nbrs) - {a, b}
                return corner, tail
    raise ValueError("remnant component has no intact box cycle")


def salvage_failed_join(
    remnant: RecipeResult, *, rng: RngStream | None = None, forced=None
) -> RecipeResult:
    """Recover a double box from the debris of a failed first join fusion.

    The debris is one result with two components, each a box cycle with
    a dangling two-vertex tail.  Fusing the two far corners and
    Z-measuring the tail roots (their leaves float off for free)
    rebuilds one double-box-shaped cluster at 4 bonds on success.
    Failure costs 4 bonds and leaves the shortened remnants.
    """
    b = _Builder.resume(remnant, rng, forced)
    g = b.graph
    comps = g.connected_components()
    if len(comps) != 2:
        raise ValueError("expected exactly two remnant components")
    comps = sorted(comps, key=min)
    (corner_a, tail_a) = _salvage_targets(g, comps[0])
    (corner_b, tail_b) = _salvage_targets(g, comps[1])
    outcome = b.fuse(corner_a, corner_b, allow_nonleaf=True)
    if outcome.success:
        b.zmeas(tail_a)
        b.zmeas(tail_b)
        b.drop_isolated()
    return b.finish(
        "salvage", {"salvage_outcome": "S" if outcome.success else "F"}
    )


# -- ring and rung utilities --------------------------------------------------

RING8_HADAMARDS = (1, 4, 5, 8)
RING8_SWAPS = ((1, 5), (4, 8))


def build_ring8(
    g: GraphState,
    *,
    rng: RngStream | None = None,
    forced=None,
) -> RecipeResult:
    """Close a 9-chain into an 8-ring, then flatten it by local rewrites.

    The end leaves fuse (one attempt); failure Z-deletes both ends and
    returns the leftover 7-chain at 2 bonds.  On success the ring is
    relabeled to 1..8 and Hadamards on {1,4,5,8} plus the label swaps
    (1 5)(4 8) are applied through the tableau, with the resulting
    graph and frame extracted exactly.
    """
    p = _consecutive_path(g, 9, "ring build")
    s = p[0]
    b = _Builder(g, rng, forced)
    outcome = b.fuse(s, s + 8)
    if not outcome.success:
        return b.finish("ring8", {"closed": False})
    ring_order = list(range(s + 1, s + 8)) + [outcome.merged]
    b.relabel({v: i + 1 for i, v in enumerate(ring_order)})
    b.tableau_rewrite(RING8_HADAMARDS, RING8_SWAPS)
    return b.finish("ring8", {"closed": True})


def nodeless_rung(g: GraphState, v: int) -> RecipeResult:
    """Remove a 2-degree rung qubit, bonding its neighbors directly.

    A Y measurement on v toggles the edge between its two neighbors and
    deletes v: the two-edge rung becomes a single bond at a cost of 2,
    leaving S corrections on both neighbors.
    """
    if g.degree(v) != 2:
        raise ValueError(f"nodeless rung needs a degree-2 vertex, got degree {g.degree(v)}")
    b = _Builder(g)
    b.ymeas(v)
    return b.finish("nodeless-rung", {"bonded": sorted(b.frame)})


# -- serialization and replay --------------------------------------------------


def trace_ledger(trace: Iterable[Mapping]) -> CostLedger:
    """Reconstruct the total ledger from a trace's per-step deltas in one pass."""
    bonds = qubits = attempts = successes = 0
    for b, q, a, s in map(step_cost, trace):
        bonds += b
        qubits += q
        attempts += a
        successes += s
    return CostLedger(bonds, qubits, attempts, successes)


def result_to_doc(result: RecipeResult) -> dict:
    return {
        "name": result.name,
        "graph": graph_to_doc(result.graph),
        "frame": frame_to_doc(result.graph, result.frame),
        "ledger": result.ledger.to_dict(),
        "trace": [dict(step) for step in result.trace],
        "initial": graph_to_doc(result.initial),
        "annotations": result.annotations,
    }


def result_to_json(result: RecipeResult) -> str:
    """Canonical byte-stable JSON for a RecipeResult."""
    return json.dumps(result_to_doc(result), sort_keys=True, separators=(",", ":"))


# The stored document in one table.  A type is a (test, error) leaf, {str: t}
# for an object from decimal vertex ids to t, _TRACE_OPS for a list of trace
# steps, or a dict for an object holding those keys.  Integers must be JSON
# integers: a float or bool hashes and compares like an int but prints differently.
_INT = (lambda v: type(v) is int, " must be a JSON integer")
_STR = (lambda v: type(v) is str, " must be a JSON string")
_OBJECT = (lambda v: type(v) is dict, " must be a JSON object")
_IDS = (lambda v: type(v) is list and all(type(x) is int for x in v), ": vertex ids must be JSON integers")
_PAIRS = (lambda v: type(v) is list and all(_IDS[0](p) and len(p) == 2 for p in v), _IDS[1] + ", in pairs")
_GRAPH = {"vertices": (lambda v: _IDS[0](v) and len(set(v)) == len(v), _IDS[1] + ", each listed once"),
          "edges": (lambda v: _PAIRS[0](v) and len({(min(p), max(p)) for p in v}) == len(v),
                    _PAIRS[1] + ", each edge listed once")}

# Trace op -> (its fields and their types, the _Builder call replay makes).
_TRACE_OPS = {
    "box": ({"segment": _IDS}, lambda b, s: b.box(tuple(s["segment"]))),
    "measure_z": ({"vertex": _INT, "bonds": _INT}, lambda b, s: b.zmeas(s["vertex"])),
    "measure_y": ({"vertex": _INT, "bonds": _INT}, lambda b, s: b.ymeas(s["vertex"])),
    "fuse": ({"a": _INT, "b": _INT, "outcome": (lambda v: v in ("S", "F"), " must be 'S' or 'F'"),
              "merged": (lambda v: v is None or type(v) is int, " must be a JSON integer or null"),
              "bonds": _INT, "allow_nonleaf": (lambda v: type(v) is bool, " must be a JSON boolean")},
             lambda b, s: b.fuse(s["a"], s["b"], allow_nonleaf=s["allow_nonleaf"])),
    "merge": (_GRAPH, lambda b, s: b.merge_step(graph_from_doc(s))),
    "relabel": ({"mapping": {str: _INT}},
                lambda b, s: b.relabel({int(k): v for k, v in s["mapping"].items()})),
    "drop_isolated": ({"vertices": _IDS}, lambda b, s: b.drop_isolated()),
    "tableau_rewrite": ({"hadamards": _IDS, "swaps": _PAIRS},
                        lambda b, s: b.tableau_rewrite(s["hadamards"], s["swaps"])),
}

# The seven keys result_to_doc writes, each with its type.
_DOCUMENT = {"name": _STR, "graph": _GRAPH, "frame": {str: _STR}, "trace": _TRACE_OPS,
             "ledger": dict.fromkeys(CostLedger._fields, _INT), "initial": _GRAPH,
             "annotations": _OBJECT}


def _check(value, spec, where: str = "") -> None:
    """Raise ValueError, naming the field, unless value has type spec."""
    if type(spec) is tuple:
        if not spec[0](value):
            raise ValueError(where + spec[1])
    elif spec is _TRACE_OPS:
        if type(value) is not list or any(type(step) is not dict for step in value):
            raise ValueError(f"{where} must be a list of JSON objects")
        for step in value:
            op = step.get("op")
            if type(op) is not str or op not in _TRACE_OPS:
                raise ValueError(f"unknown trace op: {op!r}")
            _check(step, _TRACE_OPS[op][0], op)
    elif str in spec:
        _check(value, _OBJECT, where)
        for key, item in value.items():
            _check(key, (str.isdecimal, " keys must be decimal vertex ids"), where)
            _check(item, spec[str], f"{where} values")
    else:
        _check(value, _OBJECT, where or "recipe document")
        for key, item in spec.items():
            name = f"{where} {key}".lstrip()
            if key not in value:
                raise ValueError(f"invalid recipe document: missing {name}")
            _check(value[key], item, name)


def result_from_doc(doc: dict) -> RecipeResult:
    """Decode a stored result; its ledger must be its trace's sum."""
    _check(doc, _DOCUMENT)
    return result_from_checked_doc(doc)


def result_from_checked_doc(doc: dict) -> RecipeResult:
    """:func:`result_from_doc` without the document check, for one :func:`replay` accepted."""
    graph = graph_from_doc(doc["graph"])
    result = RecipeResult(
        name=doc["name"],
        graph=graph,
        frame=frame_from_doc(graph, doc["frame"]),
        trace=tuple(dict(step) for step in doc["trace"]),
        initial=graph_from_doc(doc["initial"]),
        annotations=doc["annotations"],
    )
    if doc["ledger"] != result.ledger.to_dict():
        raise ValueError("stored ledger does not match its trace")
    return result


def replay(doc: dict) -> RecipeResult:
    """Re-execute a serialized trace against its recorded starting graph.

    Fusions take the recorded outcomes in trace order without consuming
    randomness, and every step must re-record exactly as stored, so the
    reconstruction is bit-exact; the stored ledger is only type-checked.
    """
    _check(doc, _DOCUMENT)
    trace = doc["trace"]
    b = _Builder(
        graph_from_doc(doc["initial"]),
        forced=[step["outcome"] for step in trace if step["op"] == "fuse"],
    )
    for step in trace:
        _TRACE_OPS[step["op"]][1](b, step)
        if b.trace[-1] != step:
            raise ValueError(f"trace does not replay: {step['op']} step mismatch")
    return b.finish(doc["name"], doc["annotations"])
