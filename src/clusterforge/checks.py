"""Cross-engine verification suites behind the ``verify`` command.

Each suite re-derives a claimed identity three independent ways where
possible: the combinatorial graph rewrite, exact stabilizer-tableau
conjugation, and dense statevector simulation.  A suite returns a
:class:`CheckReport` of named pass/fail lines instead of asserting, so
the command line can render them and the test suite can reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tableau as tb
from .cliffords import matrix
from .fusion import RngStream, type1_fuse, merge_disjoint
from .graphstate import (
    GraphState,
    chain,
    chain_to_box,
    isomorphic,
    lc_equivalent,
    measure_y,
    measure_z,
    ring,
    star,
    y_byproduct_frame,
)
from .oracle import (
    StateVector,
    apply_unitary,
    equal_up_to_global_phase,
    graph_state_vector,
    merge_qubits,
    project_measure,
)
from .recipes import build_cross, build_double_box, build_ring8

__all__ = [
    "CheckLine",
    "CheckReport",
    "SUITE_NAMES",
    "run_suite",
    "random_graph",
    "measurement_agreement",
    "overlap_with_graph_state",
]

OVERLAP_TOL = 1e-10


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    suite: str
    lines: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_table(self) -> str:
        rows = []
        for line in self.lines:
            verdict = "PASS" if line.passed else "FAIL"
            detail = f"  ({line.detail})" if line.detail else ""
            rows.append(f"{verdict}  {self.suite}: {line.name}{detail}")
        return "\n".join(rows)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "lines": [
                {"name": l.name, "passed": l.passed, "detail": l.detail}
                for l in self.lines
            ],
        }


def random_graph(n: int, rng: RngStream, edge_probability: float = 0.5) -> GraphState:
    """Random graph on vertices 1..n, each possible edge tossed once."""
    vertices = frozenset(range(1, n + 1))
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.next_bool(edge_probability):
                edges.add((u, v))
    return GraphState(vertices, frozenset(edges))


def overlap_with_graph_state(vec, g: GraphState) -> float:
    """|<graph state of g | vec>|; both must share one qubit ordering."""
    target = graph_state_vector(g)
    return float(abs(np.vdot(target.amplitudes, vec.amplitudes)))


def _framed_graph_vector(g: GraphState, frame: dict[int, str]):
    vec = graph_state_vector(g)
    index = {v: i for i, v in enumerate(g.sorted_vertices())}
    for v, label in frame.items():
        vec = apply_unitary(vec, matrix(label), (index[v],))
    return vec


def measurement_agreement(g: GraphState, vertex: int, basis: str) -> tuple[bool, str]:
    """Check one Pauli measurement against both exact engines.

    The graph rewrite predicts the surviving graph plus a local frame:
    the measured qubit ends in the +1 eigenstate (H|+> for Z, S|+> for
    Y) and a Y measurement leaves an S byproduct on every neighbor.
    The prediction must match tableau measurement exactly (signs
    included) and statevector projection up to global phase.
    """
    if basis == "Z":
        corrections: dict[int, str] = {}
        measured_frame = "H"
        g_after = measure_z(g, vertex)
    elif basis == "Y":
        corrections = y_byproduct_frame(g, vertex)
        measured_frame = "S"
        g_after = measure_y(g, vertex)
    else:
        raise ValueError(f"unsupported measurement basis: {basis!r}")
    expected = g_after.with_vertex(vertex)
    frame = dict(corrections)
    frame[vertex] = measured_frame

    index = {v: i for i, v in enumerate(g.sorted_vertices())}
    q = index[vertex]

    t_after, _, _ = tb.measure_pauli(
        tb.from_graph(g), tb.PauliString.single(g.n, q, basis), forced=1
    )
    t_expected = tb.from_graph(expected)
    for v, label in frame.items():
        t_expected = tb.apply_clifford_op(t_expected, label, index[v])
    if not tb.canonical_equal(t_after, t_expected):
        return False, f"tableau mismatch measuring {basis} at {vertex}"

    vec_after, prob = project_measure(graph_state_vector(g), q, basis, 1)
    if abs(prob - 0.5) > OVERLAP_TOL:
        return False, f"outcome probability {prob} is not 1/2"
    if not equal_up_to_global_phase(vec_after, _framed_graph_vector(expected, frame)):
        return False, f"oracle mismatch measuring {basis} at {vertex}"
    return True, f"{basis} at {vertex}: tableau and oracle agree"


def _box_identity_lines(g: GraphState, segment: tuple[int, int, int, int]) -> list[CheckLine]:
    """Oracle and tableau legs of the chain-to-box identity on one segment."""
    boxed = chain_to_box(g, segment)
    index = {v: i for i, v in enumerate(g.sorted_vertices())}
    mid = (index[segment[1]], index[segment[2]])
    tag = f"segment {segment}"

    vec = graph_state_vector(g)
    for q in mid:
        vec = apply_unitary(vec, matrix("H"), (q,))
    ov = overlap_with_graph_state(vec, boxed)
    lines = [
        CheckLine(
            f"oracle: middle Hadamards turn the chain into the box ({tag})",
            ov >= 1 - OVERLAP_TOL,
            f"overlap={ov:.12f}",
        )
    ]

    t = tb.from_graph(g)
    for q in mid:
        t = tb.apply_clifford_op(t, "H", q)
    lines.append(
        CheckLine(
            f"tableau: canonical forms match, signs included ({tag})",
            tb.canonical_equal(t, tb.from_graph(boxed)),
        )
    )
    return lines


def check_box_equivalence(**_) -> CheckReport:
    """The 4-chain equals the 2x2 box up to Hadamards on its middles."""
    c4 = chain(4)
    lines = _box_identity_lines(c4, (1, 2, 3, 4))

    # The box reads as the chain with labels 2 and 3 exchanged plus one
    # new bond 1-4; check that bookkeeping as plain edge arithmetic.
    swap = {1: 1, 2: 3, 3: 2, 4: 4}
    relabeled = {tuple(sorted((swap[u], swap[v]))) for u, v in c4.edges}
    relabeled.add((1, 4))
    boxed = chain_to_box(c4, (1, 2, 3, 4))
    lines.append(
        CheckLine(
            "relabel reading: chain edges under 2<->3 plus bond 1-4 give the box",
            relabeled == set(boxed.edges),
        )
    )
    return CheckReport("box-equivalence", tuple(lines))


def check_box_on_chain(**_) -> CheckReport:
    """The box identity embedded in longer chains, every valid position."""
    lines = []
    for n in range(5, 11):
        g = chain(n)
        for s in range(1, n - 2):
            lines.extend(_box_identity_lines(g, (s, s + 1, s + 2, s + 3)))
    return CheckReport("box-on-chain", tuple(lines))


def check_cross(**_) -> CheckReport:
    """Cross recipe: cost, shape, and the 7-qubit oracle identity."""
    lines = []
    result = build_cross(chain(7))
    lines.append(
        CheckLine(
            "ledger: exactly 4 bonds, no fusions",
            result.ledger.bonds_consumed == 4 and result.ledger.fusion_attempts == 0,
            f"bonds={result.ledger.bonds_consumed}",
        )
    )
    lines.append(
        CheckLine(
            "shape: output is graph-isomorphic to the 4-star",
            isomorphic(result.graph, star(5)) is not None,
        )
    )
    precursor = build_double_box(chain(7)).graph
    vec = graph_state_vector(chain(7))
    for q in (1, 2, 4, 5):
        vec = apply_unitary(vec, matrix("H"), (q,))
    ov = overlap_with_graph_state(vec, precursor)
    lines.append(
        CheckLine(
            "oracle: four middle Hadamards give the double-box precursor",
            ov >= 1 - OVERLAP_TOL,
            f"overlap={ov:.12f}",
        )
    )
    for v in (3, 5):
        ok, detail = measurement_agreement(precursor, v, "Z")
        precursor = measure_z(precursor, v)
        lines.append(CheckLine("corner deletion agrees across engines", ok, detail))
    lines.append(
        CheckLine(
            "remaining edges form the recipe's final cross",
            precursor == result.graph,
        )
    )
    return CheckReport("cross", tuple(lines))


def check_measurement_rules(**_) -> CheckReport:
    """Deletion and shrink rules on a small zoo of named graphs."""
    zoo = [
        ("4-chain", chain(4)),
        ("6-chain", chain(6)),
        ("6-ring", ring(6)),
        ("5-star", star(5)),
        ("7-chain boxed", chain_to_box(chain(7), (2, 3, 4, 5))),
    ]
    lines = []
    for name, g in zoo:
        for basis in ("Z", "Y"):
            vertex = g.sorted_vertices()[g.n // 2]
            ok, detail = measurement_agreement(g, vertex, basis)
            lines.append(CheckLine(f"{name}: {basis} measurement", ok, detail))
    return CheckReport("measurement-rules", tuple(lines))


def _fusion_success_agrees(g: GraphState, a: int, b: int) -> tuple[bool, str]:
    """Forced-success fusion vs the statevector merge map."""
    merged_graph, outcome, _ = type1_fuse(g, a, b, forced="S", allow_nonleaf=True)
    index = {v: i for i, v in enumerate(g.sorted_vertices())}
    vec, prob = merge_qubits(graph_state_vector(g), index[a], index[b])
    if abs(prob - 0.5) > OVERLAP_TOL:
        return False, f"success probability {prob} is not 1/2"
    expected = merged_graph.relabel({outcome.merged: a})
    if not equal_up_to_global_phase(vec, graph_state_vector(expected)):
        return False, f"merged state mismatch fusing {a},{b}"
    return True, f"fuse({a},{b}): merge map agrees, p=1/2"


def _fusion_failure_agrees(g: GraphState, a: int, b: int) -> tuple[bool, str]:
    """Forced-failure fusion vs Z projections on both target qubits."""
    failed_graph, _, _ = type1_fuse(g, a, b, forced="F", allow_nonleaf=True)
    index = {v: i for i, v in enumerate(g.sorted_vertices())}
    vec, p1 = project_measure(graph_state_vector(g), index[a], "Z", 1)
    vec, p2 = project_measure(vec, index[b], "Z", 1)
    expected = failed_graph.with_vertex(a).with_vertex(b)
    frame = {a: "H", b: "H"}
    if not equal_up_to_global_phase(vec, _framed_graph_vector(expected, frame)):
        return False, f"failure state mismatch fusing {a},{b}"
    return True, f"fuse({a},{b}) failure: double Z projection agrees"


def check_fusion(**_) -> CheckReport:
    """Fusion semantics on chain pairs and on degree-2 connectors."""
    lines = []
    for n in (2, 3, 4):
        for m in (2, 3, 5):
            g = merge_disjoint(chain(n), chain(m, start=n + 1))
            a, b = n, n + 1
            merged, outcome, _ = type1_fuse(g, a, b, forced="S")
            iso = isomorphic(merged, chain(n + m - 1))
            lines.append(
                CheckLine(
                    f"chains {n}+{m}: success gives the {n + m - 1}-chain",
                    iso is not None,
                )
            )
            ok, detail = _fusion_success_agrees(g, a, b)
            lines.append(CheckLine(f"chains {n}+{m}: oracle success branch", ok, detail))
            ok, detail = _fusion_failure_agrees(g, a, b)
            lines.append(CheckLine(f"chains {n}+{m}: oracle failure branch", ok, detail))

    x = build_double_box(chain(7)).graph
    y = build_double_box(chain(7, start=8)).graph
    pair = merge_disjoint(x, y)
    ok, detail = _fusion_success_agrees(pair, 2, 8)
    lines.append(CheckLine("double-box corners (degree 2): success branch", ok, detail))
    ok, detail = _fusion_failure_agrees(pair, 2, 8)
    lines.append(CheckLine("double-box corners (degree 2): failure branch", ok, detail))
    joined, outcome, _ = type1_fuse(pair, 2, 8, forced="S", allow_nonleaf=True)
    ok, detail = _fusion_success_agrees(joined, 7, 13)
    lines.append(CheckLine("second corner pair after one merge: success branch", ok, detail))
    return CheckReport("fusion", tuple(lines))


def check_ring(**_) -> CheckReport:
    """Ring recipe: closing fusion, exact rewrite, and the failure path."""
    lines = []
    success = build_ring8(chain(9), forced="S")
    lines.append(
        CheckLine(
            "success leaves no residual frame",
            success.frame == {},
            f"frame={success.frame}",
        )
    )
    lines.append(
        CheckLine(
            "success output is locally equivalent to the 8-ring",
            bool(lc_equivalent(success.graph, ring(8), up_to_isomorphism=True)),
        )
    )

    # Replay the whole pipeline on the statevector: fuse, then the
    # Hadamards; label moves are bookkeeping and cost nothing physical.
    vec, prob = merge_qubits(graph_state_vector(chain(9)), 0, 8)
    ok = abs(prob - 0.5) <= OVERLAP_TOL
    # Post-merge qubit order is chain vertices 2..8 then the merged one
    # in slot 0; the recipe relabels that ring to 1..8, so its qubit q
    # maps from recipe vertex q+1 via the ring relabeling.
    relabel = {0: 7}
    relabel.update({i: i - 1 for i in range(1, 8)})
    amp = vec.amplitudes.reshape([2] * 8)
    perm = [0] * 8
    for src, dst in relabel.items():
        # amplitudes index axes as qubit (n-1) first; map via axis arithmetic
        perm[7 - dst] = 7 - src
    amp = np.transpose(amp, axes=perm).reshape(-1)
    vec = StateVector(8, amp)
    for v in (1, 4, 5, 8):
        vec = apply_unitary(vec, matrix("H"), (v - 1,))
    swapped = success.graph.relabel({1: 5, 5: 1, 4: 8, 8: 4})
    ov = overlap_with_graph_state(vec, swapped)
    lines.append(
        CheckLine(
            "oracle: fused ring + Hadamards equals the extracted graph",
            ok and ov >= 1 - OVERLAP_TOL,
            f"p={prob:.3f}, overlap={ov:.12f}",
        )
    )

    failure = build_ring8(chain(9), forced="F")
    lines.append(
        CheckLine(
            "failure yields the inner 7-chain at 2 bonds",
            isomorphic(failure.graph, chain(7)) is not None
            and failure.ledger.bonds_consumed == 2,
            f"bonds={failure.ledger.bonds_consumed}",
        )
    )
    return CheckReport("ring", tuple(lines))


def check_triple_agreement(*, n: int = 8, cases: int = 100, seed: int = 7, **_) -> CheckReport:
    """Randomized measurement agreement across the three engines."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if cases < 1:
        raise ValueError("need at least one case")
    rng = RngStream(seed)
    failures = 0
    first_failure = ""
    for i in range(cases):
        case_rng = rng.substream(i)
        g = random_graph(n, case_rng)
        vertex = 1 + case_rng.next_u64() % n
        basis = "Z" if case_rng.next_bool() else "Y"
        ok, detail = measurement_agreement(g, vertex, basis)
        if not ok and not failures:
            first_failure = f"case {i}: {detail}"
        failures += 0 if ok else 1
    return CheckReport(
        "triple-agreement",
        (
            CheckLine(
                f"{cases} random graphs on {n} vertices, random Z/Y measurements",
                failures == 0,
                first_failure or f"all {cases} cases agree (seed {seed})",
            ),
        ),
    )


SUITES = {
    "box-equivalence": check_box_equivalence,
    "box-on-chain": check_box_on_chain,
    "cross": check_cross,
    "measurement-rules": check_measurement_rules,
    "fusion": check_fusion,
    "ring": check_ring,
    "triple-agreement": check_triple_agreement,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, **options) -> list[CheckReport]:
    """Run one named suite, or all of them; unknown names raise KeyError."""
    if name == "all":
        return [fn(**options) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown check: {name}")
    return [SUITES[name](**options)]
