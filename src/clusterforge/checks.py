"""Cross-engine verification suites behind the ``verify`` command.

Each suite re-derives a claimed identity three independent ways where
possible: the combinatorial graph rewrite, exact stabilizer-tableau
conjugation, and dense statevector simulation.  A suite returns a
:class:`CheckReport` of named pass/fail lines instead of asserting, so
the command line can render them and the test suite can reuse them.

The physics side of every suite is one walk over a recipe trace,
:func:`replay_tableau` and :func:`replay_oracle`: a claimed rewrite is
recorded as a one-step trace (or taken from a recipe's own trace) and
run on both engines.  The test suite replays whole recipe traces
through the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tableau as tb
from .cliffords import BY_LABEL, inverse, matrix
from .fusion import RngStream, type1_fuse, merge_disjoint
from .graphstate import (
    GraphState,
    chain,
    chain_to_box,
    graph_from_doc,
    isomorphic,
    measure_z,
    ring,
    star,
)
from .oracle import ORACLE_QUBIT_LIMIT, _apply_in_place, _project_in_place, graph_state_vector
from .recipes import (
    RecipeResult,
    _Builder,
    build_cross,
    build_double_box,
    build_ring8,
)

__all__ = [
    "CheckLine",
    "CheckReport",
    "SUITE_NAMES",
    "run_suite",
    "random_graph",
    "measurement_agreement",
    "replay_tableau",
    "replay_oracle",
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


def random_graph(n: int, rng: RngStream) -> GraphState:
    """Random graph on vertices 1..n, each possible edge tossed once."""
    vertices = frozenset(range(1, n + 1))
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.next_bool():
                edges.add((u, v))
    return GraphState(vertices, frozenset(edges))


# -- physics replay: one walk over a trace, two engines -----------------------


def _premerged_initial(result: RecipeResult) -> GraphState:
    """Initial graph with all mid-trace merge material already present.

    Material merged in later sits untouched until its first use, so
    tensoring it in up front changes nothing physical and lets both
    engines keep a fixed qubit count.
    """
    g = result.initial
    for step in result.trace:
        if step["op"] == "merge":
            g = merge_disjoint(g, graph_from_doc(step))
    return g


class _Tableau:
    """Stabilizer-tableau engine of the walk: exact, signs included, any size."""

    def __init__(self, g: GraphState):
        self.state = tb.from_graph(g)

    def gate(self, name: str, *qubits: int) -> None:
        self.state = self.state.apply(name, *qubits)

    def measure(self, q: int, letter: str) -> float:
        """Force the +1 outcome; returns the branch probability."""
        p = tb.PauliString.single(self.state.n, q, letter)
        try:
            self.state, _, deterministic = tb.measure_pauli(self.state, p, forced=1)
        except tb.StabilizerContradictionError:
            return 0.0
        return 1.0 if deterministic else 0.5

    def compare(self, g: GraphState, frame: dict[int, str]) -> bool:
        want = tb.from_graph(g)
        for q, label in frame.items():
            want = tb.apply_clifford_op(want, label, q)
        return tb.canonical_equal(self.state, want)


_GATES = {"H": matrix("H"), "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]]}


class _Oracle:
    """Dense statevector engine of the walk: at most 14 qubits.  Gates and forced
    measurements edit one copy of the initial graph state through the oracle's kernels."""

    def __init__(self, g: GraphState):
        self.amps = graph_state_vector(g).amplitudes.copy()

    def gate(self, name: str, *qubits: int) -> None:
        _apply_in_place(self.amps, _GATES[name], qubits)

    def measure(self, q: int, letter: str) -> float:
        """Force the +1 outcome; returns the branch probability."""
        try:
            return _project_in_place(self.amps, q, letter, 1)[1]
        except ValueError:  # the +1 branch has vanishing probability
            return 0.0

    def compare(self, g: GraphState, frame: dict[int, str]) -> float:
        """|<frame-corrected graph state of g | state>|, with the frame undone on the state."""
        for q, label in frame.items():
            _apply_in_place(self.amps, matrix(inverse(BY_LABEL[label])), (q,))
        return float(abs(np.vdot(graph_state_vector(g).amplitudes, self.amps)))


def _walk(result: RecipeResult, engine_cls) -> tuple[float, bool | float | None]:
    """Run a trace as physics on one engine and compare with graph + frame.

    Qubit slots are never dropped: a consumed slot stays behind in a
    known product state, |0> = H|+> after a Z projection, the Y=+1
    state S|+> after a Y measurement, |+> when discarded, and the final
    comparison carries that label.  Fusion success is CNOT(a->b) plus a
    forced Z=+1 on b, which is exactly the |0><00| + |1><11| merge map.
    Every measurement is forced to +1 and must have probability 1/2;
    the walk stops at the first that does not and returns its
    probability with no comparison.  Otherwise it returns 1/2 and the
    engine's comparison, or no comparison when the surviving vertices
    are not the graph's.  A trace that cannot run raises ValueError.
    """
    initial = _premerged_initial(result)
    names: list[int | None] = initial.sorted_vertices()
    consumed: dict[int, str] = {}
    off_branch: list[float] = []
    engine = engine_cls(initial)

    def slot(v: int) -> int:
        if v not in names:
            raise ValueError(f"trace does not run: no live vertex {v}")
        return names.index(v)

    def consume(q: int, label: str, letter: str | None = None) -> None:
        if letter is not None:
            p = engine.measure(q, letter)
            if abs(p - 0.5) > OVERLAP_TOL:
                off_branch.append(p)
        names[q] = None
        consumed[q] = label

    for step in result.trace:
        op = step["op"]
        if op == "box":
            for v in step["segment"][1:3]:
                engine.gate("H", slot(v))
        elif op == "measure_z":
            consume(slot(step["vertex"]), "H", "Z")
        elif op == "measure_y":
            consume(slot(step["vertex"]), "S", "Y")
        elif op == "fuse":
            qa, qb = slot(step["a"]), slot(step["b"])
            if step["outcome"] == "S":
                engine.gate("CNOT", qa, qb)
                consume(qb, "H", "Z")
                names[qa] = step["merged"]
            else:
                consume(qa, "H", "Z")
                consume(qb, "H", "Z")
        elif op == "merge":
            pass  # tensored in up front
        elif op == "relabel":
            names = [step["mapping"].get(str(v), v) for v in names]
        elif op == "drop_isolated":
            for v in step["vertices"]:
                consume(slot(v), "I")
        elif op == "tableau_rewrite":
            for v in step["hadamards"]:
                engine.gate("H", slot(v))
            for a, b in step["swaps"]:
                qa, qb = slot(a), slot(b)
                names[qa], names[qb] = names[qb], names[qa]
        else:
            raise ValueError(f"unknown trace op: {op!r}")
        if off_branch:
            return off_branch[0], None

    if sorted(v for v in names if v is not None) != result.graph.sorted_vertices():
        return 0.5, None
    slots = {v: q for q, v in enumerate(names) if v is not None}
    edges = [(slots[u], slots[v]) for u, v in result.graph.edges]
    frame = dict(consumed)
    frame.update((slots[v], label) for v, label in result.frame.items())
    return 0.5, engine.compare(GraphState(range(len(names)), edges), frame)


def replay_tableau(result: RecipeResult) -> bool:
    """Whether the trace, run on the stabilizer tableau from the initial
    graph, ends exactly (signs included) in the claimed graph + frame."""
    return bool(_walk(result, _Tableau)[1])


def replay_oracle(result: RecipeResult) -> tuple[float, float]:
    """The trace run as dense linear algebra: (branch probability, overlap).

    The probability is 1/2 when every forced measurement had probability
    1/2, else the first that did not; the overlap is |<claimed|replayed>|
    and 1 up to rounding when the claimed graph + frame is right.
    Pre-merged states wider than 14 qubits raise OracleLimitError.
    """
    prob, overlap = _walk(result, _Oracle)
    return prob, overlap or 0.0


def _one_step(g: GraphState, step: str, *args, forced=None, **kwargs) -> RecipeResult:
    """A rewrite on g recorded as a recipe records it: a one-step trace."""
    b = _Builder(g, forced=forced)
    getattr(b, step)(*args, **kwargs)
    return b.finish(step)


def measurement_agreement(g: GraphState, vertex: int, basis: str) -> tuple[bool, str]:
    """Check one Pauli measurement against both exact engines.

    The graph rewrite predicts the surviving graph plus a local frame:
    the measured qubit ends in the +1 eigenstate (H|+> for Z, S|+> for
    Y) and a Y measurement leaves an S byproduct on every neighbor.
    The prediction must match tableau measurement exactly (signs
    included) and statevector projection up to global phase.
    """
    if basis not in ("Z", "Y"):
        raise ValueError(f"unsupported measurement basis: {basis!r}")
    result = _one_step(g, "zmeas" if basis == "Z" else "ymeas", vertex)
    if not replay_tableau(result):
        return False, f"tableau mismatch measuring {basis} at {vertex}"
    prob, overlap = replay_oracle(result)
    if abs(prob - 0.5) > OVERLAP_TOL:
        return False, f"outcome probability {prob} is not 1/2"
    if overlap < 1 - OVERLAP_TOL:
        return False, f"oracle mismatch measuring {basis} at {vertex}"
    return True, f"{basis} at {vertex}: tableau and oracle agree"


def _box_identity_lines(g: GraphState, segment: tuple[int, int, int, int]) -> list[CheckLine]:
    """Oracle and tableau legs of the chain-to-box identity on one segment."""
    boxed = _one_step(g, "box", segment)
    tag = f"segment {segment}"
    _, ov = replay_oracle(boxed)
    return [
        CheckLine(
            f"oracle: middle Hadamards turn the chain into the box ({tag})",
            ov >= 1 - OVERLAP_TOL,
            f"overlap={ov:.12f}",
        ),
        CheckLine(
            f"tableau: canonical forms match, signs included ({tag})",
            replay_tableau(boxed),
        ),
    ]


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
    precursor = build_double_box(chain(7))
    _, ov = replay_oracle(precursor)
    lines.append(
        CheckLine(
            "oracle: four middle Hadamards give the double-box precursor",
            ov >= 1 - OVERLAP_TOL,
            f"overlap={ov:.12f}",
        )
    )
    precursor = precursor.graph
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


def _fusion_agrees(g: GraphState, a: int, b: int, outcome: str) -> tuple[bool, str]:
    """One forced fusion branch ('S' or 'F') replayed on the dense oracle."""
    fused = _one_step(g, "fuse", a, b, forced=outcome, allow_nonleaf=True)
    prob, overlap = replay_oracle(fused)
    branch = f"fuse({a},{b})" + ("" if outcome == "S" else " failure")
    if abs(prob - 0.5) > OVERLAP_TOL:
        return False, f"{branch}: branch probability {prob} is not 1/2"
    if overlap < 1 - OVERLAP_TOL:
        return False, f"{branch}: state mismatch"
    if outcome == "S":
        return True, f"{branch}: merge map agrees, p=1/2"
    return True, f"{branch}: double Z projection agrees"


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
            ok, detail = _fusion_agrees(g, a, b, "S")
            lines.append(CheckLine(f"chains {n}+{m}: oracle success branch", ok, detail))
            ok, detail = _fusion_agrees(g, a, b, "F")
            lines.append(CheckLine(f"chains {n}+{m}: oracle failure branch", ok, detail))

    x = build_double_box(chain(7)).graph
    y = build_double_box(chain(7, start=8)).graph
    pair = merge_disjoint(x, y)
    ok, detail = _fusion_agrees(pair, 2, 8, "S")
    lines.append(CheckLine("double-box corners (degree 2): success branch", ok, detail))
    ok, detail = _fusion_agrees(pair, 2, 8, "F")
    lines.append(CheckLine("double-box corners (degree 2): failure branch", ok, detail))
    joined, outcome, _ = type1_fuse(pair, 2, 8, forced="S", allow_nonleaf=True)
    ok, detail = _fusion_agrees(joined, 7, 13, "S")
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
    # The closing fusion and the relabel to 1..8 leave the 8-ring; what
    # follows must be local Cliffords and label swaps only, and replaying
    # it from ring(8) proves the local equivalence.
    rewrite = success.trace[2:]
    local = bool(rewrite) and all(step["op"] == "tableau_rewrite" for step in rewrite)
    lines.append(
        CheckLine(
            "success output is locally equivalent to the 8-ring",
            local and replay_tableau(replace(success, initial=ring(8), trace=rewrite)),
        )
    )
    prob, ov = replay_oracle(success)
    lines.append(
        CheckLine(
            "oracle: fused ring + Hadamards equals the extracted graph",
            abs(prob - 0.5) <= OVERLAP_TOL and ov >= 1 - OVERLAP_TOL,
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
    if n > ORACLE_QUBIT_LIMIT:
        raise ValueError(f"oracle size limit: {n} qubits exceeds {ORACLE_QUBIT_LIMIT}")
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
