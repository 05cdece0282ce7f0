"""The tableau beyond one 64-bit word: states of 63 to 130 qubits.

Each qubit column of the tableau is one integer over the generators, so
these sizes put rows on both sides of every word boundary.  The walk
tests replay one-step rewrites and a forced ladder exactly, and refuse
each with one edge of the claimed graph toggled.  The canonical
comparison is checked against whole canonical forms at 3 and 14 qubits
as well.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from clusterforge import cliffords
from clusterforge import tableau as tb
from clusterforge.checks import _one_step, random_graph, replay_tableau
from clusterforge.fusion import RngStream
from clusterforge.graphstate import GraphState, chain
from clusterforge.recipes import build_h_shape, grow_ladder
from clusterforge.tableau import (
    StabilizerTableau,
    apply_clifford_op,
    canonical_equal,
    canonical_form,
    from_graph,
    measure_pauli,
    to_graph,
)

SIZES = (63, 64, 65, 130)
GATES = ("H", "S", "SDG", "X", "Y", "Z", "CZ", "CNOT", "SWAP")
INVERSE_GATE = {"S": "SDG", "SDG": "S"}
NAMES = GATES + tuple(cliffords.BY_LABEL)


def _random_circuit(rng: RngStream, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every gate and every Clifford label four times, on seeded qubits."""
    circuit = []
    for i in range(4 * len(NAMES)):
        name = NAMES[i % len(NAMES)]
        a = rng.next_u64() % n
        if name in ("CZ", "CNOT", "SWAP"):
            circuit.append((name, (a, (a + 1 + rng.next_u64() % (n - 1)) % n)))
        else:
            circuit.append((name, (a,)))
    return circuit


def _run(t, circuit, inverse=False):
    for name, qubits in reversed(circuit) if inverse else circuit:
        if name in GATES:
            t = t.apply(INVERSE_GATE.get(name, name) if inverse else name, *qubits)
        else:
            op = cliffords.BY_LABEL[name]
            t = apply_clifford_op(t, cliffords.inverse(op) if inverse else op, *qubits)
    return t


@pytest.mark.parametrize("n", SIZES)
def test_a_random_circuit_and_its_inverse_return_to_the_start(n):
    rng = RngStream(1000 + n)
    start = from_graph(random_graph(n, rng))
    circuit = _random_circuit(rng, n)
    mid = _run(start, circuit)
    assert not canonical_equal(mid, start)
    assert canonical_equal(_run(mid, circuit, inverse=True), start)
    # A canonical row is a stabilizer: measuring it is deterministic and
    # leaves the tableau itself, with the row's sign as the outcome.
    row = canonical_form(mid).rows[-1]
    post, outcome, deterministic = measure_pauli(mid, row)
    assert (post, outcome, deterministic) == (mid, 1, True) and post is mid
    assert measure_pauli(mid, replace(row, sign=-row.sign))[1] == -1


@pytest.mark.parametrize("n", SIZES)
def test_to_graph_round_trips(n):
    rng = RngStream(2000 + n)
    t = _run(from_graph(random_graph(n, rng)), _random_circuit(rng, n))
    g, frame = to_graph(t)
    assert g.sorted_vertices() == list(range(n))
    rebuilt = from_graph(g)
    for q, label in frame.items():
        rebuilt = apply_clifford_op(rebuilt, label, q)
    assert canonical_equal(rebuilt, t)


def _one_step_traces(n: int):
    rng = RngStream(3000 + n)
    g = random_graph(n, rng)
    v = 1 + rng.next_u64() % n
    yield "zmeas", _one_step(g, "zmeas", v)
    yield "ymeas", _one_step(g, "ymeas", v)
    s = 1 + rng.next_u64() % (n - 3)
    yield "box", _one_step(chain(n), "box", (s, s + 1, s + 2, s + 3))
    a = 1 + rng.next_u64() % n
    b = next(u for u in g.sorted_vertices() if u != a and not g.has_edge(a, u))
    for outcome in ("S", "F"):
        yield f"fuse {outcome}", _one_step(g, "fuse", a, b, forced=outcome, allow_nonleaf=True)


def _toggled(result):
    """The same result claiming a graph with its first edge removed."""
    g = result.graph
    return replace(result, graph=GraphState(g.vertices, g.edges ^ {min(g.edges)}))


@pytest.mark.parametrize("n", SIZES)
def test_one_step_traces_replay_exactly(n):
    for name, result in _one_step_traces(n):
        assert result.initial.n == n, name
        assert replay_tableau(result), name
        assert not replay_tableau(_toggled(result)), name


def test_a_forced_ladder_replays_exactly():
    rungs = 30
    n = 3 * rungs + 10
    h = build_h_shape(chain(n), chain(n, start=n + 1), forced="S")
    ladder = grow_ladder(h, [], rungs, forced=["S"] * rungs)
    assert ladder.initial.n == 2 * n
    assert replay_tableau(ladder)
    assert not replay_tableau(_toggled(ladder))


def test_rows_read_across_word_boundaries():
    n = 130
    g = GraphState(range(n), [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    rows = [r.text for r in from_graph(g).rows]
    assert rows[0] == "+XZ" + "I" * 127 + "Z"
    assert rows[63] == "+" + "I" * 62 + "ZXZ" + "I" * 65
    assert rows[64] == "+" + "I" * 63 + "ZXZ" + "I" * 64


def _pivot_order(t):
    """The physical rows of t in the logical order its reduction leaves."""
    order = list(range(t.n))
    tb._eliminate(list(t._cols), t.n, 2 * t.n, order)
    return order


@pytest.mark.parametrize("n", (3, 14, 65))
def test_canonical_equal_agrees_with_comparing_canonical_forms(n):
    # One circuit run on a graph state and on the same generators listed
    # backwards reaches one state twice; flipping one generator's sign or
    # adding a gate gives its neighbours.
    rng = RngStream(3000 + n)
    equal, reordered = [], 0
    for _ in range(4):
        start = from_graph(random_graph(n, rng))
        circuit = _random_circuit(rng, n)
        a = _run(start, circuit)
        b = _run(StabilizerTableau.from_rows(start.rows[::-1]), circuit)
        rows, k = b.rows, rng.next_u64() % n
        rows[k] = replace(rows[k], sign=-rows[k].sign)
        signed = StabilizerTableau.from_rows(rows)
        for other in (b, signed, b.apply("H", k), b.apply("CZ", k, (k + 1) % n)):
            verdict = canonical_equal(a, other)
            assert verdict == (canonical_form(a) == canonical_form(other))
            equal.append(verdict)
            reordered += _pivot_order(a) != _pivot_order(other)
        assert canonical_equal(a, b) and not canonical_equal(a, signed)
    assert reordered, "no pair exercised the row move"
    assert not all(equal)
