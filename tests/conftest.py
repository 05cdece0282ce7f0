"""Shared test plumbing, mostly two independent trace replayers.

A finished recipe carries its whole story: initial graph, step trace,
final graph, frame, ledger.  The helpers here re-run that story as raw
physics and check the recipe's bookkeeping against it:

* ``assert_oracle_replay`` walks the trace on a dense statevector
  (exponential, capped at 14 qubits) and compares the final amplitudes
  with the claimed frame applied to the claimed graph's state.
* ``assert_tableau_replay`` walks the same trace on a stabilizer
  tableau (polynomial, any size).  Fusion becomes CNOT plus a forced
  Z projection, which realizes the |0><00| + |1><11| merge map exactly.

Neither replayer consults the graph-rewrite rules under test, so a bug
there cannot cancel out here.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
from hypothesis import settings

from clusterforge.cliffords import matrix
from clusterforge.fusion import merge_disjoint
from clusterforge.graphstate import GraphState
from clusterforge.oracle import (
    ORACLE_QUBIT_LIMIT,
    StateVector,
    apply_unitary,
    equal_up_to_global_phase,
    graph_state_vector,
    merge_qubits,
    project_measure,
)
from clusterforge import tableau as tb

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

PROB_TOL = 1e-9


def run_cli(
    *args: str, env_extra: dict | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    """Invoke the CLI in a subprocess; output stays as bytes on purpose."""
    env = os.environ.copy()
    env.pop("CLUSTERFORGE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "clusterforge", *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


def framed_graph_vector(g: GraphState, frame: dict[int, str]) -> StateVector:
    vec = graph_state_vector(g)
    order = g.sorted_vertices()
    for v, label in frame.items():
        vec = apply_unitary(vec, matrix(label), (order.index(v),))
    return vec


def _premerged_initial(result) -> GraphState:
    """Initial graph with all mid-trace merge material already present.

    Disjoint chains brought in later just sit untouched until their
    first use, so tensoring them in up front changes nothing physical
    and lets both replayers keep a fixed qubit count.
    """
    g = result.initial
    for step in result.trace:
        if step["op"] == "merge":
            extra = GraphState(step["vertices"], [tuple(e) for e in step["edges"]])
            g = merge_disjoint(g, extra)
    return g


# -- dense statevector replay ----------------------------------------------


def _drop_zero_qubit(vec: StateVector, q: int) -> StateVector:
    """Remove a qubit that must already be exactly |0>."""
    tensor = vec.amplitudes.reshape([2] * vec.n)
    axis = vec.n - 1 - q
    leftover = np.take(tensor, 1, axis=axis)
    assert np.max(np.abs(leftover)) < PROB_TOL, "dropped qubit was not |0>"
    return StateVector(vec.n - 1, np.take(tensor, 0, axis=axis).reshape(-1))


def permute_qubits(vec: StateVector, order: list[int], target: list[int]) -> StateVector:
    """Reorder qubit slots so slot i carries target[i] instead of order[i]."""
    assert sorted(order) == sorted(target)
    n = vec.n
    pos = {v: i for i, v in enumerate(order)}
    axes = [n - 1 - pos[target[n - 1 - k]] for k in range(n)]
    tensor = vec.amplitudes.reshape([2] * n).transpose(axes).reshape(-1)
    return StateVector(n, tensor.copy())


def oracle_replay_state(result) -> StateVector:
    """Re-run a recipe trace as dense linear algebra.

    Consumed qubits are measured out and dropped as the trace goes, each
    time checking the branch probability (always exactly 1/2 here) and
    the advertised post-measurement state.  Returns the final state with
    qubit i holding the i-th surviving vertex in ascending order.
    """
    initial = _premerged_initial(result)
    assert initial.n <= ORACLE_QUBIT_LIMIT, "trace too wide for the dense oracle"
    order = initial.sorted_vertices()
    vec = graph_state_vector(initial)
    rot_y = matrix("H") @ matrix("S").conj().T  # sends the Y=+1 state to |0>

    for step in result.trace:
        op = step["op"]
        if op == "box":
            _, q2, q3, _ = step["segment"]
            vec = apply_unitary(vec, matrix("H"), (order.index(q2),))
            vec = apply_unitary(vec, matrix("H"), (order.index(q3),))
        elif op == "measure_z":
            q = order.index(step["vertex"])
            vec, prob = project_measure(vec, q, "Z", +1)
            assert abs(prob - 0.5) < PROB_TOL
            vec = _drop_zero_qubit(vec, q)
            order.pop(q)
        elif op == "measure_y":
            q = order.index(step["vertex"])
            vec, prob = project_measure(vec, q, "Y", +1)
            assert abs(prob - 0.5) < PROB_TOL
            vec = apply_unitary(vec, rot_y, (q,))
            vec = _drop_zero_qubit(vec, q)
            order.pop(q)
        elif op == "fuse":
            qa, qb = order.index(step["a"]), order.index(step["b"])
            if step["outcome"] == "S":
                vec, prob = merge_qubits(vec, qa, qb)
                assert abs(prob - 0.5) < PROB_TOL
                order[qa] = step["merged"]
                order.pop(qb)
            else:
                for q in sorted((qa, qb), reverse=True):
                    vec, prob = project_measure(vec, q, "Z", +1)
                    assert abs(prob - 0.5) < PROB_TOL
                    vec = _drop_zero_qubit(vec, q)
                    order.pop(q)
        elif op == "merge":
            pass  # material was tensored in up front
        elif op == "relabel":
            mapping = {int(k): v for k, v in step["mapping"].items()}
            order = [mapping.get(v, v) for v in order]
        elif op == "drop_isolated":
            for v in step["vertices"]:
                q = order.index(v)
                vec = apply_unitary(vec, matrix("H"), (q,))
                vec = _drop_zero_qubit(vec, q)
                order.pop(q)
        elif op == "tableau_rewrite":
            for v in step["hadamards"]:
                vec = apply_unitary(vec, matrix("H"), (order.index(v),))
            for a, b in step["swaps"]:
                qa, qb = order.index(a), order.index(b)
                order[qa], order[qb] = order[qb], order[qa]
        else:  # pragma: no cover - trace ops are a closed set
            raise AssertionError(f"unknown trace op {op!r}")

    assert set(order) == result.graph.vertices
    return permute_qubits(vec, order, sorted(order))


def assert_oracle_replay(result) -> None:
    got = oracle_replay_state(result)
    want = framed_graph_vector(result.graph, result.frame)
    assert equal_up_to_global_phase(got, want), (
        f"dense replay of {result.name} disagrees with its graph + frame"
    )


# -- stabilizer tableau replay -----------------------------------------------


def _forced_random_measure(t, q: int, letter: str):
    p = tb.PauliString.single(t.n, q, letter)
    t, outcome, deterministic = tb.measure_pauli(t, p, forced=1)
    assert not deterministic, f"{letter} on a live graph vertex must be random"
    assert outcome == 1
    return t


def assert_tableau_replay(result) -> None:
    """Re-run a recipe trace on the stabilizer tableau, signs included.

    Qubit slots are never dropped: a consumed qubit stays behind in a
    known product state (|0> after Z projections, the Y=+1 state after
    a Y measurement, |+> when merely discarded) and the final comparison
    accounts for it through a per-slot frame label.
    """
    initial = _premerged_initial(result)
    names: list[int | None] = initial.sorted_vertices()
    n = len(names)
    dead: dict[int, str] = {}
    t = tb.from_graph(initial)

    def pos(v: int) -> int:
        return names.index(v)

    def kill(q: int, label: str) -> None:
        names[q] = None
        dead[q] = label

    for step in result.trace:
        op = step["op"]
        if op == "box":
            _, q2, q3, _ = step["segment"]
            t = t.apply("H", pos(q2)).apply("H", pos(q3))
        elif op == "measure_z":
            q = pos(step["vertex"])
            t = _forced_random_measure(t, q, "Z")
            kill(q, "H")  # |0> = H|+>
        elif op == "measure_y":
            q = pos(step["vertex"])
            t = _forced_random_measure(t, q, "Y")
            kill(q, "S")  # Y=+1 state = S|+>
        elif op == "fuse":
            qa, qb = pos(step["a"]), pos(step["b"])
            if step["outcome"] == "S":
                t = t.apply("CNOT", qa, qb)
                t = _forced_random_measure(t, qb, "Z")
                names[qa] = step["merged"]
                kill(qb, "H")
            else:
                t = _forced_random_measure(t, qa, "Z")
                t = _forced_random_measure(t, qb, "Z")
                kill(qa, "H")
                kill(qb, "H")
        elif op == "merge":
            pass
        elif op == "relabel":
            mapping = {int(k): v for k, v in step["mapping"].items()}
            names = [v if v is None else mapping.get(v, v) for v in names]
        elif op == "drop_isolated":
            for v in step["vertices"]:
                kill(pos(v), "I")
        elif op == "tableau_rewrite":
            for v in step["hadamards"]:
                t = t.apply("H", pos(v))
            for a, b in step["swaps"]:
                qa, qb = pos(a), pos(b)
                names[qa], names[qb] = names[qb], names[qa]
        else:  # pragma: no cover - trace ops are a closed set
            raise AssertionError(f"unknown trace op {op!r}")

    live = {v for v in names if v is not None}
    assert live == result.graph.vertices

    edges = [(names.index(u), names.index(v)) for u, v in result.graph.edges]
    expected = tb.from_graph(GraphState(range(n), edges))
    for q, label in dead.items():
        if label != "I":
            expected = tb.apply_clifford_op(expected, label, q)
    for v, label in result.frame.items():
        expected = tb.apply_clifford_op(expected, label, names.index(v))
    assert tb.canonical_equal(t, expected), (
        f"tableau replay of {result.name} disagrees with its graph + frame"
    )


def assert_replays_exactly(result) -> None:
    """Both physics replayers, plus the symbolic round trip."""
    from clusterforge.recipes import replay, result_to_json

    assert_tableau_replay(result)
    if _premerged_initial(result).n <= ORACLE_QUBIT_LIMIT:
        assert_oracle_replay(result)
    assert result_to_json(replay(result_to_json(result))) == result_to_json(result)
