"""Stabilizer engine: exact signs, canonical forms, graph extraction."""

import numpy as np
import pytest

from clusterforge.cliffords import BY_LABEL
from clusterforge.fusion import RngStream
from clusterforge.graphstate import GraphState, chain, ring, star
from clusterforge import tableau as tb
from clusterforge.tableau import (
    PauliString,
    StabilizerContradictionError,
    StabilizerTableau,
    apply_clifford_op,
    canonical_equal,
    canonical_form,
    from_graph,
    measure_pauli,
    to_graph,
)

PLUS = from_graph(GraphState([1]))  # one qubit, |+>


def bell_pair():
    return from_graph(chain(2))


# -- Pauli strings -----------------------------------------------------------


def test_pauli_text_round_trip():
    for text in ("+XZI", "-YY", "+Z", "-IIX"):
        assert PauliString.from_text(text).text == text
    assert PauliString.from_text("XZ").sign == 1  # sign prefix optional


def test_pauli_validation():
    with pytest.raises(ValueError, match="differ in length"):
        PauliString((1,), (0, 0))
    for bit in (True, np.uint8(1)):
        assert PauliString((bit, 0), (0, bit)).text == "+XZ"
    for junk in (2, 0.5, -1, [1]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            PauliString((junk,), (0,))
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            PauliString((0,), (junk,))
    with pytest.raises(ValueError, match="phase restricted"):
        PauliString((1,), (0,), sign=1j)
    with pytest.raises(ValueError, match="not a Pauli letter"):
        PauliString.from_text("+XQ")
    with pytest.raises(ValueError, match="not a measurable Pauli letter"):
        PauliString.single(2, 0, "I")
    with pytest.raises(ValueError, match="no such qubit"):
        PauliString.single(2, 5, "X")


def test_pauli_single():
    assert PauliString.single(3, 1, "Y").text == "+IYI"
    assert PauliString.single(2, 0, "Z", sign=-1).text == "-ZI"
    assert PauliString((0, 0), (0, 0)).is_identity()
    assert not PauliString.single(2, 0, "X").is_identity()


# -- tableau construction ----------------------------------------------------


def test_from_graph_generators():
    assert [r.text for r in bell_pair().rows] == ["+XZ", "+ZX"]
    assert [r.text for r in from_graph(star(3)).rows] == ["+XZZ", "+ZXI", "+ZIX"]


def test_from_graph_refuses_the_empty_graph():
    with pytest.raises(ValueError, match="tableau needs at least one qubit"):
        from_graph(GraphState())


def test_a_tableau_equals_only_a_tableau():
    assert bell_pair() == from_graph(chain(2))
    assert bell_pair().__eq__(5) is NotImplemented
    assert (bell_pair() == 5) is False
    assert bell_pair() != "+XZ"


def test_tableau_validation():
    with pytest.raises(ValueError, match="do not commute"):
        StabilizerTableau.from_rows(
            [PauliString.from_text("+XI"), PauliString.from_text("+ZI")]
        )
    with pytest.raises(ValueError, match="not independent"):
        StabilizerTableau.from_rows(
            [PauliString.from_text("+XX"), PauliString.from_text("+XX")]
        )
    with pytest.raises(ValueError, match="inconsistent shapes"):
        StabilizerTableau(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="inconsistent shapes"):
        StabilizerTableau(1, 1, 1)
    with pytest.raises(ValueError, match="at least one qubit"):
        StabilizerTableau(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError, match="at least one qubit"):
        StabilizerTableau.from_rows([])


@pytest.mark.parametrize(
    "x, z, neg",
    [
        ([[3]], [[0]], [2]),
        ([[0.5]], [[1]], [0]),
        ([[-1]], [[0]], [0]),
        ([[1]], [[0]], [-1]),
    ],
)
def test_tableau_rejects_entries_that_are_not_bits(x, z, neg):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        StabilizerTableau(np.array(x), np.array(z), np.array(neg))


def test_tableau_takes_nested_lists_and_tuples():
    x, z, neg = [[1, 0], [0, 1]], ((0, 1), (1, 0)), (False, True)
    t = StabilizerTableau(x, z, neg)
    assert [r.text for r in t.rows] == ["+XZ", "-ZX"]
    assert t == StabilizerTableau(np.array(x), np.array(z), np.array(neg))
    rows = t.rows
    assert StabilizerTableau([r.x_bits for r in rows], [r.z_bits for r in rows],
                             [r.sign < 0 for r in rows]).rows == rows
    for ragged in (
        ([[1, 0], [0]], z, neg),
        (x, [[0, 1], [1, 0, 0]], neg),
        (x, z, [0]),
    ):
        with pytest.raises(ValueError, match="^tableau arrays have inconsistent shapes$"):
            StabilizerTableau(*ragged)


def test_rows_round_trip():
    t = from_graph(ring(4))
    assert canonical_equal(StabilizerTableau.from_rows(t.rows), t)


# -- gates -------------------------------------------------------------------


def test_single_qubit_gates():
    assert [r.text for r in PLUS.apply("H", 0).rows] == ["+Z"]
    assert [r.text for r in PLUS.apply("S", 0).rows] == ["+Y"]
    assert [r.text for r in PLUS.apply("SDG", 0).rows] == ["-Y"]
    assert [r.text for r in PLUS.apply("X", 0).rows] == ["+X"]
    assert [r.text for r in PLUS.apply("Z", 0).rows] == ["-X"]
    assert [r.text for r in PLUS.apply("h", 0).apply("x", 0).rows] == ["-Z"]


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate"):
        PLUS.apply("T", 0)
    with pytest.raises(ValueError, match="takes one qubit"):
        bell_pair().apply("H", 0, 1)
    with pytest.raises(ValueError, match="two distinct qubits"):
        bell_pair().apply("CZ", 1, 1)
    with pytest.raises(ValueError, match="no such qubit"):
        PLUS.apply("H", 3)


def test_cz_builds_graph_states():
    got = from_graph(GraphState([1, 2, 3])).apply("CZ", 0, 1).apply("CZ", 1, 2)
    assert canonical_equal(got, from_graph(chain(3)))


def test_cnot_flips_target():
    # |11> --CNOT(0->1)--> |10>: qubit 0 stays excited, qubit 1 resets
    t = (
        from_graph(GraphState([1, 2]))
        .apply("H", 0)
        .apply("H", 1)
        .apply("X", 0)
        .apply("X", 1)
    )
    assert [r.text for r in canonical_form(t).rows] == ["-ZI", "-IZ"]
    assert [r.text for r in canonical_form(t.apply("CNOT", 0, 1)).rows] == [
        "-ZI",
        "+IZ",
    ]


def test_swap_moves_star_center():
    # 3-star centered on qubit 0 becomes the path 0-1-2 once the center
    # moves to the middle slot
    swapped = from_graph(star(3)).apply("SWAP", 0, 1)
    assert canonical_equal(swapped, from_graph(chain(3)))


def _random_state(rng: RngStream, n: int) -> StabilizerTableau:
    t = from_graph(GraphState(range(n)))
    for _ in range(3 * n):
        a = rng.next_u64() % n
        t = t.apply(("H", "S")[rng.next_u64() % 2], a)
        t = t.apply("CNOT", a, (a + 1 + rng.next_u64() % (n - 1)) % n)
    return t


def test_apply_clifford_op_word_order():
    t = PLUS
    assert canonical_equal(
        apply_clifford_op(t, "HS", 0), t.apply("S", 0).apply("H", 0)
    )
    # Every label in one step equals its word applied letter by letter,
    # rightmost first, on seeded random states; rows are compared exactly.
    rng = RngStream(24)
    for case in range(6):
        t = _random_state(rng, 2 + case)
        for label, op in BY_LABEL.items():
            q = rng.next_u64() % t.n
            by_letters = t
            for ch in reversed(label.replace("I", "")):
                by_letters = by_letters.apply(ch, q)
            assert apply_clifford_op(t, label, q) == by_letters, label
            assert apply_clifford_op(t, op, q) == by_letters, label
    assert apply_clifford_op(t, "I", 0) is t
    with pytest.raises(ValueError, match="unknown Clifford label"):
        apply_clifford_op(t, "Q", 0)


@pytest.mark.parametrize("label", ["I", "H", "HS"])
@pytest.mark.parametrize("q", [1, -1])
def test_apply_clifford_op_checks_the_qubit_for_every_label(label, q):
    with pytest.raises(ValueError, match=f"no such qubit: {q}"):
        apply_clifford_op(PLUS, label, q)


# -- measurement -------------------------------------------------------------


def test_measure_random_branch():
    t, outcome, det = measure_pauli(PLUS, PauliString.single(1, 0, "Z"), forced=1)
    assert (outcome, det) == (1, False)
    assert [r.text for r in t.rows] == ["+Z"]
    t, outcome, det = measure_pauli(PLUS, PauliString.single(1, 0, "Z"), forced=-1)
    assert (outcome, det) == (-1, False)
    assert [r.text for r in t.rows] == ["-Z"]


def test_measure_rng_branch_is_reproducible():
    draws = set()
    for seed in range(8):
        _, outcome, det = measure_pauli(
            PLUS, PauliString.single(1, 0, "Z"), rng=RngStream(seed)
        )
        assert not det
        again = measure_pauli(
            PLUS, PauliString.single(1, 0, "Z"), rng=RngStream(seed)
        )[1]
        assert outcome == again
        draws.add(outcome)
    assert draws == {1, -1}


def test_measure_random_needs_rng():
    with pytest.raises(ValueError, match="random outcome requires an rng"):
        measure_pauli(PLUS, PauliString.single(1, 0, "Z"))


def test_measure_deterministic():
    t, outcome, det = measure_pauli(PLUS, PauliString.single(1, 0, "X"))
    assert (outcome, det) == (1, True)
    assert t is PLUS  # state untouched
    # folded operator sign flips the reported outcome
    _, outcome, _ = measure_pauli(PLUS, PauliString.single(1, 0, "X", sign=-1))
    assert outcome == -1


def test_measure_correlations_on_bell_pair():
    # graph-state Bell pair: X1 Z2 is fixed at +1
    t = bell_pair()
    _, outcome, det = measure_pauli(t, PauliString.from_text("+XZ"))
    assert (outcome, det) == (1, True)
    t2, outcome, det = measure_pauli(t, PauliString.from_text("+ZI"), forced=1)
    assert not det
    # once qubit 0 reads Z=+1, qubit 1 must read X=+1
    _, outcome, det = measure_pauli(t2, PauliString.from_text("+IX"))
    assert (outcome, det) == (1, True)


def test_forced_contradiction():
    with pytest.raises(StabilizerContradictionError, match="contradicts stabilizer"):
        measure_pauli(PLUS, PauliString.single(1, 0, "X"), forced=-1)


def test_measure_rejects_junk():
    with pytest.raises(ValueError, match="does not match"):
        measure_pauli(PLUS, PauliString.single(2, 0, "X"))
    with pytest.raises(ValueError, match="identity operator"):
        measure_pauli(PLUS, PauliString((0,), (0,)))
    with pytest.raises(ValueError, match="forced outcome must be"):
        measure_pauli(PLUS, PauliString.single(1, 0, "Z"), forced=0)


# -- canonical forms and graph extraction -------------------------------------


def test_canonical_form_identifies_equal_states():
    a = from_graph(chain(3))
    b = from_graph(GraphState([1, 2, 3])).apply("CZ", 0, 1).apply("CZ", 1, 2)
    assert canonical_form(a) == canonical_form(b)
    assert canonical_equal(a, b)
    assert not canonical_equal(a, a.apply("Z", 0))
    assert not canonical_equal(a, from_graph(chain(2)))
    assert a.dump() == b.dump()


def test_dump_text():
    assert bell_pair().dump() == "+XZ\n+ZX\n"


def test_to_graph_round_trip_random_clifford_states():
    labels = list(BY_LABEL)
    rng = RngStream(42)
    for case in range(20):
        n = 2 + case % 5
        verts = list(range(1, n + 1))
        pairs = [(u, v) for u in verts for v in verts if u < v]
        edges = [p for p in pairs if rng.next_bool()]
        t = from_graph(GraphState(verts, edges))
        for q in range(n):
            t = apply_clifford_op(t, labels[rng.next_u64() % len(labels)], q)
        g, frame = to_graph(t)
        assert g.sorted_vertices() == list(range(n))
        rebuilt = from_graph(g)
        for q, label in frame.items():
            rebuilt = apply_clifford_op(rebuilt, label, q)
        assert canonical_equal(rebuilt, t)


def test_to_graph_of_plain_graph_state_is_frame_free():
    g, frame = to_graph(from_graph(chain(4)))
    assert g == chain(4).relabel({v: v - 1 for v in range(1, 5)})
    assert frame == {}
