"""The 24 single-qubit Cliffords: group structure vs explicit matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterforge.cliffords import (
    _INVERSE,
    ALL_OPS,
    BY_LABEL,
    IDENTITY,
    PAULIS,
    PHASE,
    CliffordOp,
    compose,
    compose_labels,
    inverse,
    matrix,
)
from clusterforge.oracle import MAT

ops = st.sampled_from(ALL_OPS)


def proportional(a: np.ndarray, b: np.ndarray) -> bool:
    # equal up to global phase: |tr(a+ b)| = 2 for 2x2 unitaries
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < 1e-9


def test_group_has_24_distinct_elements():
    assert len(ALL_OPS) == 24
    assert len({op.label for op in ALL_OPS}) == 24
    assert len(BY_LABEL) == 24
    for label, op in BY_LABEL.items():
        assert op.label == label


def test_known_labels():
    # canonical shortest H/S words, breadth-first from the identity
    assert IDENTITY.label == "I"
    assert BY_LABEL["SS"].conjugate("X") == ("X", -1)  # SS = Z
    assert BY_LABEL["SS"].conjugate("Z") == ("Z", 1)
    assert BY_LABEL["HSSH"].conjugate("Z") == ("Z", -1)  # HSSH = X
    assert proportional(matrix("HSSH"), MAT["X"])
    assert proportional(matrix("HSSHSS"), MAT["Y"])
    assert proportional(matrix("SS"), MAT["Z"])
    assert max(len(label) for label in BY_LABEL) == 6


def test_matrices_are_unitary():
    eye = np.eye(2)
    for op in ALL_OPS:
        u = matrix(op)
        assert np.allclose(u.conj().T @ u, eye)


def test_conjugation_matches_matrices():
    """U P U+ must equal the recorded sign * letter, exactly."""
    for op in ALL_OPS:
        u = matrix(op)
        for pauli in "XYZ":
            letter, sign = op.conjugate(pauli)
            got = u @ MAT[pauli] @ u.conj().T
            assert np.allclose(got, sign * MAT[letter], atol=1e-12), (
                op.label,
                pauli,
            )


def test_compose_matches_matrix_product():
    for a in ALL_OPS:
        for b in ALL_OPS:
            assert proportional(matrix(compose(a, b)), matrix(a) @ matrix(b))


def test_compose_order_is_outer_inner():
    # "HS" reads as a matrix product: S hits the state first
    assert compose_labels("H", "S") == "HS"
    assert compose_labels("S", "H") == "SH"
    assert compose_labels("H", "H") == "I"
    assert compose_labels("S", "SS") == inverse(BY_LABEL["S"]).label


def test_inverses():
    # inverse() reads a table built at import: it must pair the 24 ops up
    # as a permutation that is its own inverse, each entry undoing its op
    # as a conjugation table and as a 2x2 matrix.
    assert set(_INVERSE) == set(ALL_OPS) == set(_INVERSE.values())
    for op in ALL_OPS:
        inv = inverse(op)
        assert inv is _INVERSE[op] and inverse(inv) == op
        assert compose(op, inv) == IDENTITY
        assert compose(inv, op) == IDENTITY
        assert proportional(matrix(op) @ matrix(inv), np.eye(2))
    assert inverse(BY_LABEL["H"]).label == "H"
    assert inverse(BY_LABEL["SS"]).label == "SS"
    assert inverse(BY_LABEL["HS"]).label == "HSHS"


def test_identity_is_neutral():
    for op in ALL_OPS:
        assert compose_labels("I", op.label) == op.label
        assert compose_labels(op.label, "I") == op.label


def test_conjugate_rejects_non_pauli():
    with pytest.raises(ValueError, match="not a Pauli letter"):
        IDENTITY.conjugate("Q")
    assert IDENTITY.conjugate("I") == ("I", 1)
    assert IDENTITY.conjugate("X", -1) == ("X", -1)


def test_y_image_follows_from_x_and_z():
    h = BY_LABEL["H"]
    assert h.conjugate("Y") == ("Y", -1)  # H Y H = -Y
    s = BY_LABEL["S"]
    assert s.conjugate("Y") == ("X", -1)  # S Y S+ = -X


@given(ops, ops, ops)
def test_compose_is_associative(a, b, c):
    assert compose(a, compose(b, c)) == compose(compose(a, b), c)


@given(ops, ops)
def test_label_of_product_round_trips(a, b):
    assert compose_labels(a.label, b.label) == compose(a, b).label


def test_ops_hashable_and_frozen():
    assert len(set(ALL_OPS)) == 24
    with pytest.raises(AttributeError):
        ALL_OPS[0].x_to = "Y"
    assert CliffordOp("Z", 1, "X", 1) == BY_LABEL["H"]


# matrix(label).tobytes().hex() for every label: complex128, row-major,
# little-endian.  Regenerate only for an intended change of the matrices.
MATRIX_BYTES = {
    "I": "000000000000f03f000000000000000000000000000000000000000000000000"
         "00000000000000000000000000000000000000000000f03f0000000000000000",
    "H": "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f0000000000000000"
         "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e6bf0000000000000000",
    "S": "000000000000f03f000000000000000000000000000000000000000000000000"
         "000000000000000000000000000000000000000000000000000000000000f03f",
    "HS": "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e63f"
          "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e6bf",
    "SH": "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f0000000000000000"
          "0000000000000000cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e6bf",
    "SS": "000000000000f03f000000000000000000000000000000000000000000000000"
          "00000000000000000000000000000000000000000000f0bf0000000000000000",
    "HSH": "feffffffffffdf3ffeffffffffffdf3ffeffffffffffdf3ffeffffffffffdfbf"
           "feffffffffffdf3ffeffffffffffdfbffeffffffffffdf3ffeffffffffffdf3f",
    "HSS": "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e6bf0000000000000000"
           "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f0000000000000000",
    "SHS": "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e63f"
           "0000000000000000cc3b7f669ea0e63fcc3b7f669ea0e63f0000000000000000",
    "SSH": "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f0000000000000000"
           "cc3b7f669ea0e6bf0000000000000000cc3b7f669ea0e63f0000000000000000",
    "SSS": "000000000000f03f000000000000000000000000000000000000000000000000"
           "000000000000008000000000000000000000000000000000000000000000f0bf",
    "HSHS": "feffffffffffdf3ffeffffffffffdf3ffeffffffffffdf3ffeffffffffffdf3f"
            "feffffffffffdf3ffeffffffffffdfbffeffffffffffdfbffeffffffffffdf3f",
    "HSSH": "40aa7ec9cbca79bc0000000000000000feffffffffffef3f0000000000000000"
            "feffffffffffef3f000000000000000040aa7ec9cbca79bc0000000000000000",
    "HSSS": "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e6bf"
            "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e63f",
    "SHSS": "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e6bf0000000000000000"
            "0000000000000000cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f",
    "SSHS": "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e63f"
            "cc3b7f669ea0e6bf00000000000000000000000000000000cc3b7f669ea0e63f",
    "HSHSS": "feffffffffffdf3ffeffffffffffdf3ffeffffffffffdfbffeffffffffffdf3f"
             "feffffffffffdf3ffeffffffffffdfbffeffffffffffdfbffeffffffffffdfbf",
    "HSSHS": "40aa7ec9cbca79bc00000000000000000000000000000000feffffffffffef3f"
             "feffffffffffef3f0000000000000000000000000000000040aa7ec9cbca79bc",
    "SHSSH": "40aa7ec9cbca79bc0000000000000000feffffffffffef3f0000000000000000"
             "0000000000000000feffffffffffef3f000000000000000040aa7ec9cbca79bc",
    "SHSSS": "cc3b7f669ea0e63f00000000000000000000000000000000cc3b7f669ea0e6bf"
             "0000000000000000cc3b7f669ea0e63fcc3b7f669ea0e6bf0000000000000000",
    "SSHSS": "cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e6bf0000000000000000"
             "cc3b7f669ea0e6bf0000000000000000cc3b7f669ea0e6bf0000000000000000",
    "HSHSSH": "30effc9979827a3ccb3b7f669ea0e63fcb3b7f669ea0e63f30effc9979827a3c"
              "30effc9979827a3ccb3b7f669ea0e6bfcb3b7f669ea0e63f30effc9979827abc",
    "HSHSSS": "feffffffffffdf3ffeffffffffffdf3ffeffffffffffdfbffeffffffffffdfbf"
              "feffffffffffdf3ffeffffffffffdfbffeffffffffffdf3ffeffffffffffdfbf",
    "HSSHSS": "40aa7ec9cbca79bc0000000000000000feffffffffffefbf0000000000000000"
              "feffffffffffef3f000000000000000040aa7ec9cbca793c0000000000000000",
}


def test_matrices_match_the_committed_bytes():
    assert set(MATRIX_BYTES) == set(BY_LABEL)
    for label, want in MATRIX_BYTES.items():
        u = matrix(label)
        assert u.dtype == np.complex128 and u.shape == (2, 2), label
        assert u.tobytes().hex() == want, label
        assert matrix(BY_LABEL[label]).tobytes().hex() == want, label


def test_matrix_returns_a_fresh_array():
    for label in ("I", "H", "HSHSSH"):
        u = matrix(label)
        u[:] = 7
        assert matrix(label).tobytes().hex() == MATRIX_BYTES[label], label
    assert MAT["I"].tobytes() == np.eye(2, dtype=complex).tobytes()


def test_phase_table_matches_pauli_products():
    # P_a P_b = i^PHASE[a][b] P_(a^b), exactly, for the dense Paulis
    paulis = [MAT[letter] for letter in PAULIS]
    for a in range(4):
        for b in range(4):
            want = 1j ** PHASE[a][b] * paulis[a ^ b]
            assert np.array_equal(paulis[a] @ paulis[b], want), (PAULIS[a], PAULIS[b])
