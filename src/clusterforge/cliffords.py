"""Single-qubit Clifford bookkeeping used by local frames.

A local frame attaches one of the 24 single-qubit Cliffords to a vertex,
recording how the simulated state differs from the canonical graph state
of the current graph.  Each operator is represented by its conjugation
action on the Pauli axes, through which the stabilizer tableau applies
every single-qubit gate.  This module also holds the one Pauli encoding
(``PAULIS``) and product-phase table (``PHASE``).  It loads no numpy:
``matrix``, the 2x2 matrix for statevector checks, copies the oracle's.

Labels are canonical shortest words in the generators H and S, found by
breadth-first search from the identity.  A word is read as a matrix
product, so "HS" means S is applied to the state first, then H.
``GATES`` names the tableau's gates H, S, SDG, X, Y and Z as operators.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PAULIS",
    "PHASE",
    "CliffordOp",
    "ALL_OPS",
    "BY_LABEL",
    "IDENTITY",
    "GATES",
    "compose",
    "inverse",
    "compose_labels",
    "matrix",
]

# A literal Pauli with X bit x and Z bit z is PAULIS[x + 2z].
PAULIS = "IXZY"
# PHASE[a][b]: power of i in P_a * P_b, whose letter is PAULIS[a ^ b]
# (X*Z = -iY, X*Y = iZ, Z*Y = -iX, ...).
PHASE = ((0, 0, 0, 0), (0, 0, 3, 1), (0, 1, 0, 3), (0, 3, 1, 0))


@dataclass(frozen=True)
class CliffordOp:
    """A single-qubit Clifford, stored as its conjugation action.

    ``U X U+ = x_sign * x_to`` and ``U Z U+ = z_sign * z_to``; the image
    of Y follows from Y = iXZ.  ``x_to`` and ``z_to`` are distinct Pauli
    letters, signs are +/-1, giving 3*2*2*2 = 24 operators.
    """

    x_to: str
    x_sign: int
    z_to: str
    z_sign: int

    def conjugate(self, pauli: str, sign: int = 1) -> tuple[str, int]:
        """Image of ``sign * pauli`` under conjugation by this operator."""
        if pauli == "I":
            return "I", sign
        if pauli == "X":
            return self.x_to, sign * self.x_sign
        if pauli == "Z":
            return self.z_to, sign * self.z_sign
        if pauli == "Y":
            # U Y U+ = i (U X U+)(U Z U+), and i * i^k is real for odd k.
            a, b = PAULIS.index(self.x_to), PAULIS.index(self.z_to)
            k = PHASE[a][b]
            if k % 2 == 0:
                raise AssertionError("conjugated Y must carry a real sign")
            return PAULIS[a ^ b], sign * self.x_sign * self.z_sign * (-1 if k == 1 else 1)
        raise ValueError(f"not a Pauli letter: {pauli!r}")

    @property
    def label(self) -> str:
        return _LABELS[self]


def compose(outer: CliffordOp, inner: CliffordOp) -> CliffordOp:
    """Operator product outer*inner (inner acts on the state first)."""
    xt, xs = outer.conjugate(inner.x_to, inner.x_sign)
    zt, zs = outer.conjugate(inner.z_to, inner.z_sign)
    return CliffordOp(xt, xs, zt, zs)


_H = CliffordOp("Z", 1, "X", 1)          # H X H = Z, H Z H = X
_S = CliffordOp("Y", 1, "Z", 1)          # S X S+ = Y, S Z S+ = Z
_I = CliffordOp("X", 1, "Z", 1)


def _enumerate() -> tuple[list[CliffordOp], dict[CliffordOp, str]]:
    labels: dict[CliffordOp, str] = {_I: "I"}
    order: list[CliffordOp] = [_I]
    frontier: list[tuple[CliffordOp, str]] = [(_I, "")]
    while frontier:
        nxt: list[tuple[CliffordOp, str]] = []
        for op, word in frontier:
            for gen, gen_word in ((_H, "H"), (_S, "S")):
                cand = compose(op, gen)  # append generator on the right
                if cand not in labels:
                    labels[cand] = word + gen_word
                    order.append(cand)
                    nxt.append((cand, word + gen_word))
        frontier = nxt
    if len(order) != 24:
        raise AssertionError("H and S must generate the 24 single-qubit Cliffords")
    return order, labels


ALL_OPS, _LABELS = _enumerate()
BY_LABEL: dict[str, CliffordOp] = {_LABELS[op]: op for op in ALL_OPS}
IDENTITY = _I
_INVERSE = {op: next(c for c in ALL_OPS if compose(op, c) == _I) for op in ALL_OPS}


def inverse(op: CliffordOp) -> CliffordOp:
    return _INVERSE[op]


_Z = compose(_S, _S)
_X = compose(_H, compose(_Z, _H))
# The tableau's single-qubit gates; X, Y = XZ and Z are Paulis up to phase.
GATES = {"H": _H, "S": _S, "SDG": inverse(_S), "X": _X, "Y": compose(_X, _Z), "Z": _Z}


def compose_labels(outer: str, inner: str) -> str:
    return compose(BY_LABEL[outer], BY_LABEL[inner]).label


def matrix(op: CliffordOp | str):
    """2x2 unitary (up to global phase) of an operator or its label word, as a new numpy array."""
    from .oracle import _CLIFFORD_MAT
    return _CLIFFORD_MAT[op if isinstance(op, str) else op.label].copy()
