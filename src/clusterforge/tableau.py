"""Stabilizer tableau simulator (generators only, exact signs).

Rows are stabilizer generators stored as X/Z bit matrices plus a sign
bit per row; a row with bits (x, z) and sign s represents
``s * prod_j P_j`` where P_j is the literal Pauli I, X, Y or Z at qubit
j (Y where both bits are set).  Row products track phases exactly, so
two tableaus describe the same state iff their canonical forms match
byte for byte, signs included.

Pauli letters, product phases and the action of every single-qubit
gate come from :mod:`cliffords`; only CZ, CNOT and SWAP are written out.

The public :class:`StabilizerTableau` constructor is the one place that
validates (0/1 bits, shapes, commuting and independent generators).
Gates, measurements, row reductions and graph states keep a valid group
by construction (Aaronson & Gottesman, PRA 70, 052328 (2004)), so the
tableaus built here skip that check.

The graph extraction in :func:`to_graph` reduces any stabilizer state
to a graph state plus per-qubit Clifford corrections and re-derives the
input from its own answer as a self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cliffords
from .graphstate import GraphState

__all__ = [
    "PauliString",
    "StabilizerTableau",
    "from_graph",
    "apply_clifford_op",
    "measure_pauli",
    "canonical_form",
    "canonical_equal",
    "to_graph",
    "StabilizerContradictionError",
]

_TWO_GATES = ("CZ", "CNOT", "SWAP")


class StabilizerContradictionError(ValueError):
    """Forced outcome disagrees with a deterministic measurement."""


# ---------------------------------------------------------------------------
# Pauli strings


@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli operator."""

    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        if len(self.x_bits) != len(self.z_bits):
            raise ValueError("x and z bit vectors differ in length")
        if any(b not in (0, 1) for b in self.x_bits + self.z_bits):
            raise ValueError("bits must be 0 or 1")
        if self.sign not in (1, -1):
            raise ValueError(f"phase restricted to +-1, got {self.sign}")

    @property
    def n(self) -> int:
        return len(self.x_bits)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse e.g. '+XZI' or '-YY'. Sign prefix optional."""
        sign = 1
        if text and text[0] in "+-":
            sign = 1 if text[0] == "+" else -1
            text = text[1:]
        codes = [cliffords.PAULIS.find(ch) for ch in text]
        if -1 in codes:
            raise ValueError(f"not a Pauli letter: {text[codes.index(-1)]!r}")
        return cls(tuple(c & 1 for c in codes), tuple(c >> 1 for c in codes), sign)

    @property
    def text(self) -> str:
        body = "".join(
            cliffords.PAULIS[x + 2 * z] for x, z in zip(self.x_bits, self.z_bits)
        )
        return ("+" if self.sign == 1 else "-") + body

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, sign: int = 1) -> "PauliString":
        if not 0 <= qubit < n:
            raise ValueError(f"no such qubit: {qubit}")
        if letter not in ("X", "Y", "Z"):
            raise ValueError(f"not a measurable Pauli letter: {letter!r}")
        code = cliffords.PAULIS.index(letter)
        x, z = [0] * n, [0] * n
        x[qubit], z[qubit] = code & 1, code >> 1
        return cls(tuple(x), tuple(z), sign)

    def is_identity(self) -> bool:
        return not any(self.x_bits) and not any(self.z_bits)


def _phase_exponents(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> np.ndarray:
    """Power of i picked up when multiplying literal Paulis (x1,z1)*(x2,z2).

    Sums over the last axis, so a stack of rows gives one power per row.
    """
    return cliffords.PHASE[x1 + 2 * z1, x2 + 2 * z2].sum(axis=-1) % 4


# ---------------------------------------------------------------------------
# Tableau


class StabilizerTableau:
    """Immutable n-generator tableau for an n-qubit stabilizer state."""

    __slots__ = ("n", "_x", "_z", "_neg")

    def __init__(self, x: np.ndarray, z: np.ndarray, neg: np.ndarray):
        x, z, neg = _bits(x), _bits(z), _bits(neg)
        n = neg.size
        if x.shape != (n, n) or z.shape != (n, n) or neg.shape != (n,):
            raise ValueError("tableau arrays have inconsistent shapes")
        if n == 0:
            raise ValueError("tableau needs at least one qubit")
        xi, zi = x.astype(np.int64), z.astype(np.int64)
        if np.any((xi @ zi.T + zi @ xi.T) % 2):
            raise ValueError("generators do not commute pairwise")
        # Commuting rows keep every row product real, as _eliminate needs.
        if _eliminate(x.copy(), z.copy(), neg.copy(), 2 * n) != n:
            raise ValueError("generators are not independent")
        self._adopt(x, z, neg)

    @classmethod
    def _trusted(
        cls, x: np.ndarray, z: np.ndarray, neg: np.ndarray
    ) -> "StabilizerTableau":
        """Skip validation for generators that are valid by construction.

        Internal fast path for gates, measurements and row reductions;
        the arrays must be 0/1 uint8 arrays of shapes (n, n), (n, n) and
        (n,) holding n commuting, independent rows, and the result takes
        ownership of them.
        """
        self = object.__new__(cls)
        self._adopt(x, z, neg)
        return self

    def _adopt(self, x: np.ndarray, z: np.ndarray, neg: np.ndarray) -> None:
        self.n = x.shape[0]
        self._x, self._z, self._neg = x, z, neg
        for arr in (x, z, neg):
            arr.setflags(write=False)

    # -- construction helpers --------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[PauliString]) -> "StabilizerTableau":
        if not rows:
            raise ValueError("tableau needs at least one qubit")
        x = np.array([r.x_bits for r in rows], dtype=np.uint8)
        z = np.array([r.z_bits for r in rows], dtype=np.uint8)
        neg = np.array([0 if r.sign == 1 else 1 for r in rows], dtype=np.uint8)
        return cls(x, z, neg)

    @property
    def rows(self) -> list[PauliString]:
        return [
            PauliString(
                tuple(int(b) for b in self._x[i]),
                tuple(int(b) for b in self._z[i]),
                -1 if self._neg[i] else 1,
            )
            for i in range(self.n)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerTableau):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._x, other._x)
            and np.array_equal(self._z, other._z)
            and np.array_equal(self._neg, other._neg)
        )

    def __hash__(self):  # pragma: no cover - mutability guard only
        return hash(
            (self._x.tobytes(), self._z.tobytes(), self._neg.tobytes())
        )

    # -- gates -------------------------------------------------------------

    def apply(self, gate: str, *qubits: int) -> "StabilizerTableau":
        """Conjugate every generator by a named Clifford gate."""
        x, z, neg = self._x.copy(), self._z.copy(), self._neg.copy()
        gate = gate.upper()
        if gate in cliffords.GATES:
            if len(qubits) != 1:
                raise ValueError(f"{gate} takes one qubit")
            (q,) = qubits
            self._check_qubit(q)
            _conjugate_column(x, z, neg, q, gate)
        elif gate in _TWO_GATES:
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValueError(f"{gate} takes two distinct qubits")
            a, b = qubits
            self._check_qubit(a)
            self._check_qubit(b)
            if gate == "CZ":
                neg ^= x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
                z[:, b] = z[:, b] ^ x[:, a]
                z[:, a] = z[:, a] ^ x[:, b]
            elif gate == "CNOT":
                c, t = a, b
                neg ^= x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
                x[:, t] = x[:, t] ^ x[:, c]
                z[:, c] = z[:, c] ^ z[:, t]
            elif gate == "SWAP":
                x[:, [a, b]] = x[:, [b, a]]
                z[:, [a, b]] = z[:, [b, a]]
        else:
            raise ValueError(f"unknown gate: {gate!r}")
        return StabilizerTableau._trusted(x, z, neg)

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"no such qubit: {q}")

    def dump(self) -> str:
        """Canonical generator list, one '+XZI'-style line per row."""
        return "\n".join(r.text for r in canonical_form(self).rows) + "\n"


def _bits(a) -> np.ndarray:
    arr = np.asarray(a)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8)


def _column_action(op: "cliffords.CliffordOp") -> np.ndarray:
    """table[x, z] = (x', z', sign flip) of the Pauli with bits (x, z) under op."""
    table = np.zeros((2, 2, 3), dtype=np.uint8)
    for code, letter in enumerate(cliffords.PAULIS):
        image, sign = op.conjugate(letter)
        k = cliffords.PAULIS.index(image)
        table[code & 1, code >> 1] = (k & 1, k >> 1, sign < 0)
    return table


# Keyed by H/S label and by gate name; the two agree on "H" and "S".
_ACTION = {label: _column_action(op) for label, op in cliffords.BY_LABEL.items()}
_ACTION.update((name, _column_action(op)) for name, op in cliffords.GATES.items())


def _conjugate_column(x, z, neg, q: int, name: str) -> None:
    """In place: conjugate qubit q of every row by a Clifford label or gate name."""
    new = _ACTION[name][x[:, q], z[:, q]]
    x[:, q], z[:, q] = new[:, 0], new[:, 1]
    neg ^= new[:, 2]


def _row_mult(
    x: np.ndarray, z: np.ndarray, neg: np.ndarray, dst, src: int
) -> None:
    """In place: every row in ``dst`` *= row src, with exact sign tracking."""
    if not len(dst):
        return
    dst = np.asarray(dst)
    xd, zd, xs, zs = x[dst], z[dst], x[src], z[src]
    exp = _phase_exponents(xd, zd, xs, zs)
    if (exp & 1).any():
        raise AssertionError("product of commuting rows must have a real sign")
    neg[dst] ^= (exp >> 1).astype(np.uint8) ^ neg[src]
    x[dst] = xd ^ xs
    z[dst] = zd ^ zs


def _eliminate(x: np.ndarray, z: np.ndarray, neg: np.ndarray, ncols: int) -> int:
    """In place: sign-tracked reduced row echelon form; returns the rank.

    Columns run X block first, then Z block, and only the first
    ``ncols`` of them are reduced.  Each pivot is the first row at or
    below the current rank with the bit set, swapped up and cleared from
    every other row.  Rows must commute pairwise; there may be more rows
    than qubits, and the dependent ones end up zero below the rank.
    """
    rows, n = x.shape
    rank = 0
    for col in range(ncols):
        block, c = (x, col) if col < n else (z, col - n)
        bits = block[:, c].tolist()
        pivot = next((r for r in range(rank, rows) if bits[r]), None)
        if pivot is None:
            continue
        if pivot != rank:
            for arr in (x, z, neg):
                arr[[rank, pivot]] = arr[[pivot, rank]]
            bits[rank], bits[pivot] = bits[pivot], bits[rank]
        if sum(bits) > 1:
            _row_mult(x, z, neg, [r for r in range(rows) if bits[r] and r != rank], rank)
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Module operations


def from_graph(g: GraphState) -> StabilizerTableau:
    """Generators K_v = X_v prod_{u in N(v)} Z_u; qubit i is the i-th
    vertex in ascending order."""
    verts = g.sorted_vertices()
    if not verts:
        raise ValueError("tableau needs at least one qubit")
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    x = np.zeros((n, n), dtype=np.uint8)
    z = np.zeros((n, n), dtype=np.uint8)
    for v in verts:
        i = pos[v]
        x[i, i] = 1
        for u in g.neighbors(v):
            z[i, pos[u]] = 1
    return StabilizerTableau._trusted(x, z, np.zeros(n, dtype=np.uint8))


def apply_clifford_op(
    t: StabilizerTableau, op: "cliffords.CliffordOp | str", q: int
) -> StabilizerTableau:
    """Apply one of the 24 single-qubit Cliffords, named by its H/S word."""
    label = op if isinstance(op, str) else op.label
    if label not in cliffords.BY_LABEL:
        raise ValueError(f"unknown Clifford label: {label!r}")
    if label == "I":
        return t
    t._check_qubit(q)
    x, z, neg = t._x.copy(), t._z.copy(), t._neg.copy()
    _conjugate_column(x, z, neg, q, label)
    return StabilizerTableau._trusted(x, z, neg)


def measure_pauli(
    t: StabilizerTableau,
    p: PauliString,
    forced: int | None = None,
    rng=None,
) -> tuple[StabilizerTableau, int, bool]:
    """Measure a Pauli observable; returns (tableau, outcome, was_deterministic).

    Random outcomes need ``rng`` (anything with a ``next_bool()``);
    passing ``forced`` picks the branch instead, still consuming no
    entropy here.  Forcing an outcome the stabilizer already excludes
    raises :class:`StabilizerContradictionError`.
    """
    if p.n != t.n:
        raise ValueError(f"operator length {p.n} does not match {t.n} qubits")
    if p.is_identity():
        raise ValueError("cannot measure the identity operator")
    if forced is not None and forced not in (1, -1):
        raise ValueError(f"forced outcome must be +1 or -1, got {forced}")

    px = np.array(p.x_bits, dtype=np.uint8)
    pz = np.array(p.z_bits, dtype=np.uint8)
    # Work against the positive operator; fold p's sign into the outcome.
    forced_pos = None if forced is None else forced * p.sign

    anti = (t._x @ pz.astype(np.int64) + t._z @ px.astype(np.int64)) % 2

    if anti.any():
        x, z, neg = t._x.copy(), t._z.copy(), t._neg.copy()
        hits = np.flatnonzero(anti)
        pivot = int(hits[0])
        _row_mult(x, z, neg, hits[1:], pivot)
        if forced_pos is None:
            if rng is None:
                raise ValueError("random outcome requires an rng")
            outcome_pos = 1 if rng.next_bool() else -1
        else:
            outcome_pos = forced_pos
        x[pivot] = px
        z[pivot] = pz
        neg[pivot] = 0 if outcome_pos == 1 else 1
        return StabilizerTableau._trusted(x, z, neg), outcome_pos * p.sign, False

    # Deterministic: p is a signed product of generators.  Reduced under
    # them, its row is the one left zero, signed with p's eigenvalue.
    x, z = np.vstack((t._x, px)), np.vstack((t._z, pz))
    neg = np.append(t._neg, np.uint8(0))
    if _eliminate(x, z, neg, 2 * t.n) != t.n:
        raise AssertionError("operator commutes with the stabilizer but is not in it")
    outcome_pos = -1 if neg[t.n] else 1
    if forced_pos is not None and forced_pos != outcome_pos:
        raise StabilizerContradictionError(
            f"contradicts stabilizer: forced {forced:+d} but outcome is fixed "
            f"at {outcome_pos * p.sign:+d}"
        )
    return t, outcome_pos * p.sign, True


def canonical_form(t: StabilizerTableau) -> StabilizerTableau:
    """Unique sign-tracked reduced row echelon form.

    Columns are ordered X-block first, then Z-block.  Two tableaus
    describe the same stabilizer group with the same signs iff their
    canonical forms are identical.
    """
    x, z, neg = t._x.copy(), t._z.copy(), t._neg.copy()
    _eliminate(x, z, neg, 2 * t.n)
    return StabilizerTableau._trusted(x, z, neg)


def canonical_equal(t1: StabilizerTableau, t2: StabilizerTableau) -> bool:
    """Same state, signs included."""
    if t1.n != t2.n:
        return False
    return canonical_form(t1) == canonical_form(t2)


def to_graph(t: StabilizerTableau) -> tuple[GraphState, dict[int, str]]:
    """Reduce to a graph state plus per-qubit Clifford frame.

    Returns (g, frame) with the state of ``t`` equal to the frame
    applied to the graph state of ``g`` (vertices are qubit indices).
    The derivation is re-checked internally via canonical_equal before
    returning.
    """
    n = t.n
    x, z, neg = t._x.copy(), t._z.copy(), t._neg.copy()
    applied = [cliffords.IDENTITY] * n  # per qubit, the product of its gates

    def conjugate(q: int, gate: str) -> None:
        _conjugate_column(x, z, neg, q, gate)
        applied[q] = cliffords.compose(cliffords.GATES[gate], applied[q])

    # Hadamards until the X block has full rank.  A rank-deficient RREF
    # leaves pure-Z rows whose support avoids all X pivot columns, so
    # converting any support column makes the rank grow.
    while (rank := _eliminate(x, z, neg, n)) < n:
        support = np.nonzero(z[rank])[0]  # first pure-Z row
        if not support.size:
            raise AssertionError("identity row in an independent tableau")
        conjugate(int(support[0]), "H")

    # X block is now the identity; the Z block must be symmetric.
    if not np.array_equal(x, np.eye(n, dtype=np.uint8)):
        raise AssertionError("full-rank X block must reduce to the identity")
    if not np.array_equal(z, z.T):
        raise AssertionError("commuting rows force a symmetric Z block")

    for q in range(n):
        if z[q, q]:
            # Y at the diagonal: S-dagger turns it into X, with no sign flip,
            # and leaves the other rows alone, whose X part vanishes at q.
            conjugate(q, "SDG")

    for q in range(n):
        if neg[q]:
            # Row q is the only one with X at q, so Z flips its sign alone.
            conjugate(q, "Z")

    edges = {
        (i, j) for i in range(n) for j in range(i + 1, n) if z[i, j]
    }
    g = GraphState(frozenset(range(n)), frozenset(edges))

    frame = {q: cliffords.inverse(op).label
             for q, op in enumerate(applied) if op != cliffords.IDENTITY}

    check = from_graph(g)
    for q, label in frame.items():
        check = apply_clifford_op(check, label, q)
    if not canonical_equal(check, t):
        raise AssertionError("graph extraction failed self-check")
    return g, frame
