"""Stabilizer tableau simulator (generators only, exact signs).

Rows are stabilizer generators; a row with bits (x, z) and sign s
represents ``s * prod_j P_j`` where P_j is the literal Pauli I, X, Y or Z
at qubit j (Y where both bits are set).  Row products track phases
exactly, so two tableaus describe the same state iff their canonical
forms match byte for byte, signs included.

The layout is Stim's (Gidney, *Quantum* 5, 497 (2021)), bit-packed by
column: a list ``[x_0 .. x_{n-1}, z_0 .. z_{n-1}, signs]`` of Python
ints, bit r of each for row r.  A gate on qubit q conjugates every row
at once on columns x_q and z_q, so each single-qubit Clifford, CZ, CNOT
and SWAP costs a few big-int operations on one or two qubits' columns.
The rows that anticommute with a Pauli on k qubits are the XOR of k
columns, and a row product changes only the columns where the source
row is not the identity, its power of i counted per row by bit-sliced
mod-4 counters (Aaronson & Gottesman, PRA 70, 052328 (2004)).  Each
step of the measurement walk in :mod:`checks` gates or measures one or
two qubits, so it touches their columns and the measured row, and a
copy of the tableau is a copy of 2n + 1 references.

Pauli letters, product phases and the action of every single-qubit
gate come from :mod:`cliffords`; only CZ, CNOT and SWAP are written out.
The public :class:`StabilizerTableau` constructor is the one place that
validates (0/1 bits, shapes, commuting and independent generators);
gates, measurements and row reductions keep a valid group by
construction.  :func:`to_graph` reduces any state to a graph state plus
per-qubit Clifford corrections and re-derives the input as a self-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import cliffords
from .graphstate import GraphState

__all__ = [
    "PauliString", "StabilizerTableau", "from_graph", "apply_clifford_op", "measure_pauli",
    "canonical_form", "canonical_equal", "to_graph", "StabilizerContradictionError",
]


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
        bits = self.x_bits + self.z_bits  # counted at C speed, compared with ==
        if bits.count(0) + bits.count(1) != len(bits):
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
        body = "".join(cliffords.PAULIS[x + 2 * z] for x, z in zip(self.x_bits, self.z_bits))
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


def _ones(bits, one=1) -> list[int]:
    """Positions of the ``one`` entries of a 0/1 sequence, found at C speed."""
    i = -1
    return [i := bits.index(one, i + 1) for _ in range(bits.count(one))]


def _set_bits(c: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    return _ones(bin(c)[:1:-1], "1")


# ---------------------------------------------------------------------------
# Tableau


class StabilizerTableau:
    """Immutable n-generator tableau for an n-qubit stabilizer state."""

    __slots__ = ("n", "_cols")

    def __init__(self, x: Sequence[Sequence[int]], z: Sequence[Sequence[int]], neg: Sequence[int]):
        """Row i is (-1)^neg[i] times the Pauli string with bits x[i][j], z[i][j]."""
        shapes = ValueError("tableau arrays have inconsistent shapes")
        try:
            x, z, neg = [list(r) for r in x], [list(r) for r in z], list(neg)
        except TypeError:
            raise shapes from None
        if any(r.count(0) + r.count(1) != len(r) for r in [neg, *x, *z]):  # at C speed
            raise ValueError("bits must be 0 or 1")
        n = len(neg)
        if len(x) != n or len(z) != n or any(len(r) != n for r in x + z):
            raise shapes
        if n == 0:
            raise ValueError("tableau needs at least one qubit")
        support = [(_ones(xr), _ones(zr)) for xr, zr in zip(x, z)]
        cols = [0] * (2 * n + 1)
        for i, (xs, zs) in enumerate(support):
            for q in xs + [n + q for q in zs]:
                cols[q] |= 1 << i
        cols[-1] = sum(1 << i for i in _ones(neg))
        if any(_anticommuting(cols, n, xs, zs) for xs, zs in support):
            raise ValueError("generators do not commute pairwise")
        # Commuting rows keep every row product real, as _eliminate needs.
        if _eliminate(list(cols), n, 2 * n, list(range(n))) != n:
            raise ValueError("generators are not independent")
        self.n, self._cols = n, cols

    @classmethod
    def _trusted(cls, n: int, cols: list[int]) -> "StabilizerTableau":
        """No validation: ``cols`` holds the 2n + 1 column ints of n
        commuting, independent rows, and the tableau takes the list over."""
        self = object.__new__(cls)
        self.n, self._cols = n, cols
        return self

    # -- construction helpers --------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[PauliString]) -> "StabilizerTableau":
        if not rows:
            raise ValueError("tableau needs at least one qubit")
        return cls([r.x_bits for r in rows], [r.z_bits for r in rows], [r.sign < 0 for r in rows])

    @property
    def rows(self) -> list[PauliString]:
        n = self.n
        table = [bin(c)[:1:-1].ljust(n, "0") for c in self._cols]  # table[j][i]: bit i of column j
        x, z = zip(*table[:n]), zip(*table[n : 2 * n])
        return [PauliString(tuple(map(int, xr)), tuple(map(int, zr)), -1 if s == "1" else 1)
                for xr, zr, s in zip(x, z, table[-1])]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerTableau):
            return NotImplemented
        return self.n == other.n and self._cols == other._cols

    # -- gates -------------------------------------------------------------

    def apply(self, gate: str, *qubits: int) -> "StabilizerTableau":
        """Conjugate every generator by a named Clifford gate."""
        n, cols = self.n, list(self._cols)
        gate = gate.upper()
        if gate in cliffords.GATES:
            if len(qubits) != 1:
                raise ValueError(f"{gate} takes one qubit")
            (q,) = qubits
            self._check_qubit(q)
            _conjugate(cols, n, q, gate)
        elif gate in ("CZ", "CNOT", "SWAP"):
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValueError(f"{gate} takes two distinct qubits")
            a, b = qubits
            self._check_qubit(a)
            self._check_qubit(b)
            xa, za, xb, zb = cols[a], cols[n + a], cols[b], cols[n + b]
            if gate == "CZ":
                cols[-1] ^= xa & xb & (za ^ zb)
                cols[n + a], cols[n + b] = za ^ xb, zb ^ xa
            elif gate == "CNOT":
                cols[-1] ^= xa & zb & ~(xb ^ za)
                cols[b], cols[n + a] = xb ^ xa, za ^ zb
            else:
                cols[a], cols[b], cols[n + a], cols[n + b] = xb, xa, zb, za
        else:
            raise ValueError(f"unknown gate: {gate!r}")
        return StabilizerTableau._trusted(n, cols)

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"no such qubit: {q}")

    def dump(self) -> str:
        """Canonical generator list, one '+XZI'-style line per row."""
        return "\n".join(r.text for r in canonical_form(self).rows) + "\n"


def _column_action(op: "cliffords.CliffordOp") -> tuple[int, ...]:
    """Masks (0 or -1) for x' = x&ax ^ z&bx, z' = x&az ^ z&bz and the sign
    flips of rows holding X, Z and Y at the qubit, under conjugation by op."""
    (kx, sx), (kz, sz), (_, sy) = (op.conjugate(letter) for letter in "XZY")
    kx, kz = cliffords.PAULIS.index(kx), cliffords.PAULIS.index(kz)
    return -(kx & 1), -(kz & 1), -(kx >> 1), -(kz >> 1), -(sx < 0), -(sz < 0), -(sy < 0)


# Keyed by H/S label and by gate name; the two agree on "H" and "S".
_ACTION = {label: _column_action(op) for label, op in cliffords.BY_LABEL.items()}
_ACTION.update((name, _column_action(op)) for name, op in cliffords.GATES.items())

# For a source letter b, the destination letter a with P_a * P_b = -i P.
_MINUS = {b: next(a for a in range(4) if cliffords.PHASE[a][b] == 3) for b in (1, 2, 3)}


def _conjugate(cols: list[int], n: int, q: int, name: str) -> None:
    """In place: conjugate qubit q of every row by a Clifford label or gate name."""
    ax, bx, az, bz, fx, fz, fy = _ACTION[name]
    x, z = cols[q], cols[n + q]
    y = x & z
    cols[q], cols[n + q] = (x & ax) ^ (z & bx), (x & az) ^ (z & bz)
    cols[-1] ^= ((x ^ y) & fx) ^ ((z ^ y) & fz) ^ (y & fy)


def _anticommuting(cols: list[int], n: int, xs: list[int], zs: list[int]) -> int:
    """The mask of rows that anticommute with the Pauli that has X on the
    qubits ``xs`` and Z on ``zs`` (Y on both): the XOR of their opposite columns."""
    anti = 0
    for q in xs:
        anti ^= cols[n + q]
    for q in zs:
        anti ^= cols[q]
    return anti


def _row_mult(cols: list[int], n: int, dst: int, src: int) -> list[int]:
    """In place: every row in the mask ``dst`` *= row ``src``, with exact signs.

    Only the columns of the qubits where row src is not the identity
    change, and those qubits are returned.  Each of them multiplies a
    row's phase by +-i or 1: two counter bits per row count the factors
    of i mod 4, one more the minus signs.
    """
    count = carry = minus = 0
    support = [q for q in range(n) if (cols[q] | cols[n + q]) >> src & 1]
    for q in support:
        x, z = cols[q], cols[n + q]
        code = (x >> src & 1) | (z >> src & 1) << 1
        xd, zd = x & dst, z & dst
        yd = xd & zd
        letters = (0, xd ^ yd, zd ^ yd, yd)
        hit = (xd | zd) ^ letters[code]  # every letter but I and the source's
        carry ^= count & hit
        count ^= hit
        minus ^= letters[_MINUS[code]]
        if code & 1:
            cols[q] = x ^ dst
        if code & 2:
            cols[n + q] = z ^ dst
    if count:
        raise AssertionError("product of commuting rows must have a real sign")
    cols[-1] ^= carry ^ minus ^ (dst if cols[-1] >> src & 1 else 0)
    return support


def _eliminate(cols: list[int], n: int, ncols: int, order: list[int]) -> int:
    """In place: sign-tracked reduced row echelon form; returns the rank.

    Columns run X block first, then Z block, and only the first
    ``ncols`` of them are reduced.  ``order`` lists the physical rows in
    their logical order and is permuted in place instead of moving bits:
    each pivot is the first row at or below the current rank (in that
    order) with the bit set, swapped up and cleared from every other
    row.  Rows must commute pairwise; there may be more rows than
    qubits, and the dependent ones end up zero below the rank.
    """
    rows = len(order)
    free = (1 << rows) - 1  # rows not yet pivots
    rank = 0
    for c in range(ncols):
        cand = cols[c] & free
        if not cand:
            continue
        k = rank
        while not cand >> order[k] & 1:
            k += 1
        pivot = order[k]
        order[rank], order[k] = pivot, order[rank]
        free ^= 1 << pivot
        others = cols[c] ^ (1 << pivot)
        if others:
            _row_mult(cols, n, others, pivot)
        rank += 1
        if rank == rows:
            break
    return rank


def _moved(cols: list[int], src: list[int], dst: Sequence[int]) -> list[int]:
    """The columns with row src[k] moved to row dst[k] for every k, in
    O(set bits) Python steps."""
    to = [0] * len(src)
    for s, d in zip(src, dst):
        to[s] = 1 << d
    return [sum([to[i] for i in _set_bits(c)]) for c in cols]


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
    z = [0] * n  # symmetric: column u holds the rows of u's neighbours
    for u, v in g.edges:
        z[pos[u]] |= 1 << pos[v]
        z[pos[v]] |= 1 << pos[u]
    return StabilizerTableau._trusted(n, [1 << i for i in range(n)] + z + [0])


def apply_clifford_op(t: StabilizerTableau, op: "cliffords.CliffordOp | str",
                      q: int) -> StabilizerTableau:
    """Apply one of the 24 single-qubit Cliffords, named by its H/S word."""
    label = op if isinstance(op, str) else op.label
    if label not in cliffords.BY_LABEL:
        raise ValueError(f"unknown Clifford label: {label!r}")
    t._check_qubit(q)
    if label == "I":
        return t
    cols = list(t._cols)
    _conjugate(cols, t.n, q, label)
    return StabilizerTableau._trusted(t.n, cols)


def measure_pauli(t: StabilizerTableau, p: PauliString, forced: int | None = None,
                  rng=None) -> tuple[StabilizerTableau, int, bool]:
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

    n, cols = t.n, list(t._cols)
    px, pz = _ones(p.x_bits), _ones(p.z_bits)
    # Work against the positive operator; fold p's sign into the outcome.
    forced_pos = None if forced is None else forced * p.sign
    anti = _anticommuting(cols, n, px, pz)
    # The row p takes: if random, the first anticommuting row, after it is
    # multiplied into the others; if deterministic, a new row n.
    bit = anti & -anti if anti else 1 << n
    if anti:
        for q in _row_mult(cols, n, anti ^ bit, bit.bit_length() - 1):
            cols[q] &= ~bit
            cols[n + q] &= ~bit
    for q in px:
        cols[q] |= bit
    for q in pz:
        cols[n + q] |= bit

    if anti:
        if forced_pos is None:
            if rng is None:
                raise ValueError("random outcome requires an rng")
            forced_pos = 1 if rng.next_bool() else -1
        cols[-1] = cols[-1] & ~bit if forced_pos == 1 else cols[-1] | bit
        return StabilizerTableau._trusted(n, cols), forced_pos * p.sign, False

    # Deterministic: p is a signed product of generators, so its row is
    # the one left zero, signed with p's eigenvalue.
    order = list(range(n + 1))
    if _eliminate(cols, n, 2 * n, order) != n:
        raise AssertionError("operator commutes with the stabilizer but is not in it")
    outcome_pos = -1 if cols[-1] >> order[n] & 1 else 1
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
    cols, order = list(t._cols), list(range(t.n))
    _eliminate(cols, t.n, 2 * t.n, order)
    return StabilizerTableau._trusted(t.n, _moved(cols, order, range(t.n)))


def canonical_equal(t1: StabilizerTableau, t2: StabilizerTableau) -> bool:
    """Same state, signs included: both reduced forms agree row for row
    once t1's rows sit where t2's pivot order puts them."""
    if t1.n != t2.n:
        return False
    n = t1.n
    (c1, o1), (c2, o2) = ((list(t._cols), list(range(n))) for t in (t1, t2))
    _eliminate(c1, n, 2 * n, o1)
    _eliminate(c2, n, 2 * n, o2)
    return (c1 if o1 == o2 else _moved(c1, o1, o2)) == c2


def to_graph(t: StabilizerTableau) -> tuple[GraphState, dict[int, str]]:
    """Reduce to a graph state plus per-qubit Clifford frame.

    Returns (g, frame) with the state of ``t`` equal to the frame
    applied to the graph state of ``g`` (vertices are qubit indices).
    The derivation is re-checked via canonical_equal before returning.
    """
    n = t.n
    cols, order = list(t._cols), list(range(n))
    applied = [cliffords.IDENTITY] * n  # per qubit, the product of its gates

    def conjugate(q: int, gate: str) -> None:
        _conjugate(cols, n, q, gate)
        applied[q] = cliffords.compose(cliffords.GATES[gate], applied[q])

    # Hadamards until the X block has full rank.  A rank-deficient RREF
    # leaves pure-Z rows whose support avoids all X pivot columns, so
    # converting any support column makes the rank grow.
    while (rank := _eliminate(cols, n, n, order)) < n:
        q = next((q for q in range(n) if cols[n + q] >> order[rank] & 1), None)  # first pure-Z row
        if q is None:
            raise AssertionError("identity row in an independent tableau")
        conjugate(q, "H")
    cols = _moved(cols, order, range(n))

    # X block is now the identity; the Z block must be symmetric.
    if cols[:n] != [1 << q for q in range(n)]:
        raise AssertionError("full-rank X block must reduce to the identity")
    z = {(i, j) for j in range(n) for i in _set_bits(cols[n + j])}  # row i has Z at qubit j
    if any((j, i) not in z for i, j in z):
        raise AssertionError("commuting rows force a symmetric Z block")

    for q in range(n):
        # Y at the diagonal: S-dagger turns it into X, with no sign flip, and
        # leaves the other rows alone, whose X part vanishes at q.  Row q is
        # then the only one with X at q, so Z flips its sign alone.
        if (q, q) in z:
            conjugate(q, "SDG")
        if cols[-1] >> q & 1:
            conjugate(q, "Z")

    g = GraphState(range(n), [(i, j) for i, j in z if i < j])

    frame = {q: cliffords.inverse(op).label
             for q, op in enumerate(applied) if op != cliffords.IDENTITY}

    check = from_graph(g)
    for q, label in frame.items():
        check = apply_clifford_op(check, label, q)
    if not canonical_equal(check, t):
        raise AssertionError("graph extraction failed self-check")
    return g, frame
