"""Brute-force statevector engine used as an independent referee.

Everything the graph rules and the tableau claim is re-checked here by
dense linear algebra on at most 14 qubits.  Qubit q owns bit q of the
amplitude index (little-endian), and for multi-qubit gates the first
listed qubit is the most significant bit of the gate matrix basis.
A gate and a Pauli projection each have one kernel that edits an array
in place: ``apply_unitary`` and ``project_measure`` validate, copy the
state and run the kernel on the copy; ``checks`` runs it on one buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .cliffords import BY_LABEL
from .graphstate import GraphState

__all__ = [
    "MAT",
    "StateVector",
    "ORACLE_QUBIT_LIMIT",
    "OracleLimitError",
    "graph_state_vector",
    "apply_unitary",
    "project_measure",
    "merge_qubits",
    "equal_up_to_global_phase",
]

ORACLE_QUBIT_LIMIT = 14
_UNITARY_TOL = 1e-10
_PROB_FLOOR = 1e-12
# 2x2 matrices: the generators and Paulis, then each Clifford label's word multiplied out.
MAT = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_CLIFFORD_MAT = {label: reduce(np.matmul, map(MAT.get, label), MAT["I"]) for label in BY_LABEL}


class OracleLimitError(ValueError):
    """Raised when a request exceeds the dense-simulation cap."""


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > ORACLE_QUBIT_LIMIT:
            raise OracleLimitError(f"oracle size limit: {self.n} qubits exceeds {ORACLE_QUBIT_LIMIT}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, wanted (2**{self.n},)")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |v| = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, n: int, amps: np.ndarray) -> StateVector:
        """A state built in this module: no norm check and no copy of amps."""
        amps.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amplitudes", amps)
        return self


@lru_cache(maxsize=None)
def _bit_rows(n: int) -> list[int]:
    """Row q as an int of 2**n bits, bit y being bit q of y: 2^q zeros, 2^q ones, repeated."""
    ones = (1 << (1 << n)) - 1
    return [ones // ((1 << (2 << q)) - 1) * (((1 << (1 << q)) - 1) << (1 << q)) for q in range(n)]


def graph_state_vector(g: GraphState) -> StateVector:
    """Graph state amplitudes: 2^(-n/2) * (-1)^(edges inside the excited set), qubit i
    being the i-th vertex in ascending order.  The signs double over qubits: index
    2^q + y has the edges of y plus those from q to the qubits in y."""
    n = g.n
    if n > ORACLE_QUBIT_LIMIT:
        raise OracleLimitError(f"oracle size limit: {n} qubits exceeds {ORACLE_QUBIT_LIMIT}")
    pos = {v: i for i, v in enumerate(g.sorted_vertices())}
    rows, odd, lower = _bit_rows(n), 0, [0] * n  # odd: bit x set for an odd edge count in x
    for u, v in g.edges:  # u < v, so q's lower neighbours are XORed into lower[q]
        lower[pos[v]] ^= rows[pos[u]]
    for q in range(n):
        odd |= ((odd ^ lower[q]) & ((1 << (1 << q)) - 1)) << (1 << q)
    signs = np.unpackbits(memoryview(odd.to_bytes(2**n // 8 + 1, "little")), bitorder="little")
    amp = 2 ** (-n / 2)
    return StateVector._trusted(n, np.where(signs[: 2**n], complex(-amp), complex(amp)))


def _check_qubits(v: StateVector, *qubits: int) -> None:
    for q in qubits:
        if not 0 <= q < v.n:
            raise ValueError(f"no such qubit: {q}")


def apply_unitary(v: StateVector, u: np.ndarray, qubits: tuple[int, ...]) -> StateVector:
    """Apply a 2^k x 2^k unitary to the listed qubits (k = 1 or 2).

    In the gate's own basis the first listed qubit is the most
    significant bit.
    """
    k = len(qubits)
    if k not in (1, 2):
        raise ValueError("only 1- and 2-qubit unitaries are supported")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubit in gate application")
    _check_qubits(v, *qubits)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"gate has shape {u.shape}, wanted ({2**k}, {2**k})")
    if np.max(np.abs(u.conj().T @ u - np.eye(2**k))) > _UNITARY_TOL:
        raise ValueError("gate is not unitary")
    return StateVector._trusted(v.n, _apply_in_place(v.amplitudes.copy(), u, qubits))


def _apply_in_place(a: np.ndarray, u: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """The gate kernel: a becomes u applied to distinct qubits, and is returned.
    A gate with one nonzero entry per row (a Pauli, a phase, CNOT) copies and
    scales the blocks of a where the qubits read each basis state, saving first a
    block that a later row still reads; any other gate is one matrix product."""
    if len(qubits) == 1:  # view[0, b]: the qubit's bit is b
        view = a.reshape(1, -1, 2, 2 ** qubits[0]).transpose(0, 2, 1, 3)
    else:  # view[b, c]: the first qubit's bit is b, the second's c
        lo, hi = sorted(qubits)
        view = a.reshape(-1, 2, 2 ** (hi - lo - 1), 2, 2**lo)  # axis 1 is bit hi, axis 3 bit lo
        view = view.transpose((1, 3, 0, 2, 4) if qubits[0] == hi else (3, 1, 0, 2, 4))
    rows = u.tolist()
    blocks = [view[i >> 1, i & 1] for i in range(len(rows))]
    cols = [[j for j, c in enumerate(row) if c != 0] for row in rows]
    if any(len(js) > 1 for js in cols):
        view[...] = (u @ view.reshape(len(rows), -1)).reshape(view.shape)
        return a
    saved = {j: blocks[j].copy() for i, (j,) in enumerate(cols) if j < i}
    for i, (j,) in enumerate(cols):
        if (j, rows[i][j]) != (i, 1):
            np.multiply(saved.get(j, blocks[j]), rows[i][j], out=blocks[i])
    return a


def project_measure(
    v: StateVector, qubit: int, basis: str, outcome: int
) -> tuple[StateVector, float]:
    """Project onto the +-1 eigenspace of a Pauli on one qubit.

    Returns the renormalized post-measurement state (the measured qubit
    stays in place, collapsed) and the branch probability.  A branch
    with probability below 1e-12 is an error.
    """
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"unknown measurement basis: {basis!r}")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    _check_qubits(v, qubit)
    amps, prob = _project_in_place(v.amplitudes.copy(), qubit, basis, outcome)
    return StateVector._trusted(v.n, amps), prob


def _project_in_place(a: np.ndarray, qubit: int, basis: str, outcome: int) -> tuple[np.ndarray, float]:
    """The projection kernel: a becomes (a + outcome * P a) / 2 for the Pauli P on the qubit,
    renormalized, and is returned with the probability; below 1e-12 it raises ValueError."""
    half0, half1 = a.reshape(-1, 2, 2**qubit).swapaxes(0, 1)
    if basis == "Z":
        (half1 if outcome == 1 else half0)[...] = 0
    else:  # P swaps the halves, so half 1 of the result is outcome * P[1, 0] times half 0
        half0 += (outcome * MAT[basis][0, 1]) * half1
        half0 *= 0.5
        np.multiply(half0, outcome * MAT[basis][1, 0], out=half1)
    prob = float(np.vdot(a, a).real)
    if prob < _PROB_FLOOR:
        raise ValueError(f"measurement branch has vanishing probability ({prob:.3e})")
    a *= 1.0 / np.sqrt(prob)  # bit for bit numpy's complex division by sqrt(prob)
    return a, prob


def merge_qubits(v: StateVector, qa: int, qb: int) -> tuple[StateVector, float]:
    """Success branch of a type-I fusion on qubits qa and qb.

    Applies the Kraus map |0><00| + |1><11| that keeps one photon when
    the two fused qubits agree in the computational basis.  The merged
    qubit lands in qa's slot; qb disappears and higher qubits shift down
    by one.  Returns the renormalized state and the branch probability.
    """
    if qa == qb:
        raise ValueError("cannot fuse a qubit with itself")
    _check_qubits(v, qa, qb)
    index = np.arange(2**v.n)
    keep = index[((index >> qa) ^ (index >> qb)) & 1 == 0]
    # Compress the index by dropping bit qb.
    new_idx = (keep & ((1 << qb) - 1)) | ((keep >> (qb + 1)) << qb)
    out = np.zeros(2 ** (v.n - 1), dtype=complex)
    out[new_idx] = v.amplitudes[keep]
    prob = float(np.vdot(out, out).real)
    if prob < _PROB_FLOOR:
        raise ValueError(f"fusion branch has vanishing probability ({prob:.3e})")
    return StateVector._trusted(v.n - 1, out / np.sqrt(prob)), prob


def equal_up_to_global_phase(v1: StateVector, v2: StateVector, tol: float = 1e-10) -> bool:
    if v1.n != v2.n:
        return False
    overlap = abs(np.vdot(v1.amplitudes, v2.amplitudes))
    return bool(overlap >= 1.0 - tol)
