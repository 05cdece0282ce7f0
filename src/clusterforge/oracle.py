"""Brute-force statevector engine used as an independent referee.

Everything the graph rules and the tableau claim is re-checked here by
dense linear algebra on at most 14 qubits.  Qubit q owns bit q of the
amplitude index (little-endian), and for multi-qubit gates the first
listed qubit is the most significant bit of the gate matrix basis.
The public ``StateVector`` and ``apply_unitary`` validate their inputs;
the states this module builds skip those checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
# A Pauli on one qubit: X and Y swap the qubit's two halves; then each half gets a phase.
_PAULI_PHASE = {"X": np.array([[1], [1]]), "Y": np.array([[-1j], [1j]]),
                "Z": np.array([[1], [-1]])}
# The generators and Paulis as 2x2 matrices; cliffords.matrix multiplies them out.
MAT = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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
def _bit_masks(n: int) -> np.ndarray:
    """Row q says which amplitude indices have bit q set; shape (n, 2**n)."""
    masks = ((np.arange(2**n) >> np.arange(n)[:, None]) & 1).astype(bool)
    masks.setflags(write=False)
    return masks


def graph_state_vector(g: GraphState) -> StateVector:
    """Graph state amplitudes: 2^(-n/2) * (-1)^(edges inside the excited set).

    Qubit i is the i-th vertex in ascending order.
    """
    n = g.n
    if n > ORACLE_QUBIT_LIMIT:
        raise OracleLimitError(f"oracle size limit: {n} qubits exceeds {ORACLE_QUBIT_LIMIT}")
    pos = {v: i for i, v in enumerate(g.sorted_vertices())}
    masks = _bit_masks(n)
    odd = np.zeros(2**n, dtype=bool)
    for u, v in g.edges:
        odd ^= masks[pos[u]] & masks[pos[v]]
    amp = 2 ** (-n / 2)
    return StateVector._trusted(n, np.where(odd, complex(-amp), complex(amp)))


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
    return _apply_unitary(v, u, qubits)


def _apply_unitary(v: StateVector, u: np.ndarray, qubits: tuple[int, ...]) -> StateVector:
    """apply_unitary without the checks: u is a complex unitary on distinct qubits of v."""
    k = len(qubits)
    # C-order reshape puts qubit n-1 on axis 0: axis for qubit q is n-1-q.
    axes = [v.n - 1 - q for q in qubits]
    moved = np.moveaxis(v.amplitudes.reshape([2] * v.n), axes, range(k))
    flat = u @ moved.reshape(2**k, -1)
    tensor = np.moveaxis(flat.reshape([2] * v.n), range(k), axes)
    return StateVector._trusted(v.n, tensor.reshape(-1))


def project_measure(
    v: StateVector, qubit: int, basis: str, outcome: int
) -> tuple[StateVector, float]:
    """Project onto the +-1 eigenspace of a Pauli on one qubit.

    Returns the renormalized post-measurement state (the measured qubit
    stays in place, collapsed) and the branch probability.  A branch
    with probability below 1e-12 is an error.
    """
    if basis not in _PAULI_PHASE:
        raise ValueError(f"unknown measurement basis: {basis!r}")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    _check_qubits(v, qubit)
    halves = v.amplitudes.reshape(-1, 2, 2**qubit)  # axis 1 is the qubit's bit
    flipped = (halves if basis == "Z" else halves[:, ::-1]) * _PAULI_PHASE[basis]
    proj = ((halves + outcome * flipped) / 2.0).reshape(-1)
    prob = float(np.vdot(proj, proj).real)
    if prob < _PROB_FLOOR:
        raise ValueError(f"measurement branch has vanishing probability ({prob:.3e})")
    return StateVector._trusted(v.n, proj / np.sqrt(prob)), prob


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
    masks = _bit_masks(v.n)
    keep = np.flatnonzero(masks[qa] == masks[qb])
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
