"""Brute-force statevector engine used as an independent referee.

Everything the graph rules and the tableau claim is re-checked here by
dense linear algebra on at most 14 qubits.  Qubit q owns bit q of the
amplitude index (little-endian), and for multi-qubit gates the first
listed qubit is the most significant bit of the gate matrix basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffords import MAT
from .graphstate import GraphState

__all__ = [
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


class OracleLimitError(ValueError):
    """Raised when a request exceeds the dense-simulation cap."""


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > ORACLE_QUBIT_LIMIT:
            raise OracleLimitError(
                f"oracle size limit: {self.n} qubits exceeds {ORACLE_QUBIT_LIMIT}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, wanted (2**{self.n},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |v| = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def graph_state_vector(g: GraphState) -> StateVector:
    """Graph state amplitudes: 2^(-n/2) * (-1)^(edges inside the excited set).

    Qubit i is the i-th vertex in ascending order.
    """
    n = g.n
    if n > ORACLE_QUBIT_LIMIT:
        raise OracleLimitError(
            f"oracle size limit: {n} qubits exceeds {ORACLE_QUBIT_LIMIT}"
        )
    pos = {v: i for i, v in enumerate(g.sorted_vertices())}
    idx = np.arange(2**n, dtype=np.int64)
    parity = np.zeros(2**n, dtype=np.int64)
    for u, v in g.edges:
        parity += ((idx >> pos[u]) & 1) & ((idx >> pos[v]) & 1)
    amps = np.where(parity % 2 == 0, 1.0, -1.0).astype(complex) * 2 ** (-n / 2)
    return StateVector(n, amps)


def _as_tensor(v: StateVector) -> np.ndarray:
    # C-order reshape puts qubit n-1 on axis 0: axis for qubit q is n-1-q.
    return v.amplitudes.reshape([2] * v.n)


def _check_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"gate has shape {u.shape}, wanted ({dim}, {dim})")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > _UNITARY_TOL:
        raise ValueError("gate is not unitary")
    return u


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
    for q in qubits:
        if not 0 <= q < v.n:
            raise ValueError(f"no such qubit: {q}")
    u = _check_unitary(u, 2**k)
    tensor = _as_tensor(v)
    axes = [v.n - 1 - q for q in qubits]
    moved = np.moveaxis(tensor, axes, range(k))
    flat = moved.reshape(2**k, -1)
    flat = u @ flat
    moved = flat.reshape([2] * k + [2] * (v.n - k))
    tensor = np.moveaxis(moved, range(k), axes)
    return StateVector(v.n, tensor.reshape(-1))


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
    flipped = apply_unitary(v, MAT[basis], (qubit,))
    proj = (v.amplitudes + outcome * flipped.amplitudes) / 2.0
    prob = float(np.vdot(proj, proj).real)
    if prob < _PROB_FLOOR:
        raise ValueError(
            f"measurement branch has vanishing probability ({prob:.3e})"
        )
    return StateVector(v.n, proj / np.sqrt(prob)), prob


def merge_qubits(v: StateVector, qa: int, qb: int) -> tuple[StateVector, float]:
    """Success branch of a type-I fusion on qubits qa and qb.

    Applies the Kraus map |0><00| + |1><11| that keeps one photon when
    the two fused qubits agree in the computational basis.  The merged
    qubit lands in qa's slot; qb disappears and higher qubits shift down
    by one.  Returns the renormalized state and the branch probability.
    """
    if qa == qb:
        raise ValueError("cannot fuse a qubit with itself")
    for q in (qa, qb):
        if not 0 <= q < v.n:
            raise ValueError(f"no such qubit: {q}")
    n = v.n
    idx = np.arange(2**n, dtype=np.int64)
    bits_a = (idx >> qa) & 1
    bits_b = (idx >> qb) & 1
    keep = idx[bits_a == bits_b]
    # Compress the index by dropping bit qb.
    low = keep & ((1 << qb) - 1)
    high = (keep >> (qb + 1)) << qb
    new_idx = low | high
    out = np.zeros(2 ** (n - 1), dtype=complex)
    out[new_idx] = v.amplitudes[keep]
    prob = float(np.vdot(out, out).real)
    if prob < _PROB_FLOOR:
        raise ValueError(f"fusion branch has vanishing probability ({prob:.3e})")
    return StateVector(n - 1, out / np.sqrt(prob)), prob


def equal_up_to_global_phase(
    v1: StateVector, v2: StateVector, tol: float = 1e-10
) -> bool:
    if v1.n != v2.n:
        return False
    overlap = abs(np.vdot(v1.amplitudes, v2.amplitudes))
    return bool(overlap >= 1.0 - tol)
