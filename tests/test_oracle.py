"""Dense statevector reference engine."""

import numpy as np
import pytest

from clusterforge.checks import random_graph
from clusterforge.fusion import RngStream
from clusterforge.graphstate import GraphState, chain, star
from clusterforge.oracle import (
    MAT,
    ORACLE_QUBIT_LIMIT,
    OracleLimitError,
    StateVector,
    apply_unitary,
    equal_up_to_global_phase,
    graph_state_vector,
    merge_qubits,
    project_measure,
)

INV_SQRT2 = 2**-0.5


def plus(n: int) -> StateVector:
    """|+>^n: the graph state of the edgeless graph on n vertices."""
    return graph_state_vector(GraphState(range(n)))


def test_statevector_validates():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(OracleLimitError, match="oracle size limit"):
        StateVector(ORACLE_QUBIT_LIMIT + 1, np.zeros(1))
    v = plus(1)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 9.0  # amplitudes are read-only


def test_graph_state_signs():
    # two-qubit graph state: CZ |++>, minus sign only on |11>
    v = graph_state_vector(chain(2))
    assert np.allclose(v.amplitudes, [0.5, 0.5, 0.5, -0.5])
    # no edges: plain plus state
    assert np.allclose(graph_state_vector(GraphState([1, 2])).amplitudes, 0.25**0.5)


def test_graph_state_vertex_order():
    # qubit index follows ascending vertex label, not insertion order
    a = graph_state_vector(GraphState([5, 9], [(9, 5)]))
    b = graph_state_vector(chain(2))
    assert np.allclose(a.amplitudes, b.amplitudes)


def test_graph_state_size_cap():
    with pytest.raises(OracleLimitError, match="oracle size limit"):
        graph_state_vector(chain(ORACLE_QUBIT_LIMIT + 1))


def test_apply_unitary_little_endian():
    # X on qubit 0 of |00> excites index 1
    v = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
    out = apply_unitary(v, MAT["X"], (0,))
    assert np.allclose(out.amplitudes, [0, 1, 0, 0])
    out = apply_unitary(v, MAT["X"], (1,))
    assert np.allclose(out.amplitudes, [0, 0, 1, 0])


def test_apply_unitary_two_qubit_order():
    # CNOT written with the first listed qubit as control (most
    # significant bit of the gate basis)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    v = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))  # qubit0 = 1
    out = apply_unitary(v, cnot, (0, 1))
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])  # target qubit1 flipped


def test_apply_unitary_rejects_junk():
    v = plus(2)
    with pytest.raises(ValueError, match="not unitary"):
        apply_unitary(v, np.ones((2, 2)), (0,))
    with pytest.raises(ValueError, match="duplicate qubit"):
        apply_unitary(v, np.eye(4), (0, 0))
    with pytest.raises(ValueError, match="no such qubit"):
        apply_unitary(v, MAT["X"], (5,))
    with pytest.raises(ValueError, match="1- and 2-qubit"):
        apply_unitary(v, np.eye(8), (0, 1, 2))
    with pytest.raises(ValueError, match="gate has shape"):
        apply_unitary(v, np.eye(4), (0,))


def test_cz_on_plus_gives_graph_state():
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    got = apply_unitary(plus(2), cz, (0, 1))
    assert equal_up_to_global_phase(got, graph_state_vector(chain(2)))


def test_project_measure_probabilities():
    v = plus(1)
    vz, p = project_measure(v, 0, "Z", +1)
    assert abs(p - 0.5) < 1e-12
    assert np.allclose(vz.amplitudes, [1, 0])
    vx, p = project_measure(v, 0, "X", +1)
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(vx.amplitudes, v.amplitudes)
    with pytest.raises(ValueError, match="vanishing probability"):
        project_measure(v, 0, "X", -1)
    with pytest.raises(ValueError, match="unknown measurement basis"):
        project_measure(v, 0, "Q", 1)
    with pytest.raises(ValueError, match="outcome must be"):
        project_measure(v, 0, "Z", 0)


def test_project_measure_y():
    vy, p = project_measure(plus(1), 0, "Y", +1)
    assert abs(p - 0.5) < 1e-12
    plus_i = StateVector(1, np.array([INV_SQRT2, 1j * INV_SQRT2]))
    assert equal_up_to_global_phase(vy, plus_i)


def test_z_measurement_on_graph_state_cuts_edges():
    # measuring vertex 2 of a 3-chain in Z leaves qubits 1,3 in |+>
    v = graph_state_vector(chain(3))
    out, p = project_measure(v, 1, "Z", +1)
    assert abs(p - 0.5) < 1e-12
    tensor = out.amplitudes.reshape(2, 2, 2)
    rest = tensor[:, 0, :].reshape(-1)  # qubit1 collapsed to |0>
    assert np.allclose(rest, 0.5)


def test_merge_qubits_plus_states():
    out, p = merge_qubits(plus(2), 0, 1)
    assert abs(p - 0.5) < 1e-12
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_merge_qubits_slot_bookkeeping():
    # |10> on (q1=1, q0=0) has no agreeing components with... build |11>
    v = StateVector(2, np.array([0, 0, 0, 1], dtype=complex))
    out, p = merge_qubits(v, 0, 1)
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(out.amplitudes, [0, 1])
    v = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))  # |01>: disagree
    with pytest.raises(ValueError, match="vanishing probability"):
        merge_qubits(v, 0, 1)
    with pytest.raises(ValueError, match="itself"):
        merge_qubits(plus(2), 1, 1)


def test_merge_matches_chain_join():
    # fusing the ends of two 2-chains must give the 3-chain state
    two = graph_state_vector(chain(2))
    both = StateVector(4, np.kron(two.amplitudes, two.amplitudes))
    merged, p = merge_qubits(both, 1, 2)
    assert abs(p - 0.5) < 1e-12
    assert equal_up_to_global_phase(merged, graph_state_vector(chain(3)))


def test_merge_qubits_is_cnot_then_z_projection():
    """The merge map equals CNOT(a->b), Z=+1 on b, then dropping b: the
    fusion model of the trace replay."""
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    for case in range(30):
        rng = RngStream(case)
        n = 2 + case % 7
        vec = graph_state_vector(random_graph(n, rng))
        a, b = rng.next_u64() % n, rng.next_u64() % (n - 1)
        b += b >= a
        merged, p = merge_qubits(vec, a, b)
        projected, q = project_measure(apply_unitary(vec, cnot, (a, b)), b, "Z", 1)
        dropped = np.take(projected.amplitudes.reshape([2] * n), 0, axis=n - 1 - b)
        assert p == pytest.approx(q)
        assert equal_up_to_global_phase(merged, StateVector(n - 1, dropped.reshape(-1)))


def _random_state(n: int, seed: int) -> StateVector:
    """A seeded state with Gaussian complex amplitudes."""
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def _random_unitary(k: int, seed: int) -> np.ndarray:
    """Q of the QR decomposition of a seeded complex Gaussian 2^k x 2^k matrix."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.normal(size=(2**k, 2**k)) + 1j * gen.normal(size=(2**k, 2**k)))
    return q


def _random_monomial(k: int, seed: int) -> np.ndarray:
    """A seeded permutation matrix times random phases: one nonzero entry per row."""
    gen = np.random.default_rng(seed)
    return np.eye(2**k)[gen.permutation(2**k)] * np.exp(2j * np.pi * gen.random(2**k))


def _kron_operator(n: int, u: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """The full 2^n x 2^n operator of u on the listed qubits, built with np.kron:
    the sum over gate entries u[i, j] of |i><j| on those qubits and the
    identity elsewhere (qubit n-1 is the leftmost factor)."""
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**k):
        for j in range(2**k):
            factor = np.eye(1)
            for q in reversed(range(n)):
                if q in qubits:
                    bit = k - 1 - qubits.index(q)  # the first listed qubit is the gate's high bit
                    piece = np.zeros((2, 2))
                    piece[(i >> bit) & 1, (j >> bit) & 1] = 1
                else:
                    piece = np.eye(2)
                factor = np.kron(factor, piece)
            full += u[i, j] * factor
    return full


def test_apply_unitary_matches_the_kronecker_operator():
    for n in range(1, 7):
        v = _random_state(n, 40 + n)
        targets = [(q,) for q in range(n)]
        targets += [(a, b) for a in range(n) for b in range(n) if a != b]
        for case, qubits in enumerate(targets):
            # a dense gate and a gate with one nonzero entry per row
            for u in (_random_unitary(len(qubits), 1000 * n + case),
                      _random_monomial(len(qubits), 1000 * n + case)):
                want = _kron_operator(n, u, qubits) @ v.amplitudes
                got = apply_unitary(v, u, qubits).amplitudes
                assert np.max(np.abs(got - want)) < 1e-12, (n, qubits, u)


def test_graph_state_vector_is_exactly_the_cz_circuit():
    # |+>^n with one CZ per edge, each applied as a dense 4x4 matrix: its
    # entries are 0 and +-1, so every amplitude is exactly +-2^(-n/2).
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for n in range(1, ORACLE_QUBIT_LIMIT + 1):
        for seed in range(2):
            g = random_graph(n, RngStream(100 * n + seed))
            pos = {v: i for i, v in enumerate(g.sorted_vertices())}
            want = StateVector(n, np.full(2**n, 2 ** (-n / 2), dtype=complex))
            for u, v in g.edges:
                want = apply_unitary(want, cz, (pos[u], pos[v]))
            assert np.array_equal(graph_state_vector(g).amplitudes, want.amplitudes), (n, seed)


def test_project_measure_is_exactly_the_pauli_matrix_projection():
    # (v + s P v) / 2, renormalized, with P applied as its 2x2 matrix
    # (entries 0, +-1 and +-i): any reordered or fused float operation in
    # project_measure shows here.
    states = [_random_state(n, n) for n in range(1, 7)]
    states.append(graph_state_vector(random_graph(10, RngStream(5))))
    for v in states:
        for q in range(v.n):
            for basis in "XYZ":
                flipped = apply_unitary(v, MAT[basis], (q,)).amplitudes
                for s in (1, -1):
                    proj = (v.amplitudes + s * flipped) / 2.0
                    prob = float(np.vdot(proj, proj).real)
                    if prob < 1e-12:
                        continue
                    got, p = project_measure(v, q, basis, s)
                    assert p == prob, (v.n, q, basis, s)
                    assert np.array_equal(got.amplitudes, proj / np.sqrt(prob)), (v.n, q, basis, s)


def test_project_measure_refuses_a_missing_qubit():
    v = plus(3)
    for q in (3, 7, -1):
        for basis in "XYZ":
            with pytest.raises(ValueError, match="no such qubit"):
                project_measure(v, q, basis, 1)


def test_built_states_are_read_only_and_normalized():
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    v = graph_state_vector(random_graph(9, RngStream(3)))
    built = [
        v,
        graph_state_vector(GraphState([])),
        apply_unitary(v, MAT["H"], (4,)),
        apply_unitary(_random_state(5, 1), cnot, (3, 0)),
        project_measure(v, 2, "Y", -1)[0],
        project_measure(_random_state(6, 2), 5, "X", 1)[0],
        merge_qubits(v, 1, 6)[0],
    ]
    for w in built:
        assert not w.amplitudes.flags.writeable
        assert abs(np.linalg.norm(w.amplitudes) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            w.amplitudes[0] = 1.0


def test_equal_up_to_global_phase():
    v = graph_state_vector(star(3))
    w = StateVector(3, v.amplitudes * np.exp(0.7j))
    assert equal_up_to_global_phase(v, w)
    assert not equal_up_to_global_phase(v, graph_state_vector(chain(3)))
    assert not equal_up_to_global_phase(v, plus(2))

