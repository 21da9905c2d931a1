import numpy as np
import pytest

from ttnsim import gates
from ttnsim.circuits import Circuit
from ttnsim.gates import Gate, haar_unitary
from ttnsim.errors import MemoryCapExceeded
from ttnsim.statevector import (DenseState, apply_gate, basis_vector, fidelity, overlap_error,
                                sv_simulate)


def kron_oracle(circuit):
    """Independent full-matrix simulator: embed every gate via Kronecker
    products and multiply onto the starting vector. Only sane for tiny N."""
    n = circuit.num_qubits
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    for g in circuit.gates:
        if g.num_qubits == 1:
            (q,) = g.qubits
            full = np.eye(1, dtype=complex)
            for pos in range(n):
                full = np.kron(full, g.matrix if pos == q else np.eye(2))
        else:
            qa, qb = g.qubits
            # build sum of |ab><cd| terms placed at the right positions
            full = np.zeros((2**n, 2**n), dtype=complex)
            m4 = g.matrix.reshape(2, 2, 2, 2)
            for oa in range(2):
                for ob in range(2):
                    for ia in range(2):
                        for ib in range(2):
                            term = np.eye(1, dtype=complex)
                            for pos in range(n):
                                if pos == qa:
                                    piece = np.zeros((2, 2)); piece[oa, ia] = 1
                                elif pos == qb:
                                    piece = np.zeros((2, 2)); piece[ob, ib] = 1
                                else:
                                    piece = np.eye(2)
                                term = np.kron(term, piece)
                            full += m4[oa, ob, ia, ib] * term
        vec = full @ vec
    return vec


class TestSvSimulate:
    def test_empty_circuit_keeps_basis_state(self):
        out = sv_simulate(Circuit(3), bits=[0, 1, 0])
        assert np.array_equal(out, basis_vector([0, 1, 0]))

    def test_x_on_qubit0_flips_most_significant_bit(self):
        out = sv_simulate(Circuit(3, [gates.x(0)]))
        expected = np.zeros(8); expected[4] = 1
        assert np.allclose(out, expected)

    def test_bell_state(self):
        out = sv_simulate(Circuit(2, [gates.h(0), gates.cnot(0, 1)]))
        assert np.allclose(out, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_against_kron_oracle(self):
        rng = np.random.default_rng(55)
        for n in (2, 3):
            c = Circuit(n)
            for _ in range(12):
                if rng.random() < 0.5 or n == 1:
                    c.append(Gate("u1", (int(rng.integers(n)),), haar_unitary(2, rng)))
                else:
                    qa, qb = rng.choice(n, size=2, replace=False)
                    c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
            assert np.allclose(sv_simulate(c), kron_oracle(c), atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(77)
        c = Circuit(4)
        for _ in range(30):
            qa, qb = rng.choice(4, size=2, replace=False)
            c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
        assert abs(np.linalg.norm(sv_simulate(c)) - 1.0) < 1e-10

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            sv_simulate(Circuit(21))


class TestDenseState:
    def test_engine_interface(self):
        state = DenseState([0, 0, 0])
        for g in (gates.h(0), gates.cnot(0, 2)):
            state.apply(g)
        m = state.metrics()
        assert (m.d_max_observed, m.m_entries, state.cap_events) == (2, 8, 0)
        assert np.allclose(state.to_statevector(),
                           sv_simulate(Circuit(3, [gates.h(0), gates.cnot(0, 2)])))

    @pytest.mark.parametrize("caps, error", [({}, ValueError),
                                             ({"qubit_cap": 40}, MemoryCapExceeded)])
    def test_caps_checked_before_allocation(self, caps, error):
        with pytest.raises(error):
            DenseState([0] * 40, **caps)  # 2**40 amplitudes would not fit


class TestOverlapError:
    def test_identical_states(self):
        v = basis_vector([0, 1])
        assert overlap_error(v, v) == 0.0

    def test_orthogonal_states(self):
        assert overlap_error(basis_vector([0]), basis_vector([1])) == 1.0

    def test_rotated_pair_analytic(self):
        theta = 0.3
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        assert abs(overlap_error(a, b) - np.sin(theta) ** 2) < 1e-12

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert abs(overlap_error(a, b) - overlap_error(b, a)) < 1e-14
        assert abs(overlap_error(np.exp(1.3j) * a, b) - overlap_error(a, b)) < 1e-14

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            overlap_error(np.ones(2), np.ones(4))


def test_fidelity_of_basis_states():
    assert fidelity(basis_vector([0, 0]), basis_vector([0, 0])) == 1.0
    assert fidelity(basis_vector([0, 0]), basis_vector([1, 0])) == 0.0
