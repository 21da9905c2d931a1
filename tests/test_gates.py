import numpy as np
import pytest

from ttnsim import gates
from ttnsim.gates import Gate, gate_rank, haar_unitary, split_gate


class TestGateValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate("bad", (0,), [[1, 0], [0, 2]])

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("bad", (1, 1), np.eye(4))

    def test_shape_must_match_arity(self):
        with pytest.raises(ValueError):
            Gate("bad", (0, 1), np.eye(2))

    def test_library_gates_are_unitary(self):
        for g in [gates.x(0), gates.y(0), gates.z(0), gates.h(0), gates.s(0),
                  gates.t(0), gates.rz(0.3, 0), gates.ry(1.1, 0),
                  gates.cnot(0, 1), gates.cz(0, 1), gates.swap(0, 1),
                  gates.cphase(0.7, 0, 1), gates.fsim(0.5, 0.7, 0, 1)]:
            dim = 2**g.num_qubits
            assert np.allclose(g.matrix.conj().T @ g.matrix, np.eye(dim), atol=1e-12)


def _dressed(matrix, rng):
    before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return after @ matrix @ before


def _rank_cases():
    """Two-qubit matrices for the gate_rank/split_gate agreement check, the
    cphase phases straddling GATE_RANK_TOL (the rank drops to 1 near 4e-10)."""
    rng = np.random.default_rng(2024)
    library = [gates.cnot(0, 1), gates.cz(0, 1), gates.swap(0, 1), gates.cphase(0.7, 0, 1),
               gates.fsim(0.5, 0.7, 0, 1), gates.fsim(np.pi / 2, 0.0, 0, 1)]
    cases = [pytest.param(g.matrix, id=g.label) for g in library]
    cases += [pytest.param(_dressed(g.matrix, rng), id=f"dressed-{g.label}-{i}")
              for g in library[:2] for i in range(3)]
    cases += [pytest.param(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), id=f"product-{i}")
              for i in range(3)]
    cases += [pytest.param(haar_unitary(4, rng), id=f"haar-{i}") for i in range(3)]
    for phi in np.logspace(-12, -8, 17):
        m = gates.cphase(phi, 0, 1).matrix
        cases += [pytest.param(m, id=f"cphase-{phi:.1e}"),
                  pytest.param(_dressed(m, rng), id=f"dressed-cphase-{phi:.1e}")]
    return cases


class TestGateRank:
    @pytest.mark.parametrize("matrix", _rank_cases())
    def test_dryrun_and_engines_count_the_same_rank(self, matrix):
        # the dry-run counts k with gate_rank, the engines with split_gate
        g = Gate("g", (0, 1), matrix)
        assert gate_rank(g) == split_gate(g)[2]

    def test_cphase_phases_straddle_the_tolerance(self):
        assert gate_rank(gates.cphase(1e-12, 0, 1)) == 1
        assert gate_rank(gates.cphase(1e-8, 0, 1)) == 2

    def test_cnot_is_two(self):
        assert gate_rank(gates.cnot(0, 1)) == 2

    def test_cz_is_two(self):
        assert gate_rank(gates.cz(0, 1)) == 2

    def test_generic_fsim_is_four(self):
        assert gate_rank(gates.fsim(0.5, 0.7, 0, 1)) == 4

    def test_product_gate_is_one(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        assert gate_rank(Gate("uv", (0, 1), np.kron(u, v))) == 1

    def test_swap_is_four(self):
        assert gate_rank(gates.swap(0, 1)) == 4

    def test_rank_never_exceeds_four(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = Gate("u", (0, 1), haar_unitary(4, rng))
            assert 1 <= gate_rank(g) <= 4

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            gate_rank(gates.x(0))

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(21)
        dress = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        assert gate_rank(Gate("d", (0, 1), gates.cnot(0, 1).matrix @ dress)) == 2


class TestSplitGate:
    def reassemble(self, g_a, g_b, k):
        total = np.zeros((4, 4), dtype=complex)
        for a in range(k):
            total += np.kron(g_a[:, :, a], g_b[:, :, a])
        return total / np.sqrt(k)

    def test_cnot_k2(self):
        g_a, g_b, k = split_gate(gates.cnot(0, 1))
        assert k == 2
        assert g_a.shape == (2, 2, 2) and g_b.shape == (2, 2, 2)

    def test_fsim_k4(self):
        _, _, k = split_gate(gates.fsim(0.5, 0.7, 0, 1))
        assert k == 4

    def test_reconstructs_named_gates(self):
        for g in [gates.cnot(0, 1), gates.cz(0, 1), gates.swap(0, 1),
                  gates.fsim(1.2, 0.3, 0, 1)]:
            g_a, g_b, k = split_gate(g)
            assert np.allclose(self.reassemble(g_a, g_b, k), g.matrix, atol=1e-10)

    def test_reconstructs_random_unitaries(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            g = Gate("u", (0, 1), haar_unitary(4, rng))
            g_a, g_b, k = split_gate(g)
            assert np.allclose(self.reassemble(g_a, g_b, k), g.matrix, atol=1e-10)

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            split_gate(gates.h(0))


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(41)
    for dim in (2, 4):
        u = haar_unitary(dim, rng)
        assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
