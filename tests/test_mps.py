import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnsim import gates, ttn
from ttnsim.circuits import Circuit, gen_treelike
from ttnsim.errors import MemoryCapExceeded
from ttnsim.gates import Gate, haar_unitary, split_gate
from ttnsim.mps import MpsState, run_circuit
from ttnsim.statevector import fidelity, sv_simulate
from ttnsim.tensors import EXACT, RANK_TOL, TruncationPolicy, qr_econ, svd_econ
from ttnsim.topology import comb_bond_edges
from ttnsim.treesearch import find_tree_structure
from ttnsim.ttn import _expand_pair
from ttnsim.ttn import run_circuit as ttn_run_circuit


def random_circuit(rng, n, n_gates, p_single=0.3):
    c = Circuit(n)
    for _ in range(n_gates):
        if n == 1 or rng.random() < p_single:
            c.append(Gate("u1", (int(rng.integers(n)),), haar_unitary(2, rng)))
        else:
            qa, qb = rng.choice(n, size=2, replace=False)
            c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
    return c


class TestBasisState:
    def test_all_zeros(self):
        state = MpsState.basis_state(3, [0, 0, 0])
        vec = state.to_statevector()
        assert vec[0] == 1.0 and np.count_nonzero(vec) == 1

    def test_bit_ordering(self):
        state = MpsState.basis_state(2, [0, 1])
        vec = state.to_statevector()
        assert vec[1] == 1.0 and np.count_nonzero(vec) == 1

    def test_canonical_at_start(self):
        state = MpsState.basis_state(4, [0, 1, 1, 0])
        assert state.canonical_deviation() < 1e-12
        assert abs(state.norm() - 1.0) < 1e-12

    def test_order_permutes_sites(self):
        state = MpsState.basis_state(3, [1, 0, 0], order=[2, 0, 1])
        vec = state.to_statevector()
        assert vec[4] == 1.0  # qubit 0 set, most significant

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            MpsState.basis_state(3, [0, 0, 0], order=[0, 0, 1])
        with pytest.raises(ValueError):
            MpsState.basis_state(3, [0, 0, 0], order=[1, 0])

    def test_copy_stays_an_mps(self):
        state = MpsState.basis_state(3, [0, 1, 0], order=[2, 0, 1])
        clone = state.copy()
        state.apply_single_qubit(gates.x(1))
        assert isinstance(clone, MpsState) and clone.bond_dims() == [1, 1]
        assert clone.to_statevector()[2] == 1.0


class TestGateApplication:
    def test_adjacent_cnot_bond_two(self):
        state = MpsState.basis_state(2, [0, 0])
        state.apply_single_qubit(gates.h(0))
        state.apply_two_qubit(gates.cnot(0, 1))
        root2 = 1 / np.sqrt(2)
        assert np.allclose(state.to_statevector(), [root2, 0, 0, root2], atol=1e-12)
        assert state.bond_dims()[0] == 2

    def test_long_range_gate_threads_through_middle(self):
        state = MpsState.basis_state(3, [0, 0, 0])
        state.apply_single_qubit(gates.h(0))
        state.thread_two_qubit(gates.cnot(0, 2))
        # before the sweep the middle site's spine node carries the k=2 bond
        # on both sides: (site 1's leaf edge, bond 1, bond 0)
        spine = comb_bond_edges(state.tree)[0]
        assert state.tensors[spine].shape == (1, 2, 2)
        assert state.bond_dims() == [2, 2]
        state.orthonormalize(EXACT)
        vec = state.to_statevector()
        root2 = 1 / np.sqrt(2)
        assert np.allclose(vec, [root2, 0, 0, 0, 0, root2, 0, 0], atol=1e-12)

    def test_threading_keeps_intermediates_canonical(self):
        rng = np.random.default_rng(3)
        c = random_circuit(rng, 6, 15, p_single=0.0)
        state = MpsState.basis_state(6, [0] * 6)
        for g in c.gates:
            state.apply(g)
        sa, sb = 1, 5
        state.thread_two_qubit(Gate("u2", (sa, sb), haar_unitary(4, rng)))
        # the center moved to site 1's spine node, the turning node; site 0's
        # spine node (the root) is an isometry onto its edge down to it, and
        # the spine nodes of sites 2..4 are isometries towards their parents
        spines = [0] + comb_bond_edges(state.tree)[:-1]
        assert state.center == spines[sa]
        root = state.tensors[0]  # (site 0's leaf edge, bond 0, dummy parent axis)
        mat = root.transpose(0, 2, 1).reshape(-1, root.shape[1])
        assert np.linalg.norm(mat.conj().T @ mat - np.eye(root.shape[1])) < 1e-10
        for spine in spines[sa + 1:sb]:
            t = state.tensors[spine]
            mat = t.reshape(-1, t.shape[-1])
            gram = mat.conj().T @ mat
            assert np.linalg.norm(gram - np.eye(t.shape[-1])) < 1e-10

    def test_ten_qubit_random_circuit_matches_oracle(self):
        rng = np.random.default_rng(5)
        c = random_circuit(rng, 10, 35)
        state = run_circuit(c)
        assert fidelity(state.to_statevector(), sv_simulate(c)) >= 1 - 1e-10

    def test_reversed_qubit_order_gate(self):
        # gate listed as (high, low) must act identically to the dense oracle
        c = Circuit(3, [Gate("u1", (1,), haar_unitary(2, np.random.default_rng(1))),
                        gates.cnot(2, 0)])
        state = run_circuit(c)
        assert fidelity(state.to_statevector(), sv_simulate(c)) >= 1 - 1e-12

    def test_custom_order_still_correct(self):
        rng = np.random.default_rng(7)
        c = random_circuit(rng, 6, 20)
        order = list(rng.permutation(6))
        state = run_circuit(c, order=order)
        assert fidelity(state.to_statevector(), sv_simulate(c)) >= 1 - 1e-10

    def test_memory_cap(self):
        state = MpsState.basis_state(8, [0] * 8, memory_cap=40)
        with pytest.raises(MemoryCapExceeded):
            state.apply_two_qubit(gates.fsim(0.7, 0.3, 0, 7))


class TestOrthonormalize:
    def test_noop_on_canonical(self):
        rng = np.random.default_rng(11)
        c = random_circuit(rng, 6, 20)
        state = run_circuit(c)
        before = state.to_statevector()
        dims = state.bond_dims()
        state.orthonormalize(EXACT)
        assert np.allclose(state.to_statevector(), before, atol=1e-12)
        assert all(a <= b for a, b in zip(state.bond_dims(), dims))

    def test_canonical_after_every_gate(self):
        rng = np.random.default_rng(13)
        c = random_circuit(rng, 7, 25)
        state = MpsState.basis_state(7, [0] * 7)
        for g in c.gates:
            state.apply(g)
            assert state.canonical_deviation() < 1e-10
            assert abs(state.norm() - 1.0) < 1e-10

    def test_truncation_threshold_zero_never_grows_dims(self):
        rng = np.random.default_rng(17)
        c = random_circuit(rng, 6, 25)
        state = run_circuit(c)
        dims = state.bond_dims()
        state.orthonormalize(TruncationPolicy(sigma_rel=0.0))
        assert all(a <= b for a, b in zip(state.bond_dims(), dims))

    def test_cap_policy_records_events(self):
        rng = np.random.default_rng(19)
        c = random_circuit(rng, 6, 20, p_single=0.0)
        state = run_circuit(c, policy=TruncationPolicy(d_max=2))
        assert max(state.bond_dims()) <= 2
        assert state.cap_events > 0


class TestLocality:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_brickwork_cost_per_gate_does_not_grow_with_n(self, n, monkeypatch):
        # a nearest-neighbour gate factorizes only around its two sites; the
        # center crosses the comb once per layer, between the last gate of
        # one layer and the first of the next
        calls = []
        for name in ("qr_econ", "svd_econ"):
            def counted(*args, _f=getattr(ttn, name), **kwargs):
                calls.append(1)
                return _f(*args, **kwargs)
            monkeypatch.setattr(ttn, name, counted)
        rng = np.random.default_rng(n)
        state = MpsState.basis_state(n, [0] * n)
        per_gate = []
        for layer in range(6):
            for j in range(layer % 2, n - 1, 2):
                before = len(calls)
                state.apply(Gate("u2", (j, j + 1), haar_unitary(4, rng)))
                per_gate.append((j == layer % 2, len(calls) - before))
        assert all(count <= 6 for first, count in per_gate if not first)
        assert all(count <= 6 + n for first, count in per_gate if first)
        assert sum(count for _, count in per_gate) <= 6 * len(per_gate)
        assert max(state.bond_dims()) > 2 and state.canonical_deviation() < 1e-10


class TestMetrics:
    def test_fresh_state_entry_count(self):
        m = MpsState.basis_state(4, [0] * 4).metrics()
        assert m.m_entries == 4 * 2  # four 1x2x1 sites
        assert m.d_max_observed == 2

    def test_entries_track_bonds(self):
        state = MpsState.basis_state(2, [0, 0])
        state.apply_single_qubit(gates.h(0))
        state.apply_two_qubit(gates.cnot(0, 1))
        assert state.metrics().m_entries == 2 * 2 + 2 * 2  # (1,2,2) + (2,2,1)


class TestCrossEngine:
    def test_ttn_and_mps_agree_in_exact_mode(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            n = int(rng.integers(4, 9))
            c = random_circuit(rng, n, 25)
            topo = find_tree_structure(c, max(1, n // 3))
            psi_t = ttn_run_circuit(c, topo).to_statevector()
            psi_m = run_circuit(c).to_statevector()
            assert fidelity(psi_t, psi_m) >= 1 - 1e-9

    def test_treelike_mps_needs_more_entries_than_ttn(self):
        c = gen_treelike(4, reps=3)
        topo = find_tree_structure(c, 4)
        m_ttn = ttn_run_circuit(c, topo).metrics().m_entries
        m_mps = run_circuit(c).metrics().m_entries
        assert m_mps > m_ttn


class ReferenceMps:
    """The earlier chain engine, kept as a reference: sites (left, physical,
    right), the split gate's bond threaded through every site between the
    targets, then a two-pass sweep over the whole chain (left-to-right QR,
    right-to-left SVD)."""

    def __init__(self, num_qubits, order):
        self.site_of = list(order)
        self.sites = [np.array([1.0, 0.0], dtype=np.complex128).reshape(1, 2, 1)] * num_qubits

    def apply(self, g):
        if g.num_qubits == 1:
            j = self.site_of[g.qubits[0]]
            self.sites[j] = np.tensordot(g.matrix, self.sites[j], axes=(1, 1)).transpose(1, 0, 2)
            return
        g_a, g_b, k = split_gate(g)
        sa, sb = (self.site_of[q] for q in g.qubits)
        if sa > sb:
            sa, sb, g_a, g_b = sb, sa, g_b, g_a
        left = np.tensordot(g_a, self.sites[sa], axes=(1, 1))  # (p_out, k, l, r)
        self.sites[sa] = left.transpose(2, 0, 3, 1).reshape(left.shape[2], 2, -1) / math.sqrt(k)
        right = np.tensordot(g_b, self.sites[sb], axes=(1, 1))
        self.sites[sb] = right.transpose(2, 1, 0, 3).reshape(-1, 2, right.shape[3])
        for j in range(sa + 1, sb):
            self.sites[j] = _expand_pair(self.sites[j], 0, 2, k)
        self.sweep()

    def sweep(self):
        n = len(self.sites)
        for j in range(n - 1):
            l, p, r = self.sites[j].shape
            q, rem = qr_econ(self.sites[j].reshape(l * p, r))
            self.sites[j] = q.reshape(l, p, -1)
            self.sites[j + 1] = np.tensordot(rem, self.sites[j + 1], axes=(1, 0))
        for j in range(n - 1, 0, -1):
            l, p, r = self.sites[j].shape
            fac = svd_econ(self.sites[j].reshape(l, p * r), threshold=RANK_TOL)
            self.sites[j] = fac.v_dag.reshape(-1, p, r)
            self.sites[j - 1] = np.tensordot(self.sites[j - 1], fac.u * fac.s, axes=(2, 0))
        self.sites[0] = self.sites[0] / np.linalg.norm(self.sites[0])

    def bond_dims(self):
        return [t.shape[2] for t in self.sites[:-1]]

    def to_statevector(self):
        acc = self.sites[0]
        for t in self.sites[1:]:
            acc = np.tensordot(acc, t, axes=(acc.ndim - 1, 0))
        vec = acc.reshape([2] * len(self.sites))  # site-major axes
        return np.ascontiguousarray(vec.transpose(self.site_of)).reshape(-1)


@st.composite
def circuits_and_orders(draw):
    """Up to 9 qubits and 25 gates (Haar, Clifford, product and one-qubit),
    in the identity order or a drawn one."""
    n = draw(st.integers(2, 9))
    order = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["haar", "haar", "cnot", "cz", "swap", "product", "single"])
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    c = Circuit(n)
    for (qa, qb), kind in draw(st.lists(st.tuples(pairs, kinds), min_size=1, max_size=25)):
        if kind == "single":
            c.append(Gate("u1", (qa,), haar_unitary(2, rng)))
        elif kind == "haar":
            c.append(Gate("u2", (qa, qb), haar_unitary(4, rng)))
        elif kind == "product":  # Schmidt rank 1
            c.append(Gate("u1u1", (qa, qb), np.kron(haar_unitary(2, rng), haar_unitary(2, rng))))
        else:
            c.append(getattr(gates, kind)(qa, qb))
    return c, list(order)


class TestAgainstChainEngine:
    @settings(max_examples=150)
    @given(circuits_and_orders())
    def test_exact_mode_matches_chain_engine(self, case):
        circuit, order = case
        state = MpsState.basis_state(circuit.num_qubits, [0] * circuit.num_qubits, order=order)
        ref = ReferenceMps(circuit.num_qubits, order)
        for g in circuit.gates:
            state.apply(g)
            ref.apply(g)
            assert state.bond_dims() == ref.bond_dims()
        psi = state.to_statevector()
        assert fidelity(ref.to_statevector(), psi) >= 1 - 1e-10
        assert fidelity(sv_simulate(circuit), psi) >= 1 - 1e-10
        assert state.canonical_deviation() < 1e-10
