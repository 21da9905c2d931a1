import gc
import weakref

import numpy as np
import pytest

from ttnsim import gates
from ttnsim.circuits import Circuit
from ttnsim.errors import MemoryCapExceeded
from ttnsim.gates import Gate, haar_unitary
from ttnsim.statevector import fidelity, overlap_error, sv_simulate
from ttnsim.tensors import EXACT, TruncationPolicy
from ttnsim.topology import TreeTopology, comb_topology, perfect_tree
from ttnsim.treesearch import find_tree_structure
from ttnsim.ttn import (TtnState, entries_upper_bound, flops_bound, node_count_bound,
                        run_circuit)


def two_leaf():
    return TreeTopology([0, 1])


def random_circuit(rng, n, n_gates, p_single=0.3):
    c = Circuit(n)
    for _ in range(n_gates):
        if n == 1 or rng.random() < p_single:
            c.append(Gate("u1", (int(rng.integers(n)),), haar_unitary(2, rng)))
        else:
            qa, qb = rng.choice(n, size=2, replace=False)
            c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
    return c


def deviation_towards_center(state, nid):
    """How far node `nid` is from an isometry onto its axis towards the
    state's center: its parent axis, or the child axis on the path down."""
    tree, t = state.tree, state.tensors[nid]
    chain = tree.ancestors(state.center)
    axis = tree.child_index(chain[chain.index(nid) - 1]) if nid in chain else t.ndim - 1
    mat = np.moveaxis(t, axis, -1).reshape(-1, t.shape[axis])
    return float(np.linalg.norm(mat.conj().T @ mat - np.eye(t.shape[axis])))


class TestBasisState:
    def test_state_runs_on_the_given_topology(self):
        topo = perfect_tree(2, 2)
        assert TtnState.basis_state(topo, [0] * 4).tree is topo

    def test_all_zeros_gives_e0(self):
        for topo in (two_leaf(), perfect_tree(2, 2), perfect_tree(3, 2)):
            state = TtnState.basis_state(topo, [0] * topo.num_qubits)
            vec = state.to_statevector()
            assert vec[0] == 1.0 and np.count_nonzero(vec) == 1

    def test_big_endian_ordering(self):
        state = TtnState.basis_state(two_leaf(), [1, 0])
        vec = state.to_statevector()
        assert vec[2] == 1.0 and np.count_nonzero(vec) == 1

    def test_canonical_by_construction(self):
        state = TtnState.basis_state(perfect_tree(2, 3), [0, 1] * 4)
        assert state.canonical_deviation() < 1e-12
        assert abs(state.norm() - 1.0) < 1e-12

    def test_bits_length_checked(self):
        with pytest.raises(ValueError):
            TtnState.basis_state(two_leaf(), [0])


class TestSingleQubit:
    def test_x_flips_leaf(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply_single_qubit(gates.x(0))
        assert np.allclose(state.to_statevector(), [0, 0, 1, 0])

    def test_h_squared_is_identity(self):
        rng = np.random.default_rng(1)
        c = random_circuit(rng, 4, 10)
        topo = find_tree_structure(c, 2)
        state = run_circuit(c, topo)
        before = state.to_statevector()
        state.apply_single_qubit(gates.h(2))
        state.apply_single_qubit(gates.h(2))
        assert np.allclose(state.to_statevector(), before, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        c = random_circuit(rng, 5, 15)
        topo = find_tree_structure(c, 2)
        state = run_circuit(c, topo)
        state.apply_single_qubit(Gate("u1", (3,), haar_unitary(2, rng)))
        assert abs(np.linalg.norm(state.to_statevector()) - 1.0) < 1e-12

    def test_wrong_arity_rejected(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        with pytest.raises(ValueError):
            state.apply_single_qubit(gates.cz(0, 1))


class TestTwoQubit:
    def test_cnot_on_10(self):
        state = TtnState.basis_state(two_leaf(), [1, 0])
        state.apply_two_qubit(gates.cnot(0, 1))
        assert np.allclose(state.to_statevector(), [0, 0, 0, 1], atol=1e-12)

    def test_bell_pair(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply_single_qubit(gates.h(0))
        state.apply_two_qubit(gates.cnot(0, 1))
        root2 = 1 / np.sqrt(2)
        assert np.allclose(state.to_statevector(), [root2, 0, 0, root2], atol=1e-12)
        assert state.edge_dim(1) == 2  # Schmidt rank of the Bell pair

    def test_same_qubit_rejected(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        with pytest.raises(ValueError):
            state.apply_two_qubit(gates.h(0))

    def test_12_qubit_random_circuit_matches_oracle(self):
        rng = np.random.default_rng(7)
        c = random_circuit(rng, 12, 40)
        topo = find_tree_structure(c, 3)
        state = run_circuit(c, topo)
        assert fidelity(state.to_statevector(), sv_simulate(c)) >= 1 - 1e-10

    def test_interior_nodes_stay_isometric_during_threading(self):
        # threading first moves the center to the turning node; the split
        # factors then distort only the two leaves, so every other internal
        # node keeps its isometry towards the center, and the center its
        # unit norm, before the sweep runs
        rng = np.random.default_rng(9)
        c = random_circuit(rng, 8, 25, p_single=0.0)
        topo = perfect_tree(2, 3)
        state = TtnState.basis_state(topo, [0] * 8)
        tree = state.tree
        for g in c.gates:
            path = state.thread_two_qubit(g)
            assert state.center == tree.path_between(*g.qubits)[1]
            assert tree.parent[path[-1]] == state.center
            worst = 0.0
            for nid in range(tree.num_nodes):
                if nid == state.center or tree.is_leaf(nid):
                    continue
                worst = max(worst, deviation_towards_center(state, nid))
            assert worst < 1e-10
            assert abs(np.linalg.norm(state.tensors[state.center]) - 1.0) < 1e-10
            state.orthonormalize(EXACT, path)

    def test_gate_then_inverse_restores_dimensions(self):
        rng = np.random.default_rng(11)
        topo = perfect_tree(2, 3)
        c = random_circuit(rng, 8, 20, p_single=0.0)
        state = run_circuit(c, topo)
        dims_before = [state.edge_dim(n) for n in range(1, state.tree.num_nodes)]
        g = Gate("u2", (0, 5), haar_unitary(4, rng))
        ginv = Gate("u2inv", (0, 5), g.matrix.conj().T)
        state.apply_two_qubit(g)
        state.apply_two_qubit(ginv)
        state.orthonormalize(EXACT)
        dims_after = [state.edge_dim(n) for n in range(1, state.tree.num_nodes)]
        assert all(a <= b for a, b in zip(dims_after, dims_before))

    def test_memory_cap_triggers_loud_failure(self):
        state = TtnState.basis_state(perfect_tree(2, 3), [0] * 8, memory_cap=30)
        with pytest.raises(MemoryCapExceeded):
            state.apply_two_qubit(gates.fsim(0.4, 0.9, 0, 7))


class TestMixedCanonicalForm:
    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(sigma_rel=1e-2, d_max=2)])
    def test_gate_under_the_center_leaves_the_tree_above_alone(self, policy, monkeypatch):
        # a second gate with the same turning node neither splits nor gauges
        # any edge at or above it
        rng = np.random.default_rng(31)
        state = run_circuit(random_circuit(rng, 8, 30, p_single=0.0), perfect_tree(2, 3))
        first = Gate("u2", (0, 3), haar_unitary(4, rng))
        second = Gate("u2", (1, 2), haar_unitary(4, rng))
        lca = state.tree.path_between(0, 3)[1]
        assert state.tree.path_between(1, 2)[1] == lca
        state.apply_two_qubit(first, policy)
        assert state.center == lca
        above = set(state.tree.ancestors(lca))  # edges at or above, by child
        moves = []
        for name in ("_split_down", "_gauge_down", "_gauge_up"):
            def recorded(self, *args, _f=getattr(TtnState, name), _name=name):
                moves.append((_name, args[1] if _name != "_gauge_up" else args[0]))
                return _f(self, *args)
            monkeypatch.setattr(TtnState, name, recorded)
        state.apply_two_qubit(second, policy)
        assert moves and not [m for m in moves if m[1] in above]
        assert not [m for m in moves if m[0] == "_gauge_down"]
        assert state.center == lca and state.canonical_deviation() < 1e-10

    def test_memory_cap_mid_circuit_leaves_state_canonical(self):
        rng = np.random.default_rng(37)
        c = random_circuit(rng, 8, 40, p_single=0.0)
        topo = perfect_tree(2, 3)
        state = TtnState.basis_state(topo, [0] * 8, memory_cap=1700)
        applied = Circuit(8)
        with pytest.raises(MemoryCapExceeded):
            for g in c.gates:
                center, before = state.center, state.to_statevector()
                state.apply_two_qubit(g)
                applied.append(g)
        failed = c.gates[len(applied.gates)]
        # mid-circuit, and the failing gate needed the center elsewhere
        assert len(applied.gates) >= 5
        assert topo.path_between(*failed.qubits)[1] != center
        vec = state.to_statevector()
        assert fidelity(vec, before) >= 1 - 1e-10
        assert fidelity(vec, sv_simulate(applied)) >= 1 - 1e-10
        assert state.canonical_deviation() <= 1e-10
        assert abs(state.norm() - 1.0) <= 1e-10


class TestOrthonormalize:
    def test_noop_on_canonical_state(self):
        rng = np.random.default_rng(13)
        c = random_circuit(rng, 6, 20)
        topo = find_tree_structure(c, 3)
        state = run_circuit(c, topo)
        before = state.to_statevector()
        dims_before = [state.edge_dim(n) for n in range(1, state.tree.num_nodes)]
        state.orthonormalize(EXACT)
        assert np.allclose(state.to_statevector(), before, atol=1e-12)
        dims_after = [state.edge_dim(n) for n in range(1, state.tree.num_nodes)]
        assert all(a <= b for a, b in zip(dims_after, dims_before))

    def test_path_dimensions_bounded_by_leaf_counts(self):
        state = TtnState.basis_state(perfect_tree(2, 3), [0] * 8)
        state.apply_two_qubit(gates.cnot(0, 7))
        tree = state.tree
        for nid in range(1, tree.num_nodes):
            leaves_below = 2 ** tree.node_height[nid] if not tree.is_leaf(nid) else 1
            assert state.edge_dim(nid) <= 2 ** max(leaves_below, 1)

    def test_threshold_below_schmidt_floor_is_noop(self):
        # Bell state Schmidt values are 1/sqrt(2) each; a tiny threshold
        # cannot touch them
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply_single_qubit(gates.h(0))
        state.apply_two_qubit(gates.cnot(0, 1))
        before = state.to_statevector()
        state.orthonormalize(TruncationPolicy(sigma_rel=1e-6))
        assert overlap_error(state.to_statevector(), before) <= 1e-10

    def test_cap_policy_records_events(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply_single_qubit(gates.h(0))
        state.apply_two_qubit(gates.cnot(0, 1), TruncationPolicy(d_max=1))
        assert state.cap_events >= 1
        assert state.edge_dim(1) == 1

    def test_canonical_after_every_gate(self):
        rng = np.random.default_rng(17)
        c = random_circuit(rng, 7, 25)
        topo = find_tree_structure(c, 3)
        state = TtnState.basis_state(topo, [0] * 7)
        for g in c.gates:
            state.apply(g)
            assert state.canonical_deviation() < 1e-10
            assert abs(state.norm() - 1.0) < 1e-10

    def test_exact_mode_keeps_true_schmidt_ranks(self):
        # SWAP has operator Schmidt rank 4, but SWAP|00> = |00> is a product
        # state, so both leaf edges must come back to 1
        state = TtnState.basis_state(perfect_tree(2, 1), [0, 0])
        state.apply_two_qubit(gates.swap(0, 1))
        assert [state.edge_dim(1), state.edge_dim(2)] == [1, 1]
        assert np.allclose(state.to_statevector(), [1, 0, 0, 0], atol=1e-12)

    def test_deep_comb_without_recursion(self):
        # deeper than the interpreter's default recursion limit
        n = 1500
        state = TtnState.basis_state(comb_topology(range(n)), [0] * n)
        rng = np.random.default_rng(23)
        policy = TruncationPolicy(sigma_rel=1e-8)
        for qa, qb in ((0, n - 1), (1, n - 2), (0, n // 2)):
            state.apply_two_qubit(Gate("u2", (qa, qb), haar_unitary(4, rng)), policy)
        assert state.canonical_deviation() <= 1e-10
        assert abs(state.norm() - 1.0) < 1e-10


class TestMetrics:
    def test_fresh_balanced_binary_counts(self):
        state = TtnState.basis_state(perfect_tree(2, 2), [0] * 4)
        m = state.metrics()
        assert m.d_max_observed == 2
        assert m.m_entries == 4 * 2 + 3 * 1  # four 2x1 leaves, three 1x..x1 nodes

    def test_entries_never_increase_under_exact_sweeps(self):
        rng = np.random.default_rng(19)
        c = random_circuit(rng, 8, 30)
        topo = find_tree_structure(c, 3)
        state = run_circuit(c, topo)
        before = state.metrics().m_entries
        state.orthonormalize(EXACT)
        assert state.metrics().m_entries <= before


class TestEq2Conformance:
    def test_level_bounds_on_perfect_binary_tree(self):
        # child connections at level l never exceed 2**(2**(l-1)): the
        # 2/4/16 ceilings on an 8-leaf binary tree
        rng = np.random.default_rng(23)
        topo = perfect_tree(2, 3)
        c = random_circuit(rng, 8, 60, p_single=0.2)
        state = TtnState.basis_state(topo, [0] * 8)
        tree = state.tree
        for g in c.gates:
            state.apply(g)
            for nid in range(1, tree.num_nodes):
                level = tree.edge_level(nid)
                assert state.edge_dim(nid) <= 2 ** (2 ** (level - 1))


class TestBounds:
    def test_node_count_bound(self):
        assert node_count_bound(2, 2) == 7
        assert node_count_bound(3, 2) == 13

    def test_entries_bound_value(self):
        assert entries_upper_bound(2, 2, 4) == 7 * 4**3  # 448

    def test_flops_bound_grows_with_dmax(self):
        assert flops_bound(2, 4, 4) == 2 * 4**4
        assert flops_bound(2, 16, 8) == 4 * 8**4

    def test_live_run_entries_within_bound(self):
        rng = np.random.default_rng(29)
        c = random_circuit(rng, 8, 30)
        topo = find_tree_structure(c, 3)
        state = run_circuit(c, topo)
        m = state.metrics()
        arity = max(topo.max_arity, 2)
        bound = entries_upper_bound(arity, topo.height, m.d_max_observed)
        assert m.m_entries <= bound


class TestStateReadout:
    def test_statevector_cap(self):
        state = TtnState.basis_state(perfect_tree(2, 3), [0] * 8)
        with pytest.raises(ValueError):
            state.to_statevector(qubit_cap=4)

    def test_copy_is_independent(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        clone = state.copy()
        state.apply_single_qubit(gates.x(0))
        assert np.allclose(clone.to_statevector(), [1, 0, 0, 0])

    def test_readout_leaves_no_reference_cycle(self):
        # with the collector off, only reference counting can free the state
        state = TtnState.basis_state(perfect_tree(2, 2), [0, 1, 1, 0])
        state.apply_two_qubit(gates.cnot(0, 3))
        alive = weakref.ref(state)
        enabled = gc.isenabled()
        gc.disable()
        try:
            state.to_statevector()
            del state
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
