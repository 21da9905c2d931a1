import gc
import itertools
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from ttnsim import gates, ttn
from ttnsim.circuits import Circuit, gen_lattice
from ttnsim.errors import FactorizationError, MemoryCapExceeded
from ttnsim.gates import Gate, haar_unitary
from ttnsim.mps import run_circuit as mps_run_circuit
from ttnsim.statevector import fidelity, overlap_error, sv_simulate
from ttnsim.tensors import EXACT, TruncationPolicy
from ttnsim.topology import TreeTopology, comb_topology, perfect_tree
from ttnsim.treesearch import default_cluster_count, find_tree_structure
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
    tree, t = state._tree, state.tensors[nid]
    chain = tree.ancestors(state.center)
    axis = tree.child_index(chain[chain.index(nid) - 1]) if nid in chain else t.ndim - 1
    mat = np.moveaxis(t, axis, -1).reshape(-1, t.shape[axis])
    return float(np.linalg.norm(mat.conj().T @ mat - np.eye(t.shape[axis])))


def record_moves(monkeypatch):
    """Record every `TtnState._move` from here on as (kind, direction,
    edge): "split" under a policy, else "gauge"; "down" or "up"; the edge
    by its child in the tree the engine walks. A split into a leaf is made
    in place at its parent, and threading hands each path leaf up to its
    parent as ("gauge", "up")."""
    moves = []

    def recorded(self, src, dst, policy=None, tie=None, _f=TtnState._move):
        down = self._tree.parent[dst] == src
        moves.append(("split" if policy is not None else "gauge", "down" if down else "up",
                      dst if down else src))
        return _f(self, src, dst, policy, tie)

    monkeypatch.setattr(TtnState, "_move", recorded)
    return moves


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
        state.apply(gates.x(0))
        assert np.allclose(state.to_statevector(), [0, 0, 1, 0])

    def test_h_squared_is_identity(self):
        rng = np.random.default_rng(1)
        c = random_circuit(rng, 4, 10)
        topo = find_tree_structure(c, 2)
        state = run_circuit(c, topo)
        before = state.to_statevector()
        state.apply(gates.h(2))
        state.apply(gates.h(2))
        assert np.allclose(state.to_statevector(), before, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        c = random_circuit(rng, 5, 15)
        topo = find_tree_structure(c, 2)
        state = run_circuit(c, topo)
        state.apply(Gate("u1", (3,), haar_unitary(2, rng)))
        assert abs(np.linalg.norm(state.to_statevector()) - 1.0) < 1e-12


class TestTwoQubit:
    def test_cnot_on_10(self):
        state = TtnState.basis_state(two_leaf(), [1, 0])
        state.apply(gates.cnot(0, 1))
        assert np.allclose(state.to_statevector(), [0, 0, 0, 1], atol=1e-12)

    def test_bell_pair(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply(gates.h(0))
        state.apply(gates.cnot(0, 1))
        root2 = 1 / np.sqrt(2)
        assert np.allclose(state.to_statevector(), [root2, 0, 0, root2], atol=1e-12)
        assert state.edge_dim(1) == 2  # Schmidt rank of the Bell pair

    def test_same_qubit_rejected(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        with pytest.raises(ValueError):
            state.thread_two_qubit(gates.h(0))

    def test_12_qubit_random_circuit_matches_oracle(self):
        rng = np.random.default_rng(7)
        c = random_circuit(rng, 12, 40)
        topo = find_tree_structure(c, 3)
        state = run_circuit(c, topo)
        assert fidelity(state.to_statevector(), sv_simulate(c)) >= 1 - 1e-10

    def test_interior_nodes_stay_isometric_during_threading(self):
        # threading first moves the center to the turning node and gauges
        # the path below it back into the center, so every other node,
        # leaves included, is an isometry towards the center, and the
        # center keeps its unit norm, before the sweep runs
        rng = np.random.default_rng(9)
        c = random_circuit(rng, 8, 25, p_single=0.0)
        topo = perfect_tree(2, 3)
        state = TtnState.basis_state(topo, [0] * 8)
        tree = state._tree
        for g in c.gates:
            path = state.thread_two_qubit(g)
            assert state.center == tree.path_between(*g.qubits)[1]
            assert tree.parent[path[-1]] == state.center
            worst = 0.0
            for nid in range(tree.num_nodes):
                if nid == state.center:
                    continue
                worst = max(worst, deviation_towards_center(state, nid))
            assert worst < 1e-10
            assert abs(np.linalg.norm(state.tensors[state.center]) - 1.0) < 1e-10
            state.orthonormalize(EXACT, path)

    def test_threading_alone_leaves_the_state_exact_and_canonical(self):
        # threading contracts the bond's connectors itself: before any sweep
        # the tensors hold the gated state in canonical form, so read-out,
        # another gate, a copy and either sweep all see the exact state
        state = TtnState.basis_state(perfect_tree(2, 3), [0] * 8)
        state.apply(gates.h(0))
        state.thread_two_qubit(gates.cnot(0, 7))
        bell = np.zeros(256)
        bell[0b00000000] = bell[0b10000001] = 1 / np.sqrt(2)
        assert np.allclose(state.to_statevector(), bell, atol=1e-12)
        assert state.canonical_deviation() < 1e-10
        path = state.thread_two_qubit(gates.cnot(1, 2))
        c = Circuit(8, [gates.h(0), gates.cnot(0, 7), gates.cnot(1, 2)])
        assert np.allclose(state.to_statevector(), sv_simulate(c), atol=1e-12)
        swept = [state.copy().orthonormalize(EXACT, nodes=path),
                 state.copy().orthonormalize(EXACT)]
        for clone in swept:
            assert np.allclose(clone.to_statevector(), sv_simulate(c), atol=1e-12)
            assert clone.canonical_deviation() < 1e-10

    @pytest.mark.parametrize("spec", [perfect_tree(3, 2),
                                      TreeTopology([[0, 1, 2], [3, [4, 5]], 6])])
    def test_threading_alone_is_exact_on_every_ordered_leaf_pair(self, spec):
        # ties into a first, middle and last child, through pass-through
        # nodes, and both absorption orders at the turning node; a ring of
        # gates after the Hadamard layer gives every edge a dimension above 1,
        # so the threaded bond's place within each axis shows in the read-out
        n = spec.num_qubits
        rng = np.random.default_rng(53)
        prefix = Circuit(n, [gates.h(q) for q in range(n)])
        for q in range(n):
            prefix.append(Gate("u2", (q, (q + 1) % n), haar_unitary(4, rng)))
        start = run_circuit(prefix, spec)
        for qa in range(n):
            for qb in range(n):
                if qa == qb:
                    continue
                g = Gate("u2", (qa, qb), haar_unitary(4, rng))
                state = start.copy()
                state.thread_two_qubit(g)
                exact = sv_simulate(Circuit(n, prefix.gates + [g]))
                assert np.allclose(state.to_statevector(), exact, atol=1e-12, rtol=0)
                assert state.canonical_deviation() < 1e-10

    @pytest.mark.parametrize("kernel", ["qr_econ", "svd_econ", "svd_two_cols"])
    def test_factorization_failure_names_the_node(self, kernel, monkeypatch):
        def fail(m, *args, **kwargs):
            raise FactorizationError(f"{kernel} of a {m.shape} matrix did not converge")

        monkeypatch.setattr(ttn, kernel, fail)
        c = random_circuit(np.random.default_rng(59), 8, 10, p_single=0.0)
        with pytest.raises(FactorizationError, match=r"^node \d+: "):
            run_circuit(c, perfect_tree(2, 3))

    @pytest.mark.parametrize("qubits, into_leaf", [((0, 1), True), ((0, 3), False)])
    def test_reveal_failure_names_the_node_it_splits(self, qubits, into_leaf, monkeypatch):
        # the reveal's first split is of an edge below the turning node: a
        # leaf's edge (svd_two_cols) when the gate's leaves are its
        # children, else the edge a descent crosses (svd_econ); either
        # names the turning node
        def fail(m, *args, **kwargs):
            raise FactorizationError(f"SVD of a {m.shape} matrix did not converge")

        state = TtnState.basis_state(perfect_tree(2, 3), [0] * 8)
        up_a, lca, _ = state._tree.path_between(*qubits)
        assert state._tree.is_leaf(up_a[-1]) == into_leaf
        monkeypatch.setattr(ttn, "svd_two_cols" if into_leaf else "svd_econ", fail)
        g = Gate("u2", qubits, haar_unitary(4, np.random.default_rng(67)))
        with pytest.raises(FactorizationError, match=rf"^node {lca}: SVD of a"):
            state.apply(g)

    def test_gate_then_inverse_restores_dimensions(self):
        rng = np.random.default_rng(11)
        topo = perfect_tree(2, 3)
        c = random_circuit(rng, 8, 20, p_single=0.0)
        state = run_circuit(c, topo)
        dims_before = [state.edge_dim(n) for n in range(1, state.tree.num_nodes)]
        g = Gate("u2", (0, 5), haar_unitary(4, rng))
        ginv = Gate("u2inv", (0, 5), g.matrix.conj().T)
        state.apply(g)
        state.apply(ginv)
        state.orthonormalize(EXACT)
        dims_after = [state.edge_dim(n) for n in range(1, state.tree.num_nodes)]
        assert all(a <= b for a, b in zip(dims_after, dims_before))

    def test_memory_cap_triggers_loud_failure(self):
        state = TtnState.basis_state(perfect_tree(2, 3), [0] * 8, memory_cap=30)
        with pytest.raises(MemoryCapExceeded):
            state.apply(gates.fsim(0.4, 0.9, 0, 7))


class TestMixedCanonicalForm:
    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(sigma_rel=1e-2, d_max=2)])
    def test_gate_under_the_center_leaves_the_tree_above_alone(self, policy, monkeypatch):
        # a second gate with the same turning node neither splits nor gauges
        # any edge at or above it; each gate leaves the center at the parent
        # of the leaf it revealed last, the higher preorder id of its two
        rng = np.random.default_rng(31)
        state = run_circuit(random_circuit(rng, 8, 30, p_single=0.0), perfect_tree(2, 3))
        first = Gate("u2", (0, 3), haar_unitary(4, rng))
        second = Gate("u2", (1, 2), haar_unitary(4, rng))
        tree = state._tree
        lca = tree.path_between(0, 3)[1]
        assert tree.path_between(1, 2)[1] == lca
        state.apply(first, policy)
        assert state.center == tree.parent[tree.qubit_node[3]]
        above = set(tree.ancestors(lca))  # edges at or above, by child
        moves = record_moves(monkeypatch)
        state.apply(second, policy)
        assert moves and not [m for m in moves if m[2] in above]
        assert not [m for m in moves if m[:2] == ("gauge", "down")]
        assert state.center == tree.parent[tree.qubit_node[2]]
        assert state.canonical_deviation() < 1e-10

    @staticmethod
    def threaded_gates(shape, monkeypatch):
        """Thread each two-qubit gate of three random circuits on trees of
        `shape`, yielding the state, the path `thread_two_qubit` returned and
        the moves (`record_moves`) from the start of that gate on."""
        moves = record_moves(monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng([43, seed])
            if shape == "perfect":
                topo = perfect_tree(*[(2, 3), (3, 2), (2, 2)][seed])
                c = random_circuit(rng, topo.num_qubits, 40)
            else:
                c = random_circuit(rng, int(rng.integers(5, 11)), 40)
                topo = (comb_topology(rng.permutation(c.num_qubits).tolist()) if shape == "comb"
                        else find_tree_structure(c, int(rng.integers(1, c.num_qubits + 1))))
            state = TtnState.basis_state(topo, [0] * c.num_qubits)
            for g in c.gates:
                if g.num_qubits == 1:
                    state.apply(g)
                    continue
                moves.clear()
                yield state, state.thread_two_qubit(g), moves

    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(sigma_rel=1e-2, d_max=2)])
    @pytest.mark.parametrize("shape", ["perfect", "comb", "planner"])
    def test_sweep_splits_each_path_edge_once(self, shape, policy, monkeypatch):
        # the reveal walks the center to each touched leaf's parent and
        # splits the leaf's edge there: every edge on the gate's path is
        # split exactly once, and no other edge, also when the gate turns
        # at a root that a binary root was spliced into
        spliced = 0
        for state, path, moves in self.threaded_gates(shape, monkeypatch):
            spliced += state.center == 0 and state._tree is not state.tree
            state.orthonormalize(policy, nodes=path)
            split = sorted(edge for kind, _, edge in moves if kind == "split")
            assert split == sorted(path)
        assert spliced

    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(sigma_rel=1e-2, d_max=2)])
    @pytest.mark.parametrize("shape", ["perfect", "comb", "planner"])
    def test_whole_tree_sweep_splits_every_edge_once(self, shape, policy, monkeypatch):
        # the whole-tree sweep walks the center to the root by gauge moves,
        # then reveals every leaf from there: each edge is split exactly
        # once, and the center ends at the parent of the last leaf
        # revealed, the last node in preorder
        spliced = 0
        for state, _, moves in self.threaded_gates(shape, monkeypatch):
            tree = state._tree
            state.orthonormalize(policy)
            split = sorted(edge for kind, _, edge in moves if kind == "split")
            assert split == list(range(1, tree.num_nodes))
            assert state.center == tree.parent[tree.num_nodes - 1]
            spliced += tree is not state.tree
        assert spliced

    def test_grid_pass_svd_count(self, monkeypatch):
        # one criterion-8 grid pass: one split per path edge, 160 SVDs for
        # the edges a descent crosses and 480 two-column kernel calls for
        # the leaf edges (two per gate of 48, per policy); the binary root
        # is spliced into a child, so each of the 8 gates that cross it
        # splits its one edge once per policy
        calls = Counter()
        for name in ("svd_econ", "svd_two_cols"):
            def counted(*args, _f=getattr(ttn, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(ttn, name, counted)
        c = gen_lattice(4, 8, 100)
        topo = find_tree_structure(c, 2)
        for sigma_rel in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
            run_circuit(c, topo, TruncationPolicy(sigma_rel=sigma_rel))
        assert calls == {"svd_econ": 160, "svd_two_cols": 480}

    def test_grid_pass_qr_count(self, monkeypatch):
        # the same pass takes 207 QRs: the center walks towards a gate only
        # up to its path, and a reveal does not walk back (290 with both
        # walks going all the way to the turning node); a climb across the
        # spliced root is one move
        calls = []

        def counted(*args, _f=ttn.qr_econ, **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)

        monkeypatch.setattr(ttn, "qr_econ", counted)
        c = gen_lattice(4, 8, 100)
        topo = find_tree_structure(c, 2)
        for sigma_rel in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
            run_circuit(c, topo, TruncationPolicy(sigma_rel=sigma_rel))
        assert len(calls) == 207

    def test_oracle_pass_counts(self, monkeypatch):
        # one pass of the acceptance suite's 50 random circuits on the TTN
        # and the MPS, exact: 6275 SVDs, 6580 two-column kernel calls (one
        # per leaf edge split), 1783 QRs and 24654 contractions into a node;
        # a center crossing a spliced binary root makes one move, not one
        # per root edge
        calls = Counter()
        for name in ("svd_econ", "svd_two_cols", "qr_econ"):
            def counted(*args, _f=getattr(ttn, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(ttn, name, counted)

        def contract(self, *args, _f=TtnState._contract, **kwargs):
            calls["_contract"] += 1
            return _f(self, *args, **kwargs)

        monkeypatch.setattr(TtnState, "_contract", contract)
        for i, child in enumerate(np.random.SeedSequence(20260810).spawn(50)):
            rng = np.random.default_rng(child)
            n = 4 + i % 9
            c = random_circuit(rng, n, int(rng.integers(30, 61)))
            run_circuit(c, find_tree_structure(c, default_cluster_count(n)))
            mps_run_circuit(c)
        assert calls == {"svd_econ": 6275, "svd_two_cols": 6580, "qr_econ": 1783,
                         "_contract": 24654}

    @pytest.mark.parametrize("shape", ["perfect", "comb", "planner"])
    def test_gate_at_the_last_revealed_leaf_threads_without_a_walk(self, shape, monkeypatch):
        # a gate leaves the center at the parent of the leaf it revealed
        # last, so the next gate on that leaf's qubit, with the same partner
        # (in either order) or another, moves nothing before threading: its
        # only moves are threading's climbs, one gauge move up per path node,
        # children first, the left chain (lower ids) before the right; each
        # leaf goes into its parent with its gate factor folded in
        rng = np.random.default_rng(47)
        for state, path, moves in self.threaded_gates(shape, monkeypatch):
            state.orthonormalize(EXACT, nodes=path)
            tree = state._tree
            last, first = sorted((n for n in path if tree.is_leaf(n)), reverse=True)
            assert state.center == tree.parent[last]
            others = [q for q in range(tree.num_qubits) if tree.qubit_node[q] != last]
            for partner in (tree.leaf_qubit[first], others[int(rng.integers(len(others)))]):
                g = Gate("u2", (partner, tree.leaf_qubit[last]), haar_unitary(4, rng))
                moves.clear()
                again = state.thread_two_qubit(g)
                up_a, _, up_b = tree.path_between(*g.qubits)
                chains = sorted((up_a, up_b), key=lambda up: up[-1])
                assert moves == [("gauge", "up", nid) for up in chains for nid in up]
                state.orthonormalize(EXACT, nodes=again)

    def test_memory_cap_mid_circuit_leaves_state_canonical(self):
        rng = np.random.default_rng(37)
        c = random_circuit(rng, 8, 40, p_single=0.0)
        topo = perfect_tree(2, 3)
        state = TtnState.basis_state(topo, [0] * 8, memory_cap=1700)
        applied = Circuit(8)
        with pytest.raises(MemoryCapExceeded):
            for g in c.gates:
                center, before = state.center, state.to_statevector()
                state.apply(g)
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
        state.apply(gates.cnot(0, 7))
        tree = state.tree
        for nid in range(1, tree.num_nodes):
            leaves_below = 2 ** tree.node_height[nid] if not tree.is_leaf(nid) else 1
            assert state.edge_dim(nid) <= 2 ** max(leaves_below, 1)

    def test_threshold_below_schmidt_floor_is_noop(self):
        # Bell state Schmidt values are 1/sqrt(2) each; a tiny threshold
        # cannot touch them
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply(gates.h(0))
        state.apply(gates.cnot(0, 1))
        before = state.to_statevector()
        state.orthonormalize(TruncationPolicy(sigma_rel=1e-6))
        assert overlap_error(state.to_statevector(), before) <= 1e-10

    def test_cap_policy_records_events(self):
        state = TtnState.basis_state(two_leaf(), [0, 0])
        state.apply(gates.h(0))
        state.apply(gates.cnot(0, 1), TruncationPolicy(d_max=1))
        assert state.cap_events >= 1
        assert state.edge_dim(1) == 1

    def test_cut_in_a_descent_renormalizes(self):
        # no leaf edge exceeds 2, so under d_max = 2 every cut is made by
        # a descent of the reveal, not at a leaf, and it alone must bring
        # the norm back to 1
        rng = np.random.default_rng(71)
        state = run_circuit(random_circuit(rng, 8, 30, p_single=0.0), perfect_tree(2, 3))
        state.apply(Gate("u2", (0, 7), haar_unitary(4, rng)), TruncationPolicy(d_max=2))
        assert state.cap_events > 0
        assert abs(np.linalg.norm(state.tensors[state.center]) - 1.0) <= 1e-12

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
        state.apply(gates.swap(0, 1))
        assert [state.edge_dim(1), state.edge_dim(2)] == [1, 1]
        assert np.allclose(state.to_statevector(), [1, 0, 0, 0], atol=1e-12)

    def test_reveal_of_leaves_not_below_the_center(self):
        # after a gate the center rests at the parent of a leaf; a reveal
        # of leaves outside its subtree climbs gauge-only and splits on the
        # way down, across the spliced root too: the state and its edge
        # dims are unchanged, it is canonical, and the center ends at the
        # parent of the last leaf
        rng = np.random.default_rng(61)
        for topo in (perfect_tree(2, 3), comb_topology([3, 0, 5, 1, 4, 2])):
            state = run_circuit(random_circuit(rng, topo.num_qubits, 20, p_single=0.0), topo)
            tree = state._tree
            assert tree is not topo and not tree.is_leaf(state.center)
            below, other = [], []
            for nid in range(tree.num_nodes):
                if tree.is_leaf(nid):
                    (below if state.center in tree.ancestors(nid) else other).append(nid)
            dims = [state.edge_dim(e) for e in range(1, topo.num_nodes)]
            for nodes in ([other[0]], [below[0], other[-1]],
                          [other[-1], tree.parent[state.center]]):
                before = state.to_statevector()
                state.orthonormalize(EXACT, nodes=nodes)
                assert state.center == tree.parent[max(n for n in nodes if tree.is_leaf(n))]
                assert np.abs(state.to_statevector() - before).max() <= 1e-12
                assert state.canonical_deviation() <= 1e-10
                assert [state.edge_dim(e) for e in range(1, topo.num_nodes)] == dims

    def test_one_qubit_tree_has_nothing_to_reveal(self):
        state = TtnState.basis_state(TreeTopology(0), [0])
        state.apply(gates.h(0))
        before = state.to_statevector()
        for nodes in (None, [0]):
            state.orthonormalize(EXACT, nodes=nodes)
            assert state.center == 0
            assert np.allclose(state.to_statevector(), before, atol=1e-15)

    def test_deep_comb_without_recursion(self):
        # deeper than the interpreter's default recursion limit
        n = 1500
        state = TtnState.basis_state(comb_topology(range(n)), [0] * n)
        rng = np.random.default_rng(23)
        policy = TruncationPolicy(sigma_rel=1e-8)
        for qa, qb in ((0, n - 1), (1, n - 2), (0, n // 2)):
            state.apply(Gate("u2", (qa, qb), haar_unitary(4, rng)), policy)
        assert state.canonical_deviation() <= 1e-10
        assert abs(state.norm() - 1.0) < 1e-10
        state.orthonormalize(policy)  # the whole-tree sweep walks the comb too
        # the parent of the last leaf revealed
        assert state.center == state._tree.parent[state._tree.qubit_node[n - 1]]
        assert state.canonical_deviation() <= 1e-10
        assert abs(state.norm() - 1.0) < 1e-10


class TestLeafSplit:
    """A leaf's edge is split in place at its parent by `svd_two_cols`."""

    @staticmethod
    def xx_gate(theta):
        """exp(-i theta X X) on qubits 0 and 1: on |00> its Schmidt values
        are cos and sin theta."""
        xx = np.kron(gates.x(0).matrix, gates.x(0).matrix)
        return Gate("xx", (0, 1), np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * xx)

    def test_split_that_drops_nothing_writes_nothing(self):
        # both leaf edges at the turning node keep rank 2: the reveal would
        # only rotate the gauge of isometries already in place
        rng = np.random.default_rng(73)
        c = random_circuit(rng, 8, 20, p_single=0.0)
        state = run_circuit(c, perfect_tree(2, 3))
        g = Gate("u2", (0, 1), haar_unitary(4, rng))
        path = state.thread_two_qubit(g)
        before = list(state.tensors)
        state.orthonormalize(EXACT, nodes=path)
        assert all(a is b for a, b in zip(state.tensors, before))
        exact = sv_simulate(Circuit(8, c.gates + [g]))
        assert np.allclose(state.to_statevector(), exact, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("policy, theta", [
        (TruncationPolicy(d_max=1), 0.4), (TruncationPolicy(sigma_rel=1e-2), 1e-3),
    ], ids=["d_max", "sigma_rel"])
    def test_cut_writes_a_one_wide_leaf_edge(self, policy, theta):
        # the kept value's vector goes to the parent and the leaf, the
        # state renormalized: |00> is all that is left of cos|00> - i sin|11>
        for topo in (two_leaf(), perfect_tree(2, 2)):
            state = TtnState.basis_state(topo, [0] * topo.num_qubits)
            state.apply(self.xx_gate(theta), policy)
            assert state.cap_events == (policy.d_max is not None)
            assert state.edge_dim(topo.qubit_node[0]) == state.edge_dim(topo.qubit_node[1]) == 1
            assert abs(state.norm() - 1.0) <= 1e-12
            assert state.canonical_deviation() <= 1e-10
            assert abs(state.to_statevector()[0]) == pytest.approx(1.0, abs=1e-12)

    def test_reveal_at_the_grid_root_allocates_little(self):
        # the criterion-8 grid's spliced root, (64, 2, 2, 256, 1), holds two
        # leaves: revealing them takes the root's matricized copy and one
        # vector of half its size, 1.5 root sizes (4.25 with an SVD that
        # wrote u s into a new root)
        c = gen_lattice(4, 8, 100)
        state = run_circuit(c, find_tree_structure(c, 2))
        tree = state._tree
        leaves = [tree.leaf_qubit[n] for n in tree.children[0] if tree.is_leaf(n)]
        g = Gate("u2", tuple(leaves), haar_unitary(4, np.random.default_rng(79)))
        path = state.thread_two_qubit(g)
        root = state.tensors[0]
        assert root.shape == (64, 2, 2, 256, 1)
        tracemalloc.start()
        try:
            state.orthonormalize(EXACT, nodes=path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * root.nbytes


def tied_reference(t, axis, remainder, tied, k):
    """The tied contraction by einsum: the remainder's old edge (k, d) is
    contracted over d with `axis`, and k becomes the major part of `tied`."""
    letters = "ABCDE"[:t.ndim]
    out = letters.replace(letters[axis], "n")
    out = out[:tied] + "k" + out[tied:]
    merged = np.einsum(f"nkd,{letters.replace(letters[axis], 'd')}->{out}",
                       remainder.reshape(remainder.shape[0], k, t.shape[axis]), t)
    shape = list(t.shape)
    shape[axis] = remainder.shape[0]
    shape[tied] *= k
    return merged.reshape(shape)


class TestContract:
    @pytest.mark.parametrize("ndim", [2, 3, 4, 5])
    def test_tie_matches_einsum_for_every_axis_pair(self, ndim):
        # ties into the parent axis or another child's, after the contracted
        # axis, with dimension-1 axes and k = 1 among the draws
        rng = np.random.default_rng([67, ndim])
        for axis, tied in itertools.combinations(range(ndim), 2):
            for _ in range(4):
                shape = tuple(int(x) for x in rng.integers(1, 5, ndim))
                k, new = int(rng.integers(1, 5)), int(rng.integers(1, 6))
                t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                remainder = (rng.normal(size=(new, k * shape[axis]))
                             + 1j * rng.normal(size=(new, k * shape[axis])))
                state = TtnState(two_leaf(), [t])
                state._contract(0, axis, remainder, (tied, k))
                got, want = state.tensors[0], tied_reference(t, axis, remainder, tied, k)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("shape, axis, tied, new", [
        ((256, 256, 1), 0, 1, 256),   # the criterion-8 grid's root, tied to the other child
        ((64, 2, 2, 256), 0, 3, 64),  # a pass-through node, tied to its parent axis
        ((32, 64, 16), 0, 1, 16),     # tied to the other child, a parent axis after it
    ])
    def test_tie_allocates_only_the_output(self, shape, axis, tied, new):
        # no transient beyond the output: no operand is copied
        k = 4
        rng = np.random.default_rng(71)
        t = rng.normal(size=shape) + 0j
        remainder = rng.normal(size=(new, k * shape[axis])) + 0j
        state = TtnState(two_leaf(), [t])
        tracemalloc.start()
        try:
            state._contract(0, axis, remainder, (tied, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.tensors[0].nbytes + 64 * 1024
        assert np.allclose(state.tensors[0], tied_reference(t, axis, remainder, tied, k))


class TestMetrics:
    def test_fresh_balanced_binary_counts(self):
        state = TtnState.basis_state(perfect_tree(2, 2), [0] * 4)
        m = state.metrics()
        assert m.d_max_observed == 2
        # four 2x1 leaves, the 1x1x1x1 root that the binary root's first
        # child was spliced into, and its 1x1x1 second child
        assert m.m_entries == 4 * 2 + 2 * 1

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
        state.apply(gates.x(0))
        assert np.allclose(clone.to_statevector(), [1, 0, 0, 0])

    def test_readout_leaves_no_reference_cycle(self):
        # with the collector off, only reference counting can free the state
        state = TtnState.basis_state(perfect_tree(2, 2), [0, 1, 1, 0])
        state.apply(gates.cnot(0, 3))
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
