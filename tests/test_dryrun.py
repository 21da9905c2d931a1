import sys
from collections import Counter

import numpy as np
import pytest

from ttnsim import gates
from ttnsim.circuits import Circuit, gen_treelike
from ttnsim.dryrun import (admissible, dryrun, edge_crossing_limit, gen_triangle_pattern,
                           node_crossing_limit, random_qubit_orders)
from ttnsim.gates import Gate, gate_rank, haar_unitary
from ttnsim.mps import run_circuit as mps_run_circuit
from ttnsim.topology import TreeTopology, comb_bond_edges, comb_topology, perfect_tree
from ttnsim.treesearch import find_tree_structure
from ttnsim.ttn import run_circuit as ttn_run_circuit


def random_circuit(rng, n, n_gates):
    c = Circuit(n)
    for _ in range(n_gates):
        qa, qb = rng.choice(n, size=2, replace=False)
        c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
    return c


class TestDryRunTree:
    def test_bell_pair_dims(self):
        topo = TreeTopology([0, 1])
        c = Circuit(2, [gates.h(0), gates.cnot(0, 1)])
        rep = dryrun(c, topo)
        assert rep.edge_dims == {1: 2, 2: 2}
        assert rep.d_max_observed == 2

    def test_treelike_natural_topology_fits_16(self):
        c = gen_treelike(4, reps=3)
        topo = find_tree_structure(c, 4)
        rep = dryrun(c, topo, cap=16)
        assert max(rep.edge_dims.values()) <= 16
        assert rep.cap_events == 0

    def test_upper_bounds_engine_dims(self):
        rng = np.random.default_rng(41)
        for trial in range(6):
            n = int(rng.integers(4, 11))
            c = random_circuit(rng, n, 25)
            topo = find_tree_structure(c, max(1, n // 3))
            rep = dryrun(c, topo)
            state = ttn_run_circuit(c, topo)
            for child_id, dim in rep.edge_dims.items():
                assert dim >= state.edge_dim(child_id)

    def test_monotone_under_added_gates(self):
        rng = np.random.default_rng(43)
        topo = perfect_tree(2, 3)
        c = Circuit(8)
        prev = None
        for _ in range(12):
            qa, qb = rng.choice(8, size=2, replace=False)
            c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
            rep = dryrun(c, topo)
            if prev is not None:
                assert all(rep.edge_dims[e] >= prev[e] for e in prev)
            prev = rep.edge_dims

    def test_eq2_levels_never_exceeded(self):
        rng = np.random.default_rng(47)
        topo = perfect_tree(3, 2)
        c = random_circuit(rng, 9, 60)
        rep = dryrun(c, topo)
        for edge, dim in rep.edge_dims.items():
            level = rep.edge_levels[edge]
            assert dim <= 2 ** (3 ** (level - 1))

    def test_cap_clamps_and_counts(self):
        topo = perfect_tree(2, 2)
        rng = np.random.default_rng(53)
        c = random_circuit(rng, 4, 10)
        rep = dryrun(c, topo, cap=2)
        assert max(rep.edge_dims.values()) <= 2
        assert rep.cap_events > 0

    def test_event_log(self):
        topo = perfect_tree(2, 2)
        c = Circuit(4, [gates.h(0), gates.cnot(0, 3)])
        rep = dryrun(c, topo)
        assert len(rep.events) == 1  # one-qubit gates are free
        ev = rep.events[0]
        assert ev.k == 2
        assert ev.path_length == 4  # two leaf edges plus two internal edges


class TestDryRunMps:
    def test_natural_order_threading(self):
        c = Circuit(3, [gates.h(0), gates.cnot(0, 2)])
        rep = dryrun(c, list(range(3)))
        assert rep.kind == "mps"
        assert rep.edge_dims == {0: 2, 1: 2}

    def test_entry_count_fresh(self):
        rep = dryrun(Circuit(4), list(range(4)))
        assert rep.m_entries == 8

    def test_matches_engine_upper_bound(self):
        rng = np.random.default_rng(59)
        c = random_circuit(rng, 8, 20)
        rep = dryrun(c, list(range(8)))
        state = mps_run_circuit(c)
        for j, dim in rep.edge_dims.items():
            assert dim >= state.bond_dims()[j]

    def test_idle_qubit_counts_as_one(self):
        # qubit 1 is never touched, so its leaf edge stays 1 and bounds bond 1
        # by bond 0 (a rule counting every site as 2 would allow bond 1 = 4)
        c = Circuit(4, [gates.fsim(.7, .3, 0, 2), gates.fsim(.7, .3, 0, 3),
                        gates.fsim(.7, .3, 2, 3)])
        rep = dryrun(c, list(range(4)))
        assert rep.edge_dims == {0: 2, 1: 2, 2: 2}
        assert rep.m_entries == 24
        assert dryrun(c, list(range(4)), cap=2).cap_events == 0

    def test_events_list_bonds_crossed(self):
        c = Circuit(5, [gates.cnot(3, 1)])
        rep = dryrun(c, [4, 0, 1, 2, 3])  # qubit 3 at site 2, qubit 1 at site 0
        (ev,) = rep.events
        assert (ev.path_length, ev.edges) == (2, [0, 1])
        assert rep.edge_levels == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_triangle_level_six_identity_order(self):
        # 2187 qubits: a comb deeper than the default recursion limit; the
        # bond histogram and entry count are those of the chain walker the
        # comb walk replaced (the triangle circuits leave no qubit idle)
        c, _ = gen_triangle_pattern(6, 64)
        rep = dryrun(c, list(range(c.num_qubits)))
        assert len(rep.edge_dims) == 2186
        assert Counter(rep.edge_dims.values()) == {
            2: 2, 4: 3, 8: 4, 16: 9, 32: 16, 64: 30, 128: 47, 256: 66, 512: 94,
            1024: 133, 2048: 188, 4096: 224, 8192: 263, 16384: 280, 32768: 257,
            65536: 234, 131072: 148, 262144: 108, 524288: 42, 1048576: 30,
            2097152: 4, 4194304: 4}
        assert (rep.m_entries, rep.d_max_observed) == (251681499150120, 4194304)
        assert sum(ev.path_length for ev in rep.events) == 42687

    def test_single_site(self):
        rep = dryrun(Circuit(1, [gates.h(0)]), [0])
        assert (rep.edge_dims, rep.m_entries, rep.d_max_observed) == ({}, 2, 2)


class TestCombTopology:
    def test_shape_and_bond_ids(self):
        order = [2, 0, 3, 1]  # qubit -> site
        topo = comb_topology(order)
        assert topo == TreeTopology([1, [3, [0, 2]]])
        bond_edges = comb_bond_edges(topo)
        assert bond_edges == [2, 4, 6]
        for j, e in enumerate(bond_edges):  # bond j: sites 0..j above the edge, j+1..3 below
            below = {topo.leaf_qubit[n] for n in range(topo.num_nodes)
                     if e in topo.ancestors(n) and topo.is_leaf(n)}
            assert sorted(order[q] for q in below) == list(range(j + 1, 4))

    def test_deep_comb_builds_without_recursion(self):
        n = 3000  # deeper than the interpreter's default recursion limit
        topo = comb_topology(range(n))
        assert (topo.height, topo.max_arity) == (n - 1, 2)
        assert topo.postorder[-1] == 0 and topo.node_height[0] == n - 1
        assert len(comb_bond_edges(topo)) == n - 1

    def test_deep_combs_compare_without_recursion(self):
        n = 3000
        assert comb_topology(range(n)) == comb_topology(range(n))
        swapped = list(range(n))
        swapped[0], swapped[n - 1] = swapped[n - 1], swapped[0]
        assert comb_topology(range(n)) != comb_topology(swapped)
        assert comb_topology(range(n)) != comb_topology(range(n - 1))

    def test_equality_is_by_shape_and_labels(self):
        pair = TreeTopology([0, 1])
        assert pair == TreeTopology([0, 1])
        assert pair != TreeTopology([1, 0])
        assert TreeTopology([0, 1, 2]) != TreeTopology([[0, 1], 2])

    def test_rejects_non_permutation(self):
        for bad in ([0, 0, 1], [1, 2, 3], []):
            with pytest.raises(ValueError):
                comb_topology(bad)
        with pytest.raises(ValueError):
            dryrun(Circuit(3), [0, 2, 2])


class TestCap:
    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        c = Circuit(4, [gates.cnot(0, 3)])
        with pytest.raises(ValueError):
            dryrun(c, perfect_tree(2, 2), cap=cap)
        with pytest.raises(ValueError):
            dryrun(c, list(range(4)), cap=cap)

    def test_cap_one_clamps_leaf_edges_too(self):
        rep = dryrun(Circuit(2, [gates.cnot(0, 1)]), [0, 1], cap=1)
        assert rep.edge_dims == {0: 1}
        assert rep.cap_events == 2  # the comb's two leaf edges; the lone bond is one of them


class TestAdmissible:
    def test_edge_and_node_limits(self):
        assert edge_crossing_limit(16) == 2.0
        assert node_crossing_limit(3, 16) == 4.0

    def test_treelike_is_admissible_at_16(self):
        c = gen_treelike(4, reps=3)
        topo = find_tree_structure(c, 4)
        rep = admissible(c, topo, 16)
        assert rep.admissible
        assert rep.violations == []

    def test_dense_circuit_violates_small_budget(self):
        rng = np.random.default_rng(61)
        topo = perfect_tree(2, 3)
        c = random_circuit(rng, 8, 60)
        rep = admissible(c, topo, 4)
        assert not rep.admissible
        assert rep.violations


class TestTrianglePattern:
    def test_level_one_is_nine_qubits(self):
        c, topo = gen_triangle_pattern(1, 16)
        assert c.num_qubits == 9
        assert topo == perfect_tree(3, 2)
        assert len(c.gates) == 36  # all pairs within the cluster

    def test_level_two_counts(self):
        c16, _ = gen_triangle_pattern(2, 16)
        c64, topo = gen_triangle_pattern(2, 64)
        assert c16.num_qubits == 27 and c64.num_qubits == 27
        assert topo == perfect_tree(3, 3)
        assert len(c16.gates) == 3 * 36 + 2  # linear inter-cluster path
        assert len(c64.gates) == 3 * 36 + 3  # full triangle

    def test_all_gates_rank_four(self):
        c, _ = gen_triangle_pattern(2, 64)
        assert all(gate_rank(g) == 4 for g in c.gates)

    def test_admissible_by_construction(self):
        for d_max in (16, 64):
            for levels in (1, 2, 3):
                c, topo = gen_triangle_pattern(levels, d_max)
                assert admissible(c, topo, d_max).admissible

    def test_ttn_dry_run_bounded_mps_not(self):
        c, topo = gen_triangle_pattern(2, 64)
        rep_ttn = dryrun(c, topo)
        assert max(rep_ttn.edge_dims.values()) <= 64
        for order in [list(range(27))] + random_qubit_orders(27, 5, seed=3):
            rep_mps = dryrun(c, order)
            assert max(rep_mps.edge_dims.values()) > 64

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_triangle_pattern(0, 16)
        with pytest.raises(ValueError):
            gen_triangle_pattern(2, 32)


def test_random_orders_deterministic():
    assert random_qubit_orders(10, 3, seed=7) == random_qubit_orders(10, 3, seed=7)


def test_import_as_binds_the_module():
    # the package exports no function named like a submodule, so the
    # submodule attribute is never shadowed
    import ttnsim
    import ttnsim.dryrun as d
    assert d is sys.modules["ttnsim.dryrun"]
    assert d.dryrun is dryrun and ttnsim.dryrun is d
