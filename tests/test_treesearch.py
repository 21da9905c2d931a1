from fractions import Fraction

import numpy as np
import pytest

from ttnsim import gates
from ttnsim.circuits import Circuit, gen_treelike
from ttnsim.dryrun import gen_triangle_pattern
from ttnsim.gates import Gate, haar_unitary
from ttnsim.topology import (TreeTopology, comb_topology, dumps_topology, load_topology,
                             loads_topology, perfect_tree, save_topology)
from ttnsim.treesearch import (SimilarityMatrix, cluster, create_subtree, default_cluster_count,
                               find_tree_structure, l_cluster, similarity_matrix)


def qubits_below(topo, nid):
    return frozenset(topo.leaf_qubit[n] for n in range(topo.num_nodes)
                     if topo.is_leaf(n) and nid in topo.ancestors(n))


def exact_matrix(s):
    return [[s.exact(i, j) for j in range(s.n)] for i in range(s.n)]


def score(s, i, j):
    return Fraction(s.exact(i, j), s.scale)


class TestSimilarityMatrix:
    def test_direct_evaluation(self):
        c = Circuit(3, [gates.cnot(0, 1), gates.cnot(1, 2), gates.cnot(0, 1)])
        s = similarity_matrix(c)
        assert score(s, 0, 1) == Fraction(2) + Fraction(1, 5)   # 2.2
        assert score(s, 1, 2) == Fraction(1) + Fraction(1, 4)   # 1.25
        assert score(s, 0, 2) == Fraction(1, 3)  # no shared gate, degrees 2 + 1
        assert score(s, 1, 0) == Fraction(11, 5)

    def test_single_gate(self):
        s = similarity_matrix(Circuit(2, [gates.cnot(0, 1)]))
        assert score(s, 0, 1) == Fraction(3, 2)

    def test_gate_free_circuit_is_all_zero(self):
        s = similarity_matrix(Circuit(4))
        assert exact_matrix(s) == [[0] * 4] * 4

    def test_diagonal_zero_and_symmetry(self):
        c = Circuit(3, [gates.cz(0, 2), gates.cnot(1, 0)])
        vals = exact_matrix(similarity_matrix(c))
        assert vals == [list(col) for col in zip(*vals)]
        assert all(vals[i][i] == 0 for i in range(3))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        c = Circuit(5)
        for _ in range(12):
            qa, qb = rng.choice(5, size=2, replace=False)
            c.append(Gate("u", (int(qa), int(qb)), haar_unitary(4, rng)))
        perm = list(rng.permutation(5))
        relabeled = Circuit(5, [Gate(g.label, tuple(perm[q] for q in g.qubits), g.matrix)
                                for g in c.gates])
        base = similarity_matrix(c)
        moved = similarity_matrix(relabeled)
        assert [[moved.exact(perm[i], perm[j]) for j in range(5)] for i in range(5)] \
            == exact_matrix(base)

    def test_adding_a_gate_never_lowers_integer_part(self):
        rng = np.random.default_rng(12)
        c = Circuit(4)
        prev = 0
        for _ in range(10):
            qa, qb = rng.choice(4, size=2, replace=False)
            c.append(Gate("u", (int(qa), int(qb)), haar_unitary(4, rng)))
            s = similarity_matrix(c)
            cur = s.exact(0, 1) // s.scale
            assert cur >= prev or {0, 1} != set(c.gates[-1].qubits)
            if {0, 1} == set(c.gates[-1].qubits):
                prev = cur


class TestCluster:
    def test_singletons_and_single_cluster(self):
        s = similarity_matrix(Circuit(4, [gates.cz(0, 1)]))
        assert cluster(s, 4) == [[0], [1], [2], [3]]
        assert cluster(s, 1) == [[0, 1, 2, 3]]

    def test_out_of_range(self):
        s = similarity_matrix(Circuit(3))
        with pytest.raises(ValueError):
            cluster(s, 0)
        with pytest.raises(ValueError):
            cluster(s, 4)

    def test_treelike_blocks_recovered(self):
        # frozen via the hand-derived merge trace on Eq-style exact scores:
        # chain pairs coalesce first, the central qubit joins the first
        # cluster through its strongest link (3, 16)
        c = gen_treelike(4, reps=1)
        groups = cluster(similarity_matrix(c), 4)
        assert groups == [[0, 1, 2, 3, 16], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]

    def test_balance_cap_respected(self):
        rng = np.random.default_rng(5)
        c = Circuit(9)
        for _ in range(25):
            qa, qb = rng.choice(9, size=2, replace=False)
            c.append(Gate("u", (int(qa), int(qb)), haar_unitary(4, rng)))
        groups = cluster(similarity_matrix(c), 3)
        assert sorted(q for g in groups for q in g) == list(range(9))
        assert max(len(g) for g in groups) <= int(np.ceil(1.5 * 9 / 3))

    def test_deterministic(self):
        c = gen_treelike(3, reps=2)
        s = similarity_matrix(c)
        assert cluster(s, 3) == cluster(s, 3)


class TestCreateSubtree:
    def test_single_qubit_is_leaf(self):
        s = similarity_matrix(Circuit(2))
        assert create_subtree([1], s) == 1

    def test_two_qubits(self):
        s = similarity_matrix(Circuit(2, [gates.cz(0, 1)]))
        assert create_subtree([0, 1], s) == [0, 1]

    def test_strict_drop_wraps_earlier_batch(self):
        # s(0,1)=2.2 > s(1,2)=1.25: the {0,1} pair closes into its own node
        # before qubit 2 joins
        c = Circuit(3, [gates.cnot(0, 1), gates.cnot(0, 1), gates.cnot(1, 2)])
        node = create_subtree([0, 1, 2], similarity_matrix(c))
        assert node == [[0, 1], 2]

    def test_equal_similarities_share_one_node(self):
        s = similarity_matrix(Circuit(3))  # all pairs score 0
        node = create_subtree([0, 1, 2], s)
        assert node == [0, 1, 2]


class TestFindTreeStructure:
    def test_two_qubits_single_cluster(self):
        topo = find_tree_structure(Circuit(2, [gates.cz(0, 1)]), 1)
        assert topo == TreeTopology([0, 1])

    def test_single_qubit_root_is_leaf(self):
        topo = find_tree_structure(Circuit(1), 1)
        assert topo == TreeTopology(0) and topo.is_leaf(0)

    def test_treelike_shape(self):
        c = gen_treelike(4, reps=1)
        topo = find_tree_structure(c, 4)
        assert len(topo.children[0]) == 4
        sets = {qubits_below(topo, ch) for ch in topo.children[0]}
        assert frozenset({0, 1, 2, 3, 16}) in sets
        assert frozenset({4, 5, 6, 7}) in sets

    def test_deterministic(self):
        c = gen_treelike(3, reps=2)
        assert find_tree_structure(c, 3) == find_tree_structure(c, 3)

    def test_scores_each_pair_about_once(self, monkeypatch):
        # re-summing every linkage from single pair scores at each merge
        # takes 190 209 scores here; scoring each pair once per phase takes
        # N(N-1)/2 = 3240 for clustering plus the subtrees' pairs
        circuit, _ = gen_triangle_pattern(3, 64)
        n = circuit.num_qubits
        calls = 0
        exact = SimilarityMatrix.exact

        def counted(sim, i, j):
            nonlocal calls
            calls += 1
            return exact(sim, i, j)

        monkeypatch.setattr(SimilarityMatrix, "exact", counted)
        find_tree_structure(circuit, default_cluster_count(n))
        assert n == 81 and calls <= 2 * n * n

    def test_invariants_on_random_circuits(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            n = int(rng.integers(2, 10))
            c = Circuit(n)
            for _ in range(int(rng.integers(0, 20))):
                qa, qb = rng.choice(n, size=2, replace=False)
                c.append(Gate("u", (int(qa), int(qb)), haar_unitary(4, rng)))
            clusters = int(rng.integers(1, n + 1))
            topo = find_tree_structure(c, clusters)
            assert topo.num_qubits == n  # leaf bijection checked by the ctor
            for nid in range(topo.num_nodes):
                if not topo.is_leaf(nid):
                    assert len(topo.children[nid]) >= 2


class TestLCluster:
    def test_paper_values(self):
        assert l_cluster(3, 16) == 2
        assert l_cluster(3, 64) == 2

    def test_binary_16(self):
        assert l_cluster(2, 16) == 3

    def test_monotonic_in_dmax(self):
        for m in (2, 3, 4):
            prev = 0
            for d in (2, 4, 8, 16, 64, 256, 1024):
                cur = l_cluster(m, d)
                assert cur >= prev
                prev = cur

    def test_nonincreasing_in_arity(self):
        for d in (4, 16, 256):
            prev = None
            for m in (2, 3, 4, 5):
                cur = l_cluster(m, d)
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_validation(self):
        with pytest.raises(ValueError):
            l_cluster(1, 16)
        with pytest.raises(ValueError):
            l_cluster(2, 1)


def comb_document(levels):
    """A comb file of `levels` internal nodes, written by hand: two JSON
    containers per level."""
    return ("".join(f'{{"children":[{{"leaf":{q}}},' for q in range(levels))
            + f'{{"leaf":{levels}}}' + "]}" * levels)


class TestTreeSpec:
    def test_nested_lists_are_indexed_in_preorder(self):
        topo = TreeTopology([[0, 1], 2])
        assert topo.parent == [None, 0, 1, 1, 0]
        assert topo.leaf_qubit == [None, None, 0, 1, 2]
        assert topo.children == [[1, 4], [2, 3], [], [], []]

    def test_builders_match_their_specs(self):
        assert perfect_tree(2, 2) == TreeTopology([[0, 1], [2, 3]])
        assert perfect_tree(3, 1) == TreeTopology([0, 1, 2])
        assert comb_topology([0, 1, 2]) == TreeTopology([0, [1, 2]])

    @pytest.mark.parametrize("spec", ["x", None, [0], [0, "junk", 1], [], (0, 1), 1.0, True],
                             ids=repr)
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ValueError):
            TreeTopology(spec)

    def test_cyclic_spec_rejected(self):
        spec = [0, 1]
        spec.append(spec)
        with pytest.raises(ValueError, match="twice"):
            TreeTopology(spec)


class TestTopologyFile:
    def test_round_trip(self, tmp_path):
        topo = find_tree_structure(gen_treelike(3, reps=2), 3)
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        assert load_topology(path) == topo

    def test_document_shape(self):
        topo = TreeTopology([0, 1])
        assert dumps_topology(topo) == '{"children":[{"leaf":0},{"leaf":1}]}\n'
        assert loads_topology('{"children":[{"leaf":0},{"leaf":1}]}') == topo

    def test_deep_comb_loads_below_the_nesting_limit(self):
        topo = loads_topology(comb_document(400))
        assert topo == comb_topology(range(401))
        assert dumps_topology(topo) == comb_document(400) + "\n"

    def test_too_deep_tree_is_not_written(self, tmp_path):
        topo = comb_topology(range(600))
        with pytest.raises(ValueError, match="nested too deeply to write"):
            dumps_topology(topo)
        path = tmp_path / "deep.json"
        with pytest.raises(ValueError, match="nested too deeply to write"):
            save_topology(topo, path)
        assert not path.exists()

    def test_too_deep_document_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            loads_topology(comb_document(1500))

    def test_bad_leaf_set_rejected(self):
        with pytest.raises(ValueError):
            loads_topology('{"children":[{"leaf":0},{"leaf":2}]}')


def test_perfect_tree_shapes():
    topo = perfect_tree(2, 3)
    assert topo.num_qubits == 8
    assert topo.height == 3
    assert topo.max_arity == 2
    topo3 = perfect_tree(3, 2)
    assert topo3.num_qubits == 9
