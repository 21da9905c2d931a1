"""Property suite for the dry-run: generated trees x generated two-qubit
circuits, checked against test-local reference walkers and the engines."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttnsim import gates
from ttnsim.circuits import Circuit
from ttnsim.dryrun import dryrun
from ttnsim.gates import Gate, gate_rank, haar_unitary
from ttnsim.mps import run_circuit as mps_run_circuit
from ttnsim.topology import TreeTopology, comb_topology, perfect_tree
from ttnsim.treesearch import find_tree_structure
from ttnsim.ttn import run_circuit as ttn_run_circuit



def reference_tree_dims(circuit, tree, cap=None):
    """The whole-tree fixpoint, every edge re-checked until none shrinks;
    returns the dims and the number of clamps."""

    def bound(dims, nid):
        below = 2 if tree.is_leaf(nid) else math.prod(dims[c] for c in tree.children[nid])
        parent = tree.parent[nid]
        above = 1 if tree.parent[parent] is None else dims[parent]
        above *= math.prod(dims[s] for s in tree.children[parent] if s != nid)
        return min(dims[nid], below, above)

    dims = {nid: 1 for nid in range(1, tree.num_nodes)}
    clamps = 0
    for g in circuit.gates:
        edges = tree.path_edges(*g.qubits)
        for e in edges:
            dims[e] *= gate_rank(g)
        changed = True
        while changed:
            changed = False
            for nid in dims:
                new = bound(dims, nid)
                changed |= new < dims[nid]
                dims[nid] = new
        if cap is not None:
            for e in edges:
                clamps += dims[e] > cap
                dims[e] = min(dims[e], cap)
    return dims, clamps


def reference_chain_bonds(circuit, order):
    """The chain rule that counts every site as physical dimension 2."""
    n = circuit.num_qubits
    bonds = [1] * (n - 1)
    for g in circuit.gates:
        sa, sb = sorted(order[q] for q in g.qubits)
        for j in range(sa, sb):
            bonds[j] *= gate_rank(g)
        changed = True
        while changed:
            changed = False
            for j in range(n - 1):
                left = bonds[j - 1] if j > 0 else 1
                right = bonds[j + 1] if j < n - 2 else 1
                new = min(bonds[j], 2 * left, 2 * right)
                changed |= new < bonds[j]
                bonds[j] = new
    return bonds


def _two_qubit_gate(kind, qa, qb, rng):
    if kind == "haar":
        return Gate("u2", (qa, qb), haar_unitary(4, rng))
    if kind == "product":  # Schmidt rank 1
        return Gate("u1u1", (qa, qb), np.kron(haar_unitary(2, rng), haar_unitary(2, rng)))
    return getattr(gates, kind)(qa, qb)


def _random_binary(qubits, rng):
    if len(qubits) == 1:
        return qubits[0]
    cut = int(rng.integers(1, len(qubits)))
    return [_random_binary(qubits[:cut], rng), _random_binary(qubits[cut:], rng)]


@st.composite
def circuits(draw, num_qubits=None):
    n = draw(st.integers(2, 10)) if num_qubits is None else num_qubits
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    kinds = st.sampled_from(["haar", "cnot", "cz", "swap", "product"])
    spec = draw(st.lists(st.tuples(pairs, kinds), min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Circuit(n, [_two_qubit_gate(kind, qa, qb, rng) for (qa, qb), kind in spec])


@st.composite
def trees_and_circuits(draw):
    shape = draw(st.sampled_from(["perfect", "comb", "planner", "binary"]))
    if shape == "perfect":
        arity, height = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]))
        circuit = draw(circuits(arity**height))
        return circuit, perfect_tree(arity, height)
    circuit = draw(circuits())
    n = circuit.num_qubits
    if shape == "planner":
        return circuit, find_tree_structure(circuit, draw(st.integers(1, n)))
    qubits = draw(st.permutations(range(n)))
    if shape == "comb":
        return circuit, comb_topology(qubits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return circuit, TreeTopology(_random_binary(qubits, rng))


PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestDryRunProperties:
    @settings(PROPERTY, max_examples=200)
    @given(trees_and_circuits(), st.sampled_from([None, 1, 2, 3, 4, 8, 16]))
    def test_worklist_matches_whole_tree_fixpoint(self, case, cap):
        circuit, topo = case
        rep = dryrun(circuit, topo, cap=cap)
        dims, clamps = reference_tree_dims(circuit, topo, cap)
        assert (rep.edge_dims, rep.cap_events) == (dims, clamps)

    @settings(PROPERTY, max_examples=80)
    @given(trees_and_circuits())
    def test_tree_dims_bound_engine(self, case):
        circuit, topo = case
        rep = dryrun(circuit, topo)
        state = ttn_run_circuit(circuit, topo)
        assert all(rep.edge_dims[e] >= state.edge_dim(e) for e in rep.edge_dims)

    @settings(PROPERTY, max_examples=80)
    @given(circuits(), st.data())
    def test_mps_dims_between_engine_and_chain_rule(self, circuit, data):
        order = data.draw(st.permutations(range(circuit.num_qubits)))
        bonds = [dim for _, dim in sorted(dryrun(circuit, order).edge_dims.items())]
        engine = mps_run_circuit(circuit, order=order).bond_dims()
        chain = reference_chain_bonds(circuit, order)
        assert all(e <= b <= c for e, b, c in zip(engine, bonds, chain))
