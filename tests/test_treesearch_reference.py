"""The planner against a reference copy of the earlier one, which re-summed
every average linkage from single pair scores at each merge and scored each
pair twice in `create_subtree`. Both must give the same groups and the same
plan file, byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnsim import gates
from ttnsim.circuits import Circuit, gen_lattice
from ttnsim.dryrun import gen_triangle_pattern
from ttnsim.gates import Gate, haar_unitary
from ttnsim.topology import TreeTopology, dumps_topology, node
from ttnsim.treesearch import cluster, find_tree_structure, similarity_matrix


def reference_cluster(sim, num_clusters):
    n = sim.n
    cap = math.ceil(1.5 * n / num_clusters)
    groups = [[q] for q in range(n)]

    def linkage(a, b):
        total = Fraction(0)
        for qi in a:
            for qj in b:
                total += sim.exact(qi, qj)
        return total / (len(a) * len(b))

    while len(groups) > num_clusters:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if len(groups[i]) + len(groups[j]) > cap:
                    continue
                key = (linkage(groups[i], groups[j]), -groups[i][0], -groups[j][0])
                if best is None or key > best[0]:
                    best = (key, i, j)
        if best is None:
            order = sorted(range(len(groups)), key=lambda i: (len(groups[i]), groups[i][0]))
            best = (None, min(order[:2]), max(order[:2]))
        _, i, j = best
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
    return sorted(groups, key=lambda g: g[0])


def reference_subtree(qubits, sim):
    qubits = list(qubits)
    if len(qubits) == 1:
        return qubits[0]
    pairs = [(min(a, b), max(a, b)) for idx, a in enumerate(qubits) for b in qubits[idx + 1:]]
    pairs.sort(key=lambda p: (-sim.exact(*p), p[0], p[1]))
    running = sim.exact(*pairs[0])
    seen = set()
    children = []
    for qa, qb in pairs:
        value = sim.exact(qa, qb)
        if running > value:
            children = [node(children)]
            running = value
        for q in (qa, qb):
            if q not in seen:
                seen.add(q)
                children.append(q)
    return node(children)


def assert_plans_match_reference(circuit):
    sim = similarity_matrix(circuit)
    for k in range(1, circuit.num_qubits + 1):
        groups = reference_cluster(sim, k)
        assert cluster(sim, k) == groups
        expected = TreeTopology(node(reference_subtree(g, sim) for g in groups))
        assert dumps_topology(find_tree_structure(circuit, k)) == dumps_topology(expected)


@st.composite
def pair_circuits(draw):
    """Circuits on 1-14 qubits whose gates repeat on random pairs: only the
    two-qubit gate counts reach the planner."""
    n = draw(st.integers(1, 14))
    c = Circuit(n)
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        for (qa, qb), reps in draw(st.lists(st.tuples(pair, st.integers(1, 4)), max_size=30)):
            for _ in range(reps):
                c.append(gates.cz(qa, qb))
    return c


@settings(max_examples=120)
@given(pair_circuits())
def test_random_circuits_plan_as_reference(circuit):
    assert_plans_match_reference(circuit)


def oracle_circuits():
    """The acceptance suite's 50 random circuits on 4-12 qubits."""
    for i, child in enumerate(np.random.SeedSequence(20260810).spawn(50)):
        rng = np.random.default_rng(child)
        n = 4 + i % 9
        c = Circuit(n)
        for _ in range(int(rng.integers(30, 61))):
            if rng.random() < 0.3:
                c.append(Gate("u1", (int(rng.integers(n)),), haar_unitary(2, rng)))
            else:
                qa, qb = rng.choice(n, size=2, replace=False)
                c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
        yield c


def test_oracle_circuits_plan_as_reference():
    for circuit in oracle_circuits():
        assert_plans_match_reference(circuit)


@pytest.mark.parametrize("side", range(2, 7))
@pytest.mark.parametrize("seed", [1, 2])
def test_lattices_plan_as_reference(side, seed):
    assert_plans_match_reference(gen_lattice(side, 8, seed))


@pytest.mark.parametrize("levels", [1, 2])
def test_triangles_plan_as_reference(levels):
    circuit, _ = gen_triangle_pattern(levels, 64)
    assert_plans_match_reference(circuit)
