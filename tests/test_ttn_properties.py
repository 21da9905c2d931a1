"""Property suite for the TTN sweep: generated trees x generated two-qubit
circuits x truncation policies, checked against a test-local copy of an earlier
sweep (an exact upward SVD pass over every ancestor of the gate's leaves, then
one root-to-leaf reveal per leaf that needs it), against the dense state's
Schmidt ranks and against the dense oracle. The reference runs on a copy whose
center the engine first moved to the root, where the earlier sweep kept it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnsim import gates
from ttnsim.circuits import Circuit
from ttnsim.gates import Gate, haar_unitary
from ttnsim.statevector import fidelity, sv_simulate
from ttnsim.tensors import EXACT, RANK_TOL, TruncationPolicy, qr_econ, svd_econ
from ttnsim.topology import comb_topology, perfect_tree
from ttnsim.treesearch import find_tree_structure
from ttnsim.ttn import TtnState


def _truncate(fac, policy, state):
    keep = fac.k
    if policy.sigma_rel > 0:
        floor = policy.sigma_rel * float(np.linalg.norm(fac.s))
        keep = max(1, int(np.count_nonzero(fac.s >= floor)))
    if policy.d_max is not None and min(keep, fac.k) > policy.d_max:
        state.cap_events += 1
        keep = policy.d_max
    return fac.u[:, :keep], fac.s[:keep], fac.v_dag[:keep, :]


def _absorb_up(state, nid, iso, remainder):
    t = state.tensors[nid]
    state.tensors[nid] = iso.reshape(t.shape[:-1] + (iso.shape[1],))
    parent = state.tree.parent[nid]
    ci = state.tree.child_index(nid)
    merged = np.tensordot(remainder, state.tensors[parent], axes=(1, ci))
    state.tensors[parent] = np.moveaxis(merged, 0, ci)


def reference_reveal_branch(state, leaf, policy):
    """Root to `leaf` with an SVD and truncation per edge, back up with QR."""
    tree = state.tree
    chain = tree.ancestors(leaf)
    down = chain[::-1]
    for parent, child in zip(down, down[1:]):
        ci = tree.child_index(child)
        t = state.tensors[parent]
        fac = svd_econ(np.moveaxis(t, ci, -1).reshape(-1, t.shape[ci]), threshold=RANK_TOL)
        u, s, v_dag = _truncate(fac, policy, state)
        rest = t.shape[:ci] + t.shape[ci + 1:]
        state.tensors[parent] = np.moveaxis(u.reshape(rest + (len(s),)), -1, ci)
        ct = state.tensors[child]
        state.tensors[child] = np.tensordot(ct, s[:, None] * v_dag, axes=(ct.ndim - 1, 1))
    for nid in chain[:-1]:
        t = state.tensors[nid]
        q, r = qr_econ(t.reshape(-1, t.shape[-1]))
        _absorb_up(state, nid, q, r)


def reference_orthonormalize(state, policy, nodes=None):
    """The earlier sweep: exact upward SVDs, then every touched branch
    revealed from the root when truncating, else each masked one, tested
    after the branches before it were revealed."""
    tree = state.tree
    leaves = []
    for nid in tree.postorder:
        if tree.parent[nid] is None or (nodes is not None and nid not in nodes):
            continue
        if tree.is_leaf(nid):
            leaves.append(nid)
        t = state.tensors[nid]
        fac = svd_econ(t.reshape(-1, t.shape[-1]), threshold=RANK_TOL)
        _absorb_up(state, nid, fac.u, fac.s[:, None] * fac.v_dag)
    truncating = policy.sigma_rel > 0 or policy.d_max is not None
    for leaf in leaves:
        masked = any(state.edge_dim(nid) > tree.edge_bound(nid, state.edge_dim)
                     for nid in tree.ancestors(leaf)[:-1])
        if truncating or masked:
            reference_reveal_branch(state, leaf, policy)
    root = tree.postorder[-1]
    state.tensors[root] = state.tensors[root] / np.linalg.norm(state.tensors[root])
    state.center = root


def reference_gate(state, g, policy):
    """The earlier gate: from a root-centered state, thread, then sweep every
    ancestor of either leaf from the root."""
    state._move_center(state.tree.postorder[-1])
    state.thread_two_qubit(g)
    qa, qb = (state.tree.qubit_node[q] for q in g.qubits)
    branches = set(state.tree.ancestors(qa)) | set(state.tree.ancestors(qb))
    reference_orthonormalize(state, policy, branches)


def schmidt_values(vec, tree, edge):
    """The Schmidt spectrum of a dense state across a tree edge."""
    n = tree.num_qubits
    below = [tree.leaf_qubit[nid] for nid in range(tree.num_nodes)
             if tree.is_leaf(nid) and edge in tree.ancestors(nid)]
    rest = [q for q in range(n) if q not in below]
    mat = vec.reshape([2] * n).transpose(below + rest).reshape(2 ** len(below), -1)
    return np.linalg.svd(mat, compute_uv=False)


def assert_same_sweep(state, ref, policy):
    """The sweep's result against the reference's from the same input: the
    same state and cap events, canonical form, and edge dims as below.

    Exact mode keeps every edge at the state's Schmidt rank (values above
    1e-10 of the largest). The reference's exact upward SVDs see ranks only
    from below and reveal just the branches whose edges exceed the min-rule
    bound, so it can keep numerically zero Schmidt values; there a dim may
    fall below the reference's.

    Under truncation, the sweep never splits an edge at or above the gate's
    turning node, while the reference reveals every touched branch from the
    root after the branches below were truncated; when those cuts leave the
    state a product across such an edge, the edge keeps a numerically zero
    Schmidt value that the reference drops. That is the one difference
    allowed there.
    """
    assert state.cap_events == ref.cap_events
    assert state.canonical_deviation() <= 1e-10
    vec, ref_vec = state.to_statevector(), ref.to_statevector()
    assert fidelity(ref_vec, vec) >= 1 - 1e-10
    for edge in range(1, state.tree.num_nodes):
        dim, ref_dim = state.edge_dim(edge), ref.edge_dim(edge)
        if policy == EXACT:
            spectrum = schmidt_values(vec, state.tree, edge)
            assert dim == np.count_nonzero(spectrum > 1e-10 * spectrum[0])
        if dim < ref_dim:
            assert policy == EXACT
            assert max(schmidt_values(ref_vec, state.tree, edge)[dim:]) <= 1e-10
        elif dim > ref_dim:
            assert policy != EXACT
            assert max(schmidt_values(vec, state.tree, edge)[ref_dim:]) <= 1e-10


POLICIES = [TruncationPolicy(sigma_rel, d_max)
            for sigma_rel in (0.0, 1e-8, 1e-4, 1e-2) for d_max in (None, 2, 4)]


def _two_qubit_gate(kind, qa, qb, rng):
    if kind == "haar":
        return Gate("u2", (qa, qb), haar_unitary(4, rng))
    if kind == "product":  # Schmidt rank 1
        return Gate("u1u1", (qa, qb), np.kron(haar_unitary(2, rng), haar_unitary(2, rng)))
    return getattr(gates, kind)(qa, qb)


@st.composite
def circuits(draw, num_qubits=None):
    """Mostly Haar gates; Clifford and product gates give the rank
    deficiencies that exact mode must find by revealing masked branches."""
    n = draw(st.integers(2, 10)) if num_qubits is None else num_qubits
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    kinds = st.sampled_from(["haar", "haar", "haar", "cnot", "cz", "swap", "product"])
    spec = draw(st.lists(st.tuples(pairs, kinds), min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Circuit(n, [_two_qubit_gate(kind, qa, qb, rng) for (qa, qb), kind in spec])


@st.composite
def trees_and_circuits(draw):
    shape = draw(st.sampled_from(["perfect", "comb", "planner"]))
    if shape == "perfect":
        arity, height = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]))
        circuit = draw(circuits(arity**height))
        return circuit, perfect_tree(arity, height)
    circuit = draw(circuits())
    n = circuit.num_qubits
    if shape == "planner":
        return circuit, find_tree_structure(circuit, draw(st.integers(1, n)))
    return circuit, comb_topology(draw(st.permutations(range(n))))


class TestSweepProperties:
    @settings(max_examples=300)
    @given(trees_and_circuits(), st.sampled_from(POLICIES))
    def test_gate_sweeps_match_reference_and_oracle(self, case, policy):
        circuit, topo = case
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        for g in circuit.gates:
            ref = state.copy()
            state.apply_two_qubit(g, policy)
            reference_gate(ref, g, policy)
            assert_same_sweep(state, ref, policy)
        if policy == EXACT:
            assert fidelity(sv_simulate(circuit), state.to_statevector()) >= 1 - 1e-10

    @settings(max_examples=200)
    @given(trees_and_circuits())
    def test_exact_sweeps_reveal_as_reference(self, case):
        # exact mode is where every edge must land on its Schmidt rank
        circuit, topo = case
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        for g in circuit.gates:
            ref = state.copy()
            state.apply_two_qubit(g)
            reference_gate(ref, g, EXACT)
            assert_same_sweep(state, ref, EXACT)
        assert fidelity(sv_simulate(circuit), state.to_statevector()) >= 1 - 1e-10

    @settings(max_examples=150)
    @given(trees_and_circuits(), st.sampled_from(POLICIES))
    def test_whole_tree_sweep_matches_reference(self, case, policy):
        # the last gate is threaded but not swept, so the whole-tree sweep
        # has work to do
        circuit, topo = case
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        for g in circuit.gates[:-1]:
            state.apply_two_qubit(g)
        state.thread_two_qubit(circuit.gates[-1])
        ref = state.copy()
        state.orthonormalize(policy)
        reference_orthonormalize(ref, policy)
        assert_same_sweep(state, ref, policy)
        if policy == EXACT:
            assert fidelity(sv_simulate(circuit), state.to_statevector()) >= 1 - 1e-10
