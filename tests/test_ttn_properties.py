"""Property suite for the TTN sweep: generated trees x generated two-qubit
circuits x truncation policies, checked against a test-local copy of an earlier
sweep (an exact upward SVD pass over every ancestor of the gate's leaves, then
one root-to-leaf reveal per leaf that needs it), against the dense state's
Schmidt ranks and against the dense oracle. The reference threads with its
identity connectors built, where the engine contracts them as it threads, and
runs on a copy whose center the engine first moved to the root, where the
earlier sweep kept it. The references work on the tensors as the engine stores
them, on its tree (`TtnState._tree`, where a binary root is spliced into a
child); edge dims and Schmidt spectra are compared on the given topology."""

from collections import Counter
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from connectors import expand_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnsim import gates, ttn
from ttnsim.circuits import Circuit
from ttnsim.errors import MemoryCapExceeded
from ttnsim.gates import Gate, haar_unitary, split_gate
from ttnsim.statevector import apply_gate, fidelity, sv_simulate
from ttnsim.tensors import EXACT, RANK_TOL, SvdFactors, TruncationPolicy, qr_econ, svd_econ
from ttnsim.topology import TreeTopology, comb_topology, perfect_tree
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
    parent = state._tree.parent[nid]
    ci = state._tree.child_index(nid)
    merged = np.tensordot(remainder, state.tensors[parent], axes=(1, ci))
    state.tensors[parent] = np.moveaxis(merged, 0, ci)


def reference_reveal_branch(state, leaf, policy):
    """Root to `leaf` with an SVD and truncation per edge, back up with QR."""
    tree = state._tree
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
    tree = state._tree
    leaves = []

    def dim(nid):
        return state.tensors[nid].shape[-1]

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
        masked = any(dim(nid) > tree.edge_bound(nid, dim) for nid in tree.ancestors(leaf)[:-1])
        if truncating or masked:
            reference_reveal_branch(state, leaf, policy)
    root = tree.postorder[-1]
    state.tensors[root] = state.tensors[root] / np.linalg.norm(state.tensors[root])
    state.center = root


def reference_thread(state, g):
    """The engine's threading with its connectors built: the center moves to
    the gate's turning node, the leaves absorb the split factors and every
    interior path node gets its identity connector, 1/sqrt(k) at the turning
    node (the engine puts it on the first leaf's factor: the same state)."""
    tree = state._tree
    g_a, g_b, k = split_gate(g)
    up_a, lca, up_b = tree.path_between(*g.qubits)
    state._move_center(lca)
    for leaf, factor in ((up_a[0], g_a), (up_b[0], g_b)):
        t = np.tensordot(factor, state.tensors[leaf], axes=(1, 0))  # (2, k, d)
        state.tensors[leaf] = t.transpose(0, 2, 1).reshape(2, -1)
    for chain in (up_a, up_b):
        for path_child, nid in zip(chain, chain[1:]):
            t = state.tensors[nid]
            state.tensors[nid] = expand_pair(t, tree.child_index(path_child), t.ndim - 1, k)
    ca, cb = sorted(tree.child_index(chain[-1]) for chain in (up_a, up_b))
    state.tensors[lca] = expand_pair(state.tensors[lca], ca, cb, k, scale=1 / np.sqrt(k))


def reference_gate(state, g, policy):
    """The earlier gate: from a root-centered state, thread, then sweep every
    ancestor of either leaf from the root."""
    tree = state._tree
    state._move_center(tree.postorder[-1])
    reference_thread(state, g)
    qa, qb = (tree.qubit_node[q] for q in g.qubits)
    branches = set(tree.ancestors(qa)) | set(tree.ancestors(qb))
    reference_orthonormalize(state, policy, branches)


def schmidt_values(vec, tree, edge):
    """The Schmidt spectrum of a dense state across a tree edge."""
    n = tree.num_qubits
    below = [tree.leaf_qubit[nid] for nid in range(tree.num_nodes)
             if tree.is_leaf(nid) and edge in tree.ancestors(nid)]
    rest = [q for q in range(n) if q not in below]
    mat = vec.reshape([2] * n).transpose(below + rest).reshape(2 ** len(below), -1)
    return np.linalg.svd(mat, compute_uv=False)


def assert_same_sweep(state, ref, policy, untouched=(), exact=None):
    """The sweep's result against the reference's from the same input: the
    same cap events, canonical form, and the state and edge dims as below.

    Exact mode keeps every edge at the state's Schmidt rank (values above
    1e-10 of the largest). The reference's exact upward SVDs see ranks only
    from below and reveal just the branches whose edges exceed the min-rule
    bound, so it can keep numerically zero Schmidt values; there a dim may
    fall below the reference's.

    Under truncation the sweep never touches an edge at or above the gate's
    turning node (`untouched`, mapping each to its dim before the gate): it
    is cut only when a later gate's path crosses it, so it must not grow.
    The reference re-cuts those edges from the root, dropping there the tail
    of the exact gated state `exact` beyond its own dims. Such a cut acts
    outside the turning node's subtree, so it commutes with the cuts below,
    and the two states differ by at most that weight over the share of
    `exact` the sweep kept. Elsewhere, where a dim differs, it is by a
    numerically zero Schmidt value that one side keeps.
    """
    assert state.cap_events == ref.cap_events
    assert state.canonical_deviation() <= 1e-10
    vec, ref_vec = state.to_statevector(), ref.to_statevector()
    dropped = 0.0
    for edge in range(1, state.tree.num_nodes):
        dim, ref_dim = state.edge_dim(edge), ref.edge_dim(edge)
        if policy == EXACT:
            spectrum = schmidt_values(vec, state.tree, edge)
            assert dim == np.count_nonzero(spectrum > 1e-10 * spectrum[0])
        elif edge in untouched:
            assert ref_dim <= dim <= untouched[edge]
            weights = schmidt_values(exact, state.tree, edge) ** 2
            dropped += weights[ref_dim:].sum() / weights.sum()
            continue
        if dim < ref_dim:
            assert policy == EXACT
            assert max(schmidt_values(ref_vec, state.tree, edge)[dim:]) <= 1e-10
        elif dim > ref_dim:
            assert policy != EXACT
            assert max(schmidt_values(vec, state.tree, edge)[ref_dim:]) <= 1e-10
    kept = fidelity(exact, vec) if dropped > 0 else 1.0
    assert 1 - fidelity(ref_vec, vec) <= dropped / kept + 1e-10


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


@st.composite
def binary_root_trees_and_circuits(draw):
    """Trees whose root has two children: binary perfect trees, combs and
    planner trees with 2 clusters."""
    shape = draw(st.sampled_from(["perfect", "comb", "planner"]))
    if shape == "perfect":
        height = draw(st.integers(1, 3))
        return draw(circuits(2**height)), perfect_tree(2, height)
    circuit = draw(circuits())
    if shape == "planner":
        return circuit, find_tree_structure(circuit, 2)
    return circuit, comb_topology(draw(st.permutations(range(circuit.num_qubits))))


def check_gate_sweeps(circuit, topo, policy):
    """Each gate's sweep against the reference gate from the same state."""
    state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
    for g in circuit.gates:
        ref = state.copy()
        exact = apply_gate(state.to_statevector(), g, circuit.num_qubits)
        dims = [state.edge_dim(edge) for edge in range(topo.num_nodes)]
        state.apply(g, policy)
        reference_gate(ref, g, policy)
        lca = topo.path_between(*g.qubits)[1]
        untouched = {edge: dims[edge] for edge in topo.ancestors(lca)[:-1]}
        assert_same_sweep(state, ref, policy, untouched, exact)
    if policy == EXACT:
        assert fidelity(sv_simulate(circuit), state.to_statevector()) >= 1 - 1e-10


@st.composite
def spectra_and_policies(draw):
    """A nonincreasing spectrum made of blocks of equal values; a `sigma_rel`
    that is zero, free, or `s[j] / norm(s)` for one of its values (the
    floor at that value) or one ulp either side of that; and a `d_max`
    below, at or above the count that `sigma_rel` keeps."""
    blocks = draw(st.lists(st.tuples(st.floats(1e-6, 1.0), st.integers(1, 4)),
                           min_size=1, max_size=5))
    s = np.array(sorted((value for value, size in blocks for _ in range(size)), reverse=True))
    at = s[draw(st.integers(0, len(s) - 1))] / float(np.linalg.norm(s))
    kind = draw(st.sampled_from(["zero", "free", "at", "below", "above"]))
    sigma_rel = {"zero": 0.0, "free": draw(st.floats(0.0, 0.99)), "at": at,
                 "below": np.nextafter(at, 0.0), "above": np.nextafter(at, 1.0)}[kind]
    sigma_rel = float(min(sigma_rel, np.nextafter(1.0, 0.0)))
    kept = len(_truncate(SvdFactors(np.eye(len(s)), s, np.eye(len(s))),
                         TruncationPolicy(sigma_rel), SimpleNamespace(cap_events=0))[1])
    d_max = draw(st.sampled_from([None, max(1, kept - 1), kept, kept + 1]))
    return s, TruncationPolicy(sigma_rel, d_max)


class PeakState(TtnState):
    """Records the most entries held after any contraction into a
    neighbour, up or down."""

    peak = 0

    def _contract(self, nid, axis, remainder, tie=None):
        super()._contract(nid, axis, remainder, tie)
        self.peak = max(self.peak, sum(t.size for t in self.tensors))


class TieState(TtnState):
    """Records (axis, tied) for every tied contraction into `ties`."""

    ties = None

    def _contract(self, nid, axis, remainder, tie=None):
        if tie is not None:
            self.ties.append((axis, tie[0]))
        super()._contract(nid, axis, remainder, tie)


def threading_price(state, g):
    """The entries of the state with the gate's connectors built, from a
    state whose center is already at the gate's turning node: each leaf on
    the path grows by k, every other path node by k squared."""
    k = split_gate(g)[2]
    up_a, lca, up_b = state._tree.path_between(*g.qubits)
    grown = {up_a[0]: k, up_b[0]: k} | {nid: k * k for nid in up_a[1:] + up_b[1:] + [lca]}
    return sum(t.size * grown.get(nid, 1) for nid, t in enumerate(state.tensors))


class SvdSplitState(TtnState):
    """The engine with each descent into an internal node split as one SVD
    of the matricized source, cut by the policy and renormalized where the
    cut drops a value above the numerical rank, in place of the gauge
    factors and the remainder's values."""

    def _move(self, src, dst, policy=None, tie=None):
        if policy is None or self._tree.is_leaf(dst):
            return super()._move(src, dst, policy, tie)
        axis, t = self._axis(src, dst), self.tensors[src]
        fac = svd_econ(self._matricize(src, axis), threshold=RANK_TOL)
        keep, capped = policy.rank(fac.s)
        self.cap_events += capped
        s = fac.s[:keep]
        if keep < fac.k:
            s = s / np.linalg.norm(s)
        iso = np.moveaxis(fac.u[:, :keep].reshape(t.shape[:axis] + t.shape[axis + 1:] + (keep,)),
                          -1, axis)
        self.tensors[src] = iso
        self._contract(dst, self._axis(dst, src), s[:, None] * fac.v_dag[:keep])


@st.composite
def haar_trees_and_circuits(draw):
    """`trees_and_circuits` with every gate a Haar one on the same qubits:
    their Schmidt spectra have no blocks of equal values for a cut to fall
    inside."""
    circuit, topo = draw(trees_and_circuits())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Circuit(circuit.num_qubits, [_two_qubit_gate("haar", *g.qubits, rng)
                                        for g in circuit.gates]), topo


SPLIT_POLICIES = st.builds(TruncationPolicy, st.sampled_from([0.0, 1e-8, 1e-6, 1e-4, 1e-2]),
                           st.one_of(st.none(), st.integers(1, 8)))


class TestTruncationRule:
    @settings(max_examples=300)
    @given(spectra_and_policies())
    def test_rank_matches_reference_truncation(self, case):
        s, policy = case
        counter = SimpleNamespace(cap_events=0)
        _, kept, _ = _truncate(SvdFactors(np.eye(len(s)), s, np.eye(len(s))), policy, counter)
        assert policy.rank(s) == (len(kept), counter.cap_events == 1)


class TestSweepProperties:
    @settings(max_examples=300)
    @given(trees_and_circuits(), st.sampled_from(POLICIES))
    def test_gate_sweeps_match_reference_and_oracle(self, case, policy):
        check_gate_sweeps(*case, policy)

    # counterexamples that fresh (not derandomized) draws found under a claim
    # that compared the edges above the turning node as it does those below:
    # there the reference cuts weight the sweep keeps by design
    @pytest.mark.parametrize("n, spec, seed, policy", [
        (7, [((0, 1), "haar"), ((0, 1), "haar"), ((0, 1), "haar"), ((1, 4), "haar"),
             ((2, 0), "haar"), ((6, 0), "haar"), ((6, 0), "haar"), ((0, 6), "haar"),
             ((0, 3), "haar"), ((3, 0), "haar")], 0, TruncationPolicy(1e-2, 4)),
        (9, [((0, 2), "haar"), ((0, 7), "cz"), ((0, 8), "swap"), ((4, 2), "haar"),
             ((6, 0), "cnot"), ((1, 2), "product"), ((2, 4), "haar"), ((7, 0), "haar"),
             ((0, 8), "haar"), ((0, 8), "haar"), ((0, 1), "cz"), ((3, 0), "haar"),
             ((0, 6), "haar")], 74855, TruncationPolicy(1e-2, None)),
    ])
    def test_gate_sweeps_on_fresh_draw_counterexamples(self, n, spec, seed, policy):
        rng = np.random.default_rng(seed)
        circuit = Circuit(n, [_two_qubit_gate(kind, qa, qb, rng) for (qa, qb), kind in spec])
        check_gate_sweeps(circuit, find_tree_structure(circuit, 1), policy)

    @settings(max_examples=150)
    @given(haar_trees_and_circuits(), SPLIT_POLICIES)
    def test_descents_split_as_one_svd_of_the_source(self, case, policy):
        # the gauge factors and the remainder's values, with a rotation only
        # where a value drops, split each edge as one SVD of the source does
        circuit, topo = case
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        ref = SvdSplitState.basis_state(topo, [0] * circuit.num_qubits)
        for g in circuit.gates:
            state.apply(g, policy)
            ref.apply(g, policy)
            assert [state.edge_dim(e) for e in range(1, topo.num_nodes)] == \
                [ref.edge_dim(e) for e in range(1, topo.num_nodes)]
            assert state.cap_events == ref.cap_events
            assert state.canonical_deviation() <= 1e-10
            assert 1 - fidelity(ref.to_statevector(), state.to_statevector()) <= 1e-12

    @settings(max_examples=200)
    @given(trees_and_circuits())
    def test_exact_sweeps_reveal_as_reference(self, case):
        # exact mode is where every edge must land on its Schmidt rank
        circuit, topo = case
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        for g in circuit.gates:
            ref = state.copy()
            state.apply(g)
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
            state.apply(g)
        ref = state.copy()
        state.thread_two_qubit(circuit.gates[-1])
        reference_thread(ref, circuit.gates[-1])
        state.orthonormalize(policy)
        reference_orthonormalize(ref, policy)
        assert_same_sweep(state, ref, policy)
        if policy == EXACT:
            assert fidelity(sv_simulate(circuit), state.to_statevector()) >= 1 - 1e-10

    @settings(max_examples=100)
    @given(trees_and_circuits(), st.sampled_from(POLICIES))
    def test_sweep_stays_within_the_priced_memory(self, case, policy):
        # the cap prices the connectors as if built; threading, which
        # contracts them as it gauges the path, and the sweep never hold
        # more than that
        circuit, topo = case
        state = PeakState.basis_state(topo, [0] * circuit.num_qubits)
        for g in circuit.gates:
            state._move_center(state._tree.path_between(*g.qubits)[1])
            price = threading_price(state, g)
            over = state.copy()
            over.memory_cap = price - 1
            with pytest.raises(MemoryCapExceeded):  # the engine's price is this one
                over.thread_two_qubit(g)
            state.memory_cap = price
            state.peak = 0
            path = state.thread_two_qubit(g)
            state.orthonormalize(policy, nodes=path)
            assert state.peak <= price


class TestTie:
    @settings(max_examples=100)
    @given(trees_and_circuits())
    def test_every_bond_lands_in_a_later_axis(self, case):
        # `_contract` has one tie path, for a bond fused into an axis after
        # the contracted one: the pass-through nodes' parent axes and, at
        # the turning node, the right path child's axis
        circuit, topo = case
        state = TieState.basis_state(topo, [0] * circuit.num_qubits)
        state.ties = []
        for g in circuit.gates:
            state.apply(g)
        assert state.ties
        assert all(tied > axis for axis, tied in state.ties)


def random_spec(draw, qubits):
    """A random tree spec over `qubits`: each internal node splits its
    qubits into two or three contiguous runs."""
    if len(qubits) == 1:
        return qubits[0]
    arity = draw(st.integers(2, min(3, len(qubits))))
    cuts = draw(st.lists(st.integers(1, len(qubits) - 1), min_size=arity - 1,
                         max_size=arity - 1, unique=True))
    bounds = [0] + sorted(cuts) + [len(qubits)]
    return [random_spec(draw, qubits[a:b]) for a, b in zip(bounds, bounds[1:])]


@st.composite
def leaf_at_root_trees_and_circuits(draw):
    """Binary roots with a leaf as their first or as their second child, the
    other child a random subtree (a leaf too on two qubits)."""
    circuit = draw(circuits())
    qubits = draw(st.permutations(range(circuit.num_qubits)))
    leaf, rest = qubits[0], random_spec(draw, qubits[1:])
    return circuit, TreeTopology([leaf, rest] if draw(st.booleans()) else [rest, leaf])


class TestCenter:
    @settings(max_examples=150)
    @given(st.one_of(trees_and_circuits(), binary_root_trees_and_circuits(),
                     leaf_at_root_trees_and_circuits()),
           st.sampled_from(POLICIES))
    def test_gate_leaves_the_center_at_its_last_leafs_parent(self, case, policy):
        # the reveal splits each leaf edge in place at the leaf's parent and
        # does not walk back: the center rests at the parent of the higher
        # preorder id of the gate's two leaves, never on a leaf, with the
        # state's norm; each internal path edge takes one values-only SVD,
        # where a binary root, spliced into a child, is one edge, and one
        # more SVD, for its vectors, where a value of the policy's drops;
        # each path leaf whose edge threading left two wide takes one
        # two-column kernel call
        circuit, topo = case
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        tree = state._tree
        calls = Counter()

        def counter(name):
            def counted(*args, _f=getattr(ttn, name), **kwargs):
                calls[name] += 1
                return _f(*args, **kwargs)
            return counted

        def svd(m, *args, _f=ttn.svd_econ, **kwargs):
            out = _f(m, *args, **kwargs)
            if kwargs.get("vectors") is False:
                calls["values"] += 1
                calls["drops"] += policy.rank(out)[0] < min(m.shape)
            else:
                calls["vectors"] += 1
            return out

        with (patch.object(ttn, "svd_econ", svd),
              patch.object(ttn, "svd_two_cols", counter("svd_two_cols"))):
            for g in circuit.gates:
                up_a, _, up_b = tree.path_between(*g.qubits)
                calls.clear()
                path = state.thread_two_qubit(g)
                wide = sum(state.tensors[leaf].shape[1] == 2 for leaf in (up_a[0], up_b[0]))
                state.orthonormalize(policy, nodes=path)
                assert state.center == tree.parent[max(up_a[0], up_b[0])]
                assert not tree.is_leaf(state.center)
                assert state.canonical_deviation() < 1e-10
                assert abs(np.linalg.norm(state.tensors[state.center]) - 1.0) <= 1e-12
                assert calls["values"] == len(up_a) + len(up_b) - 2
                assert calls["vectors"] == calls["drops"]
                assert calls["svd_two_cols"] == wide


def assert_root_edges_at_schmidt_rank(state, applied):
    """Both edges of a binary root report the state's Schmidt rank across
    them, and the state is canonical and the dense oracle's after the
    circuit `applied`."""
    first, second = state.tree.children[0]
    vec = state.to_statevector()
    spectrum = schmidt_values(vec, state.tree, second)
    rank = np.count_nonzero(spectrum > 1e-10 * spectrum[0])
    assert state.edge_dim(second) == state.edge_dim(first) == rank
    assert state.canonical_deviation() <= 1e-10
    assert fidelity(sv_simulate(applied), vec) >= 1 - 1e-10


class TestBinaryRoot:
    @settings(max_examples=150)
    @given(binary_root_trees_and_circuits())
    def test_spliced_root_is_one_edge_at_the_schmidt_rank(self, case):
        # a binary root over an internal child is stored spliced into it,
        # one tensor fewer; its one edge, which both root children report,
        # lands on the Schmidt rank in exact mode, after each gate and after
        # a whole-tree sweep (a root over two leaves stays)
        circuit, topo = case
        kids = topo.children[0]
        assert len(kids) == 2
        state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
        spliced = not all(map(topo.is_leaf, kids))
        assert len(state.tensors) == topo.num_nodes - spliced
        for i, g in enumerate(circuit.gates[:-1]):
            state.apply(g)
            assert_root_edges_at_schmidt_rank(state, Circuit(topo.num_qubits, circuit.gates[:i + 1]))
        state.thread_two_qubit(circuit.gates[-1])
        state.orthonormalize(EXACT)
        assert_root_edges_at_schmidt_rank(state, circuit)
        assert len(state.tensors) == topo.num_nodes - spliced


def check_readout(circuit, topo):
    """The read-out against the dense oracle; it must leave the state's
    tensors (the same objects, the same bytes) and center as they were."""
    state = TtnState.basis_state(topo, [0] * circuit.num_qubits)
    for g in circuit.gates:
        state.apply(g)
    tensors, center = list(state.tensors), state.center
    data = [t.tobytes() for t in tensors]
    assert np.abs(state.to_statevector() - sv_simulate(circuit)).max() <= 1e-12
    assert all(a is b for a, b in zip(state.tensors, tensors, strict=True))
    assert [t.tobytes() for t in state.tensors] == data
    assert state.center == center


class TestReadout:
    @settings(max_examples=100)
    @given(trees_and_circuits())
    def test_readout_matches_oracle_and_keeps_the_state(self, case):
        check_readout(*case)

    def test_one_leaf_tree(self):
        rng = np.random.default_rng(5)
        check_readout(Circuit(1, [Gate("u1", (0,), haar_unitary(2, rng))]), TreeTopology(0))

    def test_comb(self):
        rng = np.random.default_rng(6)
        circuit = Circuit(6, [_two_qubit_gate("haar", qa, qb, rng)
                              for qa, qb in ((0, 5), (2, 3), (4, 1), (5, 2), (1, 0))])
        check_readout(circuit, comb_topology([3, 0, 5, 1, 4, 2]))
