"""Tree tensor network statevector engine.

A state is one tensor per tree node: leaves carry (physical=2, parent) axes,
internal nodes one axis per child plus a parent axis, and the root's parent
axis is a dimension-1 dummy. The state is kept in mixed canonical form around
one node, its orthogonality center (`TtnState.center`): every other tensor is
an isometry onto the axis that points towards the center (its parent axis,
unless the center lies below it), so the global norm is the center tensor's.

A two-qubit gate first carries the center, by gauge-only moves along the
tree, to its turning node (the lowest common ancestor of its two leaves).
The gate is then Schmidt-split, its two factors absorbed into the target
leaves, and its rank-k bond threaded through every node on the tree path
between them; the identity connectors keep interior nodes isometric (the
turning node, the center, carries the compensating 1/sqrt(k) and keeps its
norm), so only the path below the turning node needs re-orthonormalization.
A gate inside a subtree cannot change the Schmidt spectrum across any edge at
or above its turning node, and nothing there is touched: on a comb (the MPS)
a nearest-neighbour gate costs the same at every site.

The sweep is the same for every truncation policy: a bottom-up pass that
only moves the gauge of the path nodes into the center (identity or QR, no
rank search), then one walk of the center down the path and back that SVDs
every path edge against the state's true Schmidt spectrum. Exact mode keeps
each edge at its Schmidt rank there, and a truncating policy cuts there. The
whole-tree sweep does the same from the root over every edge.
"""

import math

import numpy as np

from .circuits import Circuit
from .errors import FactorizationError, MemoryCapExceeded
from .gates import Gate, split_gate
from .statevector import DEFAULT_MEMORY_CAP, DEFAULT_QUBIT_CAP, StateMetrics
from .tensors import EXACT, RANK_TOL, TruncationPolicy, qr_econ, svd_econ
from .topology import TreeTopology


def _truncate_factors(fac, policy: TruncationPolicy, state) -> None:
    """Apply a truncation policy to economical SVD factors, in place.

    The threshold is measured against the norm of the local singular-value
    spectrum: for a canonical network those are the state's Schmidt values
    across the edge, so the cut acts on the normalized state. Rank capping
    below the threshold-kept count is recorded as a cap event.
    """
    keep = fac.k
    if policy.sigma_rel > 0:
        floor = policy.sigma_rel * float(np.linalg.norm(fac.s))
        keep = max(1, int(np.count_nonzero(fac.s >= floor)))
    if policy.d_max is not None and min(keep, fac.k) > policy.d_max:
        state.cap_events += 1
        keep = policy.d_max
    if keep < fac.k:
        fac.u = fac.u[:, :keep]
        fac.s = fac.s[:keep]
        fac.v_dag = fac.v_dag[:keep, :]


def _expand_pair(t: np.ndarray, ax1: int, ax2: int, k: int, scale: float = 1.0) -> np.ndarray:
    """Tensor `t` with an identity connector attached across axes ax1 < ax2.

    Both axes grow by a factor k; the new sub-indices are tied together by a
    scaled delta. Fusion keeps the existing index major and the new one minor.
    """
    nd = t.ndim
    out = np.multiply.outer(t, scale * np.eye(k, dtype=np.complex128))
    perm = []
    for i in range(nd):
        perm.append(i)
        if i == ax1:
            perm.append(nd)
        if i == ax2:
            perm.append(nd + 1)
    out = out.transpose(perm)
    shape = list(t.shape)
    shape[ax1] *= k
    shape[ax2] *= k
    return np.ascontiguousarray(out).reshape(shape)


def _gauge_factors(mat: np.ndarray, nid: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauge-only factorization `mat = iso @ remainder` of node `nid`'s
    matrix, no rank search: with no more rows p than columns q, `iso` is the
    p-by-p identity and the whole matrix is the remainder (the edge becomes
    p); otherwise a reduced QR keeps the edge at q."""
    if mat.shape[0] <= mat.shape[1]:
        return np.eye(mat.shape[0], dtype=mat.dtype), mat
    try:
        return qr_econ(mat)
    except FactorizationError as exc:
        raise FactorizationError(f"node {nid}: {exc}") from exc


class TtnState:
    """Mutable TTN statevector over a fixed tree topology, in mixed canonical
    form around the node `center` (the root at construction)."""

    def __init__(self, tree: TreeTopology, tensors: list[np.ndarray],
                 memory_cap: int = DEFAULT_MEMORY_CAP):
        self.tree = tree
        self.tensors = tensors
        self.memory_cap = memory_cap
        self.cap_events = 0
        self.center = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def basis_state(cls, tree: TreeTopology, bits,
                    memory_cap: int = DEFAULT_MEMORY_CAP) -> "TtnState":
        """Product basis state: all internal edges have dimension 1."""
        bits = list(bits)
        if len(bits) != tree.num_qubits:
            raise ValueError(f"expected {tree.num_qubits} bits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        tensors = []
        for nid in range(tree.num_nodes):
            q = tree.leaf_qubit[nid]
            if q is not None:
                tensors.append(np.array([[1.0 - bits[q]], [bits[q]]], dtype=np.complex128))
            else:
                tensors.append(np.ones([1] * (len(tree.children[nid]) + 1), dtype=np.complex128))
        return cls(tree, tensors, memory_cap)

    def copy(self) -> "TtnState":
        clone = type(self)(self.tree, [t.copy() for t in self.tensors], self.memory_cap)
        clone.cap_events = self.cap_events
        clone.center = self.center
        return clone

    # -- gate application ---------------------------------------------------

    def apply_single_qubit(self, g: Gate):
        """Absorb a one-qubit gate into its leaf; dimensions never change."""
        if g.num_qubits != 1:
            raise ValueError("expected a one-qubit gate")
        leaf = self.tree.qubit_node[g.qubits[0]]
        self.tensors[leaf] = np.tensordot(g.matrix, self.tensors[leaf], axes=(1, 0))
        return self

    def thread_two_qubit(self, g: Gate) -> list[int]:
        """Move the center to the gate's turning node, split the gate and
        thread its bond along the leaf-leaf path.

        Leaves absorb the gate factors (the new bond index is fused into
        each leaf's parent axis); every pass-through node on the path gets an
        identity connector tying its path-child axis to its parent axis, and
        the turning node a 1/sqrt(k) connector across its two path-child
        axes. Interior isometries survive; only the two leaves need
        re-orthonormalization. Returns the path nodes below the turning node,
        `up_a + up_b`, each chain from its leaf upwards: the nodes the
        following sweep must visit.
        """
        if g.num_qubits != 2:
            raise ValueError("expected a two-qubit gate")
        qa, qb = g.qubits
        g_a, g_b, k = split_gate(g)
        up_a, lca, up_b = self.tree.path_between(qa, qb)
        self._move_center(lca)

        affected = (self.tensors[up_a[0]].size + self.tensors[up_b[0]].size) * k
        affected += sum(self.tensors[n].size for n in up_a[1:] + up_b[1:] + [lca]) * k * k
        untouched = sum(t.size for t in self.tensors)
        untouched -= sum(self.tensors[n].size for n in up_a + up_b + [lca])
        if untouched + affected > self.memory_cap:
            raise MemoryCapExceeded(
                f"gate {g.label} on {g.qubits} needs {untouched + affected} entries "
                f"(cap {self.memory_cap})"
            )

        for leaf, factor in ((up_a[0], g_a), (up_b[0], g_b)):
            t = self.tensors[leaf]  # (2, d)
            t = np.tensordot(factor, t, axes=(1, 0))  # (2, k, d)
            self.tensors[leaf] = t.transpose(0, 2, 1).reshape(2, -1)

        for chain in (up_a, up_b):
            for path_child, nid in zip(chain, chain[1:]):
                t = self.tensors[nid]
                ci = self.tree.child_index(path_child)
                self.tensors[nid] = _expand_pair(t, ci, t.ndim - 1, k)

        ca = self.tree.child_index(up_a[-1])
        cb = self.tree.child_index(up_b[-1])
        self.tensors[lca] = _expand_pair(
            self.tensors[lca], min(ca, cb), max(ca, cb), k, scale=1.0 / math.sqrt(k)
        )
        return up_a + up_b

    def apply_two_qubit(self, g: Gate, policy: TruncationPolicy = EXACT):
        """Two-qubit gate: thread, then restore canonical form on the path
        below the turning node under the given truncation policy."""
        path = self.thread_two_qubit(g)
        self.orthonormalize(policy, nodes=path)
        return self

    def apply(self, g: Gate, policy: TruncationPolicy = EXACT):
        if g.num_qubits == 1:
            return self.apply_single_qubit(g)
        return self.apply_two_qubit(g, policy)

    # -- canonical form -----------------------------------------------------

    def _against_child(self, nid: int, child: int) -> np.ndarray:
        """Node `nid` matricized against the edge to its child `child`: that
        edge as columns, every other axis (in order) as rows."""
        ci = self.tree.child_index(child)
        t = self.tensors[nid]
        stacked = t.reshape(math.prod(t.shape[:ci]), t.shape[ci], -1)  # (before, edge, after)
        return stacked.transpose(0, 2, 1).reshape(-1, t.shape[ci])

    def _absorb_up(self, nid: int, iso: np.ndarray, remainder: np.ndarray):
        """Set node `nid` to the isometry `iso` (downstream rows by new edge
        columns) and contract `remainder` (new edge by old edge) into its
        parent, moving the orthogonality center one edge up."""
        t = self.tensors[nid]
        self.tensors[nid] = iso.reshape(t.shape[:-1] + (iso.shape[1],))
        parent = self.tree.parent[nid]
        ci = self.tree.child_index(nid)
        pt = self.tensors[parent]
        # on (before, edge, after) stacks one matmul replaces the edge axis in
        # place; with after = 1 (the root's last child) that would be one
        # matrix-vector product per row, so take one matrix product instead
        stacked = pt.reshape(math.prod(pt.shape[:ci]), pt.shape[ci], -1)
        if stacked.shape[2] == 1:
            merged = stacked[:, :, 0] @ remainder.T
        else:
            merged = remainder @ stacked
        new_shape = pt.shape[:ci] + (remainder.shape[0],) + pt.shape[ci + 1:]
        self.tensors[parent] = merged.reshape(new_shape)

    def _absorb_down(self, parent: int, child: int, iso: np.ndarray, remainder: np.ndarray):
        """Set `parent` to the isometry `iso` (its `_against_child` rows by
        new edge columns) and contract `remainder` (new edge by old edge) into
        the child's parent axis, moving the orthogonality center one edge
        down."""
        ci = self.tree.child_index(child)
        t = self.tensors[parent]
        k = iso.shape[1]
        u = iso.reshape(math.prod(t.shape[:ci]), -1, k).transpose(0, 2, 1)
        self.tensors[parent] = u.reshape(t.shape[:ci] + (k,) + t.shape[ci + 1:])
        ct = self.tensors[child]
        merged = ct.reshape(-1, ct.shape[-1]) @ remainder.T
        self.tensors[child] = merged.reshape(ct.shape[:-1] + (k,))

    def _gauge_up(self, nid: int):
        """Gauge-only upward move of the center from `nid` into its parent,
        no rank search (`_gauge_factors`)."""
        t = self.tensors[nid]
        self._absorb_up(nid, *_gauge_factors(t.reshape(-1, t.shape[-1]), nid))

    def _gauge_down(self, parent: int, child: int):
        """Gauge-only downward move of the center from `parent` into
        `child`, no rank search (`_gauge_factors`)."""
        mat = self._against_child(parent, child)
        self._absorb_down(parent, child, *_gauge_factors(mat, parent))

    def _move_center(self, target: int):
        """Carry the orthogonality center to `target` along the tree path:
        `_gauge_up` while it climbs to the lowest common ancestor of the two,
        `_gauge_down` while it descends. Edge dimensions never grow."""
        parent, depth = self.tree.parent, self.tree.depth
        node, goal, down = self.center, target, []
        while node != target:
            if depth[node] >= depth[target]:
                self._gauge_up(node)
                node = parent[node]
            else:
                down.append(target)
                target = parent[target]
        for child in reversed(down):
            self._gauge_down(parent[child], child)
        self.center = goal

    def _split_down(self, parent: int, child: int, policy: TruncationPolicy):
        """Downward move of the orthogonality center from `parent` into
        `child`. With every other node isometric towards `parent`, the SVD of
        the parent matricized against the child's edge yields the state's
        true Schmidt spectrum across that edge, which both exposes the
        minimal edge dimension and is where the policy truncates."""
        try:
            fac = svd_econ(self._against_child(parent, child), threshold=RANK_TOL)
        except FactorizationError as exc:
            raise FactorizationError(f"node {parent}: {exc}") from exc
        _truncate_factors(fac, policy, self)
        self._absorb_down(parent, child, fac.u, fac.s[:, None] * fac.v_dag)

    def _reveal(self, leaves: list[int], policy: TruncationPolicy):
        """One walk of the orthogonality center from its node through the
        branches of `leaves` (in postorder, all below the center) and back.

        `path` is the walk's explicit stack, center to current node. For
        each leaf the center climbs with `_gauge_up` out of the finished
        subtree to the first node shared with the leaf's branch, then
        descends with `_split_down`. A segment shared by several branches is
        thus factorized once each way.
        """
        top, parent = self.center, self.tree.parent
        path = [top]
        for leaf in leaves:
            branch = [leaf]
            while branch[-1] != top:
                branch.append(parent[branch[-1]])
            branch.reverse()  # center .. leaf
            shared = 1
            while shared < len(path) and path[shared] == branch[shared]:
                shared += 1
            while len(path) > shared:
                self._gauge_up(path.pop())
            for child in branch[shared:]:
                self._split_down(path[-1], child, policy)
                path.append(child)
        while len(path) > 1:
            self._gauge_up(path.pop())

    def orthonormalize(self, policy: TruncationPolicy = EXACT, nodes=None):
        """Re-orthonormalization sweep, the same for every policy.

        `nodes` are the nodes to restore: with each node, every node between
        it and the center must be there too, as for the path nodes that
        `thread_two_qubit` returns. With None, every node is, and the center
        first moves to the root.

        First a bottom-up pass that only moves the gauge (`_gauge_up`):
        children before parents, each node made an isometry towards its
        parent, its remainder absorbed into the parent, so the center
        collects it all. No rank is searched for there. Then one walk
        (`_reveal`) moves the center down every touched branch and back,
        splitting each touched edge by SVD against the state's true Schmidt
        spectrum: exact mode drops only numerically zero values, so every
        edge ends at its Schmidt rank, and a truncating policy cuts there.
        Edge dimensions never grow; the center is rescaled to unit norm at
        the end.
        """
        if nodes is None:
            nodes = self.tree.postorder[:-1]  # every node but the root, children first
            self.center = self.tree.postorder[-1]
        else:
            nodes = sorted(nodes, reverse=True)  # preorder ids: children first
        for nid in nodes:
            self._gauge_up(nid)
        self._reveal(sorted(nid for nid in nodes if self.tree.is_leaf(nid)), policy)
        center = self.center
        nrm = np.linalg.norm(self.tensors[center])
        if nrm == 0:
            raise FactorizationError("state collapsed to zero norm")
        self.tensors[center] = self.tensors[center] / nrm
        return self

    def canonical_deviation(self) -> float:
        """Largest deviation of any non-center node from its isometry
        condition towards the center."""
        chain = self.tree.ancestors(self.center)
        toward = dict(zip(chain[1:], chain))  # center's ancestors: child towards it
        worst = 0.0
        for nid, t in enumerate(self.tensors):
            if nid == self.center:
                continue
            if nid in toward:
                mat = self._against_child(nid, toward[nid])
            else:
                mat = t.reshape(-1, t.shape[-1])
            gram = mat.conj().T @ mat
            worst = max(worst, float(np.linalg.norm(gram - np.eye(mat.shape[1]))))
        return worst

    def norm(self) -> float:
        """Global norm; equals the center's norm whenever the state is canonical."""
        return float(np.linalg.norm(self.tensors[self.center]))

    # -- read-out -----------------------------------------------------------

    def to_statevector(self, qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
        """Contract the network into a dense vector, qubit 0 most significant."""
        n = self.tree.num_qubits
        if n > qubit_cap:
            raise ValueError(f"{n} qubits exceeds the contraction cap of {qubit_cap}")

        # postorder: every child's (tensor, qubit order) is ready before its
        # parent contracts it; a loop, not recursion, as combs are deep
        parts = {}
        for nid in self.tree.postorder:
            q = self.tree.leaf_qubit[nid]
            if q is not None:
                parts[nid] = (self.tensors[nid], [q])
                continue
            acc = self.tensors[nid]
            order: list[int] = []
            for child in self.tree.children[nid]:
                vec, qubits = parts.pop(child)
                # contract the child's parent axis with acc's leading child axis;
                # physical axes accumulate behind the remaining child axes
                acc = np.tensordot(acc, vec, axes=(0, vec.ndim - 1))
                order.extend(qubits)
            # axes now: (parent, phys...) with phys in child order
            parts[nid] = (np.moveaxis(acc, 0, -1), order)

        vec, order = parts[self.tree.postorder[-1]]
        vec = vec.reshape([2] * n)  # root parent axis is the trailing dummy
        perm = [order.index(q) for q in range(n)]
        return np.ascontiguousarray(vec.transpose(perm)).reshape(-1)

    def edge_dim(self, child_id: int) -> int:
        """Dimension of the edge between `child_id` and its parent."""
        return self.tensors[child_id].shape[-1]

    def metrics(self) -> StateMetrics:
        d_max = max(max(t.shape) for t in self.tensors)
        m_entries = sum(t.size for t in self.tensors)
        return StateMetrics(int(d_max), int(m_entries))


def run_circuit(circuit: Circuit, topology: TreeTopology, policy: TruncationPolicy = EXACT,
                bits=None, memory_cap: int = DEFAULT_MEMORY_CAP) -> TtnState:
    """Simulate a whole circuit from a basis state on the given topology."""
    if bits is None:
        bits = [0] * circuit.num_qubits
    state = TtnState.basis_state(topology, bits, memory_cap=memory_cap)
    for g in circuit.gates:
        state.apply(g, policy)
    return state


# ---------------------------------------------------------------------------
# closed-form size and cost bounds for perfect m-ary trees


def node_count_bound(arity: int, l_root: int) -> int:
    """Node count of a perfect m-ary tree of height l_root."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    return (arity ** (l_root + 1) - 1) // (arity - 1)


def entries_upper_bound(arity: int, l_root: int, d_max: int) -> int:
    """Upper bound on total stored entries: every tensor has at most
    arity + 1 axes of dimension at most d_max."""
    return node_count_bound(arity, l_root) * d_max ** (arity + 1)


def flops_bound(arity: int, n_qubits: int, d_max: int) -> int:
    """Per-gate re-orthonormalization cost bound, O(log_m(N) * d_max^(m+2))."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    level = 0
    while arity**level < n_qubits:
        level += 1
    return max(level, 1) * d_max ** (arity + 2)
