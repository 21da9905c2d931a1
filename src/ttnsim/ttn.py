"""Tree tensor network statevector engine.

A state is one tensor per tree node: leaves carry (physical=2, parent) axes,
internal nodes one axis per child plus a parent axis, and the root's parent
axis is a dimension-1 dummy. In canonical form every non-root tensor is an
isometry from its downstream axes to its parent axis, and the global norm
equals the root tensor's norm.

Two-qubit gates are applied by Schmidt-splitting the gate, absorbing the two
factors into the target leaves, and threading the rank-k bond through every
node on the tree path between them; the identity connectors keep interior
nodes isometric (the turning node carries the compensating 1/sqrt(k)), so a
re-orthonormalization of the touched branches restores canonical form.

That sweep is the same for every truncation policy: a bottom-up pass that
only moves the gauge (identity or QR, no rank search), then one walk of the
orthogonality center that SVDs every touched edge against the state's true
Schmidt spectrum. Exact mode keeps each edge at its Schmidt rank there, and
a truncating policy cuts there. The walk goes down the union of the touched
branches in child order and climbs back after each subtree, so a segment
the two gate branches share is factorized once.
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


class TtnState:
    """Mutable TTN statevector over a fixed tree topology."""

    def __init__(self, tree: TreeTopology, tensors: list[np.ndarray],
                 memory_cap: int = DEFAULT_MEMORY_CAP):
        self.tree = tree
        self.tensors = tensors
        self.memory_cap = memory_cap
        self.cap_events = 0

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
        return clone

    # -- gate application ---------------------------------------------------

    def apply_single_qubit(self, g: Gate):
        """Absorb a one-qubit gate into its leaf; dimensions never change."""
        if g.num_qubits != 1:
            raise ValueError("expected a one-qubit gate")
        leaf = self.tree.qubit_node[g.qubits[0]]
        self.tensors[leaf] = np.tensordot(g.matrix, self.tensors[leaf], axes=(1, 0))
        return self

    def thread_two_qubit(self, g: Gate) -> set[int]:
        """Split a two-qubit gate and thread its bond along the leaf-leaf path.

        Leaves absorb the gate factors (the new bond index is fused into
        each leaf's parent axis); every pass-through node on the path gets an
        identity connector tying its path-child axis to its parent axis, and
        the turning node a 1/sqrt(k) connector across its two path-child
        axes. Interior isometries survive; only the two leaves need
        re-orthonormalization. Returns the set of nodes the following sweep
        must visit (all ancestors of either leaf).
        """
        if g.num_qubits != 2:
            raise ValueError("expected a two-qubit gate")
        qa, qb = g.qubits
        g_a, g_b, k = split_gate(g)
        up_a, lca, up_b = self.tree.path_between(qa, qb)

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
        return set(self.tree.ancestors(up_a[0])) | set(self.tree.ancestors(up_b[0]))

    def apply_two_qubit(self, g: Gate, policy: TruncationPolicy = EXACT):
        """Two-qubit gate: thread, then restore canonical form on the touched
        branches under the given truncation policy."""
        dirty = self.thread_two_qubit(g)
        self.orthonormalize(policy, nodes=dirty)
        return self

    def apply(self, g: Gate, policy: TruncationPolicy = EXACT):
        if g.num_qubits == 1:
            return self.apply_single_qubit(g)
        return self.apply_two_qubit(g, policy)

    # -- canonical form -----------------------------------------------------

    def _absorb_up(self, nid: int, iso: np.ndarray, remainder: np.ndarray):
        """Set node `nid` to the isometry `iso` (downstream rows by new edge
        columns) and contract `remainder` (new edge by old edge) into its
        parent, moving the orthogonality center one edge up."""
        t = self.tensors[nid]
        self.tensors[nid] = iso.reshape(t.shape[:-1] + (iso.shape[1],))
        parent = self.tree.parent[nid]
        ci = self.tree.child_index(nid)
        pt = self.tensors[parent]
        # on (before, edge, after) stacks one matmul replaces the edge axis in place
        merged = remainder @ pt.reshape(math.prod(pt.shape[:ci]), pt.shape[ci], -1)
        new_shape = pt.shape[:ci] + (remainder.shape[0],) + pt.shape[ci + 1:]
        self.tensors[parent] = merged.reshape(new_shape)

    def _gauge_up(self, nid: int):
        """Gauge-only upward move, no rank search. A node whose downstream
        size p is at most its parent edge q becomes the identity and its
        whole matrix moves into the parent (the edge becomes p); otherwise a
        reduced QR keeps the edge at q."""
        t = self.tensors[nid]
        mat = t.reshape(-1, t.shape[-1])
        if mat.shape[0] <= mat.shape[1]:
            self._absorb_up(nid, np.eye(mat.shape[0], dtype=mat.dtype), mat)
            return
        try:
            q, rem = qr_econ(mat)
        except FactorizationError as exc:
            raise FactorizationError(f"node {nid}: {exc}") from exc
        self._absorb_up(nid, q, rem)

    def _split_down(self, parent: int, child: int, policy: TruncationPolicy):
        """Downward move of the orthogonality center from `parent` into
        `child`. With every other node isometric towards `parent`, the SVD of
        the parent matricized against the child's edge yields the state's
        true Schmidt spectrum across that edge, which both exposes the
        minimal edge dimension and is where the policy truncates."""
        ci = self.tree.child_index(child)
        t = self.tensors[parent]
        before = math.prod(t.shape[:ci])
        stacked = t.reshape(before, t.shape[ci], -1)  # (before, edge, after)
        mat = stacked.transpose(0, 2, 1).reshape(-1, t.shape[ci])
        try:
            fac = svd_econ(mat, threshold=RANK_TOL)
        except FactorizationError as exc:
            raise FactorizationError(f"node {parent}: {exc}") from exc
        _truncate_factors(fac, policy, self)
        u = fac.u.reshape(before, -1, fac.k).transpose(0, 2, 1)
        self.tensors[parent] = u.reshape(t.shape[:ci] + (fac.k,) + t.shape[ci + 1:])
        remainder = fac.s[:, None] * fac.v_dag  # (k, old child-edge dim)
        ct = self.tensors[child]
        merged = ct.reshape(-1, ct.shape[-1]) @ remainder.T
        self.tensors[child] = merged.reshape(ct.shape[:-1] + (fac.k,))

    def _reveal(self, leaves: list[int], policy: TruncationPolicy):
        """One walk of the orthogonality center from the root through the
        branches of `leaves` (in postorder) and back to the root.

        `path` is the walk's explicit stack, root to center. For each leaf
        the center climbs with `_gauge_up` out of the finished subtree to
        the first node shared with the leaf's branch, then descends with
        `_split_down`. A segment shared by several branches is thus
        factorized once each way.
        """
        path = [self.tree.postorder[-1]]
        for leaf in leaves:
            branch = self.tree.ancestors(leaf)[::-1]  # root .. leaf
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
        """Re-orthonormalization sweep over `nodes` (every node when None),
        the same for every policy.

        First a bottom-up pass that only moves the gauge (`_gauge_up`):
        children before parents (depth-first postorder), each non-root node
        made an isometry towards its parent, its remainder absorbed into the
        parent. No rank is searched for there. Then one walk (`_reveal`)
        moves the orthogonality center down every touched branch and back,
        splitting each touched edge by SVD against the state's true Schmidt
        spectrum: exact mode drops only numerically zero values, so every
        edge ends at its Schmidt rank, and a truncating policy cuts there.
        Edge dimensions never grow; the root is rescaled to unit norm at the
        end.
        """
        leaves = []
        for nid in self.tree.postorder:
            if self.tree.parent[nid] is None:
                continue
            if nodes is not None and nid not in nodes:
                continue
            if self.tree.is_leaf(nid):
                leaves.append(nid)
            self._gauge_up(nid)
        self._reveal(leaves, policy)
        root = self.tree.postorder[-1]
        nrm = np.linalg.norm(self.tensors[root])
        if nrm == 0:
            raise FactorizationError("state collapsed to zero norm")
        self.tensors[root] = self.tensors[root] / nrm
        return self

    def canonical_deviation(self) -> float:
        """Largest deviation of any non-root node from its isometry condition."""
        worst = 0.0
        for nid in range(self.tree.num_nodes):
            if self.tree.parent[nid] is None:
                continue
            t = self.tensors[nid]
            mat = t.reshape(-1, t.shape[-1])
            gram = mat.conj().T @ mat
            worst = max(worst, float(np.linalg.norm(gram - np.eye(t.shape[-1]))))
        return worst

    def norm(self) -> float:
        """Global norm; equals the root norm whenever the state is canonical."""
        root = self.tree.postorder[-1]
        return float(np.linalg.norm(self.tensors[root]))

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
