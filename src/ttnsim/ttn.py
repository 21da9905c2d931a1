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
between them. The identity connectors that carry the bond (the turning node,
the center, takes the compensating 1/sqrt(k) and keeps its norm) are never
built: threading gauges the path below the turning node into the center,
children first, and contracts each child's remainder through its connector
as it goes into the parent. So every public method leaves the state
canonical, and only the path below the turning node needs its edges
re-split. A gate inside a subtree cannot change the Schmidt spectrum across
any edge at or above its turning node, and nothing there is touched: on a
comb (the MPS) a nearest-neighbour gate costs the same at every site.

The sweep is the same for every truncation policy, the reveal: the center
walks to each touched leaf in turn and back, and each edge it descends is
split by SVD against the state's true Schmidt spectrum. Exact mode keeps
each edge at its Schmidt rank there, and a truncating policy cuts there.
The whole-tree sweep walks the center to the root first and reveals every
leaf.
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
    if policy.d_max is not None and keep > policy.d_max:
        state.cap_events += 1
        keep = policy.d_max
    if keep < fac.k:
        fac.u = fac.u[:, :keep]
        fac.s = fac.s[:keep]
        fac.v_dag = fac.v_dag[:keep, :]


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
        """Product basis state: all internal edges have dimension 1. Raises
        MemoryCapExceeded when its entries already exceed `memory_cap`."""
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
        entries = sum(t.size for t in tensors)
        if entries > memory_cap:
            raise MemoryCapExceeded(f"basis state needs {entries} entries (cap {memory_cap})")
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
        each leaf's parent axis, minor). Then the path nodes below the
        turning node move their gauge into it (`_gauge_up`), children before
        parents, and each child's remainder is contracted through the bond's
        identity connector on its edge as it goes into the parent
        (`_absorb_up`), so the k-fold larger connector tensors never exist.
        Below a pass-through node the connector ties the child's edge to the
        parent's parent axis. Below the turning node it ties the two path
        children's axes with the 1/sqrt(k): the first child absorbed carries
        it, and the second one's absorption is an ordinary one. The state is
        canonical around the turning node again, with the path edges not
        yet split to their Schmidt ranks.

        Returns the path nodes below the turning node, `up_a + up_b`, each
        chain from its leaf upwards: the following sweep reveals their
        leaves. The memory cap is checked against the materialized
        expansion, which bounds every tensor threading and the sweep build.
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

        second, first = sorted((up_a[-1], up_b[-1]))
        for nid in sorted(up_a + up_b, reverse=True):  # preorder ids: children first
            if k == 1 or nid == second:
                tie = None
            elif nid == first:
                tie = (self.tree.child_index(second), k)
            else:
                tie = (len(self.tree.children[self.tree.parent[nid]]), k)  # parent axis
            self._gauge_up(nid, tie)
        return up_a + up_b

    def apply_two_qubit(self, g: Gate, policy: TruncationPolicy = EXACT):
        """Two-qubit gate: thread, then split the path edges below the
        turning node under the given truncation policy (the reveal)."""
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

    def _absorb_up(self, nid: int, iso: np.ndarray, remainder: np.ndarray, tie=None):
        """Set node `nid` to the isometry `iso` (downstream rows by new edge
        columns) and contract `remainder` (new edge by old edge) into its
        parent, moving the orthogonality center one edge up.

        With `tie = (axis, k)` the edge carries a threaded bond's identity
        connector, contracted here instead of being built: the remainder's
        old edge is (d, k), the parent's axis d and the bond index k, the
        remainder is contracted over d alone, and k becomes the minor part
        of the parent's `axis`. That is its parent axis below a pass-through
        node; below the turning node it is the other path child's axis, and
        a tie to any axis but the parent's carries the 1/sqrt(k).
        """
        t = self.tensors[nid]
        self.tensors[nid] = iso.reshape(t.shape[:-1] + (iso.shape[1],))
        parent = self.tree.parent[nid]
        ci = self.tree.child_index(nid)
        pt = self.tensors[parent]
        new = remainder.shape[0]
        if tie is None:
            # on (before, edge, after) stacks one matmul replaces the edge
            # axis in place; with after = 1 (the root's last child) that would
            # be one matrix-vector product per row, so take one matrix
            # product instead
            stacked = pt.reshape(math.prod(pt.shape[:ci]), pt.shape[ci], -1)
            if stacked.shape[2] == 1:
                merged = stacked[:, :, 0] @ remainder.T
            else:
                merged = remainder @ stacked
            self.tensors[parent] = merged.reshape(pt.shape[:ci] + (new,) + pt.shape[ci + 1:])
            return
        tied, k = tie
        r = remainder.reshape(new, pt.shape[ci], k)
        if tied != pt.ndim - 1:
            r = r / math.sqrt(k)
        # one matrix product: the parent's other axes, then (new, k); then
        # new goes to axis ci and k right behind axis `tied`
        merged = np.tensordot(pt, r, axes=(ci, 1))
        perm = []
        for axis in range(pt.ndim):
            perm.append(pt.ndim - 1 if axis == ci else axis - (axis > ci))
            if axis == tied:
                perm.append(pt.ndim)
        shape = list(pt.shape)
        shape[ci] = new
        shape[tied] *= k
        self.tensors[parent] = merged.transpose(perm).reshape(shape)

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

    def _gauge_up(self, nid: int, tie=None):
        """Gauge-only upward move of the center from `nid` into its parent,
        no rank search (`_gauge_factors`), through the connector `tie`
        (`_absorb_up`)."""
        t = self.tensors[nid]
        self._absorb_up(nid, *_gauge_factors(t.reshape(-1, t.shape[-1]), nid), tie)

    def _gauge_down(self, parent: int, child: int):
        """Gauge-only downward move of the center from `parent` into
        `child`, no rank search (`_gauge_factors`)."""
        mat = self._against_child(parent, child)
        self._absorb_down(parent, child, *_gauge_factors(mat, parent))

    def _move_center(self, target: int, policy: TruncationPolicy | None = None):
        """Carry the orthogonality center to `target` along the tree path:
        `_gauge_up` while it climbs to the lowest common ancestor of the two,
        then `_gauge_down` while it descends, or `_split_down` under
        `policy` (the sweep's reveal). Edge dimensions never grow."""
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
            if policy is None:
                self._gauge_down(parent[child], child)
            else:
                self._split_down(parent[child], child, policy)
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

    def orthonormalize(self, policy: TruncationPolicy = EXACT, nodes=None):
        """Re-orthonormalization sweep, the same for every policy: the
        reveal of the leaves among `nodes`, as for the path nodes that
        `thread_two_qubit` returns. With None, the center first walks to
        the root (`_move_center`) and every leaf is revealed.

        The center walks under the policy (`_move_center`) to each leaf, in
        ascending (preorder) id order, and back. Consecutive walks meet at
        the leaves' lowest common ancestor, so each edge on the way is split
        once, by SVD against the state's true Schmidt spectrum: exact mode
        drops only numerically zero values, so every edge ends at its
        Schmidt rank, and a truncating policy cuts there. No edge ends above
        its threaded dimension; the center is rescaled to unit norm at the
        end.
        """
        if nodes is None:
            self._move_center(0)
            nodes = range(self.tree.num_nodes)
        center = self.center
        for leaf in sorted(nid for nid in nodes if self.tree.is_leaf(nid)):
            self._move_center(leaf, policy)
        self._move_center(center)
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
