"""Tree tensor network statevector engine.

A state is one tensor per tree node: leaves carry (physical=2, parent) axes,
internal nodes one axis per child plus a parent axis, and the root's parent
axis is a dimension-1 dummy. The state is kept in mixed canonical form around
one node, its orthogonality center (`TtnState.center`): every other tensor is
an isometry onto the axis that points towards the center (its parent axis,
unless the center lies below it), so the global norm is the center tensor's.

A two-qubit gate first carries the center, by gauge-only moves along the
tree, towards its turning node (the lowest common ancestor of its two
leaves), but only up to the first node of the tree path between them. The
gate is then Schmidt-split and its rank-k bond threaded through every node
on that path. Neither the gated leaves nor the identity connectors that
carry the bond are built: threading gauges the path below the turning node
into it, each side's chain from its leaf up. Each leaf and its gate factor
(the first one with the compensating 1/sqrt(k)) make one remainder that
goes into the leaf's parent, the leaf becoming the identity, and each
child's remainder is contracted through its connector as it goes into the
parent. Those climbs carry the center the rest of the way: a path node
needs no isometry before it is factored, and every node off the path
already points towards the path, so towards the turning node. The bond
index is fused as the major part of every axis it joins, and it only ever
lands in a later axis of the node it goes into than the one contracted: a
pass-through node's parent axis, the turning node's axis for its right
path child. Contracting a connector writes each bond slice straight into
its place in that axis. So every public method leaves the state canonical,
and only the path below the turning node needs its edges re-split. A gate
inside a subtree cannot change the Schmidt spectrum across any edge at or
above its turning node, and nothing there is touched: on a comb (the MPS) a
nearest-neighbour gate costs the same at every site.

The sweep is the same for every truncation policy, the reveal: the center
walks to each touched leaf's parent in turn, where the leaf's edge is split
in place, and stays at the last one; each edge it descends, and each leaf
edge, is split by SVD against the state's true Schmidt spectrum. Exact
mode keeps each edge at its Schmidt rank there, and a truncating policy
cuts there. The center never rests on a leaf, so no leaf's data crosses its
edge more than once a gate. The one exception is a binary root's second
edge. The root's parent axis has dimension 1, so both its edges cut the
state the same way, and the split of the first already revealed that
spectrum: the second is moved gauge-only, which leaves it at the first
edge's dimension: the Schmidt rank in exact mode, the first edge's cut
under a truncating policy. The whole-tree sweep walks the center to the
root first and reveals every leaf, so it ends at the parent of the last
leaf in preorder.

Almost every step of all this is one operation, a matrix contracted into
one axis of a node (`TtnState._contract`): a one-qubit gate into its leaf's
physical axis, the remainder of a center move across one edge
(`TtnState._move`, gauge-only or, in the reveal, by SVD) or of a leaf and
its gate factor into the neighbour, through a bond's connector while
threading, and, in the read-out, each node into its parent's axis for it.
A leaf split (`TtnState._split_leaf`) instead writes the parent's share of
its SVD straight into the parent's new tensor.
"""

import math

import numpy as np

from .circuits import Circuit
from .errors import FactorizationError, MemoryCapExceeded
from .gates import Gate, split_gate
from .statevector import DEFAULT_MEMORY_CAP, DEFAULT_QUBIT_CAP, StateMetrics
from .tensors import EXACT, RANK_TOL, TruncationPolicy, qr_econ, svd_econ
from .topology import TreeTopology


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

    def apply(self, g: Gate, policy: TruncationPolicy = EXACT):
        """Apply a gate. A one-qubit gate is contracted into its leaf's
        physical axis (dimensions never change); a two-qubit gate is
        threaded, then the path edges below its turning node are split under
        the given truncation policy (the reveal)."""
        if g.num_qubits == 1:
            self._contract(self.tree.qubit_node[g.qubits[0]], 0, g.matrix)
            return self
        return self.orthonormalize(policy, nodes=self.thread_two_qubit(g))

    def thread_two_qubit(self, g: Gate) -> list[int]:
        """Split the gate, thread its bond along the leaf-leaf path and
        leave the center at the gate's turning node.

        The center first walks (`_move_center`) towards the turning node
        only until it meets a node of the path (at once if it sits on the
        path, as for a gate on the last revealed leaf's qubit: the center
        rests at that leaf's parent). Then the path nodes below the
        turning node move the center into it, the left chain (the one under
        the turning node's lower child axis) and then the right one, each
        from its leaf up. A leaf and its gate factor, the first leaf's
        `g_a / sqrt(k)` so that the two factors make up the gate itself
        (`split_gate`), make one (2, k*e) remainder with the new bond index
        major, which goes into the parent as a move's remainder would; the
        leaf becomes the identity (or, for a rank-1 gate on a rank-1 leaf,
        the isometry of a QR, as `_move` factors it). A path node above
        the leaves is factored whole (`_move`), whichever way it pointed,
        and every node off the path already points towards the path. Each
        child's remainder is contracted through the bond's identity
        connector on its edge as it goes into the parent (`_contract`), so
        the k-fold larger connector tensors never exist. Below a
        pass-through node the connector ties the child's edge to the
        parent's parent axis. Below the turning node the left chain's top
        ties its edge to the right path child's axis, and the right chain's
        top is then absorbed untied. The state is canonical around the
        turning node again, with the path edges not yet split to their
        Schmidt ranks.

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
        # threading's climbs carry the center from any path node to the
        # turning node, so it walks only to the first path node it meets
        up, _, down = self.tree.path(self.center, lca)
        on_path = set(up_a + up_b)
        self._move_center(lca if down else next((n for n in up if n in on_path), lca))

        affected = (self.tensors[up_a[0]].size + self.tensors[up_b[0]].size) * k
        affected += sum(self.tensors[n].size for n in up_a[1:] + up_b[1:] + [lca]) * k * k
        untouched = sum(t.size for t in self.tensors)
        untouched -= sum(self.tensors[n].size for n in up_a + up_b + [lca])
        if untouched + affected > self.memory_cap:
            raise MemoryCapExceeded(
                f"gate {g.label} on {g.qubits} needs {untouched + affected} entries "
                f"(cap {self.memory_cap})"
            )

        factors = {up_a[0]: g_a / math.sqrt(k), up_b[0]: g_b}  # (out, in, k)
        left, right = sorted((up_a, up_b), key=lambda up: up[-1])  # preorder ids
        for nid in left + right:
            parent = self.tree.parent[nid]
            if nid == right[-1]:
                tie = None
            elif nid == left[-1]:
                tie = (self.tree.child_index(right[-1]), k)
            else:
                tie = (len(self.tree.children[parent]), k)  # parent axis
            if nid in factors:
                # the leaf and its factor as one (2, k*e) remainder, k major
                factor = factors[nid].transpose(0, 2, 1).reshape(2 * k, 2)
                leaf = (factor @ self.tensors[nid]).reshape(2, -1)
                if leaf.shape[1] >= 2:
                    self.tensors[nid] = np.eye(2, dtype=leaf.dtype)
                    self._contract(parent, self.tree.child_index(nid), leaf, tie)
                    continue
                self.tensors[nid] = leaf  # (2, 1): a QR keeps its edge at 1
            self._move(nid, parent, tie=tie)
        self.center = lca
        return up_a + up_b

    # -- canonical form -----------------------------------------------------

    def _axis(self, nid: int, neighbour: int) -> int:
        """Node `nid`'s axis towards its tree neighbour `neighbour`: the
        parent axis is last, a child axis is that child's index."""
        if neighbour == self.tree.parent[nid]:
            return self.tensors[nid].ndim - 1
        return self.tree.child_index(neighbour)

    def _matricize(self, nid: int, axis: int) -> np.ndarray:
        """Node `nid` matricized against `axis`: that axis as columns,
        every other axis (in order) as rows."""
        t = self.tensors[nid]
        stacked = t.reshape(math.prod(t.shape[:axis]), t.shape[axis], -1)  # (before, edge, after)
        return stacked.transpose(0, 2, 1).reshape(-1, t.shape[axis])

    def _move(self, src: int, dst: int, policy: TruncationPolicy | None = None, tie=None):
        """Move the orthogonality center from `src` across the edge to its
        neighbour `dst`: factor `src`, matricized against that edge, as
        `iso @ remainder`, keep the isometry at `src` with the new edge in
        place of the old axis, and contract the remainder into `dst`
        (`_contract`, through the connector `tie`).

        Without a policy the move is gauge-only, no rank search: with no
        more rows than columns `iso` is the identity and the whole matrix
        is the remainder, otherwise a reduced QR keeps the edge at the
        column count. Under `policy` (the sweep's reveal, with every other
        node isometric towards `src`) the SVD yields the state's true
        Schmidt spectrum across the edge, which both exposes the minimal
        edge dimension and is where the policy truncates."""
        axis = self._axis(src, dst)
        mat = self._matricize(src, axis)
        try:
            if policy is not None:
                fac = svd_econ(mat, threshold=RANK_TOL)
                keep, capped = policy.rank(fac.s)
                self.cap_events += capped
                iso, remainder = fac.u[:, :keep], fac.s[:keep, None] * fac.v_dag[:keep]
            elif mat.shape[0] <= mat.shape[1]:
                iso, remainder = np.eye(mat.shape[0], dtype=mat.dtype), mat
            else:
                iso, remainder = qr_econ(mat)
        except FactorizationError as exc:
            raise FactorizationError(f"node {src}: {exc}") from exc
        t = self.tensors[src]
        new = iso.shape[1]
        # `_matricize` undone: the new edge goes back to `axis`
        stacked = iso.reshape(math.prod(t.shape[:axis]), -1, new).transpose(0, 2, 1)
        self.tensors[src] = stacked.reshape(t.shape[:axis] + (new,) + t.shape[axis + 1:])
        self._contract(dst, self._axis(dst, src), remainder, tie)

    def _contract(self, nid: int, axis: int, remainder: np.ndarray, tie=None):
        """Contract `remainder` (new edge by old edge) into node `nid`'s
        `axis`, which becomes the new edge.

        With `tie = (tied, k)` the edge carries a threaded bond's identity
        connector, contracted here instead of being built: the remainder's
        old edge is (k, d), the bond index k and the axis d, the remainder
        is contracted over d alone, and k becomes the major part of the
        node's axis `tied`, which must come after `axis` (`tied > axis`).
        That is a pass-through node's parent axis, and at the turning node
        the right path child's axis. The connector carries no scale (the
        first leaf's gate factor holds the 1/sqrt(k)). The
        node's new tensor is allocated once, and one matmul over the k bond
        slices writes each slice into its place there: no axis move, and no
        copy of an operand or of the result.
        """
        t = self.tensors[nid]
        new = remainder.shape[0]
        if tie is None:
            # on (before, edge, after) stacks one matmul replaces the edge
            # axis in place; with after = 1 (a parent axis, or the root's
            # last child) that would be one matrix-vector product per row,
            # so take one matrix product instead
            stacked = t.reshape(math.prod(t.shape[:axis]), t.shape[axis], -1)
            if stacked.shape[2] == 1:
                merged = stacked[:, :, 0] @ remainder.T
            else:
                merged = remainder @ stacked
            self.tensors[nid] = merged.reshape(t.shape[:axis] + (new,) + t.shape[axis + 1:])
            return
        tied, k = tie
        d = t.shape[axis]
        slices = remainder.reshape(new, k, d).transpose(1, 0, 2)  # (k, new, d): one per bond index
        shape = list(t.shape)
        shape[axis] = new
        shape[tied] *= k
        out = np.empty(shape, np.promote_types(t.dtype, remainder.dtype))
        # a view of `out` as (before, new, mid, k, trail) splits `tied` into
        # (k, rest of `tied`); the axes between the contracted and the tied
        # one (mid), which k interleaves, are a batch axis of the matmul next
        # to k
        before, mid = math.prod(t.shape[:axis]), math.prod(t.shape[axis + 1:tied])
        view = out.reshape(before, new, mid, k, -1).transpose(3, 0, 2, 1, 4)
        np.matmul(slices[:, None, None], t.reshape(before, d, mid, -1).transpose(0, 2, 1, 3),
                  out=view)
        self.tensors[nid] = out

    def _move_center(self, target: int, policy: TruncationPolicy | None = None,
                     gauge_root: bool = False):
        """Carry the orthogonality center to `target` along the tree path
        (`TreeTopology.path`), one `_move` per edge: gauge-only while it
        climbs to the lowest common ancestor of the two, then gauge-only or,
        under `policy`, by SVD (the sweep's reveal) while it descends. Edge
        dimensions never grow. The reveal walks to each revealed leaf's
        parent, never to the leaf: `_split_leaf` splits the leaf's edge in
        place.

        With `gauge_root` (a binary root whose first edge the reveal has
        already split) a walk through the root descends into its second
        child gauge-only. Both root edges cut the state the same way (the
        root's parent axis has dimension 1): the root is then a (keep x d)
        matrix of full row rank with keep <= d, so the gauge move leaves the
        second edge at keep (the Schmidt rank in exact mode), and a second
        SVD would only re-derive the spectrum."""
        up, top, down = self.tree.path(self.center, target)
        parent = self.tree.parent
        for node in up:
            self._move(node, parent[node])
        if gauge_root and down and top == 0:
            self._move(top, down.pop())
        for child in reversed(down):
            self._move(parent[child], child, policy)
        self.center = target

    def _split_leaf(self, leaf: int, policy: TruncationPolicy | None, last: bool):
        """Split the edge between `leaf` and its parent, the center, in
        place: the SVD of the parent matricized against the leaf's axis,
        `u s v_dag` cut by `policy.rank`. The parent keeps `u s`, written
        once into its new tensor in its own axis order, so the center stays
        there; the leaf becomes `leaf @ v_dag.T`, an isometry towards it.
        The reveal's `last` split divides its kept `s` by their norm, which
        normalizes the state.

        Without a policy the split is gauge-only: the second edge of a
        binary root whose first edge the reveal has split (`_move_center`).
        The root is then a (d x e) matrix with d <= e <= 2 (the leaf's
        edge), and the leaf is the reveal's last. With d = e the root is
        only normalized; with d = 1 < e the leaf takes the root's one
        normalized row, and the root becomes 1."""
        parent = self.center
        t = self.tensors[parent]
        if policy is None:
            mat = t.reshape(t.shape[:2])
            nrm = np.linalg.norm(mat)
            if nrm == 0:
                raise FactorizationError("state collapsed to zero norm")
            if mat.shape[0] == mat.shape[1]:
                self.tensors[parent] = t / nrm
            else:
                self.tensors[leaf] = self.tensors[leaf] @ (mat.T / nrm)
                self.tensors[parent] = np.ones((1, 1, 1), t.dtype)
            return
        axis = self.tree.child_index(leaf)
        try:
            fac = svd_econ(self._matricize(parent, axis), threshold=RANK_TOL)
        except FactorizationError as exc:
            raise FactorizationError(f"node {parent}: {exc}") from exc
        keep, capped = policy.rank(fac.s)
        self.cap_events += capped
        s = fac.s[:keep]
        if last:
            nrm = np.linalg.norm(s)
            if nrm == 0:
                raise FactorizationError("state collapsed to zero norm")
            s = s / nrm
        # u's rows are the parent's other axes in order: its kept columns,
        # scaled by s, go straight into `axis`
        before = math.prod(t.shape[:axis])
        out = np.empty(t.shape[:axis] + (keep,) + t.shape[axis + 1:], fac.u.dtype)
        np.multiply(fac.u[:, :keep].reshape(before, -1, keep).transpose(0, 2, 1), s[:, None],
                    out=out.reshape(before, keep, -1))
        self.tensors[parent] = out
        self.tensors[leaf] = self.tensors[leaf] @ fac.v_dag[:keep].T

    def orthonormalize(self, policy: TruncationPolicy = EXACT, nodes=None):
        """Re-orthonormalization sweep, the same for every policy: the
        reveal of the leaves among `nodes`, as for the path nodes that
        `thread_two_qubit` returns. With None, the center first walks to
        the root (`_move_center`) and every leaf is revealed.

        The center walks under the policy (`_move_center`) to each leaf's
        parent, in ascending (preorder) leaf id order, and the leaf's edge
        is split there in place (`_split_leaf`): the center never rests on
        a leaf, and stays at the last revealed leaf's parent. Consecutive
        walks meet at the leaves' lowest common ancestor, so each edge on
        the way is split once, by SVD against the state's true Schmidt
        spectrum: exact mode drops only numerically zero values, so every
        edge ends at its Schmidt rank, and a truncating policy cuts there.
        The exception is a binary root's second edge: once the reveal has
        split a root edge (it starts at the root, and its first walk or
        leaf split does so), the second is moved gauge-only, by a walk
        (`_move_center`) or in place at the root (`_split_leaf`), which
        keeps it at the Schmidt rank; so the leaves must lie below the
        center, as a thread's do. Raises ValueError, before any move, for a
        leaf that does not. No edge ends above its threaded dimension; the
        last split normalizes the state.
        """
        tree = self.tree
        # a lone root leaf (one qubit) has no edge to split
        if nodes is None:
            self._move_center(0)
            leaves = [nid for nid in range(1, tree.num_nodes) if tree.is_leaf(nid)]
        else:
            leaves = sorted(nid for nid in nodes if nid != 0 and tree.is_leaf(nid))
            for leaf in leaves:
                if tree.path(leaf, self.center)[2]:
                    raise ValueError(f"leaf {leaf} does not lie below the center {self.center}")
        binary_root = self.center == 0 and len(tree.children[0]) == 2
        for i, leaf in enumerate(leaves):
            parent, gauge = tree.parent[leaf], binary_root and i > 0
            self._move_center(parent, policy, gauge)
            self._split_leaf(leaf, None if gauge and parent == 0 else policy, leaf == leaves[-1])
        return self

    def canonical_deviation(self) -> float:
        """Largest deviation of any non-center node from its isometry
        condition towards the center."""
        chain = self.tree.ancestors(self.center)
        toward = dict(zip(chain[1:], chain))  # center's ancestors: child towards it
        worst = 0.0
        for nid in range(self.tree.num_nodes):
            if nid == self.center:
                continue
            mat = self._matricize(nid, self._axis(nid, toward.get(nid, self.tree.parent[nid])))
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

        # postorder, on a throwaway list: each node, matricized against its
        # parent axis, is contracted into the parent's axis for it, so that
        # axis becomes the node's qubits; a loop, not recursion, as combs are
        # deep. The root's axes end up as the qubits in preorder.
        walk = TtnState(self.tree, list(self.tensors))
        for nid in self.tree.postorder[:-1]:
            parent = self.tree.parent[nid]
            walk._contract(parent, walk._axis(parent, nid),
                           walk._matricize(nid, walk._axis(nid, parent)))
            walk.tensors[nid] = None  # contracted: drop it
        vec = walk.tensors[0].reshape([2] * n)  # root parent axis is the trailing dummy
        order = [q for q in self.tree.leaf_qubit if q is not None]
        perm = [order.index(q) for q in range(n)]
        return np.ascontiguousarray(vec.transpose(perm)).reshape(-1)

    def edge_dim(self, child_id: int) -> int:
        """Dimension of the edge between `child_id` and its parent."""
        return self.tensors[child_id].shape[-1]

    def metrics(self) -> StateMetrics:
        d_max = max(max(t.shape) for t in self.tensors)
        m_entries = sum(t.size for t in self.tensors)
        return StateMetrics(int(d_max), int(m_entries))


def run_circuit(circuit: Circuit, topology: TreeTopology,
                policy: TruncationPolicy = EXACT) -> TtnState:
    """Simulate a whole circuit from |0...0> on the given topology."""
    state = TtnState.basis_state(topology, [0] * circuit.num_qubits)
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
