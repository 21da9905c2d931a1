"""Tree tensor network statevector engine.

A state is one tensor per tree node: leaves carry (physical=2, parent) axes,
internal nodes one axis per child plus a parent axis, and the root's parent
axis is a dimension-1 dummy, so a binary root's two edges are one edge: the
engine stores such a root spliced into its first internal child (`_spliced`),
`[A, B]` as `[*A, B]` and `[a, B]` as `[a, *B]` for a leaf `a`. The state is
kept in mixed canonical form around one node, its orthogonality center
(`TtnState.center`): every other tensor is an isometry onto the axis that
points towards the center (its parent axis, unless the center lies below
it), so the global norm is the center tensor's.

A two-qubit gate first walks the center, gauge-only, towards its turning
node (the lowest common ancestor of its two leaves), but only up to the
first node of the tree path between them. The gate is then
Schmidt-split and its rank-k bond threaded through every node on that path:
each path node below the turning node moves the center up into its parent,
each side's chain from its leaf up, a leaf once its gate factor is folded in
(the first one's with the compensating 1/sqrt(k)). Every node off the path
already points towards the path, so these climbs leave the center at the
turning node. The bond's identity connectors are never built: the bond index
is fused as the major part of every axis it joins, and it only ever lands in
a later axis of the node it goes into than the one contracted (a
pass-through node's parent axis, the turning node's axis for its right path
child), each slice written straight into its place.

Then the reveal, the same for every truncation policy: the center walks to
each touched leaf's parent in turn, in preorder, and stays at the last one.
Each edge it descends is split against the state's true Schmidt
spectrum, where exact mode keeps the Schmidt rank and a truncating policy
cuts: the source is factored as a gauge-only move factors it (an identity
or a reduced QR's isometry, and a remainder), and the remainder's singular
values, alone, are the spectrum across the edge. A leaf's edge is split by
one 2x2 Jacobi rotation (`svd_two_cols`), in place at its parent, so the
center never rests on a leaf and no leaf's data crosses its edge more than
once a gate. Every split writes only where a value drops: otherwise the
gauge move already leaves an isometry on the edge (a leaf edge of
dimension 2 is left as it is, as the leaf, a 2x2 unitary, is one), and a
split would only rotate its gauge; where one drops, the remainder's
singular vectors rotate the kept Schmidt vectors into the edge. A gate
inside a subtree changes no Schmidt spectrum at or above its turning node,
and nothing there is touched: on a comb (the MPS) a nearest-neighbour gate
costs the same at every site. The whole-tree sweep walks the center to the
root first and reveals every leaf, so it ends at the parent of the last
leaf in preorder.

Every step of all this is one of two operations. `TtnState._move` factors a
node across one edge (gauge-only, or in the reveal by its gauge factors,
rotated where a value drops, or into a leaf by the rotation) and contracts
the remainder into the neighbour; `TtnState._contract` contracts a matrix
into one axis of a node: a move's remainder (through a bond's connector
while threading), a one-qubit gate into its leaf's physical axis, and in
the read-out each node into its parent's axis for it.
"""

import math

import numpy as np

from .circuits import Circuit
from .errors import FactorizationError, MemoryCapExceeded
from .gates import Gate, split_gate
from .statevector import DEFAULT_MEMORY_CAP, DEFAULT_QUBIT_CAP, StateMetrics
from .tensors import (EXACT, RANK_TOL, TruncationPolicy, numerical_rank, qr_econ, svd_econ,
                      svd_two_cols)
from .topology import TreeTopology


def _spliced(tree: TreeTopology):
    """The tree the engine stores a state of `tree` on, and the map from
    `tree`'s edges (by child id) to its own: `tree` itself, unless its root
    is binary over an internal child, into the first of which the root is
    then spliced (see the module docstring). Leaf preorder is unchanged; that
    child's id goes, the ids after it move down by one, and its edge maps to
    the other root child's. Built on first use and kept with `tree`."""
    if hasattr(tree, "_spliced"):
        return tree._spliced
    kids = tree.children[0]
    internal = [c for c in kids if not tree.is_leaf(c)]
    if len(kids) == 2 and internal:
        cut = internal[0]
        other = kids[1] if cut == kids[0] else kids[0]
        specs = [None] * tree.num_nodes
        for nid in tree.postorder[:-1]:
            specs[nid] = [specs[c] for c in tree.children[nid]] or tree.leaf_qubit[nid]
        spec = [*specs[cut], specs[other]] if cut == kids[0] else [specs[other], *specs[cut]]
        edge = [nid - (nid > cut) for nid in range(tree.num_nodes)]
        edge[cut] = edge[other]
        tree._spliced = TreeTopology(spec), edge
    else:
        tree._spliced = tree, range(tree.num_nodes)
    return tree._spliced


class TtnState:
    """Mutable TTN statevector over a fixed tree topology, in mixed canonical
    form around the node `center` (the root at construction). `center`,
    `tensors` and the node ids that `thread_two_qubit` returns and
    `orthonormalize` takes are those of the spliced tree (`_spliced`) the
    engine walks; `edge_dim` takes `tree`'s edge ids."""

    def __init__(self, tree: TreeTopology, tensors: list[np.ndarray],
                 memory_cap: int = DEFAULT_MEMORY_CAP):
        self.tree = tree
        self._tree, self._edge = _spliced(tree)
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
        spliced = _spliced(tree)[0]
        tensors = []
        for nid in range(spliced.num_nodes):
            q = spliced.leaf_qubit[nid]
            if q is not None:
                tensors.append(np.array([[1.0 - bits[q]], [bits[q]]], dtype=np.complex128))
            else:
                tensors.append(np.ones([1] * (len(spliced.children[nid]) + 1), dtype=np.complex128))
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
            g.check_range(self.tree.num_qubits)
            self._contract(self._tree.qubit_node[g.qubits[0]], 0, g.matrix)
            return self
        return self.orthonormalize(policy, nodes=self.thread_two_qubit(g))

    def thread_two_qubit(self, g: Gate) -> list[int]:
        """Split the gate, thread its bond along the leaf-leaf path and
        leave the center at the gate's turning node, as the module docstring
        describes, with the path edges not yet split to their Schmidt ranks.

        Each path node below the turning node moves the center into its
        parent (`_move`), whose `tie` contracts the bond's identity
        connector on that edge: below a pass-through node into the parent's
        parent axis, and from the left chain's top into the turning node's
        axis for the right path child; the right chain's top goes in untied.

        Returns the path nodes below the turning node, `up_a + up_b`, each
        chain from its leaf upwards, for the reveal (`orthonormalize`). The
        memory cap is checked against the materialized expansion, which
        bounds every tensor threading and the sweep build.
        """
        if g.num_qubits != 2:
            raise ValueError("expected a two-qubit gate")
        g.check_range(self.tree.num_qubits)
        tree = self._tree
        qa, qb = g.qubits
        g_a, g_b, k = split_gate(g)
        up_a, lca, up_b = tree.path_between(qa, qb)
        # threading's climbs carry the center from any path node to the
        # turning node, so it walks only to the first path node it meets
        up, _, down = tree.path(self.center, lca)
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
            parent = tree.parent[nid]
            if nid == right[-1]:
                tie = None
            elif nid == left[-1]:
                tie = (tree.child_index(right[-1]), k)
            else:
                tie = (len(tree.children[parent]), k)  # parent axis
            if nid in factors:
                # the leaf and its factor as one (2, k*e) tensor, k major
                factor = factors[nid].transpose(0, 2, 1).reshape(2 * k, 2)
                self.tensors[nid] = (factor @ self.tensors[nid]).reshape(2, -1)
            self._move(nid, parent, tie=tie)
        self.center = lca
        return up_a + up_b

    # -- canonical form -----------------------------------------------------

    def _axis(self, nid: int, neighbour: int) -> int:
        """Node `nid`'s axis towards its tree neighbour `neighbour`: the
        parent axis is last, a child axis is that child's index."""
        if neighbour == self._tree.parent[nid]:
            return self.tensors[nid].ndim - 1
        return self._tree.child_index(neighbour)

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

        Without a policy the move is gauge-only: with no more rows than
        columns `iso` is the identity and the whole matrix the remainder,
        otherwise a reduced QR keeps the edge at the column count. Under
        `policy` (the reveal, every other node isometric towards `src`) the
        same factors are taken, and the remainder's singular values, the
        state's Schmidt spectrum across the edge, are cut by `policy.rank`.
        Where that keeps all r = min(rows, columns) of them the gauge move
        is the split; where a value drops, one SVD of the remainder,
        ``u s v_dag``, makes `iso @ u` the isometry and ``s v_dag`` the
        remainder, cut, and renormalized where the policy cut. Into a leaf the
        split is made in place and the center stays at `src`: the singular
        values and right vectors `v` of the (p, 2) matrix come from
        `svd_two_cols`, and nothing is written unless one value drops
        (a leaf edge of dimension 1 has nothing to split); then `src` keeps
        `u s = m v[:, 0]` with the leaf's axis one wide and the leaf
        becomes `leaf @ conj(v[:, :1])`. A failed factorization is raised
        again as `node {src}: ...`."""
        axis = self._axis(src, dst)
        t = self.tensors[src]
        into_leaf = policy is not None and self._tree.is_leaf(dst)
        if into_leaf and t.shape[axis] == 1:
            return
        mat = self._matricize(src, axis)
        try:
            if into_leaf:
                s, v = svd_two_cols(mat)
                s = s[:numerical_rank(s, RANK_TOL)]
            else:
                # the gauge factors; None stands for an identity `iso`
                iso, remainder = (None, mat) if mat.shape[0] <= mat.shape[1] else qr_econ(mat)
                if policy is not None:
                    s = svd_econ(remainder, threshold=RANK_TOL, vectors=False)
            if policy is not None:
                keep, capped = policy.rank(s)
                drops = not into_leaf and keep < len(remainder)
                if drops:
                    fac = svd_econ(remainder)
        except FactorizationError as exc:
            raise FactorizationError(f"node {src}: {exc}") from exc
        if policy is not None:
            self.cap_events += capped
            if into_leaf:
                if keep == 2:
                    return
                # src keeps u s = m v[:, 0], renormalized where the policy
                # cut; a one-wide axis goes into its place with no transpose
                col = v[:, 0] / s[0] if keep < len(s) else v[:, 0]
                self.tensors[src] = (mat @ col).reshape(t.shape[:axis] + (1,) + t.shape[axis + 1:])
                self.tensors[dst] = self.tensors[dst] @ v[:, :1].conj()
                return
            if drops:
                # the remainder's left vectors rotate the kept Schmidt
                # vectors into the edge
                kept = fac.s[:keep]
                if keep < len(s):
                    nrm = np.linalg.norm(kept)
                    if nrm == 0:
                        raise FactorizationError("state collapsed to zero norm")
                    kept = kept / nrm
                u = fac.u[:, :keep]
                iso = u if iso is None else iso @ u
                remainder = kept[:, None] * fac.v_dag[:keep]
        if iso is None:
            iso = np.eye(mat.shape[0], dtype=mat.dtype)
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

    def _move_center(self, target: int, policy: TruncationPolicy | None = None):
        """Carry the orthogonality center to `target` along the tree path
        (`TreeTopology.path`), one `_move` per edge: gauge-only while it
        climbs to the lowest common ancestor of the two, then gauge-only or,
        under `policy`, split while it descends."""
        up, _, down = self._tree.path(self.center, target)
        parent = self._tree.parent
        for node in up:
            self._move(node, parent[node])
        for child in reversed(down):
            self._move(parent[child], child, policy)
        self.center = target

    def orthonormalize(self, policy: TruncationPolicy = EXACT, nodes=None):
        """Re-orthonormalization sweep, the same for every policy: the
        reveal (see the module docstring) of the leaves among `nodes`, as
        `thread_two_qubit` returns them. With None, the center first walks
        to the root and every leaf is revealed.

        Each edge the center descends, and each leaf's edge, is split once
        at the center, by its gauge factors and the remainder's singular
        values, with a rotation only where a value drops, against the
        state's Schmidt spectrum: in exact
        mode to its Schmidt rank, and where a truncating policy cuts, it
        renormalizes the state; exact mode does not rescale. The climbs are
        gauge-only, so the leaves may lie anywhere. No edge ends above its
        threaded dimension, and the center ends at the parent of the last
        revealed leaf.
        """
        tree = self._tree
        # a lone root leaf (one qubit) has no edge to split
        if nodes is None:
            self._move_center(0)
            leaves = [nid for nid in range(1, tree.num_nodes) if tree.is_leaf(nid)]
        else:
            leaves = sorted(nid for nid in nodes if nid != 0 and tree.is_leaf(nid))
        for leaf in leaves:
            self._move_center(tree.parent[leaf], policy)
            self._move(self.center, leaf, policy)
        return self

    def canonical_deviation(self) -> float:
        """Largest deviation of any non-center node from its isometry
        condition towards the center."""
        chain = self._tree.ancestors(self.center)
        toward = dict(zip(chain[1:], chain))  # center's ancestors: child towards it
        worst = 0.0
        for nid in range(self._tree.num_nodes):
            if nid == self.center:
                continue
            mat = self._matricize(nid, self._axis(nid, toward.get(nid, self._tree.parent[nid])))
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
        for nid in self._tree.postorder[:-1]:
            parent = self._tree.parent[nid]
            walk._contract(parent, walk._axis(parent, nid),
                           walk._matricize(nid, walk._axis(nid, parent)))
            walk.tensors[nid] = None  # contracted: drop it
        vec = walk.tensors[0].reshape([2] * n)  # root parent axis is the trailing dummy
        order = [q for q in self.tree.leaf_qubit if q is not None]
        perm = [order.index(q) for q in range(n)]
        return np.ascontiguousarray(vec.transpose(perm)).reshape(-1)

    def edge_dim(self, child_id: int) -> int:
        """Dimension of the edge between `child_id` and its parent in `tree`;
        both children of a spliced root report the one edge's."""
        return self.tensors[self._edge[child_id]].shape[-1]

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
