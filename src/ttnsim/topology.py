"""Rooted tree topologies whose leaves carry qubits.

`TreeTopology` is the immutable nested description (what the planner emits
and the file format stores); `FlatTree` is the derived indexed view (parents,
children, paths, and the min-rule bound of an edge) that the TTN engine and
the dry-run walker work on. `comb_topology` is the MPS site order written as
a tree, so the MPS dry-run is the tree dry-run on a comb.
"""

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Leaf:
    qubit: int


@dataclass(frozen=True)
class Internal:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("internal nodes need at least two children")


def node(children):
    """Wrap children in an internal node, collapsing single-child wrappers."""
    children = list(children)
    if len(children) == 1:
        return children[0]
    return Internal(tuple(children))


class TreeTopology:
    """A rooted tree whose leaves biject with qubits 0..N-1.

    The root may itself be a leaf only in the degenerate N=1 case.
    """

    def __init__(self, root):
        self.root = root
        leaves = [spec.qubit for spec, _ in _preorder(root) if isinstance(spec, Leaf)]
        n = len(leaves)
        if sorted(leaves) != list(range(n)):
            raise ValueError(f"leaves must biject with 0..{n - 1}, got {sorted(leaves)}")
        self.num_qubits = n

    def __eq__(self, other):
        if not isinstance(other, TreeTopology):
            return NotImplemented
        # the preorder walks, not the nested specs: the dataclass equality of
        # `Internal` recurses, and a comb over n qubits is n levels deep
        return _shape(self.root) == _shape(other.root)

    @property
    def height(self) -> int:
        return FlatTree(self).height[0]

    @property
    def max_arity(self) -> int:
        return max(map(len, FlatTree(self).children))


def _preorder(root):
    """Yield (spec, preorder index of its parent or None) for every node in
    DFS preorder. An explicit stack, not recursion: a comb over n qubits is
    n levels deep."""
    stack = [(root, None)]
    index = 0
    while stack:
        spec, parent = stack.pop()
        yield spec, parent
        if isinstance(spec, Internal):
            stack.extend((ch, index) for ch in reversed(spec.children))
        index += 1


def _shape(root) -> list[tuple]:
    """The tree as (leaf qubit, or None for an internal node, and parent
    index) per node in preorder; the parent indices fix every node's
    children in order, so two trees are equal exactly when these lists are."""
    return [(spec.qubit if isinstance(spec, Leaf) else None, parent)
            for spec, parent in _preorder(root)]


def perfect_tree(arity: int, height: int) -> TreeTopology:
    """Perfect m-ary topology with arity**height leaves, qubits left to right."""
    if arity < 2 or height < 1:
        raise ValueError("need arity >= 2 and height >= 1")

    counter = iter(range(arity**height))

    def build(level):
        if level == 0:
            return Leaf(next(counter))
        return Internal(tuple(build(level - 1) for _ in range(arity)))

    return TreeTopology(build(height))


def comb_topology(order) -> TreeTopology:
    """An MPS site order as a tree: node(leaf site0, node(leaf site1, ...
    node(leaf site n-2, leaf site n-1))).

    `order[q]` is the site of qubit q; `comb_bond_edges` finds the bonds in
    the comb's `FlatTree`.
    """
    order = list(order)
    if not order or sorted(order) != list(range(len(order))):
        raise ValueError(f"order must be a permutation of 0..{len(order) - 1}")
    qubit_at = sorted(range(len(order)), key=order.__getitem__)
    spec = Leaf(qubit_at[-1])
    for q in reversed(qubit_at[:-1]):
        spec = Internal((Leaf(q), spec))
    return TreeTopology(spec)


def comb_bond_edges(tree: "FlatTree") -> list[int]:
    """Edge ids of a comb's bonds, in site order: bond j, between sites j and
    j+1, is the edge above the spine node that holds sites j+1..n-1."""
    edges = []
    nid = 0
    while tree.children[nid]:
        nid = tree.children[nid][-1]
        edges.append(nid)
    return edges


# ---------------------------------------------------------------------------
# file format: a JSON document of nested nodes, {"leaf": q} or
# {"children": [node, ...]}.


def _spec_to_obj(spec):
    if isinstance(spec, Leaf):
        return {"leaf": spec.qubit}
    return {"children": [_spec_to_obj(ch) for ch in spec.children]}


def _obj_to_spec(obj):
    if "leaf" in obj:
        return Leaf(int(obj["leaf"]))
    return Internal(tuple(_obj_to_spec(ch) for ch in obj["children"]))


def dumps_topology(t: TreeTopology) -> str:
    return json.dumps(_spec_to_obj(t.root), separators=(",", ":")) + "\n"


def loads_topology(text: str) -> TreeTopology:
    return TreeTopology(_obj_to_spec(json.loads(text)))


def save_topology(t: TreeTopology, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_topology(t))


def load_topology(path) -> TreeTopology:
    with open(path, encoding="utf-8") as f:
        return loads_topology(f.read())


# ---------------------------------------------------------------------------
# indexed view


class FlatTree:
    """Indexed form of a topology: nodes numbered in DFS preorder, root = 0.

    Every node's edge to its parent is identified by the child node id, so
    per-edge tables from the engine and the dry-run walker line up.
    """

    def __init__(self, topo: TreeTopology):
        self.topology = topo
        self.parent: list[int | None] = []
        self.children: list[list[int]] = []
        self.leaf_qubit: list[int | None] = []
        for nid, (spec, parent_id) in enumerate(_preorder(topo.root)):
            self.parent.append(parent_id)
            self.children.append([])
            if parent_id is not None:
                self.children[parent_id].append(nid)
            self.leaf_qubit.append(spec.qubit if isinstance(spec, Leaf) else None)
        self.num_nodes = len(self.parent)
        self.num_qubits = topo.num_qubits
        self.qubit_node = {self.leaf_qubit[i]: i for i in range(self.num_nodes)
                           if self.leaf_qubit[i] is not None}
        self.height = [0] * self.num_nodes
        for nid in reversed(range(self.num_nodes)):
            if self.children[nid]:
                self.height[nid] = 1 + max(self.height[c] for c in self.children[nid])
        self.postorder = self._postorder()

    def _postorder(self) -> list[int]:
        # node, then children right to left, reversed: children left to right, then node
        order = []
        stack = [0]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(self.children[nid])
        return order[::-1]

    def is_leaf(self, nid: int) -> bool:
        return self.leaf_qubit[nid] is not None

    def child_index(self, nid: int) -> int:
        """Position of `nid` among its parent's children."""
        return self.children[self.parent[nid]].index(nid)

    def edge_bound(self, nid: int, dim) -> int:
        """Min-rule bound of the edge above `nid`, given edge dims `dim(edge)`:
        an economical SVD leaves it no larger than either matricization side,
        below (the child-edge dims, 2 for a leaf) or above (the parent's own
        edge, 1 at the root, times the sibling-edge dims)."""
        kids = self.children[nid]
        below = math.prod(map(dim, kids)) if kids else 2
        parent = self.parent[nid]
        above = 1 if self.parent[parent] is None else dim(parent)
        for sibling in self.children[parent]:
            if sibling != nid:
                above *= dim(sibling)
        return min(below, above)

    def ancestors(self, nid: int) -> list[int]:
        """Chain from `nid` up to and including the root."""
        chain = [nid]
        while self.parent[chain[-1]] is not None:
            chain.append(self.parent[chain[-1]])
        return chain

    def path_between(self, qa: int, qb: int) -> tuple[list[int], int, list[int]]:
        """Path structure between two leaves.

        Returns ``(up_a, lca, up_b)`` where `up_a` is the chain from qubit
        qa's leaf (inclusive) to just below the lowest common ancestor, and
        likewise `up_b`; `lca` is the turning-point node.
        """
        chain_a = self.ancestors(self.qubit_node[qa])
        chain_b = self.ancestors(self.qubit_node[qb])
        in_b = set(chain_b)
        lca = next(nid for nid in chain_a if nid in in_b)
        up_a = chain_a[: chain_a.index(lca)]
        up_b = chain_b[: chain_b.index(lca)]
        return up_a, lca, up_b

    def path_edges(self, qa: int, qb: int) -> list[int]:
        """Edges (as child node ids) the thread between two leaves crosses."""
        up_a, _, up_b = self.path_between(qa, qb)
        return up_a + up_b

    def edge_level(self, child_id: int) -> int:
        """Level of the edge above `child_id` (leaf edges are level 1)."""
        return self.height[child_id] + 1
