"""Rooted tree topologies whose leaves carry qubits.

A tree is written as nested lists: an int is a leaf's qubit, and a list of
two or more specs is an internal node, so `TreeTopology([[0, 1], 2])` is a
root over the pair (0, 1) and qubit 2. The planner and the builders below
emit this form, and the file format stores it. `TreeTopology` walks it once
and keeps only its index: parents, children, paths, and the min-rule bound of
an edge (`TreeTopology.edge_bound`). The TTN engine and the dry-run walker
work on it directly. `comb_topology` is the MPS site order written as a tree,
so the MPS engine and its dry-run are the tree ones on a comb.
"""

import json
import math

from .errors import doc_field, doc_int, doc_loads


def node(children):
    """An internal node over `children`, or the lone child itself."""
    children = list(children)
    return children[0] if len(children) == 1 else children


class TreeTopology:
    """A rooted tree whose leaves biject with qubits 0..N-1, indexed once.

    Built from a nested spec (an int leaf, or a list of two or more specs)
    that is walked once and not kept. Nodes are numbered in DFS preorder,
    root = 0. Every node's edge to its parent is identified by the child node
    id, so per-edge tables from the engine and the dry-run walker line up. The
    root may itself be a leaf only in the degenerate N=1 case.
    """

    def __init__(self, spec):
        self.parent: list[int | None] = []
        self.children: list[list[int]] = []
        self.leaf_qubit: list[int | None] = []
        seen = set()  # ids of the spec's lists: one met twice would make a cycle
        # DFS preorder on an explicit stack, not recursion: a comb over n
        # qubits is n levels deep
        stack = [(spec, None)]
        while stack:
            spec, parent_id = stack.pop()
            nid = len(self.parent)
            self.parent.append(parent_id)
            self.children.append([])
            if parent_id is not None:
                self.children[parent_id].append(nid)
            if isinstance(spec, list):
                if len(spec) < 2:
                    raise ValueError("internal nodes need at least two children")
                if id(spec) in seen:
                    raise ValueError("a list appears twice in the tree spec")
                seen.add(id(spec))
                stack.extend((ch, nid) for ch in reversed(spec))
                self.leaf_qubit.append(None)
            else:
                self.leaf_qubit.append(doc_int(spec, "a leaf"))
        leaves = sorted(q for q in self.leaf_qubit if q is not None)
        n = len(leaves)
        if leaves != list(range(n)):
            raise ValueError(f"leaves must biject with 0..{n - 1}, got {leaves}")
        self.num_qubits = n
        self.num_nodes = len(self.parent)
        self.qubit_node = {q: nid for nid, q in enumerate(self.leaf_qubit) if q is not None}
        self.node_height = [0] * self.num_nodes
        self.depth = [0] * self.num_nodes  # preorder: a parent precedes its children
        for nid in range(1, self.num_nodes):
            self.depth[nid] = self.depth[self.parent[nid]] + 1
        for nid in reversed(range(self.num_nodes)):
            if self.children[nid]:
                self.node_height[nid] = 1 + max(self.node_height[c] for c in self.children[nid])
        # node, then children right to left, reversed: children left to right, then node
        order = []
        stack = [0]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(self.children[nid])
        self.postorder = order[::-1]

    def __eq__(self, other):
        if not isinstance(other, TreeTopology):
            return NotImplemented
        # parent ids fix each node's children in order
        return self.leaf_qubit == other.leaf_qubit and self.parent == other.parent

    @property
    def height(self) -> int:
        return self.node_height[0]

    @property
    def max_arity(self) -> int:
        return max(map(len, self.children))

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
        return self.node_height[child_id] + 1


# bench/workloads.py imports this name and patches `FlatTree.path_between`;
# it goes once the bench patches `TreeTopology` instead
FlatTree = TreeTopology


def perfect_tree(arity: int, height: int) -> TreeTopology:
    """Perfect m-ary topology with arity**height leaves, qubits left to right."""
    if arity < 2 or height < 1:
        raise ValueError("need arity >= 2 and height >= 1")
    spec = list(range(arity**height))
    for _ in range(height):
        spec = [spec[i:i + arity] for i in range(0, len(spec), arity)]
    return TreeTopology(spec[0])


def comb_topology(order) -> TreeTopology:
    """An MPS site order as a tree: [site 0, [site 1, ... [site n-2, site n-1]]],
    each site standing for the qubit placed there.

    `order[q]` is the site of qubit q; `comb_bond_edges` finds the bonds in
    the comb.
    """
    order = list(order)
    if not order or sorted(order) != list(range(len(order))):
        raise ValueError(f"order must be a permutation of 0..{len(order) - 1}")
    qubit_at = sorted(range(len(order)), key=order.__getitem__)
    spec = qubit_at[-1]
    for q in reversed(qubit_at[:-1]):
        spec = [q, spec]
    return TreeTopology(spec)


def comb_bond_edges(tree: TreeTopology) -> list[int]:
    """Edge ids of a comb's bonds, in site order: bond j, between sites j and
    j+1, is the edge above the spine node that holds sites j+1..n-1."""
    edges = []
    nid = 0
    while tree.children[nid]:
        nid = tree.children[nid][-1]
        edges.append(nid)
    return edges


def comb_entries(bonds) -> int:
    """Entries of an MPS stored per site, the physical leg fused in: site j
    holds bond j-1 x 2 x bond j, the boundary bonds being 1."""
    padded = [1, *bonds, 1]
    return sum(left * 2 * right for left, right in zip(padded, padded[1:]))


# ---------------------------------------------------------------------------
# file format: a JSON document of nested nodes, {"leaf": q} or
# {"children": [node, ...]}.


def dumps_topology(t: TreeTopology) -> str:
    docs = [None] * t.num_nodes
    for nid in t.postorder:
        kids = t.children[nid]
        docs[nid] = {"children": [docs[c] for c in kids]} if kids else {"leaf": t.leaf_qubit[nid]}
    try:
        return json.dumps(docs[0], separators=(",", ":")) + "\n"
    except RecursionError:
        raise ValueError("the tree is nested too deeply to write") from None


def _obj_to_spec(obj):
    if isinstance(obj, dict) and "leaf" in obj:
        return doc_int(obj["leaf"], "a leaf")
    # map, not a comprehension: one frame per level, so any document that
    # doc_loads reads converts within the recursion limit
    return list(map(_obj_to_spec, doc_field(obj, "children", list)))


def loads_topology(text: str) -> TreeTopology:
    return TreeTopology(_obj_to_spec(doc_loads(text)))


def save_topology(t: TreeTopology, path):
    text = dumps_topology(t)  # before the open: a tree too deep leaves no file
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_topology(path) -> TreeTopology:
    with open(path, encoding="utf-8") as f:
        return loads_topology(f.read())
