"""Symbolic bond-dimension simulation and gate-pattern admissibility.

A dry-run replays a circuit against a tree topology tracking only edge
dimensions, one per node id (entry 0 is the root's dummy parent axis, 1). Each
two-qubit gate multiplies every on-path edge by its Schmidt rank k, then the
min rule

    dim(e) <- min(dim(e), product of dims below e, product of dims above e)

(`TreeTopology.edge_bound`) runs once along the path and once back. That is
the whole-tree fixpoint: the ledger is at it before each gate and the rule is
monotone, so growing path edges shrinks no edge off the path; and the path is
a line between two leaves, each edge's bound reading only its two neighbours
on it times factors of at least 1. The reduction is the symbolic shadow of
economical-SVD sweeps, which can only shrink an edge to the smaller of its two
matricization sides, so dry-run dimensions upper-bound what the engines
observe. An MPS site order is walked as its comb (`comb_topology`), an idle
qubit's leaf edge counting as 1, and reported per bond. The dry-run and the
admissibility check walk the same crossings (`_crossings`), with each gate's
rank read from its one Schmidt split.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates as gatelib
from .circuits import Circuit
from .gates import gate_rank
from .tensors import check_rank_cap
from .topology import TreeTopology, comb_bond_edges, comb_entries, comb_topology, perfect_tree
from .treesearch import l_cluster


@dataclass
class GateEvent:
    """Dry-run record of one two-qubit gate."""

    gate_index: int
    label: str
    k: int
    edges: list


@dataclass
class DryRunReport:
    """Final edge-dimension ledger plus the derived size metrics."""

    kind: str  # "ttn" or "mps"
    edge_dims: dict
    edge_levels: dict
    d_max_observed: int
    m_entries: int
    events: list = field(default_factory=list)
    cap: int | None = None
    cap_events: int = 0


def _tree_entries(dims: list, tree: TreeTopology) -> int:
    """Entries as the TTN engine stores them. A binary root over an internal
    child is spliced into that child: both root edges are at one dimension
    (the min rule, as the root's parent axis is 1), so the child's entries
    are the spliced node's and the root adds none."""
    root_kids = tree.children[0]
    spliced = len(root_kids) == 2 and not all(map(tree.is_leaf, root_kids))
    return sum((math.prod(dims[c] for c in kids) if kids else 2) * dims[nid]
               for nid, kids in enumerate(tree.children) if nid or not spliced)


def _crossings(circuit: Circuit, tree: TreeTopology):
    """Yield `(gate index, gate, k, path edges)` for each two-qubit gate,
    after checking that the tree's leaves are the circuit's qubits."""
    if tree.num_qubits != circuit.num_qubits:
        raise ValueError("topology leaves must cover the circuit qubits")
    for idx, g in enumerate(circuit.gates):
        if g.num_qubits == 2:
            yield idx, g, gate_rank(g), tree.path_edges(*g.qubits)


def _dryrun_tree(circuit: Circuit, tree: TreeTopology, cap) -> DryRunReport:
    dims = [1] * tree.num_nodes  # dims[0] is the root's dummy parent axis
    events = []
    cap_events = 0
    for idx, g, k, edges in _crossings(circuit, tree):
        for e in edges:
            dims[e] *= k
        # along the thread and back; the last edge is settled by the first sweep
        for e in edges + edges[-2::-1]:
            bound = tree.edge_bound(e, dims.__getitem__)
            if bound < dims[e]:
                dims[e] = bound
        if cap is not None:
            # the ledger stays a fixpoint: every edge is already at most cap,
            # and every bound that reads a clamped edge is at least cap
            for e in edges:
                if dims[e] > cap:
                    dims[e] = cap
                    cap_events += 1
        events.append(GateEvent(idx, g.label, k, sorted(edges)))
    edge_dims = {e: dims[e] for e in range(1, tree.num_nodes)}
    levels = {e: tree.edge_level(e) for e in edge_dims}
    return DryRunReport("ttn", edge_dims, levels, max(int(max(dims)), 2),
                        _tree_entries(dims, tree), events, cap, cap_events)


def _dryrun_mps(circuit: Circuit, order, cap) -> DryRunReport:
    """The tree dry-run on the comb of `order`, re-keyed to the n-1 bonds.

    The comb's other edges are leaf edges, which never exceed 2. Entries are
    counted per site, with the physical leg fused in.
    """
    tree = comb_topology(order)
    rep = _dryrun_tree(circuit, tree, cap)
    bond_edges = comb_bond_edges(tree)
    bond_of = {e: j for j, e in enumerate(bond_edges)}
    bonds = [rep.edge_dims[e] for e in bond_edges]
    events = []
    for ev in rep.events:
        crossed = [bond_of[e] for e in ev.edges if e in bond_of]
        events.append(GateEvent(ev.gate_index, ev.label, ev.k, crossed))
    return DryRunReport("mps", dict(enumerate(bonds)), {j: 1 for j in range(len(bonds))},
                        rep.d_max_observed, comb_entries(bonds), events, cap, rep.cap_events)


def dryrun(circuit: Circuit, layout, cap: int | None = None) -> DryRunReport:
    """Symbolically simulate bond growth for a tree topology or a site order.

    `layout` is a TreeTopology for the tree engine, or a qubit-to-site
    permutation for the MPS baseline, walked as a comb. With `cap` (an
    integer of at least 1) set, edges are clamped at the cap and each clamp
    is recorded as a would-truncate event.
    """
    cap = check_rank_cap(cap, "cap")
    if isinstance(layout, TreeTopology):
        return _dryrun_tree(circuit, layout, cap)
    return _dryrun_mps(circuit, layout, cap)


# ---------------------------------------------------------------------------
# admissibility against a d_max budget


def edge_crossing_limit(d_max: int) -> float:
    """Max rank-4 gates that may cross one edge: log4(d_max)."""
    return 0.5 * math.log2(d_max)


def node_crossing_limit(arity: int, d_max: int) -> float:
    """Max rank-4 gate threads through one node: (m+1)/4 * log2(d_max)."""
    return (arity + 1) / 4.0 * math.log2(d_max)


@dataclass
class AdmissibilityReport:
    """Worst-case edge products versus the d_max budget, plus the
    closed-form per-edge and per-node crossing limits for that budget.

    Only edges whose lower endpoint sits at or above the cluster level are
    restricted; gate sequences inside a cluster-height subtree stay exact
    regardless, so they carry no budget.
    """

    admissible: bool
    d_max: int
    arity: int
    cluster_level: int
    edge_products: dict
    violations: list
    edge_limit: float
    node_limit: float


def admissible(circuit: Circuit, tree: TreeTopology, d_max: int) -> AdmissibilityReport:
    """Check the crossing-product condition prod(k_G) <= d_max on every
    restricted edge. `d_max` is an integer (numpy's too; not a float or a
    bool) of at least 2; None is rejected too, as a budget has no uncapped
    meaning."""
    if d_max is None:
        raise ValueError("d_max must be an integer of at least 2, got None (no budget)")
    d_max = check_rank_cap(d_max, "d_max")
    arity = max(tree.max_arity, 2)
    lc = l_cluster(arity, d_max)
    products = {nid: 1 for nid in range(tree.num_nodes)
                if tree.parent[nid] is not None and tree.node_height[nid] >= lc}
    for _, _, k, edges in _crossings(circuit, tree):
        for e in edges:
            if e in products:
                products[e] *= k
    violations = sorted(e for e, p in products.items() if p > d_max)
    return AdmissibilityReport(
        admissible=not violations,
        d_max=d_max,
        arity=arity,
        cluster_level=lc,
        edge_products=products,
        violations=violations,
        edge_limit=edge_crossing_limit(d_max),
        node_limit=node_crossing_limit(arity, d_max),
    )


# ---------------------------------------------------------------------------
# recursively admissible triangle circuits (the TTN-vs-MPS separation family)

_TRI_THETA = 0.9
_TRI_PHI = 0.6


def _triangle_block(level: int, base: int, out_gates: list, limit: int, pattern):
    """Append one block of the recursive wiring's gates and return an iterator
    over its entry qubits, which keeps every sub-block parent edge within its
    crossing budget: a base cluster cycles through its nine qubits, a higher
    block hands out each sub-block's entries up to its remaining budget."""
    if level == 1:
        for i in range(9):
            for j in range(i + 1, 9):
                out_gates.append(gatelib.fsim(_TRI_THETA, _TRI_PHI, base + i, base + j))
        return itertools.cycle(range(base, base + 9))
    third = 9 * 3 ** (level - 2)
    subs = [_triangle_block(level - 1, base + i * third, out_gates, limit, pattern)
            for i in range(3)]
    used = [0, 0, 0]
    for i, j in pattern:
        used[i] += 1
        used[j] += 1
        out_gates.append(gatelib.fsim(_TRI_THETA, _TRI_PHI, next(subs[i]), next(subs[j])))
    return itertools.chain.from_iterable(
        itertools.islice(sub, limit - n) for sub, n in zip(subs, used))


def gen_triangle_pattern(levels: int, d_max: int) -> tuple[Circuit, TreeTopology]:
    """Nested-triangle circuit on 9 * 3**(levels-1) qubits plus its matched
    perfect 3-ary topology.

    Each 9-qubit base cluster carries all-pair rank-4 gates (unrestricted
    below the cluster level); groups of three blocks are joined pairwise,
    linearly for d_max=16 and as a full triangle for d_max=64, with entry
    qubits spread so no restricted edge exceeds its crossing budget.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if d_max == 16:
        limit, pattern = 2, ((0, 1), (1, 2))
    elif d_max == 64:
        limit, pattern = 3, ((0, 1), (1, 2), (0, 2))
    else:
        raise ValueError("d_max must be 16 or 64")
    num_qubits = 9 * 3 ** (levels - 1)
    out_gates: list = []
    _triangle_block(levels, 0, out_gates, limit, pattern)
    circuit = Circuit(num_qubits, out_gates)
    return circuit, perfect_tree(3, levels + 1)


def random_qubit_orders(num_qubits: int, count: int, seed: int) -> list[list[int]]:
    """Seeded random qubit-to-site permutations for MPS ordering studies."""
    rng = np.random.default_rng(seed)
    return [list(rng.permutation(num_qubits)) for _ in range(count)]
