"""Symbolic bond-dimension simulation and gate-pattern admissibility.

A dry-run replays a circuit against a tree topology tracking only edge
dimensions: each two-qubit gate multiplies every on-path edge by its Schmidt
rank k, after which a worklist, seeded with the path edges, applies

    dim(e) <- min(dim(e), product of dims below e, product of dims above e)

(`TreeTopology.edge_bound`) until no edge shrinks. The reduction is the symbolic
shadow of economical-SVD sweeps, which can only shrink an edge to the smaller
of its two matricization sides, so dry-run dimensions upper-bound what the
engines observe. An MPS site order is walked as its comb (`comb_topology`), an
idle qubit's leaf edge counting as 1, and reported per bond.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import gates as gatelib
from .circuits import Circuit
from .gates import gate_rank
from .topology import TreeTopology, comb_bond_edges, comb_entries, comb_topology, perfect_tree
from .treesearch import l_cluster


@dataclass
class GateEvent:
    """Dry-run record of one two-qubit gate."""

    gate_index: int
    label: str
    k: int
    path_length: int
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


def _reduce_tree(dims: dict, tree: TreeTopology, seeds):
    """Two-sided min rule to fixpoint over a tree ledger (keyed by child id).

    A worklist seeded with the edges whose dims just grew. An edge that shrinks
    queues the edges whose bound has it as a factor, if larger than its new dim.
    The rule is monotone, so this reaches the whole-tree sweep's fixpoint.
    """
    work = deque(seeds)
    queued = set(work)
    while work:
        nid = work.popleft()
        queued.discard(nid)
        new = tree.edge_bound(nid, dims.__getitem__)
        if new < dims[nid]:
            dims[nid] = new
            parent = tree.parent[nid]
            # the edges whose bound reads this one: children, siblings, parent
            for e in tree.children[nid] + tree.children[parent] + [parent]:
                if dims.get(e, 0) > new and e not in queued:
                    queued.add(e)
                    work.append(e)


def _tree_entries(dims: dict, tree: TreeTopology) -> int:
    total = 0
    for nid in range(tree.num_nodes):
        if tree.is_leaf(nid):
            total += 2 * dims.get(nid, 1)  # a lone leaf is the root, with no edge
        else:
            size = math.prod(dims[c] for c in tree.children[nid])
            size *= dims[nid] if tree.parent[nid] is not None else 1
            total += size
    return total


def _dryrun_tree(circuit: Circuit, tree: TreeTopology, cap) -> DryRunReport:
    if tree.num_qubits != circuit.num_qubits:
        raise ValueError("topology leaves must cover the circuit qubits")
    dims = {nid: 1 for nid in range(tree.num_nodes) if tree.parent[nid] is not None}
    events = []
    cap_events = 0
    for idx, g in enumerate(circuit.gates):
        if g.num_qubits != 2:
            continue
        k = gate_rank(g)
        edges = tree.path_edges(*g.qubits)
        for e in edges:
            dims[e] *= k
        _reduce_tree(dims, tree, edges)
        if cap is not None:
            # the ledger stays a fixpoint: every edge is already at most cap,
            # and every bound that reads a clamped edge is at least cap
            for e in edges:
                if dims[e] > cap:
                    dims[e] = cap
                    cap_events += 1
        events.append(GateEvent(idx, g.label, k, len(edges), sorted(edges)))
    levels = {e: tree.edge_level(e) for e in dims}
    d_max = max(dims.values(), default=1)
    return DryRunReport("ttn", dims, levels, max(int(d_max), 2),
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
        events.append(GateEvent(ev.gate_index, ev.label, ev.k, len(crossed), crossed))
    return DryRunReport("mps", dict(enumerate(bonds)), {j: 1 for j in range(len(bonds))},
                        rep.d_max_observed, comb_entries(bonds), events, cap, rep.cap_events)


def dryrun(circuit: Circuit, layout, cap: int | None = None) -> DryRunReport:
    """Symbolically simulate bond growth for a tree topology or a site order.

    `layout` is a TreeTopology for the tree engine, or a qubit-to-site
    permutation for the MPS baseline, walked as a comb. With `cap` (at least
    1) set, edges are clamped at the cap and each clamp is recorded as a
    would-truncate event.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
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
    restricted edge."""
    arity = max(tree.max_arity, 2)
    lc = l_cluster(arity, d_max)
    products = {nid: 1 for nid in range(tree.num_nodes)
                if tree.parent[nid] is not None and tree.node_height[nid] >= lc}
    for g in circuit.gates:
        if g.num_qubits != 2:
            continue
        k = gate_rank(g)
        for e in tree.path_edges(*g.qubits):
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


class _TriangleBlock:
    """One node of the recursive wiring; hands out entry qubits while keeping
    every sub-block parent edge within its crossing budget."""

    def __init__(self, level: int, base: int, out_gates: list, limit: int, pattern):
        if level == 1:
            self.subs = None
            self.qubits = list(range(base, base + 9))
            self._next = 0
            for i in range(9):
                for j in range(i + 1, 9):
                    out_gates.append(
                        gatelib.fsim(_TRI_THETA, _TRI_PHI, base + i, base + j))
        else:
            third = 9 * 3 ** (level - 2)
            self.subs = [
                _TriangleBlock(level - 1, base + i * third, out_gates, limit, pattern)
                for i in range(3)
            ]
            self.limit = limit
            self.used = [0, 0, 0]
            for i, j in pattern:
                self.used[i] += 1
                self.used[j] += 1
                qa = self.subs[i].entry()
                qb = self.subs[j].entry()
                out_gates.append(gatelib.fsim(_TRI_THETA, _TRI_PHI, qa, qb))

    def entry(self) -> int:
        if self.subs is None:
            q = self.qubits[self._next % 9]
            self._next += 1
            return q
        i = next(idx for idx in range(3) if self.used[idx] < self.limit)
        self.used[i] += 1
        return self.subs[i].entry()


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
    _TriangleBlock(levels, 0, out_gates, limit, pattern)
    circuit = Circuit(num_qubits, out_gates)
    return circuit, perfect_tree(3, levels + 1)


def random_qubit_orders(num_qubits: int, count: int, seed: int) -> list[list[int]]:
    """Seeded random qubit-to-site permutations for MPS ordering studies."""
    rng = np.random.default_rng(seed)
    return [list(rng.permutation(num_qubits)) for _ in range(count)]
