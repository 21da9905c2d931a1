"""Tree structure search: qubit similarity, clustering, bottom-up subtree build.

Qubit pairs are scored by how many two-qubit gates entangle them, with a
tie-breaker that favors sparsely used qubits:

    s(i, j) = #(gates on both i and j) + 1 / (deg(i) + deg(j))

where deg(q) counts the two-qubit gates touching q; pairs with deg(i) +
deg(j) = 0 score 0. A score has one form, an exact integer: s(i, j) times
`SimilarityMatrix.scale`, the least common multiple of the positive degree
sums. So tie handling never depends on float rounding: `create_subtree`
sorts the integers, and `cluster` compares average linkages by
cross-multiplying integer sums. `cluster` and `create_subtree` each score a
qubit pair once. Clustering keeps a table of pair-score sums between groups,
updated on every merge, and caches each group's best partner, so one merge
costs O(n) plus O(n) for each group whose cached partner took part in it.
"""

import itertools
import math

import numpy as np

from .circuits import Circuit
from .errors import doc_int
from .topology import TreeTopology, node


class SimilarityMatrix:
    """Pairwise qubit similarity for a circuit; symmetric, zero diagonal."""

    def __init__(self, circuit: Circuit):
        n = circuit.num_qubits
        self.n = n
        self._shared = np.zeros((n, n), dtype=np.int64)
        self._degree = np.zeros(n, dtype=np.int64)
        for g in circuit.two_qubit_gates():
            qa, qb = g.qubits
            self._shared[qa, qb] += 1
            self._shared[qb, qa] += 1
            self._degree[qa] += 1
            self._degree[qb] += 1
        upper = np.triu_indices(n, 1)
        degree_sums = np.unique((self._degree[:, None] + self._degree)[upper])
        self.scale = math.lcm(*(int(d) for d in degree_sums if d > 0))

    def exact(self, i: int, j: int) -> int:
        """Similarity of a qubit pair times `scale`, an exact integer."""
        den = int(self._degree[i] + self._degree[j])
        if i == j or den == 0:
            return 0
        return int(self._shared[i, j]) * self.scale + self.scale // den


def similarity_matrix(circuit: Circuit) -> SimilarityMatrix:
    return SimilarityMatrix(circuit)


def _outranks(x, y) -> bool:
    """Whether merge candidate x outranks y; each is (sum, size product, a, b).

    A higher average linkage, sum / product, wins; the cross-multiplied
    integers compare exactly. Equal linkage goes to the smaller pair (a, b).
    """
    lhs, rhs = x[0] * y[1], y[0] * x[1]
    return lhs > rhs or (lhs == rhs and x[2:] < y[2:])


def cluster(sim: SimilarityMatrix, num_clusters: int) -> list[list[int]]:
    """Partition qubits into `num_clusters` groups by agglomerative merging.

    Average-linkage on the similarity scores, merging greedily the pair with
    the highest linkage whose merged size stays within
    cap = ceil(1.5 * n / num_clusters), which keeps the subtrees under the
    root similar-sized; ties go to the lexicographically smallest pair. A
    group is named by its smallest member, which no merge changes. When the
    cap blocks every merge, the two smallest groups join anyway, so a
    cluster may then exceed the cap.

    `sums[i][k]` is the integer total of the pair scores (`sim.exact`)
    between groups i and k, filled once from one call per qubit pair, and
    linkages compare by cross-multiplication. Merging j into i adds row j
    into row i (the Lance-Williams update for average linkage). Each group
    caches its best feasible partner. After a merge only row i and the rows
    whose cached partner was i or j are rescanned. Any other row k keeps its
    cache: its other linkages and sizes are unchanged, and its new linkage
    to i is the size-weighted mean of its old linkages to i and j, neither
    of which outranked the cached partner (or the merged group is too big
    for k). One merge thus costs O(n) plus O(n) per rescanned row, instead
    of a scan over every pair. Returns the clusters sorted by their
    smallest member.
    """
    n = sim.n
    if not 1 <= doc_int(num_clusters, "cluster count") <= n:
        raise ValueError(f"cluster count must be in [1, {n}], got {num_clusters}")
    cap = math.ceil(1.5 * n / num_clusters)
    sums: dict[int, dict[int, int]] = {q: {} for q in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        sums[i][j] = sums[j][i] = sim.exact(i, j)
    groups = {q: [q] for q in range(n)}
    best: dict[int, tuple | None] = {}  # group -> (sum, size product, a, b) or None

    def rescan(i):
        # the _outranks order, inlined: within row i the smaller pair is the smaller k
        top_s, top_p, top_k = 0, 1, None
        size_i = len(groups[i])
        for k, s in sums[i].items():
            size_k = len(groups[k])
            if size_i + size_k > cap:
                continue
            lhs, rhs = s * top_p, top_s * size_i * size_k
            if top_k is None or lhs > rhs or (lhs == rhs and k < top_k):
                top_s, top_p, top_k = s, size_i * size_k, k
        best[i] = None if top_k is None else (top_s, top_p, min(i, top_k), max(i, top_k))

    for q in groups:
        rescan(q)
    while len(groups) > num_clusters:
        top = None
        for c in best.values():
            if c is not None and (top is None or _outranks(c, top)):
                top = c
        if top is None:
            # The size cap blocks every merge; join the two smallest groups.
            i, j = sorted(sorted(groups, key=lambda g: (len(groups[g]), g))[:2])
        else:
            i, j = top[2:]
        groups[i] = sorted(groups[i] + groups.pop(j))
        row_i, row_j = sums[i], sums.pop(j)
        del row_i[j], row_j[i], best[j]
        for k, s in row_j.items():
            row_i[k] += s
            sums[k][i] = row_i[k]
            del sums[k][j]
        for k, cached in best.items():
            if cached is not None and (i in cached[2:] or j in cached[2:]):  # row i's too
                rescan(k)
    return [groups[g] for g in sorted(groups)]


def create_subtree(qubits, sim: SimilarityMatrix):
    """Bottom-up subtree over a qubit group, as a nested spec (an int or a list).

    Walk the pairs in order of decreasing similarity (ties by smaller, then
    larger qubit), collecting unseen qubits as children; every strict drop in
    similarity closes the current batch into a new internal node before the
    lower-scored pairs contribute. Single-child wrappers collapse, so
    equal-similarity runs share one node.
    """
    qubits = sorted(qubits)
    if not qubits:
        raise ValueError("cannot build a subtree over zero qubits")
    if len(qubits) == 1:
        return qubits[0]
    pairs = sorted((-sim.exact(a, b), a, b) for a, b in itertools.combinations(qubits, 2))
    running = pairs[0][0]
    seen: set[int] = set()
    children: list = []
    for score, qa, qb in pairs:
        if score > running:  # scores are negated: this is a strict drop
            children = [node(children)]
            running = score
        for q in (qa, qb):
            if q not in seen:
                seen.add(q)
                children.append(q)
    return node(children)


def find_tree_structure(circuit: Circuit, num_clusters: int) -> TreeTopology:
    """Phase-1 planner: cluster the qubits, then root the per-cluster subtrees."""
    sim = similarity_matrix(circuit)
    return TreeTopology(node(create_subtree(g, sim) for g in cluster(sim, num_clusters)))


def default_cluster_count(num_qubits: int) -> int:
    """Planner default: about sqrt(N) similar-sized clusters."""
    return max(1, round(math.sqrt(num_qubits)))


def l_cluster(arity: int, d_max: int) -> int:
    """Largest level l with 2**(arity**(l-1)) <= d_max.

    Below this level any gate sequence stays exactly representable, so
    subtrees of this height act as unrestricted clusters.
    """
    if arity < 2:
        raise ValueError("arity must be at least 2")
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    level = 0  # level 0 always qualifies: 2**(1/arity) <= 2 <= d_max
    while 2 ** (arity**level) <= d_max:
        level += 1
    return level
