"""Tree structure search: qubit similarity, clustering, bottom-up subtree build.

Qubit pairs are scored by how many two-qubit gates entangle them, with a
tie-breaker that favors sparsely used qubits:

    s(i, j) = #(gates on both i and j) + 1 / (deg(i) + deg(j))

where deg(q) counts the two-qubit gates touching q; pairs with deg(i) +
deg(j) = 0 score 0. All comparisons between scores are done with exact
integer fractions so that tie handling never depends on float rounding.
`cluster` and `create_subtree` each score a qubit pair once: clustering keeps
a table of pair-score sums between groups and updates it on every merge.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .circuits import Circuit
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

    def exact(self, i: int, j: int) -> Fraction:
        """Similarity of a qubit pair as an exact fraction."""
        den = int(self._degree[i] + self._degree[j])
        if i == j or den == 0:
            return Fraction(0)
        return Fraction(int(self._shared[i, j])) + Fraction(1, den)


def similarity_matrix(circuit: Circuit) -> SimilarityMatrix:
    return SimilarityMatrix(circuit)


def cluster(sim: SimilarityMatrix, num_clusters: int) -> list[list[int]]:
    """Partition qubits into `num_clusters` groups by agglomerative merging.

    Average-linkage on the similarity scores, merging greedily; no cluster
    may grow beyond ceil(1.5 * n / num_clusters) members, which keeps the
    subtrees under the root similar-sized. `sums[i][j]` totals the scores
    between groups i and j, and their linkage is that total over the product
    of their sizes. Merging j into i adds row and column j into row and
    column i, then drops them (the Lance-Williams update for average
    linkage). Deterministic: sums are exact fractions and ties resolve to
    the lexicographically smallest pair. Returns the clusters sorted by
    their smallest member.
    """
    n = sim.n
    if not 1 <= num_clusters <= n:
        raise ValueError(f"cluster count must be in [1, {n}], got {num_clusters}")
    cap = math.ceil(1.5 * n / num_clusters)
    groups = [[q] for q in range(n)]
    sums = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        sums[i][j] = sums[j][i] = sim.exact(i, j)

    while len(groups) > num_clusters:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                a, b = groups[i], groups[j]
                if len(a) + len(b) > cap:
                    continue
                key = (sums[i][j] / (len(a) * len(b)), -a[0], -b[0])
                if best is None or key > best[0]:
                    best = (key, i, j)
        if best is None:
            # Size cap blocks every merge (possible with pathological sizes);
            # fall back to joining the two smallest groups.
            order = sorted(range(len(groups)), key=lambda i: (len(groups[i]), groups[i][0]))
            best = (None, min(order[:2]), max(order[:2]))
        _, i, j = best
        groups[i] = sorted(groups[i] + groups.pop(j))
        for row in sums:
            row[i] += row.pop(j)
        sums[i] = [x + y for x, y in zip(sums[i], sums.pop(j))]
    return sorted(groups, key=lambda g: g[0])


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
