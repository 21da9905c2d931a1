"""Tree structure search: qubit similarity, clustering, bottom-up subtree build.

Qubit pairs are scored by how many two-qubit gates entangle them, with a
tie-breaker that favors sparsely used qubits:

    s(i, j) = #(gates on both i and j) + 1 / (deg(i) + deg(j))

where deg(q) counts the two-qubit gates touching q; pairs with deg(i) +
deg(j) = 0 score 0. All comparisons between scores are done with exact
integer fractions so that tie handling never depends on float rounding.
"""

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
        if i == j:
            return Fraction(0)
        den = int(self._degree[i] + self._degree[j])
        if den == 0:
            return Fraction(0)
        return Fraction(int(self._shared[i, j])) + Fraction(1, den)


def similarity_matrix(circuit: Circuit) -> SimilarityMatrix:
    return SimilarityMatrix(circuit)


def cluster(sim: SimilarityMatrix, num_clusters: int) -> list[list[int]]:
    """Partition qubits into `num_clusters` groups by agglomerative merging.

    Average-linkage on the similarity scores, merging greedily; no cluster
    may grow beyond ceil(1.5 * n / num_clusters) members, which keeps the
    subtrees under the root similar-sized. Deterministic: scores are exact
    fractions and ties resolve to the lexicographically smallest pair.
    Returns the clusters sorted by their smallest member.
    """
    n = sim.n
    if not 1 <= num_clusters <= n:
        raise ValueError(f"cluster count must be in [1, {n}], got {num_clusters}")
    cap = math.ceil(1.5 * n / num_clusters)
    groups = [[q] for q in range(n)]

    def linkage(a, b) -> Fraction:
        total = Fraction(0)
        for qi in a:
            for qj in b:
                total += sim.exact(qi, qj)
        return total / (len(a) * len(b))

    while len(groups) > num_clusters:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if len(groups[i]) + len(groups[j]) > cap:
                    continue
                key = (linkage(groups[i], groups[j]), -groups[i][0], -groups[j][0])
                if best is None or key > best[0]:
                    best = (key, i, j)
        if best is None:
            # Size cap blocks every merge (possible with pathological sizes);
            # fall back to joining the two smallest groups.
            order = sorted(range(len(groups)), key=lambda i: (len(groups[i]), groups[i][0]))
            best = (None, min(order[:2]), max(order[:2]))
        _, i, j = best
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
    return sorted(groups, key=lambda g: g[0])


def _sorted_pairs(qubits, sim: SimilarityMatrix):
    """All qubit pairs, most similar first; ties by (min index, max index)."""
    pairs = [(min(a, b), max(a, b)) for idx, a in enumerate(qubits) for b in qubits[idx + 1:]]
    return sorted(pairs, key=lambda p: (-sim.exact(*p), p[0], p[1]))


def create_subtree(qubits, sim: SimilarityMatrix):
    """Bottom-up subtree over a qubit group, as a nested spec (an int or a list).

    Walk the pair list in order of decreasing similarity, collecting unseen
    qubits as children; every strict drop in similarity closes the current
    batch into a new internal node before the lower-scored pairs contribute.
    Single-child wrappers collapse, so equal-similarity runs share one node.
    """
    qubits = list(qubits)
    if not qubits:
        raise ValueError("cannot build a subtree over zero qubits")
    if len(qubits) == 1:
        return qubits[0]
    pairs = _sorted_pairs(qubits, sim)
    running = sim.exact(*pairs[0])
    seen: set[int] = set()
    children: list = []
    for qa, qb in pairs:
        value = sim.exact(qa, qb)
        if running > value:
            children = [node(children)]
            running = value
        for q in (qa, qb):
            if q not in seen:
                seen.add(q)
                children.append(q)
    return node(children)


def find_tree_structure(circuit: Circuit, num_clusters: int) -> TreeTopology:
    """Phase-1 planner: cluster the qubits, then root the per-cluster subtrees."""
    if circuit.num_qubits == 1:
        return TreeTopology(0)
    sim = similarity_matrix(circuit)
    groups = cluster(sim, num_clusters)
    roots = [create_subtree(g, sim) for g in groups]
    return TreeTopology(node(roots))


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
