"""Circuit container, circuit file format, and benchmark circuit generators."""

import json
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .errors import doc_field, doc_int, doc_loads
from .gates import Gate


@dataclass
class Circuit:
    """An ordered list of one- and two-qubit gates on `num_qubits` qubits."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        self.num_qubits = doc_int(self.num_qubits, "num_qubits")
        if self.num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        for g in self.gates:
            g.check_range(self.num_qubits)

    def append(self, g: Gate):
        g.check_range(self.num_qubits)
        self.gates.append(g)

    def two_qubit_gates(self) -> list[Gate]:
        return [g for g in self.gates if g.num_qubits == 2]


# ---------------------------------------------------------------------------
# file format
#
# A circuit file is a JSON document:
#   {"num_qubits": N,
#    "gates": [{"label": str, "qubits": [..], "matrix": [[re, im], ..]}, ..]}
# with the matrix row-major and every float written with 17 significant
# digits, enough to round-trip doubles bit-exactly. The writer below renders
# the document itself so the byte layout is deterministic.


def fmt17(value: float) -> str:
    """Render a float with 17 significant digits (round-trips doubles exactly)."""
    return f"{value:.17g}"


def _gate_json(g: Gate) -> str:
    pairs = ",".join(f"[{fmt17(v.real)},{fmt17(v.imag)}]" for v in g.matrix.ravel())
    qubits = ",".join(str(q) for q in g.qubits)
    return f'{{"label":{json.dumps(g.label)},"qubits":[{qubits}],"matrix":[{pairs}]}}'


def dumps_circuit(c: Circuit) -> str:
    body = ",\n  ".join(_gate_json(g) for g in c.gates)
    gate_block = f"[\n  {body}\n ]" if c.gates else "[]"
    return f'{{"num_qubits":{c.num_qubits},\n "gates":{gate_block}\n}}\n'


def _complex(pair) -> complex:
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
        raise ValueError(f"matrix entries must be [re, im] number pairs, got {pair!r:.60}")
    return complex(*pair)


def loads_circuit(text: str) -> Circuit:
    doc = doc_loads(text)
    n = doc_int(doc_field(doc, "num_qubits"), "num_qubits")
    out = []
    for entry in doc_field(doc, "gates", list):
        pairs = doc_field(entry, "matrix", list)
        dim = 2 if len(pairs) == 4 else 4
        if len(pairs) != dim * dim:
            raise ValueError(f"matrix must have 4 or 16 entries, got {len(pairs)}")
        mat = np.array([_complex(p) for p in pairs]).reshape(dim, dim)
        qubits = tuple(doc_int(q, "a qubit") for q in doc_field(entry, "qubits", list))
        out.append(Gate(doc_field(entry, "label", str), qubits, mat))
    return Circuit(n, out)


def save_circuit(c: Circuit, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_circuit(c))


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as f:
        return loads_circuit(f.read())


# ---------------------------------------------------------------------------
# generators


def _lattice_layer_edges(n: int, pattern: int) -> list[tuple[int, int]]:
    """Disjoint nearest-neighbor edge set for one activation pattern.

    Patterns cycle right-even-columns, right-odd-columns, down-even-rows,
    down-odd-rows; within a layer no qubit is touched twice.
    """
    edges = []
    if pattern in (0, 1):
        for r in range(n):
            for c in range(pattern % 2, n - 1, 2):
                edges.append((r * n + c, r * n + c + 1))
    else:
        for r in range(pattern % 2, n - 1, 2):
            for c in range(n):
                edges.append((r * n + c, (r + 1) * n + c))
    return edges


def _dressed_fsim(rng: np.random.Generator, qa: int, qb: int) -> Gate:
    """Generic-angle fsim with seeded one-qubit rotations fused onto its legs.

    Local rotations leave the Schmidt rank at 4 but break the
    excitation-number conservation of the bare fsim, which would otherwise
    fix the all-zeros start state and keep the circuit trivially product.
    """
    theta = rng.uniform(0.2, np.pi / 2 - 0.2)
    phi = rng.uniform(0.2, 2 * np.pi - 0.2)
    core = gates.fsim(theta, phi, qa, qb).matrix
    dress = np.kron(gates.haar_unitary(2, rng), gates.haar_unitary(2, rng))
    return Gate("fsim_u", (qa, qb), core @ dress)


def gen_lattice(n: int, depth: int, seed: int) -> Circuit:
    """Locally interacting random circuit on an n-by-n qubit grid.

    Each layer activates one of the four alternating row/column patterns and
    places a seeded generic rank-4 gate on every active edge. Standalone
    one-qubit gates are omitted (they never change bond dimensions); their
    scrambling role is played by the rotations fused into each gate.
    """
    if n < 2:
        raise ValueError("lattice side must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = np.random.default_rng(seed)
    circ = Circuit(n * n)
    for layer in range(depth):
        for qa, qb in _lattice_layer_edges(n, layer % 4):
            circ.append(_dressed_fsim(rng, qa, qb))
    return circ


def _chain_gate(qa: int, qb: int) -> Gate:
    """Controlled-Z in the Hadamard-rotated basis, CZ (H x H), rank 2.

    A bare CZ acts trivially on computational basis states, so the plain
    chain would leave the all-zeros start exactly product; rotating the
    inputs makes the clusters genuinely entangled while keeping the Schmidt
    rank at 2.
    """
    had = gates.h(0).matrix
    return Gate("czh", (qa, qb), np.diag([1, 1, 1, -1]) @ np.kron(had, had))


def gen_treelike(num_clusters: int, reps: int = 1) -> Circuit:
    """Clusterable showcase circuit: rank-2 chains in 4-qubit clusters plus
    one rank-2 link from each cluster to a single central qubit.

    Qubits 4j..4j+3 form cluster j; qubit 4*num_clusters is the central one.
    The chains repeat `reps` times; the cross-cluster links are applied once,
    after the first repetition, so exactly `num_clusters` gates ever cross a
    cluster boundary.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    central = 4 * num_clusters
    circ = Circuit(central + 1)
    for rep in range(reps):
        for j in range(num_clusters):
            base = 4 * j
            circ.append(_chain_gate(base, base + 1))
            circ.append(_chain_gate(base + 1, base + 2))
            circ.append(_chain_gate(base + 2, base + 3))
        if rep == 0:
            for j in range(num_clusters):
                circ.append(_chain_gate(4 * j + 3, central))
    return circ
