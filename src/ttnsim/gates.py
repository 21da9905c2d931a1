"""Gate objects, a small gate library, and Schmidt splitting of two-qubit gates.

Two-qubit matrices are written in the basis |q_a q_b> where q_a is the first
listed qubit (q_a is the more significant bit of the 4x4 index).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import doc_int
from .tensors import svd_econ

# Relative cutoff separating the genuinely nonzero singular values of a split
# gate from numerical noise; a unitary's zero Schmidt values land near 1e-16.
GATE_RANK_TOL = 1e-10

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Gate:
    """A one- or two-qubit unitary acting on named qubits.

    The gate keeps a read-only copy of its matrix, so neither the caller's
    array nor a later write can change a gate after its unitarity check.
    """

    label: str
    qubits: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(doc_int(q, "a gate qubit") for q in self.qubits))
        matrix = np.array(self.matrix, dtype=np.complex128, order="C")  # always a copy
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        n = len(self.qubits)
        if n not in (1, 2):
            raise ValueError(f"gate must act on 1 or 2 qubits, got {n}")
        if len(set(self.qubits)) != n:
            raise ValueError(f"gate qubits must be distinct, got {self.qubits}")
        if min(self.qubits) < 0:
            raise ValueError(f"gate qubits must be nonnegative, got {self.qubits}")
        dim = 2**n
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"{n}-qubit gate needs a {dim}x{dim} matrix, got {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise ValueError("matrix entries must be finite")  # NaN fails every comparison
        dev = np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(dim))
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.2e})")

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def check_range(self, num_qubits: int):
        """Raise ValueError unless the gate acts within qubits 0..num_qubits-1."""
        if max(self.qubits) >= num_qubits:
            raise ValueError(
                f"gate {self.label} on {self.qubits} is out of range for N={num_qubits}")

    @cached_property
    def schmidt(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The gate's Schmidt split `(g_a, g_b, k)` (see `split_gate`),
        computed on first use and kept with the gate, factors read-only."""
        if self.num_qubits != 2:
            raise ValueError("only two-qubit gates can be split")
        fac = svd_econ(_split_regroup(self.matrix), threshold=GATE_RANK_TOL)
        k = fac.k
        scale = k**0.25
        root_s = np.sqrt(fac.s)
        g_a = scale * (fac.u * root_s).reshape(2, 2, k)
        g_b = scale * (root_s[:, None] * fac.v_dag).T.reshape(2, 2, k)
        g_a.flags.writeable = False
        g_b.flags.writeable = False
        return g_a, g_b, k

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.label == other.label
            and self.qubits == other.qubits
            and np.array_equal(self.matrix, other.matrix)
        )


# ---------------------------------------------------------------------------
# gate library

_SQ2 = 1.0 / np.sqrt(2.0)


def x(q: int) -> Gate:
    return Gate("x", (q,), [[0, 1], [1, 0]])


def y(q: int) -> Gate:
    return Gate("y", (q,), [[0, -1j], [1j, 0]])


def z(q: int) -> Gate:
    return Gate("z", (q,), [[1, 0], [0, -1]])


def h(q: int) -> Gate:
    return Gate("h", (q,), [[_SQ2, _SQ2], [_SQ2, -_SQ2]])


def s(q: int) -> Gate:
    return Gate("s", (q,), [[1, 0], [0, 1j]])


def t(q: int) -> Gate:
    return Gate("t", (q,), [[1, 0], [0, np.exp(1j * np.pi / 4)]])


def rz(theta: float, q: int) -> Gate:
    return Gate("rz", (q,), [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def ry(theta: float, q: int) -> Gate:
    c, sn = np.cos(theta / 2), np.sin(theta / 2)
    return Gate("ry", (q,), [[c, -sn], [sn, c]])


def cnot(control: int, target: int) -> Gate:
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return Gate("cnot", (control, target), m)


def cz(qa: int, qb: int) -> Gate:
    return Gate("cz", (qa, qb), np.diag([1, 1, 1, -1]))


def cphase(phi: float, qa: int, qb: int) -> Gate:
    return Gate("cphase", (qa, qb), np.diag([1, 1, 1, np.exp(1j * phi)]))


def swap(qa: int, qb: int) -> Gate:
    m = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    return Gate("swap", (qa, qb), m)


def fsim(theta: float, phi: float, qa: int, qb: int) -> Gate:
    c, sn = np.cos(theta), np.sin(theta)
    m = [
        [1, 0, 0, 0],
        [0, c, -1j * sn, 0],
        [0, -1j * sn, c, 0],
        [0, 0, 0, np.exp(-1j * phi)],
    ]
    return Gate("fsim", (qa, qb), m)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Schmidt splitting

def _split_regroup(matrix: np.ndarray) -> np.ndarray:
    """Reshuffle a 4x4 gate into the ((out_a, in_a), (out_b, in_b)) matrix."""
    return matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def gate_rank(g: Gate) -> int:
    """Number of nonzero Schmidt values of a two-qubit gate (1 <= k <= 4):
    the k of its split, so the dry-run and the engines count the same rank."""
    return g.schmidt[2]


def split_gate(g: Gate) -> tuple[np.ndarray, np.ndarray, int]:
    """Split a two-qubit gate into per-qubit factors joined by a rank-k bond.

    Returns ``(g_a, g_b, k)`` with factors of shape (2, 2, k) = (out, in,
    bond) for the first and second listed qubit. Each factor absorbs
    sqrt(s) and a k**(1/4) normalization, so that

        sum_a kron(g_a[:, :, a], g_b[:, :, a]) == sqrt(k) * g.matrix

    and the engines scale `g_a` by the compensating 1/sqrt(k) as its leaf
    absorbs it, so every identity connector that threads the bond stays
    unscaled and pass-through tensors stay isometric. The split is
    factorized once per gate (`Gate.schmidt`); its factors are read-only.
    """
    return g.schmidt
