"""Dense statevector simulation, the verification oracle for both engines.

Amplitude ordering is big-endian in the qubit index: qubit 0 is the most
significant bit of the amplitude index. All engines share this convention,
and the caps and size measures defined here.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .errors import MemoryCapExceeded
from .gates import Gate

DEFAULT_QUBIT_CAP = 20  # largest N any engine contracts to 2**N amplitudes
DEFAULT_MEMORY_CAP = 2**31  # total complex entries across a state


@dataclass
class StateMetrics:
    """Size measures of an engine's state.

    `d_max_observed` is the largest axis dimension over all tensors,
    and `m_entries` the total stored entries. Per-edge dimensions are read
    from a tree state by child node id, with `TtnState.edge_dim`.
    """

    d_max_observed: int
    m_entries: int


def basis_vector(bits) -> np.ndarray:
    bits = list(bits)
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        idx = (idx << 1) | b
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[idx] = 1.0
    return vec


def apply_gate(vec: np.ndarray, g: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a dense statevector by direct index action."""
    psi = vec.reshape([2] * num_qubits)
    if g.num_qubits == 1:
        (q,) = g.qubits
        psi = np.tensordot(g.matrix, psi, axes=(1, q))
        psi = np.moveaxis(psi, 0, q)
    else:
        qa, qb = g.qubits
        m4 = g.matrix.reshape(2, 2, 2, 2)  # (out_a, out_b, in_a, in_b)
        psi = np.tensordot(m4, psi, axes=((2, 3), (qa, qb)))
        psi = np.moveaxis(psi, (0, 1), (qa, qb))
    return np.ascontiguousarray(psi).reshape(-1)


class DenseState:
    """The dense engine behind the tree engines' interface (`apply`, `metrics`,
    `cap_events`, `to_statevector`); both caps are checked before allocating."""

    def __init__(self, bits, qubit_cap: int = DEFAULT_QUBIT_CAP,
                 memory_cap: int = DEFAULT_MEMORY_CAP):
        self.num_qubits = len(bits)
        if self.num_qubits > qubit_cap:
            raise ValueError(f"{self.num_qubits} qubits exceeds the dense cap of {qubit_cap}")
        if 2**self.num_qubits > memory_cap:
            raise MemoryCapExceeded(f"{2**self.num_qubits} entries (cap {memory_cap})")
        self.vec = basis_vector(bits)
        self.cap_events = 0  # nothing is ever truncated

    def apply(self, g: Gate, policy=None) -> "DenseState":
        """Apply one gate exactly; the truncation `policy` is ignored."""
        g.check_range(self.num_qubits)
        self.vec = apply_gate(self.vec, g, self.num_qubits)
        return self

    def metrics(self) -> StateMetrics:
        return StateMetrics(2, self.vec.size)

    def to_statevector(self, qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
        """The amplitudes; `qubit_cap` guards a contraction, and there is none."""
        return self.vec


def sv_simulate(c: Circuit, bits=None, qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Run the circuit on a dense statevector starting from a basis state."""
    if bits is None:
        bits = [0] * c.num_qubits
    if len(bits) != c.num_qubits:
        raise ValueError("bits length must equal the qubit count")
    state = DenseState(bits, qubit_cap=qubit_cap)
    for g in c.gates:
        state.apply(g)
    return state.to_statevector(qubit_cap)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for two normalized pure states, clamped to [0, 1]: a state
    that rounding left a few ulps off unit norm does not read above 1."""
    if a.shape != b.shape:
        raise ValueError(f"state sizes differ: {a.shape} vs {b.shape}")
    return min(1.0, float(np.abs(np.vdot(a, b)) ** 2))


def overlap_error(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity deficit 1 - |<a|b>|^2, in [0, 1] for normalized states.

    Symmetric and invariant under a global phase of either argument.
    """
    return 1.0 - fidelity(a, b)
