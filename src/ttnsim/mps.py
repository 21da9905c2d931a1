"""Matrix-product-state baseline: the tree engine on a comb.

An MPS in a qubit-to-site order is a `TtnState` on `comb_topology(order)`,
the tree [site 0, [site 1, ... [site n-2, site n-1]]]. Bond j is the edge
above the spine node that holds sites j+1..n-1. The engine splices the
comb's binary root into its spine (for n > 2), so its top node holds site
0, site 1 and the spine below them: bond 0 is stored as site 0's leaf edge,
which `bond_dims` reports. It is a mixed canonical MPS: the orthogonality
center, which carries the norm, rests on a spine node, never on a site's
leaf: the reveal splits a leaf's edge in place at the spine node above it.
After a two-qubit gate whose higher site is j it is the spine node that
holds site j's leaf (the top node for j <= 1, site n-2's for j = n-1), after
a whole-chain sweep site n-2's, and at the start the top node; the sites
left of it are left-canonical and those right of it right-canonical. A
nearest-neighbour gate moves the center a few sites and factorizes only
around its two sites, so its cost does not grow with the chain. A long-range
two-qubit gate threads its bond along the spine, multiplying every bond
between its sites by k, which is exactly the cost model the tree engine is
compared against; as on any tree, the spine nodes' identity connectors are
not built but contracted as the bond is threaded.
Sizes are reported per site as an MPS stores them: (left bond, physical=2,
right bond).
"""

from .circuits import Circuit
# split_gate, svd_econ and qr_econ are unused here: bench/workloads.py:instrument patches them
from .gates import split_gate  # noqa: F401
from .statevector import DEFAULT_MEMORY_CAP, StateMetrics
from .tensors import EXACT, TruncationPolicy, qr_econ, svd_econ  # noqa: F401
from .topology import comb_bond_edges, comb_entries, comb_topology
from .ttn import TtnState


class MpsState(TtnState):
    """Mutable MPS statevector: a TTN state on a comb in a fixed site order."""

    @classmethod
    def basis_state(cls, num_qubits: int, bits, order=None,
                    memory_cap: int = DEFAULT_MEMORY_CAP) -> "MpsState":
        """Product basis state with all bonds of dimension 1.

        `order` maps qubit -> site; the default is the identity order.
        """
        order = list(range(num_qubits)) if order is None else list(order)
        if len(order) != num_qubits:
            raise ValueError(f"order has {len(order)} sites for {num_qubits} qubits")
        return super().basis_state(comb_topology(order), bits, memory_cap=memory_cap)

    @property
    def order(self) -> list[int]:
        """The qubit -> site map; the comb's leaves, in preorder, are the sites."""
        qubit_at = [q for q in self.tree.leaf_qubit if q is not None]
        return sorted(range(len(qubit_at)), key=qubit_at.__getitem__)

    def bond_dims(self) -> list[int]:
        """Dimensions of the num_qubits - 1 interior bonds, in site order."""
        return [self.edge_dim(edge) for edge in comb_bond_edges(self.tree)]

    def metrics(self) -> StateMetrics:
        """Site-fused sizes (`comb_entries`): site j stores bond j-1 x 2 x
        bond j entries."""
        bonds = self.bond_dims()
        return StateMetrics(max([2] + bonds), comb_entries(bonds))


def run_circuit(circuit: Circuit, policy: TruncationPolicy = EXACT, order=None) -> MpsState:
    """Simulate a whole circuit from |0...0> in the given site order."""
    state = MpsState.basis_state(circuit.num_qubits, [0] * circuit.num_qubits, order=order)
    for g in circuit.gates:
        state.apply(g, policy)
    return state
