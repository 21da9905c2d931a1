"""Quantum circuit simulation on tree tensor networks.

The state of an N-qubit circuit is stored as a rooted tree of tensors whose
leaves carry the qubits. A structure-search phase picks the tree from the
circuit's two-qubit gate pattern; gates are then applied by SVD splitting and
bond threading while the network is kept in canonical form. The MPS baseline
is the same engine on a comb-shaped tree, the dense statevector engine is the
oracle, and a symbolic dry-run mode tracks bond dimensions without any tensor
arithmetic.

Everything else is imported from its module (`ttnsim.ttn`, `ttnsim.mps`,
`ttnsim.dryrun`, ...); the package re-exports only the circuit generators.
"""

from .circuits import gen_lattice, gen_treelike

__all__ = ["gen_lattice", "gen_treelike"]
