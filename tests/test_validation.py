"""Argument checks that the engine and planner tests never reach: each call
raises ValueError before any work is done."""

import numpy as np
import pytest

from ttnsim import gates
from ttnsim.circuits import Circuit
from ttnsim.gates import Gate
from ttnsim.mps import MpsState
from ttnsim.statevector import DenseState, basis_vector, sv_simulate
from ttnsim.tensors import qr_econ, svd_econ
from ttnsim.topology import TreeTopology, perfect_tree
from ttnsim.treesearch import SimilarityMatrix, cluster, create_subtree, find_tree_structure
from ttnsim.ttn import TtnState, node_count_bound


@pytest.mark.parametrize("call, message", [
    (lambda: Gate("g", (0, 1, 2), np.eye(8)), "1 or 2 qubits"),
    (lambda: TtnState.basis_state(perfect_tree(2, 1), [0, 2]), "0 or 1"),
    (lambda: basis_vector([0, 2]), "0 or 1"),
    (lambda: sv_simulate(Circuit(3), bits=[0, 1]), "qubit count"),
    (lambda: perfect_tree(1, 2), "arity >= 2"),
    (lambda: create_subtree([], SimilarityMatrix(Circuit(2))), "zero qubits"),
    (lambda: node_count_bound(1, 2), "arity must be at least 2"),
    (lambda: svd_econ(np.eye(2), threshold=-1.0), "nonnegative"),
    (lambda: qr_econ(np.zeros((2, 2, 2))), "expected a matrix"),
    (lambda: Gate("x", (1.7,), np.eye(2)), "must be an integer"),
    (lambda: Gate("cz", (True, 0), np.eye(4)), "must be an integer"),
    (lambda: Circuit(2.5), "must be an integer"),
    (lambda: Circuit(True), "must be an integer"),
    (lambda: cluster(SimilarityMatrix(Circuit(3)), 2.5), "must be an integer"),
    (lambda: find_tree_structure(Circuit(3), True), "must be an integer"),
], ids=["three-qubit-gate", "ttn-bits", "dense-bits", "sv-bits-length", "perfect-arity",
        "empty-subtree", "node-count-arity", "negative-threshold", "qr-of-3d",
        "float-qubit", "bool-qubit", "float-qubit-count", "bool-qubit-count",
        "float-cluster-count", "bool-cluster-count"])
def test_invalid_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integers_pass_as_ints():
    g = Gate("cz", (np.int64(1), np.int32(0)), np.diag([1, 1, 1, -1]))
    c = Circuit(np.int64(2), [g])
    assert g.qubits == (1, 0) and c.num_qubits == 2
    assert all(type(q) is int for q in g.qubits + (c.num_qubits,))


@pytest.mark.parametrize("engine", [
    lambda: DenseState([0, 0, 0]),
    lambda: TtnState.basis_state(perfect_tree(3, 1), [0, 0, 0]),
    lambda: MpsState.basis_state(3, [0, 0, 0]),
], ids=["dense", "ttn", "mps"])
@pytest.mark.parametrize("qubit", [3, -1])
def test_gate_outside_the_engines_qubits_rejected(engine, qubit):
    # Gate refuses qubit -1 itself, and each engine's apply refuses qubit 3
    # before it touches the state
    state = engine()
    for make in (lambda: gates.x(qubit), lambda: gates.cnot(qubit, 1)):
        with pytest.raises(ValueError, match="out of range|nonnegative"):
            state.apply(make())
    assert np.array_equal(state.to_statevector(), basis_vector([0, 0, 0]))


@pytest.mark.parametrize("engine", [
    lambda: TtnState.basis_state(TreeTopology([[0, 1], 2]), [0, 0, 0]),
    lambda: MpsState.basis_state(3, [0, 0, 0]),
], ids=["ttn", "mps"])
@pytest.mark.parametrize("entry", ["apply", "thread_two_qubit"])
def test_two_qubit_gate_outside_the_tree_rejected_at_either_entry(engine, entry):
    # threading checks the range itself, so a caller that threads and
    # reveals in two steps gets the ValueError that apply raises, before
    # the state is touched
    state = engine()
    tensors = list(state.tensors)
    with pytest.raises(ValueError, match="out of range"):
        getattr(state, entry)(gates.cnot(0, 7))
    assert all(a is b for a, b in zip(state.tensors, tensors, strict=True))
