"""Argument checks that the engine and planner tests never reach: each call
raises ValueError before any work is done."""

import numpy as np
import pytest

from ttnsim.circuits import Circuit
from ttnsim.gates import Gate
from ttnsim.statevector import basis_vector, sv_simulate
from ttnsim.tensors import qr_econ, svd_econ
from ttnsim.topology import perfect_tree
from ttnsim.treesearch import SimilarityMatrix, create_subtree
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
], ids=["three-qubit-gate", "ttn-bits", "dense-bits", "sv-bits-length", "perfect-arity",
        "empty-subtree", "node-count-arity", "negative-threshold", "qr-of-3d"])
def test_invalid_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
