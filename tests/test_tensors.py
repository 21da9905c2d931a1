import numpy as np
import pytest

from ttnsim.errors import FactorizationError
from ttnsim.tensors import TruncationPolicy, qr_econ, svd_econ


class TestSvdEcon:
    def test_identity_spectrum(self):
        fac = svd_econ(np.eye(4, dtype=complex), threshold=0.0)
        assert np.allclose(fac.s, np.ones(4))
        assert fac.k == 4

    def test_cnot_regrouping_rank_two(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        # ((out_a, in_a), (out_b, in_b)) regrouping
        m = cnot.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        fac = svd_econ(m, threshold=0.0)
        assert np.allclose(fac.s, [np.sqrt(2), np.sqrt(2)])
        assert fac.k == 2

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fac = svd_econ(np.outer(u, v.conj()), threshold=0.0)
        assert fac.k == 1

    def test_reconstruction_and_isometries(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            fac = svd_econ(m, threshold=0.0)
            approx = fac.u @ np.diag(fac.s) @ fac.v_dag
            assert np.linalg.norm(approx - m) <= 1e-10 * np.linalg.norm(m)
            assert np.allclose(fac.u.conj().T @ fac.u, np.eye(fac.k), atol=1e-10)
            assert np.allclose(fac.v_dag @ fac.v_dag.conj().T, np.eye(fac.k), atol=1e-10)
            assert np.all(np.diff(fac.s) <= 0)
            assert np.allclose(np.sum(fac.s**2), np.linalg.norm(m) ** 2,
                               rtol=1e-10)

    def test_relative_threshold(self):
        m = np.diag([1.0, 1e-3, 1e-12]).astype(complex)
        assert svd_econ(m, threshold=1e-6).k == 2
        assert svd_econ(m, threshold=1e-2).k == 1

    def test_max_rank_cap_and_floor(self):
        # never truncate to an empty bond, even for the zero matrix
        assert svd_econ(np.zeros((3, 3), dtype=complex)).k == 1

    def test_reconstruction_bound_with_truncation(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        fac = svd_econ(m, threshold=0.1)
        full_s = np.linalg.svd(m, compute_uv=False)
        discarded = np.sum(full_s[fac.k:])
        err = np.linalg.norm(fac.u @ np.diag(fac.s) @ fac.v_dag - m)
        assert err <= max(1e-10 * np.linalg.norm(m), discarded)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            svd_econ(np.zeros((2, 2, 2)))


class TestQrEcon:
    def test_identity(self):
        q, r = qr_econ(np.eye(3, dtype=complex))
        assert np.allclose(np.abs(q), np.eye(3))
        assert np.allclose(np.abs(r), np.eye(3))

    def test_diagonal(self):
        q, r = qr_econ(np.diag([2.0, 3.0]).astype(complex))
        assert np.allclose(np.abs(np.diag(r)), [2.0, 3.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q, r = qr_econ(m)
        assert np.linalg.norm(q @ r - m) < 1e-10 * np.linalg.norm(m)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-10)
        assert np.allclose(r, np.triu(r))


class TestTruncationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(sigma_rel=1.0)
        with pytest.raises(ValueError):
            TruncationPolicy(d_max=0)


def test_svd_error_type_is_distinct():
    assert issubclass(FactorizationError, RuntimeError)
