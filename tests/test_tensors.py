import numpy as np
import pytest

from ttnsim.errors import FactorizationError
from ttnsim.tensors import TruncationPolicy, contract, merge_axes, qr_econ, svd_econ


def brute_merge(t, rows, cols):
    """Index-enumeration oracle for merge_axes."""
    p = int(np.prod([t.shape[a] for a in rows], initial=1))
    q = int(np.prod([t.shape[a] for a in cols], initial=1))
    out = np.zeros((p, q), dtype=complex)
    for idx in np.ndindex(*t.shape):
        r = 0
        for a in rows:
            r = r * t.shape[a] + idx[a]
        c = 0
        for a in cols:
            c = c * t.shape[a] + idx[a]
        out[r, c] = t[idx]
    return out


class TestMergeAxes:
    def test_identity_regrouping(self):
        t = np.arange(6, dtype=complex).reshape(2, 3)
        m = merge_axes(t, [0], [1])
        assert m.shape == (2, 3)
        assert np.array_equal(m, t)

    def test_row_major_pairing(self):
        t = np.arange(8, dtype=complex).reshape(2, 2, 2)
        m = merge_axes(t, [0, 1], [2])
        assert m.shape == (4, 2)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert m[2 * a + b, c] == t[a, b, c]

    def test_against_brute_force_reindexer(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        m = merge_axes(t, [1], [0, 2])
        assert m.shape == (3, 8)
        assert np.array_equal(m, brute_merge(t, [1], [0, 2]))

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ndim = rng.integers(2, 5)
            shape = tuple(rng.integers(1, 5, size=ndim))
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            perm = list(rng.permutation(ndim))
            cut = int(rng.integers(1, ndim))
            rows, cols = perm[:cut], perm[cut:]
            m = merge_axes(t, rows, cols)
            # inverse regrouping: split hybrid axes, then un-permute
            back = m.reshape([shape[a] for a in rows + cols])
            inv = np.argsort(rows + cols)
            assert np.array_equal(back.transpose(inv), t)

    def test_bad_partition_rejected(self):
        t = np.zeros((2, 2))
        with pytest.raises(ValueError):
            merge_axes(t, [0], [0])
        with pytest.raises(ValueError):
            merge_axes(t, [0], [2])


class TestContract:
    def test_identity_times_vector(self):
        v = np.array([0.3 + 1j, -0.7])
        out = contract(np.eye(2, dtype=complex), [1], v, [0])
        assert np.allclose(out, v)

    def test_full_contraction_is_squared_norm(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        val = contract(a, [0, 1], a.conj(), [0, 1])
        assert np.allclose(val, np.linalg.norm(a) ** 2)

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        out = contract(a, [2, 1], b, [0, 1])
        expected = np.zeros(2, dtype=complex)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    expected[i] += a[i, j, k] * b[k, j]
        assert np.allclose(out, expected, atol=1e-13)

    def test_bilinear(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        assert np.allclose(contract(alpha * a, [1], b, [0]),
                           alpha * contract(a, [1], b, [0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            contract(np.zeros((2, 3)), [1], np.zeros((2, 2)), [0])


class TestSvdEcon:
    def test_identity_spectrum(self):
        fac = svd_econ(np.eye(4, dtype=complex), threshold=0.0)
        assert np.allclose(fac.s, np.ones(4))
        assert fac.k == 4

    def test_cnot_regrouping_rank_two(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        m = merge_axes(cnot.reshape(2, 2, 2, 2), [0, 2], [1, 3])
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
        m = np.diag([3.0, 2.0, 1.0]).astype(complex)
        fac = svd_econ(m, threshold=0.0, max_rank=2)
        assert fac.k == 2
        assert np.allclose(fac.s, [3.0, 2.0])
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
