"""Property suites for `svd_two_cols` against LAPACK's SVD on generated
complex (p, 2) matrices: generic, exactly rank 1, near-degenerate, with a
spread of singular value ratios, a zero column, all zero, and Frobenius
norms from 1e-100 to 1e100; and for the values-only `svd_econ` against the
call with vectors on tall, wide and square matrices of the same kinds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnsim.errors import FactorizationError
from ttnsim.tensors import RANK_TOL, svd_econ, svd_two_cols


def unitary(rng, p, k):
    """A p-by-k isometry (p >= k)."""
    q, _ = np.linalg.qr(rng.normal(size=(p, k)) + 1j * rng.normal(size=(p, k)))
    return q


@st.composite
def two_col_matrices(draw):
    p = draw(st.one_of(st.integers(1, 8), st.integers(1, 4096)))
    kind = draw(st.sampled_from(["generic", "rank1", "degenerate", "ratio", "zero_col", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "generic":
        m = rng.normal(size=(p, 2)) + 1j * rng.normal(size=(p, 2))
    elif kind == "zero":
        m = np.zeros((p, 2), dtype=complex)
    elif kind == "zero_col":
        m = rng.normal(size=(p, 2)) + 1j * rng.normal(size=(p, 2))
        m[:, draw(st.integers(0, 1))] = 0
    elif kind == "rank1" or p == 1:
        m = np.outer(rng.normal(size=p) + 1j * rng.normal(size=p),
                     rng.normal(size=2) + 1j * rng.normal(size=2))
    else:
        if kind == "degenerate":
            ratio = 1 - 10 ** draw(st.floats(-15, -6))
        else:
            ratio = 10 ** draw(st.floats(-9, 0))
        m = unitary(rng, p, 2) @ np.diag([1.0, ratio]) @ unitary(rng, 2, 2).conj().T
    if kind != "zero":
        m *= 10 ** draw(st.floats(-100, 100)) / np.linalg.norm(m)
    return m


@settings(max_examples=300)
@given(two_col_matrices())
def test_two_col_svd_matches_lapack(m):
    s, v = svd_two_cols(m)
    ref = np.linalg.svd(m, compute_uv=False)
    ref = np.pad(ref, (0, 2 - len(ref)))  # one row: one value
    assert s.shape == (2,) and s[0] >= s[1] >= 0
    assert np.abs(s - ref).max() <= 1e-14 * ref[0]
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-14
    mv = m @ v
    assert abs(np.vdot(mv[:, 0], mv[:, 1])) <= 1e-13 * s[0] ** 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), 1e200])
def test_non_finite_gram_matrix_raises(bad):
    m = np.ones((5, 2), dtype=complex)
    m[3, 1] = bad
    with pytest.raises(FactorizationError, match=r"^SVD of a \(5, 2\) matrix"):
        svd_two_cols(m)


@st.composite
def matrices(draw):
    """Tall, wide and square complex matrices: generic, of a lower rank,
    with near-degenerate singular values, or all zero."""
    p, q = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    kind = draw(st.sampled_from(["generic", "rank", "degenerate", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = min(p, q)
    if kind == "generic":
        m = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
    elif kind == "zero":
        m = np.zeros((p, q), dtype=complex)
    else:
        if kind == "rank":
            s = np.sort(10 ** rng.uniform(-9, 0, r))[::-1]
            s[draw(st.integers(1, r)):] = 0
        else:
            s = 1 - 10 ** draw(st.floats(-15, -6)) * np.arange(r)
        m = unitary(rng, p, r) @ np.diag(s) @ unitary(rng, q, r).conj().T
    if kind != "zero":
        m *= 10 ** draw(st.floats(-100, 100)) / np.linalg.norm(m)
    return m


@settings(max_examples=300)
@given(matrices(), st.sampled_from([0.0, RANK_TOL]))
def test_values_only_svd_matches_the_full_call(m, threshold):
    # the two calls run different LAPACK algorithms, each with an error of
    # a small multiple of eps * max(p, q) * s[0]: they agree within 1e-14 *
    # s[0] on small matrices, and within 8 eps * max(p, q) * s[0] on all
    # (fresh draws reached 3.9 eps * max(p, q), on a 15 x 15 matrix)
    s = svd_econ(m, threshold, vectors=False)
    fac = svd_econ(m, threshold)
    assert s.shape == (fac.k,)
    tol = max(1e-14, 8 * np.finfo(float).eps * max(m.shape))
    assert np.abs(s - fac.s).max() <= tol * fac.s[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("shape", [(5, 3), (4, 3), (3, 5)])
def test_values_only_svd_of_a_non_finite_matrix_raises(bad, shape):
    m = np.ones(shape, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(FactorizationError, match=rf"^SVD of a \({shape[0]}, {shape[1]}\) matrix"):
        svd_econ(m, vectors=False)
