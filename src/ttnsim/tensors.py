"""Dense complex matrix kernels: economical SVD/QR, the two-column SVD and
the truncation rules.

All tensors are numpy ``complex128`` arrays in row-major (C) layout; the last
axis is the fastest. Operations are pure functions and never mutate inputs.
`svd_econ` is LAPACK's SVD, with the singular vectors or, where a split
needs only the spectrum to decide what to keep, without them;
`svd_two_cols` gives the singular values and right vectors of a (p, 2)
matrix, as a leaf edge's split needs, from its 2x2 Gram matrix and one
closed-form Jacobi rotation, with no LAPACK call. Both keep values by one
numerical-zero rule (`numerical_rank`), so every rank decision is made
here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, doc_int


@dataclass
class SvdFactors:
    """Economical SVD ``m = u @ diag(s) @ v_dag`` after truncation.

    `u` is a p-by-k isometry, `s` the kept singular values (nonincreasing,
    nonnegative), `v_dag` a k-by-q co-isometry.
    """

    u: np.ndarray
    s: np.ndarray
    v_dag: np.ndarray

    @property
    def k(self) -> int:
        return len(self.s)


# Zero-threshold calls still drop singular values this far below the leading
# one; they are numerical zeros (true zeros of a rank-deficient matrix land
# near machine epsilon), so pruning them is what "economical" means here.
ZERO_FLOOR = 1e-14


def numerical_rank(s: np.ndarray, threshold: float = 0.0) -> int:
    """How many leading values of the nonincreasing spectrum `s` to keep:
    those of at least ``max(threshold, ZERO_FLOOR) * s[0]``, and at least
    one, as an empty bond would disconnect the network."""
    if s[0] <= 0:
        return 1
    return max(1, int(np.count_nonzero(s >= max(threshold, ZERO_FLOOR) * s[0])))


def svd_econ(m: np.ndarray, threshold: float = 0.0,
             vectors: bool = True) -> SvdFactors | np.ndarray:
    """Economical SVD with relative-threshold truncation.

    Singular values below ``threshold * s[0]`` are discarded (numerically
    zero ones always are). At least one singular value is always retained:
    an empty bond would disconnect the network. With ``vectors=False`` only
    the singular values are computed, and the kept ones are returned as an
    array; LAPACK leaves a non-finite input's values NaN there without
    complaint, so such values raise FactorizationError.
    """
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    try:
        if not vectors:
            s = np.linalg.svd(m, compute_uv=False)
            if not np.isfinite(s).all():
                raise FactorizationError(f"SVD of a {m.shape} matrix: its values are not finite")
            return s[:numerical_rank(s, threshold)]
        u, s, v_dag = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD of a {m.shape} matrix did not converge") from exc
    k = numerical_rank(s, threshold)
    return SvdFactors(u[:, :k], s[:k], v_dag[:k, :])


def svd_two_cols(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values `s` (both, nonincreasing) and right singular vectors
    `v` (a 2x2 unitary, one per column) of a (p, 2) matrix, so that the
    columns of ``m @ v`` are orthogonal with norms `s`.

    `v` diagonalizes the Gram matrix ``G = m^H m`` by one two-sided Jacobi
    rotation (Golub & Van Loan, Matrix Computations, 8.5), computed in
    Python floats from G's three numbers. ``s[0]`` is the root of the larger
    eigenvalue; ``s[1]`` is ``|m @ v[:, 1]|``, whose absolute error is about
    eps * s[0], as LAPACK's is, where the root of the smaller eigenvalue
    would carry eps * s[0]**2 and hide every value below about 1e-8 * s[0].
    A Gram matrix that is not finite (a NaN or inf entry, or entries above
    about 1e154, whose squares overflow) raises FactorizationError.
    """
    if m.ndim != 2 or m.shape[1] != 2:
        raise ValueError(f"expected a (p, 2) matrix, got shape {m.shape}")
    # G from the real view (p, 4) of m, one real product with no copy:
    # conj(x) y = (xr yr + xi yi) + i (xr yi - xi yr)
    x = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite G raises below
        r = (x.T @ x).tolist()
    g00, g11 = r[0][0] + r[1][1], r[2][2] + r[3][3]
    g01 = complex(r[0][2] + r[1][3], r[0][3] - r[1][2])
    if not all(map(math.isfinite, (g00, g11, g01.real, g01.imag))):
        raise FactorizationError(f"SVD of a {m.shape} matrix: its Gram matrix is not finite")
    b, t = abs(g01), 0.0
    if b > 0:
        tau = (g11 - g00) / (2 * b)
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1 + tau * tau))
    c = 1 / math.sqrt(1 + t * t)
    sn, ph = t * c, (g01 / b).conjugate() if b > 0 else 1.0
    # G's eigenvectors: (c, -sn ph) for g00 - t b, and (sn, c ph) for g11 + t b
    lam0, lam1 = g00 - t * b, g11 + t * b
    v = np.array([[c, sn], [-sn * ph, c * ph]], dtype=np.complex128)
    if lam1 > lam0:
        lam0, v = lam1, v[:, ::-1]
    s0 = math.sqrt(max(lam0, 0.0))
    w = m @ v[:, 1]
    s1 = min(math.sqrt(np.vdot(w, w).real), s0)  # rounding may lift a double value above s0
    return np.array([s0, s1]), v


def qr_econ(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization; `q` is an isometry, `r` upper-triangular."""
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    try:
        q, r = np.linalg.qr(m, mode="reduced")
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"QR of a {m.shape} matrix did not converge") from exc
    return q, r


def check_rank_cap(value, what: str) -> int | None:
    """A rank cap is None or an integer (numpy's too; not a float or a bool)
    of at least 1; returns it as None or an int, for the caller to keep."""
    if value is None:
        return None
    cap = doc_int(value, what)
    if cap < 1:
        raise ValueError(f"{what} must be None or an integer of at least 1, got {value!r}")
    return cap


@dataclass(frozen=True)
class TruncationPolicy:
    """How singular values are pruned during re-orthonormalization sweeps.

    `rank` is the rule for every SVD a sweep takes: keep the values of at
    least ``sigma_rel * norm(s)`` (at least one), measured against the norm
    because in canonical form `s` is the state's Schmidt spectrum across the
    edge, so the cut acts on the normalized state; then cap the count at
    `d_max`, a cap that cuts being a cap event. A cap that falls inside a
    block of equal singular values keeps a subspace of that block that
    rounding chooses, so such a run's results can move with the BLAS build,
    thread count or contraction order. The default (0, None) is the exact
    mode: only numerically-zero singular values are removed and the
    represented state is untouched.
    """

    sigma_rel: float = 0.0
    d_max: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.sigma_rel < 1.0:
            raise ValueError("sigma_rel must lie in [0, 1)")
        object.__setattr__(self, "d_max", check_rank_cap(self.d_max, "d_max"))  # frozen

    def rank(self, s: np.ndarray) -> tuple[int, bool]:
        """`(keep, capped)` for a nonincreasing spectrum `s`: how many
        leading values to keep, and whether `d_max` cut them (a cap event)."""
        keep = len(s)
        if self.sigma_rel > 0:
            floor = self.sigma_rel * float(np.linalg.norm(s))
            keep = max(1, int(np.count_nonzero(s >= floor)))
        if self.d_max is not None and keep > self.d_max:
            return self.d_max, True
        return keep, False


EXACT = TruncationPolicy()

# Relative floor used by the engines' exact sweeps: singular values this far
# below the leading one are numerical zeros, keeping bond dimensions at the
# true Schmidt rank. Far below every verification tolerance in use (1e-10).
RANK_TOL = 1e-12
