"""Dense complex matrix kernels: economical SVD/QR and the truncation rule.

All tensors are numpy ``complex128`` arrays in row-major (C) layout; the last
axis is the fastest. Operations are pure functions and never mutate inputs.
"""

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


def svd_econ(m: np.ndarray, threshold: float = 0.0) -> SvdFactors:
    """Economical SVD with relative-threshold truncation.

    Singular values below ``threshold * s[0]`` are discarded (numerically
    zero ones always are). At least one singular value is always retained:
    an empty bond would disconnect the network.
    """
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    try:
        u, s, v_dag = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD of a {m.shape} matrix did not converge") from exc
    k = int(np.count_nonzero(s >= max(threshold, ZERO_FLOOR) * s[0])) if s[0] > 0 else 0
    k = max(k, 1)
    return SvdFactors(u[:, :k], s[:k], v_dag[:k, :])


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
