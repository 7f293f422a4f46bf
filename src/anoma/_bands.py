"""Small banded-matrix kernel used by the model and throughput code.

A matrix is stored as a dict of diagonals keyed by offset ``k``
(``k > 0`` super-diagonal, ``k < 0`` sub-diagonal).  Diagonal arrays are
row-aligned and padded to full length ``n``::

    diags[k][..., i] == A[..., i, i + k]      (slots outside the band hold 0.0)

A diagonal may carry a leading batch axis, so one object holds a whole
sweep of same-size matrices and the algebra and the Cholesky log-det
run once per batch instead of once per matrix.

Everything here is O(bandwidth * n) in time and memory.  Factorizations
are delegated to LAPACK's banded drivers: Cholesky (``pbtrf``) for the
symmetric positive definite log-dets, LU (``gbtrf``) for the log-det of
a general banded matrix, and the Takahashi, Fagan & Chin (1973)
recurrence on a bidiagonal Cholesky factor for the band of a
tridiagonal inverse.  ``to_dense`` and the banded solves
``solve_sym_pd``/``solve_general``, which return dense arrays for dense
right-hand sides, serve the test oracles and the noise Monte Carlo's
dense expected covariance; the rate and loss kernels never call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dgbtrf as _gbtrf
from scipy.linalg.lapack import dpbtrf as _pbtrf
from scipy.linalg.lapack import dtbtrs as _tbtrs

_LN2 = float(np.log(2.0))


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A banded Cholesky factorization met a pivot that is not positive.

    ``index`` is the position of the failing matrix in the flattened
    batch (0 for a single matrix).
    """

    def __init__(self, index: int, order: int) -> None:
        super().__init__(f"leading minor of order {order} of matrix {index} "
                         "not positive definite")
        self.index = index


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix, or a batch of them, in row-aligned storage.

    A diagonal has shape ``(n,)`` or ``(B, n)``; the two may mix in one
    matrix, and broadcast as numpy arrays do, so every operation below
    acts on each matrix of a batch exactly as on a single matrix.
    """

    n: int
    diags: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        clean: dict[int, np.ndarray] = {}
        for k, v in self.diags.items():
            if abs(k) >= self.n:
                continue
            arr = np.array(v, dtype=float)
            if arr.ndim not in (1, 2) or arr.shape[-1] != self.n:
                raise ValueError(
                    f"diagonal {k} must have shape ({self.n},) or (B, {self.n})")
            # zero the slots that fall outside the matrix
            if k > 0:
                arr[..., self.n - k:] = 0.0
            elif k < 0:
                arr[..., :-k] = 0.0
            clean[k] = arr
        object.__setattr__(self, "diags", clean)

    @property
    def lower(self) -> int:
        return max((-k for k in self.diags if k < 0), default=0)

    @property
    def upper(self) -> int:
        return max((k for k in self.diags if k > 0), default=0)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """``()`` for a single matrix, ``(B,)`` for a batch of B."""
        return max((v.shape[:-1] for v in self.diags.values()), key=len,
                   default=())

    def diag(self, k: int) -> np.ndarray:
        """Row-aligned diagonal at offset k (zeros if absent)."""
        if k in self.diags:
            return self.diags[k].copy()
        return np.zeros(self.batch_shape + (self.n,))

    def to_dense(self) -> np.ndarray:
        a = np.zeros(self.batch_shape + (self.n, self.n))
        for k, v in self.diags.items():
            i0, i1 = max(0, -k), min(self.n, self.n - k)
            rows = np.arange(i0, i1)
            a[..., rows, rows + k] = v[..., i0:i1]
        return a

    @property
    def T(self) -> "BandedMatrix":
        out: dict[int, np.ndarray] = {}
        for k, v in self.diags.items():
            # A^T[i, i - k] = A[i - k + k, ...]; row-align by shifting
            w = np.zeros(v.shape)
            i0, i1 = max(0, -k), min(self.n, self.n - k)
            w[..., i0 + k: i1 + k] = v[..., i0:i1]
            out[-k] = w
        return BandedMatrix(self.n, out)

    def _combine(self, other: "BandedMatrix", sign: float) -> "BandedMatrix":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        out = {k: v.copy() for k, v in self.diags.items()}
        for k, v in other.diags.items():
            if k in out:
                out[k] = out[k] + sign * v
            else:
                out[k] = sign * v
        return BandedMatrix(self.n, out)

    def __add__(self, other: "BandedMatrix") -> "BandedMatrix":
        return self._combine(other, 1.0)

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        return self._combine(other, -1.0)

    def scaled(self, c) -> "BandedMatrix":
        """c * A; an array c of shape (B,) scales matrix b of a batch by c[b]."""
        c = np.asarray(c, dtype=float)[..., None]
        return BandedMatrix(self.n, {k: c * v for k, v in self.diags.items()})

    def row_scaled(self, d: np.ndarray) -> "BandedMatrix":
        """diag(d) @ A."""
        return BandedMatrix(self.n, {k: d * v for k, v in self.diags.items()})

    def col_scaled(self, d: np.ndarray) -> "BandedMatrix":
        """A @ diag(d): entry (i, i+k) picks up d[i+k]."""
        out = {}
        for k, v in self.diags.items():
            # d shifted onto row alignment; out-of-band slots of v are 0
            dk = np.zeros(d.shape)
            i0, i1 = max(0, -k), min(self.n, self.n - k)
            dk[..., i0:i1] = d[..., i0 + k: i1 + k]
            out[k] = v * dk
        return BandedMatrix(self.n, out)

    def matmul(self, other: "BandedMatrix",
               upper_only: bool = False) -> "BandedMatrix":
        """Banded product; result bandwidths add.

        With upper_only, only the diagonals k >= 0 are formed, each in
        the same order as in the full product: for a product known to be
        symmetric that is all a Cholesky reads.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        n = self.n
        shape = max(self.batch_shape, other.batch_shape, key=len) + (n,)
        out: dict[int, np.ndarray] = {}
        for ka, va in self.diags.items():
            for kb, vb in other.diags.items():
                kc = ka + kb
                if abs(kc) >= n or (upper_only and kc < 0):
                    continue
                # C[i, i+kc] += A[i, i+ka] * B[i+ka, i+ka+kb]
                i0 = max(0, -ka, -kc)
                i1 = min(n, n - ka, n - kc)
                if i1 <= i0:
                    continue
                acc = out.setdefault(kc, np.zeros(shape))
                acc[..., i0:i1] += va[..., i0:i1] * vb[..., i0 + ka: i1 + ka]
        return BandedMatrix(n, out)


def identity(n: int) -> BandedMatrix:
    return BandedMatrix(n, {0: np.ones(n)})


def _upper_ab(a: BandedMatrix) -> np.ndarray:
    """Symmetric upper band storage as LAPACK expects, per batch entry."""
    u, n = a.upper, a.n
    ab = np.zeros(a.batch_shape + (u + 1, n))
    for k in range(u + 1):
        if k in a.diags:
            ab[..., u - k, k:] = a.diags[k][..., 0: n - k]
    return ab


def _general_ab(a: BandedMatrix) -> tuple[tuple[int, int], np.ndarray]:
    """(l, u) and band storage as scipy's solve_banded expects."""
    l, u, n = a.lower, a.upper, a.n
    ab = np.zeros((l + u + 1, n))
    for k in range(1, u + 1):
        ab[u - k, k:] = a.diag(k)[0: n - k]
    ab[u, :] = a.diag(0)
    for m in range(1, l + 1):
        ab[u + m, 0: n - m] = a.diag(-m)[m:]
    return (l, u), ab


def cholesky_upper(a: BandedMatrix) -> np.ndarray:
    """Banded Cholesky factor in LAPACK upper storage, ``(u+1, n)``.

    A batch of B matrices gives ``(B, u+1, n)`` from one LAPACK ``pbtrf``
    call: the B bands lie end to end along the diagonal of one
    ``(u+1, B*n)`` band whose couplings between blocks are exactly zero,
    so each block's factor is bit for bit that of its matrix alone.
    Raises NotPositiveDefinite, naming the first failing matrix.
    """
    ab = _upper_ab(a)
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    u1, n = ab.shape[-2:]
    stacked = ab.reshape(-1, u1, n).transpose(1, 0, 2).reshape(u1, -1)
    factor, info = _pbtrf(stacked, lower=0)
    if info > 0:
        raise NotPositiveDefinite((info - 1) // n, (info - 1) % n + 1)
    if info < 0:
        raise ValueError(f"pbtrf: illegal value in argument {-info}")
    return factor.reshape(u1, -1, n).transpose(1, 0, 2).reshape(ab.shape)


def logdet2_sym_pd(a: BandedMatrix) -> float | np.ndarray:
    """log2 det(A) for symmetric positive definite banded A.

    A float for one matrix; an array of the batch shape for a batch.
    """
    c = cholesky_upper(a)
    ld = 2.0 * np.sum(np.log(c[..., -1, :]), axis=-1) / _LN2
    return float(ld) if ld.ndim == 0 else ld


def slogdet2_general(a: BandedMatrix) -> tuple[float, float]:
    """(sign, log2 |det A|) of one general banded A, by banded LU.

    The sign combines the signs of U's pivots with the parity of the
    row swaps.  As numpy's slogdet, a singular A (an exactly zero
    pivot) gives (0.0, -inf).
    """
    (l, u), ab = _general_ab(a)
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    # gbtrf needs l extra rows on top for the fill-in of row swaps
    work = np.zeros((2 * l + u + 1, a.n))
    work[l:] = ab
    lu, piv, info = _gbtrf(work, l, u)
    if info < 0:
        raise ValueError(f"gbtrf: illegal value in argument {-info}")
    if info > 0:
        return 0.0, -np.inf
    pivots = lu[l + u]
    swaps = np.count_nonzero(piv != np.arange(piv.size))
    negative = np.count_nonzero(pivots < 0.0)
    sign = -1.0 if (swaps + negative) % 2 else 1.0
    return sign, float(np.sum(np.log(np.abs(pivots)))) / _LN2


def inverse_bands_tridiagonal(a: BandedMatrix, width: int) -> np.ndarray:
    """Diagonals 0..width of the inverse of one SPD tridiagonal A.

    Returns ``(width + 1, n)``: row k holds ``inv(A)[i, i + k]`` at slot
    i, zero past the matrix; the inverse is symmetric, so these give its
    whole band.  With A = U^T U and U upper bidiagonal (diagonal u_i,
    super-diagonal v_i), U inv(A) = U^-T is lower triangular with
    diagonal 1/u_i, which gives the Takahashi, Fagan & Chin (1973)
    recurrences, with r_i = v_i / u_i:

        inv(A)[i, i]     = 1/u_i^2 + r_i^2 inv(A)[i+1, i+1]
        inv(A)[i, i + k] = -r_i inv(A)[i+1, i + k]          (k >= 1)

    The first is an upper bidiagonal solve.  O(width * n) time and
    memory; the inverse itself is never formed.
    """
    if a.lower > 1 or a.upper > 1 or a.batch_shape:
        raise ValueError("expected one tridiagonal matrix")
    n = a.n
    c = cholesky_upper(a)
    diag = c[-1]
    ratio = np.zeros(n)
    if n > 1:
        ratio[:-1] = c[0, 1:] / diag[:-1]
    # unit upper bidiagonal system: x_i - r_i^2 x_{i+1} = 1/u_i^2
    ab = np.zeros((2, n))
    ab[0, 1:] = -ratio[:-1] ** 2
    ab[1] = 1.0
    out = np.zeros((width + 1, n))
    out[0], info = _tbtrs(ab, 1.0 / diag ** 2, uplo="U", diag="U")
    if info < 0:
        raise ValueError(f"tbtrs: illegal value in argument {-info}")
    for k in range(1, min(width, n - 1) + 1):
        out[k, :n - k] = -ratio[:n - k] * out[k - 1, 1:n - k + 1]
    return out


def solve_sym_pd(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    return sla.solveh_banded(_upper_ab(a), b)


def solve_general(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    lu, ab = _general_ab(a)
    return sla.solve_banded(lu, ab, b)


def colored_factor_apply(chol_upper: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply U^T to w, where U is a banded upper Cholesky factor.

    With A = U^T U, the vector U^T w has covariance A when w is white.
    """
    u = chol_upper.shape[0] - 1
    n = chol_upper.shape[1]
    out = np.zeros(n, dtype=w.dtype)
    for m in range(u + 1):
        out[m:] += chol_upper[u - m, m:] * w[: n - m]
    return out
