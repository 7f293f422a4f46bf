"""Small banded-matrix kernel used by the model and throughput code.

A matrix is stored as a dict of diagonals keyed by offset ``k``
(``k > 0`` super-diagonal, ``k < 0`` sub-diagonal).  Diagonal arrays are
row-aligned and padded to full length ``n``::

    diags[k][..., i] == A[..., i, i + k]      (slots outside the band hold 0.0)

A diagonal may carry a leading batch axis, so one object holds a whole
sweep of same-size matrices and the algebra and the Cholesky log-det
run once per batch instead of once per matrix.

Everything here is O(bandwidth * n) in time and memory.  Factorizations
are delegated to LAPACK through scipy's banded drivers; dense conversion
exists only as a fallback/oracle path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpbtrf as _pbtrf

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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        y = np.zeros(max(self.batch_shape, x.shape[:-1], key=len) + (self.n,),
                     dtype=np.result_type(x.dtype, float))
        for k, v in self.diags.items():
            i0, i1 = max(0, -k), min(self.n, self.n - k)
            y[..., i0:i1] += v[..., i0:i1] * x[..., i0 + k: i1 + k]
        return y

    def matmul(self, other: "BandedMatrix") -> "BandedMatrix":
        """Banded product; result bandwidths add."""
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        n = self.n
        shape = max(self.batch_shape, other.batch_shape, key=len) + (n,)
        out: dict[int, np.ndarray] = {}
        for ka, va in self.diags.items():
            for kb, vb in other.diags.items():
                kc = ka + kb
                if abs(kc) >= n:
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


def from_dense(a: np.ndarray) -> BandedMatrix:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    diags = {}
    for k in range(-(n - 1), n):
        v = np.diagonal(a, offset=k)
        if np.any(v != 0.0):
            w = np.zeros(n)
            i0 = max(0, -k)
            w[i0: i0 + len(v)] = v
            diags[k] = w
    return BandedMatrix(n, diags)


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
