"""Small banded-matrix kernel used by the model and throughput code.

A square matrix with ``lower`` sub- and ``upper`` super-diagonals is one
array ``ab`` of shape ``(..., lower + upper + 1, n)`` in LAPACK's general
band layout::

    ab[..., upper + i - j, j] == A[..., i, j]

so row ``upper - k`` holds diagonal ``k`` (``k > 0`` above the main
diagonal), indexed by column; the slots of a row that fall outside the
matrix hold zero.  Leading axes are a batch: one object holds a whole
sweep of same-size matrices, and the algebra and the Cholesky log-det
run once per batch.  LU (``gbtrf``) reads this array as it is, below
``lower`` rows of fill-in space.

Memory order: a band built here (``band_array``) keeps that logical
shape, but a batch lies with its batch axes fastest, ``(rows, n,
*batch)`` in memory, and a single matrix is C-ordered.  The sweeps'
bands are short (the mistimed rate assembles ten columns) and their
batches long, so each numpy operation of the algebra runs over
contiguous runs of points, not over a few entries of every matrix in
turn.  Only the order of memory differs: every entry is formed by the
same operations either way.  ``band_array``, ``gram_upper`` and
``lower_storage`` can write to the front of a flat work array, and
``add_into`` into its first operand, so that a sweep reuses its buffers
from block to block instead of allocating (and faulting in) new ones.

Cholesky (``pbtrf``) factors LAPACK's lower storage of a symmetric
band with u super-diagonals, a C-ordered ``(..., n, u+1)`` array whose
row j holds ``A[j + k, j]`` at slot k, which f2py passes uncopied.  The
factor is handed out as that array read transposed, ``(..., u+1, n)``:
row k holds diagonal k of the upper factor, ``U[i, i + k]`` at slot i,
zero past the matrix, the row-aligned layout the inverse's band comes
in too.  At bandwidths 2-4 the upper storage costs two to three times
as much per column (``dpbtf2`` calls OpenBLAS's ``dsyr`` with stride u
there, unit stride here) for the same bits: both scale every entry by
1/a_jj and update it as a - x_p * x_q, so the lower factor is the upper
one transposed (tests/test_bands.py).  Read as a ``(u, 0)`` band, the
factor is U^T.

Summation order: a diagonal of a product ``A @ B`` (``gram_upper``'s
A D A^T too), and an entry of ``matvec``, the one band-times-vector
product, sums its terms over A's offsets in the fixed order 0, +1, -1,
+2, -2 (``offsets``).  A sum's bits depend on its order, so this order
fixes the bits of every rate, loss and output computed from a product.

Everything here is O(bandwidth * n) in time and memory.  The band of a
tridiagonal inverse comes from the Takahashi, Fagan & Chin (1973)
recurrence on its bidiagonal Cholesky factor.  ``to_dense`` and the
banded solves, which return dense arrays, serve the test oracles and
the noise Monte Carlo's expected covariance, never the rate and loss
kernels.

The three LAPACK routines (``dpbtrf``, ``dgbtrf``, ``dtbtrs``) come from
scipy's ``scipy/linalg/_flapack`` extension, loaded by file path:
``import scipy.linalg`` would run its package ``__init__``, which pulls
in ``numpy.f2py``, ``numpy.testing`` and scipy's array-API layer and
takes most of this package's import time.  The loader neither runs
``scipy/__init__`` nor leaves the module in ``sys.modules``, so a later
``import scipy.linalg`` runs as usual; ``scipy.linalg.lapack`` hands out
the same Fortran routines.  ``_flapack`` is private to scipy, so where
its file is missing or does not load, the routines come from
``scipy.linalg.lapack`` instead.  The banded solves, which only the test
oracles use, import ``scipy.linalg`` when first called.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

_LN2 = float(np.log(2.0))
_FLAPACK = "scipy.linalg._flapack"
_ROUTINES = ("dpbtrf", "dgbtrf", "dtbtrs")


def _flapack_path() -> str | None:
    """File of scipy's _flapack extension, found without importing scipy;
    None when there is no such file."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_flapack(path: str):
    """The _flapack module from its file, or the one scipy.linalg already
    imported.  A single-phase extension module enters itself in
    sys.modules when created; that entry is taken out again, so a later
    ``import scipy.linalg`` imports its package and its submodules as if
    this had never run."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
    spec = importlib.util.spec_from_file_location(_FLAPACK, path,
                                                  loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    finally:
        sys.modules.pop(_FLAPACK, None)
    return module


def _lapack_routines() -> tuple:
    """(dpbtrf, dgbtrf, dtbtrs): from the _flapack file when it loads,
    else from scipy.linalg.lapack."""
    path = _flapack_path()
    if path is not None:
        try:
            module = _load_flapack(path)
            return tuple(getattr(module, name) for name in _ROUTINES)
        except (ImportError, AttributeError):
            pass
    from scipy.linalg import lapack
    return tuple(getattr(lapack, name) for name in _ROUTINES)


_pbtrf, _gbtrf, _tbtrs = _lapack_routines()


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A banded Cholesky factorization met a pivot that is not positive.

    ``index`` is the position of the failing matrix in the flattened
    batch (0 for a single matrix).
    """

    def __init__(self, index: int, order: int) -> None:
        super().__init__(f"leading minor of order {order} of matrix {index} "
                         "not positive definite")
        self.index = index


def band_array(batch_shape: tuple[int, ...], rows: int, n: int,
               zero: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """A band array of shape ``batch_shape + (rows, n)``, zero-filled with
    zero, else uninitialized: C-ordered for one matrix, and with its batch
    axes fastest in memory for a batch (module docstring).  It is new, or
    with out, a flat float array, a view of out's front."""
    a = _c_array((rows, n) + tuple(batch_shape), zero, out)
    return a.transpose(*range(2, a.ndim), 0, 1) if batch_shape else a


def _broadcast(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """np.broadcast_shapes(s, t), without its few microseconds of array
    set-up where one shape is empty or both are equal."""
    if s == t or not t:
        return s
    return t if not s else np.broadcast_shapes(s, t)


def _c_array(shape: tuple[int, ...], zero: bool,
             out: np.ndarray | None) -> np.ndarray:
    """A C-ordered float array of shape, zero-filled with zero: new, or
    the front of out, a flat float array, reshaped."""
    if out is None:
        return (np.zeros if zero else np.empty)(shape)
    a = out[:math.prod(shape)].reshape(shape)
    if zero:
        a.fill(0.0)
    return a


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix, or a batch of them, in LAPACK band layout.

    Operands of different batch shapes broadcast as numpy arrays do, so
    every operation below acts on each matrix of a batch exactly as on a
    single matrix.  The array is taken as it is, not copied.
    """

    ab: np.ndarray
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.ab.shape[-2:-1] != (self.lower + self.upper + 1,):
            raise ValueError(f"band array {self.ab.shape} for bandwidths "
                             f"({self.lower}, {self.upper})")

    @property
    def n(self) -> int:
        return self.ab.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """``()`` for a single matrix, ``(B,)`` for a batch of B."""
        return self.ab.shape[:-2]

    @property
    def offsets(self) -> list[int]:
        """Diagonal offsets in summation order: 0, +1, -1, +2, -2, ..."""
        return sorted(range(-self.lower, self.upper + 1),
                      key=lambda k: (abs(k), -k))

    def to_dense(self) -> np.ndarray:
        n = self.n
        a = np.zeros(self.batch_shape + (n, n))
        for k in range(-self.lower, self.upper + 1):
            cols = np.arange(max(k, 0), n + min(k, 0))
            a[..., cols - k, cols] = self.ab[..., self.upper - k, cols]
        return a

    def _rows(self, upper: int, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of a band with ``upper`` super-diagonals, all of
        which this matrix holds."""
        shift = self.upper - upper
        return self.ab[..., r0 + shift: r1 + shift, :]

    def _combine(self, other: "BandedMatrix", op,
                 out: np.ndarray | None = None) -> "BandedMatrix":
        """op(A, B) written row by row from the operand rows each needs,
        into a new band or into out, a band array of the result's shape.

        A diagonal only one operand holds is ``x op 0.0`` or ``0.0 op y``,
        as if the other were padded with zeros, so every entry keeps the
        bits of that padded sum, signed zeros included.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        lower = max(self.lower, other.lower)
        upper = max(self.upper, other.upper)
        shape = _broadcast(self.batch_shape, other.batch_shape)
        ab = band_array(shape, lower + upper + 1, self.n) if out is None else out
        # the rows both hold, then the diagonals only the wider one holds
        lo = upper - min(self.upper, other.upper)
        hi = upper + min(self.lower, other.lower) + 1
        op(self._rows(upper, lo, hi), other._rows(upper, lo, hi),
           out=ab[..., lo:hi, :])
        for r0, r1, mine in ((0, lo, self.upper > other.upper),
                             (hi, lower + upper + 1, self.lower > other.lower)):
            if r0 == r1:
                continue
            if mine:
                op(self._rows(upper, r0, r1), 0.0, out=ab[..., r0:r1, :])
            else:
                op(0.0, other._rows(upper, r0, r1), out=ab[..., r0:r1, :])
        return BandedMatrix(ab, lower, upper)

    def __add__(self, other: "BandedMatrix") -> "BandedMatrix":
        return self._combine(other, np.add)

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        return self._combine(other, np.subtract)

    @property
    def T(self) -> "BandedMatrix":
        # A[i, i + k] at column i + k becomes A^T[i + k, i] at column i,
        # zero where i + k falls outside the matrix
        n = self.n
        ab = band_array(self.batch_shape, self.lower + self.upper + 1, n,
                        zero=True)
        for k in range(-self.lower, self.upper + 1):
            ab[..., self.lower + k, max(-k, 0): n - max(k, 0)] = (
                self.ab[..., self.upper - k, max(k, 0): n - max(-k, 0)])
        return BandedMatrix(ab, self.upper, self.lower)

    def col_scaled(self, d: np.ndarray) -> "BandedMatrix":
        """A @ diag(d): every entry of column j picks up d[j]."""
        d = np.asarray(d)
        shape = _broadcast(self.batch_shape, d.shape[:-1])
        ab = band_array(shape, self.lower + self.upper + 1, self.n)
        np.multiply(self.ab, d[..., None, :], out=ab)
        return BandedMatrix(ab, self.lower, self.upper)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x along the last axis of x, batch axes broadcast: out[i]
        sums A[i, i + k] x[i + k] over ``self.offsets`` from zero."""
        n = self.n
        if x.shape[-1] != n:
            raise ValueError("dimension mismatch")
        shape = (np.broadcast_shapes(self.batch_shape, x.shape[:-1]) + (n,)
                 if self.batch_shape else x.shape)
        out = np.zeros(shape, dtype=np.result_type(self.ab, x))
        for k in self.offsets:
            j0, j1 = max(k, 0), n + min(k, 0)
            if j0 < j1:  # a diagonal |k| >= n lies outside the matrix
                out[..., j0 - k: j1 - k] += (
                    self.ab[..., self.upper - k, j0:j1] * x[..., j0:j1])
        return out

    def matmul(self, other: "BandedMatrix") -> "BandedMatrix":
        """Banded product; result bandwidths add.

        Each diagonal of the product sums its terms over this matrix's
        offsets in the order ``self.offsets``.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        n = self.n
        lower = min(self.lower + other.lower, n - 1)
        upper = min(self.upper + other.upper, n - 1)
        shape = _broadcast(self.batch_shape, other.batch_shape)
        ab = band_array(shape, lower + upper + 1, n, zero=True)
        for ka in self.offsets:
            for kb in range(-other.lower, other.upper + 1):
                kc = ka + kb
                if not -lower <= kc <= upper:
                    continue
                # C[i, j] += A[i, i + ka] * B[i + ka, j] at column j = i + kc
                j0, j1 = max(0, kc, kb), min(n, n + kc, n + kb)
                ab[..., upper - kc, j0:j1] += (
                    self.ab[..., self.upper - ka, j0 - kb: j1 - kb]
                    * other.ab[..., other.upper - kb, j0:j1])
        return BandedMatrix(ab, lower, upper)


def diagonal(d) -> BandedMatrix:
    """diag(d); a ``(B, n)`` array gives a batch of B diagonal matrices."""
    d = np.asarray(d, dtype=float)
    ab = band_array(d.shape[:-1], 1, d.shape[-1])
    ab[..., 0, :] = d
    return BandedMatrix(ab, 0, 0)


def add_into(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """A + B, bit for bit, written into A's array: A must hold every
    diagonal of B, at A's batch shape."""
    if (b.lower > a.lower or b.upper > a.upper
            or _broadcast(a.batch_shape, b.batch_shape) != a.batch_shape):
        raise ValueError("A does not hold every diagonal of B")
    return a._combine(b, np.add, out=a.ab)


def gram_upper(a: BandedMatrix, d: np.ndarray,
               out: np.ndarray | None = None) -> BandedMatrix:
    """Upper band of the symmetric A diag(d) A^T, bit for bit that of
    ``a.col_scaled(d).matmul(a.T)``, formed without A^T or A D: row ka of
    A D is scaled when its turn in ``a.offsets`` comes, and A^T's
    diagonal kb is A's diagonal -kb, read shifted by kb.  Written to the
    front of out, a flat float array, when given.
    """
    n = a.n
    upper = min(a.upper + a.lower, n - 1)
    d = np.asarray(d)
    shape = _broadcast(a.batch_shape, d.shape[:-1])
    ab = band_array(shape, upper + 1, n, zero=True, out=out)
    scaled = band_array(shape, 1, n)[..., 0, :]
    term = np.empty_like(scaled)
    for ka in a.offsets:
        np.multiply(a.ab[..., a.upper - ka, :], d, out=scaled)
        for kb in range(-a.upper, a.lower + 1):
            kc = ka + kb
            if not 0 <= kc <= upper:
                continue
            # C[i, j] += (A D)[i, i + ka] * A[j, i + ka], j = i + kc, at
            # column j, the slot of A's diagonal -kb at column j - kb
            j0, j1 = max(0, kc, kb), min(n, n + kc, n + kb)
            prod = term[..., :j1 - j0]
            np.multiply(scaled[..., j0 - kb: j1 - kb],
                        a.ab[..., a.upper + kb, j0 - kb: j1 - kb], out=prod)
            ab[..., upper - kc, j0:j1] += prod
    return BandedMatrix(ab, 0, upper)


def lower_storage(a: BandedMatrix, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetric A, read from its upper band, in LAPACK lower storage
    (module docstring), zero past the matrix; a new array, or with out, a
    flat float array, a view of out's front.  Raises ValueError unless A
    is finite."""
    u, n = a.upper, a.n
    rows = a.ab[..., :u + 1, :]
    if not np.isfinite(rows).all():
        raise ValueError("array must not contain infs or NaNs")
    low = _c_array(a.batch_shape + (n, u + 1), True, out)
    for k in range(min(u, n - 1) + 1):
        low[..., :n - k, k] = rows[..., u - k, k:]
    return low


def cholesky_upper(a: BandedMatrix) -> np.ndarray:
    """Banded Cholesky factor U of A = U^T U, ``(..., u+1, n)`` in the
    layout of the module docstring: the lower storage pbtrf factored,
    read transposed.

    A band given by its lower rows (``upper == 0 < lower``) is such a
    transpose and is factored in place, its finiteness left to its
    builder; else lower_storage copies A's upper band.  A batch is
    factored by one ``pbtrf`` call: its bands lie end to end along one
    band whose couplings between blocks are exactly zero, so each
    block's factor is bit for bit that of its matrix alone.
    Raises NotPositiveDefinite, naming the first failing matrix.
    """
    if a.upper == 0 < a.lower:
        low = a.ab.swapaxes(-1, -2)
        if not low.flags.c_contiguous:
            raise ValueError("expected C-ordered lower storage")
    else:
        low = lower_storage(a)
    n, u1 = low.shape[-2:]
    _, info = _pbtrf(low.reshape(-1, u1).T, lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite((info - 1) // n, (info - 1) % n + 1)
    if info < 0:
        raise ValueError(f"pbtrf: illegal value in argument {-info}")
    return low.swapaxes(-1, -2)


def logdet2_sym_pd(a: BandedMatrix) -> float | np.ndarray:
    """log2 det(A) for symmetric positive definite banded A.

    A float for one matrix; an array of the batch shape for a batch.
    """
    c = cholesky_upper(a)
    ld = 2.0 * np.sum(np.log(c[..., 0, :]), axis=-1) / _LN2
    return float(ld) if ld.ndim == 0 else ld


def slogdet2_general(a: BandedMatrix) -> tuple[float, float]:
    """(sign, log2 |det A|) of one general banded A, by banded LU.

    The sign combines the signs of U's pivots with the parity of the
    row swaps.  As numpy's slogdet, a singular A (an exactly zero
    pivot) gives (0.0, -inf).
    """
    l, u = a.lower, a.upper
    if not np.isfinite(a.ab).all():
        raise ValueError("array must not contain infs or NaNs")
    # gbtrf needs l extra rows on top for the fill-in of row swaps
    work = np.zeros((2 * l + u + 1, a.n))
    work[l:] = a.ab
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
    diag = c[0]
    ratio = np.zeros(n)
    if len(c) > 1:  # a diagonal A has no super-diagonal
        ratio[:-1] = c[1, :-1] / diag[:-1]
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
    from scipy.linalg import solveh_banded
    return solveh_banded(a.ab[:a.upper + 1], b)


def solve_general(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    from scipy.linalg import solve_banded
    return solve_banded((a.lower, a.upper), a.ab, b)


def colored_factor_apply(chol_upper: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U^T w along the last axis of w, U a banded upper Cholesky factor
    as cholesky_upper returns it: for white w, U^T w has covariance U^T U."""
    return BandedMatrix(chol_upper, chol_upper.shape[0] - 1, 0).matvec(w)
