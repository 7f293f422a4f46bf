"""Banded kernel against dense numpy/scipy oracles."""

import sys

import numpy as np
import pytest

from anoma import _bands
from anoma import model as M


def banded(n, diags):
    """BandedMatrix from row-aligned diagonals keyed by offset k,
    ``diags[k][..., i] == A[..., i, i + k]``; slots past the matrix and
    offsets with |k| >= n are dropped."""
    keys = [k for k in diags if abs(k) < n]
    lower = max((-k for k in keys if k < 0), default=0)
    upper = max((k for k in keys if k > 0), default=0)
    shape = np.broadcast_shapes(*(np.shape(diags[k])[:-1] for k in keys))
    ab = np.zeros(shape + (lower + upper + 1, n))
    for k in keys:
        v = np.asarray(diags[k], dtype=float)
        ab[..., upper - k, max(k, 0): n + min(k, 0)] = v[..., max(-k, 0): n - max(k, 0)]
    return _bands.BandedMatrix(ab, lower, upper)


def identity(n):
    return _bands.diagonal(np.ones(n))


def from_dense(dense, lower, upper):
    """The band of dense with the given bandwidths, every entry copied as
    it is, signed zeros included."""
    n = dense.shape[-1]
    ab = np.zeros(dense.shape[:-2] + (lower + upper + 1, n))
    for k in range(-lower, upper + 1):
        cols = np.arange(max(k, 0), n + min(k, 0))
        ab[..., upper - k, cols] = dense[..., cols - k, cols]
    return _bands.BandedMatrix(ab, lower, upper)


def transposed(m):
    """A^T, entry for entry."""
    return from_dense(np.swapaxes(m.to_dense(), -1, -2), m.upper, m.lower)


def spd(a):
    """A A^T + n I: symmetric positive definite, full band."""
    return (_bands.product(a, np.ones(a.n), a)
            + _bands.diagonal(np.full(a.n, float(a.n))))


def random_banded(rng, n, lower, upper):
    diags = {}
    for k in range(-lower, upper + 1):
        v = np.zeros(n)
        i0, i1 = max(0, -k), min(n, n - k)
        v[i0:i1] = rng.normal(size=i1 - i0)
        diags[k] = v
    return banded(n, diags)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_algebra_matches_dense(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = random_banded(rng, n, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        b = random_banded(rng, n, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        ad, bd = a.to_dense(), b.to_dense()
        assert np.allclose((a + b).to_dense(), ad + bd)
        assert np.allclose((a - b).to_dense(), ad - bd)
        d = rng.normal(size=n)
        assert np.allclose(_bands.product(a, d, b).to_dense(),
                           ad @ np.diag(d) @ bd.T)


def test_out_of_band_slots_are_zeroed():
    n = 4
    m = banded(n, {1: np.ones(n), -1: np.ones(n)})
    # column 0 of the superdiagonal and column n-1 of the subdiagonal are
    # outside the matrix
    assert m.ab[0, 0] == 0.0
    assert m.ab[2, n - 1] == 0.0


def test_spd_logdet_and_solves(rng):
    for _ in range(10):
        n = int(rng.integers(2, 30))
        a = random_banded(rng, n, 2, 2)
        s = spd(a)
        sd = s.to_dense()
        assert np.isclose(_bands.logdet2_sym_pd(s),
                          np.linalg.slogdet(sd)[1] / np.log(2))
        b = rng.normal(size=(n, 3))
        assert np.allclose(_bands.solve_sym_pd(s, b), np.linalg.solve(sd, b))
        assert np.allclose(_bands.solve_general(a, b),
                           np.linalg.solve(a.to_dense(), b))


def zero_padded(m, lower, upper):
    """m's band array widened with zero diagonals to the given bandwidths."""
    ab = np.zeros(m.batch_shape + (lower + upper + 1, m.n))
    ab[..., upper - m.upper: upper + m.lower + 1, :] = m.ab
    return ab


def assert_padded_bits(got, a, b, op):
    """got = op(a, b) holds, bit for bit, op of the zero-padded operands."""
    lower, upper = max(a.lower, b.lower), max(a.upper, b.upper)
    want = op(zero_padded(a, lower, upper), zero_padded(b, lower, upper))
    assert (got.lower, got.upper) == (lower, upper)
    assert got.ab.shape == want.shape
    assert got.ab.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", [np.add, np.subtract])
def test_sum_keeps_the_bits_of_the_zero_padded_sum(rng, op):
    # -0.0 + 0.0 is 0.0: a diagonal only one operand holds is still added
    # to zeros, so signed zeros come out as the padded sum gives them
    values = np.array([-0.0, 0.0, 1.5, -2.25])
    for _ in range(40):
        n = int(rng.integers(1, 7))
        ms = []
        for batch in [((), (3,)), ((3,), ())][int(rng.integers(2))]:
            lower, upper = (int(v) for v in rng.integers(0, 4, size=2))
            ab = rng.choice(values, size=batch + (lower + upper + 1, n))
            ms.append(_bands.BandedMatrix(ab, lower, upper))
        a, b = ms
        got = a + b if op is np.add else a - b
        assert_padded_bits(got, a, b, op)


def test_model_sums_keep_their_dense_bytes():
    # at zero offset E1 holds -0.0 on its main diagonal
    frame = M.FrameConfig(5, 0.3)
    r = M.build_correlation(frame)
    for err in (M.TimingError(0.0, 0.0), M.TimingError(0.02, -0.01)):
        e1m, e2m, rhat, rhat_n = M.build_error_matrices(frame, err)
        e1t = transposed(e1m)
        d = np.abs(M.build_gain(M.LinkConfig.from_gains(1.0, 0.5), 5)) ** 2
        for a, b, op in ((r, e1m, np.add), (e1m, e2m, np.subtract),
                         (r, e1t, np.add), (e1t, e1m, np.add),
                         (rhat_n, _bands.product(rhat_n, d, r), np.add),
                         (rhat_n, _bands.product(e1m - e2m, d, rhat), np.add),
                         (identity(10), _bands.product(identity(10), d, r),
                          np.add)):
            got = a + b if op is np.add else a - b
            assert_padded_bits(got, a, b, op)
            lower, upper = got.lower, got.upper
            want = _bands.BandedMatrix(
                op(zero_padded(a, lower, upper), zero_padded(b, lower, upper)),
                lower, upper)
            assert got.to_dense().tobytes() == want.to_dense().tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 37])
@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 0.73])
def test_correlation_is_symmetric_bit_for_bit(n, tau):
    # so D R, which the display route forms as I D R^T, keeps the bits
    # of d[i] R[i, j] entry by entry
    r = M.build_correlation(M.FrameConfig(n, tau))
    link = M.LinkConfig(p1=0.7, p2=1.3, h1=0.8 - 0.3j, h2=-0.2 + 1.1j)
    d = np.abs(M.build_gain(link, n)) ** 2
    dense = r.to_dense()
    assert dense.tobytes() == dense.T.tobytes()
    assert (_bands.product(identity(2 * n), d, r).to_dense().tobytes()
            == (d[:, None] * dense).tobytes())


def random_spd_batch(rng, batch, n):
    return spd(banded(n, {k: rng.normal(size=(batch, n))
                          for k in (-1, 0, 1, 2)}))


def test_batched_algebra_matches_dense(rng):
    n, batch = 7, 4
    a = banded(n, {k: rng.normal(size=(batch, n)) for k in (-2, 0, 1)})
    b = random_banded(rng, n, 1, 2)
    ad, bd = a.to_dense(), b.to_dense()
    assert ad.shape == (batch, n, n)
    assert np.allclose((a + b).to_dense(), ad + bd)
    d = rng.normal(size=(batch, n))
    assert np.allclose(_bands.product(a, d, b).to_dense(),
                       ad * d[:, None, :] @ bd.T)
    assert np.allclose(_bands.product(b, d, a).to_dense(),
                       bd * d[:, None, :] @ np.swapaxes(ad, 1, 2))


@pytest.mark.parametrize("n", [1, 2, 9])
def test_batched_logdet_is_per_matrix_logdet(rng, n):
    s = random_spd_batch(rng, 5, n)
    got = _bands.logdet2_sym_pd(s)
    assert got.shape == (5,)
    for b in range(5):
        one = _bands.BandedMatrix(s.ab[b], s.lower, s.upper)
        assert got[b] == _bands.logdet2_sym_pd(one)
        assert np.isclose(got[b], np.linalg.slogdet(s.to_dense()[b])[1] / np.log(2))


def test_batched_cholesky_names_failing_matrix(rng):
    s = random_spd_batch(rng, 5, 6)
    ab = s.ab.copy()
    ab[3, s.upper, 2] = -1.0
    with pytest.raises(_bands.NotPositiveDefinite) as info:
        _bands.cholesky_upper(_bands.BandedMatrix(ab, s.lower, s.upper))
    assert info.value.index == 3


def test_logdet_rejects_indefinite():
    n = 4
    m = _bands.diagonal(-np.ones(n))
    with pytest.raises(np.linalg.LinAlgError):
        _bands.logdet2_sym_pd(m)


def test_colored_factor_reproduces_covariance(rng):
    n = 6
    a = random_banded(rng, n, 1, 1)
    s = (_bands.product(a, np.ones(n), a)
         + _bands.diagonal(np.full(n, 3.0)))
    factor = _bands.cholesky_upper(s)
    w = rng.normal(size=n)
    dense_u = np.zeros((n, n))
    u = factor.shape[0] - 1
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            dense_u[i, j] = factor[j - i, i]
    assert np.allclose(dense_u.T @ dense_u, s.to_dense())
    assert np.allclose(_bands.colored_factor_apply(factor, w), dense_u.T @ w)
    # along the last axis of a block, row for row
    block = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    rows = [_bands.colored_factor_apply(factor, v) for v in block]
    assert np.array_equal(_bands.colored_factor_apply(factor, block), rows)


@pytest.mark.parametrize("n", [3, 9])
def test_matvec_matches_dense(rng, n):
    # at n = 3 the outer diagonals of a (4, 4) band lie outside the matrix
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    for lower in range(5):
        for upper in range(5):
            ab = rng.normal(size=(2, lower + upper + 1, n))
            batch = _bands.BandedMatrix(ab, lower, upper)
            dense = batch.to_dense()
            got = batch.matvec(x)
            assert np.allclose(got, np.einsum("bij,bj->bi", dense, x))
            for b in range(2):
                one = _bands.BandedMatrix(ab[b], lower, upper)
                assert np.allclose(one.matvec(x), x @ dense[b].T)
                # a batched A and a batch of x, row for row
                assert got[b].tobytes() == one.matvec(x[b]).tobytes()
                assert one.matvec(x)[b].tobytes() == one.matvec(x[b]).tobytes()


def test_matvec_sums_over_offsets_in_order_0_plus1_minus1():
    # out[1] = -1e16 (offset 0) + 1e16 (offset +1) + 1 (offset -1)
    a = banded(3, {0: np.ones(3), 1: np.ones(3), -1: np.ones(3)})
    assert a.matvec(np.array([1.0, -1e16, 1e16]))[1] == 1.0


def upper_storage_rows(upper):
    """LAPACK upper storage ``(..., u+1, n)``, row u - k holding diagonal
    k at columns k.., shifted to cholesky_upper's layout, row k holding
    it at slots ..n-k-1; zero past the matrix.  At u >= n the diagonals
    k >= n lie wholly outside it."""
    u, n = upper.shape[-2] - 1, upper.shape[-1]
    rows = np.zeros(upper.shape)
    for k in range(min(u, n - 1) + 1):
        rows[..., k, :n - k] = upper[..., u - k, k:]
    return rows


def upper_storage_cholesky(a):
    """Oracle: the factor from LAPACK's upper storage, each matrix's
    upper band factored by its own pbtrf(lower=0) call, in
    cholesky_upper's layout."""
    ab = a.ab[..., :a.upper + 1, :]
    out = np.empty(ab.shape)
    for i in np.ndindex(a.batch_shape):
        out[i], info = _bands._pbtrf(ab[i], lower=0)
        assert info == 0
    return upper_storage_rows(out)


def random_spd_band(rng, batch, n, u):
    """Symmetric, diagonally dominant (so positive definite) matrices of
    bandwidth u, given by their upper band alone; slots past the matrix
    are zero."""
    ab = np.zeros(batch + (u + 1, n))
    ab[..., u, :] = 2.0 * u + rng.uniform(size=batch + (n,))
    for k in range(1, min(u, n - 1) + 1):
        ab[..., u - k, k:] = rng.uniform(-1.0, 1.0, size=batch + (n - k,))
    return _bands.BandedMatrix(ab, 0, u)


STORAGE_CASES = [(u, n, batch) for u in (1, 2, 3, 4) for n in (1, 2, 3, 600)
                 for batch in ((), (3,))]


@pytest.mark.parametrize("u,n,batch", STORAGE_CASES)
def test_lower_storage_factor_is_the_upper_storage_factor(rng, u, n, batch):
    # pbtrf applies the same operations to every entry in both storages,
    # so the two factors agree bit for bit, out-of-matrix slots included;
    # a LAPACK/BLAS build that rounds them differently fails here
    a = random_spd_band(rng, batch, n, u)
    got = _bands.cholesky_upper(a)
    want = upper_storage_cholesky(a)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_plain_lower_storage_is_factored_in_place(rng):
    # a C-ordered (n, u+1) lower storage, nothing in front of it, given
    # by its lower rows: LAPACK factors it where it lies
    a = random_spd_band(rng, (), 6, 2)
    low = np.ascontiguousarray(upper_storage_rows(a.ab).T)
    full = _bands.BandedMatrix(np.concatenate([a.ab, low.T[1:]]), 2, 2)
    assert np.array_equal(full.to_dense(), full.to_dense().T)
    want = _bands.logdet2_sym_pd(full)
    got = _bands.logdet2_sym_pd(_bands.BandedMatrix(low.swapaxes(0, 1), 2, 0))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert low.T.tobytes() == _bands.cholesky_upper(full).tobytes()


def test_lower_rows_not_in_lower_storage_are_rejected_untouched(rng):
    # the lower rows of a symmetric band, C-ordered (u+1, n), so their
    # transpose is not
    upper = random_spd_band(rng, (), 6, 2)
    low = _bands.BandedMatrix(upper_storage_rows(upper.ab), 2, 0)
    assert (low.lower, low.upper) == (2, 0)
    before = low.ab.copy()
    with pytest.raises(ValueError, match="expected C-ordered lower storage"):
        _bands.cholesky_upper(low)
    assert low.ab.tobytes() == before.tobytes()


@pytest.mark.parametrize("u,n,batch", STORAGE_CASES)
def test_kernels_keep_the_bits_of_the_upper_storage_factor(rng, monkeypatch,
                                                           u, n, batch):
    a = random_spd_band(rng, batch, n, u)
    got = [_bands.logdet2_sym_pd(a)]
    if u == 1 and not batch:
        got.append(_bands.inverse_bands_tridiagonal(a, 3))
    monkeypatch.setattr(_bands, "cholesky_upper", upper_storage_cholesky)
    want = [_bands.logdet2_sym_pd(a)]
    if u == 1 and not batch:
        want.append(_bands.inverse_bands_tridiagonal(a, 3))
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 600])
def test_colored_noise_keeps_the_bits_of_the_upper_storage_factor(
        monkeypatch, n):
    from anoma import waveform as W
    frame = M.FrameConfig(n, 0.3)
    got = W.draw_colored_noise(frame, -0.1, np.random.default_rng(5))
    monkeypatch.setattr(_bands, "cholesky_upper", upper_storage_cholesky)
    want = W.draw_colored_noise(frame, -0.1, np.random.default_rng(5))
    assert got.tobytes() == want.tobytes()


def product_reference(a, d, b):
    """A diag(d) B^T from dense entries: C[i, j] starts at 0.0 and adds
    (A[i, i + ka] d[i + ka]) B[j, i + ka] for ka in a.offsets, skipping
    only the terms outside the matrix."""
    ad, bd = a.to_dense(), b.to_dense()
    shape = np.broadcast_shapes(a.batch_shape, np.shape(d)[:-1], b.batch_shape)
    n = a.n
    c = np.zeros(shape + (n, n))
    for i in range(n):
        for ka in a.offsets:
            m = i + ka
            if 0 <= m < n:
                scaled = ad[..., i, m] * d[..., m]
                c[..., i, :] += scaled[..., None] * bd[..., :, m]
    return c


PRODUCT_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, 1e16, -1e16, 0.3])
# (A, B) bandwidths: the display route's four products (RhatN D R^T,
# RhatN D E1^T, (E1 - E2) D Rhat^T and I D R^T), a wide A times a narrow
# B, and pairs drawn at random, some wider than the smallest matrices
PRODUCT_BANDWIDTHS = [((1, 1), (1, 1)), ((1, 1), (2, 2)), ((2, 2), (2, 2)),
                      ((0, 0), (1, 1)), ((2, 2), (1, 1))] + [
    ((int(p[0]), int(p[1])), (int(p[2]), int(p[3])))
    for p in np.random.default_rng(11).integers(0, 4, size=(6, 4))]
# (A, d, B) batch shapes: one matrix, a batch, and operands of mixed shapes
PRODUCT_BATCHES = [((), (), ()), ((3,), (), (3,)), ((3,), (), ()),
                   ((), (), (3,)), ((), (3,), ()), ((2, 1), (3,), ())]


def random_values_band(rng, batch, lower, upper, n):
    return _bands.BandedMatrix(
        rng.choice(PRODUCT_VALUES, size=batch + (lower + upper + 1, n)),
        lower, upper)


@pytest.mark.parametrize("batches", PRODUCT_BATCHES)
@pytest.mark.parametrize("bandwidths", PRODUCT_BANDWIDTHS)
def test_product_is_the_dense_sum_in_offsets_order(rng, bandwidths, batches):
    # signed zeros and terms 1e16 apart show any other summation order
    (la, ua), (lb, ub) = bandwidths
    for n in range(1, 10):
        a = random_values_band(rng, batches[0], la, ua, n)
        d = rng.choice(PRODUCT_VALUES, size=batches[1] + (n,))
        b = random_values_band(rng, batches[2], lb, ub, n)
        got = _bands.product(a, d, b)
        assert (got.lower, got.upper) == (min(la + ub, n - 1),
                                          min(ua + lb, n - 1))
        want = product_reference(a, d, b)
        assert got.to_dense().tobytes() == want.tobytes()
        # nothing but zeros past the matrix
        assert got.ab.tobytes() == from_dense(want, got.lower,
                                              got.upper).ab.tobytes()


@pytest.mark.parametrize("batch", [(), (3,)])
def test_product_without_b_is_the_upper_band_of_the_full_product(rng, batch):
    # A D A^T as in Rhat D Rhat^T, a batch of A and one d
    for n in range(1, 10):
        for lower, upper in ((2, 2), (0, 1), (1, 0), (2, 1), (0, 0)):
            a = random_values_band(rng, batch, lower, upper, n)
            d = rng.choice(PRODUCT_VALUES, size=n)
            full = _bands.product(a, d, a)
            got = _bands.product(a, d)
            assert (got.lower, got.upper) == (0, full.upper)
            assert (got.ab.tobytes()
                    == full.ab[..., :full.upper + 1, :].tobytes())
            # into the front of a work array, which it leaves as it found
            # it past the band
            for b, want in ((None, got), (a, full)):
                work = np.full(want.ab.size + 3, np.nan)
                into = _bands.product(a, d, b, out=work)
                assert np.shares_memory(into.ab, work)
                assert into.ab.tobytes() == want.ab.tobytes()
                assert np.isnan(work[want.ab.size:]).all()


def test_product_rejects_a_size_mismatch(rng):
    with pytest.raises(ValueError, match="dimension mismatch"):
        _bands.product(random_banded(rng, 4, 1, 1), np.ones(4),
                       random_banded(rng, 5, 1, 1))


@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_batch_axes_are_fastest_in_memory(rng, batch):
    # every band constructor allocates through band_array: one matrix is
    # C-ordered, a batch has its batch axes at the smallest strides, in a
    # new array or in a work array's front
    a = random_banded(rng, 6, 2, 1)
    b = _bands.BandedMatrix(rng.normal(size=batch + (3, 6)), 1, 1)
    a_batch = a + b
    ones = np.ones(6)
    work = np.full(1000, np.nan)
    for m in (a_batch, _bands.product(a_batch, ones, a),
              _bands.product(a, ones, a_batch), a_batch - a,
              _bands.product(a, np.ones(batch + (6,)), a),
              _bands.diagonal(np.ones(batch + (6,))),
              _bands.product(a_batch, ones),
              _bands.product(a_batch, ones, out=work)):
        assert m.batch_shape == batch
        strides = m.ab.strides
        assert max(strides[:len(batch)]) < min(strides[len(batch):])
        assert strides[len(batch) - 1] == m.ab.itemsize
    assert np.shares_memory(_bands.product(a_batch, ones, out=work).ab, work)
    for m in (a, _bands.product(a, ones, a), _bands.diagonal(ones),
              _bands.product(a, ones), _bands.product(a, ones, out=work)):
        assert m.ab.flags.c_contiguous


def test_add_into_keeps_the_bits_of_the_sum(rng):
    values = np.array([-0.0, 0.0, 1.5, -2.25])
    for lower, upper in ((0, 4), (1, 2), (2, 2)):
        a = _bands.BandedMatrix(rng.choice(values, size=(3, lower + upper + 1, 7)),
                                lower, upper)
        for b in (_bands.BandedMatrix(rng.choice(values, size=(3, 2, 7)), 0, 1),
                  _bands.BandedMatrix(rng.choice(values, size=(2, 7)), 0, 1)):
            want = (a + b).ab.tobytes()
            copy = _bands.BandedMatrix(a.ab.copy(), lower, upper)
            got = _bands.add_into(copy, b)
            assert got.ab is copy.ab
            assert got.ab.tobytes() == want
    with pytest.raises(ValueError, match="every diagonal"):
        _bands.add_into(_bands.BandedMatrix(np.zeros((2, 7)), 0, 1),
                        _bands.BandedMatrix(np.zeros((3, 7)), 1, 1))
    with pytest.raises(ValueError, match="every diagonal"):
        _bands.add_into(_bands.BandedMatrix(np.zeros((2, 7)), 0, 1),
                        _bands.BandedMatrix(np.zeros((3, 2, 7)), 0, 1))


def test_product_sums_over_offsets_in_order_0_plus1_minus1():
    # C[1, 1] = A[1, 1] B[1, 1] + A[1, 2] B[1, 2] + A[1, 0] B[1, 0]
    #         = -1e16 (offset 0) + 1e16 (offset +1) + 1 (offset -1);
    # in the order 0, +1, -1 that is exactly 1.0, in 0, -1, +1 it is 0.0
    ones = np.ones(3)
    a = banded(3, {0: ones, 1: ones, -1: ones})
    b = banded(3, {0: np.full(3, -1e16), 1: np.full(3, 1e16), -1: ones})
    assert a.offsets == [0, 1, -1]
    c = _bands.product(a, ones, b)
    assert c.ab[c.upper, 1] == 1.0
    assert c.to_dense()[1, 1] == 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_general_slogdet_matches_dense(rng, n):
    for _ in range(10):
        lower, upper = rng.integers(0, min(n, 5), size=2)
        a = random_banded(rng, n, int(lower), int(upper))
        sign, ld = _bands.slogdet2_general(a)
        ref_sign, ref_ld = np.linalg.slogdet(a.to_dense())
        assert sign == ref_sign
        assert np.isclose(ld, ref_ld / np.log(2), rtol=1e-12, atol=1e-12)


def test_general_slogdet_sign_from_swaps_and_pivots():
    # an odd permutation: det = -1, found only through a row swap
    swap = banded(2, {1: np.ones(2), -1: np.ones(2)})
    assert _bands.slogdet2_general(swap) == (-1.0, 0.0)
    neg = _bands.diagonal([2.0, -1.0, 4.0])
    assert _bands.slogdet2_general(neg) == (-1.0, 3.0)
    singular = _bands.diagonal([1.0, 0.0, 1.0])
    assert _bands.slogdet2_general(singular) == (0.0, -np.inf)


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_tridiagonal_inverse_bands_match_dense_inverse(rng, n):
    off = rng.uniform(-1.0, 1.0, size=n)
    a = banded(n, {0: 2.5 + rng.uniform(size=n), 1: off, -1: np.roll(off, 1)})
    got = _bands.inverse_bands_tridiagonal(a, 3)
    inv = np.linalg.inv(a.to_dense())
    assert got.shape == (4, n)
    for k in range(4):
        ref = np.zeros(n)
        ref[:max(n - k, 0)] = np.diagonal(inv, offset=k)
        assert np.allclose(got[k], ref, rtol=1e-13, atol=1e-15)


def test_tridiagonal_inverse_rejects_wider_band_and_indefinite():
    with pytest.raises(ValueError):
        _bands.inverse_bands_tridiagonal(
            banded(4, {0: np.ones(4), 2: np.ones(4)}), 1)
    with pytest.raises(_bands.NotPositiveDefinite):
        _bands.inverse_bands_tridiagonal(
            _bands.diagonal(-np.ones(4)), 1)


def test_tridiagonal_inverse_of_a_diagonal_matrix():
    # no super-diagonal in the factor: the inverse is diagonal too
    d = np.array([2.0, 4.0, 5.0])
    got = _bands.inverse_bands_tridiagonal(_bands.diagonal(d), 2)
    assert got.shape == (3, 3)
    assert np.allclose(got[0], 1.0 / d, rtol=1e-15, atol=0.0)
    assert not got[1:].any()


def scipy_lapack_routines():
    from scipy.linalg import lapack
    return lapack.dpbtrf, lapack.dgbtrf, lapack.dtbtrs


def loaded_by_path(monkeypatch):
    """The routines as a fresh process gets them: _flapack loaded from its
    file, with no scipy.linalg imported before."""
    monkeypatch.delitem(sys.modules, _bands._FLAPACK, raising=False)
    routines = _bands._lapack_routines()
    assert _bands._FLAPACK not in sys.modules
    return routines


class TestLapackLoaders:
    """The three routines come from the _flapack file, or from
    scipy.linalg.lapack when that file is missing or does not load; both
    give equal results."""

    def test_path_miss_falls_back_to_scipy_lapack(self, monkeypatch):
        monkeypatch.setattr(_bands, "_flapack_path", lambda: None)
        assert _bands._lapack_routines() == scipy_lapack_routines()

    def test_unloadable_file_falls_back_to_scipy_lapack(self, monkeypatch,
                                                        tmp_path):
        bogus = tmp_path / "_flapack.so"
        bogus.write_bytes(b"not a shared object")
        monkeypatch.delitem(sys.modules, _bands._FLAPACK, raising=False)
        with pytest.raises(ImportError):
            _bands._load_flapack(str(bogus))
        # the failed load leaves no half-made module behind
        assert _bands._FLAPACK not in sys.modules
        monkeypatch.setattr(_bands, "_flapack_path", lambda: str(bogus))
        assert _bands._lapack_routines() == scipy_lapack_routines()

    def test_module_routines_are_the_path_loaded_ones(self, monkeypatch):
        assert (_bands._pbtrf, _bands._gbtrf, _bands._tbtrs) \
            == loaded_by_path(monkeypatch)

    def test_both_paths_give_equal_results(self, monkeypatch, rng):
        by_path = loaded_by_path(monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(_bands, "_flapack_path", lambda: None)
        fallback = _bands._lapack_routines()
        n, batch = 9, 4
        spd = random_spd_batch(rng, batch, n)
        general = [random_banded(rng, n, 2, 1) for _ in range(batch)]
        bidiagonal = np.zeros((2, n))
        bidiagonal[0, 1:] = rng.uniform(-1.0, 1.0, size=n - 1)
        bidiagonal[1] = 1.0
        rhs = rng.normal(size=n)

        def results(routines):
            pbtrf, gbtrf, tbtrs = routines
            monkeypatch.setattr(_bands, "_pbtrf", pbtrf)
            out = [pbtrf(spd.ab[b, :spd.upper + 1], lower=0)[0]
                   for b in range(batch)]
            for a in general:
                work = np.zeros((2 * a.lower + a.upper + 1, n))
                work[a.lower:] = a.ab
                out += gbtrf(work, a.lower, a.upper)[:2]
            out.append(tbtrs(bidiagonal, rhs, uplo="U", diag="U")[0])
            out.append(_bands.logdet2_sym_pd(spd))
            return out

        got, want = results(by_path), results(fallback)
        assert len(got) == len(want) == batch + 2 * len(general) + 2
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
