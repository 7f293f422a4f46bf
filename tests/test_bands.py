"""Banded kernel against dense numpy/scipy oracles."""

import numpy as np
import pytest

from anoma import _bands


def random_banded(rng, n, lower, upper):
    diags = {}
    for k in range(-lower, upper + 1):
        v = np.zeros(n)
        i0, i1 = max(0, -k), min(n, n - k)
        v[i0:i1] = rng.normal(size=i1 - i0)
        diags[k] = v
    return _bands.BandedMatrix(n, diags)


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
        assert np.allclose(a.matmul(b).to_dense(), ad @ bd)
        assert np.allclose(a.T.to_dense(), ad.T)
        d = rng.normal(size=n)
        assert np.allclose(a.row_scaled(d).to_dense(), np.diag(d) @ ad)
        assert np.allclose(a.col_scaled(d).to_dense(), ad @ np.diag(d))
        assert np.allclose(a.scaled(-2.5).to_dense(), -2.5 * ad)


def test_out_of_band_slots_are_zeroed():
    n = 4
    m = _bands.BandedMatrix(n, {1: np.ones(n), -1: np.ones(n)})
    # slot n-1 of the superdiagonal and slot 0 of the subdiagonal are outside
    assert m.diags[1][n - 1] == 0.0
    assert m.diags[-1][0] == 0.0


def test_spd_logdet_and_solves(rng):
    for _ in range(10):
        n = int(rng.integers(2, 30))
        a = random_banded(rng, n, 2, 2)
        s = a.matmul(a.T) + _bands.identity(n).scaled(n)
        sd = s.to_dense()
        assert np.isclose(_bands.logdet2_sym_pd(s),
                          np.linalg.slogdet(sd)[1] / np.log(2))
        b = rng.normal(size=(n, 3))
        assert np.allclose(_bands.solve_sym_pd(s, b), np.linalg.solve(sd, b))
        assert np.allclose(_bands.solve_general(a, b),
                           np.linalg.solve(a.to_dense(), b))


def random_spd_batch(rng, batch, n):
    a = _bands.BandedMatrix(n, {k: rng.normal(size=(batch, n))
                                for k in (-1, 0, 1, 2)})
    return a.matmul(a.T) + _bands.identity(n).scaled(n)


def test_batched_algebra_matches_dense(rng):
    n, batch = 7, 4
    a = _bands.BandedMatrix(n, {k: rng.normal(size=(batch, n))
                                for k in (-2, 0, 1)})
    b = random_banded(rng, n, 1, 2)
    ad, bd = a.to_dense(), b.to_dense()
    assert ad.shape == (batch, n, n)
    assert np.allclose((a + b).to_dense(), ad + bd)
    assert np.allclose(a.matmul(b).to_dense(), ad @ bd)
    assert np.allclose(b.matmul(a).to_dense(), bd @ ad)
    assert np.allclose(a.T.to_dense(), np.swapaxes(ad, 1, 2))
    d = rng.normal(size=(batch, n))
    assert np.allclose(a.col_scaled(d).to_dense(), ad * d[:, None, :])
    assert np.allclose(b.col_scaled(d).to_dense(), bd * d[:, None, :])
    c = rng.normal(size=batch)
    assert np.allclose(b.scaled(c).to_dense(), c[:, None, None] * bd)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_batched_logdet_is_per_matrix_logdet(rng, n):
    s = random_spd_batch(rng, 5, n)
    got = _bands.logdet2_sym_pd(s)
    assert got.shape == (5,)
    for b in range(5):
        one = _bands.BandedMatrix(n, {k: v[b] for k, v in s.diags.items()})
        assert got[b] == _bands.logdet2_sym_pd(one)
        assert np.isclose(got[b], np.linalg.slogdet(s.to_dense()[b])[1] / np.log(2))


def test_batched_cholesky_names_failing_matrix(rng):
    s = random_spd_batch(rng, 5, 6)
    diags = dict(s.diags)
    diags[0] = diags[0].copy()
    diags[0][3, 2] = -1.0
    with pytest.raises(_bands.NotPositiveDefinite) as info:
        _bands.cholesky_upper(_bands.BandedMatrix(6, diags))
    assert info.value.index == 3


def test_logdet_rejects_indefinite():
    n = 4
    m = _bands.BandedMatrix(n, {0: -np.ones(n)})
    with pytest.raises(np.linalg.LinAlgError):
        _bands.logdet2_sym_pd(m)


def test_colored_factor_reproduces_covariance(rng):
    n = 6
    a = random_banded(rng, n, 1, 1)
    s = a.matmul(a.T) + _bands.identity(n).scaled(3.0)
    factor = _bands.cholesky_upper(s)
    w = rng.normal(size=n)
    dense_u = np.zeros((n, n))
    u = factor.shape[0] - 1
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            dense_u[i, j] = factor[u + i - j, j]
    assert np.allclose(dense_u.T @ dense_u, s.to_dense())
    assert np.allclose(_bands.colored_factor_apply(factor, w), dense_u.T @ w)


def test_upper_only_product_is_upper_band_of_full_product(rng):
    # a batch and a single matrix, as in R_hat D R_hat^T
    a = _bands.BandedMatrix(9, {k: rng.normal(size=(3, 9))
                                for k in (-2, -1, 0, 1, 2)})
    b = a.T.row_scaled(rng.normal(size=9))
    full = a.matmul(b)
    upper = a.matmul(b, upper_only=True)
    assert sorted(upper.diags) == [k for k in sorted(full.diags) if k >= 0]
    for k, v in upper.diags.items():
        assert np.array_equal(v, full.diags[k])


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
    swap = _bands.BandedMatrix(2, {1: np.ones(2), -1: np.ones(2)})
    assert _bands.slogdet2_general(swap) == (-1.0, 0.0)
    neg = _bands.BandedMatrix(3, {0: np.array([2.0, -1.0, 4.0])})
    assert _bands.slogdet2_general(neg) == (-1.0, 3.0)
    singular = _bands.BandedMatrix(3, {0: np.array([1.0, 0.0, 1.0])})
    assert _bands.slogdet2_general(singular) == (0.0, -np.inf)


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_tridiagonal_inverse_bands_match_dense_inverse(rng, n):
    off = rng.uniform(-1.0, 1.0, size=n)
    a = _bands.BandedMatrix(n, {0: 2.5 + rng.uniform(size=n), 1: off,
                                -1: np.roll(off, 1)})
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
            _bands.BandedMatrix(4, {0: np.ones(4), 2: np.ones(4)}), 1)
    with pytest.raises(_bands.NotPositiveDefinite):
        _bands.inverse_bands_tridiagonal(
            _bands.BandedMatrix(4, {0: -np.ones(4)}), 1)
