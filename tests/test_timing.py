"""Timing-error throughput, losses, and linear sensitivity models."""

import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import (assume, example, given, seed, settings,
                        strategies as st)

from anoma import _bands
from anoma import cli
from anoma import model as M
from anoma import timing as TM
from anoma import throughput as T
from anoma import waveform as W

LINK = M.LinkConfig.from_gains(1.0, 0.5)
FRAME = M.FrameConfig(10, 0.5)


def re_dense_oracle(link, frame, e1, e2):
    """Second implementation path: assemble the mistimed rate from raw
    dense matrices and a dense log-det."""
    n = frame.n
    _, _, rhat, rhat_n = M.build_error_matrices(frame, M.TimingError(e1, e2))
    rh, rn = rhat.to_dense(), rhat_n.to_dense()
    d = np.empty(2 * n)
    d[0::2], d[1::2] = link.mu1, link.mu2
    a = np.eye(2 * n) + np.linalg.solve(rn, rh @ np.diag(d) @ rh.T)
    sign, ld = np.linalg.slogdet(a)
    assert sign > 0
    return ld / math.log(2.0) / (n + frame.tau)


def trace_coefficient_dense_oracle(link, frame, z_signal, z_noise):
    """The slope by its defining formula, with dense right-hand sides:
    -Tr[(I + D R)^-1 (D Z^T + R^-1 (Z - Z3) D R)] / ((n + tau) ln 2)."""
    n, tau, n2 = frame.n, frame.tau, 2 * frame.n
    r = M.build_correlation(frame)
    d = np.abs(M.build_gain(link, n)) ** 2
    z, rd = z_signal.to_dense(), r.to_dense()
    mixing = z if z_noise is None else z - z_noise.to_dense()
    solved = _bands.solve_sym_pd(r, mixing @ np.diag(d) @ rd)
    rhs = np.diag(d) @ z.T + solved
    a = np.eye(n2) + np.diag(d) @ rd
    f = np.linalg.solve(a, rhs)
    return -float(np.trace(f)) / ((n + tau) * math.log(2.0))


def slope_patterns(slope, n, branch, step=2.0 ** -6):
    """(Z, Z3) for a slope on its sign branch: the derivatives of E1 and
    of the noise covariance along the slope's error, as difference
    quotients.  E1 and E2 are linear on a branch, so with a power-of-two
    step the quotient is exact."""
    unit = (1.0, 0.0) if slope is TM.sync_loss_slope else (0.0, 1.0)
    frame = M.FrameConfig(n, 0.5)
    t = branch * step
    moved = M.build_error_matrices(frame, M.TimingError(t * unit[0], t * unit[1]))
    still = M.build_error_matrices(frame, M.TimingError())
    z, z3 = (a - b for a, b in zip(moved[:2], still[:2]))
    return tuple(_bands.BandedMatrix(d.ab / t, d.lower, d.upper) for d in (z, z3))


def display_dense_oracle(link, frame, err):
    """The rearranged loss expression as written, with dense solves and
    a dense log-det."""
    n, tau, n2 = frame.n, frame.tau, 2 * frame.n
    e1m, e2m, _, rhat_n = M.build_error_matrices(frame, err)
    r = M.build_correlation(frame)
    d = np.abs(M.build_gain(link, n)) ** 2
    e1, e2, rd = e1m.to_dense(), e2m.to_dense(), r.to_dense()
    mid = _bands.solve_sym_pd(rhat_n, (e1 - e2) @ np.diag(d) @ (rd + e1.T))
    rhs = np.diag(d) @ e1.T + mid
    a = np.eye(n2) + np.diag(d) @ rd
    v = np.linalg.solve(a, rhs)
    sign, ld = np.linalg.slogdet(np.eye(n2) + v)
    assert sign > 0.0
    return -ld / math.log(2.0) / (n + tau)


class TestThroughputWithError:
    def test_zero_error_is_bit_exact(self):
        got = TM.throughput_with_error(LINK, FRAME, M.TimingError(0.0, 0.0))
        assert got == T.throughput_matrix(LINK, FRAME)

    def test_error_always_costs_at_small_offsets(self):
        base = T.throughput_matrix(LINK, FRAME)
        assert TM.throughput_with_error(LINK, FRAME, M.TimingError(0.05, 0.0)) < base

    @pytest.mark.parametrize("e1,e2", [
        (0.05, 0.03), (-0.05, 0.0), (0.02, -0.06), (-0.03, 0.08), (0.1, 0.1),
    ])
    def test_matches_dense_oracle_all_sign_cases(self, e1, e2):
        frame = M.FrameConfig(2, 0.5)
        got = TM.throughput_with_error(LINK, frame, M.TimingError(e1, e2))
        assert math.isclose(got, re_dense_oracle(LINK, frame, e1, e2),
                            rel_tol=1e-12)

    def test_singular_noise_covariance_reported(self):
        # tau + eps2 = 1 duplicates the second sample stream exactly
        with pytest.raises(M.DomainError, match="eps2"):
            TM.throughput_with_error(LINK, FRAME, M.TimingError(0.0, 0.5))

    def test_inadmissible_error_rejected(self):
        with pytest.raises(M.DomainError):
            TM.throughput_with_error(LINK, FRAME, M.TimingError(0.6, 0.0))


class TestBatchedRate:
    # one point per sign branch of (eps1, eps1 + eps2), plus a point on
    # each kink line
    EPS1 = np.array([0.05, 0.05, -0.05, -0.05, 0.0, 0.03])
    EPS2 = np.array([0.03, -0.08, 0.08, -0.02, 0.04, -0.03])

    @pytest.mark.parametrize("n", [1, 2, 10, 33])
    def test_matches_dense_oracle_all_sign_branches(self, n):
        frame = M.FrameConfig(n, 0.5)
        got = TM.throughput_with_error(
            LINK, frame, M.TimingError(self.EPS1, self.EPS2))
        assert got.shape == self.EPS1.shape
        for r_e, e1, e2 in zip(got, self.EPS1, self.EPS2):
            assert math.isclose(r_e, re_dense_oracle(LINK, frame, e1, e2),
                                rel_tol=1e-12)

    def test_ragged_grid_equals_point_calls_bitwise(self):
        frame = M.FrameConfig(100, 0.45)
        # 121 points: one full block of 81 and a ragged one of 40
        eps = 0.02 * np.arange(-5, 6)
        e1, e2 = np.meshgrid(eps, eps, indexing="ij")
        block = TM._BLOCK_ENTRIES // (2 * frame.n)
        assert e1.size > block and e1.size % block != 0
        got = TM.loss_ratio(LINK, frame, M.TimingError(e1, e2))
        assert got.shape == e1.shape
        for i in range(len(eps)):
            for j in range(len(eps)):
                ref = TM.loss_ratio(LINK, frame,
                                    M.TimingError(float(eps[i]), float(eps[j])))
                assert got[i, j] == ref

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40),
           tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           gains=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
           entries=st.integers(2, 30), size=st.sampled_from(
               ["step", "step+1", "chunk-1", "chunk", "chunk+1", "2chunk+1"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=5, tau=0.5, gains=(1.0, 0.5), entries=30, size="chunk+1", seed=0)
    @example(n=6, tau=0.3, gains=(1e3, 1e-3), entries=30, size="2chunk+1", seed=1)
    @example(n=40, tau=0.7, gains=(0.5, 8.0), entries=30, size="chunk+1", seed=2)
    def test_batched_rates_equal_point_calls_bitwise(self, n, tau, gains,
                                                     entries, size, seed):
        # blocks of entries * 2n band entries make a step of `entries`
        # points, so that batches straddle a step and a chunk at every n;
        # the points run through every sign branch of (eps1, eps1 + eps2)
        frame = M.FrameConfig(n, tau)
        link = M.LinkConfig.from_gains(*gains)
        with mock.patch.object(TM, "_BLOCK_ENTRIES", entries * 2 * n):
            step = entries
            chunk = max(1, TM._BLOCK_ENTRIES // (2 * TM._FRAME_SLOTS * step)) * step
            count = {"step": step, "step+1": step + 1, "chunk-1": max(chunk - 1, 1),
                     "chunk": chunk, "chunk+1": chunk + 1,
                     "2chunk+1": 2 * chunk + 1}[size]
            rng = np.random.default_rng(seed)
            f1, f2 = np.array([SIGN_BRANCHES[i % 9] for i in range(count)]).T
            # |eps1| and |eps1 + eps2| below half their bounds keep eps2
            # inside (-tau, 1 - tau), where RhatN is positive definite
            f1 = f1 * rng.uniform(0.02, 0.98, count)
            f2 = f2 * rng.uniform(0.02, 0.98, count)
            e1 = np.where(f1 > 0, f1 * tau, f1 * (1.0 - tau))
            e2 = np.where(f2 > 0, f2 * (1.0 - tau), f2 * tau) - e1
            err = M.TimingError(e1, e2)
            try:
                err.check_admissible(frame)
            except M.DomainError:
                assume(False)  # rounding carried eps1 + eps2 past a bound
            try:
                got = TM.throughput_with_error(link, frame, err)
            except M.DomainError:
                # a covariance too ill-conditioned to factor: the point
                # calls must fail at the point the batch names
                assume(False)
            for i in range(count):
                one = TM.throughput_with_error(
                    link, frame, M.TimingError(float(e1[i]), float(e2[i])))
                assert np.float64(one).tobytes() == got[i].tobytes()

    def test_assembled_bands_have_the_batch_axis_fastest(self):
        # every band of the five-slot assembly, so that a C-ordered
        # allocation cannot slip back in; pbtrf's lower storage alone is
        # C-ordered, a band given by its lower rows
        seen = []

        def post_init(band, _orig=_bands.BandedMatrix.__post_init__):
            _orig(band)
            seen.append(band)

        eps = 0.005 * np.arange(-20, 21)
        err = M.TimingError(*(v.ravel() for v in np.meshgrid(eps, eps)))
        with mock.patch.object(_bands.BandedMatrix, "__post_init__", post_init):
            TM._mistimed_rates(LINK, M.FrameConfig(20, 0.45), *err.arrays())
        assembled = [b for b in seen if b.batch_shape and not b.upper == 0 < b.lower]
        # per chunk of three: Rhat, its gram, RhatN, its upper band, the
        # sum and its bandwidth-3 view
        assert len(assembled) >= 6 * 3
        for band in assembled:
            assert band.ab.strides[0] == band.ab.itemsize

    def test_gamma_exactly_zero_at_origin_of_a_batch(self):
        err = M.TimingError(np.array([0.01, 0.0, -0.01]), 0.0)
        gamma = TM.loss_ratio(LINK, FRAME, err)
        assert gamma[1] == 0.0
        assert gamma[0] > 0.0 and gamma[2] > 0.0

    def test_singular_noise_covariance_names_the_point(self):
        err = M.TimingError(0.0, np.array([0.1, 0.2, 0.5, 0.3]))
        with pytest.raises(M.DomainError,
                           match=r"singular .* \(eps1, eps2\) = \(0\.0, 0\.5\)"):
            TM.throughput_with_error(LINK, FRAME, err)

    def test_inadmissible_point_is_named(self):
        err = M.TimingError(np.array([0.1, 0.6]), 0.0)
        with pytest.raises(M.DomainError, match=r"\(eps1, eps2\) = \(0\.6, 0\.0\)"):
            TM.throughput_with_error(LINK, FRAME, err)

    def test_deduplicated_noise_factor_names_the_first_failing_point(self):
        # at tau = 0.5, RhatN is singular at eps2 = 0.5 and at eps2 = -0.5;
        # the first in batch order is 0.5, behind repeated smaller values,
        # while sorting the distinct values would put -0.5 first
        eps2 = np.array([0.3, 0.1, 0.3, 0.5, 0.1, -0.5, 0.5, 0.2])
        with pytest.raises(M.DomainError,
                           match=r"singular .* \(eps1, eps2\) = \(0\.0, 0\.5\)"):
            TM.throughput_with_error(LINK, FRAME, M.TimingError(0.0, eps2))
        with pytest.raises(M.DomainError,
                           match=r"singular .* \(eps1, eps2\) = \(0\.0, -0\.5\)"):
            TM.throughput_with_error(LINK, FRAME, M.TimingError(
                0.0, np.array([0.3, 0.1, 0.3, -0.5, 0.5])))

    def test_only_the_mistimed_blocks_are_factored_after_the_no_error_rate(
            self, monkeypatch):
        shapes = []
        monkeypatch.setattr(_bands, "cholesky_upper",
                            lambda a, _orig=_bands.cholesky_upper:
                            shapes.append(a.batch_shape) or _orig(a))
        eps = 0.005 * np.arange(-20, 21)
        e1, e2 = np.meshgrid(eps, eps, indexing="ij")
        TM.loss_ratio(LINK, FRAME, M.TimingError(e1, e2))
        # the no-error rate, then the 1,680 mistimed points in blocks:
        # log2 det RhatN is in closed form, so no RhatN is factored
        block = TM._BLOCK_ENTRIES // (2 * FRAME.n)
        assert shapes == [()] + [(min(block, 1680 - start),)
                                 for start in range(0, 1680, block)]

    @pytest.mark.parametrize("n", [5, 32, 300])
    def test_peak_memory_of_the_default_grid(self, n):
        # a block's widened band is 5 rows of _BLOCK_ENTRIES doubles, and a
        # chunk's five-slot assembly holds about as many entries per row
        # (at n <= 5 the chunk is the block).  The chunks reuse one work
        # array of two five-slot bands: Rhat, then the lower storage, in
        # one; RhatN + Rhat D Rhat^T in the other.  At n > 5 each step
        # widens into a new band, a third.  With RhatN's 3 rows added in,
        # or the product's two row temporaries, that is the peak (about
        # 2.9 bands at n = 5, 3.4 at n = 300), next to O(points) vectors
        # of the 1,681-point grid.  Allow four bands.
        frame = M.FrameConfig(n, 0.5)
        eps = 0.005 * np.arange(-20, 21)
        err = M.TimingError(*np.meshgrid(eps, eps, indexing="ij"))
        TM.loss_ratio(LINK, frame, err)
        tracemalloc.start()
        try:
            TM.loss_ratio(LINK, frame, err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 5 * 8 * TM._BLOCK_ENTRIES

    @pytest.mark.parametrize("n", [3, 32])
    def test_lapack_factors_the_widened_band_in_place(self, monkeypatch, n):
        # the array pbtrf returns factored is the band the sweep built, so
        # f2py made no copy of it, and cholesky_upper's factor views it
        built, factored, factors = [], [], []

        def widen(*args, _orig=TM._widen):
            built.append(_orig(*args))
            return built[-1]

        def pbtrf(ab, _orig=_bands._pbtrf, **kwargs):
            out = _orig(ab, **kwargs)
            factored.append(out[0])
            return out

        def cholesky(a, _orig=_bands.cholesky_upper):
            factors.append(_orig(a))
            return factors[-1]

        monkeypatch.setattr(TM, "_widen", widen)
        monkeypatch.setattr(_bands, "_pbtrf", pbtrf)
        monkeypatch.setattr(_bands, "cholesky_upper", cholesky)
        eps = 0.005 * np.arange(-20, 21)
        TM.loss_ratio(LINK, M.FrameConfig(n, 0.5),
                      M.TimingError(*np.meshgrid(eps, eps, indexing="ij")))
        # the no-error rate is factored first; every later factorization
        # is of a widened band, at least two blocks of the 1,680 points
        assert len(built) == len(factored) - 1 == len(factors) - 1 >= 2
        for cov, lapack, factor in zip(built, factored[1:], factors[1:]):
            assert np.shares_memory(lapack, cov.ab)
            assert np.shares_memory(factor, cov.ab)


def full_mistimed_band(link, frame, err):
    """Upper band of RhatN + Rhat D Rhat^T assembled at full length 2n."""
    _, _, rhat, rhat_n = M.build_error_matrices(frame, err)
    d = M._mu_diagonal(link, frame.n)
    total = rhat_n + _bands.product(rhat, d)
    return total.ab[:, :total.upper + 1]


def five_slot_storage(link, frame, err):
    """The five-slot lower storage of RhatN + Rhat D Rhat^T at every
    point that _mistimed_rates hands to _widened_logdets for a batch of
    one chunk, left unfactored; RhatN's log-det is not taken, so a point
    where it is singular is assembled too."""
    seen = []

    def spy(frame, cols, *args):
        seen.append(cols)
        return np.zeros(len(cols))

    with mock.patch.object(TM, "_widened_logdets", spy), \
            mock.patch.object(TM, "_noise_logdet2",
                              lambda frame, e1, e2: np.zeros(e1.size)):
        TM._mistimed_rates(link, frame, *(v.ravel() for v in err.arrays()))
    assert len(seen) == 1
    return seen[0]


def lower_rows(upper):
    """LAPACK upper storage shifted so that row k holds diagonal k from
    slot 0 on, zero past the matrix: the lower band of a symmetric
    matrix (A[j + k, j] at column j), or an upper factor in
    cholesky_upper's layout (U[i, i + k] at slot i)."""
    u, n = upper.shape[-2] - 1, upper.shape[-1]
    low = np.zeros(upper.shape)
    for k in range(u + 1):
        low[..., k, :n - k] = upper[..., u - k, k:]
    return low


# (f1, f2) per point: eps1 = f1 tau or f1 (1 - tau), eps1 + eps2 = f2 (1 -
# tau) or f2 tau, by sign, so that every sign branch is admissible
SIGN_BRANCHES = [(f1, f2) for f1 in (-0.5, 0.0, 0.5) for f2 in (-0.5, 0.0, 0.5)]
FRACTION = st.just(0.0) | st.floats(-0.99, 0.99)


class TestFiveSlotAssembly:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 64) | st.sampled_from([4, 5, 6]),
           tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           gains=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
           fractions=st.lists(st.tuples(FRACTION, FRACTION), min_size=1,
                              max_size=9))
    @example(n=4, tau=0.5, gains=(1.0, 0.5), fractions=SIGN_BRANCHES)
    @example(n=5, tau=0.3, gains=(2.0, 0.1), fractions=SIGN_BRANCHES)
    @example(n=6, tau=0.7, gains=(0.5, 8.0), fractions=SIGN_BRANCHES)
    @example(n=64, tau=1e-9, gains=(1.0, 1.0), fractions=SIGN_BRANCHES)
    def test_widened_band_is_the_full_assembly(self, n, tau, gains, fractions):
        frame = M.FrameConfig(n, tau)
        f1, f2 = np.array(fractions).T
        e1 = np.where(f1 > 0, f1 * tau, f1 * (1.0 - tau))
        e2 = np.where(f2 > 0, f2 * (1.0 - tau), f2 * tau) - e1
        err = M.TimingError(e1, e2)
        try:
            err.check_admissible(frame)
        except M.DomainError:
            assume(False)  # rounding carried eps1 + eps2 past a bound
        link = M.LinkConfig.from_gains(*gains)
        cols = five_slot_storage(link, frame, err)
        want = lower_rows(full_mistimed_band(link, frame, err))
        assert want.shape == (len(e1), min(4, 2 * n - 1) + 1, 2 * n)
        # the sweep leaves out diagonal 4, which is exactly zero
        u = min(3, 2 * n - 1)
        assert not want[:, u + 1:].any()
        want = want[:, :u + 1]
        # the whole batch, and a part not starting at the first point
        for start in (0, len(cols) // 2):
            got = TM._widen(n, cols, start, len(cols))
            assert (got.lower, got.upper) == (u, 0)
            assert np.array_equal(got.ab, want[start:])

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 40])
    def test_widened_factor_is_the_upper_storage_factor(self, n):
        # every slot of the factor, out-of-matrix ones too, is that of
        # LAPACK's upper-storage factor of the full assembly, matrix by
        # matrix
        frame = M.FrameConfig(n, 0.4)
        err = M.TimingError(TestBatchedRate.EPS1, TestBatchedRate.EPS2)
        full = full_mistimed_band(LINK, frame, err)
        for start in (0, 2):
            # at n <= 5 the band is a view of cols, factored in place
            cols = five_slot_storage(LINK, frame, err)
            got = _bands.cholesky_upper(TM._widen(n, cols, start, 4))
            for b in range(4):
                want, info = _bands._pbtrf(full[start + b], lower=0)
                assert info == 0
                # the full band's diagonal 4, zero, factors to zero
                want = lower_rows(want)
                assert not want[len(got[b]):].any()
                assert got[b].tobytes() == want[:len(got[b])].tobytes()

    @pytest.mark.parametrize("n", [3, 5, 6, 40])
    def test_diagonal_four_is_zero_and_bandwidth_three_loses_no_bit(self, n):
        # in every sign branch of (eps1, eps1 + eps2): row i's entries of
        # Rhat at +-2 are max(a, 0) and max(-a, 0) for one offset a, which
        # rows i and i + 4 share, so their product is zero
        tau = 0.3
        f1, f2 = 0.5 * np.array(SIGN_BRANCHES).T  # tau + eps2 inside (0, 1)
        e1 = np.where(f1 > 0, f1 * tau, f1 * (1.0 - tau))
        e2 = np.where(f2 > 0, f2 * (1.0 - tau), f2 * tau) - e1
        upper = full_mistimed_band(LINK, M.FrameConfig(n, tau),
                                   M.TimingError(e1, e2))
        assert upper.shape[1] == 5 and not upper[:, 0].any()
        for band in upper:
            four = _bands.logdet2_sym_pd(_bands.BandedMatrix(band, 0, 4))
            three = _bands.logdet2_sym_pd(_bands.BandedMatrix(band[1:], 0, 3))
            assert np.float64(four).tobytes() == np.float64(three).tobytes()


class TestNoiseLogdetClosedForm:
    """The banded log2 det RhatN, whose factor the waveform simulator
    colours its noise with, against its closed form.

    RhatN = W W^T, W the 2n x (2n + 1) bidiagonal of square roots of the
    window overlaps, so by Cauchy-Binet, with s = tau + eps2,

        log2 det RhatN = (n + 1) log2 s + n log2(1 - s)
                         + log2((n + 1) / s + n / (1 - s)).

    At dyadic tau and eps2 the built off-diagonals (1 - tau) - eps2 and
    tau + eps2 are exact, so only the factorization rounds.  Its pivots
    lie in (0, 1]: their logs share a sign, and the sum does not cancel.
    The largest relative error measured is 1.4e-14 (s = 0.5, n = 20000,
    where the pivot recursion has a double fixed point); the bound of
    1e-12 allows seventy times that, while a frame one slot short moves
    the log-det by about 1/n, 5e-5 at n = 20000.
    """

    @staticmethod
    def closed_form(n, tau, eps2):
        s = mpmath.mpf(tau) + mpmath.mpf(eps2)
        return ((n + 1) * mpmath.log(s, 2) + n * mpmath.log(1 - s, 2)
                + mpmath.log((n + 1) / s + n / (1 - s), 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 10, 100, 1000, 20000])
    @pytest.mark.parametrize("tau,eps2", [(0.5, -0.25), (0.5, 0.0),
                                          (0.75, -0.5), (0.25, 0.125),
                                          (0.625, 0.25), (0.5, 0.375)])
    def test_banded_logdet(self, n, tau, eps2):
        want = self.closed_form(n, tau, eps2)
        got = _bands.logdet2_sym_pd(
            M.build_noise_covariance(M.FrameConfig(n, tau), eps2))
        assert abs((got - want) / want) <= 1e-12


def noise_logdet_mp(n, s):
    """log2 det RhatN at the float s = tau + eps2, in 40-digit mpmath."""
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return (n * mpmath.log(s, 2) + (n - 1) * mpmath.log(1 - s, 2)
                + mpmath.log(n + 1 - s, 2))


def noise_covariance_is_pd(s):
    """Where RhatN, built at the float s = tau + eps2, is the windows'
    overlap matrix and positive definite, at every n: s and 1 - s in
    (0, 1) (1 - s rounds to 1.0 below s of about 2^-54, as the built entry
    does)."""
    return 0.0 < s < 1.0 and 0.0 < 1.0 - s < 1.0


# distances from an edge of the region: dyadic, and arbitrary
EDGE_GAP = (st.integers(1, 53).map(lambda k: 2.0 ** -k)
            | st.floats(2.0 ** -53, 0.5))


class TestNoiseLogdetHelper:
    """model._noise_logdet2, log2 det RhatN from s = tau + eps2 alone."""

    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 100_000) | st.sampled_from([1, 2, 3]),
           tau=st.floats(0.0, 1.0, exclude_max=True),
           gap=EDGE_GAP,
           edge=st.sampled_from([0.0, 1.0]))
    @example(n=100_000, tau=0.5, gap=0.5, edge=0.0)
    def test_matches_mpmath_at_the_same_s(self, n, tau, gap, edge):
        # eps2 a gap inside the region from one of its edges, s = 0 or
        # s = 1
        eps2 = (edge + gap if edge == 0.0 else edge - gap) - tau
        s = tau + eps2  # as the helper forms it
        assume(noise_covariance_is_pd(s))
        got = M._noise_logdet2(M.FrameConfig(n, tau), np.array([0.0]),
                               np.array([eps2]))
        want = noise_logdet_mp(n, s)
        assert abs(got[0] - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("n,tau,eps2,want", [
        # the banded route gives -468.0, -520.0 and -104.0 here
        (10, 0.5, 0.4999999999999999, -473.67807190511264),
        (10, 0.5, -0.4999999999999999, -526.5405683813627),
        (3, 0.0, 0.9999999999999999, -104.41503749927884),
    ])
    def test_near_edge_points(self, n, tau, eps2, want):
        got = M._noise_logdet2(M.FrameConfig(n, tau), np.array(0.0),
                               np.array(eps2))
        assert abs(got - want) <= 1e-14 * abs(want)

    # tau, n, (eps1, eps2): s = 1, s = 0, s < 0, s >= 1 at n = 2, s
    # about 1.4e-17, where 1 - s and the built entry (1 - tau) - eps2
    # round to 1.0, and at n = 1 s = 0, s = 1.2 and s = 2
    SINGULAR = [(0.5, 10, (0.0, 0.5)), (0.5, 10, (0.0, -0.5)),
                (0.5, 10, (0.4, -0.6)), (0.5, 2, (-0.4, 0.7)),
                (0.08193495922766658, 3,
                 (0.04451223753865696, -0.08193495922766657)),
                (0.5, 1, (0.0, -0.5)), (0.5, 1, (-0.4, 0.7)),
                (0.0, 1, (-1.0, 2.0))]

    @pytest.mark.parametrize("tau,n,point", SINGULAR)
    @pytest.mark.parametrize("route", ["point", "batch", "display"])
    def test_singular_region_raises_on_every_route(self, tau, n, point, route):
        frame = M.FrameConfig(n, tau)
        message = re.escape(f"noise covariance singular at tau={tau}, "
                            f"(eps1, eps2) = {point}")
        if route == "batch":  # behind an admissible point
            err = M.TimingError(np.array([0.0, point[0]]),
                                np.array([0.01, point[1]]))
        else:
            err = M.TimingError(*point)
        call = (TM.throughput_loss_display if route == "display"
                else TM.throughput_with_error)
        with pytest.raises(M.DomainError, match=message):
            call(LINK, frame, err)

    def test_one_slot_frame_is_singular_past_s_of_one(self):
        # at n = 1 and s = 1.2 the two windows are disjoint, so the
        # stencil's RhatN[0, 1] = 1 - s = -0.2 is no overlap: every noise
        # route refuses the point, the noisy simulator too
        frame, point = M.FrameConfig(1, 0.5), (-0.4, 0.7)
        message = re.escape("noise covariance singular at tau=0.5, "
                            f"(eps1, eps2) = {point}")
        batch = M.TimingError(np.array([0.0, point[0]]),
                              np.array([0.01, point[1]]))
        symbols = W.generate_symbols(1, seed=0)
        calls = [lambda: TM.throughput_with_error(LINK, frame,
                                                  M.TimingError(*point)),
                 lambda: TM.throughput_with_error(LINK, frame, batch),
                 lambda: TM.throughput_loss_display(LINK, frame,
                                                    M.TimingError(*point)),
                 lambda: W.matched_filter_outputs(
                     symbols, LINK, frame, M.TimingError(*point),
                     noiseless=False, rng=0)]
        for call in calls:
            with pytest.raises(M.DomainError, match=message):
                call()


class TestLoss:
    def test_zero_at_zero(self):
        assert TM.throughput_loss(LINK, FRAME, M.TimingError(0.0, 0.0)) == 0.0

    def test_positive_for_both_errors(self):
        assert TM.throughput_loss(LINK, FRAME, M.TimingError(0.1, 0.1)) > 0.0

    @pytest.mark.parametrize("e1,e2", [
        (0.05, 0.03), (-0.05, 0.0), (0.0, -0.04), (0.02, -0.06),
        (-0.03, 0.08), (0.1, 0.1), (-0.1, -0.1),
    ])
    def test_definition_vs_rearranged_display(self, e1, e2):
        err = M.TimingError(e1, e2)
        d_def = TM.throughput_loss(LINK, FRAME, err)
        d_disp = TM.throughput_loss_display(LINK, FRAME, err)
        assert math.isclose(d_def, d_disp, rel_tol=1e-9)

    def test_display_route_names_the_point_that_leaves_the_positive_cone(self):
        message = ("loss determinant left the positive cone at mu1=1e+308, "
                   "mu2=1e-292, n=1000, tau=0.5, eps1=0.01, eps2=-0.02")
        with pytest.raises(M.DomainError, match=re.escape(message)):
            TM.throughput_loss_display(M.LinkConfig(1e300, 1e-300, 1e4, 1e4),
                                       M.FrameConfig(1000, 0.5),
                                       M.TimingError(0.01, -0.02))

    def test_display_route_small_frame(self):
        frame = M.FrameConfig(3, 0.4)
        err = M.TimingError(-0.02, 0.05)
        assert math.isclose(TM.throughput_loss(LINK, frame, err),
                            TM.throughput_loss_display(LINK, frame, err),
                            rel_tol=1e-9)


class TestSlopePatterns:
    """The slope sums read diagonals 0 and 2 of A^-1 because B = Z^T + Z
    - Z3 is -2 on the diagonal, 0 on the first off-diagonals and 1 on the
    second (sync), or the same on the odd rows and columns only
    (coordination); and B changes sign with the branch."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("branch", [1, -1])
    @pytest.mark.parametrize("slope,unit", [
        (TM.sync_loss_slope, (1.0, 0.0)), (TM.coord_loss_slope, (0.0, 1.0))])
    def test_pattern_is_exact_difference_quotient(self, n, branch, slope, unit):
        def b(branch, step=2.0 ** -6):
            z, z3 = (m.to_dense() for m in slope_patterns(slope, n, branch, step))
            return z.T + z - z3

        # linear on the branch: a coarser step gives the same quotient
        assert np.array_equal(b(branch), b(branch, 2.0 ** -2))
        n2 = 2 * n
        want = np.zeros((n2, n2))
        for i in range(n2)[slice(None) if unit[0] else slice(1, None, 2)]:
            want[i, i] = -2.0
            if i + 2 < n2:
                want[i, i + 2] = want[i + 2, i] = 1.0
        assert np.array_equal(b(branch), branch * want)
        assert np.array_equal(b(-branch), -b(branch))


class TestBandedKernelsAgainstDenseOracles:
    PATTERNS = [
        (TM.sync_loss_slope, 1),
        (TM.sync_loss_slope, -1),
        (TM.coord_loss_slope, 1),
        (TM.coord_loss_slope, -1),
    ]
    # one point per sign branch of (eps1, eps1 + eps2)
    BRANCHES = [(0.05, 0.03), (0.05, -0.08), (-0.05, 0.08), (-0.05, -0.02)]

    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    @pytest.mark.parametrize("pattern", range(4))
    def test_slopes_match_dense_oracle(self, n, pattern):
        slope, branch = self.PATTERNS[pattern]
        z, z3 = slope_patterns(slope, n, branch)
        for link, tau in ((LINK, 0.5), (M.LinkConfig.from_gains(20.0, 0.05), 0.13)):
            frame = M.FrameConfig(n, tau)
            # the slope on the negative side is -c
            got = branch * slope(link, frame)
            ref = trace_coefficient_dense_oracle(link, frame, z, z3)
            assert math.isclose(got, ref, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    @pytest.mark.parametrize("e1,e2", BRANCHES)
    def test_display_matches_dense_oracle(self, n, e1, e2):
        frame = M.FrameConfig(n, 0.5)
        err = M.TimingError(e1, e2)
        got = TM.throughput_loss_display(LINK, frame, err)
        assert math.isclose(got, display_dense_oracle(LINK, frame, err),
                            rel_tol=1e-10)

    def test_display_singular_noise_covariance_reported(self):
        # tau + eps2 = 1 duplicates the second sample stream exactly
        with pytest.raises(M.DomainError, match="eps2"):
            TM.throughput_loss_display(LINK, FRAME, M.TimingError(0.0, 0.5))

    def test_long_frame_never_forms_a_dense_matrix(self, monkeypatch, capsys):
        def dense(*args, **kwargs):
            raise AssertionError("dense path called")

        monkeypatch.setattr(_bands.BandedMatrix, "to_dense", dense)
        monkeypatch.setattr(_bands, "solve_sym_pd", dense)
        monkeypatch.setattr(_bands, "solve_general", dense)
        frame = M.FrameConfig(100_000, 0.5)
        assert math.isfinite(TM.sync_loss_slope(LINK, frame))
        assert math.isfinite(TM.coord_loss_slope(LINK, frame))
        err = M.TimingError(0.03, -0.05)
        display = TM.throughput_loss_display(LINK, frame, err)
        assert math.isclose(display, TM.throughput_loss(LINK, frame, err),
                            rel_tol=1e-9)
        assert cli.main(["query", "--set", "n=100000", "--set", "eps1=0.03",
                         "--set", "eps2=-0.05"]) == cli.EXIT_OK
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert all(math.isfinite(float(v)) for v in fields.values())


def linear_terms(eps1, eps2):
    """(delta_lin_sync, delta_lin_coord) of the breakdown at (eps1, eps2)."""
    b = TM.loss_breakdown(LINK, FRAME, M.TimingError(eps1, eps2))
    return b.delta_lin_sync, b.delta_lin_coord


class TestLinearModels:
    def test_zero_offset_gives_zero(self):
        assert linear_terms(0.0, 0.0) == (0.0, 0.0)
        assert TM.sync_loss_slope(LINK, FRAME) > 0.0

    def test_sync_within_ten_percent_at_eps_001(self):
        exact = TM.throughput_loss(LINK, FRAME, M.TimingError(0.01, 0.0))
        approx = linear_terms(0.01, 0.0)[0]
        assert abs(approx - exact) / exact <= 0.1

    def test_coord_within_ten_percent_at_eps_001(self):
        exact = TM.throughput_loss(LINK, FRAME, M.TimingError(0.0, 0.01))
        approx = linear_terms(0.0, 0.01)[1]
        assert abs(approx - exact) / exact <= 0.1

    def test_c1_sign_matches_exact_slope(self):
        c1 = TM.sync_loss_slope(LINK, FRAME)
        up = TM.throughput_loss(LINK, FRAME, M.TimingError(0.01, 0.0))
        assert c1 > 0.0 and up > 0.0

    def test_negative_side_slope_matches_finite_difference(self):
        h = 1e-6
        c1_neg = -TM.sync_loss_slope(LINK, FRAME)
        fd = TM.throughput_loss(LINK, FRAME, M.TimingError(-h, 0.0)) / (-h)
        assert math.isclose(c1_neg, fd, rel_tol=1e-4)
        c2_neg = -TM.coord_loss_slope(LINK, FRAME)
        fd2 = TM.throughput_loss(LINK, FRAME, M.TimingError(0.0, -h)) / (-h)
        assert math.isclose(c2_neg, fd2, rel_tol=1e-4)

    def test_positive_branch_slope_matches_finite_difference(self):
        h = 1e-6
        c1 = TM.sync_loss_slope(LINK, FRAME)
        fd = TM.throughput_loss(LINK, FRAME, M.TimingError(h, 0.0)) / h
        assert math.isclose(c1, fd, rel_tol=1e-4)

    def test_degrades_gracefully_up_to_005(self):
        exact = TM.throughput_loss(LINK, FRAME, M.TimingError(0.05, 0.0))
        approx = linear_terms(0.05, 0.0)[0]
        assert abs(approx - exact) / exact <= 0.2

    def test_slope_ratio_near_two(self):
        c1 = TM.sync_loss_slope(LINK, FRAME)
        c2 = TM.coord_loss_slope(LINK, FRAME)
        assert 1.5 <= c1 / c2 <= 2.5 * (1 + 1e-9)

    def test_slopes_need_nonzero_tau(self):
        with pytest.raises(M.DomainError):
            TM.sync_loss_slope(LINK, M.FrameConfig(10, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.01, 0.99),
           st.integers(1, 300), st.floats(-0.005, 0.005),
           st.floats(-0.005, 0.005))
    def test_linear_terms_are_eps_times_the_side_slope(self, log_mu1, log_mu2,
                                                       tau, n, e1, e2):
        # |eps| c equals eps (-c) bit for bit on the negative side
        link = M.LinkConfig.from_gains(10.0 ** log_mu1, 10.0 ** log_mu2)
        frame = M.FrameConfig(n, tau)
        b = TM.loss_breakdown(link, frame, M.TimingError(e1, e2))
        assert b.delta_lin_sync == e1 * (b.c1 if e1 >= 0.0 else -b.c1)
        assert b.delta_lin_coord == e2 * (b.c2 if e2 >= 0.0 else -b.c2)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, eps):
        for e1, e2 in ((eps, 0.0), (0.0, eps)):
            with pytest.raises(M.DomainError, match="must be finite"):
                TM.loss_breakdown(LINK, FRAME, M.TimingError(e1, e2))


class TestLossRatio:
    def test_zero_at_origin(self):
        assert TM.loss_ratio(LINK, FRAME, M.TimingError(0.0, 0.0)) == 0.0

    def test_monotone_in_each_error(self):
        g00 = TM.loss_ratio(LINK, FRAME, M.TimingError(0.0, 0.0))
        g10 = TM.loss_ratio(LINK, FRAME, M.TimingError(0.05, 0.0))
        g11 = TM.loss_ratio(LINK, FRAME, M.TimingError(0.05, 0.05))
        assert g11 > g10 > g00

    @pytest.mark.parametrize("center", [
        (0.0, 0.03), (0.0, -0.05), (0.04, -0.04), (-0.02, 0.02),
    ])
    def test_continuity_across_kinks(self, center):
        # shrink h toward each kink line; gamma must be continuous there
        e1, e2 = center
        base = TM.loss_ratio(LINK, FRAME, M.TimingError(e1, e2))
        prev = None
        for h in (1e-2, 1e-4, 1e-6, 1e-8):
            jump = abs(TM.loss_ratio(LINK, FRAME, M.TimingError(e1 + h, e2)) - base)
            if prev is not None:
                assert jump < prev + 1e-12
            prev = jump
        assert prev < 1e-6


class TestNoPositiveRate:
    """gamma = Delta / R is undefined where the log-det rate is not
    positive: exactly 0.0 at (1e-18, n = 1) and a negative rounding
    residue at (1e-300, n = 10)."""

    CASES = [(1e-18, 1, 0.001), (1e-300, 10, 0.5)]

    @pytest.mark.parametrize("mu,n,tau", CASES)
    def test_ratio_and_breakdown_raise(self, mu, n, tau):
        link, frame = M.LinkConfig.from_gains(mu, mu), M.FrameConfig(n, tau)
        base = T.throughput_matrix(link, frame)
        assert base <= 0.0
        message = re.escape(
            f"loss ratio undefined: no-error throughput is {base:.12g}, ")
        batch = M.TimingError(np.array([0.0, 0.01]), np.array([0.0, -0.01]))
        for fn, err in ((TM.loss_ratio, M.TimingError(0.01, 0.0)),
                        (TM.loss_ratio, batch),
                        (TM.loss_breakdown, M.TimingError(0.01, 0.0))):
            with pytest.raises(M.DomainError, match=message):
                fn(link, frame, err)

    @pytest.mark.parametrize("fn", [TM.loss_ratio, TM.loss_breakdown])
    def test_rate_is_named_before_an_inadmissible_point(self, fn):
        link = M.LinkConfig.from_gains(1e-18, 1e-18)
        with pytest.raises(M.DomainError, match="loss ratio undefined"):
            fn(link, M.FrameConfig(1, 0.001), M.TimingError(0.9, 0.0))

    @pytest.mark.parametrize("mu,n,tau", CASES)
    def test_the_loss_itself_is_defined(self, mu, n, tau):
        link, frame = M.LinkConfig.from_gains(mu, mu), M.FrameConfig(n, tau)
        assert TM.throughput_loss(link, frame, M.TimingError(0.0, 0.0)) == 0.0


class TestBreakdown:
    def test_fields_consistent(self):
        err = M.TimingError(0.02, -0.01)
        b = TM.loss_breakdown(LINK, FRAME, err)
        base = T.throughput_matrix(LINK, FRAME)
        assert math.isclose(b.delta, base - b.exact_throughput_with_error,
                            rel_tol=1e-14)
        assert math.isclose(b.gamma, b.delta / base, rel_tol=1e-14)
        assert b.c1 > 0.0 and b.c2 > 0.0
        assert math.isclose(b.delta_lin_sync, 0.02 * b.c1, rel_tol=1e-14)
        # negative eps2 rides the negative side, slope -c2
        neg_c2 = -TM.coord_loss_slope(LINK, FRAME)
        assert math.isclose(b.delta_lin_coord, -0.01 * neg_c2, rel_tol=1e-14)

    @pytest.mark.parametrize("e1,e2", [(0.02, 0.01), (0.02, -0.01),
                                       (-0.02, 0.01), (-0.02, -0.01)])
    def test_linear_terms_are_the_side_slopes_on_every_branch(self, e1, e2):
        b = TM.loss_breakdown(LINK, FRAME, M.TimingError(e1, e2))
        c1 = TM.sync_loss_slope(LINK, FRAME)
        c2 = TM.coord_loss_slope(LINK, FRAME)
        assert b.delta_lin_sync == e1 * (c1 if e1 >= 0.0 else -c1)
        assert b.delta_lin_coord == e2 * (c2 if e2 >= 0.0 else -c2)
        assert (b.c1, b.c2) == (c1, c2)


class TestOnePointFunctions:
    """The display route and the breakdown evaluate one operating point;
    a batched TimingError is refused with a DomainError that says so."""

    @pytest.mark.parametrize("fn", [TM.throughput_loss_display,
                                    TM.loss_breakdown])
    @pytest.mark.parametrize("err", [
        M.TimingError(np.array([0.02, -0.01]), np.array([0.01, 0.03])),
        M.TimingError(0.02, np.array([0.01, -0.01])),
        M.TimingError(np.array([0.02]), 0.01),
    ])
    def test_batched_error_rejected(self, fn, err):
        with pytest.raises(M.DomainError, match="one timing point"):
            fn(LINK, FRAME, err)

    def test_zero_dimensional_arrays_are_one_point(self):
        err = M.TimingError(np.float64(0.02), np.array(-0.01))
        ref = M.TimingError(0.02, -0.01)
        assert (TM.throughput_loss_display(LINK, FRAME, err)
                == TM.throughput_loss_display(LINK, FRAME, ref))
        assert TM.loss_breakdown(LINK, FRAME, err) == TM.loss_breakdown(LINK, FRAME, ref)


def separately_factored_slope(link, frame, rows):
    """c1 (rows = slice(None)) or c2 (rows = slice(1, None, 2)) from its
    own factorization of A = D^-1 + R, summed as the kernel sums it: the
    reference that the factorization shared by both slopes must equal
    bit for bit."""
    a = M.build_correlation(frame) + _bands.diagonal(1.0 / M._mu_diagonal(link, frame.n))
    inv = _bands.inverse_bands_tridiagonal(a, 2)
    total = float(np.sum(inv[0, rows]) - np.sum(inv[2, rows]))
    return 2.0 * total / ((frame.n + frame.tau) * math.log(2.0))


def counting(monkeypatch, *names):
    """Count the calls of the named _bands functions from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _orig=getattr(_bands, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(_bands, name, spy)
    return counts


class TestOneFactorizationPerPoint:
    """A query factors each distinct matrix once: the no-error D^-1 + R
    (throughput_report), RhatN + Rhat D Rhat^T (the mistimed rate, whose
    log det RhatN is in closed form), and A = diag(1/mu) + R, whose one
    inverse band serves every slope branch.  The zero-error rate reuses
    the report's log-det."""

    @pytest.mark.parametrize("sets,cholesky,inverse", [
        (["n=300", "tau=0.4", "eps1=0.03", "eps2=-0.05"], 3, 1),
        ([], 2, 1),
        (["tau=0"], 1, 0),
    ])
    def test_query_factor_counts(self, monkeypatch, capsys, sets, cholesky,
                                 inverse):
        counts = counting(monkeypatch, "cholesky_upper",
                          "inverse_bands_tridiagonal")
        argv = ["query"] + [tok for s in sets for tok in ("--set", s)]
        assert cli.main(argv) == cli.EXIT_OK
        assert counts == {"cholesky_upper": cholesky,
                          "inverse_bands_tridiagonal": inverse}

    @pytest.mark.parametrize("sets,calls", [
        (["n=300", "tau=0.4", "eps1=0.03", "eps2=-0.05"], 1),
        (["eps1=-0.01", "eps2=-0.02"], 1),
        (["tau=0"], 0),
    ])
    def test_query_evaluates_the_slopes_once(self, monkeypatch, capsys, sets,
                                             calls):
        seen = []
        monkeypatch.setattr(TM, "_loss_slopes",
                            lambda *a, _orig=TM._loss_slopes: seen.append(a)
                            or _orig(*a))
        argv = ["query"] + [tok for s in sets for tok in ("--set", s)]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(seen) == calls

    def test_mistimed_rate_forms_d_on_five_slots(self, monkeypatch):
        # the five-slot assembly reads D = H H^H on its own frame only,
        # once for the whole batch
        seen = []
        monkeypatch.setattr(TM, "_mu_diagonal",
                            lambda link, n, _orig=TM._mu_diagonal:
                            seen.append(n) or _orig(link, n))
        err = M.TimingError(np.array([0.03, -0.01, 0.02]),
                            np.array([-0.05, 0.02, 0.01]))
        TM.throughput_with_error(LINK, M.FrameConfig(300, 0.4), err)
        assert seen == [5]

    @pytest.mark.parametrize("n", [1, 2, 10, 300])
    @pytest.mark.parametrize("e1,e2", [(0.03, 0.02), (0.03, -0.02),
                                       (-0.03, 0.02), (-0.03, -0.02)])
    def test_shared_factor_equals_one_factor_per_slope(self, n, e1, e2):
        frame = M.FrameConfig(n, 0.4)
        c1, c2 = (separately_factored_slope(LINK, frame, rows)
                  for rows in (slice(None), slice(1, None, 2)))
        slopes = {1: (c1, c2), -1: (-c1, -c2)}
        assert TM.sync_loss_slope(LINK, frame) == c1
        assert TM.coord_loss_slope(LINK, frame) == c2
        assert TM._loss_slopes(LINK, frame) == slopes[1]
        err = M.TimingError(e1, e2)
        base = T.throughput_matrix(LINK, frame)
        r_e = TM.throughput_with_error(LINK, frame, err)
        assert TM.loss_breakdown(LINK, frame, err) == TM.LossBreakdown(
            exact_throughput_with_error=r_e,
            delta=base - r_e,
            delta_lin_sync=e1 * slopes[1 if e1 >= 0 else -1][0],
            delta_lin_coord=e2 * slopes[1 if e2 >= 0 else -1][1],
            c1=slopes[1][0],
            c2=slopes[1][1],
            gamma=(base - r_e) / base,
        )

    @pytest.mark.parametrize("slope", [TM.sync_loss_slope, TM.coord_loss_slope])
    def test_cancelled_pivot_is_a_domain_error(self, slope):
        # tau far below machine epsilon makes A the tau = 0 matrix in floats
        link = M.LinkConfig.from_gains(1e300, 1e300)
        with pytest.raises(M.DomainError, match=r"mu1=.*mu2=.*n=10, tau=1e-20"):
            slope(link, M.FrameConfig(10, 1e-20))


def route_bits(link):
    """Each rate route's value at link, FRAME and two timing errors (one
    point, one batch) as bytes, so that == compares bit for bit."""
    err = M.TimingError(0.02, -0.01)
    batch = M.TimingError(np.array([0.02, -0.03, 0.0]),
                          np.array([-0.01, 0.02, 0.0]))
    values = {f.__name__: f(link, FRAME) for f in (
        T.throughput_matrix, T.throughput_closed, T.throughput_recursion,
        T.throughput_report, TM.sync_loss_slope, TM.coord_loss_slope)}
    for f in (TM.throughput_with_error, TM.throughput_loss,
              TM.throughput_loss_display, TM.loss_ratio, TM.loss_breakdown):
        values[f.__name__] = f(link, FRAME, err)
    for f in (TM.throughput_with_error, TM.loss_ratio):
        values[f.__name__ + " (batch)"] = f(link, FRAME, batch)
    return {name: np.asarray(dataclasses.astuple(v) if dataclasses.is_dataclass(v)
                             else v, dtype=float).tobytes()
            for name, v in values.items()}


class TestOneGainSource:
    """Every route reads the link only through mu1 = p1 |h1|^2 and mu2, so
    a link and LinkConfig.from_gains at the same gains give the same bits."""

    @settings(max_examples=30, deadline=None)
    @given(mu=st.tuples(*[st.floats(0.01, 100.0)] * 2),
           h=st.tuples(*[st.complex_numbers(min_magnitude=0.1,
                                            max_magnitude=10.0)] * 2))
    # |h2 sqrt(p2)|^2 is not mu2 here in the last bit
    @example(mu=(1.0, 4.8426078515942566), h=(1.0, 0.64726896098382))
    def test_equal_gains_give_equal_bits(self, mu, h):
        p = [m / abs(complex(c)) ** 2 for m, c in zip(mu, h)]
        link = M.LinkConfig(p[0], p[1], h[0], h[1])
        assume((link.mu1, link.mu2) == mu)
        assert route_bits(link) == route_bits(M.LinkConfig.from_gains(*mu))


class TestNoErrorRateOncePerCall:
    """Every loss entry point computes the no-error rate once, and a
    (0, 0) point reuses it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        monkeypatch.setattr(T, "log2_det_no_error",
                            lambda *a, _orig=T.log2_det_no_error:
                            seen.append(a) or _orig(*a))
        return seen

    ERR = M.TimingError(np.array([0.0, 0.01, 0.0]), np.array([0.0, 0.0, -0.02]))

    @pytest.mark.parametrize("fn", [TM.loss_ratio, TM.throughput_loss])
    def test_loss_functions(self, calls, fn):
        fn(LINK, FRAME, M.TimingError(0.0, 0.0))
        fn(LINK, FRAME, M.TimingError(0.01, 0.0))
        assert len(calls) == 2

    def test_batch_with_a_zero_point(self, calls):
        TM.loss_ratio(LINK, FRAME, self.ERR)
        assert len(calls) == 1

    @pytest.mark.parametrize("figure", ["loss_heatmap", "loss_slices",
                                        "scheme_comparison"])
    def test_timing_figures(self, calls, tmp_path, figure):
        out = tmp_path / f"{figure}.csv"
        assert cli.main(["sweep", figure, "--out", str(out)]) == cli.EXIT_OK
        assert len(calls) == 1
