"""Waveform simulator: overlap integrals, symbols, noise coloring."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anoma import _bands
from anoma import model as M
from anoma import waveform as W

UNIT_LINK = M.LinkConfig(p1=1.0, p2=1.0)


def _loop_reference(symbols, link, frame, err):
    """The per-sample double loop over global window positions: window i
    is [i + off, i + 1 + off] against pulse [k, k + 1] or [k + tau, ...]."""
    n, tau = frame.n, frame.tau
    a1 = link.h1 * math.sqrt(link.p1) * symbols.s1
    a2 = link.h2 * math.sqrt(link.p2) * symbols.s2
    off1, off2 = err.eps1, tau + err.eps1 + err.eps2
    y1 = np.zeros(n, dtype=complex)
    y2 = np.zeros(n, dtype=complex)
    for i in range(n):
        for k in range(max(0, i - 2), min(n, i + 3)):
            y1[i] += a1[k] * W._overlap(i + off1, i + 1 + off1, k, k + 1)
            y1[i] += a2[k] * W._overlap(i + off1, i + 1 + off1,
                                        k + tau, k + 1 + tau)
            y2[i] += a2[k] * W._overlap(i + off2, i + 1 + off2,
                                        k + tau, k + 1 + tau)
            y2[i] += a1[k] * W._overlap(i + off2, i + 1 + off2, k, k + 1)
    return W.SampleVectors(y1, y2).interleaved()


def _random_point(rng, n, s1, s2):
    """Random symbols, link and tau in [0.25, 0.75], with eps1 of sign s1
    and eps1 + eps2 of sign s2 (magnitudes up to 0.1)."""
    sym = W.generate_symbols(n, "gaussian", seed=int(rng.integers(0, 2 ** 31)))
    link = M.LinkConfig(p1=float(rng.uniform(0.2, 3.0)),
                        p2=float(rng.uniform(0.2, 3.0)),
                        h1=complex(*rng.normal(size=2)),
                        h2=complex(*rng.normal(size=2)))
    frame = M.FrameConfig(n, float(rng.uniform(0.25, 0.75)))
    eps1 = s1 * float(rng.uniform(0.01, 0.1))
    err = M.TimingError(eps1, s2 * float(rng.uniform(0.01, 0.1)) - eps1)
    return sym, link, frame, err


SIGN_BRANCHES = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]


class TestGenerateSymbols:
    def test_qpsk_unit_modulus(self):
        sf = W.generate_symbols(4, "qpsk", seed=7)
        assert np.allclose(np.abs(sf.s1), 1.0)
        assert np.allclose(np.abs(sf.s2), 1.0)

    def test_gaussian_variance_band(self):
        sf = W.generate_symbols(1000, "gaussian", seed=1)
        assert 0.9 <= np.mean(np.abs(sf.s1) ** 2) <= 1.1
        assert 0.9 <= np.mean(np.abs(sf.s2) ** 2) <= 1.1

    def test_seed_determinism(self):
        a = W.generate_symbols(16, "qpsk", seed=3)
        b = W.generate_symbols(16, "qpsk", seed=3)
        assert np.array_equal(a.s1, b.s1)
        assert np.array_equal(a.s2, b.s2)

    def test_unknown_constellation(self):
        with pytest.raises(M.DomainError):
            W.generate_symbols(4, "qam64", seed=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_non_int_count_rejected(self, n):
        with pytest.raises(M.DomainError, match=re.escape(
                f"n must be an int, got {n!r}")):
            W.generate_symbols(n)

    def test_numpy_int_count_accepted(self):
        assert W.generate_symbols(np.int64(3), seed=0).n == 3


class TestMatchedFilterOutputs:
    def test_single_symbol_overlap_arithmetic(self):
        sf = W.SymbolFrame(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        sv = W.matched_filter_outputs(sf, UNIT_LINK, M.FrameConfig(1, 0.5))
        assert np.allclose(sv.y1, [1.5])
        assert np.allclose(sv.y2, [1.5])

    def test_aligned_pulse_has_unit_gain(self):
        sf = W.SymbolFrame(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
        sv = W.matched_filter_outputs(sf, UNIT_LINK, M.FrameConfig(1, 0.25))
        assert sv.y1[0] == 1.0  # matched filter on its own pulse: exactly 1

    def test_tau0_reduces_to_synchronous_samples(self):
        sf = W.SymbolFrame(np.array([1.0 + 0j, 2.0 + 0j]),
                           np.array([3.0 + 0j, 4.0 + 0j]))
        sv = W.matched_filter_outputs(sf, UNIT_LINK, M.FrameConfig(2, 0.0))
        assert np.allclose(sv.y1, [4.0, 6.0])
        assert np.allclose(sv.y2, sv.y1)

    def test_spec_point_matches_linear_model(self):
        sym = W.generate_symbols(8, "gaussian", seed=5)
        link = M.LinkConfig(p1=1.3, p2=0.6, h1=0.9 + 0.1j, h2=0.4 - 0.8j)
        frame = M.FrameConfig(8, 0.3)
        err = M.TimingError(0.04, -0.02)
        got = W.matched_filter_outputs(sym, link, frame, err).interleaved()
        ref = W.model_outputs(sym, link, frame, err)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_no_error_model_is_banded_correlation(self):
        sym = W.generate_symbols(5, "qpsk", seed=9)
        frame = M.FrameConfig(5, 0.4)
        got = W.matched_filter_outputs(sym, UNIT_LINK, frame).interleaved()
        r = M.build_correlation(frame).to_dense()
        x = np.empty(10, dtype=complex)
        x[0::2], x[1::2] = sym.s1, sym.s2
        assert np.max(np.abs(got - r @ x)) <= 1e-12

    def test_frame_length_mismatch_rejected(self):
        sym = W.generate_symbols(4, "qpsk", seed=0)
        with pytest.raises(M.DomainError):
            W.matched_filter_outputs(sym, UNIT_LINK, M.FrameConfig(5, 0.3))

    @pytest.mark.parametrize("s1,s2", SIGN_BRANCHES)
    def test_slice_adds_match_the_loop_reference(self, s1, s2):
        # the loop places windows at global i + off, which rounds at
        # about ulp(n) ~ 1e-14 here: the two agree to that, not to bits
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 40):
            point = _random_point(rng, n, s1, s2)
            got = W.matched_filter_outputs(*point).interleaved()
            assert np.max(np.abs(got - _loop_reference(*point))) <= 1e-13

    @pytest.mark.parametrize("n", [2000, 10_000])
    @pytest.mark.parametrize("s1,s2", SIGN_BRANCHES)
    def test_long_frame_matches_linear_model(self, n, s1, s2):
        point = _random_point(np.random.default_rng(n), n, s1, s2)
        got = W.matched_filter_outputs(*point).interleaved()
        assert np.max(np.abs(got - W.model_outputs(*point))) <= 1e-12

    def test_simulator_never_reads_the_model_matrices(self, monkeypatch):
        point = _random_point(np.random.default_rng(4), 50, -1.0, 1.0)
        before = W.matched_filter_outputs(*point).interleaved()

        def forbidden(*args, **kwargs):
            raise AssertionError("the simulator consulted the model")

        monkeypatch.setattr(W, "build_error_matrices", forbidden)
        monkeypatch.setattr(M, "_stencil", forbidden)
        after = W.matched_filter_outputs(*point).interleaved()
        assert np.array_equal(before, after)

    def test_batched_timing_error_rejected(self):
        sym = W.generate_symbols(3, "qpsk", seed=0)
        err = M.TimingError(np.array([0.01, 0.02]), 0.0)
        with pytest.raises(M.DomainError):
            W.matched_filter_outputs(sym, UNIT_LINK, M.FrameConfig(3, 0.5), err)

    def test_noisy_path_reproducible_per_seed(self):
        sym = W.generate_symbols(6, "qpsk", seed=1)
        frame = M.FrameConfig(6, 0.5)
        a = W.matched_filter_outputs(sym, UNIT_LINK, frame, noiseless=False,
                                     rng=np.random.default_rng(11))
        b = W.matched_filter_outputs(sym, UNIT_LINK, frame, noiseless=False,
                                     rng=np.random.default_rng(11))
        assert np.array_equal(a.y1, b.y1)
        assert not np.allclose(a.y1, W.matched_filter_outputs(
            sym, UNIT_LINK, frame).y1)


class TestModelOutputs:
    @pytest.mark.parametrize("s1,s2", SIGN_BRANCHES)
    def test_diagonal_adds_match_dense_product(self, s1, s2):
        sym, link, frame, err = _random_point(np.random.default_rng(3), 7,
                                              s1, s2)
        rhat = M.build_error_matrices(frame, err)[2].to_dense()
        x = np.empty(14, dtype=complex)
        x[0::2], x[1::2] = sym.s1, sym.s2
        dense = rhat @ (M.build_gain(link, 7) * x)
        got = W.model_outputs(sym, link, frame, err)
        assert np.max(np.abs(got - dense)) <= 1e-14

    @pytest.mark.parametrize("symbols", [1, 3, 5])
    def test_frame_length_mismatch_rejected(self, symbols):
        # a short frame is not broadcast into every slot
        sym = W.generate_symbols(symbols, seed=1)
        with pytest.raises(M.DomainError,
                           match=f"frame carries 4 symbols but got {symbols}$"):
            W.model_outputs(sym, M.LinkConfig.from_gains(1.0, 0.5),
                            M.FrameConfig(4, 0.5), M.TimingError(0.01, 0.02))


class TestNoiseCovariance:
    def test_adjacent_correlation_at_half(self):
        rep = W.noise_covariance_mc(M.FrameConfig(2, 0.5), trials=40_000, seed=2)
        # E{n1 n2*} = 1 - tau = 0.5 within the statistical band
        assert abs(rep.empirical[0, 1].real - 0.5) <= 0.02
        assert np.allclose(np.diag(rep.empirical).real, 1.0, atol=0.02)

    def test_coordination_offset_shifts_correlation(self):
        rep = W.noise_covariance_mc(M.FrameConfig(2, 0.3), eps2=0.05,
                                    trials=40_000, seed=3)
        assert abs(rep.empirical[0, 1].real - 0.65) <= 0.02
        assert rep.max_abs_deviation <= 0.03

    def test_deviation_is_from_model_covariance(self):
        rep = W.noise_covariance_mc(M.FrameConfig(2, 0.5), eps2=0.1,
                                    trials=10_000, seed=4)
        model_cov = M.build_error_matrices(
            M.FrameConfig(2, 0.5), M.TimingError(0.0, 0.1))[3].to_dense()
        assert rep.max_abs_deviation == np.max(np.abs(rep.empirical - model_cov))

    def test_misaligned_windows_carry_no_bias(self):
        # tau + eps2 = 0.3123 falls on no dyadic grid: the estimate still
        # lies inside its three-sigma band
        rep = W.noise_covariance_mc(M.FrameConfig(2, 0.3), eps2=0.0123,
                                    trials=50_000, seed=5)
        assert rep.max_abs_deviation <= rep.stat_bound

    def test_trial_floor_enforced(self):
        with pytest.raises(M.DomainError):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), trials=100)

    @pytest.mark.parametrize("trials", [10_000.5, 1e4, "10000", True])
    def test_non_int_trials_rejected(self, trials):
        with pytest.raises(M.DomainError, match=re.escape(
                f"trials must be an int, got {trials!r}")):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), trials=trials)

    @pytest.mark.parametrize("eps2", ["x", None, [0.05]])
    def test_non_number_eps2_rejected(self, eps2):
        with pytest.raises(M.DomainError, match=re.escape(
                f"eps2 must be a number, got {eps2!r}")):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), eps2=eps2)

    def test_stat_bound_is_three_sigma(self):
        rep = W.noise_covariance_mc(M.FrameConfig(1, 0.5), trials=10_000,
                                    seed=6)
        assert rep.stat_bound == 3.0 / math.sqrt(10_000)

    def test_invalid_total_offset_rejected(self):
        with pytest.raises(M.DomainError):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), eps2=0.6, trials=10_000)

    def test_factorized_draw_matches_model_covariance(self):
        # 20,000 draws by the factor route that draw_colored_noise takes
        # one vector at a time (pinned below)
        frame = M.FrameConfig(2, 0.5)
        rhat_n = M.build_error_matrices(frame, M.TimingError(0.0, 0.05))[3]
        z = np.random.default_rng(8).standard_normal((20_000, 2, 4))
        w = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        draws = _bands.colored_factor_apply(_bands.cholesky_upper(rhat_n), w)
        emp = draws.T @ draws.conj() / len(draws)
        assert np.max(np.abs(emp - rhat_n.to_dense())) <= 0.03

    @pytest.mark.parametrize("n,tau,eps2", [(1, 0.0, 0.2), (2, 0.5, 0.05),
                                            (300, 0.41, -0.02)])
    def test_draw_is_the_factor_applied_to_white_noise(self, n, tau, eps2):
        frame = M.FrameConfig(n, tau)
        factor = _bands.cholesky_upper(M.build_noise_covariance(frame, eps2))
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            # 2n real, then 2n imaginary normals per vector
            z = ref.standard_normal((2, 2 * n))
            want = _bands.colored_factor_apply(
                factor, (z[0] + 1j * z[1]) / math.sqrt(2.0))
            assert W.draw_colored_noise(frame, eps2, rng).tobytes() == want.tobytes()
        assert rng.standard_normal() == ref.standard_normal()

    def test_draw_rejects_inadmissible_coordination_offset(self):
        with pytest.raises(M.DomainError):
            W.draw_colored_noise(M.FrameConfig(2, 0.5), 0.6,
                                 np.random.default_rng(0))

    def test_draw_rejects_a_batch_of_offsets(self):
        # one factor per eps2 would share one white draw across them all
        with pytest.raises(M.DomainError, match="takes one timing point"):
            W.draw_colored_noise(M.FrameConfig(4, 0.5), np.array([0.0, 0.01]),
                                 np.random.default_rng(0))


class TestIntervalMonteCarlo:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50), st.floats(0.0, 0.99), st.floats(0.001, 0.999))
    def test_gram_matrix_is_the_noise_covariance(self, n, tau, offset):
        # windows at tau + eps2 = offset, on no sub-grid in general
        eps2 = offset - tau
        frame = M.FrameConfig(n, tau)
        w = W._interval_weights(frame, eps2)
        expected = M.build_noise_covariance(frame, eps2).to_dense()
        # each cell length is a difference of two window edges k + s,
        # each rounded to within half a spacing of n + 1, and an entry
        # of W W^T sums at most two lengths: at most 2 spacings apart
        # from the exact value, plus a few ulps of 1 from the square
        # roots and the model's own rounding
        bound = 2 * np.spacing(float(n + 1)) + 4 * np.spacing(1.0)
        assert np.max(np.abs(w @ w.T - expected)) <= bound

    @pytest.mark.parametrize("n", [1, 2, 5, 200])
    @pytest.mark.parametrize("tau,eps2", [(0.5, 0.0), (0.5, 0.05), (0.3, -0.17)])
    def test_cell_count(self, n, tau, eps2):
        w = W._interval_weights(M.FrameConfig(n, tau), eps2)
        assert w.shape == (2 * n, 2 * n + 2)
        # window r covers cells r and r + 1 only; the last cell lies
        # past every window
        assert np.count_nonzero(w) == 4 * n
        assert not w[:, -1].any()

    def test_peak_memory_at_n_200(self):
        # a few 400 x 400 complex arrays of 2.6 MB each (the covariance,
        # its batch update, the deviation from the model) put the peak
        # near 9 MB; the cell weights add 1.3 MB
        tracemalloc.start()
        try:
            W.noise_covariance_mc(M.FrameConfig(200, 0.5), eps2=0.05,
                                  trials=10_000, seed=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_memory_does_not_grow_with_trials(self):
        frame = M.FrameConfig(2, 0.5)
        peaks = []
        for trials in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                W.noise_covariance_mc(frame, eps2=0.05, trials=trials, seed=9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]
