"""Waveform simulator: overlap integrals, symbols, noise coloring."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from anoma import model as M
from anoma import waveform as W

UNIT_LINK = M.LinkConfig(p1=1.0, p2=1.0)

# values drawn per batch by the trial-by-trial noise Monte Carlo oracle
_MC_BATCH_VALUES = 1 << 16


def _weights(frame, eps2):
    """The noise model's dense (2n, 2n + 1) filter weights W: window r
    weighs cells r and r + 1 by the square roots of their lengths
    (waveform._interval_weights), so W W^T is the window-overlap matrix
    RhatN."""
    root = W._interval_weights(frame, np.array(0.0), np.array(eps2))
    rows = np.arange(2 * frame.n)
    w = np.zeros((len(rows), len(root)))
    w[rows, rows] = root[:-1]
    w[rows, rows + 1] = root[1:]
    return w


def _batch_loop_mc(frame, eps2, trials, seed):
    """The noise Monte Carlo drawn trial by trial, in batches: the oracle
    of noise_covariance_mc's Bartlett draw, the same estimator, as
    (empirical covariance, max abs deviation)."""
    wt = _weights(frame, eps2).T
    cells, n2 = wt.shape
    rng = np.random.default_rng(seed)
    cov = np.zeros((n2, n2), dtype=complex)
    batch = max(1, _MC_BATCH_VALUES // cells)
    for start in range(0, trials, batch):
        b = min(batch, trials - start)
        # the real and the imaginary part of a cell each carry its
        # length L as variance, twice a complex cell's L: halved once
        # at the end
        y = (rng.standard_normal((b, cells)) @ wt
             + 1j * (rng.standard_normal((b, cells)) @ wt))
        cov += y.T @ y.conj()
    cov *= 1.0 / (2.0 * trials)
    expected = M.build_noise_covariance(frame, eps2).to_dense()
    return cov, float(np.max(np.abs(cov - expected)))


def _ks_pvalue(a, b):
    """Two-sample Kolmogorov-Smirnov p-value from the asymptotic
    Kolmogorov distribution with Stephens' small-sample correction
    (Numerical Recipes' probks), without importing scipy.stats."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate((a, b))
    d = np.max(np.abs(np.searchsorted(a, both, "right") / len(a)
                      - np.searchsorted(b, both, "right") / len(b)))
    en = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (en + 0.12 + 0.11 / en) * d
    k = np.arange(1, 101)
    terms = (-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)
    return float(np.clip(2.0 * terms.sum(), 0.0, 1.0))


class _SpyGenerator:
    """A Generator that records the name and result shape of each draw."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def spy(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.shape(out)))
            return out
        return spy


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

    @pytest.mark.parametrize("seed", ["x", 1.5, -1])
    def test_bad_seed_named(self, seed):
        with pytest.raises(M.DomainError, match=re.escape(
                f"seed must be None, an int >= 0 or a Generator, got {seed!r}")):
            W.generate_symbols(4, seed=seed)


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

        monkeypatch.setattr(W, "_error_matrices", forbidden)
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

    @pytest.mark.parametrize("flag,noisy", [(True, False), (np.bool_(True), False),
                                            (1, False), (0, True),
                                            (np.bool_(False), True)])
    def test_noiseless_takes_a_bool_or_0_or_1(self, flag, noisy):
        sym = W.generate_symbols(4, seed=2)
        frame = M.FrameConfig(4, 0.5)
        got = W.matched_filter_outputs(sym, UNIT_LINK, frame, noiseless=flag,
                                       rng=7).y1
        noisy_y1 = W.matched_filter_outputs(sym, UNIT_LINK, frame,
                                            noiseless=False, rng=7).y1
        clean_y1 = W.matched_filter_outputs(sym, UNIT_LINK, frame).y1
        assert np.array_equal(got, noisy_y1 if noisy else clean_y1)

    @pytest.mark.parametrize("flag", [0.0, 1.0, 2, -1, "yes", None])
    def test_noiseless_rejects_what_is_not_a_bool(self, flag):
        sym = W.generate_symbols(4, seed=2)
        with pytest.raises(M.DomainError, match="^noiseless must be "):
            W.matched_filter_outputs(sym, UNIT_LINK, M.FrameConfig(4, 0.5),
                                     noiseless=flag)


class TestEntryPointArguments:
    def test_simulator_frame_must_be_a_frame_config(self):
        sym = W.generate_symbols(2, seed=0)
        with pytest.raises(M.DomainError, match=re.escape(
                "frame must be a FrameConfig, got None")):
            W.matched_filter_outputs(sym, UNIT_LINK, None)

    def test_simulator_rng_must_make_a_generator(self):
        sym = W.generate_symbols(2, seed=0)
        with pytest.raises(M.DomainError, match="^rng must be None, an int"):
            W.matched_filter_outputs(sym, UNIT_LINK, M.FrameConfig(2, 0.5),
                                     noiseless=False, rng="x")

    def test_colored_noise_frame_must_be_a_frame_config(self):
        with pytest.raises(M.DomainError, match=re.escape(
                "frame must be a FrameConfig, got None")):
            W.draw_colored_noise(None, 0.0, np.random.default_rng(0))

    def test_monte_carlo_frame_must_be_a_frame_config(self):
        with pytest.raises(M.DomainError, match=re.escape(
                "frame must be a FrameConfig, got None")):
            W.noise_covariance_mc(None)

    @pytest.mark.parametrize("seed", ["x", 1.5, -1])
    def test_monte_carlo_seed_named(self, seed):
        with pytest.raises(M.DomainError, match=re.escape(
                f"seed must be None, an int >= 0 or a Generator, got {seed!r}")):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), seed=seed)


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

    def test_batched_err_gives_one_row_per_flattened_point(self):
        sym = W.generate_symbols(6, seed=4)
        frame = M.FrameConfig(6, 0.5)
        eps1 = np.array([[0.01, 0.02], [0.0, -0.01]])
        got = W.model_outputs(sym, UNIT_LINK, frame, M.TimingError(eps1, 0.03))
        assert got.shape == (4, 12)
        for row, e1 in zip(got, eps1.ravel()):
            assert np.array_equal(row, W.model_outputs(
                sym, UNIT_LINK, frame, M.TimingError(e1, 0.03)))

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
        with pytest.raises(M.DomainError, match=re.escape(
                "noise covariance singular at tau=0.5, "
                "(eps1, eps2) = (0.0, 0.6)")):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), eps2=0.6, trials=10_000)

    def test_draws_match_model_covariance(self):
        # 20,000 public draws, one vector at a time
        frame = M.FrameConfig(2, 0.5)
        rhat_n = M.build_error_matrices(frame, M.TimingError(0.0, 0.05))[3]
        rng = np.random.default_rng(8)
        draws = np.array([W.draw_colored_noise(frame, 0.05, rng)
                          for _ in range(20_000)])
        emp = draws.T @ draws.conj() / len(draws)
        assert np.max(np.abs(emp - rhat_n.to_dense())) <= 0.03

    @pytest.mark.parametrize("n,tau,eps2", [(1, 0.0, 0.2), (2, 0.5, 0.05),
                                            (300, 0.41, -0.02)])
    def test_draw_is_w_applied_to_white_noise(self, n, tau, eps2):
        # W g from the cell lengths s, 1 - s, ..., s, window r on cells r
        # and r + 1, against the draw bit for bit
        frame, s = M.FrameConfig(n, tau), tau + eps2
        root = np.sqrt(np.tile([s, 1.0 - s], n + 1)[:-1])
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            # 2n + 1 real, then 2n + 1 imaginary normals per vector
            z = ref.standard_normal((2, 2 * n + 1))
            g = (z[0] + 1j * z[1]) / math.sqrt(2.0)
            want = root[:-1] * g[:-1] + root[1:] * g[1:]
            got = W.draw_colored_noise(frame, eps2, rng)
            assert got.tobytes() == want.tobytes()
            assert np.allclose(got, _weights(frame, eps2) @ g,
                               rtol=0.0, atol=1e-14)
        assert rng.standard_normal() == ref.standard_normal()

    def test_draw_rejects_inadmissible_coordination_offset(self):
        with pytest.raises(M.DomainError, match=re.escape(
                "noise covariance singular at tau=0.5, "
                "(eps1, eps2) = (0.0, 0.6)")):
            W.draw_colored_noise(M.FrameConfig(2, 0.5), 0.6,
                                 np.random.default_rng(0))

    def test_draw_rejects_a_batch_of_offsets(self):
        # one factor per eps2 would share one white draw across them all
        with pytest.raises(M.DomainError, match="takes one timing point"):
            W.draw_colored_noise(M.FrameConfig(4, 0.5), np.array([0.0, 0.01]),
                                 np.random.default_rng(0))


class TestIntervalMonteCarlo:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10_000) | st.integers(1, 3),
           st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
           | st.sampled_from([2.0 ** -52, 0.5, 1.0 - 2.0 ** -52]))
    def test_gram_matrix_is_the_noise_covariance(self, n, tau, offset):
        # windows at tau + eps2 = offset, on no sub-grid in general, to
        # within an ulp of either end of (0, 1)
        eps2 = offset - tau
        s = tau + eps2
        assume(0.0 < s < 1.0 and 0.0 < 1.0 - s < 1.0)
        frame = M.FrameConfig(n, tau)
        # the bands of W W^T from W's two weights per row, on cells r
        # and r + 1: each length s or 1 - s is formed once, so the bands
        # carry only the rounding of a square root and of the model's
        # own entries
        root = W._interval_weights(frame, np.array(0.0), np.array(eps2))
        rhat_n = M.build_noise_covariance(frame, eps2)
        assert rhat_n.upper == rhat_n.lower == 1
        diag = root[:-1] * root[:-1] + root[1:] * root[1:]
        upper = root[1:-1] * root[1:-1]
        assert np.max(np.abs(diag - rhat_n.ab[1])) <= 1e-15
        assert np.max(np.abs(upper - rhat_n.ab[0, 1:])) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 200])
    @pytest.mark.parametrize("tau,eps2", [(0.5, 0.0), (0.5, 0.05), (0.3, -0.17)])
    def test_cell_count(self, n, tau, eps2):
        w = _weights(M.FrameConfig(n, tau), eps2)
        assert w.shape == (2 * n, 2 * n + 1)
        # window r covers cells r and r + 1 only, and every cell lies
        # under a window
        assert np.count_nonzero(w) == 4 * n
        assert w.any(axis=0).all()

    def test_peak_memory_at_n_200(self):
        # a few 400 x 400 complex arrays of 2.6 MB each (the Bartlett
        # factor R, R W^T, the covariance, the deviation from the model)
        # put the traced peak of a first call near 8.7 MB, 3.4 such
        # arrays.  A dense (400, 402) cell weight matrix, 1.3 MB, would
        # take it to 10.0 MB
        array = (2 * 200) ** 2 * 16
        tracemalloc.start()
        try:
            W.noise_covariance_mc(M.FrameConfig(200, 0.5), eps2=0.05,
                                  trials=10_000, seed=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * array

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


class TestGramFactor:
    @pytest.mark.parametrize("trials", [3, 8])
    def test_gram_matrix_moments_and_rank(self, trials):
        # R^H R against Z^H Z for Z of trials x cells complex normals with
        # standard parts: mean 2 trials I, diagonal variance 4 trials
        # (chi^2 with 2 trials degrees of freedom), rank min(trials, cells)
        cells, draws = 6, 20_000
        rng = np.random.default_rng(31)
        r = np.stack([W._gram_factor(rng, trials, cells)
                      for _ in range(draws)])
        assert r.shape == (draws, min(trials, cells), cells)
        assert not np.tril(r, -1).any()
        g = np.conj(np.swapaxes(r, 1, 2)) @ r
        root = math.sqrt(draws)
        miss = np.abs(g.real.mean(0) - 2 * trials * np.eye(cells))
        assert np.all(miss <= 4 * g.real.std(0) / root)
        off = ~np.eye(cells, dtype=bool)
        im = g.imag[:, off]
        assert np.all(np.abs(im.mean(0)) <= 4 * im.std(0) / root)
        diag = np.diagonal(g.real, axis1=1, axis2=2)
        sq = (diag - diag.mean(0)) ** 2
        assert np.all(np.abs(sq.mean(0) - 4 * trials) <= 4 * sq.std(0) / root)
        assert np.all(np.linalg.matrix_rank(g) == min(trials, cells))

    def test_draws_do_not_depend_on_trials(self):
        calls = []
        for trials in (6, 10_000, 10 ** 9):
            spy = _SpyGenerator(np.random.default_rng(0))
            W._gram_factor(spy, trials, 6)
            calls.append(spy.calls)
        assert calls[0] == calls[1] == calls[2] == [
            ("standard_normal", (6, 6, 2)), ("chisquare", (6,))]

    def test_a_billion_trials_in_the_memory_of_ten_thousand(self):
        # each call's traced peak above what was held before it, in one
        # tracing session (a session's first call also traces its own
        # start-up).  Both counts allocate the same arrays; the peak
        # still drifts by a few bytes from call to call at any count
        frame = M.FrameConfig(2, 0.5)
        peaks = {}
        tracemalloc.start()
        try:
            for trials in (10_000, 10_000, 10 ** 9):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                rep = W.noise_covariance_mc(frame, eps2=0.05, trials=trials,
                                            seed=9)
                peaks[trials] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert abs(peaks[10 ** 9] - peaks[10_000]) <= 64
        # ten per-entry standard deviations: never a chance miss
        assert rep.max_abs_deviation <= 10 * rep.stat_bound

    @pytest.mark.parametrize("n,tau,eps2", [(2, 0.5, 0.05), (5, 0.3, 0.0123)])
    def test_same_estimator_distribution_as_the_batch_loop(self, n, tau, eps2):
        # 200 estimates each way, from disjoint seeds, at 10,000 trials
        frame, trials = M.FrameConfig(n, tau), 10_000
        old = [_batch_loop_mc(frame, eps2, trials, 1000 + s)
               for s in range(200)]
        new = [W.noise_covariance_mc(frame, eps2, trials, seed=2000 + s)
               for s in range(200)]
        bound = 3.0 / math.sqrt(trials)
        assert _ks_pvalue([dev / bound for _, dev in old],
                          [r.max_abs_deviation / r.stat_bound
                           for r in new]) > 1e-3
        assert _ks_pvalue([cov[0, 1].real for cov, _ in old],
                          [r.empirical[0, 1].real for r in new]) > 1e-3
