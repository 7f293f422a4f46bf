"""Waveform simulator: overlap integrals, symbols, noise coloring."""

import math

import numpy as np
import pytest

from anoma import model as M
from anoma import waveform as W

UNIT_LINK = M.LinkConfig(p1=1.0, p2=1.0)


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

    def test_expected_matrix_is_model_covariance(self):
        rep = W.noise_covariance_mc(M.FrameConfig(2, 0.5), eps2=0.1,
                                    trials=10_000, seed=4)
        model_cov = M.build_error_matrices(
            M.FrameConfig(2, 0.5), M.TimingError(0.0, 0.1))[3].to_dense()
        assert np.array_equal(rep.expected, model_cov)

    def test_subgrid_refinement_stays_within_noise(self):
        coarse = W.noise_covariance_mc(M.FrameConfig(1, 0.3), trials=50_000,
                                       seed=5, subsamples=64)
        fine = W.noise_covariance_mc(M.FrameConfig(1, 0.3), trials=50_000,
                                     seed=5, subsamples=128)
        assert np.max(np.abs(coarse.empirical - fine.empirical)) <= 0.05

    def test_trial_floor_enforced(self):
        with pytest.raises(M.DomainError):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), trials=100)

    def test_stat_bound_is_three_sigma(self):
        rep = W.noise_covariance_mc(M.FrameConfig(1, 0.5), trials=10_000,
                                    seed=6)
        assert rep.stat_bound == 3.0 / math.sqrt(10_000)

    def test_invalid_total_offset_rejected(self):
        with pytest.raises(M.DomainError):
            W.noise_covariance_mc(M.FrameConfig(1, 0.5), eps2=0.6, trials=10_000)

    def test_factorized_draw_matches_model_covariance(self):
        frame = M.FrameConfig(2, 0.5)
        rng = np.random.default_rng(8)
        draws = np.stack([W.draw_colored_noise(frame, 0.05, rng)
                          for _ in range(20_000)])
        emp = draws.T @ draws.conj() / len(draws)
        expect = M.build_error_matrices(frame, M.TimingError(0.0, 0.05))[3].to_dense()
        assert np.max(np.abs(emp - expect)) <= 0.03
