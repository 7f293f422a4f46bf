"""Domain types and structured-matrix builders."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anoma import model as M
from anoma.throughput import _char_roots


def rhat_from_display(n, tau, e1, e2):
    """Independent dense oracle: the mistimed mixing matrix written out
    entry by entry with explicit unit steps, one row type per stream."""
    def u(x):
        return 1.0 if x > 0 else 0.0

    s = e1 + e2
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        r = 2 * i
        a[r, r] = 1.0 - abs(e1)
        if r - 2 >= 0:
            a[r, r - 2] = u(-e1) * (-e1)
        if r - 1 >= 0:
            a[r, r - 1] = tau - e1
        if r + 1 < 2 * n:
            a[r, r + 1] = 1.0 - tau + e1
        if r + 2 < 2 * n:
            a[r, r + 2] = u(e1) * e1
        r = 2 * i + 1
        a[r, r] = 1.0 - abs(s)
        if r - 2 >= 0:
            a[r, r - 2] = u(-s) * (-s)
        if r - 1 >= 0:
            a[r, r - 1] = 1.0 - tau - s
        if r + 1 < 2 * n:
            a[r, r + 1] = tau + s
        if r + 2 < 2 * n:
            a[r, r + 2] = u(s) * s
    return a


class TestLinkConfig:
    def test_gains(self):
        link = M.LinkConfig(p1=4.0, p2=1.0, h1=1.0, h2=0.5)
        assert link.mu1 == 4.0
        assert link.mu2 == 0.25

    def test_from_gains(self):
        link = M.LinkConfig.from_gains(1.0, 0.5)
        assert (link.mu1, link.mu2) == (1.0, 0.5)

    def test_negative_power_rejected(self):
        with pytest.raises(M.DomainError):
            M.LinkConfig(p1=-1.0, p2=1.0)

    def test_zero_gain_rejected_for_throughput(self):
        with pytest.raises(M.DomainError):
            M.LinkConfig(p1=0.0, p2=1.0).require_positive_gains()

    @pytest.mark.parametrize("gains,name", [((1e-310, 1.0), "mu1"),
                                            ((1.0, 5e-324), "mu2")])
    def test_subnormal_gain_rejected_by_name(self, gains, name):
        # its reciprocal overflows to inf
        with pytest.raises(M.DomainError, match=name):
            M.LinkConfig.from_gains(*gains).require_positive_gains()

    def test_smallest_workload_gain_accepted(self):
        M.LinkConfig.from_gains(1e-300, 1e-300).require_positive_gains()

    @pytest.mark.parametrize("channels", [{"h1": float("nan")},
                                          {"h2": float("inf")},
                                          {"h1": complex(1.0, float("nan"))}])
    def test_non_finite_channel_rejected(self, channels):
        with pytest.raises(M.DomainError, match="must be finite"):
            M.LinkConfig(p1=1.0, p2=1.0, **channels)

    @pytest.mark.parametrize("fields", [
        {"p1": "1"}, {"p1": None}, {"p1": "abc"}, {"p1": True},
        {"p2": np.True_}, {"p2": 1j}, {"p2": [1.0]}, {"p2": np.array(1.0)},
        {"h1": "1"}, {"h2": None}, {"h1": False}, {"h2": np.array([1.0])},
    ])
    def test_non_number_rejected_by_name(self, fields):
        (name, value), = fields.items()
        link = {"p1": 1.0, "p2": 1.0} | fields
        with pytest.raises(M.DomainError, match=re.escape(
                f"{name} must be a number, got {value!r}")):
            M.LinkConfig(**link)

    @pytest.mark.parametrize("fields,k", [
        ({"h1": 1e300}, "1"), ({"p2": 1e300, "h2": 1e10}, "2"),
        ({"p1": 1e300, "h1": 1e10j}, "1")])
    def test_gain_past_the_float_range_rejected(self, fields, k):
        with pytest.raises(M.DomainError, match=re.escape(
                f"gain mu{k} = p{k} |h{k}|^2 must be finite")):
            M.LinkConfig(**({"p1": 1.0, "p2": 1.0} | fields))

    @pytest.mark.parametrize("fields,gain", [
        ({"p1": 2}, 2.0), ({"p1": np.float64(2.0)}, 2.0),
        ({"p2": np.int64(2)}, 2.0), ({"p2": np.float32(2.0)}, 2.0),
        ({"h1": 2}, 4.0), ({"h1": np.float64(2.0)}, 4.0),
        ({"h2": np.complex128(2.0)}, 4.0), ({"h2": 2.0 + 0.0j}, 4.0),
    ])
    def test_numpy_and_int_numbers_accepted(self, fields, gain):
        link = M.LinkConfig(**({"p1": 1.0, "p2": 1.0} | fields))
        assert max(link.mu1, link.mu2) == gain


class TestFrameConfig:
    @pytest.mark.parametrize("n,tau", [(0, 0.5), (3, 1.0), (3, -0.1)])
    def test_invalid(self, n, tau):
        with pytest.raises(M.DomainError):
            M.FrameConfig(n, tau)

    def test_tau_zero_is_legal(self):
        assert M.FrameConfig(1, 0.0).tau == 0.0

    @pytest.mark.parametrize("n", [True, False, 2.0, "10"])
    def test_non_int_length_rejected(self, n):
        # named as given: a string reads as one
        with pytest.raises(M.DomainError, match=f"got {re.escape(repr(n))}$"):
            M.FrameConfig(n, 0.5)

    @pytest.mark.parametrize("n", [2 ** 63, 10 ** 20, np.uint64(2 ** 63)])
    def test_length_beyond_int64_rejected_by_name(self, n):
        with pytest.raises(M.DomainError, match=r"frame length n .*got \d+"):
            M.FrameConfig(n, 0.5)

    def test_int64_maximum_is_legal(self):
        assert M.FrameConfig(2 ** 63 - 1, 0.5).n == 2 ** 63 - 1

    @pytest.mark.parametrize("tau", ["0.5", None, False, np.True_, 0.5j])
    def test_non_number_tau_rejected(self, tau):
        with pytest.raises(M.DomainError, match=re.escape(
                f"tau must be a number, got {tau!r}")):
            M.FrameConfig(4, tau)

    @pytest.mark.parametrize("tau", [0, np.int64(0), np.float64(0.25),
                                     np.float32(0.25)])
    def test_int_and_numpy_tau_accepted(self, tau):
        frame = M.FrameConfig(4, tau)
        assert type(frame.tau) is float and frame.tau == float(tau)


class TestTimingError:
    def test_admissible_ranges(self):
        frame = M.FrameConfig(4, 0.5)
        M.TimingError(0.4, -0.3).check_admissible(frame)
        with pytest.raises(M.DomainError):
            M.TimingError(0.6, 0.0).check_admissible(frame)
        with pytest.raises(M.DomainError):
            M.TimingError(0.2, 0.4).check_admissible(frame)  # sum 0.6 > 1 - tau

    def test_sync_error_a_symbol_early_rejected(self):
        # eps1 in [tau - 2, tau - 1) with eps1 + eps2 = 0 admissible
        for eps1 in (-0.7, -1.5):
            with pytest.raises(M.DomainError, match=re.escape(
                    f"eps1={eps1} outside [tau-1, tau] for tau=0.5")):
                M.TimingError(eps1, -eps1).check_admissible(M.FrameConfig(4, 0.5))
        M.TimingError(-0.5, 0.5).check_admissible(M.FrameConfig(4, 0.5))

    def test_batch_names_first_inadmissible_point(self):
        frame = M.FrameConfig(4, 0.5)
        err = M.TimingError(np.array([0.1, 0.2, 0.6, 0.2]),
                            np.array([0.0, 0.4, 0.0, 0.0]))
        with pytest.raises(M.DomainError,
                           match=r"at \(eps1, eps2\) = \(0\.2, 0\.4\)"):
            err.check_admissible(frame)

    def test_batch_must_be_finite(self):
        with pytest.raises(M.DomainError, match="eps2"):
            M.TimingError(np.zeros(3), np.array([0.0, np.nan, 0.0]))

    @pytest.mark.parametrize("eps", [
        "0.1", True, None, np.True_, np.array([0.1, True]) > 0,
        np.array(["0.1"]), np.array([0.1j]), np.array([0.1, None]),
    ])
    @pytest.mark.parametrize("name", ["eps1", "eps2"])
    def test_non_number_rejected_by_name(self, name, eps):
        with pytest.raises(M.DomainError, match=f"^{name} must be a number"):
            M.TimingError(**{name: eps})

    @pytest.mark.parametrize("name", ["eps1", "eps2"])
    def test_ragged_list_rejected_by_name(self, name):
        with pytest.raises(M.DomainError, match=re.escape(
                f"{name} must be a number, got [[0.1], [0.1, 0.2]]")):
            M.TimingError(**{name: [[0.1], [0.1, 0.2]]})

    @pytest.mark.parametrize("name", ["eps1", "eps2"])
    def test_numbers_and_float_batches_accepted(self, name):
        for eps in (0, np.int64(0), np.float32(0.25), [0.1, -0.2],
                    np.array([0.1, -0.2]), np.array([[0.1], [0.2]])):
            got = M.TimingError(**{name: eps}).arrays()[name == "eps2"]
            assert np.array_equal(got, np.asarray(eps, dtype=float))


class TestCorrelation:
    def test_n1_half(self):
        r = M.build_correlation(M.FrameConfig(1, 0.5)).to_dense()
        assert np.array_equal(r, [[1.0, 0.5], [0.5, 1.0]])

    def test_n2_tau0(self):
        r = M.build_correlation(M.FrameConfig(2, 0.0)).to_dense()
        expect = np.eye(4)
        expect[0, 1] = expect[1, 0] = expect[2, 3] = expect[3, 2] = 1.0
        assert np.array_equal(r, expect)

    def test_n2_tau03(self):
        r = M.build_correlation(M.FrameConfig(2, 0.3)).to_dense()
        expect = np.array([[1.0, 0.7, 0.0, 0.0],
                           [0.7, 1.0, 0.3, 0.0],
                           [0.0, 0.3, 1.0, 0.7],
                           [0.0, 0.0, 0.7, 1.0]])
        assert np.array_equal(r, expect)

    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_positive_definite_inside_range(self, n, tau):
        r = M.build_correlation(M.FrameConfig(n, tau)).to_dense()
        assert np.array_equal(r, r.T)
        assert np.linalg.eigvalsh(r).min() > 0.0

    def test_tau0_boundary_is_singular_psd(self):
        # the two sample streams coincide at tau = 0; log-det paths avoid
        # inverting R there by factoring D^-1 + R instead
        eig = np.linalg.eigvalsh(M.build_correlation(M.FrameConfig(3, 0.0)).to_dense())
        assert eig.min() > -1e-12
        assert eig.min() < 1e-12


class TestGain:
    def test_unit(self):
        g = M.build_gain(M.LinkConfig(p1=1, p2=1), 1)
        assert np.array_equal(g, np.ones(2))
        assert g.dtype == complex

    def test_values_and_hh(self):
        g = M.build_gain(M.LinkConfig(p1=4.0, p2=1.0, h1=1.0, h2=0.5), 1)
        assert np.allclose(g, [2.0, 0.5])
        assert np.allclose(np.abs(g) ** 2, [4.0, 0.25])

    def test_hh_alternates(self):
        link = M.LinkConfig(p1=1.0, p2=1.0, h1=1.0, h2=np.sqrt(0.5))
        g = M.build_gain(link, 2)
        assert np.allclose(np.abs(g) ** 2, [1.0, 0.5, 1.0, 0.5])

    def test_complex_channel_phase_kept(self):
        g = M.build_gain(M.LinkConfig(p1=4.0, p2=1.0, h1=1j, h2=1.0), 1)
        assert g[0] == 2j


class TestErrorMatrices:
    def test_zero_error_collapses(self):
        frame = M.FrameConfig(3, 0.4)
        e1, e2, rhat, rhat_n = M.build_error_matrices(frame, M.TimingError())
        r = M.build_correlation(frame).to_dense()
        assert not np.any(e1.to_dense())
        assert not np.any(e2.to_dense())
        assert np.array_equal(rhat.to_dense(), r)
        assert np.array_equal(rhat_n.to_dense(), r)

    def test_negative_eps1_first_row(self):
        frame = M.FrameConfig(2, 0.5)
        e1, _, _, _ = M.build_error_matrices(frame, M.TimingError(-0.05, 0.0))
        assert np.allclose(e1.to_dense()[0], [-0.05, -0.05, 0.0, 0.0])

    def test_display_oracle_small(self):
        frame = M.FrameConfig(2, 0.5)
        err = M.TimingError(0.05, 0.03)
        _, _, rhat, _ = M.build_error_matrices(frame, err)
        assert np.array_equal(rhat.to_dense(),
                              rhat_from_display(2, 0.5, 0.05, 0.03))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.floats(0.01, 0.99),
           st.floats(0.02, 0.98), st.floats(0.02, 0.98))
    def test_display_oracle_all_signs(self, n, tau, f1, f2):
        # map unit floats into the interior of the admissible box (the
        # exact boundary is legal but rounding of e2 = s - e1 can tip it)
        e1 = (tau - 1.0) * (1 - f1) + tau * f1
        s = -tau * (1 - f2) + (1.0 - tau) * f2
        e2 = s - e1
        frame = M.FrameConfig(n, tau)
        err = M.TimingError(e1, e2)
        _, e2m, rhat, rhat_n = M.build_error_matrices(frame, err)
        assert np.array_equal(rhat.to_dense(),
                              rhat_from_display(n, tau, e1, e2))
        rn = rhat_n.to_dense()
        assert np.array_equal(rn, rn.T)
        # perturbed covariance entries follow the display pattern
        eps2 = err.eps2
        for i in range(2 * n - 1):
            expect = (1.0 - tau) - eps2 if i % 2 == 0 else tau + eps2
            assert rn[i, i + 1] == expect
        assert np.allclose(rn - M.build_correlation(frame).to_dense(),
                           e2m.to_dense(), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_batch_matches_points(self, n):
        tau = 0.4
        eps1 = np.array([0.05, -0.05, 0.02, -0.03, 0.0])
        eps2 = np.array([0.03, 0.08, -0.06, -0.02, 0.1])
        frame = M.FrameConfig(n, tau)
        batch = M.build_error_matrices(frame, M.TimingError(eps1, eps2))
        for b, (e1, e2) in enumerate(zip(eps1, eps2)):
            point = M.build_error_matrices(frame, M.TimingError(e1, e2))
            for got, ref in zip(batch, point):
                assert np.array_equal(got.to_dense()[b], ref.to_dense())
            assert np.array_equal(batch[2].to_dense()[b],
                                  rhat_from_display(n, tau, e1, e2))

    @pytest.mark.parametrize("eps2", [0.0, 0.07, -0.3,
                                      np.array([0.05, -0.1, 0.2])])
    def test_noise_covariance_is_r_plus_e2(self, eps2):
        frame = M.FrameConfig(3, 0.4)
        _, e2m, _, rhat_n = M.build_error_matrices(
            frame, M.TimingError(np.zeros_like(eps2), eps2))
        alone = M.build_noise_covariance(frame, eps2)
        for ref in (rhat_n, M.build_correlation(frame) + e2m):
            assert (alone.lower, alone.upper) == (ref.lower, ref.upper)
            assert np.array_equal(alone.ab, ref.ab)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 0.77])
    def test_rhat_is_the_band_sum_r_plus_e1_bit_for_bit(self, n, tau):
        # Rhat is one stencil of R's diagonals plus E1's: the bytes of the
        # band sum, signed zeros at zero offsets included, batch and point
        eps1 = np.array([0.0, -0.0, 0.05, -0.05, 0.02, -0.03, 0.0, tau])
        eps2 = np.array([0.0, 0.0, 0.03, 0.08, -0.06, -0.02, 0.1, -tau])
        frame = M.FrameConfig(n, tau)
        r = M.build_correlation(frame)
        for e1, e2 in [(eps1, eps2), *zip(eps1, eps2)]:
            want = r + M._stencil(2 * n, M._unit_step_diagonals(e1, e1 + e2))
            got = M._mixing(frame, e1, e2)
            assert (got.lower, got.upper) == (want.lower, want.upper)
            assert got.ab.tobytes() == want.ab.tobytes()

    def test_inadmissible_error_raises(self):
        with pytest.raises(M.DomainError):
            M.build_error_matrices(M.FrameConfig(2, 0.5), M.TimingError(0.7, 0.0))


class TestCharRoots:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
           st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
           st.sampled_from([round(0.1 * k, 1) for k in range(10)]))
    def test_identities(self, mu1, mu2, tau):
        r1, r2, _ = _char_roots(np.float64(mu1), np.float64(mu2), tau)
        s = 1 / mu1 + 1 / mu2 + 1 / (mu1 * mu2) + 2 * tau * (1 - tau)
        p = (tau * (1 - tau)) ** 2
        assert abs(r1 + r2 - s) <= 1e-12 * s
        if tau == 0.0:
            assert r2 == 0.0
        else:
            assert r1 >= r2 > 0.0
            assert abs(r1 * r2 - p) <= 1e-12 * p
        # discriminant stays strictly positive for positive gains
        assert (s - 2 * tau * (1 - tau)) > 0.0
