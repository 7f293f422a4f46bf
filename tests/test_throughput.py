"""Throughput routes against dense oracles and hand-computed values."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anoma import model as M
from anoma import throughput as T


def exact_rational_det(mu1, mu2, tau, n):
    """det((H H^H)^-1 + R) by fraction-field elimination: zero rounding."""
    n2 = 2 * n
    t = Fraction(tau)
    a = [[Fraction(0)] * n2 for _ in range(n2)]
    for i in range(n2):
        a[i][i] = 1 + 1 / Fraction(mu1 if i % 2 == 0 else mu2)
        if i + 1 < n2:
            v = (1 - t) if i % 2 == 0 else t
            a[i][i + 1] = v
            a[i + 1][i] = v
    det = Fraction(1)
    for c in range(n2):
        p = next(r for r in range(c, n2) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n2):
            if a[r][c] != 0:
                f = a[r][c] * inv
                for k in range(c, n2):
                    a[r][k] -= f * a[c][k]
    return det


def dense_rate_oracle(mu1, mu2, tau, n):
    """Dense slogdet of I + D R, the reference for every route."""
    r = M.build_correlation(M.FrameConfig(n, tau)).to_dense()
    d = np.empty(2 * n)
    d[0::2], d[1::2] = mu1, mu2
    sign, ld = np.linalg.slogdet(np.eye(2 * n) + np.diag(d) @ r)
    assert sign > 0
    return ld / math.log(2.0) / (n + tau)


LINK = M.LinkConfig.from_gains(1.0, 0.5)


def within_log2(got, want, rel_tol):
    """got and want are log2s: whether 2^got lies within rel_tol,
    relative, of 2^want, the bound carried to the log domain (no looser)."""
    return abs(got - want) <= math.log2(1.0 + rel_tol)


def char_roots(mu1, mu2, tau):
    """(r1, r2) from the closed form's root kernel."""
    r1, r2, _ = T._char_roots(np.float64(mu1), np.float64(mu2), tau)
    return r1, r2


class TestMatrixRoute:
    def test_tau0_single_symbol(self):
        assert math.isclose(T.throughput_matrix(LINK, M.FrameConfig(1, 0.0)),
                            math.log2(2.5), rel_tol=1e-15)

    def test_two_by_two_hand_expansion(self):
        # det(I + diag(1, .5) [[1, .5], [.5, 1]]) = 2 * 1.5 - 0.125 = 2.875
        got = T.throughput_matrix(LINK, M.FrameConfig(1, 0.5))
        assert math.isclose(got, math.log2(2.875) / 1.5, rel_tol=1e-14)

    def test_vanishing_user_limit(self):
        n, mu2, tau = 3, 0.7, 0.4
        tiny = M.LinkConfig.from_gains(1e-13, mu2)
        got = T.throughput_matrix(tiny, M.FrameConfig(n, tau))
        r = M.build_correlation(M.FrameConfig(n, tau)).to_dense()
        d = np.zeros(2 * n)
        d[1::2] = mu2
        ld = np.linalg.slogdet(np.eye(2 * n) + np.diag(d) @ r)[1] / math.log(2)
        assert math.isclose(got, ld / (n + tau), rel_tol=1e-9)

    def test_zero_gain_rejected(self):
        with pytest.raises(M.DomainError):
            T.throughput_matrix(M.LinkConfig(p1=0.0, p2=1.0), M.FrameConfig(1, 0.5))

    @pytest.mark.parametrize("route", [T.throughput_matrix, T.throughput_closed,
                                       T.throughput_recursion])
    def test_subnormal_gain_rejected_by_every_route(self, route):
        link = M.LinkConfig.from_gains(1e-310, 1.0)
        with pytest.raises(M.DomainError, match="mu1"):
            route(link, M.FrameConfig(4, 0.5))

    @pytest.mark.parametrize("mu", [1e17, 1e300])
    def test_tau0_cancelled_pivot_is_a_domain_error(self, mu):
        # at tau = 0 the second pivot (1 + 1/mu2) - 1/(1 + 1/mu1) of each
        # 2x2 block rounds to 0 once 1/mu is below machine epsilon
        link = M.LinkConfig.from_gains(mu, mu)
        with pytest.raises(M.DomainError, match=r"mu1=.*mu2=.*n=3, tau=0\.0.*"
                           "second Cholesky pivot.*machine epsilon"):
            T.log2_det_no_error(link, M.FrameConfig(3, 0.0))


class TestClosedForm:
    def test_tau0_is_noma_bitwise(self):
        for mu1 in (0.1, 1.0, 10.0):
            for mu2 in (0.1, 1.0, 10.0):
                link = M.LinkConfig.from_gains(mu1, mu2)
                assert (T.throughput_closed(link, M.FrameConfig(10, 0.0))
                        == T.throughput_noma(mu1, mu2))

    def test_matches_two_by_two_oracle(self):
        got = T.throughput_closed(LINK, M.FrameConfig(1, 0.5))
        assert math.isclose(got, math.log2(2.875) / 1.5, rel_tol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0),
           st.floats(0.0, 0.95), st.integers(1, 30))
    def test_three_routes_match_dense(self, mu1, mu2, tau, n):
        link = M.LinkConfig.from_gains(mu1, mu2)
        frame = M.FrameConfig(n, tau)
        ref = dense_rate_oracle(mu1, mu2, tau, n)
        assert math.isclose(T.throughput_matrix(link, frame), ref, rel_tol=1e-10)
        assert math.isclose(T.throughput_closed(link, frame), ref, rel_tol=1e-10)
        assert math.isclose(T.throughput_recursion(link, frame), ref, rel_tol=1e-10)

    def test_large_frame_log_domain(self):
        # r1 > 1 here, so naive powers overflow long before N = 5000
        frame = M.FrameConfig(5000, 0.5)
        val = T.throughput_closed(LINK, frame)
        assert math.isfinite(val)
        assert abs(val - T.throughput_asymptotic(1.0, 0.5, 0.5)) < 1e-3


def closed_math_oracle(mu1, mu2, n, tau):
    """The closed form one point at a time in math-module floats, as it
    was computed before the kernel went to numpy.  Returns the rate and
    the largest magnitude among the terms it adds up."""
    if tau == 0.0:
        rate = math.log2(1.0 + mu1 + mu2)
        return rate, abs(rate)
    s0 = 1.0 / mu1 + 1.0 / mu2 + 1.0 / (mu1 * mu2)
    g = 2.0 * tau * (1.0 - tau)
    gap = math.sqrt(s0 * (s0 + 2.0 * g))
    r1 = 0.5 * ((s0 + g) + gap)
    r2 = (tau * (1.0 - tau)) ** 2 / r1
    qn = (r2 / r1) ** n
    corr = math.log2((r1 - r2 * qn + tau * tau * (1.0 - qn)) / gap)
    logs = (math.log2(mu1), math.log2(mu2), math.log2(r1))
    rate = (n * (logs[0] + logs[1] + logs[2]) + corr) / (n + tau)
    return rate, max(abs(v) for v in (*logs, corr, rate))


# one gain pair per extreme class whose closed form is not finite on the
# tau grid; a single gain at 1e300 with an ordinary partner stays finite
NON_FINITE_GAINS = [(1e-300, 0.7), (3.0, 1e-300), (1e-300, 1e-300),
                    (1e300, 1e300), (1e-300, 1e300), (1e300, 1e-300)]


class TestClosedKernel:
    def test_within_4_ulp_of_math_oracle(self):
        # numpy's log2 and pow may round differently from libm's in the
        # last place; where the logs cancel, an ulp of the largest term is
        # many ulps of the result, so that term sets the yardstick
        rng = np.random.default_rng(11)
        size = 20000
        mu1 = 10.0 ** rng.uniform(-2.0, 2.0, size)
        mu2 = 10.0 ** rng.uniform(-2.0, 2.0, size)
        n = rng.integers(1, 3000, size)
        tau = rng.uniform(0.0, 1.0, size)
        tau[::50] = 0.0
        got = T.closed_rate(mu1, mu2, n, tau)
        want = [closed_math_oracle(*p) for p in
                zip(mu1.tolist(), mu2.tolist(), n.tolist(), tau.tolist())]
        rate = np.array([w[0] for w in want])
        scale = np.array([w[1] for w in want])
        assert np.all(np.abs(got - rate) <= 4.0 * np.spacing(scale))

    def test_tau0_exact_inside_a_batch(self):
        mu = np.array([1e-300, 0.1, 1.0, 10.0, 1e300])
        n = np.array([1, 2, 1000])
        got = T.closed_rate(mu[:, None, None], mu[None, :, None], n, 0.0)
        for i, a in enumerate(mu):
            for j, b in enumerate(mu):
                noma = T.throughput_noma(a, b)
                assert np.all(got[i, j] == noma)
                assert T.throughput_asymptotic(a, b, 0.0) == noma
        asym = T.throughput_asymptotic(mu[:, None], mu[None, :], 0.0)
        assert np.array_equal(asym, got[:, :, 0])

    def test_batch_equals_one_point_calls(self):
        rng = np.random.default_rng(3)
        mu1 = 10.0 ** rng.uniform(-2.0, 2.0, 300)
        mu2 = 10.0 ** rng.uniform(-2.0, 2.0, 300)
        n = rng.integers(1, 500, 300)
        tau = rng.uniform(0.0, 1.0, 300)
        got = T.closed_rate(mu1, mu2, n, tau)
        asym = T.throughput_asymptotic(mu1, mu2, tau)
        for i in range(300):
            link = M.LinkConfig.from_gains(float(mu1[i]), float(mu2[i]))
            frame = M.FrameConfig(int(n[i]), float(tau[i]))
            assert got[i] == T.throughput_closed(link, frame)
            assert asym[i] == T.throughput_asymptotic(float(mu1[i]), float(mu2[i]),
                                                      float(tau[i]))

    def test_broadcast_shape_and_one_point_type(self):
        got = T.closed_rate(np.ones((3, 1, 1)), np.ones((1, 4, 1)),
                            np.array([1, 5]), 0.25)
        assert got.shape == (3, 4, 2)
        assert isinstance(T.throughput_closed(LINK, M.FrameConfig(3, 0.2)), float)
        assert isinstance(T.throughput_asymptotic(1.0, 0.5, 0.2), float)

    @pytest.mark.parametrize("mu1,mu2", NON_FINITE_GAINS)
    def test_non_finite_gains_raise_by_name(self, mu1, mu2):
        link = M.LinkConfig.from_gains(mu1, mu2)
        for n, tau in ((1, 0.001), (10, 0.5), (1000, 0.5)):
            with pytest.raises(M.DomainError) as info:
                T.throughput_closed(link, M.FrameConfig(n, tau))
            assert (f"closed-form rate is not finite at mu1={mu1!r}, "
                    f"mu2={mu2!r}, n={n}, tau={tau!r}") == str(info.value)

    def test_batch_names_first_non_finite_point(self):
        mu1 = np.array([1.0, 2.0, 1e-300])
        with pytest.raises(M.DomainError,
                           match=r"at mu1=1e-300, mu2=0.5, n=7, tau=0.25$"):
            T.closed_rate(mu1[:, None], 0.5, 7, np.array([0.0, 0.25]))

    @pytest.mark.parametrize("mu1,mu2", [(1e300, 1.0), (0.01, 1e300)])
    def test_one_huge_gain_stays_finite(self, mu1, mu2):
        link = M.LinkConfig.from_gains(mu1, mu2)
        for n, tau in ((1, 0.001), (10, 0.5), (1000, 0.5)):
            assert math.isfinite(T.throughput_closed(link, M.FrameConfig(n, tau)))

    def test_asymptote_non_finite_is_named(self):
        # s = 1 + mu1 + mu2 itself overflows
        with pytest.raises(M.DomainError,
                           match=r"asymptotic rate is not finite at mu1=1e\+308"):
            T.throughput_asymptotic(1e308, 1e308, 0.5)
        with pytest.raises(M.DomainError, match=r"got 1.5"):
            T.throughput_asymptotic(1.0, 1.0, np.array([0.5, 1.5]))

    @pytest.mark.parametrize("tau", [1.0, np.array([0.5, 1.0])])
    def test_asymptote_refuses_tau_one(self, tau):
        # tau = 1 is the synchronous frame shifted by a whole symbol
        with pytest.raises(M.DomainError,
                           match=re.escape("tau must lie in [0, 1), got 1.0")):
            T.throughput_asymptotic(1.0, 1.0, tau)


def closed_rate_plain(mu1, mu2, n, tau):
    """closed_rate as written before the underflow shortcut: the plain
    (r2 / r1) ** n at every point, with numpy's own int-to-float casts."""
    mu1, mu2, tau = (np.asarray(v, dtype=float)[()] for v in (mu1, mu2, tau))
    n = np.asarray(n)[()]
    with np.errstate(all="ignore"):
        r1, r2, gap = T._char_roots(mu1, mu2, tau)
        qn = (r2 / r1) ** n
        corr = np.log2((r1 - r2 * qn + tau * tau * (1.0 - qn)) / gap)
        lead = n * (np.log2(mu1) + np.log2(mu2) + np.log2(r1))
        return np.where(tau == 0.0, T._sync_rate(mu1, mu2),
                        (lead + corr) / (n + tau))


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def crossing_grid(mu1, mu2):
    """(n, tau) pairs, flat, with n log2(r2 / r1) spread over
    [-1200, -1000]: across the cut at -1100 and across the subnormals
    that pow's results pass through on the way to 0."""
    taus = np.linspace(0.05, 0.95, 61)
    with np.errstate(all="ignore"):
        r1, r2, _ = T._char_roots(np.float64(mu1), np.float64(mu2), taus)
    log2q = np.log2(r2 / r1)
    targets = np.linspace(-1200.0, -1000.0, 41)
    n = np.rint(targets[:, None] / log2q[None, :]).astype(int)
    tau = np.broadcast_to(taus, n.shape)
    keep = n >= 1
    return n[keep], tau[keep]


class TestPowerShortcut:
    @pytest.mark.parametrize("mu1,mu2", [(1.0, 0.5), (0.02, 30.0), (80.0, 60.0)])
    def test_power_is_pow_bit_for_bit_across_the_cut(self, mu1, mu2):
        n, tau = crossing_grid(mu1, mu2)
        assert len(n) >= T._CUT_POINTS
        with np.errstate(all="ignore"):
            r1, r2, _ = T._char_roots(np.float64(mu1), np.float64(mu2), tau)
            q = r2 / r1
            want = q ** n
            got = T._power(q, n.astype(float))
        log2qn = n * np.log2(q)
        # the grid reaches both sides of the cut, and pow's subnormals
        assert log2qn.min() < -1150.0 and log2qn.max() > -1050.0
        assert np.any((want > 0.0) & (want < np.finfo(float).tiny))
        assert same_bits(got, want)

    def test_power_keeps_nan_zero_q_and_n_up_to_zero(self):
        rng = np.random.default_rng(5)
        q = rng.choice([np.nan, 0.0, 1e-300, 0.25, 0.5, 1.0], 600)
        n = rng.choice([-3, 0, 1, 2, 1000, 100_000], 600)
        with np.errstate(all="ignore"):
            assert same_bits(T._power(q, n.astype(float)), q ** n)

    @pytest.mark.parametrize("mu1,mu2", [(1.0, 0.5), (0.02, 30.0), (80.0, 60.0)])
    def test_rate_is_plain_formula_bit_for_bit_across_the_cut(self, mu1, mu2):
        n, tau = crossing_grid(mu1, mu2)
        assert same_bits(T.closed_rate(mu1, mu2, n, tau),
                         closed_rate_plain(mu1, mu2, n, tau))
        # below the cut's minimum size, and as the tau scan lays it out
        assert same_bits(T.closed_rate(mu1, mu2, n[:9], tau[:9]),
                         closed_rate_plain(mu1, mu2, n[:9], tau[:9]))
        col, row = np.unique(n)[::7, None], np.unique(tau)
        assert same_bits(T.closed_rate(mu1, mu2, col, row),
                         closed_rate_plain(mu1, mu2, col, row))

    @pytest.mark.parametrize("n", [1, 100_000])
    def test_tau0_and_extreme_frames_bit_for_bit(self, n):
        mu = 10.0 ** np.linspace(-2.0, 2.0, 9)
        tau = np.concatenate(([0.0], np.linspace(1e-3, 0.999, 40)))
        ns = np.array([n])
        for args in ((mu[:, None], mu[None, :, None], ns[:, None], tau),
                     (mu[:, None], mu[None, :], n, 0.0),
                     (mu, mu[::-1], ns, tau[:9])):
            assert same_bits(T.closed_rate(*args), closed_rate_plain(*args))
        for a, b, t in ((1.0, 0.5, 0.0), (1.0, 0.5, 0.3), (30.0, 0.02, 0.7)):
            assert same_bits(T.closed_rate(a, b, n, t), closed_rate_plain(a, b, n, t))

    @pytest.mark.parametrize("mu1,mu2", [(1e-300, 0.7), (3.0, 1e-300),
                                         (1e300, 1e300), (1e-300, 1e300)])
    def test_extreme_gains_raise_the_same_text(self, mu1, mu2):
        ns = np.array([10, 200, 1000])
        taus = np.arange(0.0, 1.0, 1e-3)
        want = closed_rate_plain(mu1, mu2, ns[:, None], taus)
        row, col = np.unravel_index(np.argmax(~np.isfinite(want)), want.shape)
        assert ns[row] == 10
        text = (f"closed-form rate is not finite at mu1={mu1!r}, mu2={mu2!r}, "
                f"n=10, tau={float(taus[col])!r}")
        with pytest.raises(M.DomainError) as info:
            T.closed_rate(mu1, mu2, ns[:, None], taus)
        assert str(info.value) == text


class TestCharRoots:
    def test_tau0_collapses_root(self):
        assert char_roots(1.0, 0.5, 0.0) == (5.0, 0.0)

    def test_quadratic_oracle(self):
        # x^2 - 3.5 x + 0.0625 = 0
        big, small = np.sort(np.roots([1.0, -3.5, 0.0625]))[::-1]
        r1, r2 = char_roots(1.0, 1.0, 0.5)
        assert math.isclose(r1, big, rel_tol=1e-12)
        assert math.isclose(r2, small, rel_tol=1e-12)


class TestRecursion:
    def test_d2_values(self):
        assert within_log2(T.determinant_recursion_log2(1.0, 0.5, 0.5, 1),
                           math.log2(5.75), rel_tol=1e-14)
        assert T.determinant_recursion_log2(1.0, 1.0, 0.5, 1) == math.log2(3.75)

    def test_d2_equals_root_sum_plus_tau_sq(self):
        r1, r2 = char_roots(1.0, 1.0, 0.5)
        assert math.isclose(r1 + r2 + 0.25, 3.75, rel_tol=1e-14)

    def test_leaving_the_positive_cone_names_the_point(self):
        message = ("determinant recursion left the positive cone at "
                   "mu1=1e+300, mu2=1e+300, n=1, tau=1e-300")
        with pytest.raises(M.DomainError, match=re.escape(message)):
            T.throughput_recursion(M.LinkConfig(1e300, 1e300),
                                   M.FrameConfig(1, 1e-300))

    def test_matches_dense_lu(self):
        r = M.build_correlation(M.FrameConfig(3, 0.3)).to_dense()
        dinv = np.diag([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
        ref = np.linalg.det(dinv + r)
        assert within_log2(T.determinant_recursion_log2(1.0, 0.5, 0.3, 3),
                           math.log2(ref), rel_tol=1e-10)

    def test_huge_frame_stays_finite_in_log_form(self):
        ld = T.determinant_recursion_log2(1.0, 0.5, 0.5, 2000)
        assert math.isfinite(ld)
        assert ld > 4000  # ~ N log2 r1 with r1 ~ 5.49

    def test_tiny_determinant_underflow_guard(self):
        # high SNR drives r1 below 1: the plain product underflows float64
        ld = T.determinant_recursion_log2(1e8, 1e8, 0.5, 2000)
        assert math.isfinite(ld)
        assert ld < -3000

    @pytest.mark.parametrize("mu1,mu2,tau,n", [
        (Fraction(1), Fraction(1, 2), Fraction(1, 2), 1),
        (Fraction(1), Fraction(1, 2), Fraction(3, 10), 3),
        (Fraction(1, 10), Fraction(10), Fraction(9, 10), 4),
        (Fraction(2), Fraction(3), Fraction(1, 4), 5),
    ])
    def test_exact_rational_oracle(self, mu1, mu2, tau, n):
        exact = exact_rational_det(mu1, mu2, tau, n)
        got = T.determinant_recursion_log2(float(mu1), float(mu2), float(tau), n)
        assert within_log2(got, math.log2(float(exact)), rel_tol=1e-13)

    # one step multiplies the rolling pair by 1 + 1/mu; below about 1e-154
    # that left a fixed 2^512 rescaling window and the recursion gave NaN
    TINY_GAINS = [(1e-200, 1.0), (1e-300, 1.0), (1.0, 1e-200), (1.0, 1e-300),
                  (1e-200, 1e-200), (1e-300, 1e-300)]

    @pytest.mark.parametrize("mu1,mu2", TINY_GAINS + [(1e-300, 1e300)])
    @pytest.mark.parametrize("n,tau", [(10, 0.5), (1, 0.3), (300, 0.13),
                                       (2000, 0.77)])
    def test_tiny_gains_match_logdet_route(self, mu1, mu2, n, tau):
        link, frame = M.LinkConfig.from_gains(mu1, mu2), M.FrameConfig(n, tau)
        got = T.throughput_recursion(link, frame)
        assert math.isfinite(got)
        # both routes add n (log2 mu1 + log2 mu2) to a log-det of about
        # the opposite sign, each rounded to a few ulps of that size;
        # divided by n + tau that leaves a few eps * |log2 mu| summed
        scale = abs(math.log2(mu1)) + abs(math.log2(mu2))
        assert abs(got - T.throughput_matrix(link, frame)) <= 8e-16 * scale

    @pytest.mark.parametrize("mu1,mu2", [(1e-320, 1.0), (1.0, 1e-320)])
    def test_overflowing_reciprocal_raises(self, mu1, mu2):
        with pytest.raises(M.DomainError, match="finite 1/mu1 and 1/mu2"):
            T.determinant_recursion_log2(mu1, mu2, 0.5, 3)

    @pytest.mark.parametrize("bad", ["x", None, [1.0, 2.0], np.array([])])
    @pytest.mark.parametrize("key", ["mu1", "mu2"])
    def test_non_number_gain_is_named(self, key, bad):
        gains = {"mu1": 1.0, "mu2": 1.0, key: bad}
        with pytest.raises(M.DomainError, match=f"^{key} must be a number"):
            T.determinant_recursion_log2(gains["mu1"], gains["mu2"], 0.5, 3)

    @pytest.mark.parametrize("mu1,mu2", TINY_GAINS)
    @pytest.mark.parametrize("n,tau", [(1, 0.5), (3, 0.3)])
    def test_tiny_gains_match_exact_rational_det(self, mu1, mu2, n, tau):
        exact = exact_rational_det(Fraction(mu1), Fraction(mu2), Fraction(tau), n)
        ref = math.log2(exact.numerator) - math.log2(exact.denominator)
        got = T.determinant_recursion_log2(mu1, mu2, tau, n)
        assert math.isclose(got, ref, rel_tol=1e-14)

    @pytest.mark.parametrize("tau,n,message", [
        (math.nan, 3, "tau must lie in [0, 1), got nan"),
        (5.0, 3, "tau must lie in [0, 1), got 5.0"),
        (-0.1, 3, "tau must lie in [0, 1), got -0.1"),
        (0.5, 1.5, "frame length n must be an int"),
        (0.5, "3", "frame length n must be an int"),
        (0.5, 0, "frame length n must be an int"),
        (0.5, True, "frame length n must be an int"),
    ])
    def test_frame_is_checked_as_frame_config_checks_it(self, tau, n, message):
        with pytest.raises(M.DomainError, match=re.escape(message)):
            T.determinant_recursion_log2(1.0, 1.0, tau, n)


def asymptotic_mp(mu1, mu2, tau):
    """The expanded limit of throughput_asymptotic at 60 digits."""
    with mpmath.workdps(60):
        s = 1 + mpmath.mpf(mu1) + mpmath.mpf(mu2)
        mg = mpmath.mpf(mu1) * mpmath.mpf(mu2) * 2 * mpmath.mpf(tau) * (1 - mpmath.mpf(tau))
        return float(mpmath.log((s + mg) / 2 + mpmath.sqrt(s * s + 2 * s * mg) / 2, 2))


class TestAsymptotic:
    @pytest.mark.parametrize("mu1,mu2,tau", [
        (1e154, 1.0, 0.5), (1e300, 1e300, 0.5), (1e-300, 1e300, 0.9),
        (1e200, 1e-5, 0.4), (1.3e154, 1.3e154, 0.01)])
    def test_finite_where_the_expanded_form_overflows(self, mu1, mu2, tau):
        got = T.throughput_asymptotic(mu1, mu2, tau)
        assert math.isclose(got, asymptotic_mp(mu1, mu2, tau), rel_tol=1e-15)
        # a batch takes the scaled form at its overflowing points alone
        batch = T.throughput_asymptotic(np.array([mu1, 1.0]), np.array([mu2, 0.5]), tau)
        assert batch[0] == got
        assert batch[1] == T.throughput_asymptotic(1.0, 0.5, tau)

    def test_hand_value(self):
        # s = 2.5, m g = 0.25: (2.75 + sqrt(7.5)) / 2
        expect = math.log2((2.75 + math.sqrt(7.5)) / 2.0)
        assert T.throughput_asymptotic(1.0, 0.5, 0.5) == pytest.approx(expect, rel=1e-15)

    def test_tau0_equals_noma(self):
        assert T.throughput_asymptotic(1.0, 0.5, 0.0) == T.throughput_noma(1.0, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 50.0), st.floats(0.05, 50.0), st.floats(0.001, 0.999))
    def test_tau_symmetry(self, mu1, mu2, tau):
        a = T.throughput_asymptotic(mu1, mu2, tau)
        b = T.throughput_asymptotic(mu1, mu2, 1.0 - tau)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_depends_on_tau_only_through_product(self):
        assert math.isclose(T.throughput_asymptotic(1.0, 0.5, 0.3),
                            T.throughput_asymptotic(1.0, 0.5, 0.7),
                            rel_tol=1e-12)


class TestBaselines:
    def test_noma_values(self):
        assert T.throughput_noma(1.0, 0.5) == math.log2(2.5)
        assert T.throughput_noma(0.0, 0.0) == 0.0
        assert T.throughput_noma(10.0, 10.0) == math.log2(21.0)

    def test_oma_values(self):
        assert T.throughput_oma(1.0, 0.5) == pytest.approx(
            0.5 + 0.5 * math.log2(1.5), rel=1e-15)
        assert T.throughput_oma(0.0, 0.0) == 0.0
        assert T.throughput_oma(3.0, 3.0) == pytest.approx(math.log2(4.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("fn", [T.throughput_noma, T.throughput_oma])
    def test_baselines_refuse_non_finite_or_negative_gain(self, fn, bad):
        for mu1, mu2 in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(M.DomainError, match="needs finite mu1, mu2 >= 0"):
                fn(mu1, mu2)

    @pytest.mark.parametrize("bad", [True, "1", None, [1.0]])
    @pytest.mark.parametrize("fn", [T.throughput_noma, T.throughput_oma])
    def test_baselines_refuse_a_gain_that_is_no_number(self, fn, bad):
        for name, (mu1, mu2) in (("mu1", (bad, 1.0)), ("mu2", (1.0, bad))):
            with pytest.raises(M.DomainError,
                               match=re.escape(f"{name} must be a number, got {bad!r}")):
                fn(mu1, mu2)


class TestNormalizationVariants:
    @pytest.mark.parametrize("tau,n", [(0.5, 10), (0.3, 4), (0.0, 7)])
    def test_shared_numerator_identities(self, tau, n):
        frame = M.FrameConfig(n, tau)
        rm = T.throughput_matrix(LINK, frame)
        rp1 = T.throughput_report(LINK, frame).anoma_n_plus_1
        assert math.isclose(rp1, (n + tau) / (n + 1) * rm, rel_tol=1e-14)

    def test_spec_point(self):
        frame = M.FrameConfig(10, 0.5)
        assert math.isclose(T.throughput_report(LINK, frame).anoma_n_plus_1,
                            (10.5 / 11.0) * T.throughput_matrix(LINK, frame),
                            rel_tol=1e-14)


class TestReport:
    def test_routes_agree_and_nonnegative(self):
        rep = T.throughput_report(LINK, M.FrameConfig(10, 0.5))
        assert math.isclose(rep.anoma_matrix, rep.anoma_closed, rel_tol=1e-12)
        assert math.isclose(rep.anoma_matrix, rep.anoma_recursion, rel_tol=1e-12)
        vals = [rep.anoma_matrix, rep.anoma_closed, rep.anoma_recursion,
                rep.anoma_n_plus_1, rep.noma, rep.oma, rep.asymptotic]
        assert all(v >= 0.0 for v in vals)

    def test_convergence_toward_asymptote(self):
        gaps = [abs(T.throughput_closed(LINK, M.FrameConfig(n, 0.5))
                    - T.throughput_asymptotic(1.0, 0.5, 0.5))
                for n in (10, 100, 1000, 2000)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3
