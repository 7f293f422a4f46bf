"""Design searches: best mismatch and full-power verification."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anoma import cli
from anoma import design as D
from anoma import model as M
from anoma import throughput as T
from anoma.throughput import closed_rate, throughput_asymptotic, throughput_closed

LINK = M.LinkConfig.from_gains(1.0, 0.5)
DEFAULT_SPEC = cli.FIGURES["tau_star_vs_n"][1]
N_LADDER = np.array(DEFAULT_SPEC["n_values"])
REFINE_TOL = 1e-6
ZOOM_STEPS = 32


def optimal_tau_oracle(mu1, mu2, n, res, f=None):
    """The search one point at a time: a grid scan, first maximum wins,
    then rounds of 33-point rescans across a shrinking bracket, first
    one cell either side of the winner, then one spacing either side,
    a point kept only if it is higher; the last round is over a bracket
    at most REFINE_TOL wide.  f(tau) is the objective, closed_rate by
    default."""
    if f is None:
        def f(tau):
            return closed_rate(mu1, mu2, n, tau)

    taus = np.arange(0.0, 1.0, res)
    values = [f(float(t)) for t in taus]
    best = int(np.argmax(values))
    tau_star, achieved = float(taus[best]), values[best]
    lo = max(0.0, tau_star - res)
    hi = min(1.0 - REFINE_TOL, tau_star + res)
    while hi > lo:
        step = (hi - lo) / ZOOM_STEPS
        grid = [lo + step * i for i in range(ZOOM_STEPS + 1)]
        values = [f(t) for t in grid]
        best = int(np.argmax(values))
        if values[best] > achieved:
            tau_star, achieved = grid[best], values[best]
        if not hi - lo > REFINE_TOL:
            break
        lo, hi = max(lo, tau_star - step), min(hi, tau_star + step)
    return tau_star, achieved


def asked_points(n, res):
    """Every tau the one-point oracle asks for on LINK at frame length n,
    in order: the scan, then each zoom round's grid."""
    asked = []

    def record(tau):
        asked.append(tau)
        return closed_rate(LINK.mu1, LINK.mu2, n, tau)

    optimal_tau_oracle(LINK.mu1, LINK.mu2, n, res, record)
    return asked


def nan_at_one_point(n, bad_tau):
    """closed_rate, but with a rate that is not finite at frame length n
    and tau = bad_tau, raised as closed_rate raises it."""
    def rate_fn(mu1, mu2, n_arr, tau):
        rate = closed_rate(mu1, mu2, n_arr, tau)
        hit = np.broadcast_to((n_arr == n) & (tau == bad_tau), rate.shape)
        rate = np.where(hit, np.nan, rate)
        T._require_finite(rate, "closed-form rate", mu1=mu1, mu2=mu2,
                          n=n_arr, tau=tau)
        return rate

    return rate_fn


def mp_closed_rate(mu1, mu2, n, tau):
    """The closed form of throughput.closed_rate at mpmath's precision."""
    if tau == 0:
        return mpmath.log(1 + mu1 + mu2, 2)
    s0 = 1 / mu1 + 1 / mu2 + 1 / (mu1 * mu2)
    p = tau * (1 - tau)
    gap = mpmath.sqrt(s0 * (s0 + 4 * p))
    r1 = (s0 + 2 * p + gap) / 2
    r2 = p * p / r1
    qn = (r2 / r1) ** n
    corr = mpmath.log((r1 - r2 * qn + tau * tau * (1 - qn)) / gap, 2)
    return (n * mpmath.log(mu1 * mu2 * r1, 2) + corr) / (n + tau)


def mp_argmax(mu1, mu2, n, res=1e-3):
    """The 40-digit argmax of the closed form, to 1e-12, and a function
    giving the 40-digit rate at a float tau: a golden-section search one
    cell either side of the float grid's winner."""
    taus = np.arange(0.0, 1.0, res)
    winner = float(taus[np.argmax(closed_rate(mu1, mu2, n, taus))])
    with mpmath.workdps(40):
        m1, m2 = mpmath.mpf(mu1), mpmath.mpf(mu2)

        def rate(tau):
            with mpmath.workdps(40):
                return mp_closed_rate(m1, m2, n, mpmath.mpf(tau))

        shrink = (mpmath.sqrt(5) - 1) / 2
        a, b = mpmath.mpf(max(0.0, winner - res)), mpmath.mpf(winner + res)
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        fc, fd = rate(c), rate(d)
        while b - a > 1e-12:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - shrink * (b - a)
                fc = rate(c)
            else:
                a, c, fc = c, d, fd
                d = a + shrink * (b - a)
                fd = rate(d)
        return float((a + b) / 2), rate


def accuracy_links():
    """210 seeded links, gains log-uniform in [1e-3, 1e6], each with one
    frame length, 30 per length."""
    rng = np.random.default_rng(20240605)
    gains = 10.0 ** rng.uniform(-3.0, 6.0, size=(210, 2))
    ns = (1, 2, 3, 5, 10, 50, 1000)
    return [(float(a), float(b), ns[i % len(ns)]) for i, (a, b) in enumerate(gains)]


def _gain_pairs():
    rng = np.random.default_rng(20240605)
    ordinary = 10.0 ** rng.uniform(-2.0, 2.0, size=(20, 2))
    return ([tuple(g) for g in DEFAULT_SPEC["gains"]]
            + [(float(a), float(b)) for a, b in ordinary])


class TestOptimalTau:
    def test_deterministic(self):
        a = D.optimal_tau(LINK, 20)
        b = D.optimal_tau(LINK, 20)
        assert a == b

    def test_beats_every_grid_point(self):
        star = D.optimal_tau(LINK, 8, grid_resolution=5e-3)
        achieved = closed_rate(LINK.mu1, LINK.mu2, 8, star)
        for tau in np.arange(0.0, 1.0, 5e-3):
            assert achieved >= throughput_closed(LINK, M.FrameConfig(8, float(tau)))

    def test_single_symbol_frame_prefers_sync(self):
        star = D.optimal_tau(LINK, 1)
        assert star == 0.0
        assert star <= 0.1

    def test_long_frame_approaches_half(self):
        assert abs(D.optimal_tau(LINK, 1000) - 0.5) <= 0.01

    def test_grows_with_frame_length(self):
        stars = [D.optimal_tau(LINK, n) for n in (1, 2, 5, 10, 50, 200)]
        for a, b in zip(stars, stars[1:]):
            assert b >= a - 1e-3

    @pytest.mark.parametrize("mu1,mu2", _gain_pairs() + [(1e-2, 1e2), (1e2, 1e-2)])
    def test_asymptotic_rate_peaks_exactly_at_half(self, mu1, mu2):
        # the limit tau* tends to as n grows: on a grid holding 0.5
        # exactly, 0.5 is the one maximum
        taus = np.arange(1000) / 1000
        rate = throughput_asymptotic(mu1, mu2, taus)
        assert taus[np.argmax(rate)] == 0.5
        assert np.count_nonzero(rate == rate.max()) == 1

    def test_resolution_validated(self):
        with pytest.raises(M.DomainError):
            D.optimal_tau(LINK, 10, grid_resolution=0.05)
        with pytest.raises(M.DomainError):
            D.optimal_tau(LINK, 10, grid_resolution=0.0)
        # a tau grid numpy cannot index
        for res in (1e-300, 5e-324):
            with pytest.raises(M.DomainError, match=f"^grid_resolution {res} "):
                D.optimal_tau(LINK, 10, grid_resolution=res)

    @pytest.mark.parametrize("res", [None, "x", [1e-3], np.array([])])
    def test_non_number_resolution_is_named(self, res):
        with pytest.raises(M.DomainError, match="^grid_resolution must be a number"):
            D.optimal_tau(LINK, 10, grid_resolution=res)

    def test_link_must_be_a_link_config(self):
        with pytest.raises(M.DomainError, match=re.escape(
                "link must be a LinkConfig, got None")):
            D.optimal_tau(None, 10)

    def test_result_type(self):
        star = D.optimal_tau(LINK, 10, grid_resolution=1e-3)
        assert isinstance(star, float)
        assert 0.0 <= star < 1.0
        stars = D.optimal_tau(LINK, [10])
        assert isinstance(stars, np.ndarray)
        assert stars.tolist() == [star]


class TestBatchedSearch:
    @pytest.mark.parametrize("mu1,mu2", _gain_pairs())
    def test_ladder_equals_per_n_calls(self, mu1, mu2):
        link = M.LinkConfig.from_gains(mu1, mu2)
        batch = D.optimal_tau(link, N_LADDER)
        assert batch.shape == (10,)
        rates = closed_rate(mu1, mu2, N_LADDER, batch)
        for i, n in enumerate(N_LADDER):
            one = D.optimal_tau(link, int(n))
            assert batch[i] == one
            assert rates[i] == closed_rate(mu1, mu2, int(n), one)

    @pytest.mark.parametrize("mu1,mu2", [(1.0, 0.5), (0.02, 30.0), (80.0, 60.0)])
    def test_equals_one_point_oracle(self, mu1, mu2):
        n_values = np.array([1, 2, 3, 7, 40])
        got = D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2), n_values,
                            grid_resolution=5e-3)
        rates = closed_rate(mu1, mu2, n_values, got)
        for i, n in enumerate(n_values):
            tau_star, achieved = optimal_tau_oracle(mu1, mu2, int(n), 5e-3)
            assert got[i] == tau_star
            assert rates[i] == achieved

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.lists(st.integers(1, 2000), min_size=1, max_size=6),
           st.sampled_from([1e-3, 5e-3, 1e-2]))
    def test_equals_one_point_oracle_bit_for_bit(self, log_mu1, log_mu2,
                                                 n_values, res):
        mu1, mu2 = 10.0 ** log_mu1, 10.0 ** log_mu2
        got = D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2),
                             np.array(n_values), grid_resolution=res)
        rates = closed_rate(mu1, mu2, np.array(n_values), got)
        for i, n in enumerate(n_values):
            tau_star, achieved = optimal_tau_oracle(mu1, mu2, n, res)
            assert got[i] == tau_star
            assert rates[i] == achieved

    def test_nan_inside_the_refinement_is_named(self, monkeypatch):
        # the search for n = 20, point by point as the oracle makes it;
        # a point of the second zoom round is off the scan grid and off
        # the first round's grid, inside the first round's bracket
        mu1, mu2, n, res = LINK.mu1, LINK.mu2, 20, 1e-3
        taus = np.arange(0.0, 1.0, res)
        asked = asked_points(n, res)
        grid_star = float(taus[np.argmax(closed_rate(mu1, mu2, n, taus))])
        before = len(taus) + ZOOM_STEPS + 1  # the scan and the first round
        bad_tau = asked[before + 5]
        assert grid_star - res < bad_tau < grid_star + res
        assert bad_tau not in asked[:before]

        monkeypatch.setattr(D, "_closed_rate", nan_at_one_point(n, bad_tau))
        with pytest.raises(M.DomainError) as info:
            D.optimal_tau(LINK, N_LADDER)
        assert str(info.value).endswith(f"n={n}, tau={bad_tau!r}")

    @pytest.mark.parametrize("position", [1, 15, 31])
    @pytest.mark.parametrize("round_", [1, 2, 3, 4])
    def test_nan_in_every_zoom_round_is_named(self, monkeypatch, round_,
                                              position):
        # each of the four rounds the default search makes for n = 20
        # asks for every point of its grid: a non-finite rate at any
        # point first asked there is named, with its frame length (points
        # 0, 16 and 32 of a round's grid are points of the round before)
        n, res = 20, 1e-3
        asked = asked_points(n, res)
        before = len(np.arange(0.0, 1.0, res)) + (ZOOM_STEPS + 1) * (round_ - 1)
        assert len(asked) == before + (ZOOM_STEPS + 1) * (5 - round_)
        bad_tau = asked[before + position]
        assert bad_tau not in asked[:before]

        monkeypatch.setattr(D, "_closed_rate", nan_at_one_point(n, bad_tau))
        with pytest.raises(M.DomainError) as info:
            D.optimal_tau(LINK, N_LADDER)
        assert str(info.value).endswith(f"n={n}, tau={bad_tau!r}")

    def test_default_ladder_takes_few_objective_calls(self, monkeypatch):
        # one scan call and four zoom rounds: 5, where a golden-section
        # search making one call per step took 19
        calls = []

        def spy(*args):
            calls.append(args)
            return closed_rate(*args)

        monkeypatch.setattr(D, "_closed_rate", spy)
        for mu1, mu2 in DEFAULT_SPEC["gains"]:
            calls.clear()
            D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2), N_LADDER)
            assert len(calls) == 5

    @pytest.mark.parametrize("entries", [1, 7, 333])
    def test_blocked_scan_equals_one_block(self, monkeypatch, entries):
        whole = D.optimal_tau(LINK, N_LADDER)
        monkeypatch.setattr(D, "_GRID_ENTRIES", entries)
        blocked = D.optimal_tau(LINK, N_LADDER)
        assert np.array_equal(blocked, whole)

    def test_no_call_outgrows_the_block_bound(self, monkeypatch):
        ns = np.arange(1, 5001)
        sizes = []

        def spy(mu1, mu2, n, tau):
            sizes.append(np.broadcast(n, tau).size)
            return closed_rate(mu1, mu2, n, tau)

        monkeypatch.setattr(D, "_closed_rate", spy)
        D.optimal_tau(LINK, ns, grid_resolution=1e-2)
        assert max(sizes) <= max(D._GRID_ENTRIES, len(ns))

    @pytest.mark.parametrize("entries", [1, 7, 1 << 16])
    def test_plateau_keeps_the_smallest_tau(self, monkeypatch, entries):
        def flat(mu1, mu2, n, tau):
            return np.ones(np.broadcast_shapes(np.shape(n), np.shape(tau)))

        monkeypatch.setattr(D, "_closed_rate", flat)
        monkeypatch.setattr(D, "_GRID_ENTRIES", entries)
        assert np.all(D.optimal_tau(LINK, N_LADDER) == 0.0)

    @pytest.mark.parametrize("sign,want", [(1.0, 1.0 - REFINE_TOL), (-1.0, 0.0)])
    def test_zoom_stays_inside_the_tau_range(self, monkeypatch, sign, want):
        # a rising objective drives tau* to the top of [0, 1 - 1e-6], a
        # falling one to 0, and no round may step past either end
        def slope(mu1, mu2, n, tau):
            return sign * np.broadcast_to(tau, np.broadcast_shapes(np.shape(n),
                                                                   np.shape(tau)))

        monkeypatch.setattr(D, "_closed_rate", slope)
        assert np.all(D.optimal_tau(LINK, N_LADDER) == want)

    def test_bad_frame_lengths_rejected(self):
        with pytest.raises(M.DomainError):
            D.optimal_tau(LINK, np.array([[1, 2]]))
        with pytest.raises(M.DomainError):
            D.optimal_tau(LINK, np.array([4, 0]))
        # FrameConfig's rule for each entry: no truncation, no bools
        for bad in (10.5, True, "10", math.nan):
            for n in (bad, [bad], [4, bad], np.array([bad])):
                with pytest.raises(M.DomainError, match="frame length n"):
                    D.optimal_tau(LINK, n)
        # a string reads as one in the message
        with pytest.raises(M.DomainError, match="got '10'$"):
            D.optimal_tau(LINK, ["10"])

    @pytest.mark.parametrize("mu1,mu2", [
        (1e-300, 0.7), (3.0, 1e-300), (1e-300, 1e-300), (1e300, 1e300),
        (1e-300, 1e300), (1e300, 1e-300)])
    def test_non_finite_gains_raise_by_name(self, mu1, mu2):
        link = M.LinkConfig.from_gains(mu1, mu2)
        for n in (10, N_LADDER):
            with pytest.raises(M.DomainError,
                               match=r"mu1=.*, mu2=.*, n=\d+, tau="):
                D.optimal_tau(link, n)

    @pytest.mark.parametrize("mu1,mu2", [(1e300, 0.03), (50.0, 1e300)])
    def test_one_huge_gain_stays_finite(self, mu1, mu2):
        stars = D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2), N_LADDER)
        assert np.all(np.isfinite(closed_rate(mu1, mu2, N_LADDER, stars)))
        assert np.all((0.0 <= stars) & (stars < 1.0))


class TestFirstMax:
    # per-row brackets as the zoom builds them, two clipped at 0 and two
    # at 1 - 1e-6, plus a zero-width one, for seven frame lengths
    NS = np.array([1, 3, 20, 500, 2, 1000, 7])
    LO = np.array([0.0, 0.0, 0.399, 0.123, 0.998, 0.9989, 0.5])
    HI = np.array([0.002, 0.001, 0.401, 0.125, 1.0 - 1e-6, 1.0 - 1e-6, 0.5])
    MU1, MU2 = 1.3, 0.4

    def one(self, shape, i, tau):
        if shape == "closed":
            return closed_rate(self.MU1, self.MU2, int(self.NS[i]), float(tau))
        return {"rising": tau, "falling": -tau, "flat": 0.0}[shape]

    def rows(self, shape, idx, tau):
        tau = np.broadcast_to(tau, np.broadcast_shapes(idx.shape, tau.shape))
        if shape == "closed":
            return closed_rate(self.MU1, self.MU2, self.NS[idx], tau)
        return {"rising": tau.copy(), "falling": -tau,
                "flat": np.zeros_like(tau)}[shape]

    @pytest.mark.parametrize("entries", [1, 14, 33, 1 << 16])
    @pytest.mark.parametrize("shape", ["closed", "rising", "falling", "flat"])
    @pytest.mark.parametrize("layout", ["scan", "zoom"])
    def test_rows_follow_the_one_row_step(self, monkeypatch, layout, shape,
                                          entries):
        # the scan: one grid shared by all rows, nothing achieved yet; a
        # zoom round: a grid per row, from a tau* already achieved at the
        # bracket's middle, which only a strictly higher point replaces.
        # Blocks of 1, 2, 4 and all columns give the same step
        monkeypatch.setattr(D, "_GRID_ENTRIES", entries)
        rows = np.arange(len(self.NS))
        if layout == "scan":
            taus = np.arange(0.0, 1.0, 1e-2)[None, :]
            tau_star = np.zeros(len(rows))
            achieved = np.full(len(rows), -np.inf)
        else:
            step = (self.HI - self.LO) / ZOOM_STEPS
            taus = self.LO[:, None] + step[:, None] * np.arange(ZOOM_STEPS + 1)
            tau_star = (self.LO + self.HI) / 2
            achieved = np.array([self.one(shape, i, t)
                                 for i, t in enumerate(tau_star)], dtype=float)
        want_x, want_fx = tau_star.copy(), achieved.copy()
        for i in rows:
            grid = taus[0] if layout == "scan" else taus[i]
            values = [self.one(shape, i, t) for t in grid]
            best = int(np.argmax(values))
            if values[best] > want_fx[i]:
                want_x[i], want_fx[i] = grid[best], values[best]

        D._first_max(lambda idx, tau: self.rows(shape, idx, tau), rows, taus,
                     tau_star, achieved)
        assert np.array_equal(tau_star, want_x)
        assert np.array_equal(achieved, want_fx)


class TestAccuracy:
    # on accuracy_links' 110 nonzero tau*, the golden-section search the
    # zoom replaced (its last bracket 1e-6 wide) was off the 40-digit
    # argmax by a median of 1.20e-7 and at most 6.51e-7, and lost up to
    # 680 of the units below; the zoom reads 1.03e-8, 2.25e-6 and 1.67
    GOLDEN_MEDIAN = 1.20e-7

    def test_tau_star_matches_mpmath_argmax(self):
        errors, losses = [], []
        for mu1, mu2, n in accuracy_links():
            want, rate = mp_argmax(mu1, mu2, n)
            got = D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2), n)
            # the closed form adds log terms of up to about this size
            terms = 2.0 + abs(math.log2(mu1)) + abs(math.log2(mu2))
            losses.append(float(rate(want) - rate(got)) / (np.spacing(1.0) * terms))
            if want > 1e-10 or got > 0.0:
                errors.append(abs(got - want))
        assert len(errors) >= 100
        assert np.median(errors) <= self.GOLDEN_MEDIAN / 4
        # the largest errors sit on flat maxima (n = 1000, small gains),
        # where the closed form's rounding outweighs the fall of its true
        # value over several 1e-6 of tau: which point of that plateau a
        # search on values lands on is chance, for either search, but it
        # must lose no more rate than a few roundings
        assert max(losses) <= 4.0


class TestFullPower:
    def test_fig_config_monotone_with_ceiling_argmax(self):
        rep = D.verify_full_power(np.arange(0.1, 1.01, 0.1),
                                  np.arange(0.1, 1.01, 0.1),
                                  h1_sq=1.0, h2_sq=0.5,
                                  frame=M.FrameConfig(10, 0.5))
        assert not rep.violations
        assert rep.argmax == (1.0, 1.0)

    def test_tau0_also_monotone(self):
        rep = D.verify_full_power(np.linspace(0.2, 2.0, 6),
                                  np.linspace(0.2, 2.0, 6),
                                  h1_sq=1.0, h2_sq=1.0,
                                  frame=M.FrameConfig(4, 0.0))
        assert not rep.violations

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_monotone_across_tau_and_frame_lengths(self, tau, n):
        rep = D.verify_full_power(np.arange(0.2, 1.01, 0.2),
                                  np.arange(0.2, 1.01, 0.2),
                                  h1_sq=1.0, h2_sq=0.5,
                                  frame=M.FrameConfig(n, tau))
        assert not rep.violations
        assert rep.argmax == (1.0, 1.0)

    def test_single_axis_strictly_increasing(self):
        frame = M.FrameConfig(10, 0.5)
        vals = [throughput_closed(M.LinkConfig(p1=p, p2=0.7, h1=1.0, h2=1.0), frame)
                for p in np.linspace(0.05, 3.0, 25)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_grid_validation(self):
        frame = M.FrameConfig(4, 0.5)
        with pytest.raises(M.DomainError):
            D.verify_full_power([0.0, 0.5], [0.5, 1.0], 1.0, 1.0, frame)
        with pytest.raises(M.DomainError):
            D.verify_full_power([1.0, 0.5], [0.5, 1.0], 1.0, 1.0, frame)
        for p1, p2 in (([], [1.0]), ([1.0], []), ([], [])):
            with pytest.raises(M.DomainError, match="power grids must be non-empty"):
                D.verify_full_power(p1, p2, 1.0, 1.0, frame)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf,
                                     "x", None, [1.0, 2.0]])
    @pytest.mark.parametrize("key", ["h1_sq", "h2_sq"])
    def test_gain_validation(self, key, bad):
        gains = {"h1_sq": 1.0, "h2_sq": 0.5, key: bad}
        with pytest.raises(M.DomainError, match=f"^{key} must be "):
            D.verify_full_power([0.5, 1.0], [0.5, 1.0], frame=M.FrameConfig(4, 0.5),
                                **gains)

    @pytest.mark.parametrize("bad,message", [
        (1.0, "must be a 1-D grid, got shape ()"),
        ([[0.5, 1.0]], "must be a 1-D grid, got shape (1, 2)"),
        (["x"], "must be a number, got ['x']"),
        ([[0.5], [0.5, 1.0]], "must be a number, got [[0.5], [0.5, 1.0]]"),
    ])
    @pytest.mark.parametrize("key", ["p1_values", "p2_values"])
    def test_grid_must_be_a_1d_number_grid(self, key, bad, message):
        grids = {"p1_values": [0.5, 1.0], "p2_values": [0.5, 1.0], key: bad}
        with pytest.raises(M.DomainError, match=re.escape(f"{key} {message}")):
            D.verify_full_power(**grids, h1_sq=1.0, h2_sq=1.0,
                                frame=M.FrameConfig(4, 0.5))

    def test_frame_must_be_a_frame_config(self):
        with pytest.raises(M.DomainError, match=re.escape(
                "frame must be a FrameConfig, got None")):
            D.verify_full_power([0.5, 1.0], [0.5, 1.0], 1.0, 1.0, None)

    def test_throughput_grid_shape(self):
        rep = D.verify_full_power([0.5, 1.0], [0.25, 0.5, 1.0], 1.0, 1.0,
                                  M.FrameConfig(3, 0.25))
        assert rep.throughput.shape == (2, 3)
