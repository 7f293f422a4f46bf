"""Design searches: best mismatch and full-power verification."""

import math
import re

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
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_TOL = 1e-6


def golden_max_oracle(f, lo, hi, tol):
    """One-row golden-section search, step for step as the search ran
    before it was batched."""
    a, b = lo, hi
    c = b - (b - a) * INV_PHI
    d = a + (b - a) * INV_PHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * INV_PHI
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimal_tau_oracle(mu1, mu2, n, res):
    """The search one point at a time: a grid scan, first maximum wins,
    then a golden pass one cell around it, kept only if it is higher."""
    def f(tau):
        return closed_rate(mu1, mu2, n, float(tau))

    taus = np.arange(0.0, 1.0, res)
    values = [f(t) for t in taus]
    best = int(np.argmax(values))
    tau_star, achieved = float(taus[best]), values[best]
    lo = max(0.0, tau_star - res)
    hi = min(1.0 - REFINE_TOL, tau_star + res)
    if hi > lo:
        x, fx = golden_max_oracle(f, lo, hi, REFINE_TOL)
        if fx > achieved:
            tau_star, achieved = x, fx
    return tau_star, achieved


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
        # the golden pass for n = 20, step by step as the oracle makes
        # it; its sixth point is off the grid, inside the bracket
        mu1, mu2, n, res = LINK.mu1, LINK.mu2, 20, 1e-3
        taus = np.arange(0.0, 1.0, res)
        grid_star = float(taus[np.argmax(closed_rate(mu1, mu2, n, taus))])
        lo, hi = grid_star - res, grid_star + res
        asked = []

        def record(tau):
            asked.append(tau)
            return closed_rate(mu1, mu2, n, tau)

        golden_max_oracle(record, lo, hi, REFINE_TOL)
        bad_tau = asked[5]
        assert lo < bad_tau < hi and bad_tau not in taus

        def nan_at_one_point(mu1, mu2, n_arr, tau):
            # raises as closed_rate does at a point whose rate is not finite
            rate = closed_rate(mu1, mu2, n_arr, tau)
            hit = np.broadcast_to((n_arr == n) & (tau == bad_tau), rate.shape)
            rate = np.where(hit, np.nan, rate)
            T._require_finite(rate, "closed-form rate", mu1=mu1, mu2=mu2,
                              n=n_arr, tau=tau)
            return rate

        monkeypatch.setattr(D, "_closed_rate", nan_at_one_point)
        with pytest.raises(M.DomainError) as info:
            D.optimal_tau(LINK, N_LADDER)
        assert str(info.value).endswith(f"n={n}, tau={bad_tau!r}")

    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("how", ["nan", "raise"])
    def test_bad_point_off_the_taken_branches_is_never_seen(self, monkeypatch,
                                                           depth, how):
        # a point of the lookahead tree that the one-step search never
        # asks for may be non-finite (the walk never reads it), or make
        # closed_rate raise (the round is replayed one step per call):
        # nothing changes
        mu1, mu2, n, res = LINK.mu1, LINK.mu2, 20, 1e-3
        monkeypatch.setattr(D, "_LOOKAHEAD", depth)
        want = D.optimal_tau(LINK, N_LADDER)
        taus = np.arange(0.0, 1.0, res)
        grid_star = float(taus[np.argmax(closed_rate(mu1, mu2, n, taus))])
        asked = []
        golden_max_oracle(lambda t: asked.append(t) or closed_rate(mu1, mu2, n, t),
                          grid_star - res, grid_star + res, REFINE_TOL)
        seen = []

        def spy(mu1, mu2, n_arr, tau):
            n_at, tau_at = np.broadcast_arrays(n_arr, tau)
            seen.extend(tau_at[n_at == n].tolist())
            return closed_rate(mu1, mu2, n_arr, tau)

        monkeypatch.setattr(D, "_closed_rate", spy)
        D.optimal_tau(LINK, N_LADDER)
        unread = sorted(set(seen) - set(asked) - set(taus.tolist()))
        assert unread
        bad_tau = unread[len(unread) // 2]

        def bad_at_one_point(mu1, mu2, n_arr, tau):
            rate = closed_rate(mu1, mu2, n_arr, tau)
            hit = np.broadcast_to((n_arr == n) & (tau == bad_tau), rate.shape)
            if how == "raise" and hit.any():
                raise M.DomainError("closed-form rate is not finite")
            return np.where(hit, np.nan, rate)

        monkeypatch.setattr(D, "_closed_rate", bad_at_one_point)
        got = D.optimal_tau(LINK, N_LADDER)
        assert np.array_equal(got, want)

    def test_default_ladder_takes_few_objective_calls(self, monkeypatch):
        # one scan call, the two first interior points, four rounds of
        # four golden steps and the midpoints: 7, where one call per
        # step took 19
        calls = []

        def spy(*args):
            calls.append(args)
            return closed_rate(*args)

        monkeypatch.setattr(D, "_closed_rate", spy)
        for mu1, mu2 in DEFAULT_SPEC["gains"]:
            calls.clear()
            D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2), N_LADDER)
            assert len(calls) <= 8

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.lists(st.integers(1, 2000), min_size=1, max_size=6),
           st.sampled_from([1e-3, 5e-3, 1e-2]), st.integers(1, 6))
    def test_every_depth_equals_one_point_oracle(self, log_mu1, log_mu2,
                                                 n_values, res, depth):
        mu1, mu2 = 10.0 ** log_mu1, 10.0 ** log_mu2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_LOOKAHEAD", depth)
            got = D.optimal_tau(M.LinkConfig.from_gains(mu1, mu2),
                                np.array(n_values), grid_resolution=res)
        rates = closed_rate(mu1, mu2, np.array(n_values), got)
        for i, n in enumerate(n_values):
            tau_star, achieved = optimal_tau_oracle(mu1, mu2, n, res)
            assert got[i] == tau_star
            assert rates[i] == achieved

    @pytest.mark.parametrize("entries", [1, 7, 333])
    def test_blocked_scan_equals_one_block(self, monkeypatch, entries):
        whole = D.optimal_tau(LINK, N_LADDER)
        monkeypatch.setattr(D, "_GRID_ENTRIES", entries)
        blocked = D.optimal_tau(LINK, N_LADDER)
        assert np.array_equal(blocked, whole)

    @pytest.mark.parametrize("entries", [1, 7, 1 << 16])
    def test_plateau_keeps_the_smallest_tau(self, monkeypatch, entries):
        def flat(mu1, mu2, n, tau):
            return np.ones(np.broadcast_shapes(np.shape(n), np.shape(tau)))

        monkeypatch.setattr(D, "_closed_rate", flat)
        monkeypatch.setattr(D, "_GRID_ENTRIES", entries)
        assert np.all(D.optimal_tau(LINK, N_LADDER) == 0.0)

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


class TestLockstepGolden:
    # brackets as the search builds them, two clipped at 0 and two at
    # 1 - 1e-6, plus an empty-width one that never opens
    LO = np.array([0.0, 0.0, 0.399, 0.123, 0.998, 0.9989, 0.5])
    HI = np.array([0.002, 0.001, 0.401, 0.125, 1.0 - 1e-6, 1.0 - 1e-6, 0.5])

    @pytest.mark.parametrize("shape", ["closed", "rising", "falling", "flat"])
    def test_rows_follow_the_one_row_search(self, shape):
        ns = np.array([1, 3, 20, 500, 2, 1000, 7])
        mu1, mu2 = 1.3, 0.4

        def one(i, tau):
            if shape == "closed":
                return closed_rate(mu1, mu2, ns[i], tau)
            return {"rising": tau, "falling": -tau, "flat": 0.0}[shape]

        def rows(idx, tau):
            if shape == "closed":
                return closed_rate(mu1, mu2, ns[idx], tau)
            return {"rising": tau.copy(), "falling": -tau,
                    "flat": np.zeros_like(tau)}[shape]

        x, fx = D._golden_max(rows, self.LO, self.HI, REFINE_TOL)
        for i in range(len(ns)):
            want = golden_max_oracle(lambda t: one(i, t), self.LO[i],
                                     self.HI[i], REFINE_TOL)
            assert (x[i], fx[i]) == want


    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shape", ["closed", "rising", "falling", "flat"])
    def test_every_lookahead_depth_follows_the_one_row_search(
            self, monkeypatch, shape, depth):
        monkeypatch.setattr(D, "_LOOKAHEAD", depth)
        self.test_rows_follow_the_one_row_search(shape)


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

    def test_bracket_exactly_tol_wide_stays_closed(self):
        lo, hi = np.array([0.25, 0.0]), np.array([0.5, 0.75])

        def f(tau):
            return -abs(tau - 0.3)

        x, fx = D._golden_max(lambda rows, tau: -np.abs(tau - 0.3), lo, hi, 0.25)
        for i in range(2):
            assert (x[i], fx[i]) == golden_max_oracle(f, lo[i], hi[i], 0.25)
        assert x[0] == 0.375
