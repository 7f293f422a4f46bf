"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
check.  The same checks back `anoma validate all`, and each line they
print, apart from the runtime lines, must equal its pin below.
"""

import pytest

from anoma import validate


# every line `anoma validate all` prints, except the two runtime lines;
# a change that moves a measured value updates its line here and says why
PINNED_LINES = (
    'routes.agreement_n_le_50 measured=1.06845e-14 tol=1e-09 verdict=PASS',
    'routes.agreement_n_2000 measured=1.07631e-14 tol=1e-06 verdict=PASS',
    'routes.noma_collapse measured=0 tol=0 verdict=PASS',
    'theorems.asymptote_gap_n2000 measured=0.000330399 tol=0.001 verdict=PASS',
    'theorems.asymptotic_gain_margin measured=0.00216161 tol=0 verdict=PASS (min over grid, must be > 0)',
    'theorems.tau0_equality measured=0 tol=0 verdict=PASS',
    'theorems.full_power_violations measured=0 tol=0 verdict=PASS',
    'theorems.full_power_argmax measured=0 tol=0 verdict=PASS (argmax=(1.0, 1.0))',
    'theorems.tau_star_n1000 measured=0.00139548 tol=0.01 verdict=PASS',
    'theorems.tau_star_n1 measured=0 tol=0.1 verdict=PASS',
    'theorems.tau_star_trend_slip measured=0 tol=0.001 verdict=PASS (largest decrease across the N ladder)',
    'timing.zero_error_identity measured=0 tol=0 verdict=PASS',
    'timing.linear_loss_rel_error measured=0.0301365 tol=0.1 verdict=PASS',
    'timing.slope_ratio_c1_c2 measured=2.5 tol=2.5 verdict=PASS (band [1.5, 2.5])',
    'timing.gamma_origin_is_minimum measured=0 tol=0 verdict=PASS (gamma(0,0)=0)',
    'timing.gamma_kink_jump_ratio measured=1.01902 tol=10 verdict=PASS',
    'schemes.ordering_anoma_noma_oma measured=0.0715645 tol=0 verdict=PASS (anoma=1.3935 noma=1.3219 oma=0.7925)',
    'waveform.model_equivalence measured=1.98603e-15 tol=1e-12 verdict=PASS',
    'waveform.noise_covariance_dev measured=0.00175057 tol=0.01 verdict=PASS (adjacency 0.4993~0.5, 0.4494~0.45)',
)
RUNTIME_CHECKS = ("routes.runtime_seconds", "waveform.noise_covariance_runtime")
PINNED = {line.split()[0]: line for line in PINNED_LINES}


def _assert_all(results):
    for r in results:
        print(r.line())
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "failed checks:\n" + "\n".join(failed)
    moved = [f"{r.line()}\n  pinned: {PINNED.get(r.name)}" for r in results
             if r.name not in RUNTIME_CHECKS and r.line() != PINNED.get(r.name)]
    assert not moved, "lines differ from their pins:\n" + "\n".join(moved)


def test_c01_three_route_equality_within_runtime():
    """Closed form vs log-det vs recursion: 1e-9 (N<=50), 1e-6 (N=2000)."""
    _assert_all(validate.check_route_agreement())


def test_c02_noma_collapse_exact_at_tau0():
    _assert_all(validate.check_noma_collapse())


def test_c03_asymptote_convergence_at_n2000():
    _assert_all(validate.check_asymptote_convergence())


def test_c04_asymptotic_rate_dominates_synchronous():
    _assert_all(validate.check_asymptotic_gain())


def test_c05_full_power_monotonicity():
    _assert_all(validate.check_full_power())


def test_c06_optimal_mismatch_convergence():
    _assert_all(validate.check_tau_star())


def test_c07_zero_timing_error_identity():
    _assert_all(validate.check_zero_error())


def test_c08_linear_loss_validity_and_slope_ratio():
    _assert_all(validate.check_linear_loss())


def test_c09_loss_ratio_surface():
    _assert_all(validate.check_gamma_surface())


def test_c10_scheme_ordering():
    _assert_all(validate.check_scheme_ordering())


def test_c11_waveform_algebra_equivalence():
    _assert_all(validate.check_waveform_equivalence())


@pytest.mark.slow
def test_c12_noise_coloring_monte_carlo():
    _assert_all(validate.check_noise_covariance())
