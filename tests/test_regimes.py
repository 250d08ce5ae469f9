"""Exponent-calculus unit tests: derived parameters, intervals, regimes,
nonexistence, interpolation pairs, and threshold constants."""

import hashlib
import math
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import inlslab as il
from inlslab import Regime
from inlslab.reports import fmt_float


def valid_params(n_choices=(2, 3, 4, 5)):
    """Strategy producing valid (N, b, q, p) tuples."""

    @st.composite
    def build(draw):
        N = draw(st.sampled_from(n_choices))
        b = draw(st.floats(0.05, 1.95))
        if N >= 3:
            qmax = 2.0 * (N - b) / (N - 2)
            q = 2.0 + draw(st.floats(0.05, 0.95)) * (qmax - 2.0)
        else:
            q = 2.0 + draw(st.floats(0.1, 8.0))
        p = 2.0 + draw(st.floats(0.05, 0.95)) * (q - 2.0)
        return N, b, q, p

    return build()


# ---------------------------------------------------------------- derive


def test_derive_reference_values(ref_params):
    P = ref_params
    assert P.delta == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert P.a == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert P.ell == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_derive_a_two_expressions_agree(ref_params):
    P = ref_params
    a1 = 2.0 - P.delta * (P.p - 2.0)
    a2 = P.b + P.delta * (P.q - P.p)
    assert a1 == pytest.approx(a2, rel=1e-15)
    assert P.a == pytest.approx(a1, rel=1e-15)


def test_derive_rejects_critical_q():
    with pytest.raises(il.HypothesisViolation):
        il.derive_params(3, 1.0, 4.0, 3.0)  # q = 2*_b exactly


@pytest.mark.parametrize(
    "args, message",
    [((1, 1.0, 3.5, 3.0), "N >= 2 required"),
     ((3, 0.0, 3.5, 3.0), "0 < b < 2 required"),
     ((3, 2.0, 3.5, 3.0), "0 < b < 2 required"),
     ((3, 1.0, 3.5, 2.0), "p > 2 required"),
     ((3, 1.0, 3.0, 3.0), "q > p required"),
     ((3, 1.0, 4.5, 3.0), "q < 2(N-b)/(N-2) = 4.0 required"),
     # inputs that pass every hypothesis but whose derived exponents round onto the bound
     ((2, 1.0, 1e6, math.nextafter(2.0, 3.0)), "derived a = 2.0 outside (b, 2)"),
     ((3, 1.0, math.nextafter(4.0, 0.0), 2.5), "derived ell = 0.0 not positive"),
     ((math.nan, 1.0, 3.5, 3.0), "N >= 2 required"),
     ((math.inf, 1.0, 3.5, 3.0), "N >= 2 required")],
    ids=[f"args{i}" for i in range(10)],
)
def test_derive_rejects_bad_inputs(args, message):
    with pytest.raises(il.HypothesisViolation, match=re.escape(message)):
        il.derive_params(*args)


@settings(max_examples=150, deadline=None)
@given(valid_params())
def test_derived_invariants(nb):
    N, b, q, p = nb
    P = il.derive_params(N, b, q, p)
    assert b < P.a < 2.0
    assert P.ell > 0.0
    l1 = il.ell_of(P, b, q)
    l2 = il.ell_of(P, P.a, p)
    assert abs(l1 - l2) <= 1e-14 * max(1.0, abs(l1))
    if N >= 3:
        assert il.lower_endpoint(P, P.a) < p < il.critical_exponent(N, P.a)


# ------------------------------------------------------- critical exponent


def test_critical_exponent_values():
    assert il.critical_exponent(3, 0.0) == pytest.approx(6.0)
    assert il.critical_exponent(2, 1.5) == math.inf
    assert il.critical_exponent(3, 2.0) == pytest.approx(2.0)


def test_critical_exponent_domain():
    with pytest.raises(il.DomainError):
        il.critical_exponent(3, -0.1)
    with pytest.raises(il.DomainError):
        il.critical_exponent(3, 3.0)


# --------------------------------------------------------- lower endpoint


def test_lower_endpoint_collapses_to_q_at_b(ref_params):
    assert il.lower_endpoint(ref_params, 1.0) == pytest.approx(3.5)


def test_lower_endpoint_cases(ref_params):
    # eta < b branches, direct evaluation
    assert il.lower_endpoint(ref_params, 0.5, radial=True) == pytest.approx(13.25 / 3.0)
    assert il.lower_endpoint(ref_params, 0.5, radial=False) == pytest.approx(4.75)


@pytest.mark.parametrize("call, named", [
    (lambda P: il.lower_endpoint(P, 3.0), "eta must lie in"),
    (lambda P: il.ps_threshold(3, 2.0, 1.0), "eta1 must lie in"),
    (lambda P: il.tilde_s_root(0.3, 1, 1, 3, 0.5, 2.0), "eta2 must lie in"),
    (lambda P: il.gamma_mu_roots(0.3, 1, 1, 1.0, 2.0), "exp_low must lie in"),
], ids=["lower-endpoint-eta-N", "ps-threshold-eta1-2", "tilde-s-eta2-2", "gamma-roots-exp-low-1"])
def test_scalar_calculus_rejects_an_argument_out_of_range(ref_params, call, named):
    with pytest.raises(il.DomainError, match=named):
        call(ref_params)


def test_lower_endpoint_n2_nonradial_eta_below_b():
    P = il.derive_params(2, 1.0, 3.0, 2.5)
    with pytest.raises(il.DomainError):
        il.lower_endpoint(P, 0.3, radial=False)
    assert il.lower_endpoint(P, 0.3, radial=True) > 0


@settings(max_examples=150, deadline=None)
@given(valid_params(n_choices=(3, 4, 5)), st.floats(0.0, 0.999))
def test_radial_endpoint_ordering(nb, frac):
    N, b, q, p = nb
    P = il.derive_params(N, b, q, p)
    eta = frac * b * 0.999
    nonex_thr = q * (N - eta) / (N - b)
    rad = il.lower_endpoint(P, eta, radial=True)
    nonrad = il.lower_endpoint(P, eta, radial=False)
    assert nonex_thr < rad < nonrad


# ------------------------------------------------------------------ ell_of


def test_ell_of_pairs(ref_params):
    P = ref_params
    assert il.ell_of(P, P.b, P.q) == pytest.approx(P.ell, rel=1e-12)
    assert il.ell_of(P, P.a, P.p) == pytest.approx(P.ell, rel=1e-12)
    assert il.ell_of(P, 3.0, 0.0) == pytest.approx(0.0, abs=1e-15)


# --------------------------------------------------------- scaled threshold


def test_scaled_threshold_values(ref_params):
    P = ref_params
    assert il.scaled_threshold(P, P.b) == pytest.approx(P.q)
    assert il.scaled_threshold(P, P.a) == pytest.approx(P.p)
    assert il.scaled_threshold(P, 2.0) == pytest.approx(2.0)


# ---------------------------------------------------------------- classify


def test_classify_eigen_pair_scaled(ref_params):
    P = ref_params
    v = il.classify_pair(P, il.WeightedPair(P.a, P.p))
    assert v.admissible and v.regime is Regime.SCALED and v.reason == "OK"


def test_classify_eta_below_b_superscaled_only(ref_params):
    P = ref_params
    lo = il.lower_endpoint(P, 0.5)
    hi = il.critical_exponent(3, 0.5)
    for r in (lo, 0.5 * (lo + hi), hi):
        v = il.classify_pair(P, il.WeightedPair(0.5, r))
        assert v.admissible
        assert v.regime is Regime.SUPERSCALED


def test_classify_eta_cap(ref_params):
    v = il.classify_pair(ref_params, il.WeightedPair(2.5, 3.0))
    assert not v.admissible and v.reason == "ETA_TOO_LARGE"
    assert v.regime is Regime.NOT_APPLICABLE


def test_classify_r_at_most_one(ref_params):
    v = il.classify_pair(ref_params, il.WeightedPair(1.9, 1.0))
    assert not v.admissible and v.reason == "R_LE_ONE"


def test_classify_endpoint_inclusion(ref_params):
    P = ref_params
    # upper endpoint included when eta <= 2 and N >= 3
    v = il.classify_pair(P, il.WeightedPair(1.5, il.critical_exponent(3, 1.5)))
    assert v.admissible
    # above it: rejected
    v = il.classify_pair(P, il.WeightedPair(1.5, il.critical_exponent(3, 1.5) + 1e-6))
    assert not v.admissible and v.reason == "R_ABOVE_UPPER"
    # lower endpoint included only when eta <= b
    v = il.classify_pair(P, il.WeightedPair(0.5, il.lower_endpoint(P, 0.5)))
    assert v.admissible
    v = il.classify_pair(P, il.WeightedPair(1.5, il.lower_endpoint(P, 1.5)))
    assert not v.admissible and v.reason == "R_BELOW_LOWER"


def test_classify_n2_radial_new_interval():
    P = il.derive_params(2, 1.0, 3.0, 2.5)
    lo = il.lower_endpoint(P, 0.0, radial=True)
    v = il.classify_pair(P, il.WeightedPair(0.0, lo + 0.5), radial=True)
    assert v.admissible and v.regime is Regime.SUPERSCALED
    assert v.interval.upper == math.inf and not v.interval.upper_included
    assert il.classify_pair(P, il.WeightedPair(0.0, lo + 0.5)).reason == "N2_ETA_LT_B"


def test_classify_eta_zero_single_point_vs_radial_window(ref_params):
    # nonradially at eta = 0 (N = 3) the interval degenerates to the one
    # point r = 2* = 6, both endpoints coinciding and included; the
    # radial interval opens a genuine window below it
    P = ref_params
    assert il.lower_endpoint(P, 0.0) == pytest.approx(6.0)
    assert il.classify_pair(P, il.WeightedPair(0.0, 6.0)).admissible
    assert not il.classify_pair(P, il.WeightedPair(0.0, 5.9)).admissible
    rad_lo = il.lower_endpoint(P, 0.0, radial=True)
    assert rad_lo == pytest.approx(16.0 / 3.0)
    assert il.classify_pair(P, il.WeightedPair(0.0, 5.9), radial=True).admissible


def test_classify_radial_matches_nonradial_above_b(ref_params):
    P = ref_params
    for (eta, r) in ((1.2, 3.0), (P.a, P.p), (1.9, 2.15)):
        v1 = il.classify_pair(P, il.WeightedPair(eta, r), radial=False)
        v2 = il.classify_pair(P, il.WeightedPair(eta, r), radial=True)
        assert v1 == v2


@settings(max_examples=200, deadline=None)
@given(valid_params(), st.floats(0.0, 2.99), st.floats(1.001, 9.0))
def test_classify_regime_is_threshold_sign(nb, eta, r):
    N, b, q, p = nb
    P = il.derive_params(N, b, q, p)
    if eta >= (N + 2) / 2:
        eta = (N + 2) / 2 * 0.97
    v = il.classify_pair(P, il.WeightedPair(eta, r))
    if not v.admissible:
        return
    rs = il.scaled_threshold(P, eta)
    if abs(r - rs) <= 1e-12 * max(1.0, abs(r)):
        assert v.regime is Regime.SCALED
    elif r < rs:
        assert v.regime is Regime.SUBSCALED
        assert eta > b
    else:
        assert v.regime is Regime.SUPERSCALED
        assert eta < 2.0


# ------------------------------------------------------------ nonexistence


def test_nonexistence_thresholds(ref_params):
    P = ref_params
    assert il.nonexistence(P, 0.0, 6.0)  # r = 2*_0
    thr = P.q * (3 - 0.7) / (3 - P.b)
    assert il.nonexistence(P, 0.7, thr)  # r exactly at the lower threshold
    assert not il.nonexistence(P, P.a, P.p)


def test_nonexistence_between_thresholds(ref_params):
    P = ref_params
    eta = 1.4
    lo = P.q * (3 - eta) / (3 - P.b)
    hi = il.critical_exponent(3, eta)
    assert not il.nonexistence(P, eta, 0.5 * (lo + hi))
    assert il.nonexistence(P, eta, hi)
    with pytest.raises(il.DomainError):
        il.nonexistence(P, 2.0, 3.0)
    with pytest.raises(il.DomainError):
        il.nonexistence(P, 1.0, 1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_nonexistence_rejects_non_finite_r(ref_params, r):
    # r <= 1 is False for nan and inf, so the range test alone let them through
    with pytest.raises(il.DomainError):
        il.nonexistence(ref_params, 1.0, r)


# ---------------------------------------------------- interpolation pairs


def test_interpolation_pair_fixed_point(ref_params):
    P = ref_params
    eta_t, r_t, theta = il.interpolation_pair(P, il.WeightedPair(P.a, P.p))
    assert (eta_t, r_t) == (P.a, P.p)
    assert 0 < theta < 1


def test_interpolation_pair_same_weight(ref_params):
    P = ref_params
    r = P.p + 0.2  # stays below 2*_a = 10/3
    eta_t, r_t, theta = il.interpolation_pair(P, il.WeightedPair(P.a, r))
    assert eta_t == pytest.approx(P.a)
    assert abs(1.0 / P.p - theta / r - (1 - theta) / r_t) <= 1e-12


def _check_balance(P, eta, r, eta_t, r_t, theta):
    b1 = abs(1.0 / P.p - theta / r - (1 - theta) / r_t)
    b2 = abs(P.a / P.p - theta * eta / r - (1 - theta) * eta_t / r_t)
    assert b1 <= 1e-12 and b2 <= 1e-12


def test_interpolation_pair_subscaled_swaps(ref_params):
    P = ref_params
    eta, r = 1.8, 2.2  # subscaled
    assert il.classify_pair(P, il.WeightedPair(eta, r)).regime is Regime.SUBSCALED
    eta_t, r_t, theta = il.interpolation_pair(P, il.WeightedPair(eta, r))
    _check_balance(P, eta, r, eta_t, r_t, theta)
    assert il.classify_pair(P, il.WeightedPair(eta_t, r_t)).regime is Regime.SUPERSCALED


def test_interpolation_pair_superscaled_swaps(ref_params):
    P = ref_params
    eta, r = 0.5, 5.0
    assert il.classify_pair(P, il.WeightedPair(eta, r)).regime is Regime.SUPERSCALED
    eta_t, r_t, theta = il.interpolation_pair(P, il.WeightedPair(eta, r))
    _check_balance(P, eta, r, eta_t, r_t, theta)
    assert il.classify_pair(P, il.WeightedPair(eta_t, r_t)).regime is Regime.SUBSCALED


def test_interpolation_pair_caches_only_the_input_row(ref_params):
    # the companion search tries a new eta~ at every step: those rows stay
    # out of the row cache, and only each input's own row is kept
    il.regimes._row.cache_clear()
    for eta, r in [(1.8, 2.2), (0.5, 5.0), (1.8, 2.3)]:
        il.interpolation_pair(ref_params, il.WeightedPair(eta, r))
    assert il.regimes._row.cache_info().currsize == 2


def test_interpolation_pair_rejects_inadmissible(ref_params):
    with pytest.raises(il.DomainError):
        il.interpolation_pair(ref_params, il.WeightedPair(2.5, 3.0))


# ---------------------------------------------------------------- thresholds


def test_ps_threshold_values():
    assert il.ps_threshold(3, 0.0, 2.0) == pytest.approx(2.0 ** 1.5 / 3.0, rel=1e-14)
    assert il.ps_threshold(3, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert il.ps_threshold(3, 0.5, 0.0) == 0.0
    with pytest.raises(il.DomainError):
        il.ps_threshold(2, 0.0, 1.0)


def test_tilde_s_closed_form_mu_zero():
    for (S1, eta1) in ((1.7, 0.0), (0.3, 1.2), (4.0, 1.9)):
        val = il.tilde_s_root(0.0, S1, 2.0, 3, eta1, 0.5)
        assert val == pytest.approx(S1 ** ((3 - eta1) / (2 - eta1)), rel=1e-12)


def test_tilde_s_symmetric_case():
    val = il.tilde_s_root(1.0, 1.0, 1.0, 3, 0.0, 0.0)
    assert val == pytest.approx(2.0 ** -0.5, rel=1e-12)


def test_tilde_s_domain():
    with pytest.raises(il.DomainError):
        il.tilde_s_root(1.0, 1.0, 1.0, 2, 0.5, 0.5)
    with pytest.raises(il.DomainError):
        il.tilde_s_root(1.0, -1.0, 1.0, 3, 0.5, 0.5)
    with pytest.raises(il.DomainError):
        il.tilde_s_root(-0.1, 1.0, 1.0, 3, 0.5, 0.5)


def test_tilde_s_monotone_in_mu():
    vals = [il.tilde_s_root(mu, 1.3, 0.8, 4, 0.5, 1.1) for mu in (0.0, 0.5, 2.0, 10.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_tilde_s_residual():
    mu, S1, S2, N, e1, e2 = 0.7, 1.9, 0.6, 5, 0.3, 1.7
    x = il.tilde_s_root(mu, S1, S2, N, e1, e2)
    c1 = il.critical_exponent(N, e1)
    c2 = il.critical_exponent(N, e2)
    res = (
        mu * S2 ** (-c2 / 2) * x ** ((2 - e2) / (N - 2))
        + S1 ** (-c1 / 2) * x ** ((2 - e1) / (N - 2))
        - 1.0
    )
    assert abs(res) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(st.floats(-12.0, 12.0), st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.integers(3, 20),
       st.floats(0.0, 1.999), st.floats(0.0, 1.999))
def test_tilde_s_root_is_float_exact(log_mu, log_s1, log_s2, N, eta1, eta2):
    # the bisection runs down to two adjacent floats and returns the one with
    # the smaller residual, so neither neighbouring float has a smaller one
    mu, S1, S2 = 10.0 ** log_mu, 10.0 ** log_s1, 10.0 ** log_s2
    try:
        x = il.tilde_s_root(mu, S1, S2, N, eta1, eta2)
    except il.DomainError:  # S~ or a coefficient outside the float range
        return
    k1 = S1 ** (-il.critical_exponent(N, eta1) / 2.0)
    k2 = mu * S2 ** (-il.critical_exponent(N, eta2) / 2.0)
    e1, e2 = (2.0 - eta1) / (N - 2.0), (2.0 - eta2) / (N - 2.0)

    def residual(t):
        try:
            return abs(k2 * t ** e2 + k1 * t ** e1 - 1.0)
        except OverflowError:
            return math.inf

    assert residual(x) <= residual(math.nextafter(x, 0.0))
    assert residual(x) <= residual(math.nextafter(x, math.inf))


def test_tilde_s_below_float_range():
    # mu S2^(-c2/2) = 24.85 with exponent 0.0026 puts the root near 1e-542
    with pytest.raises(il.DomainError):
        il.tilde_s_root(4.4062446981743655, 3.6284876373629196, 0.1780804114700412,
                        6, 0.9938053327681786, 1.98971304724382)


def test_tilde_s_among_coarse_subnormals():
    # the float nearest the root, 5e-324, leaves a residual of 0.52: no float
    # solves the equation
    with pytest.raises(il.DomainError, match="outside the float range"):
        il.tilde_s_root(7809.439839124384, 2.7471114229544945e+18, 2.9022390887824655e-26,
                        7, 0.04992035504305562, 1.5088634863421797)


def test_gamma_roots():
    r1, r2 = il.gamma_mu_roots(0.2, 1.0, 1.0, 0.5, 2.0)

    def gamma(t):
        return t - 0.2 * t ** 0.5 - t ** 2.0

    assert abs(gamma(r1)) <= 1e-12 and abs(gamma(r2)) <= 1e-12
    assert 0 < r1 < r2
    assert gamma(0.5 * r1) < 0 and gamma(2.0 * r2) < 0 and gamma(0.5 * (r1 + r2)) > 0


def test_gamma_roots_mu_zero():
    r1, r2 = il.gamma_mu_roots(0.0, 1.0, 2.0, 0.5, 3.0)
    assert r1 == 0.0
    assert r2 == pytest.approx(2.0 ** (-1.0 / 2.0), rel=1e-12)


def test_gamma_roots_mu_zero_below_float_range():
    # R2 = C1^(-1/(exp_high-1)) = 1e-30000 underflows to 0.0
    with pytest.raises(il.DomainError, match="outside the float range"):
        il.gamma_mu_roots(0.0, 1.0, 1e300, 0.5, 1.01)


def test_gamma_roots_mu_too_large():
    with pytest.raises(il.DomainError):
        il.gamma_mu_roots(100.0, 1.0, 1.0, 0.5, 2.0)


def test_gamma_roots_among_coarse_subnormals():
    # the bisection ends at R1 = 3e-323, where adjacent subnormal floats are
    # too coarse to resolve the root: its residual is -1.7e-3
    with pytest.raises(il.DomainError, match="outside the float range"):
        il.gamma_mu_roots(1.5235959054217693e-09, 94.46514640515245, 1484.1486559449215,
                          0.9787891297556277, 1.8707208828817006)


def test_gamma_roots_past_the_scan():
    # g reaches 1 beyond 2000 doublings of t*, so the bracket of R2 holds no
    # sign change and its bisection would end near 9e307 at a residual of 1.7e-3
    with pytest.raises(il.DomainError, match="outside the float range"):
        il.gamma_mu_roots(8.948929833728612e-10, 0.00013573908065695882, 3.7071451712486885e-05,
                          0.8387099498352824, 1.01438606798385)


def test_gamma_roots_steep_high_term():
    # with exp_high near 1000, one float step at R2 moves g by about 1e3
    # ulps of 1: a residual above 1e-13 is still the best a float can do
    r1, r2 = il.gamma_mu_roots(3.132122956152255e-06, 0.0002433334896549645, 0.17526656916416178,
                               0.6000534298108203, 1035.1220628518654)
    assert 0 < r1 < r2 == pytest.approx(1.0016854048312112, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(-12.0, 3.0), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.001, 0.999),
       st.floats(-3.0, 3.0))
# bisection settled one float below the R1 whose residual is exactly 0
@example(0.0, -0.51171875, 0.0, 0.5466305698603721, 0.0)
def test_gamma_roots_are_float_exact(log_mu, log_c, log_c1, exp_low, log_rise):
    # each radius is the float of least residual among its neighbours, and
    # that residual is what one float step moves g by, not more
    mu, C, C1, exp_high = 10.0 ** log_mu, 10.0 ** log_c, 10.0 ** log_c1, 1.0 + 10.0 ** log_rise
    try:
        radii = il.gamma_mu_roots(mu, C, C1, exp_low, exp_high)
    except il.DomainError:  # no window, or a radius outside the float range
        return

    def residual(t):
        try:
            return abs(C * mu * t ** (exp_low - 1.0) + C1 * t ** (exp_high - 1.0) - 1.0)
        except (OverflowError, ZeroDivisionError):
            return math.inf

    for t in radii:
        if t == 0.0 or radii[0] == radii[1]:  # mu = 0, or the tangent window
            continue
        assert residual(t) <= residual(math.nextafter(t, 0.0))
        assert residual(t) <= residual(math.nextafter(t, math.inf))
        assert residual(t) <= 1e-13 * max(1.0, exp_high - 1.0, 1.0 - exp_low)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: il.ps_threshold(3, 0.5, x),
        lambda x: il.tilde_s_root(0.3, x, 1.0, 3, 0.5, 1.0),
        lambda x: il.tilde_s_root(0.3, 1.0, x, 3, 0.5, 1.0),
        lambda x: il.tilde_s_root(x, 1.0, 1.0, 3, 0.5, 1.0),
        lambda x: il.gamma_mu_roots(x, 1.0, 1.0, 0.5, 2.0),
        lambda x: il.gamma_mu_roots(0.2, x, 1.0, 0.5, 2.0),
        lambda x: il.gamma_mu_roots(0.2, 1.0, x, 0.5, 2.0),
        lambda x: il.gamma_mu_roots(0.2, 1.0, 1.0, 0.5, x),
    ],
    ids=["ps-S", "tilde-S1", "tilde-S2", "tilde-mu", "gamma-mu", "gamma-C", "gamma-C1",
         "gamma-exp_high"],
)
def test_threshold_constants_reject_non_finite(call, x):
    # sign tests alone pass nan and inf, which then print as constants
    with pytest.raises(il.DomainError):
        call(x)


# ----------------------------------------------------------------- atlas


def test_region_map_single_cell(ref_params):
    P = ref_params
    rows = il.region_map(P, [P.a], [P.p])
    assert len(rows) == 1 and rows[0]["regime"] == "Scaled"


def test_region_map_empty_grid(ref_params):
    with pytest.raises(il.EmptyGridError):
        il.region_map(ref_params, [1.0], [])


def test_region_map_requires_increasing(ref_params):
    with pytest.raises(il.DomainError):
        il.region_map(ref_params, [1.0, 1.0], [2.0, 3.0])


def test_region_map_order_and_csv(ref_params):
    rows = il.region_map(ref_params, [0.5, 1.5], [2.0, 3.0])
    assert [(r["eta"], r["r"]) for r in rows] == [(0.5, 2.0), (0.5, 3.0), (1.5, 2.0), (1.5, 3.0)]
    csv = il.region_map_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "eta,r,admissible,regime,nonexistence,lower,lower_included,upper,upper_included"
    )
    assert len(lines) == 5
    # booleans as lowercase words, floats parse back
    first = lines[1].split(",")
    assert first[2] in ("true", "false")
    assert float(first[5]) == il.lower_endpoint(ref_params, 0.5)


def test_region_map_upper_is_inf_marker():
    P = il.derive_params(2, 1.0, 3.0, 2.5)
    rows = il.region_map(P, [1.2], [4.0])
    csv = il.region_map_csv(rows)
    assert ",inf," in csv.strip().split("\n")[1]


_NEG_NAN = math.copysign(math.nan, -1.0)


@pytest.mark.parametrize("x, want", [(math.nan, "nan"), (_NEG_NAN, "nan"), (math.inf, "inf"),
                                     (-math.inf, "-inf"), (-0.0, "-0"), (0.0, "0")])
def test_fmt_float_special_values(x, want):
    # fmt_float is the 17g format alone: this pins that the format itself
    # prints NaN of either sign, the infinities and -0.0 as the CSV and JSON
    # outputs document
    assert f"{x:.17g}" == want
    assert fmt_float(x) == want


def _fmt_reference(x):
    # fmt_float as it was, with the special values spelled out
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _csv_reference(rows):
    # the renderer region_map_csv replaced: each field on its own, then joined
    def word(x):
        return "true" if x else "false"

    lines = [il.regimes.REGION_MAP_HEADER]
    for row in rows:
        lines.append(",".join([
            _fmt_reference(row["eta"]), _fmt_reference(row["r"]), word(row["admissible"]),
            row["regime"], word(row["nonexistence"]), _fmt_reference(row["lower"]),
            word(row["lower_included"]), _fmt_reference(row["upper"]),
            word(row["upper_included"]),
        ]))
    return "\n".join(lines) + "\n"


_csv_float = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.nan, _NEG_NAN, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308])
_csv_value = st.one_of(
    _csv_float,
    st.integers(-10**20, 10**20),
    st.booleans(),
    _csv_float.map(np.float64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def csv_rows(draw):
    # a small pool of value objects makes values repeat within a row, across
    # rows and on consecutive lines, as in an atlas; fresh draws make them
    # differ, and equal values of different types or zero signs meet
    pool = draw(st.lists(_csv_value, min_size=1, max_size=6))
    value = st.sampled_from(pool) | _csv_value
    flag = st.booleans() | st.sampled_from([0, 1, 0.0, None])
    regime = st.sampled_from([g.value for g in Regime])
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        rows.append({
            "eta": draw(value), "r": draw(value), "admissible": draw(flag),
            "regime": draw(regime), "nonexistence": draw(flag), "lower": draw(value),
            "lower_included": draw(flag), "upper": draw(value), "upper_included": draw(flag),
        })
    return rows


@settings(max_examples=300, deadline=None)
@given(csv_rows())
def test_region_map_csv_matches_per_field_renderer(rows):
    assert il.region_map_csv(rows) == _csv_reference(rows)


#: sha256 of region_map_csv of the 200x200 benchmark atlas, as the
#: cell-by-cell region_map wrote it
_BENCHMARK_ATLAS_SHA256 = {
    False: "c7cf9bba2b6bef9173ed3adc956eebaeb7cd4bb76f0fdcc13e8d2f6c926c8159",
    True: "0ba2687dbf1dbc65d6642dc0ef48543e13edde1963a1fe0985ea6be0298e72ec",
}


@pytest.mark.parametrize("radial", [False, True])
def test_benchmark_atlas_csv_matches_per_field_renderer(ref_params, radial):
    etas = [float(x) for x in np.linspace(0.0, 2.4, 200)]
    rs = [float(x) for x in np.linspace(1.1, 7.0, 200)]
    rows = il.region_map(ref_params, etas, rs, radial=radial)
    text = il.region_map_csv(rows)
    assert text == _csv_reference(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == _BENCHMARK_ATLAS_SHA256[radial]


@pytest.mark.parametrize("eta, r", [(math.nan, 3.0), (1.0, math.nan), (math.inf, 3.0),
                                    (1.0, math.inf), (-math.inf, 3.0)])
def test_weighted_pair_rejects_non_finite(eta, r):
    # every comparison with NaN is False, and _close(inf, c) is True, so a
    # non-finite pair would otherwise get a verdict
    with pytest.raises(il.DomainError):
        il.WeightedPair(eta, r)


@pytest.mark.parametrize("etas, rs", [([0.0, math.nan, 2.0], [2.0, 3.0]),
                                      ([0.0, 1.0], [2.0, math.inf]),
                                      ([math.nan], [2.0])])
def test_region_map_rejects_non_finite_grid(ref_params, etas, rs):
    with pytest.raises(il.DomainError):
        il.region_map(ref_params, etas, rs)


# Reference for the per-eta rows: each pair classified on its own, every
# rule tested with _close, and the interval built for each pair.

def _close(x, y):
    return abs(x - y) <= il.regimes.EQ_TOL * max(1.0, abs(x), abs(y))


def _classify_reference(P, eta, r, radial):
    N, b = P.N, P.b
    na = Regime.NOT_APPLICABLE
    eta_cap = (N + 2) / 2.0
    if eta > eta_cap or _close(eta, eta_cap):
        return il.RegimeVerdict(False, na, None, "ETA_TOO_LARGE")
    radial_eff = radial and eta < b and not _close(eta, b)
    if N == 2 and eta < b and not radial_eff and not _close(eta, b):
        return il.RegimeVerdict(False, na, None, "N2_ETA_LT_B")
    if radial_eff:
        lower_inc, upper_inc = True, N >= 3
    else:
        lower_inc = eta <= b or _close(eta, b)
        upper_inc = N >= 3 and (eta <= 2 or _close(eta, 2.0))
    compact = N >= 3 or radial_eff or (eta > b and not _close(eta, b))
    iv = il.EmbeddingInterval(il.lower_endpoint(P, eta, radial=radial_eff),
                              il.critical_exponent(N, eta), lower_inc, upper_inc,
                              radial_eff, compact)
    if r < 1.0 or _close(r, 1.0):
        return il.RegimeVerdict(False, na, iv, "R_LE_ONE")
    lo, hi = iv.lower, iv.upper
    on_lower = _close(r, lo)
    if (r < lo and not on_lower) or (on_lower and not lower_inc):
        return il.RegimeVerdict(False, na, iv, "R_BELOW_LOWER")
    if math.isfinite(hi):
        on_upper = _close(r, hi)
        if (r > hi and not on_upper) or (on_upper and not upper_inc):
            return il.RegimeVerdict(False, na, iv, "R_ABOVE_UPPER")
    r_s = il.scaled_threshold(P, eta)
    if _close(r, r_s):
        return il.RegimeVerdict(True, Regime.SCALED, iv, "OK")
    return il.RegimeVerdict(True, Regime.SUBSCALED if r < r_s else Regime.SUPERSCALED, iv, "OK")


def _nonexistence_reference(P, eta, r):
    N, b, q = P.N, P.b, P.q
    low = q * (N - eta) / (N - b)
    if r < low or _close(r, low):
        return True
    crit = il.critical_exponent(N, eta)
    return N >= 3 and (r > crit or _close(r, crit))


def _region_map_reference(P, etas, rs, radial):
    rows = []
    for eta in etas:
        for r in rs:
            try:
                il.WeightedPair(eta, r)
                verdict = _classify_reference(P, eta, r, radial)
            except il.DomainError:
                verdict = il.RegimeVerdict(False, Regime.NOT_APPLICABLE, None, "DOMAIN")
            nonex = _nonexistence_reference(P, eta, r) if 0 <= eta < 2 and r > 1 else False
            iv = verdict.interval
            rows.append({
                "eta": eta, "r": r, "admissible": verdict.admissible,
                "regime": verdict.regime.value, "nonexistence": nonex,
                "lower": iv.lower if iv else math.nan,
                "lower_included": iv.lower_included if iv else False,
                "upper": iv.upper if iv else math.nan,
                "upper_included": iv.upper_included if iv else False,
            })
    return rows


def _nudged(x):
    # x, neighbours inside and outside its EQ_TOL band, and the band's upper
    # edge: the last float that _close puts on x and the first one past it
    y = x + il.regimes.EQ_TOL * max(1.0, abs(x))
    while _close(y, x):
        y = math.nextafter(y, math.inf)
    while not _close(y, x):
        y = math.nextafter(y, -math.inf)
    return [x, x * (1 + 4e-13), x * (1 - 3e-12), y, math.nextafter(y, math.inf)]


@st.composite
def atlas_case(draw):
    N, b, q, p = draw(valid_params())
    P = il.derive_params(N, b, q, p)
    radial = draw(st.booleans())
    long_grid = draw(st.booleans())  # an r grid of 50 values or more, and fewer etas
    eta_pool = [0.0, -0.25, b, P.a, 2.0, (N + 2) / 2, 1.0, q, p]
    etas = draw(st.lists(st.sampled_from(eta_pool) | st.floats(-0.5, N + 0.5), min_size=1,
                         max_size=2 if long_grid else 5))
    etas = sorted({e for x in etas for e in (_nudged(x) if draw(st.booleans()) else [x])})
    r_pool = [0.0, -1.0, 1.0, b, P.a, 2.0, (N + 2) / 2, q, p]
    for eta in etas:
        if 0 <= eta < N:
            r_pool += [il.critical_exponent(N, eta), il.scaled_threshold(P, eta),
                       q * (N - eta) / (N - b)]
            for rad in (False, True):
                try:
                    r_pool.append(il.lower_endpoint(P, eta, radial=rad))
                except il.DomainError:
                    pass
    r_pool = [x for x in r_pool if math.isfinite(x)]
    rs = draw(st.lists(st.sampled_from(r_pool) | st.floats(-1.0, 12.0), min_size=1,
                       max_size=10))
    rs = {e for x in rs for e in (_nudged(x) if draw(st.booleans()) else [x])}
    if long_grid:
        # runs of many cells, with their ends packed around the boundaries
        step = draw(st.sampled_from([1e-13, 1e-12, 1e-9, 1e-4, 0.02]))
        centres = draw(st.lists(st.sampled_from(r_pool), min_size=1, max_size=3))
        rs.update(x + k * step * max(1.0, abs(x)) for x in centres for k in range(-4, 5))
        rs.update(-1.0 + 13.0 * k / 49 for k in range(50))
    return P, etas, sorted(rs), radial


def _same(x, y):
    return x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))


@settings(max_examples=200, deadline=None)
@given(atlas_case())
def test_region_map_matches_per_pair_reference(case):
    P, etas, rs, radial = case
    rows = il.region_map(P, etas, rs, radial=radial)
    want = _region_map_reference(P, etas, rs, radial)
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert list(got) == list(ref)
        assert all(_same(got[k], ref[k]) for k in ref), (got, ref)
    for eta in etas:
        for r in rs:
            if not (eta >= 0 and r > 0):
                continue
            pair = il.WeightedPair(eta, r)
            warm = il.classify_pair(P, pair, radial=radial)
            il.regimes._row.cache_clear()
            cold = il.classify_pair(P, pair, radial=radial)
            assert cold == warm == _classify_reference(P, eta, r, radial)


@st.composite
def boundary_row(draw, n_choices=(2, 3, 4, 5)):
    # params, eta, radial, and an increasing r grid packed around the row's
    # boundaries (1, the interval ends, r_s, the Pohozaev bounds) and the
    # edges of their bands
    N, b, q, p = draw(valid_params(n_choices))
    P = il.derive_params(N, b, q, p)
    eta = draw(st.sampled_from([0.0, b, P.a, 1.0, 2.0, (N + 2) / 2]) | st.floats(0.0, N + 0.5))
    if draw(st.booleans()):
        eta = draw(st.sampled_from(_nudged(eta)))
    radial = draw(st.booleans())
    row = il.regimes._build_row(P, float(eta), radial)
    edges = [1.0, row.low, row.crit]
    if row.early is None:
        edges += [row.interval.lower, row.interval.upper, row.r_s]
    rs = draw(st.lists(st.floats(1e-3, 15.0), max_size=20))
    rs += [y for x in edges if math.isfinite(x) and x > 0 for e in _nudged(x)
           for y in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))]
    rs += [y for band in row.bands for e in band if e > 0
           for y in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))]
    return P, eta, row, sorted(set(rs))


@settings(max_examples=300, deadline=None)
@given(boundary_row())
def test_kind_and_pohozaev_zone_are_monotone_in_r(case):
    # each verdict and each Pohozaev zone holds on one interval of r, in
    # order; region_map cuts its runs at the row's bands and does not rely
    # on this
    P, eta, row, rs = case
    zones = [il.regimes._zone(row, r) for r in rs]
    assert zones == sorted(zones)
    if row.early is None:
        keys = [(il.regimes._kind(row, r), il.regimes._zone(row, r)) for r in rs]
        assert keys == sorted(keys)
    if 0 <= eta < 2:
        assert (row.low, row.crit) == (P.q * (P.N - eta) / (P.N - P.b),
                                       il.critical_exponent(P.N, eta))
        assert [z != 1 for z in zones] == [_nonexistence_reference(P, eta, r) for r in rs]
    else:
        assert (row.low, row.crit) == (-math.inf, math.inf) and zones == [1] * len(zones)


@settings(max_examples=100, deadline=None)
@given(boundary_row())
def test_a_row_is_whole_when_built(case):
    # _build_row makes all six verdicts; answering a pair reads one of them
    # and changes nothing in the row
    P, eta, row, rs = case
    before = {name: getattr(row, name) for name in type(row).__slots__ if hasattr(row, name)}
    got = [il.regimes._verdict(row, r) for r in rs]
    if row.early is None:
        assert [v.reason for v in row.verdicts] == [v[2] for v in il.regimes._VERDICTS]
        assert all(v.interval is row.interval for v in row.verdicts)
        assert all(v is row.verdicts[il.regimes._kind(row, r)] for v, r in zip(got, rs))
    else:
        assert all(v is row.early for v in got)
    assert {name: getattr(row, name) for name in before} == before


@settings(max_examples=300, deadline=None)
@given(boundary_row())
def test_verdict_and_zone_hold_between_the_bands(case):
    # region_map builds one cell for all the r between two of a row's band
    # edges: r outside every band, with no edge between them, must share
    # the verdict, the Pohozaev zone and the side of 1
    P, eta, row, rs = case
    edges = sorted(e for band in row.bands for e in band)
    outside = [r for r in rs if not any(lo <= r <= hi for lo, hi in row.bands)]
    for r, s in zip(outside, outside[1:]):
        if bisect_right(edges, r) == bisect_right(edges, s):
            assert il.regimes._verdict(row, r) == il.regimes._verdict(row, s)
            assert il.regimes._zone(row, r) == il.regimes._zone(row, s)
            assert (r > 1) == (s > 1)


@pytest.mark.parametrize("n_choices", [(2,), (3, 4, 5)], ids=["N2", "N3-5"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nonexistence_matches_the_reference_on_a_cold_and_a_warm_row(n_choices, data):
    # nonexistence reads the cached row: the first call after a cache clear
    # builds it, the second finds it
    P, eta, _, rs = data.draw(boundary_row(n_choices))
    for r in rs:
        if 0 <= eta < 2 and r > 1:
            il.regimes._row.cache_clear()
            cold = il.nonexistence(P, eta, r)
            assert cold == il.nonexistence(P, eta, r) == _nonexistence_reference(P, eta, r)
