"""Solver drivers on small grids; the full reference configuration lives
in the acceptance suite."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import inlslab as il
from inlslab import solver
from inlslab.functionals import Energy, _phi_energy, _residuals
from inlslab.solver import _coercive_init, _pin, _solve_tridiag


@pytest.fixture(scope="module")
def small_grid():
    return il.make_grid(1e-3, 1e3, 513, 3)


@pytest.fixture(scope="module")
def eigen_run(ref_params, small_grid):
    init = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    return il.minimize_rayleigh(small_grid, ref_params, init)


# ------------------------------------------------------------- rayleigh


def test_rayleigh_converges(eigen_run):
    rep = eigen_run
    assert rep.converged
    assert rep.el_res <= 1e-8
    assert rep.value > 0
    assert rep.eigen_rel_res <= 1e-4
    assert rep.pohozaev_res <= 1e-3


def test_rayleigh_descent_monotone_value(ref_params, small_grid, eigen_run):
    # the converged value never exceeds the quotient of the init
    init = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    assert eigen_run.value <= il.rayleigh(init, ref_params) + 1e-12


def test_rayleigh_fixed_point(ref_params, small_grid, eigen_run):
    again = il.minimize_rayleigh(small_grid, ref_params, eigen_run.profile)
    assert again.iters == 0
    assert again.value == pytest.approx(eigen_run.value, abs=1e-10)


def test_rayleigh_init_agreement(ref_params, small_grid, eigen_run):
    bump = il.sample_function(small_grid, "Bump", lo=1.0, hi=2.0)
    rep = il.minimize_rayleigh(small_grid, ref_params, bump)
    assert rep.converged
    assert rep.value == pytest.approx(eigen_run.value, rel=1e-4)


def test_rayleigh_zero_init(ref_params, small_grid):
    with pytest.raises(il.ZeroProfileError):
        il.minimize_rayleigh(
            small_grid, ref_params, il.RadialProfile(small_grid, np.zeros(small_grid.M))
        )


@pytest.mark.parametrize("values, error, message", [
    (lambda g: il.sample_function(il.make_grid(1e-3, 1e3, 257, 3), "Gaussian", sigma=1.0),
     il.DomainError, "different grid"),
    (lambda g: il.RadialProfile(g, np.eye(g.M)[0]), il.ZeroProfileError,
     "vanishes on the interior nodes"),
], ids=["foreign-grid", "inner-node-only"])
def test_rayleigh_rejects_an_unusable_init(ref_params, small_grid, values, error, message):
    # an init on another grid, or one that the inner pin zeroes, fails before the first step
    with pytest.raises(error, match=message):
        il.minimize_rayleigh(small_grid, ref_params, values(small_grid))


def test_rayleigh_solution_satisfies_el_equation(ref_params, small_grid, eigen_run):
    # A(u) = lambda B(u) in the weak discrete sense: the el_residual with
    # the eigen term expressed either through lambda or the term list
    u, lam = eigen_run.profile, eigen_run.value
    res_lambda = il.el_residual(u, ref_params, lam, [])
    res_term = il.el_residual(u, ref_params, 0.0, [il.TermSpec(lam, ref_params.a, ref_params.p)])
    assert res_lambda == pytest.approx(res_term, rel=1e-12)
    assert res_lambda <= 1e-8
    assert eigen_run.el_res == res_lambda  # the report's residual is the public one


def test_rayleigh_small_window_exact(ref_params):
    # the fast small-window solve, pinned to the last bit: a change to the
    # Newton kernels that alters any iterate moves the count or the value
    g = il.make_grid(1e-3, 1e3, 257, 3)
    rep = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
    assert rep.iters == 12
    assert rep.value == 1.3458659777074762
    # a set where (1/q) q != 1, so the numerator's Hessian factor (1/q) q (q-1)
    # mass is not (q-1) mass
    params = il.derive_params(5, 0.283, 3.053, 2.676)
    assert (1.0 / params.q) * params.q != 1.0
    g5 = il.make_grid(1e-3, 1e3, 257, 5)
    rep = il.minimize_rayleigh(g5, params, il.sample_function(g5, "Gaussian", sigma=1.0))
    assert rep.iters == 16
    assert rep.value == 2.6646753520299087


@pytest.mark.parametrize("family, shape, iters, value", [
    ("Gaussian", {"sigma": 1.0}, 13, 1.322663037312654),
    ("Bump", {"lo": 1.0, "hi": 2.0}, 19, 1.3226630373126542),
])
def test_rayleigh_reference_window_exact(ref_params, family, shape, iters, value):
    # the benchmark's reference solves from both inits, pinned to the bit
    # as test_rayleigh_small_window_exact
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    rep = il.minimize_rayleigh(g, ref_params, il.sample_function(g, family, **shape))
    assert (rep.iters, rep.value) == (iters, value)


def test_rayleigh_converges_on_finer_and_wider_grids(ref_params):
    # the reference window refined, and widened by a decade at each end at
    # the same node count; a window upper bound can only drop as it widens.
    # Both are benchmark solves, so they are pinned to the bit too
    lam_ref = 1.3226630373126538  # [1e-4, 1e4] x 1025, acceptance criterion 6
    for window, iters, value in (((1e-4, 1e4, 2049), 13, 1.322670110705293),
                                 ((1e-5, 1e5, 1025), 16, 1.3152053588828878)):
        g = il.make_grid(*window, 3)
        rep = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
        assert rep.converged and rep.el_res <= 1e-8
        assert (rep.iters, rep.value) == (iters, value)
    assert rep.value <= lam_ref


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_rayleigh_rejects_an_init_out_of_float_range(ref_params, small_grid):
    # |u|^p overflows to inf at 1e200 and underflows to 0 at 1e-200: the
    # solve must say so before it starts, not fail later on a lambda of inf
    u = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    for factor in (1e200, 1e-200):
        with pytest.raises(il.DomainError, match="float range"):
            il.minimize_rayleigh(small_grid, ref_params, il.RadialProfile(small_grid, factor * u.values))


def test_rayleigh_stops_on_its_own_below_the_roundoff_floor(ref_params, monkeypatch):
    # grad_tol 1e-300 is below el_res's roundoff floor: once a rejected trial
    # equals the iterate, which no larger shift moves, the engine stops, long
    # before its budget and without raising nu to 1e30
    g = il.make_grid(1e-3, 1e3, 257, 3)
    init = il.sample_function(g, "Gaussian", sigma=1.0)
    solves = _count_solves(monkeypatch)
    rep = il.minimize_rayleigh(g, ref_params, init, il.SolveOptions(grad_tol=1e-300))
    assert not rep.converged and (rep.iters, rep.value) == (19, 1.3458659777074762)
    assert len(solves) <= 45
    assert rep.el_res == il.el_residual(rep.profile, ref_params, rep.value, [])


@pytest.mark.parametrize("family, shape", [("Gaussian", {"sigma": 1.0}), ("Bump", {"lo": 1.0, "hi": 2.0})],
                         ids=["Gaussian", "Bump"])
@pytest.mark.parametrize("window", [(1e-3, 1e3, 257), (1e-4, 1e4, 1025), (1e-4, 1e4, 2049),
                                    (1e-5, 1e5, 1025), (1e-2, 1e2, 129), (2e-5, 1e4, 513)],
                         ids=lambda w: f"{w[0]:g}-{w[1]:g}x{w[2]}")
def test_rayleigh_value_is_the_quotient_of_its_profile(ref_params, window, family, shape):
    # the solver and the public functionals form |u|^r alike, so the reported
    # lambda is rayleigh(profile) bit for bit, and I - lambda J is one rounding
    g = il.make_grid(*window, 3)
    rep = il.minimize_rayleigh(g, ref_params, il.sample_function(g, family, **shape))
    assert rep.value == il.rayleigh(rep.profile, ref_params)
    assert rep.eigen_rel_res <= 2.0 ** -53


def test_rayleigh_defaults_to_the_centred_gaussian(ref_params):
    # on a window away from s = 1 the default start is the Gaussian of width
    # sqrt(s_min s_max) = 1e4, and the solve from it is the same, bit for bit
    g = il.make_grid(100.0, 1e6, 257, 3)
    explicit = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1e4))
    assert il.minimize_rayleigh(g, ref_params) == explicit  # equality covers the profile's bits
    assert explicit.converged and (explicit.iters, explicit.value) == (37, 1.4237571288795705)


@pytest.mark.parametrize("family", ["Gaussian", "AubinTalenti"])
def test_centred_start_dilates_with_the_window(family):
    # the default start on a window and on its dilates by 4 decades up and down
    # agree node for node to 1e-13 relative; in the Gaussian's tail below
    # e^-99, exp scales the last-bit rounding of s^2 / (2 sigma^2) by ln(1/u)
    u = solver._start(il.make_grid(1e-3, 1e3, 257, 3), None, family)
    for window in ((10.0, 1e7), (1e-7, 1e-1)):
        v = solver._start(il.make_grid(*window, 257, 3), None, family)
        assert np.array_equal(u == 0, v == 0), window
        nz = u != 0
        assert (np.abs(u[nz] - v[nz]) <= 1e-15 * (1.0 - np.log(u[nz])) * u[nz]).all(), window
        assert (np.abs(u - v) <= 1e-13 * u)[u > math.exp(-99.0)].all(), window


# ------------------------------------------------------------- coercive


def test_coercive_trivial_configuration(ref_params, small_grid):
    rep = il.minimize_coercive(small_grid, ref_params, [], 0.0)
    assert rep.converged and rep.value == 0.0 and rep.profile.is_zero()


def test_coercive_negative_level(ref_params):
    grid = il.make_grid(2e-5, 1e4, 1025, 3)
    rep = il.minimize_coercive(grid, ref_params, [il.TermSpec(1.0, 1.8, 2.2)], 0.0)
    assert rep.converged
    assert rep.value < 0
    assert rep.el_res <= 1e-8
    # the global minimum, not another local one (-3.934 sits on a sign-changing profile)
    assert rep.value == pytest.approx(-9.653662119594074, rel=1e-9)
    # the benchmark's coercive solve, pinned to the bit
    assert (rep.iters, rep.value) == (11, -9.653662119592063)


@pytest.mark.parametrize("lam, level", [(-0.7, -1.1389834415233366), (-0.9, -0.7611359894102003),
                                         (-1.5, -0.263931083898842)])
def test_coercive_starts_from_the_gaussian_when_no_scanned_energy_is_negative(ref_params, lam, level):
    # no scanned profile has a negative energy here, and the least was a far
    # shift whose values (about 1e-273) have an energy and residual that round
    # to 0: the solve reported the level 0 as converged after 0 steps
    grid = il.make_grid(1e-3, 1e3, 257, 3)
    terms = [il.TermSpec(1.0, 1.8, 2.2)]
    energy = _phi_energy(grid, ref_params, lam, terms)
    assert not energy.value(_coercive_init(grid, energy.terms)) < 0
    rep = il.minimize_coercive(grid, ref_params, terms, lam)
    assert rep.converged and rep.el_res <= 1e-8
    assert (rep.iters, rep.value) == (8, level)


def test_coercive_rejects_scaled_borderline(ref_params, small_grid):
    rs = il.scaled_threshold(ref_params, 1.8)
    with pytest.raises(il.NotCoerciveConfig):
        il.minimize_coercive(small_grid, ref_params, [il.TermSpec(1.0, 1.8, rs)], 0.0)


def test_coercive_rejects_superscaled_positive(ref_params, small_grid):
    with pytest.raises(il.NotCoerciveConfig):
        il.minimize_coercive(small_grid, ref_params, [il.TermSpec(1.0, 0.5, 5.0)], 0.0)


def test_coercive_rejects_positive_lambda_without_subscaled(ref_params, small_grid):
    with pytest.raises(il.NotCoerciveConfig):
        il.minimize_coercive(small_grid, ref_params, [], 1.0)


@pytest.mark.parametrize("terms, lam, message", [
    ([il.TermSpec(1.0, 1.8, 10.0)], 0.0, r"not an admissible pair \(R_ABOVE_UPPER\)"),
    ([il.TermSpec(1.0, 1.8, 2.2), il.TermSpec(-1.0, 1.8, 2.25)], 0.5,
     "sign-negative terms to be Superscaled, got Subscaled"),
    ([il.TermSpec(1.0, 1.8, 2.25), il.TermSpec(-1.0, 1.8, 2.2)], 0.0,
     "must scale faster than the dominant subscaled term"),
    # one pass in list order: the first faulty term names the error, not the second's R_ABOVE_UPPER
    ([il.TermSpec(1.0, 0.5, 5.0), il.TermSpec(1.0, 1.8, 10.0)], 0.0,
     r"positive term \(eta=0.5, r=5.0\) is Superscaled"),
    # the positive terms are checked before any negative term is held against them
    ([il.TermSpec(-1.0, 1.8, 2.2), il.TermSpec(1.0, 0.5, 5.0)], 0.0,
     r"positive term \(eta=0.5, r=5.0\) is Superscaled"),
], ids=["inadmissible", "negative-not-superscaled", "negative-not-faster", "first-fault-names-the-error",
        "positive-terms-first"])
def test_coercive_rejects_a_non_coercive_term_list(ref_params, small_grid, terms, lam, message):
    with pytest.raises(il.NotCoerciveConfig, match=message):
        il.minimize_coercive(small_grid, ref_params, terms, lam)


def test_coercive_leaves_zero_coefficient_terms_unclassified(ref_params, small_grid):
    # (1.8, 10) is not an admissible pair, but a term with c = 0 is not classified
    rep = il.minimize_coercive(small_grid, ref_params, [il.TermSpec(0.0, 1.8, 10.0)], 0.0)
    assert rep.converged and (rep.iters, rep.value) == (0, 0.0) and rep.profile.is_zero()


def test_coercive_mixed_signs(ref_params):
    # subscaled positive + faster-scaling negative term stays coercive
    grid = il.make_grid(2e-5, 1e4, 1025, 3)
    terms = [il.TermSpec(1.0, 1.8, 2.2), il.TermSpec(-0.5, 1.5, 2.7)]
    rep = il.minimize_coercive(grid, ref_params, terms, 0.0)
    assert rep.converged and rep.value < 0


def test_coercive_deeper_well_for_larger_coefficient(ref_params):
    grid = il.make_grid(2e-5, 1e4, 513, 3)
    v1 = il.minimize_coercive(grid, ref_params, [il.TermSpec(1.0, 1.8, 2.2)], 0.0).value
    v2 = il.minimize_coercive(grid, ref_params, [il.TermSpec(2.0, 1.8, 2.2)], 0.0).value
    assert v2 < v1 < 0


def test_coercive_reported_residual_is_the_public_one(ref_params):
    # the solver and el_residual evaluate the same discrete Phi
    grid = il.make_grid(2e-5, 1e4, 513, 3)
    for terms, lam in (([il.TermSpec(1.0, 1.8, 2.2)], 0.0),
                       ([il.TermSpec(1.0, 1.8, 2.2), il.TermSpec(-0.5, 1.0, 3.8)], 0.2)):
        rep = il.minimize_coercive(grid, ref_params, terms, lam)
        assert rep.converged
        assert rep.el_res == il.el_residual(rep.profile, ref_params, lam, terms)
        assert rep.value == il.phi(rep.profile, ref_params, lam, terms)


def _coercive_init_loop(grid, terms):
    # minimize_coercive's init one candidate A exp(-s^2 / (2 sigma^2)) at a time, by Energy.value
    energy = Energy(grid, terms)
    lo, span = math.log(grid.s_min) - 2.0, math.log(grid.s_max / grid.s_min) + 4.0
    n = min(64, int(2.0 * span) + 1)
    best, init = 0.0, None
    for sigma in np.exp(lo + max(0.5, span / 63.0) * np.arange(n)):
        row = _pin(il.sample_function(grid, "Gaussian", sigma=float(sigma)).values)
        for A in np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25)):
            val = energy.value(A * row)
            if val < best:  # strict: the first of equal energies wins, and a NaN never does
                best, init = val, A * row
    if init is None:  # no negative energy: the Gaussian centred on the window
        init = _pin(il.sample_function(grid, "Gaussian", sigma=math.sqrt(grid.s_min * grid.s_max)).values)
    return init


#: the energy terms of acceptance criterion 7: Phi of the reference params with TermSpec(1, 1.8, 2.2)
_CRITERION_7 = [(1.0 / 3.5, 1.0, 3.5), (-1.0 / 2.2, 1.8, 2.2)]


@pytest.mark.parametrize("window, terms", [
    ((1e-3, 1e3, 257), _CRITERION_7),
    ((1e-3, 1e3, 257), [(1.0 / 3.5, 1.0, 3.5), (-0.5 / 3.0, 4.0 / 3.0, 3.0), (-1.0 / 2.2, 1.8, 2.2),
                        (0.3 / 2.9, 1.5, 2.9)]),
    # energies that overflow to inf - inf = NaN at the large amplitudes, past
    # the least energy; below the overflow the first two terms cancel
    # exactly, so the energy is 1/2 dirichlet + the last two
    ((1e-3, 1e3, 257), [(1e200, 1.8, 40.0), (-1e200, 1.8, 40.0), (1.0, 1.0, 8.0), (-1.0, 1.8, 3.0)]),
    # NaN at every candidate: the centred Gaussian
    ((1e-3, 1e3, 257), [(1.0, 1.0, 3.5), (math.inf, 1.8, 2.2), (-math.inf, 1.8, 2.2)]),
    # energies that overflow to -inf tie, and the first of them wins
    ((1e-3, 1e3, 257), [(1.0, 1.0, 3.5), (-1e300, 1.8, 2.2)]),
    # every energy positive: the centred Gaussian, of width 0.1 on this window
    ((1e-3, 10.0, 258), [(1.0, 1.0, 3.5)]),
    # the criterion's own window at three sizes
    ((2e-5, 1e4, 513), _CRITERION_7),
    ((2e-5, 1e4, 1025), _CRITERION_7),
    ((2e-5, 1e4, 4097), _CRITERION_7),
], ids=[f"terms{i}" for i in range(4)] + ["ties", "positive"] + [f"criterion7-x{M}" for M in (513, 1025, 4097)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coercive_init_matches_the_amplitude_loop(window, terms):
    grid = il.make_grid(*window, 3)
    assert _coercive_init(grid, terms).tobytes() == _coercive_init_loop(grid, terms).tobytes()


@pytest.mark.parametrize("window, term", [
    ((3.0, 1e5, 257), (1.0, 1.8, 2.2)),
    ((10.0, 1e6, 257), (1.0, 1.8, 2.2)),
    ((100.0, 1e6, 257), (1.0, 1.8, 2.2)),
    ((30.0, 1e3, 257), (2.0, 1.9, 2.1)),
], ids=["3-1e5", "10-1e6", "100-1e6", "30-1e3"])
def test_coercive_reaches_a_negative_level_on_windows_away_from_one(ref_params, window, term):
    # the init scan used to miss the negative level on these windows: it
    # ended at +1.09e-14 and +8.8e-45 as converged, exited with "Gaussian with
    # sigma=1.0 vanishes", and ended at 0.0 after 0 steps. Each window cuts
    # the minimizer at its inner end, so the Pohozaev identity misses by the
    # pin's boundary term: 0.7 % to 1.5 %, the same at M = 1025, not 1e-3
    rep = il.minimize_coercive(il.make_grid(*window, 3), ref_params, [il.TermSpec(*term)], 0.0)
    assert rep.converged and rep.el_res <= 1e-8
    assert rep.value < 0
    assert rep.pohozaev_res <= 2e-2


def test_coercive_init_scans_at_most_64_widths():
    # a 200-decade window: the step between widths grows, so each array the
    # scan makes holds at most 64 x M values
    grid = il.make_grid(1e-100, 1e100, 4097, 3)
    tracemalloc.start()
    try:
        _coercive_init(grid, _CRITERION_7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 64 * grid.M * 8


# --------------------------------------------------------------- newton


def test_newton_refines_crude_state(ref_params, small_grid):
    init = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    crude = il.minimize_rayleigh(
        small_grid, ref_params, init, il.SolveOptions(max_iters=10, grad_tol=1e-12)
    )
    assert not crude.converged  # on purpose: an unfinished state
    ref = il.newton_refine(crude.profile, ref_params, crude.value, [])
    assert ref.converged
    assert ref.el_res <= 1e-10
    assert crude.el_res / ref.el_res >= 1e3


def test_newton_reported_residual_is_the_public_one(ref_params, small_grid):
    init = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    crude = il.minimize_rayleigh(
        small_grid, ref_params, init, il.SolveOptions(max_iters=10, grad_tol=1e-12)
    )
    rep = il.newton_refine(crude.profile, ref_params, crude.value, [])
    assert rep.el_res == il.el_residual(rep.profile, ref_params, crude.value, [])


def test_newton_reports_the_public_residuals(ref_params, small_grid):
    # with lambda = 0 and no terms the Pohozaev balance has nothing on its
    # right side: the report gives the public residual, about 1, not 0
    u = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    rep = il.newton_refine(u, ref_params, 0.0, [], il.SolveOptions(max_iters=3))
    assert rep.pohozaev_res == il.pohozaev_residual(rep.profile, ref_params, [])
    assert rep.pohozaev_res == pytest.approx(1.0)
    assert rep.el_res == il.el_residual(rep.profile, ref_params, 0.0, [])
    assert rep.eigen_rel_res == il.eigen_relation_residual(rep.profile, ref_params, 0.0)


@pytest.mark.filterwarnings("error")
def test_newton_stops_on_a_non_finite_hessian(ref_params, monkeypatch):
    # |u|^(r-2) overflows at a subnormal node for r = 1.01, so no shift
    # gives a finite step matrix: the first solve ends the search, and the
    # solve reports where it started
    g = il.make_grid(1e-3, 1e3, 257, 3)
    vals = np.array(il.sample_function(g, "Gaussian", sigma=1.0).values)
    vals[100] = 5e-324
    solves = _count_solves(monkeypatch)
    rep = il.newton_refine(il.RadialProfile(g, vals), ref_params, 0.0, [il.TermSpec(-1.0, 1.8, 1.01)])
    assert not rep.converged and rep.iters == 0
    assert len(solves) == 1
    assert np.array_equal(rep.profile.values, _pin(vals))


def test_newton_zero_is_critical(ref_params, small_grid):
    z = il.RadialProfile(small_grid, np.zeros(small_grid.M))
    rep = il.newton_refine(z, ref_params, 0.0, [il.TermSpec(1.0, 0.5, 3.0)])
    assert rep.converged and rep.el_res == 0.0 and rep.profile.is_zero()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_newton_domain(ref_params, small_grid):
    u = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    with pytest.raises(il.DomainError):
        il.newton_refine(u, il.derive_params(4, 0.3, 3.378, 3.241), 1.0, [])
    for lam in (math.nan, math.inf):
        with pytest.raises(il.DomainError):
            il.newton_refine(u, ref_params, lam, [])
    # the energy overflows at 1e200 (it used to return a NaN report)
    with pytest.raises(il.DomainError, match="float range"):
        il.newton_refine(il.RadialProfile(small_grid, 1e200 * u.values), ref_params, 1.0, [])


def test_coercive_rejects_non_finite_lambda(ref_params, small_grid):
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(il.DomainError):
            il.minimize_coercive(small_grid, ref_params, [il.TermSpec(1.0, 1.8, 2.2)], lam)


def test_newton_far_from_solution_may_fail(ref_params, small_grid):
    rng = np.random.default_rng(5)
    u = il.RadialProfile(small_grid, 10.0 * rng.standard_normal(small_grid.M))
    rep = il.newton_refine(u, ref_params, 1.0, [], il.SolveOptions(max_iters=5))
    assert isinstance(rep.converged, bool)  # divergence reported, not raised
    # a critical point may change sign: the refinement does not fold its
    # trials to |u| as the minimizers do
    assert (rep.profile.values < 0).any()


def test_newton_refines_a_perturbed_reference_solution(ref_params):
    # a seeded relative 1e-3 perturbation of the converged [1e-3,1e3]x257
    # solution is polished back to el_res <= 1e-10 in a few Newton steps
    g = il.make_grid(1e-3, 1e3, 257, 3)
    base = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
    noise = np.random.default_rng(0).standard_normal(g.M)
    u = il.RadialProfile(g, base.profile.values * (1.0 + 1e-3 * noise))
    rep = il.newton_refine(u, ref_params, base.value, [])
    assert rep.converged and rep.iters <= 5
    assert rep.el_res <= 1e-10


def test_newton_refine_runs_on_the_options_it_is_given(ref_params):
    # the refinement stops at the caller's grad_tol: the converged eigen
    # profile meets 1e-6 already, so no step is taken
    g = il.make_grid(1e-3, 1e3, 257, 3)
    base = il.minimize_rayleigh(g, ref_params)
    rep = il.newton_refine(base.profile, ref_params, base.value, [], il.SolveOptions(grad_tol=1e-6))
    assert rep.converged and rep.iters == 0 and rep.profile == base.profile


def test_newton_evaluates_the_energy_at_the_start_and_on_return(ref_params, monkeypatch):
    # a critical-point search accepts on the residual alone, so it computes
    # no trial's value: inside the engine the energy's value is taken at the
    # start and on the returned point only, though every trial gets a point
    g = il.make_grid(1e-3, 1e3, 257, 3)
    base = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
    noise = np.random.default_rng(0).standard_normal(g.M)
    u = il.RadialProfile(g, base.profile.values * (1.0 + 1e-2 * noise))
    inside, values, points = [False], [], []
    newton, value, point = solver._newton, Energy.value, Energy.point

    def watched_newton(*args, **kwargs):
        inside[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            inside[0] = False

    def watched_value(self, x):
        values.append(inside[0])
        return value(self, x)

    def watched_point(self, vals):
        points.append(inside[0] and isinstance(vals, np.ndarray))  # a point built, not passed through
        return point(self, vals)

    monkeypatch.setattr(solver, "_newton", watched_newton)
    monkeypatch.setattr(Energy, "value", watched_value)
    monkeypatch.setattr(Energy, "point", watched_point)
    terms = [il.TermSpec(-0.1, 1.8, 4.0)]
    rep = il.newton_refine(u, ref_params, base.value, terms)
    assert rep.iters >= 3 and values.count(True) == 2
    assert points.count(True) >= rep.iters + 1  # the start and each accepted trial
    assert rep.value == il.phi(rep.profile, ref_params, base.value, terms)


@pytest.mark.parametrize("grad_tol", [1e-6, 1e-8, 1e-9])
def test_engine_residual_is_the_reported_el_res(ref_params, monkeypatch, grad_tol):
    # the engine stops on its own residual and the report quotes the public
    # el_residual; the two must be the same float, converged or not, so that
    # converged always agrees with the reported el_res
    finals = []
    newton = solver._newton

    def recording(*args, **kwargs):
        out = newton(*args, **kwargs)
        finals.append(out[2].hex())
        return out

    monkeypatch.setattr(solver, "_newton", recording)
    opts = il.SolveOptions(grad_tol=grad_tol)
    term = [il.TermSpec(1.0, 1.8, 2.2)]
    for window in ((1e-3, 1e3, 257), (1e-4, 1e4, 1025), (1e-2, 1e2, 129), (2e-5, 1e4, 513), (3.0, 1e5, 257)):
        g = il.make_grid(*window, 3)
        init = il.sample_function(g, "Gaussian", sigma=math.sqrt(g.s_min * g.s_max))
        ray = il.minimize_rayleigh(g, ref_params, init, opts)
        reports = [ray, il.minimize_coercive(g, ref_params, term, 0.0, opts),
                   il.minimize_coercive(g, ref_params, term, -0.9, opts),
                   il.newton_refine(ray.profile, ref_params, ray.value, [], il.SolveOptions(500, 1e-10))]
        assert [rep.el_res.hex() for rep in reports] == finals[-4:], window
    assert len(finals) == 20


# ----------------------------------------------------------------- probe


def test_probe_positive_and_near_aubin_talenti(small_grid):
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    val = il.probe_best_constant(g, 3, 0.0)
    assert val > 0
    at = il.sample_function(g, "AubinTalenti", scale=1.0)
    c = il.critical_exponent(3, 0.0)
    quotient = il.dirichlet_energy(at) / il.weighted_integral(at, c, 0.0) ** (2.0 / c)
    assert val <= quotient * (1 + 1e-12)  # minimization can only improve
    assert val == pytest.approx(quotient, rel=0.05)


def test_probe_warns_when_it_stops_short():
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    with pytest.warns(RuntimeWarning, match="residual"):
        il.probe_best_constant(g, 3, 0.0, il.SolveOptions(max_iters=5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the README probe, a shifted init and a small window converge
        il.probe_best_constant(g, 3, 0.0)
        at = il.sample_function(g, "AubinTalenti", scale=1.0)
        il.probe_best_constant(g, 3, 0.0, init=il.scale(at, math.exp(16 * g.h), 0.5))
        il.probe_best_constant(il.make_grid(1e-3, 1e3, 257, 3), 3, 0.0)


def _lieb_constant(N, eta):
    """Lieb's S_eta = (N-2)(N-eta) [omega/(2-eta) Gamma(k)^2/Gamma(2k)]^((2-eta)/(N-eta)),
    k = (N-eta)/(2-eta): the best constant of |grad u|_2^2 >= S (int |u|^c |x|^-eta)^(2/c)."""
    k = (N - eta) / (2.0 - eta)
    base = il.sphere_area(N) / (2.0 - eta) * math.gamma(k) ** 2 / math.gamma(2.0 * k)
    return (N - 2) * (N - eta) * base ** ((2.0 - eta) / (N - eta))


def test_lieb_constant_matches_its_special_cases():
    # Sobolev's constant at eta = 0, and the quotient of the explicit
    # extremal (1+s)^-1 at (N, eta) = (3, 1)
    for N in range(3, 7):
        talenti = math.pi * N * (N - 2) * (math.gamma(N / 2) / math.gamma(N)) ** (2.0 / N)
        assert abs(_lieb_constant(N, 0.0) - talenti) <= 2 * math.ulp(talenti), N
    exact = (4.0 / 3.0) * math.sqrt(3.0 * math.pi / 2.0)
    assert abs(_lieb_constant(3, 1.0) - exact) <= 2 * math.ulp(exact)


def test_probe_weighted_case_against_closed_form():
    # independent oracle: Lieb's constant, on [1e-4, 1e4] x 1025 nodes. At
    # N = 3 the window error dominates, and the discrete minimum lies above
    # it (by 1.8e-3 at eta = 1.5); at N = 4 and 5 it is within 3e-5
    for N in (3, 4, 5):
        g = il.make_grid(1e-4, 1e4, 1025, N)
        for eta in (0.0, 0.5, 1.0, 1.5):
            val, exact = il.probe_best_constant(g, N, eta), _lieb_constant(N, eta)
            assert val == pytest.approx(exact, rel=2e-3), (N, eta)
            assert N > 3 or val >= exact, eta


def test_probe_init_scaling_invariance():
    # grid-exact rescaling of the init along the gradient-critical orbit
    # (amplitude rate (N-2)/2) leaves the converged value unchanged
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    init = il.sample_function(g, "AubinTalenti", scale=1.0)
    v1 = il.probe_best_constant(g, 3, 0.0, init=init)
    shifted = il.scale(init, math.exp(16 * g.h), (3 - 2) / 2.0)
    v2 = il.probe_best_constant(g, 3, 0.0, init=shifted)
    assert v2 == pytest.approx(v1, rel=1e-6)


def test_probe_default_dilates_with_the_window():
    # the default start is the Aubin-Talenti profile centred on the window, so
    # a window and its dilate by 4 decades give the same S to roundoff
    S = il.probe_best_constant(il.make_grid(100.0, 1e6, 257, 3), 3, 0.0)
    assert S == pytest.approx(il.probe_best_constant(il.make_grid(1e-2, 1e2, 257, 3), 3, 0.0), rel=1e-15, abs=0)


def test_probe_exact():
    # pinned to the last bit, as test_rayleigh_small_window_exact
    assert il.probe_best_constant(il.make_grid(1e-3, 1e3, 257, 3), 3, 0.0) == 5.495065542814473
    assert il.probe_best_constant(il.make_grid(1e-4, 1e4, 1025, 3), 3, 1.0) == 2.89606421203295


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_probe_rejects_an_init_out_of_float_range():
    # |u|^6 of 1e200 x Aubin-Talenti overflows; the normalization by it
    # would divide the init down to zero
    g = il.make_grid(1e-3, 1e3, 257, 3)
    at = il.sample_function(g, "AubinTalenti", scale=1.0)
    for factor in (1e200, 1e-200):
        with pytest.raises(il.DomainError, match="positive float"):
            il.probe_best_constant(g, 3, 0.0, init=il.RadialProfile(g, factor * at.values))


def test_probe_rejects_a_foreign_init():
    g = il.make_grid(1e-3, 1e3, 257, 3)
    for other in (il.make_grid(1e-3, 2e3, 257, 3), il.make_grid(1e-3, 1e3, 129, 3)):
        with pytest.raises(il.DomainError):
            il.probe_best_constant(g, 3, 0.0, init=il.sample_function(other, "AubinTalenti", scale=1.0))


def test_solvers_reject_a_grid_whose_inner_weights_underflow(ref_params):
    # mass(0) = omega h w s^3 is 0 on nodes 0-4 of this window, and the
    # dual norm divides by it: each solve used to stop after 0 steps at a NaN residual
    g = il.make_grid(1e-110, 1.0, 257, 3)
    underflow = r"the weight of free node 1 \(s = 2\.68959878557\d*e-110\) underflows to 0"
    with pytest.raises(il.DomainError, match=underflow):
        il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
    with pytest.raises(il.DomainError, match=underflow):
        il.minimize_coercive(g, ref_params, [il.TermSpec(1.0, 1.8, 2.2)])
    with pytest.raises(il.DomainError, match=underflow):
        il.probe_best_constant(g, 3, 0.5)


def test_probe_domain():
    g = il.make_grid(1e-2, 1e2, 64, 2)
    with pytest.raises(il.DomainError):
        il.probe_best_constant(g, 2, 0.0)
    g3 = il.make_grid(1e-2, 1e2, 64, 3)
    with pytest.raises(il.DomainError):
        il.probe_best_constant(g3, 3, 2.5)
    g4 = il.make_grid(1e-2, 1e2, 64, 4)
    with pytest.raises(il.DomainError, match="grid dimension does not match N"):
        il.probe_best_constant(g4, 3, 0.0)


def test_eigenvalue_refinement_trend(ref_params, capsys):
    # soft check: the window upper bound drifts with resolution by far less
    # than its distance to the coarse-grid value; printed, lightly asserted
    vals = []
    for M in (257, 513, 1025):
        g = il.make_grid(1e-3, 1e3, M, 3)
        init = il.sample_function(g, "Gaussian", sigma=1.0)
        vals.append(il.minimize_rayleigh(g, ref_params, init).value)
    with capsys.disabled():
        print(f"\n[refinement trend] lambda at M=257,513,1025: "
              f"{vals[0]:.8f}, {vals[1]:.8f}, {vals[2]:.8f}")
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 1e-6


# --------------------------------------------------------------- kernels


def _count_solves(monkeypatch):
    """The shifts of every step-system solve made after this call."""
    shifts = []

    class Counting(solver._Steps):
        def solve(self, nu, rhs):
            shifts.append(nu)
            return super().solve(nu, rhs)

    monkeypatch.setattr(solver, "_Steps", Counting)
    return shifts


def test_newton_retries_a_singular_step_system_at_four_times_the_shift(ref_params, monkeypatch):
    # a zero pivot in the first step system raises SingularHessian; the step
    # is retried at 4 nu, and the solve still reaches its pinned value
    shifts = []

    class FirstSingular(solver._Steps):
        def solve(self, nu, rhs):
            shifts.append(nu)
            if len(shifts) == 1:
                raise il.SingularHessian("singular matrix")
            return super().solve(nu, rhs)

    monkeypatch.setattr(solver, "_Steps", FirstSingular)
    rep = il.minimize_rayleigh(il.make_grid(1e-3, 1e3, 257, 3), ref_params)
    assert shifts[:2] == [1.0, 4.0]
    assert rep.converged and (rep.iters, rep.value) == (13, 1.3458659777074762)


def _assert_same_bits(ab, rhs):
    # _solve_tridiag loads LAPACK from scipy's extension file, without the
    # scipy.linalg package; its solution must be solve_banded's and that of
    # dgttrf + dgttrs, bit for bit. It consumes a copy of ab here, and it
    # must leave rhs as it was (the Newton engine retries a shift with the
    # same right-hand side)
    from scipy.linalg import lapack, solve_banded

    ab_in, rhs_in = ab.copy(), rhs.copy()
    x = _solve_tridiag(ab.copy(), rhs)
    assert x.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()
    *factors, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    assert info == 0
    assert x.tobytes() == lapack.dgttrs(*factors, rhs)[0].tobytes()
    assert ab.tobytes() == ab_in.tobytes() and rhs.tobytes() == rhs_in.tobytes()


def _driver_runs(P, g, opts):
    """A run of each driver on g. The first three solve for Phi, whose
    operator term makes their shift operator stiffness + 1/2 mass(b);
    the probe's numerator has no terms, so its shift is the stiffness."""
    gauss = il.sample_function(g, "Gaussian", sigma=1.0)
    bump = il.sample_function(g, "Bump", lo=1.0, hi=2.0)  # its Rayleigh solve rejects shifts
    return {
        "rayleigh": lambda: il.minimize_rayleigh(g, P, bump, opts),
        "coercive": lambda: il.minimize_coercive(g, P, [il.TermSpec(1.0, 1.8, 2.2)], 0.0, opts),
        "refine": lambda: il.newton_refine(gauss, P, 1.0, [], opts),
        "probe": lambda: solver._probe(g, 3, 0.0, opts, None),
    }


def test_preconditioner_solve_matches_solve_banded(ref_params, monkeypatch):
    # each driver's shift operator, derived from its objective, is the band
    # the drivers built themselves before: stiffness + 1/2 mass(b) on the
    # free nodes, or the stiffness alone for the probe, bit for bit; solved
    # on the reference grid against right-hand sides spread over 24 decades.
    # The step system's own solve, which dgtsv does in its work band, is
    # solve_banded's of H + nu P, and leaves H, P and the right-hand side as
    # they were
    from scipy.linalg import solve_banded

    g = il.make_grid(1e-4, 1e4, 1025, 3)
    q = g.quad
    made = []

    class Recording(solver._Steps):
        def __init__(self, obj):
            super().__init__(obj)
            made.append(self)

    monkeypatch.setattr(solver, "_Steps", Recording)
    phi_shift = q.stiff.copy()
    phi_shift[1, :] += 0.5 * q.mass(ref_params.b)[q.free]
    rng = np.random.default_rng(7)
    for name, run in _driver_runs(ref_params, g, il.SolveOptions(max_iters=1)).items():
        run()
        steps = made.pop()
        assert not made
        shift = steps.shift
        assert shift.tobytes() == (q.stiff if name == "probe" else phi_shift).tobytes(), name
        for _ in range(50 if name == "rayleigh" else 5):
            rhs = rng.standard_normal(len(shift[1])) * 10.0 ** rng.uniform(-12, 12, len(shift[1]))
            _assert_same_bits(shift, rhs)
        hess, rhs_in = steps.hess.copy(), rhs.copy()
        for nu in (1e-8, 1.0, 4e3):
            d = steps.solve(nu, rhs)
            assert d.tobytes() == solve_banded((1, 1), hess + nu * shift, rhs).tobytes(), name
        assert steps.hess.tobytes() == hess.tobytes() and steps.shift.tobytes() == shift.tobytes()
        assert rhs.tobytes() == rhs_in.tobytes()


def test_every_trial_solve_goes_through_the_step_system(ref_params, monkeypatch):
    # a counting step system sees every trial's solve: each LAPACK call of
    # a run is made inside its solve, the rejected shifts' too, and the
    # runs keep their bits
    g = il.make_grid(1e-3, 1e3, 257, 3)
    runs = _driver_runs(ref_params, g, il.SolveOptions())
    before = {name: run() for name, run in runs.items()}
    inside, steps, seam, lapack = [False], [], [], []
    solve_tridiag = solver._solve_tridiag

    def counted_tridiag(ab, rhs):
        lapack.append(inside[0])
        return solve_tridiag(ab, rhs)

    class Counting(solver._Steps):
        def linearize(self, pt, value, scale):
            steps.append(1)
            super().linearize(pt, value, scale)

        def solve(self, nu, rhs):
            seam.append(nu)
            inside[0] = True
            try:
                return super().solve(nu, rhs)
            finally:
                inside[0] = False

    monkeypatch.setattr(solver, "_solve_tridiag", counted_tridiag)
    monkeypatch.setattr(solver, "_Steps", Counting)
    rejected = 0
    for name, run in runs.items():
        for counts in (steps, seam, lapack):
            counts.clear()
        after = run()
        assert after == before[name], name  # a report's equality covers its profile's bits
        assert len(seam) == len(lapack) >= len(steps) > 0 and all(lapack), name
        assert name == "probe" or len(steps) >= after.iters
        rejected += len(seam) - len(steps)
    assert rejected > 0


def test_shift_follows_the_gain_ratio(ref_params, monkeypatch):
    # on the criterion-7 coercive solve each Armijo step's next shift is
    # nu/8 exactly when the decrease beats 3/4 of the model's
    # -(g.d + d^T H d / 2), with H the band the step was solved on, and
    # nu/2 otherwise; a rejected shift grows 4x
    g = il.make_grid(2e-5, 1e4, 1025, 3)
    steps = []  # per step: value at its start, its band, and each trial's (nu, rhs, d)

    class Recording(solver._Steps):
        def linearize(self, pt, value, scale):
            super().linearize(pt, value, scale)
            steps.append((value, scale, self.hess.copy(), []))

        def solve(self, nu, rhs):
            d = super().solve(nu, rhs)
            steps[-1][3].append((nu, rhs.copy(), d.copy()))
            return d

    monkeypatch.setattr(solver, "_Steps", Recording)
    rep = il.minimize_coercive(g, ref_params, [il.TermSpec(1.0, 1.8, 2.2)], 0.0)
    assert rep.converged and len(steps) == rep.iters
    ratios = []
    for (f0, scale, hess, trials), (fv, *_, later) in zip(steps, steps[1:]):
        nu, rhs, d = trials[-1]
        assert [t[0] for t in trials] == [nu / 4.0 ** k for k in range(len(trials) - 1, -1, -1)]
        H = np.diag(hess[1]) + np.diag(hess[0, 1:], 1) + np.diag(hess[2, :-1], -1)
        slope = -float(rhs @ d) / scale
        assert fv - f0 <= 1e-4 * slope < 0  # every step passes the Armijo test
        pred = -(slope + 0.5 * float(d @ H @ d) / scale)
        ratios.append((f0 - fv) / pred)
        assert later[0][0] == (nu / 8.0 if pred > 0 and f0 - fv > 0.75 * pred else nu / 2.0)
    assert min(ratios) < 0.75 < max(ratios)  # both branches are taken
    # a model that predicts no decrease (pred <= 0, H far from definite) only halves nu
    monkeypatch.setattr(Recording, "curvature", lambda self, d: 1e300)
    steps.clear()
    rep = il.minimize_coercive(g, ref_params, [il.TermSpec(1.0, 1.8, 2.2)], 0.0)
    assert len(steps) == rep.iters > 11
    assert all(later[0][0] == trials[-1][0] / 2.0 for (*_, trials), (*_, later) in zip(steps, steps[1:]))


def test_newton_refine_keeps_its_shift_schedule_and_bits(ref_params, monkeypatch):
    # the critical-point mode keeps its first shift 1e-8, halving after every
    # accepted step and 4x growth on a rejected one: from the unit Gaussian
    # (to the eigenfunction) and from half of it (to 0, after rejections),
    # each report and its profile are pinned to the bit
    g = il.make_grid(1e-3, 1e3, 257, 3)
    gauss = il.sample_function(g, "Gaussian", sigma=1.0).values
    shifts = _count_solves(monkeypatch)
    # each shift as 1e-8 times a power of 2, one exponent per trial
    for amp, (iters, value, el_res, exponents, digest) in {
        1.0: (11, -6.394884621840902e-14, 1.7217963470910343e-11, range(0, -11, -1),
              "6f86f9b5fc95f755c659e6099b56631d1c2ea6da67f8c44878804b2ecfd08118"),
        0.5: (12, 9.048450131381137e-20, 1.85142207966051e-12, [0, -1, *range(1, 24, 2), *range(22, 12, -1)],
              "e6bfc11871af91561e66c0d4a3fb6ce089d95871085b3d100bfe9ac95ef54f98"),
    }.items():
        shifts.clear()
        rep = il.newton_refine(il.RadialProfile(g, amp * gauss), ref_params, 1.3458659777074777, [])
        assert rep.converged and (rep.iters, rep.value, rep.el_res) == (iters, value, el_res)
        assert shifts == [1e-8 * 2.0 ** e for e in exponents]
        assert hashlib.sha256(rep.profile.values.tobytes()).hexdigest() == digest


def test_tridiag_matches_solve_banded_with_pivoting():
    # the shifted Newton matrices need not be diagonally dominant (a
    # critical-point search starts at the shift 1e-8), so row
    # interchanges happen; the solve must still match, on dominant and
    # non-dominant systems of several sizes
    rng = np.random.default_rng(11)
    for i in range(200):
        n = int(rng.integers(3, 400))
        ab = rng.standard_normal((3, n))
        ab[1, :] *= 0.1 if i % 2 else 10.0
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        _assert_same_bits(ab, rhs)


def test_tridiag_keeps_solve_banded_checks():
    q = il.make_grid(1e-2, 1e2, 64, 3).quad
    ab = q.stiff.copy()
    ab[1, :] += q.mass(1.0)[q.free]
    for bad_value in (np.nan, np.inf):
        bad = np.ones(len(ab[1]))
        bad[10] = bad_value
        with pytest.raises(ValueError):
            _solve_tridiag(ab, bad)
        bad_ab = ab.copy()
        bad_ab[1, :] = bad
        with pytest.raises(ValueError):
            _solve_tridiag(bad_ab, np.ones(len(ab[1])))
    with pytest.raises(il.SingularHessian):
        _solve_tridiag(np.zeros((3, 8)), np.ones(8))


def test_cached_wint_matches_weighted_integral():
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    quad = g.quad
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = il.RadialProfile(g, rng.standard_normal(g.M) * 10.0 ** rng.uniform(-3, 3))
        for eta in (0.0, 0.5, 1.0, 1.8, 2.5):
            for r in (1.5, 2.0, 3.0, 6.0):
                for _repeat in range(2):  # first call fills the cache, second reads it
                    assert quad.wint(np.abs(u.values), r, eta) == il.weighted_integral(u, r, eta)


# ---------------------------------------------------------------- options


def test_solve_options_validation():
    # a fractional budget would run its ceiling, and inf none at all
    for n in (0, math.nan, 2.5, math.inf):
        with pytest.raises(il.DomainError):
            il.SolveOptions(max_iters=n)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(il.DomainError):
            il.SolveOptions(grad_tol=tol)


def test_reports_carry_python_float_residuals(ref_params, small_grid, eigen_run):
    # a numpy scalar residual would show as np.float64(...) in every report's repr
    coercive_grid = il.make_grid(2e-5, 1e4, 513, 3)
    # numpy scalar parameters are stored as floats, so they derive float exponents
    numpy_params = il.derive_params(np.int64(3), np.float64(1.0), np.float64(3.5), np.float64(3.0))
    assert numpy_params == ref_params
    assert all(type(getattr(numpy_params, f)) is float for f in ("b", "q", "p", "delta", "a", "ell"))
    # so are numpy scalar term fields, and a numpy lambda, N or eta is taken as a Python number
    numpy_term = il.TermSpec(np.float64(1.0), np.float64(1.8), np.float64(2.2))
    assert numpy_term == il.TermSpec(1.0, 1.8, 2.2) and all(type(getattr(numpy_term, f)) is float for f in ("c", "eta", "r"))
    coercive = il.minimize_coercive(coercive_grid, ref_params, [il.TermSpec(1.0, 1.8, 2.2)])
    refined = il.newton_refine(eigen_run.profile, ref_params, eigen_run.value, [])
    lam_grid, term = il.make_grid(1e-3, 1e3, 257, 3), [il.TermSpec(1.0, 1.8, 2.2)]
    numpy_inputs = [
        (il.minimize_coercive(coercive_grid, ref_params, [numpy_term]), coercive),
        (il.minimize_coercive(lam_grid, ref_params, term, np.float64(-0.9)),
         il.minimize_coercive(lam_grid, ref_params, term, -0.9)),
        (il.newton_refine(eigen_run.profile, ref_params, np.float64(eigen_run.value), []), refined),
    ]
    for got, want in numpy_inputs:  # the values keep their bits
        assert got == want
    reports = [
        eigen_run,
        coercive,
        il.minimize_coercive(small_grid, ref_params, []),  # the zero profile, solved without a step
        refined,
        il.newton_refine(eigen_run.profile, numpy_params, eigen_run.value, []),
        *(got for got, _ in numpy_inputs),
    ]
    docs = [r.to_dict() for r in reports]
    docs.append(_residuals(eigen_run.profile, ref_params, eigen_run.value, [il.TermSpec(-1.0, 1.8, 2.2)]))
    for doc in docs:
        for name in ("el_res", "pohozaev_res", "eigen_rel_res"):
            assert type(doc[name]) is float, name
    for r in reports:
        assert "np.float64" not in repr(r)
    probe_grid = il.make_grid(1e-3, 1e3, 257, 3)
    S = il.probe_best_constant(probe_grid, 3, 0.5)
    assert type(S) is float
    for N, eta in ((np.int64(3), 0.5), (3, np.float64(0.5))):
        assert type(got := il.probe_best_constant(probe_grid, N, eta)) is float and got == S


def test_pin_zeroes_the_boundary_nodes_of_each_row():
    rows = np.random.default_rng(0).standard_normal((5, 64))
    pinned = _pin(rows)
    assert pinned.shape == rows.shape and rows[:, 0].all()  # a copy: rows keep their values
    for got, row in zip(pinned, rows):
        assert got.tobytes() == _pin(row).tobytes()
    assert not pinned[:, [0, -1]].any() and np.array_equal(pinned[:, 1:-1], rows[:, 1:-1])


def test_solve_report_serialization(eigen_run):
    doc = eigen_run.to_dict()
    assert list(doc) == [
        "value", "iters", "el_res", "pohozaev_res", "eigen_rel_res", "converged", "profile_path",
    ]
