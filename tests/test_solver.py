"""Solver drivers on small grids; the full reference configuration lives
in the acceptance suite."""

import math
import warnings

import numpy as np
import pytest

import inlslab as il
from inlslab.functionals import Energy
from inlslab.solver import _coercive_init, _pin, _solve_tridiag, _with_diag


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
    assert rep.iters == 14
    assert rep.value == 1.3458659777074775
    # a set where (1/q) q != 1: the quotient's Hessian diagonal must write
    # the numerator's term as (q-1) mass |v|^(q-2), not as (1/q) q (q-1) ...
    params = il.derive_params(5, 0.283, 3.053, 2.676)
    assert (1.0 / params.q) * params.q != 1.0
    g5 = il.make_grid(1e-3, 1e3, 257, 5)
    rep = il.minimize_rayleigh(g5, params, il.sample_function(g5, "Gaussian", sigma=1.0))
    assert rep.iters == 23
    assert rep.value == 2.6646753520299087


@pytest.mark.parametrize("family, shape, iters, value", [
    ("Gaussian", {"sigma": 1.0}, 18, 1.3226630373126536),
    ("Bump", {"lo": 1.0, "hi": 2.0}, 22, 1.3226630373126538),
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
    for window, iters, value in (((1e-4, 1e4, 2049), 18, 1.3226701107052932),
                                 ((1e-5, 1e5, 1025), 21, 1.3152053588828878)):
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


def test_rayleigh_stops_on_its_own_below_the_roundoff_floor(ref_params):
    # grad_tol 1e-300 is below el_res's roundoff floor: once no shift below
    # 1e30 gives an acceptable step the engine stops, long before its budget
    g = il.make_grid(1e-3, 1e3, 257, 3)
    init = il.sample_function(g, "Gaussian", sigma=1.0)
    rep = il.minimize_rayleigh(g, ref_params, init, il.SolveOptions(grad_tol=1e-300))
    assert not rep.converged and rep.iters == 28
    assert rep.el_res == il.el_residual(rep.profile, ref_params, rep.value, [])


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
    assert (rep.iters, rep.value) == (20, -9.653662119593818)


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
], ids=["inadmissible", "negative-not-superscaled", "negative-not-faster"])
def test_coercive_rejects_a_non_coercive_term_list(ref_params, small_grid, terms, lam, message):
    with pytest.raises(il.NotCoerciveConfig, match=message):
        il.minimize_coercive(small_grid, ref_params, terms, lam)


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
    # minimize_coercive's init scan one amplitude at a time, as it was written
    quad = grid.quad
    base = il.sample_function(grid, "Gaussian", sigma=1.0).values
    best = (math.inf, None)
    amps = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    for k in range(-(grid.M - 2), grid.M - 1, 8):
        sv = _pin(il.grid.shift_values(grid, base, k))
        if not np.any(sv):
            continue
        d = 0.5 * quad.dirich(sv)
        ints = [(c, quad.wint(sv, r, eta)) for (c, eta, r) in terms]
        for A in amps:
            val = d * A * A + sum(c * iv * A ** r for (c, iv), (_, _, r) in zip(ints, terms))
            if val < best[0]:
                best = (val, A * sv)
    return None if best[1] is None else _pin(best[1])


@pytest.mark.parametrize("terms", [
    [(1.0 / 3.5, 1.0, 3.5), (-1.0 / 2.2, 1.8, 2.2)],
    [(1.0 / 3.5, 1.0, 3.5), (-0.5 / 3.0, 4.0 / 3.0, 3.0), (-1.0 / 2.2, 1.8, 2.2),
     (0.3 / 2.9, 1.5, 2.9)],
    # energies that overflow to inf - inf = NaN at the large amplitudes, past
    # the least energy of the best shifts; below the overflow the first two
    # terms cancel exactly, so the energy is 1/2 dirichlet + the last two
    [(1e200, 1.8, 40.0), (-1e200, 1.8, 40.0), (1.0, 1.0, 8.0), (-1.0, 1.8, 3.0)],
    # NaN at every amplitude: no usable profile
    [(1.0, 1.0, 3.5), (math.inf, 1.8, 2.2), (-math.inf, 1.8, 2.2)],
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coercive_init_matches_the_amplitude_loop(terms):
    grid = il.make_grid(1e-3, 1e3, 257, 3)
    want = _coercive_init_loop(grid, terms)
    if want is None:
        with pytest.raises(il.ZeroProfileError):
            _coercive_init(grid, terms)
    else:
        got = _coercive_init(grid, terms)
        assert got.tobytes() == want.tobytes()


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
def test_newton_stops_on_a_non_finite_hessian(ref_params):
    # |u|^(r-2) overflows at a subnormal node for r = 1.01, so no shift
    # gives a finite step matrix: the solve reports where it started
    g = il.make_grid(1e-3, 1e3, 257, 3)
    vals = np.array(il.sample_function(g, "Gaussian", sigma=1.0).values)
    vals[100] = 5e-324
    rep = il.newton_refine(il.RadialProfile(g, vals), ref_params, 0.0, [il.TermSpec(-1.0, 1.8, 1.01)])
    assert not rep.converged and rep.iters == 0
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


def test_newton_evaluates_the_energy_at_the_start_and_on_return(ref_params, monkeypatch):
    # a critical-point search accepts on the residual alone, so it does not
    # evaluate the energy of its trials
    g = il.make_grid(1e-3, 1e3, 257, 3)
    base = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
    noise = np.random.default_rng(0).standard_normal(g.M)
    u = il.RadialProfile(g, base.profile.values * (1.0 + 1e-2 * noise))
    calls = []
    evaluate = Energy.evaluate
    monkeypatch.setattr(Energy, "evaluate",
                        lambda self, vals: calls.append(1) or evaluate(self, vals))
    rep = il.newton_refine(u, ref_params, base.value, [il.TermSpec(-0.1, 1.8, 4.0)])
    assert rep.iters >= 3 and len(calls) == 2
    assert rep.value == il.phi(rep.profile, ref_params, base.value, [il.TermSpec(-0.1, 1.8, 4.0)])


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


def test_probe_weighted_case_against_closed_form():
    # independent oracle: the quotient of the explicit extremal (1+s)^-1
    # for (N, eta) = (3, 1) evaluates to (4/3) sqrt(3 pi / 2)
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    val = il.probe_best_constant(g, 3, 1.0)
    exact = (4.0 / 3.0) * math.sqrt(3.0 * math.pi / 2.0)
    assert val == pytest.approx(exact, rel=5e-3)
    assert val >= exact * (1 - 1e-9)  # discrete window min cannot beat the true constant


def test_probe_init_scaling_invariance():
    # grid-exact rescaling of the init along the gradient-critical orbit
    # (amplitude rate (N-2)/2) leaves the converged value unchanged
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    init = il.sample_function(g, "AubinTalenti", scale=1.0)
    v1 = il.probe_best_constant(g, 3, 0.0, init=init)
    shifted = il.scale(init, math.exp(16 * g.h), (3 - 2) / 2.0)
    v2 = il.probe_best_constant(g, 3, 0.0, init=shifted)
    assert v2 == pytest.approx(v1, rel=1e-6)


def test_probe_exact():
    # pinned to the last bit, as test_rayleigh_small_window_exact
    assert il.probe_best_constant(il.make_grid(1e-3, 1e3, 257, 3), 3, 0.0) == 5.495065542814473
    assert il.probe_best_constant(il.make_grid(1e-4, 1e4, 1025, 3), 3, 1.0) == 2.8960642120329503


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


def _assert_same_bits(ab, rhs):
    # _solve_tridiag loads LAPACK from scipy's extension file, without the
    # scipy.linalg package; its solution must be solve_banded's and that of
    # dgttrf + dgttrs, bit for bit, and it must leave its arguments as they
    # were (the Newton engine retries a shift with the same right-hand side)
    from scipy.linalg import lapack, solve_banded

    ab_in, rhs_in = ab.copy(), rhs.copy()
    x = _solve_tridiag(ab, rhs)
    assert x.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()
    *factors, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    assert info == 0
    assert x.tobytes() == lapack.dgttrs(*factors, rhs)[0].tobytes()
    assert ab.tobytes() == ab_in.tobytes() and rhs.tobytes() == rhs_in.tobytes()


def test_preconditioner_solve_matches_solve_banded():
    # the descent preconditioner, stiffness + 1/2 mass on the free nodes,
    # built as minimize_rayleigh does, on the reference grid against
    # right-hand sides spread over 24 decades
    q = il.make_grid(1e-4, 1e4, 1025, 3).quad
    mass_diag = 0.5 * q.mass(1.0)
    pre = _with_diag(q.stiff, mass_diag[q.free])
    ab = q.stiff.copy()
    ab[1, :] += mass_diag[q.free]
    np.testing.assert_array_equal(pre, ab)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rhs = rng.standard_normal(len(ab[1])) * 10.0 ** rng.uniform(-12, 12, len(ab[1]))
        _assert_same_bits(pre, rhs)


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


def test_solve_report_serialization(eigen_run):
    doc = eigen_run.to_dict()
    assert list(doc) == [
        "value", "iters", "el_res", "pohozaev_res", "eigen_rel_res", "converged", "profile_path",
    ]
