"""Solver drivers on small grids; the full reference configuration lives
in the acceptance suite."""

import math
import warnings

import numpy as np
import pytest

import inlslab as il
from inlslab.solver import _coercive_init, _pin, _Tridiag, _with_diag


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


def test_rayleigh_converges_on_finer_and_wider_grids(ref_params):
    # the reference window refined, and widened by a decade at each end at
    # the same node count; a window upper bound can only drop as it widens
    lam_ref = 1.3226630373126538  # [1e-4, 1e4] x 1025, acceptance criterion 6
    for window in ((1e-4, 1e4, 2049), (1e-5, 1e5, 1025)):
        g = il.make_grid(*window, 3)
        rep = il.minimize_rayleigh(g, ref_params, il.sample_function(g, "Gaussian", sigma=1.0))
        assert rep.converged and rep.el_res <= 1e-8
    assert rep.value <= lam_ref


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


def test_newton_zero_is_critical(ref_params, small_grid):
    z = il.RadialProfile(small_grid, np.zeros(small_grid.M))
    rep = il.newton_refine(z, ref_params, 0.0, [il.TermSpec(1.0, 0.5, 3.0)])
    assert rep.converged and rep.el_res == 0.0 and rep.profile.is_zero()


def test_newton_domain(ref_params, small_grid):
    u = il.sample_function(small_grid, "Gaussian", sigma=1.0)
    with pytest.raises(il.DomainError):
        il.newton_refine(u, il.derive_params(4, 0.3, 3.378, 3.241), 1.0, [])
    for lam in (math.nan, math.inf):
        with pytest.raises(il.DomainError):
            il.newton_refine(u, ref_params, lam, [])


def test_coercive_rejects_non_finite_lambda(ref_params, small_grid):
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(il.DomainError):
            il.minimize_coercive(small_grid, ref_params, [il.TermSpec(1.0, 1.8, 2.2)], lam)


def test_newton_far_from_solution_may_fail(ref_params, small_grid):
    rng = np.random.default_rng(5)
    u = il.RadialProfile(small_grid, 10.0 * rng.standard_normal(small_grid.M))
    rep = il.newton_refine(u, ref_params, 1.0, [], il.SolveOptions(max_iters=5))
    assert isinstance(rep.converged, bool)  # divergence reported, not raised


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


def _assert_same_lapack(lu, ab, rhs):
    # _Tridiag loads LAPACK from scipy's extension file, without the
    # scipy.linalg package; its factors, pivots and solution must be
    # scipy.linalg.lapack's, bit for bit
    from scipy.linalg import lapack

    *factors, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    assert info == 0
    for ours, theirs in zip(lu._factors, factors, strict=True):
        np.testing.assert_array_equal(ours, theirs)
    np.testing.assert_array_equal(lu.solve(rhs), lapack.dgttrs(*factors, rhs)[0])


def test_factored_preconditioner_matches_solve_banded():
    # the descent preconditioner, stiffness + 1/2 mass on the free nodes,
    # built and factored as minimize_rayleigh does, on the reference grid
    # against right-hand sides spread over 24 decades
    from scipy.linalg import solve_banded

    q = il.make_grid(1e-4, 1e4, 1025, 3).quad
    mass_diag = 0.5 * q.mass(1.0)
    pre = _with_diag(q.stiff, mass_diag[q.free])
    ab = q.stiff.copy()
    ab[1, :] += mass_diag[q.free]
    np.testing.assert_array_equal(pre, ab)
    lu = _Tridiag(pre)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rhs = rng.standard_normal(len(ab[1])) * 10.0 ** rng.uniform(-12, 12, len(ab[1]))
        np.testing.assert_allclose(lu.solve(rhs), solve_banded((1, 1), ab, rhs), rtol=1e-13, atol=0.0)
        _assert_same_lapack(lu, pre, rhs)


def test_tridiag_matches_solve_banded_with_pivoting():
    # the shifted Newton and Levenberg-Marquardt matrices need not be
    # diagonally dominant, so row interchanges happen; the factored solve
    # must still match
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(11)
    n = 300
    for _ in range(20):
        ab = rng.standard_normal((3, n))
        ab[1, :] *= 0.1
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        lu = _Tridiag(ab)
        np.testing.assert_allclose(lu.solve(rhs), solve_banded((1, 1), ab, rhs), rtol=1e-13, atol=0.0)
        _assert_same_lapack(lu, ab, rhs)


def test_tridiag_keeps_solve_banded_checks():
    q = il.make_grid(1e-2, 1e2, 64, 3).quad
    ab = q.stiff.copy()
    ab[1, :] += q.mass(1.0)[q.free]
    bad = np.ones(len(ab[1]))
    bad[10] = np.nan
    with pytest.raises(ValueError):
        _Tridiag(ab).solve(bad)
    ab[1, :] = bad
    with pytest.raises(ValueError):
        _Tridiag(ab)
    with pytest.raises(il.SingularHessian):
        _Tridiag(np.zeros((3, 8)))


def test_cached_wint_matches_weighted_integral():
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    quad = g.quad
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = il.RadialProfile(g, rng.standard_normal(g.M) * 10.0 ** rng.uniform(-3, 3))
        for eta in (0.0, 0.5, 1.0, 1.8, 2.5):
            for r in (1.5, 2.0, 3.0, 6.0):
                for _repeat in range(2):  # first call fills the cache, second reads it
                    assert quad.wint(u.values, r, eta) == il.weighted_integral(u, r, eta)


# ---------------------------------------------------------------- options


def test_solve_options_validation():
    for n in (0, math.nan):
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
