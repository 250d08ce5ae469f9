"""Energy functionals, gradients, projection, and verification residuals."""

import math

import numpy as np
import pytest

import inlslab as il


@pytest.fixture(scope="module")
def fun_grid():
    return il.make_grid(1e-3, 1e3, 513, 3)


def _gauss(grid):
    return il.sample_function(grid, "Gaussian", sigma=1.0)


# ----------------------------------------------------------------- energies


def test_energies_zero_profile(ref_params, fun_grid):
    z = il.RadialProfile(fun_grid, np.zeros(fun_grid.M))
    assert il.I_energy(z, ref_params) == 0.0
    assert il.J_energy(z, ref_params) == 0.0
    assert il.phi(z, ref_params, 1.3, [il.TermSpec(1.0, 0.5, 3.0)]) == 0.0


def test_energies_positive(ref_params, fun_grid):
    u = _gauss(fun_grid)
    assert il.I_energy(u, ref_params) > 0
    assert il.J_energy(u, ref_params) > 0


def test_I_J_scaling_covariance(wide5_params, wide5_grid):
    P, g = wide5_params, wide5_grid
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    t = math.exp(17 * g.h)
    ut = il.scale_profile(u, t, P)
    assert il.I_energy(ut, P) == pytest.approx(t ** P.ell * il.I_energy(u, P), rel=1e-10)
    assert il.J_energy(ut, P) == pytest.approx(t ** P.ell * il.J_energy(u, P), rel=1e-10)


def test_phi_matches_I_without_terms(ref_params, fun_grid):
    u = _gauss(fun_grid)
    assert il.phi(u, ref_params, 0.0, []) == pytest.approx(il.I_energy(u, ref_params), rel=1e-15)


def test_phi_scaling_split(wide5_params, wide5_grid):
    P, g = wide5_params, wide5_grid
    u = il.sample_function(g, "AubinTalenti", scale=1.0)
    lam, term = 0.7, il.TermSpec(1.3, 1.5, 2.4)
    t = math.exp(-21 * g.h)
    ut = il.scale_profile(u, t, P)
    expected = (
        t ** P.ell * (il.I_energy(u, P) - lam * il.J_energy(u, P))
        - (term.c / term.r)
        * t ** il.ell_of(P, term.eta, term.r)
        * il.weighted_integral(u, term.r, term.eta)
    )
    assert il.phi(ut, P, lam, [term]) == pytest.approx(expected, rel=1e-9)


# ----------------------------------------------------------------- rayleigh


def test_rayleigh_scale_invariance(wide5_params, wide5_grid):
    P, g = wide5_params, wide5_grid
    for fam, kw in (("Gaussian", {"sigma": 1.0}), ("AubinTalenti", {"scale": 1.0})):
        u = il.sample_function(g, fam, **kw)
        R = il.rayleigh(u, P)
        for k in (-32, 9):
            ut = il.scale_profile(u, math.exp(k * g.h), P)
            assert il.rayleigh(ut, P) == pytest.approx(R, rel=1e-8)


def test_rayleigh_not_amplitude_invariant(ref_params, fun_grid):
    u = _gauss(fun_grid)
    doubled = u.with_values(2.0 * np.asarray(u.values))
    assert abs(il.rayleigh(doubled, ref_params) / il.rayleigh(u, ref_params) - 1) > 1e-3


def test_rayleigh_zero_profile(ref_params, fun_grid):
    with pytest.raises(il.ZeroProfileError):
        il.rayleigh(il.RadialProfile(fun_grid, np.zeros(fun_grid.M)), ref_params)


# --------------------------------------------------------------- projection


def test_project_reaches_manifold(wide5_params, wide5_grid):
    P, g = wide5_params, wide5_grid
    for fam, kw in (("Gaussian", {"sigma": 1.0}), ("Bump", {"lo": 1.0, "hi": 2.0}),
                    ("AubinTalenti", {"scale": 1.0})):
        u = il.sample_function(g, fam, **kw)
        v = il.project_to_M(u, P)
        assert abs(il.I_energy(v, P) - 1.0) <= 1e-6


def test_project_identity_on_manifold(wide5_params, wide5_grid):
    u = il.sample_function(wide5_grid, "Gaussian", sigma=1.0)
    v = il.project_to_M(u, wide5_params)
    w = il.project_to_M(v, wide5_params)
    assert abs(il.I_energy(w, wide5_params) - 1.0) <= 1e-6
    # second application is a near-identity
    assert il.rayleigh(w, wide5_params) == pytest.approx(
        il.rayleigh(v, wide5_params), rel=1e-6
    )


def test_project_zero_profile(wide5_params, wide5_grid):
    with pytest.raises(il.ZeroProfileError):
        il.project_to_M(il.RadialProfile(wide5_grid, np.zeros(wide5_grid.M)), wide5_params)


# ---------------------------------------------------------------- gradients


def test_grad_phi_zero_profile_superlinear_terms(ref_params, fun_grid):
    z = il.RadialProfile(fun_grid, np.zeros(fun_grid.M))
    g = il.grad_phi(z, ref_params, 0.8, [il.TermSpec(1.0, 0.5, 3.0)])
    assert g.shape == (fun_grid.M - 1,)
    assert np.all(g == 0.0)


def test_grad_phi_matches_finite_differences(ref_params, fun_grid):
    P, g = ref_params, fun_grid
    rng = np.random.default_rng(11)
    base = np.asarray(_gauss(g).values)
    for _ in range(10):
        vals = base * (1.0 + 0.3 * rng.standard_normal(g.M))
        u = il.RadialProfile(g, vals)
        lam = float(rng.uniform(-2, 2))
        terms = [
            il.TermSpec(float(rng.uniform(-2, 2)), float(rng.uniform(0, 1.9)),
                        float(rng.uniform(2.1, 4.0)))
            for _ in range(rng.integers(1, 4))
        ]
        grad = il.grad_phi(u, P, lam, terms)
        v = rng.standard_normal(g.M)
        v[-1] = 0.0
        eps = 1e-6
        up = il.RadialProfile(g, np.asarray(u.values) + eps * v)
        dn = il.RadialProfile(g, np.asarray(u.values) - eps * v)
        fd = (il.phi(up, P, lam, terms) - il.phi(dn, P, lam, terms)) / (2 * eps)
        an = float(np.dot(grad, v[:-1]))
        assert fd == pytest.approx(an, rel=1e-5)


def test_grad_I_pairing_is_operator_action(ref_params, fun_grid):
    # pairing grad I(u) with u gives the tested-function identity exactly:
    # int |grad u|^2 + int |u|^q |x|^-b
    P, g = ref_params, fun_grid
    u = _gauss(g)
    gi = il.grad_phi(u, P, 0.0, [])
    paired = float(np.dot(gi, np.asarray(u.values)[:-1]))
    expected = il.dirichlet_energy(u) + il.weighted_integral(u, P.q, P.b)
    assert paired == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------- residuals


def test_el_residual_zero_and_positive(ref_params, fun_grid):
    z = il.RadialProfile(fun_grid, np.zeros(fun_grid.M))
    assert il.el_residual(z, ref_params, 0.0, []) == 0.0
    assert il.el_residual(_gauss(fun_grid), ref_params, 1.0, []) > 0


def test_pohozaev_residual_zero_and_generic(ref_params, fun_grid):
    z = il.RadialProfile(fun_grid, np.zeros(fun_grid.M))
    assert il.pohozaev_residual(z, ref_params, [il.TermSpec(1.0, 0.5, 3.0)]) == 0.0
    u = _gauss(fun_grid)
    assert il.pohozaev_residual(u, ref_params, [il.TermSpec(1.0, 0.5, 3.0)]) > 1e-3


def test_eigen_relation_residual(ref_params, fun_grid):
    z = il.RadialProfile(fun_grid, np.zeros(fun_grid.M))
    assert il.eigen_relation_residual(z, ref_params, 2.0) == 0.0
    u = _gauss(fun_grid)
    lam = il.rayleigh(u, ref_params)
    # by construction I = lam J at lam = I/J
    assert il.eigen_relation_residual(u, ref_params, lam) <= 1e-15
    assert il.eigen_relation_residual(u, ref_params, 2 * lam) > 0.1


def test_term_spec_validation():
    with pytest.raises(il.DomainError):
        il.TermSpec(1.0, 2.5, 3.0)
    with pytest.raises(il.DomainError):
        il.TermSpec(1.0, 1.0, 1.0)
    for c, r in ((math.nan, 3.0), (math.inf, 3.0), (-math.inf, 3.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(il.DomainError):
            il.TermSpec(c, 1.0, r)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_rejected(ref_params, fun_grid, lam):
    u = il.sample_function(fun_grid, "Gaussian", sigma=1.0)
    with pytest.raises(il.DomainError):
        il.el_residual(u, ref_params, lam, [])


def test_functional_report_serialization(ref_params, fun_grid):
    from inlslab.reports import to_json

    u = _gauss(fun_grid)
    rep = il.functional_report(u, ref_params, 0.5, [])
    doc = rep.to_dict()
    assert list(doc) == ["I", "J", "rayleigh", "phi", "grad_norm"]
    text = to_json(doc)
    decoded = __import__("json").loads(text)
    assert decoded["I"] == doc["I"]  # 17 significant digits round-trip
