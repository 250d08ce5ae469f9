"""Grid, quadrature, scaling-action, and profile-format tests.

Quadrature oracles are closed forms evaluated independently of the
quadrature path: Gamma/erf moments of Gaussians and the explicit
Aubin-Talenti values.
"""

import math

import numpy as np
import pytest

import inlslab as il


def gauss_moment(N, r, eta):
    """int_0^inf e^{-r s^2/2} s^{N-1-eta} ds * omega, closed Gamma form."""
    m = N - 1 - eta
    return il.sphere_area(N) * 0.5 * (2.0 / r) ** ((m + 1) / 2.0) * math.gamma((m + 1) / 2.0)


# ------------------------------------------------------------------- grid


def test_make_grid_step():
    g = il.make_grid(1e-4, 1e4, 513, 3)
    assert g.h == pytest.approx(math.log(1e8) / 512, rel=1e-15)
    assert g.nodes[0] == pytest.approx(1e-4)
    assert np.all(np.diff(g.nodes) > 0)


@pytest.mark.parametrize("args", [(1.0, 1.0, 100, 3), (1e-4, 1e4, 2, 3), (0.0, 1.0, 64, 3), (1e-4, 1e4, 64, 1),
                                  (1e-3, math.inf, 257, 3), (math.nan, 1.0, 64, 3), (1e-3, math.nan, 64, 3),
                                  (1.0, 0.5, 64, 3), (1e-2, 1e2, 5, 3), (1e-2, 1e2, 64.5, 3),
                                  (1e-2, 1e2, math.nan, 3), (1e-2, 1e2, math.inf, 3), (1e-2, 1e2, 64, math.nan),
                                  (1e-2, 1e2, 64, math.inf), (-1.0, 1e2, 64, 3), (1e-3, 1e3, "257", 3),
                                  # node counts past numpy's array size limit, refused before allocating
                                  (1e-3, 1e3, 1e300, 3), (1e-3, 1e3, 10 ** 20, 3), (1e-3, 1e3, 10 ** 400, 3)])
def test_make_grid_domain(args):
    assert il.make_grid is il.RadialGrid  # one constructor, so one set of checks
    for make in (il.make_grid, il.RadialGrid):
        with pytest.raises(il.DomainError):
            make(*args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s_min, s_max", [(1e-160, 1e160), (1e-120, 1e120)], ids=["nodes", "weights"])
def test_make_grid_rejects_a_window_past_the_float_range(s_min, s_max):
    # at [1e-160, 1e160] ln(s_max/s_min) overflows and the nodes are NaN; at
    # [1e-120, 1e120] the nodes are finite but s^N and its weights are not.
    # Either is one DomainError naming the window, and no warning
    with pytest.raises(il.DomainError, match=r"window \[1e-1[26]0, 1e\+1[26]0\] at N = 3 .* float range"):
        il.make_grid(s_min, s_max, 257, 3)


@pytest.mark.parametrize("N", [0, 2.5, math.nan, math.inf])
def test_sphere_area_domain(N):
    with pytest.raises(il.DomainError, match="dimension must be a positive integer"):
        il.sphere_area(N)


def test_sphere_area_values():
    assert il.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert il.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert il.sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert il.sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-14)


def test_sphere_area_keeps_the_two_branch_recurrence_bits():
    def two_branch(N):
        if N % 2 == 0:
            gamma = 1.0
            for k in range(1, N // 2):
                gamma *= k
        else:
            gamma = math.sqrt(math.pi)
            k = 0.5
            while k < N / 2.0 - 0.25:
                gamma *= k
                k += 1.0
        return 2.0 * math.pi ** (N / 2.0) / gamma

    for N in range(1, 80):
        assert il.sphere_area(N).hex() == two_branch(N).hex(), N


# -------------------------------------------------------------- quadrature


def test_weighted_integral_zero_profile():
    g = il.make_grid(1e-2, 1e2, 64, 3)
    u = il.RadialProfile(g, np.zeros(64))
    assert il.weighted_integral(u, 3.0, 1.0) == 0.0


def test_weighted_integral_gaussian_closed_form():
    g = il.make_grid(1e-6, 1e6, 2049, 3)
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    for (r, eta) in ((3.5, 1.0), (3.0, 4.0 / 3.0), (2.2, 0.5)):
        val = il.weighted_integral(u, r, eta)
        assert val == pytest.approx(gauss_moment(3, r, eta), rel=1e-9)


def test_weighted_integral_richardson_second_order():
    # on a window cutting the Gaussian plateau the trapezoid error is a
    # clean h^2 term; the closed form restricted to the window uses erf
    r = 3.5
    exact = il.sphere_area(3) * math.sqrt(math.pi / (2 * r)) * (
        math.erf(100 * math.sqrt(r / 2)) - math.erf(0.1 * math.sqrt(r / 2))
    )
    errs = []
    for M in (257, 513, 1025):
        g = il.make_grid(0.1, 100.0, M, 3)
        u = il.sample_function(g, "Gaussian", sigma=1.0)
        errs.append(abs(il.weighted_integral(u, r, 2.0) - exact))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_weighted_integral_domain():
    g = il.make_grid(1e-2, 1e2, 64, 3)
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    with pytest.raises(il.DomainError):
        il.weighted_integral(u, 0.5, 1.0)
    with pytest.raises(il.DomainError):
        il.weighted_integral(u, 2.0, 3.0)


def test_weighted_integral_rejects_a_non_finite_power():
    # r = nan used to return nan, and r = inf returned 0.0
    g = il.make_grid(1e-2, 1e2, 64, 3)
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    for r in (math.nan, math.inf):
        with pytest.raises(il.DomainError, match="power r"):
            il.weighted_integral(u, r, 1.0)


def test_quadrature_positivity():
    g = il.make_grid(1e-2, 1e2, 64, 3)
    rng = np.random.default_rng(7)
    u = il.RadialProfile(g, rng.standard_normal(64))
    assert il.weighted_integral(u, 2.0, 0.5) > 0
    vals = np.zeros(64)
    vals[-1] = 5.0  # clamped by the outer-node invariant
    assert il.weighted_integral(il.RadialProfile(g, vals), 2.0, 0.5) == 0.0


# ------------------------------------------------- reference formulas of the quadrature


def _random_profiles(g, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        vals = rng.standard_normal(g.M) * 10.0 ** rng.uniform(-3, 3)
        vals[-1] = 0.0
        yield vals


def test_quadrature_matches_reference_sums_bit_for_bit():
    # the explicit formulas the sums were first written as; the cached
    # products regroup them, which is exact because w is 0.5 or 1. |v|^r is
    # |v|^(r-1) |v|, as the energies form it
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    w = np.ones(g.M)
    w[0] = w[-1] = 0.5
    smid = np.sqrt(g.nodes[:-1] * g.nodes[1:])
    ds = g.nodes[1:] - g.nodes[:-1]
    for eta in (0.0, 1.0, 1.3333333333333335, 1.8):
        mass = g.omega * g.h * w * g.nodes ** (g.N - eta)
        assert np.array_equal(g.quad.mass(eta), mass)
        for a in map(np.abs, _random_profiles(g, 5)):
            for r in (1.5, 2.2, 3.0, 6.0):
                ref = g.omega * g.h * float(np.sum(w * (a ** (r - 1) * a) * g.nodes ** (g.N - eta)))
                assert g.quad.wint(a, r, eta) == ref
    for vals in _random_profiles(g, 6):
        slopes = (vals[1:] - vals[:-1]) / ds
        f = 2.0 * g.omega * g.h * smid ** g.N * slopes / ds
        grad = np.zeros(g.M)
        grad[1:] += f
        grad[:-1] -= f
        assert np.array_equal(g.quad.grad_dirich(g.quad.slopes(vals)), grad)
        mu = g.omega * g.h * w * g.nodes ** g.N
        assert g.quad.dual_norm(grad) == math.sqrt(float(np.sum(grad[1:-1] ** 2 / mu[1:-1])))


def test_dirichlet_matches_reference_sum():
    # omega h is folded into the cell weights, a regrouping of the sum
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    smid = np.sqrt(g.nodes[:-1] * g.nodes[1:])
    for vals in _random_profiles(g, 7):
        slopes = (vals[1:] - vals[:-1]) / (g.nodes[1:] - g.nodes[:-1])
        ref = g.omega * g.h * float(np.sum(slopes * slopes * smid ** g.N))
        assert il.dirichlet_energy(il.RadialProfile(g, vals)) == pytest.approx(ref, rel=1e-14, abs=0)


# ---------------------------------------------------------------- dirichlet


def test_dirichlet_zero_and_positive():
    g = il.make_grid(1e-2, 1e2, 64, 3)
    assert il.dirichlet_energy(il.RadialProfile(g, np.zeros(64))) == 0.0
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    assert il.dirichlet_energy(u) > 0


def test_dirichlet_gaussian_closed_form():
    # int |grad e^{-s^2/2}|^2 dx = omega * int s^4 e^{-s^2} ds = omega * 3 sqrt(pi) / 8
    exact = il.sphere_area(3) * (3.0 / 8.0) * math.sqrt(math.pi)
    errs = []
    for M in (1025, 2049, 4097):
        g = il.make_grid(1e-4, 1e4, M, 3)
        u = il.sample_function(g, "Gaussian", sigma=1.0)
        errs.append(abs(il.dirichlet_energy(u) - exact))
    # second order: the cell-slope scheme carries an O(h^2) constant that
    # puts M=2049 near 2e-5 relative; the refinement ratio is the real check
    assert errs[1] / exact < 5e-5
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


# ------------------------------------------------------------------ scaling


def test_scale_identity_and_zero(wide5_params, wide5_grid):
    u = il.sample_function(wide5_grid, "Gaussian", sigma=1.0)
    same = il.scale(u, 1.0, wide5_params.delta)
    assert np.array_equal(same.values, u.values)
    zero = il.scale(u, 0.0, wide5_params.delta)
    assert zero.is_zero()


def test_scale_rejects_negative(wide5_params, wide5_grid):
    u = il.sample_function(wide5_grid, "Gaussian", sigma=1.0)
    with pytest.raises(il.DomainError):
        il.scale(u, -1.0, wide5_params.delta)


def test_scale_rejects_a_non_finite_t(wide5_params, wide5_grid):
    # t = nan used to raise a bare ValueError, and t = inf an OverflowError;
    # a non-finite delta failed after a RuntimeWarning as "profile values
    # must be finite"
    u = il.sample_function(wide5_grid, "Gaussian", sigma=1.0)
    for t in (math.nan, math.inf):
        with pytest.raises(il.DomainError, match="scaling parameter t"):
            il.scale(u, t, wide5_params.delta)
    for delta in (math.nan, math.inf, -math.inf):
        with pytest.raises(il.DomainError, match="delta"):
            il.scale(u, 2.0, delta)


@pytest.mark.filterwarnings("error")
def test_scale_with_an_amplitude_past_the_float_range():
    # t^delta used to raise a bare OverflowError from the float power. A
    # shift past the window leaves only zeros, which stay 0; the constant
    # extension below the window keeps nonzero nodes, which cannot take it
    g = il.make_grid(1e-3, 1e3, 257, 3)
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    assert il.scale(u, 1e200, 2.0).is_zero()
    with pytest.raises(il.DomainError, match="float range"):
        il.scale(u, 1e-200, -2.0)
    # a finite t^delta = 1e10 carries a node of 1e300 past the float range:
    # the product used to warn and fail the profile's generic finite check
    big = il.RadialProfile(g, 1e300 * u.values)
    with pytest.raises(il.DomainError, match=r"t\^delta = 1e-05\^-2\.0 .*float range"):
        il.scale(big, 1e-5, -2.0)


def test_scale_group_law_same_sign(wide5_params, wide5_grid):
    g, P = wide5_grid, wide5_params
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    for (k1, k2) in ((3, 11), (-3, -11)):
        t1, t2 = math.exp(k1 * g.h), math.exp(k2 * g.h)
        two = il.scale(il.scale(u, t1, P.delta), t2, P.delta)
        one = il.scale(u, t1 * t2, P.delta)
        np.testing.assert_allclose(two.values, one.values, rtol=5e-14, atol=0)


def test_scale_group_law_exact_for_bump(wide5_params, wide5_grid):
    g, P = wide5_grid, wide5_params
    u = il.sample_function(g, "Bump", lo=1.0, hi=2.0)
    t1, t2 = math.exp(7 * g.h), math.exp(-7 * g.h)
    two = il.scale(il.scale(u, t1, P.delta), t2, P.delta)
    np.testing.assert_allclose(two.values, u.values, rtol=5e-14, atol=1e-300)


def test_scale_covariance_grid_exact(wide5_params, wide5_grid):
    g, P = wide5_grid, wide5_params
    u = il.sample_function(g, "AubinTalenti", scale=1.0)
    for k in (-32, 7, 32):
        t = math.exp(k * g.h)
        ut = il.scale(u, t, P.delta)
        for (r, eta) in ((P.q, P.b), (P.p, P.a), (2.6, 1.9)):
            rate = il.ell_of(P, eta, r)
            ratio = il.weighted_integral(ut, r, eta) / il.weighted_integral(u, r, eta)
            assert ratio == pytest.approx(t ** rate, rel=1e-10)
        assert il.dirichlet_energy(ut) / il.dirichlet_energy(u) == pytest.approx(
            t ** P.ell, rel=1e-10
        )


def test_scale_interpolated_keeps_positivity(wide5_params, wide5_grid):
    u = il.sample_function(wide5_grid, "Gaussian", sigma=1.0)
    v = il.scale(u, 1.37, wide5_params.delta)
    assert np.all(v.values >= 0)
    assert not v.is_zero()


def test_scale_far_shift_empties_window(wide5_params, wide5_grid):
    u = il.sample_function(wide5_grid, "Bump", lo=1.0, hi=2.0)
    v = il.scale(u, math.exp(wide5_grid.h * (wide5_grid.M + 5)), wide5_params.delta)
    assert v.is_zero()


# ----------------------------------------------------------------- families


def test_sample_gaussian_inner_value():
    g = il.make_grid(1e-4, 1e4, 64, 3)
    u = il.sample_function(g, "Gaussian", sigma=1.0)
    assert u.values[0] == pytest.approx(math.exp(-1e-8 / 2.0), rel=1e-15)


def test_sample_bump_support():
    g = il.make_grid(1e-2, 1e2, 257, 3)
    u = il.sample_function(g, "Bump", lo=1.0, hi=2.0)
    outside = (g.nodes <= 1.0) | (g.nodes >= 2.0)
    assert np.all(u.values[outside] == 0.0)
    assert np.any(u.values > 0)
    # on [1, 2] the bump in x = (s - lo)/w is exp(-1/((s-1)(2-s)) + 4) to the bit
    s = g.nodes[~outside]
    assert u.values[~outside].tobytes() == np.exp(-1.0 / ((s - 1.0) * (2.0 - s)) + 4.0).tobytes()


def test_sample_aubin_talenti_value():
    g = il.make_grid(1e-2, 1e2, 257, 3)
    u = il.sample_function(g, "AubinTalenti", scale=1.0)
    i = int(np.argmin(np.abs(g.nodes - 1.0)))
    assert u.values[i] == pytest.approx((1 + g.nodes[i] ** 2) ** -0.5, rel=1e-15)


def test_sample_function_domain():
    g = il.make_grid(1e-2, 1e2, 64, 3)
    with pytest.raises(il.DomainError):
        il.sample_function(g, "Gaussian", sigma=-1.0)
    with pytest.raises(il.DomainError):
        il.sample_function(g, "Bump", lo=2.0, hi=1.0)


@pytest.mark.parametrize("family, shape, name", [
    ("Gaussian", {"sigma": math.nan}, "sigma"), ("Gaussian", {"sigma": math.inf}, "sigma"),
    ("Bump", {"lo": math.nan, "hi": 2.0}, "lo < hi"), ("Bump", {"lo": 1.0, "hi": math.inf}, "lo < hi"),
    ("AubinTalenti", {"scale": math.nan}, "scale"), ("AubinTalenti", {"scale": math.inf}, "scale"),
    ("Gaussian", {"sigma": "abc"}, "Gaussian shape keyword sigma must be a float, got 'abc'"),
    ("Gaussian", {"sigma": None}, "Gaussian shape keyword sigma must be a float, got None"),
    ("Bump", {"lo": "abc", "hi": 2.0}, "Bump shape keyword lo must be a float"),
    ("Bump", {"lo": 1.0, "hi": None}, "Bump shape keyword hi must be a float"),
    ("AubinTalenti", {"scale": "abc"}, "AubinTalenti shape keyword scale must be a float"),
    ("AubinTalenti", {"scale": None}, "AubinTalenti shape keyword scale must be a float"),
    ("AubinTalenti", {"scale": 10 ** 400}, "AubinTalenti shape keyword scale must be a float"),
])
def test_sample_function_rejects_a_non_finite_shape(family, shape, name):
    # an infinite shape parameter used to give a constant profile, and nan
    # failed later as "profile values must be finite"; the error names it
    g = il.make_grid(1e-2, 1e2, 64, 3)
    with pytest.raises(il.DomainError, match=name):
        il.sample_function(g, family, **shape)


@pytest.mark.parametrize("family, shape, named", [
    ("Foo", {}, r"unknown family 'Foo'; the families are Gaussian\(sigma\), Bump\(lo, hi\), AubinTalenti\(scale\)"),
    ("Gaussian", {"sigmaa": 2.0}, "Gaussian takes the shape keywords sigma, got sigmaa"),
    ("Bump", {"lo": 1.0, "high": 2.0}, "Bump takes the shape keywords lo, hi, got high"),
    ("AubinTalenti", {"sigma": 1.0}, "AubinTalenti takes the shape keywords scale, got sigma"),
])
def test_sample_function_rejects_an_unknown_family_or_keyword(family, shape, named):
    # an ignored misspelt keyword would give the default shape:
    # Gaussian(sigmaa=2.0) would sample the sigma = 1 Gaussian
    g = il.make_grid(1e-2, 1e2, 64, 3)
    with pytest.raises(il.DomainError, match=named):
        il.sample_function(g, family, **shape)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, shape, named", [
    ("Gaussian", {"sigma": 1e-300}, "Gaussian with sigma"),  # sigma^2 underflows
    ("AubinTalenti", {"scale": 1e-300}, "AubinTalenti with scale"),  # (s/scale)^2 overflows
    ("Bump", {"lo": 1e4, "hi": 2e4}, "Bump with lo"),  # outside the window
    # a support far below the window, narrower than its squared width can hold
    ("Bump", {"lo": 1e-300, "hi": 3e-300}, "Bump with lo"),
])
def test_sample_function_rejects_a_shape_that_vanishes_on_the_grid(family, shape, named):
    # these used to return the zero profile, and a solve from it failed
    # later with ZeroProfileError; the error names the family and its shape
    g = il.make_grid(1e-3, 1e3, 257, 3)
    with pytest.raises(il.DomainError, match=named):
        il.sample_function(g, family, **shape)


@pytest.mark.filterwarnings("error")
def test_sample_bump_on_a_support_narrower_than_its_squared_width():
    # ((hi - lo)/2)^2 underflows to 0 here; the bump is evaluated in
    # x = (s - lo)/w, so the node at the centre gets its peak value 1
    g = il.make_grid(1e-160, 1e-150, 65, 3)
    node = g.nodes[30]
    u = il.sample_function(g, "Bump", lo=node - 1e-166, hi=node + 1e-166)
    assert u.values[30] == 1.0 and np.count_nonzero(u.values) == 1


@pytest.mark.filterwarnings("error")
def test_sample_function_takes_the_limit_where_samples_overflow():
    # (s/scale)^2 overflows on the outer nodes only, where the limit 0 is
    # the right value: no warning, and the same bits as the plain formula
    g = il.make_grid(1e-3, 1e3, 257, 3)
    u = il.sample_function(g, "AubinTalenti", scale=1e-154)
    with np.errstate(over="ignore"):
        want = (1.0 + (g.nodes / 1e-154) ** 2) ** -0.5
    assert u.values.tobytes() == il.RadialProfile(g, want).values.tobytes()
    assert u.values[0] > 0 and u.values[-2] == 0.0


def test_profile_invariants():
    g = il.make_grid(1e-2, 1e2, 64, 3)
    vals = np.ones(64)
    u = il.RadialProfile(g, vals)
    assert u.values[-1] == 0.0
    with pytest.raises(il.DomainError):
        il.RadialProfile(g, np.full(64, np.nan))
    with pytest.raises(il.DomainError):
        il.RadialProfile(g, np.ones(32))
    with pytest.raises(ValueError):
        u.values[0] = 2.0  # frozen storage


# -------------------------------------------------------------------- files


def test_profile_roundtrip(tmp_path):
    g = il.make_grid(1e-4, 1e4, 128, 3)
    rng = np.random.default_rng(3)
    u = il.RadialProfile(g, rng.standard_normal(128) * 1e3)
    path = tmp_path / "p.csv"
    il.save_profile(u, path, family="custom", params={"seed": 3})
    v = il.load_profile(path)
    assert np.array_equal(u.values, v.values)
    assert v.grid.M == 128 and v.grid.N == 3
    assert v.grid.s_min == g.s_min and v.grid.s_max == g.s_max


def test_load_profile_rejects_a_row_that_is_not_s_u(tmp_path):
    path = tmp_path / "p.csv"
    il.save_profile(il.sample_function(il.make_grid(1e-2, 1e2, 64, 3), "Gaussian", sigma=1.0), path)
    lines = path.read_text().split("\n")
    lines[4] += ",7"  # the third row, after the metadata and column lines
    path.write_text("\n".join(lines))
    with pytest.raises(il.DomainError, match=r"row 3 is '[^,]+,[^,]+,7', not 's,u'"):
        il.load_profile(path)


def test_profile_file_header(tmp_path):
    g = il.make_grid(1e-2, 1e2, 64, 3)
    u = il.sample_function(g, "Gaussian", sigma=2.0)
    path = tmp_path / "p.csv"
    il.save_profile(u, path, family="Gaussian", params={"sigma": 2.0})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "s,u"
    meta = __import__("json").loads(lines[0][1:])
    assert meta["family"] == "Gaussian" and meta["M"] == 64
