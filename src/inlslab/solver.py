"""Optimization drivers over radial profiles.

The drivers minimize discrete objectives that all evaluate through the
grid's Quadrature: the coercive energy and Newton's target are
functionals.Energy (the one discrete Phi), and the Rayleigh quotient I/J
and the embedding-constant probe's quotient are the one scale-free
quotient _Quotient, whose numerator is an Energy (Phi's operator part I,
or the Dirichlet form alone). Every driver fills its SolveReport through
_report.
All solvers share one strategy, validated on the reference problems:

* search space: nodal values with BOTH boundary nodes pinned to zero.
  The outer pin is the profile invariant; the inner pin makes every
  iterate zero-extendable to the whole space, so the window's quotient
  infimum lies above the continuum one. (With the inner node free, the
  truncated-window quotient is minimized by profiles escaping through
  s_min, which undershoots the true value.) The computed quotient also
  carries the discretization error, which is O(h^2) and negative, so
  it is an upper bound only while the window error exceeds it.
* one engine (_newton, shared by the Rayleigh, coercive and probe
  drivers): shifted Newton steps on the objective's value. Each step
  solves (H + nu P) d = -g with one LAPACK tridiagonal factorization,
  where H is the objective's tridiagonal-plus-diagonal Hessian and P a
  fixed positive definite band (gradient stiffness + weighted mass
  diagonal). A large shift nu gives a short preconditioned gradient
  step, and nu -> 0 Newton's step, which crosses the near-neutral
  scaling-orbit direction that stalls plain descent. The value is the
  merit (Armijo); only at its roundoff floor does a smaller residual
  decide. Every objective depends on u through |u| and the cell slopes,
  which |u| does not steepen, so each trial is replaced by its absolute
  value: the value cannot rise, and a full Newton step that overshoots
  through zero cannot carry the iterate to a sign-changing critical
  point (without it, the acceptance suite's subscaled minimization ends
  at the energy -3.934 instead of -9.654).
* newton_refine sharpens a critical point of Phi with lambda fixed,
  which need not be a minimum, so it runs Levenberg-Marquardt on the
  stationarity residual (_lm_polish) with the same exact Hessian.
* the tridiagonal factorizations are LAPACK dgttrf/dgttrs from scipy's
  compiled wrapper module scipy/linalg/_flapack, loaded from its file on
  the first solve (_lapack). Importing the scipy.linalg package instead
  would run its array-API set-up, which pulls in numpy.testing,
  numpy.f2py, numpy.ma and numpy.random and costs more start-up time
  than numpy and this package together. The wrapper functions are the
  objects scipy.linalg.lapack re-exports, so every solve has the same
  bits either way.

The quotient drivers do not renormalize iterates: both quotients are
scale-free, and for the Rayleigh quotient interpolated rescaling onto
I = 1 would inject O(h^2) noise that breaks monotone descent. Iterates
keep their natural window scale and reports quote lambda = I/J directly.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings

import numpy as np

from .errors import DomainError, NotCoerciveConfig, SingularHessian, ZeroProfileError, _set, _Value
from .exponents import Params, critical_exponent, ell_of
from .functionals import (
    Energy,
    TermSpec,
    _pow,
    eigen_relation_residual,
    energy_terms,
    pohozaev_residual,
)
from .grid import RadialGrid, RadialProfile, sample_function, shift_values


class SolveOptions(_Value):
    """Iteration budget and stationarity (dual-norm residual) tolerance.

    Every built-in init is deterministic, so identical options give
    identical runs.
    """

    __slots__ = _fields = ("max_iters", "grad_tol")

    def __init__(self, max_iters: int = 50_000, grad_tol: float = 1e-8):
        if not max_iters >= 1:
            raise DomainError(f"max_iters must be >= 1, got {max_iters}")
        if not 0 < grad_tol < math.inf:
            raise DomainError(f"grad_tol must be positive and finite, got {grad_tol}")
        _set(self, "max_iters", max_iters)
        _set(self, "grad_tol", grad_tol)


class SolveReport(_Value):
    """What a solve returns. Unlike the other records it is mutable (the
    CLI sets profile_path after writing the profile) and so unhashable;
    equality also compares profile, which the repr leaves out."""

    __slots__ = ("value", "iters", "el_res", "pohozaev_res", "eigen_rel_res", "converged",
                 "profile_path", "profile")
    _fields = __slots__[:-1]  # all but profile
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, value: float, iters: int, el_res: float, pohozaev_res: float,
                 eigen_rel_res: float, converged: bool, profile_path: str | None = None,
                 profile: RadialProfile | None = None):
        self.value = value
        self.iters = iters
        self.el_res = el_res
        self.pohozaev_res = pohozaev_res
        self.eigen_rel_res = eigen_rel_res
        self.converged = converged
        self.profile_path = profile_path
        self.profile = profile

    def _key(self) -> tuple:
        return (*_Value._key(self), self.profile)


#: a value change below this multiple of |value| is roundoff (_newton)
_FLOOR = 64.0 * np.finfo(float).eps
#: sufficient-decrease constant of _newton's Armijo test
_ARMIJO_C = 1e-4


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _lapack():
    """scipy's f2py LAPACK module, scipy.linalg._flapack.

    On first use the extension is loaded from its file, without running
    scipy/linalg/__init__.py, and entered in sys.modules under its own
    name, where a later `import scipy.linalg` finds and keeps it.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        (root,) = importlib.util.find_spec("scipy").submodule_search_locations
        stem = os.path.join(root, "linalg", "_flapack")
        path = next(stem + sfx for sfx in importlib.machinery.EXTENSION_SUFFIXES if os.path.exists(stem + sfx))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


class _Tridiag:
    """LU factors of a tridiagonal matrix given in solve_banded's (1, 1) layout.

    LAPACK dgttrf/dgttrs perform the partial-pivoting elimination of the
    dgtsv call behind scipy.linalg.solve_banded, operation for operation,
    so solve() returns the same bits. Both routines come from scipy's
    compiled LAPACK wrappers, loaded by _lapack without the scipy.linalg
    package, which would add hundreds of milliseconds to every CLI solve.
    Non-finite input raises ValueError and an exactly zero pivot raises
    SingularHessian.
    """

    def __init__(self, ab: np.ndarray):
        lapack = _lapack()
        _check_finite(ab)
        *factors, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
        if info > 0:
            raise SingularHessian("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgttrf")
        self._factors = factors
        self._dgttrs = lapack.dgttrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _check_finite(rhs)
        x, info = self._dgttrs(*self._factors, rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dgttrs")
        return x


def _pin(vals: np.ndarray) -> np.ndarray:
    out = np.array(vals, dtype=float)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _with_diag(band: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """band + diag(diag) as a new (1, 1) band."""
    out = band.copy()
    out[1, :] += diag
    return out


class _Quotient:
    """Scale-free quotient R = A / D, D = B^(2/gamma), B = wint(r, eta) / div,
    whose numerator A is an Energy whose terms have coefficient 1/r_k,
    in the solver interface of Energy.

    The Rayleigh quotient lambda = I/J is A = I with (r, eta, div, gamma)
    = (p, a, p, 2); the embedding-constant probe is A = dirichlet with
    (c, eta, 1, c). evaluate returns D as the slope scale, so the Armijo
    test is a sufficient-decrease test for R, and grad is D times R's
    gradient, gA - R gD = gA - k mass |v|^(r-1) sign(v) with
    k = (2r/(gamma div)) R D^(1-gamma/2) (B = D^(gamma/2)), which is
    lambda for the Rayleigh quotient. Its factor is written k/div * div,
    as Energy writes the eigen term, so the Rayleigh grad is the gradient
    of Phi(.; lambda) bit for bit and el_res is the public el_residual.
    """

    def __init__(self, num: Energy, r: float, eta: float, div: float, gamma: float):
        self.num = num
        self.quad = num.quad
        self.stiff_weight = num.stiff_weight
        self.r, self.eta, self.div, self.gamma = r, eta, div, gamma
        self.mass = self.quad.mass(eta)

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        A, B = self.num.value(vals), self.quad.wint(vals, self.r, self.eta) / self.div
        if B <= 0 or not math.isfinite(B):
            return math.inf, B
        D = B ** (2.0 / self.gamma)
        return A / D, D

    def _k(self, R: float, D: float) -> float:
        return 2.0 * self.r / (self.gamma * self.div) * R * D ** (1.0 - self.gamma / 2.0)

    def grad(self, vals: np.ndarray, R: float, D: float) -> np.ndarray:
        k = self._k(R, D) / self.div * self.div
        return self.num.grad(vals) - k * self.mass * _pow(vals, self.r - 1.0) * np.sign(vals)

    def hess_diag(self, vals: np.ndarray, R: float, D: float) -> np.ndarray:
        # (r_k - 1), not Energy's c_k r_k (r_k - 1): with c_k = 1/r_k the
        # product (1/q) q is not 1 for every q, and would move the iterates
        out = np.zeros(len(vals))
        for (_, _, rk), mass in zip(self.num.terms, self.num.masses):
            out += (rk - 1.0) * mass * _pow(vals, rk - 2.0)
        return out - (self.r - 1.0) * self._k(R, D) * self.mass * _pow(vals, self.r - 2.0)


def _newton(obj, vals, pre, opts):
    """Shifted Newton descent on the value of obj, from pinned nodal values.

    obj gives evaluate(vals) = (value, slope scale), and grad and
    hess_diag at (vals, value, scale): the stationarity gradient (scale
    times the value's gradient) and the diagonal of its Hessian, whose
    tridiagonal part is obj.stiff_weight * stiffness. The Hessian's
    rank-one terms are left out; they vanish at a critical point.
    Each step solves (H + nu pre) d = -g with one tridiagonal
    factorization: nu -> 0 is Newton's step, a large nu a short step
    along the gradient preconditioned by the positive definite band pre.
    The trial is |vals + d| (see the module docstring). It is accepted
    on Armijo decrease of the value and, once the value sits at its
    roundoff floor, on a smaller dual-norm residual. nu starts at 1 and
    grows 4x on a rejected step, halves on an accepted one (not below
    1e-12, so it cannot underflow to a shift that never grows again);
    the solve stops unconverged when no nu below 1e30 gives an
    acceptable step.
    Returns (vals, value, res, iters, converged).
    """
    quad = obj.quad
    free = quad.free
    f0, scale = obj.evaluate(vals)
    g = obj.grad(vals, f0, scale)
    res = quad.dual_norm(g)
    nu = 1.0
    it = 0
    while res > opts.grad_tol and it < opts.max_iters:
        hess = _with_diag(obj.stiff_weight * quad.stiff, obj.hess_diag(vals, f0, scale)[free])
        rhs = -g[free]
        accepted = False
        while not accepted and nu < 1e30:
            try:
                d = _Tridiag(hess + nu * pre).solve(rhs)
            except (ValueError, SingularHessian):
                nu *= 4.0
                continue
            trial = vals.copy()
            trial[free] = np.abs(vals[free] + d)
            fv, sv = obj.evaluate(trial)
            slope = float(np.dot(g[free], d)) / scale
            # fv - f0, not f0 + c slope: that sum rounds to f0 once slope is tiny
            armijo = slope < 0 and fv - f0 <= _ARMIJO_C * slope
            if armijo or fv <= f0 + _FLOOR * abs(f0):
                gv = obj.grad(trial, fv, sv)
                rv = quad.dual_norm(gv)
                accepted = armijo or rv < res
            if not accepted:
                nu *= 4.0
        if not accepted:
            return vals, f0, res, it, False
        vals, f0, scale, g, res = trial, fv, sv, gv, rv
        nu = max(0.5 * nu, 1e-12)
        it += 1
    return vals, f0, res, it, res <= opts.grad_tol


def _lm_polish(obj, vals, tol, budget):
    """Levenberg-Marquardt on the stationarity residual norm.

    The Hessian used is obj.stiff_weight * stiffness + diag(obj.hess_diag),
    the exact second derivative of the discrete energy obj; vals arrive
    pinned and only the free nodes move.
    Returns (vals, res, iters_used, converged).
    """
    quad = obj.quad
    free = quad.free
    stiff = obj.stiff_weight * quad.stiff
    nu = 1e-8
    g = obj.grad(vals)
    res = quad.dual_norm(g)
    it = 0
    while it < budget:
        if res <= tol:
            return vals, res, it, True
        hd = obj.hess_diag(vals)
        dref = np.abs(stiff[1, :] + hd[free]) + 1e-300
        improved = False
        for _ in range(60):
            if nu > 1e30:
                break
            try:
                step = _Tridiag(_with_diag(stiff, hd[free] + nu * dref)).solve(g[free])
            except ValueError:
                nu *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                nu *= 10.0
                continue
            trial = vals.copy()
            trial[free] -= step
            gv = obj.grad(trial)
            if not np.all(np.isfinite(gv)):
                nu *= 10.0
                continue
            rv = quad.dual_norm(gv)
            if rv < res:
                vals, g, res = trial, gv, rv
                nu = max(nu * 0.25, 1e-16)
                improved = True
                break
            nu *= 10.0
        it += 1
        if not improved:
            return vals, res, it, False
    return vals, res, it, res <= tol


def _report(grid, params, vals, value, iters, res, converged, lam, terms=()) -> SolveReport:
    """SolveReport of a critical point of Phi(.; lam, terms) with nodal values vals."""
    profile = RadialProfile(grid, vals)
    full = list(terms) + ([TermSpec(lam, params.a, params.p)] if lam != 0 else [])
    return SolveReport(
        value=value,
        iters=iters,
        el_res=res,
        pohozaev_res=pohozaev_residual(profile, params, full) if full else 0.0,
        eigen_rel_res=eigen_relation_residual(profile, params, lam),
        converged=converged,
        profile=profile,
    )


def minimize_rayleigh(
    grid: RadialGrid, params: Params, init: RadialProfile, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """First-eigenvalue estimate: minimize I/J over interior nodal profiles.

    Reports lambda = I/J at the computed critical point together with
    the Euler-Lagrange, Pohozaev, and eigenvalue-relation residuals.
    The value falls as the window widens at a fixed step, and converges
    from below as O(h^2) as the step h shrinks, so it bounds the
    continuum radial infimum from above only while the window error
    exceeds the O(h^2) error.
    """
    if init.is_zero():
        raise ZeroProfileError("minimize_rayleigh needs a nonzero initial profile")
    if init.grid != grid:
        raise DomainError("init profile lives on a different grid")
    if grid.N != params.N:
        raise DomainError("grid dimension does not match params.N")

    obj = _Quotient(Energy(grid, energy_terms(params, 0.0, [])), params.p, params.a, params.p, 2.0)
    vals = _pin(init.values)
    if not np.any(vals):
        raise ZeroProfileError("initial profile vanishes on the interior nodes")
    quad = grid.quad
    pre = _with_diag(quad.stiff, 0.5 * quad.mass(params.b)[quad.free])
    vals, lam, res, iters, converged = _newton(obj, vals, pre, opts)
    return _report(grid, params, vals, lam, iters, res, converged, lam)


def _check_coercive(params: Params, terms: list[TermSpec], lam: float) -> None:
    # imported here: of the drivers only minimize_coercive needs regimes
    from .regimes import Regime, WeightedPair, classify_pair

    pos = [t for t in terms if t.c > 0]
    neg = [t for t in terms if t.c < 0]
    verdicts = {}
    for t in pos + neg:
        v = classify_pair(params, WeightedPair(t.eta, t.r))
        if not v.admissible:
            raise NotCoerciveConfig(
                f"term (c={t.c}, eta={t.eta}, r={t.r}) is not an admissible pair ({v.reason})"
            )
        verdicts[(t.eta, t.r)] = v.regime
    for t in pos:
        if verdicts[(t.eta, t.r)] is not Regime.SUBSCALED:
            raise NotCoerciveConfig(
                f"positive term (eta={t.eta}, r={t.r}) is {verdicts[(t.eta, t.r)].value}, "
                "need Subscaled for a coercive energy"
            )
    if lam > 0:
        if not pos:
            raise NotCoerciveConfig("lambda > 0 requires a positive subscaled term")
        for t in neg:
            if verdicts[(t.eta, t.r)] is not Regime.SUPERSCALED:
                raise NotCoerciveConfig(
                    f"lambda > 0 requires sign-negative terms to be Superscaled, "
                    f"got {verdicts[(t.eta, t.r)].value} for (eta={t.eta}, r={t.r})"
                )
    if pos and neg:
        lmin = min(ell_of(params, t.eta, t.r) for t in pos)
        for t in neg:
            if not ell_of(params, t.eta, t.r) > lmin:
                raise NotCoerciveConfig(
                    f"negative term (eta={t.eta}, r={t.r}) must scale faster than the "
                    "dominant subscaled term near zero"
                )


def _coercive_init(grid: RadialGrid, terms) -> np.ndarray:
    """minimize_coercive's init: the most negative energy 1/2 dirichlet +
    sum_k coeff_k wint(r_k, eta_k) over the Gaussian shifted by every 8th
    cell, times 25 amplitudes from 1e-3 to 1e3. The first minimum wins,
    shifts first; an energy that is NaN never does. terms is a (coeff,
    eta, r) list as Energy takes it."""
    quad = grid.quad
    base = sample_function(grid, "Gaussian", sigma=1.0).values
    best = (math.inf, None)
    amps = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    # A ** r by numpy's scalar power, once per term: the array power may
    # round differently, and the scan's winner must not move
    powers = [np.array([A ** r for A in amps]) for (_, _, r) in terms]
    for k in range(-(grid.M - 2), grid.M - 1, 8):
        sv = _pin(shift_values(grid, base, k))
        if not np.any(sv):
            continue
        d = 0.5 * quad.dirich(sv)
        energies = d * amps * amps + sum(c * quad.wint(sv, r, eta) * pw
                                         for (c, eta, r), pw in zip(terms, powers))
        i = np.argmin(np.where(np.isnan(energies), math.inf, energies))
        if energies[i] < best[0]:
            best = (energies[i], amps[i] * sv)
    if best[1] is None:
        raise ZeroProfileError("initialization scan found no usable profile")
    return _pin(best[1])


def minimize_coercive(
    grid: RadialGrid,
    params: Params,
    terms: list[TermSpec],
    lam: float = 0.0,
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Global minimization of the coercive subscaled energy.

    Requires every positive-coefficient term to classify Subscaled (and
    lambda <= 0), or the mixed sign configuration with superscaled
    negative terms for lambda > 0. The minimizer sits at a negative
    energy level; the report's value field is that level.
    """
    if grid.N != params.N:
        raise DomainError("grid dimension does not match params.N")
    eterms = energy_terms(params, lam, terms)  # rejects a non-finite lambda before the regime checks
    _check_coercive(params, terms, lam)

    obj = Energy(grid, eterms)
    if not any(t.c > 0 for t in terms) and lam <= 0:
        return _report(grid, params, np.zeros(grid.M), 0.0, 0, 0.0, True, lam, terms)

    vals = _coercive_init(grid, obj.terms)
    quad = grid.quad
    pre = _with_diag(quad.stiff, 0.5 * quad.mass(params.b)[quad.free])
    vals, value, res, iters, converged = _newton(obj, vals, pre, opts)
    return _report(grid, params, vals, value, iters, res, converged, lam, terms)


def newton_refine(
    u: RadialProfile,
    params: Params,
    lam: float,
    terms: list[TermSpec],
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Sharpen a near-critical profile of Phi(.; lambda, terms).

    Damped (Levenberg-Marquardt) Newton with the exact tridiagonal-plus-
    diagonal Hessian of the discrete energy. Convergence target is
    min(grad_tol, 1e-10); a report with converged = False means the
    iteration stalled above it (no global convergence is claimed).
    """
    if u.grid.N != params.N:
        raise DomainError("grid dimension does not match params.N")
    obj = Energy(u.grid, energy_terms(params, lam, terms))
    tol = min(opts.grad_tol, 1e-10)
    vals = _pin(u.values)
    vals, res, iters, converged = _lm_polish(obj, vals, tol, min(opts.max_iters, 500))
    return _report(u.grid, params, vals, obj.value(vals), iters, res, converged, lam, terms)


def probe_best_constant(
    grid: RadialGrid,
    N: int,
    eta: float,
    opts: SolveOptions = SolveOptions(),
    init: RadialProfile | None = None,
) -> float:
    """Estimate of the critical embedding constant S_eta on the grid's window.

    Minimizes int |grad u|^2 / (int |u|^c |x|^-eta)^(2/c) with
    c = 2(N-eta)/(N-2) over interior profiles, by the shifted Newton
    engine of the other drivers with the stiffness matrix as the shift
    operator. The quotient is invariant under amplitude scaling, so the
    init is normalized to a unit denominator once and iterates are not
    renormalized. init defaults to the Aubin-Talenti profile. As for
    minimize_rayleigh's value, the estimate is an upper bound for S_eta
    only while the window error exceeds the O(h^2) discretization error,
    which is negative: fine windows give values below S_eta.

    The engine runs at most opts.max_iters steps. When it stops above
    opts.grad_tol, at that budget or because no shift gives an
    acceptable step, a RuntimeWarning gives the final dual-norm
    residual; the quotient at the last iterate is returned either way.
    """
    if N < 3:
        raise DomainError(f"probe requires N >= 3, got {N}")
    if not 0 <= eta < 2:
        raise DomainError(f"eta must lie in [0, 2), got {eta}")
    if grid.N != N:
        raise DomainError("grid dimension does not match N")
    c = critical_exponent(N, eta)
    if init is None:
        init = sample_function(grid, "AubinTalenti", scale=1.0)
    elif init.grid != grid:
        raise DomainError("init profile lives on a different grid")
    vals = _pin(init.values)
    B = grid.quad.wint(vals, c, eta)
    if B <= 0:
        raise DomainError("probe initialization degenerate on this grid")
    vals = vals / B ** (1.0 / c)

    obj = _Quotient(Energy(grid, [], stiff_weight=1.0), c, eta, 1.0, c)
    _, S, res, iters, converged = _newton(obj, vals, grid.quad.stiff, opts)
    if not converged:
        warnings.warn(
            f"probe_best_constant stopped after {iters} of at most {opts.max_iters} iterations "
            f"at dual-norm residual {res:.3e} > grad_tol {opts.grad_tol:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return S
