"""Optimization drivers over radial profiles.

The drivers minimize discrete objectives that all evaluate through the
grid's Quadrature: the coercive energy and Newton's target are
functionals.Energy (the one discrete Phi), and the Rayleigh quotient I/J
and the embedding-constant probe's quotient are the one scale-free
quotient _Quotient, whose numerator is an Energy (Phi's operator part I,
or the Dirichlet form alone). Every driver fills its SolveReport through
_report, with the residuals `inlslab verify` prints (functionals._residuals);
the engine's own residual only decides convergence.
All solvers share one strategy, validated on the reference problems:

* search space: nodal values with BOTH boundary nodes pinned to zero.
  The outer pin is the profile invariant; the inner pin makes every
  iterate zero-extendable to the whole space, so the window's quotient
  infimum lies above the continuum one. (With the inner node free, the
  truncated-window quotient is minimized by profiles escaping through
  s_min, which undershoots the true value.) The computed quotient also
  carries the discretization error, which is O(h^2) and negative, so
  it is an upper bound only while the window error exceeds it.
* one engine (_newton, shared by all four drivers): shifted Newton
  steps. Each step solves (H + nu P) d = -g with one LAPACK tridiagonal
  solve, where H is the objective's tridiagonal-plus-diagonal Hessian
  and P a fixed positive definite band (gradient stiffness + weighted
  mass diagonal). A large shift nu gives a short preconditioned
  gradient step, and nu -> 0 Newton's step, which crosses the
  near-neutral scaling-orbit direction that stalls plain descent. For
  the minimizing drivers the value is the merit (Armijo); only at its
  roundoff floor does a smaller residual decide. Every objective
  depends on u through |u| and the cell slopes, which |u| does not
  steepen, so their trials are replaced by their absolute values: the
  value cannot rise, and a full Newton step that overshoots through
  zero cannot carry the iterate to a sign-changing critical point
  (without it, the acceptance suite's subscaled minimization ends at
  the energy -3.934 instead of -9.654).
* newton_refine sharpens a critical point of Phi with lambda fixed,
  which need not be a minimum (a minimax eigenvalue, or a fiber
  maximum), so it runs the engine in its critical-point mode: the first
  shift is tiny, so the first trial is Newton's step; trials keep their
  signs; and a smaller dual-norm residual alone accepts a step.
* each matrix is solved once, by one LAPACK dgtsv call from scipy's
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
from .functionals import Energy, TermSpec, _phi_energy, _pow, _residuals
from .grid import RadialGrid, RadialProfile, sample_function, shift_values


class SolveOptions(_Value):
    """Iteration budget and stationarity (dual-norm residual) tolerance.

    Every built-in init is deterministic, so identical options give
    identical runs.
    """

    __slots__ = _fields = ("max_iters", "grad_tol")

    def __init__(self, max_iters: int = 50_000, grad_tol: float = 1e-8):
        if not (max_iters >= 1 and max_iters != math.inf and int(max_iters) == max_iters):
            raise DomainError(f"max_iters must be an integer >= 1, got {max_iters}")
        if not 0 < grad_tol < math.inf:
            raise DomainError(f"grad_tol must be positive and finite, got {grad_tol}")
        _set(self, "max_iters", int(max_iters))
        _set(self, "grad_tol", grad_tol)


class SolveReport(_Value):
    """What a solve returns. The solvers leave profile_path None; the CLI
    puts the path of the profile it writes into its own documents.
    Equality and hash also cover profile, which the repr leaves out."""

    __slots__ = ("value", "iters", "el_res", "pohozaev_res", "eigen_rel_res", "converged",
                 "profile_path", "profile")
    _fields = __slots__[:-1]  # all but profile

    def __init__(self, value: float, iters: int, el_res: float, pohozaev_res: float,
                 eigen_rel_res: float, converged: bool, profile_path: str | None = None,
                 profile: RadialProfile | None = None):
        _set(self, "value", value)
        _set(self, "iters", iters)
        _set(self, "el_res", el_res)
        _set(self, "pohozaev_res", pohozaev_res)
        _set(self, "eigen_rel_res", eigen_rel_res)
        _set(self, "converged", converged)
        _set(self, "profile_path", profile_path)
        _set(self, "profile", profile)

    def _key(self) -> tuple:
        return (*_Value._key(self), self.profile)


#: a value change below this multiple of |value| is roundoff (_newton)
_FLOOR = 64.0 * np.finfo(float).eps
#: sufficient-decrease constant of _newton's Armijo test
_ARMIJO_C = 1e-4


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


def _solve_tridiag(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with ab x = rhs, ab tridiagonal in solve_banded's (1, 1) layout.

    One LAPACK dgtsv call, as in scipy.linalg.solve_banded, so x has its
    bits, and its checks: non-finite input raises ValueError and an
    exactly zero pivot SingularHessian. dgtsv works on copies, so ab and
    rhs are left as they were and a retried shift can reuse rhs.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _lapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info > 0:
        raise SingularHessian("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
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


def _shift_operator(grid: RadialGrid, params: Params) -> np.ndarray:
    """_newton's shift operator P = stiffness + 1/2 mass(b) on the free nodes."""
    quad = grid.quad
    return _with_diag(quad.stiff, 0.5 * quad.mass(params.b)[quad.free])


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
    of Phi(.; lambda) bit for bit and the engine stops on the public el_residual.
    """

    def __init__(self, num: Energy, r: float, eta: float, div: float, gamma: float):
        self.num = num
        self.quad = num.quad
        self.stiff_weight = num.stiff_weight
        self.r, self.eta, self.div, self.gamma = r, eta, div, gamma
        self.mass = self.quad.mass(eta)
        # (r_k - 1), not Energy's c_k r_k (r_k - 1): with c_k = 1/r_k the
        # product (1/q) q is not 1 for every q, and would move the iterates
        self._hmass = [(rk - 1.0) * m for (_, _, rk), m in zip(num.terms, num.masses)]

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        a = np.abs(vals)
        A, B = self.num._value(vals, a), self.quad.wint(a, self.r, self.eta) / self.div
        if B <= 0 or not math.isfinite(B):
            return math.inf, B
        D = B ** (2.0 / self.gamma)
        return A / D, D

    def _k(self, R: float, D: float) -> float:
        return 2.0 * self.r / (self.gamma * self.div) * R * D ** (1.0 - self.gamma / 2.0)

    def grad(self, vals: np.ndarray, R: float, D: float) -> np.ndarray:
        a, sign = np.abs(vals), np.sign(vals)
        k = self._k(R, D) / self.div * self.div
        return self.num._grad(vals, a, sign) - k * self.mass * _pow(a, self.r - 1.0) * sign

    def hess_diag(self, vals: np.ndarray, R: float, D: float) -> np.ndarray:
        a = np.abs(vals)
        out = np.zeros(len(vals))
        for (_, _, rk), hm in zip(self.num.terms, self._hmass):
            out += hm * _pow(a, rk - 2.0)
        return out - (self.r - 1.0) * self._k(R, D) * self.mass * _pow(a, self.r - 2.0)


def _newton(obj, vals, pre, opts, critical=False):
    """Shifted Newton iteration on obj from pinned nodal values.

    obj gives evaluate(vals) = (value, slope scale), and grad and
    hess_diag at (vals, value, scale): the stationarity gradient (scale
    times the value's gradient) and the diagonal of its Hessian, whose
    tridiagonal part is obj.stiff_weight * stiffness. The Hessian's
    rank-one terms are left out; they vanish at a critical point.
    Each step solves (H + nu pre) d = -g with one tridiagonal solve:
    nu -> 0 is Newton's step, a large nu a short step along the
    gradient preconditioned by the positive definite band pre.
    A minimizer (critical=False) starts at nu = 1 and tries |vals + d|
    (see the module docstring); it accepts on Armijo decrease of the
    value and, once the value sits at its roundoff floor, on a smaller
    dual-norm residual. A critical-point search (critical=True), whose
    target need not be a minimum, starts at nu = 1e-8, so its first
    trial is Newton's step, tries vals + d, so sign changes are kept,
    and accepts on a smaller dual-norm residual alone. Its obj's grad and
    hess_diag must not read the value and scale, as an Energy's do not,
    so it evaluates the value only at the start and on the returned
    values. nu grows 4x on a rejected step and halves on an accepted one
    (not below 1e-12, so it cannot underflow to a shift that never grows
    again); the solve stops unconverged when no nu below 1e30 gives an
    acceptable step. An init out of float range raises DomainError.
    Returns (vals, value, res, iters, converged).
    """
    quad = obj.quad
    free = quad.free
    stiff = obj.stiff_weight * quad.stiff
    # an init past the float range is rejected below; a trial past it fails the step tests
    with np.errstate(over="ignore", invalid="ignore"):
        f0, scale = obj.evaluate(vals)
        if not (math.isfinite(f0) and 0 < scale < math.inf):
            raise DomainError(f"init out of float range: objective {f0}, slope scale {scale}")
        g = obj.grad(vals, f0, scale)
        res = quad.dual_norm(g)
        nu = 1e-8 if critical else 1.0
        it = 0
        while res > opts.grad_tol and it < opts.max_iters:
            hess = _with_diag(stiff, obj.hess_diag(vals, f0, scale)[free])
            rhs = -g[free]
            accepted = False
            while not accepted and nu < 1e30:
                try:
                    d = _solve_tridiag(hess + nu * pre, rhs)
                except (ValueError, SingularHessian):
                    nu *= 4.0
                    continue
                trial = vals.copy()
                trial[free] = vals[free] + d if critical else np.abs(vals[free] + d)
                fv, sv = (f0, scale) if critical else obj.evaluate(trial)
                slope = float(np.dot(g[free], d)) / scale
                # fv - f0, not f0 + c slope: that sum rounds to f0 once slope is tiny
                armijo = not critical and slope < 0 and fv - f0 <= _ARMIJO_C * slope
                if armijo or critical or fv <= f0 + _FLOOR * abs(f0):
                    gv = obj.grad(trial, fv, sv)
                    rv = quad.dual_norm(gv)
                    accepted = armijo or rv < res
                if not accepted:
                    nu *= 4.0
            if not accepted:  # then res > grad_tol, so the solve is unconverged
                break
            vals, f0, scale, g, res = trial, fv, sv, gv, rv
            nu = max(0.5 * nu, 1e-12)
            it += 1
        if critical:
            f0 = obj.evaluate(vals)[0]
    return vals, f0, res, it, res <= opts.grad_tol


def _report(grid, params, vals, value, iters, converged, lam, terms=()) -> SolveReport:
    """SolveReport of a critical point of Phi(.; lam, terms) with nodal values vals."""
    profile = RadialProfile(grid, vals)
    return SolveReport(value=value, iters=iters, converged=converged, profile=profile,
                       **_residuals(profile, params, lam, terms))


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

    obj = _Quotient(_phi_energy(grid, params, 0.0, []), params.p, params.a, params.p, 2.0)
    vals = _pin(init.values)
    if not np.any(vals):
        raise ZeroProfileError("initial profile vanishes on the interior nodes")
    vals, lam, _, iters, converged = _newton(obj, vals, _shift_operator(grid, params), opts)
    return _report(grid, params, vals, lam, iters, converged, lam)


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
        d = 0.5 * quad.dirich(sv)  # sv >= 0, so it is its own |sv| for wint
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
    obj = _phi_energy(grid, params, lam, terms)  # bad grid or lambda: before the regime checks
    _check_coercive(params, terms, lam)
    if not any(t.c > 0 for t in terms) and lam <= 0:
        return _report(grid, params, np.zeros(grid.M), 0.0, 0, True, lam, terms)

    vals = _coercive_init(grid, obj.terms)
    vals, value, _, iters, converged = _newton(obj, vals, _shift_operator(grid, params), opts)
    return _report(grid, params, vals, value, iters, converged, lam, terms)


def newton_refine(
    u: RadialProfile,
    params: Params,
    lam: float,
    terms: list[TermSpec],
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Sharpen a near-critical profile of Phi(.; lambda, terms).

    The critical point need not be a minimum, so this runs the drivers'
    shifted Newton engine in its critical-point mode: Newton steps with
    the exact tridiagonal-plus-diagonal Hessian of the discrete energy,
    shifted only as far as needed to lower the stationarity residual,
    on signed values. It runs at most min(max_iters, 500) steps to the
    target min(grad_tol, 1e-10); a report with converged = False means
    the iteration stalled above it (no global convergence is claimed).
    A profile whose energy is out of float range raises DomainError.
    """
    obj = _phi_energy(u.grid, params, lam, terms)
    budget = SolveOptions(min(opts.max_iters, 500), min(opts.grad_tol, 1e-10))
    vals, value, _, iters, converged = _newton(
        obj, _pin(u.values), _shift_operator(u.grid, params), budget, critical=True
    )
    return _report(u.grid, params, vals, value, iters, converged, lam, terms)


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
    S, stop = _probe(grid, N, eta, opts, init)
    if stop:
        warnings.warn(stop, RuntimeWarning, stacklevel=2)
    return S


def _probe(
    grid: RadialGrid, N: int, eta: float, opts: SolveOptions, init: RadialProfile | None
) -> tuple[float, str | None]:
    """probe_best_constant's estimate, and why it stopped above opts.grad_tol
    (None when it converged)."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # an inf B is rejected below
        B = grid.quad.wint(np.abs(vals), c, eta)
    if not 0 < B < math.inf:
        raise DomainError(f"the init's integral of |u|^{c} is {B}, not a positive float")
    vals = vals / B ** (1.0 / c)

    obj = _Quotient(Energy(grid, [], stiff_weight=1.0), c, eta, 1.0, c)
    _, S, res, iters, converged = _newton(obj, vals, grid.quad.stiff, opts)
    if converged:
        return S, None
    return S, (f"probe_best_constant stopped after {iters} of at most {opts.max_iters} iterations "
               f"at dual-norm residual {res:.3e} > grad_tol {opts.grad_tol:.3e}")
