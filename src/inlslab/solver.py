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
  solve (_Steps), where H is the objective's tridiagonal-plus-diagonal
  Hessian and P a fixed positive definite band (stiffness + 1/2 mass of
  Phi's operator term, or the stiffness alone for the probe). A large
  shift nu gives a short preconditioned gradient step, and nu -> 0
  Newton's step, which crosses the near-neutral scaling-orbit direction
  that stalls plain descent. For the minimizing drivers the value is the
  merit (Armijo); only at its roundoff floor does a smaller residual
  decide. The shift follows each Armijo step's gain ratio, the actual
  decrease over the one the quadratic model with H predicted: above 3/4
  nu shrinks 8x, otherwise it halves. A solve stops unconverged once no
  shift can help (_newton names the two exits and the 1e30 ceiling).
  Every objective depends on u through |u| and the cell slopes, which
  |u| does not steepen, so their trials are replaced by their absolute
  values: the value cannot rise, and a full Newton step that overshoots
  through zero cannot carry the iterate to a sign-changing critical
  point (without it, the acceptance suite's subscaled minimization ends
  at the energy -3.934 instead of -9.654).
* newton_refine sharpens a critical point of Phi with lambda fixed,
  which need not be a minimum (a minimax eigenvalue, or a fiber
  maximum), so it runs the engine in its critical-point mode: the first
  shift is tiny, so the first trial is Newton's step; trials keep their
  signs; and a smaller dual-norm residual alone accepts a step.
* each matrix is solved once, in place, by one LAPACK dgtsv call with
  its overwrite flags, from scipy's compiled wrapper module
  scipy/linalg/_flapack, loaded from its file on the first solve
  (_lapack). Importing the scipy.linalg package instead would run its
  array-API set-up, which pulls in numpy.testing, numpy.f2py, numpy.ma
  and numpy.random and costs more start-up time than numpy and this
  package together. The wrapper functions are the objects
  scipy.linalg.lapack re-exports, so every solve has the same bits
  either way.

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

from .errors import DomainError, NotCoerciveConfig, SingularHessian, ZeroProfileError, _Value, _whole
from .exponents import Params, critical_exponent, ell_of
from .functionals import Energy, TermSpec, _phi_energy, _Point, _residuals
from .grid import RadialGrid, RadialProfile, _pin, sample_function


class SolveOptions(_Value):
    """Iteration budget and stationarity (dual-norm residual) tolerance.

    Every built-in init is deterministic, so identical options give
    identical runs.
    """

    __slots__ = _fields = ("max_iters", "grad_tol")

    def __init__(self, max_iters: int = 50_000, grad_tol: float = 1e-8):
        if not _whole(max_iters, 1):
            raise DomainError(f"max_iters must be an integer >= 1, got {max_iters}")
        if not 0 < grad_tol < math.inf:
            raise DomainError(f"grad_tol must be positive and finite, got {grad_tol}")
        _Value.__init__(self, int(max_iters), grad_tol)

    def _stopped(self, iters: int, res: float) -> str:
        """Why a solve ended above grad_tol, as the probe warns and every command's DIVERGED says."""
        return (f"stopped after {iters} of at most {self.max_iters} iterations "
                f"at dual-norm residual {res:.3e} > grad_tol {self.grad_tol:.3e}")


class SolveReport(_Value):
    """What a solve returns. The solvers leave profile_path None; the CLI
    puts the path of the profile it writes into its own documents.
    Equality and hash also cover profile, which the repr leaves out."""

    __slots__ = ("value", "iters", "el_res", "pohozaev_res", "eigen_rel_res", "converged",
                 "profile_path", "profile")
    _fields = __slots__[:-1]  # all but profile
    _defaults = {"profile_path": None, "profile": None}

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
    exactly zero pivot SingularHessian. dgtsv works in ab's bands, so ab
    is consumed; rhs is left as it was, so a retried shift can reuse it.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _lapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, 1, 1, 1)
    if info > 0:
        raise SingularHessian("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x


class _Quotient:
    """Scale-free quotient R = A / D, D = B^(2/gamma), B = wint(r, eta) / div,
    whose numerator A is an Energy, in the solver interface of Energy.

    The Rayleigh quotient lambda = I/J is A = I with (r, eta, div, gamma)
    = (p, a, p, 2); the embedding-constant probe is A = dirichlet with
    (c, eta, 1, c). Its point is the numerator's with the power r added
    last. evaluate returns D as the slope scale, so the Armijo test is a
    sufficient-decrease test for R, and grad is D times R's gradient,
    gA - R gD = gA - k mass |v|^(r-1) sign(v) with
    k = (2r/(gamma div)) R D^(1-gamma/2) (B = D^(gamma/2)), which is
    lambda for the Rayleigh quotient. Its factor is written k/div * div,
    as Energy writes the eigen term, so the Rayleigh grad is the gradient
    of Phi(.; lambda) bit for bit and the engine stops on the public el_residual.
    """

    def __init__(self, num: Energy, r: float, eta: float, div: float, gamma: float):
        self.num = num
        self.quad = num.quad
        self.r, self.eta, self.div, self.gamma = r, eta, div, gamma
        self.mass = self.quad.mass(eta)
        self.powers = num.powers + [r]

    point = Energy.point  # on self.quad and self.powers

    def evaluate(self, pt: _Point) -> tuple[float, float]:
        A = self.num.value(pt)
        B = float(self.quad.wint_rows(pt.t[-1] * pt.a, self.eta)) / self.div
        if B <= 0 or not math.isfinite(B):
            return math.inf, B
        D = B ** (2.0 / self.gamma)
        return A / D, D

    def _k(self, R: float, D: float) -> float:
        return 2.0 * self.r / (self.gamma * self.div) * R * D ** (1.0 - self.gamma / 2.0)

    def grad(self, pt: _Point, R: float, D: float) -> np.ndarray:
        k = self._k(R, D) / self.div * self.div
        return self.num.grad(pt) - k * self.mass * pt.t[-1] * pt.sign

    def hess_diag(self, pt: _Point, R: float, D: float) -> np.ndarray:
        return self.num.hess_diag(pt) - (self.r - 1.0) * self._k(R, D) * self.mass * pt.curv(-1, self.r)


class _Steps:
    """The linear algebra of _newton's steps on the objective obj, an
    Energy or a _Quotient, whose energy is then its numerator.

    solve(nu, rhs) solves (H + nu P) d = rhs on the free nodes with one
    tridiagonal solve, raising its ValueError or SingularHessian, and
    curvature(d) gives the model's d^T H d. H, set
    by linearize, is obj's Hessian less its rank-one terms, which vanish
    at a critical point: the energy's stiff_weight times the stiffness
    plus diag(hess_diag). The positive definite shift operator P is the
    stiffness plus 1/2 the mass of the energy's first term, Phi's
    operator term |x|^-b, or the stiffness alone when the energy has no
    terms, as the probe's. H + nu P is formed in a work band made once.
    dual_norm divides by each free node's weight mass(0), so a weight
    that underflows to 0 raises DomainError here.
    """

    def __init__(self, obj):
        quad = obj.quad
        zero = np.flatnonzero(quad.mass(0.0)[quad.free] == 0.0) + 1
        if zero.size:
            raise DomainError(f"the weight of free node {zero[0]} (s = {float(quad.nodes[zero[0]])!r}) "
                              "underflows to 0, so the residual's dual norm is undefined")
        energy = obj.num if isinstance(obj, _Quotient) else obj
        self.obj, self.free, self.dual_norm = obj, quad.free, quad.dual_norm
        self.hess = energy.stiff_weight * quad.stiff
        self.diag = self.hess[1].copy()
        self.shift = quad.stiff.copy()
        self.shift[1] += 0.5 * energy.masses[0][quad.free] if energy.terms else 0.0
        self.work = np.empty_like(self.shift)

    def linearize(self, pt: _Point, value: float, scale: float) -> None:
        """Set H to the Hessian at (pt, value, scale)."""
        np.add(self.diag, self.obj.hess_diag(pt, value, scale)[self.free], out=self.hess[1])

    def solve(self, nu: float, rhs: np.ndarray) -> np.ndarray:
        """d with (H + nu P) d = rhs."""
        ab = np.multiply(self.shift, nu, out=self.work)
        ab += self.hess
        return _solve_tridiag(ab, rhs)

    def curvature(self, d: np.ndarray) -> float:
        """d^T H d, a band matvec on H (without nu P)."""
        h = self.hess
        return float(np.add.reduce(h[1] * d * d) + 2.0 * np.add.reduce(h[0, 1:] * d[:-1] * d[1:]))


def _newton(obj, vals, opts, critical=False):
    """Shifted Newton iteration on obj from pinned nodal values.

    Each trial is evaluated once, into obj.point(vals) = pt, shared by
    obj's evaluate(pt) = (value, slope scale), grad (scale times the
    value's gradient) and hess_diag (its Hessian's diagonal) at (pt, value, scale).
    Each step solves (H + nu P) d = -g through the step system
    _Steps(obj): nu -> 0 is Newton's step, a large nu a short step along
    the gradient preconditioned by the positive definite band P.
    A minimizer (critical=False) starts at nu = 1 and tries |vals + d|
    (see the module docstring); it accepts on Armijo decrease of the
    value and, once the value sits at its roundoff floor, on a smaller
    dual-norm residual. A critical-point search (critical=True), whose
    target need not be a minimum, starts at nu = 1e-8, so its first
    trial is Newton's step, tries vals + d, so sign changes are kept,
    and accepts on a smaller dual-norm residual alone. Its obj's grad and
    hess_diag must not read the value and scale, as an Energy's do not,
    so it evaluates the value only at the start and on the returned
    values. nu grows 4x on a rejected step. After a step accepted on the
    Armijo test it shrinks 8x when the step's gain ratio, the decrease
    f0 - fv over the model's pred = -(g.d + d^T H d / 2) / scale, exceeds
    3/4 (pred > 0), and halves otherwise, as after every other accepted
    step; it stays at least 1e-12, so it cannot underflow to a shift that
    never grows again. The solve stops unconverged when no shift can help:
    at once on a step system that is not finite (a SingularHessian grows nu
    4x) or on a rejected trial equal to the iterate, which no larger shift
    moves, and else at nu = 1e30. An init out of float range raises DomainError.
    Returns (vals, value, res, iters, converged).
    """
    steps, free = _Steps(obj), obj.quad.free
    # an init past the float range is rejected below; a trial or a Hessian past it fails the step tests
    with np.errstate(over="ignore", invalid="ignore"):
        pt = obj.point(vals)
        f0, scale = obj.evaluate(pt)
        ok = math.isfinite(f0) and 0 < scale < math.inf  # else grad is undefined
        res = steps.dual_norm(g := obj.grad(pt, f0, scale)) if ok else math.nan
        if not math.isfinite(res):
            raise DomainError(f"init out of float range: objective {f0}, slope scale {scale}, residual {res}")
        nu = 1e-8 if critical else 1.0
        it = 0
        while res > opts.grad_tol and it < opts.max_iters:
            steps.linearize(pt, f0, scale)
            rhs = -g[free]
            accepted = False
            while not accepted and nu < 1e30:
                try:
                    d = steps.solve(nu, rhs)
                except SingularHessian:
                    nu *= 4.0
                    continue
                except ValueError:  # a non-finite step system, which no shift makes finite
                    break
                trial = vals.copy()
                trial[free] = vals[free] + d if critical else np.abs(vals[free] + d)
                tp = obj.point(trial)
                fv, sv = (f0, scale) if critical else obj.evaluate(tp)
                slope = float(np.add.reduce(g[free] * d)) / scale
                # fv - f0, not f0 + c slope: that sum rounds to f0 once slope is tiny
                armijo = not critical and slope < 0 and fv - f0 <= _ARMIJO_C * slope
                if armijo or critical or fv <= f0 + _FLOOR * abs(f0):
                    gv = obj.grad(tp, fv, sv)
                    rv = steps.dual_norm(gv)
                    accepted = armijo or rv < res
                if not accepted:
                    if np.array_equal(trial, vals):  # a larger shift cannot move it either
                        break
                    nu *= 4.0
            if not accepted:  # then res > grad_tol, so the solve is unconverged
                break
            pred = -(slope + 0.5 * steps.curvature(d) / scale) if armijo else 0.0
            fast = pred > 0 and f0 - fv > 0.75 * pred
            vals, pt, f0, scale, g, res = trial, tp, fv, sv, gv, rv
            nu = max(nu / 8.0 if fast else 0.5 * nu, 1e-12)
            it += 1
        if critical:
            f0 = obj.evaluate(pt)[0]
    return vals, f0, res, it, res <= opts.grad_tol


def _report(grid, params, vals, value, iters, converged, lam, terms=()) -> SolveReport:
    """SolveReport of a critical point of Phi(.; lam, terms) with nodal values vals."""
    profile = RadialProfile(grid, vals)
    return SolveReport(value=value, iters=iters, converged=converged, profile=profile,
                       **_residuals(profile, params, lam, terms))


def _start(grid: RadialGrid, init: RadialProfile | None, family: str) -> np.ndarray:
    """A driver's pinned start values: init's, or by default the Gaussian (sigma) or
    Aubin-Talenti profile (scale) of width sqrt(s_min s_max), centred on the window in
    ln s so that it dilates with it: width 1 on windows symmetric about s = 1. An init
    on another grid, or a 0 / 0 sample, is a DomainError."""
    if init is None:
        width = grid.s_min * math.sqrt(grid.s_max / grid.s_min)
        with np.errstate(invalid="ignore"):
            init = sample_function(grid, family, **{"sigma" if family == "Gaussian" else "scale": width})
    elif init.grid != grid:
        raise DomainError("init profile lives on a different grid")
    return _pin(init.values)


def minimize_rayleigh(
    grid: RadialGrid, params: Params, init: RadialProfile | None = None, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """First-eigenvalue estimate: minimize I/J over interior nodal profiles
    from init, by default the Gaussian centred on the window (_start).

    Reports lambda = I/J at the computed critical point together with
    the Euler-Lagrange, Pohozaev, and eigenvalue-relation residuals.
    The value falls as the window widens at a fixed step, and converges
    from below as O(h^2) as the step h shrinks, so it bounds the
    continuum radial infimum from above only while the window error
    exceeds the O(h^2) error.
    """
    vals = _start(grid, init, "Gaussian")
    obj = _Quotient(_phi_energy(grid, params, 0.0, []), params.p, params.a, params.p, 2.0)
    if not np.any(vals):
        raise ZeroProfileError("initial profile vanishes on the interior nodes")
    vals, lam, _, iters, converged = _newton(obj, vals, opts)
    return _report(grid, params, vals, lam, iters, converged, lam)


def _check_coercive(params: Params, terms: list[TermSpec], lam: float) -> None:
    """Raise NotCoerciveConfig for the first term with c != 0 that breaks a rule of a
    coercive energy, the positive terms first and then the negative ones, each in list
    order, and then if lam > 0 and no term is positive."""
    # imported here: of the drivers only minimize_coercive needs regimes
    from .regimes import Regime, WeightedPair, classify_pair

    pos = [t for t in terms if t.c > 0]
    lmin = min((ell_of(params, t.eta, t.r) for t in pos), default=-math.inf)
    for t in pos + [t for t in terms if t.c < 0]:
        v = classify_pair(params, WeightedPair(t.eta, t.r))
        if not v.admissible:
            raise NotCoerciveConfig(f"term (c={t.c}, eta={t.eta}, r={t.r}) is not an admissible pair ({v.reason})")
        if t.c > 0 and v.regime is not Regime.SUBSCALED:
            raise NotCoerciveConfig(f"positive term (eta={t.eta}, r={t.r}) is {v.regime.value}, "
                                    "need Subscaled for a coercive energy")
        if t.c < 0 and lam > 0 and v.regime is not Regime.SUPERSCALED:
            raise NotCoerciveConfig("lambda > 0 requires sign-negative terms to be Superscaled, "
                                    f"got {v.regime.value} for (eta={t.eta}, r={t.r})")
        if t.c < 0 and not ell_of(params, t.eta, t.r) > lmin:
            raise NotCoerciveConfig(f"negative term (eta={t.eta}, r={t.r}) must scale faster than the "
                                    "dominant subscaled term near zero")
    if lam > 0 and not pos:
        raise NotCoerciveConfig("lambda > 0 requires a positive subscaled term")


def _coercive_init(grid: RadialGrid, terms) -> np.ndarray:
    """minimize_coercive's init: of the Gaussians A exp(-s^2 / (2 sigma^2)), 25
    amplitudes A from 1e-3 to 1e3 by the widths sigma from e^-2 s_min to e^2 s_max
    in steps of e^(1/2), widened to at most 64 widths, the first of least energy
    if that is negative (a NaN energy, an overflow, never wins), or else the
    centred Gaussian. terms is a (coeff, eta, r) list as Energy takes it."""
    quad, s = grid.quad, grid.nodes
    lo, span = math.log(grid.s_min) - 2.0, math.log(grid.s_max / grid.s_min) + 4.0
    sigma = np.exp(lo + max(0.5, span / 63.0) * np.arange(min(64, int(2.0 * span) + 1)))
    amps = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # such energies lose below
        rows = _pin(np.exp(-(s ** 2) / (2.0 * sigma[:, None] ** 2)))
        e = 0.5 * quad.dirich_rows(quad.slopes(rows))[:, None] * amps * amps
        for c, eta, r in terms:
            e += (c * quad.wint_rows(rows ** (r - 1.0) * rows, eta))[:, None] * amps ** r
    e = np.where(e < 0, e, 0.0)  # a NaN or an energy >= 0 never wins
    k, i = divmod(int(np.argmin(e)), len(amps))  # the first least, widths first
    return amps[i] * rows[k] if e[k, i] < 0 else _start(grid, None, "Gaussian")


def minimize_coercive(
    grid: RadialGrid,
    params: Params,
    terms: list[TermSpec],
    lam: float = 0.0,
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Descent on the coercive subscaled energy to a negative level.

    Requires every positive-coefficient term to classify Subscaled (and
    lambda <= 0), or the mixed sign configuration with superscaled
    negative terms for lambda > 0. The descent starts from the profile of
    least energy among amplitudes and dilations of the Gaussian
    (_coercive_init), or from the Gaussian centred on the window when
    none of their energies is negative. The report's value field is the
    level the descent reaches; a value >= 0 means the scan found no
    negative level.
    """
    lam = float(lam)  # a numpy lambda would make the report's value and residuals numpy scalars
    obj = _phi_energy(grid, params, lam, terms)  # bad grid or lambda: before the regime checks
    _check_coercive(params, terms, lam)
    if not any(t.c > 0 for t in terms) and lam <= 0:
        return _report(grid, params, np.zeros(grid.M), 0.0, 0, True, lam, terms)

    vals, value, _, iters, converged = _newton(obj, _coercive_init(grid, obj.terms), opts)
    return _report(grid, params, vals, value, iters, converged, lam, terms)


def newton_refine(
    u: RadialProfile,
    params: Params,
    lam: float,
    terms: list[TermSpec],
    opts: SolveOptions = SolveOptions(500, 1e-10),
) -> SolveReport:
    """Sharpen a near-critical profile of Phi(.; lambda, terms).

    The critical point need not be a minimum, so this runs the drivers'
    shifted Newton engine in its critical-point mode: Newton steps with
    the exact tridiagonal-plus-diagonal Hessian of the discrete energy,
    shifted only as far as needed to lower the stationarity residual,
    on signed values, for at most opts.max_iters steps to opts.grad_tol;
    a report with converged = False means the iteration stalled above it
    (no global convergence is claimed).
    A profile whose energy is out of float range raises DomainError.
    """
    lam = float(lam)  # as in minimize_coercive
    obj = _phi_energy(u.grid, params, lam, terms)
    vals, value, _, iters, converged = _newton(obj, _pin(u.values), opts, critical=True)
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
    renormalized. init defaults to the centred Aubin-Talenti profile. As for
    minimize_rayleigh's value, the estimate is an upper bound for S_eta
    only while the window error exceeds the O(h^2) discretization error,
    which is negative: fine windows give values below S_eta.

    The engine runs at most opts.max_iters steps. When it stops above
    opts.grad_tol, at that budget or because no step is acceptable,
    a RuntimeWarning gives the step count and the final dual-norm
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
    N, eta = grid.N, float(eta)  # a numpy N or eta would make S a numpy scalar
    c = critical_exponent(N, eta)
    vals = _start(grid, init, "AubinTalenti")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf B is rejected below
        B = grid.quad.wint(np.abs(vals), c, eta)
    if not 0 < B < math.inf:
        raise DomainError(f"the init's integral of |u|^{c} is {B}, not a positive float")
    vals = vals / B ** (1.0 / c)

    obj = _Quotient(Energy(grid, [], stiff_weight=1.0), c, eta, 1.0, c)
    _, S, res, iters, converged = _newton(obj, vals, opts)
    return S, None if converged else opts._stopped(iters, res)
