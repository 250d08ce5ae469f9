"""Optimization drivers over radial profiles.

The drivers minimize discrete objectives that all evaluate through the
grid's Quadrature: the coercive energy and Newton's target are
functionals.Energy (the one discrete Phi), the Rayleigh quotient I/J is
_Quotient over Energy's operator part, and the embedding-constant probe
is _ProbeQuotient. Every driver fills its SolveReport through _report.
All solvers share one strategy, validated on the reference problems:

* search space: nodal values with BOTH boundary nodes pinned to zero.
  The outer pin is the profile invariant; the inner pin makes every
  iterate zero-extendable to the whole space, so computed quotient
  values are upper bounds of the continuum infimum. (With the inner
  node free, the truncated-window quotient is minimized by profiles
  escaping through s_min, which undershoots the true value.)
* descent (_armijo_descent, shared by the Rayleigh, coercive and probe
  drivers): gradient steps preconditioned by a fixed symmetric
  tridiagonal operator (gradient stiffness + weighted mass diagonal),
  i.e. steepest descent in a discrete energy inner product, with Armijo
  backtracking. The operator is factored once per solve (LAPACK dgttrf)
  and each step is one dgttrs back-substitution; each iterate's value
  is computed once and serves the line search, the gradient and the
  next step.
* endgame: Levenberg-Marquardt iterations on the stationarity residual,
  using the exact tridiagonal-plus-diagonal Hessian of the objective.
  The near-neutral scaling-orbit direction makes the plain Newton system
  nearly singular; the adaptive diagonal shift handles it.

The quotient drivers do not renormalize iterates: both quotients are
scale-free, and for the Rayleigh quotient interpolated rescaling onto
I = 1 would inject O(h^2) noise that breaks monotone descent. Iterates
keep their natural window scale and reports quote lambda = I/J directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotCoerciveConfig, SingularHessian, ZeroProfileError
from .functionals import (
    Energy,
    TermSpec,
    _pow,
    eigen_relation_residual,
    energy_terms,
    pohozaev_residual,
)
from .grid import RadialGrid, RadialProfile, sample_function, shift_values
from .regimes import Params, Regime, WeightedPair, classify_pair, critical_exponent, ell_of


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget, stationarity tolerance, and line-search constants.

    seed is carried for randomized-init workflows; the built-in inits
    are deterministic, so identical options give identical runs.
    """

    max_iters: int = 50_000
    grad_tol: float = 1e-8
    step_init: float = 1.0
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise DomainError("grad_tol must be positive")
        if not 0 < self.armijo_c < 1 or not 0 < self.armijo_shrink < 1:
            raise DomainError("armijo constants must lie in (0, 1)")


@dataclass
class SolveReport:
    value: float
    iters: int
    el_res: float
    pohozaev_res: float
    eigen_rel_res: float
    converged: bool
    profile_path: str | None = None
    profile: RadialProfile | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "iters": self.iters,
            "el_res": self.el_res,
            "pohozaev_res": self.pohozaev_res,
            "eigen_rel_res": self.eigen_rel_res,
            "converged": self.converged,
            "profile_path": self.profile_path,
        }


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _Tridiag:
    """LU factors of a tridiagonal matrix given in solve_banded's (1, 1) layout.

    LAPACK dgttrf/dgttrs perform the partial-pivoting elimination of the
    dgtsv call behind scipy.linalg.solve_banded, operation for operation,
    so solve() returns the same bits while a fixed matrix is factored
    only once. Non-finite input raises ValueError and an exactly zero
    pivot raises SingularHessian.
    """

    def __init__(self, ab: np.ndarray):
        from scipy.linalg import lapack  # deferred: `import inlslab` loads no scipy

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


class _Workspace:
    """The descent preconditioner and the Levenberg-Marquardt shifted solve
    of one grid, on the free (interior) nodes of its quadrature."""

    def __init__(self, grid: RadialGrid):
        self.quad = q = grid.quad
        self.free = q.free
        # tridiagonal of the full gradient quadratic form on free nodes
        k = 2.0 * q.cw / q.ds ** 2
        ab = np.zeros((3, grid.M - 2))
        ab[1, :] = k[:-1] + k[1:]
        ab[0, 1:] = -k[1:-1]
        ab[2, :-1] = -k[1:-1]
        self.stiff_tri = ab
        self._pre = None

    def factor_preconditioner(self, mass_diag: np.ndarray) -> None:
        """Factor stiffness + diag(mass_diag) on the free nodes for precondition()."""
        ab = self.stiff_tri.copy()
        ab[1, :] += mass_diag[self.free]
        self._pre = _Tridiag(ab)

    def precondition(self, g: np.ndarray) -> np.ndarray:
        out = np.zeros(len(g))
        out[self.free] = self._pre.solve(g[self.free])
        return out

    def solve_shifted(self, hess_diag: np.ndarray, nu: float, dref: np.ndarray, g: np.ndarray):
        ab = 0.5 * self.stiff_tri
        ab[1, :] += hess_diag[self.free] + nu * dref
        return _Tridiag(ab).solve(g[self.free])


def _pin(vals: np.ndarray) -> np.ndarray:
    out = np.array(vals, dtype=float)
    out[0] = 0.0
    out[-1] = 0.0
    return out


class _Quotient:
    """Rayleigh quotient lambda = I/J, I = 1/2 dirichlet + 1/q wint(q, b),
    J = 1/p wint(p, a), in the descent interface of Energy.

    grad is the stationarity gradient gI - lambda gJ, which is J times
    the quotient's gradient; evaluate returns J as the slope scale so
    the Armijo test is a sufficient-decrease test for the quotient.
    """

    def __init__(self, grid: RadialGrid, params: Params):
        self.quad = grid.quad
        self.params = params
        self.num = Energy(grid, energy_terms(params, 0.0, []))
        self.massb = self.quad.mass(params.b)
        self.den_mass = self.quad.mass(params.a)

    def _I_J(self, vals: np.ndarray) -> tuple[float, float]:
        p = self.params
        return self.num.value(vals), self.quad.wint(vals, p.p, p.a) / p.p

    def lam(self, vals: np.ndarray) -> float:
        I, J = self._I_J(vals)
        return I / J

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        I, J = self._I_J(vals)
        if J <= 0 or not math.isfinite(J):
            return math.inf, J
        return I / J, J

    def grad(self, vals: np.ndarray, lam: float | None = None, scale: float | None = None) -> np.ndarray:
        if lam is None:
            lam = self.lam(vals)
        gJ = self.den_mass * _pow(vals, self.params.p - 1.0) * np.sign(vals)
        return self.num.grad(vals) - lam * gJ

    def hess_diag(self, vals: np.ndarray) -> np.ndarray:
        p = self.params
        lam = self.lam(vals)
        return ((p.q - 1.0) * self.massb * _pow(vals, p.q - 2.0)
                - lam * (p.p - 1.0) * self.den_mass * _pow(vals, p.p - 2.0))


class _ProbeQuotient:
    """S = A / D, A = dirichlet, D = B^(2/c), B = wint(c, eta), in the
    descent interface of Energy.

    As for _Quotient, evaluate returns the denominator D as the slope
    scale and grad is D times the quotient's gradient, gA - S gD with
    gD = (2/c) D/B gB. S is 0-homogeneous and this descent commutes
    with amplitude scaling, so iterates need no renormalization.
    """

    def __init__(self, grid: RadialGrid, c: float, eta: float):
        self.quad = grid.quad
        self.c = c
        self.eta = eta
        self.mass = self.quad.mass(eta)

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        A, B = self.quad.dirich(vals), self.quad.wint(vals, self.c, self.eta)
        if B <= 0 or not math.isfinite(B):
            return math.inf, B
        D = B ** (2.0 / self.c)
        return A / D, D

    def grad(self, vals: np.ndarray, S: float, D: float) -> np.ndarray:
        # gB = c mass |v|^(c-1) sign(v) and B = D^(c/2), so S gD = k mass |v|^(c-1) sign(v)
        c = self.c
        k = 2.0 * S * D ** (1.0 - c / 2.0)
        return self.quad.grad_dirich(vals) - k * self.mass * _pow(vals, c - 1.0) * np.sign(vals)


def _armijo_descent(ws, obj, vals, tol, budget, opts):
    """Preconditioned descent with Armijo backtracking.

    obj gives evaluate(vals) = (value, slope scale) and grad(vals, value,
    scale), the stationarity gradient; the Armijo test divides the slope
    by the scale. Each iterate is evaluated once: the accepted trial's
    value becomes the next reference value and feeds the next gradient.
    Returns (vals, value, res, iters_used, converged).
    """
    dual_norm = ws.quad.dual_norm
    f0, scale = obj.evaluate(vals)
    it = 0
    while it < budget:
        g = obj.grad(vals, f0, scale)
        res = dual_norm(g)
        if res <= tol:
            return vals, f0, res, it, True
        d = -ws.precondition(g)
        slope = float(np.dot(g[ws.free], d[ws.free])) / scale
        if not slope < 0:
            return vals, f0, res, it, False
        alpha = opts.step_init
        accepted = False
        while alpha > 1e-18:
            trial = _pin(vals + alpha * d)
            fv, sv = obj.evaluate(trial)
            if math.isfinite(fv) and fv <= f0 + opts.armijo_c * alpha * slope:
                accepted = True
                break
            alpha *= opts.armijo_shrink
        if not accepted:
            return vals, f0, res, it, False
        vals, f0, scale = trial, fv, sv
        it += 1
    res = dual_norm(obj.grad(vals, f0, scale))
    return vals, f0, res, it, res <= tol


def _lm_polish(ws, obj, vals, tol, budget, descend=False):
    """Levenberg-Marquardt on the stationarity residual norm.

    The Hessian used is 0.5*stiffness + diag(obj.hess_diag), the exact
    second derivative of the discrete objective. When the shifted-Newton
    step fails to reduce the residual and descend is set, one backtracked
    preconditioned-gradient step is tried before giving up (escapes
    shallow local minima of the residual norm).
    Returns (vals, res, iters_used, converged).
    """
    dual_norm = ws.quad.dual_norm
    nu = 1e-8
    g = obj.grad(vals)
    res = dual_norm(g)
    it = 0
    while it < budget:
        if res <= tol:
            return vals, res, it, True
        hd = obj.hess_diag(vals)
        dref = np.abs(0.5 * ws.stiff_tri[1, :] + hd[ws.free]) + 1e-300
        improved = False
        for _ in range(60):
            if nu > 1e30:
                break
            try:
                step = ws.solve_shifted(hd, nu, dref, g)
            except ValueError:
                nu *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                nu *= 10.0
                continue
            trial = vals.copy()
            trial[ws.free] -= step
            trial = _pin(trial)
            gv = obj.grad(trial)
            if not np.all(np.isfinite(gv)):
                nu *= 10.0
                continue
            rv = dual_norm(gv)
            if rv < res:
                vals, g, res = trial, gv, rv
                nu = max(nu * 0.25, 1e-16)
                improved = True
                break
            nu *= 10.0
        if not improved and descend:
            d = -ws.precondition(g)
            alpha = 1.0
            while alpha > 1e-14:
                trial = _pin(vals + alpha * d)
                gv = obj.grad(trial)
                if np.all(np.isfinite(gv)):
                    rv = dual_norm(gv)
                    if rv < res:
                        vals, g, res = trial, gv, rv
                        improved = True
                        break
                alpha *= 0.25
        it += 1
        if not improved:
            return vals, res, it, False
    return vals, res, it, res <= tol


def _hybrid(ws, obj, vals, opts):
    """Descent chunks alternated with LM polish until grad_tol or budget.

    ws must have its preconditioner factored.
    """
    tol = opts.grad_tol
    budget = opts.max_iters
    used = 0
    switch = 1e-4
    best_vals, best_res = vals, math.inf
    stagnant = 0
    while used < budget:
        round_start = best_res
        chunk = min(6000, budget - used)
        vals, _, res, n, _ = _armijo_descent(ws, obj, vals, max(tol, switch), chunk, opts)
        used += max(n, 1)
        if res < best_res:
            best_vals, best_res = vals, res
        if best_res <= tol:
            return best_vals, best_res, used, True
        if used >= budget:
            break
        vals2, res2, n2, _ = _lm_polish(
            ws, obj, vals, tol, min(300, budget - used), descend=True
        )
        used += max(n2, 1)
        if res2 < best_res:
            best_vals, best_res = vals2, res2
        if best_res <= tol:
            return best_vals, best_res, used, True
        if res2 < res:
            vals = vals2
        switch = max(tol, min(switch * 1e-2, best_res * 1e-2))
        if best_res > round_start * (1.0 - 1e-6):
            stagnant += 1
            if stagnant >= 3:
                break
        else:
            stagnant = 0
    return best_vals, best_res, used, best_res <= tol


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


def _align_init(grid: RadialGrid, params: Params, vals: np.ndarray) -> np.ndarray:
    """Pick the best grid-exact scaling and amplitude of the init profile.

    The quotient along the family A * shift_k(u) has a closed-form
    optimal amplitude per shift, so the scan is one pass of integrals
    per candidate shift. Kept deterministic; includes the unshifted
    profile so an already-good init survives unchanged.
    """
    p, q = params.p, params.q
    quad = grid.quad
    M = grid.M
    best = (math.inf, 0, 1.0)
    for k in range(-(M - 2), M - 1, 4):
        sv = shift_values(grid, vals, k)
        sv[0] = 0.0
        sv[-1] = 0.0
        if not np.any(sv):
            continue
        d = 0.5 * quad.dirich(sv)
        e = quad.wint(sv, q, params.b) / q
        f = quad.wint(sv, p, params.a) / p
        if f <= 0 or d <= 0 or e <= 0:
            continue
        try:
            A = (d * (p - 2.0) / (e * (q - p))) ** (1.0 / (q - 2.0))
            val = (d * A ** 2 + e * A ** q) / (f * A ** p)
        except OverflowError:
            continue
        if math.isfinite(val) and val < best[0]:
            best = (val, k, A)
    if not math.isfinite(best[0]):
        raise ZeroProfileError("initial profile vanishes on the interior nodes")
    _, k, A = best
    out = A * shift_values(grid, vals, k)
    return _pin(out)


def minimize_rayleigh(
    grid: RadialGrid, params: Params, init: RadialProfile, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """First-eigenvalue estimate: minimize I/J over interior nodal profiles.

    Reports lambda = I/J at the computed critical point together with
    the Euler-Lagrange, Pohozaev, and eigenvalue-relation residuals.
    The value is the discrete window's upper bound for the continuum
    radial infimum; it decreases as the window widens.
    """
    if init.is_zero():
        raise ZeroProfileError("minimize_rayleigh needs a nonzero initial profile")
    if init.grid is not grid and (init.grid.M != grid.M or init.grid.s_min != grid.s_min
                                  or init.grid.s_max != grid.s_max or init.grid.N != grid.N):
        raise DomainError("init profile lives on a different grid")
    if grid.N != params.N:
        raise DomainError("grid dimension does not match params.N")

    obj = _Quotient(grid, params)
    vals = _pin(init.values)
    if not np.any(vals):
        raise ZeroProfileError("initial profile vanishes on the interior nodes")

    res0 = grid.quad.dual_norm(obj.grad(vals))
    iters = 0
    if res0 > opts.grad_tol:
        vals = _align_init(grid, params, vals)
        ws = _Workspace(grid)
        ws.factor_preconditioner(0.5 * obj.massb)
        vals, res, iters, converged = _hybrid(ws, obj, vals, opts)
    else:
        res, converged = res0, True

    lam = obj.lam(vals)
    return _report(grid, params, vals, lam, iters, res, converged, lam)


def _check_coercive(params: Params, terms: list[TermSpec], lam: float) -> None:
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
    _check_coercive(params, terms, lam)

    obj = Energy(grid, energy_terms(params, lam, terms))
    if not any(t.c > 0 for t in terms) and lam <= 0:
        return _report(grid, params, np.zeros(grid.M), 0.0, 0, 0.0, True, lam, terms)

    # init: most negative energy over a shift x amplitude family scan
    quad = grid.quad
    base = sample_function(grid, "Gaussian", sigma=1.0).values
    best = (math.inf, None)
    amps = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    for k in range(-(grid.M - 2), grid.M - 1, 8):
        sv = _pin(shift_values(grid, base, k))
        if not np.any(sv):
            continue
        d = 0.5 * quad.dirich(sv)
        ints = [(c, quad.wint(sv, r, eta)) for (c, eta, r) in obj.terms]
        rs = [r for (_, _, r) in obj.terms]
        for A in amps:
            val = d * A * A + sum(c * iv * A ** r for (c, iv), r in zip(ints, rs))
            if val < best[0]:
                best = (val, A * sv)
    if best[1] is None:
        raise ZeroProfileError("initialization scan found no usable profile")
    vals = _pin(best[1])

    ws = _Workspace(grid)
    ws.factor_preconditioner(0.5 * quad.mass(params.b))
    vals, res, iters, converged = _hybrid(ws, obj, vals, opts)
    return _report(grid, params, vals, obj.value(vals), iters, res, converged, lam, terms)


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
    obj = Energy(u.grid, energy_terms(params, lam, terms))
    tol = min(opts.grad_tol, 1e-10)
    vals = _pin(u.values)
    vals, res, iters, converged = _lm_polish(
        _Workspace(u.grid), obj, vals, tol, min(opts.max_iters, 500)
    )
    return _report(u.grid, params, vals, obj.value(vals), iters, res, converged, lam, terms)


_PROBE_MAX_ITERS = 20_000


def probe_best_constant(
    grid: RadialGrid,
    N: int,
    eta: float,
    opts: SolveOptions = SolveOptions(),
    init: RadialProfile | None = None,
) -> float:
    """Upper bound for the critical embedding constant S_eta.

    Minimizes int |grad u|^2 / (int |u|^c |x|^-eta)^(2/c) with
    c = 2(N-eta)/(N-2) over interior profiles, by the preconditioned
    Armijo descent of the other drivers with a pure-stiffness
    preconditioner. The quotient is invariant under amplitude scaling,
    so the init is normalized to a unit denominator once and iterates
    are not renormalized. init defaults to the Aubin-Talenti profile.

    The descent runs at most min(opts.max_iters, 20_000) iterations.
    When it stops above opts.grad_tol, at that cap or on a failed line
    search, a RuntimeWarning gives the final dual-norm residual; the
    quotient at the last iterate is returned either way.
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
    vals = _pin(init.values)
    B = grid.quad.wint(vals, c, eta)
    if B <= 0:
        raise DomainError("probe initialization degenerate on this grid")
    vals = vals / B ** (1.0 / c)

    ws = _Workspace(grid)
    # pure-stiffness preconditioner; the shift only guards the factorization
    tiny = np.zeros(grid.M)
    tiny[ws.free] = 1e-12 * np.abs(ws.stiff_tri[1, :])
    ws.factor_preconditioner(tiny)
    budget = min(opts.max_iters, _PROBE_MAX_ITERS)
    _, S, res, iters, converged = _armijo_descent(
        ws, _ProbeQuotient(grid, c, eta), vals, opts.grad_tol, budget, opts
    )
    if not converged:
        warnings.warn(
            f"probe_best_constant stopped after {iters} of at most {budget} iterations "
            f"at dual-norm residual {res:.3e} > grad_tol {opts.grad_tol:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return S
