"""Optimization drivers over radial profiles.

All solvers share one strategy, validated on the reference problems:

* search space: nodal values with BOTH boundary nodes pinned to zero.
  The outer pin is the profile invariant; the inner pin makes every
  iterate zero-extendable to the whole space, so computed quotient
  values are upper bounds of the continuum infimum. (With the inner
  node free, the truncated-window quotient is minimized by profiles
  escaping through s_min, which undershoots the true value.)
* descent: gradient steps preconditioned by the fixed symmetric
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

The Rayleigh driver does not renormalize iterates onto I = 1: the
quotient is scale-free, and interpolated rescaling would inject O(h^2)
noise that breaks monotone descent. Iterates keep their natural window
scale and reports quote lambda = I/J directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotCoerciveConfig, SingularHessian, ZeroProfileError
from .functionals import (
    TermSpec,
    _mass,
    eigen_relation_residual,
    pohozaev_residual,
    volume_weights,
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
    """Precomputed quadrature arrays for one grid, plus the factored
    descent preconditioner once a driver has set it."""

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        M = grid.M
        s = grid.nodes
        self.omega_h = grid.omega * grid.h
        self.w = grid.trapezoid_weights()
        self.mu = volume_weights(grid)
        self.smid = np.sqrt(s[:-1] * s[1:])
        self.ds = s[1:] - s[:-1]
        self.cw = grid.omega * grid.h * self.smid ** grid.N
        self.spring = 2.0 * self.cw / self.ds ** 2
        self.free = slice(1, M - 1)
        # tridiagonal of the full gradient quadratic form on free nodes
        k = self.spring
        ab = np.zeros((3, M - 2))
        ab[1, :] = k[:-1] + k[1:]
        ab[0, 1:] = -k[1:-1]
        ab[2, :-1] = -k[1:-1]
        self.stiff_tri = ab
        self._wpow = {}
        self._pre = None

    def mass(self, eta: float) -> np.ndarray:
        return _mass(self.grid, eta)

    def wint(self, vals: np.ndarray, r: float, eta: float) -> float:
        """grid.weighted_integral on raw nodal values, bit for bit.

        The cached w * s^(N-eta) reassociates w * |v|^r * s^(N-eta); w is
        0.5 or 1, so both orders round to the same products.
        """
        wp = self._wpow.get(eta)
        if wp is None:
            g = self.grid
            wp = self._wpow[eta] = self.w * g.nodes ** (g.N - eta)
        return self.omega_h * float((np.abs(vals) ** r * wp).sum())

    def dirich(self, vals: np.ndarray) -> float:
        slopes = (vals[1:] - vals[:-1]) / self.ds
        return float((self.cw * slopes * slopes).sum())

    def grad_dirich(self, vals: np.ndarray) -> np.ndarray:
        slopes = (vals[1:] - vals[:-1]) / self.ds
        f = 2.0 * self.cw * slopes / self.ds
        out = np.zeros(self.grid.M)
        out[1:] += f
        out[:-1] -= f
        return out

    def dual_norm(self, g: np.ndarray) -> float:
        gf = g[self.free]
        return math.sqrt(float((gf * gf / self.mu[self.free]).sum()))

    def factor_preconditioner(self, mass_diag: np.ndarray) -> None:
        """Factor stiffness + diag(mass_diag) on the free nodes for precondition()."""
        ab = self.stiff_tri.copy()
        ab[1, :] += mass_diag[self.free]
        self._pre = _Tridiag(ab)

    def precondition(self, g: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.M)
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


def _pow(vals: np.ndarray, e: float) -> np.ndarray:
    """|v|^e with the convention 0^e = 0 also for e <= 0 (term powers < 2)."""
    if e >= 0:
        return np.abs(vals) ** e
    out = np.zeros_like(vals)
    nz = vals != 0
    out[nz] = np.abs(vals[nz]) ** e
    return out


class _Objective:
    """Discrete functional sum_k coeff_k * wint(r_k, eta_k) + 1/2 dirichlet.

    Covers both drivers: the coercive energy directly, and the Rayleigh
    quotient through its numerator.

    The drivers see an objective through three methods: evaluate(vals)
    gives (value, scale), where the Armijo test divides the slope by
    scale; grad(vals, value) is the stationarity gradient, which may use
    the value already computed at vals; hess_diag(vals) is the diagonal
    part of its derivative.
    """

    def __init__(self, ws: _Workspace, terms: list[tuple[float, float, float]]):
        # terms: (coeff, eta, r) meaning coeff * int |u|^r |x|^-eta
        self.ws = ws
        self.terms = terms
        self.masses = [ws.mass(eta) for _, eta, _ in terms]

    def value(self, vals: np.ndarray) -> float:
        out = 0.5 * self.ws.dirich(vals)
        for (c, eta, r) in self.terms:
            out += c * self.ws.wint(vals, r, eta)
        return out

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        return self.value(vals), 1.0

    def grad(self, vals: np.ndarray, value: float | None = None) -> np.ndarray:
        out = 0.5 * self.ws.grad_dirich(vals)
        for (c, _, r), mass in zip(self.terms, self.masses):
            out += c * r * mass * _pow(vals, r - 1.0) * np.sign(vals)
        return out

    def hess_diag(self, vals: np.ndarray) -> np.ndarray:
        out = np.zeros(self.ws.grid.M)
        for (c, _, r), mass in zip(self.terms, self.masses):
            out += c * r * (r - 1.0) * mass * _pow(vals, r - 2.0)
        return out


class _Quotient:
    """Rayleigh quotient lambda = I/J, I = 1/2 dirichlet + 1/q wint(q, b),
    J = 1/p wint(p, a), in the _Objective interface.

    grad is the stationarity gradient gI - lambda gJ, which is J times
    the quotient's gradient; evaluate returns J as the slope scale so
    the Armijo test is a sufficient-decrease test for the quotient.
    """

    def __init__(self, ws: _Workspace, params: Params):
        self.ws = ws
        self.params = params
        self.num = _Objective(ws, [(1.0 / params.q, params.b, params.q)])
        self.massb = ws.mass(params.b)
        self.den_mass = ws.mass(params.a)

    def _I_J(self, vals: np.ndarray) -> tuple[float, float]:
        p = self.params
        return self.num.value(vals), self.ws.wint(vals, p.p, p.a) / p.p

    def lam(self, vals: np.ndarray) -> float:
        I, J = self._I_J(vals)
        return I / J

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        I, J = self._I_J(vals)
        if J <= 0 or not math.isfinite(J):
            return math.inf, J
        return I / J, J

    def grad(self, vals: np.ndarray, lam: float | None = None) -> np.ndarray:
        if lam is None:
            lam = self.lam(vals)
        gJ = self.den_mass * _pow(vals, self.params.p - 1.0) * np.sign(vals)
        return self.num.grad(vals) - lam * gJ

    def hess_diag(self, vals: np.ndarray) -> np.ndarray:
        p = self.params
        lam = self.lam(vals)
        return ((p.q - 1.0) * self.massb * _pow(vals, p.q - 2.0)
                - lam * (p.p - 1.0) * self.den_mass * _pow(vals, p.p - 2.0))


def _armijo_descent(ws, obj, vals, tol, budget, opts):
    """Preconditioned descent with Armijo backtracking.

    Each iterate is evaluated once: the accepted trial's value becomes
    the next reference value and feeds the next gradient.
    Returns (vals, res, iters_used, converged).
    """
    f0, scale = obj.evaluate(vals)
    it = 0
    while it < budget:
        g = obj.grad(vals, f0)
        res = ws.dual_norm(g)
        if res <= tol:
            return vals, res, it, True
        d = -ws.precondition(g)
        slope = float(np.dot(g[ws.free], d[ws.free])) / scale
        if not slope < 0:
            return vals, res, it, False
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
            return vals, res, it, False
        vals, f0, scale = trial, fv, sv
        it += 1
    res = ws.dual_norm(obj.grad(vals, f0))
    return vals, res, it, res <= tol


def _lm_polish(ws, obj, vals, tol, budget, descend=False):
    """Levenberg-Marquardt on the stationarity residual norm.

    The Hessian used is 0.5*stiffness + diag(obj.hess_diag), the exact
    second derivative of the discrete objective. When the shifted-Newton
    step fails to reduce the residual and descend is set, one backtracked
    preconditioned-gradient step is tried before giving up (escapes
    shallow local minima of the residual norm).
    Returns (vals, res, iters_used, converged).
    """
    nu = 1e-8
    g = obj.grad(vals)
    res = ws.dual_norm(g)
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
            rv = ws.dual_norm(gv)
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
                    rv = ws.dual_norm(gv)
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
        vals, res, n, _ = _armijo_descent(ws, obj, vals, max(tol, switch), chunk, opts)
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


def _align_init(ws: _Workspace, params: Params, vals: np.ndarray) -> np.ndarray:
    """Pick the best grid-exact scaling and amplitude of the init profile.

    The quotient along the family A * shift_k(u) has a closed-form
    optimal amplitude per shift, so the scan is one pass of integrals
    per candidate shift. Kept deterministic; includes the unshifted
    profile so an already-good init survives unchanged.
    """
    p, q, delta = params.p, params.q, params.delta
    M = ws.grid.M
    best = (math.inf, 0, 1.0)
    for k in range(-(M - 2), M - 1, 4):
        sv = shift_values(ws.grid, vals, k)
        sv[0] = 0.0
        sv[-1] = 0.0
        if not np.any(sv):
            continue
        d = 0.5 * ws.dirich(sv)
        e = ws.wint(sv, q, params.b) / q
        f = ws.wint(sv, p, params.a) / p
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
    out = A * shift_values(ws.grid, vals, k)
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

    ws = _Workspace(grid)
    obj = _Quotient(ws, params)

    vals = _pin(init.values)
    if not np.any(vals):
        raise ZeroProfileError("initial profile vanishes on the interior nodes")

    res0 = ws.dual_norm(obj.grad(vals))
    iters = 0
    if res0 > opts.grad_tol:
        vals = _align_init(ws, params, vals)
        ws.factor_preconditioner(0.5 * obj.massb)
        vals, res, iters, converged = _hybrid(ws, obj, vals, opts)
    else:
        res, converged = res0, True

    lam = obj.lam(vals)
    profile = RadialProfile(grid, vals)
    eig_terms = [TermSpec(lam, params.a, params.p)]
    return SolveReport(
        value=lam,
        iters=iters,
        el_res=res,
        pohozaev_res=pohozaev_residual(profile, params, eig_terms),
        eigen_rel_res=eigen_relation_residual(profile, params, lam),
        converged=converged,
        profile=profile,
    )


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

    ws = _Workspace(grid)
    pieces = [(1.0 / params.q, params.b, params.q)]
    if lam != 0.0:
        pieces.append((-lam / params.p, params.a, params.p))
    for t in terms:
        pieces.append((-t.c / t.r, t.eta, t.r))
    obj = _Objective(ws, pieces)

    pos = [t for t in terms if t.c > 0]
    if not pos and lam <= 0:
        profile = RadialProfile(grid, np.zeros(grid.M))
        full = list(terms) + ([TermSpec(lam, params.a, params.p)] if lam != 0 else [])
        return SolveReport(
            value=0.0,
            iters=0,
            el_res=0.0,
            pohozaev_res=pohozaev_residual(profile, params, full) if full else 0.0,
            eigen_rel_res=0.0,
            converged=True,
            profile=profile,
        )

    # init: most negative energy over a shift x amplitude family scan
    base = sample_function(grid, "Gaussian", sigma=1.0).values
    best = (math.inf, None)
    amps = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    for k in range(-(grid.M - 2), grid.M - 1, 8):
        sv = _pin(shift_values(grid, base, k))
        if not np.any(sv):
            continue
        d = 0.5 * ws.dirich(sv)
        ints = [(c, ws.wint(sv, r, eta)) for (c, eta, r) in pieces]
        rs = [r for (_, _, r) in pieces]
        for A in amps:
            val = d * A * A + sum(c * iv * A ** r for (c, iv), r in zip(ints, rs))
            if val < best[0]:
                best = (val, A * sv)
    if best[1] is None:
        raise ZeroProfileError("initialization scan found no usable profile")
    vals = _pin(best[1])

    ws.factor_preconditioner(0.5 * ws.mass(params.b))
    vals, res, iters, converged = _hybrid(ws, obj, vals, opts)

    profile = RadialProfile(grid, vals)
    full = list(terms) + ([TermSpec(lam, params.a, params.p)] if lam != 0 else [])
    return SolveReport(
        value=obj.value(vals),
        iters=iters,
        el_res=res,
        pohozaev_res=pohozaev_residual(profile, params, full),
        eigen_rel_res=eigen_relation_residual(profile, params, lam),
        converged=converged,
        profile=profile,
    )


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
    ws = _Workspace(u.grid)
    pieces = [(1.0 / params.q, params.b, params.q)]
    if lam != 0.0:
        pieces.append((-lam / params.p, params.a, params.p))
    for t in terms:
        pieces.append((-t.c / t.r, t.eta, t.r))
    obj = _Objective(ws, pieces)

    tol = min(opts.grad_tol, 1e-10)
    vals = _pin(u.values)
    vals, res, iters, converged = _lm_polish(ws, obj, vals, tol, min(opts.max_iters, 500))

    profile = RadialProfile(u.grid, vals)
    full = list(terms) + ([TermSpec(lam, params.a, params.p)] if lam != 0 else [])
    return SolveReport(
        value=obj.value(vals),
        iters=iters,
        el_res=res,
        pohozaev_res=pohozaev_residual(profile, params, full) if full else 0.0,
        eigen_rel_res=eigen_relation_residual(profile, params, lam),
        converged=converged,
        profile=profile,
    )


def probe_best_constant(
    grid: RadialGrid,
    N: int,
    eta: float,
    opts: SolveOptions = SolveOptions(),
    init: RadialProfile | None = None,
) -> float:
    """Upper bound for the critical embedding constant S_eta.

    Minimizes int |grad u|^2 / (int |u|^c |x|^-eta)^(2/c) with
    c = 2(N-eta)/(N-2) over interior profiles; the quotient is invariant
    under amplitude scaling, so iterates renormalize the denominator to
    one exactly. init defaults to the Aubin-Talenti profile.
    """
    if N < 3:
        raise DomainError(f"probe requires N >= 3, got {N}")
    if not 0 <= eta < 2:
        raise DomainError(f"eta must lie in [0, 2), got {eta}")
    if grid.N != N:
        raise DomainError("grid dimension does not match N")
    c = critical_exponent(N, eta)
    ws = _Workspace(grid)
    mass = ws.mass(eta)

    def evaluate(vals):
        """(quotient, dirichlet form A, denominator integral B)."""
        A, B = ws.dirich(vals), ws.wint(vals, c, eta)
        if B <= 0 or not math.isfinite(B):
            return math.inf, A, B
        return A / B ** (2.0 / c), A, B

    if init is None:
        init = sample_function(grid, "AubinTalenti", scale=1.0)
    vals = _pin(init.values)
    B = ws.wint(vals, c, eta)
    if B <= 0:
        raise DomainError("probe initialization degenerate on this grid")
    vals = vals / B ** (1.0 / c)

    # pure-stiffness preconditioner; the shift only guards the factorization
    tiny = np.zeros(grid.M)
    tiny[ws.free] = 1e-12 * np.abs(ws.stiff_tri[1, :])
    ws.factor_preconditioner(tiny)
    f0, A, B = evaluate(vals)
    it = 0
    while it < min(opts.max_iters, 20_000):
        g = ws.grad_dirich(vals) - (2.0 * A / (c * B)) * (
            c * mass * _pow(vals, c - 1.0) * np.sign(vals)
        )
        g = g / B ** (2.0 / c)
        res = ws.dual_norm(g)
        if res <= opts.grad_tol:
            break
        d = -ws.precondition(g)
        slope = float(np.dot(g[ws.free], d[ws.free]))
        if not slope < 0:
            break
        alpha = opts.step_init
        accepted = False
        while alpha > 1e-18:
            trial = _pin(vals + alpha * d)
            fv, _, Bt = evaluate(trial)
            if math.isfinite(fv) and fv <= f0 + opts.armijo_c * alpha * slope:
                accepted = True
                break
            alpha *= opts.armijo_shrink
        if not accepted:
            break
        vals = trial / Bt ** (1.0 / c)
        f0, A, B = evaluate(vals)
        it += 1
    return f0
