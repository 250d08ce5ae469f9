"""Discrete energy functionals, their exact gradients, and verification residuals.

The operator-side energy and the eigen-term potential are

    I(u) = 1/2 int |grad u|^2 + 1/q int |u|^q |x|^(-b),
    J(u) = 1/p int |u|^p |x|^(-a),

and the full objective for a term list {(c_j, eta_j, r_j)} is

    Phi(u) = I(u) - lambda J(u) - sum_j (c_j / r_j) int |u|^(r_j) |x|^(-eta_j).

Energy is the one discrete Phi: value, exact gradient and Hessian
diagonal on raw nodal values, evaluated through the grid's Quadrature.
_phi_energy builds it for the solvers, phi, grad_phi, el_residual and
I_energy, and checks that the grid's dimension is params.N, as J_energy
and pohozaev_residual do: a mismatch is a DomainError everywhere.
Gradients are exact derivatives of the discrete sums with respect to
nodal values (differentiate the quadrature, not the PDE), so central
finite differences reproduce them to rounding. The residuals below are
the workbench's verification surface: Euler-Lagrange stationarity in a
quadrature-weighted dual norm, the Pohozaev balance, and the eigenvalue
relation I = lambda J. _residuals gives all three, for solver reports
and `inlslab verify` alike. The public functions evaluate the grid's
kernels under np.errstate(over="ignore", invalid="ignore"): a profile
whose sums leave the float range gives inf or nan, or the DomainError of
project_to_M, without a numpy warning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ZeroProfileError, _Value
from .exponents import Params, _bisect, _scan
from .grid import RadialGrid, RadialProfile, dirichlet_energy, scale, weighted_integral

EPS = float(np.finfo(float).eps)


class TermSpec(_Value):
    """One power-type nonlinearity term c |u|^(r-2) u / |x|^eta."""

    __slots__ = _fields = ("c", "eta", "r")

    def __init__(self, c: float, eta: float, r: float):
        if not math.isfinite(c):
            raise DomainError(f"term coefficient c must be finite, got {c}")
        if not 1 < r < math.inf:
            raise DomainError(f"term power r must be finite and > 1, got {r}")
        if not 0 <= eta < 2:
            raise DomainError(f"term weight eta must lie in [0, 2), got {eta}")
        _Value.__init__(self, float(c), float(eta), float(r))  # as derive_params: no numpy scalar reaches a report


class FunctionalReport(_Value):
    __slots__ = _fields = ("I", "J", "rayleigh", "phi", "grad_norm")


def energy_terms(params: Params, lam: float, terms: list[TermSpec]) -> list[tuple[float, float, float]]:
    """The (coeff, eta, r) list of Phi, each meaning coeff * int |u|^r |x|^-eta:
    the operator term, the eigen term (when lam != 0), then the term list."""
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    out = [(1.0 / params.q, params.b, params.q)]
    if lam != 0.0:
        out.append((-lam / params.p, params.a, params.p))
    out += [(-t.c / t.r, t.eta, t.r) for t in terms]
    return out


class _Point:
    """What an energy's value, gradient and Hessian diagonal at nodal values v
    share: a = |v|, sign(v), the cell slopes and t_k = a^(r_k - 1) for each
    power r_k of its terms, so that a^r_k = t_k a and a^(r_k - 2) = t_k / a."""

    __slots__ = ("a", "sign", "slopes", "t", "_a_or_1")

    def __init__(self, quad, vals: np.ndarray, powers: list[float]):
        self.a, self.sign = np.abs(vals), np.sign(vals)
        self.slopes = quad.slopes(vals)
        self.t = [self.a ** (r - 1.0) for r in powers]
        self._a_or_1 = None

    def curv(self, k: int, r: float) -> np.ndarray | float:
        """a^(r - 2) = t_k / a for the k-th power r: 0 at a = 0 (1 for r = 2), inf where it overflows."""
        if r == 2.0:
            return 1.0
        if self._a_or_1 is None:
            self._a_or_1 = self.a + (self.a == 0.0)  # t_k / 1 = 0 where a = 0
        return self.t[k] / self._a_or_1


class Energy:
    """Discrete Phi = stiff_weight dirichlet + sum_k coeff_k wint(r_k, eta_k)
    on nodal values.

    terms is a (coeff, eta, r) list as built by energy_terms. The
    Dirichlet weight stiff_weight is 1/2 in Phi; the embedding-constant
    probe's numerator is Energy(grid, [], stiff_weight=1.0). value(x) and
    the solvers' interface, evaluate(x) = (value, slope scale), grad and
    hess_diag at (x, value, scale), take nodal values or their point; an
    energy's slope scale is 1. hess_diag is the diagonal part of the
    Hessian, whose tridiagonal part is stiff_weight times the stiffness
    band quad.stiff. grad adds its terms one by one, left to right.
    """

    def __init__(self, grid: RadialGrid, terms: list[tuple[float, float, float]], stiff_weight: float = 0.5):
        self.quad = grid.quad
        self.terms = terms
        self.stiff_weight = stiff_weight
        self.powers = [r for _, _, r in terms]
        self.masses = [self.quad.mass(eta) for _, eta, _ in terms]
        # grad's and hess_diag's factors c r mass, c r (r-1) mass; a huge c makes them inf (_newton rejects)
        with np.errstate(over="ignore", invalid="ignore"):
            self._gmass = [c * r * m for (c, _, r), m in zip(terms, self.masses)]
            self._hmass = [c * r * (r - 1.0) * m for (c, _, r), m in zip(terms, self.masses)]

    def point(self, vals: np.ndarray | _Point) -> _Point:
        """The point at vals (vals if it is one)."""
        return vals if isinstance(vals, _Point) else _Point(self.quad, vals, self.powers)

    def value(self, x: np.ndarray | _Point) -> float:
        pt = self.point(x)
        out = self.stiff_weight * float(self.quad.dirich_rows(pt.slopes))
        for (c, eta, _), t in zip(self.terms, pt.t):
            out += c * float(self.quad.wint_rows(t * pt.a, eta))
        return out

    def evaluate(self, x: np.ndarray | _Point) -> tuple[float, float]:
        return self.value(x), 1.0

    def grad(self, x: np.ndarray | _Point, value=None, scale=None) -> np.ndarray:
        pt = self.point(x)
        out = self.stiff_weight * self.quad.grad_dirich(pt.slopes)
        for gm, t in zip(self._gmass, pt.t):
            out += gm * t * pt.sign
        return out

    def hess_diag(self, x: np.ndarray | _Point, value=None, scale=None) -> np.ndarray:
        pt = self.point(x)
        out = np.zeros(len(pt.a))
        for k, (r, hm) in enumerate(zip(self.powers, self._hmass)):
            out += hm * pt.curv(k, r)
        return out


def _check_dimension(grid: RadialGrid, params: Params) -> None:
    if grid.N != params.N:
        raise DomainError("grid dimension does not match params.N")


def _phi_energy(grid: RadialGrid, params: Params, lam: float, terms: list[TermSpec]) -> Energy:
    """The one constructor of the discrete Phi(.; lam, terms) on grid."""
    _check_dimension(grid, params)
    return Energy(grid, energy_terms(params, lam, terms))


def I_energy(u: RadialProfile, params: Params) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return _phi_energy(u.grid, params, 0.0, []).value(u.values)


def J_energy(u: RadialProfile, params: Params) -> float:
    _check_dimension(u.grid, params)
    return weighted_integral(u, params.p, params.a) / params.p


def rayleigh(u: RadialProfile, params: Params) -> float:
    """Quotient I(u)/J(u); invariant under grid-exact scalings."""
    if u.is_zero():
        raise ZeroProfileError("Rayleigh quotient undefined for the zero profile")
    return I_energy(u, params) / J_energy(u, params)


def phi(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return _phi_energy(u.grid, params, lam, terms).value(u.values)


def grad_phi(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> np.ndarray:
    """Exact gradient of the discrete phi w.r.t. nodal values, outer node excluded.

    Returns a vector of length M-1 (nodes 0 .. M-2); the outer node is
    pinned to zero by the profile invariant.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _phi_energy(u.grid, params, lam, terms).grad(u.values)[:-1]


def el_residual(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> float:
    """Dual norm of the discrete Euler-Lagrange gradient over interior nodes.

    The gradient entries are divided by the node volume weights (the
    Riesz map of the discrete L^2 pairing), which keeps the value stable
    under grid refinement. Both boundary nodes are excluded: the outer
    one is pinned by the profile invariant and the inner one is pinned
    by the solvers, so interior stationarity is what characterizes a
    computed critical point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return u.grid.quad.dual_norm(_phi_energy(u.grid, params, lam, terms).grad(u.values))


def pohozaev_residual(u: RadialProfile, params: Params, terms: list[TermSpec]) -> float:
    """Symmetric relative defect of the Pohozaev balance

        (N-2)/2 int |grad u|^2 + (N-b)/q int |u|^q |x|^(-b)
            = sum_j c_j (N-eta_j)/r_j int |u|^(r_j) |x|^(-eta_j).
    """
    _check_dimension(u.grid, params)
    N, b, q = params.N, params.b, params.q
    lhs = 0.5 * (N - 2) * dirichlet_energy(u) + (N - b) / q * weighted_integral(u, q, b)
    rhs = 0.0
    for t in terms:
        rhs += t.c * (N - t.eta) / t.r * weighted_integral(u, t.r, t.eta)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS)  # inf / inf is nan, with no warning


def eigen_relation_residual(u: RadialProfile, params: Params, lam: float) -> float:
    """Relative defect of I(u) = lambda J(u)."""
    Iv = I_energy(u, params)
    Jv = J_energy(u, params)
    return abs(Iv - lam * Jv) / (Iv + lam * Jv + EPS)


def _residuals(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> dict:
    """The residuals of u as a critical point of Phi(.; lam, terms); the eigen
    term joins the Pohozaev balance as the term (lam, a, p) when lam != 0."""
    el_res = el_residual(u, params, lam, terms)  # rejects a non-finite lambda first
    full = list(terms) + ([TermSpec(lam, params.a, params.p)] if lam != 0.0 else [])
    return {
        "el_res": el_res,
        "pohozaev_res": pohozaev_residual(u, params, full),
        "eigen_rel_res": eigen_relation_residual(u, params, lam),
    }


def project_to_M(u: RadialProfile, params: Params) -> RadialProfile:
    """Scale u along the orbit onto the level set I = 1.

    Starts from the closed-form t = I(u)^(-1/ell), exact only for grid-exact
    t, brackets the root of I(u_t) = 1 by halving and doubling t (_scan),
    and returns u_t at the float t of least |I(u_t) - 1| there (_bisect);
    t stays within e^(+-700). Raises DomainError if I(u) is not a positive
    float or no scaling of u reaches I = 1 inside the grid window.
    """
    if u.is_zero():
        raise ZeroProfileError("cannot project the zero profile")
    Iu = I_energy(u, params)
    if not 0 < Iu < math.inf:
        raise DomainError(f"I(u) = {Iu!r} is not a positive float: u cannot be projected")

    def u_t(t: float) -> RadialProfile:
        return scale(u, min(t, math.exp(700.0)), params.delta)

    def f(t: float) -> float:
        return I_energy(u_t(t), params) - 1.0

    t = math.exp(min(max(-math.log(Iu) / params.ell, -700.0), 700.0))
    lo = _scan(f, t, 0.5, below=True)
    hi = _scan(f, t, 2.0)
    if not f(lo) < 0 < f(hi):  # hi is finite when f(hi) > 0: f(t) is f(e^700) beyond e^700
        raise DomainError(
            "projection target I = 1 is not reachable by scaling inside the grid window"
        )
    return u_t(_bisect(f, lo, hi))


def functional_report(
    u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]
) -> FunctionalReport:
    Iv = I_energy(u, params)
    Jv = J_energy(u, params)
    return FunctionalReport(
        I=Iv,
        J=Jv,
        rayleigh=(Iv / Jv) if Jv > 0 else math.nan,
        phi=phi(u, params, lam, terms),
        grad_norm=el_residual(u, params, lam, terms),
    )


def scale_profile(u: RadialProfile, t: float, params: Params) -> RadialProfile:
    """Convenience wrapper: the equation's own scaling rate."""
    return scale(u, t, params.delta)
