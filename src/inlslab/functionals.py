"""Discrete energy functionals, their exact gradients, and verification residuals.

The operator-side energy and the eigen-term potential are

    I(u) = 1/2 int |grad u|^2 + 1/q int |u|^q |x|^(-b),
    J(u) = 1/p int |u|^p |x|^(-a),

and the full objective for a term list {(c_j, eta_j, r_j)} is

    Phi(u) = I(u) - lambda J(u) - sum_j (c_j / r_j) int |u|^(r_j) |x|^(-eta_j).

Energy is the one discrete Phi: value, exact gradient and Hessian
diagonal on raw nodal values, evaluated through the grid's Quadrature.
The solvers minimize it, and phi, grad_phi, el_residual and I_energy
wrap it, so a solver's reported residual is the public one bit for bit.
Gradients are exact derivatives of the discrete sums with respect to
nodal values (differentiate the quadrature, not the PDE), so central
finite differences reproduce them to rounding. The residuals below are
the workbench's verification surface: Euler-Lagrange stationarity in a
quadrature-weighted dual norm, the Pohozaev balance, and the eigenvalue
relation I = lambda J.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SearchFailed, ZeroProfileError, _set, _Value
from .exponents import Params
from .grid import RadialGrid, RadialProfile, dirichlet_energy, scale, weighted_integral

EPS = np.finfo(float).eps


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
        _set(self, "c", c)
        _set(self, "eta", eta)
        _set(self, "r", r)


class FunctionalReport(_Value):
    __slots__ = _fields = ("I", "J", "rayleigh", "phi", "grad_norm")

    def __init__(self, I: float, J: float, rayleigh: float, phi: float, grad_norm: float):
        _set(self, "I", I)
        _set(self, "J", J)
        _set(self, "rayleigh", rayleigh)
        _set(self, "phi", phi)
        _set(self, "grad_norm", grad_norm)


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


def _pow(vals: np.ndarray, e: float) -> np.ndarray:
    """|v|^e with the convention 0^e = 0 also for e <= 0 (term powers < 2)."""
    if e >= 0:
        return np.abs(vals) ** e
    out = np.zeros_like(vals)
    nz = vals != 0
    out[nz] = np.abs(vals[nz]) ** e
    return out


class Energy:
    """Discrete Phi = stiff_weight dirichlet + sum_k coeff_k wint(r_k, eta_k)
    on nodal values.

    terms is a (coeff, eta, r) list as built by energy_terms. The
    Dirichlet weight stiff_weight is 1/2 in Phi; the embedding-constant
    probe's numerator is Energy(grid, [], stiff_weight=1.0). The
    solvers read it through evaluate(vals) = (value, slope scale),
    grad(vals, value, scale) and hess_diag(vals, value, scale); an
    energy's slope scale is 1. hess_diag is the diagonal part of the
    Hessian, whose tridiagonal part is stiff_weight times the stiffness
    band quad.stiff.
    """

    def __init__(self, grid: RadialGrid, terms: list[tuple[float, float, float]], stiff_weight: float = 0.5):
        self.quad = grid.quad
        self.terms = terms
        self.stiff_weight = stiff_weight
        self.masses = [self.quad.mass(eta) for _, eta, _ in terms]

    def value(self, vals: np.ndarray) -> float:
        out = self.stiff_weight * self.quad.dirich(vals)
        for (c, eta, r) in self.terms:
            out += c * self.quad.wint(vals, r, eta)
        return out

    def evaluate(self, vals: np.ndarray) -> tuple[float, float]:
        return self.value(vals), 1.0

    def grad(self, vals: np.ndarray, value: float | None = None, scale: float | None = None) -> np.ndarray:
        out = self.stiff_weight * self.quad.grad_dirich(vals)
        for (c, _, r), mass in zip(self.terms, self.masses):
            out += c * r * mass * _pow(vals, r - 1.0) * np.sign(vals)
        return out

    def hess_diag(self, vals: np.ndarray, value: float | None = None, scale: float | None = None) -> np.ndarray:
        out = np.zeros(len(vals))
        for (c, _, r), mass in zip(self.terms, self.masses):
            out += c * r * (r - 1.0) * mass * _pow(vals, r - 2.0)
        return out


def _phi_energy(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> Energy:
    return Energy(u.grid, energy_terms(params, lam, terms))


def I_energy(u: RadialProfile, params: Params) -> float:
    return _phi_energy(u, params, 0.0, []).value(u.values)


def J_energy(u: RadialProfile, params: Params) -> float:
    return weighted_integral(u, params.p, params.a) / params.p


def rayleigh(u: RadialProfile, params: Params) -> float:
    """Quotient I(u)/J(u); invariant under grid-exact scalings."""
    if u.is_zero():
        raise ZeroProfileError("Rayleigh quotient undefined for the zero profile")
    return I_energy(u, params) / J_energy(u, params)


def phi(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> float:
    return _phi_energy(u, params, lam, terms).value(u.values)


def grad_phi(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> np.ndarray:
    """Exact gradient of the discrete phi w.r.t. nodal values, outer node excluded.

    Returns a vector of length M-1 (nodes 0 .. M-2); the outer node is
    pinned to zero by the profile invariant.
    """
    return _phi_energy(u, params, lam, terms).grad(u.values)[:-1]


def el_residual(u: RadialProfile, params: Params, lam: float, terms: list[TermSpec]) -> float:
    """Dual norm of the discrete Euler-Lagrange gradient over interior nodes.

    The gradient entries are divided by the node volume weights (the
    Riesz map of the discrete L^2 pairing), which keeps the value stable
    under grid refinement. Both boundary nodes are excluded: the outer
    one is pinned by the profile invariant and the inner one is pinned
    by the solvers, so interior stationarity is what characterizes a
    computed critical point.
    """
    return u.grid.quad.dual_norm(_phi_energy(u, params, lam, terms).grad(u.values))


def pohozaev_residual(u: RadialProfile, params: Params, terms: list[TermSpec]) -> float:
    """Symmetric relative defect of the Pohozaev balance

        (N-2)/2 int |grad u|^2 + (N-b)/q int |u|^q |x|^(-b)
            = sum_j c_j (N-eta_j)/r_j int |u|^(r_j) |x|^(-eta_j).
    """
    N, b, q = params.N, params.b, params.q
    lhs = 0.5 * (N - 2) * dirichlet_energy(u) + (N - b) / q * weighted_integral(u, q, b)
    rhs = 0.0
    for t in terms:
        rhs += t.c * (N - t.eta) / t.r * weighted_integral(u, t.r, t.eta)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS)


def eigen_relation_residual(u: RadialProfile, params: Params, lam: float) -> float:
    """Relative defect of I(u) = lambda J(u)."""
    Iv = I_energy(u, params)
    Jv = J_energy(u, params)
    return abs(Iv - lam * Jv) / (Iv + lam * Jv + EPS)


def project_to_M(u: RadialProfile, params: Params) -> RadialProfile:
    """Scale u along the orbit onto the level set I = 1.

    Starts from the closed-form guess t = I(u)^(-1/ell) and, because the
    discrete scaling only transforms I approximately for interpolated t,
    refines t by bracketed bisection on ln t until |I - 1| <= 1e-10 (or
    the bracket is exhausted at float resolution). Raises DomainError if
    no scaling of u can reach I = 1 inside the grid window.
    """
    if u.is_zero():
        raise ZeroProfileError("cannot project the zero profile")
    g = u.grid
    delta, ell = params.delta, params.ell
    Iu = I_energy(u, params)

    def at(lt: float):
        v = scale(u, math.exp(min(lt, 700.0)), delta)
        return v, I_energy(v, params) - 1.0

    lt = -math.log(Iu) / ell  # ln of the closed-form guess I(u)^(-1/ell)
    v, res = at(lt)
    if abs(res) <= 1e-10:
        return v

    step = max(0.5 * g.h, abs(res))
    lo = hi = lt
    flo = fhi = res
    n = 0
    while flo > 0 and n < 300:
        lo -= step
        step *= 2.0
        _, flo = at(lo)
        n += 1
    step = max(0.5 * g.h, abs(res))
    while fhi < 0 and n < 300:
        hi += step
        step *= 2.0
        _, fhi = at(hi)
        n += 1
    if flo > 0 or fhi < 0:
        raise DomainError(
            "projection target I = 1 is not reachable by scaling inside the grid window"
        )
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        v, fm = at(mid)
        if abs(fm) <= 1e-10 or hi - lo < 1e-15:
            break
        if fm < 0:
            lo = mid
        else:
            hi = mid
    else:  # pragma: no cover
        raise SearchFailed("projection bisection exhausted its iteration budget")
    return v


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
