"""Log-uniform radial grid, singular-weight quadrature, and the scaling action.

A radial function u(|x|) on R^N is stored by its values on nodes
s_i = s_min * exp(i h). In the log variable x = ln s every weighted
integral becomes a smooth integral with weight s^(N-eta):

    int |u|^r |x|^(-eta) dx = omega_{N-1} int |u(s)|^r s^(N-eta) d(ln s),

evaluated by the trapezoid rule. The gradient term uses cell slopes
(two-point differences) against geometric-midpoint weights; this keeps
the quadratic form positive definite on every mesh mode and makes its
Hessian tridiagonal. Both sums, their nodal gradients, the stiffness
band and the dual norm are written once, in the Quadrature each grid
builds on first use (RadialGrid.quad); every energy and solver
evaluates through it.

The scaling u_t(x) = t^delta u(tx) acts on the log grid as a pure index
shift when ln t is a multiple of h (exact up to window truncation) and
by linear interpolation in ln s otherwise. Below s_min a profile is
extended by its innermost value (profiles need not vanish at the
origin); above s_max by zero.
"""

from __future__ import annotations

import math
from functools import cached_property
from enum import Enum

import numpy as np

from .errors import DomainError, _set, _Value
from .reports import fmt_float

#: outer node is pinned to zero after every construction
_MIN_NODES = 16


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere, 2 pi^(N/2) / Gamma(N/2).

    Computed through the half-integer factorial recurrence so integer
    dimensions need no special-function calls.
    """
    if int(N) != N or N < 1:
        raise DomainError(f"dimension must be a positive integer, got {N}")
    N = int(N)
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


class RadialGrid(_Value):
    """Log-uniform radial mesh on [s_min, s_max] with M nodes.

    h, the read-only nodes and the sphere area omega are derived from the
    four arguments; the repr shows h but not nodes or omega.
    """

    # __dict__ holds the cached quad
    __slots__ = ("s_min", "s_max", "M", "N", "h", "nodes", "omega", "__dict__")
    _fields = ("s_min", "s_max", "M", "N", "h")

    def __init__(self, s_min: float, s_max: float, M: int, N: int):
        h = math.log(s_max / s_min) / (M - 1)
        nodes = s_min * np.exp(h * np.arange(M))
        nodes.flags.writeable = False
        _set(self, "s_min", s_min)
        _set(self, "s_max", s_max)
        _set(self, "M", M)
        _set(self, "N", N)
        _set(self, "h", h)
        _set(self, "nodes", nodes)
        _set(self, "omega", sphere_area(N))

    @cached_property
    def quad(self) -> "Quadrature":
        """The grid's quadrature, built on first use."""
        return Quadrature(self)


class Quadrature:
    """The discrete sums of one grid on raw nodal values.

    wint(v, r, eta) = omega h sum_i w_i |v_i|^r s_i^(N-eta)   (trapezoid in ln s)
    dirich(v)       = sum_cells cw_i slope_i^2,   cw_i = omega h smid_i^N

    with w the trapezoid weights, slope_i = (v_{i+1} - v_i) / ds_i and
    smid the geometric cell midpoint. w s^(N-eta) is cached per eta;
    w is 0.5 or 1, so every grouping of these products rounds alike.
    """

    def __init__(self, grid: RadialGrid):
        s = grid.nodes
        self.nodes = s
        self.N = grid.N
        self.omega_h = grid.omega * grid.h
        self.w = np.ones(grid.M)
        self.w[0] = self.w[-1] = 0.5
        self.ds = s[1:] - s[:-1]
        self.cw = self.omega_h * np.sqrt(s[:-1] * s[1:]) ** grid.N
        #: interior nodes; both boundary nodes are pinned by the solvers
        self.free = slice(1, grid.M - 1)
        self._wpow = {}
        self._mu_free = self.mass(0.0)[self.free]

    def _w_pow(self, eta: float) -> np.ndarray:
        wp = self._wpow.get(eta)
        if wp is None:
            wp = self._wpow[eta] = self.w * self.nodes ** (self.N - eta)
        return wp

    def mass(self, eta: float) -> np.ndarray:
        """Diagonal weights omega h w s^(N-eta) of the eta-weighted integral."""
        return self.omega_h * self._w_pow(eta)

    def wint(self, vals: np.ndarray, r: float, eta: float) -> float:
        return self.omega_h * float((np.abs(vals) ** r * self._w_pow(eta)).sum())

    def dirich(self, vals: np.ndarray) -> float:
        slopes = (vals[1:] - vals[:-1]) / self.ds
        return float((self.cw * slopes * slopes).sum())

    def grad_dirich(self, vals: np.ndarray) -> np.ndarray:
        """Gradient of dirich with respect to the nodal values."""
        slopes = (vals[1:] - vals[:-1]) / self.ds
        f = 2.0 * self.cw * slopes / self.ds
        out = np.zeros(len(vals))
        out[1:] += f
        out[:-1] -= f
        return out

    @cached_property
    def stiff(self) -> np.ndarray:
        """Hessian of dirich on the interior nodes, a read-only tridiagonal
        band in scipy.linalg.solve_banded's (1, 1) layout."""
        k = 2.0 * self.cw / self.ds ** 2
        ab = np.zeros((3, len(self.w) - 2))
        ab[1, :] = k[:-1] + k[1:]
        ab[0, 1:] = -k[1:-1]
        ab[2, :-1] = -k[1:-1]
        ab.flags.writeable = False
        return ab

    def dual_norm(self, g: np.ndarray) -> float:
        """sqrt(sum g_i^2 / mu_i) over the interior nodes, mu = mass(0): the
        Riesz map of the discrete L^2 pairing, stable under refinement."""
        gf = g[self.free]
        return math.sqrt(float((gf * gf / self._mu_free).sum()))


def make_grid(s_min: float, s_max: float, M: int, N: int) -> RadialGrid:
    if not 0 < s_min < s_max < math.inf:
        raise DomainError(f"require 0 < s_min < s_max < inf, got [{s_min}, {s_max}]")
    if int(M) != M or M < _MIN_NODES:
        raise DomainError(f"require M >= {_MIN_NODES}, got {M}")
    if int(N) != N or N < 2:
        raise DomainError(f"require integer N >= 2, got {N}")
    return RadialGrid(s_min=float(s_min), s_max=float(s_max), M=int(M), N=int(N))


class RadialProfile(_Value):
    """Nodal values of a radial function; the outer node is always zero.

    values is a read-only float copy of the argument. Two profiles are
    equal when their grids are and their values agree bit for bit; the
    repr shows the grid only.
    """

    __slots__ = ("grid", "values")
    _fields = ("grid",)

    def __init__(self, grid: RadialGrid, values: np.ndarray):
        vals = np.array(values, dtype=float)
        if vals.shape != (grid.M,):
            raise DomainError(
                f"profile needs {grid.M} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("profile values must be finite")
        vals[-1] = 0.0
        vals.flags.writeable = False
        _set(self, "grid", grid)
        _set(self, "values", vals)

    def _key(self) -> tuple:
        return self.grid, self.values.tobytes()

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def with_values(self, vals: np.ndarray) -> "RadialProfile":
        return RadialProfile(self.grid, vals)


def weighted_integral(u: RadialProfile, r: float, eta: float) -> float:
    """omega_{N-1} * sum_i w_i |u_i|^r s_i^(N-eta) h  (trapezoid in ln s)."""
    g = u.grid
    if r < 1:
        raise DomainError(f"power r must be >= 1, got {r}")
    if not 0 <= eta < g.N:
        raise DomainError(f"eta must lie in [0, N), got {eta}")
    return g.quad.wint(u.values, r, eta)


def dirichlet_energy(u: RadialProfile) -> float:
    """omega_{N-1} * sum_cells (slope_i)^2 smid_i^N h, smid geometric midpoint."""
    return u.grid.quad.dirich(u.values)


def shift_values(grid: RadialGrid, vals: np.ndarray, k: int) -> np.ndarray:
    """Index shift by k cells: out[i] = vals[i+k], constant-extended below
    the window, zero-extended above."""
    M = grid.M
    out = np.zeros(M)
    if k >= M:
        return out
    if k <= -M:
        out[:] = vals[0]
        return out
    if k >= 0:
        out[: M - k] = vals[k:]
    else:
        out[-k:] = vals[: M + k]
        out[: -k] = vals[0]
    return out


def scale(u: RadialProfile, t: float, delta: float) -> RadialProfile:
    """Nodal representation of u_t(x) = t^delta u(t x).

    Grid-exact t (ln t an integer multiple of h) is a pure index shift;
    other t interpolate linearly in ln s. t = 0 gives the zero profile.
    """
    if t < 0:
        raise DomainError(f"scaling parameter t must be >= 0, got {t}")
    g = u.grid
    if t == 0.0:
        return RadialProfile(g, np.zeros(g.M))
    x = math.log(t) / g.h
    k = math.floor(x)
    f = x - k
    if f < 1e-9 or f > 1.0 - 1e-9:
        k = round(x)
        out = shift_values(g, u.values, k) * math.exp(k * g.h) ** delta
    else:
        out = ((1.0 - f) * shift_values(g, u.values, k)
               + f * shift_values(g, u.values, k + 1)) * t ** delta
    return RadialProfile(g, out)


class ProfileFamily(str, Enum):
    GAUSSIAN = "Gaussian"
    BUMP = "Bump"
    AUBIN_TALENTI = "AubinTalenti"


def sample_function(grid: RadialGrid, family: ProfileFamily | str, **shape) -> RadialProfile:
    """Sample a closed-form radial family on the grid.

    Gaussian(sigma): exp(-s^2 / (2 sigma^2)).
    Bump(lo, hi): exp(-1/((s-lo)(hi-s))) normalized to peak 1, zero outside.
    AubinTalenti(scale): (1 + (s/scale)^2)^(-(N-2)/2).
    """
    family = ProfileFamily(family)
    s = grid.nodes
    if family is ProfileFamily.GAUSSIAN:
        sigma = float(shape.get("sigma", 1.0))
        if sigma <= 0:
            raise DomainError(f"sigma must be positive, got {sigma}")
        vals = np.exp(-(s ** 2) / (2.0 * sigma ** 2))
    elif family is ProfileFamily.BUMP:
        lo = float(shape.get("lo", 1.0))
        hi = float(shape.get("hi", 2.0))
        if not 0 < lo < hi:
            raise DomainError(f"require 0 < lo < hi, got ({lo}, {hi})")
        vals = np.zeros(grid.M)
        inside = (s > lo) & (s < hi)
        t = (s[inside] - lo) * (hi - s[inside])
        peak = ((hi - lo) / 2.0) ** 2
        vals[inside] = np.exp(-1.0 / t + 1.0 / peak)
    elif family is ProfileFamily.AUBIN_TALENTI:
        scl = float(shape.get("scale", 1.0))
        if scl <= 0:
            raise DomainError(f"scale must be positive, got {scl}")
        vals = (1.0 + (s / scl) ** 2) ** (-(grid.N - 2) / 2.0)
    else:  # pragma: no cover
        raise DomainError(f"unknown family {family}")
    return RadialProfile(grid, vals)


def save_profile(u: RadialProfile, path, family: str = "custom", params: dict | None = None) -> None:
    """Write a profile as CSV with a JSON metadata comment line.

    The format round-trips bit-exactly: floats carry 17 significant digits.
    """
    import json  # here, not at module level: the solver commands without --out never load it

    g = u.grid
    meta = {
        "N": g.N,
        "s_min": g.s_min,
        "s_max": g.s_max,
        "M": g.M,
        "family": family,
        "params": params or {},
    }
    lines = ["# " + json.dumps(meta), "s,u"]
    for s, v in zip(g.nodes, u.values):
        lines.append(f"{fmt_float(s)},{fmt_float(v)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_profile(path) -> RadialProfile:
    """Read a profile written by save_profile.

    A file that cannot be read or is not in save_profile's format raises
    DomainError.
    """
    import json

    try:
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise DomainError(f"{path}: missing metadata comment line")
            meta = json.loads(header[1:].strip())
            grid = make_grid(meta["s_min"], meta["s_max"], meta["M"], meta["N"])
            cols = fh.readline().strip()
            if cols != "s,u":
                raise DomainError(f"{path}: expected 's,u' header, got {cols!r}")
            vals = []
            for line in fh:
                line = line.strip()
                if line:
                    vals.append(float(line.split(",")[1]))
    except OSError as exc:
        raise DomainError(f"{path}: cannot read profile: {exc.strerror}") from exc
    except (ValueError, LookupError, TypeError) as exc:  # bad JSON, missing keys, bad rows
        raise DomainError(f"{path}: malformed profile: {exc}") from exc
    if len(vals) != grid.M:
        raise DomainError(f"{path}: expected {grid.M} rows, got {len(vals)}")
    return RadialProfile(grid, np.asarray(vals))
