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
builds when it is made (RadialGrid.quad); every energy and solver
evaluates through it. The solvers pin both boundary nodes to zero
(_pin, per row of a block) and move the nodes Quadrature.free names.

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

from .errors import DomainError, _set, _Value, _whole
from .reports import fmt_float

#: the fewest nodes a grid may have
_MIN_NODES = 16


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N, 2 pi^(N/2) / Gamma(N/2).

    Gamma(N/2) is one product, 1 * 2 * ... or sqrt(pi) * 1/2 * 3/2 * ...
    for even or odd N, so integer dimensions need no special functions.
    """
    if not _whole(N, 1):
        raise DomainError(f"dimension must be a positive integer, got {N}")
    N = int(N)
    gamma, k = (1.0, 1.0) if N % 2 == 0 else (math.sqrt(math.pi), 0.5)
    while k < N / 2.0 - 0.25:
        gamma *= k
        k += 1.0
    return 2.0 * math.pi ** (N / 2.0) / gamma


class RadialGrid(_Value):
    """Log-uniform radial mesh on [s_min, s_max] with M nodes, in R^N; make_grid is this class.

    Needs 0 < s_min < s_max < inf, whole M >= 16 within numpy's array size
    limit and N >= 2, and nodes and weights inside the float range, or
    raises DomainError. h, the read-only nodes, the sphere area omega and
    the grid's Quadrature quad are derived; the repr shows h but not
    nodes, omega or quad.
    """

    __slots__ = ("s_min", "s_max", "M", "N", "h", "nodes", "omega", "quad")
    _fields = ("s_min", "s_max", "M", "N", "h")

    def __init__(self, s_min: float, s_max: float, M: int, N: int):
        if not 0 < s_min < s_max < math.inf:
            raise DomainError(f"require 0 < s_min < s_max < inf, got [{s_min}, {s_max}]")
        if not _whole(M, _MIN_NODES):
            raise DomainError(f"require M >= {_MIN_NODES}, got {M}")
        if not _whole(N, 2):
            raise DomainError(f"require integer N >= 2, got {N}")
        s_min, s_max, M, N = float(s_min), float(s_max), int(M), int(N)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            try:  # an M past numpy's array size or the float range fails here, before allocating
                h = math.log(s_max / s_min) / (M - 1)
                nodes = s_min * np.exp(h * np.arange(M))
            except (ValueError, OverflowError) as exc:
                raise DomainError(f"M = {M} nodes exceed numpy's array size limit ({exc})") from None
            nodes.flags.writeable = False
            # quad is set last: Quadrature reads the other fields
            _Value.__init__(self, s_min, s_max, M, N, h, nodes, sphere_area(N), None)
            quad = Quadrature(self)
        # a weight that underflows to 0 is kept; an infinite or NaN node or weight is not
        if not all(np.isfinite(a).all() for a in (nodes, quad.cw, quad.mass(0.0))):
            raise DomainError(f"window [{s_min!r}, {s_max!r}] at N = {N} takes the grid's nodes "
                              "or weights outside the float range")
        _set(self, "quad", quad)


make_grid = RadialGrid


class Quadrature:
    """The discrete sums of one grid on raw nodal values.

    wint(a, r, eta)  = omega h sum_i w_i a_i^r s_i^(N-eta)   (trapezoid in ln s)
    dirich_rows(sl)  = sum_cells cw_i sl_i^2,   cw_i = omega h smid_i^N

    with a = |v|, sl = slopes(v), slope_i = (v_{i+1} - v_i) / ds_i, w the
    trapezoid weights and smid the geometric cell midpoint. wint_rows takes
    a^r and dirich_rows and grad_dirich the slopes (of each row of a
    block), so an energy forms them once for its value and gradient. Every
    sum is numpy's pairwise add.reduce, not a BLAS dot, whose bits depend
    on the CPU. w s^(N-eta) is cached per eta; w is 0.5 or 1, so every
    grouping of these products rounds alike. The kernels set no
    np.errstate, which costs about 1 us a call and every Newton trial calls
    them: their callers set it once (weighted_integral, dirichlet_energy,
    the public functionals and the Newton engine).
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
        self._cw2 = 2.0 * self.cw
        #: interior nodes; the solvers pin both boundary nodes (_pin)
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

    def wint(self, a: np.ndarray, r: float, eta: float) -> float:
        return float(self.wint_rows(a ** r, eta))

    def wint_rows(self, ar: np.ndarray, eta: float) -> np.ndarray:
        return self.omega_h * np.add.reduce(ar * self._w_pow(eta), axis=-1)

    def slopes(self, vals: np.ndarray) -> np.ndarray:
        """The cell slopes (v_{i+1} - v_i) / ds_i, of each row of a block."""
        return (vals[..., 1:] - vals[..., :-1]) / self.ds

    def dirich_rows(self, slopes: np.ndarray) -> np.ndarray:
        return np.add.reduce(self.cw * slopes * slopes, axis=-1)

    def grad_dirich(self, slopes: np.ndarray) -> np.ndarray:
        """Gradient of the Dirichlet sum with respect to the nodal values."""
        f = self._cw2 * slopes / self.ds
        out = np.zeros(len(self.w))
        out[1:] += f
        out[:-1] -= f
        return out

    @cached_property
    def stiff(self) -> np.ndarray:
        """Hessian of the Dirichlet sum on the interior nodes, a read-only tridiagonal
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
        return math.sqrt(float(np.add.reduce(gf * gf / self._mu_free)))


def _pin(vals: np.ndarray) -> np.ndarray:
    """A float copy of nodal values, or of each row of a 2-D array, with
    both boundary nodes zero: the solvers' search space."""
    out = np.array(vals, dtype=float)
    out[..., 0] = out[..., -1] = 0.0
    return out


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
        _Value.__init__(self, grid, vals)

    def _key(self) -> tuple:
        return self.grid, self.values.tobytes()

    def is_zero(self) -> bool:
        return not np.any(self.values)


def weighted_integral(u: RadialProfile, r: float, eta: float) -> float:
    """omega_{N-1} * sum_i w_i |u_i|^r s_i^(N-eta) h  (trapezoid in ln s)."""
    g = u.grid
    if not 1 <= r < math.inf:
        raise DomainError(f"power r must be finite and >= 1, got {r}")
    if not 0 <= eta < g.N:
        raise DomainError(f"eta must lie in [0, N), got {eta}")
    with np.errstate(over="ignore", invalid="ignore"):
        return g.quad.wint(np.abs(u.values), r, eta)


def dirichlet_energy(u: RadialProfile) -> float:
    """omega_{N-1} * sum_cells (slope_i)^2 smid_i^N h, smid geometric midpoint."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(u.grid.quad.dirich_rows(u.grid.quad.slopes(u.values)))


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
    other t interpolate linearly in ln s. t = 0 gives the zero profile, and
    so does a shift that leaves no nonzero node, whatever t^delta is; a
    t^delta past the float range on a nonzero node, or a finite t^delta
    that carries a node past it, raises DomainError.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"scaling parameter t must be finite and >= 0, got {t}")
    if not math.isfinite(delta):
        raise DomainError(f"scaling rate delta must be finite, got {delta}")
    g = u.grid
    if t == 0.0:
        return RadialProfile(g, np.zeros(g.M))
    x = math.log(t) / g.h
    k = math.floor(x)
    f = x - k
    exact = f < 1e-9 or f > 1.0 - 1e-9
    if exact:
        k = round(x)
        out = shift_values(g, u.values, k)
    else:
        out = (1.0 - f) * shift_values(g, u.values, k) + f * shift_values(g, u.values, k + 1)
    try:
        with np.errstate(over="ignore"):  # an overflowing node is reported below
            out = out * (math.exp(k * g.h) if exact else t) ** delta
        past = not np.isfinite(out).all()
    except (OverflowError, ZeroDivisionError):  # t^delta is past the float range
        past = out.any()
    if past:
        raise DomainError(f"t^delta = {t!r}^{delta!r} takes u_t outside the float range")
    return RadialProfile(g, out)


class ProfileFamily(str, Enum):
    GAUSSIAN = "Gaussian"
    BUMP = "Bump"
    AUBIN_TALENTI = "AubinTalenti"


#: the shape keywords each family takes
_SHAPE_KEYS = {
    ProfileFamily.GAUSSIAN: ("sigma",),
    ProfileFamily.BUMP: ("lo", "hi"),
    ProfileFamily.AUBIN_TALENTI: ("scale",),
}


def sample_function(grid: RadialGrid, family: ProfileFamily | str, **shape) -> RadialProfile:
    """Sample a closed-form radial family on the grid.

    Gaussian(sigma): exp(-s^2 / (2 sigma^2)).
    Bump(lo, hi): exp(-1/((s-lo)(hi-s))) normalized to peak 1, zero outside.
    AubinTalenti(scale): (1 + (s/scale)^2)^(-(N-2)/2).
    An unknown family or shape keyword, or a shape value that is not a
    float, raises DomainError, and so does a shape whose samples all
    vanish (a Bump outside the window, or a sigma or scale so small that
    the samples underflow).
    """
    try:
        family = ProfileFamily(family)
    except ValueError:
        known = ", ".join(f"{f.value}({', '.join(keys)})" for f, keys in _SHAPE_KEYS.items())
        raise DomainError(f"unknown family {family!r}; the families are {known}") from None
    unknown = set(shape).difference(_SHAPE_KEYS[family])
    if unknown:
        keys, got = ", ".join(_SHAPE_KEYS[family]), ", ".join(sorted(unknown))
        raise DomainError(f"{family.value} takes the shape keywords {keys}, got {got}")
    for key, value in shape.items():
        try:
            shape[key] = float(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(
                f"{family.value} shape keyword {key} must be a float, got {value!r}"
            ) from None
    s = grid.nodes
    with np.errstate(divide="ignore", over="ignore"):  # such samples go to their limit, 0
        if family is ProfileFamily.GAUSSIAN:
            sigma = shape.get("sigma", 1.0)
            if not 0 < sigma < math.inf:
                raise DomainError(f"sigma must be positive and finite, got {sigma}")
            named = f"sigma={sigma}"
            vals = np.exp(-(s ** 2) / (2.0 * sigma ** 2))
        elif family is ProfileFamily.BUMP:
            lo = shape.get("lo", 1.0)
            hi = shape.get("hi", 2.0)
            if not 0 < lo < hi < math.inf:
                raise DomainError(f"require 0 < lo < hi < inf, got ({lo}, {hi})")
            named = f"lo={lo}, hi={hi}"
            vals = np.zeros(grid.M)
            inside = (s > lo) & (s < hi)
            w = hi - lo
            x = (s[inside] - lo) / w
            vals[inside] = np.exp((4.0 - 1.0 / (x * (1.0 - x))) / w / w)
        elif family is ProfileFamily.AUBIN_TALENTI:
            scl = shape.get("scale", 1.0)
            if not 0 < scl < math.inf:
                raise DomainError(f"scale must be positive and finite, got {scl}")
            named = f"scale={scl}"
            vals = (1.0 + (s / scl) ** 2) ** (-(grid.N - 2) / 2.0)
    u = RadialProfile(grid, vals)
    if u.is_zero():
        raise DomainError(f"{family.value} with {named} vanishes on every node of the grid")
    return u


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

    A file that cannot be read, is not in save_profile's format, or has a
    row whose s is not its grid node (to 1e-12 relative) raises DomainError.
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
            rows = [line.split(",") for line in map(str.strip, fh) if line]
            s = np.array([float(row[0]) for row in rows])
            vals = np.array([float(row[1]) for row in rows])
    except OSError as exc:
        raise DomainError(f"{path}: cannot read profile: {exc.strerror}") from exc
    except (ValueError, LookupError, TypeError) as exc:  # bad JSON, missing keys, bad rows
        raise DomainError(f"{path}: malformed profile: {exc}") from exc
    if len(vals) != grid.M:
        raise DomainError(f"{path}: expected {grid.M} rows, got {len(vals)}")
    off = np.flatnonzero(~(np.abs(s - grid.nodes) <= 1e-12 * grid.nodes))
    if off.size:
        i = off[0]
        raise DomainError(f"{path}: row {i + 1} has s = {s[i]:.17g}, not grid node {grid.nodes[i]:.17g}")
    return RadialProfile(grid, vals)
