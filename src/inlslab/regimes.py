"""Exponent calculus for the weighted eigenproblem

    -Delta u + |u|^(q-2) u / |x|^b = lambda |u|^(p-2) u / |x|^a   on R^N.

Everything here is scalar arithmetic over the problem exponents and the
parameters that exponents derives from them (delta, a, ell):
weighted-embedding intervals for candidate nonlinearity pairs (eta, r)
in the nonradial and radial settings, admissibility and the
subscaled/scaled/superscaled trichotomy, the Pohozaev-based
nonexistence predicate, interpolation-pair construction, and the
compactness-threshold constants (c*, S-tilde, truncation window).

Comparisons against interval endpoints and the scaled threshold use a
uniform tolerance EQ_TOL: values within EQ_TOL (relative) of a boundary
are treated as sitting exactly on it, so grid sweeps give deterministic
verdicts.

A verdict is computed in two steps. Everything that depends on eta alone
(the eta-cap and N = 2 rejections, the embedding interval, the scaled
threshold r_s, the Pohozaev bounds and each boundary's tolerance) forms
the row of (params, eta, radial). The row is built whole: with its
interval it builds the six verdicts an r can get, and nothing changes it
afterwards. A pair's verdict and nonexistence flag then only compare r
with its row. Rows are kept in a bounded LRU cache of _ROW_CACHE_SIZE
rows, so an eta seen before costs one lookup; a new eta costs one row.
interpolation_pair's companion search, which tries a new eta at every
step, builds its rows outside the cache.

region_map takes each eta's row once and fills it by runs. A pair's verdict
and nonexistence flag compare r with at most six finite thresholds of its
row (1, the Pohozaev bounds, the interval ends and r_s), each up to EQ_TOL,
and no comparison changes outside the band of width 4 EQ_TOL max(1, |c|)
on either side of its threshold c. The row keeps the edges of these
bands, and region_map cuts the r grid where they fall: every cell inside a
band is a run of its own, and the cells between two bands form one run.
Each run's cell is built from its first r, and every r of the run gets a
copy. region_map_csv formats each distinct float of the atlas once per
call (a 200x200 atlas has 778 in its 160,000 float fields) and reuses
the text of a line's eta and interval ends when they are the previous
line's.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import lru_cache

from .errors import DomainError, EmptyGridError, SearchFailed, _Value
from .exponents import EQ_TOL, INF, Params, _bisect, _close, _scan, critical_exponent


class Regime(str, Enum):
    SUBSCALED = "Subscaled"
    SCALED = "Scaled"
    SUPERSCALED = "Superscaled"
    NOT_APPLICABLE = "NotApplicable"


class WeightedPair(_Value):
    """A candidate weight/power pair (eta, r) for one nonlinearity term."""

    __slots__ = _fields = ("eta", "r")

    def __init__(self, eta: float, r: float):
        if not (math.isfinite(eta) and eta >= 0):
            raise DomainError(f"eta must be finite and >= 0, got {eta}")
        if not (math.isfinite(r) and r > 0):
            raise DomainError(f"r must be finite and > 0, got {r}")
        _Value.__init__(self, eta, r)


class EmbeddingInterval(_Value):
    """Range of powers r for which the energy space embeds into L^r_eta.

    upper is math.inf for the open upper range in dimension 2.
    """

    __slots__ = _fields = ("lower", "upper", "lower_included", "upper_included", "radial",
                           "compact_interior")


class RegimeVerdict(_Value):
    __slots__ = _fields = ("admissible", "regime", "interval", "reason")


def scaled_threshold(params: Params, eta: float) -> float:
    """The power r at which (eta, r) scales exactly like the equation."""
    return params.q + (params.b - eta) / params.delta


def lower_endpoint(params: Params, eta: float, radial: bool = False) -> float:
    """Lower endpoint of the embedding interval for weight exponent eta.

    Nonradial: q(N-eta)/(N-b) when eta >= b, and the steeper
    (eta q(N-2) + 2N(b-eta)) / (b(N-2)) when eta < b (dimension >= 3
    only). Radial with eta < b: the improved endpoint
    (q(2N-2-eta) + 2(b-eta)) / (2N-2-b), defined in every dimension >= 2.
    For eta >= b the radial flag is ignored (the intervals coincide).
    """
    N, b, q = params.N, params.b, params.q
    if not 0 <= eta < N:
        raise DomainError(f"eta must lie in [0, N), got {eta}")
    if eta >= b or _close(eta, b):
        return q * (N - eta) / (N - b)
    if radial:
        return (q * (2 * N - 2 - eta) + 2 * (b - eta)) / (2 * N - 2 - b)
    if N == 2:
        raise DomainError("nonradial lower endpoint undefined for N = 2, eta < b")
    return (eta * q * (N - 2) + 2 * N * (b - eta)) / (b * (N - 2))


def _tol(c: float) -> float:
    """The part of _close(x, c)'s tolerance that depends on c alone.

    EQ_TOL * max(1, |x|, |c|) is the larger of _tol(c) and EQ_TOL * |x|,
    because rounding EQ_TOL * m is monotone in m. So for a fixed c,
    _close(x, c) is ``d <= _tol(c) or d <= EQ_TOL * abs(x)`` with
    d = abs(x - c), and needs no call. An infinite c gets -1: no finite x
    passes the test against it, where _close(x, inf) is True.
    """
    return EQ_TOL * max(1.0, abs(c)) if math.isfinite(c) else -1.0


class _Row:
    """What classify_pair and nonexistence know of (params, eta, radial) before r.

    ``low`` and ``crit`` are the Pohozaev bounds q(N-eta)/(N-b) and 2*_eta
    with their _tol; outside 0 <= eta < 2 they are -inf and inf with _tol
    -1, so no test passes. ``early`` is the verdict of every r when eta
    alone rules the pair out; the interval fields are then unset.
    Otherwise r is compared with the ends of ``interval`` and the scaled
    threshold r_s, each with its _tol, and the answer is one of the row's
    six ``verdicts``, built with the row in the order of _VERDICTS.
    ``bands`` holds the _bands of every threshold r meets. _build_row
    fills every field, and nothing changes a row after it returns.
    """

    __slots__ = ("low", "low_tol", "crit", "crit_tol", "early", "interval", "lower_tol",
                 "upper_tol", "r_s", "r_s_tol", "verdicts", "bands")


_ETA_TOO_LARGE = RegimeVerdict(False, Regime.NOT_APPLICABLE, None, "ETA_TOO_LARGE")
_N2_ETA_LT_B = RegimeVerdict(False, Regime.NOT_APPLICABLE, None, "N2_ETA_LT_B")
_DOMAIN = RegimeVerdict(False, Regime.NOT_APPLICABLE, None, "DOMAIN")

# (admissible, regime, reason) of the verdicts of a row with an interval,
# in the order of the indices _kind returns. That order follows r: each
# verdict holds on an interval of r, and they come in this order along
# the r axis, so _kind never decreases over an increasing r grid
_VERDICTS = (
    (False, Regime.NOT_APPLICABLE, "R_LE_ONE"),
    (False, Regime.NOT_APPLICABLE, "R_BELOW_LOWER"),
    (True, Regime.SUBSCALED, "OK"),
    (True, Regime.SCALED, "OK"),
    (True, Regime.SUPERSCALED, "OK"),
    (False, Regime.NOT_APPLICABLE, "R_ABOVE_UPPER"),
)
_R_LE_ONE, _BELOW, _SUBSCALED, _SCALED, _SUPERSCALED, _ABOVE = range(len(_VERDICTS))


def _bands(*cs: float) -> tuple:
    """(c - 4 t, c + 4 t), t = _tol(c), for each finite threshold c. An r
    outside it has d = |r - c| > 4 t and EQ_TOL * |r| <= t + EQ_TOL * d, so
    no _close test against c passes, by a margin far beyond rounding: r
    compares with c by its side of c alone."""
    return tuple((c - 4 * t, c + 4 * t) for c in cs if (t := _tol(c)) > 0)


def _build_row(params: Params, eta: float, radial: bool) -> _Row:
    """The row of eta >= 0: the Pohozaev bounds, then the eta-cap and
    N = 2 verdicts, or the embedding interval (with its endpoint-inclusion
    rules), r_s and the tolerances of the three. Callers pass float(eta)
    and bool(radial), so equal keys of _row build equal rows."""
    N, b = params.N, params.b

    row = _Row()
    low, crit = (params.q * (N - eta) / (N - b), critical_exponent(N, eta)) if eta < 2 else (-INF, INF)
    row.low, row.low_tol, row.crit, row.crit_tol = low, _tol(low), crit, _tol(crit)
    row.bands = _bands(1.0, low, crit)
    row.early = None
    eta_cap = (N + 2) / 2.0
    if eta > eta_cap or _close(eta, eta_cap):
        row.early = _ETA_TOO_LARGE
        return row

    radial_eff = radial and eta < b and not _close(eta, b)
    if N == 2 and eta < b and not radial_eff and not _close(eta, b):
        row.early = _N2_ETA_LT_B
        return row

    lower = lower_endpoint(params, eta, radial=radial_eff)
    upper = critical_exponent(N, eta)
    if radial_eff:
        lower_inc = True
        upper_inc = N >= 3
    else:
        lower_inc = eta <= b or _close(eta, b)
        upper_inc = N >= 3 and (eta <= 2 or _close(eta, 2.0))
    if N >= 3:
        compact = True
    else:
        compact = radial_eff or (eta > b and not _close(eta, b))
    row.interval = iv = EmbeddingInterval(lower, upper, lower_inc, upper_inc, radial_eff, compact)
    r_s = scaled_threshold(params, eta)
    row.lower_tol, row.upper_tol = _tol(lower), _tol(upper)
    row.r_s, row.r_s_tol = r_s, _tol(r_s)
    row.bands += _bands(lower, upper, r_s)
    row.verdicts = tuple([RegimeVerdict(admissible, regime, iv, reason)
                          for admissible, regime, reason in _VERDICTS])
    return row


# Rows kept by _row. Calls that meet an eta again reuse its row: region_map
# on the same parameters again (one row per eta of its grid, 200 for a
# 200x200 atlas) and classify_pair on an eta seen before. A new eta builds
# its row. interpolation_pair's companion search, which tries a new eta
# at every step, builds those rows with _build_row, outside the cache.
_ROW_CACHE_SIZE = 1024

_row = lru_cache(maxsize=_ROW_CACHE_SIZE)(_build_row)


def _kind(row: _Row, r: float) -> int:
    """Index in _VERDICTS of the verdict of a finite r > 0 against a row
    with an interval. Every test is the _close test of classify_pair's
    rules, written out with _tol.

    The index never decreases as r grows: the r that pass _close(r, c)
    form an interval around c, since |r - c| grows faster than
    EQ_TOL * |r| on either side of c, so R_LE_ONE and R_BELOW_LOWER hold
    on prefixes of the r axis, R_ABOVE_UPPER on a suffix, and SCALED on
    the band of r_s between SUBSCALED and SUPERSCALED."""
    r_tol = EQ_TOL * abs(r)
    d = abs(r - 1.0)
    if r < 1.0 or d <= EQ_TOL or d <= r_tol:
        return _R_LE_ONE
    iv = row.interval
    d = abs(r - iv.lower)
    if d <= row.lower_tol or d <= r_tol:
        if not iv.lower_included:
            return _BELOW
    elif r < iv.lower:
        return _BELOW
    d = abs(r - iv.upper)  # N = 2: upper is inf, its _tol -1, and no test passes
    if d <= row.upper_tol or d <= r_tol:
        if not iv.upper_included:
            return _ABOVE
    elif r > iv.upper:
        return _ABOVE
    d = abs(r - row.r_s)
    if d <= row.r_s_tol or d <= r_tol:
        return _SCALED
    return _SUBSCALED if r < row.r_s else _SUPERSCALED


def _verdict(row: _Row, r: float) -> RegimeVerdict:
    """Verdict of a finite r > 0 against its eta's row."""
    return row.early or row.verdicts[_kind(row, r)]


def classify_pair(params: Params, pair: WeightedPair, radial: bool = False) -> RegimeVerdict:
    """Admissibility and regime of (eta, r).

    Admissible means 0 <= eta < (N+2)/2 (with eta >= b additionally
    required nonradially when N = 2), and r > 1 inside the embedding
    interval, endpoints included per the interval's inclusion flags.
    The regime compares r against the scaled threshold with tolerance
    EQ_TOL; inadmissible pairs get regime NotApplicable.
    """
    return _verdict(_row(params, float(pair.eta), bool(radial)), pair.r)


def _zone(row: _Row, r: float) -> int:
    """0 for r <= low, 2 for r >= crit and 1 between, up to EQ_TOL, for the
    Pohozaev bounds of a row. Like _kind, it never decreases as r grows:
    r <= low holds on a prefix of the r axis and r >= crit on a suffix."""
    r_tol = EQ_TOL * abs(r)
    d = abs(r - row.low)
    if r < row.low or d <= row.low_tol or d <= r_tol:
        return 0
    d = abs(r - row.crit)  # N = 2: crit is inf, its _tol -1, and no test passes
    return 2 if r > row.crit or d <= row.crit_tol or d <= r_tol else 1


def nonexistence(params: Params, eta: float, r: float) -> bool:
    """Pohozaev nonexistence test: only the trivial solution exists when
    r >= 2*_eta (N >= 3) or r <= q(N-eta)/(N-b)."""
    if not 0 <= eta < 2:
        raise DomainError(f"eta must lie in [0, 2), got {eta}")
    if not (math.isfinite(r) and r > 1):
        raise DomainError(f"r must be finite and > 1, got {r}")
    return _zone(_row(params, float(eta), False), r) != 1


def interpolation_pair(params: Params, pair: WeightedPair, radial: bool = False):
    """Companion pair (eta~, r~) with b < eta~ < 2 and theta in (0, 1)
    splitting the eigen-term integral:

        1/p = theta/r + (1-theta)/r~
        a/p = theta*eta/r + (1-theta)*eta~/r~

    The companion's regime mirrors the input: Scaled stays Scaled,
    Subscaled and Superscaled swap. The input pair must be admissible.
    """
    a, p = params.a, params.p
    eta, r = pair.eta, pair.r
    verdict = classify_pair(params, pair, radial=radial)
    if not verdict.admissible:
        raise DomainError(f"pair ({eta}, {r}) is not admissible ({verdict.reason})")

    if _close(eta, a):
        if _close(r, p):
            return a, p, 0.5
        # same weight: one-weight interpolation, r~ on the other side of p
        lo = max(1.0, lower_endpoint(params, a))
        hi = critical_exponent(params.N, a)
        if r > p:
            r_t = 0.5 * (lo + p)
        else:
            r_t = 0.5 * (p + min(hi, 2 * p)) if math.isfinite(hi) else 1.5 * p
        theta = (1.0 / p - 1.0 / r_t) / (1.0 / r - 1.0 / r_t)
        return a, r_t, theta

    want = {
        Regime.SCALED: Regime.SCALED,
        Regime.SUBSCALED: Regime.SUPERSCALED,
        Regime.SUPERSCALED: Regime.SUBSCALED,
    }[verdict.regime]

    # walk eta~ toward a from the far side; every constraint is open, so
    # a small enough offset works
    side = -1.0 if eta > a else 1.0
    d0 = min(abs(eta - a), a - params.b, 2.0 - a) / 2.0
    d = d0
    for _ in range(200):
        eta_t = a + side * d
        theta = (a - eta_t) / p * r / (eta - eta_t)
        if 0.0 < theta < 1.0:
            inv_rt = 1.0 / p + theta / (1.0 - theta) * (1.0 / p - 1.0 / r)
            r_t = 1.0 / inv_rt if inv_rt > 0 else INF
            if 1.0 < r_t < INF:
                # every step tries a new eta~: its row is built outside the cache
                v = _verdict(_build_row(params, eta_t, False), r_t)
                if v.admissible and v.regime == want:
                    return eta_t, r_t, theta
        d *= 0.5
    raise SearchFailed(
        f"no admissible companion pair found for ({eta}, {r}); "
        "this indicates a bug for admissible inputs"
    )


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def _out_of_range(what: str) -> DomainError:
    return DomainError(f"{what} lies outside the float range for these inputs")


def ps_threshold(N: int, eta1: float, S: float) -> float:
    """Compactness level c* = (2-eta1)/(2(N-eta1)) * S^((N-eta1)/(2-eta1)).

    Raises DomainError when c* overflows a float.
    """
    if N < 3:
        raise DomainError(f"N >= 3 required, got {N}")
    if not 0 <= eta1 < 2:
        raise DomainError(f"eta1 must lie in [0, 2), got {eta1}")
    if not (math.isfinite(S) and S >= 0):
        raise DomainError(f"S must be finite and >= 0, got {S}")
    if S == 0:
        return 0.0
    try:
        power = S ** ((N - eta1) / (2.0 - eta1))
    except OverflowError:
        raise _out_of_range("c*") from None
    return (2.0 - eta1) / (2.0 * (N - eta1)) * power


def tilde_s_root(mu: float, S1: float, S2: float, N: int, eta1: float, eta2: float) -> float:
    """Unique S~ > 0 solving

        mu S2^(-c2/2) S~^((2-eta2)/(N-2)) + S1^(-c1/2) S~^((2-eta1)/(N-2)) = 1

    with c_i = 2(N-eta_i)/(N-2). The left side increases strictly from 0,
    so bisection of a bracket applies; it runs down to adjacent floats
    and returns the one with the smaller residual. Raises DomainError
    when S~, or a coefficient of the equation, lies outside the float
    range, or so deep among the subnormal floats that none of them
    solves the equation to 1e-13.
    """
    if N < 3:
        raise DomainError(f"N >= 3 required, got {N}")
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if not 0 <= eta < 2:
            raise DomainError(f"{name} must lie in [0, 2), got {eta}")
    if not (_finite(S1, S2) and S1 > 0 and S2 > 0):
        raise DomainError("S1 and S2 must be finite and positive")
    if not (math.isfinite(mu) and mu >= 0):
        raise DomainError(f"mu must be finite and >= 0, got {mu}")
    try:
        return _tilde_s(mu, S1, S2, N, eta1, eta2)
    except (OverflowError, ZeroDivisionError):  # a power or quotient left the float range
        raise _out_of_range("S~") from None


def _tilde_s(mu: float, S1: float, S2: float, N: int, eta1: float, eta2: float) -> float:
    if mu == 0.0:
        return S1 ** ((N - eta1) / (2.0 - eta1))
    k1 = S1 ** (-critical_exponent(N, eta1) / 2.0)
    k2 = mu * S2 ** (-critical_exponent(N, eta2) / 2.0)
    e1 = (2.0 - eta1) / (N - 2.0)
    e2 = (2.0 - eta2) / (N - 2.0)

    def f(x: float) -> float:
        return k2 * x ** e2 + k1 * x ** e1 - 1.0

    lo = _scan(f, 1.0, 0.5, below=True)
    hi = _scan(f, 1.0, 2.0)
    if not (f(lo) < 0 < f(hi) and hi < INF):
        raise _out_of_range("S~")
    x = _bisect(f, lo, hi)
    if x == 0.0:
        raise DomainError("S~ lies below the smallest positive float for these inputs")
    # x f'(x) <= 2 at the root, so a normal float leaves a residual of a few
    # ulps of 1; a larger one means the subnormal floats are too coarse there
    if abs(f(x)) > 1e-13:
        raise _out_of_range("S~")
    return x


def gamma_mu_roots(mu: float, C: float, C1: float, exp_low: float, exp_high: float):
    """Sign-change radii (R1, R2) of gamma(t) = t - C mu t^exp_low - C1 t^exp_high.

    exp_low must lie in (0, 1) and exp_high in (1, inf); gamma is then
    negative on [0, R1) and (R2, inf) and nonnegative between. For
    mu = 0 the inner radius degenerates to 0. Raises DomainError when mu
    is too large for a sign change to exist, or when a radius lies
    outside the float range, or so deep among the subnormal floats that
    none of them solves gamma = 0 to 1e-13 relative to the slope
    t g'(t) of g(t) = 1 - gamma(t)/t there.
    """
    if not 0 < exp_low < 1:
        raise DomainError(f"exp_low must lie in (0, 1), got {exp_low}")
    if not (math.isfinite(exp_high) and exp_high > 1):
        raise DomainError(f"exp_high must be finite and > 1, got {exp_high}")
    if not (_finite(mu, C, C1) and C >= 0 and C1 > 0 and mu >= 0):
        raise DomainError("require finite C >= 0, C1 > 0, mu >= 0")
    try:
        return _gamma_roots(mu, C, C1, exp_low, exp_high)
    except (OverflowError, ZeroDivisionError):  # a power or quotient left the float range
        raise _out_of_range("a truncation radius") from None


def _gamma_roots(mu: float, C: float, C1: float, exp_low: float, exp_high: float):
    # gamma(t)/t = 1 - g(t), g(t) = C mu t^(exp_low-1) + C1 t^(exp_high-1)
    def g(t: float) -> float:
        return C * mu * t ** (exp_low - 1.0) + C1 * t ** (exp_high - 1.0)

    def f(t: float) -> float:
        return g(t) - 1.0

    def t_dg(t: float) -> float:
        return ((exp_low - 1.0) * C * mu * t ** (exp_low - 1.0)
                + (exp_high - 1.0) * C1 * t ** (exp_high - 1.0))

    if mu == 0.0 or C == 0.0:
        r1, r2 = 0.0, C1 ** (-1.0 / (exp_high - 1.0))
    else:
        tstar = (C * mu * (1.0 - exp_low) / (C1 * (exp_high - 1.0))) ** (1.0 / (exp_high - exp_low))
        if not 0.0 < tstar < INF:
            raise _out_of_range("a truncation radius")
        gmin = g(tstar)
        if gmin > 1.0:
            raise DomainError(
                f"no truncation window: min of the mu-term envelope is {gmin!r} > 1 "
                "(mu too large for these constants)"
            )
        if _close(gmin, 1.0):
            return tstar, tstar
        r1 = _bisect(f, _scan(f, tstar, 0.5), tstar)
        hi = _scan(f, tstar, 2.0)
        if not hi < INF:
            raise _out_of_range("a truncation radius")
        r2 = _bisect(f, tstar, hi)
    # the float next to a root moves g by about t g'(t) ulps of 1, so a
    # larger residual means no float solves gamma = 0 here: the root lies
    # among the subnormal floats, or past the 2000 doublings of the scan.
    # A closed-form R2 that underflowed to 0 raises ZeroDivisionError here
    for t in (r1, r2) if r1 else (r2,):
        if abs(f(t)) > 1e-13 * max(1.0, abs(t_dg(t))):
            raise _out_of_range("a truncation radius")
    return r1, r2


def region_map(params: Params, eta_grid, r_grid, radial: bool = False):
    """Tabulate classify_pair and nonexistence over a rectangular grid.

    Returns a list of row dicts in eta-major order. Grids must be
    nonempty, finite and strictly increasing. A cell that WeightedPair
    rejects (eta < 0 or r <= 0) gets the verdict DOMAIN.

    Each eta's row is fetched once. Along the r grid a cell can change
    only at r = 0 or inside one of the row's bands, so the grid is cut at
    0 and at the bands' edges, and every cell inside a band is a run of
    its own; the cells between two cuts share their verdict and
    nonexistence flag. Each run's cell is built once from its first r, and
    every r of the run gets a copy of it.
    """
    eta_grid = list(eta_grid)
    r_grid = list(r_grid)
    if not eta_grid or not r_grid:
        raise EmptyGridError("eta and r grids must be nonempty")
    for g, name in ((eta_grid, "eta_grid"), (r_grid, "r_grid")):
        if not all(map(math.isfinite, g)):
            raise DomainError(f"{name} must be finite")
        if not all(map(operator.lt, g, g[1:])):
            raise DomainError(f"{name} must be strictly increasing")

    radial = bool(radial)
    n = len(r_grid)
    above_0 = bisect_right(r_grid, 0)  # the cells before it are DOMAIN
    rows = []
    for eta in eta_grid:
        row = _row(params, float(eta), radial) if eta >= 0 else None
        cuts = {0, above_0, n}
        if row is not None:
            for lo, hi in row.bands:
                i = bisect_left(r_grid, lo)
                cuts.update(range(i, bisect_right(r_grid, hi, i) + 1))
        cuts = sorted(cuts)
        for start, end in zip(cuts, cuts[1:]):
            r = r_grid[start]
            verdict = _verdict(row, r) if row is not None and r > 0 else _DOMAIN
            iv = verdict.interval
            cell = {
                "eta": eta,
                "r": None,
                "admissible": verdict.admissible,
                "regime": verdict.regime.value,
                "nonexistence": row is not None and r > 1 and _zone(row, r) != 1,
                "lower": iv.lower if iv else math.nan,
                "lower_included": iv.lower_included if iv else False,
                "upper": iv.upper if iv else math.nan,
                "upper_included": iv.upper_included if iv else False,
            }
            for r in r_grid[start:end]:
                copy = cell.copy()
                copy["r"] = r
                rows.append(copy)
    return rows


REGION_MAP_HEADER = "eta,r,admissible,regime,nonexistence,lower,lower_included,upper,upper_included"


def region_map_csv(rows) -> str:
    """Render region_map rows as the documented CSV atlas.

    Every float prints as fmt_float prints it, but each distinct float is
    formatted once per call: an atlas has a few hundred distinct values in
    tens of thousands of cells. A line's eta, lower and upper that are the
    previous line's objects reuse its text; other floats are looked up by
    value. Zeros are not kept, since 0.0 == -0.0, and values of any type
    but float are formatted every time.
    """
    from .reports import fmt_float

    memo = {}

    def fmt(x) -> str:
        if type(x) is not float:
            return fmt_float(x)
        s = memo.get(x)
        if s is None:
            s = fmt_float(x)
            if x:
                memo[x] = s
        return s

    lines = [REGION_MAP_HEADER]
    eta = lower = upper = object()  # the previous line's; no value is this
    for row in rows:
        if row["eta"] is not eta:
            eta = row["eta"]
            eta_s = fmt(eta)
        if row["lower"] is not lower:
            lower = row["lower"]
            lower_s = fmt(lower)
        if row["upper"] is not upper:
            upper = row["upper"]
            upper_s = fmt(upper)
        lines.append(
            f'{eta_s},{fmt(row["r"])},{"true" if row["admissible"] else "false"},'
            + row["regime"]  # added as join did: a str subclass adds its characters
            + f',{"true" if row["nonexistence"] else "false"},'
            f'{lower_s},{"true" if row["lower_included"] else "false"},'
            f'{upper_s},{"true" if row["upper_included"] else "false"}'
        )
    return "\n".join(lines) + "\n"
