"""Problem parameters, the exponents derived from them, and the shared root search.

The validated parameters (N, b, q, p) with delta, a and ell, the critical
exponent 2*_eta and the scaling rate ell_of, plus the boundary tolerance
EQ_TOL and its test _close. _scan and _bisect are the one bracketed root
search: _scan brackets a sign change of f by repeated halving or doubling
from a start, and _bisect solves it down to the float of least |f|.
regimes uses them for the threshold constants and functionals for the
projection onto I = 1. The solvers and functionals need this module and
nothing else of the exponent calculus, so they import it and not regimes.
"""

from __future__ import annotations

import math

from .errors import DomainError, HypothesisViolation, _Value, _whole

EQ_TOL = 1e-12

INF = math.inf


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= EQ_TOL * max(1.0, abs(x), abs(y))


class Params(_Value):
    """Validated problem parameters plus derived exponents.

    delta is the scaling rate of u_t(x) = t^delta u(tx); a is the unique
    eigen-term weight that makes the equation invariant under that
    scaling; ell is the common growth rate of both energy terms along
    the scaling orbit.
    """

    __slots__ = ("N", "b", "q", "p", "delta", "a", "ell", "_values")
    _fields = __slots__[:-1]

    def __init__(self, N: int, b: float, q: float, p: float, delta: float, a: float, ell: float):
        values = (N, b, q, p, delta, a, ell)
        _Value.__init__(self, *values, values)

    # Params keys the regimes row cache: every lookup hashes it, and
    # compares it with the cached key when it is an equal Params built apart
    # from it. The field tuple kept in _values makes each one call, as fast
    # as the generated dataclass methods were.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)


def derive_params(N: int, b: float, q: float, p: float) -> Params:
    """Validate (N, b, q, p) and compute delta, a, ell.

    Raises HypothesisViolation naming the first failed inequality of
    N >= 2, 0 < b < 2 < p < q < 2*_b.
    """
    if not _whole(N, 2):
        raise HypothesisViolation(f"N >= 2 required, got N = {N}")
    N = int(N)
    if not 0 < b < 2:
        raise HypothesisViolation(f"0 < b < 2 required, got b = {b}")
    if not p > 2:
        raise HypothesisViolation(f"p > 2 required, got p = {p}")
    if not q > p:
        raise HypothesisViolation(f"q > p required, got q = {q}, p = {p}")
    if N >= 3:
        qcrit = 2.0 * (N - b) / (N - 2)
        if not q < qcrit:
            raise HypothesisViolation(
                f"q < 2(N-b)/(N-2) = {qcrit!r} required, got q = {q}"
            )
    b, q, p = float(b), float(q), float(p)  # so every derived exponent is a float, not a numpy scalar
    delta = (2.0 - b) / (q - 2.0)
    a1 = 2.0 - delta * (p - 2.0)
    a2 = b + delta * (q - p)
    if not _close(a1, a2):
        raise HypothesisViolation(f"inconsistent derived a: {a1!r} vs {a2!r}")
    a = a1
    if not (b < a < 2.0):
        raise HypothesisViolation(f"derived a = {a!r} outside (b, 2)")
    ell = q * delta + b - N
    if not ell > 0:
        raise HypothesisViolation(f"derived ell = {ell!r} not positive")
    ell2 = p * delta + a - N
    if not _close(ell, ell2):
        raise HypothesisViolation(f"inconsistent derived ell: {ell!r} vs {ell2!r}")
    return Params(N=N, b=b, q=q, p=p, delta=delta, a=a, ell=ell)


def critical_exponent(N: int, eta: float) -> float:
    """Upper embedding endpoint 2(N-eta)/(N-2); +inf in dimension 2."""
    if not 0 <= eta < N:
        raise DomainError(f"eta must lie in [0, N), got {eta}")
    if N == 2:
        return INF
    return 2.0 * (N - eta) / (N - 2.0)


def ell_of(params: Params, eta: float, r: float) -> float:
    """Growth rate r*delta + eta - N of the (eta, r) integral under scaling."""
    return r * params.delta + eta - params.N


def _scan(f, x: float, factor: float, below: bool = False) -> float:
    """The first x*factor^k, k = 0 ... 1999, where f is positive (negative
    when below is set), by repeated multiplication; x*factor^2000 if none."""
    for _ in range(2000):
        fx = f(x)
        if (fx < 0) if below else (fx > 0):
            break
        x *= factor
    return x


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in a bracket [lo, hi] where f changes sign, by bisection
    down to adjacent floats, then the end with the smaller |f| walked to
    the float whose |f| neither neighbour beats.

    Rounding makes f flip sign more than once within a few ulps of the
    root, so the bisection may settle beside the float of least |f|
    rather than on it; the walk moves there.
    """
    flo, fhi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    x, fx = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    for toward in (0.0, INF):
        while True:
            y = math.nextafter(x, toward)
            if not 0.0 < y < INF:
                break
            try:
                fy = f(y)
            except (OverflowError, ZeroDivisionError):
                break
            if not abs(fy) < abs(fx):
                break
            x, fx = y, fy
    return x
