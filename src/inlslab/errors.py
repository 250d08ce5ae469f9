"""Error types and the value-class base shared across the package.

Every exception carries a short machine-readable ``code`` so the CLI can
emit stable one-line JSON diagnostics and map failures to exit codes.

_Value is the base of the package's small record classes (Params,
WeightedPair, RadialGrid, SolveReport, ...), __slots__ classes that name
their fields once, in __slots__. It supplies the one constructor, value
equality, hashing, the repr, to_dict and frozen attributes; a record that
checks its arguments does so in its own __init__, then calls _Value's.
Generated dataclass code would do the same, but building it costs every
CLI command about a millisecond per class at start-up. Every check for a
whole-number argument (node count, dimension, iteration budget) is _whole.
"""

from __future__ import annotations

#: stores a field past _Value's frozen __setattr__, in __init__ and __setstate__
_set = object.__setattr__


def _whole(x, low) -> bool:
    """Whether x is a whole number >= low; False for NaN, +-inf and non-numbers."""
    try:
        return x >= low and int(x) == x
    except (TypeError, ValueError, ArithmeticError):
        return False


class _Value:
    """Immutable record base: one constructor, and equality, hash and repr over ``_fields``.

    A subclass declares its attributes in __slots__ and names the ones
    its repr shows, in order, in ``_fields``. __init__ stores each slot
    from the positional arguments in slot order, the keywords or the
    class's ``_defaults``; a missing, unknown or repeated field raises
    TypeError. Instances compare equal only to instances of the same class
    with equal ``_key()``, which is the ``_fields`` values unless the
    subclass overrides it, and hash by ``_key()``. The repr reads
    ``Class(field=value, ...)`` and to_dict() gives ``{field: value}``,
    both in ``_fields`` order. Assigning or deleting an attribute
    raises AttributeError. copy and pickle restore the slots through
    __setstate__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        slots = self.__slots__
        if len(args) == len(slots) and not kwargs:  # the common call: every field by position
            for name, value in zip(slots, args):
                _set(self, name, value)
            return
        cls = self.__class__.__qualname__
        if len(args) > len(slots):
            raise TypeError(f"{cls} takes {len(slots)} fields, got {len(args)} positional arguments")
        for name in kwargs:
            if name not in slots[len(args):]:
                raise TypeError(f"{cls} got an unknown or repeated field {name!r}")
        fields = {**self._defaults, **dict(zip(slots, args)), **kwargs}
        for name in slots:
            if name not in fields:
                raise TypeError(f"{cls} missing field {name!r}")
            _set(self, name, fields[name])

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # object.__getstate__ gives (None, {slot: value}): no record has an instance dict
        for name, value in state[1].items():
            _set(self, name, value)


class InlsError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class HypothesisViolation(InlsError):
    """Problem parameters violate the basic parameter hypothesis."""

    code = "HYPOTHESIS_VIOLATION"


class DomainError(InlsError):
    """An argument lies outside the domain of the operation."""

    code = "DOMAIN"


class EmptyGridError(InlsError):
    code = "EMPTY_GRID"


class ZeroProfileError(InlsError):
    code = "ZERO_PROFILE"


class SearchFailed(InlsError):
    """Internal bracketing/bisection search exhausted its budget."""

    code = "SEARCH_FAILED"


class NotCoerciveConfig(InlsError):
    """Term list does not define a coercive minimization problem."""

    code = "NOT_COERCIVE_CONFIG"


class SingularHessian(InlsError):
    code = "SINGULAR_HESSIAN"


class Diverged(InlsError):
    code = "DIVERGED"
