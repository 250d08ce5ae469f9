"""Value semantics of the package's record classes: repr, equality, hash,
frozen attributes, copy and pickle. The reprs are the dataclass-format
strings the classes have always printed."""

import copy
import math
import pickle

import numpy as np
import pytest

import inlslab as il
from inlslab import Regime
from inlslab import grid as grid_module

_GRID = "RadialGrid(s_min=0.01, s_max=100.0, M=64, N=3, h=0.14619587892025687)"
_INTERVAL = ("EmbeddingInterval(lower=2.5, upper=inf, lower_included=True, upper_included=False, "
             "radial=False, compact_interior=True)")


def _interval(lower=2.5):
    return il.EmbeddingInterval(lower, math.inf, True, False, False, True)


def _grid(M=64):
    return il.make_grid(1e-2, 1e2, M, 3)


def _profile(scale=1.0):
    return il.RadialProfile(_grid(), np.full(64, scale))


#: class -> (a factory taking one number, the repr of factory(1.0))
#: factory(x) == factory(x) for every x, and factory(2.0) differs from factory(1.0)
CASES = {
    "Params": (
        lambda x: il.derive_params(3, 1.0 + 0.2 * (x - 1.0), 3.5, 3.0),
        "Params(N=3, b=1.0, q=3.5, p=3.0, delta=0.6666666666666666, a=1.3333333333333335, "
        "ell=0.33333333333333304)",
    ),
    "WeightedPair": (lambda x: il.WeightedPair(1.5 * x, 3.0), "WeightedPair(eta=1.5, r=3.0)"),
    "EmbeddingInterval": (lambda x: _interval(2.5 * x), _INTERVAL),
    "RegimeVerdict": (
        lambda x: il.RegimeVerdict(True, Regime.SCALED, _interval(2.5 * x), "OK"),
        f"RegimeVerdict(admissible=True, regime=<Regime.SCALED: 'Scaled'>, interval={_INTERVAL}, "
        "reason='OK')",
    ),
    "RadialGrid": (lambda x: _grid(int(64 * x)), _GRID),
    "RadialProfile": (_profile, f"RadialProfile(grid={_GRID})"),
    "TermSpec": (lambda x: il.TermSpec(x, 1.8, 2.2), "TermSpec(c=1.0, eta=1.8, r=2.2)"),
    "FunctionalReport": (
        lambda x: il.FunctionalReport(x, 2.0, 0.5, -0.25, 1e-9),
        "FunctionalReport(I=1.0, J=2.0, rayleigh=0.5, phi=-0.25, grad_norm=1e-09)",
    ),
    "SolveOptions": (
        lambda x: il.SolveOptions(max_iters=int(50_000 * x)),
        "SolveOptions(max_iters=50000, grad_tol=1e-08)",
    ),
    "SolveReport": (
        lambda x: il.SolveReport(1.5 * x, 3, 1e-9, 2e-9, 3e-9, True, "run/profile.csv", _profile()),
        "SolveReport(value=1.5, iters=3, el_res=1e-09, pohozaev_res=2e-09, eigen_rel_res=3e-09, "
        "converged=True, profile_path='run/profile.csv')",
    ),
}
FROZEN = [name for name in CASES if name != "SolveReport"]


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, text = CASES[name]
    assert type(make(1.0)).__name__ == name
    assert repr(make(1.0)) == text
    assert str(make(1.0)) == text


@pytest.mark.parametrize("name", CASES)
def test_equality_by_value_within_one_class(name):
    make = CASES[name][0]
    a, twin, other = make(1.0), make(1.0), make(2.0)
    assert a is not twin
    assert a == twin and not a != twin
    assert a != other and not a == other
    # no instance of another record class, nor a tuple of the fields, is equal
    for other_name in CASES:
        if other_name != name:
            assert a != CASES[other_name][0](1.0)
    assert a != tuple(getattr(a, f) for f in type(a)._fields)
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", CASES)
def test_to_dict_maps_the_repr_fields_in_order(name):
    a = CASES[name][0](1.0)
    assert list(a.to_dict().items()) == [(f, getattr(a, f)) for f in type(a)._fields]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_value(name):
    make = CASES[name][0]
    assert hash(make(1.0)) == hash(make(1.0))
    assert len({make(1.0), make(1.0), make(2.0)}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_reject_assignment_and_deletion(name):
    a = CASES[name][0](1.0)
    field = type(a)._fields[0]
    before = repr(a)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 0
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    assert repr(a) == before


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_keep_the_value(name):
    a = CASES[name][0](1.0)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and repr(b) == repr(a)


def test_solve_report_is_mutable_and_unhashable():
    report = CASES["SolveReport"][0](1.0)
    report.profile_path = None
    assert repr(report).endswith("converged=True, profile_path=None)")
    del report.profile
    report.profile = None
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    # equality also compares the profile, which the repr leaves out
    twin = CASES["SolveReport"][0](1.0)
    twin.profile_path = None
    assert repr(twin) == repr(report) and twin != report


def test_params_hash_is_the_hash_of_its_fields():
    P = CASES["Params"][0](1.0)
    assert hash(P) == hash((P.N, P.b, P.q, P.p, P.delta, P.a, P.ell))


def test_profiles_compare_their_values_bit_for_bit():
    assert _profile(1.0) != _profile(1.0 + 2.0 ** -52)
    assert il.RadialProfile(_grid(), np.ones(64)) == il.RadialProfile(_grid(), [1.0] * 64)


def test_constructors_take_defaults_positions_and_keywords():
    assert il.SolveOptions() == il.SolveOptions(50_000, 1e-8)
    assert il.SolveOptions(grad_tol=1e-6).grad_tol == 1e-6
    with pytest.raises(TypeError):
        il.SolveOptions(seed=0)  # no solver read it; the built-in inits are deterministic
    assert il.WeightedPair(eta=1.0, r=2.0) == il.WeightedPair(1.0, 2.0)
    report = il.SolveReport(value=1.0, iters=1, el_res=0.0, pohozaev_res=0.0, eigen_rel_res=0.0,
                            converged=False)
    assert report.profile_path is None and report.profile is None
    with pytest.raises(TypeError):
        il.WeightedPair(1.0)
    with pytest.raises(TypeError):
        il.RadialGrid(1e-2, 1e2, 64, 3, h=0.1)  # h is derived, not an argument


def test_radial_grid_builds_its_quadrature_once(monkeypatch):
    built = []

    class Counting(grid_module.Quadrature):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(grid_module, "Quadrature", Counting)
    g = _grid()
    assert built == []
    first = g.quad
    assert g.quad is first and built == [g]
    assert il.weighted_integral(il.RadialProfile(g, np.ones(64)), 2.0, 0.0) > 0
    assert built == [g]
    assert not g.nodes.flags.writeable
