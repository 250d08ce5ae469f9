"""The record classes' one constructor: each field by position or keyword,
and a TypeError that names the class and the field for a missing, unknown
or repeated one."""

import math

import pytest

import inlslab as il
from inlslab import Regime

#: record class -> a valid record's fields, in slot order, by keyword
FIELDS = {
    il.Params: dict(N=3, b=1.0, q=3.5, p=3.0, delta=2.0 / 3.0, a=4.0 / 3.0, ell=1.0 / 3.0),
    il.WeightedPair: dict(eta=1.5, r=3.0),
    il.EmbeddingInterval: dict(lower=2.5, upper=math.inf, lower_included=True, upper_included=False,
                               radial=False, compact_interior=True),
    il.RegimeVerdict: dict(admissible=False, regime=Regime.NOT_APPLICABLE, interval=None,
                           reason="DOMAIN"),
    il.TermSpec: dict(c=1.0, eta=1.8, r=2.2),
    il.FunctionalReport: dict(I=1.0, J=2.0, rayleigh=0.5, phi=-0.25, grad_norm=1e-9),
    il.SolveOptions: dict(max_iters=10, grad_tol=1e-6),
    il.SolveReport: dict(value=1.0, iters=1, el_res=0.0, pohozaev_res=0.0, eigen_rel_res=0.0,
                         converged=False),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_by_position_or_keyword_make_one_record(cls):
    fields = FIELDS[cls]
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_missing_unknown_or_repeated_field_raises(cls):
    fields = FIELDS[cls]
    first, *_, last = fields
    name = cls.__name__
    with pytest.raises(TypeError, match=f"{name}.*'extra'"):
        cls(**fields, extra=0)
    with pytest.raises(TypeError, match=f"{name}.*'{first}'"):
        cls(fields[first], **fields)
    with pytest.raises(TypeError, match=name):
        cls(*fields.values(), *fields.values(), 0)
    if cls is not il.SolveOptions:  # its every field has a default
        with pytest.raises(TypeError, match=f"{name}.*'{last}'"):
            cls(**{k: v for k, v in fields.items() if k != last})
