import copy
import math
import pickle

import pytest
from hypothesis import assume, given, strategies as st

from cuspidal import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
    hf_check,
    semicontinuity_check,
    verify_limits,
)


@pytest.mark.parametrize(
    "a, b, e, w, d, c, g",
    [
        (6, 6, 0, 6, 72, 6, 25),
        (6, 4, 0, 6, 48, 2, 15),
        (4, 4, 2, 12, 64, 4, 21),
        (1, 1, 0, 1, 2, 1, 0),
        (0, 3, 1, 3, 9, 3, 1),
        (5, 2, 3, 11, 32, 1, 7),
    ],
)
def test_curve_invariants(a, b, e, w, d, c, g):
    curve = CurveType(a, b, e)
    assert (curve.w, curve.d, curve.c, curve.g) == (w, d, c, g)


@pytest.mark.parametrize(
    "a, b, e",
    [
        (1, 0, 0),  # b must be positive
        (-1, 2, 0),  # a must be nonnegative
        (1, 1, -1),  # e must be nonnegative
        (0, 1, 0),  # d = 0
        (0, 2, 0),  # g = -1
    ],
)
def test_invalid_curves_rejected(a, b, e):
    with pytest.raises(ValueError):
        CurveType(a, b, e)


def test_curve_default_e_is_zero():
    assert CurveType(3, 2) == CurveType(3, 2, 0)


@given(
    a=st.integers(min_value=0, max_value=50),
    b=st.integers(min_value=1, max_value=50),
    e=st.integers(min_value=0, max_value=10),
)
def test_curve_genus_nonnegative_and_integral(a, b, e):
    assume(a > 0 or e > 0)  # d > 0; the constructor has no genus check
    curve = CurveType(a, b, e)
    assert curve.g >= 0
    # g agrees with the rational formula evaluated exactly
    assert 2 * curve.g == 2 * (a - 1) * (b - 1) + b * (b - 1) * e


@pytest.mark.parametrize(
    "r, s, mu, delta",
    [(2, 3, 2, 1), (2, 51, 50, 25), (3, 26, 50, 25), (6, 11, 50, 25), (3, 22, 42, 21)],
)
def test_cusp_invariants(r, s, mu, delta):
    cusp = PuiseuxCusp(r, s)
    assert cusp.mu == mu
    assert cusp.delta == delta


@pytest.mark.parametrize("r, s", [(1, 2), (3, 3), (3, 2), (2, 4), (6, 9)])
def test_invalid_cusps_rejected(r, s):
    with pytest.raises(ValueError):
        PuiseuxCusp(r, s)


@given(
    r=st.integers(min_value=2, max_value=40),
    s=st.integers(min_value=3, max_value=200),
)
def test_cusp_milnor_number_is_even(r, s):
    if s <= r or math.gcd(r, s) != 1:
        return
    cusp = PuiseuxCusp(r, s)
    assert cusp.mu % 2 == 0
    assert cusp.delta * 2 == cusp.mu


def test_configuration_delta_and_genus_check():
    config = CuspConfiguration((PuiseuxCusp(2, 3), PuiseuxCusp(3, 4)))
    assert config.total_delta == 1 + 3
    assert len(config) == 2
    assert list(config) == [PuiseuxCusp(2, 3), PuiseuxCusp(3, 4)]

    curve = CurveType(3, 3, 0)  # g = 4
    assert config.is_genus_compatible(curve)
    config.require_genus_compatible(curve)

    other = CurveType(6, 6, 0)  # g = 25
    assert not config.is_genus_compatible(other)
    with pytest.raises(GenusMismatchError):
        config.require_genus_compatible(other)


def test_empty_configuration_matches_rational_curve():
    config = CuspConfiguration()
    assert config.total_delta == 0
    assert config.is_genus_compatible(CurveType(1, 1, 0))
    assert str(config) == "[]"


def test_constructors_and_str():
    assert str(PuiseuxCusp(2, 3)) == "(2,3)"
    assert str(CurveType(6, 4, 0)) == "(6,4) in X_0"
    assert str(CuspConfiguration((PuiseuxCusp(2, 3),))) == "[(2,3)]"


def test_values_are_immutable_ordered_hashable_tuples():
    cusp = PuiseuxCusp(2, 3)
    curve = CurveType(6, 6)
    config = CuspConfiguration([cusp, PuiseuxCusp(3, 4)])
    for value, attr in ((cusp, "r"), (curve, "e"), (config, "total_delta")):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        assert pickle.loads(pickle.dumps(value)) == copy.copy(value) == value
        assert type(copy.deepcopy(value)) is type(value)
    # Cusps order as (r, s) and hash as that pair; configurations hash as
    # the tuple of their cusps, so they serve as memo keys.
    assert sorted([PuiseuxCusp(3, 4), PuiseuxCusp(2, 5), cusp]) == [
        cusp,
        PuiseuxCusp(2, 5),
        PuiseuxCusp(3, 4),
    ]
    assert hash(cusp) == hash((2, 3)) and hash(curve) == hash((6, 6, 0))
    assert len({config, CuspConfiguration((cusp, PuiseuxCusp(3, 4)))}) == 1
    assert repr(config) == (
        "CuspConfiguration(cusps=(PuiseuxCusp(r=2, s=3), PuiseuxCusp(r=3, s=4)))"
    )
    assert repr(curve) == "CurveType(a=6, b=6, e=0)"
    # The namedtuple API, and equality with plain tuples.
    assert (cusp._fields, curve._fields) == (("r", "s"), ("a", "b", "e"))
    assert curve._asdict() == {"a": 6, "b": 6, "e": 0}
    assert cusp == (2, 3) and curve == (6, 6, 0)


def _result_records():
    """One of each result record, from the two filters on a configuration of
    (0, 5, 2) that both obstruct, and from the limit harness."""
    curve = CurveType(0, 5, 2)
    config = CuspConfiguration([PuiseuxCusp(2, 3), PuiseuxCusp(3, 4), PuiseuxCusp(4, 9)])
    hf_report, spectrum_report = hf_check(curve, config), semicontinuity_check(curve, config)
    limits = verify_limits(3, 100)
    records = [
        (hf_report.witnesses[0], ("m", "s1", "s2", "r_value", "p_value")),
        (hf_report, ("witnesses",)),
        (
            spectrum_report.witnesses[0],
            ("x", "cusp_inside", "infinity_inside", "cusp_outside", "infinity_outside"),
        ),
        (spectrum_report, ("witnesses", "checked_points")),
        (limits.entries[0], ("name", "w", "value", "limit")),
        (limits, ("b", "tol", "entries")),
    ]
    return [pytest.param(*pair, id=type(pair[0]).__name__) for pair in records]


@pytest.mark.parametrize("record, fields", _result_records())
def test_result_records_are_slotted_namedtuples(record, fields):
    # Each result record subclasses a `collections.namedtuple` with
    # `__slots__ = ()`, as `core`'s values do; without it a subclass
    # silently grows a `__dict__`.
    cls = type(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 0
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
    assert cls._fields == fields and record._asdict() == dict(zip(fields, record))
    assert type(cls._make(record)) is cls and cls._make(record) == record
    assert record._replace(**record._asdict()) == record
    values = ", ".join(f"{field}={value!r}" for field, value in zip(fields, record))
    assert repr(record) == f"{cls.__name__}({values})"
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    if "witnesses" in fields:  # both filter reports share one verdict rule
        assert (record.obstructed, record.verdict) == (True, "obstructed")
        passing = record._replace(witnesses=())
        assert (passing.obstructed, passing.verdict) == (False, "passes")


@pytest.mark.parametrize(
    "value, invalid",
    [
        (PuiseuxCusp(2, 51), {"r": 1}),
        (PuiseuxCusp(2, 51), {"s": 4}),
        (CurveType(6, 6, 0), {"b": 0}),
        (CurveType(6, 6, 0), {"a": 0, "b": 2}),
    ],
)
def test_every_construction_path_validates(value, invalid):
    cls = type(value)
    fields = tuple({**value._asdict(), **invalid}.values())
    with pytest.raises(ValueError) as constructor:
        cls(*fields)
    # A value that skipped the constructor's checks; unpickling or copying
    # it runs them.
    unchecked = tuple.__new__(cls, fields)
    paths = [
        lambda: value._replace(**invalid),
        lambda: cls._make(fields),
        lambda: pickle.loads(pickle.dumps(unchecked)),
        lambda: copy.copy(unchecked),
        lambda: copy.deepcopy(unchecked),
    ]
    for path in paths:
        with pytest.raises(ValueError) as excinfo:
            path()
        assert str(excinfo.value) == str(constructor.value)
    for copied in (value._replace(), cls._make(value)):
        assert type(copied) is cls and copied == value
