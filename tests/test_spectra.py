import fractions
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import (
    CurveType,
    CuspConfiguration,
    PuiseuxCusp,
    alexander_order,
    filter_verdicts,
    semicontinuity_check,
    signature_profile,
    spectrum_at_infinity_derived,
    spectrum_at_infinity_table,
)
from cuspidal import spectra
from cuspidal.spectra import InternalConsistencyError, SemicontinuityReport
from oracles import count_open, cusp_spectrum, entries, is_symmetric_about_one, total

F = Fraction


def test_multiset_basic_queries():
    spectrum = (2, ((1, 2), (2, 3), (3, 2)))  # halves
    assert total(spectrum) == 7
    assert count_open(spectrum, F(0), F(1)) == 2
    assert count_open(spectrum, F(1, 2), F(3, 2)) == 3  # endpoints excluded
    assert is_symmetric_about_one(spectrum)
    assert not is_symmetric_about_one((2, ((1, 2), (2, 3), (3, 1))))


def test_multiset_validation():
    # Both constructions list each value in [0, 2] once, in increasing order,
    # and drop zero multiplicities: (6, 4, 0) has none at 1/6 = 2/12, and
    # (0, 1, 1) has no value at all.
    for a, b, e in [(6, 4, 0), (0, 1, 1), (1, 2, 0), (7, 7, 2)]:
        curve = CurveType(a, b, e)
        for construction in (spectrum_at_infinity_table, spectrum_at_infinity_derived):
            denominator, pairs = construction(curve)
            assert denominator == math.lcm(curve.w, b)
            numerators = [n for n, _ in pairs]
            assert numerators == sorted(set(numerators))
            assert all(0 <= n <= 2 * denominator and mult > 0 for n, mult in pairs)
    assert 2 not in dict(spectrum_at_infinity_table(CurveType(6, 4, 0))[1])
    assert spectrum_at_infinity_derived(CurveType(0, 1, 1)) == (1, ())


def test_cusp_spectrum_size_and_symmetry():
    for r, s in [(2, 3), (2, 51), (3, 26), (6, 11), (3, 22)]:
        cusp = PuiseuxCusp(r, s)
        spectrum = cusp_spectrum(cusp)
        assert total(spectrum) == cusp.mu
        assert is_symmetric_about_one(spectrum)
    assert entries(cusp_spectrum(PuiseuxCusp(2, 3))) == ((F(5, 6), 1), (F(7, 6), 1))


def test_signature_profile_worked_values():
    assert signature_profile(CurveType(6, 4, 0)) == ((-3, -1, 0, 1, 3), (-3, 0, 3))


@given(
    a=st.integers(min_value=1, max_value=10),
    b=st.integers(min_value=2, max_value=10),
    e=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40)
def test_signature_antisymmetry(a, b, e):
    curve = CurveType(a, b, e)
    sigma1, sigma2 = signature_profile(curve)
    w = curve.w
    for p in range(1, w):
        assert sigma1[p - 1] == -sigma1[w - p - 1]
    for q in range(1, b):
        assert sigma2[q - 1] == -sigma2[b - q - 1]


def test_alexander_orders_worked_example():
    curve = CurveType(6, 4, 0)
    assert total(spectrum_at_infinity_table(curve)) == 39  # the degree
    points = [F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6)]
    orders = [alexander_order(curve, x.denominator) for x in points]
    assert orders == [3, 5, 3, 8, 3, 5, 3]
    assert alexander_order(curve, 1) == 9


def test_derived_spectrum_worked_example():
    curve = CurveType(6, 4, 0)
    spectrum = dict(entries(spectrum_at_infinity_derived(curve)))
    low_part = {
        F(1, 4): 1,
        F(1, 3): 1,
        F(1, 2): 4,
        F(2, 3): 2,
        F(3, 4): 4,
        F(5, 6): 3,
    }
    for value, mult in low_part.items():
        assert spectrum.get(value, 0) == mult
    assert sum(m for v, m in spectrum.items() if v < 1) == 15
    assert spectrum[F(1)] == 9
    assert sum(spectrum.values()) == 39


def test_table_spectrum_degree_six():
    spectrum = spectrum_at_infinity_table(CurveType(6, 6, 0))
    expected = {
        F(1, 6): 1,
        F(1, 3): 3,
        F(1, 2): 5,
        F(2, 3): 7,
        F(5, 6): 9,
        F(1): 11,
        F(7, 6): 9,
        F(4, 3): 7,
        F(3, 2): 5,
        F(5, 3): 3,
        F(11, 6): 1,
    }
    assert dict(entries(spectrum)) == expected


def test_table_skips_the_zero_start_of_its_p_row():
    # b = 1: floor(p*b/w) = 0 for every p < w, so no row of w entries is built.
    tracemalloc.start()
    try:
        assert spectrum_at_infinity_table(CurveType(0, 1, 10**5)) == (10**5, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_table_skips_the_zero_start_of_its_q_row():
    # a = 1: floor(q*a/b) = 0 for every q < b, so no row of b entries is built.
    tracemalloc.start()
    try:
        table = spectrum_at_infinity_table(CurveType(1, 10**6, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == (10**6, ((10**6, 10**6),))
    assert peak < 2**20


@given(
    a=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=8),
    e=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60)
def test_two_constructions_agree(a, b, e):
    curve = CurveType(a, b, e)
    table = spectrum_at_infinity_table(curve)
    assert table == spectrum_at_infinity_derived(curve)
    assert is_symmetric_about_one(table)
    # The degree of (t-1)(t^w-1)^(b-1)(t^b-1)^(a-1).
    assert total(table) == 1 + curve.w * (b - 1) + b * (a - 1)


def test_semicontinuity_obstructs_small_multiplicity_cusp():
    curve = CurveType(6, 6, 0)
    report = semicontinuity_check(curve, CuspConfiguration((PuiseuxCusp(2, 51),)))
    assert report.obstructed
    by_x = {w.x: w for w in report.witnesses}
    witness = by_x[F(25, 51)]
    assert (witness.cusp_inside, witness.infinity_inside) == (50, 48)
    assert witness.cusp_inside > witness.infinity_inside
    assert witness.cusp_outside <= witness.infinity_outside


@pytest.mark.parametrize("r, s", [(3, 26), (6, 11)])
def test_semicontinuity_passes_other_candidates(r, s):
    curve = CurveType(6, 6, 0)
    report = semicontinuity_check(curve, CuspConfiguration((PuiseuxCusp(r, s),)))
    assert not report.obstructed
    assert report.verdict == "passes"
    assert report.checked_points > 0


@pytest.mark.parametrize("a, b, e, r, s", [(6, 6, 0, 6, 11), (0, 30, 1, 29, 30)])
def test_ordered_scan_of_a_survivor_walks_its_points_once(monkeypatch, a, b, e, r, s):
    # The walk down fails where the walk up does, so when the walk up finds
    # nothing the ordered stream stops its walk down at once: it evaluates as
    # many scan points as the walk down alone.  A walk tests each gap between
    # neighbouring codes once, for the points y with low < 4y + 1 < high.
    walks = []

    def counted(codes):
        walks.append(0)
        for pair in pairwise(codes):
            low, high = sorted(pair)
            f, g = low >> 2, high >> 2
            walks[-1] += sum(low < 4 * y + 1 < high for y in {f, (f + g) // 2, g})
            yield pair

    monkeypatch.setattr(spectra, "pairwise", counted)
    infinity = spectra._table_below_one(CurveType(a, b, e))
    config = CuspConfiguration([PuiseuxCusp(r, s)])
    _, count, ordered, down = spectra._scan(infinity, config)
    assert list(down) == []
    assert list(ordered) == []
    walked_down, *walked_ordered = walks
    assert sum(walked_ordered) == walked_down > 0
    # Each folded point stands for one or two scan points ("Count").
    assert walked_down <= count() <= 2 * walked_down


@pytest.mark.parametrize("a, b", [(10**20, 1), (1, 10**20)])
def test_empty_configuration_takes_the_general_scan(a, b):
    # No genus-0 table has a value below 1, so the scan checks 1/2 alone,
    # where both cusp counts are 0 and no inequality can fail.
    curve, config = CurveType(a, b, 0), CuspConfiguration(())
    tracemalloc.start()
    try:
        report = semicontinuity_check(curve, config)
        verdicts = list(filter_verdicts(curve, [config]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == SemicontinuityReport((), 1)
    assert verdicts == [(True, True, True)]
    assert peak < 64 * 1024


def test_constructions_make_no_fraction():
    # Every Fraction operation runs Python code in the fractions module;
    # none may run while a spectrum is constructed.
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    curves = [CurveType(6, 4, 0), CurveType(0, 5, 3), CurveType(40, 30, 2)]
    sys.setprofile(watch)
    try:
        for curve in curves:
            spectrum_at_infinity_table(curve)
            spectrum_at_infinity_derived(curve)
        cusp_spectrum(PuiseuxCusp(6, 11))
    finally:
        sys.setprofile(None)
    assert calls == []
    # The watch sees Fraction code when it runs.
    sys.setprofile(watch)
    try:
        entries(cusp_spectrum(PuiseuxCusp(2, 3)))
    finally:
        sys.setprofile(None)
    assert "__new__" in calls


def test_derived_construction_rejects_bad_signatures(monkeypatch):
    curve = CurveType(6, 4, 0)
    assert signature_profile(curve) == ((-3, -1, 0, 1, 3), (-3, 0, 3))
    # x = 1/2 is p/w for p = 3 and q/b for q = 2, so the two signatures add
    # up there: 0 + 1 against the order 8.
    profile = ((-3, -1, 0, 1, 3), (-3, 1, 3))
    monkeypatch.setattr(spectra, "signature_profile", lambda curve: profile)
    message = "order 8 and signature 1 at x = 1/2 have different parity"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        spectrum_at_infinity_derived(curve)
    # x = 1/6 only has p = 1: -5 is of the right parity but too large.
    profile = ((-5, -1, 0, 1, 3), (-3, 0, 3))
    message = "negative multiplicity at x = 1/6: low=-1, high=4"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        spectrum_at_infinity_derived(curve)
