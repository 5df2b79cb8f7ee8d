import math
import sys
import threading
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspidal import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
    configurations,
    curve_elements,
    d_invariant,
    filter_verdicts,
    hf_check,
    max_p_over_presentations,
    multiplicity_bound_check,
    p_bound,
    semicontinuity_check,
)
from cuspidal import hf
from cuspidal.hf import _cusp_elements, _max_plus, _p_max_line
from oracles import (
    brute_max_p,
    closed_form_elements,
    curve_or_none,
    curves,
    r_at,
)

coprime_pairs = st.tuples(
    st.integers(min_value=2, max_value=12), st.integers(min_value=3, max_value=40)
).filter(lambda rs: rs[0] < rs[1] and math.gcd(*rs) == 1)


def brute_semigroup(gens, bound):
    member = {0}
    changed = True
    while changed:
        changed = False
        for t in sorted(member):
            for gen in gens:
                if t + gen <= bound and t + gen not in member:
                    member.add(t + gen)
                    changed = True
    return member


@pytest.mark.parametrize(
    "gens, frobenius, gaps",
    [
        ((2, 3), 1, 1),
        ((3, 22), 41, 21),
        ((2, 51), 49, 25),
        ((6, 11), 49, 25),
        ((3, 5), 7, 4),
    ],
)
def test_semigroup_frobenius_and_gaps(gens, frobenius, gaps):
    elements = _cusp_elements(PuiseuxCusp(*gens))
    missing = set(range(elements[-1] + 1)) - set(elements)
    assert max(missing) == frobenius
    assert len(missing) == gaps


@given(rs=coprime_pairs)
def test_two_generator_closed_forms(rs):
    r, s = rs
    elements = _cusp_elements(PuiseuxCusp(r, s))
    gaps = set(range(r * s)) - brute_semigroup((r, s), r * s)
    assert max(gaps) == r * s - r - s == elements[-1] - 1
    assert len(gaps) == (r - 1) * (s - 1) // 2 == len(elements) - 1


def test_membership_matches_brute_force():
    pairs = [
        (r, s) for r in range(2, 31) for s in range(r + 1, 130) if math.gcd(r, s) == 1
    ]
    assert len(pairs) == 1976
    for r, s in pairs:
        conductor = (r - 1) * (s - 1)
        members = {
            i * r + j * s
            for i in range(conductor // r + 1)
            for j in range(conductor // s + 1)
        }
        elements = _cusp_elements(PuiseuxCusp(r, s))
        assert elements == tuple(t for t in range(conductor + 1) if t in members)
        assert elements == closed_form_elements(r, s)
        assert len(elements) == conductor // 2 + 1
        assert elements[-1] == conductor


def test_cusp_elements_use_both_exponents():
    elements = _cusp_elements(PuiseuxCusp(3, 7))
    assert {3, 7, 10} <= set(elements)
    assert 5 not in elements
    assert 11 not in elements  # the Frobenius number of <3,7>
    assert elements[-1] == 12


@given(rs=coprime_pairs)
@settings(max_examples=30)
def test_cusp_elements_count_members(rs):
    r, s = rs
    elements = _cusp_elements(PuiseuxCusp(r, s))
    members = brute_semigroup((r, s), 3 * r * s)
    for t in range(-2, 3 * r * s):
        assert r_at(elements, t) == sum(1 for x in members if x < t)


def test_convolution_of_simplest_cusp_pair():
    e23 = _cusp_elements(PuiseuxCusp(2, 3))
    conv = _max_plus(e23, e23)
    assert conv == (0, 2, 4)
    assert [r_at(conv, t) for t in range(9)] == [0, 1, 1, 2, 2, 3, 4, 5, 6]
    assert _max_plus((0,), e23) == _max_plus(e23, (0,)) == e23


@given(pair=st.tuples(coprime_pairs, coprime_pairs))
@settings(max_examples=25, deadline=None)
def test_convolution_commutes(pair):
    f, g = (_cusp_elements(PuiseuxCusp(*rs)) for rs in pair)
    assert _max_plus(f, g) == _max_plus(g, f)


def test_curve_elements_tail_law():
    curve = CurveType(6, 6, 0)
    elements = curve_elements(curve, CuspConfiguration((PuiseuxCusp(6, 11),)))
    g = curve.g
    assert len(elements) == g + 1 and elements[-1] == 2 * g
    for m in range(1, 12):
        assert r_at(elements, 2 * g + m) == g + m
    assert r_at(elements, 0) == 0
    assert r_at(elements, -3) == 0


def test_curve_elements_multi_cusp():
    # three unit-delta cusps on a genus-3 curve
    curve = CurveType(4, 2, 0)
    elements = curve_elements(curve, CuspConfiguration((PuiseuxCusp(2, 3),) * 3))
    assert elements == (0, 2, 4, 6)
    assert len(elements) == curve.g + 1
    assert curve_elements(CurveType(1, 1, 0), CuspConfiguration()) == (0,)


def test_curve_elements_rejects_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        curve_elements(CurveType(6, 6, 0), CuspConfiguration((PuiseuxCusp(2, 3),)))


def test_curve_elements_is_thread_safe():
    # Two threads walk the multi-cusp configurations of (6,6,0) in opposite
    # orders, so each keeps replacing the prefix the other is folding onto.
    curve = CurveType(6, 6, 0)
    configs = [c for c in configurations(curve.g, 3) if len(c) > 1]
    expected = [reduce(_max_plus, map(_cusp_elements, c)) for c in configs]
    wrong, finished = [], []

    def walk(order):
        wrong.extend(
            i for i in order if curve_elements(curve, configs[i]) != expected[i]
        )
        finished.append(order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=walk, args=(order,))
            for order in (range(len(configs)), range(len(configs))[::-1])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == 2 and len(configs) > 100 and wrong == []


@pytest.mark.parametrize(
    "s1, s2, e, expected",
    [
        (0, 0, 0, 1),
        (1, 0, 5, 2),
        (0, 1, 2, 4),
        (2, 1, 2, 8),
        (3, 2, 1, 15),
        (-1, 0, 0, 0),
    ],
)
def test_p_bound_values(s1, s2, e, expected):
    assert p_bound(s1, s2, e) == expected


def test_max_p_reproduces_known_presentation():
    assert max_p_over_presentations(CurveType(4, 4, 2), 20) == (2, 1, 8)


def test_max_p_returns_none_off_the_lattice():
    # c = gcd(6, 6) = 6 does not divide 7
    assert max_p_over_presentations(CurveType(6, 6, 0), 7) is None


@pytest.mark.parametrize(
    "curve",
    [CurveType(6, 6, 0), CurveType(4, 4, 2), CurveType(5, 3, 1), CurveType(7, 2, 0)],
)
def test_max_p_matches_wide_brute_force(curve):
    for n in range(-5, 2 * curve.g + 2):
        assert max_p_over_presentations(curve, n) == brute_max_p(curve, n)


def _curves_up_to_genus(max_genus, bound):
    """Every curve with g <= max_genus and a, b, e <= bound (the bound makes
    the set finite: b = 1, and a = 1 on X_0, give g = 0 for any a, e or b)."""
    curves = []
    for b in range(1, bound + 1):
        for e in range(bound + 1):
            for a in range(bound + 1):
                curve = curve_or_none(a, b, e)
                if curve is None:
                    continue
                if curve.g > max_genus:
                    break  # g does not decrease as a grows
                curves.append(curve)
    return curves


GENUS_60_CURVES = _curves_up_to_genus(60, 61)


@given(curve=st.sampled_from(GENUS_60_CURVES))
@example(curve=CurveType(61, 2, 0))
@example(curve=CurveType(0, 2, 61))
@example(curve=CurveType(2, 61, 0))
@example(curve=CurveType(7, 11, 0))
@example(curve=CurveType(0, 1, 1))
@settings(max_examples=40, deadline=None)
def test_max_p_matches_brute_force_up_to_genus_60(curve):
    # [-g - 1, 2g - 1] holds every n = m + g - 1 with m in [-g, g] that the
    # HF scan asks for.  P is concave along the line, and its vertex lies
    # well inside the k window of the brute force for g <= 60.
    g = curve.g
    for n in range(-g - 1, 2 * g):
        assert max_p_over_presentations(curve, n) == brute_max_p(curve, n, 300)


@pytest.mark.parametrize("e", [2, 4, 6, 8, 10])
def test_hf_obstructs_even_twist_family(e):
    curve = CurveType(4, 4, e)
    config = CuspConfiguration((PuiseuxCusp(3, 6 * e + 10),))
    report = hf_check(curve, config)
    assert report.obstructed
    assert report.verdict == "obstructed"
    witness = report.witnesses[0]
    assert witness.m == 0
    assert witness.r_value == 2 * e + 3
    assert witness.p_value == 2 * e + 4


@pytest.mark.parametrize("e", [1, 3, 5, 7, 9])
def test_hf_passes_odd_twist_family(e):
    curve = CurveType(4, 4, e)
    config = CuspConfiguration((PuiseuxCusp(3, 6 * e + 10),))
    assert not hf_check(curve, config).obstructed


@pytest.mark.parametrize("r, s", [(2, 51), (3, 26), (6, 11)])
def test_hf_passes_all_degree_six_candidates(r, s):
    report = hf_check(CurveType(6, 6, 0), CuspConfiguration((PuiseuxCusp(r, s),)))
    assert not report.obstructed
    assert report.verdict == "passes"


def test_multiplicity_bound():
    curve = CurveType(6, 6, 0)
    assert multiplicity_bound_check(curve, PuiseuxCusp(2, 51))
    assert multiplicity_bound_check(curve, PuiseuxCusp(6, 11))
    assert not multiplicity_bound_check(curve, PuiseuxCusp(7, 8))
    assert not multiplicity_bound_check(CurveType(5, 2, 0), PuiseuxCusp(3, 4))


def test_d_invariant_smooth_rational_curve():
    curve = CurveType(1, 1, 0)
    config = CuspConfiguration()
    assert d_invariant(curve, config, 0) == Fraction(-1, 4)
    assert d_invariant(curve, config, -1) == Fraction(1, 4)


def test_d_invariant_unicuspidal_value():
    curve = CurveType(6, 6, 0)
    config = CuspConfiguration((PuiseuxCusp(6, 11),))
    assert d_invariant(curve, config, 25) == Fraction(-103, 72)


def test_d_invariant_domain(monkeypatch):
    curve = CurveType(1, 1, 0)  # d = 2, so m in {-1, 0}
    config = CuspConfiguration()
    with pytest.raises(ValueError):
        d_invariant(curve, config, 1)
    with pytest.raises(ValueError):
        d_invariant(curve, config, -2)

    # The range is checked before the fold, which can take seconds.
    def refuse(curve, config):
        raise AssertionError("folded before the range check")

    monkeypatch.setattr(hf, "curve_elements", refuse)
    with pytest.raises(ValueError, match=r"m must lie in \[-2/2, 2/2\), got 1"):
        d_invariant(curve, config, 1)


def test_list_built_configuration_is_a_tuple_built_one():
    curve = CurveType(6, 6, 0)
    from_list = CuspConfiguration([PuiseuxCusp(6, 11)])
    from_tuple = CuspConfiguration((PuiseuxCusp(6, 11),))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert hf_check(curve, from_list) == hf_check(curve, from_tuple)
    for m in (-36, 0, 25, 35):
        assert d_invariant(curve, from_list, m) == d_invariant(curve, from_tuple, m)


@given(
    a=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=8),
    e=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40)
def test_max_p_is_an_actual_presentation(a, b, e):
    curve = CurveType(a, b, e)
    for n in range(0, 25):
        best = max_p_over_presentations(curve, n)
        if best is None:
            assert n % curve.c != 0
        else:
            s1, s2, p = best
            assert s1 * curve.b + s2 * curve.w == n
            assert p == p_bound(s1, s2, e)


def test_p_max_line_entries_are_maxima_on_their_lattice():
    # Every curve with a, b <= 40 and e <= 3: the line holds exactly the m in
    # [-g, g] with c | m + g - 1, in increasing order, each with a solution
    # of s1*b + s2*w = n = m + g - 1 and its P.  Along that solution line,
    # 2bP = (s2 + 1)(2(n + b) - q*s2) with q = d/b > 0 is concave in s2, so
    # the differences of P between neighbours never grow in either direction.
    # So if the neighbour of larger s1 has a strictly smaller P and the other
    # neighbour no larger a P, the entry is the maximum, the one of largest
    # s1 among equal maxima.
    grid = curves(40, 40, 3)
    for curve in grid:
        b, w, e, c, g = curve.b, curve.w, curve.e, curve.c, curve.g
        line = tuple(_p_max_line(curve))
        assert [m for m, *_ in line] == [m for m in range(-g, g + 1) if (m + g - 1) % c == 0], curve
        up, down = w // c, b // c  # one step along the line: s1 + up, s2 - down
        for m, s1, s2, p in line:
            assert s1 * b + s2 * w == m + g - 1 and p == p_bound(s1, s2, e), (curve, m)
            assert p_bound(s1 + up, s2 - down, e) < p, (curve, m)
            assert p_bound(s1 - up, s2 + down, e) <= p, (curve, m)
    assert len(grid) == 6520


def test_p_max_line_solves_only_its_lattice(monkeypatch):
    # (40,30,0) has c = 10, so 227 of the 2,263 m in [-g, g] have a
    # presentation, and the kernel is asked for only those.
    asked = []
    solve = hf._presentations

    def recorded(curve, ms):
        for m in ms:
            asked.append(m)
            yield from solve(curve, [m])

    monkeypatch.setattr(hf, "_presentations", recorded)
    curve = CurveType(40, 30, 0)
    line = tuple(_p_max_line(curve))
    assert 2 * curve.g + 1 == 2263
    assert len(line) == len(asked) == 227
    assert all((m + curve.g - 1) % curve.c == 0 for m in asked)


GENUS_40_CURVES = [curve for curve in _curves_up_to_genus(40, 40) if curve.g >= 1]


def _hf_values(curve, config):
    """(m, R(m + g), P) of every HF witness: what both maps of the module
    docstring keep."""
    return [(w.m, w.r_value, w.p_value) for w in hf_check(curve, config).witnesses]


@given(
    curve=st.sampled_from([curve for curve in GENUS_40_CURVES if curve.e >= 2]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_hf_keeps_its_values_from_x_e_to_x_e_minus_2(curve, data):
    twin = CurveType(curve.a + curve.b, curve.b, curve.e - 2)
    assert (twin.d, twin.g, twin.c) == (curve.d, curve.g, curve.c)
    line = _p_max_line(curve)
    assert tuple(_p_max_line(twin)) == tuple(
        (m, s1 + s2, s2, p) for m, s1, s2, p in line
    )
    config = data.draw(st.sampled_from(list(configurations(curve.g, 3))))
    assert _hf_values(twin, config) == _hf_values(curve, config)
    hf_ok = next(filter_verdicts(twin, [config]))[1]
    assert hf_ok == next(filter_verdicts(curve, [config]))[1]


@given(
    curve=st.sampled_from([curve for curve in GENUS_40_CURVES if curve.e == 0]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_hf_and_spectrum_verdicts_keep_when_x_0_swaps_a_and_b(curve, data):
    swapped = CurveType(curve.b, curve.a, 0)
    config = data.draw(st.sampled_from(list(configurations(curve.g, 3))))
    # HF and the spectrum; r <= b reads b.
    verdicts = next(filter_verdicts(swapped, [config]))[1:]
    assert verdicts == next(filter_verdicts(curve, [config]))[1:]
    assert _hf_values(swapped, config) == _hf_values(curve, config)
    assert semicontinuity_check(swapped, config) == semicontinuity_check(curve, config)
