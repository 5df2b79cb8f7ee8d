import math
import sys
import threading
from bisect import bisect_left
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
    configurations,
    curve_elements,
)
from cuspidal.hf import _cusp_elements, _max_plus
from oracles import closed_form_elements

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


def r_value(elements, t):
    """R(t) read off an element list ending at 2g: g = len - 1."""
    g = len(elements) - 1
    return bisect_left(elements, t) if t <= 2 * g else t - g


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


def test_cusp_semigroup_uses_both_exponents():
    elements = _cusp_elements(PuiseuxCusp(3, 7))
    assert {3, 7, 10} <= set(elements)
    assert 5 not in elements
    assert 11 not in elements  # the Frobenius number of <3,7>
    assert elements[-1] == 12


@given(rs=coprime_pairs)
@settings(max_examples=30)
def test_counting_function_counts_members(rs):
    r, s = rs
    elements = _cusp_elements(PuiseuxCusp(r, s))
    members = brute_semigroup((r, s), 3 * r * s)
    for t in range(-2, 3 * r * s):
        assert r_value(elements, t) == sum(1 for x in members if x < t)


def test_convolution_of_simplest_cusp_pair():
    e23 = _cusp_elements(PuiseuxCusp(2, 3))
    conv = _max_plus(e23, e23)
    assert conv == (0, 2, 4)
    assert [r_value(conv, t) for t in range(9)] == [0, 1, 1, 2, 2, 3, 4, 5, 6]
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
        assert r_value(elements, 2 * g + m) == g + m
    assert r_value(elements, 0) == 0
    assert r_value(elements, -3) == 0


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
