import math

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import (
    CountingFunction,
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
    counting_function,
    curve_r_function,
    cusp_semigroup,
    infimum_convolution,
)
from cuspidal.semigroups import identity_counting_function

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
    semigroup = cusp_semigroup(PuiseuxCusp(*gens))
    assert semigroup.frobenius == frobenius
    assert semigroup.gap_count == gaps


@given(rs=coprime_pairs)
def test_two_generator_closed_forms(rs):
    r, s = rs
    semigroup = cusp_semigroup(PuiseuxCusp(r, s))
    gaps = set(range(r * s)) - brute_semigroup((r, s), r * s)
    assert semigroup.frobenius == max(gaps) == r * s - r - s
    assert semigroup.gap_count == len(gaps) == (r - 1) * (s - 1) // 2


@given(rs=coprime_pairs)
@settings(max_examples=30)
def test_membership_matches_brute_force(rs):
    r, s = rs
    semigroup = cusp_semigroup(PuiseuxCusp(r, s))
    bound = r * s
    expected = brute_semigroup((r, s), bound)
    for t in range(bound + 1):
        assert (t in semigroup) == (t in expected)
    assert -1 not in semigroup


def test_cusp_semigroup_uses_both_exponents():
    semigroup = cusp_semigroup(PuiseuxCusp(3, 7))
    assert semigroup.generators == (3, 7)
    assert 3 in semigroup and 7 in semigroup and 10 in semigroup
    assert 5 not in semigroup
    assert 11 not in semigroup  # the Frobenius number of <3,7>


@given(rs=coprime_pairs)
@settings(max_examples=30)
def test_counting_function_counts_members(rs):
    r, s = rs
    semigroup = cusp_semigroup(PuiseuxCusp(r, s))
    counting = counting_function(semigroup)
    members = brute_semigroup((r, s), 3 * r * s)
    for t in range(2 * r * s):
        assert counting(t) == sum(1 for x in members if x < t)
    # linear tail beyond the window
    gaps = semigroup.gap_count
    for t in range(counting.window_end, counting.window_end + 10):
        assert counting(t) == t - gaps


def test_counting_function_validation():
    with pytest.raises(ValueError):
        CountingFunction((1, 2), 0)  # must start at 0
    with pytest.raises(ValueError):
        CountingFunction((0, 2), -1)  # step of 2
    with pytest.raises(ValueError):
        CountingFunction((0, 1, 1), 0)  # tail mismatch at window end
    identity = identity_counting_function(5)
    assert [identity(t) for t in range(-2, 8)] == [0, 0, 0, 1, 2, 3, 4, 5, 6, 7]


def test_convolution_of_simplest_cusp_pair():
    r23 = counting_function(cusp_semigroup(PuiseuxCusp(2, 3)))
    conv = infimum_convolution(r23, r23, 10)
    assert [conv(t) for t in range(9)] == [0, 1, 1, 2, 2, 3, 4, 5, 6]
    assert conv(5) == 3
    assert conv.tail_offset == 2


@given(pair=st.tuples(coprime_pairs, coprime_pairs))
@settings(max_examples=25, deadline=None)
def test_convolution_commutes(pair):
    (r1, s1), (r2, s2) = pair
    f = counting_function(cusp_semigroup(PuiseuxCusp(r1, s1)))
    g = counting_function(cusp_semigroup(PuiseuxCusp(r2, s2)))
    end = f.window_end + g.window_end + 5
    left = infimum_convolution(f, g, end)
    right = infimum_convolution(g, f, end)
    assert all(left(t) == right(t) for t in range(end + 5))


def test_curve_r_function_tail_law():
    curve = CurveType(6, 6, 0)
    config = CuspConfiguration((PuiseuxCusp(6, 11),))
    r = curve_r_function(curve, config)
    g = curve.g
    for m in range(1, 12):
        assert r(2 * g + m) == g + m
    assert r(0) == 0
    assert r(-3) == 0


def test_curve_r_function_multi_cusp():
    # three unit-delta cusps on a genus-3 curve
    curve = CurveType(4, 2, 0)
    config = CuspConfiguration((PuiseuxCusp(2, 3),) * 3)
    r = curve_r_function(curve, config)
    assert r.tail_offset == curve.g == 3
    steps = [r(t + 1) - r(t) for t in range(2 * curve.g + 4)]
    assert set(steps) <= {0, 1}


def test_curve_r_function_rejects_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        curve_r_function(CurveType(6, 6, 0), CuspConfiguration((PuiseuxCusp(2, 3),)))
