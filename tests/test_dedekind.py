import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import (
    dedekind_sum,
    rademacher_sum,
    section_sums,
    verify_limits,
)
from cuspidal.dedekind import limit_values
from oracles import (
    dedekind_loop,
    dedekind_reciprocity_rhs,
    rademacher_reciprocity_rhs,
    sawtooth,
)

F = Fraction


def test_sawtooth_values():
    assert sawtooth(F(0)) == 0
    assert sawtooth(F(7)) == 0
    assert sawtooth(F(1, 4)) == F(-1, 4)
    assert sawtooth(F(3, 4)) == F(1, 4)
    assert sawtooth(F(-1, 4)) == F(1, 4)
    assert sawtooth(F(5, 2)) == 0


def test_dedekind_sum_small_values():
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == F(1, 18)
    assert dedekind_sum(2, 3) == F(-1, 18)
    assert dedekind_sum(1, 5) == F(1, 5)


@given(
    p=st.integers(min_value=1, max_value=60),
    q=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40)
def test_dedekind_matches_definition(p, q):
    assert dedekind_sum(p, q) == dedekind_loop(p, q)


def test_rademacher_specializes_to_dedekind():
    for q, r in [(3, 7), (5, 11), (4, 9)]:
        assert rademacher_sum(1, q, r) == dedekind_sum(q, r)


def test_moduli_must_be_positive():
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)
    with pytest.raises(ValueError):
        rademacher_sum(1, 1, 0)


def test_two_term_reciprocity_random_pairs():
    rng = random.Random(20260823)
    checked = 0
    while checked < 50:
        p = rng.randint(1, 500)
        q = rng.randint(1, 500)
        if math.gcd(p, q) != 1:
            continue
        assert dedekind_sum(p, q) + dedekind_sum(q, p) == dedekind_reciprocity_rhs(p, q)
        checked += 1


def test_three_term_reciprocity_random_triples():
    rng = random.Random(4219)
    checked = 0
    while checked < 25:
        p, q, r = (rng.randint(1, 120) for _ in range(3))
        if math.gcd(p, q) != 1 or math.gcd(q, r) != 1 or math.gcd(p, r) != 1:
            continue
        total = (
            rademacher_sum(p, q, r)
            + rademacher_sum(r, p, q)
            + rademacher_sum(q, r, p)
        )
        assert total == rademacher_reciprocity_rhs(p, q, r)
        checked += 1


def test_section_sums_split_identity():
    for b in range(2, 8):
        for w in range(2, 120):
            a_w, b_w, c_w, d_w = section_sums(b, w)
            assert d_w == 0
            assert a_w == b_w - c_w + d_w


def test_section_sums_input_validation():
    with pytest.raises(ValueError):
        section_sums(1, 10)
    with pytest.raises(ValueError):
        section_sums(3, 1)


def test_limit_values_by_parity():
    assert limit_values(3) == (F(1, 24), F(1, 18), F(1, 72))
    assert limit_values(4) == (F(0), F(1, 24), F(1, 24))


@pytest.mark.parametrize("b", [3, 4])
def test_verify_limits_converges_at_moderate_scale(b):
    report = verify_limits(b, 2000)
    assert report.all_within_tol
    assert report.tol == F(1, 200)
    names = [entry.name for entry in report.entries]
    assert names == ["a_w/w", "b_w/w", "c_w/w"]
    # the reported w is the largest member of the proof subsequence <= 2000
    w = report.entries[0].w
    assert all(entry.w == w for entry in report.entries)
    members = [
        v for v in range(2, 2001)
        if (math.gcd(v, 2 * b) == 1 if b % 2 == 1 else math.gcd(b, v) == 2)
    ]
    assert w == members[-1]


def test_verify_limits_input_validation():
    with pytest.raises(ValueError):
        verify_limits(1, 1000)
    with pytest.raises(ValueError):
        verify_limits(3, 50)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        verify_limits(3, 1000, F(-1, 1000))
    assert verify_limits(3, 1000, F(0)).tol == 0  # a zero tolerance is allowed
