import math
from itertools import islice

import pytest

from cuspidal import (
    CurveType,
    CuspConfiguration,
    PuiseuxCusp,
    configurations,
    enumerate_unicuspidal,
)
from cuspidal import enumeration
from cuspidal.enumeration import cusps_with_delta
from oracles import count_configurations, curves, dfs_configurations


def test_cusps_with_delta_known_values():
    assert [(c.r, c.s) for c in cusps_with_delta(1)] == [(2, 3)]
    assert [(c.r, c.s) for c in cusps_with_delta(25)] == [(2, 51), (3, 26), (6, 11)]
    assert cusps_with_delta(0) == []
    # 2*delta = 8: (2,9) works, (3,5) has (r-1)(s-1)=8 and gcd 1
    assert [(c.r, c.s) for c in cusps_with_delta(4)] == [(2, 9), (3, 5)]


def test_cusps_with_delta_respects_coprimality():
    # 2*delta = 9 would need (r-1)(s-1) odd times... delta=9 -> mu=18:
    # factor pairs (1,18)->(2,19), (2,9)->(3,10), (3,6)->(4,7)
    assert [(c.r, c.s) for c in cusps_with_delta(9)] == [(2, 19), (3, 10), (4, 7)]


def test_cusps_with_delta_matches_every_coprime_pair():
    # At delta = 2, 8, 18, ... 2*delta is a square, and its root gives r = s.
    for delta in range(-3, 201):
        mu = 2 * delta
        expected = [
            (r, s)
            for r in range(2, mu + 2)
            if mu % (r - 1) == 0
            for s in [mu // (r - 1) + 1]
            if r < s and math.gcd(r, s) == 1
        ]
        assert [(c.r, c.s) for c in cusps_with_delta(delta)] == expected


def test_enumerate_unicuspidal_degree_six():
    cusps = enumerate_unicuspidal(CurveType(6, 6, 0))
    assert [(c.r, c.s) for c in cusps] == [(2, 51), (3, 26), (6, 11)]


def test_enumerate_unicuspidal_needs_positive_genus():
    with pytest.raises(ValueError):
        enumerate_unicuspidal(CurveType(1, 1, 0))


def test_configurations_counts():
    curve = CurveType(6, 6, 0)
    singles = list(configurations(curve.g, 1))
    assert len(singles) == 3
    pairs = list(configurations(curve.g, 2))
    assert len(pairs) == 69
    # every configuration is genus-compatible and sorted canonically
    for config in pairs:
        assert config.total_delta == curve.g
        keys = [(c.delta, c.r, c.s) for c in config]
        assert keys == sorted(keys)
    # the single-cusp ones are included among the pairs result
    assert set(singles) <= set(pairs)


def test_configurations_genus_zero_is_empty():
    assert list(configurations(CurveType(1, 1, 0).g, 3)) == []


def test_configurations_have_no_cap_and_need_a_cusp():
    # The cap lives in `enumerate`, where `--cap 10` stops (6,6,0) <= 2: the
    # listing yields all 69 of its configurations.
    assert sum(1 for _ in configurations(CurveType(6, 6, 0).g, 2)) == 69
    with pytest.raises(ValueError, match="max_cusps must be >= 1, got 0"):
        next(configurations(CurveType(6, 6, 0).g, 0))


def _recursive_configurations(curve, max_cusps):
    results = []

    def extend(prefix, remaining, floor_key):
        if remaining == 0:
            results.append(CuspConfiguration(tuple(prefix)))
            return
        if len(prefix) == max_cusps:
            return
        for delta in range(floor_key[0] if floor_key else 1, remaining + 1):
            for cusp in cusps_with_delta(delta):
                key = (delta, cusp.r, cusp.s)
                if not floor_key or key >= floor_key:
                    extend([*prefix, cusp], remaining - delta, key)

    if curve.g:
        extend([], curve.g, None)
    return results


@pytest.mark.parametrize(
    "curve", [CurveType(6, 6, 0), CurveType(6, 4, 0), CurveType(4, 4, 2), CurveType(3, 3, 1)]
)
def test_configurations_matches_recursive_order(curve):
    for max_cusps in (1, 2, 3, curve.g):
        assert list(configurations(curve.g, max_cusps)) == _recursive_configurations(
            curve, max_cusps
        )


def test_configurations_deeper_than_recursion_limit():
    # g = 1199, so the first configuration is 1199 cusps (2,3).
    g = CurveType(2, 1200).g
    first = list(islice(configurations(g, 1200), 6))
    assert first[0] == CuspConfiguration((PuiseuxCusp(2, 3),) * 1199)
    assert len(set(first)) == 6
    assert all(config.total_delta == g for config in first)


def test_configurations_matches_dfs_oracle():
    # Every curve with a <= 13, b <= 8, e <= 2 and 1 <= g <= 40.
    grid = [curve for curve in curves(13, 8, 2) if 1 <= curve.g <= 40]
    for curve in grid:
        for max_cusps in range(1, 5):
            assert list(configurations(curve.g, max_cusps)) == dfs_configurations(
                curve, max_cusps
            )


def test_configurations_count_matches_the_counting_oracle():
    for g in range(41):
        for max_cusps in range(1, 6):
            count = sum(1 for _ in configurations(g, max_cusps))
            assert count == count_configurations(g, max_cusps), (g, max_cusps)
    # (10,10,0) <= 4 and (12,12,0) <= 4, the counts that CI pins, with no
    # listing.
    assert count_configurations(CurveType(10, 10).g, 4) == 145_690
    assert count_configurations(CurveType(12, 12).g, 4) == 692_913


def test_one_cusp_builds_only_the_cusps_of_delta_g(monkeypatch):
    calls = []

    def recorded(delta):
        calls.append(delta)
        return cusps_with_delta(delta)

    monkeypatch.setattr(enumeration, "cusps_with_delta", recorded)
    curve = CurveType(300, 300)
    configs = list(configurations(curve.g, 1))
    assert calls == [curve.g]
    assert configs == [CuspConfiguration((cusp,)) for cusp in cusps_with_delta(curve.g)]
    calls.clear()
    # g = 99999^2: the first configuration comes at once.
    assert len(next(configurations(99999**2, 1))) == 1
    assert calls == [99999**2]


def test_first_configuration_comes_before_the_cusps_of_small_delta_are_all_built(
    monkeypatch,
):
    calls = []

    def recorded(delta):
        calls.append(delta)
        return cusps_with_delta(delta)

    monkeypatch.setattr(enumeration, "cusps_with_delta", recorded)
    curve = CurveType(3000, 3000)
    # The first configuration is (2, 3) and a cusp of delta g - 1, so only
    # those two deltas are built, not the cusps of every delta <= g/2.
    first = next(configurations(curve.g, 2))
    assert [cusp.delta for cusp in first] == [1, curve.g - 1]
    assert calls == [1, curve.g - 1]
