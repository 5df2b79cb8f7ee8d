"""The fast kernels against the direct kernels they replaced.

The oracles below and in `oracles.py` are the direct definitions and the
earlier implementations: R as the minimum over every split k in [0, t] of
brute-force member counts of the cusp semigroups, max-plus convolution over
every split of element lists continued past their conductors, the
semicontinuity scan over `Fraction` values with interval counts on each
spectrum (its cusp spectra built from i/r + j/s, not read off the
semigroup as `cusp_spectrum` does), the unfolded integer scan over every
scan point in (0, 1) that the folded scan replaced, the HF scan over that
oracle R with each m's maximal presentation from the window walk
`oracles.brute_max_p`, not the closed form it checks, the parabola-fit
search for that presentation that its closed form replaced, the defining
loops of the sawtooth sums (O(q) for s(p, q), O(r) for D(p, q, r), O(w) for
the section sums), the Euclidean floor-sum route to the section sums that
their identities over s and D replaced (for widths no loop reaches), and
both constructions of the spectrum at infinity (from each value's p and q,
taken from the loops that make the values, and as they were before the
table mirrored its values below 1) and the cusp spectrum over
`Fraction` values.  The fast kernels must agree with them exactly: R pointwise, whole `SemicontinuityReport`s, witnesses and checked
points, the sweep's failures in increasing x and from 1/2 down against
the sorted failures of the bisecting scan it replaced
(`oracles.sorted_failures`), the verdicts of `filter_verdicts` over a
listing in any order, read once from a list or a one-shot iterator
alike, with a genus mismatch
raised wherever it comes, every sawtooth sum as a
`Fraction`, every spectrum entry (each construction's (lcm(w, b), entries)
pair, compared as numerators), and every row of `enumerate --json`,
rebuilt from the oracle reports.  The streaming report writer `cli._dumps`,
which splices C-encoded chunks of rows into a stdlib-written envelope, must
write the bytes of the stdlib's `json.dumps(sort_keys=True, indent=2)`,
which runs its pure-Python encoder, and a newline, on every report shape,
with the rows as a list or as an iterator and with chunk boundaries
anywhere between them; `spectrum --json`, whose entries it renders straight
from the spectrum's int pairs, must print the report that holds the dict
rows of `oracles.spectrum_rows`.
"""
import contextlib
import fractions
import functools
import io
import json
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspidal import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    HfReport,
    HfWitness,
    PuiseuxCusp,
    SemicontinuityReport,
    SemicontinuityWitness,
    configurations,
    curve_elements,
    d_invariant,
    dedekind_sum,
    filter_verdicts,
    hf_check,
    max_p_over_presentations,
    rademacher_sum,
    section_sums,
    semicontinuity_check,
    signature_profile,
    spectrum_at_infinity_derived,
    spectrum_at_infinity_table,
    verify_limits,
)
from cuspidal import cli, enumeration, hf, p_bound, spectra
from cuspidal.hf import _cusp_elements, _max_plus
from oracles import (
    brute_max_p,
    count_open,
    curve_or_none,
    curves,
    cusp_numerators,
    cusp_spectrum,
    dedekind_loop,
    dedekind_reciprocity_rhs,
    dict_derived,
    dict_table,
    entries,
    min_split_r,
    r_at,
    rademacher_reciprocity_rhs,
    sawtooth_numerator,
    sorted_failures,
    spectrum_rows,
    split_max_plus,
    total,
    unit_extended,
)


def _brute_scan_points(infinity, cusp_spectra):
    critical = set()
    for spectrum in (infinity, *cusp_spectra):
        for v, _ in entries(spectrum):
            for candidate in (v, v - 1):
                if 0 < candidate < 1:
                    critical.add(candidate)
    ordered = sorted(critical)
    points = set()
    boundary = [Fraction(0), *ordered, Fraction(1)]
    for left, right in zip(boundary, boundary[1:]):
        if left < right:
            points.add((left + right) / 2)
    infinity_values = {v for v, _ in entries(infinity)}
    points.update(x for x in ordered if x not in infinity_values)
    return tuple(sorted(points))


def _brute_interval_counts(infinity, cusp_spectra, x):
    cusp_inside = sum(count_open(sp, x, x + 1) for sp in cusp_spectra)
    infinity_inside = count_open(infinity, x, x + 1)
    return SemicontinuityWitness(
        x=x,
        cusp_inside=cusp_inside,
        infinity_inside=infinity_inside,
        cusp_outside=sum(map(total, cusp_spectra)) - cusp_inside,
        infinity_outside=total(infinity) - infinity_inside,
    )


def _brute_semicontinuity(curve, config):
    # Cusp spectra from the i/r + j/s definition, not from `cusp_spectrum`,
    # which reads them off the semigroup, as numerators over r*s.
    infinity = spectrum_at_infinity_table(curve)
    cusp_spectra = []
    for cusp in config:
        denominator = cusp.r * cusp.s
        cusp_spectra.append((denominator, tuple(sorted(
            (x.numerator * (denominator // x.denominator), mult)
            for x, mult in _brute_cusp_spectrum(cusp).items()
        ))))
    points = _brute_scan_points(infinity, cusp_spectra)
    witnesses = []
    for x in points:
        counts = _brute_interval_counts(infinity, cusp_spectra, x)
        if (counts.cusp_inside > counts.infinity_inside
                or counts.cusp_outside > counts.infinity_outside):
            witnesses.append(counts)
    return SemicontinuityReport(tuple(witnesses), len(points))


def _integer_scan(curve, config):
    """The unfolded scan: both counts at every scan point in (0, 1), from one
    merged list of cusp values and the whole spectrum at infinity over
    L = 2 * lcm(lcm(w, b), r_1*s_1, ...)."""
    denominator, infinity_entries = spectrum_at_infinity_table(curve)
    scale = 2 * math.lcm(denominator, *(cusp.r * cusp.s for cusp in config))
    cusp_values = sorted(
        n * (scale // (cusp.r * cusp.s))
        for cusp in config
        for n in cusp_numerators(cusp)
    )
    infinity = [
        n * (scale // denominator)
        for n, mult in infinity_entries
        for _ in range(mult)
    ]
    infinity_values = set(infinity)
    critical = sorted({v % scale for v in (*cusp_values, *infinity_values)} - {0})
    points = []
    left = 0
    for right in critical:
        points.append((left + right) // 2)
        if right not in infinity_values:
            points.append(right)
        left = right
    points.append((left + scale) // 2)

    def inside(values, x):
        return bisect_left(values, x + scale) - bisect_right(values, x)

    witnesses = []
    for x in points:
        cusp_inside, infinity_inside = inside(cusp_values, x), inside(infinity, x)
        cusp_outside = len(cusp_values) - cusp_inside
        infinity_outside = len(infinity) - infinity_inside
        if cusp_inside > infinity_inside or cusp_outside > infinity_outside:
            witnesses.append(SemicontinuityWitness(
                Fraction(x, scale),
                cusp_inside,
                infinity_inside,
                cusp_outside,
                infinity_outside,
            ))
    return SemicontinuityReport(tuple(witnesses), len(points))


# The HF oracle's maximal presentations come from the window walk, not from
# the closed form that `hf_check` reads; a curve's are shared by its tests.
_brute_max_p = functools.lru_cache(maxsize=None)(brute_max_p)


def _brute_hf(curve, config):
    g = curve.g
    r_values = min_split_r(config, 2 * g)
    witnesses = []
    for m in range(-g, g + 1):
        best = _brute_max_p(curve, m + g - 1)
        if best is not None and r_values[m + g] < best[2]:
            witnesses.append(HfWitness(m, *best[:2], r_values[m + g], best[2]))
    return HfReport(tuple(witnesses))


def _fit_max_p(curve, n):
    """The maximal presentation by the search `max_p_over_presentations` made
    before its closed form: a parabola through three samples of P along the
    solution line, then every solution within 2 of its vertex."""
    b, w, e = curve.b, curve.w, curve.e
    c = math.gcd(b, w)
    if n % c != 0:
        return None
    step1, step2 = w // c, b // c
    s1_0 = n // c * pow(step2, -1, step1)
    s2_0 = (n - s1_0 * b) // w

    def at(k):
        s1 = s1_0 + k * step1
        s2 = s2_0 - k * step2
        return s1, s2, p_bound(s1, s2, e)

    p_m1, p_0, p_1 = at(-1)[2], at(0)[2], at(1)[2]
    twice_a = p_1 + p_m1 - 2 * p_0
    assert twice_a < 0, "P must be concave along the presentation line"
    numerator, denominator = p_m1 - p_1, 2 * twice_a
    lo = numerator // denominator - 2
    hi = -(-numerator // denominator) + 2
    best = None
    for k in range(lo, hi + 1):
        s1, s2, p = at(k)
        if best is None or (p, s1) > (best[2], best[0]):
            best = (s1, s2, p)
    return best


def test_max_p_closed_form_matches_search():
    # Wider than the HF scan's n in [-g - 1, 2g - 1] on both sides.
    pairs = 0
    for curve in curves(12, 12, 3):
        g = curve.g
        for n in range(-2 * g - 5, 3 * g + 6):
            assert max_p_over_presentations(curve, n) == _fit_max_p(curve, n), (curve, n)
            pairs += 1
    assert pairs == 204_402


def _verdicts(curve, config, hf_report, spectrum_report):
    """The `filter_verdicts` triple of the oracle reports."""
    return (
        all(cusp.r <= curve.b for cusp in config),
        not hf_report.obstructed,
        not spectrum_report.obstructed,
    )


def _assert_kernels_match(curve, config):
    """Assert the kernels match the oracles; return the oracle verdicts."""
    g = curve.g
    brute = min_split_r(config, 2 * g + 10)
    elements = curve_elements(curve, config)
    assert [r_at(elements, t) for t in range(-3, 2 * g + 11)] == [0, 0, 0, *brute]
    hf_report = _brute_hf(curve, config)
    assert hf_check(curve, config) == hf_report
    spectrum_report = _brute_semicontinuity(curve, config)
    assert _integer_scan(curve, config) == spectrum_report
    if config:  # the failures come in the order that sorting them gives
        infinity = spectra._table_below_one(curve)
        scale, count, ordered, _ = spectra._scan(infinity, config)
        assert (scale, count(), list(ordered)) == sorted_failures(infinity, config)
    assert semicontinuity_check(curve, config) == spectrum_report
    return _verdicts(curve, config, hf_report, spectrum_report)


@pytest.mark.parametrize(
    "curve",
    [CurveType(6, 4, 0), CurveType(4, 4, 2), CurveType(5, 4, 1), CurveType(0, 5, 2)],
)
def test_kernels_match_oracles_on_every_configuration(curve):
    configs = list(configurations(curve.g, 3))
    assert configs
    expected = [_assert_kernels_match(curve, config) for config in configs]
    assert list(filter_verdicts(curve, configs)) == expected


@pytest.mark.parametrize(
    "a, b, e, r, s",
    [
        (30, 30, 0, 3, 842),
        (50, 50, 0, 2, 4803),
        (0, 300, 1, 299, 300),
        (0, 27, 1, 2, 651),
        (5, 16, 2, 2, 601),
    ],
)
def test_sweep_matches_the_bisecting_scan_on_one_large_cusp(a, b, e, r, s):
    # Folded values here carry values at infinity on both sides of 1/2, some
    # a cusp value too, and (0, 300, 1) has a value at infinity above 1/2
    # whose mirror is not one: the kinds the sweep orders around a point.
    # For (0, 27, 1), 1/2 is no value at infinity and is a witness: the
    # sweep reaches it as the midpoint of its ends.  (5, 16, 2) fails at a
    # folded point whose mirror is a value at infinity, so that mirror is
    # no witness.
    infinity = spectra._table_below_one(CurveType(a, b, e))
    config = CuspConfiguration([PuiseuxCusp(r, s)])
    scale, count, ordered, down = spectra._scan(infinity, config)
    expected = sorted_failures(infinity, config)
    assert (scale, count(), list(ordered)) == expected
    folded = [failure for failure in expected[2] if failure[0] <= scale // 2]
    assert list(down) == folded[::-1]


@pytest.mark.parametrize("before", [0, 1], ids=["first", "after_a_valid_one"])
@pytest.mark.parametrize("cusp", [PuiseuxCusp(2, 3), PuiseuxCusp(2, 53)])
def test_filter_verdicts_raise_a_genus_mismatch_anywhere(before, cusp):
    # g = 25: (2, 3) has too small a delta, (2, 53) too large a one.
    curve = CurveType(6, 6, 0)
    valid = CuspConfiguration((PuiseuxCusp(2, 51),))
    wrong = CuspConfiguration((cusp,))
    with pytest.raises(GenusMismatchError) as expected:
        curve_elements(curve, wrong)
    walk = filter_verdicts(curve, [valid] * before + [wrong, valid])
    assert [next(walk) for _ in range(before)] == [(True, True, False)] * before
    with pytest.raises(GenusMismatchError) as raised:
        next(walk)
    assert str(raised.value) == str(expected.value)


def test_filter_verdicts_build_the_curve_data_once_per_listing(monkeypatch):
    calls = Counter()

    def count(name):
        original = getattr(enumeration, name)

        def counted(curve):
            calls[name] += 1
            return original(curve)

        monkeypatch.setattr(enumeration, name, counted)

    count("_p_max_line")
    count("_table_below_one")
    for curve in (CurveType(6, 6, 0), CurveType(5, 4, 1)):
        calls.clear()
        configs = list(configurations(curve.g, 3))
        assert len(list(filter_verdicts(curve, configs))) == len(configs) > 1
        assert calls == {"_p_max_line": 1, "_table_below_one": 1}
    # An empty listing, and one whose first genus is wrong, build neither.
    calls.clear()
    assert list(filter_verdicts(CurveType(6, 6, 0), [])) == []
    assert calls == {}
    wrong = CuspConfiguration((PuiseuxCusp(2, 3),))  # delta 1, g = 25
    with pytest.raises(GenusMismatchError):
        next(filter_verdicts(CurveType(6, 6, 0), [wrong]))
    assert calls == {}


@pytest.fixture
def max_plus_calls(monkeypatch):
    """The list of `_max_plus` calls from here on: the prefix folds made."""
    calls = []

    def counted(e1, e2):
        calls.append((e1, e2))
        return _max_plus(e1, e2)

    monkeypatch.setattr(hf, "_max_plus", counted)
    return calls


def _prefixes(configs):
    """The distinct prefixes of at least 2 cusps: the folds that need `_max_plus`."""
    return {config[:k] for config in configs for k in range(2, len(config) + 1)}


def _reports(curve, configs):
    """(config, hf_check, semicontinuity_check) of every configuration, in order."""
    return [
        (config, hf_check(curve, config), semicontinuity_check(curve, config))
        for config in configs
    ]


def test_memos_follow_the_curve_when_curves_interleave(max_plus_calls):
    curves = (CurveType(6, 4, 0), CurveType(4, 4, 2))
    configs = {curve: list(configurations(curve.g, 3)) for curve in curves}
    alone = {}
    for curve in curves:
        alone[curve] = _reports(curve, configs[curve])
        for config, hf_report, spectrum_report in alone[curve]:
            assert hf_report == _brute_hf(curve, config)
            assert spectrum_report == _brute_semicontinuity(curve, config)

    # No fold outlives a call, so each `hf_check` folds its configuration
    # whole, and `semicontinuity_check` folds nothing.
    max_plus_calls.clear()
    for curve in (curves[0], curves[1], curves[0]):
        assert _reports(curve, configs[curve]) == alone[curve]
    folds = {curve: sum(len(c) - 1 for c in configs[curve]) for curve in curves}
    assert len(max_plus_calls) == 2 * folds[curves[0]] + folds[curves[1]]

    # Alternate the two checks between the curves call by call.
    for first, second in zip(alone[curves[0]], alone[curves[1]]):
        for curve, (config, hf_report, _) in ((curves[0], first), (curves[1], second)):
            assert hf_check(curve, config) == hf_report
        for curve, (config, _, spectrum_report) in ((curves[1], second), (curves[0], first)):
            assert semicontinuity_check(curve, config) == spectrum_report


def test_no_per_cusp_data_outlives_a_call():
    # (1, 36, 2) has 22 cusps of delta g = 1260, each a list of g + 1 ints;
    # a per-cusp memo would keep about 1.2 MB of them after the calls.
    curve = CurveType(1, 36, 2)
    configs = list(configurations(curve.g, 1))
    assert len(configs) == 22
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(list(filter_verdicts(curve, configs))) == 22
        hf_check(curve, configs[0])
        semicontinuity_check(curve, configs[0])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # What is left is the interpreter's free lists of small tuples.
    assert held < 2**19


@pytest.mark.parametrize(
    "curve", [CurveType(6, 4, 0), CurveType(4, 4, 2), CurveType(5, 4, 1)]
)
def test_enumerate_rows_match_oracle_rows(curve):
    argv = ["enumerate", "--a", str(curve.a), "--b", str(curve.b), "--e", str(curve.e)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--max-cusps", "3", "--json"])
    assert excinfo.value.code == 0
    rows = json.loads(stdout.getvalue())["witnesses"]
    expected = []
    for config in configurations(curve.g, 3):
        multiplicity_ok = all(cusp.r <= curve.b for cusp in config)
        hf_report = _brute_hf(curve, config)
        spectrum_report = _brute_semicontinuity(curve, config)
        expected.append({
            "cusps": " ".join(f"{c.r}:{c.s}" for c in config),
            "genus_ok": True,
            "multiplicity_ok": multiplicity_ok,
            "hf": hf_report.verdict,
            "spectrum": spectrum_report.verdict,
            "survives": multiplicity_ok
            and not hf_report.obstructed
            and not spectrum_report.obstructed,
        })
    assert rows == expected


def test_multiplicity_at_infinity_grows_from_x_to_one_minus_x():
    # The folded scan rests on this: for x <= 1/2, x is a value at infinity
    # only if 1 - x is one, so every scan point above 1/2 mirrors into one.
    for curve in curves(40, 40, 3):
        denominator, pairs = spectrum_at_infinity_table(curve)
        mults = dict(pairs)
        for n in range(1, denominator // 2 + 1):
            assert mults.get(n, 0) <= mults.get(denominator - n, 0)


def test_witness_sets_need_not_be_symmetric():
    # The counts at x and 1 - x agree, but a scan point's mirror need not be
    # a scan point: 4/5 is a value at infinity, so the scan skips it.
    curve = CurveType(0, 5, 2)
    config = CuspConfiguration(
        (PuiseuxCusp(2, 3), PuiseuxCusp(3, 4), PuiseuxCusp(4, 9))
    )
    report = semicontinuity_check(curve, config)
    assert [w.x for w in report.witnesses] == [
        Fraction(71, 360), Fraction(1, 5), Fraction(289, 360)
    ]
    infinity = dict(entries(spectrum_at_infinity_table(curve)))
    assert Fraction(4, 5) in infinity and Fraction(1, 5) not in infinity
    asymmetric = [
        config
        for config in configurations(curve.g, 3)
        if (xs := {w.x for w in semicontinuity_check(curve, config).witnesses})
        != {1 - x for x in xs}
    ]
    assert len(asymmetric) == 5


def test_witness_at_one_half_is_reported_once():
    # 1/2 is its own mirror image, so the fold must not count it twice.
    curve = CurveType(0, 5, 3)
    config = CuspConfiguration(
        (PuiseuxCusp(2, 3), PuiseuxCusp(2, 3), PuiseuxCusp(2, 49))
    )
    report = semicontinuity_check(curve, config)
    assert [w.x for w in report.witnesses].count(Fraction(1, 2)) == 1
    assert report == _brute_semicontinuity(curve, config)
    assert report == _integer_scan(curve, config)


def test_enumerate_builds_no_witness_and_no_fraction(monkeypatch, max_plus_calls):
    argv = ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "3", "--json"]

    def enumerate_json():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 0
        return stdout.getvalue()

    expected = enumerate_json()

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a witness or a Fraction")

    # hf and spectra import Fraction where they build one, so this reaches
    # every use.
    monkeypatch.setattr(fractions, "Fraction", refuse)
    monkeypatch.setattr(hf, "HfWitness", refuse)
    monkeypatch.setattr(spectra, "SemicontinuityWitness", refuse)
    max_plus_calls.clear()
    assert enumerate_json() == expected
    # The walk folds every prefix once.
    assert len(max_plus_calls) == len(
        _prefixes(configurations(CurveType(6, 6, 0).g, 3))
    )


@pytest.mark.parametrize(
    "curve", [CurveType(6, 4, 0), CurveType(4, 4, 2), CurveType(5, 4, 1)]
)
def test_d_invariant_matches_formula_on_brute_r(curve):
    d, g = curve.d, curve.g
    ms = range(-(d // 2), (d + 1) // 2)
    for config in configurations(curve.g, 3):
        r_values = min_split_r(config, ms[-1] + g)
        for m in ms:
            r_value = r_values[m + g] if m + g >= 0 else 0
            expected = -(Fraction((d - 2 * m) ** 2 - d, 4 * d) - 2 * (r_value - m))
            assert d_invariant(curve, config, m) == expected


def test_dinv_all_m_folds_once(max_plus_calls):
    curve = CurveType(6, 4, 0)
    config = CuspConfiguration(
        (PuiseuxCusp(2, 3), PuiseuxCusp(2, 5), PuiseuxCusp(5, 7))
    )
    assert config.is_genus_compatible(curve)
    d = curve.d
    rows = cli._dinv_rows(curve, config, range(-(d // 2), (d + 1) // 2))
    assert len(list(rows)) == d
    assert len(max_plus_calls) == 2


def test_deep_configuration_through_both_filters():
    # 1,199 cusps, more than Python's default recursion limit of 1,000.
    curve = CurveType(2, 1200, 0)
    config = CuspConfiguration((PuiseuxCusp(2, 3),) * 1199)
    argv = ["check", "--a", "2", "--b", "1200", "--json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, *["--cusp", "2:3"] * 1199])
    assert excinfo.value.code == 2
    assert "Traceback" not in stderr.getvalue()
    results = json.loads(stdout.getvalue())["results"]
    assert (results["hf"], results["spectrum"]) == ("passes", "obstructed")
    elements = curve_elements(curve, config)
    assert len(elements) == 1200 and elements[-1] == 2398


small_curves = st.builds(
    curve_or_none,
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
).filter(lambda c: c is not None and c.g <= 12)


@given(curve=small_curves, data=st.data())
@settings(max_examples=40, deadline=None)
def test_filter_verdicts_fold_only_past_the_shared_prefix(curve, data):
    # A small curve's configurations in any order and with repeats, read
    # once: each is scanned with its own fold and gets the verdicts it gets
    # alone, and the walk folds only the cusps past the prefix it shares with
    # the configuration before, not counting a configuration's first cusp.
    # At g = 0 the empty one is the only configuration.
    pool = list(configurations(curve.g, 3)) or [CuspConfiguration()]
    configs = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    alone = [next(filter_verdicts(curve, [config])) for config in configs]
    calls, folds = [], []

    def counted(e1, e2):
        calls.append((e1, e2))
        return _max_plus(e1, e2)

    def scanned(line, g, elements):
        folds.append(elements)
        return violations(line, g, elements)

    violations = enumeration._violations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hf, "_max_plus", counted)
        patch.setattr(enumeration, "_violations", scanned)
        verdicts = list(filter_verdicts(curve, iter(configs)))
    assert verdicts == alone
    assert folds == [curve_elements(curve, config) for config in configs]
    expected = 0
    for previous, config in zip([()] + configs, configs):
        shared = max(
            k for k in range(min(len(previous), len(config)) + 1)
            if previous[:k] == config[:k]
        )
        expected += max(len(config) - max(shared, 1), 0)
    assert len(calls) == expected


@given(curve=small_curves, data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernels_match_oracles_on_small_curves(curve, data):
    # g = 0 has no cusps: the empty configuration is its only candidate.
    configs = list(configurations(curve.g, 3)) or [CuspConfiguration()]
    config = data.draw(st.sampled_from(configs))
    assert next(filter_verdicts(curve, [config])) == _assert_kernels_match(curve, config)


@given(curve=small_curves, data=st.data())
@settings(max_examples=40, deadline=None)
def test_filter_verdicts_walk_a_listing_in_any_order(curve, data):
    # The curve's configurations in any order and with repeats, so the walk
    # keeps moving its shared prefix; at g = 0 the empty one is the only one.
    # A one-shot iterator over them gives the verdicts of the list.
    pool = list(configurations(curve.g, 3)) or [CuspConfiguration()]
    configs = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    expected = {
        config: _verdicts(
            curve, config, _brute_hf(curve, config), _brute_semicontinuity(curve, config)
        )
        for config in configs
    }
    assert list(filter_verdicts(curve, configs)) == [expected[c] for c in configs]
    assert list(filter_verdicts(curve, iter(configs))) == [expected[c] for c in configs]


def test_filter_verdicts_read_a_stream_once():
    # A one-shot iterator gives the verdicts of the list, one per
    # configuration: 117 on (6,4,0) <= 3.
    curve = CurveType(6, 4, 0)
    configs = list(configurations(curve.g, 3))
    verdicts = list(filter_verdicts(curve, configs))
    assert len(verdicts) == len(configs) == 117
    assert list(filter_verdicts(curve, iter(configs))) == verdicts
    assert list(filter_verdicts(curve, configurations(curve.g, 3))) == verdicts


coprime_pairs = st.tuples(
    st.integers(min_value=2, max_value=9), st.integers(min_value=3, max_value=30)
).filter(lambda rs: rs[0] < rs[1] and math.gcd(*rs) == 1)


@given(first=coprime_pairs, second=coprime_pairs, extra=st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_clipped_convolution_matches_full_scan(first, second, extra):
    f = _cusp_elements(PuiseuxCusp(*first))
    g = _cusp_elements(PuiseuxCusp(*second))
    fast = _max_plus(f, g)
    length = len(fast) + extra
    assert unit_extended(fast, length) == split_max_plus(f, g, length)


def _brute_support(curve):
    """Each value x in (0, 1) of the spectrum at infinity -> (p, q), where
    x = p/w and x = q/b, with None for a form that x does not have.

    Each x is made once: the p/w with w | p*b are q/b for q = p*b/w, and the
    q loop makes them, since q/b is p/w iff b | q*w."""
    w, b = curve.w, curve.b
    support = {Fraction(p, w): (p, None) for p in range(1, w) if p * b % w}
    for q in range(1, b):
        p, remainder = divmod(q * w, b)
        support[Fraction(q, b)] = (None if remainder else p, q)
    return support


def _brute_table(curve):
    """(value, multiplicity) for each value of the spectrum at infinity."""
    a, b, w = curve.a, curve.b, curve.w
    entries = [(Fraction(1), a + b - 1)]
    for x, (p, q) in _brute_support(curve).items():
        if p is not None and q is not None:
            low = p * b // w + q * a // b - 1
            high = a + b - 1 - p * b // w - q * a // b
        elif p is not None:
            low, high = p * b // w, b - 1 - p * b // w
        else:
            low, high = q * a // b, a - 1 - q * a // b
        entries += [(x, low), (1 + x, high)]
    return [(x, mult) for x, mult in entries if mult]


def _brute_root_order(curve, x):
    """Order of (t-1)(t^w-1)^(b-1)(t^b-1)^(a-1) at exp(2*pi*i*x), x in [0, 1)."""
    if x == 0:
        return (curve.b - 1) + (curve.a - 1) + 1
    v = x.denominator
    return (curve.b - 1) * (curve.w % v == 0) + (curve.a - 1) * (curve.b % v == 0)


def _brute_derived(curve):
    """(value, multiplicity) for each value of the spectrum at infinity."""
    sigma1, sigma2 = signature_profile(curve)
    entries = [(Fraction(1), curve.a + curve.b - 1)]
    for x, (p, q) in _brute_support(curve).items():
        sigma = 0
        if p is not None:
            sigma += sigma1[p - 1]
        if q is not None:
            sigma += sigma2[q - 1]
        order = _brute_root_order(curve, x)
        assert (order + sigma) % 2 == 0
        low, high = (order + sigma) // 2, (order - sigma) // 2
        assert low >= 0 and high >= 0
        entries += [(x, low), (1 + x, high)]
    return [(x, mult) for x, mult in entries if mult]


def _brute_cusp_spectrum(cusp):
    return dict(
        Counter(
            Fraction(i, cusp.r) + Fraction(j, cusp.s)
            for i in range(1, cusp.r)
            for j in range(1, cusp.s)
        )
    )


def _assert_spectra_match(curve):
    # Compared as numerators over lcm(w, b): the same entries, without
    # building and hashing a Fraction view of every value.  Each construction
    # also equals the one that filled a dict of both halves.
    denominator = math.lcm(curve.w, curve.b)
    for construction, oracle, before in (
        (spectrum_at_infinity_table, _brute_table, dict_table),
        (spectrum_at_infinity_derived, _brute_derived, dict_derived),
    ):
        expected = sorted(
            (x.numerator * (denominator // x.denominator), mult)
            for x, mult in oracle(curve)
        )
        assert construction(curve) == (denominator, tuple(expected)) == before(curve)


def test_spectra_match_oracles_on_grid():
    for curve in curves(40, 40, 3):
        _assert_spectra_match(curve)


@pytest.mark.parametrize(
    "a, b, e",
    [
        (0, 1, 1), (0, 1, 300), (0, 2, 1), (0, 97, 3), (0, 300, 1),  # a = 0
        (300, 1, 0), (299, 1, 3), (1, 1, 0),  # b = 1
        (1, 2, 0), (1, 300, 0),  # w = 1
        (240, 60, 0), (120, 40, 3), (300, 100, 1), (7, 7, 2),  # b | w, b != 1
    ],
)
def test_spectra_match_oracles_on_edges(a, b, e):
    curve = CurveType(a, b, e)
    _assert_spectra_match(curve)
    assert entries(spectrum_at_infinity_table(curve)) == tuple(
        sorted(_brute_table(curve))
    )
    assert entries(spectrum_at_infinity_derived(curve)) == tuple(
        sorted(_brute_derived(curve))
    )


@given(
    a=st.integers(min_value=0, max_value=300),
    b=st.integers(min_value=1, max_value=300),
    e=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_spectra_match_oracles_on_large_curves(a, b, e):
    curve = curve_or_none(a, b, e)
    if curve is not None:
        _assert_spectra_match(curve)


def test_cusp_spectrum_matches_oracle():
    cusps = [
        PuiseuxCusp(r, s) for r in range(2, 13) for s in range(r + 1, 40)
        if math.gcd(r, s) == 1
    ]
    large_s = [(2, 101), (2, 301), (3, 100), (7, 60), (12, 97), (17, 60)]
    for cusp in (*cusps, *(PuiseuxCusp(r, s) for r, s in large_s)):
        assert dict(entries(cusp_spectrum(cusp))) == _brute_cusp_spectrum(cusp)


def _brute_rademacher_sum(p, q, r):
    total = 0
    for i in range(r):
        total += sawtooth_numerator(p * i, r) * sawtooth_numerator(q * i, r)
    return Fraction(total, 4 * r * r)


def _brute_section_sums(b, w):
    a_num = b_num = c_num = d_num = 0
    half_start = (w + 1) // 2
    for p in range(w):
        saw_b = sawtooth_numerator(p * b, w)
        if p >= half_start:
            a_num += saw_b
        b_num += saw_b * 2 * p
        c_num += saw_b * sawtooth_numerator(2 * p, w)
        d_num += saw_b
    return (
        Fraction(a_num, 2 * w),
        Fraction(b_num, 2 * w * w),
        Fraction(c_num, 4 * w * w),
        Fraction(d_num, 4 * w),
    )


def _floor_sums(a, b, c, n):
    """Sums over x in [0, n] of f(x), x*f(x) and f(x)^2, f(x) = floor((ax+b)/c).

    Needs a, b, n >= 0 and c >= 1.  Each level either reduces a and b mod c
    or swaps the roles of a and c, so the depth is that of Euclid on (a, c).
    """
    if a >= c or b >= c:
        qa, a = divmod(a, c)
        qb, b = divmod(b, c)
        f, g, h = _floor_sums(a, b, c, n)
        s1 = n * (n + 1) // 2
        s2 = s1 * (2 * n + 1) // 3
        return (
            f + qa * s1 + qb * (n + 1),
            g + qa * s2 + qb * s1,
            h + qa * qa * s2 + qb * qb * (n + 1) + 2 * qa * qb * s1
            + 2 * qb * f + 2 * qa * g,
        )
    m = (a * n + b) // c
    if m == 0:
        return 0, 0, 0
    # Count lattice points by rows instead of columns: floor((ax+b)/c) >= j
    # exactly when x > floor((cj - b - 1)/a), for j in [1, m].
    f, g, h = _floor_sums(c, c - b - 1, a, m - 1)
    total = n * m - f
    return total, (m * n * (n + 1) - h - f) // 2, n * m * (m + 1) - 2 * g - 2 * f - total


def _sawtooth_prefix(b, w, n):
    """Sums over p in [0, n) of 2w<pb/w> and of p * 2w<pb/w>."""
    if n == 0:
        return 0, 0
    floor_sum, floor_moment, _ = _floor_sums(b, 0, w, n - 1)
    step = w // math.gcd(b, w)  # w | pb exactly when step | p
    hits = (n + step - 1) // step
    s1 = n * (n - 1) // 2
    s2 = s1 * (2 * n - 1) // 3
    return (
        2 * b * s1 - 2 * w * floor_sum - w * n + w * hits,
        2 * b * s2 - 2 * w * floor_moment - w * s1 + w * step * hits * (hits - 1) // 2,
    )


def _floor_sum_section_sums(b, w):
    """The section sums from prefix sums of floor(pb/w) and p*floor(pb/w).

    The sawtooth numerator is 2w<pb/w> = 2pb - 2w*floor(pb/w) - w + w*[w | pb],
    and <2p/w> is linear on [0, ceil(w/2)) and on [ceil(w/2), w), apart from
    its zeros at p = 0 and p = w/2, where <pb/w> = 0 as well.
    """
    half_start = (w + 1) // 2
    low_sum, _ = _sawtooth_prefix(b, w, half_start)
    full_sum, full_moment = _sawtooth_prefix(b, w, w)
    high_sum = full_sum - low_sum
    c_num = 4 * full_moment - w * low_sum - 3 * w * high_sum
    return (
        Fraction(high_sum, 2 * w),
        Fraction(2 * full_moment, 2 * w * w),
        Fraction(c_num, 4 * w * w),
        Fraction(full_sum, 4 * w),
    )


moduli = st.one_of(st.just(1), st.integers(min_value=1, max_value=300))
residues = st.integers(min_value=-2000, max_value=2000)  # any sign, 0 included


@given(p=residues, q=moduli, factor=st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_dedekind_sum_matches_loop(p, q, factor):
    assert dedekind_sum(p, q) == dedekind_loop(p, q)
    # Non-coprime arguments: s(cp, cq) = s(p, q).
    assert dedekind_sum(factor * p, factor * q) == dedekind_loop(
        factor * p, factor * q
    )


@given(
    p=residues,
    q=residues,
    r=moduli,
    factor=st.integers(min_value=1, max_value=12),
    scaled=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
@settings(max_examples=300, deadline=None)
# r | q, where r/g = 1; r = 1; p = 0.
@example(p=3, q=7, r=7, factor=1, scaled=(False, False, False))
@example(p=5, q=14, r=7, factor=1, scaled=(False, False, False))
@example(p=0, q=0, r=1, factor=1, scaled=(False, False, False))
@example(p=-9, q=4, r=1, factor=1, scaled=(False, False, False))
@example(p=0, q=5, r=12, factor=1, scaled=(False, False, False))
def test_rademacher_sum_matches_loop(p, q, r, factor, scaled):
    # Scaling a chosen subset of (p, q, r) by one factor makes non-coprime
    # triples common, including q or p sharing the whole modulus.
    p, q, r = (x * factor if flag else x for x, flag in zip((p, q, r), scaled))
    assert rademacher_sum(p, q, r) == _brute_rademacher_sum(p, q, r)


@given(w=st.integers(min_value=2, max_value=400), data=st.data())
@settings(max_examples=300, deadline=None)
def test_section_sums_match_loop(w, data):
    b = data.draw(
        st.one_of(
            st.integers(min_value=2, max_value=60),
            st.integers(min_value=w, max_value=4 * w),  # b >= w
            st.integers(min_value=1, max_value=4).map(lambda k: k * w),  # w | b
        ).filter(lambda b: b >= 2)
    )
    assert section_sums(b, w) == _brute_section_sums(b, w)


def test_section_sums_match_loop_on_small_grid():
    for b in range(2, 25):
        for w in range(2, 50):
            assert section_sums(b, w) == _brute_section_sums(b, w), (b, w)


# Complexity guards: each runs in milliseconds with the logarithmic kernels,
# and would not finish if a loop over the modulus came back.
LARGE_PRIMES = (999999999989, 1000000000039, 1000000000061)


def test_two_term_law_at_large_moduli():
    p, q = LARGE_PRIMES[:2]
    assert dedekind_sum(p, q) + dedekind_sum(q, p) == dedekind_reciprocity_rhs(p, q)


def test_three_term_law_at_large_moduli():
    p, q, r = LARGE_PRIMES
    total = rademacher_sum(p, q, r) + rademacher_sum(r, p, q) + rademacher_sum(q, r, p)
    assert total == rademacher_reciprocity_rhs(p, q, r)


def test_section_sums_at_large_width():
    # 10**9 = 2**9 * 5**9, 10**9 + 7 is prime, 10**12 + 1 = 73 * 137 * 99990001.
    cases = [
        (7, 10**9),  # gcd 1
        (6, 10**9),  # gcd 2
        (8, 10**9),  # gcd 8
        (10**9 + 12, 10**9),  # b > w, gcd 4
        (3 * 10**9, 10**9),  # w | b
        (2, 10**9 + 7),
        (10**6 + 3, 10**9 + 7),
        (2 * (10**9 + 7), 10**9 + 7),
        (7, 10**12 + 1),
        (73 * 137, 10**12 + 1),  # gcd 10001
        (10**12 + 1 + 146, 10**12 + 1),  # b > w, gcd 73
    ]
    for b, w in cases:
        a_w, b_w, c_w, d_w = section_sums(b, w)
        assert d_w == 0
        assert a_w == b_w - c_w + d_w
        assert (a_w, b_w, c_w, d_w) == _floor_sum_section_sums(b, w), (b, w)


@pytest.mark.parametrize("b", [3, 4, 7])
def test_verify_limits_at_large_width(b):
    report = verify_limits(b, 10**9)
    assert report.all_within_tol
    assert 10**9 - 10 <= report.entries[0].w <= 10**9


# The report serializer against the stdlib's pure-Python indent encoder, on
# the shape of a report: an envelope of scalars (and lists of strings, as
# `check`'s cusps) and one list of flat rows at `witnesses`, `results.entries`
# or `results.values`.  Strings carry the characters the row re-indent or the
# splice could trip on: brackets, commas, quotes, backslashes, control
# characters, non-ASCII and a placeholder's encoding inside a string.
_JSON_TEXT = st.text(
    st.sampled_from(list('{}[],:"\\\n\t\x00 é\u2028\U0001d11ea')) | st.characters(),
    max_size=6,
) | st.sampled_from(['x"\x00rows', "\x00rows"])
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | _JSON_TEXT
_ENVELOPE_DICTS = st.dictionaries(
    _JSON_TEXT, _JSON_SCALARS | st.lists(_JSON_TEXT, max_size=3), max_size=4
)
# Rows draw keys from a small set, so a row list mixes equal and different
# key sets, as `check`'s hf and spectrum witnesses do.
_ROWS = st.lists(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "},\n  {"]), _JSON_SCALARS, min_size=1, max_size=3
    ),
    max_size=4,
)


@given(
    _JSON_TEXT,
    _ENVELOPE_DICTS,
    _ENVELOPE_DICTS,
    _ROWS,
    st.sampled_from(["witnesses", "entries", "values"]),
)
@example("check", {"cusps": ["2:3"]}, {}, [{"a": "},\n    {"}, {"b": None}], "witnesses")
@example("spectrum", {"a": 'x"\x00rows'}, {"z": "\x00rows"}, [{"a": 1}], "entries")
@example("dinv", {}, {"values": 0}, [], "values")
@example("NaN", {"NaN": ": NaN"}, {'"entries": NaN': "NaN"}, [{"a": '"entries": NaN'}], "entries")
@example('"witnesses": NaN', {}, {"witnesses": ": NaN"}, [{"b": "NaN"}], "witnesses")
@settings(max_examples=600, deadline=None)
def test_dumps_matches_stdlib_indent_encoder(command, inputs, results, rows, place):
    def report(rows):
        at_place = results if place == "witnesses" else {**results, place: rows}
        return cli._report(command, inputs, at_place, rows if place == "witnesses" else [])

    expected = json.dumps(report(rows), sort_keys=True, indent=2) + "\n"
    # Chunks of 1 to 3 rows put chunk boundaries between the drawn rows; the
    # rows come as the report's list and as a one-shot iterator.
    for chunk_rows in (1, 2, 3, cli._CHUNK_ROWS):
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
            for stream in (rows, iter(rows)):
                assert "".join(cli._dumps(report(stream), stream)) == expected


# `spectrum --json` renders its entries straight from the (n, mult) pairs;
# the report must be the one that holds the oracle's dict rows.  Curves from
# the benchmark's box (a, b <= 120, e <= 2, d > 0) and CI's edges: no value
# at all, b = 1, a = 0, and e = 2.
@given(
    st.tuples(st.integers(0, 120), st.integers(1, 120), st.integers(0, 2)).filter(
        lambda curve: curve[0] or curve[2]
    )
)
@example((0, 1, 1))
@example((300, 1, 0))
@example((0, 300, 1))
@example((7, 7, 2))
@settings(deadline=None)
def test_spectrum_json_matches_the_dict_row_oracle(curve):
    a, b, e = curve
    table = spectrum_at_infinity_table(CurveType(a, b, e))
    derived = spectrum_at_infinity_derived(CurveType(a, b, e))
    for method, spectrum in (("table", table), ("derived", derived), ("both", table)):
        results = {"method": method, "total": total(spectrum)}
        results["entries"] = spectrum_rows(spectrum)
        if method == "both":
            results["methods_agree"] = table == derived
        report = {
            "schema_version": "1",
            "command": "spectrum",
            "inputs": {"a": a, "b": b, "e": e},
            "results": results,
            "witnesses": [],
        }
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        argv = ["spectrum", "--a", str(a), "--b", str(b), "--e", str(e), "--method", method]
        for chunk_rows in (1, 2, 3, 1024):
            stdout = io.StringIO()
            with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
                with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exit:
                    cli.main([*argv, "--json"])
            assert exit.value.code == 0
            # Lines, so that a failure names its first wrong line at once.
            assert stdout.getvalue().splitlines(True) == expected.splitlines(True)
