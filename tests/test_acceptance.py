"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with pytest -s); the assertions carry the same conditions.  All
comparisons are exact except where a tolerance is stated inline.
"""

import math
import random
from fractions import Fraction

import pytest

from cuspidal import (
    CurveType,
    CuspConfiguration,
    PuiseuxCusp,
    alexander_order,
    curve_elements,
    dedekind_sum,
    enumerate_unicuspidal,
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
from cuspidal.hf import _cusp_elements, _max_plus
from oracles import (
    brute_max_p,
    count_open,
    cusp_spectrum,
    dedekind_reciprocity_rhs,
    entries,
    is_symmetric_about_one,
    min_split_r,
    r_at,
    rademacher_reciprocity_rhs,
    split_max_plus,
    total,
    unit_extended,
)

F = Fraction


def _verdict(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_unicuspidal_sextic_case_study():
    curve = CurveType(6, 6, 0)
    cusps = [(c.r, c.s) for c in enumerate_unicuspidal(curve)]
    ok = cusps == [(2, 51), (3, 26), (6, 11)]

    report = semicontinuity_check(curve, CuspConfiguration((PuiseuxCusp(2, 51),)))
    witnesses = {w.x: (w.cusp_inside, w.infinity_inside) for w in report.witnesses}
    ok = ok and report.obstructed and witnesses.get(F(25, 51)) == (50, 48)

    infinity = spectrum_at_infinity_table(curve)
    for (r, s), x, counts in [
        ((3, 26), F(1, 3) + F(1, 52), (42, 48)),
        ((6, 11), F(1, 6) + F(1, 100), (34, 44)),
    ]:
        report = semicontinuity_check(curve, CuspConfiguration((PuiseuxCusp(r, s),)))
        inside = count_open(cusp_spectrum(PuiseuxCusp(r, s)), x, x + 1)
        ok = ok and not report.obstructed
        ok = ok and (inside, count_open(infinity, x, x + 1)) == counts

    _verdict(1, "degree-six unicuspidal candidates", ok)


def test_criterion_2_even_twist_family_obstruction():
    ok = True
    for e in range(1, 11):
        curve = CurveType(4, 4, e)
        config = CuspConfiguration((PuiseuxCusp(3, 6 * e + 10),))
        report = hf_check(curve, config)
        if e % 2 == 0:
            ok = ok and report.obstructed
            ok = ok and any(
                w.r_value == 2 * e + 3 and w.p_value == 2 * e + 4
                for w in report.witnesses
            )
        else:
            ok = ok and not report.obstructed
    _verdict(2, "counting obstruction by twist parity", ok)


def test_criterion_3_signature_spectrum_worked_example():
    curve = CurveType(6, 4, 0)
    ok = signature_profile(curve) == ((-3, -1, 0, 1, 3), (-3, 0, 3))

    points = [F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6)]
    orders = [alexander_order(curve, x.denominator) for x in points]
    ok = ok and orders == [3, 5, 3, 8, 3, 5, 3]

    spectrum = spectrum_at_infinity_derived(curve)
    low_part = {v: m for v, m in entries(spectrum) if v < 1}
    ok = ok and low_part == {
        F(1, 4): 1,
        F(1, 3): 1,
        F(1, 2): 4,
        F(2, 3): 2,
        F(3, 4): 4,
        F(5, 6): 3,
    }
    ok = ok and sum(low_part.values()) == 15
    ok = ok and dict(entries(spectrum))[F(1)] == 9 and total(spectrum) == 39
    _verdict(3, "signature and spectrum worked example", ok)


def test_criterion_4_spectrum_constructions_agree_on_grid():
    ok = True
    for a in range(1, 9):
        for b in range(1, 9):
            for e in range(5):
                curve = CurveType(a, b, e)
                if spectrum_at_infinity_table(curve) != spectrum_at_infinity_derived(
                    curve
                ):
                    ok = False
    _verdict(4, "table vs derived spectrum on 225 instances", ok)


def test_criterion_5_reciprocity_laws():
    rng = random.Random(1789)
    ok = True
    pairs = 0
    while pairs < 200:
        p, q = rng.randint(1, 10**4), rng.randint(1, 10**4)
        if math.gcd(p, q) != 1:
            continue
        ok = ok and dedekind_sum(p, q) + dedekind_sum(q, p) == dedekind_reciprocity_rhs(
            p, q
        )
        pairs += 1
    triples = 0
    while triples < 100:
        p, q, r = (rng.randint(1, 500) for _ in range(3))
        if math.gcd(p, q) != 1 or math.gcd(q, r) != 1 or math.gcd(p, r) != 1:
            continue
        total = (
            rademacher_sum(p, q, r)
            + rademacher_sum(r, p, q)
            + rademacher_sum(q, r, p)
        )
        ok = ok and total == rademacher_reciprocity_rhs(p, q, r)
        triples += 1
    _verdict(5, "two- and three-term reciprocity", ok)


def test_criterion_6_sawtooth_sum_limits():
    ok = True
    for b in (3, 4, 5, 6):
        report = verify_limits(b, 10**5, F(1, 200))
        ok = ok and report.all_within_tol
    for b in range(2, 11):
        for w in range(2, 501):
            a_w, b_w, c_w, d_w = section_sums(b, w)
            ok = ok and d_w == 0 and a_w == b_w - c_w + d_w
    _verdict(6, "sawtooth sum limits and split identity", ok)


def test_criterion_7_constructed_series_never_obstructed():
    ok = True
    for d in range(3, 7):
        for e in range(4):
            for k in range(4):
                if (e, k) == (0, 0):
                    continue
                families = [
                    (CurveType(k * d, d, e), (d, (e + 2 * k) * d - 1)),
                    (
                        CurveType(k * (d - 1) + 1, d - 1, e),
                        (d - 1, (e + 2 * k) * (d - 1) + 1),
                    ),
                ]
                for curve, (r, s) in families:
                    if s < r:
                        r, s = s, r
                    config = CuspConfiguration((PuiseuxCusp(r, s),))
                    ok = ok and config.is_genus_compatible(curve)
                    ok = ok and not hf_check(curve, config).obstructed
                    ok = ok and not semicontinuity_check(curve, config).obstructed
    _verdict(7, "constructed curve series survive all filters", ok)


def _plane_unicuspidal(max_degree):
    """(d, (r, s)) for each rational unicuspidal plane curve of degree
    d < max_degree whose cusp x^r = y^s has one Puiseux pair, after
    Fernandez de Bobadilla, Luengo, Melle-Hernandez and Nemethi (2006)."""
    phi = [0, 1]
    while len(phi) < 40:
        phi.append(phi[-1] + phi[-2])
    curves = [(d, (d - 1, d)) for d in range(3, max_degree)]
    curves += [(d, (d // 2, 2 * d - 1)) for d in range(4, max_degree, 2)]
    for j in range(5, len(phi) - 2, 2):
        curves.append((phi[j - 1] ** 2 + 1, (phi[j - 2] ** 2, phi[j] ** 2)))
        curves.append((phi[j], (phi[j - 2], phi[j + 2])))
    curves += [(8, (3, 22)), (16, (6, 43))]
    return [(d, cusp) for d, cusp in curves if d < max_degree]


def _blown_up(n, cusps):
    """The curves in X_1 that blowing up one point of a plane curve of
    degree n with these cusps gives: a point of multiplicity m makes the
    type (m, n - m, 1).  At a smooth point the cusps stay; at the cusp
    (p, q) it becomes (p, q - p), sorted, and is gone when q - p = 1."""
    yield CurveType(1, n - 1, 1), cusps
    for i, (p, q) in enumerate(cusps):
        rest = cusps[:i] + cusps[i + 1 :]
        if q - p > 1:
            rest += ((min(p, q - p), max(p, q - p)),)
        yield CurveType(p, n - p, 1), rest


def test_criterion_10_existing_curves_never_obstructed():
    plane = [(d, (cusp,)) for d, cusp in _plane_unicuspidal(70)]
    quartics = [(4, ((2, 3), (2, 5))), (4, ((2, 3),) * 3)]
    cases = [case for n, cusps in plane + quartics for case in _blown_up(n, cusps)]
    ok = len(plane) == 107 and len(cases) == 2 * 107 + 3 + 4
    for curve, cusps in cases:
        config = CuspConfiguration(sorted(PuiseuxCusp(r, s) for r, s in cusps))
        ok = ok and config.is_genus_compatible(curve)
        # r <= b for every cusp, HF and the spectrum.
        ok = ok and all(next(filter_verdicts(curve, [config])))
    _verdict(10, "blown-up plane cuspidal curves survive all filters", ok)


def test_criterion_8_property_suites():
    ok = True

    # element lists: unit steps of R and the tail law, on several
    # genus-compatible configurations
    instances = [
        (CurveType(6, 6, 0), [(6, 11)]),
        (CurveType(4, 4, 2), [(3, 22)]),
        (CurveType(4, 2, 0), [(2, 3), (2, 3), (2, 3)]),
        (CurveType(4, 3, 1), [(2, 5), (3, 8)]),
    ]
    for curve, cusp_list in instances:
        cusps = [PuiseuxCusp(r, s) for r, s in cusp_list]
        elements = curve_elements(curve, CuspConfiguration(tuple(cusps)))
        g = curve.g
        steps = [r_at(elements, t + 1) - r_at(elements, t) for t in range(2 * g + 5)]
        ok = ok and set(steps) <= {0, 1}
        ok = ok and len(elements) == g + 1 and elements[-1] == 2 * g
        # R(2g + m) = g + m: the full max-plus fold of the lists continued
        # past their conductors continues the folded list by unit steps.
        length = g + 8
        full = (0,)
        for cusp in cusps:
            full = split_max_plus(full, _cusp_elements(cusp), length)
        ok = ok and full == unit_extended(elements, length)

    # max-plus convolution: commutativity, associativity, brute-force agreement
    f = _cusp_elements(PuiseuxCusp(2, 5))
    g_fn = _cusp_elements(PuiseuxCusp(3, 7))
    h = _cusp_elements(PuiseuxCusp(2, 3))
    fg = _max_plus(f, g_fn)
    ok = ok and fg == _max_plus(g_fn, f)
    ok = ok and _max_plus(fg, h) == _max_plus(f, _max_plus(g_fn, h))
    ok = ok and _max_plus((0,), fg) == fg == _max_plus(fg, (0,))
    for curve, cusp_list in instances:
        if len(cusp_list) > 3 or 2 * curve.g > 60:
            continue
        cusps = tuple(PuiseuxCusp(r, s) for r, s in cusp_list)
        combined = curve_elements(curve, CuspConfiguration(cusps))
        brute = min_split_r(cusps, 2 * curve.g + 1)
        ok = ok and all(r_at(combined, t) == brute[t] for t in range(2 * curve.g + 2))

    # spectrum symmetry about 1
    for r, s in [(2, 51), (3, 26), (6, 11), (3, 22), (2, 3)]:
        ok = ok and is_symmetric_about_one(cusp_spectrum(PuiseuxCusp(r, s)))
    for a, b, e in [(6, 6, 0), (6, 4, 0), (4, 4, 2), (5, 3, 1)]:
        ok = ok and is_symmetric_about_one(
            spectrum_at_infinity_table(CurveType(a, b, e))
        )

    # signature antisymmetry
    for a, b, e in [(6, 6, 0), (6, 4, 0), (4, 4, 2), (5, 3, 1), (7, 2, 3)]:
        curve = CurveType(a, b, e)
        sigma1, sigma2 = signature_profile(curve)
        w = curve.w
        ok = ok and all(sigma1[p - 1] == -sigma1[w - p - 1] for p in range(1, w))
        ok = ok and all(sigma2[q - 1] == -sigma2[b - q - 1] for q in range(1, b))

    # vertex-scan maximization vs a wide brute-force window, None off the lattice
    for curve in [CurveType(6, 6, 0), CurveType(4, 4, 2), CurveType(5, 3, 1)]:
        for n in range(0, 2 * curve.g + 2):
            ok = ok and max_p_over_presentations(curve, n) == brute_max_p(curve, n)

    # semicontinuity critical-point scan vs a dense rational grid
    curve = CurveType(6, 6, 0)
    infinity = spectrum_at_infinity_table(curve)
    for r, s in [(2, 51), (3, 26), (6, 11)]:
        spectrum = cusp_spectrum(PuiseuxCusp(r, s))
        report = semicontinuity_check(curve, CuspConfiguration((PuiseuxCusp(r, s),)))
        denom = 10 * math.lcm(r * s, curve.w, curve.b)
        infinity_values = {v for v, _ in entries(infinity)}
        grid_violation = False
        for j in range(1, denom):
            x = F(j, denom)
            if x in infinity_values:
                continue
            inside = count_open(spectrum, x, x + 1)
            outside = total(spectrum) - inside
            if inside > count_open(infinity, x, x + 1) or outside > (
                total(infinity) - count_open(infinity, x, x + 1)
            ):
                grid_violation = True
                break
        ok = ok and grid_violation == report.obstructed

    _verdict(8, "exact property suites", ok)


def test_criterion_9_half_window_growth_rate():
    e = 200
    curve = CurveType(4, 4, e)
    cusp = PuiseuxCusp(3, 6 * e + 10)
    half, three_halves = F(1, 2), F(3, 2)
    cusp_count = count_open(cusp_spectrum(cusp), half, three_halves)
    infinity_count = count_open(spectrum_at_infinity_table(curve), half, three_halves)
    slope = 10  # both counts grow like 10*e for this family
    ok = abs(F(cusp_count, e) - slope) <= F(slope, 20)
    ok = ok and abs(F(infinity_count, e) - slope) <= F(slope, 20)
    _verdict(9, "half-window count growth rate", ok)
