"""Views and kernels that only the tests use.

The brute-force facts that several test files check a kernel against are
each written once here:
- `r_at` reads R(t) off an element list ending at 2g.
- `member_counts` counts the members of <r, s> below each t, from every sum
  i*r + j*s.
- `min_split_r` is R of a configuration as the minimum over every split,
  cusp by cusp, for any number of cusps.
- `unit_extended` continues an element list past its end by unit steps,
  and `split_max_plus` is the max-plus over every split of two such lists.
- `sawtooth_numerator` and `dedekind_loop` give s(p, q) by its defining
  loop, on int numerators.
- `curve_or_none` is the curve of a type, or None where d <= 0, and
  `curves` lists every curve in a box of (a, b, e).
- `brute_max_p` is the maximal presentation of n by a walk of a wide window
  of its solution line, ties to the larger s1.

The views and the earlier kernels:
- `entries`, `spectrum_rows`, `total`, `count_open` and
  `is_symmetric_about_one` read a spectrum, the pair (denominator, sorted
  (numerator, multiplicity) pairs) that both constructions of the spectrum
  at infinity return.
- `cusp_spectrum` reads the spectrum of a one-pair cusp off its semigroup,
  not off (r, s) as `spectra._scan` does, and returns that pair.
- `closed_form_elements` is the membership test that built the element
  lists of `hf._cusp_elements` before they merged progressions.
- `sorted_failures` is the bisecting scan that `spectra._scan`'s sweep
  replaced, in its one-pass form: from 1/2 down, four bisections of the
  sorted cusp and infinity values count each folded point, a failing one
  yields itself and then its mirror, and `sorted` puts them in order.
- `dict_table` and `dict_derived` are the two constructions of the spectrum
  at infinity before the table mirrored its values below 1 and the derived
  route read its root orders off the progressions: each fills a dict with
  the values x and 1 + x of every numerator and sorts its items, and the
  derived one calls `alexander_order` once per numerator.
- `sawtooth` and the reciprocity right-hand sides state the laws that the
  Dedekind kernels obey.
- `dfs_configurations` is the depth-first enumeration that
  `enumeration.configurations` replaced: it lists every cusp of delta at
  most g and, with one slot left, jumps to the first cusp of the missing
  delta.  `count_configurations` counts that listing without walking it.
- `group_dispatch` parses the whole argv with the group parser of every
  command, which `cli.main` parses with the parser of the command it names.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

from cuspidal import (
    CurveType,
    CuspConfiguration,
    alexander_order,
    cli,
    p_bound,
    signature_profile,
)
from cuspidal.enumeration import cusps_with_delta
from cuspidal.hf import _cusp_elements
from cuspidal.spectra import InternalConsistencyError


def entries(spectrum):
    """(value as a `Fraction`, multiplicity), in increasing order."""
    denominator, pairs = spectrum
    return tuple((Fraction(n, denominator), mult) for n, mult in pairs)


def spectrum_rows(spectrum):
    """The rows of a `spectrum --json` report's `entries`, one dict per entry
    as the report held them before it rendered the pairs straight to text."""
    return [
        {"value": f"{x.numerator}/{x.denominator}", "multiplicity": mult}
        for x, mult in entries(spectrum)
    ]


def total(spectrum):
    """The sum of the multiplicities."""
    return sum(mult for _, mult in spectrum[1])


def count_open(spectrum, lo, hi):
    """Total multiplicity strictly inside (lo, hi)."""
    denominator, pairs = spectrum
    # n/D > lo iff n > floor(lo*D), and n/D < hi iff n < ceil(hi*D)
    floor_lo = lo.numerator * denominator // lo.denominator
    ceil_hi = -(-hi.numerator * denominator // hi.denominator)
    return sum(mult for n, mult in pairs if floor_lo < n < ceil_hi)


def is_symmetric_about_one(spectrum):
    """mult(x) = mult(2 - x) for all x."""
    denominator, pairs = spectrum
    return pairs == tuple((2 * denominator - n, mult) for n, mult in reversed(pairs))


def r_at(elements, t):
    """R(t) read off an element list ending at 2g, with g = len - 1: the
    number of elements below t for t <= 2g, and t - g beyond."""
    g = len(elements) - 1
    return bisect_left(elements, t) if t <= 2 * g else t - g


def member_counts(cusp, end):
    """[#(<r, s> intersect [0, t)) for t in 0 .. end], from all sums i*r + j*s."""
    r, s = cusp.r, cusp.s
    members = {i * r + j * s for i in range(end // r + 1) for j in range(end // s + 1)}
    counts = [0]
    for t in range(end):
        counts.append(counts[-1] + (t in members))
    return counts


def min_split_r(config, end):
    """R on [0, end]: the min over every split k in [0, t], cusp by cusp.

    With no cusps R(t) = t, the counting function of all t >= 0.
    """
    values = list(range(end + 1))
    for cusp in config:
        counts = member_counts(cusp, end)
        values = [
            min(counts[k] + values[t - k] for k in range(t + 1)) for t in range(end + 1)
        ]
    return values


def unit_extended(elements, length):
    """The element list continued past its end by unit steps to `length`
    entries."""
    last = elements[-1]
    return [*elements, *range(last + 1, last + 1 + length - len(elements))]


def split_max_plus(e1, e2, length):
    """max over every split p + q = v, v < length, of the lists continued by
    unit steps."""
    x1, x2 = unit_extended(e1, length), unit_extended(e2, length)
    return [max(x1[p] + x2[v - p] for p in range(v + 1)) for v in range(length)]


def curve_or_none(a, b, e):
    """The curve of type (a, b, e), or None where `CurveType` refuses it."""
    try:
        return CurveType(a, b, e)
    except ValueError:  # d <= 0
        return None


def curves(a_max, b_max, e_max):
    """Every curve with 0 <= a <= a_max, 1 <= b <= b_max and 0 <= e <= e_max,
    in increasing (a, b, e)."""
    grid = (
        curve_or_none(a, b, e)
        for a in range(a_max + 1)
        for b in range(1, b_max + 1)
        for e in range(e_max + 1)
    )
    return [curve for curve in grid if curve is not None]


def brute_max_p(curve, n, k_range=1000):
    """(s1, s2, P) maximizing P over the solutions s1*b + s2*w = n that lie
    within `k_range` steps of the one with 0 <= s2 < b/c, ties to the larger
    s1, or None if c does not divide n."""
    b, w = curve.b, curve.w
    c = math.gcd(b, w)
    if n % c != 0:
        return None
    # one particular solution with 0 <= s2 < b/c; the line steps by b/c in s2
    base = None
    for s2 in range(b // c):
        rem = n - s2 * w
        if rem % b == 0:
            base = (rem // b, s2)
            break
    assert base is not None
    s1_0, s2_0 = base
    best = None
    for k in range(-k_range, k_range + 1):
        s1 = s1_0 + k * (w // c)
        s2 = s2_0 - k * (b // c)
        p = p_bound(s1, s2, curve.e)
        if best is None or (p, s1) > (best[2], best[0]):
            best = (s1, s2, p)
    return best


def closed_form_elements(r, s):
    """The elements of <r, s> in [0, (r - 1)(s - 1)].  The only j < r with
    t - j*s divisible by r is j = t * s^-1 mod r, so t is a member iff that
    j has j*s <= t."""
    inverse = pow(s, -1, r)
    return tuple(t for t in range((r - 1) * (s - 1) + 1) if t * inverse % r * s <= t)


def cusp_numerators(cusp):
    """The spectrum {(i*s + j*r)/(r*s) : 1 <= i < r, 1 <= j < s} of `cusp` as
    sorted numerators over r*s, one per value, read off its semigroup.

    Those below r*s are exactly e + r + s for the delta elements e of <r, s>
    below the conductor 2*delta = r*s - r - s + 1: such an e is
    (i - 1)*s + (j - 1)*r with i < r and j >= 1, and e + r + s <= r*s forces
    j < s and excludes r*s itself; conversely i*s + j*r - r - s < 2*delta is
    an element.  The symmetry (i, j) -> (r - i, s - j) maps the rest onto
    2*r*s - n."""
    r, s = cusp.r, cusp.s
    low = [r + s + e for e in _cusp_elements(cusp)[:-1]]
    return low + [2 * r * s - n for n in reversed(low)]


def cusp_spectrum(cusp):
    """The spectrum {i/r + j/s : 1 <= i < r, 1 <= j < s} of a one-pair cusp."""
    return cusp.r * cusp.s, tuple((n, 1) for n in cusp_numerators(cusp))


def sorted_failures(infinity, config):
    """(L, the number of scan points in (0, 1), every failing scan point as
    (numerator over L, cusp inside, infinity inside, cusp outside, infinity
    outside), sorted), for `spectra._table_below_one`'s `infinity` and a
    configuration with cusps.  It expands the (numerator, multiplicity)
    pairs below 1 into one numerator per unit of multiplicity."""
    denominator, pairs, mult_one = infinity
    scale = 2 * math.lcm(denominator, *(cusp.r * cusp.s for cusp in config))
    half = scale // 2
    cusps = sorted(
        (cusp.r + cusp.s + e) * (scale // (cusp.r * cusp.s))
        for cusp in config
        for e in _cusp_elements(cusp)[:-1]
    )
    infinity = [n * (scale // denominator) for n, mult in pairs for _ in range(mult)]
    at_infinity = set(infinity)
    # The critical points in (0, 1/2], from the top; the others mirror them.
    critical = sorted(
        {v if v <= half else scale - v for v in (*cusps, *at_infinity)}, reverse=True
    )
    in_unit = 2 * len(critical) - (critical[0] == half)
    checked = 2 * in_unit + 1 - len(at_infinity)
    points = [] if critical[0] == half else [half]
    for right, left in zip(critical, [*critical[1:], 0]):
        if right not in at_infinity:
            points.append(right)
        points.append((left + right) // 2)
    failures = []
    for y in points:
        mirror = scale - y
        cusp_inside = 2 * len(cusps) - bisect_right(cusps, y) - bisect_right(cusps, mirror)
        infinity_inside = (
            2 * len(infinity) + mult_one
            - bisect_right(infinity, y)
            - bisect_right(infinity, mirror)
        )
        cusp_outside = 2 * len(cusps) - cusp_inside
        infinity_outside = 2 * len(infinity) + mult_one - infinity_inside
        if cusp_inside > infinity_inside or cusp_outside > infinity_outside:
            counts = cusp_inside, infinity_inside, cusp_outside, infinity_outside
            failures.append((y, *counts))
            if y != half and mirror not in at_infinity:
                failures.append((mirror, *counts))
    return scale, checked, sorted(failures)


def dict_table(curve):
    """The spectrum at infinity by the closed-form multiplicity table."""
    a, b, w = curve.a, curve.b, curve.w
    denominator = math.lcm(w, b)
    entries: dict[int, int] = {denominator: a + b - 1}
    step = denominator // w
    for n, p in zip(range(step, denominator, step), range(1, w)):
        entries[n] = p * b // w
        entries[n + denominator] = b - 1 - p * b // w
    step = denominator // b
    for n, q in zip(range(step, denominator, step), range(1, b)):
        low, high = q * a // b, a - 1 - q * a // b
        if n in entries:  # x = p/w = q/b: (sum - 1, a + b - 1 - sum)
            low += entries[n] - 1
            high += entries[n + denominator] + 1
        entries[n] = low
        entries[n + denominator] = high
    return denominator, tuple(sorted(item for item in entries.items() if item[1]))


def dict_derived(curve):
    """The spectrum at infinity recovered from signatures and root orders.

    For x in (0, 1) with exp(2*pi*i*x) a root, the multiplicity of x is
    (order + sigma)/2 and that of 1 + x is (order - sigma)/2, where sigma is
    the total equivariant signature at x.  1 itself has multiplicity a+b-1.
    """
    a, b, w = curve.a, curve.b, curve.w
    sigma1, sigma2 = signature_profile(curve)
    denominator = math.lcm(w, b)
    step = denominator // w
    sigmas = dict(zip(range(step, denominator, step), sigma1))
    step = denominator // b
    for n, sigma in zip(range(step, denominator, step), sigma2):
        sigmas[n] = sigmas.get(n, 0) + sigma  # x = p/w = q/b: the two add
    entries: dict[int, int] = {denominator: a + b - 1}
    for n, sigma in sigmas.items():
        # x = n/D reduces to a fraction with denominator D / gcd(n, D).
        order = alexander_order(curve, denominator // math.gcd(n, denominator))
        if (order + sigma) % 2 != 0:
            from fractions import Fraction
            raise InternalConsistencyError(
                f"order {order} and signature {sigma} at "
                f"x = {Fraction(n, denominator)} have different parity"
            )
        low = (order + sigma) // 2
        high = (order - sigma) // 2
        if low < 0 or high < 0:
            from fractions import Fraction
            raise InternalConsistencyError(
                f"negative multiplicity at x = {Fraction(n, denominator)}: "
                f"low={low}, high={high}"
            )
        entries[n] = low
        entries[n + denominator] = high
    return denominator, tuple(sorted(item for item in entries.items() if item[1]))


def sawtooth(x):
    """{x} - 1/2 for non-integer x, and 0 on the integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def sawtooth_numerator(value, modulus):
    """2*modulus times sawtooth(value / modulus)."""
    rem = value % modulus
    if rem == 0:
        return 0
    return 2 * rem - modulus


def dedekind_loop(p, q):
    """s(p, q), the sum over i in [0, q) of sawtooth(i/q) * sawtooth(p*i/q)."""
    total = 0
    for i in range(q):
        total += sawtooth_numerator(i, q) * sawtooth_numerator(p * i, q)
    return Fraction(total, 4 * q * q)


def dedekind_reciprocity_rhs(p, q):
    """The two-term law: s(p,q) + s(q,p) for coprime p, q."""
    return Fraction(p * p + q * q + 1 - 3 * p * q, 12 * p * q)


def rademacher_reciprocity_rhs(p, q, r):
    """The three-term law: D(p,q,r) + D(r,p,q) + D(q,r,p) for pairwise coprime."""
    return Fraction(p * p + q * q + r * r - 3 * p * q * r, 12 * p * q * r)


def dfs_configurations(curve, max_cusps):
    """All multisets of at most max_cusps cusps with total delta equal to g,
    each in nondecreasing (delta, r, s) order."""
    # Every cusp of delta at most g, in (delta, r, s) order.
    choices = [
        (delta, cusp)
        for delta in range(1, curve.g + 1)
        for cusp in cusps_with_delta(delta)
    ]
    # first[k] indexes the first cusp of delta k: every k >= 1 has (2, 2k + 1).
    first = [bisect_left(choices, (k,)) for k in range(curve.g + 1)]
    results = []
    partial = []
    # stack[k] holds, for the prefix partial[:k], the next index into
    # `choices` and the delta still missing.
    stack = [[0, curve.g]]
    while stack:
        frame = stack[-1]
        j, remaining = frame
        if len(partial) == max_cusps - 1:
            # One slot left: only a cusp of delta `remaining` completes.
            j = max(j, first[remaining])
        if j == len(choices) or choices[j][0] > remaining:
            stack.pop()
            if partial:
                partial.pop()
            continue
        frame[0] = j + 1
        delta, cusp = choices[j]
        partial.append(cusp)
        if delta < remaining:
            stack.append([j, remaining - delta])
            continue
        results.append(CuspConfiguration(partial))
        partial.pop()
    return results


def count_configurations(g, max_cusps):
    """The number of configurations of total delta g with at most max_cusps
    cusps, by a dynamic programme over (cusps used, total delta)."""
    # ways[c][t]: the multisets of c cusps of total delta t among the cusps
    # added so far.  c and t go up, so ways[c - 1] already counts the cusp
    # being added, which may therefore repeat.
    ways = [[1] + [0] * g] + [[0] * (g + 1) for _ in range(max_cusps)]
    for delta in range(1, g + 1):
        for _ in cusps_with_delta(delta):
            for c in range(1, max_cusps + 1):
                for t in range(delta, g + 1):
                    ways[c][t] += ways[c - 1][t - delta]
    return sum(ways[c][g] for c in range(1, max_cusps + 1))


def group_dispatch(argv):
    """`cli.main` without per-command parsers: the group parser of every
    command parses the whole argv, with the values of the options under the
    command or group that argv's leading command words name first joined (of
    every command if they name none).  Without `main`'s closed-stdout
    handling."""
    parser = cli._parser(())[0]
    path = []
    node = cli._COMMANDS
    for word in argv:
        if not isinstance(node, dict) or word not in node:
            break
        path.append(word)
        node = node[word]
    valued = cli._parser(tuple(path))[1]
    try:
        options = vars(parser.parse_args(cli._joined(argv, valued)))
        code = options.pop("run")(**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = cli.EXIT_ERROR
    sys.exit(code)
