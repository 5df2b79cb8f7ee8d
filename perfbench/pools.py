"""Request pools of the three workloads and the seeded schedule drawn from them.

Every pool is fixed: it is built from plain arithmetic with constant pool
seeds, never from the package under test, so the expected outputs stored in
`expected.json` cover every request a run can draw.

A pool is split into bands of requests of similar cost.  A run is a list of
rounds; each round takes a fixed number of unused units from every band and
shuffles them.  The workload seed decides which units land in which round and
their order.  A pool holds about one run of work on the machine the
benchmark was tuned on, so a run normally makes every request of its pool
and runs differ only in order: which requests a seed drew was the larger
part of the seed-to-seed spread.  When a slower machine stops a run early,
every round done still has the same band mix.

A unit is one request, or a group of requests whose outputs are checked
against each other (the reciprocity laws): {"band", "argv": [argv, ...], "law"}.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

Unit = Dict[str, object]
Band = Tuple[str, int, List[Unit]]  # (name, units per round, units)


def _curves(max_a: int, max_b: int) -> List[Tuple[int, int, int, int]]:
    """Valid curve types (a, b, e) with e in {0, 1, 2}, and their genus."""
    found = []
    for e in (0, 1, 2):
        for b in range(1, max_b + 1):
            for a in range(0, max_a + 1):
                d = 2 * a * b + b * b * e
                g = (a - 1) * (b - 1) + b * (b - 1) * e // 2
                if d > 0 and g >= 0:
                    found.append((a, b, e, g))
    return found


def _unicuspidal(g: int) -> List[Tuple[int, int]]:
    """One-pair cusps (r, s) with delta invariant g."""
    mu = 2 * g
    cusps = []
    for d1 in range(1, math.isqrt(mu) + 1):
        d2 = mu // d1
        if mu % d1 == 0 and d1 < d2 and math.gcd(d1 + 1, d2 + 1) == 1:
            cusps.append((d1 + 1, d2 + 1))
    return cusps


def _argv(command: str, a: int, b: int, e: int, *rest: str) -> List[str]:
    return [command, "--a", str(a), "--b", str(b), "--e", str(e), *rest]


# --- check_unicusp -------------------------------------------------------

# (band, lowest g, highest g, requests per round).  The counts put the
# median inside band "xs" and the 90th percentile inside band "m", away from
# band edges; "l" holds (20,20,0) at g = 361 and "xl" the interactive target
# (30,30,0) at g = 841.
CHECK_BANDS = (
    ("xs", 30, 60, 24),
    ("s", 70, 100, 8),
    ("m", 120, 160, 4),
    ("l", 330, 361, 1),
    ("xl", 800, 841, 1),
)
CHECK_POOL_ROUNDS = 3
CHECK_FORCED = {"xl": (30, 30, 0)}


def check_pool() -> List[Band]:
    """One curve plus one unicuspidal cusp per request, every cusp used once."""
    curves_by_g: Dict[int, List[Tuple[int, int, int]]] = {}
    for a, b, e, g in _curves(30, 30):
        curves_by_g.setdefault(g, []).append((a, b, e))
    bands = []
    for name, lo, hi, per_round in CHECK_BANDS:
        rng = random.Random(f"check_unicusp/pool/{name}")
        choices = []
        for g in range(lo, hi + 1):
            curves = curves_by_g.get(g)
            if not curves:
                continue
            for cusp in _unicuspidal(g):
                choices.append((rng.choice(curves), cusp))
        wanted = per_round * CHECK_POOL_ROUNDS
        picked = []
        forced = CHECK_FORCED.get(name)
        if forced:
            a, b, e = forced
            g = (a - 1) * (b - 1) + b * (b - 1) * e // 2
            cusp = rng.choice(_unicuspidal(g))
            picked.append((forced, cusp))
            choices = [c for c in choices if c[1] != cusp]
        picked += rng.sample(choices, min(wanted - len(picked), len(choices)))
        units = [
            {
                "band": name,
                "argv": [_argv("check", a, b, e, "--cusp", f"{r}:{s}", "--json")],
                "law": None,
            }
            for (a, b, e), (r, s) in picked
        ]
        bands.append((name, per_round, units))
    return bands


# --- enumerate_multicusp -------------------------------------------------

# (band, lowest genus, highest genus, max cusps, requests per round).  A
# band is a window of three genera (21 to 28 curves), from which the pool
# takes a fixed sample.  Two "g15" requests per round put the median inside
# that band.
ENUMERATE_BANDS = (
    ("g12", 11, 13, 3, 1),
    ("g15", 14, 16, 3, 2),
    ("g18", 17, 19, 3, 1),
)
ENUMERATE_POOL_ROUNDS = 7


def enumerate_pool() -> List[Band]:
    """`enumerate --max-cusps 3` on curves with a ≤ 30, b ≤ 30 of the band's genera."""
    bands = []
    for name, lo, hi, max_cusps, per_round in ENUMERATE_BANDS:
        rng = random.Random(f"enumerate_multicusp/pool/{name}")
        curves = [(a, b, e) for a, b, e, g in _curves(30, 30) if lo <= g <= hi]
        units = [
            {
                "band": name,
                "argv": [_argv("enumerate", a, b, e, "--max-cusps", str(max_cusps), "--json")],
                "law": None,
            }
            for a, b, e in rng.sample(curves, per_round * ENUMERATE_POOL_ROUNDS)
        ]
        bands.append((name, per_round, units))
    return bands


# --- sawtooth_spectra ----------------------------------------------------

SAWTOOTH_BANDS = (
    ("s_pair", 8),
    ("d_triple", 4),
    ("limits_low", 1),
    ("limits_high", 1),
    ("spectrum", 10),
)
SAWTOOTH_POOL_ROUNDS = 20
MODULUS_RANGE = (10**4, 10**5)
# Seven max-w per band, geometric from 10^5 to 10^6 in all, times b in
# {2..9}: 56 (b, max-w) pairs per band, of which the pool takes one per round.
LIMITS_MAX_W = {
    "limits_low": (100000, 113646, 129155, 146780, 166810, 189573, 215443),
    "limits_high": (464159, 527500, 599484, 681292, 774264, 879923, 1000000),
}


def _coprime_tuples(rng: random.Random, size: int, count: int) -> List[Tuple[int, ...]]:
    found: List[Tuple[int, ...]] = []
    seen = set()
    while len(found) < count:
        values = tuple(rng.randint(*MODULUS_RANGE) for _ in range(size))
        if values in seen or any(
            math.gcd(x, y) != 1 for i, x in enumerate(values) for y in values[i + 1:]
        ):
            continue
        seen.add(values)
        found.append(values)
    return found


def sawtooth_pool() -> List[Band]:
    count = {name: per_round * SAWTOOTH_POOL_ROUNDS for name, per_round in SAWTOOTH_BANDS}
    rng = random.Random("sawtooth_spectra/pool")
    units: Dict[str, List[Unit]] = {}
    units["s_pair"] = [
        {
            "band": "s_pair",
            "argv": [["dedekind", "s", str(p), str(q)], ["dedekind", "s", str(q), str(p)]],
            "law": ["two_term", p, q],
        }
        for p, q in _coprime_tuples(rng, 2, count["s_pair"])
    ]
    units["d_triple"] = [
        {
            "band": "d_triple",
            "argv": [
                ["dedekind", "d", str(p), str(q), str(r)],
                ["dedekind", "d", str(r), str(p), str(q)],
                ["dedekind", "d", str(q), str(r), str(p)],
            ],
            "law": ["three_term", p, q, r],
        }
        for p, q, r in _coprime_tuples(rng, 3, count["d_triple"])
    ]
    for name, widths in LIMITS_MAX_W.items():
        grid = [(b, w) for b in range(2, 10) for w in widths]
        units[name] = [
            {
                "band": name,
                "argv": [["dedekind", "limits", "--b", str(b), "--max-w", str(w), "--json"]],
                "law": None,
            }
            for b, w in rng.sample(grid, count[name])
        ]
    curves = [(a, b, e) for a, b, e, _ in _curves(120, 120)]
    units["spectrum"] = [
        {
            "band": "spectrum",
            "argv": [_argv("spectrum", a, b, e, "--method", "both", "--json")],
            "law": ["agree"],
        }
        for a, b, e in rng.sample(curves, count["spectrum"])
    ]
    return [(name, per_round, units[name]) for name, per_round in SAWTOOTH_BANDS]


# Workload -> (pool builder, where requests run).  "inproc" requests call
# cuspidal.cli.main in the benchmark process; "subprocess" requests start a
# fresh interpreter each, as a user running `cuspidal enumerate` does.
WORKLOADS = {
    "check_unicusp": (check_pool, "inproc"),
    "enumerate_multicusp": (enumerate_pool, "subprocess"),
    "sawtooth_spectra": (sawtooth_pool, "inproc"),
}

# One request outside every pool, run untimed before measuring so that lazy
# imports and first-call costs do not land on the first timed request.
WARMUP = {
    "check_unicusp": ["check", "--a", "6", "--b", "6", "--cusp", "6:11", "--json"],
    "enumerate_multicusp": None,
    "sawtooth_spectra": ["spectrum", "--a", "6", "--b", "4", "--method", "both", "--json"],
}


def schedule(workload: str, seed: int) -> List[List[Unit]]:
    """The run's rounds for this seed: every band's units shuffled, dealt per round."""
    bands = WORKLOADS[workload][0]()
    rng = random.Random(f"{workload}/{seed}")
    dealt = {name: rng.sample(units, len(units)) for name, _, units in bands}
    n_rounds = min(len(units) // per_round for _, per_round, units in bands)
    rounds = []
    for i in range(n_rounds):
        round_units = []
        for name, per_round, _ in bands:
            round_units += dealt[name][i * per_round:(i + 1) * per_round]
        rng.shuffle(round_units)
        rounds.append(round_units)
    return rounds


def all_requests(workload: str) -> List[List[str]]:
    """Every argv the workload's pool can draw."""
    return [argv for _, _, units in WORKLOADS[workload][0]() for unit in units for argv in unit["argv"]]
