"""CI's pinned CLI requests, one row of `GATES` each, and the runner that checks them.

    python3 .github/gates.py    # with PYTHONPATH=src in a checkout without an install

runs every request in a fresh interpreter through `peak_rss.py`, prints one
line per run, ok or FAIL, with its wall time, peak RSS and request, and
exits 1 if any run failed.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from itertools import chain
from pathlib import Path

FLAGS = {"json": ["--json"], "txt": [], "csv": ["--csv"]}
PEAK_RSS = Path(__file__).with_name("peak_rss.py")

# A request runs once per format that `runs` names, within `seconds`; each
# run must exit with `code`, print bytes with the sha256 that `runs` gives
# (None pins none) and have `stderr` in its stderr.  The `--json` run must
# also print a canonical report with the verdict `tally` (see `tally`) and
# the `results` values, and peak under `rss_mb` MB (0: no bound).
Gate = namedtuple("Gate", "seconds argv runs code tally results stderr rss_mb",
                  defaults=(0, (), {}, "", 0))

GATES = [
    # The sawtooth kernels at moduli near 10^12.
    Gate(20, "dedekind s 999999999989 1000000000039", {"txt": None}),
    Gate(20, "dedekind d 999999999989 1000000000039 1000000000061", {"txt": None}),
    # Odd and even b take the two proof subsequences.
    Gate(20, "dedekind limits --b 7 --max-w 1000000000", results={"all_within_tol": True},
         runs={"json": "a13ae3c2324ec57441856477759f5e8b4f2e00c7769576c996e248f9210b706e"}),
    Gate(20, "dedekind limits --b 8 --max-w 1000000000", results={"all_within_tol": True},
         runs={"json": "8003397b513d285787b4802cc5eeaf8372771e2ecbb33c62c673e5eab88d91fd"}),
    # The spectrum constructions agree on a large curve.  Its two progressions
    # of the spectrum at infinity meet; those of (240,60,0) do not.
    Gate(20, "spectrum --a 1000 --b 999 --method both", results={"methods_agree": True},
         runs={"json": "b67ac7cb043f3bcdb6137482ce817209a2661d03073ee1ba2fa02c7ce1f8cce7",
               "txt": "d7e2e365f1926f7f738df95dd2782ee335ccbfad001435aa11a82bf51003660a",
               "csv": "efa910633092f86d71220853234ebc63260069419c121d66ef1ad41cb1aef67e"}),
    # The signature route's own entries at that size.
    Gate(20, "spectrum --a 1000 --b 999 --method derived",
         runs={"json": "786d9745ce8e64a40afd9e52238c6c1617743bc972ec43bcfc6c8bdf3c17d682",
               "txt": "4b53859f341b9efc43b89d76374c4180d6c3047c015851dde4c8bc98a5aa01a7",
               "csv": "efa910633092f86d71220853234ebc63260069419c121d66ef1ad41cb1aef67e"}),
    Gate(20, "spectrum --a 240 --b 60 --method both",
         runs={"json": "1b5fe66b52a35d9d4cf45b2284c8661f17dda0f23fc783906b340235be58692c",
               "txt": "e4b21b27c95d6312b5e682659b39cca2425188a670de2226e9a5b6ec2d262095",
               "csv": "3b34760d0fb73a457e77c39ce327cad39e914fd9d72e4d1a9ccba260899e22d5"}),
    Gate(20, "spectrum --a 7 --b 7 --e 2 --method both",
         runs={"json": "7ca64417be87d9d4772785f91b76291e2b9e6ade4278132ba6c5a0c73907f287",
               "txt": "e61990da08913fa832cfd5f79b9b17c9bcead44159bb170879e64435b9ee688d",
               "csv": "1f16c46f5375284de292207a21e629aff9a221f6889fa1bccbc4c642b70e7a02"}),
    # The degenerate edges: no value at all; b = 1, so the q-row is empty; a = 0.
    Gate(20, "spectrum --a 0 --b 1 --e 1 --method both",
         runs={"json": "1ca4188cd927429591be0daab15e940791995bad735f9b14cf3cced83543f9ed"}),
    Gate(20, "spectrum --a 300 --b 1 --e 0 --method both",
         runs={"json": "3161411af22f7962507c4386c6be35a5ef30f2cf9381e9e98adb123dc855c7f2"}),
    Gate(20, "spectrum --a 0 --b 300 --e 1 --method both",
         runs={"json": "0665b8d6dec7af4b9a9ca1a1adc2853b7c54c766137966aa1b8d6751ad162ee6"}),
    # b = 1 and w = 10^8 + 7: the table walks no p-row of zeros.
    Gate(10, "spectrum --a 7 --b 1 --e 100000000",
         runs={"json": "59ce5ec24e11227176ae3e70e9777041e38c349de73fc3e3ac0f4e4c87277a96"}),
    # a = 1 and b = 10^7: the table walks no q-row of zeros.
    Gate(10, "spectrum --a 1 --b 10000000", rss_mb=25,
         runs={"json": "7ea3d9ceaabe57b60b69d92b847b2f5bb478f36714e353a5e690e367af2be1ab"}),
    # With one cusp, (300,300,0) builds only the cusps of delta g.
    Gate(20, "enumerate --a 300 --b 300", tally=(8, 2, 1, 5, 1), rss_mb=45,
         runs={"json": "08158ce9d8bddf548881628ee6c65107fd7c5db1aaf28a5c6b62d235cd1aa88e"}),
    # One cusp at g = 998,001; c = 1000, so the HF line has 1,997 entries.
    Gate(90, "enumerate --a 1000 --b 1000", tally=(18, 2, 3, 13, 1), rss_mb=190,
         runs={"json": "78ab22bcf75b0b5f99c1fef2ea14e6da9b33983b40dd393aae9119ccd086747e"}),
    # (3000,3000,0) with two cusps trips the cap at its first configuration.
    Gate(10, "enumerate --a 3000 --b 3000 --max-cusps 2 --cap 0", {"txt": None}, code=1,
         stderr="more than 0 genus-compatible configurations"),
    # A cusp of the wrong genus is refused before the HF line of m in [-g, g].
    Gate(10, "check --a 2000 --b 1999 --cusp 2:3", {"txt": None}, code=1,
         stderr="genus mismatch: expected sum(mu/2) = g = 3994002, got 1"),
    # An m out of range is refused before the fold of g = 9,801.
    Gate(10, "dinv --a 100 --b 100 --cusp 3:4901 --cusp 2:9803 --m 100000", {"txt": None},
         code=1, stderr="m must lie in [-20000/2, 20000/2), got 100000"),
    # Mixed witness kinds; rows under results.values; 2,302 witnesses.
    Gate(20, "check --a 0 --b 5 --e 2 --cusp 2:3 --cusp 3:4 --cusp 4:9", code=2,
         runs={"json": "59ad288218a7f96c6ab845304478f01c365880ab64b83c0e502967c65d4259d3",
               "txt": "477ce30544cc700e0d375626e0307a3501400c3a0d827182acd73758e7013072",
               "csv": "19fddc1be8e8ad47e41107c2b391be028c3454e3791d60e44473cb45671f5ca6"}),
    # c = 1: the HF line's 178,205 entries are read as they are walked, not held.
    Gate(10, "check --a 300 --b 299 --cusp 2:178205 --only hf", rss_mb=30,
         runs={"json": "9e2d2e7b5331f62cb3698219d5daf91561e31f40913ce6e25d24a64141cb962d"}),
    # c = 1 at g = 997,002: the HF line's 1,994,005 entries, each one floor division.
    Gate(10, "check --a 1000 --b 999 --cusp 2:1994005 --only hf", rss_mb=100,
         runs={"json": "ff1378fa0806c1774d653dd1f5d2031d30672a3d6aa0617600217b45796ad1f5"}),
    # A spectrum survivor at g = 998,001: check's ordered stream walks every
    # scan point up, and down not at all.
    Gate(20, "check --a 1000 --b 1000 --cusp 730:2739 --only spectrum", rss_mb=110,
         runs={"json": "bf69d5d8c93c774114d79e30dab3d5dc9238e8c529dae35fadcb9530467b3103"}),
    # 327,784 spectrum witnesses, 62 MB of JSON, streamed in order as they are found.
    Gate(10, "check --a 300 --b 300 --cusp 2:178803 --only spectrum", code=2, rss_mb=58,
         runs={"json": "11eaa81ae783c16916f906e487ce0ea56b4de82388805fa1e9ac7ca39fb76533"}),
    # The rational plane curve y^299 z = x^300, blown up at a point off it, has
    # one cusp (299,300) of g = 44,551 and must pass both filters.
    Gate(10, "check --a 0 --b 300 --e 1 --cusp 299:300", rss_mb=40,
         results={"verdict": "survives"},
         runs={"json": "0b77e23b9a96409b3233b52c872ecdc3d4dd0b66a2faffe8550acfe48deb21b3",
               "txt": "a420a14a07ebe9db46b9f461dbaabc782b8122b7149fc7361c72ddd3b2c3cac7"}),
    Gate(20, "dinv --a 6 --b 6 --cusp 6:11 --all-m",
         runs={"json": "864978f07174ed784e92c47d49aa04b88800562bea968dfe9c22351ac62d4ab0"}),
    # A round-1 target.
    Gate(20, "check --a 30 --b 30 --cusp 3:842", code=2,
         runs={"json": "72ccde78e91abda805489558b0695cd22933104ae8c9eaba752e833970a53203",
               "txt": "0ef6a4ca8ba7bcbd2272ee7d58db15d6be6581daff9cdae174883acc01da656e",
               "csv": "a0246d987cf879969582915a3db5c342075f0bb3344da9355cc9dcf60db2bdeb"}),
    # A non-diagonal enumerate with e = 1 and a three-cusp dinv over every m.
    Gate(60, "enumerate --a 9 --b 7 --e 1 --max-cusps 3", tally=(6953, 1962, 950, 4220, 795),
         runs={"json": "dde2f8367a4988e71109fb6e34cd55d2c797cedc905229ba6bd6c5de4fcab371"}),
    Gate(20, "dinv --a 6 --b 4 --cusp 2:3 --cusp 2:5 --cusp 5:7 --all-m",
         runs={"json": "8f0f66616b87d0e7129e7486c6508d23c39abe394b5cdda782dde08bde730ff2"}),
    # The frontier, each in one process: a round-1 target, then ever larger g.
    Gate(60, "enumerate --a 8 --b 8 --max-cusps 3", tally=(2856, 1335, 154, 1367, 46),
         runs={"json": "1e37c11f613c8b8d4fe645c9e2e2dac3e56d272a74ba33563b0b0464748026cb",
               "txt": "b968114f76703c375f460f0696f5506452314709f67e8a10c97140c01ddb3113",
               "csv": "b870e439ff24d0244224ac7d86382cd920a2c5202017b5dc9deac5535587325e"}),
    Gate(120, "enumerate --a 10 --b 10 --max-cusps 3", rss_mb=40,
         tally=(10644, 3221, 638, 6801, 213),
         runs={"json": "f728b7198710cf5e81367701635e02c7d1c0c6e8281beed7a0a0830b0fb28334",
               "txt": "802bd93eec52adb7832baa003d240eb06a733f8de27e83292ad8f3595eaac16c",
               "csv": "3129606088ae3a30e0fa7a2fda755851fcebce935bde24fc7917c0cd6056fd98"}),
    Gate(90, "enumerate --a 12 --b 12 --max-cusps 3", tally=(31409, 6470, 1571, 23493, 707),
         runs={"json": "9c7453ab5c15782eb4e2156a5154ab616c89fafd265b3a76be32ce55a1236616",
               "txt": "e5c30b17b010581a6c912f181c26398baedfbe6509ff85bc8405f6003f16db43",
               "csv": "acea2841eb66969e748ab636ffb48f92fff687099e5500a432067f76d4987c04"}),
    Gate(120, "enumerate --a 10 --b 10 --max-cusps 4", rss_mb=25,
         tally=(145690, 31782, 3045, 110993, 1110),
         runs={"json": "d39667a08f7e8502ba6aba2b631594995c76a4f8202558efd3af2d526103542f"}),
    Gate(180, "enumerate --a 14 --b 14 --max-cusps 3", tally=(74511, 11646, 3367, 59931, 1362),
         runs={"json": "c01b2be6f9784451bdf6cc29943638709c9344f6acdcdccef14969c31971eb8b"}),
]


def tally(report):
    """count, survivors, HF and spectrum obstructions, multiplicity failures"""
    rows = report["witnesses"]
    return (
        report["results"]["count"],
        sum(row["survives"] for row in rows),
        sum(row["hf"] == "obstructed" for row in rows),
        sum(row["spectrum"] == "obstructed" for row in rows),
        sum(not row["multiplicity_ok"] for row in rows),
    )


def canonical(stdout, report):
    """Whether `stdout` is `json.dumps(report, sort_keys=True, indent=2)` and a
    newline, compared piece by piece, so that neither the text of `stdout` nor
    the whole re-encoding is ever held: a report can run to tens of MB."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    at = 0
    for piece in map(str.encode, chain(pieces, ["\n"])):
        if not stdout.startswith(piece, at):
            return False
        at += len(piece)
    return at == len(stdout)


def failures(gate, fmt, run, kb):
    """What one run of `gate` in `fmt` showed that its row does not expect."""
    if run is None:
        yield f"over its time limit of {gate.seconds} s"
        return
    if run.returncode != gate.code:
        yield f"exit code {run.returncode}, expected {gate.code}"
    digest = hashlib.sha256(run.stdout).hexdigest()
    if gate.runs[fmt] not in (None, digest):
        yield f"sha256 {digest}, expected {gate.runs[fmt]}"
    if gate.stderr not in run.stderr.decode():
        yield f"no {gate.stderr!r} on stderr"
    if fmt != "json":
        return
    try:
        report = json.loads(run.stdout)
        found = tally(report) if gate.tally else ()
        values = {key: report["results"][key] for key in gate.results}
    except (ValueError, KeyError, TypeError) as exc:
        yield f"no report: {exc!r}"
        return
    if not canonical(run.stdout, report):
        yield "not in the canonical JSON form"
    if found != gate.tally:
        yield f"tally {found}, expected {gate.tally}"
    if values != gate.results:
        yield f"results {values}, expected {gate.results}"
    if gate.rss_mb and kb >= gate.rss_mb * 1024:
        yield f"peak RSS {kb} kB, bound {gate.rss_mb} MB"


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        kb_file = Path(tmp, "peak_kb")
        for gate, fmt in ((gate, fmt) for gate in GATES for fmt in gate.runs):
            argv = [*gate.argv.split(), *FLAGS[fmt]]
            kb_file.write_text("0")
            start = time.perf_counter()
            try:
                command = [sys.executable, PEAK_RSS, kb_file, *argv]
                run = subprocess.run(command, capture_output=True, timeout=gate.seconds)
            except subprocess.TimeoutExpired:
                run = None
            wall, kb = time.perf_counter() - start, int(kb_file.read_text())
            found = list(failures(gate, fmt, run, kb))
            failed += bool(found)
            request = " | ".join([" ".join(["cuspidal", *argv]), *found])
            status = "FAIL" if found else "ok"
            print(f"{status:4} {wall:6.2f} s {kb / 1024:6.1f} MB  {request}", flush=True)
    print(f"{sum(len(gate.runs) for gate in GATES)} runs, {failed} failed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
