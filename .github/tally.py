"""Check the verdict tally of an `enumerate --json` report.

    python3 .github/tally.py REPORT COUNT SURVIVE HF SPECTRUM MULTIPLICITY

prints the report's count, survivors, HF obstructions, spectrum
obstructions and multiplicity failures, and exits 1 unless they equal the
five numbers given.
"""

import json
import sys


def tally(report):
    rows = report["witnesses"]
    return [
        report["results"]["count"],
        sum(r["survives"] for r in rows),
        sum(r["hf"] == "obstructed" for r in rows),
        sum(r["spectrum"] == "obstructed" for r in rows),
        sum(not r["multiplicity_ok"] for r in rows),
    ]


if __name__ == "__main__":
    with open(sys.argv[1]) as report:
        found = tally(json.load(report))
    print(
        "count, survive, hf obstructed, spectrum obstructed, multiplicity fails:",
        found,
    )
    sys.exit(found != [int(n) for n in sys.argv[2:]])
