"""Check that `--json` reports are written in the canonical form.

    python3 .github/canonical_json.py REPORT...

exits 1, naming the report, unless each file's text is exactly
`json.dumps(json.loads(text), sort_keys=True, indent=2)` plus a newline.
"""

import json
import sys


def canonical(text):
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    failed = False
    for path in sys.argv[1:]:
        with open(path) as report:
            if not canonical(report.read()):
                print(f"{path}: not in the canonical JSON form")
                failed = True
    sys.exit(failed)
