"""Record the expected exit code and report digest of every request in every pool.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json.  The stored outputs are the reference the
benchmark checks against, so rerun this only for a documented change of the
package's outputs, never to make a failing run pass.
"""

import sys
from pathlib import Path

from common import call_cli, digest, request_key, require_source, write_json
from pools import WORKLOADS, all_requests


def main() -> int:
    cli_module = require_source()
    expected = {}
    for workload in WORKLOADS:
        table = {}
        for argv in all_requests(workload):
            _, code, stdout = call_cli(cli_module, argv)
            table[request_key(argv)] = [code, digest(argv, stdout)]
        expected[workload] = table
        print(f"{workload}: {len(table)} requests", flush=True)
    write_json(Path(__file__).resolve().parent / "expected.json", expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
