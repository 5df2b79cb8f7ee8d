"""Paths, source lookup and request plumbing shared by the benchmark scripts.

The benchmark runs from the root of a source checkout: the package is
imported from `src/` of that checkout and never from an installed copy, so
the numbers always belong to the code next to the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

# Exit status of the benchmark when it cannot run at all (no source tree,
# bad arguments).  It then prints no result line.
EXIT_UNUSABLE = 2


def require_source():
    """Import `cuspidal.cli` from this checkout's `src/`, or exit with EXIT_UNUSABLE."""
    if not (SRC / "cuspidal" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}/cuspidal", file=sys.stderr)
        raise SystemExit(EXIT_UNUSABLE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cuspidal.cli

    if not Path(cuspidal.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: cuspidal imported from {cuspidal.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_UNUSABLE)
    return cuspidal.cli


def child_env() -> dict:
    """Environment for a fresh interpreter that imports the package from `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def exit_code(exc: SystemExit) -> int:
    code = exc.code
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def call_cli(cli_module, argv: Sequence[str]) -> Tuple[float, int, str]:
    """Run `cuspidal.cli.main(argv)` in this process; return (seconds, exit code, stdout).

    `main` is looked up on the module at call time, so a traced run sees the
    wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_module.main(list(argv))
            code = 0
        except SystemExit as exc:
            code = exit_code(exc)
        except Exception:
            # A crash is a wrong answer: the caller counts it as a failed request.
            traceback.print_exc()
            code = -1
    return time.perf_counter() - start, code, out.getvalue()


def digest(argv: Sequence[str], stdout: str) -> str:
    """Digest of a report: canonical JSON for `--json` requests, stripped text otherwise."""
    if "--json" in argv:
        try:
            text = json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
        except ValueError:
            text = "unparseable:" + stdout
    else:
        text = stdout.strip()
    return hashlib.sha256(text.encode()).hexdigest()


def request_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


def load_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
