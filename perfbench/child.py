"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py cli -- ARGV...
        Run `cuspidal ARGV` the way the console script does, then write
        PEAK_MARK and the process's peak resident set in kB to stderr.
    python3 perfbench/child.py cli --spans FILE -- ARGV...
        The same, traced; spans, counts and the in-process request time go to FILE.
    python3 perfbench/child.py replay FILE
        Run the argv lists in FILE in this process, untraced, after the warm-up
        request in FILE, and print their times as JSON.  The traced run uses
        this to time the same requests without tracing, in a process whose
        caches the traced requests never touched.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PEAK_MARK = "perfbench-peak-rss-kb: "


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec (VmHWM).

    ru_maxrss is no use here: a child started by vfork carries its parent's
    peak over the exec, and the benchmark process can be the larger one.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_cli(args):
    spans_file = None
    if args[0] == "--spans":
        spans_file, args = args[1], args[2:]
    argv = args[1:]  # drop "--"
    if spans_file is None:
        from cuspidal.cli import main

        try:
            main(argv)
        finally:
            sys.stderr.write(f"{PEAK_MARK}{peak_rss_kb()}\n")
        return

    import json

    import cuspidal.cli
    from common import exit_code
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 0
    start = time.perf_counter()
    try:
        cuspidal.cli.main(argv)
    except SystemExit as exc:
        code = exit_code(exc)
    finally:
        request_s = time.perf_counter() - start
        tracer.uninstall()
        state = tracer.state()
        state["request_s"] = request_s
        with open(spans_file, "w") as handle:
            json.dump(state, handle)
    sys.exit(code)


def run_replay(path):
    import json

    from common import call_cli, load_json, require_source

    cli_module = require_source()
    job = load_json(Path(path))
    if job["warmup"]:
        call_cli(cli_module, job["warmup"])
    times = [call_cli(cli_module, argv)[0] for argv in job["requests"]]
    print(json.dumps({"request_s": times}))


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        run_cli(sys.argv[2:])
    elif sys.argv[1] == "replay":
        run_replay(sys.argv[2])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
