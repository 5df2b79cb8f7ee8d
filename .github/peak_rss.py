"""Run the CLI in this process and record the process's peak resident memory.

    python3 .github/peak_rss.py KB_FILE ARG...

runs `cuspidal ARG...` through `cuspidal.cli.main` and, at exit, writes the
VmHWM line of /proc/self/status, in kB, to KB_FILE.
"""

import atexit
import sys

from cuspidal.cli import main


def peak():
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    with open(sys.argv[1], "w") as out:
        out.write(str(kb))


if __name__ == "__main__":
    atexit.register(peak)
    main(sys.argv[2:])
