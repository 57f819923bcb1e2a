"""Run one probevolume request in this process and hold its peak memory to a limit.

    python .github/peak_rss.py LIMIT_MB -- SUBCOMMAND [ARGS...]

The request is ``data_cli.main(argv)`` with its stdout captured. The peak
resident set size of the process (import included) is printed, and the exit
status is 1 if the request exits non-zero, a missing or unreadable input
file included, or if the peak is over LIMIT_MB; else 0.
"""

from __future__ import annotations

import contextlib
import io
import resource
import sys


def main(args: list[str]) -> int:
    if len(args) < 3 or args[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    limit_mb = float(args[0])
    argv = args[2:]

    from probevolume import data_cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = data_cli.main(argv)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{argv[0]} exit {code}, peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)")
    return 1 if code != 0 or peak_mb > limit_mb else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
