#!/usr/bin/env python3
"""Write the reference outputs that runs with the default seed are held to.

    python3 perfbench/make_reference.py [--workload NAME ...]

Serves each workload's default-seed request list once, requires every
invariant check to pass, and stores the key result values of every request
(perfbench/checks.py, ``key_values``) with a digest of the request list.
Regenerate only when the request lists change on purpose, or when a
program change is meant to change results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import run

import checks
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from probevolume import data_cli

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        workdir = run.WORK / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            wl = workloads.generate(name, checks.DEFAULT_SEED, workdir)
            oracle = checks.VarianceOracle(run.SRC / "probevolume" / "presets")
            checker = checks.Checker(workdir, oracle, None)
            os.chdir(workdir)
            values = {}
            for req in wl.requests:
                resp = run.serve(data_cli.main, req.argv)
                reason = checker.check(req, resp)
                if reason:
                    print(f"{req.rid}: {reason}", file=sys.stderr)
                    return 1
                if req.kind != "ingest_error":
                    values[req.rid] = checks.key_values(req, resp, workdir)
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
        doc = {
            "workload": name,
            "seed": checks.DEFAULT_SEED,
            "request_list_sha256": hashlib.sha256(workloads.request_list_bytes(wl)).hexdigest(),
            "values": values,
        }
        path = checks.REFERENCE_DIR / f"seed{checks.DEFAULT_SEED}-{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}: {len(values)} requests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
