#!/usr/bin/env python3
"""probevolume benchmark: one client, closed loop, in-process CLI requests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's request list and
input files are generated from the seed (perfbench/workloads.py), then
served one after another through ``probevolume.data_cli.main(argv)``: the
same parse, validate, compute and emit path as the ``probevolume`` command,
without paying interpreter start and import on every call. That cold start
is measured on its own, as ``setup_s``, in fresh interpreters.

The list is served in whole passes for about ``--seconds``; every response
is checked (perfbench/checks.py). Latency metrics use each request's median
time over the passes: ``request_p50_ms``/``request_p90_ms`` are quantiles of
those over the list, ``requests_per_s`` is the list length over their sum.

Request times are reference milliseconds (perfbench/speed.py): a fixed
speed probe runs after every request, and each wall time is scaled by the
probe times measured beside it, so the host's speed drift cancels while a
change to the program shows in full. The raw wall-time figures are printed
on a line of their own. ``setup_s`` is wall time: import time follows the
probe too loosely for the scale to steady it.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` one
untraced pass is followed by traced passes, and the metrics are the
per-layer ones of perfbench/layers.py, per pass of the list. Lines before
the result give the provenance, workload properties, sample counts and
every failed request with its reason.

Workloads (seed-invariant cost, see workloads.py):
  ingest      estimate over generated footprint CSVs, 1e3 to 2e5 rows, with
              bad rows, label filters and invalid requests; CSV parsing only
  density     pdf: band accumulation, m-fold convolution, CSV emission
  cordon      optimize (and precision): the variance quadrature only
  montecarlo  simulate, experiment, emit + estimate, calibrate, apply
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import workloads
from speed import reference_times, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated q-quantile; refuses unless ten samples lie above it."""
    n = len(samples)
    if n * (1.0 - q) < 10:
        raise ValueError(f"{n} samples leave fewer than 10 beyond the {q:g} quantile")
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def serve(main, argv: list[str]):
    """One in-process CLI call with stdout and stderr captured; times only the call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a traceback escaping the CLI is a failed request
            rc, error = -1, traceback.format_exc(limit=3).strip().splitlines()[-1]
        latency = time.perf_counter() - start
    return checks.Response(rc, out.getvalue(), err.getvalue(), latency, error)


def measure_setup(presets: list[str]) -> float:
    """Median cold start of fresh interpreters: import plus the workload's presets."""
    loads = "".join(
        "probe_simulator.load_sites('table2');" if p == "table2"
        else f"speed_model.load_distribution({p!r});"
        for p in presets
    )
    code = (
        "import time; t0 = time.perf_counter(); import probevolume; "
        "from probevolume import probe_simulator, speed_model; "
        f"{loads} print(repr(time.perf_counter() - t0))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_SAMPLES + 1):  # the first run may compile bytecode
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    import probevolume

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    backend_fn = getattr(probevolume, "active_backend", None)
    backend = backend_fn() if backend_fn else "numpy"
    commit = dirty = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                        cwd=ROOT, check=True, capture_output=True,
                                        text=True).stdout.strip())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "PROBEVOLUME_BACKEND": os.environ.get("PROBEVOLUME_BACKEND"),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "git_dirty_src": dirty,
        # numba builds cannot be checked on every machine; only numpy numbers compare
        "comparable": backend == "numpy",
    }


class Runner:
    """Serves the request list in whole passes and checks every response."""

    def __init__(self, main, workload, checker):
        self.main = main
        self.workload = workload
        self.checker = checker
        self.latencies: list[list[float]] = [[] for _ in workload.requests]  # reference s
        self.wall: list[list[float]] = [[] for _ in workload.requests]
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.tracer = None

    def run_pass(self) -> float:
        """One pass of the list; returns its busy time (sum of wall times)."""
        self.checker.new_pass()
        wall, probes = [], []
        for req in self.workload.requests:
            if self.tracer is not None:
                self.tracer.rid = req.rid
            resp = serve(self.main, req.argv)
            probes.append(speed_probe())
            wall.append(resp.latency_s)
            self.attempted += 1
            if self.tracer is not None:
                written = sum((self.checker.workdir / p).stat().st_size for p in req.outputs
                              if (self.checker.workdir / p).exists())
                self.tracer.add("data_cli", "bytes_out",
                                len(resp.stdout.encode()) + len(resp.stderr.encode()) + written)
            reason = self.checker.check(req, resp)
            if reason:
                self.failures.append((req.rid, reason))
        for i, (w, r) in enumerate(zip(wall, reference_times(wall, probes))):
            self.wall[i].append(w)
            self.latencies[i].append(r)
        return sum(wall)

    def run_passes(self, seconds: float, start: float, after=None) -> tuple[int, float]:
        """Whole passes while the next one is expected to end within ``seconds``."""
        passes, busy = 0, 0.0
        while True:
            begin = time.perf_counter()
            busy += self.run_pass()
            passes += 1
            if after is not None:
                after()
            now = time.perf_counter()
            if now - start + (now - begin) > seconds:
                return passes, busy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "probevolume" / "data_cli.py").is_file():
        print(f"no probevolume sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probevolume
    from probevolume import data_cli

    if Path(probevolume.__file__).resolve().parent != SRC / "probevolume":
        print(f"imported probevolume from {probevolume.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.generate(args.workload, args.seed, workdir)
        setup_s = None if args.trace else measure_setup(wl.presets)
        list_digest = hashlib.sha256(workloads.request_list_bytes(wl)).hexdigest()
        reference = (checks.load_reference(wl.name, list_digest)
                     if args.seed == checks.DEFAULT_SEED else None)
        checker = checks.Checker(workdir, checks.VarianceOracle(SRC / "probevolume" / "presets"),
                                 reference)
        runner = Runner(data_cli.main, wl, checker)
        os.chdir(workdir)
        start = time.perf_counter()
        if args.trace:
            # one untraced pass for the overhead baseline, then traced passes
            _, busy0 = runner.run_passes(0.0, start)
            tracer = layers.Tracer()
            runner.tracer = tracer
            runner.main = tracer.span("data_cli", data_cli.main)
            snapshots = []
            tracer.install()
            try:
                passes, busy = runner.run_passes(
                    args.seconds, start, lambda: snapshots.append(tracer.count_snapshot()))
            finally:
                tracer.remove()
            first = snapshots[0]
            for k, snap in enumerate(snapshots[1:], start=2):
                delta = {key: v - snapshots[k - 2].get(key, 0) for key, v in snap.items()}
                if delta != first:
                    runner.failures.append((f"trace-pass-{k}", "layer counts differ from pass 1"))
            n = len(wl.requests)
            overhead = passes * n / busy - n / busy0
            metrics = {name: {"value": value, "unit": layers.LAYER_METRICS[name][0]}
                       for name, value in tracer.metrics(passes, overhead).items()}
            largest, largest_s = tracer.largest_self_time()
            predicted = layers.PREDICTED_LARGEST[wl.name]
            tracer.write(ROOT / ".perfbench_out" / f"spans-{wl.name}.csv")
            print(json.dumps({"largest_self_time": largest,
                              "largest_self_time_s_per_pass": largest_s / passes,
                              "predicted": predicted,
                              "matches_prediction": largest == predicted,
                              "traced_passes": passes}))
        else:
            passes, busy = runner.run_passes(args.seconds, start)
            # each request's median over the passes: a disturbed pass moves nothing
            lat_ms = [statistics.median(x) * 1000.0 for x in runner.latencies]
            wall_ms = [statistics.median(x) * 1000.0 for x in runner.wall]
            print(json.dumps({"wall_time": {
                "requests_per_s": 1000.0 * len(wall_ms) / sum(wall_ms),
                "request_p50_ms": percentile(wall_ms, 0.5),
                "request_p90_ms": percentile(wall_ms, 0.9)}}))
            metrics = {
                "setup_s": setup_s,
                "requests_per_s": 1000.0 * len(lat_ms) / sum(lat_ms),
                "request_p50_ms": percentile(lat_ms, 0.5),
                "request_p90_ms": percentile(lat_ms, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
            print(json.dumps({"latency_samples": len(lat_ms), "passes": passes,
                              "busy_s_per_pass": busy / passes}))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(json.dumps({"provenance": provenance(wl.name, args.seed)}))
    print(json.dumps({"workload_properties": wl.properties}))
    for rid, reason in runner.failures:
        print(f"FAILED {rid}: {reason}")
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
