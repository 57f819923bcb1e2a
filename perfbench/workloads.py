"""Seeded request lists and input files for the four benchmark workloads.

Nothing here imports probevolume: the program under test never computes
its own inputs or the expected answers that come with them. Every list is
built from ``random.Random(f"{workload}:{seed}")``, so one seed always gives
byte-identical requests and files.

The cost of a request is set by a few structural parameters (rows per file,
grid step, m, grid points, probe passes). Those come from fixed multisets,
identical for every seed; the seed draws everything else (cordon placement,
speeds, presets, labels, order). That keeps the work per pass the same from
seed to seed while the inputs themselves change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("ingest", "density", "cordon", "montecarlo")
SPEED_PRESETS = ("park-i35", "table2-60mph", "table2-30mph")
PRESET_UPPER = {"park-i35": 40.0, "table2-60mph": 60.0, "table2-30mph": 60.0}
# documented scenario presets of `probevolume simulate`: (d, t), park-i35 mixture
SCENARIOS = {"s1": (300.0, 4.0), "s2": (40.0, 1.0)}
TABLE2_SITES = 34


@dataclass
class Request:
    """One CLI call: ``probevolume.data_cli.main(argv)`` from the work dir."""

    rid: str
    argv: list[str]
    kind: str  # which check applies, see checks.py
    expect: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)  # files the call writes


@dataclass
class Workload:
    name: str
    requests: list[Request]
    presets: list[str]  # what setup_s loads after the import
    properties: dict


def _r(x: float) -> str:
    return repr(float(x))


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files under ``workdir`` and return its requests.

    All paths in the requests are relative to ``workdir``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return _GENERATORS[name](rng, workdir)


def request_list_bytes(workload: Workload) -> bytes:
    """Canonical serialization of a request list, for determinism checks."""
    doc = [[r.rid, r.argv, r.kind, r.expect, r.outputs] for r in workload.requests]
    return json.dumps(doc, sort_keys=True).encode("utf-8")


# -- ingest ------------------------------------------------------------------

# (rows, files, requests per file); every request parses the whole file
_INGEST_FILES = ((200_000, 1, 1), (50_000, 2, 2)) + tuple(
    (rows, 1, 5)
    for rows in (1000, 1200, 1500, 1800, 2000, 2400, 2800, 3200, 3600, 4000,
                 4500, 5000, 5500, 6000, 7000, 8000, 9000, 10_000, 12_000, 15_000)
)
_BAD_ROW_SHARE = 0.002
# --strict requests on small files with bad rows, each must exit 3. A fixed
# count: these requests are cheap, so their number sets where p50 falls
_STRICT_FAILS = 4
_LABELS = ("jul", "aug", "sep")


def _bad_row(rng: random.Random, length: float) -> str:
    kind = rng.randrange(6)
    pos = _r(length * (1.0 - rng.random()))
    if kind == 0:
        return f"x{rng.randrange(1000)},12.5"  # position not a number
    if kind == 1:
        return pos  # speed column missing
    if kind == 2:
        return f"nan,{_r(rng.uniform(5, 30))}"  # non-finite position
    if kind == 3:
        return f"{pos},0"  # zero speed
    if kind == 4:
        return f"{pos},{_r(-rng.uniform(0.1, 5))}"  # negative speed
    return f"{pos},fast"  # speed not a number


def _write_footprints(rng, path: Path, rows: int, length: float, labelled: bool,
                      dirty: bool, cordons: list[tuple[float, float, str | None]],
                      force_bad: bool = False):
    """Write one footprint CSV; return (warning count, in-cordon speeds per cordon).

    A row is a warning when the program must skip it: unparseable, missing a
    column, non-finite position or non-positive speed. Blank lines are
    skipped silently and count for nothing. ``force_bad`` puts at least one
    bad row in the file.
    """
    kept = [[] for _ in cordons]
    bounds = [(start, start + d, label) for start, d, label in cordons]
    warnings = 0
    lines = ["position_m,speed_mps,label" if labelled else "position_m,speed_mps"]
    for _ in range(rows):
        u = rng.random()
        if dirty and u < _BAD_ROW_SHARE:
            lines.append(_bad_row(rng, length))
            warnings += 1
            continue
        if dirty and u < 1.5 * _BAD_ROW_SHARE:
            lines.append("")
            continue
        pos = length * (1.0 - rng.random())  # in (0, length]
        speed = max(0.5, rng.gauss(26.0, 6.0))
        label = rng.choice(_LABELS) if labelled else None
        lines.append(f"{_r(pos)},{_r(speed)}" + (f",{label}" if labelled else ""))
        for k, (lo, hi, want) in enumerate(bounds):
            if lo < pos <= hi and (want is None or want == label):
                kept[k].append(speed)
    if force_bad and not warnings:
        lines.insert(rng.randrange(1, len(lines) + 1), _bad_row(rng, length))
        warnings = 1
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return warnings, kept


def _dirty(file_no: int, rows: int) -> bool:
    """Whether a file gets bad and blank rows: the large ones and three in four others."""
    return rows >= 50_000 or file_no % 4 != 0


def _gen_ingest(rng: random.Random, workdir: Path) -> Workload:
    requests: list[Request] = []
    pending: list[tuple] = []
    rows_read = rows_in = 0
    sizes = [rows for rows, nfiles, _ in _INGEST_FILES for _ in range(nfiles)]
    strict_fails = set(rng.sample(
        [no for no, rows in enumerate(sizes, start=1) if rows <= 3000 and _dirty(no, rows)],
        _STRICT_FAILS))
    file_no = 0
    for rows, nfiles, per_file in _INGEST_FILES:
        for _ in range(nfiles):
            file_no += 1
            rel = f"in/foot-{file_no:02d}.csv"
            length = rng.uniform(1000.0, 5000.0)
            labelled = file_no % 2 == 0
            dirty = _dirty(file_no, rows)
            cordons = []
            for k in range(per_file):
                whole = k == 0  # the first request of a file takes every row
                if whole:
                    start, d = 0.0, length
                else:
                    d = length * rng.uniform(0.02, 0.15)
                    start = rng.uniform(0.0, length - d)
                label = rng.choice(_LABELS) if labelled and rng.random() < 0.5 else None
                cordons.append((start, d, label))
            warnings, kept = _write_footprints(
                rng, workdir / rel, rows, length, labelled, dirty, cordons,
                force_bad=file_no in strict_fails,
            )
            for (start, d, label), speeds in zip(cordons, kept):
                t = rng.choice((1.0, 2.0, 4.0))
                argv = ["estimate", "--footprints", rel, "--start", _r(start),
                        "--d", _r(d), "--t", _r(t)]
                if label is not None:
                    argv += ["--label", label]
                strict = not dirty and rng.random() < 0.3
                if strict:
                    argv.append("--strict")
                pending.append((argv, {
                    "m_hat": (t / d) * math.fsum(speeds),
                    "n": len(speeds),
                    "dropped_records": 0,
                    "warnings": warnings,
                }))
                rows_read += rows
                rows_in += len(speeds)
            if file_no in strict_fails:
                # --strict on a file with bad rows must fail with exit 3
                pending.append(([
                    "estimate", "--footprints", rel, "--start", "0.0",
                    "--d", _r(length), "--t", "1.0", "--strict"], {"exit": 3}))
    for k in range(3):  # a missing file must fail with exit 4
        pending.append((["estimate", "--footprints", f"in/missing-{k}.csv", "--start", "0.0",
                         "--d", "100.0", "--t", "1.0"], {"exit": 4}))
    rng.shuffle(pending)
    for i, (argv, expect) in enumerate(pending):
        kind = "ingest_error" if "exit" in expect else "ingest"
        requests.append(Request(f"ingest-{i:03d}", argv, kind, expect))
    props = {
        "requests": len(requests),
        "invalid_requests": sum(r.kind == "ingest_error" for r in requests),
        "rows_parsed_per_pass": rows_read,
        "keep_ratio": rows_in / rows_read,
    }
    return Workload("ingest", requests, [], props)


# -- density -----------------------------------------------------------------

# (grid step, m) of the ordinary requests: d/t >= 20.5 (>= 30.5 on the 60 m/s
# presets) keeps the grid at 2/step cells, so only step and m set the cost
_DENSITY_TYPICAL = (
    [(1e-2, m) for m in (1, 1, 2, 2, 3, 4, 4, 5, 6, 6, 8, 8, 10, 12, 12, 14, 16, 16, 20, 24, 28,
                         32)] * 3
    + [(5e-3, m) for m in (1, 1, 2, 2, 3, 4, 4, 5, 6, 8, 8, 10, 12, 16, 16, 20, 24, 32)]
    + [(1e-2, m) for m in (1, 2, 3, 4, 6, 8, 12, 16)]
    + [(1e-3, m) for m in (1, 4)]
)
# m on both sides of the direct/spectral switch at m = 64
_DENSITY_LARGE_M = ((1e-2, 64), (1e-2, 65), (1e-2, 128))
# short cordons, d/t <= 2: zero atom above 0.8
_DENSITY_SHORT = ((5.0, 4.0, 1e-2, 8), (8.0, 4.0, 1e-2, 4), (2.0, 1.0, 1e-2, 2))
# one single-probe density at 10k bands
_DENSITY_FINE = (2e-4, 1)


def _long_cordon(rng: random.Random, dist: str) -> tuple[float, float]:
    t = rng.choice((1.0, 2.0, 4.0))
    ratio_min = 20.5 if PRESET_UPPER[dist] == 40.0 else 30.5
    d = round(t * rng.uniform(ratio_min, 100.0), 1)
    return d, t


def _pdf_request(rid, m, d, t, dist, step) -> Request:
    out = f"out/{rid}.csv"
    argv = ["pdf", "--m", str(m), "--d", _r(d), "--t", _r(t), "--dist", dist,
            "--grid-step", _r(step), "--out", out]
    return Request(rid, argv, "pdf", {"m": m, "d": d, "t": t, "dist": dist}, [out])


def _gen_density(rng: random.Random, workdir: Path) -> Workload:
    specs = []
    tuples: dict[tuple, list[tuple]] = {}
    for i, (step, m) in enumerate(_DENSITY_TYPICAL + list(_DENSITY_LARGE_M)):
        # presets in fixed shares: a four-component mixture costs more per band
        dist = SPEED_PRESETS[i % len(SPEED_PRESETS)]
        # an analyst sweeps m on one cordon: reuse an earlier (d, t) half the time
        pool = tuples.setdefault((step, dist), [])
        if pool and rng.random() < 0.5:
            d, t = rng.choice(pool)
        else:
            d, t = _long_cordon(rng, dist)
            pool.append((d, t))
        specs.append((m, d, t, dist, step))
    for d, t, step, m in _DENSITY_SHORT:
        specs.append((m, d, t, "park-i35", step))
    specs.append((_DENSITY_FINE[1], *_long_cordon(rng, "park-i35"), "park-i35", _DENSITY_FINE[0]))
    rng.shuffle(specs)
    requests = [_pdf_request(f"density-{i:03d}", *spec) for i, spec in enumerate(specs)]
    seen, repeats = set(), 0
    for m, d, t, dist, step in specs:
        repeats += (d, t, dist, step) in seen
        seen.add((d, t, dist, step))
    props = {"requests": len(requests), "repeated_tuple_share": repeats / len(specs)}
    return Workload("density", requests, list(SPEED_PRESETS), props)


# -- cordon ------------------------------------------------------------------

# (dmax values, step, t, preset, count) of the optimize requests. Each class
# has one cost; their sizes put the median inside the (2, table2-30mph) class
# and the 90th percentile inside the dmax ~100 class, so neither percentile
# sits on a step between classes. Precision requests are the cheapest.
_CORDON_OPTIMIZE = (
    ((50.0,), 2.0, 4.0, "table2-60mph", 20),
    ((50.0,), 2.0, 2.0, "table2-30mph", 20),
    ((50.0,), 2.0, 1.0, "park-i35", 20),
    ((96.0, 100.0, 104.0, 108.0), 2.0, 2.0, "park-i35", 16),
    ((300.0,), 2.0, 4.0, "park-i35", 1),
)
_CORDON_PRECISION = 25
# README and acceptance criterion C6: the local optimum at d = 110
PINNED_OPTIMIZE = ["optimize", "--dmax", "150", "--t", "4", "--dist", "park-i35",
                   "--objective", "cv"]


def optimize_grid(dmax: float, step: float) -> list[float]:
    """The d grid `probevolume optimize` documents: step, 2*step, ..., <= dmax."""
    count = int(math.floor((dmax - step) / step + 1e-9))
    return [float(x) for x in step + step * np.arange(count + 1)]


def _gen_cordon(rng: random.Random, workdir: Path) -> Workload:
    specs = []
    for dmaxes, step, t, dist, count in _CORDON_OPTIMIZE:
        for k in range(count):
            dmax = dmaxes[k % len(dmaxes)]
            specs.append(("optimize", dmax, step, t, dist,
                          rng.choice(("cv", "vmr")), rng.choice((1, 1, 2, 4, 8, 16))))
    for k in range(_CORDON_PRECISION):
        # d on the even grids the optimize requests use; d/t sets the cost
        d, t = 10.0 + 2.0 * k, (1.0, 2.0, 4.0)[k % 3]
        specs.append(("precision", d, None, t, SPEED_PRESETS[k // 3 % 3], None,
                      rng.choice((1, 2, 4, 8, 16, 32, 64))))
    rng.shuffle(specs)
    specs.insert(rng.randrange(len(specs) + 1), "pinned")

    requests, keys, evaluations, repeats = [], set(), 0, 0
    for i, spec in enumerate(specs):
        rid = f"cordon-{i:03d}"
        if spec == "pinned":
            grid, t, dist = optimize_grid(150.0, 0.5), 4.0, "park-i35"
            requests.append(Request(rid, list(PINNED_OPTIMIZE), "optimize", {
                "dmax": 150.0, "step": 0.5, "t": 4.0, "dist": dist, "objective": "cv",
                "m": 1, "best_d": 110.0}))
        elif spec[0] == "optimize":
            _, dmax, step, t, dist, objective, m = spec
            grid = optimize_grid(dmax, step)
            argv = ["optimize", "--dmax", _r(dmax), "--t", _r(t), "--dist", dist,
                    "--objective", objective, "--m", str(m), "--step", _r(step)]
            requests.append(Request(rid, argv, "optimize", {
                "dmax": dmax, "step": step, "t": t, "dist": dist, "objective": objective,
                "m": m}))
        else:
            _, d, _, t, dist, _, m = spec
            grid = [d]
            argv = ["precision", "--m", str(m), "--d", _r(d), "--t", _r(t), "--dist", dist]
            requests.append(Request(rid, argv, "precision", {"m": m, "d": d, "t": t,
                                                             "dist": dist}))
        for d in grid:
            evaluations += 1
            repeats += (d, t, dist) in keys
            keys.add((d, t, dist))
    props = {
        "requests": len(requests),
        "variance_evaluations": evaluations,
        "repeated_evaluation_share": repeats / evaluations,
    }
    return Workload("cordon", requests, list(SPEED_PRESETS), props)


# -- montecarlo --------------------------------------------------------------

# probe passes (trials * m) of the plain simulate requests
_MC_PASSES = (10_000,) * 24 + (30_000,) * 10 + (100_000,) * 8 + (300_000,) * 4 \
    + (1_000_000,) * 2 + (8_000_000,)
# (trials, all pairs) of the calibration experiments; the 500-trial one is C8
_MC_EXPERIMENTS = ((500, True), (120, True), (100, False), (30, True), (30, False))
_MC_EMITS = 8
_MC_CALIBRATIONS = 10
_MC_APPLIES = 20
_MC_REPEATS = 4


def _write_pairs(rng: random.Random, path: Path, weighted: bool, method: str) -> float:
    """Write a calibration pairs CSV; return the through-origin beta it implies."""
    beta = rng.uniform(20.0, 80.0)
    rows, pairs = ["m_hat,adt,weight" if weighted else "m_hat,adt"], []
    for _ in range(rng.randrange(10, 40)):
        x = rng.uniform(0.5, 120.0)
        y = beta * x * rng.uniform(0.7, 1.3)
        w = rng.uniform(1.0, 60.0)
        rows.append(f"{_r(x)},{_r(y)}" + (f",{_r(w)}" if weighted else ""))
        pairs.append((x, y, w if method == "wls" else 1.0))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    sxy = math.fsum(w * x * y for x, y, w in pairs)
    sxx = math.fsum(w * x * x for x, y, w in pairs)
    return sxy / sxx


def _gen_montecarlo(rng: random.Random, workdir: Path) -> Workload:
    items: list[list[tuple]] = []  # groups that stay in order after shuffling
    for k, passes in enumerate(_MC_PASSES):
        m = (1, 2, 4, 8, 16, 32)[k % 6]
        scenario = ("s1", "s2")[k // 6 % 2]
        items.append([("simulate", scenario, m, max(1, passes // m),
                       rng.randrange(1, 10**6), k % 3 == 0)])
    for trials, all_pairs in _MC_EXPERIMENTS:
        items.append([("experiment", trials, all_pairs, rng.randrange(1, 10**6))])
    for k in range(_MC_EMITS):
        scenario = ("s1", "s2")[k % 2]
        items.append([("emit", scenario, 50 * (k + 1), rng.randrange(1, 10**6)),
                      ("estimate_emitted", scenario)])
    for _ in range(_MC_CALIBRATIONS):
        items.append([("calibrate", rng.random() < 0.7, rng.choice(("ols", "wls")))])
    for _ in range(_MC_APPLIES):
        items.append([("apply", rng.uniform(10.0, 90.0), rng.uniform(0.0, 200.0))])
    small = [g for g in items if g[0][0] == "simulate" and g[0][3] * g[0][2] <= 30_000]
    items += [list(group) for group in rng.sample(small, _MC_REPEATS)]  # C9e repeats
    rng.shuffle(items)

    requests: list[Request] = []
    first_of: dict[tuple, tuple[str, list[str]]] = {}  # simulate -> (rid, outputs)
    n_pairs = probe_passes = 0
    for group in items:
        for item in group:
            rid = f"montecarlo-{len(requests):03d}"
            tag = item[0]
            if tag == "simulate":
                _, scenario, m, trials, sim_seed, hist = item
                expect = {"scenario": scenario, "m": m, "trials": trials, "seed": sim_seed}
                if item in first_of:  # the same request again must give the same bytes
                    expect["same_as"], outputs = first_of[item]
                else:
                    outputs = [f"out/hist-{rid}.csv"] if hist else []
                    first_of[item] = (rid, outputs)
                argv = ["simulate", "--scenario", scenario, "--m", str(m), "--trials",
                        str(trials), "--seed", str(sim_seed)]
                argv += [a for out in outputs for a in ("--hist-out", out)]
                requests.append(Request(rid, argv, "simulate", expect, list(outputs)))
                probe_passes += m * trials
            elif tag == "experiment":
                _, trials, all_pairs, exp_seed = item
                argv = ["experiment", "--sites", "table2", "--trials", str(trials),
                        "--seed", str(exp_seed)] + ([] if all_pairs else ["--no-all-pairs"])
                n = TABLE2_SITES
                requests.append(Request(rid, argv, "experiment", {
                    "trials": trials, "seed": exp_seed,
                    "n_pairs": n * (n - 1) // 2 if all_pairs else n - 1,
                    "min_wls_win": 0.9 if trials >= 500 else None}))
            elif tag == "emit":
                _, scenario, m, sim_seed = item
                out = f"out/emit-{rid}.csv"
                argv = ["simulate", "--scenario", scenario, "--m", str(m), "--trials", "1",
                        "--seed", str(sim_seed), "--emit-footprints", out]
                requests.append(Request(rid, argv, "simulate", {
                    "scenario": scenario, "m": m, "trials": 1, "seed": sim_seed}, [out]))
                emit_rid, emit_out = rid, out
            elif tag == "estimate_emitted":  # right after its emit, in the same group
                d, t = SCENARIOS[item[1]]
                argv = ["estimate", "--footprints", emit_out, "--start", "0.0",
                        "--d", _r(d), "--t", _r(t)]
                requests.append(Request(rid, argv, "estimate_emitted",
                                        {"emitted_by": emit_rid}))
            elif tag == "calibrate":
                _, weighted, method = item
                weighted = weighted or method == "wls"
                n_pairs += 1
                rel = f"in/pairs-{n_pairs}.csv"
                beta = _write_pairs(rng, workdir / rel, weighted, method)
                requests.append(Request(rid, ["calibrate", "--pairs", rel, "--method", method],
                                        "calibrate", {"beta": beta, "method": method}))
            else:
                _, beta, m_hat = item
                requests.append(Request(rid, ["apply", "--beta", _r(beta), "--m-hat", _r(m_hat)],
                                        "apply", {"volume": beta * m_hat}))
    props = {
        "requests": len(requests),
        "probe_passes_simulated": probe_passes,
        "repeated_requests": _MC_REPEATS,
    }
    return Workload("montecarlo", requests, ["park-i35", "table2"], props)


_GENERATORS = {
    "ingest": _gen_ingest,
    "density": _gen_density,
    "cordon": _gen_cordon,
    "montecarlo": _gen_montecarlo,
}
