"""Command-line entry point wiring all modules together.

Exit codes: 0 success, 2 unknown subcommand, 3 missing or invalid
parameter, 4 file I/O failure. Failures emit a machine-readable JSON object
on stderr. Every randomized subcommand requires an explicit --seed; there is
no wall-clock default.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from . import calibration as calib
from . import (
    cordon_optimizer,
    distribution_engine,
    estimator,
    footprint_data,
    probe_simulator,
)
from .speed_model import load_distribution

EXIT_OK = 0
EXIT_UNKNOWN_COMMAND = 2
EXIT_BAD_PARAMETER = 3
EXIT_IO_FAILURE = 4


class ParameterError(Exception):
    """Invalid or missing CLI parameter."""


# -- serialization -----------------------------------------------------------


def _fmt_float(x: float) -> str:
    # 17 significant digits: every finite double round-trips exactly.
    # JSON has no NaN/Inf literal, so non-finite values become null.
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {dumps_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv9(x: float) -> str:
    return format(float(x), ".9g")


def _emit(doc: dict, out: str | None) -> None:
    text = dumps_json(doc) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to code 3
        raise ParameterError(message)


def _positive(name: str, value: float) -> float:
    if not (0.0 < value < math.inf):
        raise ParameterError(f"--{name} must be positive and finite, got {value}")
    return value


def _build_parser(sub: str) -> _Parser:
    p = _Parser(prog=f"probevolume {sub}", add_help=True)
    if sub == "estimate":
        p.add_argument("--footprints", required=True, help="footprint CSV path")
        p.add_argument("--start", type=float, required=True, help="cordon start, m")
        p.add_argument("--d", type=float, required=True, help="cordon length, m")
        p.add_argument("--t", type=float, required=True, help="recording interval, s")
        p.add_argument("--label", default=None, help="keep only this time label")
        p.add_argument("--strict", action="store_true", help="bad CSV rows become errors")
        p.add_argument("--out", default=None)
    elif sub == "precision":
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--d", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--dist", required=True, help="preset name or JSON path")
        p.add_argument("--out", default=None)
    elif sub == "pdf":
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--d", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--dist", required=True)
        p.add_argument("--grid-step", type=float, default=1e-3)
        p.add_argument("--out", required=True, help="output CSV path")
    elif sub == "optimize":
        p.add_argument("--dmax", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--dist", required=True)
        p.add_argument("--objective", choices=("cv", "vmr"), required=True)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--step", type=float, default=0.5)
        p.add_argument("--curve-out", default=None)
        p.add_argument("--out", default=None)
    elif sub == "simulate":
        p.add_argument("--scenario", required=True, help="preset s1|s2 or JSON path")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--hist-out", default=None)
        p.add_argument("--emit-footprints", default=None)
        p.add_argument("--out", default=None)
    elif sub == "experiment":
        p.add_argument("--sites", required=True, help="preset table2 or JSON path")
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--all-pairs", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--out", default=None)
    elif sub == "calibrate":
        p.add_argument("--pairs", required=True, help="CSV m_hat,adt[,weight]")
        p.add_argument("--method", choices=("ols", "wls"), required=True)
        p.add_argument("--out", default=None)
    elif sub == "apply":
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--m-hat", type=float, required=True)
        p.add_argument("--out", default=None)
    return p


# -- handlers ----------------------------------------------------------------


def _run_estimate(args) -> dict:
    _positive("d", args.d)
    _positive("t", args.t)
    cordon = footprint_data.CordonSpec(args.start, args.d, args.label)
    read = footprint_data.read_footprints_csv(args.footprints, strict=args.strict)
    crop = footprint_data.crop_to_cordon(read.records, cordon, args.t)
    result = estimator.estimate_probe_volume(crop.sample)
    return {
        "m_hat": result.m_hat,
        "n": result.n,
        "d": result.d,
        "t": result.t,
        "dropped_records": crop.dropped_nonpositive,
        "warnings": read.warnings,
    }


def _run_precision(args) -> dict:
    if args.m < 1:
        raise ParameterError(f"--m must be >= 1, got {args.m}")
    _positive("d", args.d)
    _positive("t", args.t)
    rep = distribution_engine.precision_report(args.m, args.d, args.t, load_distribution(args.dist))
    return {
        "m": rep.m,
        "d": rep.d,
        "t": rep.t,
        "mean": rep.mean,
        "variance": rep.variance,
        "vmr": rep.vmr,
        "cv": rep.cv,
    }


def _run_pdf(args) -> None:
    if args.m < 1:
        raise ParameterError(f"--m must be >= 1, got {args.m}")
    dist = load_distribution(args.dist)
    single = distribution_engine.single_probe_pdf(args.d, args.t, dist, args.grid_step)
    pdf = distribution_engine.m_fold_pdf(single, args.m)
    mean, var = distribution_engine.pdf_moments(pdf)
    with Path(args.out).open("w", encoding="utf-8", newline="") as fh:
        fh.write(
            "# atom_at_zero=%s mean=%s variance=%s vmr=%s cv=%s\n"
            % (
                _fmt_float(pdf.atom_at_zero),
                _fmt_float(mean),
                _fmt_float(var),
                _fmt_float(var / mean),
                _fmt_float(var**0.5 / mean),
            )
        )
        fh.write("m_hat,density\n")
        for x, dens in zip(pdf.grid(), pdf.densities):
            fh.write(f"{_csv9(x)},{_csv9(dens)}\n")


def _run_optimize(args) -> dict:
    report = cordon_optimizer.optimize_cordon(
        args.dmax, args.t, load_distribution(args.dist), args.objective, args.m, args.step
    )
    if args.curve_out:
        with Path(args.curve_out).open("w", encoding="utf-8", newline="") as fh:
            fh.write("d,objective\n")
            for d, val in report.curve:
                fh.write(f"{_csv9(d)},{_csv9(val)}\n")
    return {
        "best_d": report.best_d,
        "best_objective": report.best_objective,
        "objective_kind": report.objective_kind,
        "m": report.m,
        "t": report.t,
        "curve": [[d, v] for d, v in report.curve],
    }


def _run_simulate(args) -> dict:
    config = probe_simulator.load_scenario(args.scenario, args.m, args.trials, args.seed)
    samples, summary = probe_simulator.run_scenario(config)
    out = {
        "d": config.d,
        "t": config.t,
        "m": config.m,
        "trials": config.trials,
        "seed": config.seed,
        "mean": summary.mean,
        "variance": summary.variance,
        "cv": summary.cv,
    }
    if args.hist_out:
        with Path(args.hist_out).open("w", encoding="utf-8", newline="") as fh:
            fh.write("bin_start,bin_end,count\n")
            for lo, hi, cnt in zip(
                summary.hist_edges[:-1], summary.hist_edges[1:], summary.hist_counts
            ):
                fh.write(f"{_csv9(lo)},{_csv9(hi)},{int(cnt)}\n")
    if args.emit_footprints:
        records, m_hat = probe_simulator.simulate_footprints(config)
        footprint_data.write_footprints_csv(args.emit_footprints, records)
        out["emitted_m_hat"] = m_hat
        out["emitted_records"] = len(records)
    return out


def _run_experiment(args) -> dict:
    sites = probe_simulator.load_sites(args.sites)
    report = probe_simulator.run_regression_experiment(
        sites, args.trials, all_pairs=args.all_pairs, seed=args.seed
    )
    return {
        "trials": report.trials,
        "n_sites": report.n_sites,
        "n_pairs": report.n_pairs,
        "seed": report.seed,
        "mean_mape_ols": report.mean_mape_ols,
        "mean_mape_wls": report.mean_mape_wls,
        "wls_win_fraction": report.wls_win_fraction,
        "mape_ols": list(report.mape_ols),
        "mape_wls": list(report.mape_wls),
    }


def _run_calibrate(args) -> dict:
    pairs = []
    with Path(args.pairs).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in (next(reader, None) or [])]
        if header[:2] != ["m_hat", "adt"]:
            raise ParameterError(
                f"{args.pairs}: expected header m_hat,adt[,weight], got {','.join(header)}"
            )
        has_weight = len(header) >= 3 and header[2] == "weight"
        if args.method == "wls" and not has_weight:
            raise ParameterError("wls calibration needs a weight column")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                weight = float(row[2]) if (args.method == "wls" and has_weight) else 1.0
                pairs.append(calib.CalibrationPair(float(row[0]), float(row[1]), weight))
            except (IndexError, ValueError) as exc:
                raise ParameterError(f"{args.pairs}:{lineno}: bad row {row!r} ({exc})") from exc
    try:
        model = calib.fit_through_origin(pairs, method=args.method)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    return {"beta": model.beta, "method": model.method}


def _run_apply(args) -> dict:
    if not (math.isfinite(args.beta) and math.isfinite(args.m_hat)):
        raise ParameterError(f"--beta and --m-hat must be finite, got ({args.beta}, {args.m_hat})")
    return {"volume": args.beta * args.m_hat}


_HANDLERS = {
    "estimate": _run_estimate,
    "precision": _run_precision,
    "pdf": _run_pdf,
    "optimize": _run_optimize,
    "simulate": _run_simulate,
    "experiment": _run_experiment,
    "calibrate": _run_calibrate,
    "apply": _run_apply,
}


def _fail(message: str, code: int) -> None:
    sys.stderr.write(dumps_json({"error": message, "code": code}) + "\n")


_USAGE = """probevolume <subcommand> [options]

subcommands:
  estimate    probe volume from a footprint CSV inside a cordon
  precision   theoretical mean/variance/VMR/CV for (m, d, t, g)
  pdf         exact estimator density to CSV
  optimize    grid search of cordon length for VMR or CV
  simulate    Monte Carlo particle runs of one scenario
  experiment  multi-site OLS vs WLS calibration sweep
  calibrate   fit volume = beta * m_hat through the origin
  apply       evaluate a fitted calibration at one m_hat

`probevolume <subcommand> --help` lists the options of each subcommand.
"""


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return EXIT_OK
    if argv[0] == "--version":
        sys.stdout.write(f"probevolume {__version__}\n")
        return EXIT_OK
    sub = argv[0]
    if sub not in _HANDLERS:
        _fail(f"unknown subcommand {sub!r}", EXIT_UNKNOWN_COMMAND)
        return EXIT_UNKNOWN_COMMAND
    try:
        args = _build_parser(sub).parse_args(argv[1:])
        result = _HANDLERS[sub](args)
        if result is not None:
            _emit(result, args.out)
    except ParameterError as exc:
        _fail(str(exc), EXIT_BAD_PARAMETER)
        return EXIT_BAD_PARAMETER
    except UnicodeDecodeError as exc:  # a ValueError, but an unreadable file
        _fail(str(exc), EXIT_IO_FAILURE)
        return EXIT_IO_FAILURE
    except ValueError as exc:
        _fail(str(exc), EXIT_BAD_PARAMETER)
        return EXIT_BAD_PARAMETER
    except OSError as exc:
        _fail(str(exc), EXIT_IO_FAILURE)
        return EXIT_IO_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
