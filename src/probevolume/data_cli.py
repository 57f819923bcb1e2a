"""Command-line entry point wiring all modules together.

Exit codes: 0 success, 2 unknown subcommand, 3 missing or invalid
parameter, 4 file I/O failure. Failures emit a machine-readable JSON object
on stderr. Flags pass to the library unchecked, so a bad value's error is the
library's message. Every randomized subcommand requires an explicit --seed;
there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import calibration as calib
from . import (
    cordon_optimizer,
    distribution_engine,
    estimator,
    footprint_data,
    probe_simulator,
)
from .footprint_data import write_csv
from .speed_model import load_distribution

EXIT_OK = 0
EXIT_UNKNOWN_COMMAND = 2
EXIT_BAD_PARAMETER = 3
EXIT_IO_FAILURE = 4


# -- serialization -----------------------------------------------------------


def _fmt_float(x: float) -> str:
    # 17 significant digits: every finite double round-trips exactly.
    # JSON has no NaN/Inf literal, so non-finite values become null.
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    if isinstance(obj, float):  # the commonest value, tested first
        return _fmt_float(obj)
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
        items = ",\n".join([pad + "  " + (
            _fmt_float(v) if isinstance(v, float) else dumps_json(v, indent + 1)) for v in obj])
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _fields(result) -> dict:
    # a shallow copy in field order; dataclasses.asdict would deep-copy the curves
    return {f.name: getattr(result, f.name) for f in fields(result)}


def _emit(doc: dict, out: str | None) -> None:
    text = dumps_json(doc) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- handlers ----------------------------------------------------------------


def _run_estimate(args) -> dict:
    cordon = footprint_data.CordonSpec(args.start, args.d, args.label)
    read = footprint_data.read_footprints_csv(args.footprints, strict=args.strict)
    crop = footprint_data.crop_to_cordon(read.records, cordon, args.t)
    result = estimator.estimate_probe_volume(crop.sample)
    return {
        **_fields(result),
        "dropped_records": crop.dropped_nonpositive,
        "warnings": read.warnings,
    }


def _run_precision(args) -> dict:
    dist = load_distribution(args.dist)
    return _fields(distribution_engine.precision_report(args.m, args.d, args.t, dist))


def _run_pdf(args) -> None:
    dist = load_distribution(args.dist)
    single = distribution_engine.single_probe_pdf(args.d, args.t, dist, args.grid_step)
    pdf = distribution_engine.m_fold_pdf(single, args.m)
    mean, var = distribution_engine.pdf_moments(pdf)
    stats = (pdf.atom_at_zero, mean, var, var / mean, var**0.5 / mean)
    header = "# atom_at_zero=%s mean=%s variance=%s vmr=%s cv=%s\nm_hat,density" % tuple(
        _fmt_float(x) for x in stats
    )
    write_csv(args.out, header, "%.9g,%.9g\n", pdf.grid(), pdf.densities)


def _run_optimize(args) -> dict:
    report = cordon_optimizer.optimize_cordon(
        args.dmax, args.t, load_distribution(args.dist), args.objective, args.m, args.step
    )
    if args.curve_out:
        write_csv(args.curve_out, "d,objective", "%.9g,%.9g\n", *np.array(report.curve).T)
    return _fields(report)


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
        edges = summary.hist_edges
        write_csv(args.hist_out, "bin_start,bin_end,count", "%.9g,%.9g,%d\n",
                  edges[:-1], edges[1:], summary.hist_counts)
    if args.emit_footprints:
        footprints, m_hat = probe_simulator.simulate_footprints(config)
        footprint_data.write_footprints_csv(args.emit_footprints, footprints)
        out["emitted_m_hat"] = m_hat
        out["emitted_records"] = len(footprints)
    return out


def _run_experiment(args) -> dict:
    sites = probe_simulator.load_sites(args.sites)
    report = probe_simulator.run_regression_experiment(
        sites, args.trials, all_pairs=args.all_pairs, seed=args.seed
    )
    return _fields(report)


def _run_calibrate(args) -> dict:
    columns = calib.read_pairs_csv(args.pairs, weighted=args.method == "wls")
    return _fields(calib.fit_through_origin(*columns, method=args.method))


def _run_apply(args) -> dict:
    beta, m_hat = estimator.finite(args.beta, "--beta"), estimator.finite(args.m_hat, "--m-hat")
    return {"volume": beta * m_hat}


# -- argument tree -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number pattern takes neither repr's exponents nor inf and nan
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$"
        )

    def error(self, message):  # argparse would exit 2; a bad parameter exits 3
        raise ValueError(message)


@functools.cache
def _parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The root parser and its subcommand parsers, built once per process."""
    root = _Parser(
        prog="probevolume",
        epilog="`probevolume <subcommand> --help` lists the options of each subcommand.",
    )
    subs = root.add_subparsers(title="subcommands", metavar="<subcommand>")

    def command(name, run, summary):
        p = subs.add_parser(name, help=summary, description=summary)
        p.set_defaults(run=run)
        return p

    p = command("estimate", _run_estimate, "probe volume from a footprint CSV inside a cordon")
    p.add_argument("--footprints", required=True, help="footprint CSV path")
    p.add_argument("--start", type=float, required=True, help="cordon start, m")
    p.add_argument("--d", type=float, required=True, help="cordon length, m")
    p.add_argument("--t", type=float, required=True, help="recording interval, s")
    p.add_argument("--label", default=None, help="keep only this time label")
    p.add_argument("--strict", action="store_true", help="bad CSV rows become errors")
    p.add_argument("--out", default=None)

    p = command("precision", _run_precision, "theoretical mean/variance/VMR/CV for (m, d, t, g)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dist", required=True, help="preset name or JSON path")
    p.add_argument("--out", default=None)

    p = command("pdf", _run_pdf, "exact estimator density to CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("optimize", _run_optimize, "grid search of cordon length for VMR or CV")
    p.add_argument("--dmax", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--objective", choices=("cv", "vmr"), required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--curve-out", default=None)
    p.add_argument("--out", default=None)

    p = command("simulate", _run_simulate, "Monte Carlo particle runs of one scenario")
    p.add_argument("--scenario", required=True, help="preset s1|s2 or JSON path")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hist-out", default=None)
    p.add_argument("--emit-footprints", default=None)
    p.add_argument("--out", default=None)

    p = command("experiment", _run_experiment, "multi-site OLS vs WLS calibration sweep")
    p.add_argument("--sites", required=True, help="preset table2 or JSON path")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--all-pairs", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None)

    p = command("calibrate", _run_calibrate, "fit volume = beta * m_hat through the origin")
    p.add_argument("--pairs", required=True, help="CSV m_hat,adt[,weight]")
    p.add_argument("--method", choices=("ols", "wls"), required=True)
    p.add_argument("--out", default=None)

    p = command("apply", _run_apply, "evaluate a fitted calibration at one m_hat")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m-hat", type=float, required=True)
    p.add_argument("--out", default=None)
    return root, subs.choices


def _fail(message: str, code: int) -> int:
    sys.stderr.write(dumps_json({"error": message, "code": code}) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root, commands = _parser()
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(root.format_help())
        return EXIT_OK
    if argv[0] == "--version":
        sys.stdout.write(f"probevolume {__version__}\n")
        return EXIT_OK
    if argv[0] not in commands:
        return _fail(f"unknown subcommand {argv[0]!r}", EXIT_UNKNOWN_COMMAND)
    try:
        args = commands[argv[0]].parse_args(argv[1:])
        result = args.run(args)
        if result is not None:
            _emit(result, args.out)
    except SystemExit:  # --help has printed the subcommand's options
        return EXIT_OK
    except UnicodeDecodeError as exc:  # a ValueError, but an unreadable file
        return _fail(str(exc), EXIT_IO_FAILURE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_PARAMETER)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO_FAILURE)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
