"""Traced replay: spans around each layer's public functions, from outside.

A layer is a probevolume module. Each patch replaces a function at the
module attribute its caller looks up (``from x import f`` binds a second
name, which is patched too), so the program itself is unchanged. Spans
(name, start, end, parent, request id, raised) are kept in memory and
written out when the run ends. A span's self time is its duration minus
the durations of its direct children. Counts come from call arguments and
results only, so they repeat exactly for one seed and one program.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from time import perf_counter


# (module, attribute, span, counter(args, kwargs, result) -> {count: n})
PATCHES = (
    ("footprint_data", "read_footprints_csv", "footprint_data.read",
     lambda a, k, r: {"rows_read": len(r.records) + len(r.warnings),
                      "rows_skipped": len(r.warnings)}),
    ("footprint_data", "crop_to_cordon", "footprint_data.crop",
     lambda a, k, r: {"rows_in_cordon": len(r.sample.speeds)}),
    ("footprint_data", "write_footprints_csv", "footprint_data.write",
     lambda a, k, r: {"rows_written": len(a[1])}),
    ("estimator", "estimate_probe_volume", "estimator.sum",
     lambda a, k, r: {"speeds_summed": r.n}),
    ("data_cli", "load_distribution", "speed_model.load", None),
    ("probe_simulator", "load_distribution", "speed_model.load", None),
    ("probe_simulator", "sample_with_rng", "speed_model.sample",
     lambda a, k, r: {"samples_drawn": int(a[1])}),
    ("distribution_engine", "integrate_weighted", "speed_model.integrate", None),
    ("kernels", "mixture_pdf", "kernels.mixture_pdf",
     lambda a, k, r: {"points": len(a[0])}),
    ("kernels", "mixture_cdf", "kernels.mixture_cdf",
     lambda a, k, r: {"points": len(a[0])}),
    ("kernels", "band_masses", "kernels.band_masses",
     lambda a, k, r: {"bands": int(a[11]) + 1}),
    ("kernels", "pass_counts", "kernels.pass_counts",
     lambda a, k, r: {"passes": len(a[0])}),
    ("kernels", "all_pairs_mape", "kernels.all_pairs_mape",
     lambda a, k, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    ("distribution_engine", "single_probe_pdf", "distribution_engine.single_pdf",
     lambda a, k, r: {"cells": r.densities.size}),
    ("distribution_engine", "m_fold_pdf", "distribution_engine.fold",
     lambda a, k, r: {"cells": r.densities.size}),
    ("distribution_engine", "pdf_moments", "distribution_engine.moments", None),
    ("distribution_engine", "vmr", "distribution_engine.vmr", None),
    ("cordon_optimizer", "vmr", "distribution_engine.vmr", None),
    ("probe_simulator", "vmr", "distribution_engine.vmr", None),
    ("cordon_optimizer", "optimize_cordon", "cordon_optimizer",
     lambda a, k, r: {"grid_points": len(r.curve)}),
    ("probe_simulator", "run_scenario", "probe_simulator.scenario",
     lambda a, k, r: {"trials": a[0].trials}),
    ("probe_simulator", "simulate_footprints", "probe_simulator.emit", None),
    ("probe_simulator", "run_regression_experiment", "probe_simulator.experiment",
     lambda a, k, r: {"site_draws": r.trials * r.n_sites}),
    ("calibration", "fit_through_origin", "calibration.fit",
     lambda a, k, r: {"pairs": len(a[0])}),
)

LAYERS = ("data_cli", "footprint_data", "estimator", "speed_model", "kernels",
          "distribution_engine", "cordon_optimizer", "probe_simulator", "calibration")

# metric -> (unit, better, how it is read from the spans, per pass)
#   ("total", span) span time   ("self", span) time minus children
#   ("calls", span)             ("count", span, counter)
LAYER_METRICS = {
    "data_cli.self_s": ("s", "lower", ("self", "data_cli")),
    "data_cli.bytes_out": ("bytes", "lower", ("count", "data_cli", "bytes_out")),
    "data_cli.requests": ("count", "higher", ("calls", "data_cli")),
    "footprint_data.read_s": ("s", "lower", ("total", "footprint_data.read")),
    "footprint_data.rows_read": ("count", "higher", ("count", "footprint_data.read", "rows_read")),
    "footprint_data.rows_skipped": ("count", "lower",
                                    ("count", "footprint_data.read", "rows_skipped")),
    "footprint_data.crop_s": ("s", "lower", ("total", "footprint_data.crop")),
    "footprint_data.rows_in_cordon": ("count", "higher",
                                      ("count", "footprint_data.crop", "rows_in_cordon")),
    "footprint_data.keep_ratio": ("ratio", "higher", ("ratio",)),
    "footprint_data.write_s": ("s", "lower", ("total", "footprint_data.write")),
    "footprint_data.rows_written": ("count", "higher",
                                    ("count", "footprint_data.write", "rows_written")),
    "estimator.sum_s": ("s", "lower", ("total", "estimator.sum")),
    "estimator.speeds_summed": ("count", "higher", ("count", "estimator.sum", "speeds_summed")),
    "speed_model.load_s": ("s", "lower", ("total", "speed_model.load")),
    "speed_model.sample_s": ("s", "lower", ("total", "speed_model.sample")),
    "speed_model.sample_calls": ("count", "lower", ("calls", "speed_model.sample")),
    "speed_model.samples_drawn": ("count", "higher",
                                  ("count", "speed_model.sample", "samples_drawn")),
    "speed_model.integrate_self_s": ("s", "lower", ("self", "speed_model.integrate")),
    "speed_model.integrate_calls": ("count", "lower", ("calls", "speed_model.integrate")),
    "kernels.mixture_pdf_s": ("s", "lower", ("total", "kernels.mixture_pdf")),
    "kernels.mixture_pdf_points": ("count", "lower", ("count", "kernels.mixture_pdf", "points")),
    "kernels.mixture_cdf_s": ("s", "lower", ("total", "kernels.mixture_cdf")),
    "kernels.mixture_cdf_points": ("count", "lower", ("count", "kernels.mixture_cdf", "points")),
    "kernels.band_masses_s": ("s", "lower", ("total", "kernels.band_masses")),
    "kernels.bands": ("count", "lower", ("count", "kernels.band_masses", "bands")),
    "kernels.pass_counts_s": ("s", "lower", ("total", "kernels.pass_counts")),
    "kernels.passes": ("count", "higher", ("count", "kernels.pass_counts", "passes")),
    "kernels.all_pairs_mape_s": ("s", "lower", ("total", "kernels.all_pairs_mape")),
    "kernels.pairs_swept": ("count", "higher", ("count", "kernels.all_pairs_mape", "pairs")),
    "distribution_engine.single_pdf_self_s": ("s", "lower",
                                              ("self", "distribution_engine.single_pdf")),
    "distribution_engine.single_pdf_cells": ("count", "lower",
                                             ("count", "distribution_engine.single_pdf", "cells")),
    "distribution_engine.fold_s": ("s", "lower", ("total", "distribution_engine.fold")),
    "distribution_engine.fold_out_cells": ("count", "lower",
                                           ("count", "distribution_engine.fold", "cells")),
    "distribution_engine.moments_s": ("s", "lower", ("total", "distribution_engine.moments")),
    "distribution_engine.vmr_self_s": ("s", "lower", ("self", "distribution_engine.vmr")),
    "distribution_engine.vmr_calls": ("count", "lower", ("calls", "distribution_engine.vmr")),
    "cordon_optimizer.self_s": ("s", "lower", ("self", "cordon_optimizer")),
    "cordon_optimizer.grid_points": ("count", "lower",
                                     ("count", "cordon_optimizer", "grid_points")),
    "probe_simulator.scenario_self_s": ("s", "lower", ("self", "probe_simulator.scenario")),
    "probe_simulator.trials": ("count", "higher", ("count", "probe_simulator.scenario", "trials")),
    "probe_simulator.experiment_self_s": ("s", "lower",
                                          ("self", "probe_simulator.experiment")),
    "probe_simulator.site_draws": ("count", "higher",
                                   ("count", "probe_simulator.experiment", "site_draws")),
    "probe_simulator.emit_s": ("s", "lower", ("total", "probe_simulator.emit")),
    "calibration.fit_s": ("s", "lower", ("total", "calibration.fit")),
    "calibration.pairs_fit": ("count", "higher", ("count", "calibration.fit", "pairs")),
}
LAYER_METRICS.update({f"{layer}.errors": ("count", "lower", ("errors", layer))
                      for layer in LAYERS})
LAYER_METRICS["trace.overhead_requests_per_s"] = ("1/s", "higher", ("overhead",))

# the span whose self time is expected to be the largest, from seed profiling
PREDICTED_LARGEST = {
    "ingest": "footprint_data.read_s",
    "density": "distribution_engine.fold_s",
    "cordon": "kernels.mixture_pdf_s",
    "montecarlo": "speed_model.sample_s",
}


class Tracer:
    """Records spans in one thread; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, rid, raised)
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # open spans: [index, child time]
        self._saved: list[tuple] = []
        self.rid = ""

    def span(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[frame[0]] = (name, start, end, parent, self.rid, raised, frame[1])
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.add(name, key, n)
            return result

        return traced

    def add(self, span: str, counter: str, n: int) -> None:
        self.counts[(span, counter)] = self.counts.get((span, counter), 0) + n

    def install(self) -> None:
        for module, attr, name, counter in PATCHES:
            mod = importlib.import_module(f"probevolume.{module}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original, counter))

    def remove(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def summary(self) -> tuple[dict, dict, dict, dict]:
        """Per span name: total time, self time, calls, raised calls."""
        total, own, calls, errors = {}, {}, {}, {}
        for name, start, end, _parent, _rid, raised, child in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1
            errors[name] = errors.get(name, 0) + raised
        return total, own, calls, errors

    def count_snapshot(self) -> dict[str, int]:
        """Every count so far, keyed by span and counter."""
        _total, _own, calls, errors = self.summary()
        snap = {f"{span}.{counter}": n for (span, counter), n in self.counts.items()}
        snap.update({f"{span}.calls": n for span, n in calls.items()})
        snap.update({f"{span}.raised": n for span, n in errors.items()})
        return snap

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric, per pass of the request list."""
        total, own, calls, errors = self.summary()
        out = {}
        for metric, (_unit, _better, how) in LAYER_METRICS.items():
            kind = how[0]
            if kind == "total":
                value = total.get(how[1], 0.0) / passes
            elif kind == "self":
                value = own.get(how[1], 0.0) / passes
            elif kind == "calls":
                value = calls.get(how[1], 0) // passes
            elif kind == "count":
                value = self.counts.get((how[1], how[2]), 0) // passes
            elif kind == "errors":
                value = sum(n for name, n in errors.items()
                            if name.split(".")[0] == how[1]) // passes
            elif kind == "ratio":
                read = self.counts.get(("footprint_data.read", "rows_read"), 0)
                kept = self.counts.get(("footprint_data.crop", "rows_in_cordon"), 0)
                value = kept / read if read else 0.0
            else:
                value = overhead
            out[metric] = value
        return out

    def largest_self_time(self) -> tuple[str, float]:
        """The time metric whose span has the largest self time, per whole trace."""
        _total, own, _calls, _errors = self.summary()
        by_span = {}
        for metric, (unit, _better, how) in LAYER_METRICS.items():
            if unit == "s":
                by_span[how[1]] = metric
        name = max(own, key=own.get)
        return by_span.get(name, name), own[name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,start_s,end_s,parent,request,raised\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, rid, raised, _child in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{rid},{int(raised)}\n")
