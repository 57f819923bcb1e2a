"""Randomized and property-based checks of the core invariants."""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probevolume import data_cli
from probevolume.calibration import fit_through_origin
from probevolume.distribution_engine import (
    m_fold_pdf,
    pdf_moments,
    precision_report,
    single_probe_pdf,
    variance,
)
from probevolume.estimator import extra_record_prob, min_records
from probevolume.cordon_optimizer import objective_curve, optimize_cordon
from probevolume.footprint_data import (
    CordonSample,
    CordonSpec,
    Footprints,
    crop_to_cordon,
)
from probevolume.probe_simulator import (
    ScenarioConfig,
    SiteConfig,
    load_scenario,
    load_sites,
    run_regression_experiment,
    run_scenario,
)
from probevolume.speed_model import load_distribution

from conftest import random_mixture


class TestUnbiasednessIdentity:
    def test_randomized_sweep(self):
        # (s*t/d) * (n_min + p) == 1 across 10^4 random configurations
        rng = np.random.default_rng(20240601)
        worst = 0.0
        for _ in range(10_000):
            s = float(rng.uniform(0.05, 60.0))
            d = float(rng.uniform(0.5, 2000.0))
            t = float(rng.uniform(0.1, 30.0))
            lhs = (s * t / d) * (min_records(s, d, t) + extra_record_prob(s, d, t))
            worst = max(worst, abs(lhs - 1.0))
        assert worst < 1e-12

    @given(
        st.floats(0.05, 60.0),
        st.floats(0.5, 2000.0),
        st.floats(0.1, 30.0),
    )
    def test_identity_holds(self, s, d, t):
        lhs = (s * t / d) * (min_records(s, d, t) + extra_record_prob(s, d, t))
        assert lhs == pytest.approx(1.0, abs=1e-12)


class TestMassConservation:
    def test_random_mixtures_and_cordons(self):
        rng = np.random.default_rng(7311)
        for _ in range(12):
            dist = random_mixture(rng)
            d = float(rng.uniform(5.0, 600.0))
            t = float(rng.uniform(0.5, 8.0))
            step = float(rng.choice([1e-3, 2e-3, 5e-3]))
            pdf = single_probe_pdf(d, t, dist, grid_step=step)
            assert pdf.total_mass() == pytest.approx(1.0, abs=1e-6), (d, t, step)
            mean, _ = pdf_moments(pdf)
            assert mean == pytest.approx(1.0, abs=5e-3)

    def test_folds_conserve_mass(self, park):
        single = single_probe_pdf(40.0, 1.0, park, grid_step=2e-3)
        for m in (2, 3, 5, 8):
            assert m_fold_pdf(single, m).total_mass() == pytest.approx(1.0, abs=1e-6)


class TestConvolutionAdditivity:
    def test_variance_additivity_both_scenarios(self, park):
        for d, t in ((300.0, 4.0), (40.0, 1.0)):
            single = single_probe_pdf(d, t, park)
            _, v1 = pdf_moments(single)
            for m in (2, 4, 8):
                _, vm = pdf_moments(m_fold_pdf(single, m))
                assert vm == pytest.approx(m * v1, rel=0.02)

    def test_pdf_variance_matches_integral_route(self, park):
        for d, t in ((300.0, 4.0), (40.0, 1.0)):
            single = single_probe_pdf(d, t, park)
            _, v1 = pdf_moments(single)
            assert v1 == pytest.approx(variance(1, d, t, park), rel=0.02)


class TestDeterminism:
    def test_scenario_rerun_bit_identical(self, park):
        from probevolume.probe_simulator import ScenarioConfig, run_scenario

        cfg = ScenarioConfig(d=40.0, t=1.0, m=3, dist=park, trials=5000, seed=123)
        a, _ = run_scenario(cfg)
        b, _ = run_scenario(cfg)
        assert a.tobytes() == b.tobytes()

    def test_pdf_rerun_bit_identical(self, park):
        a = single_probe_pdf(300.0, 4.0, park)
        b = single_probe_pdf(300.0, 4.0, park)
        assert a.densities.tobytes() == b.densities.tobytes()


_record_lists = st.lists(
    st.tuples(st.floats(-50.0, 150.0), st.floats(0.1, 45.0)),
    max_size=40,
)


def _footprints(rows):
    """Unlabelled columns of (position, speed) rows."""
    return Footprints(
        np.array([p for p, _ in rows], dtype=np.float64),
        np.array([s for _, s in rows], dtype=np.float64),
        np.full(len(rows), None, dtype=object),
    )


class TestCropProperties:
    @given(_record_lists, st.floats(0.0, 60.0), st.floats(1.0, 120.0))
    @settings(max_examples=60)
    def test_idempotent(self, rows, start, length):
        spec = CordonSpec(start, length)
        once = crop_to_cordon(_footprints(rows), spec, t=1.0)
        kept = [(p, s) for p, s in rows if start < p <= start + length]
        twice = crop_to_cordon(_footprints(kept), spec, t=1.0)
        assert once.sample.speeds.dtype == twice.sample.speeds.dtype == np.float64
        assert once.sample.speeds.tobytes() == twice.sample.speeds.tobytes()
        assert (once.sample.d, once.sample.t) == (twice.sample.d, twice.sample.t)

    @given(_record_lists, st.floats(0.0, 60.0))
    @settings(max_examples=60)
    def test_monotone_in_length(self, rows, start):
        records = _footprints(rows)
        previous = -1
        for length in (1.0, 10.0, 40.0, 90.0, 200.0):
            n = len(crop_to_cordon(records, CordonSpec(start, length), t=1.0).sample.speeds)
            assert n >= previous
            previous = n


# JSON values shaped like the three config kinds: their keys, small ints,
# short strings, preset names, at most a few levels deep
_CONFIG_KEYS = st.sampled_from(
    ("components", "mean", "sd", "weight", "lower", "upper",
     "sites", "site_id", "adt", "m", "d", "t", "dist")
)
_json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.text(max_size=3)
    | st.sampled_from(("park-i35", "table2-30mph")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_CONFIG_KEYS | st.text(max_size=2), inner, max_size=5),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


class TestConfigLoaders:
    @given(_json_docs)
    @settings(max_examples=300, deadline=None)
    def test_only_documented_errors_escape(self, config_path, doc):
        # ValueError is exit 3 on the CLI and OSError exit 4; anything else
        # would escape as a traceback
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        loaders = (
            load_distribution,
            load_sites,
            lambda spec: load_scenario(spec, 1, 1, 0),
        )
        for load in loaders:
            try:
                load(str(config_path))
            except (ValueError, OSError):
                pass


class TestNonFiniteRejected:
    # every positive-real parameter check also rejects NaN and infinity
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_library_entry_points(self, bad):
        park = load_distribution("park-i35")
        calls = [
            lambda: variance(1, bad, 4.0, park),
            lambda: variance(1, 300.0, bad, park),
            lambda: single_probe_pdf(bad, 4.0, park),
            lambda: single_probe_pdf(300.0, 4.0, park, grid_step=bad),
            lambda: optimize_cordon(bad, 4.0, park, "vmr"),
            lambda: objective_curve(1.0, 10.0, bad, 4.0, park, "vmr"),
            lambda: CordonSpec(0.0, bad),
            lambda: CordonSpec(bad, 10.0),
            lambda: CordonSample((5.0,), bad, 4.0),
            lambda: CordonSample((5.0,), 10.0, bad),
            lambda: crop_to_cordon(_footprints([]), CordonSpec(0.0, 10.0), bad),
            lambda: ScenarioConfig(bad, 4.0, 1, park, 1, 1),
            lambda: ScenarioConfig(300.0, bad, 1, park, 1, 1),
            lambda: fit_through_origin((bad,), (10.0,), (1.0,), "ols"),
            lambda: fit_through_origin((1.0,), (bad,), (1.0,), "ols"),
            lambda: fit_through_origin((1.0,), (10.0,), (bad,), "ols"),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()


def _experiment(m, park):
    sites = [SiteConfig(str(i), 40.0, m if i == 0 else 3, 50.0, park, 1.0) for i in range(3)]
    return run_regression_experiment(sites, 2, seed=1).mape_ols


# each entry point that takes a probe count, as a function of m
_PROBE_COUNT_CALLS = {
    "precision_report": lambda m, park: precision_report(m, 300.0, 4.0, park).cv,
    "objective_curve": lambda m, park: objective_curve(10.0, 20.0, 10.0, 4.0, park, "cv", m),
    "m_fold_pdf": lambda m, park: m_fold_pdf(
        single_probe_pdf(300.0, 4.0, park, grid_step=1e-2), m).densities.tolist(),
    "SiteConfig": _experiment,
    "ScenarioConfig": lambda m, park: run_scenario(
        ScenarioConfig(300.0, 4.0, m, park, 10, 1))[0].tolist(),
}


class TestOneProbeCountCheck:
    # SiteConfig(m=2.5) and ScenarioConfig(m=2.5) used to fail in the draw
    # with a TypeError, and ScenarioConfig(m=inf) and m_fold_pdf(single, inf)
    # with an OverflowError
    @pytest.mark.parametrize("call", sorted(_PROBE_COUNT_CALLS))
    @pytest.mark.parametrize(
        "m", [2.5, 2.0, np.float64(2.0), np.int64(2), math.inf, math.nan],
        ids=["2.5", "2.0", "float64-2.0", "int64-2", "inf", "nan"],
    )
    def test_integral_m_runs_as_the_integer_and_others_raise(self, park, call, m):
        run = _PROBE_COUNT_CALLS[call]
        if math.isfinite(m) and m % 1 == 0:
            assert run(m, park) == run(2, park)
        else:
            with pytest.raises(ValueError, match="m must be an integer >= [01], got"):
                run(m, park)


# every input the CLI reads, in the shapes that have broken it: each path is
# given to every subcommand flag that takes a file or a preset name
_CLI_INPUTS = {
    "empty.csv": "",
    "footprints-header.csv": "position_m,speed_mps,label\n",
    "pairs-header.csv": "m_hat,adt,weight\n",
    "footprints.csv": "position_m,speed_mps,label\n1,20,a\n2,25,\n",
    "pairs.csv": "m_hat,adt,weight\n1,60,2\n2,100,1\n",
    "garbled.csv": 'position_m,\x00"\n,,,"open quote\n{[\n',
    "footprints-oversized.csv": f"position_m,speed_mps\n{'1' * 200_000},5\n3,4\n",
    "pairs-oversized.csv": f"m_hat,adt\n{'1' * 200_000},5\n3,4\n",
    "footprints-nonfinite.csv": "position_m,speed_mps\n1,inf\n2,nan\nnan,5\n3,5\n",
    "pairs-nonfinite.csv": "m_hat,adt,weight\nnan,60,1\n1,inf,1\n1e200,60,inf\n",
    "pairs-overflow.csv": "m_hat,adt\n1e154,1e154\n1e154,1e154\n",
    "config-nonfinite.json": (
        '{"d": NaN, "t": Infinity, "dist": "park-i35", "lower": 0, "upper": Infinity,'
        ' "components": [{"mean": NaN, "sd": 1, "weight": 1}],'
        ' "sites": [{"site_id": "a", "dist": "park-i35", "adt": NaN, "m": 1, "d": 9}]}'
    ),
    # s*s overflows at the quadrature nodes far above the speeds
    "wide-support.json": (
        '{"components": [{"mean": 20, "sd": 5, "weight": 1}], "lower": 0, "upper": 1e200}'
    ),
    # one site of 10^13 passes: over the pass caps before anything is drawn
    "sites-huge-m.json": '{"sites": ['
    + ",".join(f'{{"site_id": "{i}", "dist": "park-i35", "adt": 9, "m": {m}, "d": 9}}'
               for i, m in enumerate((10**13, 1, 1)))
    + "]}",
}
_CLI_SIZES = ("1", "2", "3")  # small, so no request takes more than about 1 s
# over the trial, probe-pass, per-trial pass, grid-point, variance-piece,
# band-piece and fold-window caps, cordons so short that the variance
# overflows, and probe counts whose moments are not finite floats; drawn only
# for the flags they cap, since an uncapped size flag elsewhere would still
# try to allocate
_CLI_OVER_CAP = {
    ("simulate", "trials"): ("100000001", "1000000000000"),
    ("experiment", "trials"): ("1000000", "100000001", "1000000000000"),
    ("simulate", "m"): ("1000001", "1000000000", "1000000001"),
    ("optimize", "step"): ("1e-13", "1e-6"),
    ("precision", "d"): ("2e5", "1e9", "1e-300", "1e-323"),
    ("pdf", "m"): ("1000000000", "1" + "0" * 30),
    ("pdf", "grid_step"): ("1e-6", "1e-300"),
    ("pdf", "d"): ("1e-300",),
    ("precision", "m"): ("1" + "0" * 400,),
    ("optimize", "m"): ("1" + "0" * 400,),
}
_CLI_NUMBERS = ("x", "-1", "0", "nan", "inf", *_CLI_SIZES)
_CLI_OUTPUTS = {"out", "curve_out", "hist_out", "emit_footprints"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Per pool: the valid value of each input flag, every hostile input, the outputs."""
    root = tmp_path_factory.mktemp("cli")
    for name, text in _CLI_INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin1.csv").write_bytes("position_m,speed_mps\n1,café\n".encode("latin-1"))
    valid = {"footprints": str(root / "footprints.csv"), "pairs": str(root / "pairs.csv"),
             "dist": "park-i35", "scenario": "s1", "sites": "table2", "label": "a"}
    hostile = [str(p) for p in root.iterdir()] + [str(root / "missing.csv")]
    (root / "out").mkdir()
    outputs = [str(root / "out" / "result"), str(root / "no" / "dir" / "result"), str(root)]
    return valid, hostile, outputs


class TestCliFuzz:
    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_only_documented_exits(self, cli_files, data):
        valid, hostile, outputs = cli_files
        _root, commands = data_cli._parser()
        name = data.draw(st.sampled_from(sorted(commands)))
        # one part of the request is drawn from its hostile pool and the rest
        # is valid, so that most requests get past argparse to that part; on
        # the numbers part that is one numeric flag, so each hostile value is
        # the request's only fault and is not hidden behind another one
        part = data.draw(st.sampled_from(("flags", "numbers", "inputs", "outputs")))
        actions = [a for a in commands[name]._actions if not isinstance(a, argparse._HelpAction)]
        numeric = [a for a in actions if a.type in (int, float)]
        hostile_number = (
            data.draw(st.sampled_from(numeric)) if part == "numbers" and numeric else None
        )
        argv = [name]
        for action in actions:
            keep = (action.required and part != "flags") or action is hostile_number
            if not keep and not data.draw(st.booleans()):
                continue
            argv.append(data.draw(st.sampled_from(action.option_strings)))
            if action.nargs == 0:
                continue
            if action.choices:
                pool = [*action.choices] + (["bogus"] if part == "flags" else [])
            elif action is hostile_number:
                # a flag's over-cap values are few; they get half its draws
                over_cap = _CLI_OVER_CAP.get((name, action.dest))
                pool = over_cap if over_cap and data.draw(st.booleans()) else _CLI_NUMBERS
            elif action.type in (int, float):
                pool = _CLI_SIZES
            elif action.dest in _CLI_OUTPUTS:
                pool = outputs if part == "outputs" else outputs[:1]
            else:
                pool = hostile if part == "inputs" else [valid[action.dest]]
            argv.append(data.draw(st.sampled_from(pool)))

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = data_cli.main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err
        if code:
            # log lines may come first; the JSON error is the last object
            assert json.loads(err[err.rindex("{\n"):])["code"] == code
