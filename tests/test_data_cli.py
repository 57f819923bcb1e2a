import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import probevolume
from probevolume import distribution_engine, probe_simulator
from probevolume.cordon_optimizer import optimize_cordon
from probevolume.data_cli import (
    EXIT_BAD_PARAMETER,
    EXIT_IO_FAILURE,
    EXIT_OK,
    EXIT_UNKNOWN_COMMAND,
    _fields,
    _fmt_float,
    _parser,
    dumps_json,
    main,
)
from probevolume.footprint_data import WRITE_BLOCK, write_csv
from probevolume.speed_model import from_dict, integrate_weighted, load_distribution

from conftest import kink_sum_vmr


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestBasics:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == EXIT_OK
        assert out.startswith("probevolume ")

    def test_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == EXIT_OK
        assert "subcommands" in out

    @pytest.mark.parametrize(
        "sub",
        ["estimate", "precision", "pdf", "optimize", "simulate", "experiment", "calibrate", "apply"],
    )
    def test_subcommand_help(self, capsys, sub):
        # the help of the subcommand's own parser, returned as exit 0 from main
        code, out, err = run_cli(capsys, sub, "--help")
        assert code == EXIT_OK
        assert out.startswith(f"usage: probevolume {sub} ")
        assert err == ""

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == EXIT_UNKNOWN_COMMAND
        assert json.loads(err)["code"] == EXIT_UNKNOWN_COMMAND

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "precision", "--m", "1")
        assert code == EXIT_BAD_PARAMETER
        assert "required" in json.loads(err)["error"]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--footprints", "/no/such/file.csv",
            "--start", "0", "--d", "100", "--t", "1",
        )
        assert code == EXIT_IO_FAILURE

    @pytest.mark.parametrize(
        "text,argv",
        [
            ("position_m,speed_mps,label\n1.0,20.0,caf\u00e9\n",
             ["estimate", "--start", "0", "--d", "100", "--t", "1", "--footprints"]),
            ("m_hat,adt\n1.0,60.0\n2.0,100.0\u00e9\n",
             ["calibrate", "--method", "ols", "--pairs"]),
            ('{"components": [], "name": "caf\u00e9"}',
             ["precision", "--m", "1", "--d", "300", "--t", "4", "--dist"]),
        ],
        ids=["footprints", "pairs", "dist"],
    )
    def test_non_utf8_file_is_io_failure(self, capsys, tmp_path, text, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(text.encode("latin-1"))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_IO_FAILURE
        assert out == ""
        doc = json.loads(err)
        assert doc["code"] == EXIT_IO_FAILURE
        assert "utf-8" in doc["error"]

    def test_invalid_value(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "estimate", "--footprints", str(path),
            "--start", "0", "--d", "-5", "--t", "1",
        )
        assert code == EXIT_BAD_PARAMETER


_SIMULATE = ["simulate", "--m", "1", "--trials", "1", "--seed", "1", "--scenario"]
_EXPERIMENT = ["experiment", "--trials", "1", "--seed", "1", "--sites"]
_PRECISION = ["precision", "--m", "1", "--d", "300", "--t", "4", "--dist"]
_CALIBRATE = ["calibrate", "--method", "wls", "--pairs"]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "text,argv,code",
        [
            ('{"components": 3, "lower": 0, "upper": 40}', _EXPERIMENT, EXIT_BAD_PARAMETER),
            ('{"sites": [{"site_id": "a"}]}', _EXPERIMENT, EXIT_BAD_PARAMETER),
            ('{"sites": 3}', _EXPERIMENT, EXIT_BAD_PARAMETER),
            ("[1, 2]", _EXPERIMENT, EXIT_BAD_PARAMETER),
            ('{"d": 300, "t": 4, "dist": 5}', _SIMULATE, EXIT_BAD_PARAMETER),
            ("[1]", _SIMULATE, EXIT_BAD_PARAMETER),
            ("{not json", _PRECISION, EXIT_IO_FAILURE),
            ("{not json", _SIMULATE, EXIT_IO_FAILURE),
            ("{not json", _EXPERIMENT, EXIT_IO_FAILURE),
        ],
        ids=[
            "sites-no-sites-key", "sites-row-missing-keys", "sites-not-a-list",
            "sites-not-an-object", "scenario-dist-number", "scenario-not-an-object",
            "dist-not-json", "scenario-not-json", "sites-not-json",
        ],
    )
    def test_exit_code_and_json_error(self, capsys, tmp_path, text, argv, code):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        got, out, err = run_cli(capsys, *argv, str(path))
        assert got == code
        assert out == ""
        assert json.loads(err)["code"] == code
        assert "Traceback" not in err

    def test_unwritable_out_is_io_failure(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "apply", "--beta", "2", "--m-hat", "3",
            "--out", str(tmp_path / "no" / "such" / "dir.json"),
        )
        assert code == EXIT_IO_FAILURE
        assert json.loads(err)["code"] == EXIT_IO_FAILURE


def _site_rows(**first):
    """A three-site set; ``first`` overrides keys of the first row."""
    rows = [{"site_id": str(i), "dist": "table2-60mph", "adt": 40, "m": 5, "d": d}
            for i, d in enumerate((14, 53, 64))]
    rows[0].update(first)
    return json.dumps({"t": 1.0, "sites": rows})


_DIST = {"components": [{"mean": 20.0, "sd": 4.0, "weight": 1.0}], "lower": 0.0, "upper": 40.0}


def _dist_with(where, key, value):
    doc = json.loads(json.dumps(_DIST))
    (doc["components"][0] if where == "component" else doc)[key] = value
    return json.dumps(doc)


class TestConfigValuesNotCoerced:
    # each used to run with the value coerced: m 4.9 as 4, true as 1, "4" as 4
    @pytest.mark.parametrize(
        "argv,config,key",
        [
            (_EXPERIMENT, _site_rows(m=True), "m"),
            (_EXPERIMENT, _site_rows(m="5"), "m"),
            (_EXPERIMENT, _site_rows(adt="40"), "adt"),
            (_EXPERIMENT, _site_rows(d=None), "d"),
            (_EXPERIMENT, json.dumps({"t": "1", "sites": json.loads(_site_rows())["sites"]}),
             "t"),
            (_SIMULATE, '{"d": true, "t": 4}', "d"),
            (_SIMULATE, '{"d": 300, "t": "4"}', "t"),
            (_SIMULATE, json.dumps({"d": 300, "t": 4, "dist": json.loads(
                _dist_with("component", "mean", "20"))}), "mean"),
            (_PRECISION, _dist_with("component", "mean", "20"), "mean"),
            (_PRECISION, _dist_with("component", "sd", True), "sd"),
            (_PRECISION, _dist_with("component", "weight", "1"), "weight"),
            (_PRECISION, _dist_with("support", "lower", False), "lower"),
            (_PRECISION, _dist_with("support", "upper", "40"), "upper"),
            (_EXPERIMENT, _site_rows(site_id=True), "site_id"),
            (_EXPERIMENT, _site_rows(site_id=None), "site_id"),
            (_EXPERIMENT, _site_rows(site_id=7.5), "site_id"),
            (_EXPERIMENT, _site_rows(site_id="1"), "site_id"),
            (_EXPERIMENT, json.dumps({"sites": [
                {"site_id": i, "dist": "table2-60mph", "adt": 40, "m": 5, "d": 14}
                for i in (True, True, None, "x", 7.5)]}), "site_id"),
        ],
        ids=[
            "site-m-bool", "site-m-string", "site-adt-string",
            "site-d-null", "sites-t-string", "scenario-d-bool", "scenario-t-string",
            "scenario-dist-mean-string", "dist-mean-string", "dist-sd-bool",
            "dist-weight-string", "dist-lower-bool", "dist-upper-string",
            "site-id-bool", "site-id-null", "site-id-number", "site-id-duplicate",
            "site-ids-mixed",
        ],
    )
    def test_exit_3_naming_the_key(self, capsys, tmp_path, argv, config, key):
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        error = json.loads(err)
        assert error["code"] == EXIT_BAD_PARAMETER
        assert repr(key) in error["error"]

    def test_integral_float_m_runs_as_the_integer(self, capsys, tmp_path):
        outs = []
        for m in (5, 5.0):
            path = tmp_path / "sites.json"
            path.write_text(_site_rows(m=m), encoding="utf-8")
            code, out, _ = run_cli(capsys, *_EXPERIMENT, str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def _sites(d="53", t="1.0"):
    rows = ", ".join(
        f'{{"site_id": "{i}", "dist": "table2-60mph", "adt": 40, "m": 5, "d": {dd}}}'
        for i, dd in enumerate(("14", d, "64"))
    )
    return f'{{"t": {t}, "sites": [{rows}]}}'


_P = ("--dist", "park-i35")


class TestNonFiniteParameters:
    # each used to exit 0 with null or zero results, exit 1 with a traceback,
    # or exit 3 with an unrelated message from deep inside the computation
    @pytest.mark.parametrize(
        "argv,config",
        [
            (("precision", "--m", "8", "--d", "inf", "--t", "4", *_P), None),
            (("precision", "--m", "8", "--d", "300", "--t", "inf", *_P), None),
            (("optimize", "--dmax", "inf", "--t", "4", "--objective", "cv", *_P), None),
            (("optimize", "--dmax", "200", "--t", "inf", "--objective", "cv", *_P), None),
            (("pdf", "--m", "8", "--d", "inf", "--t", "4", "--out", "{out}", *_P), None),
            (("pdf", "--m", "8", "--d", "300", "--t", "4", "--grid-step", "nan",
              "--out", "{out}", *_P), None),
            (("estimate", "--footprints", "{csv}", "--start", "0", "--d", "inf",
              "--t", "4"), None),
            (("estimate", "--footprints", "{csv}", "--start", "nan", "--d", "30",
              "--t", "4"), None),
            (("apply", "--beta", "inf", "--m-hat", "3"), None),
            (_SIMULATE, '{"d": NaN, "t": 4}'),
            (_SIMULATE, '{"d": Infinity, "t": 4}'),
            (_SIMULATE, '{"d": 300, "t": Infinity}'),
            (_EXPERIMENT, _sites(d="NaN")),
            (_EXPERIMENT, _sites(d="Infinity")),
            (_EXPERIMENT, _sites(t="Infinity")),
            (_CALIBRATE, "m_hat,adt,weight\n1,60,1\nnan,100,1\n"),
            (_CALIBRATE, "m_hat,adt,weight\n1,60,1\n1e200,100,1\n"),
        ],
        ids=[
            "precision-d-inf", "precision-t-inf", "optimize-dmax-inf", "optimize-t-inf",
            "pdf-d-inf", "pdf-grid-step-nan", "estimate-d-inf", "estimate-start-nan",
            "apply-beta-inf", "scenario-d-nan", "scenario-d-inf", "scenario-t-inf",
            "sites-d-nan", "sites-d-inf", "sites-t-inf", "pairs-m-hat-nan", "pairs-sxx-overflow",
        ],
    )
    def test_exit_3_with_json_error(self, capsys, tmp_path, argv, config):
        csv_path = tmp_path / "f.csv"
        csv_path.write_text("position_m,speed_mps\n10,5\n20,6\n", encoding="utf-8")
        paths = {"{csv}": str(csv_path), "{out}": str(tmp_path / "out.csv")}
        argv = [paths.get(a, a) for a in argv]
        if config is not None:
            (tmp_path / "config.json").write_text(config, encoding="utf-8")
            argv.append(str(tmp_path / "config.json"))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        assert json.loads(err)["code"] == EXIT_BAD_PARAMETER
        assert "Traceback" not in err
        assert "NaN to integer" not in err


class TestProbeCount:
    # a 401-digit m used to exit 1 with an OverflowError traceback, and a
    # negative m to run the vmr objective
    _HUGE_M = "1" + "0" * 400

    @pytest.mark.parametrize(
        "argv",
        [
            ("precision", "--m", _HUGE_M, "--d", "300", "--t", "4", *_P),
            ("precision", "--m", "1" + "0" * 308, "--d", "7", "--t", "1", *_P),
            ("optimize", "--dmax", "20", "--t", "4", "--objective", "cv", "--m", _HUGE_M, *_P),
            ("optimize", "--dmax", "20", "--t", "4", "--objective", "vmr", "--m", "-5", *_P),
            ("optimize", "--dmax", "20", "--t", "4", "--objective", "vmr", "--m", "0", *_P),
        ],
        ids=["precision-huge", "precision-variance-overflows", "optimize-cv-huge",
             "optimize-vmr-negative", "optimize-vmr-zero"],
    )
    def test_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        assert json.loads(err)["code"] == EXIT_BAD_PARAMETER

    def test_cv_is_the_optimize_curve_value(self, capsys):
        report = run_json(capsys, "precision", "--m", "3", "--d", "110", "--t", "4", *_P)
        curve = run_json(capsys, "optimize", "--dmax", "220", "--step", "110", "--t", "4",
                         "--objective", "cv", "--m", "3", *_P)["curve"]
        assert curve[0] == [110.0, report["cv"]]


_WIDE = '{"components": [{"mean": 20, "sd": 5, "weight": 1}], "lower": 0, "upper": 1e200}'
_E = ("estimate", "--footprints", "{csv}", "--start", "0")


class TestOneCheckPerInput:
    # the CLI passes --m, --d and --t through, and stderr carries the
    # library's message; each of these had a text of the CLI's own
    @pytest.mark.parametrize(
        "argv,message",
        [
            ((*_E, "--d", "inf", "--t", "1"), "cordon length must be positive and finite, got inf"),
            ((*_E, "--d", "10", "--t", "0"), "t must be positive and finite, got 0.0"),
            (("precision", "--m", "0", "--d", "300", "--t", "4", *_P),
             "m must be an integer >= 1, got 0"),
            (("precision", "--m", "1", "--d", "300", "--t", "nan", *_P),
             "t must be positive and finite, got nan"),
            (("pdf", "--m", "-3", "--d", "300", "--t", "4", "--out", "{out}", *_P),
             "m must be an integer >= 1, got -3"),
            (("optimize", "--dmax", "0.2", "--t", "4", "--objective", "cv", *_P),
             "need 0 < d_min <= d_max < inf, got (0.5, 0.2)"),
            (("simulate", "--scenario", "s1", "--m", "-1", "--trials", "1", "--seed", "1"),
             "bad scenario config: m must be an integer >= 0, got -1"),
            ((*_EXPERIMENT, "{sites}"), "site 0: m must be an integer >= 1, got 0.0"),
            (("simulate", "--scenario", "s1", "--m", "1", "--trials", "1", "--seed", "-1"),
             "bad scenario config: seed must be an integer >= 0, got -1"),
            (("experiment", "--sites", "table2", "--trials", "1", "--seed", "-1"),
             "seed must be an integer >= 0, got -1"),
        ],
        ids=["estimate-d", "estimate-t", "precision-m", "precision-t", "pdf-m", "optimize-range",
             "simulate-m", "experiment-site-m", "simulate-seed", "experiment-seed"],
    )
    def test_library_message(self, capsys, tmp_path, argv, message):
        (tmp_path / "f.csv").write_text("position_m,speed_mps\n10,5\n", encoding="utf-8")
        (tmp_path / "sites.json").write_text(json.dumps({"sites": [
            {"site_id": str(i), "dist": "park-i35", "adt": 40, "m": 3 * i, "d": 50}
            for i in range(3)]}), encoding="utf-8")
        paths = {"{csv}": "f.csv", "{out}": "out.csv", "{sites}": "sites.json"}
        argv = [str(tmp_path / paths[a]) if a in paths else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        assert json.loads(err) == {"error": message, "code": EXIT_BAD_PARAMETER}

    # a config value goes to the library as a float, and its message is the library's
    @pytest.mark.parametrize(
        "argv,config,message",
        [
            (_EXPERIMENT, _site_rows(m=4.9), "site 0: m must be an integer >= 1, got 4.9"),
            (_EXPERIMENT, _site_rows(m=4.9).replace("4.9", "1e400"),
             "site 0: m must be an integer >= 1, got inf"),
            (_EXPERIMENT, _site_rows(m=10**400),
             "malformed site set config {path!r}: int too large to convert to float"),
            (_PRECISION, _dist_with("component", "mean", math.inf),
             "component mean must be finite, got inf"),
        ],
        ids=["site-m-fraction", "site-m-1e400", "site-m-past-float", "dist-mean-inf"],
    )
    def test_config_message(self, capsys, tmp_path, argv, config, message):
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        assert json.loads(err) == {"error": message.format(path=str(path)),
                                   "code": EXIT_BAD_PARAMETER}

    # a bad number and an unreadable file: the file is read before the
    # library checks the number, so the request exits 4 (it exited 3)
    @pytest.mark.parametrize(
        "argv",
        [
            ("precision", "--m", "0", "--d", "300", "--t", "4", "--dist", "{bad}"),
            ("pdf", "--m", "0", "--d", "300", "--t", "4", "--out", "{out}", "--dist", "{bad}"),
            ("estimate", "--footprints", "{missing}", "--start", "0", "--d", "10", "--t", "0"),
        ],
        ids=["precision", "pdf", "estimate"],
    )
    def test_unreadable_file_is_reported_first(self, capsys, tmp_path, argv):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        paths = {"{bad}": "bad.json", "{out}": "out.csv", "{missing}": "missing.csv"}
        argv = [str(tmp_path / paths[a]) if a in paths else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_IO_FAILURE
        assert out == ""
        assert json.loads(err)["code"] == EXIT_IO_FAILURE

    # s*s overflows past 1.3e154, but the top quadrature piece ends where
    # the density underflows to 0, 40 sd above the mean: a QuadratureError
    # traceback and exit 1 at first, then exit 3 for the non-finite weight
    @pytest.mark.parametrize(
        "argv",
        [
            ("precision", "--m", "1", "--d", "300", "--t", "4", "--dist", "{wide}"),
            ("optimize", "--dmax", "2", "--t", "4", "--objective", "cv", "--dist", "{wide}"),
            (*_EXPERIMENT, "{sites}"),
        ],
        ids=["precision", "optimize", "experiment"],
    )
    def test_wide_speed_support_computed(self, capsys, tmp_path, argv):
        wide = tmp_path / "wide.json"
        wide.write_text(_WIDE, encoding="utf-8")
        (tmp_path / "sites.json").write_text(json.dumps({"sites": [
            {"site_id": str(i), "dist": str(wide), "adt": 40, "m": 3, "d": 50}
            for i in range(3)]}), encoding="utf-8")
        argv = [str(tmp_path / f"{a[1:-1]}.json") if a[0] == "{" else a for a in argv]
        doc = run_json(capsys, *argv)
        if argv[0] == "precision":
            tight = from_dict({**json.loads(_WIDE), "upper": 1e3})
            assert doc["vmr"] == pytest.approx(distribution_engine.vmr(300.0, 4.0, tight),
                                               rel=1e-15)


_HUGE_SITE = json.dumps({"sites": [
    {"site_id": str(i), "adt": 100, "m": 10**13 if i == 0 else 10, "d": 40,
     "dist": "park-i35"} for i in range(3)]})
_MANY_COMPONENTS = json.dumps({
    "components": [{"mean": 5 + 30 * i / 499, "sd": 3, "weight": 1 / 500}
                   for i in range(500)],
    "lower": 0, "upper": 40})


class TestSizeCaps:
    # each used to raise MemoryError out of main (exit 1) or to fill memory
    @pytest.mark.parametrize(
        "argv,config",
        [
            (("simulate", "--scenario", "s1", "--m", "1", "--trials", "100000001",
              "--seed", "1"), None),
            (("simulate", "--scenario", "s1", "--m", "1000000", "--trials", "10000",
              "--seed", "1"), None),
            (("simulate", "--scenario", "s2", "--m", "1000000000000", "--trials", "1",
              "--seed", "1"), None),
            (("experiment", "--sites", "table2", "--trials", "1000000000000",
              "--seed", "1"), None),
            # m_hat is 0 or, for about 1 pass in 10^5, 4 * speed / 0.001: a
            # histogram of millions of 0.02-wide bins
            (("simulate", "--m", "1", "--trials", "1000000", "--seed", "3", "--scenario"),
             '{"d": 0.001, "t": 4}'),
            # a 3e13-point grid: numpy was asked for 218 TiB
            (("optimize", "--dmax", "3", "--t", "1", "--objective", "cv", "--dist",
              "park-i35", "--step", "1e-13"), None),
            # 1.5e8 points: allocatable, but days of variance quadratures
            (("optimize", "--dmax", "150", "--t", "4", "--objective", "vmr", "--dist",
              "park-i35", "--step", "1e-6"), None),
            # 10^9 passes in one trial, so in one block: 24 GB or more
            (("simulate", "--scenario", "s1", "--m", "1000000000", "--trials", "1",
              "--seed", "1"), None),
            # 1.26e9 passes over the 34 sites
            (("experiment", "--sites", "table2", "--trials", "1000000", "--seed", "1"), None),
            # numpy's _ArrayMemoryError for the site's 3e13 uniforms
            (("experiment", "--trials", "1", "--seed", "1", "--sites"), _HUGE_SITE),
            # 10,500 fixed quadrature pieces of 500 components each: GBs
            (("precision", "--m", "1", "--d", "1", "--t", "1", "--dist"), _MANY_COMPONENTS),
            # 3.1e7 band pieces for 2e6 cells: over 1.5 GB
            (("pdf", "--m", "1", "--d", "300", "--t", "4", "--grid-step", "1e-6",
              "--out", "{out}", *_P), None),
            # m_hat up to 16,000 on a 1e-3 grid: 1.6e7 cells, as many pieces
            (("pdf", "--m", "1", "--d", "0.01", "--t", "4", "--out", "{out}", *_P), None),
            # a 10^9-fold density spreads over 7.5e6 cells of 0.01; the full
            # grid was 2e11
            (("pdf", "--m", "1000000000", "--d", "300", "--t", "4", "--grid-step", "0.01",
              "--out", "{out}", *_P), None),
            (("pdf", "--m", "1" + "0" * 30, "--d", "300", "--t", "4", "--grid-step", "0.01",
              "--out", "{out}", *_P), None),
        ],
        ids=["simulate-trials", "simulate-passes", "simulate-m", "experiment-trials",
             "simulate-histogram-bins", "optimize-step-alloc", "optimize-step-time",
             "simulate-trial-passes",
             "experiment-passes", "experiment-trial-passes", "precision-components",
             "pdf-grid-step", "pdf-short-cordon", "pdf-fold-window", "pdf-m-huge"],
    )
    def test_exit_3_with_json_error(self, capsys, tmp_path, argv, config):
        argv = [str(tmp_path / "out.csv") if a == "{out}" else a for a in argv]
        if config is not None:
            (tmp_path / "config.json").write_text(config, encoding="utf-8")
            argv.append(str(tmp_path / "config.json"))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        assert json.loads(err)["code"] == EXIT_BAD_PARAMETER
        assert not (tmp_path / "out.csv").exists()


    # 2.7e10 and 5.4e6 kinks to the old tail stop, over the variance piece
    # cap (exit 3): now the first kink is resolved, the rest summed by
    # Euler-Maclaurin
    @pytest.mark.parametrize("d", ["1e9", "2e5"], ids=["precision-d-kinks", "precision-d-memory"])
    def test_long_cordon_computed(self, capsys, park, d):
        start = time.perf_counter()
        doc = run_json(capsys, "precision", "--m", "1", "--d", d, "--t", "1", "--dist", "park-i35")
        assert time.perf_counter() - start < 1.0
        r = float(d)
        if r > 1e6:
            # the kink spacing in s is under upper^2/r = 1.6e-6 m/s: the
            # integral is its kernel's cycle mean E[s^2]/6 to far below 1e-14
            want = integrate_weighted(park, lambda s: s * s / 6.0) / (r * r)
            assert doc["vmr"] == pytest.approx(want, rel=1e-14)
        else:
            # every kink resolved down to a tail under 1e-8 of the integral
            low = kink_sum_vmr(r, 1.0, park, tail=1e-8, chunk=1 << 15)
            assert low * (1.0 - 1e-14) <= doc["vmr"] <= low * (1.0 + 1e-8)


_OVERSIZED = "1" * 200_000  # over the csv module's 131072-character field limit


class TestOversizedField:
    def test_footprint_row_skipped_with_warning(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(f"position_m,speed_mps\n10,20\n{_OVERSIZED},5\n30,25\n",
                        encoding="utf-8")
        argv = ["estimate", "--footprints", str(path), "--start", "0", "--d", "100", "--t", "1"]
        doc = run_json(capsys, *argv)
        assert doc["n"] == 2  # the row after the oversized one still parses
        assert doc["m_hat"] == pytest.approx(0.45, rel=1e-12)
        [warning] = doc["warnings"]
        assert ":3:" in warning and "field limit" in warning

        code, out, err = run_cli(capsys, *argv, "--strict")
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        assert ":3:" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv,header",
        [
            (("estimate", "--start", "0", "--d", "100", "--t", "1", "--footprints"),
             "position_m,speed_mps"),
            (("calibrate", "--method", "ols", "--pairs"), "m_hat,adt"),
        ],
        ids=["footprints", "pairs"],
    )
    def test_header_exits_3(self, capsys, tmp_path, argv, header):
        path = tmp_path / "f.csv"
        path.write_text(f"{header},{_OVERSIZED}\n1,60\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        doc = json.loads(err)
        assert ":1: unreadable header" in doc["error"] and "field limit" in doc["error"]

    def test_pairs_row_exits_3_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(f"m_hat,adt\n1,60\n2,100\n{_OVERSIZED},5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--pairs", str(path), "--method", "ols")
        assert code == EXIT_BAD_PARAMETER
        assert out == ""
        doc = json.loads(err)
        assert ":4:" in doc["error"] and "field limit" in doc["error"]


class TestPrecision:
    def test_park_values(self, capsys):
        doc = run_json(
            capsys, "precision", "--m", "1", "--d", "300", "--t", "4",
            "--dist", "park-i35",
        )
        assert doc["variance"] == pytest.approx(0.019, abs=0.001)
        assert doc["cv"] == pytest.approx(0.137, abs=0.001)
        assert doc["mean"] == 1

    @pytest.mark.parametrize("d,code", [("1e-200", EXIT_OK), ("1e-300", EXIT_OK),
                                        ("1e-308", EXIT_BAD_PARAMETER),
                                        ("1e-323", EXIT_BAD_PARAMETER)])
    def test_tiny_cordon(self, capsys, d, code):
        # d*d underflowed to 0 here: exit 1 with a ZeroDivisionError
        got, out, err = run_cli(
            capsys, "precision", "--m", "1", "--d", d, "--t", "1", "--dist", "park-i35",
        )
        assert got == code
        if code == EXIT_OK:
            assert 0.0 < json.loads(out)["vmr"] < math.inf
        else:
            assert "not finite" in json.loads(err)["error"]

    def test_unknown_dist(self, capsys):
        code, _, err = run_cli(
            capsys, "precision", "--m", "1", "--d", "300", "--t", "4",
            "--dist", "bogus",
        )
        assert code == EXIT_BAD_PARAMETER


class TestEstimate:
    def test_empty_csv(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("position_m,speed_mps\n", encoding="utf-8")
        doc = run_json(
            capsys, "estimate", "--footprints", str(path),
            "--start", "0", "--d", "100", "--t", "1",
        )
        assert doc["m_hat"] == 0
        assert doc["n"] == 0
        assert doc["warnings"] == []

    def test_worked_example(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        rows = ["position_m,speed_mps"]
        rows += [f"{p},20.0" for p in (10, 30, 50, 70, 90)]
        rows += [f"{p},30.0" for p in (25, 55, 85)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        doc = run_json(
            capsys, "estimate", "--footprints", str(path),
            "--start", "0", "--d", "100", "--t", "1",
        )
        assert doc["m_hat"] == pytest.approx(1.9, abs=1e-12)
        assert doc["n"] == 8

    @pytest.mark.parametrize("label", ["aug", " aug ", "aug  "])
    def test_label_is_stripped_as_labels_are_read(self, capsys, tmp_path, label):
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps,label\n10,20, aug \n20,30,aug\n30,25,jul\n",
                        encoding="utf-8")
        doc = run_json(capsys, "estimate", "--footprints", str(path),
                       "--start", "0", "--d", "100", "--t", "1", "--label", label)
        assert (doc["n"], doc["m_hat"]) == (2, 0.5)

    @pytest.mark.parametrize("label", ["", " ", "\t"])
    def test_blank_label_exits_3_before_the_file_is_read(self, capsys, tmp_path, label):
        # blank labels are read as none, so a blank filter could match no row;
        # the file does not exist, and the label is refused first
        code, out, err = run_cli(
            capsys, "estimate", "--footprints", str(tmp_path / "missing.csv"),
            "--start", "0", "--d", "100", "--t", "1", "--label", label,
        )
        assert (code, out) == (EXIT_BAD_PARAMETER, "")
        message = f"label filter must be a non-blank string, got {label!r}"
        assert err == dumps_json({"error": message, "code": EXIT_BAD_PARAMETER}) + "\n"


_BOM_FOOTPRINTS = "position_m,speed_mps,label\r\n10,20,aug\r\nx,5,jul\r\n\r\n30,25,jul\r\n"
_BOM_FILES = [
    ("estimate", _BOM_FOOTPRINTS, ("--start", "0", "--d", "100", "--t", "1")),
    ("estimate", _BOM_FOOTPRINTS, ("--start", "0", "--d", "100", "--t", "1", "--strict")),
    ("calibrate", "m_hat,adt,weight\r\n1,60,4\r\n\r\n2,100,1\r\n", ("--method", "wls")),
    ("calibrate", "m_hat,adt\r\n1,60\r\n2,x\r\n", ("--method", "ols")),
]


class TestByteOrderMark:
    """Spreadsheet exports start a CSV with a UTF-8 byte-order mark: a file read
    with it prints what the same file without it prints."""

    @pytest.mark.parametrize("command,text,flags", _BOM_FILES,
                             ids=["estimate", "estimate-strict", "calibrate-wls", "calibrate-ols"])
    def test_same_output(self, capsys, tmp_path, command, text, flags):
        path = tmp_path / "in.csv"
        file_flag = "--footprints" if command == "estimate" else "--pairs"
        seen = []
        for bom in ("", "\ufeff"):
            path.write_text(bom + text, encoding="utf-8", newline="")
            seen.append(run_cli(capsys, command, file_flag, str(path), *flags))
        assert seen[0] == seen[1]
        assert "expected header" not in seen[1][2]


def _float_flags() -> list[tuple[str, str, str, list[str]]]:
    """(subcommand, flag, dest, its other required flags filled) for every float flag."""
    flags = []
    for command, parser in _parser()[1].items():
        options = [a for a in parser._actions if a.option_strings]
        for flag in options:
            if flag.type is not float:
                continue
            filled = []
            for other in options:
                if other.required and other is not flag:
                    filled += [other.option_strings[0], other.choices[0] if other.choices else "1"]
            flags.append((command, flag.option_strings[0], flag.dest, filled))
    return flags


_FLOAT_FLAGS = _float_flags()


class TestNegativeNumbers:
    """A float flag takes any finite float as ``repr`` writes it, and any
    spelling of inf or nan that float() reads: a negative one in exponent form,
    or -inf, is a value, not an unknown option."""

    def test_every_subcommand_with_float_flags_is_covered(self):
        assert {command for command, *_ in _FLOAT_FLAGS} == {
            "estimate", "precision", "pdf", "optimize", "apply"}

    @pytest.mark.parametrize("command,flag,dest,filled", _FLOAT_FLAGS,
                             ids=[f"{c}{f}" for c, f, _, _ in _FLOAT_FLAGS])
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @example(x=-1e16)
    @example(x=-2.5e-05)
    @example(x=-5e-324)
    @settings(max_examples=100, deadline=None)
    def test_repr_parses_back(self, command, flag, dest, filled, x):
        args = _parser()[1][command].parse_args([*filled, flag, repr(x)])
        assert repr(getattr(args, dest)) == repr(x)

    @pytest.mark.parametrize("command,flag,dest,filled", _FLOAT_FLAGS,
                             ids=[f"{c}{f}" for c, f, _, _ in _FLOAT_FLAGS])
    @given(x=st.one_of(st.from_regex(r"(?i)inf|infinity|nan", fullmatch=True),
                       st.floats(min_value=0.0, allow_infinity=False).map(repr)))
    @example(x="inf")
    @example(x="Infinity")
    @example(x="nan")
    @settings(max_examples=50, deadline=None)
    def test_separate_value_reads_as_joined(self, command, flag, dest, filled, x):
        # -inf and -nan as well: the library, not argparse, refuses them
        def output(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        joined = output([command, *filled, f"{flag}=-{x}"])
        assert output([command, *filled, flag, f"-{x}"]) == joined
        assert "expected one argument" not in joined[2]

    def test_cli(self, capsys, tmp_path):
        assert run_json(capsys, "apply", "--beta", "2", "--m-hat", "-2e0") == {"volume": -4}
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps\n-999,20\n-500,10\n", encoding="utf-8")
        doc = run_json(capsys, "estimate", "--footprints", str(path), "--start", "-1e3",
                       "--d", "1e3", "--t", "1")
        assert (doc["n"], doc["m_hat"]) == (2, 0.03)


class TestSimulateEstimateRoundTrip:
    def test_bit_for_bit(self, capsys, tmp_path):
        fp = tmp_path / "footprints.csv"
        doc = run_json(
            capsys, "simulate", "--scenario", "s1", "--m", "4",
            "--trials", "3", "--seed", "123", "--emit-footprints", str(fp),
        )
        est = run_json(
            capsys, "estimate", "--footprints", str(fp),
            "--start", "0", "--d", "300", "--t", "4",
        )
        assert est["m_hat"] == doc["emitted_m_hat"]  # exact, not approx

    def test_simulate_deterministic_output_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--scenario", "s2", "--m", "2",
                             "--trials", "500", "--seed", "9")
        _, out2, _ = run_cli(capsys, "simulate", "--scenario", "s2", "--m", "2",
                             "--trials", "500", "--seed", "9")
        assert out1 == out2

    def test_hist_out(self, capsys, tmp_path):
        hist = tmp_path / "h.csv"
        run_json(capsys, "simulate", "--scenario", "s2", "--m", "1",
                 "--trials", "200", "--seed", "3", "--hist-out", str(hist))
        lines = hist.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 200


class TestPdf:
    def test_csv_emission(self, capsys, tmp_path):
        out = tmp_path / "pdf.csv"
        code, _, err = run_cli(
            capsys, "pdf", "--m", "1", "--d", "300", "--t", "4",
            "--dist", "park-i35", "--out", str(out),
        )
        assert code == EXIT_OK, err
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# atom_at_zero=0")
        assert "mean=" in lines[0] and "vmr=" in lines[0]
        assert lines[1] == "m_hat,density"
        cells = [line.split(",") for line in lines[2:]]
        mass = sum(float(dens) for _, dens in cells) * 1e-3
        assert mass == pytest.approx(1.0, abs=1e-4)  # 9-digit CSV rounding

    def test_m_fold_emission(self, capsys, tmp_path):
        out = tmp_path / "pdf2.csv"
        code, _, err = run_cli(
            capsys, "pdf", "--m", "2", "--d", "40", "--t", "1",
            "--dist", "park-i35", "--grid-step", "0.002", "--out", str(out),
        )
        assert code == EXIT_OK, err
        header = out.read_text(encoding="utf-8").splitlines()[0]
        mean = float(header.split("mean=")[1].split()[0])
        assert mean == pytest.approx(2.0, abs=1e-2)


def _per_row(header, row_format, rows):
    """Reference CSV text: the header, then each row formatted on its own."""
    return header + "\n" + "".join(row_format % row for row in rows)


class TestCsvWriters:
    # every CSV the CLI writes equals the row-by-row formatting of the
    # library's values
    @pytest.mark.parametrize(
        "m,d,t,step", [(1, 300.0, 4.0, 1e-3), (64, 300.0, 4.0, 1e-2), (8, 5.0, 4.0, 1e-2)]
    )
    def test_pdf(self, capsys, tmp_path, m, d, t, step):
        out = tmp_path / "pdf.csv"
        code, _, err = run_cli(
            capsys, "pdf", "--m", str(m), "--d", str(d), "--t", str(t), *_P,
            "--grid-step", str(step), "--out", str(out),
        )
        assert code == EXIT_OK, err
        single = distribution_engine.single_probe_pdf(d, t, load_distribution("park-i35"), step)
        pdf = distribution_engine.m_fold_pdf(single, m)
        text = out.read_text(encoding="utf-8")
        header = text.split("\n", 2)[:2]
        assert header[1] == "m_hat,density"
        want = _per_row("\n".join(header), "%.9g,%.9g\n", zip(pdf.grid(), pdf.densities))
        assert text == want

    def test_optimize_curve(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        run_json(capsys, "optimize", "--dmax", "60", "--t", "4", *_P, "--objective", "cv",
                 "--step", "0.5", "--curve-out", str(out))
        report = optimize_cordon(60.0, 4.0, load_distribution("park-i35"), "cv", 1, 0.5)
        want = _per_row("d,objective", "%.9g,%.9g\n", report.curve)
        assert out.read_text(encoding="utf-8") == want

    def test_simulate_hist(self, capsys, tmp_path):
        out = tmp_path / "hist.csv"
        run_json(capsys, "simulate", "--scenario", "s2", "--m", "3", "--trials", "2000",
                 "--seed", "5", "--hist-out", str(out))
        _, summary = probe_simulator.run_scenario(probe_simulator.load_scenario("s2", 3, 2000, 5))
        edges = summary.hist_edges
        rows = zip(edges[:-1], edges[1:], summary.hist_counts)
        want = _per_row("bin_start,bin_end,count", "%.9g,%.9g,%d\n", rows)
        assert out.read_text(encoding="utf-8") == want
        assert all(re.fullmatch(r"\d+", line.rsplit(",", 1)[1]) for line in want.splitlines()[1:])

    @pytest.mark.parametrize(
        "n", [0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 7]
    )
    def test_block_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        special = [0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan, 0.1]
        x = np.concatenate((special, rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)))[:n]
        y = rng.random(n)
        k = rng.integers(0, 2**62, n)
        write_csv(tmp_path / "a.csv", "x,y,k", "%.9g,%.9g,%d\n", x, y, k)
        want = _per_row("x,y,k", "%.9g,%.9g,%d\n", zip(x, y, k))
        assert (tmp_path / "a.csv").read_text(encoding="utf-8") == want


class TestScenarioFile:
    def test_simulate_from_json_config(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"d": 40.0, "t": 1.0, "dist": "park-i35"}), encoding="utf-8"
        )
        doc = run_json(
            capsys, "simulate", "--scenario", str(scenario), "--m", "2",
            "--trials", "100", "--seed", "6",
        )
        assert doc["d"] == 40.0
        assert doc["mean"] == pytest.approx(2.0, abs=0.2)

    def test_inline_distribution(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "d": 100.0,
                    "t": 1.0,
                    "dist": {
                        "components": [{"mean": 20.0, "sd": 1e-9, "weight": 1.0}],
                        "lower": 0.0,
                        "upper": 40.0,
                    },
                }
            ),
            encoding="utf-8",
        )
        doc = run_json(
            capsys, "simulate", "--scenario", str(scenario), "--m", "1",
            "--trials", "50", "--seed", "2",
        )
        # d is a multiple of s*t, so every estimate is exactly 1
        assert doc["variance"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "s9", "--m", "1",
            "--trials", "10", "--seed", "1",
        )
        assert code == EXIT_BAD_PARAMETER


class TestOptimize:
    def test_small_grid_with_curve(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        doc = run_json(
            capsys, "optimize", "--dmax", "40", "--t", "4", "--dist", "park-i35",
            "--objective", "vmr", "--step", "10", "--curve-out", str(curve),
        )
        assert doc["best_d"] in (10.0, 20.0, 30.0, 40.0)
        lines = curve.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "d,objective"
        assert len(lines) == 5

    @pytest.mark.parametrize("grid", [("--dmax", "50", "--step", "50"), ("--dmax", "0.5")])
    def test_dmax_equal_to_step_is_one_point(self, capsys, tmp_path, grid):
        # the grid {step, 2*step, ..., <= dmax} is {dmax} when dmax = step
        curve = tmp_path / "curve.csv"
        doc = run_json(capsys, "optimize", *grid, "--t", "4", "--dist", "park-i35",
                       "--objective", "cv", "--curve-out", str(curve))
        assert doc["best_d"] == float(grid[1])
        assert curve.read_text(encoding="utf-8").splitlines()[1:] == [
            "%.9g,%.9g" % (doc["best_d"], doc["best_objective"])]


class TestCalibrate:
    def test_ols(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("m_hat,adt\n1.0,60.0\n2.0,100.0\n", encoding="utf-8")
        doc = run_json(capsys, "calibrate", "--pairs", str(path), "--method", "ols")
        assert doc["beta"] == pytest.approx(52.0, rel=1e-12)
        assert doc["method"] == "ols"

    def test_wls_needs_weight_column(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("m_hat,adt\n1.0,60.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "calibrate", "--pairs", str(path),
                               "--method", "wls")
        assert code == EXIT_BAD_PARAMETER
        assert "weight column" in json.loads(err)["error"]

    def test_wls(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "m_hat,adt,weight\n1.0,60.0,4.0\n2.0,100.0,1.0\n", encoding="utf-8"
        )
        doc = run_json(capsys, "calibrate", "--pairs", str(path), "--method", "wls")
        assert doc["beta"] == pytest.approx(55.0, rel=1e-12)

    # (method, bad row, its error after "<path>:3: bad row <row> "), the row
    # parsed weight, m_hat, adt and checked m_hat, known_volume, weight
    BAD_ROWS = [
        ("ols", "x,60", "(could not convert string to float: 'x')"),
        ("ols", "2,x", "(could not convert string to float: 'x')"),
        ("wls", "2,100,x", "(could not convert string to float: 'x')"),
        ("wls", "x,y,z", "(could not convert string to float: 'z')"),
        ("ols", "2", "(list index out of range)"),
        ("wls", "2,100", "(list index out of range)"),
        ("ols", "inf,100", "(m_hat must be finite, got inf)"),
        ("ols", "nan,100", "(m_hat must be finite, got nan)"),
        ("ols", "2,0", "(known_volume must be positive and finite, got 0.0)"),
        ("ols", "2,-1", "(known_volume must be positive and finite, got -1.0)"),
        ("ols", "2,inf", "(known_volume must be positive and finite, got inf)"),
        ("wls", "2,100,0", "(weight must be positive and finite, got 0.0)"),
        ("wls", "nan,0,0", "(m_hat must be finite, got nan)"),
        ("wls", "2,0,0", "(known_volume must be positive and finite, got 0.0)"),
        ("ols", "2,100,x", None),  # ols reads no weight: a bad one is ignored
        ("ols", "2,100,0", None),
    ]

    @pytest.mark.parametrize("method,row,error", BAD_ROWS)
    def test_bad_row_error_is_pinned(self, capsys, tmp_path, method, row, error):
        path = tmp_path / "pairs.csv"
        path.write_text(f"m_hat,adt,weight\n1,60,4\n{row}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--pairs", str(path), "--method", method)
        if error is None:
            assert (code, err) == (EXIT_OK, "")
            assert out == '{\n  "beta": 52,\n  "method": "ols"\n}\n'
            return
        cells = row.split(",")
        message = f"{path}:3: bad row {cells!r} {error}"
        assert (code, out) == (EXIT_BAD_PARAMETER, "")
        assert err == dumps_json({"error": message, "code": EXIT_BAD_PARAMETER}) + "\n"


class TestApply:
    def test_scalar(self, capsys):
        doc = run_json(capsys, "apply", "--beta", "50", "--m-hat", "2")
        assert doc["volume"] == 100.0


# run in a fresh interpreter: after importing the package and after each request in
# turn, which scipy modules are loaded
_STARTUP = """
import contextlib, io, json, sys
import probevolume
from probevolume import data_cli

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

seen = [["import probevolume", 0, scipy_loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = data_cli.main(argv)
    seen.append([argv[0], code, scipy_loaded()])
print(json.dumps(seen))
"""


class TestStartupImports:
    """The estimator, the calibration and the CLI's own options run without
    scipy; only the exact theory loads it, scipy.special alone, where it is
    called."""

    def test_scipy_loads_only_where_called(self, tmp_path):
        footprints, pairs = tmp_path / "footprints.csv", tmp_path / "pairs.csv"
        footprints.write_text("position_m,speed_mps\n10,20.0\n30,20.0\n55,30.0\n",
                              encoding="utf-8")
        pairs.write_text("m_hat,adt\n1.0,60.0\n2.0,100.0\n", encoding="utf-8")
        requests = [
            ["--help"],
            ["--version"],
            ["apply", "--beta", "50", "--m-hat", "2"],
            ["calibrate", "--pairs", str(pairs), "--method", "ols"],
            ["estimate", "--footprints", str(footprints), "--start", "0", "--d", "100",
             "--t", "1"],
            ["precision", "--m", "1", "--d", "300", "--t", "4", "--dist", "park-i35"],
            ["pdf", "--m", "2", "--d", "300", "--t", "4", "--dist", "park-i35",
             "--grid-step", "0.01", "--out", str(tmp_path / "pdf.csv")],
        ]
        src = str(Path(probevolume.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _STARTUP, json.dumps(requests)],
                              env=env, capture_output=True, text=True, check=True)
        seen = json.loads(done.stdout)
        assert [code for _, code, _ in seen] == [0] * 8, seen
        for step, _, loaded in seen[:6]:
            assert loaded == [], step
        (_, _, theory), (_, _, fold) = seen[6:]
        assert "scipy.special" in theory and "scipy.fft" not in theory
        assert fold == theory  # the fold loads no scipy module: it runs on numpy.fft


class TestExperimentCli:
    def test_small_run(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "experiment", "--sites", "table2", "--trials", "2",
            "--seed", "5", "--out", str(out),
        )
        assert code == EXIT_OK, err
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["n_pairs"] == 561
        assert len(doc["mape_ols"]) == 2


_SIM = ("simulate", "--scenario", "s1", "--m", "2", "--trials", "20", "--seed", "1")
_SIM_KEYS = ["d", "t", "m", "trials", "seed", "mean", "variance", "cv"]


class TestOutputLayout:
    # JSON key order follows the result dataclasses' field order, so reordering
    # a field must fail here; each CSV file is pinned by its first lines
    @pytest.mark.parametrize(
        "argv,keys,heads",
        [
            (("estimate", "--footprints", "{footprints}", "--start", "0", "--d", "100",
              "--t", "1"), ["m_hat", "n", "d", "t", "dropped_records", "warnings"], []),
            (("precision", "--m", "2", "--d", "300", "--t", "4", *_P),
             ["m", "d", "t", "mean", "variance", "vmr", "cv"], []),
            (("optimize", "--dmax", "20", "--t", "4", "--objective", "cv", "--step", "10",
              "--curve-out", "{csv}", *_P),
             ["best_d", "best_objective", "objective_kind", "m", "t", "curve"],
             ["d,objective"]),
            ((*_SIM, "--hist-out", "{csv}"), _SIM_KEYS, ["bin_start,bin_end,count"]),
            ((*_SIM, "--emit-footprints", "{csv}"),
             [*_SIM_KEYS, "emitted_m_hat", "emitted_records"], ["position_m,speed_mps,label"]),
            (("experiment", "--sites", "table2", "--trials", "2", "--seed", "1"),
             ["trials", "n_sites", "n_pairs", "seed", "mean_mape_ols", "mean_mape_wls",
              "wls_win_fraction", "mape_ols", "mape_wls"], []),
            (("calibrate", "--pairs", "{pairs}", "--method", "wls"), ["beta", "method"], []),
            (("apply", "--beta", "2", "--m-hat", "3"), ["volume"], []),
            (("pdf", "--m", "2", "--d", "40", "--t", "1", "--grid-step", "0.01",
              "--out", "{csv}", *_P), None,
             [r"# atom_at_zero=\S+ mean=\S+ variance=\S+ vmr=\S+ cv=\S+", "m_hat,density"]),
        ],
        ids=["estimate", "precision", "optimize", "simulate", "simulate-emit", "experiment",
             "calibrate", "apply", "pdf"],
    )
    def test_json_keys_and_csv_heads(self, capsys, tmp_path, argv, keys, heads):
        inputs = {
            "{footprints}": "position_m,speed_mps\n10,20\n",
            "{pairs}": "m_hat,adt,weight\n1,60,2\n2,100,1\n",
        }
        paths = {"{csv}": tmp_path / "out.csv"}
        for token, text in inputs.items():
            paths[token] = tmp_path / f"{token[1:-1]}.csv"
            paths[token].write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *[str(paths.get(a, a)) for a in argv])
        assert code == EXIT_OK, err
        if keys is None:
            assert out == ""
        else:
            assert list(json.loads(out)) == keys
        if heads:
            lines = paths["{csv}"].read_text(encoding="utf-8").splitlines()
            for pattern, line in zip(heads, lines):
                assert re.fullmatch(pattern, line), (pattern, line)


def _recursive_dumps(obj, indent=0):
    """The emitter as it was before list items were formatted inline: one
    recursive call per value. dumps_json must write its bytes."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_recursive_dumps(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_recursive_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


class TestJsonBytes:
    SCALARS = [
        1.0, 0.1, np.float64(1.0 / 3.0), np.float64(-0.0), -0.0, 5e-324, -5e-324, 1e308,
        math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(0.1),
        0, -7, 2**70, np.int64(3), True, False, np.True_, None, "s", 'q"\\\u00e9', "",
    ]

    @pytest.mark.parametrize("value", SCALARS, ids=repr)
    def test_nested_items_as_the_recursive_emitter(self, value):
        docs = [
            [value], (value,), [value, [value, (value, [])], ()],
            {"a": [value, {"b": (value, value)}], "c": {}},
            [[[value]], ({"k": value},)],
        ]
        for doc in docs:
            assert dumps_json(doc).encode() == _recursive_dumps(doc).encode()

    def test_mixed_lists(self):
        doc = {"xs": self.SCALARS, "t": tuple(self.SCALARS), "nested": [self.SCALARS, []]}
        assert dumps_json(doc).encode() == _recursive_dumps(doc).encode()
        assert json.loads(dumps_json(doc))["xs"][8:11] == [None, None, None]

    def test_experiment_report_with_500_trials(self):
        sites = probe_simulator.load_sites("table2")
        report = probe_simulator.run_regression_experiment(sites, 500, all_pairs=False, seed=3)
        doc = _fields(report)
        assert len(doc["mape_ols"]) == len(doc["mape_wls"]) == 500
        assert dumps_json(doc).encode() == _recursive_dumps(doc).encode()


class TestJsonRoundTrip:
    def test_nan_is_null(self, capsys):
        # no probes: every estimate is 0, so the cv is 0/0
        code, out, _ = run_cli(capsys, "simulate", "--scenario", "s1", "--m", "0",
                               "--trials", "3", "--seed", "1")
        assert code == EXIT_OK
        assert '\n  "cv": null\n' in out
        assert json.loads(out)["mean"] == 0.0

    def test_seventeen_digit_floats_round_trip(self):
        values = [0.1, 1.0 / 3.0, 2.0**-52, 1.9, 0.018666973585263646]
        doc = {"xs": values}
        back = json.loads(dumps_json(doc))
        assert back["xs"] == values
