#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [-v]

Generation is deterministic in the seed, the checks fail corrupted outputs,
the percentile helper refuses thin tails, the speed scale cancels machine
drift but not a slower request, and two traced runs of one seed
give identical layer counts. Takes about two minutes; the last test serves
every workload twice.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

import checks
import layers
import speed
import workloads

sys.path.insert(0, str(run.SRC))
from probevolume import data_cli  # noqa: E402

SCRATCH = run.WORK / f"selftest-{os.getpid()}"


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _serve(argv: list[str], workdir: Path) -> checks.Response:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return run.serve(data_cli.main, argv)
    finally:
        os.chdir(cwd)


class GenerationTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a = workloads.generate(name, 7, SCRATCH / f"{name}-a")
                b = workloads.generate(name, 7, SCRATCH / f"{name}-b")
                c = workloads.generate(name, 8, SCRATCH / f"{name}-c")
                self.assertEqual(workloads.request_list_bytes(a), workloads.request_list_bytes(b))
                self.assertNotEqual(workloads.request_list_bytes(a),
                                    workloads.request_list_bytes(c))
                files_a = _tree_digest(SCRATCH / f"{name}-a" / "in")
                self.assertEqual(files_a, _tree_digest(SCRATCH / f"{name}-b" / "in"))
                if any((SCRATCH / f"{name}-a" / "in").iterdir()):
                    self.assertNotEqual(files_a, _tree_digest(SCRATCH / f"{name}-c" / "in"))

    def test_every_run_serves_enough_requests_for_p90(self):
        for name in workloads.WORKLOADS:
            wl = workloads.generate(name, 3, SCRATCH / name)
            self.assertGreaterEqual(len(wl.requests), 100, name)


class CheckTest(unittest.TestCase):
    def setUp(self):
        oracle = checks.VarianceOracle(run.SRC / "probevolume" / "presets")
        self.checker = checks.Checker(SCRATCH, oracle, None)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def _first(self, name: str, kind: str) -> workloads.Request:
        wl = workloads.generate(name, 5, SCRATCH)
        return next(r for r in wl.requests if r.kind == kind)

    def test_m_hat_off_by_one_ulp_fails(self):
        req = self._first("ingest", "ingest")
        resp = _serve(req.argv, SCRATCH)
        self.assertIsNone(self.checker.check(req, resp))
        doc = json.loads(resp.stdout)
        doc["m_hat"] = math.nextafter(doc["m_hat"], math.inf)
        resp.stdout = json.dumps(doc)
        self.checker.new_pass()
        self.assertIn("m_hat", self.checker.check(req, resp))

    def test_invalid_request_needs_its_exit_code(self):
        req = self._first("ingest", "ingest_error")
        resp = _serve(req.argv, SCRATCH)
        self.assertIsNone(self.checker.check(req, resp))
        resp.rc = 3 if req.expect["exit"] == 4 else 4
        self.assertIn("exit code", self.checker.check(req, resp))

    def test_pdf_mass_one_plus_1e5_fails(self):
        req = self._first("density", "pdf")
        resp = _serve(req.argv, SCRATCH)
        self.assertIsNone(self.checker.check(req, resp))
        path = SCRATCH / req.outputs[0]
        head, body = path.read_text(encoding="utf-8").split("\n", 1)
        items = head[2:].split()
        atom = float(items[0].split("=", 1)[1])
        items[0] = f"atom_at_zero={atom + 1e-5!r}"  # total mass becomes 1 + 1e-5
        path.write_text("# " + " ".join(items) + "\n" + body, encoding="utf-8")
        self.assertIn("mass", self.checker.check(req, resp))

    def test_reference_values_are_compared(self):
        req = self._first("cordon", "precision")
        resp = _serve(req.argv, SCRATCH)
        ref = checks.key_values(req, resp, SCRATCH)
        self.checker.reference = {req.rid: dict(ref, vmr=ref["vmr"] * (1 + 1e-8))}
        self.assertIn("reference", self.checker.check(req, resp))


class PercentileTest(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([float(x) for x in range(99)], 0.9)
        self.assertAlmostEqual(run.percentile([float(x) for x in range(101)], 0.9), 90.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0] * 7, 0.5), 2.0)


class SpeedScaleTest(unittest.TestCase):
    def test_machine_drift_cancels_and_program_change_shows(self):
        walls = [0.01, 0.02, 0.5, 0.01, 0.03] * 4
        probes = [1e-3] * len(walls)
        self.assertEqual(speed.reference_times(walls, probes), walls)
        # the whole machine 40 % slower: every wall time and every probe time
        slow = speed.reference_times([w * 1.4 for w in walls], [p * 1.4 for p in probes])
        for got, want in zip(slow, walls):
            self.assertAlmostEqual(got, want, delta=1e-12)
        # one request twice as slow on a steady machine
        changed = speed.reference_times(walls[:2] + [1.0] + walls[3:], probes)
        self.assertAlmostEqual(changed[2], 1.0, delta=1e-12)
        # one disturbed probe moves no request: the median of nine sets the scale
        bumped = speed.reference_times(walls, probes[:7] + [5e-3] + probes[8:])
        self.assertEqual(bumped, walls)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         [(k, v[0], v[1]) for k, v in layers.LAYER_METRICS.items()])
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))


class TraceTest(unittest.TestCase):
    def test_counts_repeat_across_two_traced_runs(self):
        counts = {name for name, spec in layers.LAYER_METRICS.items()
                  if spec[0] not in ("s", "1/s")}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for _ in range(2):
                    out = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                         "--seed", "4", "--seconds", "1", "--trace", "1"],
                        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=170)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"], out.stdout[-2000:])
                    self.assertEqual(set(result["metrics"]), set(layers.LAYER_METRICS))
                    runs.append({k: result["metrics"][k]["value"] for k in counts})
                self.assertEqual(runs[0], runs[1])


if __name__ == "__main__":
    unittest.main()
