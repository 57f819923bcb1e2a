"""Per-request output checks; a request fails when its check returns a reason.

The checks use only what the generator recorded, an independent variance
oracle and, for the default seed, committed reference values. Nothing here
calls probevolume.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from workloads import PINNED_OPTIMIZE, SCENARIOS, Request, optimize_grid

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-9
ORACLE_RTOL = 1e-6  # VMR against the independent oracle
MOMENT_BRIDGE_RTOL = 0.02  # C5: grid variance against m * VMR
IDENTITY_RTOL = 1e-12  # values the CLI derives from each other


@dataclass
class Response:
    rc: int
    stdout: str
    stderr: str
    latency_s: float
    error: str | None = None  # an exception escaped data_cli.main


# -- independent variance oracle ---------------------------------------------

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_ANCHOR_SDS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
_KINK_FLOOR = 0.02  # below this speed the VMR integrand is < 1e-4 * G(s)


class VarianceOracle:
    """VMR(d, t) = (t/d)^2 * integral of s^2 p (1 - p) g(s) ds, p = frac(d / (s t)).

    Gauss-Legendre on every piece between the kinks s = d / (t j), further cut
    at fixed sd offsets around each component mean. The preset mixtures are
    read from the package's JSON files.
    """

    def __init__(self, preset_dir: Path):
        self.preset_dir = preset_dir
        self._mixtures: dict[str, tuple] = {}
        self._cache: dict[tuple, float] = {}

    def _mixture(self, name: str):
        if name not in self._mixtures:
            doc = json.loads((self.preset_dir / (name.replace("-", "_") + ".json"))
                             .read_text(encoding="utf-8"))
            mu = np.array([c["mean"] for c in doc["components"]], dtype=float)
            sd = np.array([c["sd"] for c in doc["components"]], dtype=float)
            w = np.array([c["weight"] for c in doc["components"]], dtype=float)
            lo, hi = float(doc["lower"]), float(doc["upper"])
            z = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
            self._mixtures[name] = (mu, sd, w / w.sum() / (sd * z), lo, hi)
        return self._mixtures[name]

    def vmr(self, d: float, t: float, dist: str) -> float:
        key = (d, t, dist)
        if key not in self._cache:
            self._cache[key] = self._vmr(d, t, dist)
        return self._cache[key]

    def _vmr(self, d: float, t: float, dist: str) -> float:
        mu, sd, norm, lo, hi = self._mixture(dist)
        r = d / t
        floor_s = max(lo, _KINK_FLOOR)
        j = np.arange(math.floor(r / hi) + 1, math.ceil(r / floor_s) + 1, dtype=float)
        anchors = (mu[:, None] + sd[:, None] * np.array(
            [0.0] + [k * sgn for k in _ANCHOR_SDS for sgn in (1, -1)])).ravel()
        cuts = np.concatenate(([lo, floor_s, hi], r / j, anchors))
        edges = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
        s = (mid[:, None] + half[:, None] * _GL16_X).ravel()
        w = (half[:, None] * _GL16_W).ravel()
        g = np.sum(norm * np.exp(-0.5 * ((s[:, None] - mu) / sd) ** 2), axis=1) / math.sqrt(
            2.0 * math.pi)
        p = np.mod(r / s, 1.0)
        return math.fsum(w * s * s * p * (1.0 - p) * g) / (r * r)


# -- helpers -------------------------------------------------------------------


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def key_values(req: Request, resp: Response, workdir: Path) -> dict | None:
    """The result values the reference file pins for one request."""
    if resp.rc != 0:
        return None
    if req.kind == "pdf":
        return read_pdf_header(workdir / req.outputs[0])
    doc = _json(resp.stdout)
    if doc is None:
        return None
    fields = {
        "precision": ("vmr", "cv"),
        "optimize": ("best_d", "best_objective"),
        "simulate": ("mean", "variance", "cv", "emitted_m_hat"),
        "experiment": ("mean_mape_ols", "mean_mape_wls", "wls_win_fraction"),
        "calibrate": ("beta",),
        "apply": ("volume",),
        "ingest": ("m_hat",),
        "estimate_emitted": ("m_hat",),
    }[req.kind]
    out = {k: doc[k] for k in fields if k in doc}
    if req.kind == "optimize":
        out["curve"] = [v for _, v in doc["curve"]]
    return out


def read_pdf_header(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("# "):
        raise ValueError(f"no '# atom_at_zero=...' header in {path.name}")
    return {k: float(v) for k, v in (item.split("=", 1) for item in first[2:].split())}


def _compare_reference(ref, got, path="") -> str | None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path or 'values'}: keys differ from the reference"
        for k in ref:
            reason = _compare_reference(ref[k], got[k], f"{path}.{k}" if path else k)
            if reason:
                return reason
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: length differs from the reference"
        for i, (a, b) in enumerate(zip(ref, got)):
            reason = _compare_reference(a, b, f"{path}[{i}]")
            if reason:
                return reason
        return None
    if ref is None or got is None:
        return None if ref is got else f"{path}: {got!r} != reference {ref!r}"
    if not _close(float(ref), float(got), REFERENCE_RTOL):
        return f"{path}: {got!r} differs from reference {ref!r} by more than {REFERENCE_RTOL:g}"
    return None


# -- the checker ---------------------------------------------------------------


class Checker:
    """Checks each response; keeps what later requests of the pass refer to."""

    def __init__(self, workdir: Path, oracle: VarianceOracle, reference: dict | None):
        self.workdir = workdir
        self.oracle = oracle
        self.reference = reference  # rid -> key values, default seed only
        self.docs: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.first_pass_digests: dict[str, str] = {}

    def new_pass(self) -> None:
        self.first_pass_digests = self.first_pass_digests or dict(self.digests)
        self.docs.clear()
        self.digests.clear()

    def check(self, req: Request, resp: Response) -> str | None:
        if resp.error:
            return f"exception escaped the CLI: {resp.error}"
        try:
            reason = getattr(self, "_check_" + req.kind)(req, resp)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"output unreadable: {type(exc).__name__}: {exc}"
        if reason:
            return reason
        files = [(self.workdir / p).read_bytes() for p in req.outputs]
        self.digests[req.rid] = _digest(resp.stdout.encode(), *files)
        first = self.first_pass_digests.get(req.rid)
        if first is not None and first != self.digests[req.rid]:
            return "output differs from the same request in the first pass"
        same_as = req.expect.get("same_as")
        if same_as and self.digests.get(same_as) != self.digests[req.rid]:
            return f"output differs from the identical request {same_as} (C9e)"
        if self.reference is not None and req.kind != "ingest_error":
            ref = self.reference.get(req.rid)
            if ref is None:
                return "no reference value for this request"
            return _compare_reference(ref, key_values(req, resp, self.workdir))
        return None

    def _ok_json(self, req: Request, resp: Response):
        if resp.rc != 0:
            return None, f"exit code {resp.rc}: {resp.stderr.strip()[-300:]}"
        doc = _json(resp.stdout)
        if not isinstance(doc, dict):
            return None, "stdout is not a JSON object"
        self.docs[req.rid] = doc
        return doc, None

    # ingest ----------------------------------------------------------------

    def _check_ingest(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        exp = req.expect
        if doc["m_hat"] != exp["m_hat"]:
            return f"m_hat {doc['m_hat']!r} != {exp['m_hat']!r} from the generator's fsum"
        if doc["n"] != exp["n"]:
            return f"n {doc['n']} != {exp['n']}"
        if doc["dropped_records"] != exp["dropped_records"]:
            return f"dropped_records {doc['dropped_records']} != {exp['dropped_records']}"
        if len(doc["warnings"]) != exp["warnings"]:
            return f"{len(doc['warnings'])} warnings, the file has {exp['warnings']} bad rows"
        return None

    def _check_ingest_error(self, req, resp):
        want = req.expect["exit"]
        if resp.rc != want:
            return f"exit code {resp.rc}, documented code is {want}"
        err = _json(resp.stderr)
        if not isinstance(err, dict) or err.get("code") != want or not err.get("error"):
            return "stderr is not a JSON error object with the exit code"
        return None

    # density ---------------------------------------------------------------

    def _check_pdf(self, req, resp):
        if resp.rc != 0:
            return f"exit code {resp.rc}: {resp.stderr.strip()[-300:]}"
        exp = req.expect
        m = exp["m"]
        path = self.workdir / req.outputs[0]
        head = read_pdf_header(path)
        step = float(req.argv[req.argv.index("--grid-step") + 1])
        with path.open("r", encoding="utf-8", newline="") as fh:
            fh.readline()
            rows = csv.reader(fh)
            if next(rows) != ["m_hat", "density"]:
                return "pdf CSV lacks the m_hat,density header"
            mass = head["atom_at_zero"] + step * math.fsum(float(r[1]) for r in rows)
        mean, var = head["mean"], head["variance"]
        if abs(mass - 1.0) > 1e-6:
            return f"pdf mass {mass!r} is not 1 within 1e-6"
        if abs(mean - m) > 1e-6 * m:
            return f"pdf mean {mean!r} is not m={m} within 1e-6*m"
        theory = m * self.oracle.vmr(exp["d"], exp["t"], exp["dist"])
        if not _close(var, theory, MOMENT_BRIDGE_RTOL):
            return f"pdf variance {var!r} not within 2% of m*VMR = {theory!r} (C5)"
        if not _close(head["vmr"], var / mean, IDENTITY_RTOL):
            return "header vmr != variance / mean"
        return None

    # cordon ----------------------------------------------------------------

    def _check_precision(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        exp = req.expect
        m = exp["m"]
        if doc["mean"] != m or doc["m"] != m:
            return f"mean {doc['mean']!r} != m = {m}"
        if not _close(doc["variance"], m * doc["vmr"], IDENTITY_RTOL):
            return "variance != m * vmr"
        if not _close(doc["cv"], math.sqrt(doc["variance"]) / m, IDENTITY_RTOL):
            return "cv != sqrt(variance) / m"
        oracle = self.oracle.vmr(exp["d"], exp["t"], exp["dist"])
        if not _close(doc["vmr"], oracle, ORACLE_RTOL):
            return f"vmr {doc['vmr']!r} differs from the oracle {oracle!r}"
        return None

    def _check_optimize(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        exp = req.expect
        grid = optimize_grid(exp["dmax"], exp["step"])
        curve = doc["curve"]
        if len(curve) != len(grid) or any(
                not _close(d, g, IDENTITY_RTOL) for (d, _), g in zip(curve, grid)):
            return f"curve grid is not step, 2*step, ..., <= {exp['dmax']}"
        best = min(range(len(curve)), key=lambda i: (curve[i][1], -i))
        if doc["best_d"] != curve[best][0] or doc["best_objective"] != curve[best][1]:
            return "best_d is not the curve minimum (ties to larger d)"
        if doc["objective_kind"] != exp["objective"] or doc["m"] != exp["m"]:
            return "objective kind or m not echoed"
        ratio = self.oracle.vmr(doc["best_d"], exp["t"], exp["dist"])
        want = math.sqrt(ratio / exp["m"]) if exp["objective"] == "cv" else ratio
        if not _close(doc["best_objective"], want, ORACLE_RTOL):
            return f"best objective {doc['best_objective']!r} differs from the oracle {want!r}"
        if "best_d" in exp and doc["best_d"] != exp["best_d"]:
            return f"{' '.join(PINNED_OPTIMIZE)} gave best_d {doc['best_d']}, expected 110 (C6)"
        return None

    # montecarlo ------------------------------------------------------------

    def _check_simulate(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        exp = req.expect
        m, trials = exp["m"], exp["trials"]
        if (doc["m"], doc["trials"], doc["seed"]) != (m, trials, exp["seed"]):
            return "m, trials or seed not echoed"
        d, t = SCENARIOS[exp["scenario"]]
        if trials >= 100:  # unbiasedness, six standard errors
            se = math.sqrt(m * self.oracle.vmr(d, t, "park-i35") / trials)
            if abs(doc["mean"] - m) > 6.0 * se:
                return f"mean {doc['mean']!r} is more than 6 standard errors from m={m}"
        for out in req.outputs:
            if out.startswith("out/hist-"):
                with (self.workdir / out).open("r", encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))
                if sum(int(r[2]) for r in rows[1:]) != trials:
                    return "histogram counts do not sum to trials"
            elif "emitted_m_hat" not in doc or not (self.workdir / out).is_file():
                return "no emitted footprints"
        return None

    def _check_estimate_emitted(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        emitted = self.docs.get(req.expect["emitted_by"], {}).get("emitted_m_hat")
        if doc["m_hat"] != emitted:
            return f"m_hat {doc['m_hat']!r} != emitted_m_hat {emitted!r} (footprint round trip)"
        if doc["warnings"]:
            return "emitted footprints produced warnings"
        return None

    def _check_experiment(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        exp = req.expect
        if (doc["trials"], doc["seed"], doc["n_pairs"]) != (
                exp["trials"], exp["seed"], exp["n_pairs"]):
            return "trials, seed or pair count not as requested"
        ols, wls = doc["mape_ols"], doc["mape_wls"]
        if len(ols) != exp["trials"] or len(wls) != exp["trials"]:
            return "one MAPE per trial expected"
        wins = float(np.mean(np.array(wls) < np.array(ols)))
        if not _close(doc["wls_win_fraction"], wins, IDENTITY_RTOL):
            return "wls_win_fraction does not match the MAPE lists"
        if not _close(doc["mean_mape_ols"], float(np.mean(ols)), IDENTITY_RTOL):
            return "mean_mape_ols does not match mape_ols"
        floor = exp["min_wls_win"]
        if floor is not None and doc["wls_win_fraction"] < floor:
            return f"wls_win_fraction {doc['wls_win_fraction']} < {floor} (C8)"
        return None

    def _check_calibrate(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        if doc["method"] != req.expect["method"]:
            return "method not echoed"
        if not _close(doc["beta"], req.expect["beta"], IDENTITY_RTOL):
            return f"beta {doc['beta']!r} != {req.expect['beta']!r}"
        return None

    def _check_apply(self, req, resp):
        doc, reason = self._ok_json(req, resp)
        if reason:
            return reason
        if doc["volume"] != req.expect["volume"]:
            return f"volume {doc['volume']!r} != beta * m_hat = {req.expect['volume']!r}"
        return None


def load_reference(workload: str, list_digest: str) -> dict:
    path = REFERENCE_DIR / f"seed{DEFAULT_SEED}-{workload}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["request_list_sha256"] != list_digest:
        raise ValueError(f"{path.name} was made for another request list; regenerate it")
    return doc["values"]
