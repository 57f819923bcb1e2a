"""Monte Carlo engines: single-cordon particle runs and the multi-site
uniform-motion calibration experiment.

The multi-site experiment replaces a car-following microsimulation with
uniform linear motion per probe (speed drawn once per pass). That is exactly
the assumption behind the theory, so the experiment validates the
calibration pipeline, not traffic realism.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import kernels
from .distribution_engine import vmr
from .footprint_data import FootprintRecord
from .speed_model import SpeedDistribution, load_distribution, sample_with_rng

DEFAULT_HIST_BIN = 0.02

SCENARIO_PRESETS = {
    "s1": {"d": 300.0, "t": 4.0, "dist": "park-i35"},
    "s2": {"d": 40.0, "t": 1.0, "dist": "park-i35"},
}


@dataclass(frozen=True)
class ScenarioConfig:
    d: float
    t: float
    m: int
    dist: SpeedDistribution
    trials: int
    seed: int
    hist_bin: float = DEFAULT_HIST_BIN

    def __post_init__(self):
        if self.d <= 0.0 or self.t <= 0.0:
            raise ValueError(f"d and t must be positive, got ({self.d}, {self.t})")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.hist_bin <= 0.0:
            raise ValueError(f"hist_bin must be positive, got {self.hist_bin}")


@dataclass(frozen=True)
class SiteConfig:
    site_id: str
    adt: float
    m: int
    d: float
    dist: SpeedDistribution
    t: float

    def __post_init__(self):
        if self.adt <= 0.0:
            raise ValueError(f"adt must be positive, got {self.adt}")
        if self.m < 1:
            raise ValueError(f"site {self.site_id}: m must be >= 1, got {self.m}")
        if self.d <= 0.0 or self.t <= 0.0:
            raise ValueError(f"site {self.site_id}: d and t must be positive")


@dataclass(frozen=True)
class SimSummary:
    mean: float
    variance: float
    cv: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


@dataclass(frozen=True)
class ExperimentReport:
    trials: int
    n_sites: int
    n_pairs: int
    seed: int
    mape_ols: tuple[float, ...]
    mape_wls: tuple[float, ...]
    mean_mape_ols: float
    mean_mape_wls: float
    wls_win_fraction: float


def simulate_pass(s: float, d: float, t: float, entry_offset: float) -> int:
    """Record count of one probe pass; first record lands s*entry_offset in.

    The offset is the lag between entering the cordon and the next recording
    tick, uniform on [0, t) for a random arrival.
    """
    if s <= 0.0 or d <= 0.0 or t <= 0.0:
        raise ValueError(f"s, d, t must be positive, got ({s}, {d}, {t})")
    if not (0.0 <= entry_offset < t):
        raise ValueError(f"entry_offset must be in [0, t), got {entry_offset}")
    first = s * entry_offset
    if first >= d:
        return 0
    return 1 + int(math.floor((d - first) / (s * t)))


def run_scenario(config: ScenarioConfig) -> tuple[np.ndarray, SimSummary]:
    """Draw config.trials estimates, each from m independent probe passes.

    One vectorized generator stream keyed by the seed: output is a pure
    function of (config, seed).
    """
    rng = np.random.default_rng(config.seed)
    if config.m == 0:
        samples = np.zeros(config.trials, dtype=np.float64)
    else:
        total = config.trials * config.m
        speeds = sample_with_rng(config.dist, total, rng)
        offsets = rng.random(total) * config.t
        counts = kernels.pass_counts(speeds, offsets, config.d, config.t)
        samples = (config.t / config.d) * (speeds * counts).reshape(
            config.trials, config.m
        ).sum(axis=1)
    return samples, summarize(samples, config.hist_bin)


def summarize(samples: np.ndarray, hist_bin: float = DEFAULT_HIST_BIN) -> SimSummary:
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1)) if samples.size > 1 else 0.0
    lo = math.floor(float(np.min(samples)) / hist_bin) * hist_bin
    nbins = max(1, int(math.ceil((float(np.max(samples)) - lo) / hist_bin + 1e-9)))
    edges = lo + hist_bin * np.arange(nbins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    return SimSummary(
        mean=mean,
        variance=var,
        cv=math.sqrt(var) / mean if mean > 0.0 else math.nan,
        hist_edges=edges,
        hist_counts=counts,
    )


def simulate_footprints(
    config: ScenarioConfig,
) -> tuple[list[FootprintRecord], float]:
    """Footprints of the first trial, with one out-of-cordon record on each
    side of every pass so downstream cropping is exercised.

    Returns the records and the trial's estimate computed exactly as the
    estimator would (compensated sum of in-cordon speeds times t/d).
    """
    rng = np.random.default_rng(config.seed)
    records: list[FootprintRecord] = []
    in_cordon_speeds: list[float] = []
    if config.m > 0:
        speeds = sample_with_rng(config.dist, config.m, rng)
        offsets = rng.random(config.m) * config.t
        for s, off in zip(speeds, offsets):
            count = simulate_pass(float(s), config.d, config.t, float(off))
            first = float(s) * float(off)
            spacing = float(s) * config.t
            for j in range(-1, count + 1):
                records.append(FootprintRecord(position=first + j * spacing, speed=float(s)))
            in_cordon_speeds.extend([float(s)] * count)
    m_hat = (config.t / config.d) * math.fsum(in_cordon_speeds)
    return records, m_hat


# -- multi-site regression experiment ----------------------------------------


def load_site_preset(name: str = "table2") -> list[SiteConfig]:
    if name != "table2":
        raise ValueError(f"unknown site preset {name!r}")
    ref = resources.files("probevolume.presets").joinpath("table2_sites.json")
    with ref.open("r", encoding="utf-8") as fh:
        return sites_from_dict(json.load(fh))


def sites_from_dict(doc: dict) -> list[SiteConfig]:
    t = float(doc.get("t", 1.0))
    dists: dict[str, SpeedDistribution] = {}
    sites = []
    for row in doc["sites"]:
        key = row["dist"]
        if key not in dists:
            dists[key] = load_distribution(key)
        sites.append(
            SiteConfig(
                site_id=str(row["site_id"]),
                adt=float(row["adt"]),
                m=int(row["m"]),
                d=float(row["d"]),
                dist=dists[key],
                t=t,
            )
        )
    return sites


def load_sites(spec: str) -> list[SiteConfig]:
    if spec == "table2":
        return load_site_preset(spec)
    path = Path(spec)
    if path.exists():
        with path.open("r", encoding="utf-8") as fh:
            return sites_from_dict(json.load(fh))
    raise ValueError(f"unknown site set {spec!r}: not a preset and no such file")


def _site_m_hat(site: SiteConfig, rng: np.random.Generator) -> float:
    speeds = sample_with_rng(site.dist, site.m, rng)
    offsets = rng.random(site.m) * site.t
    counts = kernels.pass_counts(speeds, offsets, site.d, site.t)
    return (site.t / site.d) * float(np.sum(speeds * counts))


def run_regression_experiment(
    sites: list[SiteConfig],
    trials: int,
    all_pairs: bool = True,
    seed: int = 0,
) -> ExperimentReport:
    """Leave-pair calibration sweep: per trial, fit OLS and inverse-VMR WLS
    through the origin on every pair of "known" sites and score the held-out
    sites by MAPE.

    WLS weights are the theoretical 1/VMR per site, fixed before any trial:
    weights must not depend on realized noise. RNG streams are spawned per
    (trial, site), so results do not depend on evaluation order.
    """
    if len(sites) < 3:
        raise ValueError(f"need at least 3 sites, got {len(sites)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    volumes = np.array([site.adt for site in sites], dtype=np.float64)
    wls_weights = np.array(
        [1.0 / vmr(site.d, site.t, site.dist) for site in sites], dtype=np.float64
    )
    ols_weights = np.ones_like(wls_weights)

    n = len(sites)
    # smoke mode sweeps consecutive pairs only
    pairs = None if all_pairs else [(i, i + 1) for i in range(n - 1)]
    n_pairs = n * (n - 1) // 2 if all_pairs else n - 1

    mape_ols = np.empty(trials, dtype=np.float64)
    mape_wls = np.empty(trials, dtype=np.float64)
    for trial in range(trials):
        m_hats = np.empty(n, dtype=np.float64)
        for i, site in enumerate(sites):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(trial, i))
            )
            m_hats[i] = _site_m_hat(site, rng)
        mape_ols[trial] = kernels.all_pairs_mape(m_hats, volumes, ols_weights, pairs)
        mape_wls[trial] = kernels.all_pairs_mape(m_hats, volumes, wls_weights, pairs)

    wins = float(np.mean(mape_wls < mape_ols))
    return ExperimentReport(
        trials=trials,
        n_sites=n,
        n_pairs=n_pairs,
        seed=seed,
        mape_ols=tuple(float(x) for x in mape_ols),
        mape_wls=tuple(float(x) for x in mape_wls),
        mean_mape_ols=float(np.mean(mape_ols)),
        mean_mape_wls=float(np.mean(mape_wls)),
        wls_win_fraction=wins,
    )
