"""Monte Carlo engines: single-cordon particle runs and the multi-site
uniform-motion calibration experiment.

Every probe pass, in both engines and in emitted footprints, is drawn by
``_passes``: speeds, then entry offsets, then record counts, in that order
from the caller's generator.

Stream layout of a scenario (the reproducibility contract). A scenario of
n = trials * m passes reads the PCG64 stream seeded with ``config.seed``:
uniform k of the mixture-component draw is output k, uniform k of the
inverse-CDF draw is output n + k, and offset k is output 2n + k. Pass j of
trial i is pass k = i * m + j. This is exactly the order of one
``default_rng(seed)`` drawing all n passes at once, so ``run_scenario`` can
draw blocks of whole trials from three copies of the generator advanced to
0, n and 2n (PCG64 jump-ahead, O'Neill 2014) and stay bit-identical to that
one-shot draw in bounded memory.

Stream layout of the experiment: trial r of site i reads its own stream,
``default_rng(SeedSequence(seed, spawn_key=(r, i)))``, for its m passes:
component uniforms, inverse-CDF uniforms, offsets, m outputs each. The
experiment reads each stream once into a row of 3m uniforms and draws a
block of trials of one site in one ``_passes`` call.

The multi-site experiment replaces a car-following microsimulation with
uniform linear motion per probe (speed drawn once per pass). That is exactly
the assumption behind the theory, so the experiment validates the
calibration pipeline, not traffic realism.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distribution_engine import vmr
from .estimator import estimate_probe_volume, positive, probe_count
from .footprint_data import CordonSpec, Footprints, crop_to_cordon
from .speed_model import (
    SpeedDistribution,
    config_number,
    from_dict,
    load_distribution,
    read_config,
    sample_with_rng,
)

# width of the m_hat histogram bins in a scenario summary
HIST_BIN = 0.02
# widest histogram a summary builds (a wider spread of samples is rejected)
MAX_HIST_BINS = 10**6
# largest requests: trials of a scenario or experiment, probe passes of all
# trials, and probe passes of one trial (a block holds at least one trial)
MAX_TRIALS = 10**8
MAX_PASSES = 10**9
MAX_TRIAL_PASSES = 10**6
# passes per block of run_scenario and of the experiment, rounded down to
# whole trials (at least one), and samples per block of a summary's variance sum
BLOCK_PASSES = 1 << 16

SCENARIO_PRESETS = {
    "s1": {"d": 300.0, "t": 4.0, "dist": "park-i35"},
    "s2": {"d": 40.0, "t": 1.0, "dist": "park-i35"},
}


def _check_size(trials: int, passes: int, what: str) -> int:
    """``trials`` as an int, once ``probe_count`` takes it as an integer >= 1
    and a request of that many trials of ``passes`` probe passes each
    (``what`` names the per-trial count) is within the size caps."""
    trials = probe_count(trials, name="trials")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    total = trials * int(passes)  # numpy integers would wrap
    if total > MAX_PASSES:
        raise ValueError(f"trials * {what} must be <= {MAX_PASSES} probe passes, got {total}")
    if passes > MAX_TRIAL_PASSES:
        raise ValueError(
            f"{what} must be <= {MAX_TRIAL_PASSES} probe passes per trial, got {passes}"
        )
    return trials


@dataclass(frozen=True)
class ScenarioConfig:
    d: float
    t: float
    m: int
    dist: SpeedDistribution
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "d", positive(self.d, "d"))
        object.__setattr__(self, "t", positive(self.t, "t"))
        object.__setattr__(self, "m", probe_count(self.m, least=0))
        object.__setattr__(self, "trials", _check_size(self.trials, self.m, "m"))
        object.__setattr__(self, "seed", probe_count(self.seed, least=0, name="seed"))


@dataclass(frozen=True)
class SiteConfig:
    site_id: str
    adt: float
    m: int
    d: float
    dist: SpeedDistribution
    t: float

    def __post_init__(self):
        object.__setattr__(self, "adt", positive(self.adt, f"site {self.site_id}: adt"))
        object.__setattr__(self, "m", probe_count(self.m, name=f"site {self.site_id}: m"))
        object.__setattr__(self, "d", positive(self.d, f"site {self.site_id}: d"))
        object.__setattr__(self, "t", positive(self.t, f"site {self.site_id}: t"))


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
    mean_mape_ols: float
    mean_mape_wls: float
    wls_win_fraction: float
    mape_ols: tuple[float, ...]
    mape_wls: tuple[float, ...]


def load_scenario(spec: str, m: int, trials: int, seed: int) -> ScenarioConfig:
    """Scenario preset (s1, s2) or JSON config with d, t and an optional
    ``dist`` (preset name, path or inline mixture; default park-i35)."""
    doc = read_config(spec, SCENARIO_PRESETS, "scenario")
    dist_spec = doc.get("dist", "park-i35")
    dist = from_dict(dist_spec) if isinstance(dist_spec, dict) else load_distribution(dist_spec)
    try:
        return ScenarioConfig(
            d=config_number(doc, "d"), t=config_number(doc, "t"),
            m=m, dist=dist, trials=trials, seed=seed,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad scenario config: {exc}") from exc


def _passes(dist, n, d, t, rng):
    """Speeds, entry offsets and record counts of n independent passes; the
    offset, the lag from cordon entry to the next recording tick, is U[0, t)."""
    speeds = sample_with_rng(dist, n, rng)
    offsets = rng.random(n)
    offsets *= t
    return speeds, offsets, kernels.pass_counts(speeds, offsets, d, t)


def _estimates(dist, m, d, t, streams, out):
    """Fill ``out`` with the estimates of its trials from one ``_passes``
    draw of m passes per trial, trial r taking passes r*m to (r+1)*m - 1:
    t/d times the trial's sum of speeds * counts, the products made in place."""
    speeds, _, counts = _passes(dist, out.size * m, d, t, streams)
    counts *= speeds
    np.multiply(t / d, counts.reshape(out.size, m).sum(axis=1), out=out)


class _Streams:
    """The three ``random`` calls of a ``_passes`` draw, served by three
    sources: call j returns ``sources[j % 3](size)``, so consecutive draws
    continue each source in order."""

    def __init__(self, sources):
        self._sources = itertools.cycle(sources)

    def random(self, size: int) -> np.ndarray:
        return next(self._sources)(size)


def _scenario_streams(seed: int, n: int) -> _Streams:
    """The scenario stream of ``seed`` for n passes: the PCG64 generator
    advanced to outputs 0, n and 2n serves component uniforms, inverse-CDF
    uniforms and offsets."""
    seq = np.random.SeedSequence(seed)
    return _Streams(
        [np.random.Generator(np.random.PCG64(seq).advance(j * n)).random for j in range(3)]
    )


def run_scenario(config: ScenarioConfig) -> tuple[np.ndarray, SimSummary]:
    """Draw config.trials estimates, each from m independent probe passes.

    Output is a pure function of (config, seed): trial i uses passes i*m to
    (i+1)*m - 1 of the stream layout in the module docstring. Trials are
    drawn in blocks of about ``BLOCK_PASSES`` passes, so memory beyond the
    8-byte sample per trial does not grow with the request.
    """
    m, trials = config.m, config.trials
    samples = np.zeros(trials, dtype=np.float64)
    if m:
        streams = _scenario_streams(config.seed, trials * m)
        block = max(1, BLOCK_PASSES // m)
        for start in range(0, trials, block):
            _estimates(config.dist, m, config.d, config.t, streams, samples[start:start + block])
    return samples, summarize(samples)


def _sum_sq_dev(x: np.ndarray, mean: float) -> float:
    """Sum of (x - mean)**2 in blocks of at most ``BLOCK_PASSES`` elements.

    numpy's pairwise sum splits an array of over 128 elements at half its
    length rounded down to a multiple of 8. Splitting the same way down to
    blocks that ``np.sum`` takes whole gives its sum bit for bit, so the
    variance equals ``np.var(x, ddof=1)`` without a temporary the size of x.
    """
    if x.size <= BLOCK_PASSES:
        dev = x - mean
        return float(np.sum(dev * dev))
    half = x.size // 2
    half -= half % 8
    return _sum_sq_dev(x[:half], mean) + _sum_sq_dev(x[half:], mean)


def summarize(samples: np.ndarray) -> SimSummary:
    """Mean, sample variance, CV and a ``HIST_BIN``-wide histogram of samples;
    a spread wider than ``MAX_HIST_BINS`` bins raises ``ValueError``."""
    mean = float(np.mean(samples))
    var = _sum_sq_dev(samples, mean) / (samples.size - 1) if samples.size > 1 else 0.0
    lo = math.floor(float(np.min(samples)) / HIST_BIN) * HIST_BIN
    nbins = max(1, int(math.ceil((float(np.max(samples)) - lo) / HIST_BIN + 1e-9)))
    if nbins > MAX_HIST_BINS:
        raise ValueError(
            f"samples span {nbins} histogram bins of width {HIST_BIN}, "
            f"more than the cap of {MAX_HIST_BINS}"
        )
    edges = lo + HIST_BIN * np.arange(nbins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    return SimSummary(
        mean=mean,
        variance=var,
        cv=math.sqrt(var) / mean if mean > 0.0 else math.nan,
        hist_edges=edges,
        hist_counts=counts,
    )


def _footprint_columns(config: ScenarioConfig) -> Footprints:
    """The footprints of ``simulate_footprints``: pass k has records j =
    -1..count_k at ``first + j * spacing``, pass by pass; the columns are
    filled ``BLOCK_PASSES`` passes at a time."""
    m = config.m
    streams = _scenario_streams(config.seed, config.trials * m)
    speeds, offsets, counts = _passes(config.dist, m, config.d, config.t, streams)
    first = speeds * offsets
    spacing = speeds * config.t
    records = counts.astype(np.int64) + 2
    starts = np.cumsum(records) - records
    total = int(records.sum())
    positions = np.empty(total, dtype=np.float64)
    record_speeds = np.empty(total, dtype=np.float64)
    for a in range(0, m, BLOCK_PASSES):
        passes = slice(a, a + BLOCK_PASSES)
        n = records[passes]
        lo = int(starts[a])
        hi = lo + int(n.sum())
        # j of each record, exact in float64 as Python's int * float converts it
        j = (np.arange(lo, hi) - np.repeat(starts[passes] + 1, n)).astype(np.float64)
        positions[lo:hi] = np.repeat(first[passes], n) + j * np.repeat(spacing[passes], n)
        record_speeds[lo:hi] = np.repeat(speeds[passes], n)
    return Footprints(positions, record_speeds, np.full(total, None, dtype=object))


def simulate_footprints(config: ScenarioConfig) -> tuple[Footprints, float]:
    """Footprints of trial 0 of ``run_scenario(config)`` (its m passes, redrawn
    from the same stream positions), with one out-of-cordon record on each
    side of every pass so downstream cropping is exercised.

    Returns the footprints (no labels) and the estimator's m_hat of their
    crop to the cordon (0, d]: what ``estimate`` gives for the written file.
    The per-pass arrays are freed before the crop.
    """
    footprints = _footprint_columns(config)
    crop = crop_to_cordon(footprints, CordonSpec(0.0, config.d), config.t)
    return footprints, estimate_probe_volume(crop.sample).m_hat


# -- multi-site regression experiment ----------------------------------------


def load_sites(spec: str) -> list[SiteConfig]:
    """Site preset table2 or JSON config: ``sites`` rows (site_id, a unique string;
    adt, m, d, ``dist`` preset name or path) and a shared ``t`` (default 1 s)."""
    doc = read_config(spec, {"table2": "table2_sites.json"}, "site set")
    dists: dict[str, SpeedDistribution] = {}
    sites: dict[str, SiteConfig] = {}
    try:
        t = config_number(doc, "t") if "t" in doc else 1.0
        for row in doc["sites"]:
            site_id = row["site_id"]
            if not isinstance(site_id, str) or site_id in sites:
                raise TypeError(f"'site_id' must be a string no other site has, got {site_id!r}")
            key = row["dist"]
            if key not in dists:
                dists[key] = load_distribution(key)
            sites[site_id] = SiteConfig(
                site_id=site_id,
                adt=config_number(row, "adt"),
                m=config_number(row, "m"),
                d=config_number(row, "d"),
                dist=dists[key],
                t=t,
            )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed site set config {spec!r}: {exc}") from exc
    return list(sites.values())


def run_regression_experiment(
    sites: list[SiteConfig], trials: int, all_pairs: bool = True, *, seed: int
) -> ExperimentReport:
    """Leave-pair calibration sweep: per trial, fit OLS and inverse-VMR WLS
    through the origin on every pair of "known" sites and score the held-out
    sites by MAPE.

    WLS weights are the theoretical 1/VMR per site, fixed before any trial:
    weights must not depend on realized noise. RNG streams are spawned per
    (trial, site), so results do not depend on evaluation order. Trials are
    drawn in blocks of about ``BLOCK_PASSES`` passes over all sites, one
    ``_passes`` draw per site and block.
    """
    if len(sites) < 3:
        raise ValueError(f"need at least 3 sites, got {len(sites)}")
    passes = sum(site.m for site in sites)
    trials = _check_size(trials, passes, "the sum of site m")
    seed = probe_count(seed, least=0, name="seed")

    volumes = np.array([site.adt for site in sites], dtype=np.float64)
    # one batched vmr per distribution and t, each ratio the bits of its own call
    ratios = np.empty(len(sites), dtype=np.float64)
    groups: dict[tuple[SpeedDistribution, float], list[int]] = {}
    for i, site in enumerate(sites):
        groups.setdefault((site.dist, site.t), []).append(i)
    for members in groups.values():
        site = sites[members[0]]
        ratios[members] = vmr(np.array([sites[i].d for i in members]), site.t, site.dist)
    wls_weights = 1.0 / ratios
    ols_weights = np.ones_like(wls_weights)

    n = len(sites)
    # smoke mode sweeps consecutive pairs only
    if all_pairs:
        pairs = np.column_stack(np.triu_indices(n, k=1))
    else:
        pairs = np.column_stack((np.arange(n - 1), np.arange(1, n)))

    mape_ols = np.empty(trials, dtype=np.float64)
    mape_wls = np.empty(trials, dtype=np.float64)
    block = max(1, BLOCK_PASSES // passes)
    for start in range(0, trials, block):
        k = min(block, trials - start)
        m_hats = np.empty((k, n), dtype=np.float64)
        for i, site in enumerate(sites):
            rows = np.empty((k, 3 * site.m), dtype=np.float64)
            for r in range(k):
                seq = np.random.SeedSequence(seed, spawn_key=(start + r, i))
                np.random.default_rng(seq).random(out=rows[r])
            # column third j of the rows, trial by trial: what the trials' own
            # j-th random(m) calls return, bit for bit
            streams = _Streams([third.reshape for third in np.hsplit(rows, 3)])
            _estimates(site.dist, site.m, site.d, site.t, streams, m_hats[:, i])
        for r in range(k):
            mape_ols[start + r] = kernels.all_pairs_mape(m_hats[r], volumes, ols_weights, pairs)
            mape_wls[start + r] = kernels.all_pairs_mape(m_hats[r], volumes, wls_weights, pairs)

    wins = float(np.mean(mape_wls < mape_ols))
    return ExperimentReport(
        trials=trials,
        n_sites=n,
        n_pairs=len(pairs),
        seed=seed,
        mape_ols=tuple(float(x) for x in mape_ols),
        mape_wls=tuple(float(x) for x in mape_wls),
        mean_mape_ols=float(np.mean(mape_ols)),
        mean_mape_wls=float(np.mean(mape_wls)),
        wls_win_fraction=wins,
    )
