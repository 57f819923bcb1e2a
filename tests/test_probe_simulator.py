import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from probevolume import kernels, probe_simulator
from probevolume.distribution_engine import m_fold_pdf, single_probe_pdf, vmr
from probevolume.estimator import estimate_probe_volume, extra_record_prob, min_records
from probevolume.footprint_data import CordonSpec, crop_to_cordon
from probevolume.probe_simulator import (
    BLOCK_PASSES,
    MAX_HIST_BINS,
    MAX_PASSES,
    MAX_TRIAL_PASSES,
    MAX_TRIALS,
    ScenarioConfig,
    _passes,
    _scenario_streams,
    SiteConfig,
    load_scenario,
    load_sites,
    run_regression_experiment,
    run_scenario,
    simulate_footprints,
    summarize,
)
from probevolume.speed_model import (
    SpeedComponent,
    SpeedDistribution,
    load_distribution,
    sample_with_rng,
)

from conftest import config_doc


def _counts(s, d, t, offsets):
    offsets = np.asarray(offsets, dtype=np.float64)
    return kernels.pass_counts(np.full(offsets.shape, s), offsets, d, t)


class TestSimulatePass:
    def test_offset_zero(self):
        # records at 0+, 30, 60, 90
        assert _counts(30.0, 100.0, 1.0, [0.0])[0] == 4

    def test_offset_near_t(self):
        # first record at ~30 m: records at 30-, 60-, 90-
        assert _counts(30.0, 100.0, 1.0, [1.0 - 1e-9])[0] == 3

    def test_expected_count_over_offsets(self):
        # E[count] over uniform offsets must equal 100/(30*1) = 10/3
        offsets = (np.arange(10_000) + 0.5) / 10_000
        counts = _counts(30.0, 100.0, 1.0, offsets)
        assert np.mean(counts) == pytest.approx(10.0 / 3.0, abs=1e-3)

    def test_count_in_allowed_set(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            s = float(rng.uniform(0.5, 45.0))
            d = float(rng.uniform(5.0, 400.0))
            t = float(rng.uniform(0.5, 6.0))
            off = float(rng.uniform(0.0, t))
            count = _counts(s, d, t, [off])[0]
            n_min = min_records(s, d, t)
            assert count in (0, n_min, n_min + 1)
            if count == 0:
                assert s * t > d

    def test_mean_count_matches_unbiasedness(self):
        # empirical mean over offsets ~ U[0,t) equals n_min + p
        rng = np.random.default_rng(99)
        s, d, t = 23.7, 210.0, 3.0
        counts = _counts(s, d, t, rng.uniform(0.0, t, 200_000))
        want = min_records(s, d, t) + extra_record_prob(s, d, t)
        sigma = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - want) < 3.5 * sigma + 1e-9


class TestRunScenario:
    def test_zero_probes(self, park):
        samples, summary = run_scenario(
            ScenarioConfig(d=300.0, t=4.0, m=0, dist=park, trials=100, seed=1)
        )
        assert np.all(samples == 0.0)
        assert summary.mean == 0.0

    def test_deterministic(self, park):
        cfg = ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=2000, seed=77)
        a, _ = run_scenario(cfg)
        b, _ = run_scenario(cfg)
        assert np.array_equal(a, b)

    def test_histogram_total_is_trials(self, park):
        cfg = ScenarioConfig(d=40.0, t=1.0, m=3, dist=park, trials=5000, seed=5)
        _, summary = run_scenario(cfg)
        assert int(summary.hist_counts.sum()) == 5000

    def test_scenario1_statistics(self, park):
        cfg = ScenarioConfig(d=300.0, t=4.0, m=1, dist=park, trials=10**5, seed=42)
        _, summary = run_scenario(cfg)
        assert summary.mean == pytest.approx(1.0, abs=0.01)
        assert summary.variance == pytest.approx(0.019, rel=0.05)
        assert summary.cv == pytest.approx(0.137, abs=0.005)

    def test_summarize_validates(self):
        s = summarize(np.array([1.0, 1.0, 1.0]))
        assert s.variance == 0.0

    def test_summarize_rejects_over_wide_histogram(self):
        # 5e10 bins of 0.02: rejected before the edges are allocated
        with pytest.raises(ValueError, match="histogram bins"):
            summarize(np.array([0.0, 1e9]))
        widest = summarize(np.array([0.0, (MAX_HIST_BINS - 1) * 0.02]))
        assert widest.hist_counts.size <= MAX_HIST_BINS

    @pytest.mark.parametrize(
        "n",
        [2, 3, 9, 129, BLOCK_PASSES - 1, BLOCK_PASSES, BLOCK_PASSES + 1, 2 * BLOCK_PASSES + 7,
         3 * BLOCK_PASSES - 8, 3 * BLOCK_PASSES + 13, 17 * BLOCK_PASSES + 5],
    )
    def test_variance_equals_np_var(self, n):
        # the blocked sum follows numpy's pairwise splits; a numpy change to
        # its summation order would show here first
        rng = np.random.default_rng(n)
        for x in (rng.gamma(2.0, 0.5, n), 1e6 + rng.standard_normal(n)):
            assert summarize(x).variance == float(np.var(x, ddof=1))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "m,trials,seed",
        [
            (0, 100, 1),
            (1, BLOCK_PASSES + 3, 42),  # two blocks: fewer than 3 or 8 workers
            (1, 7, 987654),
            (8, 2 * (BLOCK_PASSES // 8) + 5, 7),
            (8, 1, 3),
            (BLOCK_PASSES + 1, 2, 11),  # one trial per block, wider than a block
            (BLOCK_PASSES // 2 - 1, 5, 13),  # two trials fit a block: two workers, one each
            (3, 4 * (BLOCK_PASSES // 3) + 1, 21),  # five workers at 8 CPUs, 21 blocks
        ],
    )
    def test_matches_one_shot_oracle(self, park, monkeypatch, m, trials, seed, cpus):
        # the reference: all trials * m passes in one draw from one generator,
        # which the samples equal whatever the number of workers, also with
        # more workers than cores switching threads every microsecond
        monkeypatch.setattr(probe_simulator, "_usable_cpus", lambda: cpus)
        cfg = ScenarioConfig(d=300.0, t=4.0, m=m, dist=park, trials=trials, seed=seed)
        rng = np.random.default_rng(seed)
        n = trials * m
        speeds = sample_with_rng(park, n, rng)
        offsets = rng.random(n) * cfg.t
        counts = kernels.pass_counts(speeds, offsets, cfg.d, cfg.t)
        want = (cfg.t / cfg.d) * (speeds * counts).reshape(trials, m).sum(axis=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            samples, summary = run_scenario(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert samples.dtype == want.dtype
        assert np.array_equal(samples, want)
        ref = summarize(want)
        assert (summary.mean, summary.variance) == (ref.mean, ref.variance)
        assert summary.cv == ref.cv or (math.isnan(summary.cv) and math.isnan(ref.cv))
        assert np.array_equal(summary.hist_edges, ref.hist_edges)
        assert np.array_equal(summary.hist_counts, ref.hist_counts)

    @pytest.mark.parametrize("cpus", [1, 4, 8])
    def test_memory_bounded_by_samples(self, park, monkeypatch, cpus):
        # 2e6 passes: a one-shot draw would trace about 100 MB; the workers'
        # blocks in flight share one block's passes (a full block each traces
        # about 15 MB at 8 workers)
        monkeypatch.setattr(probe_simulator, "_usable_cpus", lambda: cpus)
        cfg = ScenarioConfig(d=300.0, t=4.0, m=8, dist=park, trials=250_000, seed=1)
        tracemalloc.start()
        try:
            run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * cfg.trials

    def test_worker_error_reaches_caller(self, park, monkeypatch):
        # ten blocks on two workers; the third block drawn raises, and no
        # worker thread outlives the call either way
        monkeypatch.setattr(probe_simulator, "_usable_cpus", lambda: 2)
        cfg = ScenarioConfig(d=300.0, t=4.0, m=8, dist=park, trials=5 * (BLOCK_PASSES // 8),
                             seed=1)
        threads = threading.active_count()
        run_scenario(cfg)
        assert threading.active_count() == threads

        error = RuntimeError("the third block fails")
        calls = itertools.count(1)
        real = kernels.pass_counts

        def pass_counts(*args):
            if next(calls) == 3:
                raise error
            return real(*args)

        monkeypatch.setattr(kernels, "pass_counts", pass_counts)
        with pytest.raises(RuntimeError) as raised:
            run_scenario(cfg)
        assert raised.value is error
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "m,trials",
        [
            (1, MAX_TRIALS + 1),
            (10**6, 10**4),
            (MAX_PASSES + 1, 1),
            (2, 10**12),
            (np.int64(2**62), np.int64(4)),  # the int64 product wraps to 0
        ],
    )
    def test_size_caps(self, park, m, trials):
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(d=300.0, t=4.0, m=m, dist=park, trials=trials, seed=1)

    def test_trial_cap(self, park):
        # one trial is one block: its passes are capped on their own
        ScenarioConfig(d=300.0, t=4.0, m=MAX_TRIAL_PASSES, dist=park, trials=1, seed=1)
        with pytest.raises(ValueError, match="per trial"):
            ScenarioConfig(d=300.0, t=4.0, m=MAX_TRIAL_PASSES + 1, dist=park, trials=1, seed=1)


def _law_cases():
    """(dist, d, t, m) for the sampler-vs-law test: the presets at C4's cordon,
    the zero-atom short cordons of TestFoldFloor, and 15 random mixtures of
    1-3 components with means inside supports starting at 0 or in (0.5, 5)."""
    park = load_distribution("park-i35")
    cases = [(load_distribution(preset), 300.0, 4.0, m)
             for preset in ("park-i35", "table2-30mph", "table2-60mph") for m in (1, 2, 8)]
    cases += [(park, d, 4.0, m) for d in (5.0, 8.0) for m in (1, 2, 8)]
    rng = np.random.default_rng(16)
    for i in range(15):
        k = int(rng.integers(1, 4))
        lower = 0.0 if i % 2 == 0 else float(rng.uniform(0.5, 5.0))
        upper = lower + float(rng.uniform(10.0, 50.0))
        comps = tuple(SpeedComponent(float(mu), float(sd), float(w)) for mu, sd, w in zip(
            rng.uniform(lower, upper, k), rng.uniform(0.5, 8.0, k), rng.dirichlet(np.ones(k))))
        cases.append((SpeedDistribution(comps, lower, upper), float(rng.uniform(5.0, 300.0)),
                      float(rng.choice([1.0, 2.0, 4.0])), int(rng.choice([1, 2, 8]))))
    return cases


class TestSamplerAgainstExactLaw:
    """run_scenario's estimates against the exact law, m_fold_pdf of
    single_probe_pdf, by Pearson's chi-square: two implementations of one law
    (the sampler, offsets and pass counts; the band partition, the lump and
    the fold) that share no code past the speed mixture. Each case's samples
    go to the atom (an estimate of exactly 0) or to the cell of width 1e-2
    nearest them, runs of categories pooled to 20 or more expected. One
    threshold serves every case: a family-wise false alarm of 1e-3,
    Bonferroni over the 30 cases, 3.3e-5. The smallest p measured is 0.036,
    about 1,000 times over it."""

    STEP, TRIALS, MIN_EXPECTED, FAMILY_ALPHA = 1e-2, 200_000, 20.0, 1e-3

    def test_every_case_fits(self):
        from scipy.special import chdtrc  # chi-square survival function

        cases = _law_cases()
        fits = []
        for seed, (dist, d, t, m) in enumerate(cases, start=1600):
            pdf = m_fold_pdf(single_probe_pdf(d, t, dist, self.STEP), m)
            # category 0 is the atom, category 1 + j the pdf's j-th kept cell
            law = np.concatenate(([pdf.atom_at_zero], pdf.cell_masses()))
            samples, _ = run_scenario(ScenarioConfig(d, t, m, dist, self.TRIALS, seed))
            cells = np.rint(samples / self.STEP).astype(np.int64) - pdf.first_cell
            observed = np.bincount(
                np.where(samples == 0.0, 0, 1 + np.clip(cells, 0, law.size - 2)),
                minlength=law.size)
            expected = self.TRIALS * law / law.sum()
            pooled_e, pooled_o, e, o = [], [], 0.0, 0
            for e_i, o_i in zip(expected.tolist(), observed.tolist()):
                e, o = e + e_i, o + o_i
                if e >= self.MIN_EXPECTED:
                    pooled_e.append(e)
                    pooled_o.append(o)
                    e, o = 0.0, 0
            pooled_e[-1] += e  # the last run under MIN_EXPECTED joins the one before
            pooled_o[-1] += o
            pooled_e, pooled_o = np.array(pooled_e), np.array(pooled_o)
            stat = float(np.sum((pooled_o - pooled_e) ** 2 / pooled_e))
            fits.append((float(chdtrc(pooled_e.size - 1, stat)), seed, d, t, m))
        assert len(cases) == 30
        worst = min(fits)
        assert worst[0] > self.FAMILY_ALPHA / len(cases), sorted(fits)[:3]


def _loop_footprints(config):
    """(positions, speeds, m_hat): one record at a time, the reference."""
    streams, _ = _scenario_streams(config.seed, config.trials * config.m)
    speeds, offsets, counts = _passes(config.dist, config.m, config.d, config.t, streams)
    positions, record_speeds, in_cordon_speeds = [], [], []
    for s, off, count in zip(speeds.tolist(), offsets.tolist(), counts.tolist()):
        first = s * off
        spacing = s * config.t
        for j in range(-1, int(count) + 1):
            positions.append(first + j * spacing)
            record_speeds.append(s)
        in_cordon_speeds.extend([s] * int(count))
    m_hat = (config.t / config.d) * math.fsum(in_cordon_speeds)
    return np.array(positions, dtype=np.float64), np.array(record_speeds), m_hat


class TestFootprints:
    def test_emitted_m_hat_matches_estimator(self, park, tmp_path):
        from probevolume.footprint_data import read_footprints_csv, write_footprints_csv

        cfg = ScenarioConfig(d=300.0, t=4.0, m=5, dist=park, trials=1, seed=2718)
        footprints, internal = simulate_footprints(cfg)
        path = tmp_path / "f.csv"
        write_footprints_csv(path, footprints)
        back = read_footprints_csv(path)
        crop = crop_to_cordon(back.records, CordonSpec(0.0, 300.0), t=4.0)
        est = estimate_probe_volume(crop.sample)
        assert est.m_hat == internal  # bit-for-bit through the CSV round trip

    @pytest.mark.parametrize("trials", [1, 5])
    def test_emits_trial_zero(self, park, trials):
        cfg = ScenarioConfig(d=300.0, t=4.0, m=8, dist=park, trials=trials, seed=42)
        samples, _ = run_scenario(cfg)
        footprints, m_hat = simulate_footprints(cfg)
        assert m_hat == pytest.approx(samples[0], rel=1e-12, abs=0.0)
        assert np.unique(footprints.speeds).size == 8  # m passes, not trials * m

    @pytest.mark.parametrize("seed", [7, 42, 987654])
    @pytest.mark.parametrize("trials", [1, 5])
    @pytest.mark.parametrize("m", [0, 1, 8, 400, 70000])
    def test_matches_record_loop(self, park, m, trials, seed):
        # 70000 passes span two blocks of BLOCK_PASSES
        d, t = (300.0, 4.0) if seed != 42 else (40.0, 1.0)
        cfg = ScenarioConfig(d=d, t=t, m=m, dist=park, trials=trials, seed=seed)
        positions, speeds, m_hat = _loop_footprints(cfg)
        footprints, got_m_hat = simulate_footprints(cfg)
        assert footprints.positions.dtype == footprints.speeds.dtype == np.float64
        assert footprints.positions.tobytes() == positions.tobytes()
        assert footprints.speeds.tobytes() == speeds.tobytes()
        assert footprints.labels.tolist() == [None] * len(positions)
        assert got_m_hat.hex() == m_hat.hex()

    def test_memory_does_not_grow_with_trials(self, park):
        # trial 0 is m passes read from the stream places of 10^8 trials
        cfg = ScenarioConfig(d=300.0, t=4.0, m=8, dist=park, trials=MAX_TRIALS, seed=42)
        tracemalloc.start()
        try:
            footprints, _ = simulate_footprints(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.unique(footprints.speeds).size == 8
        assert peak < 1 << 20

    def test_memory_bounded_by_columns(self, park):
        # s1, m = 1e5: 783,355 records, 18.8 MB of columns, traces 34 MB; a
        # record object per row traced 111.7 MB
        cfg = ScenarioConfig(d=300.0, t=4.0, m=10**5, dist=park, trials=1, seed=7)
        tracemalloc.start()
        try:
            footprints, _ = simulate_footprints(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(footprints) == 783_355
        assert peak < 64 << 20

    def test_out_of_cordon_records_present(self, park):
        cfg = ScenarioConfig(d=300.0, t=4.0, m=4, dist=park, trials=1, seed=9)
        footprints, _ = simulate_footprints(cfg)
        assert np.any(footprints.positions <= 0.0)
        assert np.any(footprints.positions > 300.0)


def _uniform_sites(n, m=20, d=40.0, adt=200.0):
    dist = SpeedDistribution((SpeedComponent(20.0, 1e-9, 1.0),), 0.0, 40.0)
    return [
        SiteConfig(site_id=str(i), adt=adt, m=m, d=d, dist=dist, t=1.0)
        for i in range(n)
    ]


def _per_site_loop(sites, trials, all_pairs, seed):
    """The experiment drawn one (trial, site) stream at a time: the reference."""
    volumes = np.array([site.adt for site in sites])
    wls_weights = np.array([1.0 / vmr(site.d, site.t, site.dist) for site in sites])
    ols_weights = np.ones_like(wls_weights)
    n = len(sites)
    consecutive = [(i, i + 1) for i in range(n - 1)]
    pairs = list(itertools.combinations(range(n), 2)) if all_pairs else consecutive
    mape_ols, mape_wls = np.empty(trials), np.empty(trials)
    for trial in range(trials):
        m_hats = np.empty(n)
        for i, site in enumerate(sites):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, i)))
            speeds = sample_with_rng(site.dist, site.m, rng)
            offsets = rng.random(site.m) * site.t
            counts = kernels.pass_counts(speeds, offsets, site.d, site.t)
            m_hats[i] = (site.t / site.d) * float(np.sum(speeds * counts))
        mape_ols[trial] = kernels.all_pairs_mape(m_hats, volumes, ols_weights, pairs)
        mape_wls[trial] = kernels.all_pairs_mape(m_hats, volumes, wls_weights, pairs)
    return mape_ols, mape_wls


def _site_set(name):
    table2 = load_sites("table2")
    if name == "table2":  # sum of m 1261: blocks of 51 trials
        return table2
    if name == "m1":  # m = 1 at every site
        return [dataclasses.replace(site, m=1) for site in table2]
    # sum of m over BLOCK_PASSES: one trial per block
    return [dataclasses.replace(site, m=BLOCK_PASSES // 2) for site in table2[:3]]


class TestRegressionExperiment:
    @pytest.mark.parametrize(
        "sites,trials,all_pairs,seed",
        [("table2", trials, all_pairs, seed)
         for trials in (1, 50, 51, 52, 103)
         for all_pairs in (True, False)
         for seed in (1, 42, 987654)]
        + [("m1", trials, all_pairs, 7) for trials in (1, 52, 103) for all_pairs in (True, False)]
        + [("wide", trials, all_pairs, 5) for trials in (1, 3) for all_pairs in (True, False)],
    )
    def test_matches_per_site_loop_oracle(self, sites, trials, all_pairs, seed):
        sites = _site_set(sites)
        report = run_regression_experiment(sites, trials, all_pairs=all_pairs, seed=seed)
        want_ols, want_wls = _per_site_loop(sites, trials, all_pairs, seed)
        assert np.array_equal(np.array(report.mape_ols), want_ols)
        assert np.array_equal(np.array(report.mape_wls), want_wls)

    def test_identical_realizations_make_ols_equal_wls(self):
        # with identical (m_hat, volume) rows the pair fit beta = y/x holds
        # under any weights, so the two methods coincide exactly
        from probevolume import kernels

        x = np.full(4, 2.5)
        y = np.full(4, 200.0)
        uniform = np.ones(4)
        skewed = np.array([0.1, 3.0, 7.0, 0.5])
        pairs = list(itertools.combinations(range(4), 2))
        ols = kernels.all_pairs_mape(x, y, uniform, pairs)
        assert ols == kernels.all_pairs_mape(x, y, skewed, pairs)
        assert ols == 0.0

    def test_near_deterministic_sites_agree(self):
        # point-mass speeds at a d multiple: m_hat is m up to the 1e-9 spread
        report = run_regression_experiment(_uniform_sites(3), trials=2, seed=0)
        for a, b in zip(report.mape_ols, report.mape_wls):
            assert a == pytest.approx(b, abs=1e-9)
        assert report.mean_mape_ols == pytest.approx(0.0, abs=1e-9)

    def test_rerun_is_bit_identical(self, park):
        sites = load_sites("table2")[:6]
        a = run_regression_experiment(sites, trials=3, seed=11)
        b = run_regression_experiment(sites, trials=3, seed=11)
        assert a == b

    def test_pair_count_all_pairs(self):
        report = run_regression_experiment(_uniform_sites(5), trials=1, seed=1)
        assert report.n_pairs == 10
        smoke = run_regression_experiment(
            _uniform_sites(5), trials=1, seed=1, all_pairs=False
        )
        assert smoke.n_pairs == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="3 sites"):
            run_regression_experiment(_uniform_sites(2), trials=1, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_regression_experiment(_uniform_sites(3), trials=0, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_regression_experiment(_uniform_sites(3), trials=MAX_TRIALS + 1, seed=0)
        with pytest.raises(ValueError, match="m must be"):
            SiteConfig("x", adt=10.0, m=0, d=10.0, dist=_uniform_sites(3)[0].dist, t=1.0)
        for adt in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="site x: adt must be positive and finite"):
                SiteConfig("x", adt=adt, m=1, d=10.0, dist=_uniform_sites(3)[0].dist, t=1.0)
        # caps on trials * sum of m and on the sum of m of one trial
        with pytest.raises(ValueError, match="probe passes"):
            run_regression_experiment(_uniform_sites(3, m=10**4), trials=10**5, seed=0)
        with pytest.raises(ValueError, match="per trial"):
            run_regression_experiment(_uniform_sites(3, m=10**6), trials=1, seed=0)


class TestSitePreset:
    def test_loads_34_sites(self):
        sites = load_sites("table2")
        assert len(sites) == 34
        assert all(site.t == 1.0 for site in sites)
        by_id = {site.site_id: site for site in sites}
        assert by_id["4945"].adt == 763 and by_id["4945"].m == 107 and by_id["4945"].d == 14
        assert by_id["5121"].d == 41 and by_id["5121"].m == 75
        assert by_id["9249"].d == 7
        # 30 mph sites use the slower modelled distribution
        assert by_id["5121"].dist.components[0].mean == pytest.approx(13.41)
        assert by_id["4945"].dist.components[0].mean == pytest.approx(26.82)


class TestConfigValues:
    """Configs compare and hash by value, through their distribution."""

    def test_equal_scenarios(self, tmp_path):
        a, b = load_scenario("s1", 8, 10, 1), load_scenario("s1", 8, 10, 1)
        assert a.dist is b.dist and a == b and hash(a) == hash(b)
        assert a != load_scenario("s1", 8, 10, 2)
        # an inline mixture is built anew on every load, and compares by value
        path = tmp_path / "inline.json"
        path.write_text(json.dumps({"d": 300.0, "t": 4.0, "dist": config_doc(a.dist)}),
                        encoding="utf-8")
        c, d = load_scenario(str(path), 8, 10, 1), load_scenario(str(path), 8, 10, 1)
        assert c.dist is not d.dist and c == d == a and hash(c) == hash(d) == hash(a)

    def test_equal_site_sets(self):
        a, b = load_sites("table2"), load_sites("table2")
        assert a == b and {hash(site) for site in a} == {hash(site) for site in b}


class TestTrialsCount:
    # trials has the probe-count check: a non-integer once reached numpy's
    # TypeError, an integral float ran on as a float
    def test_non_integer_rejected(self, park):
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.5"):
            ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=2.5, seed=1)
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.5"):
            run_regression_experiment(_uniform_sites(3), trials=2.5, seed=0)

    @pytest.mark.parametrize("trials", [2.0, np.float64(2.0)], ids=["float", "numpy"])
    def test_integral_float_runs_as_int(self, park, trials):
        cfg = ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=trials, seed=1)
        assert type(cfg.trials) is int and cfg.trials == 2
        samples, summary = run_scenario(cfg)
        want_samples, want_summary = run_scenario(dataclasses.replace(cfg, trials=2))
        assert samples.tobytes() == want_samples.tobytes()
        assert (summary.mean, summary.variance) == (want_summary.mean, want_summary.variance)
        sites = load_sites("table2")[:4]
        report = run_regression_experiment(sites, trials=trials, seed=3)
        assert report == run_regression_experiment(sites, trials=2, seed=3)
        assert type(report.trials) is int


class TestSeed:
    # the seed has the probe-count check with least 0: a non-integer once
    # reached numpy's SeedSequence TypeError, -1 its unnamed ValueError
    @pytest.mark.parametrize("seed", [2.5, -1, math.nan, math.inf])
    def test_non_seed_rejected(self, park, seed):
        message = f"seed must be an integer >= 0, got {seed}"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=2, seed=seed)
        with pytest.raises(ValueError, match=message):
            run_regression_experiment(_uniform_sites(3), trials=1, seed=seed)

    @pytest.mark.parametrize("seed", [2.0, np.float64(2.0), np.int64(2)],
                             ids=["float", "numpy-float", "numpy-int"])
    def test_integral_seed_runs_as_int(self, park, seed):
        cfg = ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=3, seed=seed)
        assert type(cfg.seed) is int and cfg.seed == 2
        samples, _ = run_scenario(cfg)
        assert samples.tobytes() == run_scenario(dataclasses.replace(cfg, seed=2))[0].tobytes()
        sites = load_sites("table2")[:4]
        report = run_regression_experiment(sites, trials=2, seed=seed)
        assert type(report.seed) is int
        assert report == run_regression_experiment(sites, trials=2, seed=2)

    def test_experiment_seed_has_no_default(self):
        with pytest.raises(TypeError, match="seed"):
            run_regression_experiment(_uniform_sites(3), 1)
