import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import quad
from scipy.special import ndtr

import probevolume
import probevolume.kernels as kernels
from probevolume.calibration import CalibrationPair
from probevolume.cordon_optimizer import objective_curve, optimize_cordon
from probevolume.distribution_engine import (
    FOLD_TAIL_BOUND,
    VolumePdf,
    cv,
    interval_estimate,
    m_fold_pdf,
    pdf_moments,
    precision_report,
    single_probe_pdf,
    variance,
    vmr,
)
from probevolume.estimator import (
    bernoulli_var_term,
    estimate_probe_volume,
    extra_record_prob,
    min_records,
)
from probevolume.footprint_data import CordonSample, CordonSpec, Footprints, crop_to_cordon
from probevolume.probe_simulator import (
    ScenarioConfig,
    SiteConfig,
    run_regression_experiment,
    run_scenario,
)
from probevolume.speed_model import (
    SpeedComponent,
    SpeedDistribution,
    integrate_weighted,
    load_distribution,
)


_FOOTPRINTS = Footprints(np.array([1.0, 2.0]), np.array([20.0, 25.0]),
                         np.array([None, None], dtype=object))


def _single(dist):
    return single_probe_pdf(300.0, 4.0, dist, grid_step=1e-2)


def _sites(dist):
    return [SiteConfig(site_id=str(i), adt=200.0 + i, m=2, d=40.0 + i, dist=dist, t=1.0)
            for i in range(3)]


def _bits(x):
    """x as nested tuples of type names and exact values, to compare two
    results bit for bit and type for type (np.float64 is no float here)."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def _point_mass_pdf(at=1.0, step=1e-3, n=2001):
    dens = np.zeros(n)
    dens[round(at / step)] = 1.0 / step
    return VolumePdf(grid_start=0.0, grid_step=step, densities=dens, atom_at_zero=0.0)


def _on_cells(pdf, n=None):
    """The densities on lattice cells 0..n-1 (default: up to the last kept
    cell), zero on the cells the pdf does not keep."""
    k, size = pdf.first_cell, pdf.densities.size
    n = k + size if n is None else n
    out = np.zeros(max(n, k + size))
    out[k : k + size] = pdf.densities
    return out[:n]


def _padded(pdf):
    """The same pdf zero-padded to a grid anchored at cell 0."""
    return VolumePdf(0.0, pdf.grid_step, _on_cells(pdf), pdf.atom_at_zero)


def _full_grid_fold(single, m):
    """Reference: the m-fold density on the whole grid 0..m*(n-1), as one
    spectrum of that length, with the exact zeros outside the support
    cleared; the ulp-sized negatives are left in (not clamped)."""
    single = _padded(single)
    q = single.atom_at_zero
    masses = single.cell_masses()
    support = np.flatnonzero(masses)
    masses[0] += q
    out_cells = m * (masses.size - 1) + 1
    nfft = next_fast_len(out_cells, real=True)
    folded = irfft(rfft(masses, nfft) ** m, nfft)[:out_cells]
    atom = q**m
    folded[0] -= atom
    first, last = int(support[0]), int(support[-1])
    folded[: first if q > 0.0 else m * first] = 0.0
    folded[m * last + 1 :] = 0.0
    return folded, atom


class TestBernoulliVarTerm:
    def test_zero_at_integer_ratio(self):
        assert bernoulli_var_term(20.0, 100.0, 1.0) == 0.0

    def test_hand_values(self):
        # s^2 p (1-p) by hand: 900*(1/3)*(2/3) and 1600*0.875*0.125
        assert bernoulli_var_term(30.0, 100.0, 1.0) == pytest.approx(200.0, abs=1e-6)
        assert bernoulli_var_term(40.0, 300.0, 4.0) == pytest.approx(175.0, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bernoulli_var_term(-1.0, 100.0, 1.0)

    def test_vanishes_at_every_integer_ratio(self):
        # zero where the double d/(s*t) is an integer; where s = d/(t*j)
        # rounds to a ratio an ulp off j (j = 7, 14, 28 here), p is that ulp
        for j in range(1, 40):
            s = 300.0 / (4.0 * j)
            r = 300.0 / (s * 4.0)
            term = bernoulli_var_term(s, 300.0, 4.0)
            assert term == 0.0 if r == j else 0.0 < term < s * s * 4.0 * math.ulp(r)


class TestVariance:
    def test_single_probe_area(self, park):
        assert variance(1, 300.0, 4.0, park) == pytest.approx(0.019, abs=0.001)

    def test_eight_probes(self, park):
        assert variance(8, 300.0, 4.0, park) == pytest.approx(0.149, abs=0.002)

    def test_zero_probes(self, park):
        assert variance(0, 300.0, 4.0, park) == 0.0

    @pytest.mark.parametrize("d,t", [(1e-200, 1.0), (1e-300, 1.0), (1e-150, 1e150)])
    def test_tiny_cordon(self, park, d, t):
        # d*d underflows (or t*t overflows); every probe leaves a record, so
        # VMR = (t/d) E[s] - 1
        mean_speed = integrate_weighted(park, lambda s: s)
        assert vmr(d, t, park) == pytest.approx((t / d) * mean_speed, rel=1e-9)

    @pytest.mark.parametrize("d", [1e-308, 1e-320, 1e-323, 5e-324])
    def test_tiny_cordon_variance_overflows(self, park, d):
        with pytest.raises(ValueError, match="not finite"):
            vmr(d, 1.0, park)

    def test_rejects_bad_args(self, park):
        with pytest.raises(ValueError):
            variance(-1, 300.0, 4.0, park)
        with pytest.raises(ValueError):
            variance(1, 0.0, 4.0, park)


class TestVmr:
    def test_table2_sites(self, m60, m30):
        assert vmr(14.0, 1.0, m60) == pytest.approx(0.916, abs=0.01)
        assert vmr(41.0, 1.0, m30) == pytest.approx(0.019, abs=0.005)
        assert vmr(7.0, 1.0, m60) == pytest.approx(2.831, abs=0.02)

    def test_m_independence_exact_for_powers_of_two(self, park):
        ratio = vmr(40.0, 1.0, park)
        for m in (1, 2, 4, 8):
            assert variance(m, 40.0, 1.0, park) / m == ratio


class TestCv:
    def test_corollary_counterexample_values(self, park):
        assert cv(1, 110.0, 4.0, park) == pytest.approx(0.230, abs=0.001)
        assert cv(1, 150.0, 4.0, park) == pytest.approx(0.310, abs=0.001)

    def test_scenario2_m4(self, park):
        assert cv(4, 40.0, 1.0, park) == pytest.approx(0.149, abs=0.001)

    def test_scaling_in_m(self, park):
        assert cv(4, 40.0, 1.0, park) == pytest.approx(
            cv(1, 40.0, 1.0, park) / 2.0, rel=1e-12
        )

    def test_rejects_m_zero(self, park):
        with pytest.raises(ValueError):
            cv(0, 40.0, 1.0, park)


class TestPrecisionReport:
    def test_identities_exact(self, park):
        rep = precision_report(8, 300.0, 4.0, park)
        assert rep.mean == 8.0
        assert rep.variance == 8 * rep.vmr
        assert rep.cv == math.sqrt(rep.vmr / 8)

    @pytest.mark.parametrize("preset", ["park-i35", "table2-60mph", "table2-30mph"])
    def test_one_formula_per_moment(self, preset):
        # bit for bit: every moment of m probes is precision_report's, and the
        # cv objective's curve value is its cv
        dist = load_distribution(preset)
        for m in (1, 2, 3, 7, 64):
            curve = objective_curve(3.0, 243.0, 20.0, 2.0, dist, "cv", m)
            for d, objective in curve:
                ratio = vmr(d, 2.0, dist)
                rep = precision_report(m, d, 2.0, dist)
                assert variance(m, d, 2.0, dist) == m * ratio == rep.variance
                assert cv(m, d, 2.0, dist) == rep.cv == objective

    @pytest.mark.parametrize("m", [10**308, 10**309, 10**400], ids=["1e308", "1e309", "1e400"])
    def test_moments_not_finite(self, park, m):
        # 10**308 probes: m * vmr overflows; past 2**1024, m is no float
        for call in (precision_report, variance, cv):
            with pytest.raises(ValueError, match="not finite"):
                call(m, 7.0, 1.0, park)
        with pytest.raises(ValueError, match="not finite"):
            objective_curve(5.0, 7.0, 1.0, 1.0, park, "cv", m)

    def test_m_zero(self, park):
        assert variance(0, 300.0, 4.0, park) == 0.0
        with pytest.raises(ValueError):
            variance(0, 0.0, 4.0, park)


class TestBooleansRefused:
    # a boolean is no number here, as config_number refuses one in a config
    # file, and neither is a string or None: every public function and
    # constructor raises ValueError for one, naming the parameter, while a
    # numpy number gives the Python number's bits
    BOOLS = [True, np.True_]

    @staticmethod
    def _sites(m=2):
        dist = SpeedDistribution((SpeedComponent(20.0, 1e-9, 1.0),), 0.0, 40.0)
        return [SiteConfig(site_id=str(i), adt=200.0, m=m, d=40.0, dist=dist, t=1.0)
                for i in range(3)]

    @pytest.mark.parametrize("b", BOOLS, ids=["bool", "numpy-bool"])
    def test_probe_count_callers(self, park, b):
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-2)
        calls = {
            "m must be an integer >= 1, got True": [
                lambda: precision_report(b, 300.0, 4.0, park),
                lambda: m_fold_pdf(single, b),
                lambda: objective_curve(5.0, 7.0, 1.0, 1.0, park, "vmr", b),
                lambda: objective_curve(5.0, 7.0, 1.0, 1.0, park, "cv", b),
            ],
            "m must be an integer >= 0, got True": [
                lambda: ScenarioConfig(d=300.0, t=4.0, m=b, dist=park, trials=2, seed=1),
            ],
            "trials must be an integer >= 1, got True": [
                lambda: ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=b, seed=1),
                lambda: run_regression_experiment(self._sites(), trials=b, seed=0),
            ],
            "seed must be an integer >= 0, got True": [
                lambda: ScenarioConfig(d=300.0, t=4.0, m=2, dist=park, trials=2, seed=b),
                lambda: run_regression_experiment(self._sites(), trials=1, seed=b),
            ],
            "site 0: m must be an integer >= 1, got True": [lambda: self._sites(m=b)],
        }
        for message, group in calls.items():
            for call in group:
                with pytest.raises(ValueError, match=message):
                    call()

    def test_false_is_no_zero(self, park):
        for key in ("m", "seed"):
            kwargs = {**dict(d=300.0, t=4.0, m=2, dist=park, trials=2, seed=1), key: False}
            with pytest.raises(ValueError, match=f"{key} must be an integer >= 0, got False"):
                ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("b", BOOLS, ids=["bool", "numpy-bool"])
    def test_vmr(self, park, b):
        for d, t, message in ((b, 4.0, "d must be positive and finite, got True"),
                              (np.array([b, b]), 4.0, "d must be positive and finite, got True"),
                              (300.0, b, "t must be positive and finite, got True")):
            with pytest.raises(ValueError, match=re.escape(message)):
                vmr(d, t, park)

    @pytest.mark.parametrize("two", [np.int64(2), np.float64(2.0)], ids=["int64", "float64"])
    def test_numpy_numbers_give_the_python_bits(self, park, two):
        rep = precision_report(two, 300.0, 4.0, park)
        assert type(rep.m) is int and rep == precision_report(2, 300.0, 4.0, park)
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-2)
        assert m_fold_pdf(single, two).densities.tobytes() == (
            m_fold_pdf(single, 2).densities.tobytes())
        assert objective_curve(5.0, 9.0, 1.0, 1.0, park, "cv", two) == (
            objective_curve(5.0, 9.0, 1.0, 1.0, park, "cv", 2))
        assert self._sites(m=two)[0].m == 2 and type(self._sites(m=two)[0].m) is int
        assert vmr(two * 150, two * 2, park).hex() == vmr(300.0, 4.0, park).hex()
        grid = vmr(np.array([150, 300], dtype=type(two)), two * 2, park)
        assert [x.hex() for x in grid] == [vmr(d, 4.0, park).hex() for d in (150.0, 300.0)]

    # every real parameter of a name in __all__: (name, parameter as its
    # message names it, a valid value, a valid integral value or None, and the
    # call with that parameter set to v)
    PARAMS = [
        ("CalibrationPair", "m_hat", 3.3, 3, lambda v, g: CalibrationPair(v, 3.0, 1.0)),
        ("CalibrationPair", "known_volume", 3.3, 3, lambda v, g: CalibrationPair(2.0, v, 1.0)),
        ("CalibrationPair", "weight", 0.3, 1, lambda v, g: CalibrationPair(2.0, 3.0, v)),
        ("CordonSample", "d", 300.1, 300, lambda v, g: CordonSample((20.0,), v, 4.0)),
        ("CordonSample", "t", 4.1, 4, lambda v, g: CordonSample((20.0,), 300.0, v)),
        ("CordonSample", "speed", 20.1, 20, lambda v, g: CordonSample((30.0, v), 300.0, 4.0)),
        ("CordonSpec", "cordon start", 0.1, 1, lambda v, g: CordonSpec(v, 10.0)),
        ("CordonSpec", "cordon length", 3.3, 3, lambda v, g: CordonSpec(0.0, v)),
        ("ScenarioConfig", "d", 300.1, 300, lambda v, g: ScenarioConfig(v, 4.0, 2, g, 2, 1)),
        ("ScenarioConfig", "t", 4.1, 4, lambda v, g: ScenarioConfig(300.0, v, 2, g, 2, 1)),
        ("ScenarioConfig", "m", 2.0, 2, lambda v, g: ScenarioConfig(300.0, 4.0, v, g, 2, 1)),
        ("ScenarioConfig", "trials", 2.0, 2, lambda v, g: ScenarioConfig(300.0, 4.0, 2, g, v, 1)),
        ("ScenarioConfig", "seed", 2.0, 2, lambda v, g: ScenarioConfig(300.0, 4.0, 2, g, 2, v)),
        ("SiteConfig", "adt", 200.1, 200, lambda v, g: SiteConfig("s", v, 2, 40.0, g, 1.0)),
        ("SiteConfig", "m", 2.0, 2, lambda v, g: SiteConfig("s", 200.0, v, 40.0, g, 1.0)),
        ("SiteConfig", "d", 40.1, 40, lambda v, g: SiteConfig("s", 200.0, 2, v, g, 1.0)),
        ("SiteConfig", "t", 1.1, 1, lambda v, g: SiteConfig("s", 200.0, 2, 40.0, g, v)),
        ("SpeedComponent", "mean", 20.1, 20, lambda v, g: SpeedComponent(v, 4.0, 1.0)),
        ("SpeedComponent", "sd", 4.1, 4, lambda v, g: SpeedComponent(20.0, v, 1.0)),
        ("SpeedComponent", "weight", 0.3, 1, lambda v, g: SpeedComponent(20.0, 4.0, v)),
        ("SpeedDistribution", "lower", 0.1, 1,
         lambda v, g: SpeedDistribution(g.components, v, 40.0)),
        ("SpeedDistribution", "upper", 40.1, 40,
         lambda v, g: SpeedDistribution(g.components, 0.0, v)),
        *((name, param, value, whole, lambda v, g, f=f, i=i: f(*(
            (20.0, 300.0, 4.0)[:i] + (v,) + (20.0, 300.0, 4.0)[i + 1:])))
          for name, f in (("bernoulli_var_term", bernoulli_var_term),
                          ("extra_record_prob", extra_record_prob),
                          ("min_records", min_records))
          for i, (param, value, whole) in enumerate(
              (("s", 20.1, 20), ("d", 300.1, 300), ("t", 4.1, 4)))),
        ("crop_to_cordon", "t", 4.1, 4,
         lambda v, g: crop_to_cordon(_FOOTPRINTS, CordonSpec(0.0, 3.0), v)),
        ("cv", "m", 2.0, 2, lambda v, g: cv(v, 300.0, 4.0, g)),
        ("cv", "d", 300.1, 300, lambda v, g: cv(2, v, 4.0, g)),
        ("cv", "t", 4.1, 4, lambda v, g: cv(2, 300.0, v, g)),
        ("integrate_weighted", "breakpoints", 20.1, 20,
         lambda v, g: integrate_weighted(g, lambda s: s * s, (10.0, v))),
        ("interval_estimate", "level", 0.9, None,
         lambda v, g: interval_estimate(_single(g), v)),
        ("m_fold_pdf", "m", 2.0, 2, lambda v, g: m_fold_pdf(_single(g), v)),
        ("objective_curve", "d_min", 5.1, 5,
         lambda v, g: objective_curve(v, 7.0, 1.0, 1.0, g, "cv", 2)),
        ("objective_curve", "d_max", 7.1, 7,
         lambda v, g: objective_curve(5.0, v, 1.0, 1.0, g, "cv", 2)),
        ("objective_curve", "step", 1.1, 1,
         lambda v, g: objective_curve(5.0, 7.0, v, 1.0, g, "cv", 2)),
        ("objective_curve", "t", 1.1, 1,
         lambda v, g: objective_curve(5.0, 7.0, 1.0, v, g, "cv", 2)),
        ("objective_curve", "m", 2.0, 2,
         lambda v, g: objective_curve(5.0, 7.0, 1.0, 1.0, g, "cv", v)),
        ("optimize_cordon", "d_max", 7.1, 7, lambda v, g: optimize_cordon(v, 1.0, g, "cv", 2, 1.0)),
        ("optimize_cordon", "t", 1.1, 1, lambda v, g: optimize_cordon(7.0, v, g, "cv", 2, 1.0)),
        ("optimize_cordon", "m", 2.0, 2, lambda v, g: optimize_cordon(7.0, 1.0, g, "cv", v, 1.0)),
        ("optimize_cordon", "step", 1.1, 1, lambda v, g: optimize_cordon(7.0, 1.0, g, "cv", 2, v)),
        ("precision_report", "m", 2.0, 2, lambda v, g: precision_report(v, 300.0, 4.0, g)),
        ("precision_report", "d", 300.1, 300, lambda v, g: precision_report(2, v, 4.0, g)),
        ("precision_report", "t", 4.1, 4, lambda v, g: precision_report(2, 300.0, v, g)),
        ("run_regression_experiment", "trials", 2.0, 2,
         lambda v, g: run_regression_experiment(_sites(g), v, seed=1)),
        ("run_regression_experiment", "seed", 2.0, 2,
         lambda v, g: run_regression_experiment(_sites(g), 2, seed=v)),
        ("single_probe_pdf", "d", 300.1, 300, lambda v, g: single_probe_pdf(v, 4.0, g, 1e-2)),
        ("single_probe_pdf", "t", 4.1, 4, lambda v, g: single_probe_pdf(300.0, v, g, 1e-2)),
        ("single_probe_pdf", "grid_step", 1.1e-2, None,
         lambda v, g: single_probe_pdf(300.0, 4.0, g, v)),
        ("variance", "m", 2.0, 2, lambda v, g: variance(v, 300.0, 4.0, g)),
        ("variance", "d", 300.1, 300, lambda v, g: variance(2, v, 4.0, g)),
        ("variance", "t", 4.1, 4, lambda v, g: variance(2, 300.0, v, g)),
        ("vmr", "d", 300.1, 300, lambda v, g: vmr(v, 4.0, g)),
        ("vmr", "t", 4.1, 4, lambda v, g: vmr(300.0, v, g)),
    ]
    # the names in __all__ without a real parameter, by what they take
    NO_REAL_PARAMETER = {
        # results the library builds
        "CalibrationModel", "ExperimentReport", "OptimumReport", "PrecisionReport",
        "SimSummary", "VolumeEstimate", "VolumePdf",
        # columns, records, files, names and functions
        "Footprints", "estimate_probe_volume", "fit_through_origin", "load_distribution",
        "pdf_moments", "read_footprints_csv", "run_scenario", "write_footprints_csv",
    }
    IDS = [f"{name}-{param}" for name, param, *_ in PARAMS]

    def test_the_walk_covers_all(self):
        walked = {name for name, *_ in self.PARAMS}
        assert walked.isdisjoint(self.NO_REAL_PARAMETER)
        assert walked | self.NO_REAL_PARAMETER == set(probevolume.__all__)

    @pytest.mark.parametrize("name,param,value,whole,call", PARAMS, ids=IDS)
    def test_no_number_refused(self, park, name, param, value, whole, call):
        call(value, park)  # valid as given
        for bad in (True, np.True_, "1", None):
            with pytest.raises(ValueError, match=rf"\b{param}\b"):
                call(bad, park)

    @pytest.mark.parametrize("name,param,value,whole,call", PARAMS, ids=IDS)
    def test_numpy_number_gives_the_python_bits(self, park, name, param, value, whole, call):
        # the same bits, and Python floats and ints wherever the value is
        # stored or returned
        given = [np.float32(value), np.float64(value)]
        given += [] if whole is None else [np.int64(whole)]
        for v in given:
            assert _bits(call(v, park)) == _bits(call(float(v), park)), type(v).__name__

    def test_float32_computes_as_float64(self, park):
        footprints = Footprints(np.array([1.0, 2.0]), np.array([20.1, 25.3]),
                                np.array([None, None], dtype=object))

        def m_hat(d, t):
            return estimate_probe_volume(crop_to_cordon(footprints, CordonSpec(0, d), t).sample)

        got = m_hat(np.float32(3.3), np.float32(1.1))
        assert type(got.m_hat) is float and type(got.d) is float and type(got.t) is float
        assert got.m_hat.hex() == m_hat(float(np.float32(3.3)), float(np.float32(1.1))).m_hat.hex()
        assert type(m_hat(np.float32(3.3), 1.1).m_hat) is float
        config = ScenarioConfig(np.float32(300.1), 4.0, 3, park, 200, 1)
        mean = run_scenario(config)[1].mean
        same = ScenarioConfig(float(np.float32(300.1)), 4.0, 3, park, 200, 1)
        assert type(config.d) is float and mean.hex() == run_scenario(same)[1].mean.hex()
        # 0.95's float32 steps are not exact: 1 - alpha needs 25 bits there
        single = _single(park)
        assert _bits(interval_estimate(single, np.float32(0.95))) == _bits(
            interval_estimate(single, float(np.float32(0.95))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, "20", True, None])
    def test_sample_speeds_refused(self, bad):
        given = [(20.0, bad)] + ([np.array([20.0, bad])] if isinstance(bad, float) else [])
        for speeds in given:
            with pytest.raises(ValueError, match="^speed must be positive and finite, got "):
                CordonSample(speeds, 300.0, 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "20", True, None])
    def test_breakpoints_refused(self, park, bad):
        given = [[10.0, bad]] + ([np.array([10.0, bad])] if isinstance(bad, float) else [])
        for breakpoints in given:
            with pytest.raises(ValueError, match="^breakpoints must be finite, got "):
                integrate_weighted(park, lambda s: s * s, breakpoints)

    def test_float32_speed_column_is_its_float64_cast(self):
        speeds = np.array([20.1, 25.3, 31.7], dtype=np.float32)
        got = CordonSample(speeds, 300.0, 4.0)
        want = CordonSample(speeds.astype(np.float64), 300.0, 4.0)
        assert _bits(got) == _bits(want)
        assert _bits(estimate_probe_volume(got)) == _bits(estimate_probe_volume(want))

    def test_vmr_list_and_string_refused(self, park):
        for d in ([300.0, True], [300.0, np.True_], [300.0, "300"], "300", [300.0, None]):
            with pytest.raises(ValueError, match="^d must be positive and finite, got "):
                vmr(d, 4.0, park)
        assert vmr([300.0, 150], 4.0, park).tolist() == [vmr(300.0, 4.0, park),
                                                         vmr(150.0, 4.0, park)]

    def test_variance_checks_m_first(self, park):
        for m in (False, np.False_, "x", None, -1, 0.5):
            with pytest.raises(ValueError, match="^m must be an integer >= 0, got "):
                variance(m, 300.0, 4.0, park)
        assert variance(0, 300.0, 4.0, park) == 0.0
        assert type(variance(0, 300.0, 4.0, park)) is float


class TestSingleProbePdf:
    def test_scenario1_mass_and_moments(self, park):
        pdf = single_probe_pdf(300.0, 4.0, park)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-6)
        mean, var = pdf_moments(pdf)
        assert mean == pytest.approx(1.0, abs=1e-4)
        assert var == pytest.approx(0.019, abs=0.001)

    def test_scenario1_atom_is_zero(self, park):
        # d/t = 75 m/s exceeds the 40 m/s support: no probe can cross unseen
        pdf = single_probe_pdf(300.0, 4.0, park)
        assert pdf.atom_at_zero == 0.0

    def test_atom_when_cordon_is_short(self, park):
        # d/t = 7.5 m/s: faster probes may cross between records
        d, t = 30.0, 4.0
        pdf = single_probe_pdf(d, t, park)

        def no_record_weight(s):
            p = np.mod(d / (s * t), 1.0)
            return np.where(s * t > d, 1.0 - p, 0.0)

        want = integrate_weighted(park, no_record_weight, [d / t])
        assert pdf.atom_at_zero == pytest.approx(want, abs=1e-9)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-6)
        mean, _ = pdf_moments(pdf)
        assert mean == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_point_mass(self, narrow20):
        pdf = single_probe_pdf(100.0, 1.0, narrow20)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-6)
        mean, var = pdf_moments(pdf)
        assert mean == pytest.approx(1.0, abs=1e-3)
        assert var < 1e-3
        grid = pdf.grid()
        near = pdf.cell_masses()[np.abs(grid - 1.0) <= 3 * pdf.grid_step].sum()
        assert near > 0.99

    def test_rejects_coarse_grid(self, park):
        with pytest.raises(ValueError, match="grid_step"):
            single_probe_pdf(300.0, 4.0, park, grid_step=0.1)

    @pytest.mark.parametrize(
        "d,t,step",
        [(300.0, 4.0, 1e-5), (300.0, 4.0, 1e-300), (0.05, 4.0, 1e-3), (1e-300, 4.0, 1e-2)],
        ids=["fine-step", "tiny-step", "short-cordon", "tiny-cordon"],
    )
    def test_rejects_partition_over_cap(self, park, d, t, step):
        with pytest.raises(ValueError, match="band pieces"):
            single_probe_pdf(d, t, park, grid_step=step)

    @pytest.mark.parametrize("preset", ["park-i35", "table2-30mph", "table2-60mph"])
    @pytest.mark.parametrize("d,t,step", [(300.0, 4.0, 1e-3), (30.0, 4.0, 1e-2), (5.0, 4.0, 1e-2)])
    def test_trimmed_to_nonzero_cells(self, preset, d, t, step):
        # the kept cells are the band masses from their first to their last
        # nonzero cell, bit for bit, and the grid is step times the cell index
        dist = load_distribution(preset)
        m_top = max(2.0, dist.upper * t / d * (1.0 + step))
        n_cells = int(math.ceil(m_top / step)) + 1
        masses, atom = kernels.band_masses(
            dist._means, dist._sds, dist._norms, dist._cdf_lo, dist._cdf_w,
            dist.lower, dist.upper, d, t, step, n_cells, int(math.ceil(2.0 / step)),
        )
        dens = np.clip(masses, 0.0, None) / step
        pdf = single_probe_pdf(d, t, dist, grid_step=step)
        k, size = pdf.first_cell, pdf.densities.size
        assert pdf.grid_start == k * step
        assert pdf.densities.tobytes() == dens[k : k + size].tobytes()
        assert pdf.densities[0] > 0.0 and pdf.densities[-1] > 0.0
        assert not dens[:k].any() and not dens[k + size :].any()
        assert pdf.atom_at_zero == max(atom, 0.0)
        assert pdf.grid().tobytes() == (step * np.arange(n_cells))[k : k + size].tobytes()

    def test_densities_nonnegative(self, park):
        for d, t in ((300.0, 4.0), (40.0, 1.0), (30.0, 4.0)):
            pdf = single_probe_pdf(d, t, park)
            assert np.all(pdf.densities >= 0.0)
            assert pdf.atom_at_zero >= 0.0

    @staticmethod
    def _band_only(dist, d, t, step, n_cells, s_lo, s_hi):
        # band_masses with the support narrowed to one band; u_max is large
        # enough that nothing is lumped next to m_hat = 1
        return kernels.band_masses(
            dist._means, dist._sds, dist._norms, dist._cdf_lo, dist._cdf_w,
            s_lo, s_hi, d, t, step, n_cells, 2000,
        )

    def test_band_mass_split_against_quadrature(self, park):
        # each band's grid deposits must carry the band's g-mass, split by
        # the Bernoulli weights; oracle via independent piecewise quadrature
        d, t, step = 300.0, 4.0, 1e-3
        n_cells = 2001
        for u in range(1, 7):
            s_hi = min(park.upper, d / (t * u))
            s_lo = max(park.lower, d / (t * (u + 1)))
            got_mass, got_atom = self._band_only(park, d, t, step, n_cells, s_lo, s_hi)
            assert got_atom == 0.0

            def in_band(s):
                return ((s > s_lo) & (s <= s_hi)).astype(float)

            def band_p(s):
                return in_band(s) * (np.mod(d / (s * t), 1.0))

            want_total = integrate_weighted(park, in_band, [s_lo, s_hi])
            assert float(got_mass.sum()) == pytest.approx(want_total, abs=1e-6)

            # the k=1 branch maps into (1, (u+1)/u]; split at the exact
            # cell-edge preimage just above m_hat = 1, where the k=0 branch
            # cannot reach, and compare against the quadrature of g*p there
            i_center = int(math.floor(1.0 / step + 0.5))
            edge = (i_center + 0.5) * step
            s_edge = edge * d / (t * (u + 1))

            def k1_above_edge(s):
                return np.where(s > s_edge, band_p(s), 0.0)

            want_k1_above = integrate_weighted(
                park, k1_above_edge, [s_lo, s_edge, s_hi]
            )
            grid = np.arange(n_cells) * step
            k1_above = float(got_mass[grid > edge].sum())
            assert k1_above == pytest.approx(want_k1_above, abs=1e-6)

    def test_u0_band_split(self, park):
        # short cordon: the u=0 band exists and its k=0 branch is the atom
        d, t, step = 30.0, 4.0, 1e-3
        n_cells = int(math.ceil(max(2.0, park.upper * t / d) / step)) + 10
        got_mass, got_atom = self._band_only(
            park, d, t, step, n_cells, d / t, park.upper
        )

        def in_band(s):
            return (s > d / t).astype(float)

        def band_p(s):
            return in_band(s) * np.mod(d / (s * t), 1.0)

        want_total = integrate_weighted(park, in_band, [d / t])
        want_k1 = integrate_weighted(park, band_p, [d / t])
        assert float(got_mass.sum()) == pytest.approx(want_k1, abs=1e-6)
        assert got_atom == pytest.approx(want_total - want_k1, abs=1e-6)

    @pytest.mark.parametrize(
        "preset,d,t",
        [("table2-30mph", 125.5, 4.0), ("table2-60mph", 90.1, 2.0), ("park-i35", 30.0, 4.0)],
    )
    def test_zero_atom_against_quad(self, preset, d, t):
        # independent oracle: the atom is the integral of g(s) * (1 - d/(s t))
        # over the speeds that can cross between two records, s > d/t
        dist = load_distribution(preset)
        want, _ = quad(
            lambda s: float(dist.pdf(s)) * (1.0 - d / (s * t)),
            d / t, dist.upper, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert want >= 1e-6
        assert single_probe_pdf(d, t, dist).atom_at_zero == pytest.approx(want, rel=1e-9)

    # A tail-only component above the support: mixture_cdf's
    # 0.5 * (1 + erf(z / sqrt 2)) cancels, and the band masses, CDF
    # differences, lose about 9.2e-3 of the total at 8 sd and the whole
    # component (0.5) from about 9 sd. Fixing the CDF moves round-off atoms
    # that the density benchmark holds to 1e-9 (CHANGES.md, FOUND).
    @pytest.mark.xfail(strict=True, reason="mixture_cdf cancels in a tail-only component")
    @pytest.mark.parametrize("z", [8.0, 10.0])
    def test_mass_with_tail_only_component_above_support(self, z):
        dist = SpeedDistribution(
            (SpeedComponent(40.0 + 1.5 * z, 1.5, 0.5), SpeedComponent(20.0, 4.0, 0.5)),
            0.0,
            40.0,
        )
        pdf = single_probe_pdf(300.0, 4.0, dist, grid_step=1e-2)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-6)


class TestMFold:
    def test_identity(self, park):
        single = single_probe_pdf(300.0, 4.0, park)
        assert m_fold_pdf(single, 1) is single

    def test_scenario1_m2(self, park):
        pdf = m_fold_pdf(single_probe_pdf(300.0, 4.0, park), 2)
        mean, var = pdf_moments(pdf)
        assert mean == pytest.approx(2.0, abs=1e-3)
        assert var == pytest.approx(0.037, abs=0.001)

    def test_scenario2_m8(self, park):
        pdf = m_fold_pdf(single_probe_pdf(40.0, 1.0, park), 8)
        mean, var = pdf_moments(pdf)
        assert mean == pytest.approx(8.0, abs=1e-2)
        assert var == pytest.approx(0.706, abs=0.005)

    def test_mass_conserved_with_atom(self, park):
        single = single_probe_pdf(30.0, 4.0, park)
        q = single.atom_at_zero
        assert q > 0.0
        pdf = m_fold_pdf(single, 3)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-6)
        assert pdf.atom_at_zero == pytest.approx(q**3, rel=1e-12)

    @pytest.mark.parametrize(
        "d,t,step,m",
        [(40.0, 1.0, 1e-3, 8), (30.0, 4.0, 1e-2, 3), (30.0, 4.0, 1e-2, 65)],
    )
    def test_matches_convolution_oracle(self, park, d, t, step, m):
        # oracle: binomial mixture over the number r of probes that left a
        # record, each term the normalized continuous part convolved r times
        single = single_probe_pdf(d, t, park, grid_step=step)
        q = single.atom_at_zero
        c_mass = _on_cells(single) * step
        cont = float(np.sum(c_mass))
        want = np.zeros(m * (c_mass.size - 1) + 1)
        power = np.ones(1)
        for r in range(1, m + 1):
            power = np.convolve(power, c_mass / cont)
            want[: power.size] += math.comb(m, r) * q ** (m - r) * cont**r * power
        got = m_fold_pdf(single, m)
        assert got.first_cell + got.densities.size <= want.size
        assert np.max(np.abs(_on_cells(got, want.size) - want / step)) < 1e-8
        assert got.atom_at_zero == q**m

    @pytest.mark.parametrize(
        "d,t,step,m",
        [(300.0, 4.0, 1e-3, 8), (300.0, 4.0, 1e-3, 64), (5.0, 4.0, 1e-2, 8)],
        ids=["no-atom-m8", "no-atom-m64", "atom-m8"],
    )
    def test_exact_zeros_outside_support(self, park, d, t, step, m):
        # with the zero atom q, the continuous part of m probes starts at the
        # single density's first cell; without it, at m times that cell
        single = single_probe_pdf(d, t, park, grid_step=step)
        first = single.first_cell
        last = first + single.densities.size - 1
        q = single.atom_at_zero
        assert (q > 0.0) == (d == 5.0)
        lo = first if q > 0.0 else m * first
        pdf = m_fold_pdf(single, m)
        assert pdf.first_cell >= lo
        assert pdf.first_cell + pdf.densities.size - 1 <= m * last
        assert pdf.densities[0] > 0.0 and pdf.densities[-1] > 0.0
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_mismatched_grid(self, park):
        single = single_probe_pdf(300.0, 4.0, park)
        start = single.grid_start + 0.5 * single.grid_step
        shifted = VolumePdf(start, single.grid_step, single.densities, single.atom_at_zero)
        with pytest.raises(ValueError, match="grid"):
            m_fold_pdf(shifted, 2)

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan, -1e-2])
    def test_rejects_start_off_the_cells(self, park, start):
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-2)
        bad = VolumePdf(start, single.grid_step, single.densities, single.atom_at_zero)
        assert bad.grid().size == single.densities.size
        with pytest.raises(ValueError, match="grid"):
            m_fold_pdf(bad, 2)

    def test_accepts_start_on_lattice(self, park):
        # three cells further out, one probe's law is shifted by 3 cells and
        # m probes' by 3*m
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-2)
        step = single.grid_step
        shifted = VolumePdf(
            (single.first_cell + 3) * step, step, single.densities, single.atom_at_zero
        )
        want, got = m_fold_pdf(single, 8), m_fold_pdf(shifted, 8)
        n = got.first_cell + got.densities.size + 1
        want_cells = np.concatenate((np.zeros(24), _on_cells(want, n - 24)))
        assert np.max(np.abs(_on_cells(got, n) - want_cells)) * step < 1e-14

    def test_rejects_m_past_exact_cells(self, park):
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-2)
        with pytest.raises(ValueError, match="m="):
            m_fold_pdf(single, 10**400)

    def test_rejects_window_over_cap(self, park):
        # 10^9 probes spread over about 2*8.7*sqrt(10^9 * 0.019)/0.01 cells
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-2)
        with pytest.raises(ValueError, match="cells"):
            m_fold_pdf(single, 10**9)

    def test_rejects_unnormalized(self):
        dens = np.zeros(200)
        dens[50] = 3.0
        bad = VolumePdf(0.0, 1e-2, dens, 0.0)
        with pytest.raises(ValueError, match="mass"):
            m_fold_pdf(bad, 2)

    def test_rejects_bad_m(self, park):
        with pytest.raises(ValueError):
            m_fold_pdf(single_probe_pdf(300.0, 4.0, park), 0)

    def test_warns_on_mass_drift(self):
        # a mass of 1 + 9e-7 passes the input check; 200 folds carry it to
        # about 1 + 1.8e-4, past FOLD_DRIFT_WARN
        dens = np.zeros(200)
        dens[50] = (1.0 + 9e-7) / 1e-2
        single = VolumePdf(0.0, 1e-2, dens, 0.0)
        with pytest.warns(RuntimeWarning, match="200-fold density: mass drifted"):
            pdf = m_fold_pdf(single, 200)
        assert pdf.total_mass() == pytest.approx((1.0 + 9e-7) ** 200, rel=1e-9)

    def test_variance_additivity(self, park):
        single = single_probe_pdf(40.0, 1.0, park)
        _, v1 = pdf_moments(single)
        for m in (2, 4, 8):
            _, vm = pdf_moments(m_fold_pdf(single, m))
            assert vm == pytest.approx(m * v1, rel=0.02)


_WINDOW_CASES = [
    (preset, 300.0, 4.0, m)
    for preset in ("park-i35", "table2-30mph", "table2-60mph")
    for m in (2, 8, 64, 65, 500, 2000)
] + [("park-i35", 5.0, 4.0, m) for m in (2, 8, 64, 65, 500, 2000)]


class TestFoldWindow:
    # the fold on its window against the whole grid, at grid step 1e-2; the
    # d=5, t=4 cases carry a zero atom of 0.92
    @pytest.fixture(scope="class")
    def folds(self):
        cache = {}

        def fold(preset, d, t, m):
            if (preset, d, t, m) not in cache:
                single = single_probe_pdf(d, t, load_distribution(preset), grid_step=1e-2)
                ref, ref_atom = _full_grid_fold(single, m)
                cache[preset, d, t, m] = single, m_fold_pdf(single, m), ref, ref_atom
            return cache[preset, d, t, m]

        return fold

    @pytest.mark.parametrize("preset,d,t,m", _WINDOW_CASES)
    def test_kept_cells_match_full_grid(self, folds, preset, d, t, m):
        single, pdf, ref, _ = folds(preset, d, t, m)
        k, size = pdf.first_cell, pdf.densities.size
        assert k + size <= ref.size
        kept = ref[k : k + size]
        assert np.max(np.abs(pdf.cell_masses() - np.clip(kept, 0.0, None))) <= 1e-14
        # outside the kept cells the reference holds at most the window's
        # tail bound, plus its own round-off: no more, per cell, than its
        # largest negative value (the exact masses are nonnegative)
        noise = max(-float(np.min(ref)), 0.0)
        outside = np.concatenate((ref[:k], ref[k + size :]))
        assert float(np.sum(np.clip(outside, 0.0, None))) <= FOLD_TAIL_BOUND + noise * outside.size
        assert pdf.atom_at_zero == single.atom_at_zero**m

    @pytest.mark.parametrize("preset,d,t,m", _WINDOW_CASES)
    def test_trimmed_matches_zero_padded(self, folds, preset, d, t, m):
        _, pdf, ref, _ = folds(preset, d, t, m)
        padded = VolumePdf(0.0, pdf.grid_step, _on_cells(pdf, ref.size), pdf.atom_at_zero)
        for got, want in zip(pdf_moments(pdf), pdf_moments(padded)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        for level in (0.5, 0.95, 0.999999):
            got = interval_estimate(pdf, level)
            want = interval_estimate(padded, level)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_window_shorter_than_cell_index(self):
        # three cells at m_hat = 1: the window, and so the transform, is far
        # shorter than the cells' index, and they wrap around it
        step = 1e-3
        single = VolumePdf(1000 * step, step, np.array([0.25, 0.5, 0.25]) / step, 0.0)
        for m in (2, 3, 50):
            pdf = m_fold_pdf(single, m)
            ref, _ = _full_grid_fold(single, m)
            k, size = pdf.first_cell, pdf.densities.size
            assert (k, size) == (1000 * m, 2 * m + 1)
            assert np.max(np.abs(pdf.cell_masses() - ref[k : k + size])) < 1e-15

    def test_window_against_binomial(self):
        # a zero atom of 0.1 and one cell at m_hat = 1: m probes put
        # C(m, k) 0.9^k 0.1^(m-k) on cell 1000k, and the window keeps all but
        # FOLD_TAIL_BOUND of it; the widest deviation is the atom's, |0 - mu|
        step, q, m = 1e-3, 0.1, 100
        single = VolumePdf(1000 * step, step, np.array([(1.0 - q) / step]), q)
        pdf = m_fold_pdf(single, m)
        assert pdf.atom_at_zero == q**m
        k, size = pdf.first_cell, pdf.densities.size
        kept = _on_cells(pdf, 1000 * m + 1)
        dropped = 0.0
        for r in range(1, m + 1):
            pmf = math.comb(m, r) * (1.0 - q) ** r * q ** (m - r)
            if k <= 1000 * r < k + size:
                assert kept[1000 * r] * step == pytest.approx(pmf, abs=1e-14)
            else:
                dropped += pmf
        assert dropped <= FOLD_TAIL_BOUND

    def test_all_mass_in_atom(self):
        single = VolumePdf(0.0, 1e-2, np.zeros(200), 1.0)
        pdf = m_fold_pdf(single, 5)
        assert pdf.atom_at_zero == 1.0
        assert pdf.densities.tolist() == [0.0]

    def test_window_grows_as_sqrt_m(self, park):
        # beyond the Bernstein bound's linear term the window is sqrt(m) wide
        single = single_probe_pdf(300.0, 4.0, park, grid_step=1e-3)
        widths = {m: m_fold_pdf(single, m).densities.size for m in (1000, 4000, 16000)}
        assert widths[4000] < 2.1 * widths[1000]
        assert widths[16000] < 2.1 * widths[4000]


def _kolmogorov(pdf, m, ratio):
    """Largest gap between the pdf's CDF, zero atom included, and that of
    N(m, m*ratio), at both edges of every cell: where the cells' CDF is exact."""
    step = pdf.grid_step
    edges = pdf.grid_start + step * (np.arange(pdf.densities.size + 1) - 0.5)
    cdf = np.concatenate(([0.0], np.cumsum(pdf.cell_masses()))) + pdf.atom_at_zero * (edges >= 0)
    return float(np.max(np.abs(cdf - ndtr((edges - m) / math.sqrt(m * ratio)))))


class TestNormalLimit:
    """The paper's normal limit: the m-probe law approaches N(m, m*VMR), its
    Kolmogorov distance D falling like m**-0.5 (Berry-Esseen) to the
    one-term Edgeworth limit D*sqrt(m) -> |k3| / (6 sqrt(2 pi) VMR**1.5),
    k3 the third central moment of one probe's estimate (its mean is 1)."""

    @pytest.mark.parametrize(
        "name,d,t",
        [("park-i35", 300.0, 4.0), ("park-i35", 40.0, 1.0),
         ("table2-60mph", 41.0, 1.0), ("table2-30mph", 41.0, 1.0)],
    )
    def test_kolmogorov_distance_falls_as_one_over_root_m(self, name, d, t):
        dist = load_distribution(name)
        single, ratio = single_probe_pdf(d, t, dist), vmr(d, t, dist)
        ms = np.array([8, 64, 500, 5000])
        scaled = np.array([_kolmogorov(m_fold_pdf(single, m), m, ratio) for m in ms]) * np.sqrt(ms)
        assert np.all(np.diff(scaled / np.sqrt(ms)) < 0)  # D falls
        assert np.all(np.diff(scaled) < 0)  # and D*sqrt(m) falls toward its limit
        centred, masses = single.grid() - 1.0, single.cell_masses()
        k3 = float(np.sum(masses * centred**3)) - single.atom_at_zero
        rho = float(np.sum(masses * np.abs(centred) ** 3)) + single.atom_at_zero
        # at m = 5000 it reads within 0.4% of the Edgeworth limit
        edgeworth = abs(k3) / (6.0 * math.sqrt(2.0 * math.pi) * ratio**1.5)
        assert scaled[-1] == pytest.approx(edgeworth, rel=0.01)
        # Berry-Esseen (Shevtsova's constant): 0.57-0.82 here, against D*sqrt(m) <= 0.044
        assert scaled[0] <= 0.4748 * rho / ratio**1.5


class TestPdfMoments:
    def test_point_mass(self):
        mean, var = pdf_moments(_point_mass_pdf())
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_scenario2_m4(self, park):
        pdf = m_fold_pdf(single_probe_pdf(40.0, 1.0, park), 4)
        mean, var = pdf_moments(pdf)
        assert mean == pytest.approx(4.0, abs=5e-3)
        assert var == pytest.approx(0.353, abs=0.003)


class TestIntervalEstimate:
    def test_point_mass(self):
        pdf = _point_mass_pdf()
        lo, hi = interval_estimate(pdf, 0.95)
        assert lo == pytest.approx(1.0, abs=pdf.grid_step)
        assert hi == pytest.approx(1.0, abs=pdf.grid_step)

    def test_level_to_one_covers_support(self, park):
        pdf = single_probe_pdf(300.0, 4.0, park)
        mass = pdf.cell_masses()
        grid = pdf.grid()
        prev_lo, prev_hi = 1.0, 1.0
        for level in (0.5, 0.9, 0.99, 0.9999, 0.9999999):
            lo, hi = interval_estimate(pdf, level)
            # nested growth toward the support as level -> 1
            assert lo <= prev_lo and hi >= prev_hi
            prev_lo, prev_hi = lo, hi
            covered = float(mass[(grid >= lo - pdf.grid_step) & (grid <= hi + pdf.grid_step)].sum())
            assert covered >= level - 1e-9
        occupied = grid[mass > 1e-7]
        assert lo <= occupied[0] + pdf.grid_step
        assert hi >= occupied[-1] - pdf.grid_step

    def test_against_monte_carlo_quantiles(self, park):
        pdf = single_probe_pdf(300.0, 4.0, park)
        lo, hi = interval_estimate(pdf, 0.95)
        assert lo < 1.0 < hi
        samples, _ = run_scenario(
            ScenarioConfig(d=300.0, t=4.0, m=1, dist=park, trials=10**6, seed=314)
        )
        mc_lo, mc_hi = np.quantile(samples, [0.025, 0.975])
        assert lo == pytest.approx(float(mc_lo), abs=0.01)
        assert hi == pytest.approx(float(mc_hi), abs=0.01)

    def test_rejects_bad_level_and_mass(self, park):
        pdf = single_probe_pdf(300.0, 4.0, park)
        with pytest.raises(ValueError):
            interval_estimate(pdf, 1.0)
        bad = VolumePdf(0.0, pdf.grid_step, pdf.densities * 2.0, 0.0)
        with pytest.raises(ValueError, match="mass"):
            interval_estimate(bad, 0.95)


class TestDegenerateOptimizerFeed:
    def test_variance_vanishes_at_exact_multiples(self, narrow20):
        # p(s0) = 0 when d is an integer multiple of s0*t; residual comes
        # only from the 1e-6-wide spread of the near-point mass
        assert variance(1, 40.0, 1.0, narrow20) == pytest.approx(0.0, abs=1e-6)
        assert variance(1, 20.0, 1.0, narrow20) == pytest.approx(0.0, abs=1e-6)
        # away from a multiple the variance is decisively nonzero
        assert variance(1, 30.0, 1.0, narrow20) > 1e-3
