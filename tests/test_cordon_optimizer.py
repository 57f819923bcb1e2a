import math
import re

import numpy as np
import pytest

from probevolume.cordon_optimizer import objective_curve, optimize_cordon
from probevolume.distribution_engine import moments_report, precision_report, vmr
from probevolume.speed_model import PRESET_NAMES, load_distribution


class TestObjectiveCurve:
    def test_corollary_counterexample(self, park):
        curve = dict(objective_curve(100.0, 150.0, 10.0, 4.0, park, "cv", m=1))
        assert curve[110.0] < curve[150.0]

    def test_cv_is_sqrt_vmr_at_m1(self, park):
        cv_curve = objective_curve(20.0, 60.0, 10.0, 4.0, park, "cv", m=1)
        vmr_curve = objective_curve(20.0, 60.0, 10.0, 4.0, park, "vmr")
        for (d1, c), (d2, v) in zip(cv_curve, vmr_curve):
            assert d1 == d2
            assert c == pytest.approx(math.sqrt(v), rel=1e-12)

    def test_m_scaling_is_exact_factor_two(self, park):
        m1 = objective_curve(20.0, 60.0, 10.0, 4.0, park, "cv", m=1)
        m4 = objective_curve(20.0, 60.0, 10.0, 4.0, park, "cv", m=4)
        for (_, a), (_, b) in zip(m1, m4):
            assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_grid_is_inclusive(self, park):
        curve = objective_curve(10.0, 30.0, 5.0, 4.0, park, "vmr")
        assert [d for d, _ in curve] == [10.0, 15.0, 20.0, 25.0, 30.0]

    def test_one_point_grid(self, park):
        # d_min = d_max is the grid {d_min}; past d_max it is refused
        assert objective_curve(30.0, 30.0, 5.0, 4.0, park, "vmr") == [(30.0, vmr(30.0, 4.0, park))]
        report = optimize_cordon(50.0, 4.0, park, "cv", step=50.0)
        assert report.curve == ((50.0, precision_report(1, 50.0, 4.0, park).cv),)
        refused = re.escape("need 0 < d_min <= d_max < inf, got (30.0, 29.0)")
        with pytest.raises(ValueError, match=refused):
            objective_curve(30.0, 29.0, 1.0, 4.0, park, "vmr")

    def test_validation(self, park):
        with pytest.raises(ValueError):
            objective_curve(0.0, 10.0, 1.0, 4.0, park, "cv")
        with pytest.raises(ValueError):
            objective_curve(1.0, 10.0, 1.0, 4.0, park, "nope")
        for kind in ("cv", "vmr"):
            for m in (0, -5, 2.5, math.nan, math.inf):
                with pytest.raises(ValueError, match="m must be an integer >= 1"):
                    objective_curve(1.0, 10.0, 1.0, 4.0, park, kind, m=m)
                with pytest.raises(ValueError, match="m must be an integer >= 1"):
                    optimize_cordon(10.0, 4.0, park, kind, m=m, step=1.0)


class TestOptimize:
    def test_example4_local_optimum(self, park):
        report = optimize_cordon(150.0, 4.0, park, "cv", m=1, step=1.0)
        assert report.best_d == pytest.approx(110.0, abs=1.0)
        assert report.best_objective == pytest.approx(0.2305, abs=0.001)

    def test_degenerate_zero_at_multiples_ties_break_larger(self, narrow20):
        # spacing s0*t = 20: the objective vanishes at d = 20 and d = 40,
        # and the tie must resolve to the larger cordon
        report = optimize_cordon(50.0, 1.0, narrow20, "vmr", step=10.0)
        assert report.best_objective == pytest.approx(0.0, abs=1e-6)
        assert report.best_d == 40.0

    def test_agrees_with_fine_grid_oracle(self, park):
        report = optimize_cordon(300.0, 4.0, park, "cv", m=1, step=1.0)
        fine = optimize_cordon(300.0, 4.0, park, "cv", m=1, step=0.1)
        assert abs(report.best_d - fine.best_d) <= 1.0

    def test_best_attains_curve_minimum(self, park):
        report = optimize_cordon(80.0, 4.0, park, "cv", m=1, step=2.0)
        values = np.array([v for _, v in report.curve])
        assert report.best_objective == values.min()
        d_at_min = max(d for d, v in report.curve if v == values.min())
        assert report.best_d == d_at_min

    def test_halving_step_never_worsens(self, park):
        coarse = optimize_cordon(60.0, 4.0, park, "cv", m=1, step=4.0)
        fine = optimize_cordon(60.0, 4.0, park, "cv", m=1, step=2.0)
        assert fine.best_objective <= coarse.best_objective + 1e-9

    def test_argmin_invariance_cv_vs_vmr(self, park):
        by_cv = optimize_cordon(60.0, 4.0, park, "cv", m=1, step=2.0)
        by_vmr = optimize_cordon(60.0, 4.0, park, "vmr", step=2.0)
        assert by_cv.best_d == by_vmr.best_d

    def test_validation(self, park):
        with pytest.raises(ValueError):
            optimize_cordon(1.0, 4.0, park, "cv", step=2.0)


class TestCurveConsistency:
    def test_curve_values_are_vmr(self, park):
        curve = objective_curve(10.0, 20.0, 5.0, 4.0, park, "vmr")
        for d, value in curve:
            assert value == vmr(d, 4.0, park)


class TestCvCurve:
    """The cv objective is one array step over the curve's VMRs, through
    moments_report: each value and each error is precision_report's."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("m", [1, 3, 2**53 + 1, 10**300], ids=["1", "3", "2^53+1", "1e300"])
    def test_values_are_precision_reports(self, name, m):
        dist = load_distribution(name)
        curve = objective_curve(2.0, 50.0, 2.0, 2.0, dist, "cv", m)
        got = [value.hex() for _, value in curve]
        assert got == [precision_report(m, d, 2.0, dist).cv.hex() for d, _ in curve]

    @pytest.mark.parametrize("m", [10**308, 10**309, 10**400], ids=["1e308", "1e309", "1e400"])
    def test_not_finite_names_the_first_d(self, park, m):
        # 10**308 probes: m * vmr overflows from d = 5 on; past 2**1024, m is
        # no float and every d fails
        text = f"the variance for m={m} probes at d=5.0, t=1.0 is not finite"
        with pytest.raises(ValueError, match=re.escape(text)) as curve_error:
            objective_curve(5.0, 7.0, 1.0, 1.0, park, "cv", m)
        with pytest.raises(ValueError) as report_error:
            precision_report(m, 5.0, 1.0, park)
        assert str(curve_error.value) == str(report_error.value) == text

    def test_array_error_names_the_first_failing_d(self):
        # only the ratios past 1.7976931348623157 overflow at m = 10**308
        text = "the variance for m=" + "1" + "0" * 308 + " probes at d=20.0, t=1.0 is not finite"
        with pytest.raises(ValueError, match=re.escape(text)):
            moments_report(10**308, np.array([10.0, 20.0, 30.0]), 1.0, np.array([1.0, 2.0, 3.0]))
