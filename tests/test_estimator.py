import math
import random

import numpy as np
import pytest

from probevolume.estimator import (
    VolumeEstimate,
    bernoulli_var_term,
    estimate_probe_volume,
    extra_record_prob,
    min_records,
)
from probevolume.footprint_data import CordonSample


def _sample(speeds, d=100.0, t=1.0):
    return CordonSample(speeds=tuple(speeds), d=d, t=t)


class TestEstimate:
    def test_two_probe_example(self):
        # five records at 20 m/s plus three at 30 m/s, d=100, t=1
        est = estimate_probe_volume(_sample([20.0] * 5 + [30.0] * 3))
        assert est.m_hat == pytest.approx(1.9, abs=1e-12)
        assert est.n == 8

    def test_single_probe_example(self):
        est = estimate_probe_volume(_sample([30.0] * 3))
        assert est.m_hat == pytest.approx(0.9, abs=1e-12)

    def test_empty(self):
        est = estimate_probe_volume(_sample([]))
        assert est == VolumeEstimate(m_hat=0.0, n=0, d=100.0, t=1.0)

    def test_order_independent_bitwise(self):
        rng = random.Random(5)
        speeds = [rng.uniform(0.5, 40.0) for _ in range(10_000)]
        a = estimate_probe_volume(_sample(speeds)).m_hat
        rng.shuffle(speeds)
        b = estimate_probe_volume(_sample(speeds)).m_hat
        assert a == b  # fsum is exact, so any ordering gives identical bits


class TestMinRecords:
    def test_worked_example(self):
        assert min_records(30.0, 100.0, 1.0) == 3

    def test_hand_values(self):
        assert min_records(40.0, 300.0, 4.0) == 1  # floor(300/160)
        assert min_records(100.0, 100.0, 1.0) == 1
        assert min_records(100.0001, 100.0, 1.0) == 0

    def test_rejects_nonpositive(self):
        for s, d, t in [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                min_records(s, d, t)
            with pytest.raises(ValueError):
                extra_record_prob(s, d, t)


class TestExtraRecordProb:
    def test_worked_example(self):
        assert extra_record_prob(30.0, 100.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_integer_ratio_is_exact_zero(self):
        assert extra_record_prob(20.0, 100.0, 1.0) == 0.0

    def test_hand_value(self):
        assert extra_record_prob(40.0, 300.0, 4.0) == pytest.approx(0.875, abs=1e-12)


class TestExactSplit:
    # the split is that of the double r = d/(s*t), with no snapping to a
    # nearby integer: n + p == r bit for bit, 0 <= p < 1 and n == floor(r)
    def test_near_integer_ratios(self):
        # the doubles 0.3 and 0.1 have the exact ratio 2.99999999999999972...
        assert min_records(0.1, 0.3, 1.0) == 2
        assert extra_record_prob(0.1, 0.3, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert min_records(0.1, 0.30000000000000004, 1.0) == 3
        assert extra_record_prob(0.1, 0.30000000000000004, 1.0) == pytest.approx(
            4.4e-16, rel=0.01
        )

    def test_contract(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            d, t = float(rng.uniform(0.5, 2000.0)), float(rng.uniform(0.1, 30.0))
            j = rng.integers(1, 10_000, 50).astype(np.float64)
            kinks = d / (t * j)  # speeds whose ratio is at or next to an integer
            s = np.concatenate((
                rng.uniform(0.05, 60.0, 100), kinks,
                np.nextafter(kinks, 0.0), np.nextafter(kinks, np.inf),
            ))
            r = d / (s * t)
            n, p = min_records(s, d, t), extra_record_prob(s, d, t)
            assert np.array_equal(n + p, r)
            assert np.array_equal(n, np.floor(r))
            assert np.all((0.0 <= p) & (p < 1.0))

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        s = np.concatenate((rng.uniform(0.05, 60.0, 300), 300.0 / (4.0 * np.arange(1.0, 40.0))))
        for fn, kind in ((min_records, int), (extra_record_prob, float),
                         (bernoulli_var_term, float)):
            scalars = [fn(float(x), 300.0, 4.0) for x in s]
            assert all(type(x) is kind for x in scalars)
            assert np.array_equal(fn(s, 300.0, 4.0), np.array(scalars, dtype=np.float64))

    def test_var_term_is_the_reference_weight(self):
        # the variance weight as the integrand wrote it before it became
        # bernoulli_var_term, kept as the reference
        def b_weight(s, d, t):
            r = d / (s * t)
            p = r - np.floor(r)
            return s * s * p * (1.0 - p)

        nodes = np.linspace(1e-3, 40.0, 20_001)
        for d, t in ((300.0, 4.0), (40.0, 1.0), (0.3, 0.1), (7.3, 2.9)):
            assert np.array_equal(bernoulli_var_term(nodes, d, t), b_weight(nodes, d, t))

    @pytest.mark.parametrize(
        "s,d,t",
        [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
         (1.0, 1.0, math.nan), (1e-300, 1e300, 1.0), ([1.0, -1.0], 1.0, 1.0)],
    )
    def test_rejects_non_finite(self, s, d, t):
        for fn in (min_records, extra_record_prob, bernoulli_var_term):
            with pytest.raises(ValueError):
                fn(s, d, t)


class TestUnbiasednessIdentity:
    def test_spot_values(self):
        for s, d, t in [(30.0, 100.0, 1.0), (7.3, 211.0, 4.0), (39.9, 40.0, 1.0)]:
            lhs = (s * t / d) * (min_records(s, d, t) + extra_record_prob(s, d, t))
            assert lhs == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = random.Random(17)
        for _ in range(200):
            s = rng.uniform(0.2, 45.0)
            d = rng.uniform(1.0, 500.0)
            t = rng.uniform(0.5, 10.0)
            c = rng.uniform(0.1, 10.0)
            # same d/(s*t) ratio: scale d and t together, or d and s together
            assert min_records(s, c * d, c * t) == min_records(s, d, t)
            assert extra_record_prob(s, c * d, c * t) == pytest.approx(
                extra_record_prob(s, d, t), abs=1e-9
            )
            assert min_records(c * s, c * d, t) == min_records(s, d, t)
