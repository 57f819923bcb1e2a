"""The leave-pair-out calibration sweep against a per-pair loop oracle."""

import itertools
import math

import numpy as np
import pytest

from probevolume import kernels


def loop_mape(m_hats, volumes, weights, pairs):
    """Reference sweep: one through-origin fit and held-out MAPE per pair."""
    n = m_hats.size
    total = 0.0
    used = 0
    for i, j in pairs:
        denom = weights[i] * m_hats[i] ** 2 + weights[j] * m_hats[j] ** 2
        if denom <= 0.0:
            continue
        beta = (
            weights[i] * m_hats[i] * volumes[i] + weights[j] * m_hats[j] * volumes[j]
        ) / denom
        err = sum(
            abs(beta * m_hats[k] - volumes[k]) / volumes[k]
            for k in range(n)
            if k != i and k != j
        )
        total += err / (n - 2)
        used += 1
    return total / used if used else math.nan


def random_case(rng):
    n = int(rng.integers(3, 40))
    x = rng.uniform(0.5, 120.0, n)
    x[rng.random(n) < 0.1] = 0.0  # some sites with no records
    y = rng.uniform(5.0, 900.0, n)
    w = rng.uniform(0.01, 60.0, n)
    return x, y, w


class TestAllPairsMape:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x, y, w = random_case(rng)
            n = x.size
            consecutive = [(i, i + 1) for i in range(n - 1)]
            every = list(itertools.combinations(range(n), 2))
            k = int(rng.integers(0, len(every) + 1))
            some = [every[p] for p in rng.permutation(len(every))[:k]]
            for pairs in (consecutive, every, some):
                want = loop_mape(x, y, w, pairs)
                got = kernels.all_pairs_mape(x, y, w, pairs)
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(want, rel=1e-12)

    def test_default_is_every_pair(self):
        rng = np.random.default_rng(9)
        x, y, w = random_case(rng)
        every = list(itertools.combinations(range(x.size), 2))
        assert kernels.all_pairs_mape(x, y, w) == kernels.all_pairs_mape(x, y, w, every)

    def test_skips_degenerate_pairs(self):
        x = np.array([0.0, 0.0, 2.0, 3.0])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        w = np.ones(4)
        got = kernels.all_pairs_mape(x, y, w)
        assert np.isfinite(got)
        assert got == pytest.approx(loop_mape(x, y, w, itertools.combinations(range(4), 2)),
                                    rel=1e-12)

    def test_no_usable_pair_is_nan(self):
        x = np.array([0.0, 0.0, 2.0])
        y = np.array([10.0, 20.0, 30.0])
        w = np.ones(3)
        assert math.isnan(kernels.all_pairs_mape(x, y, w, [(0, 1)]))
        assert math.isnan(kernels.all_pairs_mape(x, y, w, []))
