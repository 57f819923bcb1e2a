"""Kernels against loop oracles: the leave-pair-out calibration sweep and
single-probe band accumulation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from probevolume import kernels
from probevolume.distribution_engine import single_probe_pdf
from probevolume.speed_model import SpeedComponent, SpeedDistribution, load_distribution


def _mixture(k, seed=5):
    """k equally weighted components spread over the support (0, 40]."""
    rng = np.random.default_rng(seed)
    comps = tuple(
        SpeedComponent(float(mu), float(sd), 1.0 / k)
        for mu, sd in zip(rng.uniform(2.0, 38.0, k), rng.uniform(0.5, 5.0, k))
    )
    return SpeedDistribution(comps, 0.0, 40.0)


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


def loop_band_masses(dist, d, t, step, n_cells, u_max):
    """Reference accumulation: one speed band at a time, each cut on its own."""
    mu, sd, lower, upper = dist._means, dist._sds, dist.lower, dist.upper

    def cdf(s):
        return kernels.mixture_cdf(s, mu, sd, dist._cdf_lo, dist._cdf_w, lower, upper)

    masses = np.zeros(n_cells)
    atom = 0.0
    for u in range(u_max + 1):
        s_hi = upper if u == 0 else min(upper, d / (t * u))
        s_lo = max(lower, d / (t * (u + 1)))
        if s_hi <= s_lo:
            continue
        edges = [s_lo, s_hi]
        for v in (u, u + 1):
            if v == 0:
                continue
            slope = t * v / d
            for i in range(
                int(math.floor(s_lo * slope / step + 0.5)),
                int(math.floor(s_hi * slope / step + 0.5)) + 1,
            ):
                se = (i + 0.5) * step / slope
                if s_lo < se < s_hi:
                    edges.append(se)
        edges = np.unique(np.asarray(edges))
        a, b = edges[:-1], edges[1:]
        delta = np.diff(cdf(edges))
        nodes = 0.5 * (a[:, None] + b[:, None]) + 0.5 * (b - a)[:, None] * kernels._GL8_X
        gv = kernels.mixture_pdf(nodes.ravel(), mu, sd, dist._norms, lower, upper)
        gv = gv.reshape(nodes.shape)
        g_int = gv @ kernels._GL8_W
        gp_int = (gv * (d / (nodes * t) - u)) @ kernels._GL8_W
        mid = 0.5 * (a + b)
        p_bar = np.where(
            g_int > 0.0,
            np.clip(gp_int / np.where(g_int > 0.0, g_int, 1.0), 0.0, 1.0),
            d / (mid * t) - u,
        )
        band = np.zeros(n_cells)
        idx_k1 = np.floor(mid * t * (u + 1) / d / step + 0.5).astype(np.int64)
        np.add.at(band, np.clip(idx_k1, 0, n_cells - 1), delta * p_bar)
        if u == 0:
            atom = float(np.sum(delta * (1.0 - p_bar)))
        else:
            idx_k0 = np.floor(mid * t * u / d / step + 0.5).astype(np.int64)
            np.add.at(band, np.clip(idx_k0, 0, n_cells - 1), delta * (1.0 - p_bar))
        masses += band
    s_tail = d / (t * (u_max + 1))
    if s_tail > lower:
        lump = float(cdf(np.asarray([s_tail]))[0])
        if lump > 0.0:
            delta_m = 1.0 / (u_max + 1)
            masses[int(math.floor((1.0 - 0.5 * delta_m) / step + 0.5))] += 0.5 * lump
            masses[int(math.floor((1.0 + 0.5 * delta_m) / step + 0.5))] += 0.5 * lump
    return masses, atom


class TestBandMasses:
    @pytest.mark.parametrize("preset", ["park-i35", "table2-30mph", "table2-60mph", "mixture-9"])
    @pytest.mark.parametrize("step", [1e-2, 5e-3])
    def test_matches_loop_oracle(self, preset, step):
        # one partition of the speed axis must cut and weigh every piece as the
        # band-by-band loop does: the same zero atom, cell sums to round-off;
        # over 4 components the pieces go in smaller chunks
        dist = _mixture(9) if preset == "mixture-9" else load_distribution(preset)
        for d, t in ((300.0, 4.0), (40.0, 1.0), (90.1, 2.0), (30.0, 4.0), (5.0, 4.0), (2.0, 1.0)):
            n_cells = int(math.ceil(max(2.0, dist.upper * t / d * (1.0 + step)) / step)) + 1
            u_max = int(math.ceil(2.0 / step))
            got, got_atom = kernels.band_masses(
                dist._means, dist._sds, dist._norms, dist._cdf_lo, dist._cdf_w,
                dist.lower, dist.upper, d, t, step, n_cells, u_max,
            )
            want, want_atom = loop_band_masses(dist, d, t, step, n_cells, u_max)
            if len(dist.components) > 4:
                # BLAS sums a row of over 4 components in an order set by the
                # row's place in the matrix, so a chunk moves the atom by an ulp
                assert got_atom == pytest.approx(want_atom, rel=1e-15, abs=0.0)
            else:
                assert got_atom == want_atom
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_memory_bounded_in_components(self):
        # the (pieces, 8 nodes, components) temporaries shrink with the chunk:
        # 500 components traced 377 MB at 4096 pieces a chunk, 3.8 MB now
        dist = _mixture(500)
        tracemalloc.start()
        try:
            pdf = single_probe_pdf(300.0, 4.0, dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert abs(pdf.densities.sum() * pdf.grid_step + pdf.atom_at_zero - 1.0) < 1e-12
