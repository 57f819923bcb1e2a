"""Oracles for the variance integral: every kink resolved, and mpmath."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import probevolume
from probevolume import kernels
from probevolume.distribution_engine import vmr
from probevolume.speed_model import (
    PRESET_NAMES,
    SpeedComponent,
    SpeedDistribution,
    from_dict,
    load_distribution,
)

from conftest import kink_sum_vmr, random_mixture


def _spread_mixture(k):
    """k equal components spread over 5-35 m/s, sd 3, on (0, 40]."""
    means = np.linspace(5.0, 35.0, k) if k > 1 else [20.0]
    return SpeedDistribution(
        tuple(SpeedComponent(float(mu), 3.0, 1.0 / k) for mu in means), 0.0, 40.0
    )


_NEAR_DEGENERATE = ((20.0, 0.05, 0.7), (12.0, 4.0, 0.3))
# a component whose mean is 8 sd above the support: only its tail is inside
_TAIL_ONLY = ((52.0, 1.5, 0.4), (20.0, 4.0, 0.6))


def _on_0_40(components):
    return SpeedDistribution(tuple(SpeedComponent(*c) for c in components), 0.0, 40.0)


class TestKinkSum:
    # the Euler-Maclaurin sum below the kink J against every kink resolved,
    # to a tail under 1e-15 of the integral
    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name, t):
        dist = load_distribution(name)
        for ratio in (0.25, 0.7, 3.3, 10.0, 37.5, 123.4, 400.0, 1000.0):
            d = ratio * t
            assert vmr(d, t, dist) == pytest.approx(kink_sum_vmr(d, t, dist), rel=1e-14)

    def test_random_mixtures_above_zero(self):
        # lower > 0: the lattice ends at J_e = floor(d/(t*lower)), with end
        # terms there, and the partial unit below R/J_e keeps the exact kernel
        for seed in range(40):
            dist = random_mixture(np.random.default_rng(seed))
            assert dist.lower > 0.0
            for ratio in (0.5, 3.3, 47.0, 300.0):
                want = kink_sum_vmr(ratio, 1.0, dist)
                assert vmr(ratio, 1.0, dist) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("which", [_NEAR_DEGENERATE, _TAIL_ONLY],
                             ids=["near-degenerate", "tail-only"])
    def test_near_degenerate_and_tail_only(self, which):
        dist = _on_0_40(which)
        for ratio in (0.5, 6.0, 10.0, 47.0, 300.0, 1000.0):
            want = kink_sum_vmr(ratio, 1.0, dist)
            assert vmr(ratio, 1.0, dist) == pytest.approx(want, rel=1e-14)

    def test_support_top_past_the_density(self):
        # s*s overflows past 1.3e154, but the density is 0 past 40 sd above
        # the mean, where the top quadrature piece ends
        config = {"components": [{"mean": 20, "sd": 5, "weight": 1}], "lower": 0}
        wide, tight = from_dict({**config, "upper": 1e200}), from_dict({**config, "upper": 1e3})
        for d, t in ((300.0, 4.0), (50.0, 1.0), (7.0, 2.0), (2e5, 1.0)):
            assert vmr(d, t, wide) == pytest.approx(vmr(d, t, tight), rel=1e-15)


# A reference that shares no code with integrate_weighted or kernels: its own
# truncated-normal density (math.erfc), a 16-node Gauss-Legendre rule on every
# piece between consecutive kinks d/(t j), j up to _GL16_J, and cuts every half
# sd out to 8 sd of each component. Below d/(t _GL16_J) the kernel is its cycle
# mean s^2/6, which is off there by about s^5 g / (90 R^2), under 1e-15 of the
# integral on these cases; a 32-node rule with j up to 16384 moves the
# reference by under 1e-15.
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL16_J = 4096


def _gl16_vmr(d, t, dist):
    R = d / t
    lower, upper = dist.lower, dist.upper
    mus, sds, ws = (np.array(col) for col in zip(*(
        (c.mean, c.sd, c.weight) for c in dist.components)))
    mass = [0.5 * (math.erfc((lower - mu) / (sd * math.sqrt(2.0)))
                   - math.erfc((upper - mu) / (sd * math.sqrt(2.0))))
            for mu, sd in zip(mus, sds)]
    coef = ws / ws.sum() / (sds * np.array(mass) * math.sqrt(2.0 * math.pi))
    smooth_top = R / _GL16_J
    kinks = R / np.arange(math.floor(R / upper) + 1, _GL16_J + 1)
    cuts = (mus[:, None] + 0.5 * sds[:, None] * np.arange(-16, 17)).ravel()
    edges = np.unique(np.concatenate(([lower, upper, smooth_top], kinks, cuts)))
    edges = edges[(edges >= lower) & (edges <= upper)]
    a, b = edges[:-1], edges[1:]
    s = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GL16_X
    g = sum(c * np.exp(-0.5 * ((s - mu) / sd) ** 2) for mu, sd, c in zip(mus, sds, coef))
    r = R / s
    p = r - np.floor(r)
    kernel = np.where(s < smooth_top, s * s / 6.0, s * s * p * (1.0 - p))
    return np.sum((0.5 * (b - a))[:, None] * _GL16_W * kernel * g) / (R * R)


class TestIndependentReference:
    # measured worst relative error: 2.45e-14 on the presets (table2-60mph,
    # t = 4, d/t = 123.4), 1.88e-14 on the random mixtures (seed 5, d/t = 0.7)
    # and 3.41e-14 on the near-degenerate mixture (d/t = 400), from the 8-node
    # rule's 2-sd anchor spacing between 4 and 8 sd. Each tolerance is its worst
    # case plus 1e-14, about 45 ulps: another libm exp or summation order moves
    # either side by a few ulps (under 1e-15), which cannot cross it. ROADMAP
    # item 7's cuts at +-5 and +-7 sd are to tighten all three to 2e-15.
    RATIOS = (0.7, 10.0, 37.5, 123.4, 400.0)

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name, t):
        dist = load_distribution(name)
        for ratio in self.RATIOS:
            d = ratio * t
            assert vmr(d, t, dist) == pytest.approx(_gl16_vmr(d, t, dist), rel=3.5e-14)

    def test_random_mixtures_above_zero(self):
        for seed in range(6):
            dist = random_mixture(np.random.default_rng(seed))
            assert dist.lower > 0.0
            for ratio in self.RATIOS:
                want = _gl16_vmr(ratio, 1.0, dist)
                assert vmr(ratio, 1.0, dist) == pytest.approx(want, rel=3.5e-14)

    def test_near_degenerate(self):
        dist = _on_0_40(_NEAR_DEGENERATE)
        for ratio in self.RATIOS:
            want = _gl16_vmr(ratio, 1.0, dist)
            assert vmr(ratio, 1.0, dist) == pytest.approx(want, rel=4.5e-14)


class TestBatch:
    def test_array_equals_scalar_across_chunks(self, monkeypatch, park, m60):
        # about 120 pieces each on park-i35: chunks of a few d each. On
        # table2-60mph d/t = 1000 doubles J once; on the random mixture the
        # lattice ends above lower
        monkeypatch.setattr(kernels, "CHUNK_PIECES", 500)
        lifted = random_mixture(np.random.default_rng(1))
        for dist in (park, m60, lifted):
            ds = np.concatenate((np.linspace(0.5, 400.0, 61), [1000.0, 3.0]))
            got = vmr(ds, 1.0, dist)
            assert isinstance(got, np.ndarray) and got.shape == ds.shape
            want = [vmr(d, 1.0, dist) for d in ds.tolist()]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    def test_array_checked_before_any_is_integrated(self, park):
        with pytest.raises(ValueError, match="positive and finite"):
            vmr(np.array([300.0, -1.0]), 4.0, park)
        with pytest.raises(ValueError, match="not finite"):
            vmr(np.array([300.0, 5e-324]), 1.0, park)
        with pytest.raises(ValueError, match="1-D"):
            vmr(np.ones((2, 2)), 1.0, park)
        assert vmr(np.array([]), 1.0, park).shape == (0,)


class TestKinkSet:
    def test_piece_cap(self, park, narrow20):
        # sd 1e-6: J is the kink 40 sd below the mean, near d/(20 t), so the
        # kinks from d/(40 t) on pass the cap from d/t near 4e6
        assert math.isfinite(vmr(3e6, 1.0, narrow20))
        with pytest.raises(ValueError, match="kink pieces"):
            vmr(1e7, 1.0, narrow20)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            vmr(1e300, 1e-300, park)

    @pytest.mark.parametrize("k", [1, 16, 64])
    def test_memory_bounded_by_chunks(self, k):
        # a batch of 100 chunks is integrated a chunk at a time, and the
        # mixture one component at a time: the peak is alike for any k and
        # batch size
        dist = _spread_mixture(k)
        ds = np.linspace(1.0, 300.0, 100 * kernels.CHUNK_PIECES // (21 * k + 40))
        tracemalloc.start()
        try:
            assert np.all(np.isfinite(vmr(ds, 1.0, dist)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_many_components_rejected_before_building(self):
        dist = _spread_mixture(500)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="500 components"):
            vmr(1.0, 1.0, dist)
        assert time.perf_counter() - start < 1.0


# the mpmath oracle's own stopping bound on the tail it leaves out
_MP_TAIL_BOUND = 1e-8


def _mp_oracle(mp, d, t, dist):
    """(t/d)^2 times the variance integral over every kink piece above the stop.

    Each piece between kinks s = d/(t*(j+1)) and d/(t*j) integrates the
    quadratic (d/t - j*s)*((j+1)*s - d/t) times the mixture density at 30
    digits. The stopping kink is found here too, with the mixture CDF in
    mpmath. The piece below it is the tail the bound covers.
    """
    with mp.workdps(30):
        lower, upper = mp.mpf(dist.lower), mp.mpf(dist.upper)
        total = mp.fsum(mp.mpf(c.weight) for c in dist.components)
        comps = []
        for c in dist.components:
            mu, sd = mp.mpf(c.mean), mp.mpf(c.sd)
            lo = mp.ncdf((lower - mu) / sd)
            k = mp.mpf(c.weight) / (total * (mp.ncdf((upper - mu) / sd) - lo))
            comps.append((mu, sd, k, lo))

        def pdf(s):
            return mp.fsum(k * mp.npdf(s, mu, sd) for mu, sd, k, _ in comps)

        def cdf(s):
            return mp.fsum(k * (mp.ncdf((s - mu) / sd) - lo) for mu, sd, k, lo in comps)

        r = mp.mpf(d) / mp.mpf(t)
        j = int(mp.floor(r / upper))
        edges = [upper]
        while True:
            j += 1
            s = r / j
            edges.append(max(s, lower))
            if s <= lower or s * s * cdf(s) / 4 < _MP_TAIL_BOUND:
                break
        # extra cuts every sd around each mean keep each Gauss-Legendre piece smooth
        cuts = sorted({mu + sd * k for mu, sd, _, _ in comps for k in range(-8, 9)})
        pieces = []
        for j, (hi, lo) in enumerate(zip(edges[:-1], edges[1:]), start=int(mp.floor(r / upper))):
            if lo < hi:
                pts = [lo, *(c for c in cuts if lo < c < hi), hi]
                f = lambda s, j=j: (r - j * s) * ((j + 1) * s - r) * pdf(s)  # noqa: E731
                pieces.append(mp.quad(f, pts, method="gauss-legendre"))
        return float(mp.fsum(pieces) / (r * r))


class TestVmrOracle:
    # few kinks each but the last two, so that 30-digit quadrature of every
    # piece takes seconds
    @pytest.mark.parametrize(
        "d,t,which",
        [
            (10.0, 4.0, "park-i35"),
            (14.0, 1.0, "table2-60mph"),
            (5.0, 1.0, "table2-30mph"),
            (6.0, 1.0, _NEAR_DEGENERATE),
            (10.0, 1.0, _TAIL_ONLY),
            # the old tail stop left 3e-11 of the integral out here (570
            # kink pieces: about 20 s)
            (400.0, 1.0, "table2-30mph"),
        ],
        ids=["park-i35", "table2-60mph", "table2-30mph", "near-degenerate", "tail-only",
             "table2-30mph-400"],
    )
    def test_within_tail_bound_of_mpmath(self, d, t, which):
        mp = pytest.importorskip("mpmath")
        if isinstance(which, str):
            dist = load_distribution(which)
        else:
            dist = _on_0_40(which)
        got = vmr(d, t, dist)
        want = _mp_oracle(mp, d, t, dist)
        # the tail piece below the stopping kink adds between 0 and the bound
        slack = 1e-12 * got
        assert -slack <= got - want <= (t / d) ** 2 * _MP_TAIL_BOUND + slack


_ISOLATED = """
import json, sys
from probevolume.distribution_engine import vmr
from probevolume.speed_model import from_dict
config, cases = json.loads(sys.argv[1])
dist = from_dict(config)
print(json.dumps([vmr(d, t, dist).hex() for d, t in cases]))
"""


class TestFreshDistributions:
    def test_interleaved_equal_isolated_processes(self):
        # a distribution is built per request, so a new one often takes the
        # address, and the id(), of one just freed; its vmr must not change
        presets = resources.files("probevolume.presets")
        configs = [json.loads(presets.joinpath(name).read_text(encoding="utf-8"))
                   for name in ("park_i35.json", "table2_60mph.json")]
        cases = [(50.0, 2.0), (14.0, 1.0), (300.0, 4.0)]
        got = [[] for _ in configs]
        for _ in range(4):
            for i, config in enumerate(configs):
                dist = from_dict(config)
                got[i].append([vmr(d, t, dist).hex() for d, t in cases])
                del dist
        src = str(Path(probevolume.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for i, config in enumerate(configs):
            run = subprocess.run(
                [sys.executable, "-c", _ISOLATED, json.dumps([config, cases])],
                capture_output=True, text=True, env=env, check=True,
            )
            want = json.loads(run.stdout)
            assert all(values == want for values in got[i])
