"""Independent oracles for the variance integral and its kink set."""

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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import probevolume
from probevolume.distribution_engine import (
    MAX_VARIANCE_PIECES,
    VARIANCE_TAIL_BOUND,
    _variance_breakpoints,
    vmr,
)
from probevolume.speed_model import (
    PRESET_NAMES,
    SpeedComponent,
    SpeedDistribution,
    from_dict,
    load_distribution,
)

from conftest import random_mixture


def _chunked_breakpoints(d, t, dist):
    """The kink search as it was: the bound tested on every kink, 1024 at a time.

    It keeps the first kink that fails the bound as the last cut.
    """
    out = []
    j = int(math.floor(d / (t * dist.upper))) + 1
    while True:
        jj = np.arange(j, j + 1024, dtype=np.float64)
        s = d / (t * jj)
        bound = 0.25 * s * s * dist.cdf(s)
        stop = (s <= dist.lower) | (bound < VARIANCE_TAIL_BOUND)
        if np.any(stop):
            out.append(s[: int(np.argmax(stop)) + 1])
            break
        out.append(s)
        j += 1024
    pts = np.concatenate(out)
    pts = pts[(pts > dist.lower) & (pts < dist.upper)]
    return pts[::-1]


def _spread_mixture(k):
    """k equal components spread over 5-35 m/s, sd 3, on (0, 40]."""
    means = np.linspace(5.0, 35.0, k) if k > 1 else [20.0]
    return SpeedDistribution(
        tuple(SpeedComponent(float(mu), 3.0, 1.0 / k) for mu in means), 0.0, 40.0
    )


class TestKinkSet:
    @given(
        which=st.one_of(st.sampled_from(PRESET_NAMES), st.integers(0, 2**32 - 1)),
        d=st.floats(0.01, 3000.0),
        t=st.floats(0.1, 10.0),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_chunked_loop(self, which, d, t):
        if isinstance(which, str):
            dist = load_distribution(which)
        else:
            # random mixtures have lower > 0, the presets lower = 0
            try:
                dist = random_mixture(np.random.default_rng(which))
            except ValueError:  # a component with no mass inside the support
                assume(False)
        try:
            got = _variance_breakpoints(d, t, dist)
        except ValueError:  # over the piece cap, too many for the loop as well
            assume(False)
        want = _chunked_breakpoints(d, t, dist)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_piece_cap(self, park):
        # park's tail stop is near 0.037 m/s: d/t = 1e5 would need 2.7e6 kinks
        with pytest.raises(ValueError, match="kink pieces"):
            _variance_breakpoints(1e5, 1.0, park)
        with pytest.raises(ValueError, match="kink pieces"):
            _variance_breakpoints(1e300, 1e-300, park)
        for name in PRESET_NAMES:
            assert _variance_breakpoints(1000.0, 1.0, load_distribution(name)).size < (
                MAX_VARIANCE_PIECES
            )
            # the d/t the README documents for every preset
            _variance_breakpoints(2600.0, 1.0, load_distribution(name))

    @pytest.mark.parametrize("k", [1, 16, 64])
    def test_memory_at_cap_bounded_in_components(self, k):
        # the (nodes, components) temporaries of the mixture density: the cap
        # shrinks with k, so the largest admitted d/t peaks alike for any k
        # (a 16-component mixture used to peak near 320 MB at d/t = 2412)
        dist = _spread_mixture(k)
        lo, hi = 1.0, 1e6
        while hi - lo > 1.0:
            mid = 0.5 * (lo + hi)
            try:
                _variance_breakpoints(mid, 1.0, dist)
                lo = mid
            except ValueError:
                hi = mid
        tracemalloc.start()
        try:
            assert math.isfinite(vmr(lo, 1.0, dist))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 << 20

    def test_many_components_rejected_before_building(self):
        dist = _spread_mixture(500)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="500 components"):
            vmr(1.0, 1.0, dist)
        assert time.perf_counter() - start < 1.0


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
            if s <= lower or s * s * cdf(s) / 4 < VARIANCE_TAIL_BOUND:
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


_NEAR_DEGENERATE = ((20.0, 0.05, 0.7), (12.0, 4.0, 0.3))
# a component whose mean is 8 sd above the support: only its tail is inside
_TAIL_ONLY = ((52.0, 1.5, 0.4), (20.0, 4.0, 0.6))


class TestVmrOracle:
    # few kinks each, so that 30-digit quadrature of every piece takes seconds
    @pytest.mark.parametrize(
        "d,t,which",
        [
            (10.0, 4.0, "park-i35"),
            (14.0, 1.0, "table2-60mph"),
            (5.0, 1.0, "table2-30mph"),
            (6.0, 1.0, _NEAR_DEGENERATE),
            (10.0, 1.0, _TAIL_ONLY),
        ],
        ids=["park-i35", "table2-60mph", "table2-30mph", "near-degenerate", "tail-only"],
    )
    def test_within_tail_bound_of_mpmath(self, d, t, which):
        mp = pytest.importorskip("mpmath")
        if isinstance(which, str):
            dist = load_distribution(which)
        else:
            dist = SpeedDistribution(tuple(SpeedComponent(*c) for c in which), 0.0, 40.0)
        got = vmr(d, t, dist)
        want = _mp_oracle(mp, d, t, dist)
        # the tail piece below the stopping kink adds between 0 and the bound
        slack = 1e-12 * got
        assert -slack <= got - want <= (t / d) ** 2 * VARIANCE_TAIL_BOUND + slack


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
