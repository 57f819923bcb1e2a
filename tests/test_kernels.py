"""Kernels against independent oracles: the truncated-normal mixture
pdf/cdf, the leave-pair-out calibration sweep and single-probe band
accumulation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import norm

from probevolume import kernels, speed_model
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


def _kernel_pdf(dist, s):
    return kernels.mixture_pdf(s, dist._means, dist._sds, dist._norms, dist.lower, dist.upper)


def _kernel_cdf(dist, s):
    return kernels.mixture_cdf(
        s, dist._means, dist._sds, dist._cdf_lo, dist._cdf_w, dist.lower, dist.upper
    )


def _mixtures():
    presets = [load_distribution(name) for name in speed_model.PRESET_NAMES]
    return presets + [_mixture(k) for k in (2, 9, 50)]


_EPS = 2.0**-52


class TestMixtureKernels:
    @pytest.mark.parametrize("dist", _mixtures(), ids=lambda d: f"k{len(d.components)}")
    def test_match_per_component_oracle(self, dist):
        # oracle: each component's term from scipy.stats.norm, summed exactly;
        # the terms are nonnegative, so the kernel's k-term sum is within
        # k ulps of the total, plus a few ulps of rounding in each term (the
        # cdf's 1 + erf(z/sqrt 2) is good to an ulp of 1, not of the term)
        lower, upper = dist.lower, dist.upper
        weights = np.array([c.weight for c in dist.components])
        weights = weights / weights.sum()
        comps = [(c.mean, c.sd, w) for c, w in zip(dist.components, weights)]
        mass = [norm.cdf(upper, mu, sd) - norm.cdf(lower, mu, sd) for mu, sd, _ in comps]
        k = len(comps)
        s = np.linspace(lower, upper, 997)[1:]
        pdf_terms = np.array([w / z * norm.pdf(s, mu, sd) for (mu, sd, w), z in zip(comps, mass)])
        cdf_terms = np.array([
            w / z * (norm.cdf(s, mu, sd) - norm.cdf(lower, mu, sd))
            for (mu, sd, w), z in zip(comps, mass)
        ])
        want_pdf = np.array([math.fsum(col) for col in pdf_terms.T])
        want_cdf = np.array([math.fsum(col) for col in cdf_terms.T])
        slack = math.fsum(4.0 * _EPS * w / z for (_, _, w), z in zip(comps, mass))
        got_pdf, got_cdf = _kernel_pdf(dist, s), _kernel_cdf(dist, s)
        assert np.all(np.abs(got_pdf - want_pdf) <= (k + 8) * _EPS * want_pdf + 1e-300)
        assert np.all(np.abs(got_cdf - want_cdf) <= (k + 8) * _EPS * want_cdf + slack)

    @pytest.mark.parametrize("k", [2, 9, 50])
    def test_any_split_gives_the_same_bits(self, k):
        # the components are summed in one fixed order whatever the points
        # share the call with, so a point's value does not depend on them;
        # the whole call takes one component a step, its parts several
        dist = _mixture(k)
        rng = np.random.default_rng(k)
        s = rng.uniform(-1.0, 41.0, 2 * kernels.CHUNK_PIECES * kernels._GL8_X.size)
        whole_pdf, whole_cdf = _kernel_pdf(dist, s), _kernel_cdf(dist, s)
        for _ in range(5):
            cuts = np.sort(rng.integers(0, s.size, int(rng.integers(1, 40))))
            parts = np.split(s, cuts)
            assert np.concatenate([_kernel_pdf(dist, p) for p in parts]).tobytes() == (
                whole_pdf.tobytes()
            )
            assert np.concatenate([_kernel_cdf(dist, p) for p in parts]).tobytes() == (
                whole_cdf.tobytes()
            )
        perm = rng.permutation(s.size)
        assert _kernel_pdf(dist, s[perm]).tobytes() == whole_pdf[perm].tobytes()

    @pytest.mark.parametrize("name", ["table2-30mph", "table2-60mph"])
    def test_one_component_is_the_single_term(self, name):
        # the one term is the expression a (points, components) matrix product
        # gave before, so one-component mixtures keep every bit
        dist = load_distribution(name)
        s = np.linspace(dist.lower, dist.upper, 4001)[1:]
        (mu,), (sd,) = dist._means, dist._sds
        z = (s - mu) / sd
        want_pdf = np.exp((-0.5 * z) * z) * (dist._norms[0] * kernels._INV_SQRT_2PI)
        want_cdf = (0.5 * (1.0 + erf(z / kernels._SQRT2)) - dist._cdf_lo[0]) * (
            dist._cdf_w[0]
        )
        assert _kernel_pdf(dist, s).tobytes() == want_pdf.tobytes()
        assert _kernel_cdf(dist, s).tobytes() == want_cdf.tobytes()

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (5, 3)])
    def test_keeps_input_shape(self, shape):
        dist = load_distribution("park-i35")
        s = np.linspace(-2.0, dist.upper + 2.0, max(1, math.prod(shape))).reshape(shape)
        flat = s.ravel()
        for kernel in (_kernel_pdf, _kernel_cdf):
            got = kernel(dist, s)
            assert got.shape == shape
            assert got.ravel().tobytes() == kernel(dist, flat).tobytes()
        # a strided view is evaluated as its values
        wide = np.linspace(0.5, 30.0, 24).reshape(4, 6)
        assert _kernel_pdf(dist, wide[:, ::2]).tobytes() == (
            _kernel_pdf(dist, wide[:, ::2].copy()).tobytes()
        )

    def test_pdf_is_zero_outside_the_support(self):
        dist = _mixture(9)
        lower, upper = dist.lower, dist.upper
        s = np.array([-np.inf, -1.0, lower, np.nextafter(lower, np.inf), 20.0, upper,
                      np.nextafter(upper, np.inf), 1e300, np.inf, np.nan])
        got = _kernel_pdf(dist, s)
        inside = np.array([False, False, False, True, True, True, False, False, False, False])
        assert np.all(got[~inside] == 0.0)
        assert np.all(got[inside] > 0.0)
        assert _kernel_pdf(dist, np.full((2, 2), np.nan)).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert float(_kernel_pdf(dist, np.float64(np.inf))) == 0.0
        cdf = _kernel_cdf(dist, np.array([-np.inf, lower, upper, np.inf]))
        # clipped to the support: its ends up to the erf form's round-off
        assert cdf[0] == cdf[1] == pytest.approx(0.0, abs=1e-14)
        assert cdf[2] == cdf[3] == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @settings(max_examples=500, deadline=None)
    def test_fractional_part_by_floor_is_mod(self, r):
        # the variance weight's p = r mod 1 for r = d/(s t) > 0 is taken as
        # r - floor(r): for positive finite r that subtraction is exact
        for x in (r, np.nextafter(r, 0.0), math.nextafter(r, math.inf), float(math.floor(r)) or r):
            if not math.isfinite(x):
                continue
            x = np.array([x], dtype=np.float64)
            assert (x - np.floor(x)).tobytes() == np.mod(x, 1.0).tobytes()

    @pytest.mark.parametrize("dist", _mixtures(), ids=lambda d: f"k{len(d.components)}")
    def test_repeated_integral_same_bits(self, dist):
        # the anchor cuts are made anew on each call, from the distribution alone
        first = speed_model.integrate_weighted(dist, lambda s: s * s)
        assert speed_model.integrate_weighted(dist, lambda s: s * s).hex() == first.hex()


def reference_pass_counts(speeds, offsets, d, t):
    """Pass counting as first written, every step a new array."""
    first = speeds * offsets
    counts = 1.0 + np.floor((d - first) / (speeds * t))
    return np.where(first >= d, 0.0, counts)


class TestPassCounts:
    def _inputs(self, n, seed):
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(0.1, 45.0, n)
        offsets = rng.uniform(0.0, 4.0, n)
        # passes whose first record lands on, just past and just short of d
        speeds[:3] = 75.0
        offsets[:3] = (4.0, np.nextafter(4.0, np.inf), np.nextafter(4.0, 0.0))
        return speeds, offsets

    @pytest.mark.parametrize("d", [0.5, 40.0, 300.0])
    def test_matches_reference(self, d):
        speeds, offsets = self._inputs(100_000, seed=int(d))
        got = kernels.pass_counts(speeds, offsets, d, 4.0)
        assert np.array_equal(got, reference_pass_counts(speeds, offsets, d, 4.0))
        # no count is a negative zero where the reference writes +0.0
        assert np.array_equal(np.signbit(got), np.zeros(got.size, dtype=bool))

    def test_inputs_not_written(self):
        speeds, offsets = self._inputs(1000, seed=2)
        before = speeds.copy(), offsets.copy()
        got = kernels.pass_counts(speeds, offsets, 300.0, 4.0)
        assert np.array_equal(speeds, before[0]) and np.array_equal(offsets, before[1])
        assert not np.shares_memory(got, speeds) and not np.shares_memory(got, offsets)


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
    x[rng.random(n) < 0.1] *= -1.0  # calibration takes any finite m_hat
    y = rng.uniform(5.0, 900.0, n)
    w = rng.uniform(0.01, 60.0, n)
    kind = int(rng.integers(4))
    if kind == 1:  # beta = 0 on the pair (0, 1) by exact cancellation
        x[1], y[1], w[1] = -x[0], y[0], w[0]
    elif kind == 2 and n > 3:  # site 0 at exactly 1/beta of the pair (1, 2)
        numer = w[1] * x[1] * y[1] + w[2] * x[2] * y[2]
        denom = w[1] * x[1] * x[1] + w[2] * x[2] * x[2]
        if denom > 0.0 and numer != 0.0:
            x[0], y[0] = 1.0 / (numer / denom), 1.0
    elif kind == 3:  # identical rows: sites 0 and 1 near 1/beta of the pair (1, 2)
        x[:2], y[:2], w[:2] = x[2], y[2], w[2]
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

    def test_pair_array_equals_pair_list(self):
        # the experiment passes its pairs as an (n_pairs, 2) array
        rng = np.random.default_rng(9)
        x, y, w = random_case(rng)
        every = list(itertools.combinations(range(x.size), 2))
        grid = np.column_stack(np.triu_indices(x.size, k=1))
        assert kernels.all_pairs_mape(x, y, w, grid) == kernels.all_pairs_mape(x, y, w, every)

    def test_skips_degenerate_pairs(self):
        x = np.array([0.0, 0.0, 2.0, 3.0])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        w = np.ones(4)
        every = list(itertools.combinations(range(4), 2))
        got = kernels.all_pairs_mape(x, y, w, every)
        assert np.isfinite(got)
        assert got == pytest.approx(loop_mape(x, y, w, every), rel=1e-12)

    def test_no_usable_pair_is_nan(self):
        x = np.array([0.0, 0.0, 2.0])
        y = np.array([10.0, 20.0, 30.0])
        w = np.ones(3)
        assert math.isnan(kernels.all_pairs_mape(x, y, w, [(0, 1)]))
        assert math.isnan(kernels.all_pairs_mape(x, y, w, []))

    @pytest.mark.parametrize(
        "x,y,w",
        [
            ([2.0, -2.0, 1.0, 3.0], [10.0, 10.0, 20.0, 30.0], [1.0] * 4),
            # each w * m_hat * y underflows to -0.0 while w * m_hat^2 stays positive
            ([-1e-160, -1e-160, 1.0, 3.0], [1e-200, 1e-200, 20.0, 30.0], [1e10, 1e10, 1.0, 1.0]),
        ],
        ids=["plus-zero", "minus-zero"],
    )
    def test_zero_beta_scores_every_site_one(self, x, y, w):
        # 1/beta is +inf or -inf; either way every held-out term is |0 - 1| = 1
        x, y, w = np.array(x), np.array(y), np.array(w)
        assert kernels.all_pairs_mape(x, y, w, [(0, 1)]) == 1.0
        assert loop_mape(x, y, w, [(0, 1)]) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 51])
    def test_block_rows_are_the_one_trial_calls(self, k):
        # a block of k trials, sites by trials, gives each trial's bits
        rng = np.random.default_rng(10 + k)
        for n in (3, 4, 34):
            x = rng.uniform(0.5, 120.0, (n, k))
            x[rng.random((n, k)) < 0.1] = 0.0
            x[rng.random((n, k)) < 0.1] *= -1.0
            if k > 1:
                x[:, 1] = 0.0  # a trial whose every pair is unusable
            y = rng.uniform(5.0, 900.0, n)
            w = rng.uniform(0.01, 60.0, n)
            every = list(itertools.combinations(range(n), 2))
            some = [every[p] for p in rng.permutation(len(every))[: len(every) // 2]]
            consecutive = [(i, i + 1) for i in range(n - 1)]
            for pairs in (consecutive, every, some, []):
                got = kernels.all_pairs_mape(x, y, w, pairs)
                want = [kernels.all_pairs_mape(x[:, r], y, w, pairs) for r in range(k)]
                assert got.shape == (k,)
                assert np.array_equal(got, want, equal_nan=True)
                assert k == 1 or math.isnan(got[1])
            assert math.isnan(kernels.all_pairs_mape(np.zeros((n, 1)), y, w, every)[0])


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
        # band-by-band loop does: the same zero atom, cell sums to round-off
        dist = _mixture(9) if preset == "mixture-9" else load_distribution(preset)
        for d, t in ((300.0, 4.0), (40.0, 1.0), (90.1, 2.0), (30.0, 4.0), (5.0, 4.0), (2.0, 1.0)):
            n_cells = int(math.ceil(max(2.0, dist.upper * t / d * (1.0 + step)) / step)) + 1
            u_max = int(math.ceil(2.0 / step))
            got, got_atom = kernels.band_masses(
                dist._means, dist._sds, dist._norms, dist._cdf_lo, dist._cdf_w,
                dist.lower, dist.upper, d, t, step, n_cells, u_max,
            )
            want, want_atom = loop_band_masses(dist, d, t, step, n_cells, u_max)
            assert got_atom == want_atom
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("preset", ["park-i35", "table2-30mph", "table2-60mph", "mixture-9"])
    def test_atom_independent_of_chunk(self, preset, monkeypatch):
        # each point's mixture value is summed over the components in one
        # order, so the zero atom is the same bits however the pieces are
        # chunked (the cells' per-chunk bincount sums may still differ)
        dist = _mixture(9) if preset == "mixture-9" else load_distribution(preset)
        step = 1e-2
        for d, t in ((5.0, 4.0), (2.0, 1.0), (90.1, 2.0)):
            n_cells = int(math.ceil(max(2.0, dist.upper * t / d * (1.0 + step)) / step)) + 1
            u_max = int(math.ceil(2.0 / step))
            atoms = set()
            for chunk in (100, 808, 1820, 4096, 8192):
                monkeypatch.setattr(kernels, "CHUNK_PIECES", chunk)
                _, atom = kernels.band_masses(
                    dist._means, dist._sds, dist._norms, dist._cdf_lo, dist._cdf_w,
                    dist.lower, dist.upper, d, t, step, n_cells, u_max,
                )
                atoms.add(atom.hex())
            assert len(atoms) == 1, (d, t, atoms)

    def test_gl8_nodes_are_c_contiguous_rows(self):
        # band_masses sums each piece's values with a matrix-vector product
        # whose summation order follows its operand's layout: nodes in another
        # layout move the density's last bits
        lo = np.linspace(0.0, 3.0, 7)
        nodes, half, mid = kernels._gl8_nodes(lo, lo + 0.5)
        assert nodes.shape == (7, 8)
        assert nodes.flags.c_contiguous
        np.testing.assert_array_equal(nodes[:, 0], mid + half * kernels._GL8_X[0])

    def test_memory_bounded_in_components(self):
        # the mixture is evaluated one component at a time, so 500 components
        # need no more than one: (pieces, 8 nodes, components) temporaries
        # traced 377 MB at 4096 pieces a chunk, about 2.5 MB now
        dist = _mixture(500)
        tracemalloc.start()
        try:
            pdf = single_probe_pdf(300.0, 4.0, dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert abs(pdf.densities.sum() * pdf.grid_step + pdf.atom_at_zero - 1.0) < 1e-12
