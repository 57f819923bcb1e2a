import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy.special import ndtri

from probevolume.distribution_engine import vmr
from probevolume.speed_model import (
    PRESET_NAMES,
    SpeedComponent,
    SpeedDistribution,
    from_dict,
    integrate_weighted,
    load_distribution,
    sample_with_rng,
)

from conftest import config_doc, random_mixture


def _psi_oracle(x, mu, sd, lo, hi):
    """Truncated normal density via the stdlib erf, independent of scipy."""
    if not (lo < x <= hi):
        return 0.0
    phi = math.exp(-0.5 * ((x - mu) / sd) ** 2) / math.sqrt(2.0 * math.pi)
    big_phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return phi / (sd * (big_phi((hi - mu) / sd) - big_phi((lo - mu) / sd)))


def _mixture_oracle(dist, x):
    return sum(
        w * _psi_oracle(x, c.mean, c.sd, dist.lower, dist.upper)
        for w, c in zip(dist._weights, dist.components)
    )


def _trunc_mean_oracle(mu, sd, lo, hi):
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    big_phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return mu + sd * (phi(a) - phi(b)) / (big_phi(b) - big_phi(a))


class TestEvalPdf:
    def test_outside_support_is_zero(self, park):
        assert park.pdf(50.0) == 0.0
        assert park.pdf(0.0) == 0.0  # support is half-open (0, 40]
        assert park.pdf(-3.0) == 0.0
        assert park.pdf(40.0) > 0.0

    def test_single_component_center(self):
        dist = SpeedDistribution((SpeedComponent(20.0, 1.0, 1.0),), 0.0, 40.0)
        # truncation correction is ~1, so the peak is phi(0)/sigma
        assert dist.pdf(20.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-9
        )

    def test_park_peak_against_erf_oracle(self, park):
        want = _mixture_oracle(park, 27.042)
        assert park.pdf(27.042) == pytest.approx(want, rel=1e-13)

    def test_vectorized_matches_oracle(self, park):
        s = np.linspace(0.5, 39.5, 23)
        got = park.pdf(s)
        want = [_mixture_oracle(park, float(x)) for x in s]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_nonnegative_everywhere(self, park):
        s = np.linspace(-5.0, 45.0, 5001)
        assert np.all(park.pdf(s) >= 0.0)

    @pytest.mark.parametrize("method", ["pdf", "cdf"])
    @pytest.mark.parametrize("x", [20.0, 50.0, -1.0])
    def test_keeps_the_input_shape(self, park, method, x):
        # a float for a 0-d input, as vmr and min_records return; an array
        # of the input's shape otherwise
        f = getattr(park, method)
        want = f(np.array([x]))[0]
        for s in (x, np.float64(x), np.array(x)):
            got = f(s)
            assert type(got) is float and got == want
        assert f([x]).shape == (1,) and f([x])[0] == want
        got = f(np.array([[x, 30.0], [10.0, x]]))
        assert got.shape == (2, 2) and got[0, 0] == got[1, 1] == want


def sample(dist, count, seed):
    return sample_with_rng(dist, count, np.random.default_rng(seed))


class TestSample:
    def test_empty(self, park):
        assert sample(park, 0, seed=1).size == 0

    def test_mean_matches_quadrature(self, park):
        draws = sample(park, 10**6, seed=20240501)
        quad_mean = integrate_weighted(park, lambda s: s)
        assert abs(float(np.mean(draws)) - quad_mean) < 0.05

    def test_degenerate_sd(self):
        dist = SpeedDistribution((SpeedComponent(20.0, 1e-9, 1.0),), 0.0, 40.0)
        draws = sample(dist, 100, seed=3)
        assert np.all(np.abs(draws - 20.0) < 1e-6)

    def test_support_and_determinism(self, park):
        a = sample(park, 5000, seed=11)
        b = sample(park, 5000, seed=11)
        assert np.array_equal(a, b)
        assert np.all((a > park.lower) & (a <= park.upper))
        assert not np.array_equal(a, sample(park, 5000, seed=12))

    def test_ks_distance_to_cdf(self, park):
        draws = np.sort(sample(park, 10**6, seed=7))
        n = draws.size
        cdf = park.cdf(draws)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(float(np.max(emp_hi - cdf)), float(np.max(cdf - emp_lo)))
        assert ks < 0.005


def _reference_sample_with_rng(dist, count, rng):
    """The draw as first written: a binary search for the component, clamped
    to the last one, and every step a new array."""
    if count == 0:
        return np.empty(0, dtype=np.float64)
    cum = np.cumsum(dist._weights)
    comp = np.searchsorted(cum, rng.random(count), side="right")
    comp = np.minimum(comp, len(cum) - 1)
    u = 1.0 - rng.random(count)
    q = dist._cdf_lo[comp] + u * dist._cdf_span[comp]
    s = dist._means[comp] + dist._sds[comp] * ndtri(q)
    np.minimum(s, dist.upper, out=s)
    np.maximum(s, np.nextafter(dist.lower, np.inf), out=s)
    return s


class _GivenUniforms:
    """A generator stand-in whose ``random`` calls return the given arrays,
    each call a fresh copy (the draw may overwrite what it is given)."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def random(self, size):
        out = np.array(next(self._arrays), dtype=np.float64)
        assert out.size == size
        return out


def _spread_mixture(k, seed):
    """k components with random weights, means and sds on (0, 40]."""
    rng = np.random.default_rng(seed)
    return SpeedDistribution(
        tuple(
            SpeedComponent(float(mu), float(sd), float(w))
            for mu, sd, w in zip(
                rng.uniform(1.0, 39.0, k), rng.uniform(0.3, 6.0, k), rng.dirichlet(np.ones(k))
            )
        ),
        0.0,
        40.0,
    )


def _zero_weight_mixture():
    # components 1 and 2 carry no weight: three equal cumulative weights
    return SpeedDistribution(
        (
            SpeedComponent(10.0, 2.0, 0.3),
            SpeedComponent(20.0, 2.0, 0.0),
            SpeedComponent(25.0, 2.0, 0.0),
            SpeedComponent(30.0, 3.0, 0.7),
        ),
        0.0,
        40.0,
    )


def _degenerate_mixture():
    return SpeedDistribution(
        (SpeedComponent(12.0, 1e-9, 0.4), SpeedComponent(27.0, 1e-12, 0.6)), 0.0, 40.0
    )


class TestSampleMatchesReference:
    """The in-place draw equals the binary-search draw bit for bit."""

    def _check(self, dist, count, seed):
        got = sample_with_rng(dist, count, np.random.default_rng(seed))
        want = _reference_sample_with_rng(dist, count, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("count", [1, 7, 100_003])
    def test_presets(self, name, count):
        self._check(load_distribution(name), count, seed=count)

    # both sides of the uint8 counter's limit, which sits at k = 256
    @pytest.mark.parametrize("k", [2, 3, 9, 50, 256, 257, 300, 500])
    def test_random_mixtures(self, k):
        self._check(_spread_mixture(k, seed=k), 50_000, seed=k + 1)

    def test_uint32_counter(self):
        # 65,536 inner edges count past a uint16; a wrapped counter would
        # send draws of the last component, which has half the weight, to 0
        k = 65_537
        rng = np.random.default_rng(5)
        weights = np.append(np.full(k - 1, 0.5 / (k - 1)), 0.5)
        dist = SpeedDistribution(
            tuple(SpeedComponent(float(mu), 2.0, float(w))
                  for mu, w in zip(rng.uniform(1.0, 39.0, k), weights)),
            0.0,
            40.0,
        )
        self._check(dist, 300, seed=6)

    @pytest.mark.parametrize(
        "dist", [_zero_weight_mixture(), _degenerate_mixture()], ids=["zero-weight", "degenerate"]
    )
    def test_special_mixtures(self, dist):
        self._check(dist, 50_000, seed=3)

    @pytest.mark.parametrize(
        "dist",
        [load_distribution("park-i35"), load_distribution("table2-60mph"),
         _zero_weight_mixture(), _spread_mixture(9, seed=4), _spread_mixture(300, seed=4)],
        ids=["park-i35", "table2-60mph", "zero-weight", "k9", "k300"],
    )
    def test_uniforms_on_and_just_below_cumulative_weights(self, dist):
        cum = np.cumsum(dist._weights)
        r = np.concatenate(
            (cum, np.nextafter(cum, -np.inf), [0.0, np.nextafter(1.0, 0.0), 1.0])
        )
        u = np.linspace(0.0, 1.0, r.size, endpoint=False)
        got = sample_with_rng(dist, r.size, _GivenUniforms(r, u))
        want = _reference_sample_with_rng(dist, r.size, _GivenUniforms(r, u))
        assert np.array_equal(got, want)


class TestIntegrateWeighted:
    def test_normalization(self, park, m60, m30, narrow20):
        for dist in (park, m60, m30, narrow20):
            assert integrate_weighted(dist, lambda s: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_normalization_random_mixtures(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            dist = random_mixture(rng)
            assert integrate_weighted(dist, lambda s: 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("z", [2.0, 5.0, 10.0, 20.0, 35.0])
    def test_normalization_component_mean_outside_support(self, z):
        # only the tail of the first component is inside (0, 40]: its mass
        # there lies within a few sd/z of the top
        dist = SpeedDistribution(
            (SpeedComponent(40.0 + 1.5 * z, 1.5, 0.5), SpeedComponent(20.0, 4.0, 0.5)),
            0.0,
            40.0,
        )
        assert integrate_weighted(dist, lambda s: 1.0) == pytest.approx(1.0, abs=1e-12)

    # The same component below the support: its truncation mass
    # ndtr(b) - ndtr(a) cancels (both near 1), so the density is off by
    # 7.7e-11 at 5 sd and 2.0e-5 at 7 sd; at 8 sd its draws collapse onto a
    # few values, and from 9 sd construction raises (CHANGES.md, FOUND).
    @pytest.mark.xfail(strict=True, reason="truncation mass cancels below the support")
    @pytest.mark.parametrize("z", [5.0, 7.0])
    def test_normalization_component_mean_below_support(self, z):
        dist = SpeedDistribution(
            (SpeedComponent(10.0 - 1.5 * z, 1.5, 0.5), SpeedComponent(25.0, 4.0, 0.5)),
            10.0,
            40.0,
        )
        assert integrate_weighted(dist, lambda s: 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_mean_against_component_closed_form(self, park):
        want = sum(
            w * _trunc_mean_oracle(c.mean, c.sd, park.lower, park.upper)
            for w, c in zip(park._weights, park.components)
        )
        got = integrate_weighted(park, lambda s: s)
        assert got == pytest.approx(want, rel=1e-12)

    def test_variance_kernel_area(self, park):
        # area under the Bernoulli variance kernel weighted by g, d=300 t=4
        d, t = 300.0, 4.0

        def b(s):
            p = np.mod(d / (s * t), 1.0)
            return s * s * p * (1.0 - p)

        breaks = [d / (t * j) for j in range(1, 8000)]
        got = (t * t) / (d * d) * integrate_weighted(park, b, sorted(breaks))
        assert got == pytest.approx(0.019, abs=0.001)

    def test_rejects_unsorted_breakpoints(self, park):
        with pytest.raises(ValueError):
            integrate_weighted(park, lambda s: 1.0, [3.0, 1.0])

    def test_nonfinite_weight_aborts(self, park):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                integrate_weighted(park, lambda s: 1.0 / (s - s))


class TestIntegrateWeightedBatch:
    """``sizes`` makes each integral the bits of its own call, in the cases
    where edges tie or rows are padded: a breakpoint on lower, on the
    density's top or on an anchor cut, repeated, outside the support, and
    an integral with no inner breakpoint."""

    LOWER = SpeedDistribution(
        (SpeedComponent(18.0, 4.0, 0.6), SpeedComponent(9.0, 2.5, 0.4)), 5.0, 35.0
    )
    # one component whose density term is 0 from 40 sd up: top 24 < upper 40
    TOPPED = SpeedDistribution((SpeedComponent(20.0, 0.1, 1.0),), 0.0, 40.0)

    @staticmethod
    def _weight(s):
        return s * s * np.cos(0.7 * s) + 3.0

    @pytest.mark.parametrize("which", ["park", "lower", "topped"])
    def test_ties_and_padding_equal_single_calls(self, park, which):
        dist = {"park": park, "lower": self.LOWER, "topped": self.TOPPED}[which]
        top, cuts = dist.frame.top, np.sort(dist.frame.edges[2:])
        lo, hi, mid = dist.lower, top, 0.5 * (dist.lower + top)
        groups = [
            [],  # the first row all padding
            [lo, cuts[0], cuts[-1], hi],  # on lower, anchor cuts and the top
            sorted([mid, mid, mid, cuts[1], cuts[1]]),  # repeats inside one integral
            [-7.5, lo - 1.0, hi + 0.5, dist.upper + 9.0],  # none inside
            [lo - 1.0, 0.5 * (lo + mid), hi, hi + 1.0],  # some outside, one inside
            list(np.linspace(lo, hi, 41)),  # the widest row: the others padded
            [cuts[len(cuts) // 2]],
            [],  # the last row all padding
        ]
        got = integrate_weighted(
            dist, lambda s, of: self._weight(s), np.concatenate(groups), [len(g) for g in groups]
        )
        want = [integrate_weighted(dist, self._weight, g) for g in groups]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_weight_gets_a_row_of_nodes_per_piece(self, park):
        groups = [[10.0, 20.0], [], [31.0, 35.0, 39.0]]
        shapes = []

        def weight(s, of):
            shapes.append((s.shape, of.shape))
            return np.cos(s) * (1.0 + of[:, None])

        got = integrate_weighted(park, weight, np.concatenate(groups), [2, 0, 3])
        (nodes, owners), = shapes
        assert nodes == (owners[0], 8)
        for i, g in enumerate(groups):
            want = integrate_weighted(park, lambda s: np.cos(s) * (1.0 + i), g)
            assert got[i].hex() == want.hex()

    @pytest.mark.parametrize("per_piece", [True, False])
    def test_weight_broadcasts_to_the_nodes(self, park, per_piece):
        # a column of one value per piece, or a scalar, is taken at every node
        groups = [[10.0, 20.0], [], [31.0, 35.0, 39.0]]

        def weight(s, of):
            return (1.0 + of)[:, None] if per_piece else 2.5

        got = integrate_weighted(park, weight, np.concatenate(groups), [2, 0, 3])
        for i, g in enumerate(groups):
            want = integrate_weighted(park, lambda s: 1.0 + i if per_piece else 2.5, g)
            assert got[i].hex() == want.hex()

    @pytest.mark.parametrize(
        "sizes, refused",
        [
            ([True, True], "sizes must be an integer >= 0, got True"),
            (["1", "1"], "sizes must be an integer >= 0, got 1"),
            ([1.9, 0.2], "sizes must be an integer >= 0, got 1.9"),
            ([3, -1], "sizes must be an integer >= 0, got -1"),
            (np.array([3, -1]), "sizes must be an integer >= 0, got -1"),
            ([1, 2], "sizes must sum to the number of breakpoints, 2"),
            (np.array([1, 0]), "sizes must sum to the number of breakpoints, 2"),
            ([2**70, 0], "sizes must sum to the number of breakpoints, 2"),
            # an int64 sum that wraps to the count: 4 * 2**62 + 2 is 2 modulo 2**64
            (np.array([2**62] * 4 + [2]), "sizes must sum to the number of breakpoints, 2"),
            # a uint64 sum that wraps to the count, and the other integer widths
            (np.array([2**63, 2**63, 2], dtype=np.uint64),
             "sizes must sum to the number of breakpoints, 2"),
            (np.array([3, -1], dtype=np.int8), "sizes must be an integer >= 0, got -1"),
            (np.array([[3], [-1]]), "sizes must be an integer >= 0, got -1"),
            # a bool array is no integer array: its elements are checked one by one
            (np.array([True, True]), "sizes must be an integer >= 0, got True"),
        ],
    )
    def test_sizes_refused(self, park, sizes, refused):
        with pytest.raises(ValueError, match=re.escape(refused)):
            integrate_weighted(park, lambda s, of: s, [10.0, 20.0], sizes)

    @pytest.mark.parametrize(
        "sizes",
        [
            [1.0, 1.0], (np.int64(1), np.uint8(1)), np.array([1, 1]),
            np.array([1, 1], dtype=np.uint64), np.array([1, 1], dtype=np.int8),
            np.array([[1], [1]]),  # taken in order, as its elements are
        ],
    )
    def test_integral_sizes_run_as_integers(self, park, sizes):
        got, want = (integrate_weighted(park, lambda s, of: s, [10.0, 20.0], counts)
                     for counts in (sizes, [1, 1]))
        assert got.tobytes() == want.tobytes()

    def test_no_integrals(self, park):
        for sizes in (np.array([], dtype=np.int64), []):
            got = integrate_weighted(park, lambda s, of: s, [], sizes)
            assert got.shape == (0,) and got.dtype == np.float64


class TestValue:
    """A distribution is an immutable value: compared and hashed by its
    components and support, its derived arrays read-only, its frame built once."""

    def test_equal_loads_are_one_value(self, tmp_path):
        # a path is built anew on every load: distinct objects, one value
        path = tmp_path / "park.json"
        path.write_text(json.dumps(config_doc(load_distribution("park-i35"))), encoding="utf-8")
        a, b = load_distribution(str(path)), load_distribution(str(path))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, load_distribution("park-i35"), load_distribution("table2-60mph")}) == 2
        # a preset is one shared object; different presets are different objects
        assert load_distribution("park-i35") is load_distribution("park-i35")
        presets = [load_distribution(name) for name in PRESET_NAMES]
        assert len({id(d) for d in presets}) == len(set(presets)) == len(PRESET_NAMES)
        one = (SpeedComponent(20.0, 5.0, 1.0),)
        assert SpeedDistribution(one, 0, 40) == SpeedDistribution(list(one), 0.0, 40.0)

    def test_components_and_support_tell_values_apart(self, park):
        assert park != SpeedDistribution(park.components, park.lower, 39.0)
        assert park != SpeedDistribution(park.components, 1.0, park.upper)
        assert park != SpeedDistribution(park.components[::-1], park.lower, park.upper)

    @pytest.mark.parametrize("name", ["components", "lower", "upper", "_means", "frame"])
    def test_assignment_refused(self, name):
        dist = load_distribution("park-i35")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dist, name, "abc")
        assert dist == load_distribution("park-i35")

    def test_derived_arrays_read_only(self, park):
        names = ("_means", "_sds", "_weights", "_norms", "_cdf_lo", "_cdf_w", "_cdf_span",
                 "_cum_inner")
        arrays = [getattr(park, name) for name in names] + [park.frame.scales,
                                                            park.frame.zero_below,
                                                            park.frame.edges]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_frame_built_once_on_first_use(self, park):
        # a fresh value: the shared preset may have built its frame in another test
        dist = from_dict(config_doc(park))
        assert dist == park and "frame" not in vars(dist)
        assert dist.frame is dist.frame

    def test_frame_edges(self, park):
        frame = park.frame
        assert frame.edges[:2].tolist() == [park.lower, frame.top]
        assert np.all((frame.edges[2:] > park.lower) & (frame.edges[2:] < frame.top))


class TestPresetCache:
    """A preset is built once per process and shared; a path is read on every load."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_is_one_object_with_one_frame(self, name):
        dist = load_distribution(name)
        frame = dist.frame
        vmr(40.0, 1.0, load_distribution(name))
        again = load_distribution(name)
        assert again is dist and vars(again)["frame"] is frame

    def test_rewritten_path_gives_new_value(self, tmp_path):
        park = load_distribution("park-i35")
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(config_doc(park)), encoding="utf-8")
        assert load_distribution(str(path)) == park
        path.write_text(json.dumps({**config_doc(park), "upper": 39.0}), encoding="utf-8")
        assert load_distribution(str(path)) == SpeedDistribution(park.components, park.lower, 39.0)

    @pytest.mark.parametrize("spec", [5, ["park-i35"], None, b"park-i35"])
    def test_non_str_spec_refused(self, spec):
        with pytest.raises(ValueError, match="must be a preset name or a file path"):
            load_distribution(spec)

    def test_unknown_name_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown speed distribution 'park-i36'"):
                load_distribution("park-i36")


class TestValidation:
    def test_weights_sum_to_0999_renormalized(self):
        dist = SpeedDistribution(
            (
                SpeedComponent(25.0, 2.0, 0.647),
                SpeedComponent(20.0, 4.0, 0.223),
                SpeedComponent(9.0, 3.0, 0.055),
                SpeedComponent(4.0, 1.5, 0.074),
            ),
            0.0,
            40.0,
        )
        assert float(np.sum(dist._weights)) == pytest.approx(1.0, abs=1e-12)

    def test_weights_far_from_one_rejected(self):
        with pytest.raises(ValueError, match="weights sum"):
            SpeedDistribution(
                (SpeedComponent(20.0, 2.0, 0.5), SpeedComponent(10.0, 2.0, 0.4)),
                0.0,
                40.0,
            )

    def test_bad_component(self):
        with pytest.raises(ValueError):
            SpeedComponent(20.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SpeedComponent(20.0, 1.0, 1.5)

    def test_bad_support(self):
        with pytest.raises(ValueError):
            SpeedDistribution((SpeedComponent(5.0, 1.0, 1.0),), 10.0, 10.0)
        with pytest.raises(ValueError):
            SpeedDistribution((SpeedComponent(5.0, 1.0, 1.0),), -1.0, 10.0)

    def test_empty_mixture(self):
        with pytest.raises(ValueError):
            SpeedDistribution((), 0.0, 10.0)

    def test_non_component_refused_by_index(self):
        with pytest.raises(ValueError, match=r"component 1 must be a SpeedComponent, got \(20.0"):
            SpeedDistribution([SpeedComponent(20.0, 5.0, 0.5), (20.0, 5.0, 0.5)], 0.0, 40.0)


class TestConfig:
    def test_presets_load(self):
        for name in PRESET_NAMES:
            dist = load_distribution(name)
            assert integrate_weighted(dist, lambda s: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self, tmp_path):
        config = {"components": [{"mean": 27.042, "sd": 1.831, "weight": 0.647},
                                 {"mean": 9.394, "sd": 3.167, "weight": 0.353}],
                  "lower": 0.0, "upper": 40.0}
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert load_distribution(str(path)) == from_dict(config)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown speed distribution"):
            load_distribution("no-such-preset")

    def test_malformed_config(self):
        with pytest.raises(ValueError, match="malformed"):
            from_dict({"components": [{"mean": 1.0}], "lower": 0, "upper": 1})

    def test_numpy_numbers_taken(self):
        doc = {"components": [{"mean": np.float64(20.0), "sd": np.int64(4), "weight": 1}],
               "lower": np.float32(0.0), "upper": 40}
        dist = from_dict(doc)
        assert dist.components == (SpeedComponent(20.0, 4.0, 1.0),)
        assert (dist.lower, dist.upper) == (0.0, 40.0)

    @pytest.mark.parametrize("key", ["mean", "sd", "weight", "lower", "upper"])
    @pytest.mark.parametrize("value", ["20", True, np.bool_(True), None, [20.0]])
    def test_non_numbers_rejected_by_key(self, key, value):
        doc = {"components": [{"mean": 20.0, "sd": 4.0, "weight": 1.0}],
               "lower": 0.0, "upper": 40.0}
        (doc["components"][0] if key in doc["components"][0] else doc)[key] = value
        with pytest.raises(ValueError, match=f"malformed.*'{key}' must be a number"):
            from_dict(doc)
