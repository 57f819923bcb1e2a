"""Probe speed population: finite mixtures of truncated normal distributions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from . import kernels
from .estimator import as_float, finite, finites, is_number, positive, probe_count

# Printed mixture weights in the wild are rounded (a canonical preset sums to
# 0.999), so configs are accepted and renormalized within this slack.
WEIGHT_SUM_TOL = 5e-3

PRESET_NAMES = ("park-i35", "table2-60mph", "table2-30mph")
_PRESET_FILES = {name: name.replace("-", "_") + ".json" for name in PRESET_NAMES}
# the packaged preset files, found once at import
_PRESET_DIR = Path(__file__).with_name("presets")


@dataclass(frozen=True)
class SpeedComponent:
    """One truncated-normal mixture component (pre-truncation parameters)."""

    mean: float
    sd: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "sd", positive(self.sd, "component sd"))
        if not 0.0 <= (weight := as_float(self.weight)) <= 1.0:
            raise ValueError(f"component weight must be in [0, 1], got {self.weight}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "mean", finite(self.mean, "component mean"))


# Fixed cut offsets around every component, in units of its local scale: an
# 8-node rule between consecutive cuts resolves a Gaussian of any sd to about
# 1e-14, so normalization holds even for near-degenerate mixtures. A component
# whose mean lies z > 1 sd outside the support shows only its tail there,
# which falls off within sd/z of the support's end, so its cuts are centred
# on that end and scaled by sd/z. The rule is fixed, not adaptive: results
# stay bit-stable across runs.
_ANCHOR_SDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
# a component's cuts: its centre, then each of _ANCHOR_SDS above and below it
_ANCHOR_OFFSETS = np.array((0.0, *_ANCHOR_SDS, *(-k for k in _ANCHOR_SDS)))
# anchor cuts per component; each adds at most one quadrature piece
CUTS_PER_COMPONENT = _ANCHOR_OFFSETS.size

# exp(-z*z/2) is 0 in double precision once z*z/2 passes about 745.1, so
# every term of the mixture density is exactly 0 more than this many sd
# away from its component's mean
_PDF_ZERO_SDS = 40.0


class QuadratureFrame(NamedTuple):
    """What every quadrature over one distribution is cut at; the arrays are read-only."""

    scales: np.ndarray  # per component: its sd, or sd/z for a mean z > 1 sd outside the support
    zero_below: np.ndarray  # per component: the speed at and below which its density term is 0
    top: float  # where the top piece ends: upper, or where every density term is 0 if lower
    edges: np.ndarray  # the fixed edges: lower, top and the anchor cuts strictly between them


@dataclass(frozen=True)
class SpeedDistribution:
    """Mixture of truncated normals on the half-open support (lower, upper].

    An immutable value: ``==`` and ``hash`` go by (components, lower,
    upper), and assigning a field raises ``dataclasses.FrozenInstanceError``.
    Weights are renormalized to an exact unit sum at construction; inputs
    whose raw sum strays from 1 by more than ``WEIGHT_SUM_TOL`` are rejected.
    """

    components: tuple[SpeedComponent, ...]
    lower: float
    upper: float

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for i, c in enumerate(comps):
            if not isinstance(c, SpeedComponent):
                raise ValueError(f"component {i} must be a SpeedComponent, got {c!r}")
        if not 0.0 <= (lower := as_float(self.lower)) < (upper := as_float(self.upper)):
            raise ValueError(
                f"support must satisfy 0 <= lower < upper, got ({self.lower}, {self.upper})"
            )
        raw = np.array([c.weight for c in comps], dtype=np.float64)
        total = raw.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights sum to {total}, expected 1")
        weights = raw / total
        means = np.array([c.mean for c in comps], dtype=np.float64)
        sds = np.array([c.sd for c in comps], dtype=np.float64)
        cdf_lo = ndtr((lower - means) / sds)
        z = ndtr((upper - means) / sds) - cdf_lo
        if not z.min() > 0.0:
            raise ValueError(f"component {z.argmin()} has no probability mass inside the support")
        for name, value in (("components", comps), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, value)
        # the kernels' shared arrays, read-only and not compared; _cum_inner (the cumulative
        # weights of components 0..k-2) is what a component draw compares its uniform against
        for name, value in (
            ("_weights", weights), ("_means", means), ("_sds", sds),
            ("_norms", weights / (sds * z)), ("_cdf_lo", cdf_lo), ("_cdf_w", weights / z),
            ("_cdf_span", z), ("_cum_inner", weights.cumsum()[:-1]),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def frame(self) -> QuadratureFrame:
        """The quadrature frame, derived on first use: a density or a draw never reads it."""
        means, sds, lower, upper = self._means, self._sds, self.lower, self.upper
        outside = np.maximum(lower - means, means - upper) / sds
        scales = sds / np.maximum(outside, 1.0)
        top = min(upper, float(np.max(means + _PDF_ZERO_SDS * sds)))
        centre = np.clip(means, lower, upper)
        cuts = (centre[:, None] + scales[:, None] * _ANCHOR_OFFSETS).ravel()
        edges = np.concatenate(([lower, top], cuts[(cuts > lower) & (cuts < top)]))
        zero_below = means - _PDF_ZERO_SDS * sds
        for array in (scales, zero_below, edges):
            array.setflags(write=False)
        return QuadratureFrame(scales, zero_below, top, edges)

    # -- evaluation ---------------------------------------------------------
    # pdf and cdf keep the shape of s: a float for a 0-d s, else an array

    def pdf(self, s) -> np.ndarray | float:
        out = kernels.mixture_pdf(s, self._means, self._sds, self._norms, self.lower, self.upper)
        return float(out) if out.ndim == 0 else out

    def cdf(self, s) -> np.ndarray | float:
        out = kernels.mixture_cdf(
            s, self._means, self._sds, self._cdf_lo, self._cdf_w, self.lower, self.upper
        )
        return float(out) if out.ndim == 0 else out


def _pick_components(edges: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """Component of each uniform in r: the number of inner cumulative weights
    ``edges`` at or below it, which is ``searchsorted(cum, r, side="right")``
    over all k cumulative weights clamped to k - 1. None for one component.
    The count never exceeds ``edges.size``, so a ``np.min_scalar_type(edges.size)``
    counter holds it exactly for any k: uint8 up to 256 components."""
    if edges.size == 0:
        return None
    comp = np.zeros(r.size, dtype=np.min_scalar_type(edges.size))
    hit = np.empty(r.size, dtype=np.bool_)
    for edge in edges:
        np.greater_equal(r, edge, out=hit)
        np.add(comp, hit.view(np.uint8), out=comp)
    # one cast here, so each parameter gather below indexes with intp
    return comp.astype(np.intp)


def sample_with_rng(dist: SpeedDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count speeds from ``rng``: count component uniforms, then count
    inverse-CDF uniforms, two ``rng.random(count)`` calls in that order.

    The arithmetic is done in place in the second uniforms' array, with the
    same IEEE operations in the same order as the textbook expression
    ``mean + sd * ndtri(lo + (1 - u) * span)`` of each draw's component.
    """
    if count == 0:
        return np.empty(0, dtype=np.float64)
    comp = _pick_components(dist._cum_inner, rng.random(count))

    def per_draw(param):
        return param if comp is None else param[comp]

    s = rng.random(count)
    np.subtract(1.0, s, out=s)  # in (0, 1] so draws stay inside (lower, upper]
    s *= per_draw(dist._cdf_span)
    s += per_draw(dist._cdf_lo)
    ndtri(s, out=s)
    s *= per_draw(dist._sds)
    s += per_draw(dist._means)
    np.minimum(s, dist.upper, out=s)
    np.maximum(s, np.nextafter(dist.lower, np.inf), out=s)
    return s


def integrate_weighted(
    dist: SpeedDistribution,
    weight: Callable[..., np.ndarray],
    breakpoints: Sequence[float] = (),
    sizes: Sequence[int] | None = None,
):
    """Integrate weight(s)*g(s) over the support with piecewise quadrature.

    The support is cut at the given breakpoints (clipped to it) plus the
    fixed anchor cuts of each component; every piece gets one 8-node
    Gauss-Legendre rule, exact for polynomials up to degree 15. Each
    breakpoint must be a finite number, else ``ValueError``. It suits a
    weight that is smooth between breakpoints, such as the variance kernel,
    a quadratic between its kinks. The top piece ends where every
    component's density term underflows to 0 (40 sd above the highest
    mean), if that is below the support's top, so that no weight is taken
    where g is exactly 0. ``weight`` must accept an ndarray of speeds and
    return values that broadcast to its shape; a non-finite value at a node
    raises ``ValueError``.

    With ``sizes``, one pass makes ``len(sizes)`` integrals: ``breakpoints``
    holds their ascending breakpoints one integral after another, sizes[i] of
    them for integral i (integers >= 0 that sum to the breakpoint count, else
    ``ValueError``), ``weight`` is called as ``weight(nodes, owner)`` with one
    row of nodes per piece, shape (pieces, 8), and owner[k] the integral that
    piece k belongs to, and the integrals come back as an array. Each integral
    gets the pieces, nodes and sum, so the bits, that it gets on its own. The
    edges are sorted as one padded row per integral, so the pass holds and sorts
    len(sizes) * (max(sizes) + the anchor cuts) floats: batch integrals of like
    sizes, as ``vmr``'s chunks of about ``kernels.CHUNK_PIECES`` pieces do.
    """
    pts = finites(breakpoints, "breakpoints").reshape(-1)
    counts = [pts.size]
    if sizes is not None:  # each size checked, as Python ints whose sum cannot wrap
        counts = [probe_count(c, 0, "sizes") for c in np.array(sizes, dtype=object).flat]
        if sum(counts) != pts.size:
            raise ValueError(f"sizes must sum to the number of breakpoints, {pts.size}")
    n = len(counts)
    owner = np.repeat(np.arange(n), counts)
    if np.any((pts[1:] < pts[:-1]) & (owner[1:] == owner[:-1])):
        raise ValueError("breakpoints must be sorted ascending")
    top, fixed = dist.frame.top, dist.frame.edges
    inner = (pts > dist.lower) & (pts < top)
    # one row per integral: its inner breakpoints, padded with top, then the
    # fixed edges; sorted, each unequal neighbour pair is one piece
    per_row = np.bincount(owner[inner], minlength=n)
    width = int(per_row.max(initial=0))
    rows = np.full((n, width + fixed.size), top)
    rows[:, :width][np.arange(width) < per_row[:, None]] = pts[inner]
    rows[:, width:] = fixed
    rows.sort(axis=1)
    piece = rows[:, 1:] != rows[:, :-1]
    lo, hi, piece_owner = rows[:, :-1][piece], rows[:, 1:][piece], np.nonzero(piece)[0]

    # kernels' shared GL8 rule: the 8 nodes of each piece contiguous, flattened
    node_rows, half, _ = kernels._gl8_nodes(lo, hi)
    nodes = node_rows.ravel()
    wts = (half[:, None] * kernels._GL8_W).ravel()

    gv = dist.pdf(nodes)
    if sizes is None:
        shape, wv = nodes.shape, weight(nodes)
    else:
        shape, wv = node_rows.shape, weight(node_rows, piece_owner)
    wv = np.broadcast_to(np.asarray(wv, dtype=np.float64), shape).reshape(-1)
    if not np.all(np.isfinite(wv)):
        bad = nodes[~np.isfinite(wv)]
        raise ValueError(
            f"weight function returned non-finite values, first at s={float(bad.flat[0])!r}"
        )
    # each integral's nodes summed pairwise by np.add.reduceat, single-threaded
    # and in a fixed order (no BLAS dot): reruns are bit-identical whatever the
    # thread count, and an integral's sum does not depend on the others
    first_node = kernels._GL8_X.size * np.searchsorted(piece_owner, np.arange(n))
    wts *= gv  # wts * gv * wv in place, in that order: the same bits
    wts *= wv
    sums = np.add.reduceat(wts, first_node)
    return float(sums[0]) if sizes is None else sums


# -- configuration ----------------------------------------------------------


def config_number(doc: Mapping, key: str) -> float:
    """``doc[key]`` as a float.

    Only numbers are taken (``estimator.is_number``): a string, a boolean or
    null raises ``TypeError`` naming the key, so nothing is coerced on the way in.
    """
    value = doc[key]
    if not is_number(value):
        raise TypeError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def from_dict(doc: dict) -> SpeedDistribution:
    try:
        comps = tuple(
            SpeedComponent(*(config_number(c, key) for key in ("mean", "sd", "weight")))
            for c in doc["components"]
        )
        lower = config_number(doc, "lower")
        upper = config_number(doc, "upper")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed speed distribution config: {exc}") from exc
    return SpeedDistribution(comps, lower, upper)


def read_config(spec: str, presets: Mapping[str, str | dict], what: str) -> dict:
    """Resolve a preset name or a JSON file path to a config object.

    A preset maps to a packaged JSON file name or to the object itself.
    A spec that names neither, or a document that is not a JSON object,
    raises ``ValueError``; a file that cannot be read, decoded as UTF-8 or
    parsed as JSON raises ``OSError``.
    """
    if not isinstance(spec, str):
        raise ValueError(f"{what} must be a preset name or a file path, got {spec!r}")
    preset = presets.get(spec)
    if isinstance(preset, dict):
        return dict(preset)
    if preset is not None:
        source = _PRESET_DIR / preset
    else:
        source = Path(spec)
        if not source.exists():
            raise ValueError(
                f"unknown {what} {spec!r}: not a preset "
                f"({', '.join(presets)}) and no such file"
            )
    try:
        doc = json.loads(source.read_text(encoding="utf-8"))
    # ValueError: bad UTF-8 or bad JSON; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise OSError(f"cannot read {what} config {spec!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(
            f"malformed {what} config {spec!r}: expected a JSON object, "
            f"got {type(doc).__name__}"
        )
    return doc


def load_distribution(spec: str) -> SpeedDistribution:
    """Resolve a preset name or a JSON config path to a distribution. A preset is
    one shared immutable value per process, its quadrature frame derived once; a
    path is read and built anew on every call, since the file may change."""
    if isinstance(spec, str) and spec in _PRESET_FILES:
        return _preset(spec)
    return from_dict(read_config(spec, _PRESET_FILES, "speed distribution"))


@cache
def _preset(name: str) -> SpeedDistribution:
    return from_dict(read_config(name, _PRESET_FILES, "speed distribution"))
