"""Hot numeric kernels: mixture pdf/cdf evaluation, pass counting, density
band accumulation and the leave-pair-out calibration sweep.

Each is one plain numpy function. Kernels are single-threaded on purpose:
results must be bit-identical across reruns regardless of thread count.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# truncated-normal mixture evaluation
#
# Component parameters arrive pre-reduced: norms[j] = w_j / (sd_j * Z_j) with
# Z_j the truncation mass, so the density is sum_j norms[j]*phi((s-mu_j)/sd_j)
# on (lower, upper] and 0 elsewhere. cdf_lo[j] = Phi((lower-mu_j)/sd_j) and
# cdf_w[j] = w_j / Z_j feed the mixture CDF.
#
# Both add the components' terms into the result in the order j = 0, 1, ...,
# k-1, one term at a time, so a point's value does not depend on the other
# points of the call, nor on how many components one vectorised step takes.
# ---------------------------------------------------------------------------


def _per_step(n_points):
    """How many components one vectorised step evaluates over n_points: as
    many as fit in the values of one band or variance chunk's nodes, and at
    least one, so the temporaries are O(points) whatever k is."""
    return max(1, CHUNK_PIECES * _GL8_X.size // max(n_points, 1))


def _add_rows(acc, terms):
    """acc + terms[0] + terms[1] + ..., added in that order (from terms[0]
    when acc is None); the sum is made in place in acc or in terms[0]."""
    rows = iter(terms)
    if acc is None:
        acc = next(rows)
    for row in rows:
        acc += row
    return acc


def mixture_pdf(s, means, sds, norms, lower, upper):
    s = np.asarray(s, dtype=np.float64)
    inside = (s > lower) & (s <= upper)
    everywhere = bool(inside.all())
    x = s.ravel() if everywhere else s[inside]
    scale = norms * _INV_SQRT_2PI
    acc = None
    per_step = _per_step(x.size)
    for j in range(0, means.size, per_step):
        c = slice(j, j + per_step)
        # exp((-0.5*z)*z) * scale with z = (s - mu)/sd, a row per component
        z = x - means[c, None]
        z /= sds[c, None]
        terms = z * -0.5
        terms *= z
        np.exp(terms, out=terms)
        terms *= scale[c, None]
        acc = _add_rows(acc, terms)
    if everywhere:
        return acc.reshape(s.shape)
    out = np.zeros(s.shape, dtype=np.float64)
    out[inside] = acc
    return out


def mixture_cdf(s, means, sds, cdf_lo, cdf_w, lower, upper):
    # scipy is imported where it is called, so that importing the package loads none of it
    from scipy.special import erf

    x = np.clip(np.asarray(s, dtype=np.float64), lower, upper)
    flat = x.ravel()
    acc = None
    per_step = _per_step(flat.size)
    for j in range(0, means.size, per_step):
        c = slice(j, j + per_step)
        # (0.5*(1 + erf(z/sqrt 2)) - lo) * w with z = (s - mu)/sd
        terms = flat - means[c, None]
        terms /= sds[c, None]
        terms /= _SQRT2
        erf(terms, out=terms)
        terms += 1.0
        terms *= 0.5
        terms -= cdf_lo[c, None]
        terms *= cdf_w[c, None]
        acc = _add_rows(acc, terms)
    return acc.reshape(x.shape)


# ---------------------------------------------------------------------------
# probe pass record counts
#
# Positional model of one cordon pass: first record lands speed*offset past
# the entry, then one record every speed*t metres. Counts stay float64 to
# avoid int casts in downstream products.
# ---------------------------------------------------------------------------


def pass_counts(speeds, offsets, d, t):
    """Records of each pass, ``0 if first >= d else 1 + floor((d - first) /
    (speeds * t))`` with first = speeds * offsets, computed in place in two
    new arrays; the inputs are not written."""
    counts = speeds * offsets
    missed = counts >= d
    np.subtract(d, counts, out=counts)
    spacing = speeds * t
    np.divide(counts, spacing, out=counts)
    np.floor(counts, out=counts)
    counts += 1.0
    counts[missed] = 0.0
    return counts


# ---------------------------------------------------------------------------
# single-probe density band accumulation
#
# The continuous part of the estimator density decomposes into speed bands
# indexed by u >= 1 (guaranteed record count) plus the u = 0 band above d/t
# whose no-extra-record branch is the point mass at zero. Within band u the
# estimate is m_hat = s*t*(u+k)/d for the Bernoulli outcome k, so each
# multiplier v = u+k maps bands v-1 and v onto m_hat. All resolved bands are
# cut in one partition of the speed axis: at the band ends d/(t*v) and at
# every s where some multiplier's image crosses a grid-cell edge inside its
# two bands. Per piece the g-mass is an exact CDF difference and only the
# k-split ratio uses quadrature, which keeps total mass exact for any
# mixture, including near-degenerate ones. Bands with u > u_max span less
# than half a cell around m_hat = 1, so their remaining mass is deposited in
# one lump next to 1 (half just below, half just above); a probe's
# conditional mean of m_hat is exactly 1, making the lump placement
# unbiased to within a cell.
# ---------------------------------------------------------------------------

# Gauss-Legendre rule for the k-split ratio inside one piece, shared with speed_model.
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL8_X.setflags(write=False)
_GL8_W.setflags(write=False)

# Quadrature pieces evaluated per vectorised step, by band accumulation here
# and by the variance integral (a batch of d at a time, at least one d). The
# mixture kernels' temporaries are the size of a chunk's 8 nodes per piece
# whatever the component count, so a chunk's arrays stay at a few MB for any
# mixture and any batch.
CHUNK_PIECES = 1 << 12


def _gl8_nodes(lo, hi):
    """GL8 nodes of the pieces [lo, hi] (a row per piece), half-widths, midpoints."""
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    return mid[:, None] + half[:, None] * _GL8_X, half, mid


def band_masses(
    means, sds, norms, cdf_lo, cdf_w, lower, upper, d, t, step, n_cells, u_max
):
    # band u spans the speeds [ends[u], ends[u - 1]], band 0 up to upper
    v = np.arange(1, u_max + 2, dtype=np.float64)
    ends = d / (t * v)
    s_min = min(max(lower, ends[-1]), upper)

    # cell-edge preimages of each multiplier v, kept strictly inside bands v-1 and v
    slope = t * v / d
    lo = np.maximum(s_min, np.append(ends[1:], 0.0))
    hi = np.minimum(upper, np.append(np.inf, ends[:-1]))
    i_lo = np.floor(lo * slope / step + 0.5)
    count = np.maximum(np.floor(hi * slope / step + 0.5) - i_lo + 1.0, 0.0).astype(np.int64)
    owner = np.repeat(np.arange(v.size), count)
    i = np.arange(owner.size) - (np.cumsum(count) - count)[owner] + i_lo[owner]
    cuts = (i + 0.5) * step / slope[owner]
    cuts = cuts[(lo[owner] < cuts) & (cuts < hi[owner])]
    inner = ends[(ends > s_min) & (ends < upper)]
    edges = np.unique(np.concatenate(([s_min, upper], inner, cuts)))
    # band of each piece: how many band ends lie above its left edge
    band = np.searchsorted(-ends, -edges[:-1])

    masses = np.zeros(n_cells, dtype=np.float64)
    no_record = [np.zeros(0)]
    for c in range(0, band.size, CHUNK_PIECES):
        e = edges[c : c + CHUNK_PIECES + 1]
        u = band[c : c + CHUNK_PIECES]
        delta = np.diff(mixture_cdf(e, means, sds, cdf_lo, cdf_w, lower, upper))

        # mass-weighted mean of p over each piece via GL8 on g and g*p
        nodes, _, mid = _gl8_nodes(e[:-1], e[1:])
        gv = mixture_pdf(nodes.ravel(), means, sds, norms, lower, upper).reshape(nodes.shape)
        g_int = gv @ _GL8_W
        # r - u, not r - floor(r): near a band end floor(r) can round to u + 1 and move atoms
        gp_int = (gv * (d / (nodes * t) - u[:, None])) @ _GL8_W
        p_bar = np.where(
            g_int > 0.0,
            np.clip(gp_int / np.where(g_int > 0.0, g_int, 1.0), 0.0, 1.0),
            d / (mid * t) - u,
        )

        # k = 1 lands at multiplier u+1; k = 0 at u, or in the zero atom for u = 0
        without = delta * (1.0 - p_bar)
        no_record.append(without[u == 0])
        mt = mid * t
        idx = np.floor(np.concatenate((mt * (u + 1), mt * u)) / d / step + 0.5)
        masses += np.bincount(
            np.clip(idx.astype(np.int64), 0, n_cells - 1),
            np.concatenate((delta * p_bar, np.where(u > 0, without, 0.0))),
            minlength=n_cells,
        )
    atom = float(np.sum(np.concatenate(no_record)))

    # lump for the unresolved bands u > u_max, all within (1 - delta, 1 + delta]
    s_tail = d / (t * (u_max + 1))
    if s_tail > lower:
        lump = float(
            mixture_cdf(
                np.asarray([s_tail]), means, sds, cdf_lo, cdf_w, lower, upper
            )[0]
        )
        if lump > 0.0:
            delta_m = 1.0 / (u_max + 1)
            i_below = int(math.floor((1.0 - 0.5 * delta_m) / step + 0.5))
            i_above = int(math.floor((1.0 + 0.5 * delta_m) / step + 0.5))
            masses[i_below] += 0.5 * lump
            masses[i_above] += 0.5 * lump
    return masses, atom


# ---------------------------------------------------------------------------
# leave-pair-out through-origin calibration sweep
#
# For every pair (i, j) of "known" sites, fit volume = beta * m_hat through
# the origin with weights w, predict the held-out sites, and take the mean
# absolute percentage error over them. Returns the average over the pairs.
# Pairs whose weighted m_hat energy is zero have no fit and are skipped.
# ---------------------------------------------------------------------------


def all_pairs_mape(m_hats, volumes, weights, pairs):
    """Mean held-out MAPE over ``pairs``, a sequence of site index pairs (i, j)."""
    n = m_hats.shape[0]
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    wxy = weights * m_hats * volumes
    wxx = weights * m_hats * m_hats
    denom = wxx[i] + wxx[j]
    numer = wxy[i] + wxy[j]
    beta = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), np.nan)

    rel = np.abs(beta[:, None] * m_hats[None, :] - volumes[None, :])
    rel /= volumes[None, :]
    rows = np.arange(beta.size)
    vals = (rel.sum(axis=1) - rel[rows, i] - rel[rows, j]) / (n - 2)
    ok = np.isfinite(vals)
    if not np.any(ok):
        return math.nan
    return float(np.mean(vals[ok]))
