"""Hot numeric kernels: mixture pdf/cdf evaluation, pass counting, density
band accumulation and the leave-pair-out calibration sweep.

Each is one plain numpy function. Kernels are single-threaded on purpose:
results must be bit-identical across reruns regardless of thread count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _sc_erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# truncated-normal mixture evaluation
#
# Component parameters arrive pre-reduced: norms[j] = w_j / (sd_j * Z_j) with
# Z_j the truncation mass, so the density is sum_j norms[j]*phi((s-mu_j)/sd_j)
# on (lower, upper] and 0 elsewhere. cdf_lo[j] = Phi((lower-mu_j)/sd_j) and
# cdf_w[j] = w_j / Z_j feed the mixture CDF.
# ---------------------------------------------------------------------------


def mixture_pdf(s, means, sds, norms, lower, upper):
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros(s.shape, dtype=np.float64)
    mask = (s > lower) & (s <= upper)
    if np.any(mask):
        x = s[mask]
        z = (x[:, None] - means[None, :]) / sds[None, :]
        out[mask] = np.exp(-0.5 * z * z) @ (norms * _INV_SQRT_2PI)
    return out


def mixture_cdf(s, means, sds, cdf_lo, cdf_w, lower, upper):
    s = np.asarray(s, dtype=np.float64)
    x = np.clip(s, lower, upper)
    z = (x[:, None] - means[None, :]) / sds[None, :]
    phi = 0.5 * (1.0 + _sc_erf(z / _SQRT2))
    return (phi - cdf_lo[None, :]) @ cdf_w


# Band accumulation evaluates the mixture through these import-time bindings,
# so a caller that wraps or replaces the public kernels (profiling, test
# doubles) sees only the calls made from outside this module.
_mixture_pdf = mixture_pdf
_mixture_cdf = mixture_cdf


# ---------------------------------------------------------------------------
# probe pass record counts
#
# Positional model of one cordon pass: first record lands speed*offset past
# the entry, then one record every speed*t metres. Counts stay float64 to
# avoid int casts in downstream products.
# ---------------------------------------------------------------------------


def pass_counts(speeds, offsets, d, t):
    first = speeds * offsets
    counts = 1.0 + np.floor((d - first) / (speeds * t))
    return np.where(first >= d, 0.0, counts)


# ---------------------------------------------------------------------------
# single-probe density band accumulation
#
# The continuous part of the estimator density decomposes into speed bands
# indexed by u >= 1 (guaranteed record count) plus the u = 0 band above d/t
# whose no-extra-record branch is the point mass at zero. Within band u the
# estimate is m_hat = s*t*(u+k)/d for the Bernoulli outcome k, so the band
# is split at every s whose image under either k-map crosses a grid-cell
# edge. Per sub-interval the g-mass is an exact CDF difference and only the
# k-split ratio uses quadrature, which keeps total mass exact for any
# mixture, including near-degenerate ones. Bands with u > u_max span less
# than half a cell around m_hat = 1, so their remaining mass is deposited in
# one lump next to 1 (half just below, half just above); a probe's
# conditional mean of m_hat is exactly 1, making the lump placement
# unbiased to within a cell.
# ---------------------------------------------------------------------------

# Gauss-Legendre rule for the k-split ratio inside one sub-interval.
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL8_X.setflags(write=False)
_GL8_W.setflags(write=False)


def _one_band(
    means, sds, norms, cdf_lo, cdf_w, lower, upper, d, t, step, n_cells, u
):
    """Grid deposits (masses, atom contribution) from speed band u alone."""
    masses = np.zeros(n_cells, dtype=np.float64)
    if u == 0:
        s_hi = upper
        s_lo = max(lower, d / t)
    else:
        s_hi = min(upper, d / (t * u))
        s_lo = max(lower, d / (t * (u + 1)))
    if s_hi <= s_lo:
        return masses, 0.0

    # merged split points: band ends plus cell-edge preimages of both maps
    edges = [s_lo, s_hi]
    for k in (0, 1):
        if u + k == 0:
            continue
        slope = t * (u + k) / d
        i_lo = int(math.floor(s_lo * slope / step + 0.5))
        i_hi = int(math.floor(s_hi * slope / step + 0.5))
        for i in range(i_lo, i_hi + 1):
            se = (i + 0.5) * step / slope
            if s_lo < se < s_hi:
                edges.append(se)
    edges = np.unique(np.asarray(edges, dtype=np.float64))

    a = edges[:-1]
    b = edges[1:]
    width = b - a
    delta = np.diff(_mixture_cdf(edges, means, sds, cdf_lo, cdf_w, lower, upper))

    # mass-weighted mean of p over each sub-interval via GL8 on g and g*p
    nodes = 0.5 * (a[:, None] + b[:, None]) + 0.5 * width[:, None] * _GL8_X
    flat = nodes.ravel()
    gv = _mixture_pdf(flat, means, sds, norms, lower, upper).reshape(nodes.shape)
    p_nodes = (d / (flat * t) - u).reshape(nodes.shape)
    g_int = gv @ _GL8_W
    gp_int = (gv * p_nodes) @ _GL8_W
    mid = 0.5 * (a + b)
    p_bar = np.where(
        g_int > 0.0,
        np.clip(gp_int / np.where(g_int > 0.0, g_int, 1.0), 0.0, 1.0),
        d / (mid * t) - u,
    )

    atom = 0.0
    idx_k1 = np.floor(mid * t * (u + 1) / d / step + 0.5).astype(np.int64)
    np.add.at(masses, np.clip(idx_k1, 0, n_cells - 1), delta * p_bar)
    if u == 0:
        atom = float(np.sum(delta * (1.0 - p_bar)))
    else:
        idx_k0 = np.floor(mid * t * u / d / step + 0.5).astype(np.int64)
        np.add.at(masses, np.clip(idx_k0, 0, n_cells - 1), delta * (1.0 - p_bar))
    return masses, atom


def band_masses(
    means, sds, norms, cdf_lo, cdf_w, lower, upper, d, t, step, n_cells, u_max
):
    masses = np.zeros(n_cells, dtype=np.float64)
    atom = 0.0
    for u in range(0, u_max + 1):
        if u >= 1 and d / (t * u) <= lower:
            break  # this and all later bands sit below the support
        band, band_atom = _one_band(
            means, sds, norms, cdf_lo, cdf_w, lower, upper, d, t, step, n_cells, u
        )
        masses += band
        atom += band_atom

    # lump for the unresolved bands u > u_max, all within (1 - delta, 1 + delta]
    s_tail = d / (t * (u_max + 1))
    if s_tail > lower:
        lump = float(
            _mixture_cdf(
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


def all_pairs_mape(m_hats, volumes, weights, pairs=None):
    """Mean held-out MAPE over ``pairs`` (default: every pair i < j)."""
    n = m_hats.shape[0]
    if pairs is None:
        i, j = np.triu_indices(n, k=1)
    else:
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
