"""Exact distribution of the probe-volume estimate: variance, PDF, moments."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from . import kernels
from .estimator import _var_term
from .speed_model import SpeedDistribution, integrate_weighted, quadrature_pieces

# Breakpoint generation for the variance integral stops at the first kink s
# below which the residual contribution is bounded under this value; the
# bound is (s^2/4)*CDF(s) since the Bernoulli kernel never exceeds s^2/4. The
# scaled effect on Var[m_hat] stays below m * (t/d)^2 * 1e-8.
VARIANCE_TAIL_BOUND = 1e-8

# Most quadrature pieces one variance integral is cut into, for a mixture of
# up to VARIANCE_COMPONENTS components: the kink pieces, about d/t times
# (1/s_stop - 1/upper) for the distribution's tail stop s_stop, and 21 fixed
# pieces per component. Each piece gets 8 quadrature nodes, and the mixture
# density is evaluated one component at a time, so memory is O(nodes)
# whatever the component count; the time is O(nodes x components), and for
# more components the cap shrinks in proportion to bound it. d/t = 1000
# needs about 38,000 kink pieces on table2-30mph, the preset with the most.
# A larger request raises ValueError before anything is built.
MAX_VARIANCE_PIECES = 10**5
VARIANCE_COMPONENTS = 4

# A fold whose mass drifts from 1 by more than this triggers a warning.
FOLD_DRIFT_WARN = 1e-4

# The m-fold density is computed and kept on a window of cells around its
# mean m*mu, of half-width a from Bernstein's inequality for the sum S of m
# draws of the one-probe law being folded, P(|S - m mu| >= a) <= 2 exp(-a^2 /
# (2 (m sigma^2 + a b / 3))) with b the largest |cell - mu|: the mass left
# outside the window, and the mass the transform of the window's width
# aliases back into it, are each at most this bound.
FOLD_TAIL_BOUND = 1e-16

# Most pieces the band partition of a single-probe density may have. A
# density over n cells of the m_hat axis, n = max(2, upper*t/d)/grid_step,
# has about n + (2/grid_step)*ln(2/grid_step) pieces at 50-60 bytes each
# (traced): 62 MB at grid step 2e-5 on a long cordon, 99 MB for the 1.6e6
# cells of d/t = 1/40 on park-i35 at step 1e-3. A density over more raises
# ValueError before anything is built.
MAX_SINGLE_PIECES = 2 * 10**6

# Most cells of an m-fold window: the transforms hold a few arrays of this
# length, and a `pdf` request near the cap peaks at 135 MB fresh-process
# RSS in 1.9 s. A wider window, which m probes spread over about
# 2*8.7*sqrt(m*VMR)/grid_step cells, raises ValueError before the
# transforms are built.
MAX_FOLD_CELLS = 2 * 10**6


@dataclass(frozen=True)
class PrecisionReport:
    """Theoretical moments of the volume estimate for m probes."""

    m: int
    d: float
    t: float
    mean: float
    variance: float
    vmr: float
    cv: float


@dataclass(frozen=True)
class VolumePdf:
    """Discretized density of the volume estimate on a uniform grid.

    ``densities[i]`` is the cell-averaged density over the cell centered at
    ``grid_start + i*grid_step``; ``atom_at_zero`` carries the probability
    that a probe crosses the cordon without leaving a record. The densities
    this module builds run from their first to their last nonzero cell, on
    the lattice of cells ``k*grid_step``: ``grid_start`` is
    ``first_cell*grid_step``.
    """

    grid_start: float
    grid_step: float
    densities: np.ndarray
    atom_at_zero: float

    @property
    def first_cell(self) -> int:
        """Lattice index k of the first cell, the one nearest grid_start/grid_step
        (0 where that ratio is not finite)."""
        k = self.grid_start / self.grid_step if self.grid_step else math.nan
        return round(k) if math.isfinite(k) else 0

    def grid(self) -> np.ndarray:
        # grid_step times the cell index, so that a trimmed density's grid is
        # the untrimmed one's bit for bit; the offset is 0 on the lattice
        k = self.first_cell
        offset = self.grid_start - k * self.grid_step
        return offset + self.grid_step * np.arange(k, k + self.densities.size)

    def cell_masses(self) -> np.ndarray:
        return self.densities * self.grid_step

    def total_mass(self) -> float:
        return self.atom_at_zero + float(np.sum(self.cell_masses()))


def _tail_stop(dist: SpeedDistribution) -> float:
    """The speed under which the variance tail bound holds, found once.

    The bound (s^2/4)*CDF(s) rises with s and is under VARIANCE_TAIL_BOUND
    below 2*sqrt(VARIANCE_TAIL_BOUND) for any CDF, so a bracket on the rest
    of the support is narrowed 256-fold per vectorised step until no step
    moves it. The result depends on the distribution alone and is kept on it.
    """
    if dist._tail_stop is None:
        lo, hi = max(dist.lower, 2.0 * math.sqrt(VARIANCE_TAIL_BOUND)), dist.upper
        while lo < hi:
            s = np.linspace(lo, hi, 257)
            over = 0.25 * s * s * dist.cdf(s) >= VARIANCE_TAIL_BOUND
            if not over.any():
                lo = hi
                break
            k = int(np.argmax(over))
            # k == 0: over at lo already, from CDF round-off at the support's
            # bottom or with all the mass below 2*sqrt(VARIANCE_TAIL_BOUND)
            if k == 0 or (s[k - 1], s[k]) == (lo, hi):
                break
            lo, hi = float(s[k - 1]), float(s[k])
        dist._tail_stop = min(lo, dist.upper)
    return dist._tail_stop


def _variance_breakpoints(d: float, t: float, dist: SpeedDistribution) -> np.ndarray:
    """Kink locations s = d/(t*j) of the variance integrand, largest first.

    The exact kink set is infinite when the support reaches 0. Kinks run from
    the first one under the support's top down to, and including, the first
    one that is at or below its bottom or whose tail bound (s^2/4)*CDF(s) is
    under VARIANCE_TAIL_BOUND, so the one quadrature piece left below the
    last kink holds no more than the bound covers. The bound rises with s, so
    that stopping kink is among the few next to the distribution's tail stop,
    and the test is applied to those alone. An integral of more pieces than
    the cap its component count allows (see MAX_VARIANCE_PIECES) raises
    ValueError before any is built.
    """
    stop = _tail_stop(dist)
    top = d / (t * dist.upper)
    near = d / (t * stop)  # the index j of the kink at the tail stop
    n_comp = len(dist.components)
    cap = MAX_VARIANCE_PIECES * VARIANCE_COMPONENTS // max(n_comp, VARIANCE_COMPONENTS)
    # a kink index past 2**53 is no longer an exact float
    if not (quadrature_pieces(dist, near - top) < cap and near < 2.0**53):
        raise ValueError(
            f"variance at d={d}, t={t} needs over {cap} quadrature pieces (kink pieces "
            f"and 21 per component) for a mixture of {n_comp} components"
        )
    # the stopping kink is the one just past the tail stop; two kinks either
    # side leave a margin for rounding
    first, near = math.floor(top) + 1, math.floor(near)
    jj = np.arange(max(first, near - 2), max(first, near + 3), dtype=np.float64)
    s = d / (t * jj)
    stops = (s <= dist.lower) | (0.25 * s * s * dist.cdf(s) < VARIANCE_TAIL_BOUND)
    last = jj[int(np.argmax(stops)) if stops.any() else -1]
    pts = d / (t * np.arange(first, last + 1, dtype=np.float64))
    pts = pts[(pts > dist.lower) & (pts < dist.upper)]
    return pts[::-1]


def vmr(d: float, t: float, dist: SpeedDistribution) -> float:
    """Variance-to-mean ratio of the estimate, independent of m:
    (t^2 / d^2) * integral of bernoulli_var_term(s, d, t) g(s) ds."""
    if not (0.0 < d < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"d and t must be positive and finite, got ({d}, {t})")
    # for small d/t, the VMR is about (t/d) E[s - d/t]: infinite with t/d
    if t / d == math.inf:
        raise ValueError(f"the variance at d={d}, t={t} is not finite")
    # unchecked: the nodes lie in (lower, upper] with lower >= 0. On a support
    # so wide that s*s overflows, integrate_weighted raises ValueError, so the
    # overflow is not warned of as well
    with np.errstate(over="ignore", invalid="ignore"):
        pts = _variance_breakpoints(d, t, dist)
        integral = integrate_weighted(dist, lambda s: _var_term(s, d, t), pts)
    # t and d enter as mantissa times a power of two, which is exact: the
    # result is t^2 / d^2 times the integral to the last bit wherever that
    # product does not over- or underflow, and d*d cannot underflow
    (tm, te), (dm, de) = math.frexp(t), math.frexp(d)
    try:
        return math.ldexp((tm * tm) / (dm * dm) * integral, 2 * (te - de))
    except OverflowError:
        raise ValueError(f"the variance at d={d}, t={t} is not finite") from None


def probe_count(m, least: int = 1, name: str = "m") -> int:
    """m as an int, once it is an integer >= least: the one probe-count check.

    An integral float or numpy scalar passes (2.0 gives 2); any other value,
    NaN and infinity included, raises ValueError.
    """
    if not (least <= m < math.inf and m % 1 == 0):
        raise ValueError(f"{name} must be an integer >= {least}, got {m}")
    return int(m)


def precision_report(m: int, d: float, t: float, dist: SpeedDistribution) -> PrecisionReport:
    """Mean m, variance m * vmr and CV sqrt(vmr / m) for m probes: the one place
    a VMR becomes moments. ValueError where they are not finite floats."""
    m = probe_count(m)
    ratio = vmr(d, t, dist)
    try:
        var, cv_m, mean = m * ratio, math.sqrt(ratio / m), float(m)
    except OverflowError:  # m past the float range
        var = math.inf
    if not math.isfinite(var):
        raise ValueError(f"the variance for m={m} probes at d={d}, t={t} is not finite")
    return PrecisionReport(m=m, d=d, t=t, mean=mean, variance=var, vmr=ratio, cv=cv_m)


def variance(m: int, d: float, t: float, dist: SpeedDistribution) -> float:
    """Var[m_hat] = m * vmr: precision_report's, or 0.0 for m = 0 where vmr is finite."""
    return 0 * vmr(d, t, dist) if m == 0 else precision_report(m, d, t, dist).variance


def cv(m: int, d: float, t: float, dist: SpeedDistribution) -> float:
    """Coefficient of variation: sqrt(Var[m_hat]) / m = sqrt(vmr / m)."""
    return precision_report(m, d, t, dist).cv


def single_probe_pdf(
    d: float, t: float, dist: SpeedDistribution, grid_step: float = 1e-3
) -> VolumePdf:
    """Exact density of the estimate from one probe, plus the zero atom.

    Cells hold exact per-cell mass: speed-band g-mass comes from CDF
    differences and only the Bernoulli split within each sub-interval uses
    quadrature, so total mass is conserved as far as the mixture CDF is
    exact. It is not for a component whose mean lies about 7 or more sd
    above the support: its CDF, 0.5 * (1 + erf(z / sqrt 2)), cancels there,
    and about 1e-2 of the total is lost at 8 sd, the whole component from
    about 9 sd. Below the support such a component's truncation mass
    cancels instead, and the whole density is off by 2.0e-5 at 7 sd.
    """
    if not all(0.0 < x < math.inf for x in (d, t, grid_step)):
        raise ValueError(f"d, t, grid_step must be positive and finite: ({d}, {t}, {grid_step})")
    m_top = max(2.0, dist.upper * t / d * (1.0 + grid_step))
    pieces = (m_top + 2.0 * math.log(2.0 / grid_step)) / grid_step
    if not pieces < MAX_SINGLE_PIECES:
        raise ValueError(
            f"the density at d={d}, t={t}, grid_step={grid_step} spans m_hat up to {m_top:g}: "
            f"about {pieces:.3g} band pieces, over {MAX_SINGLE_PIECES}"
        )
    n_cells = int(math.ceil(m_top / grid_step)) + 1
    if n_cells < 100:
        raise ValueError(
            f"grid_step={grid_step} leaves only {n_cells} grid points over the support; "
            "need at least 100"
        )
    u_max = int(math.ceil(2.0 / grid_step))
    masses, atom = kernels.band_masses(
        dist._means,
        dist._sds,
        dist._norms,
        dist._cdf_lo,
        dist._cdf_w,
        dist.lower,
        dist.upper,
        float(d),
        float(t),
        float(grid_step),
        n_cells,
        u_max,
    )
    # CDF differences are nonnegative up to rounding; clamp the few ulps
    np.clip(masses, 0.0, None, out=masses)
    return _trimmed(masses, 0, float(grid_step), max(float(atom), 0.0))


def _trimmed(masses: np.ndarray, first_cell: int, step: float, atom: float) -> VolumePdf:
    """The density of cell masses from lattice cell first_cell on, kept from
    its first to its last nonzero cell (one zero cell if all are zero)."""
    nonzero = np.flatnonzero(masses)
    lo, hi = (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else (0, 0)
    return VolumePdf(
        grid_start=(first_cell + lo) * step,
        grid_step=step,
        densities=masses[lo : hi + 1] / step,
        atom_at_zero=atom,
    )


def _check_normalized(pdf: VolumePdf, what: str) -> None:
    mass = pdf.total_mass()
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"{what}: pdf mass is {mass}, expected 1 within 1e-6")


def m_fold_pdf(single: VolumePdf, m: int) -> VolumePdf:
    """Density of the estimate from m probes: m-fold self-convolution.

    One probe's law is the zero atom q plus the cell masses c, with
    generating function q + sum_k c_k z^k; the m-probe law is its m-th
    power, which is the binomial mixture over how many probes left no
    record. It is computed on the window of cells where that law's mass is
    (see FOLD_TAIL_BOUND), from one spectrum of the window's width: q goes
    into cell 0 and each cell into its residue, the rfft of those masses is
    raised to the m-th power and inverted, q^m, the chance that no probe
    recorded, moves from residue 0 back to the atom, and the window's cells
    are read off at their residues.
    """
    m = probe_count(m)
    step = single.grid_step
    if single.first_cell < 0 or single.first_cell * step != single.grid_start:
        raise ValueError(
            "self-convolution needs cells on the grid k*grid_step, k >= 0, "
            f"got grid_start={single.grid_start} for grid_step={step}"
        )
    _check_normalized(single, "m_fold_pdf input")
    if m == 1:
        return single

    q = single.atom_at_zero
    masses = single.cell_masses()
    # with all the mass in the atom, the first cell stands for the support
    support = np.flatnonzero(masses) if masses.any() else np.zeros(1, dtype=np.int64)
    masses = masses[support[0] : support[-1] + 1]
    first, last = single.first_cell + int(support[0]), single.first_cell + int(support[-1])
    if max(m, m * last) >= 2**53:  # past 2**53 a cell index is no longer an exact float
        raise ValueError(f"m={m} probes reach past cell 2**53 of the grid")
    atom = q**m

    # mean, variance and widest deviation of the law being folded, in cells
    cells = np.arange(first, last + 1)
    mass = q + float(np.sum(masses))
    mu = float(np.dot(masses, cells)) / mass
    var = (float(np.dot(masses, np.square(cells - mu))) + q * mu * mu) / mass
    b = max(last - mu, mu - (0 if q > 0.0 else first))
    log_bound = math.log(2.0 / FOLD_TAIL_BOUND)
    h = log_bound * b / 3.0
    a = h + math.sqrt(h * h + 2.0 * log_bound * m * var)
    # the continuous part sums 1..m cells from first..last (exactly m without
    # a zero atom), so it lies in first..m*last (m*first..m*last)
    lo = max(first if q > 0.0 else m * first, math.floor(m * mu - a))
    hi = min(m * last, math.ceil(m * mu + a))
    if hi - lo + 1 > MAX_FOLD_CELLS:
        raise ValueError(
            f"the {m}-fold density spreads over {hi - lo + 1} cells of {step}, "
            f"over {MAX_FOLD_CELLS}"
        )

    nfft = next_fast_len(hi - lo + 1, real=True)
    spectrum = np.bincount(cells % nfft, masses, minlength=nfft)
    spectrum[0] += q
    folded = irfft(rfft(spectrum) ** m, nfft)
    folded[0] -= atom
    folded = folded[np.arange(lo, hi + 1) % nfft]
    # rounding in the transforms leaves ulp-sized negatives; clamp them
    np.clip(folded, 0.0, None, out=folded)
    total = atom + float(np.sum(folded))
    if abs(total - 1.0) > FOLD_DRIFT_WARN:
        warnings.warn(
            f"{m}-fold density: mass drifted to {total}; grid resolution may be inadequate",
            RuntimeWarning,
            stacklevel=2,
        )
    return _trimmed(folded, lo, step, atom)


def pdf_moments(pdf: VolumePdf) -> tuple[float, float]:
    """Grid mean and variance, zero atom included."""
    _check_normalized(pdf, "pdf_moments")
    mass = pdf.cell_masses()
    grid = pdf.grid()
    mean = float(np.sum(mass * grid))  # atom contributes 0 * atom
    var = float(np.sum(mass * np.square(grid - mean))) + pdf.atom_at_zero * mean * mean
    return mean, var


def interval_estimate(pdf: VolumePdf, level: float) -> tuple[float, float]:
    """Equal-tailed interval from the numerically inverted CDF."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    _check_normalized(pdf, "interval_estimate")

    mass = pdf.cell_masses()
    # CDF at cell right edges; the zero atom enters as a step at m_hat = 0
    cum = pdf.atom_at_zero + np.cumsum(mass)
    left_edges = pdf.grid() - 0.5 * pdf.grid_step

    def quantile(q: float) -> float:
        if q <= pdf.atom_at_zero:
            return 0.0
        i = int(np.searchsorted(cum, q, side="left"))
        i = min(i, mass.size - 1)
        below = cum[i] - mass[i]
        frac = (q - below) / mass[i] if mass[i] > 0.0 else 0.5
        return max(0.0, left_edges[i] + frac * pdf.grid_step)

    alpha = 0.5 * (1.0 - level)
    return quantile(alpha), quantile(1.0 - alpha)
