"""Exact distribution of the probe-volume estimate: variance, PDF, moments."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .estimator import _var_term, as_float, positive, positives, probe_count
from .speed_model import CUTS_PER_COMPONENT, SpeedDistribution, integrate_weighted

# The variance integral resolves the kinks s = R/j, R = d/t, of its kernel
# s^2 p (1 - p) one by one only for j = first..J, first = floor(R/upper) + 1
# being the highest kink's index. Below s_J = R/J, in r = R/s, the kernel is
# s^2 (1/6 - B2(r)), B2 the periodic Bernoulli function of order 2 (DLMF
# 24.2, 24.17), so that part of the integral is the smooth integral of
# s^2/6 times g plus Euler-Maclaurin end terms (DLMF 2.10) in the odd
# derivatives of H(r) = s^4 g(s) / R at r = J. On a support with lower > 0
# the lattice ends at J_e = floor(R/lower), with end terms there too, and
# the last partial unit (lower, R/J_e] keeps the exact kernel. J is at
# least EM_MIN_J, first and ceil(sqrt(8 R / sigma)) for each component's
# anchor scale sigma, so H varies on scales of 8 or more in r at J and
# beyond; a component whose density term is 0 in double precision at and
# below R/J (40 sd under its mean) adds nothing there and sets no bound. J
# doubles while the first end term left out, of H's 11th derivative,
# exceeds EM_TERM_TOL of the integral.
EM_MIN_J = 32
EM_TERM_TOL = 1e-17
# 2 B_2k (2k-3)! / (2k)! for k = 2..7, a column: the weight of H's Taylor
# coefficient of order 2k - 3 in the end terms; the last (k = 7) is the one left out
_EM_WEIGHTS = np.array([-1 / 360, 1 / 2520, -1 / 5040, 1 / 4752, -691 / 1801800, 1 / 936])[:, None]
# the highest order of H's Taylor coefficients taken, and the steps 1..11 (shape (11, 1, 1))
_EM_ORDER = 11
_EM_STEPS = np.arange(1.0, _EM_ORDER + 1.0)[:, None, None]

# Most quadrature pieces one variance integral is cut into, for a mixture of
# up to VARIANCE_COMPONENTS components: the J - first + 1 kink pieces, one
# at J_e, and CUTS_PER_COMPONENT fixed pieces per component (one per anchor
# cut: the centre, and two per anchor sd). Each piece gets 8 quadrature
# nodes, and the mixture density is evaluated one component at a time, so
# memory is O(nodes) whatever the component count; the time is O(nodes x
# components), and for more components the cap shrinks in proportion to
# bound it. Whatever d/t, J - first is at most a few times upper/sigma
# (under 80 on the presets), so the cap binds on the component count or a
# near-point mass (one component of sd 1e-6 at 20 m/s on (0, 40] passes it
# near d/t = 4e6); a kink index past 2**53, from d/t near 2**53 upper, is
# not an exact float. Either raises ValueError before anything is built.
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

# The transform leaves every window cell about m*eps/nfft of round-off
# (6.97e-18 a cell at pdf --m 5000 --d 300 --t 4, where m*eps/nfft is
# 6.1e-18): the fold keeps its cells from the first to the last one whose
# mass exceeds FOLD_ROUNDOFF times that. At 1 the noise of m = 4000 at step
# 1e-3 is still kept; at 100 cells of 4e-16 real mass are dropped.
FOLD_ROUNDOFF = 4.0

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
    this module builds run from their first to their last nonzero cell (an
    m-fold density, to its last cell over FOLD_ROUNDOFF's bound), on the
    lattice of cells ``k*grid_step``: ``grid_start`` is
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


def _end_terms(s0, lattice_j, R, frame):
    """Euler-Maclaurin end terms at the lattice point r = lattice_j, s0 = R/r:
    the sum of their first five, and the first one left out, per element.

    With h_n = H^(n)(r)/n! and H(r) = s^4 g(s) / R, the terms are
    _EM_WEIGHTS[k-2] * h_(2k-3) for k = 2..7. Each h_n is a finite sum over
    the Taylor coefficients of s^4 g at s0, and the mixture's derivatives
    there are g^(n) = sum of norm * phi(z) (-1)^n He_n(z) / sd^n over its
    components, whose columns the quadrature frame holds. Every sum runs in a
    fixed order over elementwise operations, so an element's terms do not
    depend on the others.
    """
    z = (s0 - frame.means) / frame.sds
    phi = np.exp(z * -0.5 * z) * frame.peaks
    live = phi > 0.0
    # where phi underflows the component adds 0; z = 0 keeps its series finite
    z[~live] = 0.0
    q = -s0 / frame.sds
    # e_n = He_n(z) q^n / n! = sum over i of (qz)^(n-2i)/(n-2i)! (-q^2/2)^i/i!
    # (DLMF 18.5.13), so that phi e_n = s0^n g^(n)(s0) / n! per component
    powers = np.empty((_EM_ORDER + 1, *z.shape))
    powers[0] = 1.0
    np.multiply.accumulate(q * z / _EM_STEPS, axis=0, out=powers[1:])
    halves = np.multiply.accumulate(q * q * -0.5 / _EM_STEPS[: _EM_ORDER // 2], axis=0)
    e, products = powers.copy(), halves[:, None] * powers
    for i, product in enumerate(products, 1):
        e[2 * i :] += product[: -2 * i]
    # b_n = s0^(n+4) g^(n)(s0) / (n! R), the components added in their order
    e *= np.where(live, phi * s0**4 / R, 0.0)
    b = kernels._add_rows(None, (e[:, c] for c in range(z.shape[0])))
    # u_m = s0^m F^(m)(s0) / (m! R) for F = s^4 g: b times (1 + y)^4
    u, products = b.copy(), np.array((4.0, 6.0, 4.0, 1.0))[:, None, None] * b
    for i, product in enumerate(products, 1):
        u[i:] += product[:-i]
    # v_k = sum over m of C(k-1, m-1) u_m by Pascal's rule, two rows of the
    # triangle a step, as only odd k are taken; and h_k = -v_k / r^k
    u, v = u[1:], np.empty((_EM_ORDER // 2 + 1, *u.shape[1:]))
    for k in range(v.shape[0]):
        v[k], u = u[0], u[:-1] + u[1:]
        u = u[:-1] + u[1:]
    terms = _EM_WEIGHTS * (-v / lattice_j ** _EM_STEPS[::2, 0])
    return terms[4] + terms[3] + terms[2] + terms[1] + terms[0], terms[5]


def _variance_integrals(d, t, R, J, Je, kinks, dist):
    """The variance integrals for cordon lengths d (R = d/t), with kinks[i]
    kink pieces resolved down from J, each with its first omitted end term.

    One integrate_weighted pass takes them all: the exact kernel above R/J
    and below R/Je, the kernel's cycle mean s^2/6 between (empty where J =
    Je), and the end terms are subtracted after. It runs under vmr's
    errstate, which lets R/Je divide by a Je of 0.
    """
    lattice = J < Je
    end = lattice & (Je < math.inf)
    top, bottom = R / J, R / Je
    # ascending: R/Je where the lattice ends above lower, then R/J, R/(J-1), ...:
    # J less each piece's index in its integral (less end), exact below 2**53
    owner, starts = np.arange(d.size).repeat(kinks), kinks.cumsum() - kinks
    j = J[owner] - (np.arange(owner.size) - (starts + end)[owner])
    points = R[owner] / j
    points[starts[end]] = bottom[end]

    def weight(s, of):  # s: a row of nodes per piece; of: each piece's integral
        smooth = (bottom[of, None] < s) & (s < top[of, None])
        return np.where(smooth, s * s / 6.0, _var_term(s, d[of, None], t))

    integral = integrate_weighted(dist, weight, points, kinks)
    # the end terms at J, less those at Je where the lattice ends above lower:
    # _end_terms is elementwise, so one call takes both sets of points; at J,
    # where J = Je, the term is absent and 0.0 taken off (x - 0.0 is x bit for bit)
    n, point, ratio = d.size, np.concatenate((J, Je[end])), np.concatenate((R, R[end]))
    kept, left = _end_terms(ratio / point, point, ratio, dist.frame)
    integral = integral - np.where(lattice, kept[:n], 0.0)
    omitted = 0.0 + np.where(lattice, left[:n], -0.0)
    integral[end] += kept[n:]
    omitted[end] -= left[n:]
    return integral, omitted


def vmr(d, t: float, dist: SpeedDistribution):
    """Variance-to-mean ratio of the estimate, independent of m:
    (t^2 / d^2) * integral of bernoulli_var_term(s, d, t) g(s) ds.

    ``d`` may also be a 1-D array of cordon lengths: the ratios come back as
    an array, each the bits the call for that d alone gives. Every d is
    checked before any is integrated, and they are integrated a chunk of
    about ``kernels.CHUNK_PIECES`` pieces at a time.
    """
    shape = np.shape(d)
    if len(shape) > 1:
        raise ValueError(f"d must be a number or a 1-D array, got shape {shape}")
    d, t = positives(d, "d").reshape(-1), positive(t, "t")
    frame = dist.frame
    # for small d/t, the VMR is about (t/d) E[s - d/t]: infinite with t/d
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        over = t / d == math.inf
        if over.any():
            raise ValueError(f"the variance at d={d[over][0]}, t={t} is not finite")
        R = d / t
        first = np.floor(R / dist.upper) + 1.0
        # each component bounds J by its anchor scale, unless its density term
        # is 0 in double precision at and below R/J (R/0 is inf: no such speed)
        bound = np.minimum(np.sqrt(8.0 * R / frame.scales), R / frame.zero_below)
        J = np.maximum(np.ceil(bound.max(axis=0, initial=EM_MIN_J)), first)
        Je = R * math.inf  # inf everywhere, as R > 0
        if dist.lower > 0.0:
            # the last whole unit, R/Je >= lower; past 2**53 no longer an exact float
            Je = np.floor(R / dist.lower)
            Je -= R / Je < dist.lower
            Je[Je >= 2.0**53] = math.inf
            J = np.minimum(J, Je)
        integral, todo = np.empty_like(R), np.arange(d.size)
        while todo.size:
            kinks, pieces = _kink_pieces(d[todo], t, first[todo], J[todo], Je[todo], dist)
            total, omitted, start = pieces.cumsum(), np.empty(todo.size), 0
            while start < todo.size:
                limit = total[start] - pieces[start] + kernels.CHUNK_PIECES  # from its first
                stop = max(int(total.searchsorted(limit, "right")), start + 1)
                c = todo[start:stop]
                integral[c], omitted[start:stop] = _variance_integrals(
                    d[c], t, R[c], J[c], Je[c], kinks[start:stop], dist
                )
                start = stop
            # J doubles where the first end term left out is too large
            todo = todo[np.abs(omitted) > EM_TERM_TOL * np.abs(integral[todo])]
            if todo.size:
                J[todo] = np.minimum(2.0 * J[todo], Je[todo])
        # t and d enter as mantissa times a power of two, which is exact: the
        # result is t^2 / d^2 times the integral to the last bit wherever that
        # product does not over- or underflow, and d*d cannot underflow
        (tm, te), (dm, de) = math.frexp(t), np.frexp(d)
        out = np.ldexp((tm * tm) / (dm * dm) * integral, 2 * (te - de))
    infinite = ~np.isfinite(out)
    if infinite.any():
        raise ValueError(f"the variance at d={d[infinite][0]}, t={t} is not finite")
    return float(out[0]) if not shape else out


def _kink_pieces(d, t, first, J, Je, dist):
    """Each integral's kink pieces, first to J and one at Je where the lattice ends
    above lower, and all its pieces, once all are under the cap; ValueError naming
    the first d over it."""
    kinks = np.maximum(J - first + 1.0, 0.0).astype(np.int64) + ((J < Je) & (Je < math.inf))
    k = len(dist.components)
    pieces = kinks + (k * CUTS_PER_COMPONENT + 1)
    cap = MAX_VARIANCE_PIECES * VARIANCE_COMPONENTS // max(k, VARIANCE_COMPONENTS)
    # past 2**53 a kink index is no longer an exact float
    if not ((J < 2.0**53) & (pieces < cap)).all():
        if (inexact := ~(J < 2.0**53)).any():
            raise ValueError(f"variance at d={d[inexact][0]}, t={t} has kink indices past 2**53")
        raise ValueError(
            f"variance at d={d[~(pieces < cap)][0]}, t={t} needs over {cap} quadrature pieces "
            f"(kink pieces and {CUTS_PER_COMPONENT} per component) for a mixture of {k} components"
        )
    return kinks, pieces


def precision_report(m: int, d: float, t: float, dist: SpeedDistribution) -> PrecisionReport:
    """Mean m, variance m * vmr and CV sqrt(vmr / m) for m probes.
    ValueError where they are not finite floats."""
    m, ratio = probe_count(m), vmr(d, t, dist)  # vmr checks d and t
    return moments_report(m, float(d), float(t), ratio)


def moments_report(m: int, d, t: float, ratio) -> PrecisionReport:
    """The moments of m >= 1 probes whose VMR is ``ratio``: the one place a
    VMR becomes moments, for precision_report and the cv objective alike. A
    curve's arrays of d and ratio give arrays, each element the bits of its own
    call, and ValueError names the first d whose variance is not finite."""
    try:
        mean = float(m)
    except OverflowError:  # m past the float range
        mean = math.inf
    ratios = np.asarray(ratio)
    with np.errstate(over="ignore", invalid="ignore"):
        var, cv_m = mean * ratios, np.sqrt(ratios / mean)
    if not (finite := np.isfinite(var)).all():
        d = np.asarray(d)[~finite].flat[0]
        raise ValueError(f"the variance for m={m} probes at d={d}, t={t} is not finite")
    if not ratios.ndim:
        var, cv_m = float(var), float(cv_m)
    return PrecisionReport(m=m, d=d, t=t, mean=mean, variance=var, vmr=ratio, cv=cv_m)


def variance(m: int, d: float, t: float, dist: SpeedDistribution) -> float:
    """Var[m_hat] = m * vmr: precision_report's, or 0.0 for m = 0 where vmr is finite."""
    m = probe_count(m, least=0)
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
    d, t, grid_step = positive(d, "d"), positive(t, "t"), positive(grid_step, "grid_step")
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
        d,
        t,
        grid_step,
        n_cells,
        u_max,
    )
    # CDF differences are nonnegative up to rounding; clamp the few ulps
    np.clip(masses, 0.0, None, out=masses)
    return _trimmed(masses, 0, grid_step, max(float(atom), 0.0), 0.0)


def _trimmed(
    masses: np.ndarray, first_cell: int, step: float, atom: float, floor: float
) -> VolumePdf:
    """The density of cell masses from lattice cell first_cell on, kept from
    its first to its last cell whose mass exceeds floor (its first cell if
    none does); the cells between are kept as they are."""
    over = np.flatnonzero(masses > floor)
    lo, hi = (int(over[0]), int(over[-1])) if over.size else (0, 0)
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


def _fast_len(n: int) -> int:
    """The least 2*3*5-smooth integer >= n >= 1, as scipy's next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of 2 that reaches n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    are read off at their residues. They are kept from the first to the last
    one over the transform's round-off bound (see FOLD_ROUNDOFF).
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

    nfft = _fast_len(hi - lo + 1)
    spectrum = np.bincount(cells % nfft, masses, minlength=nfft)
    spectrum[0] += q
    folded = np.fft.irfft(np.fft.rfft(spectrum) ** m, nfft)
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
    return _trimmed(folded, lo, step, atom, FOLD_ROUNDOFF * m * np.finfo(float).eps / nfft)


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
    if not 0.0 < (value := as_float(level)) < 1.0:
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

    alpha = 0.5 * (1.0 - value)
    return quantile(alpha), quantile(1.0 - alpha)
