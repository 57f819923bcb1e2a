"""Unbiased probe-volume estimator and its per-speed record-count quantities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .footprint_data import CordonSample


@dataclass(frozen=True)
class VolumeEstimate:
    """Estimated probe volume for one cordon sample."""

    m_hat: float
    n: int
    d: float
    t: float


def estimate_probe_volume(sample: CordonSample) -> VolumeEstimate:
    """m_hat = (t/d) * sum of in-cordon speeds.

    Uses exact compensated summation (``math.fsum``), so the result is
    bit-identical for any record ordering.
    """
    total = math.fsum(sample.speeds)
    return VolumeEstimate(
        m_hat=(sample.t / sample.d) * total,
        n=len(sample.speeds),
        d=sample.d,
        t=sample.t,
    )


# The record model: a probe at speed s leaves n = floor(r) records, r = d/(s*t),
# and one more with probability p = r - n, exact (Sterbenz): n + p == r bit for
# bit, with no snapping. The public functions check their input and take a
# scalar s (giving a Python scalar) or a float64 array (giving an array).
def _split(s, d, t):
    """(n, p) for speeds s, unchecked."""
    r = d / (s * t)
    n = np.floor(r)
    return n, r - n


def _var_term(s, d, t):
    """s^2 p (1 - p) for speeds s, unchecked: the variance integrand."""
    p = _split(s, d, t)[1]
    return s * s * p * (1.0 - p)


def _checked(core, s, d, t, kind=float):
    """core(s, d, t) once s, d, t and d/(s*t) are checked positive and finite."""
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        ok = (0.0 < s) & (s < math.inf) & (d / (s * t) < math.inf)
    if not (0.0 < d < math.inf and 0.0 < t < math.inf and np.all(ok)):
        raise ValueError(f"s, d, t and d/(s*t) must be positive and finite, got ({s}, {d}, {t})")
    out = core(s, d, t)
    return kind(out) if out.ndim == 0 else out


def min_records(s, d, t):
    """Guaranteed record count of a probe at speed s: floor(d / (s*t))."""
    return _checked(lambda *a: _split(*a)[0], s, d, t, int)


def extra_record_prob(s, d, t):
    """Probability of one extra record: d / (s*t) - min_records(s, d, t)."""
    return _checked(lambda *a: _split(*a)[1], s, d, t)


def bernoulli_var_term(s, d, t):
    """Speed-conditional variance kernel: s^2 * p * (1 - p)."""
    return _checked(_var_term, s, d, t)
