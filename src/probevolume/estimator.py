"""Unbiased probe-volume estimator, its per-speed record-count quantities, and
the library's one number check, which every length, interval, speed and count passes."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def is_number(x) -> bool:
    """A Python, numpy or other real; never a boolean (True is no 1), a string or None."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


def as_float(x) -> float:
    """x as a float (a float32 computes as float64), NaN where it is no number."""
    return float(x) if is_number(x) else math.nan


def finite(x, name: str) -> float:
    """x as a float once it is a finite number, else ValueError naming it."""
    if not math.isfinite(value := as_float(x)):
        raise ValueError(f"{name} must be finite, got {x}")
    return value


def positive(x, name: str) -> float:
    """x as a float once it is a positive finite number, else ValueError."""
    if not 0.0 < (value := as_float(x)) < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return value


def _each(check, low: float, x, name: str) -> np.ndarray:
    """x, a number or an array or sequence of them, as a float64 array of its shape once
    check(v, name) takes each v, a check that takes exactly the floats in (low, inf): a
    float or integer ndarray tested whole, else each element."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu"):
        if is_number(x):
            return np.array(check(x, name))
        x = np.array(x, dtype=object)
        return np.array([check(v, name) for v in x.flat], dtype=np.float64).reshape(x.shape)
    x = np.asarray(x, dtype=np.float64)
    if not (ok := (low < x) & (x < math.inf)).all():
        check(x[~ok][0], name)  # raises, naming the first refused value
    return x


def finites(x, name: str) -> np.ndarray:
    """``finite`` of each number of x, as a float64 array of its shape (see ``_each``)."""
    return _each(finite, -math.inf, x, name)


def positives(x, name: str) -> np.ndarray:
    """``positive`` of each number of x, as a float64 array of its shape (see ``_each``)."""
    return _each(positive, 0.0, x, name)


def probe_count(m, least: int = 1, name: str = "m") -> int:
    """m as an int, once it is an integer >= least: the one probe-count check.

    An integral float or numpy scalar passes (2.0 gives 2); a boolean, a
    string, None and any other value, NaN and infinity included, raise ValueError.
    """
    if not (is_number(m) and least <= m < math.inf and m % 1 == 0):
        raise ValueError(f"{name} must be an integer >= {least}, got {m}")
    return int(m)


@dataclass(frozen=True)
class VolumeEstimate:
    """Estimated probe volume for one cordon sample."""

    m_hat: float
    n: int
    d: float
    t: float


def estimate_probe_volume(sample) -> VolumeEstimate:
    """m_hat = (t/d) * sum of the in-cordon speeds of a ``CordonSample``.

    Uses exact compensated summation (``math.fsum``), so the result is
    bit-identical for any record ordering. A sum or m_hat past the float
    range raises ValueError.
    """
    try:
        total = math.fsum(memoryview(sample.speeds))  # Python floats, faster than numpy scalars
    except OverflowError as exc:
        raise ValueError("cannot estimate: the in-cordon speeds sum past the float range") from exc
    if not math.isfinite(m_hat := (sample.t / sample.d) * total):
        raise ValueError(f"m_hat = (t/d) * {total} at t={sample.t}, d={sample.d} is not finite")
    return VolumeEstimate(
        m_hat=m_hat,
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
    s, d, t = positives(s, "s"), positive(d, "d"), positive(t, "t")
    with np.errstate(divide="ignore", over="ignore"):
        if not np.all(d / (s * t) < math.inf):
            raise ValueError(f"d/(s*t) must be finite, got ({s}, {d}, {t})")
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
