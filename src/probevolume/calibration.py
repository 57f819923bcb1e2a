"""Through-origin calibration of probe volumes against known traffic volumes."""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import finite, finites, positive, positives
from .footprint_data import blank_row, read_csv_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CalibrationModel:
    beta: float
    method: str  # "ols" | "wls"


def read_pairs_csv(path: str | Path, weighted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read calibration pairs from CSV with header ``m_hat,adt[,weight]``.

    Returns float64 columns ``(m_hat, adt, weight)``, one row per pair: a
    finite ``m_hat``, a positive finite known volume and a positive finite
    weight. Weights are read only when ``weighted``, which needs the weight
    column; otherwise every weight is 1. Blank rows are skipped; a bad or
    unreadable row raises ``ValueError`` with its line number.
    """
    path = Path(path)

    def bad(msg: str, exc: Exception) -> None:
        raise ValueError(msg) from exc

    rows = read_csv_rows(path, ("m_hat", "adt", "weight"), bad)
    has_weight = next(rows, False)
    if weighted and not has_weight:
        raise ValueError("wls calibration needs a weight column")
    m_hats, adts, weights = array("d"), array("d"), array("d")
    # the loop's names, bound once
    isfinite, inf = math.isfinite, math.inf
    add_m_hat, add_adt, add_weight = m_hats.append, adts.append, weights.append
    for lineno, row in rows:
        try:
            weight = float(row[2]) if weighted else 1.0
            m_hat = float(row[0])
            adt = float(row[1])
            # one comparison a row; a refused row's error is the number rule's
            if not (isfinite(m_hat) and 0.0 < adt < inf and 0.0 < weight < inf):
                finite(m_hat, "m_hat")
                positive(adt, "known_volume")
                positive(weight, "weight")
        except (IndexError, ValueError) as exc:
            if not blank_row(row):
                bad(f"{path}:{lineno}: bad row {row!r} ({exc})", exc)
            continue
        add_m_hat(m_hat)
        add_adt(adt)
        add_weight(weight)
    return np.asarray(m_hats), np.asarray(adts), np.asarray(weights)


def fit_through_origin(m_hat, known_volume, weight, method: str) -> CalibrationModel:
    """beta = sum(w x y) / sum(w x^2); OLS is the all-weights-equal case.

    ``m_hat`` (finite), ``known_volume`` and ``weight`` (positive and finite)
    are equal-length 1-D columns, one pair a row; ``method``, "ols" or
    "wls", only labels the model.
    """
    if method not in ("ols", "wls"):
        raise ValueError(f"method must be 'ols' or 'wls', got {method!r}")
    x = finites(m_hat, "m_hat")
    y = positives(known_volume, "known_volume")
    w = positives(weight, "weight")
    if not (x.ndim == y.ndim == w.ndim == 1 and len(x) == len(y) == len(w)):
        raise ValueError(
            "m_hat, known_volume and weight must be 1-D columns of one length, "
            f"got shapes {x.shape}, {y.shape} and {w.shape}"
        )
    if not len(x):
        raise ValueError("need at least one calibration pair")
    zeros = len(x) - int(np.count_nonzero(x))
    if zeros:
        log.warning("%d calibration pairs have m_hat = 0 and do not constrain the fit", zeros)
    if zeros == len(x):
        raise ValueError("cannot fit: every pair has m_hat = 0")
    try:
        with np.errstate(over="ignore"):  # an infinite product is caught below
            sxy = math.fsum(memoryview(w * x * y))
            sxx = math.fsum(memoryview(w * x * x))
    except (OverflowError, ValueError) as exc:  # ValueError: inf - inf
        raise ValueError("cannot fit: weighted normal equation overflowed") from exc
    if sxx == 0.0:
        raise ValueError("cannot fit: weighted normal equation underflowed")
    beta = sxy / sxx
    if not (math.isfinite(sxx) and math.isfinite(beta)):
        raise ValueError("cannot fit: weighted normal equation overflowed")
    return CalibrationModel(beta=beta, method=method)
