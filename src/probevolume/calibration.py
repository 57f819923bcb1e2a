"""Through-origin calibration of probe volumes against known traffic volumes."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .estimator import finite, positive
from .footprint_data import read_csv_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CalibrationPair:
    """One (estimated probe volume, known traffic volume) observation.

    ``weight`` defaults to 1 (ordinary least squares); inverse-VMR weights
    give the heteroscedasticity-aware fit.
    """

    m_hat: float
    known_volume: float
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m_hat", finite(self.m_hat, "m_hat"))
        object.__setattr__(self, "known_volume", positive(self.known_volume, "known_volume"))
        object.__setattr__(self, "weight", positive(self.weight, "weight"))


@dataclass(frozen=True)
class CalibrationModel:
    beta: float
    method: str  # "ols" | "wls"


def read_pairs_csv(path: str | Path, weighted: bool) -> list[CalibrationPair]:
    """Read calibration pairs from CSV with header ``m_hat,adt[,weight]``.

    Weights are read only when ``weighted``, which needs the weight column;
    otherwise every weight is 1. A bad or unreadable row raises
    ``ValueError`` with its line number.
    """
    path = Path(path)

    def bad(msg: str, exc: Exception) -> None:
        raise ValueError(msg) from exc

    rows = read_csv_rows(path, ("m_hat", "adt", "weight"), bad)
    has_weight = next(rows, False)
    if weighted and not has_weight:
        raise ValueError("wls calibration needs a weight column")
    pairs = []
    for lineno, row in rows:
        try:
            weight = float(row[2]) if weighted else 1.0
            pairs.append(CalibrationPair(float(row[0]), float(row[1]), weight))
        except (IndexError, ValueError) as exc:
            bad(f"{path}:{lineno}: bad row {row!r} ({exc})", exc)
    return pairs


def fit_through_origin(pairs: Sequence[CalibrationPair], method: str) -> CalibrationModel:
    """beta = sum(w x y) / sum(w x^2); OLS is the all-weights-equal case.

    ``method``, "ols" or "wls", only labels the model.
    """
    if not pairs:
        raise ValueError("need at least one calibration pair")
    zeros = sum(1 for p in pairs if p.m_hat == 0.0)
    if zeros:
        log.warning("%d calibration pairs have m_hat = 0 and do not constrain the fit", zeros)
    if zeros == len(pairs):
        raise ValueError("cannot fit: every pair has m_hat = 0")
    try:
        sxy = math.fsum(p.weight * p.m_hat * p.known_volume for p in pairs)
        sxx = math.fsum(p.weight * p.m_hat * p.m_hat for p in pairs)
    except (OverflowError, ValueError) as exc:  # ValueError: inf - inf
        raise ValueError("cannot fit: weighted normal equation overflowed") from exc
    if sxx == 0.0:
        raise ValueError("cannot fit: weighted normal equation underflowed")
    beta = sxy / sxx
    if not (math.isfinite(sxx) and math.isfinite(beta)):
        raise ValueError("cannot fit: weighted normal equation overflowed")
    if method not in ("ols", "wls"):
        raise ValueError(f"method must be 'ols' or 'wls', got {method!r}")
    return CalibrationModel(beta=beta, method=method)
