"""Footprint ingestion: CSV records, virtual cordon crop, label filtering."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)

CSV_FIELDS = ("position_m", "speed_mps", "label")


@dataclass(frozen=True)
class FootprintRecord:
    """One recorded point datum: position along the segment axis plus speed.

    No probe identifier exists; an optional nominal label tags the recording
    window (for example "july-2023").
    """

    position: float
    speed: float
    label: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.position):
            raise ValueError(f"position must be finite, got {self.position}")
        if not (0.0 < self.speed < math.inf):
            raise ValueError(f"speed must be positive and finite, got {self.speed}")


@dataclass(frozen=True)
class CordonSpec:
    """A virtual cordon: half-open interval (start, start + length]."""

    start: float
    length: float
    label_filter: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.start):
            raise ValueError(f"cordon start must be finite, got {self.start}")
        if not (0.0 < self.length < math.inf):
            raise ValueError(f"cordon length must be positive and finite, got {self.length}")


@dataclass(frozen=True)
class CordonSample:
    """Speed readings captured inside one cordon for one observation window."""

    speeds: tuple[float, ...]
    d: float
    t: float

    def __post_init__(self):
        if not (0.0 < self.d < math.inf):
            raise ValueError(f"d must be positive and finite, got {self.d}")
        if not (0.0 < self.t < math.inf):
            raise ValueError(f"t must be positive and finite, got {self.t}")
        if any(s <= 0.0 for s in self.speeds):
            raise ValueError("all sampled speeds must be positive")


@dataclass(frozen=True)
class CropResult:
    sample: CordonSample
    dropped_nonpositive: int = 0


def crop_to_cordon(records, cordon: CordonSpec, t: float) -> CropResult:
    """Keep records with start < position <= start + length and matching label.

    In-cordon records with non-positive speed are dropped and counted in
    ``dropped_nonpositive``. A ``FootprintRecord`` cannot hold such a speed,
    so ``read_footprints_csv`` skips those rows and lists them in its
    warnings (the first one raises under ``strict``); for CSV input the count
    is therefore 0, and only duck-typed records can reach the drop.
    """
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be positive and finite, got {t}")
    lo = cordon.start
    hi = cordon.start + cordon.length
    kept: list[float] = []
    dropped = 0
    for rec in records:
        if cordon.label_filter is not None and rec.label != cordon.label_filter:
            continue
        if not (lo < rec.position <= hi):
            continue
        if rec.speed <= 0.0:
            dropped += 1
            continue
        kept.append(rec.speed)
    if dropped:
        log.warning("dropped %d in-cordon records with non-positive speed", dropped)
    return CropResult(
        sample=CordonSample(speeds=tuple(kept), d=cordon.length, t=t),
        dropped_nonpositive=dropped,
    )


@dataclass
class CsvReadResult:
    records: list[FootprintRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def read_csv_rows(path: Path, columns: tuple[str, str, str], unreadable):
    """Stream a CSV file whose header is ``columns[0],columns[1][,columns[2]]``.

    Yields whether the header has the optional third column, then
    ``(line, row)`` for each data row that is not blank; an empty file yields
    nothing and any other header raises ``ValueError``. A row the csv module
    cannot read, such as one with a field over its size limit, goes to
    ``unreadable(message, exc)`` with a line-numbered message, and reading
    goes on with the next row.
    """
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}:1: unreadable header ({exc})") from exc
        if header is None:
            return
        header = [h.strip() for h in header]
        if header[:2] != list(columns[:2]):
            raise ValueError(
                f"{path}: expected header {columns[0]},{columns[1]}[,{columns[2]}], "
                f"got {','.join(header)}"
            )
        yield header[2:3] == [columns[2]]
        lineno = 1
        while True:  # csv.reader goes on with the next row after a csv.Error
            try:
                for row in reader:
                    lineno += 1
                    if "".join(row).strip():
                        yield lineno, row
                return
            except csv.Error as exc:
                lineno += 1
                unreadable(f"{path}:{lineno}: unreadable row ({exc})", exc)


def read_footprints_csv(path: str | Path, strict: bool = False) -> CsvReadResult:
    """Read footprints from CSV with header ``position_m,speed_mps[,label]``.

    Rows that fail to parse are skipped and reported with their line number;
    with ``strict=True`` the first bad row raises instead.
    """
    result = CsvReadResult()
    path = Path(path)

    def skip(msg: str, exc: Exception) -> None:
        if strict:
            raise ValueError(msg) from exc
        result.warnings.append(msg)
        log.warning("%s", msg)

    rows = read_csv_rows(path, CSV_FIELDS, skip)
    has_label = next(rows, False)
    for lineno, row in rows:
        try:
            position = float(row[0])
            speed = float(row[1])
            label = row[2].strip() or None if has_label and len(row) > 2 else None
            result.records.append(FootprintRecord(position, speed, label))
        except (IndexError, ValueError) as exc:
            skip(f"{path}:{lineno}: skipped unparseable row {row!r} ({exc})", exc)
    return result


def write_footprints_csv(path: str | Path, records) -> None:
    """Write footprints at full float precision so round-trips are lossless."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            # float() first: under numpy 2 the repr of a numpy scalar is
            # "np.float64(...)", which no CSV reader parses as a number
            position, speed = float(rec.position), float(rec.speed)
            writer.writerow([repr(position), repr(speed), rec.label or ""])
