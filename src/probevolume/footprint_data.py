"""Footprint ingestion: CSV columns, virtual cordon crop, label filtering."""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

CSV_FIELDS = ("position_m", "speed_mps", "label")


def _check_footprint(position: float, speed: float) -> None:
    """Raise ``ValueError`` unless position is finite and speed in (0, inf)."""
    if not math.isfinite(position):
        raise ValueError(f"position must be finite, got {position}")
    if not (0.0 < speed < math.inf):
        raise ValueError(f"speed must be positive and finite, got {speed}")


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
        _check_footprint(self.position, self.speed)


@dataclass(frozen=True, eq=False)
class Footprints:
    """Footprint columns: float64 ``positions`` and ``speeds``, one ``label`` per row.

    ``labels`` is an object array holding a string or ``None`` per row.
    Arrays have no single truth value, so ``==`` is identity: compare columns.
    """

    positions: np.ndarray
    speeds: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def from_records(cls, records) -> Footprints:
        """The columns of records with ``position``, ``speed`` and ``label``.

        The values are not checked: duck-typed records with a non-positive
        speed pass, for ``crop_to_cordon`` to drop and count.
        """
        records = list(records)
        return cls(
            np.array([r.position for r in records], dtype=np.float64),
            np.array([r.speed for r in records], dtype=np.float64),
            np.array([r.label for r in records], dtype=object),
        )


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


def crop_to_cordon(footprints, cordon: CordonSpec, t: float) -> CropResult:
    """Keep footprints with start < position <= start + length and matching label.

    ``footprints`` is a ``Footprints`` (as read by ``read_footprints_csv``) or
    any iterable of records with ``position``, ``speed`` and ``label``; the
    latter goes through ``Footprints.from_records`` once, so both take this
    one crop: a numpy mask over the columns. In-cordon footprints with
    non-positive speed are dropped and counted in ``dropped_nonpositive``.
    The reader and ``FootprintRecord`` reject such a speed, so only
    duck-typed records can reach the drop.
    """
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not isinstance(footprints, Footprints):
        footprints = Footprints.from_records(footprints)
    positions = footprints.positions
    keep = (positions > cordon.start) & (positions <= cordon.start + cordon.length)
    if cordon.label_filter is not None:
        keep &= footprints.labels == cordon.label_filter
    speeds = footprints.speeds[keep]
    nonpositive = speeds <= 0.0
    dropped = int(np.count_nonzero(nonpositive))
    if dropped:
        log.warning("dropped %d in-cordon records with non-positive speed", dropped)
        speeds = speeds[~nonpositive]
    return CropResult(
        sample=CordonSample(speeds=tuple(speeds.tolist()), d=cordon.length, t=t),
        dropped_nonpositive=dropped,
    )


@dataclass
class CsvReadResult:
    records: Footprints
    warnings: list[str]


def read_csv_rows(path: Path, columns: tuple[str, str, str], unreadable):
    """Stream a CSV file whose header is ``columns[0],columns[1][,columns[2]]``.

    Yields whether the header has the optional third column, then
    ``(line, row)`` for each data row that is not blank; an empty file yields
    nothing and any other header raises ``ValueError``. ``line`` counts CSV
    rows, the header being 1. A row the csv module cannot read, such as one
    with a field over its size limit, goes to ``unreadable(message, exc)``
    with a line-numbered message, and reading goes on with the next row.
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
        start = 2
        while True:  # csv.reader goes on with the next row after a csv.Error
            lineno = start - 1
            try:
                for lineno, row in enumerate(reader, start):
                    # blank: no field has a non-whitespace character
                    if row and (row[0].strip() or "".join(row).strip()):
                        yield lineno, row
                return
            except csv.Error as exc:
                unreadable(f"{path}:{lineno + 1}: unreadable row ({exc})", exc)
                start = lineno + 2


def read_footprints_csv(path: str | Path, strict: bool = False) -> CsvReadResult:
    """Read footprints from CSV with header ``position_m,speed_mps[,label]``.

    One pass over the rows fills the ``Footprints`` columns: float64
    positions and speeds, and a label per row (``None`` when blank or when
    the file has no label column). Rows that fail to parse or fail the
    ``FootprintRecord`` checks are skipped and reported with their line
    number; with ``strict=True`` the first bad row raises instead.
    """
    path = Path(path)
    warnings: list[str] = []

    def skip(msg: str, exc: Exception) -> None:
        if strict:
            raise ValueError(msg) from exc
        warnings.append(msg)
        log.warning("%s", msg)

    positions, speeds, labels = array("d"), array("d"), []
    distinct: dict[str | None, str | None] = {}
    rows = read_csv_rows(path, CSV_FIELDS, skip)
    has_label = next(rows, False)
    for lineno, row in rows:
        try:
            position = float(row[0])
            speed = float(row[1])
            _check_footprint(position, speed)
        except (IndexError, ValueError) as exc:
            skip(f"{path}:{lineno}: skipped unparseable row {row!r} ({exc})", exc)
            continue
        positions.append(position)
        speeds.append(speed)
        if has_label:
            label = row[2].strip() or None if len(row) > 2 else None
            labels.append(distinct.setdefault(label, label))  # one str per distinct label
    if not has_label:
        labels = [None] * len(positions)
    labels = np.array(labels, dtype=object)
    return CsvReadResult(Footprints(np.asarray(positions), np.asarray(speeds), labels), warnings)


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
