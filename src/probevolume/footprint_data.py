"""Footprint ingestion: CSV columns, virtual cordon crop, label filtering."""

from __future__ import annotations

import csv
import io
import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import finite, positive, positives

log = logging.getLogger(__name__)

CSV_FIELDS = ("position_m", "speed_mps", "label")
# rows per block of both CSV writers (here and data_cli): the text is that of
# writing row by row at any block size; only the block's Python objects grow
WRITE_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Footprints:
    """Footprint columns: float64 ``positions`` and ``speeds``, one ``label`` per row.

    ``labels`` is an object array holding a string or ``None`` per row.
    The reader checks every row; the columns themselves are not checked, so a
    hand-built ``Footprints`` may hold a non-positive speed, which
    ``crop_to_cordon`` drops and counts. Arrays have no single truth value,
    so ``==`` is identity: compare columns.
    """

    positions: np.ndarray
    speeds: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class CordonSpec:
    """A virtual cordon: half-open interval (start, start + length]."""

    start: float
    length: float
    label_filter: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", finite(self.start, "cordon start"))
        object.__setattr__(self, "length", positive(self.length, "cordon length"))


@dataclass(frozen=True, eq=False)
class CordonSample:
    """Speed readings captured inside one cordon for one observation window: a
    float64 column of positive finite speeds. As for ``Footprints``, ``==`` is identity."""

    speeds: np.ndarray
    d: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "d", positive(self.d, "d"))
        object.__setattr__(self, "t", positive(self.t, "t"))
        object.__setattr__(self, "speeds", positives(self.speeds, "speed").reshape(-1))


@dataclass(frozen=True)
class CropResult:
    sample: CordonSample
    dropped_nonpositive: int = 0


def crop_to_cordon(footprints: Footprints, cordon: CordonSpec, t: float) -> CropResult:
    """Keep footprints with start < position <= start + length and matching label.

    One numpy mask over the columns. In-cordon footprints with non-positive
    speed are dropped and counted in ``dropped_nonpositive``, and a NaN or
    infinite one raises ``ValueError`` as ``CordonSample`` does; the reader
    rejects both, so only a hand-built ``Footprints`` can reach them.
    """
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
        sample=CordonSample(speeds=speeds, d=cordon.length, t=t),
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
    the file has no label column). Rows that fail to parse, or whose
    position is not finite or speed not positive and finite, are skipped
    and reported with their line number; with ``strict=True`` the first bad
    row raises instead.
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
            # one comparison a row; a refused row's error is the number rule's
            if not (math.isfinite(position) and 0.0 < speed < math.inf):
                finite(position, "position")
                positive(speed, "speed")
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


class _LabelFields(dict):
    """The CSV field of each label, made by ``csv.writer`` once per distinct label.

    ``None`` and ``""`` are written empty (a one-field row would quote them).
    """

    def __init__(self):
        super().__init__({None: "", "": ""})

    def __missing__(self, label: str) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow([label])
        field = self[label] = buf.getvalue()[:-2]  # less the "\r\n" terminator
        return field


def write_footprints_csv(path: str | Path, footprints: Footprints) -> None:
    """Write footprints at full float precision so round-trips are lossless.

    The rows are csv's: ``repr`` of each float, the label quoted as
    ``csv.writer`` quotes it, CRLF line ends. They go out in blocks of
    ``WRITE_BLOCK``, one ``writelines`` each, over ``tolist()`` of the
    columns: Python floats, since under numpy 2 the repr of a numpy scalar
    is "np.float64(...)", which no CSV reader parses as a number.
    """
    fields = _LabelFields()
    row = "%r,%r,%s\r\n".__mod__
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_FIELDS) + "\r\n")
        for start in range(0, len(footprints), WRITE_BLOCK):
            block = slice(start, start + WRITE_BLOCK)
            labels = map(fields.__getitem__, footprints.labels[block].tolist())
            positions = footprints.positions[block].tolist()
            fh.writelines(map(row, zip(positions, footprints.speeds[block].tolist(), labels)))
