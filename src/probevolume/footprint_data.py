"""Footprint ingestion: CSV columns, virtual cordon crop, label filtering."""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import finite, positive, positives

log = logging.getLogger(__name__)

CSV_FIELDS = ("position_m", "speed_mps", "label")
# rows per block of write_csv: only the block's Python objects grow with it, not the text
WRITE_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Footprints:
    """Footprint columns: float64 ``positions`` and ``speeds``, one ``label`` per row.

    ``labels`` is an object array holding a string or ``None`` per row.
    The reader checks every row; of the columns only the shapes are checked
    (1-D, one length), so a hand-built ``Footprints`` may hold a non-positive
    speed, which ``crop_to_cordon`` drops and counts. Arrays have no single
    truth value, so ``==`` is identity: compare columns.
    """

    positions: np.ndarray
    speeds: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(c) for c in (self.positions, self.speeds, self.labels)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"footprint columns must be 1-D and of one length, got {shapes}")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class CordonSpec:
    """A virtual cordon: half-open interval (start, start + length].

    ``label_filter`` follows the reader's label rule: it is stripped, and a
    blank one, which no row can carry (a blank label is read as ``None``),
    raises ``ValueError``, as does one that is not a ``str``.
    """

    start: float
    length: float
    label_filter: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", finite(self.start, "cordon start"))
        object.__setattr__(self, "length", positive(self.length, "cordon length"))
        label = self.label_filter
        if label is not None:
            if not (isinstance(label, str) and label.strip()):
                raise ValueError(f"label filter must be a non-blank string, got {label!r}")
            object.__setattr__(self, "label_filter", label.strip())


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


def blank_row(row: list[str]) -> bool:
    """Whether no field of a CSV row has a non-whitespace character.

    A blank row never parses as numbers (``float`` of a blank field raises
    ``ValueError``, and a row of no fields ``IndexError``), so the readers
    ask only of a row that failed to parse, and skip it without a word.
    """
    return not "".join(row).strip()


def read_csv_rows(path: Path, columns: tuple[str, str, str], unreadable):
    """Stream a CSV file whose header is ``columns[0],columns[1][,columns[2]]``.

    Yields whether the header has the optional third column, then
    ``(line, row)`` for every row after it, blank rows included: a caller
    tests a row for blankness (``blank_row``) only when it fails to parse. A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped;
    an empty file yields nothing and any other header raises ``ValueError``.
    ``line`` counts CSV rows, the header being 1. A row the csv module cannot
    read, such as one with a field over its size limit, goes to
    ``unreadable(message, exc)`` with a line-numbered message, and reading
    goes on with the next row.
    """
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
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
        lines = itertools.count(2)
        while True:  # csv.reader goes on with the next row after a csv.Error
            try:
                yield from zip(lines, reader)  # zip takes a row's number before the row
                return
            except csv.Error as exc:
                after = next(lines)  # the unreadable row has taken after - 1
                unreadable(f"{path}:{after - 1}: unreadable row ({exc})", exc)
                lines = itertools.count(after)


def read_footprints_csv(path: str | Path, strict: bool = False) -> CsvReadResult:
    """Read footprints from CSV with header ``position_m,speed_mps[,label]``.

    One pass over the rows fills the ``Footprints`` columns: float64
    positions and speeds, and a label per row (``None`` when blank or when
    the file has no label column; one ``str`` object per distinct label).
    Blank rows are skipped silently. Rows that fail to parse, or whose
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
    # the loop's names, bound once
    isfinite, inf = math.isfinite, math.inf
    add_position, add_speed, add_label = positions.append, speeds.append, labels.append
    one_label = distinct.setdefault
    for lineno, row in rows:
        try:
            position = float(row[0])
            speed = float(row[1])
            # one comparison a row; a refused row's error is the number rule's
            if not (isfinite(position) and 0.0 < speed < inf):
                finite(position, "position")
                positive(speed, "speed")
        except (IndexError, ValueError) as exc:
            if not blank_row(row):
                skip(f"{path}:{lineno}: skipped unparseable row {row!r} ({exc})", exc)
            continue
        add_position(position)
        add_speed(speed)
        if has_label:
            label = row[2].strip() or None if len(row) > 2 else None
            add_label(one_label(label, label))  # one str per distinct label
    n = len(positions)
    # fromiter and full fill an object column without probing each item as a sequence
    labels = (np.fromiter(labels, dtype=object, count=n) if has_label
              else np.full(n, None, dtype=object))
    return CsvReadResult(Footprints(np.asarray(positions), np.asarray(speeds), labels), warnings)


class _LabelFields(dict):
    """The CSV field of each label, made by ``csv.writer`` once per distinct label.

    Made as ``_LabelFields({None: "", "": ""})``: ``None`` and ``""`` are
    written empty (a one-field row would quote them).
    """

    def __missing__(self, label: str) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow([label])
        field = self[label] = buf.getvalue()[:-2]  # less the "\r\n" terminator
        return field


def write_csv(path: str | Path, header: str, row_format: str, *columns: np.ndarray) -> None:
    """The header line, ended as ``row_format`` ends a row, then ``row_format`` per row.

    ``WRITE_BLOCK`` rows of the equal-length 1-D columns are formatted by one ``%``
    over their ``tolist()`` values (Python floats: a numpy 2 scalar's repr is
    "np.float64(...)"), with the text of formatting each row alone. A label
    column (object or ``str`` dtype) is written as ``csv.writer`` writes each label.
    """
    fields = _LabelFields({None: "", "": ""})
    is_label = [c.dtype.kind in "OU" for c in columns]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(header + row_format[len(row_format.rstrip("\r\n")) :])
        for i in range(0, len(columns[0]), WRITE_BLOCK):
            block = [c[i : i + WRITE_BLOCK].tolist() for c in columns]
            rows = zip(*[map(fields.__getitem__, b) if f else b for b, f in zip(block, is_label)])
            fh.write(row_format * len(block[0]) % tuple(itertools.chain.from_iterable(rows)))


def write_footprints_csv(path: str | Path, footprints: Footprints) -> None:
    """Write footprints at full float precision so round-trips are lossless.

    The rows are csv's: ``repr`` of each float, the label quoted as
    ``csv.writer`` quotes it, CRLF line ends.
    """
    write_csv(path, ",".join(CSV_FIELDS), "%r,%r,%s\r\n",
              footprints.positions, footprints.speeds, footprints.labels)
