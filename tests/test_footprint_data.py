import csv
import logging
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probevolume.calibration import read_pairs_csv
from probevolume.estimator import estimate_probe_volume
from probevolume.footprint_data import (
    CSV_FIELDS,
    WRITE_BLOCK,
    CordonSample,
    CordonSpec,
    Footprints,
    crop_to_cordon,
    read_footprints_csv,
    write_footprints_csv,
)
from probevolume.probe_simulator import ScenarioConfig, simulate_footprints
from probevolume.speed_model import load_distribution

from conftest import count_calls

# one footprint of the per-row oracles below; rows may be plain (position, speed, label)
_Record = namedtuple("_Record", "position speed label")


def _records(positions, speed=20.0, label=None):
    return [_Record(p, speed, label) for p in positions]


def _footprints(rows, dtype=np.float64):
    """Hand-built columns of (position, speed, label) rows; the values are not checked."""
    rows = list(rows)
    return Footprints(
        np.array([p for p, _, _ in rows], dtype=dtype),
        np.array([s for _, s, _ in rows], dtype=dtype),
        np.array([label for _, _, label in rows], dtype=object),
    )


def assert_columns(footprints, rows):
    """The columns hold exactly ``rows`` of (position, speed, label): float64, bit for bit."""
    positions = np.array([p for p, _, _ in rows], dtype=np.float64)
    speeds = np.array([s for _, s, _ in rows], dtype=np.float64)
    assert footprints.positions.dtype == footprints.speeds.dtype == np.float64
    assert footprints.positions.tobytes() == positions.tobytes()
    assert footprints.speeds.tobytes() == speeds.tobytes()
    assert footprints.labels.tolist() == [label for _, _, label in rows]
    assert len(footprints) == len(rows)


def assert_speeds(sample, speeds):
    """The sample's speed column is float64 and holds exactly ``speeds``, bit for bit."""
    assert sample.speeds.dtype == np.float64 and sample.speeds.shape == (len(speeds),)
    assert sample.speeds.tobytes() == np.array(speeds, dtype=np.float64).tobytes()


class TestCrop:
    def test_eight_point_cordon(self):
        # two probes: five points at 20 m/s and three at 30 m/s inside (0, 100]
        rows = _records([10, 30, 50, 70, 90], speed=20.0) + _records([25, 55, 85], speed=30.0)
        result = crop_to_cordon(_footprints(rows), CordonSpec(0.0, 100.0), t=1.0)
        assert len(result.sample.speeds) == 8
        assert result.sample.d == 100.0

    def test_empty(self):
        result = crop_to_cordon(_footprints([]), CordonSpec(0.0, 100.0), t=1.0)
        assert_speeds(result.sample, ())

    def test_half_open_boundaries(self):
        # hand enumeration under (start, start+length]: only 50 and 100 stay
        rows = _records([-5.0, 0.0, 50.0, 100.0, 100.1])
        result = crop_to_cordon(_footprints(rows), CordonSpec(0.0, 100.0), t=1.0)
        assert len(result.sample.speeds) == 2

    def test_label_filter(self):
        rows = _records([10.0], label="july") + _records([20.0], label="august")
        spec = CordonSpec(0.0, 100.0, label_filter="july")
        result = crop_to_cordon(_footprints(rows), spec, t=1.0)
        assert len(result.sample.speeds) == 1

    def test_label_filter_follows_the_reader_rule(self, tmp_path):
        # labels are read stripped, so a padded filter matches a padded label
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps,label\n10,20, aug \n20,30,jul\n30,25,\n",
                        encoding="utf-8")
        records = read_footprints_csv(path).records
        spec = CordonSpec(0.0, 100.0, label_filter=" aug ")
        assert spec.label_filter == "aug"
        assert_speeds(crop_to_cordon(records, spec, t=1.0).sample, [20.0])

    @pytest.mark.parametrize("label", ["", " ", "\t\r\n"])
    def test_blank_label_filter_refused(self, label):
        # a blank label is read as None, so a blank filter could match no row
        with pytest.raises(ValueError, match="^label filter must be a non-blank string, got "):
            CordonSpec(0.0, 100.0, label_filter=label)

    @pytest.mark.parametrize("label", [1, 1.5, b"aug", ["aug"], True])
    def test_label_filter_not_a_str_refused(self, label):
        with pytest.raises(ValueError, match="^label filter must be a non-blank string, got "):
            CordonSpec(0.0, 100.0, label_filter=label)

    def test_nonpositive_speed_dropped_and_counted(self):
        # the reader rejects speed <= 0, so only hand-built columns hold one
        raw = _footprints([(10.0, 20.0, None), (20.0, 0.0, None), (30.0, -1.0, None)])
        result = crop_to_cordon(raw, CordonSpec(0.0, 100.0), t=1.0)
        assert len(result.sample.speeds) == 1
        assert result.dropped_nonpositive == 2

    def test_nonfinite_speed_in_cordon_refused(self):
        # the sample takes no NaN or infinite speed; outside the cordon none is read
        for bad in (math.nan, math.inf):
            raw = _footprints([(10.0, 20.0, None), (20.0, bad, None), (200.0, bad, None)])
            with pytest.raises(ValueError, match="^speed must be positive and finite, got "):
                crop_to_cordon(raw, CordonSpec(0.0, 100.0), t=1.0)
            assert_speeds(crop_to_cordon(raw, CordonSpec(0.0, 15.0), t=1.0).sample, [20.0])

    def test_rejects_bad_t_and_length(self):
        with pytest.raises(ValueError):
            crop_to_cordon(_footprints([]), CordonSpec(0.0, 100.0), t=0.0)
        with pytest.raises(ValueError):
            CordonSpec(0.0, 0.0)

    def test_idempotent(self):
        rows = _records([5.0, 15.0, 95.0, 105.0])
        spec = CordonSpec(0.0, 100.0)
        once = crop_to_cordon(_footprints(rows), spec, t=2.0)
        kept = [r for r in rows if 0.0 < r.position <= 100.0]
        twice = crop_to_cordon(_footprints(kept), spec, t=2.0)
        assert_speeds(once.sample, twice.sample.speeds.tolist())
        assert (once.sample.d, once.sample.t) == (twice.sample.d, twice.sample.t)

    def test_monotone_in_length(self):
        footprints = _footprints(_records([3.0, 8.0, 13.0, 42.0, 77.0, 91.0]))
        counts = [
            len(crop_to_cordon(footprints, CordonSpec(0.0, d), t=1.0).sample.speeds)
            for d in (1.0, 5.0, 10.0, 50.0, 100.0)
        ]
        assert counts == sorted(counts)


class TestCordonSample:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CordonSample(speeds=(1.0,), d=0.0, t=1.0)
        with pytest.raises(ValueError):
            CordonSample(speeds=(1.0,), d=1.0, t=0.0)
        with pytest.raises(ValueError):
            CordonSample(speeds=(0.0,), d=1.0, t=1.0)


class TestFootprintsColumns:
    @pytest.mark.parametrize("lengths", [(3, 2, 3), (2, 3, 3), (3, 3, 2), (0, 0, 1)])
    def test_unequal_lengths_refused(self, lengths):
        p, s, n = lengths
        with pytest.raises(ValueError, match=r"\(%d,\), \(%d,\), \(%d,\)" % lengths):
            Footprints(np.zeros(p), np.ones(s), np.full(n, None, dtype=object))

    def test_columns_not_1d_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            Footprints(np.zeros((2, 2)), np.ones((2, 2)), np.full((2, 2), None, dtype=object))
        with pytest.raises(ValueError, match="1-D"):
            Footprints(np.float64(1.0), np.float64(20.0), np.array(None, dtype=object))


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        rows = [(0.1 + 0.2, 29.999999999999996, "july"), (-17.25, 3.5, None)]
        write_footprints_csv(path, _footprints(rows))
        back = read_footprints_csv(path)
        assert_columns(back.records, rows)
        assert back.warnings == []

    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    def test_round_trip_numpy_scalars(self, tmp_path, scalar):
        # columns of either dtype write their values, never "np.float64(...)"
        path = tmp_path / "f.csv"
        rows = [(1.5, 20.0, None), (0.1, 29.3, "july")]
        write_footprints_csv(path, _footprints(rows, dtype=scalar))
        back = read_footprints_csv(path)
        assert back.warnings == []
        assert_columns(
            back.records, [(float(scalar(p)), float(scalar(s)), label) for p, s, label in rows]
        )

    def test_bad_rows_skipped_with_line_numbers(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "position_m,speed_mps\n1.0,20.0\nnot-a-number,30\n2.0\n3.0,15.0\n",
            encoding="utf-8",
        )
        result = read_footprints_csv(path)
        assert len(result.records) == 2
        assert len(result.warnings) == 2
        assert ":3:" in result.warnings[0]
        assert ":4:" in result.warnings[1]

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps\nx,y\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_footprints_csv(path, strict=True)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("pos,speed\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected header"):
            read_footprints_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("", encoding="utf-8")
        result = read_footprints_csv(path)
        assert_columns(result.records, [])
        assert result.warnings == []

    def test_nonpositive_speed_row_is_reported(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps\n1.0,-5.0\n2.0,10.0\n", encoding="utf-8")
        result = read_footprints_csv(path)
        assert len(result.records) == 1
        assert len(result.warnings) == 1

    @pytest.mark.parametrize("speed", ["inf", "nan"])
    def test_nonfinite_speed_row_is_reported(self, tmp_path, speed):
        path = tmp_path / "f.csv"
        path.write_text(f"position_m,speed_mps\n1.0,{speed}\n2.0,10.0\n", encoding="utf-8")
        result = read_footprints_csv(path)
        assert len(result.records) == 1
        assert len(result.warnings) == 1


class TestLabelsColumn:
    """The labels column: a 1-D object array, ``None`` for a blank or absent
    label and one ``str`` object for every row that carries the same label."""

    @staticmethod
    def _read(tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        labels = read_footprints_csv(path).records.labels
        assert isinstance(labels, np.ndarray)
        assert labels.dtype == object and labels.ndim == 1
        return labels

    def test_one_object_per_distinct_label(self, tmp_path):
        rows = ["1,20,jul", "2,20, aug ", "3,20,", "4,20,aug", "5,20", "6,20,jul ", "7,20, "]
        labels = self._read(tmp_path, "position_m,speed_mps,label\n" + "\n".join(rows) + "\n")
        assert labels.tolist() == ["jul", "aug", None, "aug", None, "jul", None]
        assert labels[0] is labels[5] and labels[1] is labels[3]
        assert all(type(x) is str for x in labels if x is not None)

    @pytest.mark.parametrize("text", ["", "position_m,speed_mps\n",
                                      "position_m,speed_mps,label\n"])
    def test_no_rows(self, tmp_path, text):
        assert self._read(tmp_path, text).shape == (0,)

    def test_no_label_column(self, tmp_path):
        labels = self._read(tmp_path, "position_m,speed_mps\n1,20\n2,20,jul\nx,1\n3,20\n")
        assert labels.tolist() == [None, None, None]


def _labelled_row(i):
    return f"{i * 0.5!r},{20.0 + i % 7!r},{('jul', ' aug ', '')[i % 3]}"


def _dirty_row(i):
    """Row i of a dirty labelled file: per 50 rows an unparseable row, a blank
    one, a blank one of two fields and a zero speed, among labelled rows."""
    bad = {7: "x,12.5,jul", 21: "", 33: " , ", 40: f"{i},0,aug"}
    return bad[i % 50] if i % 50 in bad else _labelled_row(i)


class TestReaderCallBudget:
    """The readers' per-row cost, counted rather than timed: calls of C
    functions and methods, and Python-level calls (a generator's resumption
    is one), as ``sys.setprofile`` sees them, over 1,000-row files. A
    blank-row test per row costs one more C call per row (1,000 per file):
    each C budget is the count measured with Python 3.11 and numpy 2.4 plus
    half a call per row, so an added per-row call fails it; the Python-level
    budgets carry about 15%. A budget may be raised only with the reason the
    per-row cost grew."""

    ROWS = 1000

    # per file: header, row i, reader, budget (Python-level calls, C calls);
    # measured (1028, 3034), (1026, 7035), (1470, 6877) and (1025, 4034), and
    # with a blank-row test per row (1026, 4034), (1026, 8034), (1350, 7736)
    # and (1025, 5034)
    CASES = {
        "clean": ("position_m,speed_mps", lambda i: f"{i * 0.5!r},{20.0 + i % 7!r}",
                  read_footprints_csv, (1180, 3500)),
        "labelled": ("position_m,speed_mps,label", _labelled_row,
                     read_footprints_csv, (1180, 7500)),
        "dirty labelled": ("position_m,speed_mps,label", _dirty_row,
                           read_footprints_csv, (1690, 7400)),
        "weighted pairs": ("m_hat,adt,weight",
                           lambda i: f"{1.0 + i!r},{50.0 + i!r},{1.0 + i % 3!r}",
                           lambda path: read_pairs_csv(path, weighted=True), (1180, 4500)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_calls_per_file(self, tmp_path, case, caplog):
        header, row, read, budget = self.CASES[case]
        path = tmp_path / "f.csv"
        path.write_text("\n".join([header, *map(row, range(self.ROWS))]) + "\n",
                        encoding="utf-8")
        got = read(path)  # first-use costs are paid outside the count
        with caplog.at_level(logging.CRITICAL):  # count the reader, not the log handlers
            calls = count_calls(lambda: read(path))
        assert calls[0] <= budget[0] and calls[1] <= budget[1], calls
        if case == "weighted pairs":
            assert len(got[0]) == self.ROWS
        elif case != "dirty labelled":
            assert (len(got.records), got.warnings) == (self.ROWS, [])
        else:  # 4 in 50 rows skipped, 2 of them with a warning
            assert (len(got.records), len(got.warnings)) == (920, 40)


# -- oracles: one record per row, a per-record crop loop and a csv.writer loop,
# -- the references the columns must match


def _oracle_record(position, speed, label):
    """The row's record, or ``ValueError`` with the reader's message."""
    if not math.isfinite(position):
        raise ValueError(f"position must be finite, got {position}")
    if not (0.0 < speed < math.inf):
        raise ValueError(f"speed must be positive and finite, got {speed}")
    return _Record(position, speed, label)


def _oracle_csv_rows(path, columns, unreadable):
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
        while True:
            try:
                for row in reader:
                    lineno += 1
                    if "".join(row).strip():
                        yield lineno, row
                return
            except csv.Error as exc:
                lineno += 1
                unreadable(f"{path}:{lineno}: unreadable row ({exc})", exc)


def _oracle_read(path, strict=False):
    """(records, warnings): one record per good row."""
    records, warnings = [], []

    def skip(msg, exc):
        if strict:
            raise ValueError(msg) from exc
        warnings.append(msg)

    rows = _oracle_csv_rows(path, CSV_FIELDS, skip)
    has_label = next(rows, False)
    for lineno, row in rows:
        try:
            position = float(row[0])
            speed = float(row[1])
            label = row[2].strip() or None if has_label and len(row) > 2 else None
            records.append(_oracle_record(position, speed, label))
        except (IndexError, ValueError) as exc:
            skip(f"{path}:{lineno}: skipped unparseable row {row!r} ({exc})", exc)
    return records, warnings


def _oracle_crop(records, cordon, t):
    """(kept speeds, dropped count): the per-record loop."""
    lo = cordon.start
    hi = cordon.start + cordon.length
    kept, dropped = [], 0
    for rec in records:
        if cordon.label_filter is not None and rec.label != cordon.label_filter:
            continue
        if not (lo < rec.position <= hi):
            continue
        if rec.speed <= 0.0:
            dropped += 1
            continue
        kept.append(rec.speed)
    return tuple(kept), dropped


def _oracle_write(path, records):
    """The csv.writer loop: one row of repr floats and label (or "") per record."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for position, speed, label in records:
            writer.writerow([repr(float(position)), repr(float(speed)), label or ""])


_FIELD_LIMIT = "1" * (csv.field_size_limit() + 1)  # over the csv module's field limit

_numbers = st.one_of(
    st.floats(-1e4, 1e4).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([" 12.5 ", "1_000", "nan", "inf", "-inf", "0", "-0.0", "-3", "x",
                     "", " ", "1e400", "0x10", '"7.5"', '"1,5"', '"2\n5"', "1 2"]),
)
_labels = st.sampled_from(["jul", " aug ", "", " ", '"la,bel"', '"sep\n"', "jul\r"])
_rows = st.one_of(
    st.tuples(_numbers, _numbers).map(",".join),
    st.tuples(_numbers, _numbers, _labels).map(",".join),
    st.tuples(_numbers, _numbers, _labels, _numbers).map(",".join),  # extra column
    _numbers,  # speed column missing
    st.sampled_from(["", " ", "\t", ",", " , ", ",,", '""', '"', f"{_FIELD_LIMIT},5"]),
)
_headers = st.sampled_from(["position_m,speed_mps", "position_m,speed_mps,label",
                            " position_m , speed_mps , label ", "position_m,speed_mps,x"])


class TestReaderOracle:
    @given(header=_headers, rows=st.lists(_rows, max_size=25),
           endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
           final=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_columns_warnings_and_first_error(self, tmp_path_factory, header, rows,
                                                   endings, final):
        lines = [header, *rows]
        text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_text(text if final else text.rstrip("\r\n"), encoding="utf-8",
                        newline="")

        records, warnings = _oracle_read(path)
        result = read_footprints_csv(path)
        assert_columns(result.records, [(r.position, r.speed, r.label) for r in records])
        assert result.warnings == warnings

        try:
            _oracle_read(path, strict=True)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        if expected is None:
            assert_columns(read_footprints_csv(path, strict=True).records,
                           [(r.position, r.speed, r.label) for r in records])
        else:
            with pytest.raises(ValueError) as raised:
                read_footprints_csv(path, strict=True)
            assert str(raised.value) == expected


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet exports write, reads as no mark."""

    @given(header=_headers, rows=st.lists(_rows, max_size=12), strict=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_same_columns_warnings_and_line_numbers(self, tmp_path_factory, header, rows,
                                                     strict):
        path = tmp_path_factory.getbasetemp() / "bom.csv"
        text = "".join(line + "\r\n" for line in [header, *rows])
        seen = []
        for bom in ("", "\ufeff"):
            path.write_text(bom + text, encoding="utf-8", newline="")
            try:
                result = read_footprints_csv(path, strict=strict)
            except ValueError as exc:
                seen.append(str(exc))
                continue
            records = result.records
            seen.append((records.positions.tobytes(), records.speeds.tobytes(),
                         records.labels.tolist(), result.warnings))
        assert seen[0] == seen[1]


_speeds = st.one_of(st.floats(0.1, 60.0), st.sampled_from([0.0, -0.0, -2.5, 5e-324]))


class TestCropOracle:
    @given(start=st.floats(-1e3, 1e3), length=st.floats(1e-3, 1e3),
           picks=st.lists(st.tuples(st.integers(0, 5), st.floats(-2e3, 2e3), _speeds,
                                    st.sampled_from([None, "a", "b"])), max_size=40),
           label_filter=st.sampled_from([None, "a", "c"]), t=st.floats(0.1, 10.0),
           positive=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_columns_and_records_match_the_loop(self, start, length, picks, label_filter,
                                                t, positive):
        cordon = CordonSpec(start, length, label_filter)
        hi = start + length
        # positions on and just beside both ends of (start, start + length]
        edges = (start, hi, np.nextafter(start, np.inf), np.nextafter(hi, np.inf),
                 np.nextafter(hi, -np.inf))
        rows = []
        for k, x, speed, label in picks:
            position = float(edges[k]) if k < len(edges) else x
            if positive:  # as the reader would pass them; else hand-built, unchecked
                speed = abs(speed) or 1.0
            rows.append(_Record(position, speed, label))
        kept, dropped = _oracle_crop(rows, cordon, t)
        oracle = estimate_probe_volume(CordonSample(kept, length, t))
        result = crop_to_cordon(_footprints(rows), cordon, t)
        assert_speeds(result.sample, kept)
        assert result.dropped_nonpositive == dropped
        assert estimate_probe_volume(result.sample) == oracle  # m_hat bit-identical

    def test_bounds_exactly_at_start_and_end(self, tmp_path):
        recs = [_Record(p, 20.0 + p / 100.0, None)
                for p in (99.99999999999999, 100.0, 150.0, 250.0, 250.00000000000003)]
        path = tmp_path / "f.csv"
        write_footprints_csv(path, _footprints(recs))
        cordon = CordonSpec(100.0, 150.0)
        kept, dropped = _oracle_crop(recs, cordon, 1.0)
        assert kept == (21.5, 22.5)  # 150 and 250; 100 itself is outside
        for source in (_footprints(recs), read_footprints_csv(path).records):
            result = crop_to_cordon(source, cordon, t=1.0)
            assert_speeds(result.sample, kept)
            assert result.dropped_nonpositive == dropped

    def test_label_filter_on_file_without_label_column(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("position_m,speed_mps\n1.0,20.0\n2.0,25.0\n", encoding="utf-8")
        records, _ = _oracle_read(path)
        read = read_footprints_csv(path)
        assert read.records.labels.tolist() == [None, None]
        for label in ("a", None):
            cordon = CordonSpec(0.0, 10.0, label)
            result = crop_to_cordon(read.records, cordon, t=1.0)
            assert_speeds(result.sample, _oracle_crop(records, cordon, 1.0)[0])
        assert_speeds(crop_to_cordon(read.records, CordonSpec(0.0, 10.0, "a"), 1.0).sample, ())

    def test_hand_built_nonpositive_speeds_counted(self):
        rows = [_Record(10.0, 20.0, None), _Record(20.0, 0.0, None), _Record(25.0, -0.0, None),
                _Record(30.0, -2.5, None), _Record(35.0, 5e-324, None),
                _Record(40.0, 0.0, "x"), _Record(200.0, -3.0, None)]
        for label, want in ((None, ((20.0, 5e-324), 4)), ("x", ((), 1))):
            cordon = CordonSpec(0.0, 100.0, label)
            kept, dropped = _oracle_crop(rows, cordon, 1.0)
            assert (kept, dropped) == want
            result = crop_to_cordon(_footprints(rows), cordon, t=1.0)
            assert_speeds(result.sample, kept)
            assert result.dropped_nonpositive == dropped


class TestWriterOracle:
    """The block writer against the csv.writer loop, byte for byte."""

    @staticmethod
    def assert_same_bytes(tmp_path, footprints):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_footprints_csv(got, footprints)
        _oracle_write(want, zip(footprints.positions.tolist(), footprints.speeds.tolist(),
                                footprints.labels.tolist()))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("scenario,m,seed", [((300.0, 4.0), 400, 7), ((40.0, 1.0), 57, 42)])
    def test_emitted_footprints(self, tmp_path, scenario, m, seed):
        d, t = scenario
        cfg = ScenarioConfig(d=d, t=t, m=m, dist=load_distribution("park-i35"), trials=3,
                             seed=seed)
        footprints, _ = simulate_footprints(cfg)
        self.assert_same_bytes(tmp_path, footprints)

    def test_labels_quoted_as_csv_quotes_them(self, tmp_path):
        labels = [None, "", "la,bel", 'a"b', "sep\n", "jul\r", " x ", "july", None, "la,bel"]
        rows = [(0.5 * k - 1.0, 20.0 + k, label) for k, label in enumerate(labels)]
        footprints = _footprints(rows)
        self.assert_same_bytes(tmp_path, footprints)
        back = read_footprints_csv(tmp_path / "got.csv").records
        # the reader strips labels and reads blank ones as None
        assert back.labels.tolist() == [(x or "").strip() or None for x in labels]

    @pytest.mark.parametrize("n", [0, 1, WRITE_BLOCK, WRITE_BLOCK + 1])
    def test_block_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        specials = np.array([0.0, -0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0])
        positions = rng.normal(0.0, 1e3, n)
        positions[: min(n, specials.size)] = specials[:n]
        labels = np.array([(None, "a", "b,c")[k % 3] for k in range(n)], dtype=object)
        self.assert_same_bytes(
            tmp_path, Footprints(positions, rng.uniform(0.1, 60.0, n), labels)
        )
