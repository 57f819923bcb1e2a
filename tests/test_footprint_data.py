import numpy as np
import pytest

from probevolume.footprint_data import (
    CordonSample,
    CordonSpec,
    CsvReadResult,
    FootprintRecord,
    crop_to_cordon,
    read_footprints_csv,
    write_footprints_csv,
)


def _records(positions, speed=20.0, label=None):
    return [FootprintRecord(p, speed, label) for p in positions]


class TestCrop:
    def test_eight_point_cordon(self):
        # two probes: five points at 20 m/s and three at 30 m/s inside (0, 100]
        recs = _records([10, 30, 50, 70, 90], speed=20.0) + _records(
            [25, 55, 85], speed=30.0
        )
        result = crop_to_cordon(recs, CordonSpec(0.0, 100.0), t=1.0)
        assert len(result.sample.speeds) == 8
        assert result.sample.d == 100.0

    def test_empty(self):
        result = crop_to_cordon([], CordonSpec(0.0, 100.0), t=1.0)
        assert result.sample.speeds == ()

    def test_half_open_boundaries(self):
        # hand enumeration under (start, start+length]: only 50 and 100 stay
        recs = _records([-5.0, 0.0, 50.0, 100.0, 100.1])
        result = crop_to_cordon(recs, CordonSpec(0.0, 100.0), t=1.0)
        assert len(result.sample.speeds) == 2

    def test_label_filter(self):
        recs = _records([10.0], label="july") + _records([20.0], label="august")
        spec = CordonSpec(0.0, 100.0, label_filter="july")
        result = crop_to_cordon(recs, spec, t=1.0)
        assert len(result.sample.speeds) == 1

    def test_nonpositive_speed_dropped_and_counted(self):
        # FootprintRecord itself rejects speed <= 0, so feed crop a stand-in
        class Raw:
            def __init__(self, position, speed, label=None):
                self.position, self.speed, self.label = position, speed, label

        raw = [Raw(10.0, 20.0), Raw(20.0, 0.0), Raw(30.0, -1.0)]
        result = crop_to_cordon(raw, CordonSpec(0.0, 100.0), t=1.0)
        assert len(result.sample.speeds) == 1
        assert result.dropped_nonpositive == 2

    def test_rejects_bad_t_and_length(self):
        with pytest.raises(ValueError):
            crop_to_cordon([], CordonSpec(0.0, 100.0), t=0.0)
        with pytest.raises(ValueError):
            CordonSpec(0.0, 0.0)

    def test_idempotent(self):
        recs = _records([5.0, 15.0, 95.0, 105.0])
        spec = CordonSpec(0.0, 100.0)
        once = crop_to_cordon(recs, spec, t=2.0)
        kept = [r for r in recs if 0.0 < r.position <= 100.0]
        twice = crop_to_cordon(kept, spec, t=2.0)
        assert once.sample == twice.sample

    def test_monotone_in_length(self):
        recs = _records([3.0, 8.0, 13.0, 42.0, 77.0, 91.0])
        counts = [
            len(crop_to_cordon(recs, CordonSpec(0.0, d), t=1.0).sample.speeds)
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


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        recs = [
            FootprintRecord(0.1 + 0.2, 29.999999999999996, "july"),
            FootprintRecord(-17.25, 3.5),
        ]
        write_footprints_csv(path, recs)
        back = read_footprints_csv(path)
        assert back.records == recs
        assert back.warnings == []

    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    def test_round_trip_numpy_scalars(self, tmp_path, scalar):
        path = tmp_path / "f.csv"
        recs = [
            FootprintRecord(scalar(1.5), scalar(20.0)),
            FootprintRecord(scalar(0.1), scalar(29.3), "july"),
        ]
        write_footprints_csv(path, recs)
        back = read_footprints_csv(path)
        assert back.warnings == []
        assert [(r.position, r.speed, r.label) for r in back.records] == [
            (float(r.position), float(r.speed), r.label) for r in recs
        ]

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
        assert read_footprints_csv(path) == CsvReadResult()

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
