import io
import math

import pytest

from forkfleet.trajectory import (CSV_HEADER, SchemaError, TrajectorySample,
                                  UnsortedSamples, interpolate, read_csv,
                                  sample_at, split_by_vehicle, write_csv)


def smp(t, vid=0, x=0.0, y=0.0, heading=0.0, speed=0.0):
    return TrajectorySample(t, vid, x, y, heading, speed, 0.0, 0.0, 1.0)


class TestCsv:
    def test_round_trip(self):
        samples = [
            TrajectorySample(0.0, 0, 1.25, -2.5, 0.1, 2.0, 0.5, 500.0, 0.95),
            TrajectorySample(0.1, 0, 1.45, -2.5, 0.1, 2.0, 0.5, 500.0, 0.9499),
            TrajectorySample(0.0, 1, 7.0, 3.0, math.pi, 0.0, 0.0, 0.0, 1.0),
        ]
        buf = io.StringIO()
        write_csv(samples, buf)
        buf.seek(0)
        back = read_csv(buf)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert (a.t, a.vehicle_id) == (b.t, b.vehicle_id)
            # 12 significant digits on write
            for name in ("x", "y", "heading", "speed", "fork_height",
                         "load_mass", "soc"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-11)

    def test_comment_and_blank_lines_skipped(self):
        text = f"# made by tool\n\n{CSV_HEADER}\n# mid comment\n1,0,0,0,0,0,0,0,1\n"
        assert len(read_csv(io.StringIO(text))) == 1

    def test_missing_header(self):
        with pytest.raises(SchemaError, match="header"):
            read_csv(io.StringIO("1,0,0,0,0,0,0,0,1\n"))

    def test_empty_file(self):
        with pytest.raises(SchemaError):
            read_csv(io.StringIO(""))

    def test_wrong_column_count_names_line(self):
        text = f"{CSV_HEADER}\n1,0,0,0\n"
        with pytest.raises(SchemaError, match="line 2"):
            read_csv(io.StringIO(text))

    def test_bad_number(self):
        text = f"{CSV_HEADER}\n1,0,zero,0,0,0,0,0,1\n"
        with pytest.raises(SchemaError, match="line 2"):
            read_csv(io.StringIO(text))

    def test_non_increasing_time_rejected(self):
        text = f"{CSV_HEADER}\n1,0,0,0,0,0,0,0,1\n1,0,0,0,0,0,0,0,1\n"
        with pytest.raises(SchemaError, match="increasing"):
            read_csv(io.StringIO(text))

    def test_interleaved_vehicles_ok(self):
        text = (f"{CSV_HEADER}\n0,0,0,0,0,0,0,0,1\n0,1,5,0,0,0,0,0,1\n"
                "1,0,1,0,0,0,0,0,1\n1,1,6,0,0,0,0,0,1\n")
        assert len(read_csv(io.StringIO(text))) == 4


class TestSplit:
    def test_groups_and_orders(self):
        samples = [smp(0, 0), smp(0, 1), smp(1, 0)]
        parts = split_by_vehicle(samples)
        assert sorted(parts) == [0, 1]
        assert [s.t for s in parts[0]] == [0, 1]

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedSamples):
            split_by_vehicle([smp(1, 0), smp(0, 0)])


class TestInterpolate:
    def test_midpoint(self):
        a = smp(0.0, x=0.0, speed=1.0)
        b = smp(2.0, x=4.0, speed=3.0)
        m = interpolate(a, b, 1.0)
        assert m.x == 2.0 and m.speed == 2.0 and m.t == 1.0

    def test_heading_wraps_short_way(self):
        a = smp(0.0, heading=3.0)
        b = smp(1.0, heading=-3.0)  # 0.28 rad apart through pi, not 6 rad
        m = interpolate(a, b, 0.5)
        expected = 3.0 + 0.5 * (2 * math.pi - 6.0)
        assert m.heading == pytest.approx(expected)


class TestSampleAt:
    def series(self):
        return [smp(0.0, x=0.0), smp(1.0, x=2.0), smp(3.0, x=8.0)]

    def test_exact_hits(self):
        s = self.series()
        assert sample_at(s, 0.0).x == 0.0
        assert sample_at(s, 3.0).x == 8.0

    def test_between(self):
        assert sample_at(self.series(), 2.0).x == pytest.approx(5.0)

    def test_outside_span(self):
        s = self.series()
        assert sample_at(s, -0.5) is None
        assert sample_at(s, 3.5) is None

    def test_empty(self):
        assert sample_at([], 0.0) is None
