import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from forkfleet.cli import _render_run
from forkfleet import InputError
from forkfleet.trajectory import (CSV_HEADER, TrajectorySample, interpolate, read_csv,
                                  resample, split_by_vehicle, write_csv)


def sample_at(series, t: float):
    """The reference for resample: one vehicle's interpolated sample at time
    t by binary search, or None if t is outside the series span."""
    if not series or t < series[0].t - 1e-12 or t > series[-1].t + 1e-12:
        return None
    lo, hi = 0, len(series) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if series[mid].t < t:
            lo = mid + 1
        else:
            hi = mid
    if series[lo].t >= t and lo > 0:
        a, b = series[lo - 1], series[lo]
    else:
        a = b = series[lo]
    if a is b:
        return a
    return interpolate(a, b, min(max(t, a.t), b.t))


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
        with pytest.raises(InputError, match="line 1: expected header"):
            read_csv(io.StringIO("1,0,0,0,0,0,0,0,1\n"))

    def test_empty_file(self):
        with pytest.raises(InputError, match="line 1: empty file, header missing"):
            read_csv(io.StringIO(""))

    def test_wrong_column_count_names_line(self):
        text = f"{CSV_HEADER}\n1,0,0,0\n"
        with pytest.raises(InputError, match="line 2: expected 9 columns, got 4"):
            read_csv(io.StringIO(text))

    def test_bad_number(self):
        text = f"{CSV_HEADER}\n1,0,zero,0,0,0,0,0,1\n"
        with pytest.raises(InputError, match="line 2: could not convert string to float"):
            read_csv(io.StringIO(text))

    def test_non_increasing_time_rejected(self):
        text = f"{CSV_HEADER}\n1,0,0,0,0,0,0,0,1\n1,0,0,0,0,0,0,0,1\n"
        with pytest.raises(InputError,
                           match="line 3: samples for vehicle 0 not strictly increasing"):
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


class TestResample:
    """resample against one sample_at call per time."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_samples_as_sample_at(self, data):
        num = st.floats(-1e3, 1e3)
        ts = sorted(set(data.draw(st.lists(num, min_size=1, max_size=8))))
        series = [TrajectorySample(t, 3, data.draw(num), data.draw(num), data.draw(num),
                                   data.draw(num), data.draw(num), data.draw(num),
                                   data.draw(num)) for t in ts]
        # exact hits, midpoints, and times just inside and outside the 1e-12 slack
        near = [t + d for t in ts for d in (0.0, -5e-13, 5e-13, -2e-12, 2e-12)]
        mids = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
        times = sorted(data.draw(st.lists(st.sampled_from(near + mids) | st.floats(-1.1e3, 1.1e3),
                                          max_size=30)))
        got = list(resample(series, times))
        want = [sample_at(series, t) for t in times]
        assert [repr(s) for s in got] == [repr(s) for s in want]


class TestSampleType:
    KW = dict(t=1.0, vehicle_id=2, x=3.0, y=4.0, heading=0.5, speed=1.5)

    def test_immutable(self):
        s = TrajectorySample(**self.KW)
        with pytest.raises(AttributeError):
            s.x = 0.0

    def test_keyword_defaults_equality_and_hash(self):
        s = TrajectorySample(**self.KW)
        assert (s.fork_height, s.load_mass, s.soc) == (0.0, 0.0, 1.0)
        same = TrajectorySample(1.0, 2, 3.0, 4.0, 0.5, 1.5, 0.0, 0.0, 1.0)
        assert s == same and hash(s) == hash(same) and len({s, same}) == 1
        assert s != TrajectorySample(**self.KW, soc=0.5)

    def test_repr(self):
        assert repr(TrajectorySample(**self.KW)) == (
            "TrajectorySample(t=1.0, vehicle_id=2, x=3.0, y=4.0, heading=0.5, speed=1.5, "
            "fork_height=0.0, load_mass=0.0, soc=1.0)")


# --- the row writers against the per-field code they replaced ----------------

def _fmt(x):
    return f"{x:.12g}"


def per_field_write_csv(samples, fileobj):
    w = fileobj.write
    w(CSV_HEADER + "\n")
    for s in samples:
        w(",".join((_fmt(s.t), str(s.vehicle_id), _fmt(s.x), _fmt(s.y),
                    _fmt(s.heading), _fmt(s.speed), _fmt(s.fork_height),
                    _fmt(s.load_mass), _fmt(s.soc))) + "\n")


def per_field_render_soc(samples, f):
    f.write("t,vehicle_id,soc\n")
    for s in samples:
        f.write(f"{s.t:.12g},{s.vehicle_id},{s.soc:.12g}\n")


# -0.0, subnormals, +-1e300 and integer-valued floats beside any float
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-310, -1e-310, 1e300, -1e300,
                                        3.0, -7.0, 2.0 ** 53, 1e15])
TIMES = FLOATS | st.integers(-10 ** 9, 10 ** 9)
SAMPLES = st.builds(TrajectorySample, t=TIMES,
                    vehicle_id=st.integers(0, 64) | st.integers(-2 ** 70, 2 ** 70),
                    x=FLOATS, y=FLOATS, heading=FLOATS, speed=FLOATS,
                    fork_height=FLOATS, load_mass=FLOATS, soc=FLOATS)
# a run's ticks: lists of samples that share one t, empty ones too
TICKS = st.lists(st.tuples(TIMES, st.lists(SAMPLES, max_size=4)), max_size=5).map(
    lambda ticks: [[s._replace(t=t) for s in tick] for t, tick in ticks])


class TestRowWriters:
    def test_header_is_the_field_order(self):
        # write_csv formats a sample as one tuple, in field order
        assert ",".join(TrajectorySample._fields) == CSV_HEADER

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SAMPLES, max_size=10), TICKS)
    def test_same_text_as_the_per_field_writers(self, samples, ticks):
        a, b = io.StringIO(), io.StringIO()
        write_csv(samples, a)
        per_field_write_csv(samples, b)
        assert a.getvalue() == b.getvalue()
        # _render_run writes a run's ticks as both writers write their samples
        run = [s for tick in ticks for s in tick]
        rows, soc, want_rows, want_soc = (io.StringIO() for _ in range(4))
        _render_run(ticks, rows, soc)
        per_field_write_csv(run, want_rows)
        per_field_render_soc(run, want_soc)
        assert rows.getvalue() == want_rows.getvalue()
        assert soc.getvalue() == want_soc.getvalue()
