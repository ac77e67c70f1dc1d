"""Trajectory samples and the CSV interchange format.

The trajectory CSV is the single source of motion truth shared by the
simulator, the replay path, the battery model and both analyses. Columns:
t,vehicle_id,x,y,heading,speed,fork_height,load_mass,soc. Lines starting
with '#' are provenance comments and are skipped on read. Regridding
(interpolate, resample) makes states, a sample's first eight fields without
its soc; only battery.SocMeter turns a state into a sample with a SOC.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import InputError, records


CSV_HEADER = "t,vehicle_id,x,y,heading,speed,fork_height,load_mass,soc"


class TrajectorySample(NamedTuple):
    """One vehicle's state at time t: an immutable, hashable named tuple
    whose field order is the CSV column order."""
    t: float
    vehicle_id: int
    x: float
    y: float
    heading: float
    speed: float
    fork_height: float = 0.0
    load_mass: float = 0.0
    soc: float = 1.0


# one CSV row from a sample's fields in column order: floats to 12
# significant digits, the vehicle id as str() writes it
_ROW = "%.12g,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"


def write_csv(samples, fileobj, header: bool = True) -> None:
    """The header line, unless header is False, then one row per sample."""
    w = fileobj.write
    if header:
        w(CSV_HEADER + "\n")
    for s in samples:
        w(_ROW % s)


def read_csv(fileobj):
    """Parse samples; raises InputError naming the first offending line,
    including a line with a nan or infinite number or a soc outside [0, 1]."""
    samples = []
    last_t = {}
    lines = records(fileobj)
    lineno, header = next(lines, (1, None))
    if header is None:
        raise InputError("line 1: empty file, header missing")
    if header != CSV_HEADER:
        raise InputError(f"line {lineno}: expected header '{CSV_HEADER}'")
    new = tuple.__new__
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 9:
            raise InputError(f"line {lineno}: expected 9 columns, got {len(parts)}")
        try:  # column order, so the error names the first bad column
            t, vid = float(parts[0]), int(parts[1])
            x, y, heading, speed, fork_height, load_mass, soc = map(float, parts[2:])
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        # 0 * v is 0 for every finite v and nan for nan and +-inf
        if (0.0 * t + 0.0 * x + 0.0 * y + 0.0 * heading + 0.0 * speed
                + 0.0 * fork_height + 0.0 * load_mass + 0.0 * soc != 0.0):
            raise InputError(f"line {lineno}: non-finite value")
        if not 0.0 <= soc <= 1.0:
            raise InputError(f"line {lineno}: soc {soc!r} outside [0, 1]")
        if vid in last_t and t <= last_t[vid]:
            raise InputError(f"line {lineno}: samples for vehicle {vid} "
                             "not strictly increasing in t")
        last_t[vid] = t
        samples.append(new(TrajectorySample, (t, vid, x, y, heading, speed, fork_height,
                                              load_mass, soc)))
    return samples


def split_by_vehicle(samples):
    """Group samples, each vehicle's in strictly increasing t as read_csv and
    the simulator give them, into {vehicle_id: [samples]}, each vehicle's
    series checked by check_gaps."""
    out = {}
    for s in samples:
        out.setdefault(s.vehicle_id, []).append(s)
    for ss in out.values():
        check_gaps(ss)
    return out


def check_gaps(series):
    """Refuse two consecutive samples of one vehicle's series so far apart
    that interpolating between them overflows."""
    for a, b in zip(series, series[1:]):
        if not math.isfinite(math.dist(a, b)):
            raise InputError(f"vehicle {a[1]} samples at t={a[0]:.12g} and t={b[0]:.12g} are "
                             "too far apart to interpolate")


def interpolate(a: TrajectorySample, b: TrajectorySample, t: float) -> tuple:
    """The state at t between two samples of one vehicle, linear in t: a
    sample's first eight fields, t through load_mass, and no soc."""
    at, vid, ax, ay, ah, av, af, am, _ = a
    bt, _, bx, by, bh, bv, bf, bm, _ = b
    u = (t - at) / (bt - at)
    # shortest angular interpolation for heading
    dh = math.remainder(bh - ah, 2.0 * math.pi)
    return (t, vid, ax + (bx - ax) * u, ay + (by - ay) * u, ah + dh * u,
            av + (bv - av) * u, af + (bf - af) * u, am + (bm - am) * u)


def resample(series, times):
    """Yield one vehicle's state (interpolate's eight fields) at each of the
    non-decreasing times, or None where a time lies more than 1e-12 outside
    the span of the series, a non-empty one of split_by_vehicle.

    A time is interpolated between the first sample at or after it and the
    one before; at or up to 1e-12 before the first sample it is the first,
    and up to 1e-12 after the last it is the last. The first sample at or
    after t only moves forward as t does, so a forward cursor finds it, one
    time at a time as the caller pulls. Where it interpolates, it stops at b
    with a[0] < t <= b[0], so t needs no clamp to the segment."""
    first, last = series[0][0] - 1e-12, series[-1][0] + 1e-12
    end = len(series) - 1
    i = 0
    b = series[0]  # the cursor's sample, series[i]
    for t in times:
        if t < first or t > last:
            yield None
            continue
        while i < end and b[0] < t:
            i += 1
            b = series[i]
        if b[0] >= t and i > 0:
            yield interpolate(series[i - 1], b, t)
        else:
            yield b[:8]
