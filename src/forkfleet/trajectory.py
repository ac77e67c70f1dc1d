"""Trajectory samples and the CSV interchange format.

The trajectory CSV is the single source of motion truth shared by the
simulator, the replay path, the battery model and both analyses. Columns:
t,vehicle_id,x,y,heading,speed,fork_height,load_mass,soc. Lines starting
with '#' are provenance comments and are skipped on read.
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
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 9:
            raise InputError(f"line {lineno}: expected 9 columns, got {len(parts)}")
        try:
            s = TrajectorySample(float(parts[0]), int(parts[1]), float(parts[2]),
                                 float(parts[3]), float(parts[4]), float(parts[5]),
                                 float(parts[6]), float(parts[7]), float(parts[8]))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        # 0 * v is 0 for every finite v and nan for nan and +-inf
        if (0.0 * s.t + 0.0 * s.x + 0.0 * s.y + 0.0 * s.heading + 0.0 * s.speed
                + 0.0 * s.fork_height + 0.0 * s.load_mass + 0.0 * s.soc != 0.0):
            raise InputError(f"line {lineno}: non-finite value")
        if not 0.0 <= s.soc <= 1.0:
            raise InputError(f"line {lineno}: soc {s.soc!r} outside [0, 1]")
        if s.vehicle_id in last_t and s.t <= last_t[s.vehicle_id]:
            raise InputError(f"line {lineno}: samples for vehicle {s.vehicle_id} "
                             "not strictly increasing in t")
        last_t[s.vehicle_id] = s.t
        samples.append(s)
    return samples


def split_by_vehicle(samples):
    """Group samples into {vehicle_id: [samples sorted by t]}; validates order, and
    that no two consecutive samples are so far apart that interpolating overflows."""
    out = {}
    for s in samples:
        out.setdefault(s.vehicle_id, []).append(s)
    for vid, ss in out.items():
        for a, b in zip(ss, ss[1:]):
            if b.t <= a.t:
                raise InputError(f"vehicle {vid} samples not strictly increasing at t={b.t}")
            if not math.isfinite(math.dist(a, b)):
                raise InputError(f"vehicle {vid} samples at t={a.t:.12g} and t={b.t:.12g} are "
                                 "too far apart to interpolate")
    return out


def interpolate(a: TrajectorySample, b: TrajectorySample, t: float) -> TrajectorySample:
    """Linear pose/speed interpolation between two samples of one vehicle."""
    if b.t == a.t:
        return a
    u = (t - a.t) / (b.t - a.t)
    # shortest angular interpolation for heading
    dh = math.remainder(b.heading - a.heading, 2.0 * math.pi)
    return TrajectorySample(
        t=t,
        vehicle_id=a.vehicle_id,
        x=a.x + (b.x - a.x) * u,
        y=a.y + (b.y - a.y) * u,
        heading=a.heading + dh * u,
        speed=a.speed + (b.speed - a.speed) * u,
        fork_height=a.fork_height + (b.fork_height - a.fork_height) * u,
        load_mass=a.load_mass + (b.load_mass - a.load_mass) * u,
        soc=a.soc + (b.soc - a.soc) * u,
    )


def resample(series, times):
    """Yield one vehicle's interpolated sample at each of the non-decreasing
    times, or None where a time lies more than 1e-12 outside the series span.

    A time is interpolated between the first sample at or after it and the
    one before; at or up to 1e-12 before the first sample it is the first,
    and up to 1e-12 after the last it is the last. The first sample at or
    after t only moves forward as t does, so a forward cursor finds it, one
    time at a time as the caller pulls."""
    if not series:
        for _ in times:
            yield None
        return
    first, last = series[0].t - 1e-12, series[-1].t + 1e-12
    end = len(series) - 1
    i = 0
    for t in times:
        if t < first or t > last:
            yield None
            continue
        while i < end and series[i].t < t:
            i += 1
        b = series[i]
        if b.t >= t and i > 0:
            a = series[i - 1]
            yield interpolate(a, b, min(max(t, a.t), b.t))
        else:
            yield b
