"""The whole-series forms of what the package now streams, kept as the tests'
reference: integrate_trajectory, and replay as it was before it streamed its
ticks. Standard library only, so the corpus recorder in
test_output_digests.py can import it on an interpreter without pytest."""

from __future__ import annotations

import math

from forkfleet import ConfigError, total
from forkfleet.battery import FORK_MASS, BatteryParams, SocMeter
from forkfleet.fleet_sim import DT, MAX_GRID_POINTS
from forkfleet.trajectory import TrajectorySample, check_gaps, resample, split_by_vehicle


def integrate_trajectory(samples, fork_mass: float, p: BatteryParams):
    """Integrate one vehicle's (or many vehicles') samples through a SocMeter,
    each vehicle from its first sample and in one pass. Returns (total_draw,
    total_regen, the samples with their SOC), vehicles in id order.
    """
    per_vehicle = [ss for _, ss in sorted(split_by_vehicle(samples).items())]
    meter = SocMeter([ss[0] for ss in per_vehicle], fork_mass, p)
    series = []
    for ss in per_vehicle:
        series.append(ss[0])
        series += meter.add([s[:8] for s in ss[1:]])
    return meter.drawn, meter.regenerated, series


def replay(samples, dt: float = DT, fork_mass: float = FORK_MASS,
           params: BatteryParams = BatteryParams()):
    """fleet_sim.replay as it was: every vehicle's whole grid regridded and
    integrated in id order, then sorted by (t, vehicle_id). -> the samples."""
    per_vehicle = split_by_vehicle(samples)
    if not per_vehicle:
        return []
    t0 = min(ss[0].t for ss in per_vehicle.values())
    points = total((ss[-1].t - ss[0].t + 2e-9 + 2**-50 * (abs(t0) + abs(ss[-1].t))) / dt + 2
                   for ss in per_vehicle.values())
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"replay at dt {dt} makes more than {MAX_GRID_POINTS} grid points")
    out = []
    for vid in sorted(per_vehicle):
        series = per_vehicle[vid]
        first, last = series[0].t, series[-1].t
        times = []
        k = math.ceil((first - t0) / dt - 1e-9)
        while True:
            t = t0 + k * dt
            if t > last + 1e-9:
                break
            t = min(max(t, first), last)
            if times and t <= times[-1]:
                raise ConfigError(f"replay at dt {dt}: grid time {t} repeats, since dt is "
                                  "finer than the sample times resolve")
            times.append(t)
            k += 1
        states = list(resample(series, times))
        if states:
            check_gaps(states)
            first = TrajectorySample(*states[0], series[0].soc)
            out += [first, *SocMeter([first], fork_mass, params).add(states[1:])]
    out.sort(key=lambda s: (s.t, s.vehicle_id))
    return out
