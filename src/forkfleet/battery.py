"""Force-balance battery model: work integration along trajectories and SOC.

Forces modeled: kinetic (accelerate/brake), rolling resistance, steering
resistance, gravity on forks/load, constant auxiliary power. Aerodynamic
drag is omitted (negligible at forklift speeds). Regeneration applies only
to kinetic and potential energy release, never to friction terms.

Default numeric parameter values are placeholders; calibrate() fits them
against measured duty-cycle energies (e.g. VDI 2198 style cycles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import ConfigError, Infeasible, InputError
from .trajectory import TrajectorySample, UnsortedSamples, split_by_vehicle

G = 9.80665


class NonphysicalSegment(InputError):
    pass


class OutOfRange(ConfigError):
    pass


class Underdetermined(Infeasible):
    pass


@dataclass(frozen=True)
class BatteryParams:
    capacity: float = 1.0368e8      # J (28.8 kWh placeholder)
    c_rr: float = 0.02              # rolling resistance coefficient
    c_steer: float = 0.05           # N*s/(kg*rad), linear in |heading rate|
    eta_drive: float = 0.85
    eta_regen: float = 0.2
    aux_power: float = 300.0        # W, idle electronics

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise OutOfRange(f"battery.{f.name} must be finite, got {value}")
        if not (self.capacity > 0):
            raise OutOfRange("battery.capacity must be positive")
        if not (0 < self.eta_drive <= 1):
            raise OutOfRange("battery.eta_drive must be in (0, 1]")
        if not (0 <= self.eta_regen < 1):
            raise OutOfRange("battery.eta_regen must be in [0, 1)")
        if self.c_rr < 0 or self.c_steer < 0 or self.aux_power < 0:
            raise OutOfRange("battery.c_rr, c_steer and aux_power must be >= 0")


# validity intervals used by calibrate(); open bounds nudged inward
PARAM_BOUNDS = {
    "c_rr": (0.0, 0.5),
    "c_steer": (0.0, 10.0),
    "eta_drive": (0.05, 1.0),
    "eta_regen": (0.0, 0.99),
    "aux_power": (0.0, 1e5),
}

SUFFICIENT = "sufficient"
CHARGE_SUGGESTED = "charge_suggested"
CRITICAL = "critical"


def soc_band(soc: float) -> str:
    """Classify SOC: >=50% sufficient, below that a charge trip is suggested,
    below 20% the state is critical."""
    if not (0.0 <= soc <= 1.0):
        raise OutOfRange(f"soc {soc} outside [0, 1]")
    if soc >= 0.5:
        return SUFFICIENT
    if soc >= 0.2:
        return CHARGE_SUGGESTED
    return CRITICAL


def _features(dt, ds, v0, v1, dheading, mass, dh, lift_mass):
    """One segment's parameter-free features: (dt, ds, mass, w_kin,
    |dheading/dt|, dh, lift mass). The energy depends on the parameters only
    through _energy, so calibrate() builds these once per cycle."""
    if ds < 0 or dt <= 0:
        raise NonphysicalSegment(f"ds={ds}, dt={dt}")
    return dt, ds, mass, 0.5 * mass * (v1 * v1 - v0 * v0), abs(dheading / dt), dh, lift_mass


def _energy(features, p: BatteryParams):
    """The force balance: one segment's (draw, regen) in J from its features.

    Tractive work = kinetic change + rolling + steering friction. Positive
    tractive work is drawn through eta_drive; on braking only the kinetic
    release net of friction can be recuperated. Lifting draws through
    eta_drive, lowering recuperates through eta_regen, and the auxiliary
    load draws for dt seconds.
    """
    dt, ds, mass, w_kin, rate, dh, lift_mass = features
    friction = p.c_rr * mass * G * ds + p.c_steer * mass * rate * ds
    w_tr = w_kin + friction
    if w_tr >= 0:
        draw, regen = w_tr / p.eta_drive, 0.0
    else:
        draw, regen = 0.0, max(0.0, -w_kin - friction) * p.eta_regen
    vd = vr = 0.0
    if dh > 0:
        vd = lift_mass * G * dh / p.eta_drive
    elif dh < 0:
        vr = lift_mass * G * (-dh) * p.eta_regen
    return draw + vd + p.aux_power * dt, regen + vr


def vertical_work(dh: float, load_mass: float, fork_mass: float, p: BatteryParams):
    """Lift/lower energy -> (draw, regen), J."""
    return _energy((0.0, 0.0, 0.0, 0.0, 0.0, dh, load_mass + fork_mass), p)


@dataclass(frozen=True)
class VehicleConstants:
    truck_mass: float = 3000.0
    fork_mass: float = 100.0


def _segment_features(a, b, consts: VehicleConstants):
    """Features of the segment between two trajectory samples."""
    dt = b.t - a.t
    if dt <= 0:
        raise UnsortedSamples(f"non-increasing sample times {a.t} -> {b.t}")
    return _features(dt, 0.5 * (a.speed + b.speed) * dt,  # trapezoidal in speed
                     a.speed, b.speed, math.remainder(b.heading - a.heading, 2.0 * math.pi),
                     consts.truck_mass + a.load_mass,
                     b.fork_height - a.fork_height, b.load_mass + consts.fork_mass)


def _vehicle_features(samples, consts: VehicleConstants):
    """[(samples, segment features)] per vehicle, vehicles in id order."""
    per_vehicle = split_by_vehicle(samples)
    return [(ss, [_segment_features(a, b, consts) for a, b in zip(ss, ss[1:])])
            for _, ss in sorted(per_vehicle.items())]


def integrate_trajectory(samples, consts: VehicleConstants, p: BatteryParams):
    """Integrate one vehicle's (or many vehicles') samples.

    Each vehicle starts from the soc of its first sample; its SOC after a
    segment is that soc less the vehicle's net energy so far over the
    capacity, clamped to [0, 1]. Returns (total_draw, total_regen, the
    samples with that SOC), vehicles in id order.
    """
    total_draw = total_regen = 0.0
    series = []
    for _, ss in sorted(split_by_vehicle(samples).items()):
        series.append(ss[0])
        for draw, regen, sample in soc_steps(ss, consts, p, ss[0].soc):
            total_draw += draw
            total_regen += regen
            series.append(sample)
    return total_draw, total_regen, series


def soc_steps(ss, consts: VehicleConstants, p: BatteryParams, initial: float,
              drawn: float = 0.0, regenerated: float = 0.0):
    """Yield (draw, regen, sample with SOC) for each of one vehicle's samples
    ss[1:]. Its SOC is `initial` less the net energy over the capacity,
    clamped to [0, 1], the running sums continuing from drawn and
    regenerated: so a vehicle's samples integrated in pieces get the same
    bits as integrated at once."""
    for a, b in zip(ss, ss[1:]):
        draw, regen = _energy(_segment_features(a, b, consts), p)
        drawn += draw
        regenerated += regen
        yield draw, regen, TrajectorySample(
            *b[:8], min(max(initial - (drawn - regenerated) / p.capacity, 0.0), 1.0))


def _net(features, p: BatteryParams):
    """Total draw - total regen over a cycle's features, summed in the
    order integrate_trajectory sums them."""
    total_draw = total_regen = 0.0
    for f in features:
        draw, regen = _energy(f, p)
        total_draw += draw
        total_regen += regen
    return total_draw - total_regen


def _golden_section(f, lo, hi, iters=90):
    """Minimize a unimodal-ish f on [lo, hi]; returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return x, min(fc, fd)


@dataclass
class CalibrationResult:
    params: BatteryParams
    residuals: list
    objective: float
    sweeps: int
    converged: bool


def calibrate(cycles, p0: BatteryParams, free,
              consts: VehicleConstants = VehicleConstants()) -> CalibrationResult:
    """Fit the free parameters to measured cycle energies.

    cycles: list of (samples, measured_joules). Coordinate descent over the
    free parameters, golden-section line search inside each parameter's
    validity range. The objective is the sum of squared energy residuals
    and never increases across sweeps. Descent stops once a sweep improves
    the objective by less than 1e-9 of itself (converged) or after 200
    sweeps.
    """
    free = list(free)
    for name in free:
        if name not in PARAM_BOUNDS:
            raise OutOfRange(f"unknown free parameter '{name}'")
    if len(cycles) < len(free):
        raise Underdetermined(f"{len(cycles)} cycles for {len(free)} free parameters")

    # the segments' features do not depend on the parameters: build them once
    fits = [([seg for _, features in _vehicle_features(traj, consts) for seg in features],
             measured) for traj, measured in cycles]

    def objective(p):
        return sum((_net(features, p) - measured) ** 2 for features, measured in fits)

    p = p0
    obj = objective(p)
    if not free:
        residuals = [_net(features, p) - m for features, m in fits]
        return CalibrationResult(p, residuals, obj, 0, True)

    converged = False
    sweeps = 0
    for sweep in range(1, 201):
        sweeps = sweep
        prev = obj
        for name in free:
            lo, hi = PARAM_BOUNDS[name]

            def f(val, _name=name):
                return objective(replace(p, **{_name: val}))

            x, fx = _golden_section(f, lo, hi)
            if fx < obj:
                p = replace(p, **{name: x})
                obj = fx
        assert obj <= prev * (1 + 1e-15), "calibration objective increased"
        if prev > 0 and (prev - obj) / prev < 1e-9:
            converged = True
            break
        if prev == 0:
            converged = True
            break
    residuals = [_net(features, p) - m for features, m in fits]
    return CalibrationResult(p, residuals, obj, sweeps, converged)
