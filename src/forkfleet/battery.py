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
from dataclasses import dataclass, field, fields, replace

from .trajectory import UnsortedSamples, split_by_vehicle

G = 9.80665


class NonphysicalSegment(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class Underdetermined(ValueError):
    pass


@dataclass(frozen=True)
class BatteryParams:
    capacity: float = 1.0368e8      # J (28.8 kWh placeholder)
    c_rr: float = 0.02              # rolling resistance coefficient
    c_steer: float = 0.05           # N*s/(kg*rad), linear in |heading rate|
    eta_drive: float = 0.85
    eta_regen: float = 0.2
    aux_power: float = 300.0        # W, idle electronics
    g: float = G

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


def horizontal_work(v0: float, v1: float, ds: float, dheading: float, dt: float,
                    mass: float, p: BatteryParams):
    """Battery energy for one horizontal motion segment -> (draw, regen), J.

    Tractive work = kinetic change + rolling + steering friction. Positive
    tractive work is drawn through eta_drive; on braking only the kinetic
    release net of friction can be recuperated.
    """
    if ds < 0 or dt <= 0:
        raise NonphysicalSegment(f"ds={ds}, dt={dt}")
    w_kin = 0.5 * mass * (v1 * v1 - v0 * v0)
    friction = p.c_rr * mass * p.g * ds + p.c_steer * mass * abs(dheading / dt) * ds
    w_tr = w_kin + friction
    if w_tr >= 0:
        return w_tr / p.eta_drive, 0.0
    return 0.0, max(0.0, -w_kin - friction) * p.eta_regen


def vertical_work(dh: float, load_mass: float, fork_mass: float, p: BatteryParams):
    """Lift/lower energy -> (draw, regen), J."""
    m = load_mass + fork_mass
    if dh > 0:
        return m * p.g * dh / p.eta_drive, 0.0
    if dh < 0:
        return 0.0, m * p.g * (-dh) * p.eta_regen
    return 0.0, 0.0


@dataclass(frozen=True)
class VehicleConstants:
    truck_mass: float = 3000.0
    fork_mass: float = 100.0


@dataclass
class SocState:
    soc: float
    cumulative_draw: float = 0.0
    cumulative_regen: float = 0.0
    initial_soc: float = None

    def __post_init__(self):
        if self.initial_soc is None:
            self.initial_soc = self.soc


def segment_energy(a, b, consts: VehicleConstants, p: BatteryParams):
    """Energy for the segment between two trajectory samples -> (draw, regen)."""
    dt = b.t - a.t
    if dt <= 0:
        raise UnsortedSamples(f"non-increasing sample times {a.t} -> {b.t}")
    ds = 0.5 * (a.speed + b.speed) * dt  # trapezoidal in speed
    dheading = math.remainder(b.heading - a.heading, 2.0 * math.pi)
    mass = consts.truck_mass + a.load_mass
    draw, regen = horizontal_work(a.speed, b.speed, ds, dheading, dt, mass, p)
    vd, vr = vertical_work(b.fork_height - a.fork_height, b.load_mass,
                           consts.fork_mass, p)
    return draw + vd + p.aux_power * dt, regen + vr


def apply_energy(state: SocState, draw: float, regen: float, p: BatteryParams) -> SocState:
    cd = state.cumulative_draw + draw
    cr = state.cumulative_regen + regen
    soc = min(max(state.initial_soc - (cd - cr) / p.capacity, 0.0), 1.0)
    return SocState(soc, cd, cr, state.initial_soc)


def integrate_trajectory(samples, consts: VehicleConstants, p: BatteryParams):
    """Integrate one vehicle's (or many vehicles') samples.

    Each vehicle starts from the soc of its first sample. Returns
    (total_draw, total_regen, soc_series) where soc_series is a list of
    (t, vehicle_id, soc) per sample, vehicles in id order.
    """
    per_vehicle = split_by_vehicle(samples)
    total_draw = total_regen = 0.0
    series = []
    for vid in sorted(per_vehicle):
        ss = per_vehicle[vid]
        state = SocState(ss[0].soc)
        series.append((ss[0].t, vid, state.soc))
        for a, b in zip(ss, ss[1:]):
            draw, regen = segment_energy(a, b, consts, p)
            total_draw += draw
            total_regen += regen
            state = apply_energy(state, draw, regen, p)
            series.append((b.t, vid, state.soc))
    return total_draw, total_regen, series


def _net_energy(samples, consts, p):
    draw, regen, _ = integrate_trajectory(samples, consts, p)
    return draw - regen


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

    def objective(p):
        return sum((_net_energy(traj, consts, p) - measured) ** 2
                   for traj, measured in cycles)

    p = p0
    obj = objective(p)
    if not free:
        residuals = [_net_energy(traj, consts, p) - m for traj, m in cycles]
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
    residuals = [_net_energy(traj, consts, p) - m for traj, m in cycles]
    return CalibrationResult(p, residuals, obj, sweeps, converged)
