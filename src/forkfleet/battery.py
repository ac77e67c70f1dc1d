"""Force-balance battery model: work integration along trajectories and SOC.

Forces modeled: kinetic (accelerate/brake), rolling resistance, steering
resistance, gravity on forks/load, constant auxiliary power. Aerodynamic
drag is omitted (negligible at forklift speeds). Regeneration applies only
to kinetic and potential energy release, never to friction terms.

A segment's features are built in one place, _segment_features, for the
SocMeter and calibrate() alike. SOC is integrated in one place, one
SocMeter per run that holds each vehicle's energy sums, each add one
_energies pass: simulate adds each step of its whole fleet, replay a chunk
of one vehicle's states. calibrate() runs _energies once per distinct
segment of its cycles, not once per segment. Every float sum runs left to
right from 0.0 (forkfleet.total), so it gives the same bits on every
Python. Default numeric parameter values are placeholders; calibrate()
fits them against measured duty-cycle energies (e.g. VDI 2198 style
cycles).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

from . import ConfigError, Infeasible, InputError, setting, total
from .trajectory import TrajectorySample, split_by_vehicle

G = 9.80665
TRUCK_MASS = 3000.0  # kg, an empty truck
FORK_MASS = 100.0    # kg, the forks, which every lift and lowering moves


@dataclass(frozen=True)
class BatteryParams:
    capacity: float = setting(1.0368e8, 0, ends="(]")   # J (28.8 kWh placeholder)
    c_rr: float = setting(0.02, 0)          # rolling resistance coefficient
    c_steer: float = setting(0.05, 0)       # N*s/(kg*rad), linear in |heading rate|
    eta_drive: float = setting(0.85, 0, 1, "(]")
    eta_regen: float = setting(0.2, 0, 1, "[)")
    aux_power: float = setting(300.0, 0)    # W, idle electronics


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
    """Classify a SOC in [0, 1]: >=50% sufficient, below that a charge trip is
    suggested, below 20% the state is critical."""
    if soc >= 0.5:
        return SUFFICIENT
    if soc >= 0.2:
        return CHARGE_SUGGESTED
    return CRITICAL


def _energies(features, p: BatteryParams):
    """The force balance: yield each segment's (draw, regen) in J from its
    features, reading p's fields once.

    Tractive work = kinetic change + rolling + steering friction. Positive
    tractive work is drawn through eta_drive; on braking only the kinetic
    release net of friction can be recuperated. Lifting draws through
    eta_drive, lowering recuperates through eta_regen, and the auxiliary
    load draws for dt seconds.
    """
    c_rr, c_steer, eta_drive, eta_regen, aux_power = (
        p.c_rr, p.c_steer, p.eta_drive, p.eta_regen, p.aux_power)
    for dt, ds, mass, w_kin, rate, dh, lift_mass in features:
        friction = c_rr * mass * G * ds + c_steer * mass * rate * ds
        w_tr = w_kin + friction
        if w_tr >= 0:
            draw, regen = w_tr / eta_drive, 0.0
        else:
            draw, regen = 0.0, max(0.0, -w_kin - friction) * eta_regen
        vd = vr = 0.0
        if dh > 0:
            vd = lift_mass * G * dh / eta_drive
        elif dh < 0:
            vr = lift_mass * G * (-dh) * eta_regen
        yield draw + vd + aux_power * dt, regen + vr


def _segment_features(a, b, fork_mass: float):
    """The parameter-free features of the segment between two samples of one
    vehicle: (dt, ds, mass, w_kin, |dheading/dt|, dh, lift mass). The energy
    depends on the parameters only through _energies, so calibrate() builds
    these once per cycle. Samples are read by position, so either one may be
    a state, a sample's first eight fields (all but soc). A refusal names the
    vehicle and b's t."""
    # t, vehicle_id, x, y, heading, speed, fork_height, load_mass at 0..7
    v0, v1 = a[5], b[5]
    dt = b[0] - a[0]
    ds = 0.5 * (v0 + v1) * dt  # trapezoidal in speed
    dheading = math.remainder(b[4] - a[4], 2.0 * math.pi)  # an inf change raises here first
    if ds < 0 or dt <= 0:
        raise InputError(f"vehicle {b[1]} at t={b[0]:.12g}: ds={ds}, dt={dt}")
    mass = TRUCK_MASS + a[7]
    return (dt, ds, mass, 0.5 * mass * (v1 * v1 - v0 * v0), abs(dheading / dt), b[6] - a[6],
            b[7] + fork_mass)


def _vehicle_features(samples, fork_mass: float):
    """Every segment's features, vehicles in id order."""
    return [_segment_features(a, b, fork_mass)
            for _, ss in sorted(split_by_vehicle(samples).items()) for a, b in zip(ss, ss[1:])]


class SocMeter:
    """Each vehicle's running energy sums and SOC, all vehicles with one
    fork_mass, each vehicle fed its samples in time order after its first. A
    vehicle's drawn and regenerated sum its segments in the order they were
    fed, and its SOC is its first sample's soc less that net energy over the
    capacity, clamped to [0, 1]. An add that makes a vehicle's sums not finite
    raises error at the state that did: InputError for read samples, else
    ConfigError."""

    def __init__(self, firsts, fork_mass: float, p: BatteryParams, error=InputError):
        # vehicle_id -> [last sample, initial soc, drawn, regenerated]
        self._vehicles = {s.vehicle_id: [s, s.soc, 0.0, 0.0] for s in firsts}
        self.fork_mass = fork_mass
        self.p = p
        self.error = error

    def energy(self, vehicle_id):
        """(drawn, regenerated) of one vehicle so far, J."""
        return tuple(self._vehicles[vehicle_id][2:])

    def add(self, states):
        """Integrate each state's segment from its vehicle's last sample, in
        order and through one _energies pass; a state is a sample's first
        eight fields. -> the samples, each with the SOC after its segment."""
        rows = [self._vehicles[s[1]] for s in states]
        fork_mass = self.fork_mass
        features = []
        for row, s in zip(rows, states):
            features.append(_segment_features(row[0], s, fork_mass))
            row[0] = s
        capacity = self.p.capacity
        new = tuple.__new__
        out = []
        for row, s, (draw, regen) in zip(rows, states, _energies(features, self.p)):
            row[2] += draw
            row[3] += regen
            if not math.isfinite(row[2] + row[3]):  # also where either one is not
                raise self.error(f"vehicle {s[1]} at t={s[0]:.12g}: the energy sum is not "
                                 f"finite ({draw!r} J drawn, {regen!r} J regenerated)")
            soc = row[1] - (row[2] - row[3]) / capacity
            soc = 0.0 if 0.0 > soc else soc  # max(soc, 0.0), then min(soc, 1.0)
            out.append(new(TrajectorySample, (*s, 1.0 if 1.0 < soc else soc)))
        return out


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


def _objective(res):
    """The sum of squared residuals, or +inf where that is not finite: r ** 2
    raises OverflowError where r * r would give inf, and nan is never smaller
    than anything, so such a point is never picked."""
    try:
        obj = total(r ** 2 for r in res)
    except OverflowError:
        return math.inf
    return obj if obj == obj else math.inf


@dataclass
class CalibrationResult:
    params: BatteryParams
    residuals: list
    objective: float
    sweeps: int
    converged: bool


def calibrate(cycles, p0: BatteryParams, free, fork_mass: float = FORK_MASS) -> CalibrationResult:
    """Fit the free parameters to measured cycle energies.

    cycles: list of (samples, measured_joules). Coordinate descent over the
    free parameters, golden-section line search inside each parameter's
    validity range. The objective is the sum of squared energy residuals
    and never increases across sweeps. Descent stops once a sweep improves
    the objective by less than 1e-9 of itself (converged) or after 200
    sweeps. A start point whose objective is not finite is refused.

    Each evaluation runs the force balance once per distinct segment of all
    the cycles, then sums each cycle's draws and regens left to right in
    segment order, vehicles in id order.
    """
    free = list(free)
    for name in free:
        if name not in PARAM_BOUNDS:
            raise ConfigError(f"unknown free parameter '{name}'")
        if free.count(name) > 1:
            raise ConfigError(f"free parameter '{name}' named more than once")
    if len(cycles) < len(free):
        raise Infeasible(f"{len(cycles)} cycles for {len(free)} free parameters")

    # The segments' features do not depend on the parameters: build them once,
    # keep one copy of each distinct tuple, keyed by its bits (so -0.0 and nan
    # need no rule), and hold each cycle as indices into those copies.
    index, distinct, fits = {}, [], []
    for traj, measured in cycles:
        ix = []
        for f in _vehicle_features(traj, fork_mass):
            key = struct.pack("7d", *f)
            if key not in index:
                index[key] = len(distinct)
                distinct.append(f)
            ix.append(index[key])
        fits.append((ix, measured))

    def residuals(p):
        energies = list(_energies(distinct, p))
        out = []
        for ix, measured in fits:
            drawn = regenerated = 0.0
            for i in ix:
                draw, regen = energies[i]
                drawn += draw
                regenerated += regen
            out.append(drawn - regenerated - measured)
        return out

    p = p0
    res = residuals(p)
    obj = _objective(res)
    if obj == math.inf:  # name the cycle of the largest residual, nan the largest of all
        i = max(range(len(res)), key=lambda i: abs(res[i]) if res[i] == res[i] else math.inf)
        raise InputError(f"cycle {i}: residual {res[i]!r} J at the start point makes the "
                         "calibration objective not finite")
    if not free:
        return CalibrationResult(p, res, obj, 0, True)

    # The objective depends on the point's bits alone, so each point is
    # evaluated once, keyed by its repr (0.0 == -0.0, but their reprs differ).
    memo = {}

    def objective(q):
        key = repr(q)
        if key not in memo:
            memo[key] = _objective(residuals(q))
        return memo[key]

    converged = False
    for sweeps in range(1, 201):
        prev = obj
        for name in free:
            lo, hi = PARAM_BOUNDS[name]
            x, fx = _golden_section(lambda val: objective(replace(p, **{name: val})), lo, hi)
            if fx < obj:
                p = replace(p, **{name: x})
                obj = fx
        assert obj <= prev * (1 + 1e-15), "calibration objective increased"
        if prev == 0 or (prev - obj) / prev < 1e-9:
            converged = True
            break
    return CalibrationResult(p, residuals(p), obj, sweeps, converged)
