import math
import random

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from forkfleet import mapgen
from forkfleet.battery import (BatteryParams, CHARGE_SUGGESTED, CRITICAL,
                               CalibrationResult, NonphysicalSegment, OutOfRange,
                               PARAM_BOUNDS, SUFFICIENT, Underdetermined,
                               VehicleConstants, calibrate, integrate_trajectory,
                               soc_band, vertical_work, G, _energy, _features,
                               _golden_section, _net, _vehicle_features)
from forkfleet.fleet_sim import World
from forkfleet.trajectory import TrajectorySample, UnsortedSamples, split_by_vehicle

FRICTIONLESS = BatteryParams(c_rr=0.0, c_steer=0.0, eta_drive=1.0, eta_regen=0.3,
                             aux_power=0.0)


def horizontal_work(v0, v1, ds, dheading, dt, mass, p):
    """The kernel's (draw, regen) for one horizontal motion segment, without
    the auxiliary load."""
    _, ds, mass, w_kin, rate, _, _ = _features(dt, ds, v0, v1, dheading, mass, 0.0, 0.0)
    return _energy((0.0, ds, mass, w_kin, rate, 0.0, 0.0), p)


class TestHorizontalWork:
    def test_stationary(self):
        draw, regen = horizontal_work(0, 0, 0, 0, 1.0, 3000, BatteryParams())
        assert draw == 0.0 and regen == 0.0

    def test_constant_speed_straight(self):
        p = BatteryParams(c_rr=0.02, c_steer=0.0, eta_drive=0.85, aux_power=0.0)
        draw, regen = horizontal_work(1.0, 1.0, 10.0, 0.0, 10.0, 3000, p)
        assert draw == pytest.approx(0.02 * 3000 * G * 10 / 0.85, rel=1e-12)
        assert draw == pytest.approx(6922.3, abs=0.05)
        assert regen == 0.0

    def test_hard_stop_regen_kinetic_only(self):
        draw, regen = horizontal_work(2.0, 0.0, 1.0, 0.0, 1.0, 3000, FRICTIONLESS)
        assert draw == 0.0
        assert regen == pytest.approx(0.3 * 3000 * 4 / 2, rel=1e-12)

    def test_friction_never_regenerates(self):
        # braking work smaller than friction: nothing comes back
        p = BatteryParams(c_rr=0.5, c_steer=0.0, eta_drive=1.0, eta_regen=0.5,
                          aux_power=0.0)
        m, v0 = 1000.0, 0.5
        ds = 10.0
        w_kin = -0.5 * m * v0 * v0
        friction = 0.5 * m * G * ds
        assert friction > -w_kin
        draw, regen = horizontal_work(v0, 0.0, ds, 0.0, 5.0, m, p)
        assert regen == 0.0
        assert draw == pytest.approx(w_kin + friction, rel=1e-12)

    def test_steering_term(self):
        p = BatteryParams(c_rr=0.0, c_steer=0.05, eta_drive=1.0, aux_power=0.0)
        draw, _ = horizontal_work(1.0, 1.0, 2.0, 0.5, 1.0, 1000, p)
        assert draw == pytest.approx(0.05 * 1000 * 0.5 * 2.0, rel=1e-12)

    def test_nonphysical(self):
        with pytest.raises(NonphysicalSegment):
            horizontal_work(0, 0, -1.0, 0, 1.0, 1000, BatteryParams())
        with pytest.raises(NonphysicalSegment):
            horizontal_work(0, 0, 1.0, 0, 0.0, 1000, BatteryParams())


class TestVerticalWork:
    def test_zero(self):
        assert vertical_work(0.0, 1000, 100, BatteryParams()) == (0.0, 0.0)

    def test_lift(self):
        draw, regen = vertical_work(1.5, 1000, 100, BatteryParams(eta_drive=0.85))
        assert draw == pytest.approx(1100 * G * 1.5 / 0.85, rel=1e-12)
        assert draw == pytest.approx(19036.4, abs=0.1)
        assert regen == 0.0

    def test_lower(self):
        draw, regen = vertical_work(-1.5, 1000, 100, BatteryParams(eta_regen=0.2))
        assert draw == 0.0
        assert regen == pytest.approx(1100 * G * 1.5 * 0.2, rel=1e-12)
        assert regen == pytest.approx(3236.2, abs=0.05)


def drive_cycle(reps=1, leg=30.0, lift=2.0, speed=1.0, dt=1.0, vid=0):
    """drive leg, lift, drive leg, lower -- repeated; straight x motion."""
    samples = []
    t = 0.0
    x = 0.0
    fork = 0.0

    def emit(sp):
        samples.append(TrajectorySample(t, vid, x, 0.0, 0.0, sp, fork, 500.0, 1.0))

    emit(0.0)
    for _ in range(reps):
        for _leg in range(2):
            # accelerate instantly to speed, drive leg meters, stop
            n = int(leg / (speed * dt))
            for _ in range(n):
                t += dt
                x += speed * dt
                emit(speed)
            t += dt
            emit(0.0)
            # lift or lower
            dh = lift if _leg == 0 else -lift
            t += dt
            fork += dh
            emit(0.0)
    return samples


class TestIntegrateTrajectory:
    def test_empty(self):
        draw, regen, series = integrate_trajectory([], VehicleConstants(), BatteryParams())
        assert draw == 0.0 and regen == 0.0 and series == []

    def test_pure_lift_cycle(self):
        p = BatteryParams(aux_power=100.0)
        consts = VehicleConstants(3000, 100)
        samples = [
            TrajectorySample(0.0, 0, 0, 0, 0, 0, 0.0, 800.0, 1.0),
            TrajectorySample(5.0, 0, 0, 0, 0, 0, 1.5, 800.0, 1.0),
            TrajectorySample(10.0, 0, 0, 0, 0, 0, 0.0, 800.0, 1.0),
        ]
        draw, regen, _ = integrate_trajectory(samples, consts, p)
        up, _ = vertical_work(1.5, 800, 100, p)
        _, down = vertical_work(-1.5, 800, 100, p)
        assert draw == pytest.approx(up + 100.0 * 10.0, rel=1e-12)
        assert regen == pytest.approx(down, rel=1e-12)

    def test_vdi_style_cycle_closed_form(self):
        reps = 40
        p = BatteryParams(aux_power=0.0)
        consts = VehicleConstants(3000, 100)
        samples = drive_cycle(reps=reps)
        draw, regen, _ = integrate_trajectory(samples, consts, p)
        # cross-check the whole-trajectory totals against per-segment sums
        exp_draw = exp_regen = 0.0
        for a, b in zip(samples, samples[1:]):
            d, r = reference_segment_energy(a, b, consts, p)
            exp_draw += d
            exp_regen += r
        assert draw == pytest.approx(exp_draw, rel=1e-12)
        assert regen == pytest.approx(exp_regen, rel=1e-12)
        # closed form for the vertical part alone
        up, _ = vertical_work(2.0, 500, 100, p)
        _, down = vertical_work(-2.0, 500, 100, p)
        vertical_draw = reps * up
        assert draw > vertical_draw  # horizontal part adds on top

    def test_additivity_under_splitting(self):
        p = BatteryParams(aux_power=50.0)
        consts = VehicleConstants()
        a = TrajectorySample(0.0, 0, 0, 0, 0, 2.0, 0, 0, 1.0)
        b = TrajectorySample(10.0, 0, 20, 0, 0, 2.0, 0, 0, 1.0)
        mid = TrajectorySample(5.0, 0, 10, 0, 0, 2.0, 0, 0, 1.0)
        d1, r1, _ = integrate_trajectory([a, b], consts, p)
        d2, r2, _ = integrate_trajectory([a, mid, b], consts, p)
        assert d1 == pytest.approx(d2, rel=1e-9)
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_unsorted_rejected(self):
        a = TrajectorySample(1.0, 0, 0, 0, 0, 0, 0, 0, 1.0)
        b = TrajectorySample(0.5, 0, 0, 0, 0, 0, 0, 0, 1.0)
        with pytest.raises(UnsortedSamples):
            integrate_trajectory([a, b], VehicleConstants(), BatteryParams())

    def test_mass_scaling_doubles_friction_and_potential(self):
        p = BatteryParams(aux_power=0.0, c_steer=0.0, eta_regen=0.0)
        s = drive_cycle(reps=2)
        d1, _, _ = integrate_trajectory(s, VehicleConstants(1500, 50), p)
        s2 = [TrajectorySample(x.t, x.vehicle_id, x.x, x.y, x.heading, x.speed,
                               x.fork_height, 2 * x.load_mass, x.soc) for x in s]
        d2, _, _ = integrate_trajectory(s2, VehicleConstants(3000, 100), p)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_soc_monotone_without_regen(self):
        p = BatteryParams(eta_regen=0.0, capacity=1e6)
        _, _, series = integrate_trajectory(drive_cycle(reps=5), VehicleConstants(), p)
        socs = [s.soc for s in series]
        assert all(a >= b for a, b in zip(socs, socs[1:]))

    def test_closed_loop_strictly_negative(self):
        # back to start position, height and speed: net energy drawn > 0
        p = BatteryParams(c_rr=0.02, eta_regen=0.5, aux_power=0.0)
        samples = [
            TrajectorySample(0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(10, 0, 10, 0, 0, 1, 0, 0, 1.0),
            TrajectorySample(20, 0, 20, 0, math.pi, 0, 0, 0, 1.0),
            TrajectorySample(30, 0, 10, 0, math.pi, 1, 0, 0, 1.0),
            TrajectorySample(40, 0, 0, 0, 0, 0, 0, 0, 1.0),
        ]
        draw, regen, _ = integrate_trajectory(samples, VehicleConstants(), p)
        assert draw - regen > 0


class TestSocBand:
    @pytest.mark.parametrize("soc,band", [
        (0.75, SUFFICIENT), (0.5, SUFFICIENT), (1.0, SUFFICIENT),
        (0.49, CHARGE_SUGGESTED), (0.2, CHARGE_SUGGESTED),
        (0.19, CRITICAL), (0.0, CRITICAL),
    ])
    def test_bands(self, soc, band):
        assert soc_band(soc) == band

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            soc_band(1.5)


class TestSocSeries:
    def test_clamped_at_zero(self):
        # 1000 J of auxiliary load from a 100 J battery
        p = BatteryParams(capacity=100.0, aux_power=1000.0)
        samples = [TrajectorySample(0.0, 0, 0, 0, 0, 0), TrajectorySample(1.0, 0, 0, 0, 0, 0)]
        draw, _, series = integrate_trajectory(samples, VehicleConstants(), p)
        assert draw == 1000.0
        assert [s.soc for s in series] == [1.0, 0.0]

    def test_regen_raises_soc(self):
        # lowering 20 kg by 1 m recuperates about 98 J into a 1000 J battery
        p = BatteryParams(capacity=1000.0, aux_power=0.0, eta_regen=0.5)
        samples = [TrajectorySample(0.0, 0, 0, 0, 0, 0, 1.0, 20.0, 0.5),
                   TrajectorySample(1.0, 0, 0, 0, 0, 0, 0.0, 20.0, 0.5)]
        draw, regen, series = integrate_trajectory(samples, VehicleConstants(3000, 0.0), p)
        assert draw == 0.0 and regen == pytest.approx(20.0 * G * 0.5, rel=1e-12)
        assert series[-1].soc == pytest.approx(0.5 + regen / 1000.0, rel=1e-12)
        assert series[-1].soc > 0.5


class TestCalibrate:
    def truth(self):
        return BatteryParams(c_rr=0.013, aux_power=0.0)

    def cycles(self, n, noise=0.0, seed=0):
        rnd = random.Random(seed)
        consts = VehicleConstants(3000, 100)
        p_true = self.truth()
        out = []
        for i in range(n):
            traj = drive_cycle(reps=1 + i % 3, leg=20.0 + 5 * (i % 4), vid=0)
            draw, regen, _ = integrate_trajectory(traj, consts, p_true)
            measured = (draw - regen) * (1.0 + noise * rnd.gauss(0, 1))
            out.append((traj, measured))
        return out

    def test_recovers_single_parameter_exactly(self):
        cycles = self.cycles(3)
        p0 = BatteryParams(c_rr=0.05, aux_power=0.0)
        res = calibrate(cycles, p0, ["c_rr"])
        assert res.params.c_rr == pytest.approx(0.013, rel=1e-6)

    def test_recovers_under_noise(self):
        cycles = self.cycles(20, noise=0.05, seed=7)
        p0 = BatteryParams(c_rr=0.05, aux_power=0.0)
        res = calibrate(cycles, p0, ["c_rr"])
        assert res.params.c_rr == pytest.approx(0.013, rel=0.05)

    def test_empty_free_set_returns_p0(self):
        cycles = self.cycles(2)
        p0 = BatteryParams(c_rr=0.02, aux_power=0.0)
        res = calibrate(cycles, p0, [])
        assert res.params == p0
        assert len(res.residuals) == 2

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            calibrate(self.cycles(1), BatteryParams(), ["c_rr", "eta_drive"])


# --- the cached-feature kernel against the per-segment code it replaced -------

def reference_segment_energy(a, b, consts, p):
    """The force balance as the per-segment energy functions wrote it before
    the feature tuple, expression for expression."""
    dt = b.t - a.t
    if dt <= 0:
        raise UnsortedSamples(f"non-increasing sample times {a.t} -> {b.t}")
    ds = 0.5 * (a.speed + b.speed) * dt
    dheading = math.remainder(b.heading - a.heading, 2.0 * math.pi)
    mass = consts.truck_mass + a.load_mass
    if ds < 0 or dt <= 0:
        raise NonphysicalSegment(f"ds={ds}, dt={dt}")
    w_kin = 0.5 * mass * (b.speed * b.speed - a.speed * a.speed)
    friction = p.c_rr * mass * G * ds + p.c_steer * mass * abs(dheading / dt) * ds
    w_tr = w_kin + friction
    if w_tr >= 0:
        draw, regen = w_tr / p.eta_drive, 0.0
    else:
        draw, regen = 0.0, max(0.0, -w_kin - friction) * p.eta_regen
    m = b.load_mass + consts.fork_mass
    dh = b.fork_height - a.fork_height
    vd = vr = 0.0
    if dh > 0:
        vd = m * G * dh / p.eta_drive
    elif dh < 0:
        vr = m * G * (-dh) * p.eta_regen
    return draw + vd + p.aux_power * dt, regen + vr


def reference_net_energy(samples, consts, p):
    """Total draw - total regen, vehicles in id order, one segment at a time."""
    per_vehicle = split_by_vehicle(samples)
    draw = regen = 0.0
    for vid in sorted(per_vehicle):
        ss = per_vehicle[vid]
        for a, b in zip(ss, ss[1:]):
            d, r = reference_segment_energy(a, b, consts, p)
            draw += d
            regen += r
    return draw - regen


def reference_calibrate(cycles, p0, free, consts):
    """calibrate() as it was: every probe integrates every cycle afresh."""
    def objective(p):
        return sum((reference_net_energy(traj, consts, p) - measured) ** 2
                   for traj, measured in cycles)

    p = p0
    obj = objective(p)
    converged = False
    sweeps = 0
    for sweep in range(1, 201):
        sweeps = sweep
        prev = obj
        for name in free:
            lo, hi = PARAM_BOUNDS[name]
            x, fx = _golden_section(lambda val: objective(replace(p, **{name: val})), lo, hi)
            if fx < obj:
                p = replace(p, **{name: x})
                obj = fx
        if prev == 0 or (prev - obj) / prev < 1e-9:
            converged = True
            break
    residuals = [reference_net_energy(traj, consts, p) - m for traj, m in cycles]
    return CalibrationResult(p, residuals, obj, sweeps, converged)


@st.composite
def trajectories(draw, max_vehicles=3, max_samples=12):
    """Samples of 1-3 vehicles in (t, id) order: loads that change between
    samples, forks that lift, hold and lower, headings that wrap past +-pi."""
    samples = []
    for vid in range(draw(st.integers(1, max_vehicles))):
        t = draw(st.floats(0.0, 5.0))
        heading = draw(st.floats(-4.0, 4.0))
        for _ in range(draw(st.integers(1, max_samples))):
            samples.append(TrajectorySample(
                t, vid, 0.0, 0.0, heading, draw(st.floats(0.0, 3.0)),
                draw(st.sampled_from([0.0, 0.0, 1.5, 3.0]) | st.floats(0.0, 3.0)),
                draw(st.sampled_from([0.0, 500.0, 1200.0]) | st.floats(0.0, 2000.0)),
                1.0))
            t += draw(st.floats(0.01, 2.0))
            heading += draw(st.floats(-7.0, 7.0))
    samples.sort(key=lambda s: (s.t, s.vehicle_id))
    return samples


def battery_params():
    return st.builds(BatteryParams, **{name: st.floats(lo, hi)
                                       for name, (lo, hi) in PARAM_BOUNDS.items()})


def vehicle_constants():
    return st.builds(VehicleConstants, st.floats(500.0, 5000.0), st.floats(0.0, 300.0))


class TestCachedFeatures:
    @settings(max_examples=200, deadline=None)
    @given(trajectories(), vehicle_constants(), battery_params())
    def test_net_energy_matches_the_segment_loop(self, samples, consts, p):
        draw, regen, _ = integrate_trajectory(samples, consts, p)
        features = [f for _, fs in _vehicle_features(samples, consts) for f in fs]
        net = _net(features, p)
        assert net == draw - regen
        assert net == reference_net_energy(samples, consts, p)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(trajectories(max_vehicles=2, max_samples=8),
                              st.floats(0.5, 1.5)), min_size=1, max_size=3),
           vehicle_constants(), battery_params(), battery_params(),
           st.sampled_from(sorted(PARAM_BOUNDS)))
    def test_calibrate_matches_the_reference(self, cases, consts, truth, p0, name):
        cycles = [(samples, reference_net_energy(samples, consts, truth) * scale)
                  for samples, scale in cases]
        assert (calibrate(cycles, p0, [name], consts)
                == reference_calibrate(cycles, p0, [name], consts))

    def test_calibrate_keeps_the_sample_checks(self):
        p0 = BatteryParams()
        backwards = [TrajectorySample(1.0, 0, 0, 0, 0, 0), TrajectorySample(0.5, 0, 0, 0, 0, 0)]
        with pytest.raises(UnsortedSamples):
            calibrate([(backwards, 1.0)], p0, ["c_rr"])
        reversing = [TrajectorySample(0.0, 0, 0, 0, 0, -1.0),
                     TrajectorySample(1.0, 0, 0, 0, 0, -1.0)]
        with pytest.raises(NonphysicalSegment):
            calibrate([(reversing, 1.0)], p0, ["c_rr"])


# --- World.run's battery pass against the per-step update it replaced ---------

@dataclass
class ReferenceSocState:
    """battery.SocState as it was."""
    soc: float
    cumulative_draw: float = 0.0
    cumulative_regen: float = 0.0
    initial_soc: float = None

    def __post_init__(self):
        if self.initial_soc is None:
            self.initial_soc = self.soc


def reference_apply_energy(state, draw, regen, p):
    """battery.apply_energy as it was."""
    cd = state.cumulative_draw + draw
    cr = state.cumulative_regen + regen
    soc = min(max(state.initial_soc - (cd - cr) / p.capacity, 0.0), 1.0)
    return ReferenceSocState(soc, cd, cr, state.initial_soc)


def reference_run(world, n_steps):
    """World.run as it was: after every step, each vehicle's battery takes
    that step's segment. -> (samples, {vehicle_id: ReferenceSocState})."""
    def sample_of(v, t):
        return TrajectorySample(t, v.id, v.x, v.y, v.heading, v.speed,
                                v.fork_height, v.load_mass, v.soc)

    states = {v.id: ReferenceSocState(v.soc) for v in world.vehicles}
    prev = {v.id: sample_of(v, world.clock) for v in world.vehicles}
    samples = list(prev.values())
    for _ in range(n_steps):
        world.step()
        t = world.clock
        for v in world.vehicles:
            consts = VehicleConstants(v.truck_mass, world.fork_mass)
            draw, regen = reference_segment_energy(prev[v.id], sample_of(v, t), consts,
                                                   world.battery_params)
            states[v.id] = reference_apply_energy(states[v.id], draw, regen,
                                                  world.battery_params)
            v.soc = states[v.id].soc
            prev[v.id] = sample_of(v, t)
            samples.append(prev[v.id])
    return samples, states


@st.composite
def fleets(draw):
    """(world factory, steps): a random warehouse map, 1-6 vehicles with
    random initial SOC, a seed and a dt."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n_vehicles = draw(st.integers(1, min(6, nx * (ny + 1))))
    n_spots = draw(st.integers(n_vehicles, min(8, nx * (ny + 1))))
    seed = draw(st.integers(0, 2**32))
    dt = draw(st.sampled_from([0.05, 0.1, 0.2]))
    socs = [draw(st.sampled_from([1.0, 0.8]) | st.floats(0.0, 1.0))
            for _ in range(n_vehicles)]
    p = BatteryParams(capacity=draw(st.sampled_from([1.0368e8, 1e5])))

    def make():
        g = mapgen.warehouse_map(nx=nx, ny=ny, n_spots=n_spots)
        world = World.spawn_at_spots(g, n_vehicles, seed=seed, dt=dt, battery_params=p)
        for v, soc in zip(world.vehicles, socs):
            v.soc = soc
        return world

    return make, draw(st.integers(1, int(20.0 / dt)))


class TestWorldBattery:
    @settings(max_examples=100, deadline=None)
    @given(fleets())
    def test_run_matches_the_per_step_update(self, fleet):
        make, n_steps = fleet
        world = make()
        samples = world.run(n_steps * world.dt)
        ref_samples, states = reference_run(make(), n_steps)
        assert samples == ref_samples
        for row in world.summary():
            state = states[row["vehicle_id"]]
            assert row["energy_drawn"] == state.cumulative_draw
            assert row["energy_regenerated"] == state.cumulative_regen
            assert row["final_soc"] == state.soc
