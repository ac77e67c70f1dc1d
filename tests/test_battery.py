import math
import random

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_samples
from eager import integrate_trajectory
from forkfleet import ConfigError, Infeasible, InputError, battery, mapgen, total
from forkfleet.battery import (BatteryParams, CHARGE_SUGGESTED, CRITICAL,
                               CalibrationResult, PARAM_BOUNDS, SUFFICIENT, SocMeter,
                               FORK_MASS, TRUCK_MASS, calibrate, soc_band, G, _energies,
                               _golden_section, _segment_features, _vehicle_features)
from forkfleet.fleet_sim import World
from forkfleet.trajectory import TrajectorySample, split_by_vehicle

FRICTIONLESS = BatteryParams(c_rr=0.0, c_steer=0.0, eta_drive=1.0, eta_regen=0.3,
                             aux_power=0.0)


def horizontal_work(v0, v1, ds, dheading, dt, mass, p):
    """The kernel's (draw, regen) for one horizontal motion segment, without
    the auxiliary load: its features written out from their formulas."""
    w_kin = 0.5 * mass * (v1 * v1 - v0 * v0)
    return next(_energies([(0.0, ds, mass, w_kin, abs(dheading / dt), 0.0, 0.0)], p))


def vertical_segment(dh, lift_mass, p):
    """The kernel's (draw, regen) for one segment that only moves the forks,
    with lift_mass on them, by dh, without the auxiliary load."""
    return next(_energies([(0.0, 0.0, 0.0, 0.0, 0.0, dh, lift_mass)], p))


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
        # a truck at -1 m/s for 1 s drives a negative distance
        a, b = TrajectorySample(0.0, 0, 0, 0, 0, -1.0), TrajectorySample(1.0, 0, -1, 0, 0, -1.0)
        with pytest.raises(InputError, match=r"^vehicle 0 at t=1: ds=-1\.0, dt=1\.0$"):
            _segment_features(a, b, FORK_MASS)
        # two samples at one t
        a, b = TrajectorySample(1.0, 3, 0, 0, 0, 0.0), TrajectorySample(1.0, 3, 0, 0, 0, 0.0)
        with pytest.raises(InputError, match=r"^vehicle 3 at t=1: ds=0\.0, dt=0\.0$"):
            _segment_features(a, b, FORK_MASS)
        # math.remainder refuses an inf heading change before the ds/dt test
        b = TrajectorySample(1.0, 3, 0, 0, math.inf, 0.0)
        with pytest.raises(ValueError, match="math domain error") as exc:
            _segment_features(a, b, FORK_MASS)
        assert type(exc.value) is ValueError


class TestVerticalWork:
    def test_zero(self):
        assert vertical_segment(0.0, 1000 + 100, BatteryParams()) == (0.0, 0.0)

    def test_lift(self):
        draw, regen = vertical_segment(1.5, 1000 + 100, BatteryParams(eta_drive=0.85))
        assert draw == pytest.approx(1100 * G * 1.5 / 0.85, rel=1e-12)
        assert draw == pytest.approx(19036.4, abs=0.1)
        assert regen == 0.0

    def test_lower(self):
        draw, regen = vertical_segment(-1.5, 1000 + 100, BatteryParams(eta_regen=0.2))
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
        draw, regen, series = integrate_trajectory([], FORK_MASS, BatteryParams())
        assert draw == 0.0 and regen == 0.0 and series == []

    def test_pure_lift_cycle(self):
        p = BatteryParams(aux_power=100.0)
        samples = [
            TrajectorySample(0.0, 0, 0, 0, 0, 0, 0.0, 800.0, 1.0),
            TrajectorySample(5.0, 0, 0, 0, 0, 0, 1.5, 800.0, 1.0),
            TrajectorySample(10.0, 0, 0, 0, 0, 0, 0.0, 800.0, 1.0),
        ]
        draw, regen, _ = integrate_trajectory(samples, FORK_MASS, p)
        up, _ = vertical_segment(1.5, 800 + 100, p)
        _, down = vertical_segment(-1.5, 800 + 100, p)
        assert draw == pytest.approx(up + 100.0 * 10.0, rel=1e-12)
        assert regen == pytest.approx(down, rel=1e-12)

    def test_vdi_style_cycle_closed_form(self):
        reps = 40
        p = BatteryParams(aux_power=0.0)
        samples = drive_cycle(reps=reps)
        draw, regen, _ = integrate_trajectory(samples, FORK_MASS, p)
        # cross-check the whole-trajectory totals against per-segment sums
        exp_draw = exp_regen = 0.0
        for a, b in zip(samples, samples[1:]):
            d, r = reference_segment_energy(a, b, FORK_MASS, p)
            exp_draw += d
            exp_regen += r
        assert draw == pytest.approx(exp_draw, rel=1e-12)
        assert regen == pytest.approx(exp_regen, rel=1e-12)
        # closed form for the vertical part alone
        up, _ = vertical_segment(2.0, 500 + 100, p)
        _, down = vertical_segment(-2.0, 500 + 100, p)
        vertical_draw = reps * up
        assert draw > vertical_draw  # horizontal part adds on top

    def test_additivity_under_splitting(self):
        p = BatteryParams(aux_power=50.0)
        a = TrajectorySample(0.0, 0, 0, 0, 0, 2.0, 0, 0, 1.0)
        b = TrajectorySample(10.0, 0, 20, 0, 0, 2.0, 0, 0, 1.0)
        mid = TrajectorySample(5.0, 0, 10, 0, 0, 2.0, 0, 0, 1.0)
        d1, r1, _ = integrate_trajectory([a, b], FORK_MASS, p)
        d2, r2, _ = integrate_trajectory([a, mid, b], FORK_MASS, p)
        assert d1 == pytest.approx(d2, rel=1e-9)
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_unsorted_rejected(self):
        # the segment's own dt <= 0 refusal, which read_csv's order check precedes
        a = TrajectorySample(1.0, 0, 0, 0, 0, 0, 0, 0, 1.0)
        b = TrajectorySample(0.5, 0, 0, 0, 0, 0, 0, 0, 1.0)
        with pytest.raises(InputError, match="vehicle 0 at t=0.5: ds=-0.0, dt=-0.5"):
            integrate_trajectory([a, b], FORK_MASS, BatteryParams())

    def test_mass_scaling_doubles_friction_and_potential(self):
        p = BatteryParams(aux_power=0.0, c_steer=0.0, eta_regen=0.0)
        features = _vehicle_features(drive_cycle(reps=2), FORK_MASS)
        # twice the mass moved and lifted, so twice the kinetic work too
        doubled = [(dt, ds, 2 * mass, 2 * w_kin, rate, dh, 2 * lift_mass)
                   for dt, ds, mass, w_kin, rate, dh, lift_mass in features]
        d1 = total(draw for draw, _ in _energies(features, p))
        d2 = total(draw for draw, _ in _energies(doubled, p))
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_soc_monotone_without_regen(self):
        p = BatteryParams(eta_regen=0.0, capacity=1e6)
        _, _, series = integrate_trajectory(drive_cycle(reps=5), FORK_MASS, p)
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
        draw, regen, _ = integrate_trajectory(samples, FORK_MASS, p)
        assert draw - regen > 0


class TestSocBand:
    @pytest.mark.parametrize("soc,band", [
        (0.75, SUFFICIENT), (0.5, SUFFICIENT), (1.0, SUFFICIENT),
        (0.49, CHARGE_SUGGESTED), (0.2, CHARGE_SUGGESTED),
        (0.19, CRITICAL), (0.0, CRITICAL),
    ])
    def test_bands(self, soc, band):
        assert soc_band(soc) == band


class TestSocSeries:
    def test_clamped_at_zero(self):
        # 1000 J of auxiliary load from a 100 J battery
        p = BatteryParams(capacity=100.0, aux_power=1000.0)
        samples = [TrajectorySample(0.0, 0, 0, 0, 0, 0), TrajectorySample(1.0, 0, 0, 0, 0, 0)]
        draw, _, series = integrate_trajectory(samples, FORK_MASS, p)
        assert draw == 1000.0
        assert [s.soc for s in series] == [1.0, 0.0]

    def test_regen_raises_soc(self):
        # lowering 20 kg by 1 m recuperates about 98 J into a 1000 J battery
        p = BatteryParams(capacity=1000.0, aux_power=0.0, eta_regen=0.5)
        samples = [TrajectorySample(0.0, 0, 0, 0, 0, 0, 1.0, 20.0, 0.5),
                   TrajectorySample(1.0, 0, 0, 0, 0, 0, 0.0, 20.0, 0.5)]
        draw, regen, series = integrate_trajectory(samples, 0.0, p)
        assert draw == 0.0 and regen == pytest.approx(20.0 * G * 0.5, rel=1e-12)
        assert series[-1].soc == pytest.approx(0.5 + regen / 1000.0, rel=1e-12)
        assert series[-1].soc > 0.5


class TestCalibrate:
    def truth(self):
        return BatteryParams(c_rr=0.013, aux_power=0.0)

    def cycles(self, n, noise=0.0, seed=0):
        rnd = random.Random(seed)
        p_true = self.truth()
        out = []
        for i in range(n):
            traj = drive_cycle(reps=1 + i % 3, leg=20.0 + 5 * (i % 4), vid=0)
            draw, regen, _ = integrate_trajectory(traj, FORK_MASS, p_true)
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
        with pytest.raises(Infeasible, match="1 cycles for 2 free parameters"):
            calibrate(self.cycles(1), BatteryParams(), ["c_rr", "eta_drive"])

    def test_a_parameter_named_twice(self):
        # one cycle is also too few for two names; the repeated name is reported
        with pytest.raises(ConfigError, match="free parameter 'c_rr' named more than once"):
            calibrate(self.cycles(1), BatteryParams(), ["c_rr", "c_rr"])

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # sweep 2's line search repeats sweep 1's, whose points (and those its
        # interval repeats below float resolution) come from the cache; each
        # point is one force-balance pass over the cycles' distinct segments
        cycles = self.cycles(3)
        cycles.append(cycles[1])  # a cycle given twice adds no segment to evaluate
        calls = []
        energies = battery._energies

        def counted(features, p):
            calls.append((len(features), repr(p)))
            return energies(features, p)

        monkeypatch.setattr(battery, "_energies", counted)
        res = calibrate(cycles, BatteryParams(c_rr=0.05, aux_power=0.0), ["c_rr"])
        assert res.sweeps >= 2
        features = [f for traj, _ in cycles for f in _vehicle_features(traj, FORK_MASS)]
        search, final = calls[:-1], calls[-1]
        assert len({p for _, p in search}) == len(search)
        assert final == (len(set(features)), repr(res.params))
        assert {n for n, _ in search} == {len(set(features))}
        assert len(set(features)) < len(features)


# --- the cached-feature kernel against the per-segment code it replaced -------

def reference_segment_energy(a, b, fork_mass, p):
    """The force balance as the per-segment energy functions wrote it before
    the feature tuple, expression for expression."""
    dt = b.t - a.t
    if dt <= 0:
        raise InputError(f"non-increasing sample times {a.t} -> {b.t}")
    ds = 0.5 * (a.speed + b.speed) * dt
    dheading = math.remainder(b.heading - a.heading, 2.0 * math.pi)
    mass = TRUCK_MASS + a.load_mass
    if ds < 0 or dt <= 0:
        raise InputError(f"ds={ds}, dt={dt}")
    w_kin = 0.5 * mass * (b.speed * b.speed - a.speed * a.speed)
    friction = p.c_rr * mass * G * ds + p.c_steer * mass * abs(dheading / dt) * ds
    w_tr = w_kin + friction
    if w_tr >= 0:
        draw, regen = w_tr / p.eta_drive, 0.0
    else:
        draw, regen = 0.0, max(0.0, -w_kin - friction) * p.eta_regen
    m = b.load_mass + fork_mass
    dh = b.fork_height - a.fork_height
    vd = vr = 0.0
    if dh > 0:
        vd = m * G * dh / p.eta_drive
    elif dh < 0:
        vr = m * G * (-dh) * p.eta_regen
    return draw + vd + p.aux_power * dt, regen + vr


def reference_net_energy(samples, fork_mass, p):
    """Total draw - total regen, vehicles in id order, one segment at a time."""
    per_vehicle = split_by_vehicle(samples)
    draw = regen = 0.0
    for vid in sorted(per_vehicle):
        ss = per_vehicle[vid]
        for a, b in zip(ss, ss[1:]):
            d, r = reference_segment_energy(a, b, fork_mass, p)
            draw += d
            regen += r
    return draw - regen


def reference_calibrate(cycles, p0, free, fork_mass):
    """calibrate() as it was: every probe integrates every cycle afresh."""
    def objective(p):
        # left to right from 0.0: the builtin sum() of floats is compensated
        # since Python 3.12
        squares = 0.0
        for traj, measured in cycles:
            squares += (reference_net_energy(traj, fork_mass, p) - measured) ** 2
        return squares

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
    residuals = [reference_net_energy(traj, fork_mass, p) - m for traj, m in cycles]
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


@st.composite
def repeating_trajectories(draw):
    """Samples of 1-2 vehicles whose fields come from a few values each, so
    that segments repeat: dyadic time steps, -0.0 among the speeds and fork
    heights, and now and then a speed of 1e200."""
    samples = []
    for vid in range(draw(st.integers(1, 2))):
        t = 0.0
        for _ in range(draw(st.integers(1, 10))):
            samples.append(TrajectorySample(
                t, vid, 0.0, 0.0, draw(st.sampled_from([0.0, -0.0, 1.0, 3.0])),
                draw(st.sampled_from([0.0, -0.0, 1.0, 2.5] * 4 + [1e200])),
                draw(st.sampled_from([0.0, -0.0, 1.5])),
                draw(st.sampled_from([0.0, 500.0])), 1.0))
            t += draw(st.sampled_from([0.25, 0.5]))
    samples.sort(key=lambda s: (s.t, s.vehicle_id))
    return samples


def battery_params():
    return st.builds(BatteryParams, **{name: st.floats(lo, hi)
                                       for name, (lo, hi) in PARAM_BOUNDS.items()})


def fork_masses():
    return st.floats(0.0, 300.0)


class TestCachedFeatures:
    @settings(max_examples=200, deadline=None)
    @given(trajectories(), fork_masses(), battery_params())
    def test_net_energy_matches_the_segment_loop(self, samples, fork_mass, p):
        # with no free parameter calibrate returns the start point's residuals
        draw, regen, _ = integrate_trajectory(samples, fork_mass, p)
        [net] = calibrate([(samples, 0.0)], p, [], fork_mass).residuals
        assert net == draw - regen
        assert net == reference_net_energy(samples, fork_mass, p)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(repeating_trajectories(), min_size=1, max_size=3),
           st.lists(st.integers(0, 2), max_size=3), fork_masses(), battery_params(),
           st.lists(st.floats(-1e5, 1e5), min_size=6, max_size=6))
    def test_distinct_segments_give_the_reference_residuals(self, trajs, again, fork_mass, p,
                                                            measured):
        # whole cycles given twice, segments repeated within and across
        # cycles, -0.0 speeds and fork heights, and speeds whose squares
        # overflow, so that w_kin is inf or inf - inf = nan
        trajs += [trajs[i % len(trajs)] for i in again]
        cycles = list(zip(trajs, measured))
        ref = [reference_net_energy(traj, fork_mass, p) - m for traj, m in cycles]
        try:
            res = calibrate(cycles, p, [], fork_mass).residuals
        except InputError as e:
            # the start point is refused, naming the largest residual, nan above all
            i = max(range(len(ref)), key=lambda i: abs(ref[i]) if ref[i] == ref[i] else math.inf)
            assert str(e) == (f"cycle {i}: residual {ref[i]!r} J at the start point makes "
                              "the calibration objective not finite")
            assert not math.isfinite(total(r * r for r in ref))
        else:
            assert [r.hex() for r in res] == [r.hex() for r in ref]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(trajectories(max_vehicles=2, max_samples=8),
                              st.floats(0.5, 1.5)), min_size=1, max_size=3),
           fork_masses(), battery_params(), battery_params(),
           st.sampled_from(sorted(PARAM_BOUNDS)))
    def test_calibrate_matches_the_reference(self, cases, fork_mass, truth, p0, name):
        cycles = [(samples, reference_net_energy(samples, fork_mass, truth) * scale)
                  for samples, scale in cases]
        assert (calibrate(cycles, p0, [name], fork_mass)
                == reference_calibrate(cycles, p0, [name], fork_mass))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(trajectories(max_vehicles=1, max_samples=4),
                              st.floats(0.5, 1.5)), min_size=2, max_size=2),
           fork_masses(), battery_params(), battery_params(),
           st.lists(st.sampled_from(sorted(PARAM_BOUNDS)), min_size=2, max_size=2,
                    unique=True))
    def test_two_parameters_match_the_reference(self, cases, fork_mass, truth, p0, names):
        # a line search is reused only while the other parameter is unchanged
        cycles = [(samples, reference_net_energy(samples, fork_mass, truth) * scale)
                  for samples, scale in cases]
        assert (calibrate(cycles, p0, names, fork_mass)
                == reference_calibrate(cycles, p0, names, fork_mass))

    def test_calibrate_keeps_the_sample_checks(self):
        p0 = BatteryParams()
        backwards = [TrajectorySample(1.0, 0, 0, 0, 0, 0), TrajectorySample(0.5, 0, 0, 0, 0, 0)]
        with pytest.raises(InputError, match="vehicle 0 at t=0.5: ds=-0.0, dt=-0.5"):
            calibrate([(backwards, 1.0)], p0, ["c_rr"])
        reversing = [TrajectorySample(0.0, 0, 0, 0, 0, -1.0),
                     TrajectorySample(1.0, 0, 0, 0, 0, -1.0)]
        with pytest.raises(InputError, match="ds=-1.0, dt=1.0"):
            calibrate([(reversing, 1.0)], p0, ["c_rr"])


# --- World.ticks's battery pass against the per-step update it replaced -------

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
    """A run as World.run did it: after every step, each vehicle's battery takes
    that step's segment. -> (samples, {vehicle_id: ReferenceSocState})."""
    def sample_of(vid, v, t):
        return TrajectorySample(t, vid, v.x, v.y, v.heading, v.speed,
                                v.fork_height, v.load_mass, v.soc)

    states = {vid: ReferenceSocState(v.soc) for vid, v in enumerate(world.vehicles)}
    prev = {vid: sample_of(vid, v, world.clock) for vid, v in enumerate(world.vehicles)}
    samples = list(prev.values())
    for _ in range(n_steps):
        world.step()
        t = world.clock
        for vid, v in enumerate(world.vehicles):
            draw, regen = reference_segment_energy(prev[vid], sample_of(vid, v, t),
                                                   world.fork_mass, world.battery_params)
            states[vid] = reference_apply_energy(states[vid], draw, regen,
                                                 world.battery_params)
            v.soc = states[vid].soc
            prev[vid] = sample_of(vid, v, t)
            samples.append(prev[vid])
    return samples, states


@st.composite
def fleets(draw):
    """(world factory, steps): a random warehouse map, 1-6 vehicles with
    random initial SOC, a seed, a dt, a fork mass for the fleet and battery
    parameters."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n_vehicles = draw(st.integers(1, min(6, nx * (ny + 1))))
    n_spots = draw(st.integers(n_vehicles, min(8, nx * (ny + 1))))
    seed = draw(st.integers(0, 2**32))
    dt = draw(st.sampled_from([0.05, 0.1, 0.2]))
    socs = [draw(st.sampled_from([1.0, 0.8]) | st.floats(0.0, 1.0))
            for _ in range(n_vehicles)]
    fork_mass = draw(st.just(100.0) | st.floats(0.0, 300.0))
    p = replace(draw(st.just(BatteryParams()) | battery_params()),
                capacity=draw(st.sampled_from([1.0368e8, 1e5, 1e4])))

    def make():
        g = mapgen.warehouse_map(nx=nx, ny=ny, n_spots=n_spots)
        world = World(g, n_vehicles, seed=seed, dt=dt, battery_params=p, fork_mass=fork_mass)
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
        samples = run_samples(world, n_steps * world.dt)
        ref_samples, states = reference_run(make(), n_steps)
        assert samples == ref_samples
        for row in world.summary():
            state = states[row["vehicle_id"]]
            assert row["energy_drawn"] == state.cumulative_draw
            assert row["energy_regenerated"] == state.cumulative_regen
            assert row["final_soc"] == state.soc

    @settings(max_examples=100, deadline=None)
    @given(fleets())
    def test_run_matches_integrate_trajectory(self, fleet):
        # the SocMeter's two callers: World.ticks per step, integrate_trajectory
        # over a whole series
        make, n_steps = fleet
        world = make()
        samples = run_samples(world, n_steps * world.dt)
        totals = [integrate_trajectory([s for s in samples if s.vehicle_id == vid],
                                       world.fork_mass, world.battery_params)
                  for vid in range(len(world.vehicles))]
        integrated = sorted((s for _, _, series in totals for s in series),
                            key=lambda s: (s.t, s.vehicle_id))
        assert samples == integrated
        for row, (draw, regen, _) in zip(world.summary(), totals):
            assert row["energy_drawn"] == draw
            assert row["energy_regenerated"] == regen

    def test_summary_before_any_tick(self):
        world = World(mapgen.warehouse_map(), 3)
        for _ in range(2):  # a run of no steps makes no tick
            assert [(row["energy_drawn"], row["energy_regenerated"])
                    for row in world.summary()] == [(0.0, 0.0)] * 3
            assert run_samples(world, 0.0) == []


# --- the fleet SocMeter against one segment at a time ---------------------------

def reference_segment_features(a, b, fork_mass):
    """battery._segment_features as it was, by field name, each feature
    written out from its formula."""
    dt = b.t - a.t
    if dt <= 0:
        raise InputError(f"non-increasing sample times {a.t} -> {b.t}")
    ds = 0.5 * (a.speed + b.speed) * dt
    dheading = math.remainder(b.heading - a.heading, 2.0 * math.pi)
    mass = TRUCK_MASS + a.load_mass
    if ds < 0:
        raise InputError(f"ds={ds}, dt={dt}")
    return (dt, ds, mass, 0.5 * mass * (b.speed * b.speed - a.speed * a.speed),
            abs(dheading / dt), b.fork_height - a.fork_height, b.load_mass + fork_mass)


class ReferenceSocMeter:
    """battery.SocMeter as it was: one vehicle, fed one sample per add, each
    segment through an _energies generator of its own."""

    def __init__(self, first, fork_mass, p):
        self.last = first
        self.fork_mass = fork_mass
        self.p = p
        self.initial = first.soc
        self.drawn = self.regenerated = 0.0

    def add(self, sample):
        features = reference_segment_features(self.last, sample, self.fork_mass)
        draw, regen = next(_energies((features,), self.p))
        self.last = sample
        self.drawn += draw
        self.regenerated += regen
        return draw, regen, TrajectorySample(*sample[:8], min(max(
            self.initial - (self.drawn - self.regenerated) / self.p.capacity, 0.0), 1.0))


def reference_metered_run(world, n_steps):
    """World.ticks as it was: after every step, each vehicle's own meter takes
    its new sample. -> (samples, {vehicle_id: ReferenceSocMeter})."""
    def sample_of(vid, v, t):
        return TrajectorySample(t, vid, v.x, v.y, v.heading, v.speed,
                                v.fork_height, v.load_mass, v.soc)

    samples = [sample_of(vid, v, world.clock) for vid, v in enumerate(world.vehicles)]
    meters = {s.vehicle_id: ReferenceSocMeter(s, world.fork_mass, world.battery_params)
              for s in samples}
    for _ in range(n_steps):
        world.step()
        for vid, v in enumerate(world.vehicles):
            sample = meters[vid].add(sample_of(vid, v, world.clock))[2]
            v.soc = sample.soc
            samples.append(sample)
    return samples, meters


def reference_integrate(samples, fork_mass, p):
    """integrate_trajectory as it was: each vehicle's meter fed one sample at
    a time, the totals summed in that order."""
    total_draw = total_regen = 0.0
    series = []
    for _, ss in sorted(split_by_vehicle(samples).items()):
        series.append(ss[0])
        meter = ReferenceSocMeter(ss[0], fork_mass, p)
        for b in ss[1:]:
            draw, regen, sample = meter.add(b)
            total_draw += draw
            total_regen += regen
            series.append(sample)
    return total_draw, total_regen, series


class TestFleetMeter:
    @settings(max_examples=100, deadline=None)
    @given(fleets(), fork_masses())
    def test_run_and_integrate_match_one_segment_at_a_time(self, fleet, fork_mass):
        make, n_steps = fleet
        world = make()
        samples = run_samples(world, n_steps * world.dt)
        ref_samples, meters = reference_metered_run(make(), n_steps)
        assert samples == ref_samples
        for row in world.summary():
            meter = meters[row["vehicle_id"]]
            assert (row["energy_drawn"], row["energy_regenerated"]) == (meter.drawn,
                                                                        meter.regenerated)
        # every vehicle's series at once, through one meter
        assert (integrate_trajectory(samples, fork_mass, world.battery_params)
                == reference_integrate(samples, fork_mass, world.battery_params))


class TestMeterOverflow:
    """An add that makes a vehicle's own energy sum leave the float range
    names the state at which it did, not just the add; the vehicles' sums
    are never added together."""

    def meter(self, load_mass):
        firsts = [TrajectorySample(0.0, vid, 0, 0, 0, 0, 0.0, load_mass) for vid in (0, 1)]
        return SocMeter(firsts, FORK_MASS, BatteryParams())

    def lift_draw(self):
        # a lift of 1e307 kg by 1 m: about 1.15e308 J, inf twice over
        lift, _ = vertical_segment(1.0, 1e307 + FORK_MASS, BatteryParams())
        draw = lift + BatteryParams().aux_power
        assert math.isfinite(draw) and draw + draw == math.inf
        return draw

    def test_finite_sums_of_two_trucks_whose_total_overflows(self):
        draw = self.lift_draw()
        meter = self.meter(1e307)
        assert (meter.add([(1.0, vid, 0, 0, 0, 0, 1.0, 1e307) for vid in (0, 1)])
                == [TrajectorySample(1.0, vid, 0, 0, 0, 0, 1.0, 1e307, 0.0) for vid in (0, 1)])
        assert meter.energy(0) == meter.energy(1) == (draw, 0.0)

    def test_finite_draws_whose_sum_in_one_truck_overflows(self):
        draw = self.lift_draw()
        with pytest.raises(InputError) as exc:
            self.meter(1e307).add([(1.0, 0, 0, 0, 0, 0, 1.0, 1e307),
                                   (2.0, 0, 0, 0, 0, 0, 2.0, 1e307)])
        assert str(exc.value) == (f"vehicle 0 at t=2: the energy sum is not finite "
                                  f"({draw!r} J drawn, 0.0 J regenerated)")

    def test_an_inf_draw_at_the_first_state(self):
        with pytest.raises(InputError) as exc:
            self.meter(0.0).add([(2.5, 0, 0, 0, 0, 0, math.inf, 0.0),
                                 (2.5, 1, 0, 0, 0, 0, 1.0, 0.0)])
        assert str(exc.value) == ("vehicle 0 at t=2.5: the energy sum is not finite "
                                  "(inf J drawn, 0.0 J regenerated)")
