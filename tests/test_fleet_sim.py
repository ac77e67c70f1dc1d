import io
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import eager
from conftest import run_samples, world_at
from forkfleet import (ConfigError, Infeasible, InputError, battery, check_ranges, cli,
                       fleet_sim, mapgen)
from forkfleet.config import ScenarioConfig
from forkfleet.fleet_sim import (KinematicsParams, PHASE_DRIVE, PHASE_IDLE, PHASE_LIFT,
                                 PHASE_LOWER, VehicleState, World, replay)
from forkfleet.roadnet import Edge, ParkingSpot, Waypoint, build_graph
from forkfleet.trajectory import TrajectorySample, read_csv, split_by_vehicle, write_csv


def corridor_graph():
    """Straight 0 -> 1 -> 2 corridor with a spot at each end node."""
    wps = [Waypoint(0, 0, 0.0), Waypoint(20, 0, 0.0), Waypoint(21, 0, 0.0)]
    edges = [Edge(0, 1, 20.0, 5.0), Edge(1, 2, 1.0, 5.0),
             Edge(2, 1, 1.0, 5.0), Edge(1, 0, 20.0, 5.0)]
    spots = [ParkingSpot(0, 1, 0.0), ParkingSpot(1, 2, 0.0)]
    return build_graph(wps, edges, spots)


def one_way_corridor():
    """Same corridor but without return edges."""
    wps = [Waypoint(0, 0, 0.0), Waypoint(20, 0, 0.0), Waypoint(21, 0, 0.0)]
    edges = [Edge(0, 1, 20.0, 5.0), Edge(1, 2, 1.0, 5.0)]
    spots = [ParkingSpot(0, 1, 0.0), ParkingSpot(1, 2, 0.0)]
    return build_graph(wps, edges, spots)


def step_arrivals(world, **kwargs):
    """world.step(**kwargs) -> [(vehicle_id, spot)] of the vehicles that
    reached their destination in it, read off world.vehicles: the ones whose
    phase turned to lower."""
    before = [v.phase for v in world.vehicles]
    world.step(**kwargs)
    return [(vid, v.current_spot) for vid, v in enumerate(world.vehicles)
            if v.phase == PHASE_LOWER and before[vid] != PHASE_LOWER]


class TestKinematicsValidate:
    def test_defaults_and_zero_deadlock_pass(self):
        check_ranges(KinematicsParams(), "kin.")
        check_ranges(KinematicsParams(t_deadlock=0.0), "kin.")

    @pytest.mark.parametrize("name", ["v_max", "a_max", "b_max", "a_lat_max", "lift_speed",
                                      "d_safe", "horizon", "t_deadlock"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects(self, name, value):
        with pytest.raises(ConfigError, match=f"kin.{name}"):
            check_ranges(KinematicsParams(**{name: value}), "kin.")

    @pytest.mark.parametrize("name", ["v_max", "b_max", "d_safe", "horizon"])
    def test_rejects_zero(self, name):
        with pytest.raises(ConfigError, match=f"kin.{name} must be finite and > 0"):
            check_ranges(KinematicsParams(**{name: 0.0}), "kin.")


class TestSpawnAndAssign:
    def test_spawn_marks_spots(self):
        g = mapgen.warehouse_map()
        w = World(g, 3, seed=1)
        assert len(w.vehicles) == 3
        assert claims_of(w) == {0: 0, 1: 1, 2: 2}
        for i in range(3):
            ax, ay = g.spot_anchor_xy(g.spots[i])
            v = w.vehicles[i]
            assert (v.x, v.y) == (ax, ay)

    def test_spawn_too_many(self):
        g = corridor_graph()
        with pytest.raises(ConfigError, match="^3 vehicles but only 2 spots$"):
            World(g, 3)

    def test_assign_reserves_and_loads(self):
        w = World(corridor_graph(), 1, seed=0)
        assert w.assign_task(0, 1) == 1
        assert w.vehicles[0].dest_spot == 1
        assert claims_of(w)[1] == 0
        assert w.vehicles[0].phase == PHASE_LIFT
        assert w.vehicles[0].load_mass == w.pickup_mass

    @staticmethod
    def assert_refused(w, spot):
        """assign_task(0, spot) returns None, draws nothing and leaves truck 0
        idle, unloaded and bound nowhere."""
        state = w.rng._state
        assert w.assign_task(0, spot) is None
        assert w.rng._state == state
        assert (w.vehicles[0].phase, w.vehicles[0].dest_spot, w.vehicles[0].load_mass) == (
            PHASE_IDLE, None, 0.0)

    def test_assign_occupied_spot(self):
        # truck 1 stands on spot 1, and truck 0 on spot 0
        self.assert_refused(World(corridor_graph(), 2, seed=0), 1)
        self.assert_refused(World(corridor_graph(), 1, seed=0), 0)

    def test_assign_on_a_full_floor(self):
        self.assert_refused(World(corridor_graph(), 2, seed=0), None)

    def test_random_policy_excludes_own_spot(self):
        w = World(corridor_graph(), 1, seed=0)
        state = w.rng._state
        assert w.assign_task(0) == 1
        assert w.rng._state != state


class TestRouting:
    def test_plan_route_reaches_spot_edge(self):
        w = World(corridor_graph(), 1, seed=0)
        route = w._build_route(0, w.assign_task(0, 1))
        assert route.points == [(0.0, 0.0), (20.0, 0.0)]
        assert route.cumlen == [0.0, 20.0]

    def test_unreachable(self):
        g = one_way_corridor()
        # vehicle parked at the downstream spot cannot drive back
        w = World(g, 2, seed=0)
        w.vehicles[0].current_spot = None
        with pytest.raises(Infeasible, match="vehicle 1 cannot reach spot 0"):
            w._build_route(1, w.assign_task(1, 0))

    def test_one_point_route_arrives_at_once(self):
        # both spots anchor at node 0, so the route to either is the truck's own point
        wps = [Waypoint(0, 0, 0.0), Waypoint(10, 0, 0.0), Waypoint(20, 0, 0.0)]
        edges = [Edge(0, 1, 10.0, 3.0), Edge(1, 2, 10.0, 3.0), Edge(2, 0, 20.0, 3.0)]
        spots = [ParkingSpot(0, 1, 0.0), ParkingSpot(0, 1, 0.0)]
        w = World(build_graph(wps, edges, spots), 1, dt=0.1)
        arrivals = []
        for _ in range(200):
            arrivals += step_arrivals(w)
        assert arrivals == [(0, 1), (0, 0), (0, 1)]
        assert w.vehicles[0].tasks_completed == 2
        assert w.vehicles[0].distance_driven == 0.0
        assert (w.vehicles[0].x, w.vehicles[0].y) == (0.0, 0.0)

    def test_route_from_mid_street_starts_at_the_truck(self):
        # the truck stands 6 m short of node 1, the node it snaps to and spot
        # 1's anchor, so its route starts at its own position
        w = world_at(corridor_graph(), [VehicleState(14.0, 0.0, 0.0)], dt=0.1)
        w.assign_task(0, 1)
        while w.vehicles[0].phase == PHASE_LIFT:
            w.step()
        route = w.vehicles[0].route
        assert route.points == [(14.0, 0.0), (20.0, 0.0)]
        assert route.seg_limits == [w.kin.v_max]
        arrivals = []
        for _ in range(200):
            arrivals = step_arrivals(w)
            if arrivals:
                break
        assert arrivals == [(0, 1)]
        assert (w.vehicles[0].x, w.vehicles[0].y) == (20.0, 0.0)


def braking_envelope(b_max, dt, cap, d):
    """The speed World._advance_drive allows now so that braking at b_max
    reaches `cap` after `d`, written as it writes it."""
    bd = b_max * dt
    bd2 = bd * bd
    two_b = 2.0 * b_max
    return -bd + math.sqrt(bd2 + cap * cap + two_b * max(0.0, d))


CAP = st.one_of(st.floats(0.0, 1e3), st.just(math.inf))


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-4, 10.0), CAP, CAP, st.floats(-10.0, 1e4))
def test_envelope_of_min_cap_is_min_of_envelopes(b_max, dt, a, b, d):
    """A route keeps one cap per vertex, the min of its curvature cap and the
    next segment's limit: exact because the envelope is non-decreasing in cap."""
    envelopes = (braking_envelope(b_max, dt, a, d), braking_envelope(b_max, dt, b, d))
    assert braking_envelope(b_max, dt, min(a, b), d) == min(envelopes)


def drive_duration(world, vid):
    """Run until the task completes; return (drive_time, total_time)."""
    t_drive_start = t_drive_end = None
    for _ in range(10000):
        phase_before = world.vehicles[vid].phase
        world.step()
        phase = world.vehicles[vid].phase
        if phase_before != PHASE_DRIVE and phase == PHASE_DRIVE:
            t_drive_start = world.clock - world.dt
        if phase_before == PHASE_DRIVE and phase != PHASE_DRIVE:
            t_drive_end = world.clock
        if phase == PHASE_IDLE and world.vehicles[vid].tasks_completed > 0:
            return t_drive_end - t_drive_start, world.clock
    raise AssertionError("task never completed")


class TestDriveKinematics:
    def test_trapezoid_timing(self):
        # 20 m straight, v_max 2, a = b = 1: accel 2 s, cruise 8 s, brake 2 s
        kin = KinematicsParams(v_max=2.0, a_max=1.0, b_max=1.0)
        w = World(corridor_graph(), 1, seed=0, dt=0.1, kin=kin)
        w.assign_task(0, 1)
        drive, _ = drive_duration(w, 0)
        assert drive == pytest.approx(12.0, abs=0.1 + 1e-9)

    def test_arrival_occupies_spot(self):
        w = World(corridor_graph(), 1, seed=0)
        w.assign_task(0, 1)
        drive_duration(w, 0)
        assert claims_of(w) == {1: 0}  # spot 0 released, spot 1 held
        v = w.vehicles[0]
        assert (v.x, v.y) == pytest.approx((20.0, 0.0), abs=1e-9)
        assert v.fork_height == 0.0 and v.load_mass == 0.0

    def test_speed_limit_respected(self):
        kin = KinematicsParams(v_max=4.0)
        g = corridor_graph()
        w = World(g, 1, seed=0, kin=kin)
        w.assign_task(0, 1)
        samples = run_samples(w, 30.0)
        # corridor limit is 5, v_max is 4: never exceed 4
        assert max(s.speed for s in samples) <= 4.0 + 1e-9

    def test_lift_phase_duration(self):
        kin = KinematicsParams(lift_speed=0.5)
        w = World(corridor_graph(), 1, seed=0, dt=0.1, kin=kin, lift_height=1.0)
        w.assign_task(0, 1)
        steps = 0
        while w.vehicles[0].phase == PHASE_LIFT:
            w.step()
            steps += 1
        assert steps == 20  # 1.0 m at 0.5 m/s, dt 0.1

    def test_curve_slows_down(self):
        # tight right-angle corner (1 m legs) forces a slowdown below cruise
        wps = [Waypoint(0, 0, 0.0), Waypoint(14, 0, 0.0),
               Waypoint(15, 0, 0.0), Waypoint(15, 1, 0.0),
               Waypoint(15, 15, 0.0), Waypoint(15, 16, 0.0)]
        edges = [Edge(0, 1, 14.0, 5.0), Edge(1, 2, 1.0, 5.0),
                 Edge(2, 3, 1.0, 5.0), Edge(3, 4, 14.0, 5.0),
                 Edge(4, 5, 1.0, 5.0)]
        spots = [ParkingSpot(0, 1, 0.0), ParkingSpot(4, 5, 0.0)]
        g = build_graph(wps, edges, spots)
        kin = KinematicsParams(v_max=3.0, a_lat_max=1.0)
        w = World(g, 1, seed=0, kin=kin)
        w.assign_task(0, 1)
        corner_speeds = []
        for _ in range(1000):
            w.step()
            v = w.vehicles[0]
            if math.dist((v.x, v.y), (15.0, 0.0)) < 0.5 and w.vehicles[0].phase == PHASE_DRIVE:
                corner_speeds.append(v.speed)
            if w.vehicles[0].tasks_completed:
                break
        assert corner_speeds
        assert min(corner_speeds) < 1.0  # well below the 3.0 cruise


def claims_of(world):
    """{spot: vehicle} from each vehicle's own spot and task destination;
    fails if two vehicles name one spot."""
    out = {}
    for vid, v in enumerate(world.vehicles):
        for spot in {v.current_spot, v.dest_spot} - {None}:
            assert out.setdefault(spot, vid) == vid, f"vehicles {out[spot]} and {vid}: spot {spot}"
    return out


def min_pairwise_separation(samples):
    best = math.inf
    for tick in split_by_time(samples):
        for a, b in itertools.combinations(tick, 2):
            best = min(best, math.hypot(a.x - b.x, a.y - b.y))
    return best


def split_by_time(samples):
    out = {}
    for s in samples:
        out.setdefault(s.t, []).append(s)
    return out.values()


class TestFleet:
    def test_separation_maintained(self):
        g = mapgen.warehouse_map()
        w = World(g, 4, seed=3)
        samples = run_samples(w, 120.0)
        kin = w.kin
        assert min_pairwise_separation(samples) >= kin.d_safe - kin.v_max * w.dt

    def test_separation_float_floor(self):
        # the fleet_sim module docstring's case: the hard cap keeps d_safe in
        # exact arithmetic, and rounding puts the pair a few ulps below it
        w = World(mapgen.warehouse_map(nx=2, ny=1, n_spots=4), 2, dt=0.25,
                  seed=14767053134445368162)
        *_, tick = w.ticks(562.25)
        assert tick[0].t == 562.25
        assert math.dist((tick[0].x, tick[0].y), (tick[1].x, tick[1].y)) == 2.999999999999993

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**64 - 1),
           st.sampled_from([0.05, 0.1, 0.25]), st.data())
    def test_separation_on_random_floors(self, nx, ny, seed, dt, data):
        # d_safe - v_max * dt, one step's travel at full speed, is the bound
        # the invariant is stated with; the least distance seen is a few ulps
        # below d_safe (the fleet_sim module docstring). Two trucks or more
        # wherever the floor has four spots, so that most examples have a pair
        n_spots = data.draw(st.integers(2, nx * (ny + 1)))
        n_vehicles = data.draw(st.integers(min(2, n_spots // 2), n_spots // 2))
        w = World(mapgen.warehouse_map(nx, ny, n_spots), n_vehicles, dt=dt, seed=seed)
        bound = w.kin.d_safe - w.kin.v_max * dt
        assert min_pairwise_separation(run_samples(w, 120.0)) >= bound

    def test_tasks_complete_and_occupancy_consistent(self):
        g = mapgen.warehouse_map()
        w = World(g, 3, seed=5)
        run_samples(w, 180.0)
        done = [v.tasks_completed for v in w.vehicles]
        assert all(n >= 1 for n in done)
        assert w.free_spots() == [i for i in range(len(g.spots)) if i not in claims_of(w)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32), st.data())
    def test_claims_are_positions_and_destinations(self, nx, ny, seed, data):
        # after every step no spot is named by two vehicles (claims_of fails
        # if one is), and the free spots are exactly the others, in id order
        n_vehicles = data.draw(st.integers(1, min(6, nx * (ny + 1))))
        n_spots = data.draw(st.integers(n_vehicles, min(8, nx * (ny + 1))))
        g = mapgen.warehouse_map(nx=nx, ny=ny, n_spots=n_spots)
        w = World(g, n_vehicles, seed=seed)
        for _ in range(400):
            w.step()
            claims = claims_of(w)
            assert w.free_spots() == [i for i in range(n_spots) if i not in claims]

    @pytest.mark.parametrize("n_vehicles,n_spots,spot", [
        (8, 8, None), (7, 8, None), (6, 12, None), (6, 12, 9)],
        ids=["8-8-policy0", "7-8-policy1", "6-12-policy2", "6-12-policy3"])
    def test_a_failed_assignment_ends_the_steps_assignments(self, n_vehicles, n_spots, spot):
        # step stops offering tasks at the first idle vehicle that gets none;
        # the samples are those of offering one to every idle vehicle
        class EveryIdleVehicle(World):
            def step(self, spot=None):
                for vid, v in enumerate(self.vehicles):
                    if v.phase == PHASE_IDLE:
                        self.assign_task(vid, spot)
                super().step(spot)

        g = mapgen.warehouse_map(n_spots=n_spots)
        runs = [run_samples(cls(g, n_vehicles, seed=5), 200.0, spot)
                for cls in (World, EveryIdleVehicle)]
        assert runs[0] == runs[1]

    def test_one_graph_backs_many_worlds(self):
        g = mapgen.warehouse_map()
        run_samples(World(g, 4, seed=3), 47.0)
        again = run_samples(World(g, 2, seed=3), 60.0)
        assert again == run_samples(World(mapgen.warehouse_map(), 2, seed=3), 60.0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_dt_not_finite_and_positive_rejected(self, dt):
        # refused where it enters, by the scenario's ranges; World takes it as checked
        with pytest.raises(ConfigError, match="dt must be finite and > 0"):
            check_ranges(ScenarioConfig(dt=dt))

    def test_determinism(self):
        def run_once():
            g = mapgen.warehouse_map()
            w = World(g, 3, seed=42)
            return run_samples(w, 60.0)

        assert run_once() == run_once()

    def test_seed_changes_assignments(self):
        def dests(seed):
            g = mapgen.warehouse_map()
            w = World(g, 3, seed=seed)
            out = []
            for _ in range(600):
                idle = [vid for vid, v in enumerate(w.vehicles) if v.phase == PHASE_IDLE]
                w.step()
                out.extend(w.vehicles[vid].dest_spot for vid in idle
                           if w.vehicles[vid].phase != PHASE_IDLE)
            return out

        assert dests(1) != dests(2)

    def test_battery_drains(self):
        g = mapgen.warehouse_map()
        w = World(g, 2, seed=9)
        run_samples(w, 120.0)
        for row in w.summary():
            assert row["final_soc"] < 1.0
            assert row["energy_drawn"] > 0.0
            assert row["distance_driven"] > 0.0

    def test_summary_keys(self):
        w = World(corridor_graph(), 1, seed=0)
        row = w.summary()[0]
        assert set(row) == {"vehicle_id", "distance_driven", "tasks_completed",
                            "energy_drawn", "energy_regenerated", "final_soc",
                            "soc_band"}

    def test_zero_duration_run(self):
        w = World(corridor_graph(), 1, seed=0)
        assert list(w.ticks(0.0)) == []  # no tick, not even the initial one
        # after a run, a zero duration yields nothing, and the t = 0 tick is
        # not repeated by the next run
        w = World(mapgen.warehouse_map(), 2, seed=4)
        first = run_samples(w, 1.0)
        assert len(first) == 22
        assert run_samples(w, 0.0) == []
        nxt = run_samples(w, 0.1)
        assert [(s.t, s.vehicle_id) for s in nxt] == [(w.clock, 0), (w.clock, 1)]

    def test_soc_set_after_construction_is_the_start(self):
        w = World(mapgen.warehouse_map(), 2, seed=4)
        w.vehicles[0].soc = 0.8
        socs = [s.soc for s in run_samples(w, 0.3) if s.vehicle_id == 0]
        assert socs[0] == 0.8
        assert all(0.8 - 1e-3 < soc <= 0.8 for soc in socs)
        assert socs[-1] < 0.8
        assert w.summary()[0]["final_soc"] == socs[-1]

    def test_second_run_continues_without_repeating_the_boundary(self):
        w = World(mapgen.warehouse_map(), 2, seed=4)
        samples = run_samples(w, 1.0) + run_samples(w, 1.0)
        for vid, ss in split_by_vehicle(samples).items():
            times = [s.t for s in ss]
            assert len(times) == 21  # t = 0, and 20 steps of 0.1 s
            assert all(a < b for a, b in zip(times, times[1:])), (vid, times)
        buf = io.StringIO()
        write_csv(samples, buf)
        buf.seek(0)
        assert len(read_csv(buf)) == len(samples)

    def test_short_runs_match_one_long_run(self, monkeypatch):
        # each run integrates only the samples it recorded, continuing the
        # energy sums, so 60 short runs give one long run's bits and segments
        calls = []
        energies = battery._energies

        def counted(features, p):
            for energy in energies(features, p):
                calls.append(energy)
                yield energy

        monkeypatch.setattr(battery, "_energies", counted)
        whole = World(mapgen.warehouse_map(), 4, seed=4)
        expected = run_samples(whole, 6.0)
        n_whole = len(calls)
        pieces = World(mapgen.warehouse_map(), 4, seed=4)
        samples = []
        for _ in range(60):
            samples += run_samples(pieces, 0.1)
        assert samples == expected
        assert pieces.summary() == whole.summary()
        assert n_whole == 4 * 60 and len(calls) == 2 * n_whole

    def test_a_fleet_of_none_runs(self):
        w = World(mapgen.warehouse_map(), 0, seed=4)
        assert run_samples(w, 1.0) == [] and run_samples(w, 1.0) == [] and w.summary() == []


class TestReplay:
    def test_identity_on_gridded_samples(self):
        g = mapgen.warehouse_map()
        w = World(g, 2, seed=7)
        samples = run_samples(w, 60.0)
        out = [s for tick in replay(samples, dt=w.dt, fork_mass=w.fork_mass,
                                    params=w.battery_params) for s in tick]
        assert len(out) == len(samples)
        for a, b in zip(samples, out):
            assert a.t == pytest.approx(b.t, abs=1e-9)
            assert a.vehicle_id == b.vehicle_id
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.y == pytest.approx(b.y, abs=1e-9)
            assert a.soc == pytest.approx(b.soc, abs=1e-9)

    def test_empty(self):
        assert list(replay([])) == []

    def test_late_vehicle_spawns_at_first_sample(self):
        from forkfleet.trajectory import TrajectorySample
        samples = [
            TrajectorySample(0.0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(1.0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(0.5, 1, 20, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(1.0, 1, 20, 0, 0, 0, 0, 0, 1.0),
        ]
        v1 = [s for tick in replay(samples, dt=0.5) for s in tick if s.vehicle_id == 1]
        assert [s.t for s in v1] == [0.5, 1.0]

    def test_first_sample_just_after_a_grid_time(self):
        # 1.30000000001 (12 significant digits, as write_csv writes) is within
        # the regrid's 1e-9 slack after grid time 13 * 0.1
        from forkfleet.trajectory import TrajectorySample
        samples = [
            TrajectorySample(0.0, 0, 10, 10, 0, 0, 0, 0, 1.0),
            TrajectorySample(1.30000000001, 1, 20, 10, 0, 0, 0, 0, 0.9),
            TrajectorySample(2.0, 0, 10, 10, 0, 0, 0, 0, 1.0),
            TrajectorySample(2.0, 1, 20, 10, 0, 0, 0, 0, 0.9),
        ]
        v1 = [s for tick in replay(samples, dt=0.1) for s in tick if s.vehicle_id == 1]
        assert v1[0] == samples[1]
        assert len(v1) == 8  # grid times 1.3, 1.4, ..., 2.0


@st.composite
def recorded_fleets(draw):
    """(rows, dt): 1 to 5 trucks' recorded samples, off the grid. Truck 0
    starts at the grid's base; a later truck starts late, on a grid time, or
    within the regrid's 1e-9 slack of one, or between two. With -0.0 drawn,
    truck 0 starts at -0.0 and truck 1 at 0.0. Each truck's rows keep their
    order, and the trucks' rows are interleaved in any order."""
    dt = draw(st.sampled_from([0.04, 0.1, 0.25, 0.5]))
    n = draw(st.integers(1, 5))
    signed_zero = n > 1 and draw(st.booleans())
    base = 0.0 if signed_zero else draw(st.sampled_from([0.0, 3.7, 1000.1]))
    queues = []
    for vid in range(n):
        if signed_zero and vid < 2:
            t = -0.0 if vid == 0 else 0.0
        elif vid == 0:
            t = base
        else:
            nudge = draw(st.sampled_from([0.0, 5e-10, -5e-10, 1e-11, -1e-11, dt / 3]))
            t = base + draw(st.integers(0, 40)) * dt + nudge
        series = []
        for _ in range(draw(st.integers(1, 30))):
            series.append(TrajectorySample(
                t, vid, draw(st.floats(-100, 100)), draw(st.floats(-100, 100)),
                draw(st.floats(-7, 7)), draw(st.floats(0, 5)), draw(st.floats(0, 3)),
                draw(st.sampled_from([0.0, 500.0])), draw(st.floats(0, 1))))
            t += draw(st.floats(0.01, 3.0))
        queues.append(series[::-1])
    rows = []
    while queues:
        queue = queues[draw(st.integers(0, len(queues) - 1))]
        rows.append(queue.pop())
        queues = [q for q in queues if q]
    return rows, dt


def bits(sample):
    return tuple(v.hex() if isinstance(v, float) else v for v in sample)


class TestStreamedReplay:
    """replay against the whole-grid replay it replaced (tests/eager.py)."""

    @settings(max_examples=100, deadline=None)
    @given(recorded_fleets(), st.sampled_from([1, 2, 5, fleet_sim.REPLAY_CHUNK]))
    def test_equals_the_eager_replay(self, fleet, chunk):
        rows, dt = fleet
        fork_mass, params = 250.0, battery.BatteryParams()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fleet_sim, "REPLAY_CHUNK", chunk)
            ticks = list(replay(rows, dt, fork_mass, params))
        expected = eager.replay(rows, dt, fork_mass, params)
        assert [bits(s) for tick in ticks for s in tick] == [bits(s) for s in expected]
        # a tick per run of equal t bits
        assert [len(tick) for tick in ticks] == [
            len([*run]) for _, run in itertools.groupby(expected, key=lambda s: s.t.hex())]

    def test_signed_zeros_at_t0_are_a_tick_each(self):
        # trucks 0, 1 and 2 first recorded at 0.0, -0.0 and 0.0: one run of
        # equal t in (t, vehicle_id) order, whose bits change twice
        rows = [TrajectorySample(t, vid, float(vid), 0.0, 0.0, 1.0)
                for vid, t0 in ((0, 0.0), (1, -0.0), (2, 0.0)) for t in (t0, 1.0)]
        ticks = list(replay(rows, dt=0.5))
        expected = eager.replay(rows, dt=0.5)
        assert [bits(s) for tick in ticks for s in tick] == [bits(s) for s in expected]
        assert [[(s.t.hex(), s.vehicle_id) for s in tick] for tick in ticks] == [
            [(s.t.hex(), s.vehicle_id) for s in run]
            for _, run in itertools.groupby(expected, key=lambda s: s.t.hex())]
        assert [len(tick) for tick in ticks] == [1, 1, 1, 3, 3]

    def test_a_64_truck_merge_equals_the_eager_replay(self):
        samples = run_samples(World(mapgen.warehouse_map(16, 12, 128), 64, seed=5), 3.0)
        ticks = list(replay(samples))
        expected = eager.replay(samples)
        assert [bits(s) for tick in ticks for s in tick] == [bits(s) for s in expected]
        assert [len(tick) for tick in ticks] == [64] * 31

    def test_one_meter_per_run(self):
        made = []

        class CountedMeter(battery.SocMeter):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        samples = run_samples(World(mapgen.warehouse_map(), 4, seed=3), 2.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fleet_sim.bat, "SocMeter", CountedMeter)
            ticks = list(replay(samples, dt=0.5))
        assert len(made) == 1 and [len(tick) for tick in ticks] == [4] * 5

    def test_grid_refusals_come_at_the_call(self):
        # trucks 1 and 2 at 1e17 and 2e17, where times are 16 and 32 apart: at
        # dt 1 both grids repeat a time, and truck 1's is named
        rows = [TrajectorySample(t, vid, 0.0, 0.0, 0.0, 0.0)
                for vid, t0 in ((0, 0.0), (1, 1e17), (2, 2e17)) for t in (t0, t0 + 64)]
        with pytest.raises(ConfigError, match=r"grid time 1e\+17 repeats"):
            replay(rows, dt=1.0)

    def test_segment_refusals_come_as_the_ticks_are_pulled(self):
        # a truck driving at -1 m/s: each segment's distance is negative
        rows = [TrajectorySample(t, 0, 0.0, 0.0, 0.0, -1.0) for t in (0.0, 1.0)]
        ticks = replay(rows, dt=0.5)
        with pytest.raises(InputError, match="vehicle 0 at t=0.5: ds=-0.5, dt=0.5"):
            list(ticks)

    def test_regridded_samples_too_far_apart(self):
        # each recorded step is 1e308 m, the grid's one step 2e308 m: refused
        # as the eager replay refused it, by the check any series gets
        rows = [TrajectorySample(t, 0, x, 0.0, 0.0, 0.0)
                for t, x in ((0.0, -1e308), (0.05, 0.0), (0.1, 1e308))]
        message = "vehicle 0 samples at t=0 and t=0.1 are too far apart to interpolate"
        with pytest.raises(InputError, match=message):
            eager.replay(rows, dt=0.1)
        with pytest.raises(InputError, match=message):
            list(replay(rows, dt=0.1))

    def test_memory_is_flat_in_duration(self):
        # From the call on, replay holds its input's per-truck lists (8 B a
        # sample) and each truck's grid times (8 B a point), and besides them
        # O(trucks) states: 16 B a grid point, bounded here by 32 B for the
        # lists' and arrays' spare room. The whole grid held at once, as
        # replay once did, grew the peak by about 470 B a point.
        def peak(duration):
            samples = run_samples(World(mapgen.warehouse_map(), 4, seed=11), duration)
            sink = io.StringIO()
            sink.write = len  # formats every row, keeps none
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli._render_run(replay(samples), sink, sink)
                return len(samples), tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        (n_short, short), (n_long, long) = peak(60.0), peak(600.0)
        assert n_long == 4 * 6001 and long - short <= 32 * (n_long - n_short), (short, long)
