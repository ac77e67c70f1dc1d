import io
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from forkfleet import ConfigError, battery, mapgen
from forkfleet.battery import BatteryParams, VehicleConstants
from forkfleet.fleet_sim import (KinematicsParams, NoFreeSpot, PHASE_DRIVE,
                                 PHASE_IDLE, PHASE_LIFT, PHASE_LOWER,
                                 SpotOccupied, UnreachableDestination,
                                 VehicleBusy, VehicleState, World, replay)
from forkfleet.roadnet import Edge, ParkingSpot, Waypoint, build_graph
from forkfleet.trajectory import read_csv, split_by_vehicle, write_csv


def corridor_graph():
    """Straight 0 -> 1 -> 2 corridor with a spot at each end node."""
    wps = [Waypoint(0, 0, 0, 0.0), Waypoint(1, 20, 0, 0.0), Waypoint(2, 21, 0, 0.0)]
    edges = [Edge(0, 1, 20.0, 5.0, True), Edge(1, 2, 1.0, 5.0, True),
             Edge(2, 1, 1.0, 5.0, True), Edge(1, 0, 20.0, 5.0, True)]
    spots = [ParkingSpot(0, 0, 1, 0.0), ParkingSpot(1, 1, 2, 0.0)]
    return build_graph(wps, edges, spots)


def one_way_corridor():
    """Same corridor but without return edges."""
    wps = [Waypoint(0, 0, 0, 0.0), Waypoint(1, 20, 0, 0.0), Waypoint(2, 21, 0, 0.0)]
    edges = [Edge(0, 1, 20.0, 5.0, True), Edge(1, 2, 1.0, 5.0, True)]
    spots = [ParkingSpot(0, 0, 1, 0.0), ParkingSpot(1, 1, 2, 0.0)]
    return build_graph(wps, edges, spots)


class TestKinematicsValidate:
    def test_defaults_and_zero_deadlock_pass(self):
        KinematicsParams().validate()
        KinematicsParams(t_deadlock=0.0).validate()

    @pytest.mark.parametrize("name", ["v_max", "a_max", "b_max", "a_lat_max", "lift_speed",
                                      "d_safe", "horizon", "t_deadlock"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects(self, name, value):
        with pytest.raises(ConfigError, match=f"kin.{name}"):
            KinematicsParams(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["v_max", "b_max", "d_safe", "horizon"])
    def test_rejects_zero(self, name):
        with pytest.raises(ConfigError, match=f"kin.{name} must be finite and > 0"):
            KinematicsParams(**{name: 0.0}).validate()


class TestSpawnAndAssign:
    def test_spawn_marks_spots(self):
        g = mapgen.warehouse_map()
        w = World.spawn_at_spots(g, 3, seed=1)
        assert len(w.vehicles) == 3
        spots = sorted(g.spots, key=lambda s: s.id)
        assert w.claims == {s.id: i for i, s in enumerate(spots[:3])}
        for i in range(3):
            ax, ay = g.spot_anchor_xy(spots[i])
            v = w.vehicle(i)
            assert (v.x, v.y) == (ax, ay)

    def test_spawn_too_many(self):
        g = corridor_graph()
        with pytest.raises(NoFreeSpot):
            World.spawn_at_spots(g, 3)

    def test_assign_reserves_and_loads(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        task = w.assign_task(0, policy=("fixed", 1))
        assert task.dest_spot == 1
        assert w.claims[1] == 0
        assert w.ctl[0].phase == PHASE_LIFT
        assert w.vehicle(0).load_mass == w.pickup_mass

    def test_assign_busy_vehicle(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        w.assign_task(0, policy=("fixed", 1))
        with pytest.raises(VehicleBusy):
            w.assign_task(0, policy=("fixed", 1))

    def test_assign_occupied_spot(self):
        w = World.spawn_at_spots(corridor_graph(), 2, seed=0)
        with pytest.raises(SpotOccupied):
            w.assign_task(0, policy=("fixed", 1))

    def test_random_policy_excludes_own_spot(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        task = w.assign_task(0, policy=("random", None))
        assert task.dest_spot == 1


class TestRouting:
    def test_plan_route_reaches_spot_edge(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        task = w.assign_task(0, policy=("fixed", 1))
        path = w.plan_route(0, task)
        assert path.nodes[-1] == 1
        assert path.total_length == 20.0

    def test_unreachable(self):
        g = one_way_corridor()
        # vehicle parked at the downstream spot cannot drive back
        w = World.spawn_at_spots(g, 2, seed=0)
        w.vehicles = [w.vehicle(1)]
        del w.claims[0]
        with pytest.raises(UnreachableDestination):
            task = w.assign_task(1, policy=("fixed", 0))
            w.plan_route(1, task)


def drive_duration(world, vid):
    """Run until the task completes; return (drive_time, total_time)."""
    t_drive_start = t_drive_end = None
    for _ in range(10000):
        phase_before = world.ctl[vid].phase
        world.step(auto_assign=False)
        phase = world.ctl[vid].phase
        if phase_before != PHASE_DRIVE and phase == PHASE_DRIVE:
            t_drive_start = world.clock - world.dt
        if phase_before == PHASE_DRIVE and phase != PHASE_DRIVE:
            t_drive_end = world.clock
        if phase == PHASE_IDLE and world.ctl[vid].tasks_completed > 0:
            return t_drive_end - t_drive_start, world.clock
    raise AssertionError("task never completed")


class TestDriveKinematics:
    def test_trapezoid_timing(self):
        # 20 m straight, v_max 2, a = b = 1: accel 2 s, cruise 8 s, brake 2 s
        kin = KinematicsParams(v_max=2.0, a_max=1.0, b_max=1.0)
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0, dt=0.1, kin=kin)
        w.assign_task(0, policy=("fixed", 1))
        drive, _ = drive_duration(w, 0)
        assert drive == pytest.approx(12.0, abs=0.1 + 1e-9)

    def test_arrival_occupies_spot(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        w.assign_task(0, policy=("fixed", 1))
        drive_duration(w, 0)
        assert w.claims == {1: 0}  # spot 0 released, spot 1 held
        v = w.vehicle(0)
        assert (v.x, v.y) == pytest.approx((20.0, 0.0), abs=1e-9)
        assert v.fork_height == 0.0 and v.load_mass == 0.0

    def test_speed_limit_respected(self):
        kin = KinematicsParams(v_max=4.0)
        g = corridor_graph()
        w = World.spawn_at_spots(g, 1, seed=0, kin=kin)
        w.assign_task(0, policy=("fixed", 1))
        samples = w.run(30.0, auto_assign=False)
        # corridor limit is 5, v_max is 4: never exceed 4
        assert max(s.speed for s in samples) <= 4.0 + 1e-9

    def test_lift_phase_duration(self):
        kin = KinematicsParams(lift_speed=0.5)
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0, dt=0.1, kin=kin,
                                 lift_height=1.0)
        w.assign_task(0, policy=("fixed", 1))
        steps = 0
        while w.ctl[0].phase == PHASE_LIFT:
            w.step(auto_assign=False)
            steps += 1
        assert steps == 20  # 1.0 m at 0.5 m/s, dt 0.1

    def test_curve_slows_down(self):
        # tight right-angle corner (1 m legs) forces a slowdown below cruise
        wps = [Waypoint(0, 0, 0, 0.0), Waypoint(1, 14, 0, 0.0),
               Waypoint(2, 15, 0, 0.0), Waypoint(3, 15, 1, 0.0),
               Waypoint(4, 15, 15, 0.0), Waypoint(5, 15, 16, 0.0)]
        edges = [Edge(0, 1, 14.0, 5.0, True), Edge(1, 2, 1.0, 5.0, True),
                 Edge(2, 3, 1.0, 5.0, True), Edge(3, 4, 14.0, 5.0, True),
                 Edge(4, 5, 1.0, 5.0, True)]
        spots = [ParkingSpot(0, 0, 1, 0.0), ParkingSpot(1, 4, 5, 0.0)]
        g = build_graph(wps, edges, spots)
        kin = KinematicsParams(v_max=3.0, a_lat_max=1.0)
        w = World.spawn_at_spots(g, 1, seed=0, kin=kin)
        w.assign_task(0, policy=("fixed", 1))
        corner_speeds = []
        for _ in range(1000):
            w.step(auto_assign=False)
            v = w.vehicle(0)
            if math.dist((v.x, v.y), (15.0, 0.0)) < 0.5 and w.ctl[0].phase == PHASE_DRIVE:
                corner_speeds.append(v.speed)
            if w.ctl[0].tasks_completed:
                break
        assert corner_speeds
        assert min(corner_speeds) < 1.0  # well below the 3.0 cruise


def claims_of(world):
    """{spot: vehicle} from each vehicle's own spot and task destination;
    fails if two vehicles name one spot."""
    out = {}
    for vid, ctl in world.ctl.items():
        for spot in {ctl.current_spot, ctl.task.dest_spot if ctl.task else None} - {None}:
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
        w = World.spawn_at_spots(g, 4, seed=3)
        samples = w.run(120.0)
        kin = w.kin
        assert min_pairwise_separation(samples) >= kin.d_safe - kin.v_max * w.dt

    def test_tasks_complete_and_occupancy_consistent(self):
        g = mapgen.warehouse_map()
        w = World.spawn_at_spots(g, 3, seed=5)
        w.run(180.0)
        done = [w.ctl[v.id].tasks_completed for v in w.vehicles]
        assert all(n >= 1 for n in done)
        assert w.claims == claims_of(w)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32), st.data())
    def test_claims_are_positions_and_destinations(self, nx, ny, seed, data):
        # after every step, claims hold exactly each vehicle's spot and
        # destination, and no spot is named by two vehicles
        n_vehicles = data.draw(st.integers(1, min(6, nx * (ny + 1))))
        n_spots = data.draw(st.integers(n_vehicles, min(8, nx * (ny + 1))))
        g = mapgen.warehouse_map(nx=nx, ny=ny, n_spots=n_spots)
        w = World.spawn_at_spots(g, n_vehicles, seed=seed)
        for _ in range(400):
            w.step()
            assert w.claims == claims_of(w)

    def test_one_graph_backs_many_worlds(self):
        g = mapgen.warehouse_map()
        World.spawn_at_spots(g, 4, seed=3).run(47.0)
        again = World.spawn_at_spots(g, 2, seed=3).run(60.0)
        assert again == World.spawn_at_spots(mapgen.warehouse_map(), 2, seed=3).run(60.0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_dt_not_finite_and_positive_rejected(self, dt):
        with pytest.raises(ConfigError, match="dt must be finite and > 0"):
            World(corridor_graph(), [], dt=dt)

    def test_duplicate_vehicle_ids_rejected(self):
        g = corridor_graph()
        with pytest.raises(ValueError, match="two vehicles with one id"):
            World(g, [VehicleState(0, 0.0, 0.0, 0.0), VehicleState(0, 21.0, 0.0, 0.0)])

    def test_determinism(self):
        def run_once():
            g = mapgen.warehouse_map()
            w = World.spawn_at_spots(g, 3, seed=42)
            return w.run(60.0)

        assert run_once() == run_once()

    def test_seed_changes_assignments(self):
        def dests(seed):
            g = mapgen.warehouse_map()
            w = World.spawn_at_spots(g, 3, seed=seed)
            out = []
            for _ in range(600):
                ev = w.step()
                out.extend(t.dest_spot for _, t in ev.assignments)
            return out

        assert dests(1) != dests(2)

    def test_battery_drains(self):
        g = mapgen.warehouse_map()
        w = World.spawn_at_spots(g, 2, seed=9)
        w.run(120.0)
        for row in w.summary():
            assert row["final_soc"] < 1.0
            assert row["energy_drawn"] > 0.0
            assert row["distance_driven"] > 0.0

    def test_summary_keys(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        row = w.summary()[0]
        assert set(row) == {"vehicle_id", "distance_driven", "tasks_completed",
                            "energy_drawn", "energy_regenerated", "final_soc",
                            "soc_band"}

    def test_zero_duration_run(self):
        w = World.spawn_at_spots(corridor_graph(), 1, seed=0)
        assert w.run(0.0) == []
        # after a run, a zero duration returns every sample recorded so far
        w = World.spawn_at_spots(mapgen.warehouse_map(), 2, seed=4)
        first = w.run(1.0)
        assert len(first) == 22
        assert w.run(0.0) == first
        assert len(w.run(0.1)) == 24

    def test_soc_set_after_construction_is_the_start(self):
        w = World.spawn_at_spots(mapgen.warehouse_map(), 2, seed=4)
        w.vehicles[0].soc = 0.8
        socs = [s.soc for s in w.run(0.3) if s.vehicle_id == 0]
        assert socs[0] == 0.8
        assert all(0.8 - 1e-3 < soc <= 0.8 for soc in socs)
        assert socs[-1] < 0.8
        assert w.summary()[0]["final_soc"] == socs[-1]

    def test_second_run_continues_without_repeating_the_boundary(self):
        w = World.spawn_at_spots(mapgen.warehouse_map(), 2, seed=4)
        w.run(1.0)
        samples = w.run(1.0)
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
        # energy sums, so 60 short runs give one long run's bits and energy calls
        calls = []
        energy = battery._energy

        def counted(features, p):
            calls.append(features)
            return energy(features, p)

        monkeypatch.setattr(battery, "_energy", counted)
        whole = World.spawn_at_spots(mapgen.warehouse_map(), 4, seed=4)
        expected = whole.run(6.0)
        n_whole = len(calls)
        pieces = World.spawn_at_spots(mapgen.warehouse_map(), 4, seed=4)
        for _ in range(60):
            samples = pieces.run(0.1)
        assert samples == expected
        assert pieces.summary() == whole.summary()
        assert n_whole == 4 * 60 and len(calls) == 2 * n_whole

    def test_a_fleet_of_none_runs(self):
        w = World.spawn_at_spots(mapgen.warehouse_map(), 0, seed=4)
        assert w.run(1.0) == [] and w.run(1.0) == [] and w.summary() == []


class TestReplay:
    def test_identity_on_gridded_samples(self):
        g = mapgen.warehouse_map()
        w = World.spawn_at_spots(g, 2, seed=7)
        samples = w.run(60.0)
        consts = VehicleConstants(3000.0, w.fork_mass)
        out = replay(samples, g, dt=w.dt, consts=consts, params=w.battery_params)
        assert len(out) == len(samples)
        for a, b in zip(samples, out):
            assert a.t == pytest.approx(b.t, abs=1e-9)
            assert a.vehicle_id == b.vehicle_id
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.y == pytest.approx(b.y, abs=1e-9)
            assert a.soc == pytest.approx(b.soc, abs=1e-9)

    def test_empty(self):
        assert replay([], mapgen.warehouse_map()) == []

    def test_late_vehicle_spawns_at_first_sample(self):
        from forkfleet.trajectory import TrajectorySample
        g = corridor_graph()
        samples = [
            TrajectorySample(0.0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(1.0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(0.5, 1, 20, 0, 0, 0, 0, 0, 1.0),
            TrajectorySample(1.0, 1, 20, 0, 0, 0, 0, 0, 1.0),
        ]
        out = replay(samples, g, dt=0.5)
        v1 = [s for s in out if s.vehicle_id == 1]
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
        out = replay(samples, mapgen.warehouse_map(), dt=0.1)
        v1 = [s for s in out if s.vehicle_id == 1]
        assert v1[0] == samples[1]
        assert len(v1) == 8  # grid times 1.3, 1.4, ..., 2.0
