"""Deterministic fixed-timestep fleet simulation.

Single-threaded explicit-Euler world stepping: task assignment onto free
parking spots, A* route planning, trapezoidal speed profiles with curvature
slowdown, top-down collision avoidance and fork lift/lower phases. step() is
kinematics only; ticks() streams one sample per vehicle per step, a step's
samples made with their SOC by one add to the fleet's battery.SocMeter (as
replay's integrate_trajectory does per vehicle series), holding one tick at a
time, and run() collects the ticks into a list. All randomness flows from one
splitmix64 generator seeded by the scenario seed, so (scenario, seed, dt)
fully determines every emitted sample.

Spot occupancy is the world's own ({spot: vehicle} in World.claims), never
written to the road graph, so one graph can back any number of worlds.

Collision policy (ours; the underlying idea is only a top-down scheme with
global knowledge of poses and velocities): the higher-id vehicle of a
conflicting pair yields via a horizon-based speed cap, and a hard proximity
cap applies to both vehicles so that pairwise center distance provably never
drops below d_safe between steps. A vehicle stopped by conflicts for longer
than t_deadlock gets priority over its blockers.

Pairs are found by a sort-and-sweep broad phase (Cohen et al., "I-COLLIDE",
SI3D 1995): vehicles are swept in x order, and a pair is skipped once its x or
y distance reaches

    reach = max(trigger, d_safe + 2 * s_max * horizon) + 1 m

where trigger is the hard-cap radius, s_max the largest |speed| in the fleet
this step, and the extra metre absorbs float rounding. A skipped pair cannot
cap: its gap is at least max(|dx|, |dy|) >= reach, so the hard cap (gap <
trigger) does not fire, and its predicted miss distance over the horizon is
at least gap - (|v_a| + |v_b|) * horizon >= d_safe + 1 m, so neither does the
soft cap. Caps combine by min, which does not depend on the order pairs are
visited in, so the caps equal those of testing all N(N-1)/2 pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import ConfigError, Infeasible, battery as bat, check_ranges, setting
from .rng import SplitMix64
from .roadnet import Path, RoadGraph, astar, nearest_node
from .trajectory import TrajectorySample, resample, split_by_vehicle


# replay's grid over all vehicles: about 470 B a point at its peak (tracemalloc,
# 2-8 vehicles), so 1.9 GB; an hour of 64 vehicles at 0.1 s is 2.3 x 10^6 points
MAX_GRID_POINTS = 4 * 10**6


class NoFreeSpot(ConfigError):
    pass


class SpotOccupied(ConfigError):
    pass


@dataclass(frozen=True)
class KinematicsParams:
    v_max: float = setting(4.0, 0, ends="(]")        # m/s
    a_max: float = setting(1.0, 0, ends="(]")        # m/s^2 accelerating
    b_max: float = setting(1.5, 0, ends="(]")        # m/s^2 braking
    a_lat_max: float = setting(1.0, 0, ends="(]")    # m/s^2 lateral, for curve slowdown
    lift_speed: float = setting(0.3, 0, ends="(]")   # m/s fork travel
    d_safe: float = setting(3.0, 0, ends="(]")       # m minimum pairwise separation
    horizon: float = setting(5.0, 0, ends="(]")      # s conflict prediction horizon
    t_deadlock: float = setting(10.0, 0)             # s before a blocked vehicle gains priority

    def validate(self):
        check_ranges(self, "kin.")


@dataclass(frozen=True)
class Task:
    dest_spot: int
    pickup_mass: float
    lift_height: float


@dataclass
class VehicleState:
    id: int
    x: float
    y: float
    heading: float
    speed: float = 0.0
    truck_mass: float = 3000.0
    load_mass: float = 0.0
    fork_height: float = 0.0
    soc: float = 1.0


PHASE_IDLE = "idle"
PHASE_LIFT = "lift"
PHASE_DRIVE = "drive"
PHASE_LOWER = "lower"


@dataclass
class _Route:
    points: list              # (x, y) polyline
    cumlen: list              # arc length at each point
    seg_limits: list          # speed limit per segment
    headings: list            # heading of each segment
    caps: list                # per vertex: min(curvature cap, its segment's limit); inf last
    s: float = 0.0            # arc length driven
    seg: int = 0              # the segment holding s; only moves forward, as s does


@dataclass
class _VehicleCtl:
    """Per-vehicle controller bookkeeping, internal to the world."""
    phase: str = PHASE_IDLE
    task: Optional[Task] = None
    route: Optional[_Route] = None
    current_spot: Optional[int] = None
    blocked_for: float = 0.0
    distance_driven: float = 0.0
    tasks_completed: int = 0


@dataclass
class StepEvents:
    assignments: list = field(default_factory=list)   # (vehicle_id, Task)
    arrivals: list = field(default_factory=list)      # (vehicle_id, spot_id)
    completions: list = field(default_factory=list)   # (vehicle_id, Task)


def _menger_radius(p0, p1, p2):
    """Circumradius of three points; inf when (near) collinear."""
    a = math.dist(p1, p2)
    b = math.dist(p0, p2)
    c = math.dist(p0, p1)
    area2 = abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    if area2 < 1e-12:
        return math.inf
    return a * b * c / (2.0 * area2)


class World:
    def __init__(self, graph: RoadGraph, vehicles, dt: float = 0.1, seed: int = 0,
                 kin: KinematicsParams = KinematicsParams(),
                 battery_params: bat.BatteryParams = bat.BatteryParams(),
                 fork_mass: float = 100.0,
                 pickup_mass: float = 500.0, lift_height: float = 1.0):
        if not 0.0 < dt < math.inf:
            raise ConfigError(f"dt must be finite and > 0, got {dt}")
        kin.validate()  # the broad phase's reach bound needs finite, positive kin
        self.graph = graph
        self.vehicles = sorted(vehicles, key=lambda v: v.id)
        self._vehicles_by_id = {v.id: v for v in self.vehicles}
        if len(self._vehicles_by_id) != len(self.vehicles):
            raise ValueError("two vehicles with one id")
        # in id order, so free_spots() lists them in id order
        self._spots_by_id = {s.id: s for s in sorted(graph.spots, key=lambda s: s.id)}
        self.dt = dt
        self.rng = SplitMix64(seed)
        self.kin = kin
        self.battery_params = battery_params
        self.fork_mass = fork_mass
        self.pickup_mass = pickup_mass
        self.lift_height = lift_height
        self.step_count = 0
        self.claims = {}  # spot_id -> vehicle_id: where it stands or is bound
        self.ctl = {v.id: _VehicleCtl() for v in self.vehicles}
        self._meter = None  # the fleet's battery.SocMeter, from the first tick on
        self._history = []  # every sample run() recorded

    @property
    def clock(self) -> float:
        return self.step_count * self.dt

    # --- construction helpers ------------------------------------------------

    @classmethod
    def spawn_at_spots(cls, graph: RoadGraph, n_vehicles: int, **kwargs) -> "World":
        """Place vehicles 0..n-1 on the n parking spots of lowest id, each
        claiming its spot."""
        if n_vehicles > len(graph.spots):
            raise NoFreeSpot(f"{n_vehicles} vehicles but only {len(graph.spots)} spots")
        spots = sorted(graph.spots, key=lambda s: s.id)[:n_vehicles]
        vehicles = [VehicleState(i, *graph.spot_anchor_xy(spot),
                                 heading=graph.waypoints[spot.edge_src].heading)
                    for i, spot in enumerate(spots)]
        world = cls(graph, vehicles, **kwargs)
        for i, spot in enumerate(spots):
            world.ctl[i].current_spot = spot.id
            world.claims[spot.id] = i
        return world

    def _spot_by_id(self, spot_id: int):
        try:
            return self._spots_by_id[spot_id]
        except KeyError:
            raise KeyError(f"no spot {spot_id}") from None

    def vehicle(self, vid: int) -> VehicleState:
        try:
            return self._vehicles_by_id[vid]
        except KeyError:
            raise KeyError(f"no vehicle {vid}") from None

    # --- task assignment -----------------------------------------------------

    def free_spots(self):
        """The unclaimed spots, in id order."""
        return [s for s in self._spots_by_id.values() if s.id not in self.claims]

    def assign_task(self, vehicle_id: int, policy=("random", None)) -> Task:
        ctl = self.ctl[vehicle_id]
        if ctl.phase != PHASE_IDLE:
            raise ConfigError(f"vehicle {vehicle_id} is in phase {ctl.phase}")
        kind, fixed_dest = policy
        if kind == "fixed":
            dest = self._spot_by_id(fixed_dest)
            if dest.id in self.claims:
                raise SpotOccupied(f"spot {fixed_dest} is claimed")
        else:
            free = self.free_spots()
            if not free:
                raise NoFreeSpot("no unclaimed parking spot available")
            dest = free[self.rng.randrange(len(free))]
        task = Task(dest.id, self.pickup_mass, self.lift_height)
        self.claims[dest.id] = vehicle_id
        ctl.task = task
        ctl.phase = PHASE_LIFT
        self.vehicle(vehicle_id).load_mass = task.pickup_mass
        return task

    # --- routing -------------------------------------------------------------

    def plan_route(self, vehicle_id: int, task: Task) -> Path:
        """Shortest path from the vehicle's snapped node to the destination
        spot's anchor-edge start node. Raises Infeasible."""
        v = self.vehicle(vehicle_id)
        spot = self._spot_by_id(task.dest_spot)
        src = nearest_node(self.graph, v.x, v.y)
        path = astar(self.graph, src, spot.edge_src)
        if path is None:
            raise Infeasible(f"vehicle {vehicle_id} cannot reach spot {task.dest_spot}")
        return path

    def _build_route(self, vehicle_id: int, task: Task) -> _Route:
        v = self.vehicle(vehicle_id)
        path = self.plan_route(vehicle_id, task)
        spot = self._spot_by_id(task.dest_spot)
        pts = []
        limits = []
        if math.hypot(v.x - self.graph.waypoints[path.nodes[0]].x,
                      v.y - self.graph.waypoints[path.nodes[0]].y) > 1e-9:
            pts.append((v.x, v.y))
            limits.append(self.kin.v_max)
        pts += [(self.graph.waypoints[n].x, self.graph.waypoints[n].y) for n in path.nodes]
        limits += [self.graph.edge_between(a, b).speed_limit
                   for a, b in zip(path.nodes, path.nodes[1:])]
        if spot.offset > 1e-9:
            pts.append(self.graph.spot_anchor_xy(spot))
            limits.append(self.graph.edge_between(spot.edge_src, spot.edge_dst).speed_limit)
        # drop duplicate consecutive points
        clean_pts, clean_limits = [pts[0]], []
        for i in range(1, len(pts)):
            if math.dist(pts[i], clean_pts[-1]) > 1e-9:
                clean_pts.append(pts[i])
                clean_limits.append(limits[i - 1])
        pts, limits = clean_pts, clean_limits
        cum = [0.0]
        for a, b in zip(pts, pts[1:]):
            cum.append(cum[-1] + math.dist(a, b))
        caps = limits + [math.inf]
        for i in range(1, len(pts) - 1):
            r = _menger_radius(pts[i - 1], pts[i], pts[i + 1])
            if math.isfinite(r):
                caps[i] = min(caps[i], math.sqrt(self.kin.a_lat_max * r))
        headings = [math.atan2(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        return _Route(pts, cum, limits, headings, caps)

    # --- collision avoidance -------------------------------------------------

    def resolve_conflicts(self):
        """Per-vehicle speed caps for this step -> {vehicle_id: cap}.

        Sweeps one (x, y, id, vx, vy, speed) row per vehicle in x order and
        tests only pairs closer than `reach` in both x and y (see the module
        docstring); each such pair is tested with a = its lower id. A cap is
        min(its caps so far, max(0.0, cap)), each min and max written as the
        comparison that gives its bits."""
        kin = self.kin
        dt = self.dt
        d_safe, horizon, t_deadlock, v_max = kin.d_safe, kin.horizon, kin.t_deadlock, kin.v_max
        a_max_dt = kin.a_max * dt
        ctl, hypot, inf = self.ctl, math.hypot, math.inf
        caps = {}
        trigger = d_safe + 2.0 * (v_max + a_max_dt) * dt + 1.0
        rows = sorted([(v.x, v.y, v.id, v.speed * math.cos(v.heading),
                        v.speed * math.sin(v.heading), v.speed) for v in self.vehicles])
        s_max = max([abs(row[5]) for row in rows], default=0.0)
        reach = max(trigger, d_safe + 2.0 * s_max * horizon) + 1.0
        for i, p in enumerate(rows):
            px, py = p[0], p[1]
            for q in rows[i + 1:]:
                if q[0] - px >= reach:
                    break
                dy = q[1] - py
                if dy >= reach or -dy >= reach:
                    continue
                ax, ay, aid, avx, avy, aspeed = p if p[2] < q[2] else q
                bx, by, bid, bvx, bvy, _ = q if p[2] < q[2] else p
                rx, ry = bx - ax, by - ay
                gap = hypot(rx, ry)
                # soft horizon-based yielding
                dvx, dvy = bvx - avx, bvy - avy
                dv2 = dvx * dvx + dvy * dvy
                t_star = 0.0 if dv2 < 1e-12 else -(rx * dvx + ry * dvy) / dv2
                t_star = 0.0 if 0.0 > t_star else t_star
                t_star = horizon if horizon < t_star else t_star
                if hypot(rx + dvx * t_star, ry + dvy * t_star) < d_safe:
                    # deadlock breaker: a long-blocked yielder gains priority
                    yielder = bid
                    if ctl[bid].blocked_for > t_deadlock and ctl[aid].blocked_for <= t_deadlock:
                        yielder = aid
                    cap = (gap - d_safe) / horizon
                    cap = cap if cap > 0.0 else 0.0
                    old = caps.get(yielder, inf)
                    caps[yielder] = cap if cap < old else old
                # hard proximity caps keep the pair >= d_safe across one step
                if gap < trigger:
                    slack = (gap - d_safe) / dt
                    slack = slack if slack > 0.0 else 0.0
                    # priority vehicle may close at most the whole slack
                    old = caps.get(aid, inf)
                    caps[aid] = slack if slack < old else old
                    cap = slack - min(v_max, aspeed + a_max_dt, slack)
                    cap = cap if cap > 0.0 else 0.0
                    old = caps.get(bid, inf)
                    caps[bid] = cap if cap < old else old
        return caps

    # --- stepping ------------------------------------------------------------

    def step(self, auto_assign: bool = True, policy=("random", None)) -> StepEvents:
        events = StepEvents()
        dt = self.dt
        kin = self.kin
        vehicles = self.vehicles
        ctls = [self.ctl[v.id] for v in vehicles]
        if auto_assign:
            for v, ctl in zip(vehicles, ctls):
                if ctl.phase == PHASE_IDLE:
                    try:
                        task = self.assign_task(v.id, policy)
                        events.assignments.append((v.id, task))
                    except (NoFreeSpot, SpotOccupied):
                        pass
        caps = self.resolve_conflicts()
        # the drive's kin-only constants: b_max * dt, its square, 2 * b_max, the
        # braking envelope's lookahead and a_max * dt
        bd = kin.b_max * dt
        drive = (bd, bd * bd, 2.0 * kin.b_max,
                 kin.v_max * kin.v_max / (2.0 * kin.b_max) + kin.v_max * dt + 1.0, kin.a_max * dt)
        for v, ctl in zip(vehicles, ctls):
            if ctl.phase == PHASE_DRIVE:
                self._advance_drive(v, ctl, caps.get(v.id, math.inf), events, drive)
            elif ctl.phase == PHASE_IDLE:
                v.speed = 0.0
            elif ctl.phase == PHASE_LIFT:
                v.speed = 0.0
                v.fork_height = min(ctl.task.lift_height, v.fork_height + kin.lift_speed * dt)
                if v.fork_height >= ctl.task.lift_height - 1e-12:
                    v.fork_height = ctl.task.lift_height
                    # load picked; leave the origin spot and drive off
                    if ctl.current_spot is not None:
                        del self.claims[ctl.current_spot]
                        ctl.current_spot = None
                    ctl.route = self._build_route(v.id, ctl.task)
                    ctl.phase = PHASE_DRIVE
                    if len(ctl.route.points) == 1:  # at the anchor already: arrive now
                        ctl.phase = PHASE_LOWER
                        ctl.current_spot = ctl.task.dest_spot
                        events.arrivals.append((v.id, ctl.current_spot))
            elif ctl.phase == PHASE_LOWER:
                v.speed = 0.0
                v.fork_height = max(0.0, v.fork_height - kin.lift_speed * dt)
                if v.fork_height <= 1e-12:
                    v.fork_height = 0.0
                    v.load_mass = 0.0
                    events.completions.append((v.id, ctl.task))
                    ctl.tasks_completed += 1
                    ctl.task = None
                    ctl.phase = PHASE_IDLE
        self.step_count += 1
        return events

    def _advance_drive(self, v, ctl, conflict_cap, events, drive):
        """Move a driving vehicle one step along its route. Each min and max of
        two floats is written as the comparison that gives its bits."""
        bd, bd2, two_b, lookahead, a_max_dt = drive
        v_max = self.kin.v_max
        dt = self.dt
        route = ctl.route
        cumlen = route.cumlen
        s = route.s
        total = cumlen[-1]
        seg = route.seg
        limit = route.seg_limits[seg] if route.seg_limits else v_max
        v_target = limit if limit < v_max else v_max
        # braking envelope: the max speed now so that braking at b_max reaches
        # `cap` after `d`, accounting for the distance covered during this step:
        #     -bd + sqrt(bd2 + cap * cap + two_b * max(0, d))
        # It is non-decreasing in cap under rounding, so the envelope of a
        # vertex's min cap is the min of its caps' envelopes, and inf's is inf.
        # cap = 0 at the route's end; bd2 + 0 * 0 is bd2
        d = total - s
        envelope = -bd + math.sqrt(bd2 + two_b * (d if d > 0.0 else 0.0))
        v_target = envelope if envelope < v_target else v_target
        caps = route.caps
        for j in range(seg + 1, len(cumlen)):
            d = cumlen[j] - s
            if d > lookahead:
                break
            cap = caps[j]
            envelope = -bd + math.sqrt(bd2 + cap * cap + two_b * (d if d > 0.0 else 0.0))
            v_target = envelope if envelope < v_target else v_target
        speed = v.speed
        if v_target >= speed:
            new_v = speed + a_max_dt
            new_v = new_v if new_v < v_target else v_target
        else:
            new_v = speed - bd
            new_v = new_v if new_v > v_target else v_target
        new_v = conflict_cap if conflict_cap < new_v else new_v
        if new_v < 0.01 and conflict_cap < 0.01:
            ctl.blocked_for += dt
        else:
            ctl.blocked_for = 0.0
        # trapezoidal displacement, but never beyond the conflict cap so the
        # pairwise separation argument stays valid
        v_eff = 0.5 * (speed + new_v)
        new_s = s + (conflict_cap if conflict_cap < v_eff else v_eff) * dt
        arrived = new_s >= total - 1e-9
        if arrived:
            new_s = total
            new_v = 0.0
        # place the vehicle at new_s. Its segment's scan resumes at s's: every
        # segment before that ends at or before s, so also before new_s.
        last = len(cumlen) - 2
        while seg < last and new_s >= cumlen[seg + 1] - 1e-12:
            seg += 1
        route.seg = seg
        (x0, y0), (x1, y1) = route.points[seg], route.points[seg + 1]
        seg_len = cumlen[seg + 1] - cumlen[seg]
        frac = (new_s - cumlen[seg]) / seg_len if seg_len > 0 else 1.0
        frac = 0.0 if 0.0 > frac else frac
        frac = 1.0 if 1.0 < frac else frac
        v.x = x0 + (x1 - x0) * frac
        v.y = y0 + (y1 - y0) * frac
        v.heading = route.headings[seg]
        ctl.distance_driven += new_s - s
        route.s = new_s
        v.speed = new_v
        if arrived:
            ctl.phase = PHASE_LOWER
            ctl.current_spot = ctl.task.dest_spot
            events.arrivals.append((v.id, ctl.current_spot))

    # --- recording / running ---------------------------------------------------

    def ticks(self, duration: float, auto_assign: bool = True, policy=("random", None)):
        """Step for the given duration, yielding each step's samples, one per
        vehicle in id order, after the initial state if no tick came before.
        Each step's samples are made with their SOC by one add to the fleet's
        battery.SocMeter, which holds the vehicles' energy sums; soc follows."""
        steps = duration / self.dt
        if not math.isfinite(steps):
            raise ConfigError(f"duration {duration} / dt {self.dt} is not a finite step count")
        n_steps = int(round(steps))
        vehicles = self.vehicles
        if n_steps > 0 and self._meter is None:
            t = self.clock
            tick = [TrajectorySample(t, v.id, v.x, v.y, v.heading, v.speed, v.fork_height,
                                     v.load_mass, v.soc) for v in vehicles]
            self._meter = bat.SocMeter(
                tick, [bat.VehicleConstants(v.truck_mass, self.fork_mass) for v in vehicles],
                self.battery_params, ConfigError)
            yield tick
        for _ in range(n_steps):
            self.step(auto_assign=auto_assign, policy=policy)
            t = self.clock
            tick = self._meter.add([(t, v.id, v.x, v.y, v.heading, v.speed, v.fork_height,
                                     v.load_mass) for v in vehicles])
            for v, sample in zip(vehicles, tick):
                v.soc = sample[8]
            yield tick

    def run(self, duration: float, auto_assign: bool = True, policy=("random", None)):
        """ticks() for the given duration, appended to one time-major history.
        Returns every sample run() has recorded so far, in (t, vehicle_id)
        order."""
        for tick in self.ticks(duration, auto_assign, policy):
            self._history += tick
        return list(self._history)

    def summary(self):
        out = []
        for v in self.vehicles:
            ctl = self.ctl[v.id]
            drawn, regenerated = self._meter.energy(v.id) if self._meter else (0.0, 0.0)
            out.append({
                "vehicle_id": v.id,
                "distance_driven": ctl.distance_driven,
                "tasks_completed": ctl.tasks_completed,
                "energy_drawn": drawn,
                "energy_regenerated": regenerated,
                "final_soc": v.soc,
                "soc_band": bat.soc_band(v.soc),
            })
        return out


def replay(samples, graph: RoadGraph, dt: float = 0.1,
           consts: bat.VehicleConstants = bat.VehicleConstants(),
           params: bat.BatteryParams = bat.BatteryParams()):
    """Re-grid recorded samples onto a fixed dt timeline and recompute SOC.

    Replayed vehicles are passive: poses interpolate linearly between input
    samples, there is no planning or collision logic, but every segment
    feeds the battery model. A vehicle appearing mid-stream simply spawns at
    its first sample. Returns the regridded samples with recomputed SOC.
    """
    per_vehicle = split_by_vehicle(samples)
    if not per_vehicle:
        return []
    t0 = min(ss[0].t for ss in per_vehicle.values())
    # bound the grid before making it: each span over dt, the 1e-9 slack at both
    # ends, and t0 + k * dt's rounding, which repeats times finer than their ulp
    points = sum((ss[-1].t - ss[0].t + 2e-9 + 2**-50 * (abs(t0) + abs(ss[-1].t))) / dt + 2
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
            # the first k's 1e-9 slack can put the first grid time just before the
            # first sample, outside resample's own 1e-12
            t = min(max(t, first), last)
            if times and t <= times[-1]:
                raise ConfigError(f"replay at dt {dt}: grid time {t} repeats, since dt is "
                                  "finer than the sample times resolve")
            times.append(t)
            k += 1
        regridded = list(resample(series, times))
        if regridded:
            regridded[0] = regridded[0]._replace(soc=series[0].soc)
        out.extend(bat.integrate_trajectory(regridded, consts, params)[2])
    out.sort(key=lambda s: (s.t, s.vehicle_id))
    return out
