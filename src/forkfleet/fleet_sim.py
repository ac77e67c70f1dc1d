"""Deterministic fixed-timestep fleet simulation.

Single-threaded explicit-Euler world stepping: task assignment onto free
parking spots, A* route planning, trapezoidal speed profiles with curvature
slowdown, top-down collision avoidance and fork lift/lower phases. step() is
kinematics only; run() records one sample per vehicle per step and then
integrates each truck's battery over what that run recorded, through
battery.soc_steps, the loop behind replay's integrate_trajectory. All
randomness flows from one splitmix64 generator seeded by the scenario seed,
so (scenario, seed, dt) fully determines every emitted sample.

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
from dataclasses import dataclass, field, fields
from typing import Optional

from . import ConfigError, Infeasible, battery as bat
from .rng import SplitMix64
from .roadnet import Path, RoadGraph, astar, nearest_node
from .trajectory import TrajectorySample, resample, split_by_vehicle


class NoFreeSpot(ConfigError):
    pass


class VehicleBusy(ConfigError):
    pass


class SpotOccupied(ConfigError):
    pass


class UnreachableDestination(Infeasible):
    pass


@dataclass(frozen=True)
class KinematicsParams:
    v_max: float = 4.0        # m/s
    a_max: float = 1.0        # m/s^2 accelerating
    b_max: float = 1.5        # m/s^2 braking
    a_lat_max: float = 1.0    # m/s^2 lateral, for curve slowdown
    lift_speed: float = 0.3   # m/s fork travel
    d_safe: float = 3.0       # m minimum pairwise separation
    horizon: float = 5.0      # s conflict prediction horizon
    t_deadlock: float = 10.0  # s before a blocked vehicle gains priority

    def validate(self):
        """Raise ConfigError unless every field is finite, t_deadlock >= 0 and
        every other field > 0."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "t_deadlock":
                ok, bound = value >= 0, ">= 0"
            else:
                ok, bound = value > 0, "> 0"
            if not (math.isfinite(value) and ok):
                raise ConfigError(f"kin.{f.name} must be finite and {bound}, got {value}")


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
    vert_caps: list           # curvature speed cap per vertex
    s: float = 0.0
    seg: int = 0              # segment cursor; only moves forward, as s does

    @property
    def total(self):
        return self.cumlen[-1]

    def seg_at(self, s):
        """Index of the segment holding arc length s, which must be at least
        the s of the previous call. The scan resumes at the cursor: every
        segment before it ends at or before the earlier s, so also before s."""
        seg = self.seg
        last = len(self.cumlen) - 2
        while seg < last and s >= self.cumlen[seg + 1] - 1e-12:
            seg += 1
        self.seg = seg
        return seg


@dataclass
class _VehicleCtl:
    """Per-vehicle controller bookkeeping, internal to the world."""
    phase: str = PHASE_IDLE
    task: Optional[Task] = None
    route: Optional[_Route] = None
    fork_target: float = 0.0
    current_spot: Optional[int] = None
    blocked_for: float = 0.0
    distance_driven: float = 0.0
    energy_drawn: float = 0.0
    energy_regenerated: float = 0.0
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
        self.seed = seed
        self.kin = kin
        self.battery_params = battery_params
        self.fork_mass = fork_mass
        self.pickup_mass = pickup_mass
        self.lift_height = lift_height
        self.step_count = 0
        self.claims = {}  # spot_id -> vehicle_id: where it stands or is bound
        self.ctl = {v.id: _VehicleCtl() for v in self.vehicles}
        self._tracks = []  # per vehicle, in id order: every sample run() recorded

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
            raise VehicleBusy(f"vehicle {vehicle_id} is in phase {ctl.phase}")
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
        ctl.fork_target = task.lift_height
        self.vehicle(vehicle_id).load_mass = task.pickup_mass
        return task

    # --- routing -------------------------------------------------------------

    def plan_route(self, vehicle_id: int, task: Task) -> Path:
        """Shortest path from the vehicle's snapped node to the destination
        spot's anchor-edge start node. Raises UnreachableDestination."""
        v = self.vehicle(vehicle_id)
        spot = self._spot_by_id(task.dest_spot)
        src = nearest_node(self.graph, v.x, v.y)
        path = astar(self.graph, src, spot.edge_src)
        if path is None:
            raise UnreachableDestination(
                f"vehicle {vehicle_id} cannot reach spot {task.dest_spot}")
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
        for node in path.nodes:
            wp = self.graph.waypoints[node]
            pts.append((wp.x, wp.y))
        for a, b in zip(path.nodes, path.nodes[1:]):
            limits.append(self.graph.edge_between(a, b).speed_limit)
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
        caps = [math.inf] * len(pts)
        for i in range(1, len(pts) - 1):
            r = _menger_radius(pts[i - 1], pts[i], pts[i + 1])
            if math.isfinite(r):
                caps[i] = math.sqrt(self.kin.a_lat_max * r)
        return _Route(pts, cum, limits, caps)

    # --- collision avoidance -------------------------------------------------

    def resolve_conflicts(self):
        """Per-vehicle speed caps for this step -> {vehicle_id: cap}.

        Sweeps the vehicles in x order and tests only pairs closer than
        `reach` in both x and y (see the module docstring); each such pair
        is tested with a = its lower id."""
        kin = self.kin
        dt = self.dt
        caps = {}

        def tighten(vid, cap):
            caps[vid] = min(caps.get(vid, math.inf), max(0.0, cap))

        trigger = kin.d_safe + 2.0 * (kin.v_max + kin.a_max * dt) * dt + 1.0
        s_max = max((abs(v.speed) for v in self.vehicles), default=0.0)
        reach = max(trigger, kin.d_safe + 2.0 * s_max * kin.horizon) + 1.0
        vel = {v.id: (v.speed * math.cos(v.heading), v.speed * math.sin(v.heading))
               for v in self.vehicles}
        order = sorted(self.vehicles, key=lambda v: v.x)
        xs = [v.x for v in order]
        ys = [v.y for v in order]
        n = len(order)
        for i in range(n):
            px, py = xs[i], ys[i]
            for j in range(i + 1, n):
                if xs[j] - px >= reach:
                    break
                dy = ys[j] - py
                if dy >= reach or -dy >= reach:
                    continue
                p, q = order[i], order[j]
                a, b = (p, q) if p.id < q.id else (q, p)
                gap = math.hypot(b.x - a.x, b.y - a.y)
                # soft horizon-based yielding
                rx, ry = b.x - a.x, b.y - a.y
                vax, vay = vel[a.id]
                vbx, vby = vel[b.id]
                dvx, dvy = vbx - vax, vby - vay
                dv2 = dvx * dvx + dvy * dvy
                t_star = 0.0 if dv2 < 1e-12 else min(max(-(rx * dvx + ry * dvy) / dv2, 0.0),
                                                     kin.horizon)
                min_sep = math.hypot(rx + dvx * t_star, ry + dvy * t_star)
                if min_sep < kin.d_safe:
                    # deadlock breaker: a long-blocked yielder gains priority
                    yielder = b
                    if (self.ctl[b.id].blocked_for > kin.t_deadlock
                            and self.ctl[a.id].blocked_for <= kin.t_deadlock):
                        yielder = a
                    tighten(yielder.id, (gap - kin.d_safe) / kin.horizon)
                # hard proximity caps keep the pair >= d_safe across one step
                if gap < trigger:
                    slack = max(0.0, (gap - kin.d_safe) / dt)
                    # priority vehicle may close at most the whole slack
                    tighten(a.id, slack)
                    a_bound = min(kin.v_max, a.speed + kin.a_max * dt, slack)
                    tighten(b.id, slack - a_bound)
        return caps

    # --- stepping ------------------------------------------------------------

    def step(self, auto_assign: bool = True, policy=("random", None)) -> StepEvents:
        events = StepEvents()
        dt = self.dt
        kin = self.kin
        if auto_assign:
            for v in self.vehicles:
                if self.ctl[v.id].phase == PHASE_IDLE:
                    try:
                        task = self.assign_task(v.id, policy)
                        events.assignments.append((v.id, task))
                    except (NoFreeSpot, SpotOccupied):
                        pass
        caps = self.resolve_conflicts()
        for v in self.vehicles:
            ctl = self.ctl[v.id]
            if ctl.phase == PHASE_IDLE:
                v.speed = 0.0
            elif ctl.phase == PHASE_LIFT:
                v.speed = 0.0
                v.fork_height = min(ctl.fork_target, v.fork_height + kin.lift_speed * dt)
                if v.fork_height >= ctl.fork_target - 1e-12:
                    v.fork_height = ctl.fork_target
                    # load picked; leave the origin spot and drive off
                    if ctl.current_spot is not None:
                        del self.claims[ctl.current_spot]
                        ctl.current_spot = None
                    ctl.route = self._build_route(v.id, ctl.task)
                    ctl.phase = PHASE_DRIVE
            elif ctl.phase == PHASE_DRIVE:
                self._advance_drive(v, ctl, caps.get(v.id, math.inf), events)
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

    def _advance_drive(self, v, ctl, conflict_cap, events):
        kin = self.kin
        dt = self.dt
        route = ctl.route
        s = route.s
        total = route.total
        seg = route.seg_at(s)
        v_target = min(kin.v_max, route.seg_limits[seg] if route.seg_limits else kin.v_max)
        # braking envelope: the max speed now so that braking at b_max reaches
        # `cap` after `d`, accounting for the distance covered during this step:
        #     -bd + sqrt(bd2 + cap * cap + two_b * max(0, d))
        bd = kin.b_max * dt
        bd2 = bd * bd
        two_b = 2.0 * kin.b_max
        # cap = 0 at the route's end; bd2 + 0 * 0 is bd2
        v_target = min(v_target, -bd + math.sqrt(bd2 + two_b * max(0.0, total - s)))
        lookahead = kin.v_max * kin.v_max / (2.0 * kin.b_max) + kin.v_max * dt + 1.0
        for j in range(seg + 1, len(route.points)):
            d = route.cumlen[j] - s
            if d > lookahead:
                break
            cap = route.vert_caps[j]
            if math.isfinite(cap):
                v_target = min(v_target, -bd + math.sqrt(bd2 + cap * cap + two_b * max(0.0, d)))
            if j < len(route.seg_limits):
                cap = route.seg_limits[j]
                v_target = min(v_target, -bd + math.sqrt(bd2 + cap * cap + two_b * max(0.0, d)))
        if v_target >= v.speed:
            new_v = min(v_target, v.speed + kin.a_max * dt)
        else:
            new_v = max(v_target, v.speed - kin.b_max * dt)
        new_v = min(new_v, conflict_cap)
        if new_v < 0.01 and conflict_cap < 0.01:
            ctl.blocked_for += dt
        else:
            ctl.blocked_for = 0.0
        # trapezoidal displacement, but never beyond the conflict cap so the
        # pairwise separation argument stays valid
        v_eff = min(0.5 * (v.speed + new_v), conflict_cap)
        new_s = s + v_eff * dt
        if new_s >= total - 1e-9:
            new_s = total
            new_v = 0.0
            self._place_on_route(v, route, new_s)
            ctl.distance_driven += new_s - s
            route.s = new_s
            v.speed = 0.0
            ctl.phase = PHASE_LOWER
            ctl.fork_target = 0.0
            ctl.current_spot = ctl.task.dest_spot
            events.arrivals.append((v.id, ctl.current_spot))
            return
        ctl.distance_driven += new_s - s
        route.s = new_s
        v.speed = new_v
        self._place_on_route(v, route, new_s)

    def _place_on_route(self, v, route, s):
        seg = route.seg_at(s)
        (x0, y0), (x1, y1) = route.points[seg], route.points[seg + 1]
        seg_len = route.cumlen[seg + 1] - route.cumlen[seg]
        frac = (s - route.cumlen[seg]) / seg_len if seg_len > 0 else 1.0
        frac = min(max(frac, 0.0), 1.0)
        v.x = x0 + (x1 - x0) * frac
        v.y = y0 + (y1 - y0) * frac
        v.heading = math.atan2(y1 - y0, x1 - x0)

    def _sample_of(self, v, t):
        return TrajectorySample(t, v.id, v.x, v.y, v.heading, v.speed,
                                v.fork_height, v.load_mass, v.soc)

    # --- recording / running ---------------------------------------------------

    def run(self, duration: float, auto_assign: bool = True, policy=("random", None)):
        """Step for the given duration, recording one sample per vehicle per
        step (plus the initial state on the first run). Then integrate each
        vehicle's battery over the samples this run recorded, continuing from
        its soc when recording began and its energy sums so far, and set its
        soc to the last value. Returns every sample recorded so far, in
        (t, vehicle_id) order."""
        n_steps = int(round(duration / self.dt))
        tracks = self._tracks
        if n_steps > 0:
            if not tracks:
                # a later run continues from the last sample already recorded
                tracks[:] = [[self._sample_of(v, self.clock)] for v in self.vehicles]
            for _ in range(n_steps):
                self.step(auto_assign=auto_assign, policy=policy)
                t = self.clock
                for v, track in zip(self.vehicles, tracks):
                    track.append(self._sample_of(v, t))
            for v, track in zip(self.vehicles, tracks):
                ctl = self.ctl[v.id]
                last = len(track) - 1 - n_steps  # the last sample with its soc
                consts = bat.VehicleConstants(v.truck_mass, self.fork_mass)
                steps = bat.soc_steps(track[last:], consts, self.battery_params, track[0].soc,
                                      ctl.energy_drawn, ctl.energy_regenerated)
                for k, (draw, regen, sample) in enumerate(steps, start=last + 1):
                    ctl.energy_drawn += draw
                    ctl.energy_regenerated += regen
                    track[k] = sample
                v.soc = track[-1].soc
        return [s for tick in zip(*tracks) for s in tick]

    def summary(self):
        out = []
        for v in self.vehicles:
            ctl = self.ctl[v.id]
            out.append({
                "vehicle_id": v.id,
                "distance_driven": ctl.distance_driven,
                "tasks_completed": ctl.tasks_completed,
                "energy_drawn": ctl.energy_drawn,
                "energy_regenerated": ctl.energy_regenerated,
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
            times.append(min(max(t, first), last))
            k += 1
        regridded = resample(series, times)
        if regridded:
            regridded[0] = regridded[0]._replace(soc=series[0].soc)
        out.extend(bat.integrate_trajectory(regridded, consts, params)[2])
    out.sort(key=lambda s: (s.t, s.vehicle_id))
    return out
