"""Deterministic fixed-timestep fleet simulation.

Single-threaded explicit-Euler world stepping: task assignment onto free
parking spots, A* route planning, trapezoidal speed profiles with curvature
slowdown, top-down collision avoidance and fork lift/lower phases. step() is
kinematics only and returns nothing; ticks() streams one sample per vehicle
per step, a step's samples made with their SOC by one add to the fleet's
battery.SocMeter, holding one tick at a time. replay() streams ticks of the
same shape from recorded samples, each vehicle regridded and fed to the
run's SocMeter a chunk at a time, each chunk's gaps checked by
trajectory.check_gaps, the one gap check of any series. The vehicles' streams
are merged in the samples' own tuple order, (t, vehicle_id) first, and cut
into ticks by t, a run at t == 0 again by t's bits. All randomness
flows from one splitmix64 generator seeded by the scenario seed, so
(scenario, seed, dt) fully determines every emitted sample.

Spot occupancy is read off the vehicles, each one's current and destination
spot, never written to the road graph, so one graph can back any number of
worlds.

Collision policy (ours; the underlying idea is only a top-down scheme with
global knowledge of poses and velocities): the higher-id vehicle of a
conflicting pair yields via a horizon-based speed cap, and a hard proximity
cap applies to both vehicles so that in exact arithmetic the pairwise center
distance never drops below d_safe between steps. In floats it can end a few
ulps below: the priority vehicle may close its whole slack, and the rounding
of its new position can land under d_safe. On warehouse_map(nx=2, ny=1,
n_spots=4) with 2 vehicles, dt 0.25 and seed 14767053134445368162, vehicles 0
and 1 are 2.999999999999993 m apart at t = 562.25 s (d_safe 3); the least over
600 random runs was 2.999999999999986 m. A vehicle stopped by conflicts for
longer than t_deadlock gets priority over its blockers.

Pairs are found by a sort-and-sweep broad phase (Cohen et al., "I-COLLIDE",
SI3D 1995) over swept boxes (Ericson, "Real-Time Collision Detection", 2005,
4.2 and 5.5). A vehicle's box holds its straight-line motion over the horizon
h, from (x, y) to (x + vx * h, y + vy * h), widened on every side by

    pad = trigger / 2 + 0.5 m + 2**-49 * (trigger + |x| + |y| + |speed| * h)

where trigger is the hard-cap radius. A pair whose boxes are apart in x or in
y is skipped: on that axis the two predicted positions differ by more than
trigger + 1 m at every t in [0, h], so the gap (t = 0) is not below trigger
and the miss distance (t = t*) not below d_safe: neither cap fires.
Rounding: the box edges and the narrow phase's r + dv * t on that axis are
together off by less than 7 * 2**-53 of |x_a| + |x_b| + (|speed_a| +
|speed_b|) * h and of the pads, which the 2**-49 term exceeds at any finite
coordinate and horizon; overflow only rounds away from zero, underflow stays
inside the 1 m, and an edge may be infinite but never nan. Caps combine by
min, which does not depend on the order pairs are visited in, so the caps
equal those of testing all N(N-1)/2 pairs.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter
from typing import Optional

from . import ConfigError, Infeasible, battery as bat, setting, total
from .rng import SplitMix64
from .roadnet import RoadGraph, astar, nearest_node
from .trajectory import TrajectorySample, check_gaps, resample, split_by_vehicle


DT = 0.1  # s, the default step of a simulated or replayed run
PICKUP_MASS = 500.0  # kg, the load each task picks up
LIFT_HEIGHT = 1.0    # m, the fork height each task lifts to

# replay's grid over all vehicles, whose times it holds from the call on: 8.2 B
# a point (tracemalloc), so 33 MB; an hour of 64 vehicles at 0.1 s is 2.3 x
# 10^6 points
MAX_GRID_POINTS = 4 * 10**6
# the states of one replayed vehicle that one add to the run's SocMeter takes.
# Replaying and rendering 300 s of 4 demo-floor trucks in process took a median
# 98, 98 and 109 ms at 64, 256 and 1,024 (2-core x86-64 VM, Python 3.11), and
# the tracemalloc peak past the input at 60 s was 0.19, 0.60 and 1.3 MB
REPLAY_CHUNK = 64


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
class VehicleState:  # one truck: its pose, load and SOC, and its controller's task
    x: float
    y: float
    heading: float
    speed: float = 0.0
    load_mass: float = 0.0
    fork_height: float = 0.0
    soc: float = 1.0
    phase: str = PHASE_IDLE
    dest_spot: Optional[int] = None  # the spot of the task under way
    route: Optional[_Route] = None
    current_spot: Optional[int] = None
    blocked_for: float = 0.0
    distance_driven: float = 0.0
    tasks_completed: int = 0


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
    def __init__(self, graph: RoadGraph, n_vehicles: int, dt: float = DT, seed: int = 0,
                 kin: KinematicsParams = KinematicsParams(),
                 battery_params: bat.BatteryParams = bat.BatteryParams(),
                 fork_mass: float = bat.FORK_MASS,
                 pickup_mass: float = PICKUP_MASS,
                 lift_height: float = LIFT_HEIGHT):
        """Place vehicles 0..n-1 on spots 0..n-1, each on the spot of its
        own id. A vehicle's id is its index, as a waypoint's and a spot's
        are."""
        # dt and kin come range-checked, by the scenario's check_ranges
        if n_vehicles > len(graph.spots):
            raise ConfigError(f"{n_vehicles} vehicles but only {len(graph.spots)} spots")
        self.graph = graph
        self.vehicles = [VehicleState(*graph.spot_anchor_xy(spot),
                                      heading=graph.waypoints[spot.edge_src].heading,
                                      current_spot=i)
                         for i, spot in enumerate(graph.spots[:n_vehicles])]
        self.dt = dt
        self.rng = SplitMix64(seed)
        self.kin = kin
        self.battery_params = battery_params
        self.fork_mass = fork_mass
        self.pickup_mass = pickup_mass
        self.lift_height = lift_height
        self.step_count = 0
        self._meter = None  # the fleet's battery.SocMeter, from the first tick on

    @property
    def clock(self) -> float:
        return self.step_count * self.dt

    # --- task assignment -----------------------------------------------------

    def free_spots(self):
        """The ids of the spots no vehicle stands on or is bound for, ascending."""
        taken = {spot for v in self.vehicles for spot in (v.current_spot, v.dest_spot)}
        return [i for i in range(len(self.graph.spots)) if i not in taken]

    def assign_task(self, vehicle_id: int, spot: Optional[int] = None) -> Optional[int]:
        """Send an idle vehicle to the given spot of the map, or with spot None
        to a free spot drawn from the world's generator -> the spot's id. None
        when that spot, or with spot None every spot, is taken; then nothing
        is drawn."""
        v = self.vehicles[vehicle_id]
        free = self.free_spots()
        if spot is None and free:
            spot = free[self.rng.randrange(len(free))]
        elif spot not in free:
            return None
        v.dest_spot = spot
        v.phase = PHASE_LIFT
        v.load_mass = self.pickup_mass
        return spot

    # --- routing -------------------------------------------------------------

    def _build_route(self, vehicle_id: int, dest_spot: int) -> _Route:
        """The route from the vehicle through the shortest path from its
        snapped node to the destination spot's anchor-edge start node, and on
        to the spot. Raises Infeasible."""
        v = self.vehicles[vehicle_id]
        spot = self.graph.spots[dest_spot]
        nodes = astar(self.graph, nearest_node(self.graph, v.x, v.y), spot.edge_src)
        if nodes is None:
            raise Infeasible(f"vehicle {vehicle_id} cannot reach spot {dest_spot}")
        pts = []
        limits = []
        if math.hypot(v.x - self.graph.waypoints[nodes[0]].x,
                      v.y - self.graph.waypoints[nodes[0]].y) > 1e-9:
            pts.append((v.x, v.y))
            limits.append(self.kin.v_max)
        pts += [(self.graph.waypoints[n].x, self.graph.waypoints[n].y) for n in nodes]
        limits += [self.graph.edge_between(a, b).speed_limit for a, b in zip(nodes, nodes[1:])]
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
        """Per-vehicle speed caps for this step -> [cap], one per vehicle, inf
        for one no pair caps.

        Sweeps one swept box per vehicle in order of its low x edge and tests
        only pairs whose boxes overlap in both x and y (see the module
        docstring). A pair's r and dv are taken in sweep order: swapping it
        negates them exactly, so gap, t*, the miss distance and every cap keep
        their bits, and the lower id is sorted out only when a cap fires. A cap
        is min(its caps so far, max(0.0, cap)), each min and max written as
        the comparison that gives its bits."""
        kin = self.kin
        dt = self.dt
        d_safe, horizon, t_deadlock, v_max = kin.d_safe, kin.horizon, kin.t_deadlock, kin.v_max
        a_max_dt = kin.a_max * dt
        vehicles, hypot, inf, cos, sin = self.vehicles, math.hypot, math.inf, math.cos, math.sin
        caps = [inf] * len(vehicles)
        trigger = d_safe + 2.0 * (v_max + a_max_dt) * dt + 1.0
        pad0 = 0.5 * trigger + 0.5 + 2**-49 * trigger
        rel_h = 2**-49 * horizon
        boxes = []
        for vid, v in enumerate(vehicles):
            x, y, speed = v.x, v.y, v.speed
            vx, vy = speed * cos(v.heading), speed * sin(v.heading)
            pad = pad0 + 2**-49 * (abs(x) + abs(y)) + rel_h * abs(speed)
            ex, ey = vx * horizon, vy * horizon
            xlo, xhi = (x + ex - pad, x + pad) if ex < 0.0 else (x - pad, x + ex + pad)
            ylo, yhi = (y + ey - pad, y + pad) if ey < 0.0 else (y - pad, y + ey + pad)
            boxes.append((xlo, xhi, ylo, yhi, x, y, vx, vy, vid, speed))
        boxes.sort()
        for i, p in enumerate(boxes):
            _, p_xhi, p_ylo, p_yhi, px, py, pvx, pvy, pid, pspeed = p
            for q in boxes[i + 1:]:
                if q[0] > p_xhi:
                    break
                if q[2] > p_yhi or q[3] < p_ylo:
                    continue
                _, _, _, _, qx, qy, qvx, qvy, qid, qspeed = q
                rx, ry = qx - px, qy - py
                gap = hypot(rx, ry)
                # soft horizon-based yielding
                dvx, dvy = qvx - pvx, qvy - pvy
                dv2 = dvx * dvx + dvy * dvy
                t_star = 0.0 if dv2 < 1e-12 else -(rx * dvx + ry * dvy) / dv2
                t_star = 0.0 if 0.0 > t_star else t_star
                t_star = horizon if horizon < t_star else t_star
                if hypot(rx + dvx * t_star, ry + dvy * t_star) < d_safe:
                    # deadlock breaker: a long-blocked yielder gains priority
                    aid, bid = (pid, qid) if pid < qid else (qid, pid)
                    yielder = bid
                    if vehicles[bid].blocked_for > t_deadlock >= vehicles[aid].blocked_for:
                        yielder = aid
                    cap = (gap - d_safe) / horizon
                    cap = cap if cap > 0.0 else 0.0
                    old = caps[yielder]
                    caps[yielder] = cap if cap < old else old
                # hard proximity caps keep the pair >= d_safe across one step
                if gap < trigger:
                    aid, bid, aspeed = (pid, qid, pspeed) if pid < qid else (qid, pid, qspeed)
                    slack = (gap - d_safe) / dt
                    slack = slack if slack > 0.0 else 0.0
                    # priority vehicle may close at most the whole slack
                    old = caps[aid]
                    caps[aid] = slack if slack < old else old
                    cap = slack - min(v_max, aspeed + a_max_dt, slack)
                    cap = cap if cap > 0.0 else 0.0
                    old = caps[bid]
                    caps[bid] = cap if cap < old else old
        return caps

    # --- stepping ------------------------------------------------------------

    def step(self, spot: Optional[int] = None) -> None:
        """Send each idle vehicle to the given spot, or with spot None to a
        random free one, while one is free, then move every vehicle one step."""
        dt = self.dt
        kin = self.kin
        vehicles = self.vehicles
        for vid, v in enumerate(vehicles):
            if v.phase == PHASE_IDLE and self.assign_task(vid, spot) is None:
                break  # no spot is freed in this loop, so every later one fails too
        caps = self.resolve_conflicts()
        # the drive's kin-only constants: b_max * dt, its square, 2 * b_max, the
        # braking envelope's lookahead and a_max * dt
        bd = kin.b_max * dt
        drive = (bd, bd * bd, 2.0 * kin.b_max,
                 kin.v_max * kin.v_max / (2.0 * kin.b_max) + kin.v_max * dt + 1.0, kin.a_max * dt)
        for vid, v in enumerate(vehicles):
            if v.phase == PHASE_DRIVE:
                self._advance_drive(v, caps[vid], drive)
                continue
            v.speed = 0.0
            if v.phase == PHASE_LIFT:
                v.fork_height = min(self.lift_height, v.fork_height + kin.lift_speed * dt)
                if v.fork_height >= self.lift_height - 1e-12:
                    v.fork_height = self.lift_height
                    # load picked; leave the origin spot and drive off
                    v.current_spot = None
                    v.route = self._build_route(vid, v.dest_spot)
                    v.phase = PHASE_DRIVE
                    if len(v.route.points) == 1:  # at the anchor already: arrive now
                        v.phase = PHASE_LOWER
                        v.current_spot = v.dest_spot
            elif v.phase == PHASE_LOWER:
                v.fork_height = max(0.0, v.fork_height - kin.lift_speed * dt)
                if v.fork_height <= 1e-12:
                    v.fork_height = 0.0
                    v.load_mass = 0.0
                    v.tasks_completed += 1
                    v.dest_spot = None
                    v.phase = PHASE_IDLE
        self.step_count += 1

    def _advance_drive(self, v, conflict_cap, drive):
        """Move a driving vehicle one step along its route. Each min and max of
        two floats is written as the comparison that gives its bits."""
        bd, bd2, two_b, lookahead, a_max_dt = drive
        v_max = self.kin.v_max
        dt = self.dt
        route = v.route
        cumlen = route.cumlen
        s = route.s
        total = cumlen[-1]
        seg = route.seg
        limit = route.seg_limits[seg]
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
            v.blocked_for += dt
        else:
            v.blocked_for = 0.0
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
        v.distance_driven += new_s - s
        route.s = new_s
        v.speed = new_v
        if arrived:
            v.phase = PHASE_LOWER
            v.current_spot = v.dest_spot

    # --- recording / running ---------------------------------------------------

    def ticks(self, duration: float, spot: Optional[int] = None):
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
            tick = [TrajectorySample(t, vid, v.x, v.y, v.heading, v.speed, v.fork_height,
                                     v.load_mass, v.soc) for vid, v in enumerate(vehicles)]
            self._meter = bat.SocMeter(tick, self.fork_mass, self.battery_params, ConfigError)
            yield tick
        for _ in range(n_steps):
            self.step(spot)
            t = self.clock
            tick = self._meter.add([(t, vid, v.x, v.y, v.heading, v.speed, v.fork_height,
                                     v.load_mass) for vid, v in enumerate(vehicles)])
            for v, sample in zip(vehicles, tick):
                v.soc = sample[8]
            yield tick

    def summary(self):
        out = []
        for vid, v in enumerate(self.vehicles):
            drawn, regenerated = self._meter.energy(vid) if self._meter else (0.0, 0.0)
            out.append({
                "vehicle_id": vid,
                "distance_driven": v.distance_driven,
                "tasks_completed": v.tasks_completed,
                "energy_drawn": drawn,
                "energy_regenerated": regenerated,
                "final_soc": v.soc,
                "soc_band": bat.soc_band(v.soc),
            })
        return out


def replay(samples, dt: float = DT, fork_mass: float = bat.FORK_MASS,
           params: bat.BatteryParams = bat.BatteryParams()):
    """Re-grid recorded samples onto a fixed dt timeline and recompute SOC.

    Replayed vehicles are passive: poses interpolate linearly between input
    samples, there is no planning or collision logic, but every segment
    feeds the battery model. A vehicle appearing mid-stream simply spawns at
    its first sample. Returns an iterator of ticks, as World.ticks yields
    them: lists of regridded samples with recomputed SOC that share one t's
    bits, in (t, vehicle_id) order.

    The checks of the whole input run in this call, before it returns:
    split_by_vehicle's, the grid's size and each vehicle's grid times, whose
    ConfigError comes for the lowest vehicle id first. Each vehicle is then
    regridded and integrated as the ticks are pulled, through the run's one
    SocMeter, so besides the input and the grid times (8 B a point) only
    O(vehicles) states are held. The InputErrors of that work come while the
    ticks are pulled, which the CLI does into temp files, so it still exits 3
    with one stderr line and no files: a negative interpolated speed, a
    non-finite energy sum, or regridded samples too far apart to interpolate.
    Where the input holds more than one such fault, the one named is the
    first the time-ordered pull reaches, which may be another one, of
    another vehicle, than replaying one whole vehicle after another named.
    """
    per_vehicle = split_by_vehicle(samples)
    if not per_vehicle:
        return iter(())
    t0 = min(ss[0].t for ss in per_vehicle.values())
    # bound the grid before making it: each span over dt, the 1e-9 slack at both
    # ends, and t0 + k * dt's rounding, which repeats times finer than their ulp
    points = total((ss[-1].t - ss[0].t + 2e-9 + 2**-50 * (abs(t0) + abs(ss[-1].t))) / dt + 2
                   for ss in per_vehicle.values())
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"replay at dt {dt} makes more than {MAX_GRID_POINTS} grid points")
    streams = []  # (first sample, later states) of each vehicle with a grid time
    for vid in sorted(per_vehicle):
        series = per_vehicle[vid]
        first, last = series[0].t, series[-1].t
        times = array("d")
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
        states = resample(series, times)
        state = next(states, None)
        if state is not None:
            streams.append((TrajectorySample(*state, series[0][8]), states))
    meter = bat.SocMeter([first for first, _ in streams], fork_mass, params)
    # each stream is one vehicle's, in strictly increasing t, so the samples'
    # own tuple order is (t, vehicle_id) before any other field
    return _ticks(heapq.merge(*(_replayed(first, states, meter) for first, states in streams)))


def _ticks(merged):
    """Yield the merged samples a tick per run of equal t bits. Equal floats
    have equal bits but for -0.0 and 0.0, which print apart, so only a run at
    t == 0 is split again by its bits."""
    for t, tick in groupby(merged, key=itemgetter(0)):
        if t == 0.0:
            yield from ([*run] for _, run in groupby(tick, key=lambda s: s[0].hex()))
        else:
            yield [*tick]


def _replayed(first, states, meter):
    """Yield one vehicle's samples at its grid times: first, its first state
    with the first recorded soc, then each of its later states handed to the
    run's meter, which gives it its SOC, REPLAY_CHUNK states at a time as
    they are pulled. Each chunk is checked, with the state before it, by
    check_gaps, the one check of any series' gaps."""
    yield first
    last = first[:8]  # a state, as the chunk's are: math.dist needs equal lengths
    while chunk := list(islice(states, REPLAY_CHUNK)):
        check_gaps([last, *chunk])
        last = chunk[-1]
        yield from meter.add(chunk)
