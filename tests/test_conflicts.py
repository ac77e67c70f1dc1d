"""The swept-box broad phase of World.resolve_conflicts against all pairs.

all_pairs_caps tests every pair; swept_box restates the fleet_sim module
docstring's box rule, so that worlds() can place partners just inside and just
outside a box's edges: ahead of a moving truck at the far end of its segment,
beside it and behind it. Worlds are also drawn far from the origin and with
horizons up to 1e300, where the box edges round. Caps are compared by .hex()
per vehicle, which tells 0.0 from -0.0, and a real run is checked at every
step.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import world_at
from forkfleet import mapgen
from forkfleet.fleet_sim import KinematicsParams, VehicleState, World
from forkfleet.roadnet import Edge, ParkingSpot, Waypoint, build_graph


def all_pairs_caps(world):
    """Reference: every one of the N(N-1)/2 pairs, in id order."""
    kin = world.kin
    dt = world.dt
    vs = world.vehicles
    caps = [math.inf] * len(vs)

    def tighten(vid, cap):
        caps[vid] = min(caps[vid], max(0.0, cap))

    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            a, b = vs[i], vs[j]
            gap = math.hypot(b.x - a.x, b.y - a.y)
            rx, ry = b.x - a.x, b.y - a.y
            vax, vay = a.speed * math.cos(a.heading), a.speed * math.sin(a.heading)
            vbx, vby = b.speed * math.cos(b.heading), b.speed * math.sin(b.heading)
            dvx, dvy = vbx - vax, vby - vay
            dv2 = dvx * dvx + dvy * dvy
            t_star = 0.0 if dv2 < 1e-12 else min(max(-(rx * dvx + ry * dvy) / dv2, 0.0),
                                                 kin.horizon)
            min_sep = math.hypot(rx + dvx * t_star, ry + dvy * t_star)
            if min_sep < kin.d_safe:
                yielder = j
                if (world.vehicles[j].blocked_for > kin.t_deadlock
                        and world.vehicles[i].blocked_for <= kin.t_deadlock):
                    yielder = i
                tighten(yielder, (gap - kin.d_safe) / kin.horizon)
            trigger = kin.d_safe + 2.0 * (kin.v_max + kin.a_max * dt) * dt + 1.0
            if gap < trigger:
                slack = max(0.0, (gap - kin.d_safe) / dt)
                tighten(i, slack)
                a_bound = min(kin.v_max, a.speed + kin.a_max * dt, slack)
                tighten(j, slack - a_bound)
    return caps


def hexed(caps):
    return [cap.hex() for cap in caps]


def capped(caps):
    """The ids of the vehicles that some pair caps."""
    return [vid for vid, cap in enumerate(caps) if cap < math.inf]


def bounds(kin, dt):
    """(trigger, soft bound, pad) as the module docstring defines them: the
    hard-cap radius, the distance inside which a head-on pair at v_max is
    soft-capped, and a box's pad at the origin."""
    trigger = kin.d_safe + 2.0 * (kin.v_max + kin.a_max * dt) * dt + 1.0
    return trigger, kin.d_safe + 2.0 * kin.v_max * kin.horizon, trigger / 2 + 0.5


def swept_box(v, kin, dt):
    """[xlo, xhi, ylo, yhi] of the box of vehicle state v."""
    trigger, _, pad = bounds(kin, dt)
    h = kin.horizon
    pad += 2**-49 * (trigger + abs(v.x) + abs(v.y) + abs(v.speed) * h)
    ex, ey = v.speed * math.cos(v.heading) * h, v.speed * math.sin(v.heading) * h
    return [min(v.x, v.x + ex) - pad, max(v.x, v.x + ex) + pad,
            min(v.y, v.y + ey) - pad, max(v.y, v.y + ey) + pad]


def narrow_pairs(world):
    """(caps, the number of pairs resolve_conflicts ran the narrow phase on):
    each such pair calls math.hypot twice."""
    calls = []
    hypot = math.hypot
    with mock.patch.object(math, "hypot", lambda x, y: calls.append(1) or hypot(x, y)):
        caps = world.resolve_conflicts()
    return caps, len(calls) // 2


GRAPH = build_graph([Waypoint(0, 0, 0.0), Waypoint(10, 0, 0.0)],
                    [Edge(0, 1, 10.0, 3.0)], [ParkingSpot(0, 1, 0.0)])


def make_world(kin, dt, poses, blocked):
    """poses: (x, y, heading, speed) of each vehicle in id order."""
    world = world_at(GRAPH, [VehicleState(x, y, h, s) for x, y, h, s in poses], dt=dt, kin=kin)
    for v, b in zip(world.vehicles, blocked):
        v.blocked_for = b
    return world


def place_apart(a, v, kin, dt, axis, side, margin):
    """Move v along axis (0: x, 1: y) so that its box lies margin beyond a's
    on the given side of it (margin < 0: they overlap by -margin)."""
    a_box = swept_box(a, kin, dt)
    for _ in range(2):  # v's pad grows with its coordinate: move, then settle
        v_box = swept_box(v, kin, dt)
        if side > 0:
            shift = a_box[2 * axis + 1] + margin - v_box[2 * axis]
        else:
            shift = a_box[2 * axis] - margin - v_box[2 * axis + 1]
        if axis == 0:
            v.x += shift
        else:
            v.y += shift


AXIS_ANGLES = [0.0, math.pi / 2, math.pi, -math.pi / 2]
MARGINS = [-0.5, -0.01, -1e-9, 0.0, 1e-9, 0.01, 0.5]  # > 0: the two boxes are apart


@st.composite
def worlds(draw):
    horizon = draw(st.floats(0.5, 10.0) | st.sampled_from([1e3, 1e15, 1e20, 1e300]))
    kin = KinematicsParams(v_max=draw(st.floats(0.5, 6.0)), a_max=draw(st.floats(0.2, 2.0)),
                           d_safe=draw(st.floats(0.5, 10.0)), horizon=horizon,
                           t_deadlock=draw(st.floats(0.0, 20.0)))
    dt = draw(st.sampled_from([0.05, 0.1, 0.25]))
    # the whole world translated; far out the box edges and positions round
    ox, oy = (draw(st.sampled_from([0.0, 0.0, 2.0**40, 1e15, 1e20, 2.0**60, 1e300]))
              * draw(st.sampled_from([1, -1])) for _ in "xy")
    n = draw(st.integers(1, 40))
    trigger, soft, _ = bounds(kin, dt)
    vs = []
    for k in range(n):
        heading = draw(st.sampled_from(AXIS_ANGLES) | st.floats(-math.pi, math.pi))
        speed = draw(st.sampled_from([0.0, kin.v_max]) | st.floats(0.0, kin.v_max))
        v = VehicleState(ox + draw(st.floats(0.0, 400.0)), oy + draw(st.floats(0.0, 300.0)),
                         heading, speed)
        kind = draw(st.sampled_from(["free", "bound", "box", "end"])) if k else "free"
        a = vs[draw(st.integers(0, k - 1))] if k else None
        if kind == "bound":
            # just inside or outside a distance bound; maybe head-on at v_max,
            # the tightest soft-cap case
            d = draw(st.sampled_from([soft, trigger])) + draw(st.sampled_from(MARGINS))
            angle = draw(st.sampled_from(AXIS_ANGLES) | st.floats(-math.pi, math.pi))
            v.x, v.y = a.x + d * math.cos(angle), a.y + d * math.sin(angle)
            if draw(st.booleans()):
                a.speed = v.speed = kin.v_max
                a.heading, v.heading = angle, angle + math.pi
        elif kind == "box":
            # v's box `margin` apart from a's on one side of one axis (x or y); on
            # the other axis v is level with a at the start, middle or end of a's
            # segment: ahead of, beside or behind a truck moving along an axis
            axis, side = draw(st.sampled_from([0, 1])), draw(st.sampled_from([-1, 1]))
            f = draw(st.sampled_from([0.0, 0.5, 1.0]))
            if axis == 0:
                v.y = a.y + f * a.speed * math.sin(a.heading) * kin.horizon
            else:
                v.x = a.x + f * a.speed * math.cos(a.heading) * kin.horizon
            place_apart(a, v, kin, dt, axis, side, draw(st.sampled_from(MARGINS)))
        elif kind == "end":
            # at the far end of a's segment, give or take a margin or a few ulps:
            # far out, the end and a's box edge round apart
            v.x = a.x + a.speed * math.cos(a.heading) * kin.horizon
            v.y = a.y + a.speed * math.sin(a.heading) * kin.horizon
            v.x += draw(st.sampled_from(MARGINS))
            for _ in range(draw(st.integers(0, 2))):
                v.x = math.nextafter(v.x, draw(st.sampled_from([-math.inf, math.inf])))
        vs.append(v)
    # the trucks drawn, in an id order of their own, so that a partner may have the lower id
    order = draw(st.permutations(range(n)))
    td = kin.t_deadlock
    blocked = [draw(st.sampled_from([0.0, td - 1e-9, td, td + 1e-9])
                    | st.floats(0.0, 2.0 * td + 1.0)) for _ in range(n)]
    poses = [(v.x, v.y, v.heading, v.speed) for v in (vs[k] for k in order)]
    return make_world(kin, dt, poses, blocked)


@settings(max_examples=400, deadline=None)
@given(worlds())
def test_sweep_equals_all_pairs(world):
    for v in world.vehicles:
        assert not any(map(math.isnan, swept_box(v, world.kin, world.dt)))
    assert hexed(world.resolve_conflicts()) == hexed(all_pairs_caps(world))


def test_bounds_are_exercised():
    """A head-on pair just inside the soft bound is capped. A same-heading
    follower whose box misses its leader's by 0.01 m is not tested at all;
    at an overlap of 0.01 m it is tested and not capped. So is a truck
    beside a moving one."""
    kin = KinematicsParams()
    _, soft, pad = bounds(kin, 0.1)
    run = kin.v_max * kin.horizon

    def check(poses, tested, is_capped):
        world = make_world(kin, 0.1, poses, [0.0] * len(poses))
        caps, pairs = narrow_pairs(world)
        assert hexed(caps) == hexed(all_pairs_caps(world))
        assert (pairs, bool(capped(caps))) == (tested, is_capped)

    check([(0.0, 0.0, 0.0, kin.v_max), (soft - 0.01, 0.0, math.pi, kin.v_max)], 1, True)
    for margin, tested in ((0.01, 0), (-0.01, 1)):
        ahead = run + 2 * pad + margin
        check([(0.0, 0.0, 0.0, kin.v_max), (ahead, 0.0, 0.0, kin.v_max)], tested, False)
        check([(0.0, 0.0, math.pi, kin.v_max), (-ahead, 0.0, math.pi, kin.v_max)],
              tested, False)
        beside = 2 * pad + margin
        check([(0.0, 0.0, 0.0, kin.v_max), (run / 2, beside, math.pi, 0.0)],
              tested, False)


def test_far_out_edges_round():
    """A truck drives toward a stopped one next to the far end of its
    segment, where box edges round by up to half an ulp: at 1e17, where an
    ulp is 16 m, and on segments from -L to about L. Without the pad's
    2**-49 term in |x| + |y|, some of these capped pairs are skipped."""
    def ulps(x, k):
        for _ in range(k):
            x = math.nextafter(x, math.inf)
        return x

    cases = [(KinematicsParams(d_safe=10.0, horizon=10.0), x, 4.0, x + 16.0 * j)
             for x in (1e17 - 48.0, 1e17 - 32.0, 1e17 - 16.0, 1e17) for j in range(1, 6)]
    cases += [(KinematicsParams(horizon=h), -h, s, ulps(-h + s * h, k))
              for h in (2.0**60, 1e20, 1e300) for s in (0.5, 1.5, 2.5, 3.0, 4.0)
              for k in range(4)]
    n_capped = 0
    for kin, x, speed, stopped_x in cases:
        world = make_world(kin, 0.1, [(x, 0.0, 0.0, speed), (stopped_x, 0.0, 0.0, 0.0)],
                           [0.0, 0.0])
        caps = world.resolve_conflicts()
        assert hexed(caps) == hexed(all_pairs_caps(world)), (kin.horizon, x, speed, stopped_x)
        n_capped += bool(capped(caps))
    assert n_capped > len(cases) // 4


def test_in_run_caps_equal_all_pairs():
    """16 trucks on the 5x3-20 floor with kin.t_deadlock = 2 for 120 s: at
    every step the caps equal all pairs' bit for bit, through stopped trucks,
    queues and deadlock-breaker states."""
    kin = KinematicsParams(t_deadlock=2.0)
    world = World(mapgen.warehouse_map(nx=5, ny=3, n_spots=20), 16, seed=3, kin=kin)
    stopped = breaker = zero = 0
    for _ in range(1200):
        caps = world.resolve_conflicts()
        assert hexed(caps) == hexed(all_pairs_caps(world))
        stopped += any(world.vehicles[vid].speed == 0.0 for vid in capped(caps))
        breaker += any(c.blocked_for > kin.t_deadlock for c in world.vehicles)
        zero += 0.0 in caps
        world.step()
    assert min(stopped, breaker, zero) > 0, (stopped, breaker, zero)

