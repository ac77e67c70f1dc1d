"""The sweep broad phase of World.resolve_conflicts against all pairs."""

import math

from hypothesis import given, settings, strategies as st

from forkfleet import mapgen
from forkfleet.fleet_sim import KinematicsParams, VehicleState, World
from forkfleet.roadnet import Edge, ParkingSpot, Waypoint, build_graph


def all_pairs_caps(world):
    """Reference: every one of the N(N-1)/2 pairs, in id order."""
    kin = world.kin
    dt = world.dt
    caps = {}

    def tighten(vid, cap):
        caps[vid] = min(caps.get(vid, math.inf), max(0.0, cap))

    vs = sorted(world.vehicles, key=lambda v: v.id)
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
                yielder = b
                if (world.ctl[b.id].blocked_for > kin.t_deadlock
                        and world.ctl[a.id].blocked_for <= kin.t_deadlock):
                    yielder = a
                tighten(yielder.id, (gap - kin.d_safe) / kin.horizon)
            trigger = kin.d_safe + 2.0 * (kin.v_max + kin.a_max * dt) * dt + 1.0
            if gap < trigger:
                slack = max(0.0, (gap - kin.d_safe) / dt)
                tighten(a.id, slack)
                a_bound = min(kin.v_max, a.speed + kin.a_max * dt, slack)
                tighten(b.id, slack - a_bound)
    return caps


def bounds(kin, dt, speeds):
    """(trigger, soft bound, reach) as the module docstring defines them."""
    trigger = kin.d_safe + 2.0 * (kin.v_max + kin.a_max * dt) * dt + 1.0
    soft = kin.d_safe + 2.0 * max(speeds) * kin.horizon
    return trigger, soft, max(trigger, soft) + 1.0


GRAPH = build_graph([Waypoint(0, 0, 0, 0.0), Waypoint(1, 10, 0, 0.0)],
                    [Edge(0, 1, 10.0, 3.0, True)], [ParkingSpot(0, 0, 1, 0.0)])


def make_world(kin, dt, poses, blocked):
    """poses: (id, x, y, heading, speed) in the order handed to World."""
    vehicles = [VehicleState(id=i, x=x, y=y, heading=h, speed=s) for i, x, y, h, s in poses]
    world = World(GRAPH, vehicles, dt=dt, kin=kin)
    for (vid, *_), b in zip(poses, blocked):
        world.ctl[vid].blocked_for = b
    return world


@st.composite
def worlds(draw):
    kin = KinematicsParams(v_max=draw(st.floats(0.5, 6.0)), a_max=draw(st.floats(0.2, 2.0)),
                           d_safe=draw(st.floats(0.5, 10.0)), horizon=draw(st.floats(0.5, 10.0)),
                           t_deadlock=draw(st.floats(0.0, 20.0)))
    dt = draw(st.sampled_from([0.05, 0.1, 0.25]))
    n = draw(st.integers(1, 40))
    speeds = [draw(st.floats(0.0, kin.v_max)) for _ in range(n)]
    headings = [draw(st.floats(-math.pi, math.pi)) for _ in range(n)]
    s_max = max(speeds)
    trigger, soft, reach = bounds(kin, dt, speeds)
    xy = []
    for k in range(n):
        if k and draw(st.booleans()):
            # a partner of an earlier vehicle, just inside or outside a bound
            anchor = draw(st.integers(0, k - 1))
            radius = draw(st.sampled_from([reach, soft, trigger]))
            d = radius + draw(st.sampled_from([-0.5, -1e-9, 0.0, 1e-9, 0.5]))
            angle = draw(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])
                         | st.floats(-math.pi, math.pi))
            ax, ay = xy[anchor]
            xy.append((ax + d * math.cos(angle), ay + d * math.sin(angle)))
            if draw(st.booleans()):
                # head-on at the fleet's top speed: the tightest soft-cap case
                speeds[anchor] = speeds[k] = s_max
                headings[anchor] = angle
                headings[k] = angle + math.pi
        else:
            xy.append((draw(st.floats(0.0, 400.0)), draw(st.floats(0.0, 300.0))))
    ids = draw(st.permutations(range(n)))
    td = kin.t_deadlock
    blocked = [draw(st.sampled_from([0.0, td - 1e-9, td, td + 1e-9])
                    | st.floats(0.0, 2.0 * td + 1.0)) for _ in range(n)]
    poses = [(ids[k], *xy[k], headings[k], speeds[k]) for k in range(n)]
    return make_world(kin, dt, poses, blocked)


@settings(max_examples=400, deadline=None)
@given(worlds())
def test_sweep_equals_all_pairs(world):
    assert world.resolve_conflicts() == all_pairs_caps(world)


def test_bounds_are_exercised():
    """A head-on pair just inside the soft bound is capped; one just past
    reach is not."""
    kin = KinematicsParams()
    trigger, soft, reach = bounds(kin, 0.1, [kin.v_max])
    for d, capped in ((soft - 0.01, True), (reach + 0.01, False)):
        world = make_world(kin, 0.1, [(0, 0.0, 0.0, 0.0, kin.v_max),
                                      (1, d, 0.0, math.pi, kin.v_max)], [0.0, 0.0])
        caps = world.resolve_conflicts()
        assert caps == all_pairs_caps(world)
        assert bool(caps) is capped


def test_vehicle_order_does_not_matter():
    """Vehicles handed to World out of id order give the samples of the
    id-ordered run."""
    def run(order):
        g = mapgen.warehouse_map()
        spots = sorted(g.spots, key=lambda s: s.id)[:6]
        vehicles = []
        for i, spot in enumerate(spots):
            x, y = g.spot_anchor_xy(spot)
            vehicles.append(VehicleState(id=i, x=x, y=y,
                                         heading=g.waypoints[spot.edge_src].heading))
        world = World(g, [vehicles[i] for i in order], seed=4)
        for i, spot in enumerate(spots):
            world.ctl[i].current_spot = spot.id
            world.claims[spot.id] = i
        return world.run(60.0)

    assert run([5, 2, 0, 4, 1, 3]) == run(range(6))
    assert run(range(6)) == World.spawn_at_spots(mapgen.warehouse_map(), 6, seed=4).run(60.0)
