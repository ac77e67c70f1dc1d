"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line so a plain `pytest -v -s` run reads
as a checklist. Tolerances are part of the contract and are asserted, not
just reported.
"""

import io
import itertools
import math
import random
import time

import pytest

from conftest import (dist_matrix, path_length, random_graph, run_samples, score_placement,
                      top_decile_cells)
from eager import integrate_trajectory
from forkfleet import mapgen
from forkfleet.battery import FORK_MASS, BatteryParams, G, _energies, calibrate
from forkfleet.density import DensityConfig, clusters, density_timeline, snapshot_from_states
from forkfleet.fleet_sim import World, replay
from forkfleet.odr_import import UnsupportedGeometry, parse_opendrive_subset, to_road_graph
from forkfleet.placement import heatmap_for_graph, place_chargers, visit_weights
from forkfleet.roadnet import astar, dijkstra
from forkfleet.trajectory import TrajectorySample, read_csv, split_by_vehicle, write_csv


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


# --- 1 routing ---------------------------------------------------------------

def test_c1_routing_equivalence():
    rnd = random.Random(1001)
    t0 = time.perf_counter()
    ok = True
    for gi in range(50):
        n = rnd.randrange(8, 61)
        g = random_graph(seed=2000 + gi, n_nodes=n)
        dist_cache = {}
        for _ in range(100):
            s, d = rnd.randrange(n), rnd.randrange(n)
            if s not in dist_cache:
                dist_cache[s] = dijkstra(g, s)
            p = astar(g, s, d)
            want = dist_cache[s][d]
            got = math.inf if p is None else path_length(g, p)
            if got != want:
                ok = False
    elapsed = time.perf_counter() - t0
    report(f"routing: astar == dijkstra on 50 graphs x 100 pairs in {elapsed:.2f}s",
           ok and elapsed < 5.0)


# --- 2 clustering ------------------------------------------------------------

def brute_force_clusters(snapshot, threshold):
    """Transitive closure of the thresholded link relation by BFS."""
    n = len(snapshot.vehicle_ids)
    dist = dist_matrix(snapshot)
    linked = [[min(dist[i][j], dist[j][i]) <= threshold
               for j in range(n)] for i in range(n)]
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp, queue = [], [start]
        seen[start] = True
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(n):
                if i != j and linked[i][j] and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        out.append(sorted(comp))
    return sorted(out)


def test_c2_clustering_oracle():
    rnd = random.Random(77)
    ok = True
    for si in range(200):
        g = random_graph(seed=3000 + si % 10, n_nodes=20, extent=60.0)
        n_veh = rnd.randrange(2, 13)
        states = [(vid, rnd.uniform(0, 60), rnd.uniform(0, 60), rnd.uniform(0, 2))
                  for vid in range(n_veh)]
        s = snapshot_from_states(0.0, states, g, {}, math.inf)
        prev = None
        for t in (5.0, 10.0, 20.0, 40.0):
            part = clusters(s, DensityConfig(distance_threshold=t))
            if sorted(sorted(c) for c in part) != brute_force_clusters(s, t):
                ok = False
            if prev is not None:
                if len(part) > len(prev):
                    ok = False
                for old in prev:
                    if not any(set(old) <= set(new) for new in part):
                        ok = False
            prev = part
    report("clustering: union-find == brute force on 200 snapshots, "
           "monotone over t in {5,10,20,40}", ok)


# --- 3 battery physics -------------------------------------------------------

def test_c3_battery_physics():
    # (a) zero motion, zero aux -> zero draw
    p = BatteryParams(aux_power=0.0)
    still = [TrajectorySample(float(t), 0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 1.0)
             for t in range(10)]
    draw_a, regen_a, _ = integrate_trajectory(still, FORK_MASS, p)
    ok_a = draw_a == 0.0 and regen_a == 0.0

    # (b) lift 1100 kg by 1.5 m at eta_drive 0.85
    oracle = 1100.0 * G * 1.5 / 0.85
    draw_b, _ = next(_energies([(0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 1000.0 + 100.0)],
                               BatteryParams(eta_drive=0.85)))
    ok_b = abs(draw_b - oracle) <= 1e-6 * oracle and abs(oracle - 19036.4) < 0.1

    # (c) SOC non-increasing over a simulated run with eta_regen = 0
    w = World(mapgen.warehouse_map(), 3, seed=4, battery_params=BatteryParams(eta_regen=0.0))
    samples = run_samples(w, 120.0)
    ok_c = True
    for series in split_by_vehicle(samples).values():
        socs = [s.soc for s in series]
        if any(b > a + 1e-15 for a, b in zip(socs, socs[1:])):
            ok_c = False

    # (d) closed loop with c_rr > 0 is net negative
    loop = [
        TrajectorySample(0, 0, 0, 0, 0.0, 0, 0, 0, 1.0),
        TrajectorySample(15, 0, 15, 0, 0.0, 2, 0, 0, 1.0),
        TrajectorySample(30, 0, 30, 0, math.pi, 0, 0, 0, 1.0),
        TrajectorySample(45, 0, 15, 0, math.pi, 2, 0, 0, 1.0),
        TrajectorySample(60, 0, 0, 0, 0.0, 0, 0, 0, 1.0),
    ]
    d, r, _ = integrate_trajectory(loop, FORK_MASS,
                                   BatteryParams(c_rr=0.02, eta_regen=0.9, aux_power=0.0))
    ok_d = d - r > 0

    report("battery: zero-motion, 19036.4 J lift (1e-6 rel), monotone SOC, "
           "net-negative loop", ok_a and ok_b and ok_c and ok_d)


# --- 4 calibration -----------------------------------------------------------

def synthetic_cycle(i):
    """Straight drive/lift cycles of varying length, 1 Hz sampling."""
    samples = []
    t, x, fork = 0.0, 0.0, 0.0
    leg = 20.0 + 5.0 * (i % 4)
    for phase in range(2 + i % 3):
        for _ in range(int(leg)):
            t += 1.0
            x += 1.0
            samples.append(TrajectorySample(t, 0, x, 0, 0, 1.0, fork, 400.0, 1.0))
        t += 1.0
        samples.append(TrajectorySample(t, 0, x, 0, 0, 0.0, fork, 400.0, 1.0))
        t += 1.0
        fork = 1.5 - fork
        samples.append(TrajectorySample(t, 0, x, 0, 0, 0.0, fork, 400.0, 1.0))
    return [TrajectorySample(0.0, 0, 0, 0, 0, 0.0, 0.0, 400.0, 1.0)] + samples


def test_c4_calibration_recovery():
    t0 = time.perf_counter()
    truth = BatteryParams(c_rr=0.0145, aux_power=0.0)
    p0 = BatteryParams(c_rr=0.08, aux_power=0.0)

    clean = []
    for i in range(5):
        traj = synthetic_cycle(i)
        d, r, _ = integrate_trajectory(traj, FORK_MASS, truth)
        clean.append((traj, d - r))
    fit = calibrate(clean, p0, ["c_rr"])
    ok_clean = abs(fit.params.c_rr - 0.0145) <= 1e-6 * 0.0145

    rnd = random.Random(99)
    noisy = []
    for i in range(20):
        traj = synthetic_cycle(i)
        d, r, _ = integrate_trajectory(traj, FORK_MASS, truth)
        noisy.append((traj, (d - r) * (1.0 + 0.05 * rnd.gauss(0, 1))))
    fit_n = calibrate(noisy, p0, ["c_rr"])
    ok_noisy = abs(fit_n.params.c_rr - 0.0145) <= 0.05 * 0.0145

    elapsed = time.perf_counter() - t0
    report(f"calibration: c_rr to 1e-6 clean, 5% under noise in {elapsed:.2f}s",
           ok_clean and ok_noisy and elapsed < 10.0)


# --- 5 determinism / replay --------------------------------------------------

def run_scenario(seed):
    w = World(mapgen.warehouse_map(), 3, seed=seed)
    samples = run_samples(w, 90.0)
    buf = io.StringIO()
    write_csv(samples, buf)
    return w, buf.getvalue()


def test_c5_determinism_and_replay():
    w, text1 = run_scenario(11)
    _, text2 = run_scenario(11)
    ok_bytes = text1 == text2

    exported = read_csv(io.StringIO(text1))
    replayed = [s for tick in replay(exported, dt=w.dt, fork_mass=w.fork_mass,
                                     params=w.battery_params) for s in tick]
    ok_replay = len(replayed) == len(exported)
    for a, b in zip(exported, replayed):
        if (abs(a.x - b.x) > 1e-9 or abs(a.y - b.y) > 1e-9
                or abs(a.soc - b.soc) > 1e-9):
            ok_replay = False
    report("determinism: same-seed byte-identical export; replay positions "
           "and SOC within 1e-9", ok_bytes and ok_replay)


# --- 6 congestion detection --------------------------------------------------

def corner_graph():
    """L-shaped two-way corridor, nodes every 5 m, corner at (30, 0)."""
    pts = [(x, 0.0) for x in range(0, 31, 5)] + [(30.0, y) for y in range(5, 31, 5)]
    from forkfleet.roadnet import Edge, Waypoint, build_graph
    wps = [Waypoint(x, y, 0.0) for x, y in pts]
    edges = []
    for i in range(len(pts) - 1):
        edges.append(Edge(i, i + 1, 5.0, 3.0))
        edges.append(Edge(i + 1, i, 5.0, 3.0))
    return build_graph(wps, edges)


def corner_position(s):
    """Arc position along the L corridor (x axis then up the corner)."""
    if s <= 30.0:
        return s, 0.0, 0.0
    return 30.0, s - 30.0, math.pi / 2


def scripted_corner_fixture(dwell_start=40.0, dwell_end=80.0, t_total=120.0):
    """Four vehicles converge on the corner, dwell stopped, then disperse."""
    targets = [18.0, 24.0, 30.0, 36.0]  # arc positions 6 m apart at the corner
    starts = [0.0, 6.0, 48.0, 54.0]
    samples = []
    t = 0.0
    while t <= t_total + 1e-9:
        for vid in range(4):
            s0, s1 = starts[vid], targets[vid]
            if t < dwell_start:
                u = t / dwell_start
                s = s0 + (s1 - s0) * u
                v = abs(s1 - s0) / dwell_start
            elif t <= dwell_end:
                s, v = s1, 0.0
            else:
                u = (t - dwell_end) / dwell_start
                s = s1 + (s0 - s1) * min(u, 1.0)
                v = abs(s1 - s0) / dwell_start if u < 1.0 else 0.0
            x, y, hdg = corner_position(s)
            samples.append(TrajectorySample(t, vid, x, y, hdg, v, 0.0, 0.0, 1.0))
        t += 1.0
    return samples


def free_flow_fixture(t_total=60.0):
    """Four vehicles stream through the corridor at a steady 1.5 m/s."""
    samples = []
    t = 0.0
    while t <= t_total + 1e-9:
        for vid in range(4):
            s = (6.0 * vid + 1.5 * t) % 60.0
            x, y, hdg = corner_position(s)
            samples.append(TrajectorySample(t, vid, x, y, hdg, 1.5, 0.0, 0.0, 1.0))
        t += 1.0
    return samples


def test_c6_congestion_detection():
    g = corner_graph()
    cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)

    _, episodes = density_timeline(scripted_corner_fixture(), g, cfg)
    overlap = [e for e in episodes
               if e.start <= 80.0 and e.end >= 40.0 and e.peak_size >= 2]
    ok_jam = len(overlap) >= 1

    _, free_eps = density_timeline(free_flow_fixture(), g, cfg)
    ok_free = len(free_eps) == 0
    report(f"congestion: corner fixture -> {len(overlap)} episode(s) in dwell "
           f"window, free flow -> {len(free_eps)}", ok_jam and ok_free)


# --- 7 placement -------------------------------------------------------------

def hot_zone_trajectory(graph, hot_xy, dwell_samples=100):
    """Synthetic visits: long dwells at the hot nodes, light transit noise."""
    samples = []
    for vid, (x, y) in enumerate(hot_xy):
        for k in range(dwell_samples):
            samples.append(TrajectorySample(float(k), vid, x, y, 0.0, 0.0,
                                            0.0, 0.0, 1.0))
    rnd = random.Random(5)
    transit_vid = len(hot_xy)
    for k in range(10):
        w = graph.waypoints[rnd.randrange(graph.n_nodes())]
        samples.append(TrajectorySample(float(k), transit_vid, w.x, w.y, 0.0,
                                        1.0, 0.0, 0.0, 1.0))
    return samples


def test_c7_placement():
    g = mapgen.warehouse_map()  # 80 x 60 m grid
    hot_xy = [(0.0, 0.0), (80.0, 0.0), (0.0, 60.0), (80.0, 60.0), (40.0, 30.0)]
    samples = hot_zone_trajectory(g, hot_xy)
    weights = visit_weights(samples, g)
    res = place_chargers(g, weights, k=5, min_separation=25.0, d_scale=20.0)
    grid = heatmap_for_graph(samples, g, cell_size=2.0)
    top = [grid.cell_center(cx, cy) for cx, cy in top_decile_cells(grid)]

    ok_count = len(res.stations) == 5
    dist_rows = {s: dijkstra(g, s) for s in res.stations}
    ok_sep = all(min(dist_rows[a][b], dist_rows[b][a]) >= 25.0
                 for a, b in itertools.combinations(res.stations, 2))
    ok_near = True
    for s in res.stations:
        w = g.waypoints[s]
        if min(math.dist((w.x, w.y), c) for c in top) > 25.0:
            ok_near = False

    # greedy within 2x of the exhaustive mean-detour optimum, 15 nodes, k=2
    g15 = random_graph(seed=606, n_nodes=15)
    s15 = [TrajectorySample(float(i), 0, w.x, w.y, 0, 1.0, 0, 0, 1.0)
           for i, w in enumerate(g15.waypoints)]
    w15 = visit_weights(s15, g15)
    greedy = place_chargers(g15, w15, k=2, min_separation=25.0, d_scale=20.0)
    greedy_detour = score_placement(greedy, s15, g15)
    dist15 = [dijkstra(g15, u) for u in range(15)]

    def sym(a, b):
        return min(dist15[a][b], dist15[b][a])

    best = math.inf
    for pair in itertools.combinations(range(15), 2):
        if sym(*pair) < 25.0:
            continue
        from forkfleet.placement import PlacementResult
        cand = PlacementResult(list(pair), [0.0, 0.0])
        best = min(best, score_placement(cand, s15, g15))
    ok_detour = len(greedy.stations) == 2 and greedy_detour <= 2.0 * best

    report(f"placement: k=5 separation + top-decile proximity; greedy detour "
           f"{greedy_detour:.2f} <= 2 x optimum {best:.2f}",
           ok_count and ok_sep and ok_near and ok_detour)


# --- 8 parser fidelity -------------------------------------------------------

def test_c8_parser_fidelity():
    radius = 12.0
    length = radius * math.pi / 2
    spacing = 1.5
    text = f"""<OpenDRIVE><road id="1" length="{length}">
      <planView><geometry s="0" x="0" y="0" hdg="0" length="{length}">
        <arc curvature="{1.0 / radius}"/></geometry></planView>
      <lanes><laneSection s="0">
        <right><lane id="-1" type="driving"/></right>
      </laneSection></lanes></road></OpenDRIVE>"""
    g = to_road_graph(parse_opendrive_subset(text), spacing=spacing)
    sagitta = spacing ** 2 / (8.0 * radius)
    ok_arc = all(abs(math.hypot(w.x, w.y - radius) - radius) <= sagitta
                 for w in g.waypoints)
    sampled = sum(e.length for e in g.edges)
    ok_len = abs(sampled - length) <= 1e-3 * length

    spiral = text.replace(f'<arc curvature="{1.0 / radius}"/>',
                          '<spiral curvStart="0" curvEnd="0.05"/>')
    try:
        parse_opendrive_subset(spiral)
        ok_spiral = False
    except UnsupportedGeometry:
        ok_spiral = True
    report("parser: arc within sagitta bound, length within 1e-3, spiral "
           "rejected", ok_arc and ok_len and ok_spiral)


# --- 9 collision safety ------------------------------------------------------

def test_c9_collision_safety():
    worst = math.inf
    ok = True
    for seed in range(20):
        w = World(mapgen.warehouse_map(), 6, seed=seed)
        samples = run_samples(w, 300.0)
        limit = w.kin.d_safe - w.kin.v_max * w.dt
        by_t = {}
        for s in samples:
            by_t.setdefault(s.t, []).append(s)
        for tick in by_t.values():
            for a, b in itertools.combinations(tick, 2):
                d = math.hypot(a.x - b.x, a.y - b.y)
                worst = min(worst, d)
                if d < limit:
                    ok = False
    report(f"collision safety: 20 scenarios x 6 vehicles x 300 s, min "
           f"separation {worst:.3f} m >= {limit:.3f} m", ok)
