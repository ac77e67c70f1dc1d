import io
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dist_matrix, line_graph, one_way_pair_graph, random_graph
from forkfleet import ConfigError, density
from forkfleet.density import (Cluster, CriticalEpisode, DensityConfig, UnionFind,
                               clusters, density_timeline, flag_critical,
                               snapshot_from_states, write_episode_summary,
                               write_report_csv)
from forkfleet.roadnet import nearest_node, within
from forkfleet.trajectory import TrajectorySample, split_by_vehicle
from test_trajectory import sample_at


def states_on_line(positions_speeds):
    """(x, speed) pairs -> state tuples on the x axis, ids in order."""
    return [(i, x, 0.0, v) for i, (x, v) in enumerate(positions_speeds)]


def analyze_snapshot(t, states, graph, cfg):
    """One instant's ClusterReport, over rows cut at distance_threshold."""
    s = snapshot_from_states(t, states, graph, {}, cfg.distance_threshold)
    return flag_critical(clusters(s, cfg), s, cfg)


def pair_clusters(dist, threshold):
    """clusters() by its definition: every vehicle pair linked when the
    smaller directed distance is within the threshold."""
    n = len(dist)
    uf = UnionFind(n)
    for i in range(n):
        for j in range(i):
            if min(dist[i][j], dist[j][i]) <= threshold:
                uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


class TestSnapshot:
    def test_snap_and_distances(self):
        g = line_graph([10.0, 10.0])
        s = snapshot_from_states(0.0, states_on_line([(1.0, 0), (9.0, 0), (21.0, 0)]), g, {},
                                 math.inf)
        assert s.nodes == [0, 1, 2]
        d = dist_matrix(s)
        assert d[0][1] == 10.0
        assert d[0][2] == 20.0
        assert math.isinf(d[2][0])  # one-way line, no way back

    def test_shared_node_distance_zero(self):
        g = line_graph([10.0])
        s = snapshot_from_states(0.0, states_on_line([(0.5, 0), (1.5, 0)]), g, {}, math.inf)
        assert s.nodes == [0, 0]
        assert dist_matrix(s)[0][1] == 0.0

    def test_states_sorted_by_vehicle_id(self):
        g = line_graph([10.0])
        s = snapshot_from_states(0.0, [(5, 0, 0, 1.0), (2, 10, 0, 2.0)], g, {}, math.inf)
        assert s.vehicle_ids == [2, 5]
        assert s.speeds == [2.0, 1.0]


class TestClusters:
    def test_all_separate(self):
        g = line_graph([30.0, 30.0])
        s = snapshot_from_states(0.0, states_on_line([(0, 0), (30, 0), (60, 0)]), g, {}, math.inf)
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0], [1], [2]]

    def test_chain_links_transitively(self):
        # pairwise gaps of 10 m chain three vehicles into one cluster even
        # though the ends are 20 m apart
        g = line_graph([10.0, 10.0])
        s = snapshot_from_states(0.0, states_on_line([(0, 0), (10, 0), (20, 0)]), g, {}, math.inf)
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0, 1, 2]]

    def test_one_way_uses_min_direction(self):
        # A->B is 10 m but B->A only via a 20 m loop; min is 10 <= 15
        g = one_way_pair_graph()
        s = snapshot_from_states(0.0, [(0, 0, 0, 0.0), (1, 10, 0, 0.0)], g, {}, math.inf)
        assert dist_matrix(s)[1][0] == 20.0
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0, 1]]
        assert clusters(s, DensityConfig(distance_threshold=5.0)) == [[0], [1]]

    def test_threshold_boundary_inclusive(self):
        g = line_graph([15.0])
        s = snapshot_from_states(0.0, states_on_line([(0, 0), (15, 0)]), g, {}, math.inf)
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0, 1]]

    def test_monotone_in_threshold(self):
        # coarser thresholds can only merge clusters, never split them
        g = line_graph([8.0, 12.0, 25.0, 6.0])
        xs = [0, 8, 20, 45, 51]
        s = snapshot_from_states(0.0, states_on_line([(x, 0) for x in xs]), g, {}, math.inf)
        prev = None
        for t in (5.0, 10.0, 20.0, 40.0):
            part = clusters(s, DensityConfig(distance_threshold=t))
            if prev is not None:
                assert len(part) <= len(prev)
                # each old cluster sits inside exactly one new cluster
                for old in prev:
                    assert any(set(old) <= set(new) for new in part)
            prev = part


class TestFlagCritical:
    def cfg(self):
        return DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)

    def test_slow_pair_critical(self):
        g = line_graph([10.0])
        rep = analyze_snapshot(0.0, states_on_line([(0, 0.1), (10, 0.2)]), g, self.cfg())
        assert len(rep.clusters) == 1
        c = rep.clusters[0]
        assert c.critical and c.members == [0, 1]
        assert c.mean_speed == pytest.approx(0.15)

    def test_fast_pair_not_critical(self):
        g = line_graph([10.0])
        rep = analyze_snapshot(0.0, states_on_line([(0, 2.0), (10, 2.0)]), g, self.cfg())
        assert not rep.clusters[0].critical

    def test_singleton_never_critical(self):
        g = line_graph([100.0])
        rep = analyze_snapshot(0.0, states_on_line([(0, 0.0), (100, 0.0)]), g, self.cfg())
        assert len(rep.clusters) == 2
        assert not any(c.critical for c in rep.clusters)

    def test_mean_speed_boundary_strict(self):
        g = line_graph([10.0])
        rep = analyze_snapshot(0.0, states_on_line([(0, 0.5), (10, 0.5)]), g, self.cfg())
        assert not rep.clusters[0].critical


def wandering_fleet(graph, n_vehicles=6, n_steps=25, seed=2):
    """Vehicles hop between random nodes, some starting late."""
    rnd = random.Random(seed)
    samples = []
    for vid in range(n_vehicles):
        for k in range(rnd.randrange(4), n_steps):
            w = graph.waypoints[rnd.randrange(graph.n_nodes())]
            samples.append(TrajectorySample(float(k), vid, w.x + rnd.uniform(-2, 2),
                                            w.y + rnd.uniform(-2, 2), 0.0,
                                            rnd.choice([0.0, 0.2, 1.5]), 0.0, 0.0, 1.0))
    samples.sort(key=lambda s: (s.t, s.vehicle_id))
    return samples


def tick_states(samples, t):
    """The state tuples of the vehicles present at t."""
    per_vehicle = split_by_vehicle(samples)
    return [(vid, st[2], st[3], st[5]) for vid in sorted(per_vehicle)
            for st in [sample_at(per_vehicle[vid], t)] if st is not None]


def stopped_pair_trajectory(t_jam_start, t_jam_end, t_total, dt=1.0):
    """Two vehicles approach, sit 5 m apart during the jam window, then leave."""
    samples = []
    t = 0.0
    while t <= t_total + 1e-9:
        if t < t_jam_start:
            x0 = 20.0 - 20.0 * t / t_jam_start
            v = 20.0 / t_jam_start
        elif t <= t_jam_end:
            x0, v = 0.0, 0.0
        else:
            x0 = 20.0 * (t - t_jam_end) / t_jam_start
            v = 20.0 / t_jam_start
        samples.append(TrajectorySample(t, 0, x0, 0.0, 0.0, v, 0.0, 0.0, 1.0))
        samples.append(TrajectorySample(t, 1, x0 + 5.0, 0.0, 0.0, v, 0.0, 0.0, 1.0))
        t += dt
    samples.sort(key=lambda s: (s.t, s.vehicle_id))
    return samples


class TestTimeline:
    def graph(self):
        return line_graph([5.0] * 12)

    def test_empty(self):
        assert density_timeline([], self.graph(), DensityConfig()) == ([], [])

    def test_jam_yields_one_episode(self):
        cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)
        samples = stopped_pair_trajectory(10.0, 30.0, 45.0)
        reports, episodes = density_timeline(samples, self.graph(), cfg)
        assert len(reports) == 46
        assert len(episodes) == 1
        ep = episodes[0]
        assert ep.start >= 10.0 and ep.end <= 30.0
        assert ep.end - ep.start >= 15.0
        assert ep.peak_size == 2
        assert ep.centroid_node == 0  # jam parked around x in [0, 5]

    def test_free_flow_yields_none(self):
        cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)
        samples = []
        for k in range(20):
            t = float(k)
            samples.append(TrajectorySample(t, 0, 2.0 * t, 0, 0, 2.0, 0, 0, 1.0))
            samples.append(TrajectorySample(t, 1, 2.0 * t + 5.0, 0, 0, 2.0, 0, 0, 1.0))
        _, episodes = density_timeline(samples, self.graph(), cfg)
        assert episodes == []

    def test_two_separate_jams_two_episodes(self):
        cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)
        first = stopped_pair_trajectory(5.0, 15.0, 25.0)
        shifted = [TrajectorySample(s.t + 30.0, s.vehicle_id, s.x, s.y, s.heading,
                                    s.speed, s.fork_height, s.load_mass, s.soc)
                   for s in stopped_pair_trajectory(5.0, 15.0, 25.0)]
        _, episodes = density_timeline(first + shifted, self.graph(), cfg)
        assert len(episodes) == 2
        assert episodes[0].end < episodes[1].start

    def test_vehicle_outside_span_excluded(self):
        cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)
        samples = [
            TrajectorySample(0.0, 0, 0, 0, 0, 0.0, 0, 0, 1.0),
            TrajectorySample(10.0, 0, 0, 0, 0, 0.0, 0, 0, 1.0),
            # vehicle 1 only exists from t=6
            TrajectorySample(6.0, 1, 3, 0, 0, 0.0, 0, 0, 1.0),
            TrajectorySample(10.0, 1, 3, 0, 0, 0.0, 0, 0, 1.0),
        ]
        reports, _ = density_timeline(samples, self.graph(), cfg)
        members = {r.t: [m for c in r.clusters for m in c.members] for r in reports}
        assert members[0.0] == [0]
        assert members[6.0] == [0, 1]

    def test_entry_cap(self, monkeypatch):
        # 0..4 s: 5 ticks at 1 s of 2 vehicles, 5 x 3 x 88 = 1320 entries
        samples = stopped_pair_trajectory(1.0, 2.0, 4.0)
        assert density.ENTRIES_PER_VEHICLE_TICK == 88
        monkeypatch.setattr(density, "MAX_ENTRIES", 1320)
        reports, _ = density_timeline(samples, self.graph(), DensityConfig())
        assert len(reports) == 5
        monkeypatch.setattr(density, "MAX_ENTRIES", 1319)
        with pytest.raises(ConfigError, match="5 ticks of 2 vehicles, more than 1319"):
            density_timeline(samples, self.graph(), DensityConfig())

    def test_an_hour_of_256_vehicles_fits(self, monkeypatch):
        # 3601 ticks of 256 vehicles: 8.1e7 entries, under MAX_ENTRIES; no tick
        # is made, since resample is stopped at its first call
        samples = [TrajectorySample(t, vid, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
                   for t in (0.0, 3600.0) for vid in range(256)]

        class Ticks(Exception):
            pass

        def stop(series, times):
            raise Ticks(len(times))
        monkeypatch.setattr(density, "resample", stop)
        with pytest.raises(Ticks) as exc:
            density_timeline(samples, self.graph(), DensityConfig())
        assert exc.value.args == (3601,)

    def test_entry_model_bounds_the_peak(self):
        # what the cap counts for a timeline, in entries of 8 bytes, bounds
        # the memory it allocates
        graph = random_graph(seed=5, n_nodes=30)
        samples = wandering_fleet(graph, n_vehicles=8, n_steps=40)
        cfg = DensityConfig(distance_threshold=30.0, snapshot_interval=0.3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports, _ = density_timeline(samples, graph, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(reports) == 131
        assert peak <= 8 * len(reports) * (8 + 1) * density.ENTRIES_PER_VEHICLE_TICK


def _overlap_ok(a, b):
    inter = len(set(a) & set(b))
    return inter >= 0.5 * max(len(a), len(b))


def _centroid_node(members, snapshot, graph):
    idx = [snapshot.vehicle_ids.index(v) for v in members]
    cx = sum(snapshot.positions[i][0] for i in idx) / len(idx)
    cy = sum(snapshot.positions[i][1] for i in idx) / len(idx)
    return nearest_node(graph, cx, cy)


def _stitch_episodes(reports, graph):
    """The reference stitching: a second pass over (report, snapshot) pairs."""
    episodes = []
    # active: dicts {members, start, end, peak_size, peak: (members, snapshot)}
    active = []
    for rep, snap in reports:
        crit = [c.members for c in rep.clusters if c.critical]
        next_active = []
        matched_prev = set()
        for members in crit:
            for ai, a in enumerate(active):
                if ai not in matched_prev and _overlap_ok(a["members"], members):
                    matched_prev.add(ai)
                    a["members"] = members
                    a["end"] = rep.t
                    if len(members) > a["peak_size"]:
                        a["peak_size"] = len(members)
                        a["peak"] = (members, snap)
                    next_active.append(a)
                    break
            else:
                next_active.append({"members": members, "start": rep.t, "end": rep.t,
                                    "peak_size": len(members), "peak": (members, snap)})
        episodes += [a for ai, a in enumerate(active) if ai not in matched_prev]
        active = next_active
    episodes.extend(active)
    return [CriticalEpisode(a["start"], a["end"], a["peak_size"],
                            _centroid_node(*a["peak"], graph))
            for a in sorted(episodes, key=lambda e: (e["start"], e["end"]))]


def reference_timeline(samples, graph, cfg):
    """density_timeline made the two-pass way: every tick's report and
    snapshot from sample_at, skipping ticks with no vehicle in span, then
    the reference stitching over them."""
    per_vehicle = split_by_vehicle(samples)
    t0 = min(ss[0].t for ss in per_vehicle.values())
    te = max(ss[-1].t for ss in per_vehicle.values())
    n_ticks = math.floor((te - t0) / cfg.snapshot_interval + 1e-9) + 1
    pairs = []
    for k in range(n_ticks):
        t = t0 + k * cfg.snapshot_interval
        states = tick_states(samples, t)
        if states:
            snap = snapshot_from_states(t, states, graph, {}, math.inf)
            pairs.append((flag_critical(clusters(snap, cfg), snap, cfg), snap))
    return [rep for rep, _ in pairs], _stitch_episodes(pairs, graph)


def scripted(frames, dt=1.0):
    """Samples on the x axis from frames[k] = {vehicle_id: (x, speed)} at k * dt."""
    return sorted((TrajectorySample(k * dt, vid, x, 0.0, 0.0, v, 0.0, 0.0, 1.0)
                   for k, frame in enumerate(frames) for vid, (x, v) in frame.items()),
                  key=lambda s: (s.t, s.vehicle_id))


class TestEpisodeStitching:
    """The timeline stitches episodes as each tick is made; its episodes
    equal those of the two-pass reference, field for field."""
    cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)

    def test_split_at_half_overlap_close_and_reopen(self):
        g = line_graph([5.0] * 12)
        stopped = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0), 3: (20.0, 0.0)}
        split = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (40.0, 0.0), 3: (45.0, 0.0)}
        moving = {vid: (x, 2.0) for vid, (x, _) in split.items()}
        samples = scripted([stopped, split, moving, split, split])
        reports, episodes = density_timeline(samples, g, self.cfg)
        # t=1: the episode of 0..3 overlaps both halves by exactly 50%; the
        # first extends it and the second opens one. t=2: both close. t=3:
        # both halves reopen.
        assert [[c.members for c in r.clusters if c.critical] for r in reports] == [
            [[0, 1, 2, 3]], [[0, 1], [2, 3]], [], [[0, 1], [2, 3]], [[0, 1], [2, 3]]]
        assert [(e.start, e.end, e.peak_size) for e in episodes] == [
            (0.0, 1.0, 4), (1.0, 1.0, 2), (3.0, 4.0, 2), (3.0, 4.0, 2)]
        assert episodes[0].centroid_node == 2   # x = 35 / 4, at t=0
        assert (reports, episodes) == reference_timeline(samples, g, self.cfg)

    def test_under_half_overlap_opens_an_episode(self):
        g = line_graph([5.0] * 12)
        trio = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0), 3: (40.0, 2.0)}
        # 1 of the 3 stays with a newcomer: 1 < 0.5 * 3
        regrouped = {0: (0.0, 2.0), 1: (40.0, 0.0), 2: (20.0, 2.0), 3: (45.0, 0.0)}
        samples = scripted([trio, regrouped])
        _, episodes = density_timeline(samples, g, self.cfg)
        assert [(e.start, e.end, e.peak_size) for e in episodes] == [
            (0.0, 0.0, 3), (1.0, 1.0, 2)]
        assert episodes == reference_timeline(samples, g, self.cfg)[1]

    def test_tick_with_no_vehicle_in_span(self):
        # vehicles 0 and 1 stand jammed over 0..3.5 s and 2 and 3 over
        # 4.5..8 s; the tick at 4 s has no vehicle in span and makes no report
        g = line_graph([5.0] * 12)
        first = [TrajectorySample(t, vid, 5.0 * vid, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
                 for t in (0.0, 1.0, 2.0, 3.0, 3.5) for vid in (0, 1)]
        second = [TrajectorySample(t, vid, 5.0 * vid, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
                  for t in (4.5, 5.0, 6.0, 7.0, 8.0) for vid in (2, 3)]
        samples = sorted(first + second, key=lambda s: (s.t, s.vehicle_id))
        reports, episodes = density_timeline(samples, g, self.cfg)
        assert [r.t for r in reports] == [0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]
        # the episode open before the gap is still open after it, and closes
        # at 5 s, when no cluster of 5 s overlaps it; its end is its last tick
        assert [(e.start, e.end, e.peak_size) for e in episodes] == [
            (0.0, 3.0, 2), (5.0, 8.0, 2)]
        assert (reports, episodes) == reference_timeline(samples, g, self.cfg)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n_vehicles=st.integers(2, 9),
           n_steps=st.integers(4, 20), threshold=st.sampled_from([10.0, 25.0, 60.0]),
           velocity=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
           interval=st.sampled_from([0.5, 1.0, 1.7]))
    def test_same_episodes_as_the_reference(self, seed, n_vehicles, n_steps, threshold,
                                            velocity, interval):
        graph = random_graph(seed=seed, n_nodes=20, extent=60.0)
        samples = wandering_fleet(graph, n_vehicles, n_steps, seed=seed)
        cfg = DensityConfig(distance_threshold=threshold, velocity_threshold=velocity,
                            snapshot_interval=interval)
        assert density_timeline(samples, graph, cfg) == reference_timeline(samples, graph, cfg)


class TestTimelineRows:
    """density_timeline makes one row per snapped node for the whole
    timeline, a bounded search to the distance threshold; its reports equal
    those of fresh per-tick snapshots and keep none of the rows."""

    def test_one_dijkstra_per_snapped_node(self, monkeypatch):
        graph = random_graph(seed=7, n_nodes=30)
        cfg = DensityConfig(distance_threshold=30.0, velocity_threshold=0.5)
        samples = wandering_fleet(graph)
        calls = []

        def counted(g, src, limit):
            calls.append((src, limit))
            return within(g, src, limit)

        def no_matrix(snapshot):
            raise AssertionError("the timeline built a vehicles x vehicles matrix")

        with monkeypatch.context() as m:
            m.setattr(density, "within", counted)
            # Snapshot has no matrix; this keeps the timeline from reading one
            m.setattr(density.Snapshot, "dist", property(no_matrix), raising=False)
            reports, _ = density_timeline(samples, graph, cfg)
        # every row is cut at the threshold
        assert {limit for _, limit in calls} == {cfg.distance_threshold}
        fresh = [snapshot_from_states(rep.t, tick_states(samples, rep.t), graph, {}, math.inf)
                 for rep in reports]
        snapped = {node for s in fresh for node in s.nodes}
        assert sorted(src for src, _ in calls) == sorted(snapped)
        # per-tick rows would cost more: the case does exercise the reuse
        assert sum(len(set(s.nodes)) for s in fresh) > 2 * len(snapped)

        for rep, s in zip(reports, fresh):
            assert rep == flag_critical(clusters(s, cfg), s, cfg)
            assert rep == analyze_snapshot(rep.t, tick_states(samples, rep.t), graph, cfg)

    def test_reports_hold_no_rows(self):
        """Rows at a wide threshold hold every node in reach of every occupied
        node; the timeline frees them on return, and its reports hold a small
        part of what the rows cost."""
        graph = random_graph(seed=7, n_nodes=200)
        cfg = DensityConfig(distance_threshold=1e9, velocity_threshold=0.5)
        samples = wandering_fleet(graph, n_vehicles=12)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports, episodes = density_timeline(samples, graph, cfg)
            held = tracemalloc.get_traced_memory()[0] - base
            rows = {}
            for rep in reports:
                snapshot_from_states(rep.t, tick_states(samples, rep.t), graph, rows,
                                     cfg.distance_threshold)
            rows_cost = tracemalloc.get_traced_memory()[0] - base - held
        finally:
            tracemalloc.stop()
        assert len(rows) > 100 and all(len(row) == 200 for row in rows.values())
        assert held < rows_cost / 10

    @pytest.mark.parametrize("threshold", [5.0, 15.0, 30.0])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_clusters_are_those_of_full_rows(self, seed, threshold, monkeypatch):
        """The timeline's rows, cut at the threshold, hold each full entry
        within it and none beyond, and cluster as every vehicle pair of the
        full rows does."""
        graph = random_graph(seed=seed, n_nodes=30, extent=50.0)
        cfg = DensityConfig(distance_threshold=threshold, velocity_threshold=0.5)
        samples = wandering_fleet(graph, n_vehicles=12)
        snapshots = []

        def kept(*args, **kwargs):
            snapshots.append(snapshot_from_states(*args, **kwargs))
            return snapshots[-1]

        with monkeypatch.context() as m:
            m.setattr(density, "snapshot_from_states", kept)
            reports, _ = density_timeline(samples, graph, cfg)
        assert [s.t for s in snapshots] == [rep.t for rep in reports]
        cut_entries = shared = one_way = 0
        for rep, cut in zip(reports, snapshots):
            full = snapshot_from_states(rep.t, tick_states(samples, rep.t), graph, {}, math.inf)
            d = dist_matrix(full)
            assert dist_matrix(cut) == [[x if x <= threshold else math.inf for x in row]
                                        for row in d]
            part = pair_clusters(d, threshold)
            assert clusters(full, cfg) == part
            assert [c.members for c in rep.clusters] == [
                [full.vehicle_ids[i] for i in members] for members in part]
            cut_entries += sum(math.isfinite(x) and x > threshold for row in d for x in row)
            shared += len(full.nodes) - len(set(full.nodes))
            one_way += sum((d[i][j] <= threshold) != (d[j][i] <= threshold)
                           for i in range(len(d)) for j in range(i))
        # the case exercises the bound, vehicles at one node, and pairs
        # linked in one direction only
        assert cut_entries > 0 and shared > 0 and one_way > 0


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(4)
        uf.union(0, 2)
        uf.union(2, 3)
        assert uf.find(3) == uf.find(0)
        assert uf.find(1) == 1


class TestWriters:
    def test_report_csv(self):
        g = line_graph([10.0])
        cfg = DensityConfig()
        rep = analyze_snapshot(2.5, states_on_line([(0, 0.1), (10, 0.1)]), g, cfg)
        buf = io.StringIO()
        write_report_csv([rep], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,cluster_id,member_ids,mean_speed,critical"
        assert lines[1] == "2.5,0,0;1,0.1,1"

    def test_episode_summary(self):
        cfg = DensityConfig(distance_threshold=15.0, velocity_threshold=0.5)
        samples = stopped_pair_trajectory(10.0, 30.0, 45.0)
        _, episodes = density_timeline(samples, line_graph([5.0] * 12), cfg)
        buf = io.StringIO()
        write_episode_summary(episodes, buf)
        out = buf.getvalue()
        assert out.startswith("critical episodes: 1\n")
        assert "peak_size=2" in out
