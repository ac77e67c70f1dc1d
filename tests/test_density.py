import dataclasses
import io
import math
import random
import tracemalloc

import pytest

from conftest import line_graph, one_way_pair_graph, random_graph
from forkfleet import density
from forkfleet.density import (Cluster, DensityConfig, EmptyFleet, TooManyTicks, UnionFind,
                               analyze_snapshot, clusters, density_timeline,
                               flag_critical, snapshot_from_states,
                               write_episode_summary, write_report_csv)
from forkfleet.roadnet import dijkstra
from forkfleet.trajectory import TrajectorySample, split_by_vehicle
from test_trajectory import sample_at


def states_on_line(positions_speeds):
    """(x, speed) pairs -> state tuples on the x axis, ids in order."""
    return [(i, x, 0.0, v) for i, (x, v) in enumerate(positions_speeds)]


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
    def test_empty_fleet(self):
        with pytest.raises(EmptyFleet):
            snapshot_from_states(0.0, [], line_graph([10.0]))

    def test_snap_and_distances(self):
        g = line_graph([10.0, 10.0])
        s = snapshot_from_states(0.0, states_on_line([(1.0, 0), (9.0, 0), (21.0, 0)]), g)
        assert s.nodes == [0, 1, 2]
        assert s.dist[0][1] == 10.0
        assert s.dist[0][2] == 20.0
        assert math.isinf(s.dist[2][0])  # one-way line, no way back

    def test_shared_node_distance_zero(self):
        g = line_graph([10.0])
        s = snapshot_from_states(0.0, states_on_line([(0.5, 0), (1.5, 0)]), g)
        assert s.nodes == [0, 0]
        assert s.dist[0][1] == 0.0

    def test_states_sorted_by_vehicle_id(self):
        g = line_graph([10.0])
        s = snapshot_from_states(0.0, [(5, 0, 0, 1.0), (2, 10, 0, 2.0)], g)
        assert s.vehicle_ids == [2, 5]
        assert s.speeds == [2.0, 1.0]


class TestClusters:
    def test_all_separate(self):
        g = line_graph([30.0, 30.0])
        s = snapshot_from_states(0.0, states_on_line([(0, 0), (30, 0), (60, 0)]), g)
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0], [1], [2]]

    def test_chain_links_transitively(self):
        # pairwise gaps of 10 m chain three vehicles into one cluster even
        # though the ends are 20 m apart
        g = line_graph([10.0, 10.0])
        s = snapshot_from_states(0.0, states_on_line([(0, 0), (10, 0), (20, 0)]), g)
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0, 1, 2]]

    def test_one_way_uses_min_direction(self):
        # A->B is 10 m but B->A only via a 20 m loop; min is 10 <= 15
        g = one_way_pair_graph()
        s = snapshot_from_states(0.0, [(0, 0, 0, 0.0), (1, 10, 0, 0.0)], g)
        assert s.dist[1][0] == 20.0
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0, 1]]
        assert clusters(s, DensityConfig(distance_threshold=5.0)) == [[0], [1]]

    def test_threshold_boundary_inclusive(self):
        g = line_graph([15.0])
        s = snapshot_from_states(0.0, states_on_line([(0, 0), (15, 0)]), g)
        assert clusters(s, DensityConfig(distance_threshold=15.0)) == [[0, 1]]

    def test_monotone_in_threshold(self):
        # coarser thresholds can only merge clusters, never split them
        g = line_graph([8.0, 12.0, 25.0, 6.0])
        xs = [0, 8, 20, 45, 51]
        s = snapshot_from_states(0.0, states_on_line([(x, 0) for x in xs]), g)
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


def wandering_fleet(graph, n_vehicles=6, n_steps=25):
    """Vehicles hop between random nodes, some starting late."""
    rnd = random.Random(2)
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
    return [(vid, smp.x, smp.y, smp.speed) for vid in sorted(per_vehicle)
            for smp in [sample_at(per_vehicle[vid], t)] if smp is not None]


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
        by_t = {r.t: r for r in reports}
        assert len(by_t[0.0].snapshot.vehicle_ids) == 1
        assert len(by_t[6.0].snapshot.vehicle_ids) == 2

    def test_entry_cap(self, monkeypatch):
        # 0..4 s: 5 ticks at 1 s of 2 vehicles, 5 x 3 x 88 = 1320 entries
        samples = stopped_pair_trajectory(1.0, 2.0, 4.0)
        assert density.ENTRIES_PER_VEHICLE_TICK == 88
        monkeypatch.setattr(density, "MAX_ENTRIES", 1320)
        reports, _ = density_timeline(samples, self.graph(), DensityConfig())
        assert len(reports) == 5
        monkeypatch.setattr(density, "MAX_ENTRIES", 1319)
        with pytest.raises(TooManyTicks, match="5 ticks of 2 vehicles, more than 1319"):
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


class TestTimelineRows:
    """density_timeline computes one Dijkstra row per snapped node for the
    whole timeline, cut off at the distance threshold; its reports equal
    fresh per-tick snapshots but for sharing one row cache."""

    def test_one_dijkstra_per_snapped_node(self, monkeypatch):
        graph = random_graph(seed=7, n_nodes=30)
        cfg = DensityConfig(distance_threshold=30.0, velocity_threshold=0.5)
        samples = wandering_fleet(graph)
        sources = []

        def counted(g, src, limit=math.inf):
            sources.append(src)
            return dijkstra(g, src, limit)

        monkeypatch.setattr(density, "dijkstra", counted)
        reports, _ = density_timeline(samples, graph, cfg)
        snapped = {node for rep in reports for node in rep.snapshot.nodes}
        assert sorted(sources) == sorted(snapped)
        # per-tick rows would cost more: the case does exercise the reuse
        assert sum(len(set(rep.snapshot.nodes)) for rep in reports) > 2 * len(snapped)
        # the reports share one row cache and build no distance matrix
        assert all(rep.snapshot.rows is reports[0].snapshot.rows for rep in reports)
        assert all("dist" not in vars(rep.snapshot) for rep in reports)

        for rep in reports:
            fresh = analyze_snapshot(rep.t, tick_states(samples, rep.t), graph, cfg)
            assert rep.clusters == fresh.clusters
            for field in dataclasses.fields(density.Snapshot):
                if field.name != "rows":
                    assert getattr(rep.snapshot, field.name) == getattr(fresh.snapshot, field.name)
            assert rep.snapshot.dist == fresh.snapshot.dist

    @pytest.mark.parametrize("threshold", [5.0, 15.0, 30.0])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_clusters_are_those_of_full_rows(self, seed, threshold):
        """Rows cut at the threshold hold each full entry within it and none
        beyond, and cluster as every vehicle pair of the full rows does."""
        graph = random_graph(seed=seed, n_nodes=30, extent=50.0)
        cfg = DensityConfig(distance_threshold=threshold, velocity_threshold=0.5)
        samples = wandering_fleet(graph, n_vehicles=12)
        reports, _ = density_timeline(samples, graph, cfg)
        cut_entries = shared = one_way = 0
        for rep in reports:
            full = snapshot_from_states(rep.t, tick_states(samples, rep.t), graph)
            d = full.dist
            assert rep.snapshot.dist == [[x if x <= threshold else math.inf for x in row]
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
