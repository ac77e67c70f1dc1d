import io
import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_graph, random_graph
from forkfleet import ConfigError, placement
from forkfleet.mapgen import warehouse_map
from forkfleet.placement import (MAX_CELLS, HeatmapGrid, heatmap,
                                 heatmap_for_graph, place_chargers,
                                 score_placement, visit_weights, write_heatmap,
                                 write_heatmap_nonzero_csv, write_placement_csv)
from forkfleet.roadnet import Edge, Waypoint, build_graph, dijkstra
from forkfleet.trajectory import TrajectorySample


def sample_at_xy(t, x, y, vid=0):
    return TrajectorySample(t, vid, x, y, 0.0, 1.0, 0.0, 0.0, 1.0)


class TestHeatmap:
    def test_counts_and_conservation(self):
        samples = [sample_at_xy(i, x, y) for i, (x, y) in
                   enumerate([(0.5, 0.5), (0.7, 0.3), (3.0, 3.0), (-1.0, 0.0)])]
        grid = heatmap(samples, 0.0, 0.0, 2.0, 2, 2)
        assert grid.counts[0][0] == 2
        assert grid.counts[1][1] == 1
        assert grid.overflow == 1
        assert grid.total() + grid.overflow == len(samples)

    def test_cell_boundary_goes_right(self):
        grid = heatmap([sample_at_xy(0, 2.0, 0.0)], 0.0, 0.0, 2.0, 2, 1)
        assert grid.counts[0][1] == 1

    def test_degenerate_grid(self):
        with pytest.raises(ConfigError, match="grid 2x2 at cell_size 0.0"):
            heatmap([], 0, 0, 0.0, 2, 2)
        with pytest.raises(ConfigError, match="grid 0x2 at cell_size 1.0"):
            heatmap([], 0, 0, 1.0, 0, 2)
        # raised before a row too long to index is asked for
        with pytest.raises(ConfigError, match=f"grid {sys.maxsize + 1}x2 at cell_size 1.0"):
            heatmap([], 0, 0, 1.0, sys.maxsize + 1, 2)

    def test_cell_cap(self):
        # 10,010,000 cells: refused before a row is made
        assert 10_000 * 1_000 == MAX_CELLS
        with pytest.raises(ConfigError, match="grid 10000x1001"):
            heatmap([], 0, 0, 1.0, 10_000, 1_001)

    def test_for_graph_covers_all_nodes(self):
        g = random_graph(seed=1, n_nodes=25)
        samples = [sample_at_xy(i, w.x, w.y) for i, w in enumerate(g.waypoints)]
        grid = heatmap_for_graph(samples, g, cell_size=2.0)
        assert grid.overflow == 0
        assert grid.total() == 25

    def test_top_decile(self):
        counts = [[0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 9, 10]]
        grid = HeatmapGrid(0, 0, 1.0, 4, 3, counts)
        # 11 nonzero cells; 90th percentile index ceil(0.9*11)-1 = 9 -> value 9
        assert set(grid.top_decile_cells()) == {(2, 2), (3, 2)}

    def test_top_decile_empty(self):
        grid = HeatmapGrid(0, 0, 1.0, 2, 2, [[0, 0], [0, 0]])
        assert grid.top_decile_cells() == []


class TestVisitWeights:
    def test_count_weighting(self):
        g = line_graph([10.0, 10.0])
        samples = [sample_at_xy(i, x, 0) for i, x in enumerate([1, 2, 11, 19, 21])]
        w = visit_weights(samples, g)
        assert w == [2.0, 1.0, 2.0]

    def test_dwell_matches_count_at_uniform_rate(self):
        g = line_graph([10.0, 10.0])
        samples = [sample_at_xy(float(i), x, 0)
                   for i, x in enumerate([1, 2, 11, 19, 21])]
        wc = visit_weights(samples, g)
        wd = visit_weights(samples, g, dwell_weighting=True)
        assert wd == pytest.approx(wc)

    def test_dwell_weights_long_stops_heavier(self):
        g = line_graph([10.0])
        samples = [sample_at_xy(0.0, 0, 0), sample_at_xy(10.0, 0, 0),
                   sample_at_xy(11.0, 10, 0)]
        w = visit_weights(samples, g, dwell_weighting=True)
        assert w[0] == pytest.approx(11.0)  # 10 s gap + 1 s gap
        assert w[1] == pytest.approx(1.0)   # last sample reuses previous gap

    def test_multi_vehicle_dwell_independent(self):
        g = line_graph([10.0])
        samples = [sample_at_xy(0.0, 0, 0, vid=0), sample_at_xy(2.0, 0, 0, vid=0),
                   sample_at_xy(0.0, 10, 0, vid=1), sample_at_xy(6.0, 10, 0, vid=1)]
        w = visit_weights(samples, g, dwell_weighting=True)
        assert w == pytest.approx([4.0, 12.0])

    def test_dwell_single_sample_adds_nothing(self):
        # vehicle 1 has one sample: no gap to reuse, so it adds 0 s to node 1
        g = line_graph([10.0])
        samples = [sample_at_xy(0.0, 0, 0, vid=0), sample_at_xy(2.0, 0, 0, vid=0),
                   sample_at_xy(5.0, 10, 0, vid=1)]
        assert visit_weights(samples, g, dwell_weighting=True) == [4.0, 0.0]


def exhaustive_best(graph, weights, k, min_separation, d_scale):
    """Oracle: best k-subset by total decayed coverage (no greedy zeroing)."""
    n = graph.n_nodes()
    dist_rows = [dijkstra(graph, u) for u in range(n)]

    def sym(a, b):
        return min(dist_rows[a][b], dist_rows[b][a])

    def coverage(stations):
        total = 0.0
        for u in range(n):
            if weights[u] == 0.0:
                continue
            d = min(sym(u, s) for s in stations)
            if math.isfinite(d):
                total += weights[u] / (1.0 + d / d_scale)
        return total

    best, best_cov = None, -1.0
    for combo in itertools.combinations(range(n), k):
        if any(sym(a, b) < min_separation for a, b in itertools.combinations(combo, 2)):
            continue
        cov = coverage(combo)
        if cov > best_cov:
            best, best_cov = combo, cov
    return best, best_cov, coverage


class TestPlaceChargers:
    def test_single_station_at_weight_center(self):
        g = line_graph([10.0] * 4)  # one-way; symmetric-min still finite forward
        weights = [0.0, 0.0, 5.0, 0.0, 0.0]
        res = place_chargers(g, weights, k=1, min_separation=25.0, d_scale=20.0)
        assert res.stations == [2]

    def test_separation_enforced(self):
        g = random_graph(seed=11, n_nodes=20)
        weights = [1.0] * 20
        res = place_chargers(g, weights, k=5, min_separation=30.0)
        dist_rows = [dijkstra(g, u) for u in range(20)]
        for a, b in itertools.combinations(res.stations, 2):
            assert min(dist_rows[a][b], dist_rows[b][a]) >= 30.0

    def test_fewer_than_k_when_infeasible(self):
        g = line_graph([5.0, 5.0])
        res = place_chargers(g, [1.0, 1.0, 1.0], k=3, min_separation=100.0)
        assert len(res.stations) == 1

    def test_tie_breaks_to_smaller_id(self):
        # perfectly symmetric two-node graph with equal weights
        g = line_graph([10.0])
        res = place_chargers(g, [0.0, 0.0], k=1)
        assert res.stations == []  # zero weight everywhere: no positive score
        res = place_chargers(g, [1.0, 1.0], k=1, min_separation=25.0, d_scale=20.0)
        assert res.stations[0] in (0, 1)

    def test_greedy_close_to_exhaustive(self):
        g = random_graph(seed=21, n_nodes=15)
        rnd_w = [(i * 7 % 5) + 1.0 for i in range(15)]
        res = place_chargers(g, rnd_w, k=2, min_separation=25.0, d_scale=20.0)
        _, best_cov, coverage = exhaustive_best(g, rnd_w, 2, 25.0, 20.0)
        assert len(res.stations) == 2
        assert coverage(tuple(res.stations)) >= 0.5 * best_cov

    def test_k_validation(self):
        with pytest.raises(ValueError):
            place_chargers(line_graph([10.0]), [1.0, 1.0], k=0)

    def test_deterministic(self):
        g = random_graph(seed=4, n_nodes=18)
        w = [float(i % 3) for i in range(18)]
        r1 = place_chargers(g, w, k=3)
        r2 = place_chargers(g, w, k=3)
        assert r1.stations == r2.stations and r1.scores == r2.scores


def eager_place_chargers(graph, weights, k, min_separation, d_scale):
    """Reference: the full greedy scan, every node scored in every round.
    -> (stations, scores)."""
    n = graph.n_nodes()
    dist_rows = [dijkstra(graph, u) for u in range(n)]

    def sym(a, b):
        return min(dist_rows[a][b], dist_rows[b][a])

    remaining = list(weights)
    stations, scores = [], []
    for _ in range(k):
        best_node, best_score = None, 0.0
        for node in range(n):
            if not all(sym(node, s) >= min_separation for s in stations):
                continue
            score = 0.0
            for u in range(n):
                if remaining[u] == 0.0:
                    continue
                d = sym(u, node)
                if math.isfinite(d):
                    score += remaining[u] / (1.0 + d / d_scale)
            if score > best_score:
                best_node, best_score = node, score
        if best_node is None:
            break
        stations.append(best_node)
        scores.append(best_score)
        for u in range(n):
            if sym(u, best_node) < min_separation:
                remaining[u] = 0.0
    return stations, scores


# offsets of up to 1e-6 m off the lattice: nearby points get tiny chords
NUDGE = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6))


@st.composite
def placement_cases(draw):
    """(graph, weights, k, min_separation, d_scale) on small lattice graphs
    with one-way edges and unconnected parts (some distances inf), integer
    lengths (tied distances) and weights with many zeros and repeats (tied
    scores). The weak spots of the coordinate bound are drawn too: repeated
    points (chord 0), points nudged off the lattice (tiny chords) and edges
    up to 1e-6 shorter than their chord, as build_graph allows, so that the
    smallest length/chord ratio can fall well below 1."""
    n = draw(st.integers(1, 12))
    pts = [(draw(st.integers(0, 4)) + draw(NUDGE), draw(st.integers(0, 4)) + draw(NUDGE))
           for _ in range(n)]
    edges, seen = [], set()
    for _ in range(draw(st.integers(0, 3 * n))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        # build_graph's own chord expression, so a cut of 1e-6 is accepted
        chord = math.hypot(pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])
        if draw(st.booleans()):
            length = float(max(1, math.ceil(chord)) + draw(st.integers(0, 2)))
        else:  # shorter than the chord; never below 5e-7, as lengths are > 0
            length = max(chord - draw(st.floats(0.0, 1e-6)), 5e-7)
        edges.append(Edge(a, b, length, 3.0, True))
        if draw(st.booleans()) and (b, a) not in seen:  # two-way
            seen.add((b, a))
            edges.append(Edge(b, a, length, 3.0, True))
    g = build_graph([Waypoint(i, float(x), float(y), 0.0) for i, (x, y) in enumerate(pts)],
                    edges)
    weight = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 0.5]),
                       st.floats(0.0, 10.0))
    weights = [draw(weight) for _ in range(n)]
    k = draw(st.integers(1, n))
    # 0, inside the graph's span, at integer distances, beyond its diameter
    min_sep = draw(st.one_of(st.sampled_from([0.0, 1e9, math.inf]),
                             st.integers(0, 12).map(float), st.floats(0.0, 30.0)))
    d_scale = draw(st.sampled_from([1e-6, 1.0, 3.0, 20.0]))
    return g, weights, k, min_sep, d_scale


class TestLazyGreedy:
    @settings(max_examples=500, deadline=None)
    @given(placement_cases())
    def test_matches_eager_scan(self, case):
        g, weights, k, min_sep, d_scale = case
        res = place_chargers(g, weights, k, min_sep, d_scale)
        assert (res.stations, res.scores) == eager_place_chargers(g, weights, k, min_sep,
                                                                 d_scale)

    def test_bound_follows_edges_shorter_than_chords(self):
        # a hub 1e-6 m from three weighted leaves over 1e-8 m edges, which
        # build_graph allows: a bound taking paths to be at least the straight
        # line would rank the hub below a leaf, though the hub scores best
        pts = [(0.0, 0.0), (1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6)]
        edges = [Edge(a, b, 1e-8, 3.0, True) for leaf in (1, 2, 3)
                 for a, b in ((0, leaf), (leaf, 0))]
        g = build_graph([Waypoint(i, x, y, 0.0) for i, (x, y) in enumerate(pts)], edges)
        w = [0.0, 1.0, 1.0, 1.0]
        res = place_chargers(g, w, k=1, min_separation=0.0, d_scale=1e-6)
        assert res.stations == [0]
        assert (res.stations, res.scores) == eager_place_chargers(g, w, 1, 0.0, 1e-6)

    def test_map_too_wide_for_a_bound(self):
        # nodes 2e308 m apart, each joined to the line by a 1e308 m edge (an
        # inf length is an input error): the map's extent overflows, so f
        # times it is not finite and the weights alone must serve as the bound
        pts = [(-1e308, 0.0), (1e308, 0.0), (0.0, 0.0), (3.0, 0.0), (6.0, 0.0), (9.0, 0.0)]
        edges = [Edge(0, 2, 1e308, 3.0), Edge(2, 0, 1e308, 3.0),
                 Edge(1, 5, 1e308, 3.0), Edge(5, 1, 1e308, 3.0)]
        for a in range(2, 5):
            edges += [Edge(a, a + 1, 3.0, 3.0), Edge(a + 1, a, 3.0, 3.0)]
        g = build_graph([Waypoint(i, x, y, 0.0) for i, (x, y) in enumerate(pts)], edges)
        w = [1.0, 1.0, 0.0, 1.0, 5.0, 0.0]
        for k in (1, 2, 3):
            res = place_chargers(g, w, k, 2.0, 3.0)
            assert (res.stations, res.scores) == eager_place_chargers(g, w, k, 2.0, 3.0)

    def test_map_too_small_for_a_bound(self):
        # nodes within 5e-324 m of each other: every length/chord is inf, so
        # f is inf, f * hypot(0) is nan, and the weights alone must serve as
        # the bound; hub 1, unweighted, scores best
        pts = [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324), (5e-324, 5e-324)]
        edges = [Edge(a, b, 1.0 if 1 in (a, b) else 100.0, 3.0)
                 for a in range(4) for b in range(4) if a != b]
        g = build_graph([Waypoint(i, x, y, 0.0) for i, (x, y) in enumerate(pts)], edges)
        w = [1.0, 0.0, 1.0, 1.0]
        for k in (1, 2):
            res = place_chargers(g, w, k, 0.5, 3.0)
            assert res.stations[0] == 1
            assert (res.stations, res.scores) == eager_place_chargers(g, w, k, 0.5, 3.0)

    def test_rows_only_where_needed(self, monkeypatch):
        g = warehouse_map()
        n = g.n_nodes()
        w = [1.0 + i % 3 if i % 6 == 0 else 0.0 for i in range(n)]  # sparse
        sources = []

        def counted(graph, src, limit=math.inf):
            sources.append(src)
            return dijkstra(graph, src, limit)

        monkeypatch.setattr(placement, "dijkstra", counted)
        res = place_chargers(g, w, k=4, min_separation=15.0, d_scale=20.0)
        # every weighted node's row, once each, but not every node's
        assert {u for u in range(n) if w[u]} <= set(sources)
        assert len(set(sources)) == len(sources) < n
        assert len(res.stations) == 4
        assert (res.stations, res.scores) == eager_place_chargers(g, w, 4, 15.0, 20.0)

    def test_larger_graph_matches_eager_scan(self):
        g = random_graph(seed=8, n_nodes=40)
        w = [float(i % 4) for i in range(40)]
        res = place_chargers(g, w, k=6, min_separation=20.0, d_scale=20.0)
        assert len(res.stations) == 6
        assert (res.stations, res.scores) == eager_place_chargers(g, w, 6, 20.0, 20.0)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            place_chargers(line_graph([10.0, 10.0]), [1.0, bad, 1.0], k=1)

    @pytest.mark.parametrize("d_scale", [0.0, -20.0, math.nan])
    def test_bad_d_scale_rejected(self, d_scale):
        with pytest.raises(ValueError):
            place_chargers(line_graph([10.0]), [1.0, 1.0], k=1, d_scale=d_scale)


class TestScorePlacement:
    def test_zero_when_sampling_at_station(self):
        g = line_graph([10.0, 10.0])
        res = place_chargers(g, [0.0, 5.0, 0.0], k=1)
        samples = [sample_at_xy(0, 10.0, 0.0)]
        assert score_placement(res, samples, g) == 0.0

    def test_mean_detour(self):
        g = line_graph([10.0, 10.0])
        res = place_chargers(g, [0.0, 5.0, 0.0], k=1)
        samples = [sample_at_xy(0, 0.0, 0.0), sample_at_xy(1, 20.0, 0.0)]
        # node 0 -> station 10 m forward; node 2 <- station 10 m (min direction)
        assert score_placement(res, samples, g) == pytest.approx(10.0)


class TestWriters:
    def test_heatmap_text(self):
        grid = HeatmapGrid(0.0, 0.0, 2.0, 2, 2, [[1, 0], [0, 3]])
        buf = io.StringIO()
        write_heatmap(grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "heatmap v1 0 0 2 2 2"
        assert lines[1:] == ["1 0", "0 3"]

    def test_nonzero_csv(self):
        grid = HeatmapGrid(0.0, 0.0, 2.0, 2, 2, [[1, 0], [0, 3]])
        buf = io.StringIO()
        write_heatmap_nonzero_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "cell_x,cell_y,center_x,center_y,count"
        assert lines[1] == "0,0,1,1,1"
        assert lines[2] == "1,1,3,3,3"

    def test_placement_csv(self):
        g = line_graph([10.0, 10.0])
        res = place_chargers(g, [0.0, 5.0, 0.0], k=1)
        buf = io.StringIO()
        write_placement_csv(res, g, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "round,node_id,x,y,score"
        assert lines[1].startswith("0,1,10,0,")
