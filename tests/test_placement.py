import dataclasses
import io
import itertools
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_graph, random_graph, score_placement, top_decile_cells
from forkfleet import ConfigError, check_ranges, placement
from forkfleet.mapgen import warehouse_map
from forkfleet.placement import (MAX_CELLS, HeatmapGrid, PlacementConfig,
                                 heatmap_for_graph, place_chargers,
                                 visit_weights, write_heatmap,
                                 write_heatmap_nonzero_csv, write_placement_csv)
from forkfleet.roadnet import Edge, Waypoint, build_graph, dijkstra
from forkfleet.trajectory import TrajectorySample


def sample_at_xy(t, x, y, vid=0):
    return TrajectorySample(t, vid, x, y, 0.0, 1.0, 0.0, 0.0, 1.0)


def nodes_at(*points):
    """A graph of nodes at points and no edges: its heatmap grid starts 2 m
    below and left of the nodes' bounding box and ends 2 m past it."""
    return build_graph([Waypoint(x, y, 0.0) for x, y in points], [])


class TestHeatmap:
    def test_counts_and_conservation(self):
        # a 2 x 2 grid of 2 m cells from (0, 0)
        samples = [sample_at_xy(i, x, y) for i, (x, y) in
                   enumerate([(0.5, 0.5), (0.7, 0.3), (3.0, 3.0), (-1.0, 0.0)])]
        grid = heatmap_for_graph(samples, nodes_at((2.0, 2.0)), 2.0)
        assert (grid.origin_x, grid.origin_y, grid.width, grid.height) == (0.0, 0.0, 2, 2)
        assert grid.counts[0][0] == 2
        assert grid.counts[1][1] == 1
        assert grid.overflow == 1
        assert sum(map(sum, grid.counts)) + grid.overflow == len(samples)

    def test_cell_boundary_goes_right(self):
        # a 2 x 1 grid from (0, 0); its 4 m margin makes a row of 4 m cells
        grid = heatmap_for_graph([sample_at_xy(0, 4.0, 0.0)], nodes_at((2.0, 2.0), (6.0, 2.0)),
                                 4.0)
        assert (grid.origin_x, grid.origin_y, grid.width, grid.height) == (0.0, 0.0, 2, 1)
        assert grid.counts[0][1] == 1

    def test_quotient_past_the_float_range_overflows(self):
        # (1e308 - -1e308) / 1e302 is inf: outside the grid, not an error;
        # -0.0 cells from the origin is cell 0, as floor gave it
        g = nodes_at((-1e308, 2.0), (0.0, 2.0))
        samples = [sample_at_xy(0, 1e308, 0.0), sample_at_xy(1, -1e308, -0.0)]
        grid = heatmap_for_graph(samples, g, 1e302)
        assert (grid.origin_x, grid.origin_y, grid.width, grid.height) == (-1e308, 0.0,
                                                                           1_000_000, 1)
        assert grid.overflow == 1
        assert grid.counts[0][0] == 1

    def test_degenerate_grid(self):
        # 2^63 x 2 cells: raised before a row too long to index is asked for
        assert (2.0 ** 64 + 4) / 2 == sys.maxsize + 1
        with pytest.raises(ConfigError, match=r"^cell_size 2.0 makes a grid of "
                                              r"9.22337203685e\+18 x 2 cells, more than"):
            heatmap_for_graph([], nodes_at((0.0, 0.0), (2.0 ** 64, 0.0)), 2.0)

    def test_cell_cap(self):
        # 10,010,000 cells: refused before a row is made; 10,000,000 are drawn
        assert 10_000 * 1_000 == MAX_CELLS
        with pytest.raises(ConfigError, match=f"^cell_size 1.0 makes a grid of 10000 x 1001 "
                                              f"cells, more than {MAX_CELLS} once each side "
                                              f"is rounded up$"):
            heatmap_for_graph([], nodes_at((0.0, 0.0), (9_996.0, 997.0)), 1.0)
        grid = heatmap_for_graph([], nodes_at((0.0, 0.0), (9_996.0, 996.0)), 1.0)
        assert (grid.width, grid.height, len(grid.counts), len(grid.counts[0])) == (
            10_000, 1_000, 1_000, 10_000)

    def test_for_graph_covers_all_nodes(self):
        g = random_graph(seed=1, n_nodes=25)
        samples = [sample_at_xy(i, w.x, w.y) for i, w in enumerate(g.waypoints)]
        grid = heatmap_for_graph(samples, g, cell_size=2.0)
        assert grid.overflow == 0
        assert sum(map(sum, grid.counts)) == 25

    def test_top_decile(self):
        counts = [[0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 9, 10]]
        grid = HeatmapGrid(0, 0, 1.0, 4, 3, counts)
        # 11 nonzero cells; 90th percentile index ceil(0.9*11)-1 = 9 -> value 9
        assert set(top_decile_cells(grid)) == {(2, 2), (3, 2)}

    def test_top_decile_empty(self):
        grid = HeatmapGrid(0, 0, 1.0, 2, 2, [[0, 0], [0, 0]])
        assert top_decile_cells(grid) == []


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
        # refused where it enters, by PlacementConfig's range
        with pytest.raises(ConfigError, match="k must be finite and >= 1, got 0"):
            check_ranges(PlacementConfig(k=0))

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
        edges.append(Edge(a, b, length, 3.0))
        if draw(st.booleans()) and (b, a) not in seen:  # two-way
            seen.add((b, a))
            edges.append(Edge(b, a, length, 3.0))
    g = build_graph([Waypoint(float(x), float(y), 0.0) for x, y in pts],
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
        edges = [Edge(a, b, 1e-8, 3.0) for leaf in (1, 2, 3)
                 for a, b in ((0, leaf), (leaf, 0))]
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
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
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
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
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
        w = [1.0, 0.0, 1.0, 1.0]
        for k in (1, 2):
            res = place_chargers(g, w, k, 0.5, 3.0)
            assert res.stations[0] == 1
            assert (res.stations, res.scores) == eager_place_chargers(g, w, k, 0.5, 3.0)

    def test_rows_only_where_needed(self, monkeypatch):
        g = warehouse_map()
        n = g.n_nodes()
        w = [1.0 + i % 3 if i % 6 == 0 else 0.0 for i in range(n)]  # sparse

        def sources_of(graph):
            sources = []

            def counted(graph, src):
                sources.append(src)
                return dijkstra(graph, src)

            monkeypatch.setattr(placement, "dijkstra", counted)
            res = place_chargers(graph, w, k=4, min_separation=15.0, d_scale=20.0)
            assert len(res.stations) == 4
            assert (res.stations, res.scores) == eager_place_chargers(graph, w, 4, 15.0,
                                                                     20.0)
            return sources

        # lengths of a tenth of a meter more are no sums of powers of two, so
        # exact_sums fails and every row is its own Dijkstra
        inexact = build_graph(g.waypoints, [dataclasses.replace(e, length=e.length + 0.1)
                                            for e in g.edges])
        assert g.exact_sums and not inexact.exact_sums
        sources = sources_of(inexact)
        # every weighted node's row, once each, but not every node's
        assert {u for u in range(n) if w[u]} <= set(sources)
        assert len(set(sources)) == len(sources) < n
        # on exact sums a row along a single-exit chain comes from its
        # anchor's, so fewer Dijkstras run
        assert len(sources_of(g)) < len(sources)
        # every node weighted: one Dijkstra at each node without exactly one
        # real way on, and every other row derived
        w = [1.0 + i % 3 for i in range(n)]
        sources = sources_of(g)
        assert sorted(sources) == [u for u in range(n) if len(real_ways(g, u)) != 1]
        assert len(sources) < n

    def test_larger_graph_matches_eager_scan(self):
        g = random_graph(seed=8, n_nodes=40)
        w = [float(i % 4) for i in range(40)]
        res = place_chargers(g, w, k=6, min_separation=20.0, d_scale=20.0)
        assert len(res.stations) == 6
        assert (res.stations, res.scores) == eager_place_chargers(g, w, 6, 20.0, 20.0)

    @pytest.mark.parametrize("d_scale", [0.0, -20.0, math.nan])
    def test_bad_d_scale_rejected(self, d_scale):
        # refused where it enters, by PlacementConfig's range
        with pytest.raises(ConfigError, match="d_scale must be finite and > 0"):
            check_ranges(PlacementConfig(d_scale=d_scale))


@st.composite
def chain_graphs(draw, exact=True):
    """(graph, weights) on up to 12 lattice points where most nodes have one
    out-edge: chains, cycles of one-out-edge nodes, two parallel edges,
    nodes with none and nodes no edge reaches. Lengths are whole or half
    meters, so exact_sums holds, or with exact=False each has 0.1 m added,
    which breaks it."""
    n = draw(st.integers(1, 12))
    pts = [(draw(st.integers(0, 6)), draw(st.integers(0, 6))) for _ in range(n)]
    edges = []
    for a in range(n):
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])) if n > 1 else 0):
            b = draw(st.integers(0, n - 1).filter(lambda b: b != a))
            chord = math.hypot(pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])
            length = max(1, math.ceil(chord)) + draw(st.integers(0, 3)) / 2
            edges.append(Edge(a, b, length + (0.0 if exact else 0.1), 3.0))
        if draw(st.booleans()) and edges and edges[-1].src == a:  # a parallel twin
            edges.append(edges[-1])
    g = build_graph([Waypoint(float(x), float(y), 0.0) for x, y in pts],
                    edges)
    weights = [draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e-300])) for _ in range(n)]
    return g, weights


def real_ways(g, c):
    """c's out-edges that are not dead-end spurs, an edge c -> s being one
    when s's only out-edge leads back to c and no other edge enters s."""
    into = [e.dst for e in g.edges]
    return [e for e in g.adjacency[c]
            if not ([b.dst for b in g.adjacency[e.dst]] == [c] and into.count(e.dst) == 1)]


def hexes(row):
    return [d.hex() for d in row]


class TestChainRows:
    @settings(max_examples=150, deadline=None)
    @given(chain_graphs(), st.data())
    def test_derived_rows_are_dijkstras(self, case, data):
        # some rows first, in one call, then the rest one by one in a drawn
        # order, each free to stop at a node that has a row and to start
        # from an anchor's row an earlier call made; no source runs twice
        g, _ = case
        n = g.n_nodes()
        assert g.exact_sums
        first = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        rest = data.draw(st.permutations(range(n)))
        sources = []

        def counted(graph, src):
            sources.append(src)
            return dijkstra(graph, src)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(placement, "dijkstra", counted)
            rows = {}
            placement._fill_rows(g, rows, first)
            for u in rest:
                if u not in rows:
                    placement._fill_rows(g, rows, [u])
        assert len(sources) == len(set(sources))
        assert sorted(rows) == list(range(n))
        for u in range(n):
            assert hexes(rows[u]) == hexes(dijkstra(g, u))

    def test_parallel_edges_are_two_out_edges(self, monkeypatch):
        # 0 has two edges to 1, so its row is its own Dijkstra; 2 -> 0 derives
        g = build_graph([Waypoint(float(i), 0.0, 0.0) for i in range(3)],
                        [Edge(0, 1, 1.0, 3.0), Edge(0, 1, 2.0, 3.0), Edge(2, 0, 2.0, 3.0)])
        sources = []
        monkeypatch.setattr(placement, "dijkstra",
                            lambda graph, src: sources.append(src) or dijkstra(graph, src))
        rows = {}
        placement._fill_rows(g, rows, [2])
        assert sources == [0] and sorted(rows) == [0, 2]  # the anchor's row is kept too
        assert list(rows[0]) == [0.0, 1.0, math.inf]
        assert list(rows[2]) == [2.0, 3.0, 0.0]

    def test_popped_nodes_share_their_anchors_rows(self, monkeypatch):
        # every sixth node weighted: without the kept anchor rows, sources 13,
        # 22 and 31 would run again at later pops, 15 Dijkstras for 11 sources
        g = warehouse_map()
        w = [1.0 if u % 6 == 0 else 0.0 for u in range(g.n_nodes())]
        sources = []
        monkeypatch.setattr(placement, "dijkstra",
                            lambda graph, src: sources.append(src) or dijkstra(graph, src))
        res = place_chargers(g, w, 4, 15.0, 20.0)
        assert res.stations == [11, 24, 18, 6]
        assert len(sources) == len(set(sources)) == 11
        assert (res.stations, res.scores) == eager_place_chargers(g, w, 4, 15.0, 20.0)

    def test_a_cycle_closes_at_its_first_repeat(self):
        # 3 -> 0 -> 1 -> 2 -> 0: 3's walk closes at 0, whose row anchors it
        g = build_graph([Waypoint(float(i), 0.0, 0.0) for i in range(4)],
                        [Edge(0, 1, 1.0, 3.0), Edge(1, 2, 1.0, 3.0), Edge(2, 0, 2.0, 3.0),
                         Edge(3, 0, 3.0, 3.0)])
        rows = {}
        placement._fill_rows(g, rows, [3, 1])
        assert list(rows[3]) == [3.0, 4.0, 5.0, 0.0]
        assert list(rows[1]) == [3.0, 0.0, 1.0, math.inf]

    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(lambda exact: chain_graphs(exact)),
           st.integers(1, 4), st.sampled_from([0.0, 1.0, 2.5, 6.0]),
           st.sampled_from([1e-6, 1.0, 20.0]))
    def test_matches_eager_scan(self, case, k, min_sep, d_scale):
        g, w = case
        res = place_chargers(g, w, k, min_sep, d_scale)
        assert (res.stations, res.scores) == eager_place_chargers(g, w, k, min_sep, d_scale)


@st.composite
def spur_graphs(draw, exact=True):
    """(graph, weights, spur starts) on up to 8 street nodes, a chain of
    one-out-edge nodes, which may close into a ring with a tail, with a few
    extra edges, each carrying 0-2 parking spurs c -> s -> c. Some would-be spurs are spoiled: a second edge
    into s, a parallel c -> s or s -> c edge, or a second edge out of s.
    Lengths are whole or half meters, so exact_sums holds, or with
    exact=False each has 0.1 m added. Spur starts are the spur nodes, drawn
    in an order, to start walks from before any other node."""
    n = draw(st.integers(1, 8))
    pts = [(draw(st.integers(0, 6)), draw(st.integers(0, 6))) for _ in range(n)]
    pairs = [(a, a + 1) for a in range(n - 1)]
    if n > 1 and draw(st.booleans()):  # a ring from node j, 0..j-1 its tail
        pairs.append((n - 1, draw(st.integers(0, n - 2))))
    for a in range(n):
        if n > 1 and draw(st.integers(0, 3)) == 0:
            pairs.append((a, draw(st.integers(0, n - 1).filter(lambda b: b != a))))
    spur_nodes = []
    for c in range(n):
        for _ in range(draw(st.integers(0, 2))):
            sn = len(pts)
            pts.append((draw(st.integers(0, 6)), draw(st.integers(0, 6))))
            pairs += [(c, sn), (sn, c)]
            spur_nodes.append(sn)
            spoil = draw(st.sampled_from([None, None, None, "in", "twin", "twin back", "out"]))
            if spoil == "twin":
                pairs.append((c, sn))
            elif spoil == "twin back":
                pairs.append((sn, c))
            elif spoil in ("in", "out") and n > 1:
                other = draw(st.integers(0, n - 1).filter(lambda b: b != c))
                pairs.append((other, sn) if spoil == "in" else (sn, other))
    edges = []
    for a, b in pairs:
        chord = math.hypot(pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])
        length = max(1, math.ceil(chord)) + draw(st.integers(0, 3)) / 2
        edges.append(Edge(a, b, length + (0.0 if exact else 0.1), 3.0))
    g = build_graph([Waypoint(float(x), float(y), 0.0) for x, y in pts],
                    edges)
    weights = [draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e-300])) for _ in pts]
    return g, weights, draw(st.permutations(spur_nodes))


class TestSpurRows:
    """Chain walks go on past dead-end parking spurs; every row they derive
    must be Dijkstra's, bit for bit, and the placement the eager scan's."""

    @settings(max_examples=200, deadline=None)
    @given(spur_graphs(), st.data())
    def test_derived_rows_are_dijkstras(self, case, data):
        # the spur nodes start walks first, then every other node in a drawn
        # order; no source runs twice
        g, _, starts = case
        n = g.n_nodes()
        assert g.exact_sums
        sources = []

        def counted(graph, src):
            sources.append(src)
            return dijkstra(graph, src)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(placement, "dijkstra", counted)
            rows = {}
            for u in starts + data.draw(st.permutations(range(n))):
                if u not in rows:
                    placement._fill_rows(g, rows, [u])
        assert len(sources) == len(set(sources))
        assert sorted(rows) == list(range(n))
        for u in range(n):
            assert hexes(rows[u]) == hexes(dijkstra(g, u))

    def test_walks_pass_dead_end_spurs(self, monkeypatch):
        # street 0 -> 1 -> 2, spurs 3 off 0, 4 off 1 and 5 off 2, whose only
        # out-edge is its spur: a walk from spur node 3 runs to 2, the one
        # Dijkstra; spur 6 off 0 with a second in-edge 2 -> 6 is a way on,
        # and so is a twin 1 -> 4, each making its node an anchor of its own
        pts = [(0, 0), (10, 0), (20, 0), (0, 5), (10, 5), (20, 5), (0, -5)]
        street = [Edge(0, 1, 10.0, 3.0), Edge(1, 2, 10.0, 3.0)]
        spurs = [Edge(a, b, 5.0, 3.0) for c, s in ((0, 3), (1, 4), (2, 5))
                 for a, b in ((c, s), (s, c))]
        wps = [Waypoint(float(x), float(y), 0.0) for x, y in pts]
        sources = []
        monkeypatch.setattr(placement, "dijkstra",
                            lambda graph, src: sources.append(src) or dijkstra(graph, src))
        g = build_graph(wps, street + spurs)
        rows = {}
        placement._fill_rows(g, rows, [3])
        assert sources == [2] and sorted(rows) == [2, 3]
        assert list(rows[3]) == [5.0, 15.0, 25.0, 0.0, 20.0, 30.0, math.inf]
        for extra, anchor in (([Edge(0, 6, 5.0, 3.0), Edge(6, 0, 5.0, 3.0),
                                Edge(2, 6, 25.0, 3.0)], 0),
                              ([Edge(1, 4, 6.0, 3.0)], 1)):
            g = build_graph(wps, street + spurs + extra)
            sources.clear()
            rows = {}
            placement._fill_rows(g, rows, [3])
            assert sources == [anchor]
            assert hexes(rows[3]) == hexes(dijkstra(g, 3))

    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(lambda exact: spur_graphs(exact)),
           st.integers(1, 4), st.sampled_from([0.0, 1.0, 2.5, 6.0]),
           st.sampled_from([1e-6, 1.0, 20.0]))
    def test_matches_eager_scan(self, case, k, min_sep, d_scale):
        g, w, _ = case
        res = place_chargers(g, w, k, min_sep, d_scale)
        assert (res.stations, res.scores) == eager_place_chargers(g, w, k, min_sep, d_scale)


def first_scores(graph, weights, d_scale):
    """Every node's round-one score, summed as the eager scan sums it."""
    n = graph.n_nodes()
    rows = [dijkstra(graph, u) for u in range(n)]
    scores = []
    for node in range(n):
        total = 0.0
        for u in range(n):
            d = min(rows[u][node], rows[node][u])
            if weights[u] != 0.0 and math.isfinite(d):
                total += weights[u] / (1.0 + d / d_scale)
        scores.append(total)
    return scores


def keys_and_bounds(graph, weights, d_scale):
    """(cell keys, coordinate bounds) of every node, set up as place_chargers
    sets them up."""
    f = graph.path_factor
    xy = [(p.x, p.y) if f else (0.0, 0.0) for p in graph.waypoints]
    points = [(*xy[u], w) for u, w in enumerate(weights) if w != 0.0]
    keys = placement._cell_keys(xy, points, f, d_scale, range(graph.n_nodes()))
    bounds = []
    for x, y in xy:
        total = 0.0
        for ux, uy, w in points:
            total += w / (1.0 + f * math.hypot(ux - x, uy - y) / d_scale)
        bounds.append(total)
    return keys, bounds


class TestCellKeys:
    @settings(max_examples=150, deadline=None)
    @given(placement_cases())
    def test_key_bounds_the_coordinate_bound(self, case):
        g, weights, _, _, d_scale = case
        if not any(weights):
            return
        keys, bounds = keys_and_bounds(g, weights, d_scale)
        scores = first_scores(g, weights, d_scale)
        assert all(key >= b >= s for key, b, s in zip(keys, bounds, scores))

    def test_slack_covers_the_regrouped_sum(self):
        # three weights at one point, 0.07 m from the node: summed first and
        # divided once they round below the bound's three quotients summed
        xy = [(0.0, 0.0)] * 3 + [(0.07, 0.0)]
        points = [(0.0, 0.0, w) for w in (1.1, 0.7, 0.2)]
        bound = 0.0
        for _, _, w in points:
            bound += w / (1.0 + math.hypot(0.0 - 0.07, 0.0) / 3.0)
        assert (1.1 + 0.7 + 0.2) / (1.0 + 0.07 * placement._SHRINK / 3.0) < bound
        assert placement._cell_keys(xy, points, 1.0, 3.0, [3])[0] >= bound

    def test_map_too_wide(self):
        # f = 0: every node at one point, so each key is the weight sum
        # (with its slack); the 2e308 m extent is never subtracted
        pts = [(-1e308, 0.0), (1e308, 0.0), (0.0, 0.0)]
        edges = [Edge(0, 2, 1e308, 3.0), Edge(2, 0, 1e308, 3.0),
                 Edge(1, 2, 1e308, 3.0), Edge(2, 1, 1e308, 3.0)]
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
        assert g.path_factor == 0.0
        w = [1.0, 2.0, 0.0]
        keys, bounds = keys_and_bounds(g, w, 20.0)
        assert bounds == [3.0] * 3
        assert all(3.0 < key < 3.0 + 1e-12 for key in keys)

    def test_map_too_small(self):
        pts = [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)]
        edges = [Edge(a, b, 1.0, 3.0) for a in range(3) for b in range(3) if a != b]
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
        assert g.path_factor == 0.0
        w = [1.0, 0.0, 4.0]
        keys, bounds = keys_and_bounds(g, w, 3.0)
        scores = first_scores(g, w, 3.0)
        assert all(key >= b >= s for key, b, s in zip(keys, bounds, scores))
        assert place_chargers(g, w, 2, 0.5, 3.0).stations == \
            eager_place_chargers(g, w, 2, 0.5, 3.0)[0]

    def test_weight_sums_that_overflow(self):
        # two weights of 1e308 at one point, so in one cell, sum to inf, and
        # so does every key. Over a subnormal d_scale the far nodes'
        # denominator is inf as well, and inf / inf must not make a key nan
        pts = [(0.0, 0.0), (0.0, 0.0), (1e6, 0.0), (1e6 + 1.0, 0.0)]
        edges = [Edge(a, b, length, 3.0) for a, b, length in
                 ((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1e6), (2, 1, 1e6), (2, 3, 1.0), (3, 2, 1.0))]
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
        w = [1e308, 1e308, 0.0, 0.0]
        for d_scale in (20.0, 5e-324):
            keys, bounds = keys_and_bounds(g, w, d_scale)
            assert keys == [math.inf] * 4
            assert all(b >= s for b, s in zip(bounds, first_scores(g, w, d_scale)))
            res = place_chargers(g, w, 2, 1.0, d_scale)
            assert (res.stations, res.scores) == eager_place_chargers(g, w, 2, 1.0, d_scale)

    def test_node_inside_a_cell_box(self):
        # node 4 sits inside the box of the four weighted corners, which
        # share one cell: its box distance is 0, so its term is their sum
        pts = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), (1.0, 1.0)]
        edges = [e for a in range(4) for e in (Edge(a, 4, 2.0, 3.0), Edge(4, a, 2.0, 3.0))]
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
        w = [1.0, 2.0, 3.0, 4.0, 0.0]
        keys, bounds = keys_and_bounds(g, w, 20.0)
        assert 10.0 < keys[4] < 10.0 + 1e-12
        assert keys[4] >= bounds[4] >= first_scores(g, w, 20.0)[4]
        res = place_chargers(g, w, 1, 0.0, 20.0)
        assert res.stations == [4]
        assert (res.stations, res.scores) == eager_place_chargers(g, w, 1, 0.0, 20.0)


class TestRowMemory:
    def test_rows_are_packed(self):
        # every node weighted, so every node gets an up-front row: n rows of n
        # entries. A packed row holds 8 B an entry plus a 64 B header, so the
        # rows take about 8 n^2 B; a list of floats holds an 8 B pointer and a
        # 24 B float object an entry, at least 32 n^2 B. The bound sits at
        # 16 n^2, between the two, plus a fixed 64 KiB for what grows only
        # with n: the heap of n (key, node) tuples, the weights, the
        # coordinates and one Dijkstra's working lists (about 33 KB together
        # at n = 205).
        g = warehouse_map(nx=8, ny=6, n_spots=32)
        n = g.n_nodes()
        assert 190 <= n <= 210
        w = [1.0 + i % 3 for i in range(n)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = place_chargers(g, w, k=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(res.stations) == 5
        assert peak < 16 * n * n + 64 * 1024


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
