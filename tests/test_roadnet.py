import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import enumerate_shortest, line_graph, one_way_pair_graph, random_graph, square_graph
from forkfleet.roadnet import (DanglingReference, EmptyGraph, Edge, FormatError,
                               InvalidNode, NonPositiveLength, ParkingSpot, RoadGraph,
                               RoadNetError, SelfLoop, Waypoint, astar, build_graph,
                               dijkstra, load_roadnet, nearest_node, save_roadnet)


class TestBuildGraph:
    def test_minimal(self):
        g = build_graph([Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, 0)],
                        [Edge(0, 1, 5.0, 2.0, True)])
        assert len(g.adjacency[0]) == 1
        assert len(g.adjacency[1]) == 0

    def test_dangling_edge(self):
        wps = [Waypoint(i, i, 0, 0) for i in range(3)]
        with pytest.raises(DanglingReference):
            build_graph(wps, [Edge(0, 7, 1.0, 1.0, True)])

    def test_square_adjacency(self):
        g = square_graph()
        # each node: one outgoing edge along each adjacent side
        assert all(len(adj) == 2 for adj in g.adjacency)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph([Waypoint(0, 0, 0, 0)], [Edge(0, 0, 1.0, 1.0, True)])

    def test_non_positive_length(self):
        wps = [Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, 0)]
        with pytest.raises(NonPositiveLength):
            build_graph(wps, [Edge(0, 1, 0.0, 1.0, True)])

    def test_length_shorter_than_chord(self):
        wps = [Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, 0)]
        with pytest.raises(NonPositiveLength):
            build_graph(wps, [Edge(0, 1, 4.0, 1.0, True)])

    def test_spot_on_missing_edge(self):
        wps = [Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, 0)]
        with pytest.raises(DanglingReference):
            build_graph(wps, [Edge(0, 1, 5.0, 1.0, True)], [ParkingSpot(0, 1, 0, 2.0)])

    def test_duplicate_spot_id(self):
        wps = [Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, 0)]
        spots = [ParkingSpot(3, 0, 1, 1.0), ParkingSpot(3, 0, 1, 4.0)]
        with pytest.raises(RoadNetError, match="two spots with id 3"):
            build_graph(wps, [Edge(0, 1, 5.0, 1.0, True)], spots)

    @pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
    def test_non_finite_heading(self, heading):
        with pytest.raises(RoadNetError, match="at node 1"):
            build_graph([Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, heading)],
                        [Edge(0, 1, 5.0, 1.0, True)])

    @pytest.mark.parametrize("limit", [0.0, -1.0, math.nan, math.inf])
    def test_speed_limit_not_finite_and_positive(self, limit):
        wps = [Waypoint(0, 0, 0, 0), Waypoint(1, 5, 0, 0)]
        with pytest.raises(RoadNetError, match="speed limit"):
            build_graph(wps, [Edge(0, 1, 5.0, limit, True)])

    def test_empty_bounding_box(self):
        with pytest.raises(EmptyGraph):
            build_graph([], []).bounding_box()


@st.composite
def bounded_row_cases(draw):
    """(graph, source, limit) over random_graph seeds. Some graphs get
    integer lengths on a small extent, so many distances tie, some of them
    exactly at the limit; limits include 0, inf, integers and entries of
    the full row itself."""
    n = draw(st.integers(1, 25))
    g = random_graph(seed=draw(st.integers(0, 10**6)), n_nodes=n,
                     extent=draw(st.sampled_from([5.0, 100.0])))
    if draw(st.booleans()):  # ceil keeps every length >= its chord
        g = build_graph(g.waypoints, [Edge(e.src, e.dst, float(math.ceil(e.length)),
                                           e.speed_limit) for e in g.edges])
    src = draw(st.integers(0, n - 1))
    limit = draw(st.one_of(st.sampled_from([0.0, math.inf]), st.integers(0, 30).map(float),
                           st.floats(0.0, 300.0), st.sampled_from(dijkstra(g, src))))
    return g, src, limit


class TestDijkstra:
    def test_src_is_zero(self):
        g = square_graph()
        assert dijkstra(g, 2)[2] == 0.0

    def test_line_sum(self):
        g = line_graph([3.0, 4.0])
        assert dijkstra(g, 0)[2] == 7.0

    def test_unreachable_is_inf(self):
        g = line_graph([3.0, 4.0])
        assert math.isinf(dijkstra(g, 2)[0])

    def test_invalid_node(self):
        with pytest.raises(InvalidNode):
            dijkstra(square_graph(), 99)

    def test_matches_path_enumeration(self):
        g = random_graph(seed=13, n_nodes=12)
        d = dijkstra(g, 0)
        for dst in range(12):
            assert d[dst] == pytest.approx(enumerate_shortest(g, 0, dst), rel=1e-12)

    def test_triangle_inequality(self):
        g = random_graph(seed=5, n_nodes=15)
        dist = [dijkstra(g, s) for s in range(15)]
        rnd = random.Random(2)
        for _ in range(200):
            a, b, c = rnd.randrange(15), rnd.randrange(15), rnd.randrange(15)
            assert dist[a][c] <= dist[a][b] + dist[b][c] + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(bounded_row_cases())
    def test_bounded_row_is_cut_full_row(self, case):
        g, src, limit = case
        full = dijkstra(g, src)
        cut = [d if d <= limit else math.inf for d in full]
        assert dijkstra(g, src, limit) == cut  # == on floats: the same bits


class TestAstar:
    def test_identity(self):
        g = square_graph()
        p = astar(g, 1, 1)
        assert p.nodes == (1,) and p.total_length == 0.0

    def test_one_way_routes_around(self):
        g = one_way_pair_graph()
        fwd = astar(g, 0, 1)
        back = astar(g, 1, 0)
        assert fwd.total_length == 10.0
        assert back.nodes == (1, 2, 0)
        assert back.total_length == 20.0

    def test_unreachable_returns_none(self):
        g = line_graph([3.0])
        assert astar(g, 1, 0) is None

    def test_matches_dijkstra_on_random_pairs(self):
        g = random_graph(seed=77, n_nodes=30)
        rnd = random.Random(4)
        dist_cache = {}
        for _ in range(100):
            s, d = rnd.randrange(30), rnd.randrange(30)
            if s not in dist_cache:
                dist_cache[s] = dijkstra(g, s)
            p = astar(g, s, d)
            if p is None:
                assert math.isinf(dist_cache[s][d])
            else:
                assert p.total_length == dist_cache[s][d]

    def test_path_edges_exist(self):
        g = random_graph(seed=8, n_nodes=20)
        p = astar(g, 0, 19)
        total = 0.0
        for a, b in zip(p.nodes, p.nodes[1:]):
            e = g.edge_between(a, b)
            assert e is not None
            total += e.length
        assert p.total_length == pytest.approx(total, rel=1e-12)

    def test_lexicographic_tiebreak(self):
        # two equal-length routes 0->1->3 and 0->2->3; smaller sequence wins
        wps = [Waypoint(0, 0, 0, 0), Waypoint(1, 1, 1, 0),
               Waypoint(2, 1, -1, 0), Waypoint(3, 2, 0, 0)]
        L = math.sqrt(2.0)
        edges = [Edge(0, 1, L, 1, True), Edge(0, 2, L, 1, True),
                 Edge(1, 3, L, 1, True), Edge(2, 3, L, 1, True)]
        g = build_graph(wps, edges)
        assert astar(g, 0, 3).nodes == (0, 1, 3)


class TestNearestNode:
    def test_exact_hit(self):
        g = square_graph()
        assert nearest_node(g, 10, 10) == 2

    def test_tie_breaks_to_smaller_id(self):
        g = line_graph([10.0])
        assert nearest_node(g, 5.0, 3.0) == 0

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            nearest_node(RoadGraph([], [], [], []), 0, 0)

    def test_matches_linear_scan(self):
        g = random_graph(seed=3, n_nodes=40)
        rnd = random.Random(9)
        for _ in range(1000):
            x, y = rnd.uniform(-10, 110), rnd.uniform(-10, 110)
            best = min(range(40),
                       key=lambda i: ((g.waypoints[i].x - x) ** 2 + (g.waypoints[i].y - y) ** 2, i))
            assert nearest_node(g, x, y) == best


def scan_nearest(g, x, y):
    """Reference: the linear scan over every waypoint that the grid replaced."""
    best_i, best_d = 0, math.inf
    for w in g.waypoints:
        d = (w.x - x) ** 2 + (w.y - y) ** 2
        if d < best_d:
            best_d, best_i = d, w.node
    return best_i


# small integers give duplicate nodes, exact ties and queries on cell borders
COORD = st.one_of(st.integers(-6, 6).map(float), st.floats(-300.0, 300.0))
FAR = st.floats(-1e6, 1e6)
NON_FINITE = [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
              (-math.inf, math.inf), (math.nan, math.inf)]


@st.composite
def snap_cases(draw):
    """(graph, queries): random, single-node, one-row and one-column graphs
    (zero-height or zero-width bbox); queries in and around the bbox, far
    outside it and at exact midpoints between two nodes."""
    shape = draw(st.sampled_from(["random", "single", "row", "column"]))
    n = 1 if shape == "single" else draw(st.integers(1, 40))
    pts = [(draw(COORD), draw(COORD)) for _ in range(n)]
    if shape == "row":
        pts = [(x, pts[0][1]) for x, _ in pts]
    elif shape == "column":
        pts = [(pts[0][0], y) for _, y in pts]
    g = build_graph([Waypoint(i, x, y, 0.0) for i, (x, y) in enumerate(pts)], [])
    queries = [(draw(COORD), draw(COORD)) for _ in range(10)]
    queries += [(draw(FAR), draw(FAR)) for _ in range(4)]
    for _ in range(6):
        (ax, ay), (bx, by) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        queries.append(((ax + bx) / 2, (ay + by) / 2))
    return g, queries


class TestNearestNodeGrid:
    @settings(max_examples=400, deadline=None)
    @given(snap_cases())
    def test_matches_linear_scan(self, case):
        g, queries = case
        for x, y in queries:
            assert nearest_node(g, x, y) == scan_nearest(g, x, y), (x, y)
        for x, y in NON_FINITE:
            assert nearest_node(g, x, y) == scan_nearest(g, x, y) == 0

    def test_index_built_once(self):
        g = random_graph(seed=5, n_nodes=30)
        assert g.snap_index is None
        nearest_node(g, 1.0, 2.0)
        index = g.snap_index
        nearest_node(g, 50.0, 60.0)
        assert g.snap_index is index

    def test_non_finite_query_before_index(self):
        g = random_graph(seed=5, n_nodes=30)
        assert nearest_node(g, math.nan, 1.0) == 0


class TestNativeFormat:
    def test_round_trip(self, warehouse):
        buf = io.StringIO()
        save_roadnet(warehouse, buf)
        buf.seek(0)
        g2 = load_roadnet(buf)
        assert g2.n_nodes() == warehouse.n_nodes()
        assert len(g2.edges) == len(warehouse.edges)
        assert len(g2.spots) == len(warehouse.spots)
        for a, b in zip(warehouse.waypoints, g2.waypoints):
            assert (a.x, a.y) == pytest.approx((b.x, b.y), abs=1e-9)

    def test_missing_header(self):
        with pytest.raises(FormatError):
            load_roadnet(io.StringIO("node 0 0 0 0\n"))

    def test_bad_record(self):
        with pytest.raises(FormatError):
            load_roadnet(io.StringIO("roadnet v1\nnode zero 0 0 0\n"))
