import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (enumerate_shortest, line_graph, one_way_pair_graph, path_length,
                      random_graph, square_graph)
from forkfleet import InputError, mapgen
from forkfleet.odr_import import parse_opendrive_subset, to_road_graph
from forkfleet.roadnet import (Edge, ParkingSpot, Waypoint, _bucket_row, _heap_row,
                               astar, build_graph, dijkstra, load_roadnet, nearest_node,
                               nearest_nodes, save_roadnet, within)


class TestBuildGraph:
    def test_minimal(self):
        g = build_graph([Waypoint(0, 0, 0), Waypoint(5, 0, 0)],
                        [Edge(0, 1, 5.0, 2.0)])
        assert len(g.adjacency[0]) == 1
        assert len(g.adjacency[1]) == 0

    def test_dangling_edge(self):
        wps = [Waypoint(i, 0, 0) for i in range(3)]
        with pytest.raises(InputError, match="edge 0->7 references a missing node"):
            build_graph(wps, [Edge(0, 7, 1.0, 1.0)])

    def test_square_adjacency(self):
        g = square_graph()
        # each node: one outgoing edge along each adjacent side
        assert all(len(adj) == 2 for adj in g.adjacency)

    def test_self_loop(self):
        with pytest.raises(InputError, match="self-loop at node 0"):
            build_graph([Waypoint(0, 0, 0)], [Edge(0, 0, 1.0, 1.0)])

    def test_non_positive_length(self):
        wps = [Waypoint(0, 0, 0), Waypoint(5, 0, 0)]
        with pytest.raises(InputError, match="edge 0->1 has length 0.0"):
            build_graph(wps, [Edge(0, 1, 0.0, 1.0)])

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_non_finite_length(self, length):
        wps = [Waypoint(0, 0, 0), Waypoint(5, 0, 0)]
        with pytest.raises(InputError, match=f"edge 0->1 has length {length}"):
            build_graph(wps, [Edge(0, 1, length, 1.0)])

    def test_length_shorter_than_chord(self):
        wps = [Waypoint(0, 0, 0), Waypoint(5, 0, 0)]
        with pytest.raises(InputError, match="length 4.0 shorter than chord 5.0"):
            build_graph(wps, [Edge(0, 1, 4.0, 1.0)])

    def test_spot_on_missing_edge(self):
        wps = [Waypoint(0, 0, 0), Waypoint(5, 0, 0)]
        with pytest.raises(InputError, match="spot 0 anchors to missing edge 1->0"):
            build_graph(wps, [Edge(0, 1, 5.0, 1.0)], [ParkingSpot(1, 0, 2.0)])

    def test_duplicate_spot_id(self):
        # a spot's id is its index, so load_roadnet refuses the second record of one id
        text = ("roadnet v1\nnode 0 0 0 0\nnode 1 5 0 0\nedge 0 1 5 1 1\n"
                "spot 0 0 1 1\nspot 0 0 1 4\n")
        with pytest.raises(InputError, match="^spot at index 1 carries spot id 0$"):
            load_roadnet(io.StringIO(text))

    @pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
    def test_non_finite_heading(self, heading):
        with pytest.raises(InputError, match="non-finite coordinates or heading at node 1"):
            build_graph([Waypoint(0, 0, 0), Waypoint(5, 0, heading)],
                        [Edge(0, 1, 5.0, 1.0)])

    @pytest.mark.parametrize("limit", [0.0, -1.0, math.nan, math.inf])
    def test_speed_limit_not_finite_and_positive(self, limit):
        wps = [Waypoint(0, 0, 0), Waypoint(5, 0, 0)]
        with pytest.raises(InputError, match="has speed limit"):
            build_graph(wps, [Edge(0, 1, 5.0, limit)])

    def test_empty_bounding_box(self):
        # a graph with no nodes, which would have no bounding box, is refused
        # where it is built, and a map with none where it is loaded
        with pytest.raises(InputError, match="^the map has no nodes$"):
            build_graph([], [])
        with pytest.raises(InputError, match="^the map has no nodes$"):
            load_roadnet(io.StringIO("roadnet v1\n# no records\n"))


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


def cut(row, limit):
    """{node: distance.hex()} of the finite entries of a full row that are
    <= limit; an unreachable node has no entry."""
    return {v: d.hex() for v, d in enumerate(row) if d <= limit and d < math.inf}


def hexed(labels):
    return {v: d.hex() for v, d in labels.items()}


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
        assert hexed(within(g, src, limit)) == cut(dijkstra(g, src), limit)


def coincident_graph(lengths):
    """A chain 0 -> 1 -> ... with the given lengths and every node at the
    origin, so that any length > 0 passes the chord check."""
    waypoints = [Waypoint(0.0, 0.0, 0.0) for _ in range(len(lengths) + 1)]
    return build_graph(waypoints, [Edge(i, i + 1, length, 3.0)
                                   for i, length in enumerate(lengths)])


@st.composite
def row_cases(draw, exact):
    """(graph, source, limit) on 1-15 nodes of a small integer grid with up
    to 4n random one-way edges, so some nodes are unreachable. With `exact`
    the lengths are the chord rounded up plus one of a few multiples of 1/4,
    so many lengths repeat and many distances tie. Otherwise the grid may be
    3 x 3 or one point, so that points coincide, and a length is the chord
    times a random factor in [1, 1.5] plus 1e-9 or plus 1e15-1e20, or,
    between two coincident points, 1e-20-1e-16: below half an ulp of most
    sums, so d + length == d. Limits include 0, inf, integers, random floats
    and entries of the full row itself."""
    n = draw(st.integers(1, 15))
    side = 20 if exact else draw(st.sampled_from([20, 2, 0]))
    pts = [(draw(st.integers(0, side)), draw(st.integers(0, side))) for _ in range(n)]
    edges = []
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4 * n)):
        if a != b:
            chord = math.dist(pts[a], pts[b])
            if exact:
                length = math.ceil(chord) + draw(st.sampled_from([0.25, 1.0, 1.0, 2.5, 5.0]))
            elif chord == 0.0 and draw(st.booleans()):
                length = draw(st.floats(1e-20, 1e-16))
            else:
                length = chord * draw(st.floats(1.0, 1.5)) + draw(st.just(1e-9)
                                                                  | st.floats(1e15, 1e20))
            edges.append(Edge(a, b, length, 3.0))
    g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)
    src = draw(st.integers(0, n - 1))
    full = _heap_row(g._flat_adjacency, src)
    limit = draw(st.one_of(st.sampled_from([0.0, math.inf]), st.integers(0, 40).map(float),
                           st.floats(0.0, 100.0), st.sampled_from(full)))
    return g, src, limit


class TestBucketKernel:
    """On exact-sum graphs dijkstra runs the bucket queue; its rows must be
    the heap kernel's, list == list, so the same floats. The bounded search
    must label the heap row's entries <= limit, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(row_cases(exact=True))
    def test_exact_sum_graphs_match_the_heap_kernel(self, case):
        g, src, limit = case
        assert g.exact_sums
        heap = _heap_row(g._flat_adjacency, src)
        assert dijkstra(g, src) == heap
        assert hexed(within(g, src, limit)) == cut(heap, limit)

    @settings(max_examples=150, deadline=None)
    @given(row_cases(exact=False))
    def test_other_graphs_match_the_heap_kernel(self, case):
        # the bucket kernel too: on any graph each entry is the least
        # left-to-right path sum, whatever order the nodes settle in
        g, src, limit = case
        heap = _heap_row(g._flat_adjacency, src)
        assert dijkstra(g, src) == heap
        bucket = _bucket_row(g._flat_adjacency, src)
        assert [d.hex() for d in bucket] == [d.hex() for d in heap]
        assert hexed(within(g, src, limit)) == cut(heap, limit)

    def test_large_warehouse_map_matches_the_heap_kernel(self):
        g = mapgen.warehouse_map(nx=8, ny=6)
        assert g.exact_sums
        for src in range(0, g.n_nodes(), 17):
            heap = _heap_row(g._flat_adjacency, src)
            assert dijkstra(g, src) == heap
            for limit in (math.inf, 25.0, 0.0):
                assert hexed(within(g, src, limit)) == cut(heap, limit)


ARC_ODR = ('<OpenDRIVE><road id="1" length="15.707963267948966"><planView>'
           '<geometry s="0" x="0" y="0" hdg="0" length="15.707963267948966">'
           '<arc curvature="0.1"/></geometry></planView><lanes><laneSection s="0"><right>'
           '<lane id="-1" type="driving"/></right></laneSection></lanes></road></OpenDRIVE>')


class TestExactSums:
    def test_warehouse_maps(self, warehouse):
        assert warehouse.exact_sums
        assert mapgen.warehouse_map(nx=16, ny=12, n_spots=128).exact_sums

    def test_warehouse_map_after_a_round_trip(self, warehouse):
        buf = io.StringIO()
        save_roadnet(warehouse, buf)
        buf.seek(0)
        assert load_roadnet(buf).exact_sums

    def test_converted_arc_is_not(self):
        g = to_road_graph(parse_opendrive_subset(ARC_ODR), spacing=1.0)
        assert g.n_nodes() > 2 and not g.exact_sums

    def test_no_edges(self):
        assert coincident_graph([]).exact_sums

    @pytest.mark.parametrize("lengths,exact", [
        ([2.0 ** 52, 2.0 ** 52 - 1], True),            # 2^53 - 1 units of 1
        ([2.0 ** 52, 2.0 ** 52], False),               # 2^53 units
        ([2.0 ** 51, 2.0 ** 51 - 0.5], True),          # 2^53 - 1 units of 1/2
        ([2.0 ** 51, 2.0 ** 51 - 0.5, 0.5], False),    # 2^53 units of 1/2
        ([5e-324], True),                              # one unit of 2^-1074
        ([5e-324, 5e-324, 1.0], False),
        ([1e308], False),
        ([1e308, 1e308, 5e-324], False),
    ])
    def test_boundary_and_extreme_lengths(self, lengths, exact):
        g = coincident_graph(lengths)
        assert g.exact_sums is exact
        for src in range(g.n_nodes()):
            assert dijkstra(g, src) == _heap_row(g._flat_adjacency, src)


@st.composite
def sparse_graphs(draw):
    """Graphs of 1-12 nodes on a small integer grid with up to 4n random
    edges, all one-way or all two-way, so some nodes are unreachable.
    Lengths are the chord times [1, 1.5] plus 1e-9, or the chord rounded up
    plus 1, so equal-length routes tie; both keep A*'s heuristic admissible."""
    n = draw(st.integers(1, 12))
    pts = [(draw(st.integers(0, 20)), draw(st.integers(0, 20))) for _ in range(n)]
    two_way, integer = draw(st.booleans()), draw(st.booleans())
    edges, seen = [], set()
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4 * n)):
        for src, dst in ((a, b), (b, a)) if two_way else ((a, b),):
            if src != dst and (src, dst) not in seen:
                seen.add((src, dst))
                chord = math.dist(pts[src], pts[dst])
                length = (math.ceil(chord) + 1.0 if integer
                          else chord * draw(st.floats(1.0, 1.5)) + 1e-9)
                edges.append(Edge(src, dst, length, 3.0))
    return build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)


# an edge's chord on a tie grid is 2.1 give or take a few ulps, so these
# lengths tie, and some fall an ulp or two below the chord
TIE_LENGTHS = (2.1, 2.0999999999999996, 2.1000000000000005)


@st.composite
def tie_grids(draw):
    """Grids of 2-5 x 2-5 nodes whose coordinates are built by adding 2.1
    again and again, from an origin that is itself such a sum, with one-way,
    two-way or no edges between neighbours. Each edge's length is one of
    TIE_LENGTHS, kept wherever build_graph would (>= chord - 1e-6)."""
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    axes = []
    for n in (nx, ny):
        c = 0.0
        for _ in range(draw(st.integers(0, 6))):
            c += 2.1
        axis = [c]
        for _ in range(n - 1):
            axis.append(axis[-1] + 2.1)
        axes.append(axis)
    xs, ys = axes
    pts = [(x, y) for y in ys for x in xs]
    neighbours = ([(i, i + 1) for i in range(len(pts)) if (i + 1) % nx]
                  + [(i, i + nx) for i in range(len(pts) - nx)])
    edges = []
    for i, j in neighbours:
        for src, dst in draw(st.sampled_from([(), ((i, j),), ((j, i),), ((i, j), (j, i))])):
            length = draw(st.sampled_from(TIE_LENGTHS))
            if length >= math.dist(pts[src], pts[dst]) - 1e-6:
                edges.append(Edge(src, dst, length, 3.0))
    return build_graph([Waypoint(x, y, 0.0) for x, y in pts], edges)


def tight_walk(g, src, dst, row):
    """The lexicographically smallest walk from src to dst over tight edges,
    those with row[u] + length == row[v], row being dijkstra(g, src): from
    each node the smallest-id tight successor from which dst is reached
    over tight edges."""
    back = {}
    for e in g.edges:
        if row[e.src] + e.length == row[e.dst]:
            back.setdefault(e.dst, []).append(e.src)
    reaches, stack = {dst}, [dst]
    while stack:
        for u in back.get(stack.pop(), ()):
            if u not in reaches:
                reaches.add(u)
                stack.append(u)
    walk = [src]
    while walk[-1] != dst:
        u = walk[-1]
        walk.append(min(e.dst for e in g.adjacency[u]
                        if e.dst in reaches and row[u] + e.length == row[e.dst]))
    return tuple(walk)


class TestAstar:
    def test_edge_a_hair_shorter_than_its_chord(self):
        # 0 -> 1 is 1.4e-15 m shorter than its chord: a straight-line
        # heuristic overestimates there and settles 3 through 1 at 4.2
        pts = [(8.399999999999999, 2.0999999999999996), (10.5, 2.0999999999999996),
               (8.399999999999999, 4.199999999999999), (10.5, 4.199999999999999)]
        g = build_graph([Waypoint(x, y, 0.0) for x, y in pts],
                        [Edge(0, 1, 2.1, 3.0), Edge(0, 2, 2.0999999999999996, 3.0),
                         Edge(1, 3, 2.1, 3.0), Edge(2, 3, 2.0999999999999996, 3.0)])
        path = astar(g, 0, 3)
        assert path == (0, 2, 3)
        assert path_length(g, path) == dijkstra(g, 0)[3] == 4.199999999999999

    @settings(max_examples=100, deadline=None)
    @given(tie_grids())
    def test_tie_grids_give_the_smallest_tight_walk(self, g):
        for s in range(g.n_nodes()):
            row = dijkstra(g, s)
            for d in range(g.n_nodes()):
                path = astar(g, s, d)
                if math.isinf(row[d]):
                    assert path is None
                else:
                    assert path_length(g, path) == row[d]
                    assert path == tight_walk(g, s, d, row)

    @settings(max_examples=150, deadline=None)
    @given(sparse_graphs())
    def test_matches_dijkstra_with_unreachable_nodes(self, g):
        for s in range(g.n_nodes()):
            dist = dijkstra(g, s)
            for d in range(g.n_nodes()):
                p = astar(g, s, d)
                if math.isinf(dist[d]):
                    assert p is None
                else:
                    assert (p[0], p[-1], path_length(g, p)) == (s, d, dist[d])

    def test_identity(self):
        g = square_graph()
        assert astar(g, 1, 1) == (1,)

    def test_one_way_routes_around(self):
        g = one_way_pair_graph()
        assert astar(g, 0, 1) == (0, 1)
        assert astar(g, 1, 0) == (1, 2, 0)

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
                assert (p[0], p[-1], path_length(g, p)) == (s, d, dist_cache[s][d])

    def test_path_edges_exist(self):
        g = random_graph(seed=8, n_nodes=20)
        p = astar(g, 0, 19)
        assert (p[0], p[-1]) == (0, 19)
        for a, b in zip(p, p[1:]):
            assert g.edge_between(a, b) is not None

    def test_lexicographic_tiebreak(self):
        # two equal-length routes 0->1->3 and 0->2->3; smaller sequence wins
        wps = [Waypoint(0, 0, 0), Waypoint(1, 1, 0),
               Waypoint(1, -1, 0), Waypoint(2, 0, 0)]
        L = math.sqrt(2.0)
        edges = [Edge(0, 1, L, 1), Edge(0, 2, L, 1),
                 Edge(1, 3, L, 1), Edge(2, 3, L, 1)]
        g = build_graph(wps, edges)
        assert astar(g, 0, 3) == (0, 1, 3)


class TestNearestNode:
    def test_exact_hit(self):
        g = square_graph()
        assert nearest_node(g, 10, 10) == 2

    def test_tie_breaks_to_smaller_id(self):
        g = line_graph([10.0])
        assert nearest_node(g, 5.0, 3.0) == 0

    def test_empty_graph(self):
        # no graph to snap to is built without a node, spots or not
        with pytest.raises(InputError, match="^the map has no nodes$"):
            build_graph([], [], [ParkingSpot(0, 1, 0.0)])

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
    for i, w in enumerate(g.waypoints):
        d = (w.x - x) ** 2 + (w.y - y) ** 2
        if d < best_d:
            best_d, best_i = d, i
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
    g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], [])
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
        assert nearest_nodes(g, queries) == [scan_nearest(g, x, y) for x, y in queries]
        for x, y in queries:
            assert nearest_node(g, x, y) == scan_nearest(g, x, y), (x, y)
        for x, y in NON_FINITE:
            assert nearest_node(g, x, y) == scan_nearest(g, x, y) == 0

    def test_index_built_once(self):
        g = random_graph(seed=5, n_nodes=30)
        assert "snap_index" not in vars(g)
        nearest_node(g, 1.0, 2.0)
        index = g.snap_index
        nearest_node(g, 50.0, 60.0)
        nearest_nodes(g, [(3.0, 4.0), (70.0, 80.0)])
        assert g.snap_index is index

    def test_blocks_in_ascending_id(self):
        # the build appends in id order and never sorts
        for g in (random_graph(seed=5, n_nodes=30), mapgen.warehouse_map()):
            index = g.snap_index
            assert len(index.blocks) == len(index.cells) == index.nx * index.ny
            for block in index.blocks + index.cells:
                ids = [i for _, _, i in block]
                assert ids == sorted(ids)
            # each node is in its cell's block and in no block more than one cell away
            for k, block in enumerate(index.blocks):
                cy, cx = divmod(k, index.nx)
                near = [c for yy in range(max(cy - 1, 0), min(cy + 2, index.ny))
                        for xx in range(max(cx - 1, 0), min(cx + 2, index.nx))
                        for c in index.cells[yy * index.nx + xx]]
                assert sorted(block, key=lambda c: c[2]) == sorted(near, key=lambda c: c[2])

    def test_non_finite_points_in_a_batch(self):
        g = random_graph(seed=5, n_nodes=30)
        points = [(1.0, 2.0), *NON_FINITE, (50.0, 60.0), NON_FINITE[0]]
        assert nearest_nodes(g, points) == [scan_nearest(g, x, y) for x, y in points]
        assert nearest_nodes(g, NON_FINITE) == [0] * len(NON_FINITE)

    def test_overflow_in_a_batch_names_its_point(self):
        g = random_graph(seed=5, n_nodes=30)
        far = (1e200, 10.0)
        with pytest.raises(InputError) as one:
            nearest_node(g, *far)
        with pytest.raises(InputError) as batch:
            nearest_nodes(g, [(1.0, 2.0), (math.nan, 0.0), far, (50.0, 60.0)])
        assert str(batch.value) == str(one.value) == (
            "point (1e+200, 10.0) is too far from the map to snap to a node")

    def test_empty_batch_and_empty_graph(self):
        assert nearest_nodes(random_graph(seed=5, n_nodes=30), []) == []
        assert nearest_nodes(line_graph([10.0]), iter(())) == []
        with pytest.raises(InputError, match="^the map has no nodes$"):
            load_roadnet(io.StringIO("roadnet v1\n"))

    def test_non_finite_query_before_index(self):
        # a first query that is not finite gives node 0 through the index,
        # which it builds, as nearest_node is the batch's one-point case
        g = random_graph(seed=5, n_nodes=30)
        assert "snap_index" not in vars(g)
        assert nearest_node(g, math.nan, 1.0) == 0
        assert "snap_index" in vars(g)


DEGENERATE_FAR = st.floats(-1e150, 1e150)


@st.composite
def degenerate_snap_cases(draw):
    """(graph, queries) whose grid is one cell (every node at one point) or
    one row or column of cells (a flat box), with queries around the nodes,
    far outside the box and at 1e150, where squared distances stay finite."""
    shape = draw(st.sampled_from(["point", "row", "column"]))
    n = draw(st.integers(1, 30))
    c = draw(COORD)
    if shape == "point":
        pts = [(c, c)] * n
    else:
        pts = [(v, c) if shape == "row" else (c, v) for v in (draw(COORD) for _ in range(n))]
    g = build_graph([Waypoint(x, y, 0.0) for x, y in pts], [])
    queries = [(draw(COORD), draw(COORD)) for _ in range(6)]
    queries += [(draw(FAR), draw(FAR)) for _ in range(4)]
    queries += [(draw(DEGENERATE_FAR), draw(DEGENERATE_FAR)) for _ in range(4)]
    return shape, g, queries


class TestSnapIndexDegenerate:
    @settings(max_examples=200, deadline=None)
    @given(degenerate_snap_cases())
    def test_matches_linear_scan(self, case):
        shape, g, queries = case
        index = g.snap_index
        if shape == "point":
            assert (index.nx, index.ny) == (1, 1)
        elif shape == "row":
            assert index.ny == 1
        else:
            assert index.nx == 1
        assert nearest_nodes(g, queries) == [scan_nearest(g, x, y) for x, y in queries]
        for x, y in queries:
            assert nearest_node(g, x, y) == scan_nearest(g, x, y), (x, y)

    def test_far_queries_on_a_flat_box(self):
        g = build_graph([Waypoint(float(i), 5.0, 0.0) for i in range(50)], [])
        assert g.snap_index.ny == 1 and g.snap_index.nx > 1
        for x, y in ((-1e6, 5.0), (1e6, 5.0), (24.5, 1e9), (24.5, -1e9), (1e150, 1e150)):
            assert nearest_node(g, x, y) == scan_nearest(g, x, y), (x, y)


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
        assert g2.edges == warehouse.edges
        # a spot's id is its index, so save and load keep each one's place
        assert g2.spots == warehouse.spots

    def test_missing_header(self):
        with pytest.raises(InputError, match="missing 'roadnet v1' header"):
            load_roadnet(io.StringIO("node 0 0 0 0\n"))

    def test_bad_record(self):
        with pytest.raises(InputError, match="bad record at line 2"):
            load_roadnet(io.StringIO("roadnet v1\nnode zero 0 0 0\n"))

    def test_edge_flag_is_required_but_not_read(self):
        text = "roadnet v1\nnode 0 0 0 0\nnode 1 5 0 0\nedge 0 1 5 3 {}\n"
        for flag in ("1", "0", "x"):
            assert load_roadnet(io.StringIO(text.format(flag))).edges == [Edge(0, 1, 5.0, 3.0)]
        with pytest.raises(InputError, match="bad record at line 4: 'edge 0 1 5 3'"):
            load_roadnet(io.StringIO(text.format("")))
