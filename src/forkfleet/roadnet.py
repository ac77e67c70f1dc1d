"""Directed road-network graph: waypoints, shortest paths, spatial snapping.

Edge weights are geometric lengths in meters. Speed limits ride along on the
edges for the simulator but never enter shortest-path weights. The graph is
immutable after build_graph(), so concurrent read-only queries are safe and
one graph can back any number of simulations, each with its own vehicles.
adjacency[u] holds u's outgoing Edges in input order, and edge_between() is
the one lookup of an edge by its (src, dst) pair.

dijkstra() has two kernels over one flat (dst, length) adjacency, and the
graph picks one for speed alone. Both give the same floats on any graph:
adding a length > 0 to a float is monotone and never lowers it, so every
label-setting search, whatever order it settles nodes in, finds each node's
least left-to-right path sum. within(), the one bounded search, labels only
the nodes within a limit: no prefix of a path is longer than the path, so
such a node is reached only through such nodes, with the full row's float.
RoadGraph.exact_sums holds when every edge length is a whole multiple of
one 2^-q and all lengths together are fewer than 2^53 such units, so every
sum of distinct edges is exact. On such graphs (every warehouse_map) a
bucket queue runs, a heap of the distinct distance values with one node
list per value, which on a map of a few edge lengths makes far fewer heap
entries. Other graphs (OpenDRIVE arcs, for one)
keep the (distance, node) heap: there nearly every distance is a value of
its own, and one bucket per node costs more than one heap entry.

nearest_nodes() snaps a list of points in one pass, and nearest_node() is
its one-point case. Both go through a uniform grid over the waypoints,
RoadGraph.snap_index, a cached property built on the first query: cells of
half a node's share of the bounding box, each with the nodes of its 3x3
block in ascending id, appended in id order so that no block is sorted. A
point scans its block and goes on to the rings around it only when the
block leaves the answer open. Every answer is the linear scan's, bit for
bit: the same squared-distance expression, ties to the smallest id. The
grid is never rebuilt, so waypoints must not change after the first query.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

from . import InputError, records


def normalize_heading(h: float) -> float:
    """Wrap into [-pi, pi)."""
    h = math.fmod(h + math.pi, 2.0 * math.pi)
    if h < 0:
        h += 2.0 * math.pi
    return h - math.pi


@dataclass(frozen=True)
class Waypoint:  # a node, whose id is its index in RoadGraph.waypoints
    x: float
    y: float
    heading: float


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    length: float
    speed_limit: float


@dataclass(frozen=True)
class ParkingSpot:  # a spot, whose id is its index in RoadGraph.spots
    edge_src: int
    edge_dst: int
    offset: float


@dataclass
class RoadGraph:
    waypoints: list
    edges: list
    spots: list
    adjacency: list = field(default_factory=list)  # node -> its outgoing Edges

    @functools.cached_property
    def snap_index(self) -> SnapIndex:
        return SnapIndex(self)

    @functools.cached_property
    def exact_sums(self) -> bool:
        """True when every sum of distinct edge lengths is an exact float:
        with q the smallest exponent >= 0 that makes each length a whole number
        of 2^-q units, all lengths together come to fewer than 2^53 units. The
        test runs on Python ints, so no length can make it overflow."""
        ratios = [e.length.as_integer_ratio() for e in self.edges]
        q = max((den.bit_length() - 1 for _, den in ratios), default=0)
        return sum(num << (q - den.bit_length() + 1) for num, den in ratios) < 1 << 53

    @functools.cached_property
    def path_factor(self) -> float:
        """f with f * hypot(a, b) <= d(a, b) in floats for every pair of nodes.

        Each edge is at least f times its chord, so by the triangle inequality
        each path is at least f times the straight line between its ends. The
        smallest length/chord ratio (1.0 without a chord > 0) is shrunk by 1e-9,
        which absorbs the rounding of chords and of path sums. 0.0 when f times
        the map's extent is not finite.
        """
        wps = self.waypoints
        chords = ((e.length, math.hypot(wps[e.dst].x - wps[e.src].x, wps[e.dst].y - wps[e.src].y))
                  for e in self.edges)
        f = min((length / chord for length, chord in chords if chord > 0), default=1.0)
        f *= 1.0 - 1e-9
        x0, y0, x1, y1 = self.bounding_box()
        return f if math.isfinite(f * math.hypot(x1 - x0, y1 - y0)) else 0.0

    @functools.cached_property
    def in_degree(self) -> list:
        """node -> its number of incoming edges, each parallel edge counted."""
        counts = [0] * len(self.waypoints)
        for e in self.edges:
            counts[e.dst] += 1
        return counts

    @functools.cached_property
    def _flat_adjacency(self) -> list:
        """adjacency as (dst, length) tuples, the form the kernels read."""
        return [[(e.dst, e.length) for e in out] for out in self.adjacency]

    def n_nodes(self) -> int:
        return len(self.waypoints)

    def edge_between(self, a: int, b: int) -> Optional[Edge]:
        return next((e for e in self.adjacency[a] if e.dst == b), None)

    def spot_anchor_xy(self, spot: ParkingSpot):
        """Position of a spot: its offset along the anchor edge's chord."""
        wa = self.waypoints[spot.edge_src]
        wb = self.waypoints[spot.edge_dst]
        e = self.edge_between(spot.edge_src, spot.edge_dst)
        frac = spot.offset / e.length
        return (wa.x + (wb.x - wa.x) * frac, wa.y + (wb.y - wa.y) * frac)

    def bounding_box(self):
        """(min x, min y, max x, max y); build_graph keeps a node at least."""
        xs = [w.x for w in self.waypoints]
        ys = [w.y for w in self.waypoints]
        return min(xs), min(ys), max(xs), max(ys)


def build_graph(waypoints, edges, spots=()) -> RoadGraph:
    """Validate inputs and assemble adjacency. A node's id is its index in
    waypoints, and a spot's its index in spots.

    Raises InputError on bad input, a map with no nodes too: every map is
    built here, so no query meets a graph without a node.
    """
    n = len(waypoints)
    if n == 0:
        raise InputError("the map has no nodes")
    for i, w in enumerate(waypoints):
        if not (math.isfinite(w.x) and math.isfinite(w.y) and math.isfinite(w.heading)):
            raise InputError(f"non-finite coordinates or heading at node {i}")
    adjacency = [[] for _ in range(n)]
    for e in edges:
        if not (0 <= e.src < n) or not (0 <= e.dst < n):
            raise InputError(f"edge {e.src}->{e.dst} references a missing node")
        if e.src == e.dst:
            raise InputError(f"self-loop at node {e.src}")
        if not 0.0 < e.length < math.inf:
            raise InputError(f"edge {e.src}->{e.dst} has length {e.length}")
        if not 0.0 < e.speed_limit < math.inf:
            raise InputError(f"edge {e.src}->{e.dst} has speed limit {e.speed_limit}")
        wa, wb = waypoints[e.src], waypoints[e.dst]
        chord = math.hypot(wb.x - wa.x, wb.y - wa.y)
        if e.length < chord - 1e-6:
            raise InputError(f"edge {e.src}->{e.dst} length {e.length} shorter than chord {chord}")
        adjacency[e.src].append(e)
    g = RoadGraph(list(waypoints), list(edges), list(spots), adjacency)
    for i, s in enumerate(g.spots):
        found = g.edge_between(s.edge_src, s.edge_dst) if 0 <= s.edge_src < n else None
        if found is None:
            raise InputError(f"spot {i} anchors to missing edge {s.edge_src}->{s.edge_dst}")
        if not (0 <= s.offset <= found.length):
            raise InputError(f"spot {i} offset {s.offset} outside edge")
    return g


def dijkstra(g: RoadGraph, src: int) -> list:
    """Single-source shortest distances (meters) from src, a node of g;
    unreachable = +inf.

    The bucket kernel runs where g.exact_sums holds, the heap kernel
    elsewhere; both give the same list on any graph (module docstring).
    """
    kernel = _bucket_row if g.exact_sums else _heap_row
    return kernel(g._flat_adjacency, src)


def within(g: RoadGraph, src: int, limit: float) -> dict:
    """{node: distance} of every node src reaches within distance <= limit:
    the finite entries of dijkstra(g, src) that are <= limit, the same
    floats, with nothing beyond the limit labelled (module docstring). src
    is a node of g and limit is >= 0, as DensityConfig's range keeps it."""
    adjacency, inf = g._flat_adjacency, math.inf
    dist, heap = {src: 0.0}, [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:  # a stale label: u was settled lower
            continue
        for v, length in adjacency[u]:
            nd = d + length
            if nd <= limit and nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _heap_row(adjacency, src):
    """Dijkstra on a heap of (distance, node) labels. A node is pushed only
    when its label strictly falls, so it is popped once at its final label."""
    dist = [math.inf] * len(adjacency)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:  # a stale label: u was settled lower
            continue
        for v, length in adjacency[u]:
            nd = d + length
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _bucket_row(adjacency, src):
    """Dijkstra on a bucket queue: a heap of the distinct label values and,
    for each, the nodes labelled with it. A node whose label has since
    fallen below its bucket's value was settled from a lower bucket and is
    skipped. On an exact-sum graph d + length > d, so no node joins a bucket
    while it is scanned. Elsewhere a length below half an ulp of d gives
    d + length == d; the bucket being scanned is already popped, so such a
    node starts a new bucket of the same value, scanned next, and the row
    is still the least path sums."""
    dist = [math.inf] * len(adjacency)
    dist[src] = 0.0
    keys = [0.0]
    buckets = {0.0: [src]}
    while keys:
        d = heapq.heappop(keys)
        for u in buckets.pop(d):
            if dist[u] < d:
                continue
            for v, length in adjacency[u]:
                nd = d + length
                if nd < dist[v]:
                    dist[v] = nd
                    bucket = buckets.get(nd)
                    if bucket is None:
                        buckets[nd] = [v]
                        heapq.heappush(keys, nd)
                    else:
                        bucket.append(v)
    return dist


def astar(g: RoadGraph, src: int, dst: int) -> Optional[tuple]:
    """Shortest path by A* -> its nodes, src to dst. The heuristic,
    g.path_factor times the straight line to dst, never exceeds the network
    distance in floats. Among equal-length shortest paths the lexicographically
    smallest node sequence is returned, so outputs are deterministic. Returns
    None when dst, like src a node of g, is unreachable from src.
    """
    if src == dst:
        return (src,)
    wd = g.waypoints[dst]
    factor = g.path_factor

    def h(u):
        w = g.waypoints[u]
        return factor * math.hypot(wd.x - w.x, wd.y - w.y)

    # best[u] = (g-cost, path tuple) of the best settled label at u
    best = {src: (0.0, (src,))}
    heap = [(h(src), 0.0, (src,))]
    while heap:
        f, gc, path = heapq.heappop(heap)
        u = path[-1]
        if (gc, path) != best.get(u, (math.inf, ())):
            continue
        if u == dst:
            return path
        for e in g.adjacency[u]:
            ng = gc + e.length
            npath = path + (e.dst,)
            cur = best.get(e.dst)
            if cur is None or ng < cur[0] or (ng == cur[0] and npath < cur[1]):
                best[e.dst] = (ng, npath)
                heapq.heappush(heap, (ng + h(e.dst), ng, npath))
    return None


def nearest_nodes(g: RoadGraph, points) -> list:
    """nearest_node() of each (x, y) of the iterable points, in one pass.

    A point whose squared distance to a node overflows raises InputError
    naming it, after the points before it; g has a node (build_graph).
    """
    return g.snap_index.nearest(points)


def nearest_node(g: RoadGraph, x: float, y: float) -> int:
    """Node minimizing Euclidean distance; ties go to the smallest id.

    A non-finite query returns node 0, as a scan finding no d < inf would.
    A query whose squared distance to a node overflows raises InputError.
    """
    return nearest_nodes(g, [(x, y)])[0]


# A node in a cell r rings away from the query's cell (clamped to the grid)
# is at least (r - 1) cells away along x or y. The bound is shrunk by this
# factor to absorb the rounding of cell indices and squared distances.
_RING_SLACK = 1.0 - 1e-9


def _clamp_cell(t: float, n: int) -> int:
    if t < 1.0:
        return 0
    if t >= n:
        return n - 1
    return int(t)


class SnapIndex:
    """Uniform grid of waypoints for exact nearest-node queries.

    Cells are squares of half a node's share of the bounding box (never
    below half the longer side over n, so a flat box does not explode the
    cell count), so a cell holds about a quarter of a node and a 3x3 block
    about two. Each cell also keeps the nodes of its 3x3 block (rings 0 and
    1, clamped to the grid), which a query scans first, with no bound to
    test. The build appends each waypoint, in id order, to its cell and to
    the blocks of the cells around it, so every cell and block is in
    ascending id without a sort; both are tuples, and the empty ones share
    the one empty tuple. Only when the ring-2 bound does not exceed the
    block's best distance does the query go on, ring by ring outward from
    r = 2, from the block's result, and it stops once a ring's lower bound
    exceeds the best distance found.
    """

    def __init__(self, g: RoadGraph):
        self.x0, self.y0, x1, y1 = g.bounding_box()
        w, h, n = x1 - self.x0, y1 - self.y0, g.n_nodes()
        cell = max(math.sqrt(w * h / n), max(w, h) / n) / 2
        if 0.0 < cell < math.inf:
            self.cell, self.nx, self.ny = cell, int(w / cell) + 1, int(h / cell) + 1
        else:  # all nodes coincide, or the extent overflows: one cell
            self.cell, self.nx, self.ny = 1.0, 1, 1
        nx, ny = self.nx, self.ny
        cells = [[] for _ in range(nx * ny)]
        # blocks on a grid padded by one cell each side, so that the 3x3
        # cells around any cell are at fixed offsets; the pad is dropped below
        row = nx + 2
        padded = [[] for _ in range(row * (ny + 2))]
        around = (-row - 1, -row, -row + 1, -1, 0, 1, row - 1, row, row + 1)
        for i, wp in enumerate(g.waypoints):  # ascending id, so each cell and block is too
            cx = _clamp_cell((wp.x - self.x0) / self.cell, nx)
            cy = _clamp_cell((wp.y - self.y0) / self.cell, ny)
            node = (wp.x, wp.y, i)
            cells[cy * nx + cx].append(node)
            k = (cy + 1) * row + cx + 1
            for o in around:
                padded[k + o].append(node)
        self.cells = [tuple(c) for c in cells]
        self.blocks = [tuple(b) for k in range(row + 1, row * (ny + 1), row)
                       for b in padded[k:k + nx]]

    def nearest(self, points) -> list:
        """The nearest node of each (x, y) in points: node 0 for a
        non-finite point, InputError for one whose squared distance to a
        node overflows."""
        x0, y0, cell, nx, ny, blocks = self.x0, self.y0, self.cell, self.nx, self.ny, self.blocks
        ring2 = cell * _RING_SLACK
        ring2 *= ring2
        inf, out = math.inf, []
        try:
            for x, y in points:
                if 0.0 * x + 0.0 * y != 0.0:  # nan for nan and +-inf
                    out.append(0)
                    continue
                cx = _clamp_cell((x - x0) / cell, nx)
                cy = _clamp_cell((y - y0) / cell, ny)
                best_d, best_i = inf, 0
                for wx, wy, i in blocks[cy * nx + cx]:  # ascending id: first minimum wins
                    d = (wx - x) ** 2 + (wy - y) ** 2
                    if d < best_d:
                        best_d, best_i = d, i
                if not ring2 > best_d:
                    best_i = self._rings(x, y, cx, cy, best_d, best_i)
                out.append(best_i)
        except OverflowError as exc:
            raise InputError(f"point ({x!r}, {y!r}) is too far from the map to snap "
                             "to a node") from exc
        return out

    def _rings(self, x, y, cx, cy, best_d, best_i):
        """Go on from the block's (best_d, best_i) through rings 2, 3, ..."""
        cell, nx, ny, cells = self.cell, self.nx, self.ny, self.cells
        for r in range(2, max(cx, nx - 1 - cx, cy, ny - 1 - cy) + 1):
            bound = (r - 1) * cell * _RING_SLACK
            if bound * bound > best_d:
                break
            # ring r, row by row and clamped to the grid: the whole row
            # cx - r .. cx + r where |yy - cy| = r, else its cells cx - r and cx + r
            lo, hi = max(cx - r, 0), min(cx + r, nx - 1)
            for yy in range(max(cy - r, 0), min(cy + r, ny - 1) + 1):
                if yy - cy in (-r, r):
                    ks = range(yy * nx + lo, yy * nx + hi + 1)
                else:
                    ks = [yy * nx + xx for xx in (cx - r, cx + r) if 0 <= xx < nx]
                for k in ks:
                    for wx, wy, i in cells[k]:
                        d = (wx - x) ** 2 + (wy - y) ** 2
                        if d < best_d or (d == best_d and i < best_i):
                            best_d, best_i = d, i
        return best_i


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving; a merged set's root is
    its smallest member, so roots do not depend on the order of unions."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


# --- native text format -----------------------------------------------------
# Header "roadnet v1", then node/edge/spot records, '#' comments.

def save_roadnet(g: RoadGraph, fileobj) -> None:
    w = fileobj.write
    w("roadnet v1\n")
    for i, wp in enumerate(g.waypoints):
        w(f"node {i} {wp.x:.12g} {wp.y:.12g} {wp.heading:.12g}\n")
    for e in g.edges:
        w(f"edge {e.src} {e.dst} {e.length:.12g} {e.speed_limit:.12g} 1\n")
    for i, s in enumerate(g.spots):
        w(f"spot {i} {s.edge_src} {s.edge_dst} {s.offset:.12g}\n")


def _by_id(pairs, kind, label):
    """The items of (id, item) pairs in id order; refuses the first id that is not its index."""
    pairs.sort(key=lambda pair: pair[0])
    for i, (got, _) in enumerate(pairs):
        if got != i:
            raise InputError(f"{kind} at index {i} carries {label} id {got}")
    return [item for _, item in pairs]


def load_roadnet(fileobj) -> RoadGraph:
    """A graph from roadnet v1 text. Node and spot ids are 0 .. n-1, each
    once, in any order: a record's id is its index in the graph. A node or
    spot record has 5 fields and an edge 6; any other count is a bad record."""
    lines = records(fileobj)
    if next(lines, (0, ""))[1].split() != ["roadnet", "v1"]:
        raise InputError("missing 'roadnet v1' header")
    nodes, edges, spots = [], [], []  # nodes, spots: (id, record)
    for lineno, ln in lines:
        parts = ln.split()
        if parts[0] not in ("node", "edge", "spot"):
            raise InputError(f"unknown record '{parts[0]}' at line {lineno}")
        try:
            if parts[0] == "node":
                _, i, x, y, heading = parts
                nodes.append((int(i), Waypoint(float(x), float(y), float(heading))))
            elif parts[0] == "edge":
                _, src, dst, length, speed_limit, _one_way = parts  # the flag is not read
                edges.append(Edge(int(src), int(dst), float(length), float(speed_limit)))
            else:
                _, i, edge_src, edge_dst, offset = parts
                spots.append((int(i), ParkingSpot(int(edge_src), int(edge_dst), float(offset))))
        except ValueError as exc:
            raise InputError(f"bad record at line {lineno}: {ln!r}") from exc
    return build_graph(_by_id(nodes, "waypoint", "node"), edges,
                       _by_id(spots, "spot", "spot"))
