"""Directed road-network graph: waypoints, shortest paths, spatial snapping.

Edge weights are geometric lengths in meters. Speed limits ride along on the
edges for the simulator but never enter shortest-path weights. The graph is
immutable after build_graph(), so concurrent read-only queries are safe and
one graph can back any number of simulations, each with its own spot claims.

nearest_node() snaps through a uniform grid over the waypoints, built on the
first query and cached on the graph (RoadGraph.snap_index). Its answer is the
linear scan's, bit for bit: the same squared-distance expression, ties to the
smallest id. The cache is never invalidated, so waypoints must not change
after the first query.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

from . import InputError


class RoadNetError(InputError):
    pass


class DanglingReference(RoadNetError):
    pass


class NonPositiveLength(RoadNetError):
    pass


class SelfLoop(RoadNetError):
    pass


class InvalidNode(RoadNetError):
    pass


class EmptyGraph(RoadNetError):
    pass


class FormatError(RoadNetError):
    """Malformed native roadnet file."""


def normalize_heading(h: float) -> float:
    """Wrap into [-pi, pi)."""
    h = math.fmod(h + math.pi, 2.0 * math.pi)
    if h < 0:
        h += 2.0 * math.pi
    return h - math.pi


@dataclass(frozen=True)
class Waypoint:
    node: int
    x: float
    y: float
    heading: float


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    length: float
    speed_limit: float
    one_way: bool = True


@dataclass(frozen=True)
class ParkingSpot:
    id: int
    edge_src: int
    edge_dst: int
    offset: float


@dataclass(frozen=True)
class Path:
    nodes: tuple
    total_length: float


@dataclass
class RoadGraph:
    waypoints: list
    edges: list
    spots: list
    adjacency: list = field(default_factory=list)  # node -> list of edge indices
    snap_index: Optional[SnapIndex] = field(default=None, repr=False, compare=False)

    def n_nodes(self) -> int:
        return len(self.waypoints)

    def edge_between(self, a: int, b: int) -> Optional[Edge]:
        for ei in self.adjacency[a]:
            if self.edges[ei].dst == b:
                return self.edges[ei]
        return None

    def spot_anchor_xy(self, spot: ParkingSpot):
        """Position of a spot: its offset along the anchor edge's chord."""
        wa = self.waypoints[spot.edge_src]
        wb = self.waypoints[spot.edge_dst]
        e = self.edge_between(spot.edge_src, spot.edge_dst)
        frac = spot.offset / e.length if e.length > 0 else 0.0
        return (wa.x + (wb.x - wa.x) * frac, wa.y + (wb.y - wa.y) * frac)

    def bounding_box(self):
        if not self.waypoints:
            raise EmptyGraph("bounding_box of an empty graph")
        xs = [w.x for w in self.waypoints]
        ys = [w.y for w in self.waypoints]
        return min(xs), min(ys), max(xs), max(ys)


def build_graph(waypoints, edges, spots=()) -> RoadGraph:
    """Validate inputs and assemble adjacency.

    Raises a RoadNetError (DanglingReference, SelfLoop, ...) on bad input.
    """
    n = len(waypoints)
    for i, w in enumerate(waypoints):
        if w.node != i:
            raise DanglingReference(f"waypoint at index {i} carries node id {w.node}")
        if not (math.isfinite(w.x) and math.isfinite(w.y) and math.isfinite(w.heading)):
            raise RoadNetError(f"non-finite coordinates or heading at node {i}")
    adjacency = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        if not (0 <= e.src < n) or not (0 <= e.dst < n):
            raise DanglingReference(f"edge {e.src}->{e.dst} references a missing node")
        if e.src == e.dst:
            raise SelfLoop(f"self-loop at node {e.src}")
        if not (e.length > 0):
            raise NonPositiveLength(f"edge {e.src}->{e.dst} has length {e.length}")
        if not 0.0 < e.speed_limit < math.inf:
            raise RoadNetError(f"edge {e.src}->{e.dst} has speed limit {e.speed_limit}")
        wa, wb = waypoints[e.src], waypoints[e.dst]
        chord = math.hypot(wb.x - wa.x, wb.y - wa.y)
        if e.length < chord - 1e-6:
            raise NonPositiveLength(
                f"edge {e.src}->{e.dst} length {e.length} shorter than chord {chord}"
            )
        adjacency[e.src].append(ei)
    spot_list = []
    spot_ids = set()
    for s in spots:
        if s.id in spot_ids:
            raise RoadNetError(f"two spots with id {s.id}")
        spot_ids.add(s.id)
        found = None
        for ei in adjacency[s.edge_src] if 0 <= s.edge_src < n else []:
            if edges[ei].dst == s.edge_dst:
                found = edges[ei]
                break
        if found is None:
            raise DanglingReference(
                f"spot {s.id} anchors to missing edge {s.edge_src}->{s.edge_dst}"
            )
        if not (0 <= s.offset <= found.length):
            raise RoadNetError(f"spot {s.id} offset {s.offset} outside edge")
        spot_list.append(s)
    return RoadGraph(list(waypoints), list(edges), spot_list, adjacency)


def dijkstra(g: RoadGraph, src: int, limit: float = math.inf) -> list:
    """Single-source shortest distances (meters); unreachable = +inf.

    With a `limit`, no label above it is made. A node at distance d <= limit
    is reached only through nodes at distance <= d, so its entry is the same
    float as in the full row; every other entry is +inf.
    """
    n = g.n_nodes()
    if not (0 <= src < n):
        raise InvalidNode(f"node {src} not in graph of {n} nodes")
    dist = [math.inf] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for ei in g.adjacency[u]:
            e = g.edges[ei]
            nd = d + e.length
            if nd < dist[e.dst] and nd <= limit:
                dist[e.dst] = nd
                heapq.heappush(heap, (nd, e.dst))
    return dist


def astar(g: RoadGraph, src: int, dst: int) -> Optional[Path]:
    """Shortest path by A* with Euclidean heuristic.

    Among equal-length shortest paths the lexicographically smallest node
    sequence is returned, so outputs are deterministic. Returns None when
    dst is unreachable from src.
    """
    n = g.n_nodes()
    if not (0 <= src < n) or not (0 <= dst < n):
        raise InvalidNode(f"invalid pair ({src}, {dst}) in graph of {n} nodes")
    if src == dst:
        return Path((src,), 0.0)
    wd = g.waypoints[dst]

    def h(u):
        w = g.waypoints[u]
        return math.hypot(wd.x - w.x, wd.y - w.y)

    # best[u] = (g-cost, path tuple) of the best settled label at u
    best = {src: (0.0, (src,))}
    heap = [(h(src), 0.0, (src,))]
    while heap:
        f, gc, path = heapq.heappop(heap)
        u = path[-1]
        if (gc, path) != best.get(u, (math.inf, ())):
            continue
        if u == dst:
            return Path(path, gc)
        for ei in g.adjacency[u]:
            e = g.edges[ei]
            ng = gc + e.length
            npath = path + (e.dst,)
            cur = best.get(e.dst)
            if cur is None or ng < cur[0] or (ng == cur[0] and npath < cur[1]):
                best[e.dst] = (ng, npath)
                heapq.heappush(heap, (ng + h(e.dst), ng, npath))
    return None


def nearest_node(g: RoadGraph, x: float, y: float) -> int:
    """Node minimizing Euclidean distance; ties go to the smallest id.

    A non-finite query returns node 0, as a scan finding no d < inf would.
    A query whose squared distance to a node overflows raises RoadNetError.
    """
    if g.n_nodes() == 0:
        raise EmptyGraph("nearest_node on empty graph")
    if not (math.isfinite(x) and math.isfinite(y)):
        return 0
    if g.snap_index is None:
        g.snap_index = SnapIndex(g)
    try:
        return g.snap_index.nearest(x, y)
    except OverflowError as exc:
        raise RoadNetError(f"point ({x!r}, {y!r}) is too far from the map to snap "
                           "to a node") from exc


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

    Cells are squares of about one node's share of the bounding box (never
    below the longer side over n, so a flat box does not explode the cell
    count). A query searches ring by ring outward from its cell and stops
    once a ring's lower bound exceeds the best distance found.
    """

    def __init__(self, g: RoadGraph):
        self.x0, self.y0, x1, y1 = g.bounding_box()
        w, h, n = x1 - self.x0, y1 - self.y0, g.n_nodes()
        cell = max(math.sqrt(w * h / n), max(w, h) / n)
        if 0.0 < cell < math.inf:
            self.cell, self.nx, self.ny = cell, int(w / cell) + 1, int(h / cell) + 1
        else:  # all nodes coincide, or the extent overflows: one cell
            self.cell, self.nx, self.ny = 1.0, 1, 1
        self.cells = [[] for _ in range(self.nx * self.ny)]
        for wp in g.waypoints:  # ascending id within each cell
            cx = _clamp_cell((wp.x - self.x0) / self.cell, self.nx)
            cy = _clamp_cell((wp.y - self.y0) / self.cell, self.ny)
            self.cells[cy * self.nx + cx].append((wp.x, wp.y, wp.node))

    def nearest(self, x: float, y: float) -> int:
        cell, nx, ny, cells = self.cell, self.nx, self.ny, self.cells
        cx = _clamp_cell((x - self.x0) / cell, nx)
        cy = _clamp_cell((y - self.y0) / cell, ny)
        best_d, best_i = math.inf, 0
        for r in range(max(cx, nx - 1 - cx, cy, ny - 1 - cy) + 1):
            if r >= 2:
                bound = (r - 1) * cell * _RING_SLACK
                if bound * bound > best_d:
                    break
            # ring r: full rows cy - r and cy + r, then columns cx - r and
            # cx + r between them, all clamped to the grid
            lo, hi = max(cx - r, 0), min(cx + r, nx - 1)
            ring = [range(yy * nx + lo, yy * nx + hi + 1)
                    for yy in ((cy - r, cy + r) if r else (cy,)) if 0 <= yy < ny]
            if r:
                ylo, yhi = max(cy - r + 1, 0), min(cy + r - 1, ny - 1)
                ring += [range(ylo * nx + xx, yhi * nx + xx + 1, nx)
                         for xx in (cx - r, cx + r) if 0 <= xx < nx]
            for ks in ring:
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
    for wp in g.waypoints:
        w(f"node {wp.node} {wp.x:.12g} {wp.y:.12g} {wp.heading:.12g}\n")
    for e in g.edges:
        w(f"edge {e.src} {e.dst} {e.length:.12g} {e.speed_limit:.12g} {1 if e.one_way else 0}\n")
    for s in g.spots:
        w(f"spot {s.id} {s.edge_src} {s.edge_dst} {s.offset:.12g}\n")


def load_roadnet(fileobj) -> RoadGraph:
    lines = [ln.strip() for ln in fileobj]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0].split() != ["roadnet", "v1"]:
        raise FormatError("missing 'roadnet v1' header")
    waypoints, edges, spots = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if parts[0] not in ("node", "edge", "spot"):
            raise FormatError(f"unknown record '{parts[0]}' at line {lineno}")
        try:
            if parts[0] == "node":
                waypoints.append(Waypoint(int(parts[1]), float(parts[2]),
                                          float(parts[3]), float(parts[4])))
            elif parts[0] == "edge":
                edges.append(Edge(int(parts[1]), int(parts[2]), float(parts[3]),
                                  float(parts[4]), parts[5] == "1"))
            else:
                spots.append(ParkingSpot(int(parts[1]), int(parts[2]),
                                         int(parts[3]), float(parts[4])))
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad record at line {lineno}: {ln!r}") from exc
    waypoints.sort(key=lambda w: w.node)
    return build_graph(waypoints, edges, spots)
