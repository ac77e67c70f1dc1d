"""Directed road-network graph: waypoints, shortest paths, spatial snapping.

Edge weights are geometric lengths in meters. Speed limits ride along on the
edges for the simulator but never enter shortest-path weights. The graph is
immutable after build_graph(), so concurrent read-only queries are safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional


class RoadNetError(ValueError):
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


@dataclass
class ParkingSpot:
    id: int
    edge_src: int
    edge_dst: int
    offset: float
    occupied_by: Optional[int] = None


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
        xs = [w.x for w in self.waypoints]
        ys = [w.y for w in self.waypoints]
        return min(xs), min(ys), max(xs), max(ys)


def build_graph(waypoints, edges, spots=()) -> RoadGraph:
    """Validate inputs and assemble adjacency.

    Raises DanglingReference, NonPositiveLength or SelfLoop on bad input.
    """
    n = len(waypoints)
    for i, w in enumerate(waypoints):
        if w.node != i:
            raise DanglingReference(f"waypoint at index {i} carries node id {w.node}")
        if not (math.isfinite(w.x) and math.isfinite(w.y)):
            raise RoadNetError(f"non-finite coordinates at node {i}")
    adjacency = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        if not (0 <= e.src < n) or not (0 <= e.dst < n):
            raise DanglingReference(f"edge {e.src}->{e.dst} references a missing node")
        if e.src == e.dst:
            raise SelfLoop(f"self-loop at node {e.src}")
        if not (e.length > 0):
            raise NonPositiveLength(f"edge {e.src}->{e.dst} has length {e.length}")
        wa, wb = waypoints[e.src], waypoints[e.dst]
        chord = math.hypot(wb.x - wa.x, wb.y - wa.y)
        if e.length < chord - 1e-6:
            raise NonPositiveLength(
                f"edge {e.src}->{e.dst} length {e.length} shorter than chord {chord}"
            )
        adjacency[e.src].append(ei)
    spot_list = []
    for s in spots:
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


def dijkstra(g: RoadGraph, src: int) -> list:
    """Single-source shortest distances (meters); unreachable = +inf."""
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
            if nd < dist[e.dst]:
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
    """Node minimizing Euclidean distance; ties go to the smallest id."""
    if g.n_nodes() == 0:
        raise EmptyGraph("nearest_node on empty graph")
    best_i, best_d = 0, math.inf
    for w in g.waypoints:
        d = (w.x - x) ** 2 + (w.y - y) ** 2
        if d < best_d:
            best_d, best_i = d, w.node
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

def save_roadnet(g: RoadGraph, fileobj, header_comment: str = "") -> None:
    w = fileobj.write
    if header_comment:
        w(f"# {header_comment}\n")
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
        try:
            if parts[0] == "node":
                waypoints.append(Waypoint(int(parts[1]), float(parts[2]),
                                          float(parts[3]), float(parts[4])))
            elif parts[0] == "edge":
                edges.append(Edge(int(parts[1]), int(parts[2]), float(parts[3]),
                                  float(parts[4]), parts[5] == "1"))
            elif parts[0] == "spot":
                spots.append(ParkingSpot(int(parts[1]), int(parts[2]),
                                         int(parts[3]), float(parts[4])))
            else:
                raise FormatError(f"unknown record '{parts[0]}' at line {lineno}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"bad record at line {lineno}: {ln!r}") from exc
    waypoints.sort(key=lambda w: w.node)
    return build_graph(waypoints, edges, spots)
