"""Charging-station placement from trajectory data, plus heatmap validation.

Stations are chosen by visit-weighted greedy coverage with distance decay,
restricted to road-network nodes and subject to a minimum pairwise network
separation. This is a documented stand-in for a centrality-based placement
method published elsewhere; the mean-detour metric keeps alternatives
comparable. The occupancy heatmap provides the visual cross-check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import ConfigError
from .roadnet import EmptyGraph, RoadGraph, dijkstra, nearest_node
from .trajectory import split_by_vehicle


MAX_CELLS = 10**7  # per heatmap; the L map at the default 2 m cell size has ~20k


class DegenerateGrid(ConfigError):
    pass


@dataclass
class HeatmapGrid:
    origin_x: float
    origin_y: float
    cell_size: float
    width: int
    height: int
    counts: list          # row-major, height rows of width ints
    overflow: int = 0

    def cell_of(self, x: float, y: float):
        cx = int(math.floor((x - self.origin_x) / self.cell_size))
        cy = int(math.floor((y - self.origin_y) / self.cell_size))
        if 0 <= cx < self.width and 0 <= cy < self.height:
            return cx, cy
        return None

    def cell_center(self, cx: int, cy: int):
        return (self.origin_x + (cx + 0.5) * self.cell_size,
                self.origin_y + (cy + 0.5) * self.cell_size)

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def top_decile_cells(self):
        """Nonzero cells with counts at or above the 90th percentile of
        nonzero counts."""
        nz = sorted(c for row in self.counts for c in row if c > 0)
        if not nz:
            return []
        threshold = nz[min(len(nz) - 1, int(math.ceil(0.9 * len(nz))) - 1)]
        return [(cx, cy) for cy in range(self.height) for cx in range(self.width)
                if self.counts[cy][cx] >= threshold and self.counts[cy][cx] > 0]


def heatmap(samples, origin_x: float, origin_y: float, cell_size: float,
            width: int, height: int) -> HeatmapGrid:
    """Count trajectory samples per grid cell; out-of-extent samples go to
    the overflow tally so conservation is exact."""
    if cell_size <= 0 or not (width > 0 and height > 0 and width * height <= MAX_CELLS):
        raise DegenerateGrid(f"grid {width}x{height} at cell_size {cell_size}")
    grid = HeatmapGrid(origin_x, origin_y, cell_size, width, height,
                       [[0] * width for _ in range(height)])
    for s in samples:
        cell = grid.cell_of(s.x, s.y)
        if cell is None:
            grid.overflow += 1
        else:
            grid.counts[cell[1]][cell[0]] += 1
    return grid


def heatmap_for_graph(samples, graph: RoadGraph, cell_size: float = 2.0) -> HeatmapGrid:
    """Heatmap sized to the graph bounding box plus a 2 m margin."""
    margin = 2.0
    x0, y0, x1, y1 = graph.bounding_box()
    ox, oy = x0 - margin, y0 - margin
    cols = (x1 - x0 + 2 * margin) / cell_size
    rows = (y1 - y0 + 2 * margin) / cell_size
    # checked before math.ceil, which a subnormal cell_size's inf would stop
    if not cols * rows <= MAX_CELLS:
        raise DegenerateGrid(f"cell_size {cell_size} makes a {cols:.3g}x{rows:.3g} grid, "
                             f"more than {MAX_CELLS} cells")
    width = max(1, int(math.ceil(cols)))
    height = max(1, int(math.ceil(rows)))
    return heatmap(samples, ox, oy, cell_size, width, height)


def visit_weights(samples, graph: RoadGraph, dwell_weighting: bool = False):
    """Per-node weight accumulated from samples snapped to their nearest node.

    Count weighting adds 1 per sample; dwell weighting adds the time gap to
    the previous sample of the same vehicle (first sample counts 0 s).
    """
    weights = [0.0] * graph.n_nodes()
    if not dwell_weighting:
        for s in samples:
            weights[nearest_node(graph, s.x, s.y)] += 1.0
        return weights
    # each sample covers the gap to the next one; the last sample reuses the
    # previous gap so uniform sampling matches count weighting exactly
    for series in split_by_vehicle(samples).values():
        for i, s in enumerate(series):
            if i + 1 < len(series):
                dt = series[i + 1].t - s.t
            elif i > 0:
                dt = s.t - series[i - 1].t
            else:
                dt = 0.0
            weights[nearest_node(graph, s.x, s.y)] += dt
    return weights


@dataclass
class PlacementResult:
    stations: list   # node ids, in selection order
    scores: list     # score each station had when picked
    k: int
    min_separation: float


def _path_factor(graph: RoadGraph) -> float:
    """f with f * hypot(a, b) <= d(a, b) in floats for every pair of nodes.

    Each edge is at least f times its chord, so by the triangle inequality
    each path is at least f times the straight line between its ends. The
    smallest length/chord ratio (1.0 without a chord > 0) is shrunk by 1e-9,
    which absorbs the rounding of chords and of path sums. 0.0 when f times
    the map's extent is not finite.
    """
    wps = graph.waypoints
    chords = ((e.length, math.hypot(wps[e.dst].x - wps[e.src].x, wps[e.dst].y - wps[e.src].y))
              for e in graph.edges)
    f = min((length / chord for length, chord in chords if chord > 0), default=1.0)
    f *= 1.0 - 1e-9
    x0, y0, x1, y1 = graph.bounding_box()
    return f if math.isfinite(f * math.hypot(x1 - x0, y1 - y0)) else 0.0


def place_chargers(graph: RoadGraph, weights, k: int, min_separation: float = 25.0,
                   d_scale: float = 20.0) -> PlacementResult:
    """Greedy coverage selection of up to k charger nodes.

    score(node) = sum over u of weights[u] * 1/(1 + d(u, node)/d_scale) with
    d the symmetric-min network distance. Each round picks the best feasible
    node (>= min_separation from all picks, ties to the smaller id), then
    zeroes the weights it covers within min_separation.

    Lazy greedy (Minoux 1978): covered nodes only leave the weighted set
    and the feasible set only shrinks, so with weights >= 0 a node's score
    can only fall between rounds. Every heap key is an upper bound of its
    node's current score, and a popped node whose fresh score still heads
    the heap is the pick the full scan would make.

    Lazy rows: only the Dijkstra rows of the weighted nodes are computed up
    front. Their keys start as their scores, and every other node's as a
    coordinate bound, so with every node weighted this is the plain lazy
    greedy over all rows. A bound sums
    weights[u] / (1 + f * hypot(u, node) / d_scale) over the weighted u in
    ascending order, f from _path_factor. Term by term f * hypot is at most
    the distance either way, and rounded + and / are monotone, so the bound
    is >= the score in floats. A popped node without a row is checked
    against the stations' rows, then its bound is refreshed over the weight
    still uncovered, and only if that still heads the heap is its row
    computed. Most nodes never get that far.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not d_scale > 0:
        raise ValueError(f"d_scale must be > 0, got {d_scale}")
    weights = list(weights)
    if not all(0.0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite and >= 0")
    n = graph.n_nodes()
    if n == 0:
        raise EmptyGraph("place_chargers on empty graph")
    weighted = [u for u in range(n) if weights[u] != 0.0]  # not yet covered
    rows = [None] * n  # forward Dijkstra rows, computed on demand
    for u in weighted:
        rows[u] = dijkstra(graph, u)

    f = _path_factor(graph)
    # without a finite factor every node is put at one point, which leaves
    # the weights alone as the bound
    xy = [(p.x, p.y) if f else (0.0, 0.0) for p in graph.waypoints]

    def bound(node):
        x, y = xy[node]
        total = 0.0
        for u in weighted:
            ux, uy = xy[u]
            total += weights[u] / (1.0 + f * math.hypot(ux - x, uy - y) / d_scale)
        return total

    def score(node, row):
        # ascending u, zero weights and unreachable u skipped: the same sum,
        # term for term, as a scan over all u
        total = 0.0
        for u in weighted:
            d = min(rows[u][node], row[u])
            if math.isfinite(d):
                total += weights[u] / (1.0 + d / d_scale)
        return total

    heap = [(-(bound(node) if rows[node] is None else score(node, rows[node])), node)
            for node in range(n)]
    heapq.heapify(heap)
    stations, scores = [], []
    # with nothing left to cover every score is 0 and no node can be picked
    while heap and weighted and len(stations) < k:
        _, node = heapq.heappop(heap)
        # infeasible now, so for good; the stations' rows are checked first,
        # since the node's own row may not exist yet
        if not all(rows[s][node] >= min_separation for s in stations):
            continue
        if rows[node] is None:
            b = bound(node)
            if heap and (-b, node) > heap[0]:
                heapq.heappush(heap, (-b, node))
                continue
            rows[node] = dijkstra(graph, node)
        row = rows[node]
        if not all(row[s] >= min_separation for s in stations):
            continue
        fresh = score(node, row)
        if not fresh > 0.0:
            continue  # covers no remaining weight now, so never again
        if heap and (-fresh, node) > heap[0]:
            heapq.heappush(heap, (-fresh, node))
            continue
        stations.append(node)
        scores.append(fresh)
        # a pick stays a candidate: with min_separation <= 0 it is still
        # feasible and may be picked again, as the full scan would
        heapq.heappush(heap, (-fresh, node))
        weighted = [u for u in weighted
                    if not (rows[u][node] < min_separation or row[u] < min_separation)]
    return PlacementResult(stations, scores, k, min_separation)


def score_placement(result: PlacementResult, samples, graph: RoadGraph) -> float:
    """Mean network distance from each sample's node to its nearest station."""
    if not result.stations:
        raise ValueError("empty placement")
    dist_to = {s: dijkstra(graph, s) for s in result.stations}
    dist_from = {}
    total = 0.0
    count = 0
    for smp in samples:
        node = nearest_node(graph, smp.x, smp.y)
        if node not in dist_from:
            dist_from[node] = dijkstra(graph, node)
        best = math.inf
        for st in result.stations:
            best = min(best, dist_from[node][st], dist_to[st][node])
        total += best
        count += 1
    return total / count if count else 0.0


# --- file formats -----------------------------------------------------------

def write_heatmap(grid: HeatmapGrid, fileobj) -> None:
    w = fileobj.write
    w(f"heatmap v1 {grid.origin_x:.12g} {grid.origin_y:.12g} "
      f"{grid.cell_size:.12g} {grid.width} {grid.height}\n")
    for row in grid.counts:
        w(" ".join(str(c) for c in row) + "\n")


def write_heatmap_nonzero_csv(grid: HeatmapGrid, fileobj) -> None:
    fileobj.write("cell_x,cell_y,center_x,center_y,count\n")
    for cy in range(grid.height):
        for cx in range(grid.width):
            c = grid.counts[cy][cx]
            if c > 0:
                x, y = grid.cell_center(cx, cy)
                fileobj.write(f"{cx},{cy},{x:.12g},{y:.12g},{c}\n")


def write_placement_csv(result: PlacementResult, graph: RoadGraph, fileobj) -> None:
    w = fileobj.write
    w("round,node_id,x,y,score\n")
    for i, (node, score) in enumerate(zip(result.stations, result.scores)):
        wp = graph.waypoints[node]
        w(f"{i},{node},{wp.x:.12g},{wp.y:.12g},{score:.12g}\n")
