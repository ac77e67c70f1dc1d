"""Charging-station placement from trajectory data, plus heatmap validation.

Stations are chosen by visit-weighted greedy coverage with distance decay,
restricted to road-network nodes and subject to a minimum pairwise network
separation. This is a documented stand-in for a centrality-based placement
method published elsewhere; the tests' mean-detour score (tests/conftest.py)
keeps alternatives comparable. The occupancy heatmap provides the visual
cross-check.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

from . import ConfigError, InputError, setting
from .roadnet import RoadGraph, dijkstra, nearest_nodes
from .trajectory import split_by_vehicle


MAX_CELLS = 10**7  # per heatmap; the L map at the default 2 m cell size has ~20k


@dataclass
class PlacementConfig:
    k: int = setting(5, 1)
    min_separation: float = setting(25.0, 0)
    d_scale: float = setting(20.0, 0, ends="(]")
    cell_size: float = setting(2.0, 0, ends="(]")


@dataclass
class HeatmapGrid:
    origin_x: float
    origin_y: float
    cell_size: float
    width: int
    height: int
    counts: list          # row-major, height rows of width ints
    overflow: int = 0

    def cell_center(self, cx: int, cy: int):
        return (self.origin_x + (cx + 0.5) * self.cell_size,
                self.origin_y + (cy + 0.5) * self.cell_size)


def heatmap_for_graph(samples, graph: RoadGraph,
                      cell_size: float = PlacementConfig.cell_size) -> HeatmapGrid:
    """Count trajectory samples per cell of a grid over the graph's bounding
    box plus a 2 m margin; samples outside it go to the overflow tally, so
    conservation is exact. cell_size is finite and > 0 (PlacementConfig), so
    each side spans > 0 cells; a grid of more than MAX_CELLS once each side
    is rounded up is a ConfigError."""
    margin = 2.0
    x0, y0, x1, y1 = graph.bounding_box()
    ox, oy = x0 - margin, y0 - margin
    cols = (x1 - x0 + 2 * margin) / cell_size
    rows = (y1 - y0 + 2 * margin) / cell_size
    # a side past MAX_CELLS is not rounded: math.ceil would stop at inf
    width, height = (math.ceil(n) if n <= MAX_CELLS else MAX_CELLS + 1 for n in (cols, rows))
    if width * height > MAX_CELLS:
        raise ConfigError(f"cell_size {cell_size} makes a grid of {cols:.12g} x {rows:.12g} "
                          f"cells, more than {MAX_CELLS} once each side is rounded up")
    grid = HeatmapGrid(ox, oy, cell_size, width, height, [[0] * width for _ in range(height)])
    for s in samples:
        # the quotients are tested before they are truncated: one too far
        # from the origin for a float is inf, and outside the grid too
        qx, qy = (s.x - ox) / cell_size, (s.y - oy) / cell_size
        if 0 <= qx < width and 0 <= qy < height:
            grid.counts[int(qy)][int(qx)] += 1
        else:
            grid.overflow += 1
    return grid


def visit_weights(samples, graph: RoadGraph, dwell_weighting: bool = False):
    """Per-node weight accumulated from samples snapped to their nearest node.

    Count weighting adds 1 per sample; dwell weighting adds the time gap to
    the previous sample of the same vehicle (first sample counts 0 s). Gaps
    that sum past the float range at one node are an InputError.
    """
    weights = [0.0] * graph.n_nodes()
    if not dwell_weighting:
        for node in nearest_nodes(graph, ((s.x, s.y) for s in samples)):
            weights[node] += 1.0
        return weights
    # each sample covers the gap to the next one; the last sample reuses the
    # previous gap so uniform sampling matches count weighting exactly
    for series in split_by_vehicle(samples).values():
        nodes = nearest_nodes(graph, ((s.x, s.y) for s in series))
        for i, (s, node) in enumerate(zip(series, nodes)):
            if i + 1 < len(series):
                dt = series[i + 1].t - s.t
            elif i > 0:
                dt = s.t - series[i - 1].t
            else:
                dt = 0.0
            weights[node] += dt
    for node, w in enumerate(weights):
        if not w < math.inf:
            raise InputError(f"dwell time at node {node} sums past the float range")
    return weights


@dataclass
class PlacementResult:
    stations: list   # node ids, in selection order
    scores: list     # score each station had when picked


# Box distances are shrunk by this factor, and then by the smallest
# subnormal, to fall at or below every member's hypot (place_chargers).
_SHRINK = 1.0 - 2.0 ** -50


def _fill_rows(graph: RoadGraph, rows: dict, nodes) -> None:
    """Put each node's packed forward Dijkstra row into rows, the one store
    of every row the call makes.

    Where graph.exact_sums holds, Dijkstra runs only at the anchor of u's
    chain. A dead-end spur of c is an out-edge c->s where s's only
    out-edge is s->c and c->s is s's only in-edge (two parallel edges count
    as two); a node whose other out-edges are all dead-end spurs has one
    real way on. The walk from u along real ways on ends at the first node
    with a row already, with no or two or more real ways on, or met before
    (a cycle of such nodes closes there). Every path from u runs along the
    walk, and a detour into a spur only comes straight back, which adds a
    positive cycle. So d(u, x) is the walk's length to x for x on the walk,
    its length to c plus l(c, s) for a spur node s of a walk node c, else
    its length to the anchor plus d(anchor, x) (Bellman 1958: d(u, x) = l +
    d(v, x) for a node whose only way on is (u, v, l)). The walk's entries
    override the spurs', since u may itself be a spur node. A shortest path
    never passes a walk node twice, so each entry is a sum of distinct
    edges, exact under exact_sums and so the float Dijkstra returns; inf
    stays inf. A missing anchor row is made and kept in rows, where it
    serves every later walk that ends there, so no Dijkstra runs twice. On
    other graphs every walk is empty: one Dijkstra per row.
    """
    adjacency, in_degree = graph.adjacency, graph.in_degree
    for u in nodes:
        walk, seen, c = [], {}, u  # seen: walk node -> its place in walk
        while graph.exact_sums and c not in rows and c not in seen:
            ways, spurs = [], []
            for e in adjacency[c]:
                back = adjacency[e.dst]
                dead_end = len(back) == 1 and back[0].dst == c and in_degree[e.dst] == 1
                (spurs if dead_end else ways).append(e)
            if len(ways) != 1:
                break
            seen[c] = len(walk)
            walk.append((c, ways[0], spurs))
            c = ways[0].dst
        if c in seen:  # a cycle closes at c, which anchors the nodes before it
            walk = walk[:seen[c]]
        if c not in rows:
            rows[c] = array("d", dijkstra(graph, c))
        if walk:
            base, ahead, aside, acc = rows[c], [], [], 0.0
            for c, way, spurs in walk:
                ahead.append((c, acc))
                aside += [(e.dst, acc + e.length) for e in spurs]
                acc += way.length
            row = array("d", [acc + d for d in base])
            for x, d in aside + ahead:  # ahead last: u may be a spur node
                row[x] = d
            rows[u] = row


def place_chargers(graph: RoadGraph, weights, k: int,
                   min_separation: float = PlacementConfig.min_separation,
                   d_scale: float = PlacementConfig.d_scale) -> PlacementResult:
    """Greedy coverage selection of up to k charger nodes.

    score(node) = sum over u of weights[u] * 1/(1 + d(u, node)/d_scale) with
    d the symmetric-min network distance. Each round picks the best feasible
    node (>= min_separation from all picks, ties to the smaller id), then
    zeroes the weights it covers within min_separation. PlacementConfig keeps
    k >= 1 and d_scale > 0; visit_weights makes the weights finite and >= 0.

    Lazy greedy (Minoux 1978): covered nodes only leave the weighted set
    and the feasible set only shrinks, so with weights >= 0 a node's score
    can only fall between rounds. Every heap key is an upper bound of its
    node's current score, and a popped node whose fresh score still heads
    the heap is the pick the full scan would make, whatever the bounds.

    Lazy rows: one dict, rows, holds every row the call makes, node ->
    row. Only the rows of the weighted nodes are made up front, by
    _fill_rows, which on exact-sum graphs runs Dijkstra once per chain
    anchor, keeps the anchor's row in rows too and derives the rows along
    chains of nodes with one real way on, past their dead-end parking
    spurs. Every node in rows starts on its score as key. A
    popped node without a row is checked against the stations' rows, then
    its coordinate bound is computed over the weight still uncovered, and
    only if that still heads the heap is its row made. Rows are packed
    doubles, array('d'), which read back as the same doubles a list row
    would hold.

    The coordinate bound sums weights[u] / (1 + f * hypot(u, node) /
    d_scale) over the weighted u in ascending order, f = graph.path_factor.
    Term by term f * hypot is at most the distance either way, and rounded
    + and / are monotone, so the bound is >= the score in floats.

    Cell keys: a node without a row enters the heap on a cheaper key over
    square cells of the weighted nodes, of side 2 d_scale but at least 1/64
    of their extent. A cell's term is its summed weight / (1 + f * b /
    d_scale), b its box's distance to the node, shrunk by 2^-50 of itself
    and then by the smallest subnormal: hypot errs by under an ulp, so b
    is at most every member's hypot, and each cell's denominator at most
    each member's, in floats. The bound is then at most the same sum over
    the cells' denominators, and that sum and the cell sum are two float
    evaluations, grouped differently, of one real sum. Each rounding errs
    by a factor within 1 +- 2^-53, or by at most 2^-1075 on a subnormal
    result, and every term is >= 0; so with m weighted nodes and c cells,
    both <= n, the first is at most the second times (1 + 2^-53)^m /
    (1 - 2^-53)^(m + c), plus (m + c) * 2^-1075. The key adds 2^-1000,
    far above the second part for any n below 2^70, and multiplies by
    1 + (3n + 8) * 2^-52, about twice the first part's excess with the
    key's own two roundings; the same margin carries an overflow to inf
    of the bound's sum over to the key. A cell whose summed weight and
    denominator both overflow (inf / inf) makes the key inf. Without a
    finite f every node is put at one point, where every term is the
    summed weight itself.
    """
    weights = list(weights)
    n = graph.n_nodes()
    weighted = [u for u in range(n) if weights[u] != 0.0]
    if not weighted:  # every score is 0, so no node can be picked
        return PlacementResult([], [])
    rows = {}  # node -> its forward Dijkstra row, made on demand
    _fill_rows(graph, rows, weighted)

    f = graph.path_factor
    # without a finite factor every node is put at one point, which leaves
    # the weights alone as the bound
    xy = [(p.x, p.y) if f else (0.0, 0.0) for p in graph.waypoints]
    hypot, inf = math.hypot, math.inf
    # the weights not yet covered, ascending u: (x, y, weight) for bound,
    # (row, u, weight) for score
    points = [(*xy[u], weights[u]) for u in weighted]
    terms = [(rows[u], u, weights[u]) for u in weighted]

    def bound(node):
        x, y = xy[node]
        total = 0.0
        for ux, uy, w in points:
            total += w / (1.0 + f * hypot(ux - x, uy - y) / d_scale)
        return total

    def score(node, row):
        # ascending u, zero weights and unreachable u skipped: the same sum,
        # term for term, as a scan over all u; d is min() of the pair and,
        # as a distance >= 0, finite exactly when below inf
        total = 0.0
        for urow, u, w in terms:
            d = urow[node]
            back = row[u]
            if back < d:
                d = back
            if d < inf:
                total += w / (1.0 + d / d_scale)
        return total

    heap = [(-score(u, row), u) for u, row in rows.items()]
    rowless = [node for node in range(n) if node not in rows]
    heap += zip([-key for key in _cell_keys(xy, points, f, d_scale, rowless)], rowless)
    heapq.heapify(heap)
    stations, scores = [], []
    # with nothing left to cover, as above
    while heap and terms and len(stations) < k:
        _, node = heapq.heappop(heap)
        # infeasible now, so for good; the stations' rows are checked first,
        # since the node's own row may not exist yet
        if not all(rows[s][node] >= min_separation for s in stations):
            continue
        if node not in rows:
            b = bound(node)
            if heap and (-b, node) > heap[0]:
                heapq.heappush(heap, (-b, node))
                continue
            _fill_rows(graph, rows, (node,))
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
        terms = [t for t in terms
                 if not (t[0][node] < min_separation or row[t[1]] < min_separation)]
        points = [(*xy[u], w) for _, u, w in terms]
    return PlacementResult(stations, scores)


def _cell_keys(xy, points, f, d_scale, nodes):
    """Upper bounds of the nodes' scores over cells of the weighted points
    (x, y, weight), at least their coordinate bounds: see place_chargers."""
    x0, y0 = min(p[0] for p in points), min(p[1] for p in points)
    side = max(2.0 * d_scale, (max(p[0] for p in points) - x0) / 64,
               (max(p[1] for p in points) - y0) / 64)
    boxes = {}  # cell -> [x0, y0, x1, y1, summed weight] of its members
    for x, y, w in points:
        cell = int((x - x0) / side), int((y - y0) / side)
        box = boxes.get(cell)
        if box is None:
            boxes[cell] = [x, y, x, y, w]
        else:
            box[0], box[1] = min(box[0], x), min(box[1], y)
            box[2], box[3] = max(box[2], x), max(box[3], y)
            box[4] += w
    cells = [tuple(box) for box in boxes.values()]
    slack = 1.0 + (3 * len(xy) + 8) * 2.0 ** -52
    hypot = math.hypot
    keys = []
    for node in nodes:
        x, y = xy[node]
        total = 0.0
        for bx0, by0, bx1, by1, w in cells:
            dx = bx0 - x if x < bx0 else x - bx1 if x > bx1 else 0.0
            dy = by0 - y if y < by0 else y - by1 if y > by1 else 0.0
            b = hypot(dx, dy) * _SHRINK - 5e-324
            total += w / (1.0 + f * b / d_scale) if b > 0.0 else w
        key = (total + 2.0 ** -1000) * slack
        keys.append(key if key == key else math.inf)  # nan from inf / inf
    return keys


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
