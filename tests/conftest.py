import math
import random

import pytest

from forkfleet import mapgen, total
from forkfleet.fleet_sim import World
from forkfleet.roadnet import (Edge, ParkingSpot, Waypoint, build_graph, dijkstra,
                               nearest_node)


def run_samples(world, duration, spot=None):
    """world.ticks(duration, spot) flattened into one list, in (t,
    vehicle_id) order."""
    return [s for tick in world.ticks(duration, spot) for s in tick]


def world_at(graph, vehicles, **kwargs):
    """A World on graph whose trucks are the given VehicleStates, in id
    order: World(graph, 0, **kwargs) with its vehicles set."""
    world = World(graph, 0, **kwargs)
    world.vehicles = list(vehicles)
    return world


def path_length(graph, nodes):
    """The length of an astar node path: forkfleet.total, left to right, of
    the shortest of the parallel edges at each hop, the float that astar's
    label held and that dijkstra's row holds."""
    return total(min(e.length for e in graph.adjacency[a] if e.dst == b)
                 for a, b in zip(nodes, nodes[1:]))


def dist_matrix(snapshot):
    """dist[i][j] = the directed network distance from a density.Snapshot's
    vehicle i to its vehicle j; inf past the snapshot's rows."""
    return [[snapshot.rows[a].get(b, math.inf) for b in snapshot.nodes] for a in snapshot.nodes]


def score_placement(result, samples, graph):
    """Mean network distance from each sample's node to its nearest station:
    the reference that placements are compared by."""
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


def top_decile_cells(grid):
    """A placement.HeatmapGrid's nonzero cells with counts at or above the
    90th percentile of nonzero counts."""
    nz = sorted(c for row in grid.counts for c in row if c > 0)
    if not nz:
        return []
    threshold = nz[min(len(nz) - 1, int(math.ceil(0.9 * len(nz))) - 1)]
    return [(cx, cy) for cy in range(grid.height) for cx in range(grid.width)
            if grid.counts[cy][cx] >= threshold and grid.counts[cy][cx] > 0]


def random_graph(seed, n_nodes, extra_edges=None, extent=100.0):
    """Random strongly-ish connected directed graph with Euclidean-consistent
    edge lengths (length >= straight-line distance, so A*'s heuristic is
    admissible). Deterministic per seed."""
    rnd = random.Random(seed)
    pts = [(rnd.uniform(0, extent), rnd.uniform(0, extent)) for _ in range(n_nodes)]
    waypoints = [Waypoint(x, y, 0.0) for x, y in pts]
    edges = []
    seen = set()

    def add(a, b):
        if a == b or (a, b) in seen:
            return
        seen.add((a, b))
        chord = math.dist(pts[a], pts[b])
        edges.append(Edge(a, b, chord * rnd.uniform(1.0, 1.5) + 1e-9, 3.0))

    # random spanning cycle keeps everything reachable
    order = list(range(n_nodes))
    rnd.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        add(a, b)
    if extra_edges is None:
        extra_edges = 2 * n_nodes
    for _ in range(extra_edges):
        add(rnd.randrange(n_nodes), rnd.randrange(n_nodes))
    return build_graph(waypoints, edges)


def one_way_pair_graph():
    """Two nodes connected A->B only, plus a long way back B->C->A."""
    waypoints = [Waypoint(0, 0, 0.0), Waypoint(10, 0, 0.0), Waypoint(5, 8, 0.0)]
    edges = [
        Edge(0, 1, 10.0, 3.0),
        Edge(1, 2, 10.0, 3.0),
        Edge(2, 0, 10.0, 3.0),
    ]
    return build_graph(waypoints, edges)


def square_graph():
    """4-node square with both directions on every side (8 edges)."""
    waypoints = [Waypoint(0, 0, 0.0), Waypoint(10, 0, 0.0),
                 Waypoint(10, 10, 0.0), Waypoint(0, 10, 0.0)]
    edges = []
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        edges.append(Edge(a, b, 10.0, 3.0))
        edges.append(Edge(b, a, 10.0, 3.0))
    return build_graph(waypoints, edges)


def line_graph(lengths):
    """0 -> 1 -> 2 ... with the given edge lengths along the x axis."""
    xs = [0.0]
    for L in lengths:
        xs.append(xs[-1] + L)
    waypoints = [Waypoint(x, 0.0, 0.0) for x in xs]
    edges = [Edge(i, i + 1, L, 3.0) for i, L in enumerate(lengths)]
    return build_graph(waypoints, edges)


def enumerate_shortest(graph, src, dst):
    """Brute-force shortest distance over all simple paths (oracle)."""
    best = math.inf

    def walk(node, dist, visited):
        nonlocal best
        if dist >= best:
            return
        if node == dst:
            best = dist
            return
        for e in graph.adjacency[node]:
            if e.dst not in visited:
                walk(e.dst, dist + e.length, visited | {e.dst})

    walk(src, 0.0, {src})
    return best


@pytest.fixture(scope="session")
def warehouse():
    return mapgen.warehouse_map()
