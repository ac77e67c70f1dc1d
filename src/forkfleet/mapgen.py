"""Synthetic warehouse map generator.

Builds a rectangular grid of one-way streets (alternating directions, so the
network is strongly connected and genuinely asymmetric) with parking spots
on short perpendicular spur stubs. Spur spots keep parked trucks well off
the travel lanes, which the collision-avoidance safety margin relies on.
Used by the test fixtures and as a convenient demo map for the CLI.
"""

from __future__ import annotations

import math

from .roadnet import Edge, ParkingSpot, RoadGraph, Waypoint, build_graph

BLOCK = 20.0         # m between parallel streets
NODE_SPACING = 10.0  # m between street nodes, half a block
SPUR_LEN = 5.0       # m from street to parking spot
STREET_SPEED = 3.0   # m/s
SPUR_SPEED = 1.5     # m/s


def warehouse_map(nx: int = 4, ny: int = 3, n_spots: int = 8) -> RoadGraph:
    """Grid of (nx x ny) blocks; horizontal streets run east on even rows and
    west on odd rows, vertical streets alternate the same way."""
    per_block = int(BLOCK / NODE_SPACING)

    nodes = {}
    waypoints = []
    edges = []

    def node_at(x, y, heading=0.0):
        key = (round(x, 6), round(y, 6))
        if key not in nodes:
            nodes[key] = len(waypoints)
            waypoints.append(Waypoint(x, y, heading))
        return nodes[key]

    def add_chain(points, heading, speed):
        ids = [node_at(x, y, heading) for x, y in points]
        for a, b in zip(ids, ids[1:]):
            edges.append(Edge(a, b, NODE_SPACING, speed))

    # Perimeter runs counterclockwise (bottom east, right north, top west,
    # left south); interior streets alternate. Every interior street starts
    # and ends on the ring, so the network is strongly connected.
    for j in range(ny + 1):
        y = j * BLOCK
        xs = [i * NODE_SPACING for i in range(nx * per_block + 1)]
        eastward = j == 0 or (j != ny and j % 2 == 0)
        if eastward:
            add_chain([(x, y) for x in xs], 0.0, STREET_SPEED)
        else:
            add_chain([(x, y) for x in reversed(xs)], math.pi, STREET_SPEED)
    for i in range(nx + 1):
        x = i * BLOCK
        ys = [j * NODE_SPACING for j in range(ny * per_block + 1)]
        northward = i == nx or (i != 0 and i % 2 == 1)
        if northward:
            add_chain([(x, y) for y in ys], math.pi / 2, STREET_SPEED)
        else:
            add_chain([(x, y) for y in reversed(ys)], -math.pi / 2, STREET_SPEED)

    # spur parking spots off horizontal street segment midpoints
    midpoints = []
    for j in range(ny + 1):
        y = j * BLOCK
        dy = SPUR_LEN if j < ny else -SPUR_LEN
        for i in range(nx):
            xm = i * BLOCK + BLOCK / 2.0
            midpoints.append((xm, y, dy))
    if n_spots > len(midpoints):
        raise ValueError(f"at most {len(midpoints)} spots fit this grid")
    # spread the spots over the available midpoints
    stride = max(1, len(midpoints) // n_spots) if n_spots else 1
    spots = []
    for idx in range(0, len(midpoints), stride):
        if len(spots) >= n_spots:
            break
        xm, y, dy = midpoints[idx]
        m = nodes[(round(xm, 6), round(y, 6))]
        hdg = math.pi / 2 if dy > 0 else -math.pi / 2
        s = node_at(xm, y + dy, hdg)
        edges.append(Edge(m, s, SPUR_LEN, SPUR_SPEED))
        edges.append(Edge(s, m, SPUR_LEN, SPUR_SPEED))
        spots.append(ParkingSpot(m, s, SPUR_LEN))
    return build_graph(waypoints, edges, spots)
