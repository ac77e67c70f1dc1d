"""Restricted OpenDRIVE importer: roads with line/arc planView geometry.

Only what routing needs is read: reference-line geometry, driving-lane
counts per side and road-to-road links. Lane offsets are ignored; both
travel directions share the sampled reference line, with direction encoded
in edge orientation (right lanes forward, left lanes backward, right-hand
traffic). Anything outside the subset is skipped with a warning, except
unsupported planView geometry, which is a hard error.
"""

from __future__ import annotations

import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional

from . import ConfigError, InputError
from .roadnet import Edge, RoadGraph, UnionFind, Waypoint, build_graph, normalize_heading

log = logging.getLogger(__name__)

SUPPORTED_GEOMETRY = ("line", "arc")
SPEED_LIMIT = 4.0  # m/s on every imported edge: the subset reads no speed records
# Sample points (road length over spacing, summed) per conversion: a 10 km
# site at 1 m has 10^4. Two-lane roads peak at about 1.9 kB a point
# (tracemalloc), so 10^5 is about 190 MB.
MAX_POINTS = 10**5


class MalformedDocument(InputError):
    pass


class UnsupportedGeometry(InputError):
    pass


class MissingAttribute(InputError):
    pass


class TooManyPoints(ConfigError):
    pass


class GeometryGap(InputError):
    pass


class DegenerateRoad(InputError):
    pass


@dataclass(frozen=True)
class GeometrySegment:
    kind: str  # "line" | "arc"
    s: float
    x: float
    y: float
    hdg: float
    length: float
    curvature: float = 0.0

    def point_at(self, u: float):
        """Analytic (x, y, heading) at arc length u from the segment start."""
        if self.kind == "line":
            return (self.x + u * math.cos(self.hdg),
                    self.y + u * math.sin(self.hdg),
                    self.hdg)
        k = self.curvature
        h = self.hdg + k * u
        return (self.x + (math.sin(h) - math.sin(self.hdg)) / k,
                self.y - (math.cos(h) - math.cos(self.hdg)) / k,
                h)


@dataclass(frozen=True)
class RoadLink:
    kind: str          # "predecessor" | "successor"
    element_id: str
    contact_point: str  # "start" | "end"


@dataclass
class Road:
    id: str
    length: float
    plan_view: list
    left_count: int
    right_count: int
    links: list = field(default_factory=list)

    def point_at(self, s: float):
        """Reference-line point at arc length s along the whole road."""
        s = min(max(s, 0.0), self.length)
        seg = self.plan_view[0]
        for g in self.plan_view:
            if s >= g.s - 1e-12:
                seg = g
        return seg.point_at(min(s - seg.s, seg.length))


@dataclass
class RoadDescription:
    roads: list

    def road_by_id(self, rid: str) -> Optional[Road]:
        for r in self.roads:
            if r.id == rid:
                return r
        return None


def _attr(elem, name, road_id, cast=float):
    v = elem.get(name)
    if v is None:
        raise MissingAttribute(f"road {road_id}: <{elem.tag}> missing attribute '{name}'")
    try:
        value = cast(v)
    except ValueError as exc:
        raise MalformedDocument(f"road {road_id}: bad value for '{name}': {v!r}") from exc
    if not math.isfinite(value):
        raise MalformedDocument(f"road {road_id}: non-finite value for '{name}': {v!r}")
    return value


def parse_opendrive_subset(text: str) -> RoadDescription:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedDocument(f"not well-formed XML: {exc}") from exc
    roads = []
    for road_el in root.iter("road"):
        rid = road_el.get("id", "?")
        length = _attr(road_el, "length", rid)
        pv = road_el.find("planView")
        if pv is None:
            raise MalformedDocument(f"road {rid}: missing planView")
        segments = []
        for geom in pv.findall("geometry"):
            children = list(geom)
            if not children:
                raise MalformedDocument(f"road {rid}: geometry without shape element")
            shape = children[0]
            if shape.tag not in SUPPORTED_GEOMETRY:
                raise UnsupportedGeometry(f"road {rid}: planView element '{shape.tag}'")
            seg = GeometrySegment(
                kind=shape.tag,
                s=_attr(geom, "s", rid),
                x=_attr(geom, "x", rid),
                y=_attr(geom, "y", rid),
                hdg=_attr(geom, "hdg", rid),
                length=_attr(geom, "length", rid),
                curvature=_attr(shape, "curvature", rid) if shape.tag == "arc" else 0.0,
            )
            if seg.length <= 0:
                raise MalformedDocument(f"road {rid}: non-positive segment length")
            if seg.kind == "arc" and (seg.curvature == 0 or not math.isfinite(seg.curvature)):
                raise MalformedDocument(f"road {rid}: arc needs nonzero finite curvature")
            segments.append(seg)
        if not segments:
            raise MalformedDocument(f"road {rid}: empty planView")
        segments.sort(key=lambda g: g.s)
        for a, b in zip(segments, segments[1:]):
            if b.s <= a.s:
                raise MalformedDocument(f"road {rid}: segment s-offsets not strictly increasing")
            xe, ye, _ = a.point_at(a.length)
            if math.hypot(b.x - xe, b.y - ye) > 1e-3:
                raise GeometryGap(f"road {rid}: planView discontinuity at s={b.s}")
        seg_total = sum(g.length for g in segments)
        if abs(seg_total - length) > 1e-3:
            raise MalformedDocument(
                f"road {rid}: declared length {length} != segment sum {seg_total}"
            )
        left_count = right_count = 0
        lanes_el = road_el.find("lanes")
        if lanes_el is not None:
            for section in lanes_el.findall("laneSection"):
                lc = rc = 0
                for side in ("left", "right"):
                    side_el = section.find(side)
                    if side_el is None:
                        continue
                    n = sum(1 for lane in side_el.findall("lane")
                            if lane.get("type", "driving") == "driving")
                    if side == "left":
                        lc = n
                    else:
                        rc = n
                left_count = max(left_count, lc)
                right_count = max(right_count, rc)
        links = []
        link_el = road_el.find("link")
        if link_el is not None:
            for kind in ("predecessor", "successor"):
                le = link_el.find(kind)
                if le is None:
                    continue
                if le.get("elementType", "road") != "road":
                    log.warning("road %s: skipping %s link to %s element",
                                rid, kind, le.get("elementType"))
                    continue
                eid = le.get("elementId")
                if eid is None:
                    raise MissingAttribute(f"road {rid}: link without elementId")
                contact = le.get("contactPoint", "start" if kind == "successor" else "end")
                if contact not in ("start", "end"):
                    raise MalformedDocument(f"road {rid}: {kind} contactPoint {contact!r} "
                                            "is neither 'start' nor 'end'")
                links.append(RoadLink(kind, eid, contact))
        roads.append(Road(rid, length, segments, left_count, right_count, links))
    if not roads:
        raise MalformedDocument("document contains no <road> elements")
    return RoadDescription(roads)


def to_road_graph(desc: RoadDescription, spacing: float) -> RoadGraph:
    """Sample every road's reference line and wire up directed edge chains.

    Forward chains carry right-lane traffic, backward chains left-lane
    traffic with reversed headings. Linked roads share junction nodes so
    routes flow across road boundaries. Every edge gets SPEED_LIMIT.
    """
    if not 0.0 < spacing < math.inf:
        raise ConfigError(f"spacing must be finite and > 0, got {spacing}")
    for road in desc.roads:
        if road.length <= 0:
            raise DegenerateRoad(f"road {road.id} has zero length")
    # summed before math.ceil, which an inf quotient would stop
    n_points = sum(road.length / spacing for road in desc.roads)
    if not n_points <= MAX_POINTS:
        raise TooManyPoints(f"spacing {spacing!r} makes {n_points:.3g} sample points, "
                            f"more than {MAX_POINTS}")

    raw = []   # (x, y, heading) per raw node
    edges = []
    # per (road id, direction) -> node index list along the chain
    chains = {}
    for road in desc.roads:
        n = max(1, math.ceil(road.length / spacing - 1e-12))
        step = road.length / n
        pts = [road.point_at(i * step) for i in range(n + 1)]
        if road.right_count > 0:
            idxs = []
            for (x, y, h) in pts:
                idxs.append(len(raw))
                raw.append((x, y, normalize_heading(h)))
            for a, b in zip(idxs, idxs[1:]):
                edges.append([a, b, step])
            chains[(road.id, "fwd")] = idxs
        if road.left_count > 0:
            idxs = []
            for (x, y, h) in reversed(pts):
                idxs.append(len(raw))
                raw.append((x, y, normalize_heading(h + math.pi)))
            for a, b in zip(idxs, idxs[1:]):
                edges.append([a, b, step])
            chains[(road.id, "bwd")] = idxs

    # Merge chain endpoints across road links (union-find on raw indices).
    uf = UnionFind(len(raw))

    def arriving(road, end):
        """Raw node where traffic reaches `end` of road, None without that lane."""
        chain = chains.get((road.id, "fwd" if end == "end" else "bwd"))
        return chain[-1] if chain else None

    def leaving(road, end):
        """Raw node where traffic leaves road at `end`, None without that lane."""
        chain = chains.get((road.id, "bwd" if end == "end" else "fwd"))
        return chain[0] if chain else None

    for road in desc.roads:
        for link in road.links:
            other = desc.road_by_id(link.element_id)
            if other is None:
                log.warning("road %s: link to unknown road %s ignored", road.id, link.element_id)
                continue
            # a successor touches our end, a predecessor our start; traffic
            # arriving at one road's touching end leaves by the other's
            ours = "end" if link.kind == "successor" else "start"
            theirs = link.contact_point
            for a, b in ((arriving(road, ours), leaving(other, theirs)),
                         (arriving(other, theirs), leaving(road, ours))):
                if a is None or b is None:
                    continue
                xa, ya, _ = raw[a]
                xb, yb, _ = raw[b]
                gap = math.hypot(xb - xa, yb - ya)
                if gap > 1e-3:
                    raise GeometryGap(
                        f"linked roads {road.id}/{other.id} endpoints {gap:.4f} m apart"
                    )
                uf.union(a, b)

    # Compact merged nodes into dense ids, deterministically by raw order.
    rep_to_node = {}
    waypoints = []
    for i in range(len(raw)):
        r = uf.find(i)
        if r not in rep_to_node:
            rep_to_node[r] = len(waypoints)
            x, y, h = raw[r]
            waypoints.append(Waypoint(len(waypoints), x, y, h))
    node_of = [rep_to_node[uf.find(i)] for i in range(len(raw))]
    edge_objs = []
    seen = set()
    for a, b, length in edges:
        na, nb = node_of[a], node_of[b]
        if na == nb or (na, nb) in seen:
            continue
        seen.add((na, nb))
        edge_objs.append(Edge(na, nb, length, SPEED_LIMIT, True))
    return build_graph(waypoints, edge_objs, [])
