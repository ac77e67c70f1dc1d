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

from . import ConfigError, InputError, total
from .roadnet import Edge, RoadGraph, UnionFind, Waypoint, build_graph, normalize_heading

log = logging.getLogger(__name__)

SUPPORTED_GEOMETRY = ("line", "arc")
SPEED_LIMIT = 4.0  # m/s on every imported edge: the subset reads no speed records
# Sample points (road length over spacing, summed) per conversion: a 10 km
# site at 1 m has 10^4. Two-lane roads peak at about 1.9 kB a point
# (tracemalloc), so 10^5 is about 190 MB.
MAX_POINTS = 10**5


class UnsupportedGeometry(InputError):
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


def _attr(elem, name, road_id, cast=float):
    v = elem.get(name)
    if v is None:
        raise InputError(f"road {road_id}: <{elem.tag}> missing attribute '{name}'")
    try:
        value = cast(v)
    except ValueError as exc:
        raise InputError(f"road {road_id}: bad value for '{name}': {v!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"road {road_id}: non-finite value for '{name}': {v!r}")
    return value


def _lane_count(lanes_el, side):
    """Driving lanes on one side ("left" or "right"): the most of any lane
    section, each read from its first <left> or <right> element."""
    sections = lanes_el.findall("laneSection") if lanes_el is not None else []
    side_els = [section.find(side) for section in sections]
    return max((sum(lane.get("type", "driving") == "driving" for lane in el.findall("lane"))
                for el in side_els if el is not None), default=0)


def parse_opendrive_subset(document) -> list:
    """The Roads of OpenDRIVE text, or of bytes in the encoding their XML
    declaration names."""
    try:
        root = ET.fromstring(document)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError, ValueError: a declared encoding the parser cannot use
        raise InputError(f"not well-formed XML: {exc}") from exc
    roads, ids = [], set()
    for road_el in root.iter("road"):
        rid = road_el.get("id")
        if rid is None:
            raise InputError("road without id")
        if rid in ids:
            raise InputError(f"two roads with id {rid}")
        ids.add(rid)
        length = _attr(road_el, "length", rid)
        pv = road_el.find("planView")
        if pv is None:
            raise InputError(f"road {rid}: missing planView")
        segments = []
        for geom in pv.findall("geometry"):
            children = list(geom)
            if not children:
                raise InputError(f"road {rid}: geometry without shape element")
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
                raise InputError(f"road {rid}: non-positive segment length")
            if seg.kind == "arc" and seg.curvature == 0:  # _attr refused a non-finite one
                raise InputError(f"road {rid}: arc needs nonzero finite curvature")
            segments.append(seg)
        if not segments:
            raise InputError(f"road {rid}: empty planView")
        segments.sort(key=lambda g: g.s)
        for a, b in zip(segments, segments[1:]):
            if b.s <= a.s:
                raise InputError(f"road {rid}: segment s-offsets not strictly increasing")
            xe, ye, _ = a.point_at(a.length)
            if math.hypot(b.x - xe, b.y - ye) > 1e-3:
                raise InputError(f"road {rid}: planView discontinuity at s={b.s}")
        seg_total = total(g.length for g in segments)
        if abs(seg_total - length) > 1e-3:
            raise InputError(f"road {rid}: declared length {length} != segment sum {seg_total}")
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
                    raise InputError(f"road {rid}: link without elementId")
                contact = le.get("contactPoint", "start" if kind == "successor" else "end")
                if contact not in ("start", "end"):
                    raise InputError(f"road {rid}: {kind} contactPoint {contact!r} "
                                     "is neither 'start' nor 'end'")
                links.append(RoadLink(kind, eid, contact))
        lanes_el = road_el.find("lanes")
        roads.append(Road(rid, length, segments, _lane_count(lanes_el, "left"),
                          _lane_count(lanes_el, "right"), links))
    if not roads:
        raise InputError("document contains no <road> elements")
    return roads


def to_road_graph(roads, spacing: float) -> RoadGraph:
    """Sample every road's reference line and wire up directed edge chains.

    Forward chains carry right-lane traffic, backward chains left-lane
    traffic with reversed headings. Linked roads share junction nodes so
    routes flow across road boundaries. Every edge gets SPEED_LIMIT.
    """
    if not 0.0 < spacing < math.inf:
        raise ConfigError(f"spacing must be finite and > 0, got {spacing}")
    for road in roads:
        if road.length <= 0:
            raise InputError(f"road {road.id} has zero length")
    # summed before math.ceil, which an inf quotient would stop
    n_points = total(road.length / spacing for road in roads)
    if not n_points <= MAX_POINTS:
        raise ConfigError(f"spacing {spacing!r} makes {n_points:.3g} sample points, "
                          f"more than {MAX_POINTS}")

    raw = []   # (x, y, heading) per raw node
    edges = []
    # per (road id, direction) -> node index list along the chain
    chains = {}
    for road in roads:
        n = max(1, math.ceil(road.length / spacing - 1e-12))
        step = road.length / n
        pts = [road.point_at(i * step) for i in range(n + 1)]
        # h + 0.0 turns only -0.0 into 0.0, which normalize_heading maps alike
        for direction, lanes, chain_pts, turn in (("fwd", road.right_count, pts, 0.0),
                                                  ("bwd", road.left_count, pts[::-1], math.pi)):
            if lanes > 0:
                idxs = list(range(len(raw), len(raw) + len(chain_pts)))
                raw += [(x, y, normalize_heading(h + turn)) for x, y, h in chain_pts]
                edges += [[a, b, step] for a, b in zip(idxs, idxs[1:])]
                chains[(road.id, direction)] = idxs

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

    by_id = {road.id: road for road in roads}
    for road in roads:
        for link in road.links:
            other = by_id.get(link.element_id)
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
                    raise InputError(f"linked roads {road.id}/{other.id} endpoints "
                                     f"{gap:.4f} m apart")
                uf.union(a, b)

    # Compact merged nodes into dense ids by raw order: a set's root is its
    # smallest member, so it is met first and numbered before the rest.
    waypoints, node_of = [], []
    for i, (x, y, h) in enumerate(raw):
        r = uf.find(i)
        if r == i:
            node_of.append(len(waypoints))
            waypoints.append(Waypoint(x, y, h))
        else:
            node_of.append(node_of[r])
    edge_objs = {}  # (src, dst) -> the first edge between them
    for a, b, length in edges:
        na, nb = node_of[a], node_of[b]
        if na != nb:
            edge_objs.setdefault((na, nb), Edge(na, nb, length, SPEED_LIMIT))
    return build_graph(waypoints, list(edge_objs.values()), [])
