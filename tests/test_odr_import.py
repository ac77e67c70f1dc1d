import io
import math

import pytest

from forkfleet import ConfigError, InputError
from forkfleet.odr_import import UnsupportedGeometry, parse_opendrive_subset, to_road_graph
from forkfleet.roadnet import astar, dijkstra, save_roadnet


def road_xml(road_id, length, geometry, lanes="", link=""):
    return f"""
    <road id="{road_id}" length="{length}">
      {link}
      <planView>{geometry}</planView>
      <lanes>{lanes}</lanes>
    </road>"""


LANES_BOTH = """<laneSection s="0">
    <left><lane id="1" type="driving"/></left>
    <right><lane id="-1" type="driving"/></right>
  </laneSection>"""
LANES_RIGHT = """<laneSection s="0">
    <right><lane id="-1" type="driving"/></right>
  </laneSection>"""


def doc(*roads):
    return "<OpenDRIVE>" + "".join(roads) + "</OpenDRIVE>"


STRAIGHT_50 = doc(road_xml(1, 50.0,
                           '<geometry s="0" x="0" y="0" hdg="0" length="50"><line/></geometry>',
                           LANES_RIGHT))


class TestParse:
    def test_minimal_line_road(self):
        roads = parse_opendrive_subset(STRAIGHT_50)
        assert len(roads) == 1
        road = roads[0]
        assert road.length == 50.0
        assert len(road.plan_view) == 1
        assert road.plan_view[0].kind == "line"

    def test_spiral_rejected_with_road_id(self):
        text = doc(road_xml(42, 10.0,
                            '<geometry s="0" x="0" y="0" hdg="0" length="10"><spiral curvStart="0" curvEnd="0.1"/></geometry>',
                            LANES_RIGHT))
        with pytest.raises(UnsupportedGeometry, match="42"):
            parse_opendrive_subset(text)

    @pytest.mark.parametrize("shape", ["poly3", "paramPoly3"])
    def test_other_unsupported_shapes(self, shape):
        text = doc(road_xml(1, 10.0,
                            f'<geometry s="0" x="0" y="0" hdg="0" length="10"><{shape}/></geometry>',
                            LANES_RIGHT))
        with pytest.raises(UnsupportedGeometry, match=shape):
            parse_opendrive_subset(text)

    def test_two_linked_roads(self):
        r1 = road_xml(1, 30.0,
                      '<geometry s="0" x="0" y="0" hdg="0" length="30"><line/></geometry>',
                      LANES_RIGHT,
                      '<link><successor elementType="road" elementId="2" contactPoint="start"/></link>')
        r2 = road_xml(2, 20.0,
                      '<geometry s="0" x="30" y="0" hdg="0" length="20"><line/></geometry>',
                      LANES_RIGHT,
                      '<link><predecessor elementType="road" elementId="1" contactPoint="end"/></link>')
        roads = parse_opendrive_subset(doc(r1, r2))
        assert [r.id for r in roads] == ["1", "2"]
        assert roads[0].links[0].element_id == "2"
        assert roads[1].links[0].element_id == "1"

    def test_unknown_contact_point(self):
        r1 = road_xml(1, 30.0,
                      '<geometry s="0" x="0" y="0" hdg="0" length="30"><line/></geometry>',
                      LANES_RIGHT,
                      '<link><successor elementType="road" elementId="2" contactPoint="middle"/></link>')
        with pytest.raises(InputError, match="contactPoint 'middle'"):
            parse_opendrive_subset(doc(r1))

    @pytest.mark.parametrize("lanes,counts", [
        ("", (0, 0)),
        # type defaults to driving; only each section's first <right> counts
        ('<laneSection s="0"><left><lane id="1" type="sidewalk"/></left>'
         '<right><lane id="-1"/><lane id="-2" type="driving"/></right>'
         '<right><lane id="-3"/></right></laneSection>'
         '<laneSection s="5"><left><lane id="1"/></left></laneSection>', (1, 2)),
    ], ids=["no sections", "most of any section"])
    def test_lane_counts(self, lanes, counts):
        geom = '<geometry s="0" x="0" y="0" hdg="0" length="10"><line/></geometry>'
        road = parse_opendrive_subset(doc(road_xml(1, 10.0, geom, lanes)))[0]
        assert (road.left_count, road.right_count) == counts

    def test_bytes_follow_the_xml_declaration(self):
        text = '<?xml version="1.0" encoding="ISO-8859-1"?>\n' + STRAIGHT_50.replace(
            'id="1"', 'id="caf\xe9"')
        assert parse_opendrive_subset(text.encode("latin-1"))[0].id == "caf\xe9"

    def test_malformed_xml(self):
        with pytest.raises(InputError, match="not well-formed XML"):
            parse_opendrive_subset("<OpenDRIVE><road")

    def test_missing_attribute(self):
        text = doc(road_xml(1, 10.0, '<geometry s="0" x="0" y="0" length="10"><line/></geometry>'))
        with pytest.raises(InputError, match="road 1: <geometry> missing attribute 'hdg'"):
            parse_opendrive_subset(text)

    def test_length_mismatch(self):
        text = doc(road_xml(1, 99.0,
                            '<geometry s="0" x="0" y="0" hdg="0" length="50"><line/></geometry>',
                            LANES_RIGHT))
        with pytest.raises(InputError, match="declared length 99.0 != segment sum 50.0"):
            parse_opendrive_subset(text)

    def test_geometry_gap_detected(self):
        geom = ('<geometry s="0" x="0" y="0" hdg="0" length="10"><line/></geometry>'
                '<geometry s="10" x="15" y="0" hdg="0" length="10"><line/></geometry>')
        with pytest.raises(InputError, match="road 1: planView discontinuity at s=10.0"):
            parse_opendrive_subset(doc(road_xml(1, 20.0, geom, LANES_RIGHT)))


class TestToRoadGraph:
    def test_straight_both_directions(self):
        text = doc(road_xml(1, 10.0,
                            '<geometry s="0" x="0" y="0" hdg="0" length="10"><line/></geometry>',
                            LANES_BOTH))
        g = to_road_graph(parse_opendrive_subset(text), spacing=2.0)
        assert g.n_nodes() == 12  # 6 per direction
        assert len(g.edges) == 10  # 5 each way

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
    def test_spacing_not_finite_and_positive(self, spacing):
        with pytest.raises(ConfigError, match="spacing must be finite and > 0"):
            to_road_graph(parse_opendrive_subset(STRAIGHT_50), spacing)

    def test_one_directional_road_is_one_way(self):
        g = to_road_graph(parse_opendrive_subset(STRAIGHT_50), spacing=10.0)
        start = 0
        end = g.n_nodes() - 1
        assert astar(g, start, end) is not None
        assert astar(g, end, start) is None

    def test_arc_points_on_circle(self):
        # radius 10, quarter turn, center at (0, 10)
        text = doc(road_xml(1, 10.0 * math.pi / 2,
                            f'<geometry s="0" x="0" y="0" hdg="0" length="{10.0 * math.pi / 2}">'
                            '<arc curvature="0.1"/></geometry>',
                            LANES_RIGHT))
        g = to_road_graph(parse_opendrive_subset(text), spacing=1.0)
        for w in g.waypoints:
            r = math.hypot(w.x - 0.0, w.y - 10.0)
            assert abs(r - 10.0) <= 1.0 ** 2 / (8 * 10.0)

    # One case per (link kind, contactPoint): road 1 runs (0, 0) -> (10, 0),
    # and road 2, given as (x, y, heading) of its start, touches it there.
    # Both roads are two-way; the texts are the importer's output before its
    # four cases became one rule.
    LINK_CASES = [
        ("successor", "start", (10, 0, 0),
         "roadnet v1\n"
         "node 0 0 0 0\n"
         "node 1 10 0 0\n"
         "node 2 10 0 -3.14159265359\n"
         "node 3 0 0 -3.14159265359\n"
         "node 4 20 0 0\n"
         "node 5 20 0 -3.14159265359\n"
         "edge 0 1 10 4 1\n"
         "edge 2 3 10 4 1\n"
         "edge 1 4 10 4 1\n"
         "edge 5 2 10 4 1\n"),
        ("successor", "end", (20, 0, math.pi),
         "roadnet v1\n"
         "node 0 0 0 0\n"
         "node 1 10 0 0\n"
         "node 2 10 0 -3.14159265359\n"
         "node 3 0 0 -3.14159265359\n"
         "node 4 20 0 -3.14159265359\n"
         "node 5 20 0 0\n"
         "edge 0 1 10 4 1\n"
         "edge 2 3 10 4 1\n"
         "edge 4 2 10 4 1\n"
         "edge 1 5 10 4 1\n"),
        ("predecessor", "end", (-10, 0, 0),
         "roadnet v1\n"
         "node 0 0 0 0\n"
         "node 1 10 0 0\n"
         "node 2 10 0 -3.14159265359\n"
         "node 3 0 0 -3.14159265359\n"
         "node 4 -10 0 0\n"
         "node 5 -10 0 -3.14159265359\n"
         "edge 0 1 10 4 1\n"
         "edge 2 3 10 4 1\n"
         "edge 4 0 10 4 1\n"
         "edge 3 5 10 4 1\n"),
        ("predecessor", "start", (0, 0, math.pi),
         "roadnet v1\n"
         "node 0 0 0 0\n"
         "node 1 10 0 0\n"
         "node 2 10 0 -3.14159265359\n"
         "node 3 0 0 -3.14159265359\n"
         "node 4 -10 1.22464679915e-15 -3.14159265359\n"
         "node 5 -10 1.22464679915e-15 0\n"
         "edge 0 1 10 4 1\n"
         "edge 2 3 10 4 1\n"
         "edge 3 4 10 4 1\n"
         "edge 5 0 10 4 1\n"),
    ]

    @pytest.mark.parametrize("kind,contact,start,expected", LINK_CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in LINK_CASES])
    def test_link_cases(self, kind, contact, start, expected):
        x, y, hdg = start
        link = f'<link><{kind} elementType="road" elementId="2" contactPoint="{contact}"/></link>'
        r1 = road_xml(1, 10.0, '<geometry s="0" x="0" y="0" hdg="0" length="10"><line/></geometry>',
                      LANES_BOTH, link)
        r2 = road_xml(2, 10.0, f'<geometry s="0" x="{x}" y="{y}" hdg="{hdg}" length="10">'
                      '<line/></geometry>', LANES_BOTH)
        buf = io.StringIO()
        save_roadnet(to_road_graph(parse_opendrive_subset(doc(r1, r2)), spacing=10.0), buf)
        assert buf.getvalue() == expected

    def test_sampled_length_matches_declared(self):
        text = doc(road_xml(1, 10.0 * math.pi / 2,
                            f'<geometry s="0" x="0" y="0" hdg="0" length="{10.0 * math.pi / 2}">'
                            '<arc curvature="0.1"/></geometry>',
                            LANES_RIGHT))
        g = to_road_graph(parse_opendrive_subset(text), spacing=1.0)
        total = sum(e.length for e in g.edges)
        assert total == pytest.approx(10.0 * math.pi / 2, rel=1e-3)

    def test_linked_roads_share_junction_nodes(self):
        r1 = road_xml(1, 30.0,
                      '<geometry s="0" x="0" y="0" hdg="0" length="30"><line/></geometry>',
                      LANES_RIGHT,
                      '<link><successor elementType="road" elementId="2" contactPoint="start"/></link>')
        r2 = road_xml(2, 20.0,
                      '<geometry s="0" x="30" y="0" hdg="0" length="20"><line/></geometry>',
                      LANES_RIGHT,
                      '<link><predecessor elementType="road" elementId="1" contactPoint="end"/></link>')
        g = to_road_graph(parse_opendrive_subset(doc(r1, r2)), spacing=10.0)
        # 4 + 3 raw nodes, one shared junction
        assert g.n_nodes() == 6
        d = dijkstra(g, 0)
        assert max(x for x in d if math.isfinite(x)) == pytest.approx(50.0, rel=1e-9)

    def test_determinism(self):
        from io import StringIO
        from forkfleet.roadnet import save_roadnet
        outs = []
        for _ in range(2):
            g = to_road_graph(parse_opendrive_subset(STRAIGHT_50), spacing=3.0)
            buf = StringIO()
            save_roadnet(g, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
