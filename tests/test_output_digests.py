"""Every command's output bytes, pinned by one corpus of digests.

Each case runs one cli.main command on inputs built here, in code, and
records its exit code, its stderr text and the sha256 of each output file's
body (the provenance line dropped: it names the version and digests the
inputs). A case is keyed by (command, map, input, argv): simulate's seed is
in its argv, and a made input's seed is fixed with its name. The results are
kept in output_digests.json.

The maps are warehouse floors from 59 to 761 nodes, an OpenDRIVE ring
converted here, the only kind of map whose edge sums are inexact, and two
small maps written out as text. The inputs are simulated trajectories,
thinned ones, a walk along the converted ring, three short trajectories
written out as text, calibration cycles with SplitMix64 noise on their
energies, and OpenDRIVE documents, one of them a seeded batch whose runs
share one entry.

    PYTHONPATH=src python tests/test_output_digests.py [--check]

re-records the corpus and prints each key whose result changed. Record only
on a known-good commit, for a change meant to move output bits, and name
the changed keys in CHANGES.md. With --check it writes nothing, and exits 1
if a key's result changed. The module needs only the standard library and
the package, so any interpreter can run it: test_other_pythons.py checks
the corpus on each installed Python.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from eager import integrate_trajectory
from forkfleet import cli, mapgen
from forkfleet.battery import FORK_MASS, BatteryParams
from forkfleet.rng import SplitMix64
from forkfleet.roadnet import load_roadnet, save_roadnet
from forkfleet.trajectory import (CSV_HEADER, TrajectorySample, read_csv, split_by_vehicle,
                                  write_csv)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digests.json")

# name -> warehouse_map arguments: the demo floor, "<nx>x<ny>-<n_spots>" floors
# and the L map; "ring" is the OpenDRIVE ring that Work.map converts
MAPS = {
    "demo": {},                                       # 59 nodes
    "4x3-10": {"nx": 4, "ny": 3, "n_spots": 10},
    "4x3-12": {"nx": 4, "ny": 3, "n_spots": 12},
    "5x3-16": {"nx": 5, "ny": 3, "n_spots": 16},
    "5x3-20": {"nx": 5, "ny": 3, "n_spots": 20},
    "10x4-48": {"nx": 10, "ny": 4, "n_spots": 48},
    "8x6-32": {"nx": 8, "ny": 6, "n_spots": 32},      # 205 nodes
    "L": {"nx": 16, "ny": 12, "n_spots": 128},        # 761 nodes
}

# name -> the text of a map written as it stands
MAP_TEXTS = {
    # 0 <-> 1 <-> 2 along x, 20 m edges, spots 7 m into 0 -> 1 and 1 -> 2: a
    # truck starts mid-edge, so its first route starts at the truck
    "corridor": "roadnet v1\nnode 0 0 0 0\nnode 1 20 0 0\nnode 2 40 0 0\n"
                "edge 0 1 20 3 1\nedge 1 0 20 3 1\nedge 1 2 20 3 1\nedge 2 1 20 3 1\n"
                "spot 0 0 1 7\nspot 1 1 2 7\n",
    # a one-way 10 m square 0 -> 1 -> 2 -> 3 -> 0: a chain row's walk closes a cycle
    "square": "roadnet v1\nnode 0 0 0 0\nnode 1 10 0 1.57079632679\n"
              "node 2 10 10 3.14159265359\nnode 3 0 10 -1.57079632679\n"
              "edge 0 1 10 3 1\nedge 1 2 10 3 1\nedge 2 3 10 3 1\nedge 3 0 10 3 1\n",
}


def _sim(vehicles, duration, seed):
    return ["--vehicles", str(vehicles), "--seed", str(seed), "--duration", str(duration)]


def _sets(*settings):
    return [a for kv in settings for a in ("--set", kv)]


SIMULATE = [
    ("demo", _sim(1, 90, 11)),
    ("4x3-10", ["--vehicles", "6", "--seed", "12", "--dt", "0.05", "--duration", "40"]),
    ("4x3-12", ["--vehicles", "8", "--seed", "13", "--dt", "0.25", "--duration", "150"]),
    ("5x3-16", _sim(12, 60, 14) + _sets("kin.d_safe=5.5")),
    ("5x3-16", _sim(12, 60, 15) + _sets("kin.horizon=2.0", "kin.t_deadlock=2.0")),
    ("4x3-12", ["--vehicles", "8", "--seed", "16", "--dt", "0.25", "--duration", "120",
                *_sets("kin.b_max=0.6", "kin.a_max=0.4")]),
    ("4x3-12", _sim(8, 60, 17) + _sets("kin.a_lat_max=0.3", "kin.lift_speed=0.8")),
    ("4x3-12", ["--vehicles", "8", "--seed", "18", "--dt", "0.25", "--duration", "120",
                *_sets("kin.v_max=2.2")]),
    ("5x3-20", _sim(16, 60, 19) + _sets("kin.t_deadlock=0")),
    ("4x3-12", _sim(6, 80, 20) + _sets("battery.capacity=2e5", "battery.eta_regen=0.6",
                                       "battery.c_rr=0.05")),
    ("4x3-12", ["--vehicles", "6", "--seed", "21", "--dt", "0.05", "--duration", "40",
                *_sets("battery.c_steer=0.4", "battery.eta_drive=0.7", "battery.aux_power=900",
                       "pickup_mass=1200", "fork_mass=250", "lift_height=2.5")]),
    ("10x4-48", _sim(40, 30, 22) + _sets("kin.d_safe=4", "kin.horizon=3")),
    ("demo", ["--policy", "fixed:2", *_sim(3, 60, 4)]),
    ("demo", ["--policy", "fixed:99", *_sim(3, 60, 4)]),
    ("L", _sim(24, 15, 3)),
    ("demo", _sim(4, 600, 11)),  # gridlocked for good from about 400 s
    # ends at soc 0.416699, in the charge_suggested band
    ("corridor", _sim(1, 60, 1) + _sets("battery.capacity=3e5")),
]

# The made inputs, named short to keep the test ids short (Work.inputs makes
# them):
DEMO = "demo4"                # simulate on the demo floor, 4 trucks, 120 s, seed 5
DEMO_THINNED = "demo4-thin"   # DEMO, each truck kept at every 2nd to 5th step
FLOOR_205 = "thin16"          # simulate on 8x6-32, 16 trucks, 30 s, seed 7, thinned so
L_RUN = "L24"                 # simulate on the L map, 24 trucks, 15 s, seed 3
WALK = "walk3"                # 3 trucks walking the ring's waypoints for 60 s
CYCLES = "cycles9"            # 4 one-truck cycles of a 20 s demo-floor run, seed 9
BATCH = "batch200"            # 200 OpenDRIVE documents from SplitMix64 seed 28
LATE = "late2"                # 2 trucks, truck 1's samples between two 0.1 s grid times
APART = "apart2"              # 2 trucks, over 0-1 s and 5-6 s
CORNERS = "corners1"          # 1 truck at nodes 0, 1 and 2 of the square

# name -> the text of a trajectory written as it stands
CSV_TEXTS = {
    # truck 1 has no time of replay's grid, so no sample in replay.csv
    LATE: "0,0,0,0,0,0,0,0,1\n0.31,1,20,0,0,0,0,0,0.9\n0.32,1,20,0,0,0,0,0,0.9\n"
          "0.5,0,1,0,0,2,0,0,1\n",
    # the density ticks at 2, 3 and 4 s hold no truck
    APART: "0,0,0,0,0,0,0,0,1\n1,0,2,0,0,2,0,0,1\n5,1,20,0,0,0,0,0,1\n6,1,22,0,0,2,0,0,1\n",
    CORNERS: "0,0,0,0,0,0,0,0,1\n1,0,10,0,0,0,0,0,1\n2,0,10,10,0,0,0,0,1\n",
}

DENSITY = _sets("density.distance_threshold=25", "density.velocity_threshold=1.2",
                "density.snapshot_interval=0.5")
PLACEMENT = _sets("placement.k=3", "placement.min_separation=12", "placement.d_scale=7.5",
                  "placement.cell_size=3")

ANALYSES = [
    ("replay", "demo", DEMO, []),
    ("replay", "demo", DEMO, ["--dt", "0.25"]),
    ("replay", "demo", DEMO, ["--dt", "0.04"]),
    ("replay", "demo", DEMO_THINNED, []),
    ("analyze-density", "demo", DEMO, []),
    ("analyze-density", "demo", DEMO, DENSITY),
    ("place-chargers", "demo", DEMO, PLACEMENT),
    ("place-chargers", "demo", DEMO, ["--dwell", *PLACEMENT]),
    ("heatmap", "demo", DEMO, []),
    ("heatmap", "demo", DEMO, _sets("placement.cell_size=3.5")),
    ("place-chargers", "8x6-32", FLOOR_205, []),
    ("place-chargers", "8x6-32", FLOOR_205, ["--dwell"]),
    ("replay", "8x6-32", FLOOR_205, ["--dt", "0.5"]),
    ("analyze-density", "L", L_RUN, []),
    ("place-chargers", "L", L_RUN, []),
    ("heatmap", "L", L_RUN, []),
    ("replay", "ring", WALK, []),
    ("analyze-density", "ring", WALK, []),
    ("analyze-density", "ring", WALK, DENSITY),
    ("place-chargers", "ring", WALK, []),
    ("place-chargers", "ring", WALK, ["--dwell", *_sets("placement.k=2")]),
    ("heatmap", "ring", WALK, []),
    ("calibrate", "-", CYCLES, ["--free", "c_rr"]),
    ("calibrate", "-", CYCLES, ["--free", "c_steer,eta_regen"]),
    ("calibrate", "-", CYCLES, _sets("battery.c_rr=0.03")),
    ("replay", "corridor", LATE, []),
    ("analyze-density", "corridor", APART, []),
    ("place-chargers", "square", CORNERS, []),
]

CONVERT = [
    ("lines", []),
    ("lines", ["--spacing", "1.5"]),
    ("arcs", []),
    ("arcs", ["--spacing", "0.7"]),
    ("ring", []),
    ("one-way and two-way", []),
    ("links", []),
    ("links", ["--spacing", "3"]),
    ("gap", []),
    (BATCH, []),
]

CASES = ([("simulate", m, "-", argv) for m, argv in SIMULATE] + ANALYSES
         + [("convert", "-", doc, argv) for doc, argv in CONVERT])


def key(case):
    command, map_name, input_name, argv = case
    return " | ".join([command, map_name, input_name, " ".join(argv) or "-"])


# --- OpenDRIVE documents ------------------------------------------------------

def _road(rid, geometries, left=1, right=1, links=""):
    """A <road> of (kind, x, y, hdg, length[, curvature]) geometries laid end
    to end, with left and right driving lanes and a <link> body."""
    s, parts = 0.0, []
    for kind, x, y, hdg, length, *curvature in geometries:
        shape = f'<arc curvature="{curvature[0]!r}"/>' if kind == "arc" else "<line/>"
        parts.append(f'<geometry s="{s!r}" x="{x!r}" y="{y!r}" hdg="{hdg!r}" '
                     f'length="{length!r}">{shape}</geometry>')
        s += length
    lanes = "".join(f"<{side}>" + '<lane type="driving"/>' * n + f"</{side}>"
                    for side, n in (("left", left), ("right", right)) if n)
    link = f"<link>{links}</link>" if links else ""
    return (f'<road id="{rid}" length="{s!r}">{link}<planView>{"".join(parts)}</planView>'
            f'<lanes><laneSection s="0">{lanes}</laneSection></lanes></road>')


def _link(kind, rid, contact, element_type="road"):
    return f'<{kind} elementType="{element_type}" elementId="{rid}" contactPoint="{contact}"/>'


def _doc(*roads):
    return "<OpenDRIVE>" + "".join(roads) + "</OpenDRIVE>"


QUARTER = 5 * math.pi  # a quarter turn of radius 10 m


def _ring():
    """Four 40 m sides and four quarter-turn corners of radius 10 m, each
    road two-way and linked to the next one's start."""
    corners = [(10, 0), (50, 0), (60, 10), (60, 50), (50, 60), (10, 60), (0, 50), (0, 10)]
    roads = []
    for i, (x, y) in enumerate(corners):
        hdg = (i // 2) * math.pi / 2
        geometry = ("line", x, y, hdg, 40.0) if i % 2 == 0 else ("arc", x, y, hdg, QUARTER, 0.1)
        links = (_link("successor", (i + 1) % 8 + 1, "start")
                 + _link("predecessor", (i - 1) % 8 + 1, "end"))
        roads.append(_road(i + 1, [geometry], links=links))
    return _doc(*roads)


def _links():
    """Road 1 runs (0, 0) -> (10, 0). Roads 2 to 5 touch it in each of the
    four (link kind, contactPoint) cases; 6 is linked through a junction and
    7 to a road that is not there, both skipped with a warning."""
    cases = [("successor", "start", (10, 0, 0)), ("successor", "end", (20, 0, math.pi)),
             ("predecessor", "end", (-10, 0, 0)), ("predecessor", "start", (0, 0, math.pi))]
    links, roads = "", []
    for rid, (kind, contact, (x, y, hdg)) in enumerate(cases, start=2):
        links += _link(kind, rid, contact)
        roads.append(_road(rid, [("line", x, y, hdg, 10.0)], left=rid % 2, right=1))
    roads.append(_road(6, [("line", 0, 5, 0, 10.0)],
                       links=_link("successor", 9, "start", "junction")))
    roads.append(_road(7, [("line", 0, -5, 0, 10.0)], links=_link("successor", 99, "start")))
    return _doc(_road(1, [("line", 0, 0, 0, 10.0)], links=links), *roads)


DOCS = {
    "lines": lambda: _doc(_road(1, [("line", 0, 0, 0, 25.0), ("line", 25, 0, 0, 12.5)]),
                          _road(2, [("line", 0, 10, 0.5, 17.25)], left=2, right=0)),
    "arcs": lambda: _doc(_road(1, [("arc", 0, 0, 0, QUARTER, 0.1)]),
                         _road(2, [("line", 0, 20, 0, 6.0),
                                   ("arc", 6, 20, 0, 2 * QUARTER, -0.1)], left=0)),
    "ring": _ring,
    "one-way and two-way": lambda: _doc(
        _road(1, [("line", 0, 0, 0, 20.0)], left=0, right=2,
              links=_link("successor", 2, "start")),
        _road(2, [("line", 20, 0, 0, 20.0)], left=1, right=1,
              links=_link("predecessor", 1, "end") + _link("successor", 3, "start")),
        _road(3, [("line", 40, 0, 0, 20.0)], left=1, right=0,
              links=_link("predecessor", 2, "end"))),
    "links": _links,
    # road 2 is linked to road 1's end but starts 40 m away: refused
    "gap": lambda: _doc(_road(1, [("line", 0, 0, 0, 10.0)], links=_link("successor", 2, "start")),
                        _road(2, [("line", 50, 0, 0, 10.0)])),
}


def batch_docs(seed, n):
    """n (document, spacing) pairs: chains of 1 to 4 roads, lines and arcs of
    random lanes, each road starting where the one before ends and linked to
    it, a quarter of the links at a wrong contact point (refused, unless the
    roads meet there), some links to junctions or to missing roads
    (warnings), and some documents given a broken attribute (refused)."""
    rng = SplitMix64(seed)
    docs = []
    for _ in range(n):
        x, y, hdg = 0.0, 0.0, rng.randrange(8) * math.pi / 4
        roads = []
        count = 1 + rng.randrange(4)
        for rid in range(1, count + 1):
            length = (4 + rng.randrange(60)) / 4
            if rng.randrange(2):
                curvature = (1 + rng.randrange(8)) / 40 * (1 if rng.randrange(2) else -1)
                geometry = ("arc", x, y, hdg, length, curvature)
                end_hdg = hdg + curvature * length
                x, y = (x + (math.sin(end_hdg) - math.sin(hdg)) / curvature,
                        y - (math.cos(end_hdg) - math.cos(hdg)) / curvature)
                hdg = end_hdg
            else:
                geometry = ("line", x, y, hdg, length)
                x, y = x + length * math.cos(hdg), y + length * math.sin(hdg)
            links = ""
            if rid < count:
                contact = "end" if rng.randrange(4) == 0 else "start"
                links += _link("successor", rid + 1, contact)
            if rid > 1:
                links += _link("predecessor", rid - 1, "end")
            extra = rng.randrange(10)
            if extra == 0:
                links += _link("predecessor", 50, "end", "junction")
            elif extra == 1:
                links += _link("successor", 77, "start")
            left, right = [(1, 0), (0, 1), (1, 1), (2, 1)][rng.randrange(4)]
            roads.append(_road(rid, [geometry], left, right, links))
        doc = _doc(*roads)
        broken = rng.randrange(8)
        if broken == 0:
            doc = doc.replace('length="', 'length="x', 1)
        elif broken == 1:
            doc = doc.replace("<line/>", "<spiral/>", 1)
        docs.append((doc, ["0.5", "1", "2", "3.75"][rng.randrange(4)]))
    return docs


# --- made trajectories ----------------------------------------------------------

def walk_samples(graph, n_ticks):
    """Three trucks on a converted ring, one sample a second, stepping one
    waypoint a tick along the edges: trucks 0 and 1 four waypoints apart on
    one lane, both standing still from t = 20 s to 35 s, and truck 2 loaded,
    driving the other lane without a stop."""
    def lap(start):
        nodes = [start]
        while True:
            nxt = graph.adjacency[nodes[-1]][0].dst
            if nxt == start:
                return nodes
            nodes.append(nxt)
    ahead = lap(0)
    other = lap(next(n for n in range(graph.n_nodes()) if n not in set(ahead)))
    samples = []
    for t in range(n_ticks):
        moved = t - max(0, min(t, 35) - 20)
        for vid, nodes, index, mass in ((0, ahead, moved + 4, 0.0), (1, ahead, moved, 0.0),
                                        (2, other, t, 500.0)):
            here = nodes[index % len(nodes)]
            standing = vid < 2 and 20 <= t < 35
            speed = 0.0 if standing else graph.adjacency[here][0].length
            wp = graph.waypoints[here]
            samples.append(TrajectorySample(float(t), vid, wp.x, wp.y, wp.heading, speed,
                                            0.0, mass, 1.0 - t * 1e-4 * (1 + vid)))
    return samples


# --- running a case -----------------------------------------------------------

class Work:
    """The maps and inputs of the corpus, each made once, in directory root."""

    def __init__(self, root):
        self.root = root
        self.runs = 0

    def path(self, name):
        return os.path.join(self.root, name.replace(" ", "_"))

    @functools.cache
    def map(self, name):
        path = self.path(f"map {name}.roadnet")
        if name == "ring":
            assert cli.main(["convert", self.document("ring"), "--out", path]) == 0
        elif name in MAP_TEXTS:
            with open(path, "w") as f:
                f.write(MAP_TEXTS[name])
        else:
            with open(path, "w") as f:
                save_roadnet(mapgen.warehouse_map(**MAPS[name]), f)
        return path

    @functools.cache
    def document(self, name):
        path = self.path(f"doc {name}.xodr")
        with open(path, "w") as f:
            f.write(DOCS[name]())
        return path

    @functools.cache
    def simulated(self, map_name, vehicles, duration, seed):
        """A simulate run's trajectory."""
        out = self.path(f"sim {map_name} {vehicles} {duration} {seed}")
        assert cli.main(["simulate", "--map", self.map(map_name), "--out-dir", out,
                         *_sim(vehicles, duration, seed)]) == 0
        return os.path.join(out, "trajectory.csv")

    def thinned(self, path):
        """The trajectory at path, each truck kept at every 2nd to 5th step
        by its id."""
        with open(path) as f:
            samples = read_csv(f)
        path = path[:-len(".csv")] + "_thinned.csv"
        with open(path, "w") as f:
            write_csv([s for s in samples if round(s.t * 10) % (2 + s.vehicle_id % 4) == 0], f)
        return path

    def cycles(self, seed):
        """A manifest of the 4 one-truck cycles of a 20 s demo-floor run,
        each measured at 1.2 +/- up to 0.01 times its net draw under the
        default parameters: a fit of c_steer and eta_regen ends in 3 sweeps,
        eta_regen at its bound."""
        with open(self.simulated("demo", 4, 20, seed)) as f:
            per_vehicle = split_by_vehicle(read_csv(f))
        rng = SplitMix64(seed)
        lines = []
        for vid, samples in sorted(per_vehicle.items()):
            path = self.path(f"cycle {vid}.csv")
            with open(path, "w") as f:
                write_csv(samples, f)
            draw, regen, _ = integrate_trajectory(samples, FORK_MASS, BatteryParams())
            noise = (rng.randrange(2001) - 1000) / 1e5
            lines.append(f"{os.path.basename(path)},{(draw - regen) * (1.2 + noise):.6f}\n")
        path = self.path("cycles.csv")
        with open(path, "w") as f:
            f.writelines(lines)
        return path

    def written(self, name):
        """The trajectory CSV_TEXTS holds under name."""
        path = self.path(f"{name}.csv")
        with open(path, "w") as f:
            f.write(CSV_HEADER + "\n" + CSV_TEXTS[name])
        return path

    def walk(self):
        with open(self.map("ring")) as f:
            graph = load_roadnet(f)
        path = self.path("walk.csv")
        with open(path, "w") as f:
            write_csv(walk_samples(graph, 60), f)
        return path

    @functools.cache
    def inputs(self, name):
        """The runs of an input: each run's argv after the command's own."""
        if name == "-":
            return [[]]
        if name == BATCH:
            docs = []
            for i, (text, spacing) in enumerate(batch_docs(28, 200)):
                path = self.path(f"batch {i}.xodr")
                with open(path, "w") as f:
                    f.write(text)
                docs.append([path, "--spacing", spacing])
            return docs
        if name in CSV_TEXTS:
            return [[self.written(name)]]
        made = {DEMO: lambda: self.simulated("demo", 4, 120, 5),
                DEMO_THINNED: lambda: self.thinned(self.simulated("demo", 4, 120, 5)),
                FLOOR_205: lambda: self.thinned(self.simulated("8x6-32", 16, 30, 7)),
                L_RUN: lambda: self.simulated("L", 24, 15, 3),
                WALK: self.walk,
                CYCLES: lambda: self.cycles(9)}
        return [[made[name]() if name in made else self.document(name)]]

    def run(self, case):
        """The case's result: its exit code, stderr and output body digests,
        or for an input of many runs, their count, exit code tally and one
        digest of all their results."""
        command, map_name, input_name, argv = case
        results = [self.run_one(command, map_name, extra, argv)
                   for extra in self.inputs(input_name)]
        if len(results) == 1:
            return results[0]
        codes = dict(collections.Counter(str(r["code"]) for r in results))
        text = json.dumps(results, sort_keys=True).encode()
        return {"runs": len(results), "codes": codes, "digest": hashlib.sha256(text).hexdigest()}

    def run_one(self, command, map_name, extra, argv):
        self.runs += 1
        out = self.path(f"out {self.runs}")
        if command == "convert":
            full = [command, *extra, "--out", os.path.join(out, "map.roadnet"), *argv]
            os.makedirs(out)
        else:
            full = [command, "--out-dir", out, *argv, *extra]
            if map_name != "-":
                full[1:1] = ["--map", self.map(map_name)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(full)
        digests = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as f:
                f.readline()  # the provenance line
                digests[name] = hashlib.sha256(f.read()).hexdigest()
        # an error naming an input file names it relative to the work directory
        return {"code": code, "stderr": err.getvalue().replace(self.root, "<work>"),
                "digests": digests}


def load_recorded():
    with open(DATA) as f:
        return json.load(f)


def pytest_generate_tests(metafunc):
    """A test_pinned test per case, named by its key."""
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=key)


@functools.cache
def corpus_work(basetemp):
    """The one Work of a test session, so that each input is made once."""
    return Work(tempfile.mkdtemp(prefix="corpus", dir=basetemp))


def test_pinned(tmp_path_factory, case):
    work = corpus_work(tmp_path_factory.getbasetemp())
    assert work.run(case) == load_recorded()[key(case)]


def test_every_key_is_a_case():
    assert sorted(load_recorded()) == sorted(map(key, CASES))


def test_cases_are_distinct():
    """No two cases of one command give one result."""
    recorded = load_recorded()
    results = {(case[0], json.dumps(recorded[key(case)], sort_keys=True)) for case in CASES}
    assert len(results) == len(CASES)


def test_every_command_and_flag_is_covered():
    """Each command, and each flag outside the shared ones and those the
    runner passes itself, appears in a case: a new one fails until pinned."""
    shared = {names[0] for names, _ in (*cli._SHARED, cli._MAP)} | {"--out"}
    flags = {names[0] for _, _, _, arguments in cli._COMMANDS for names, _ in arguments
             if names[0].startswith("--")} - shared
    assert {c[0] for c in CASES} == {c[0] for c in cli._COMMANDS}
    assert flags <= {a for case in CASES for a in case[3]}
    assert flags == {"--duration", "--vehicles", "--policy", "--dwell", "--free", "--spacing"}


def test_batch_is_both_converted_and_refused():
    """At least 20 of the batch's documents convert, and at least 20 exit 3."""
    codes = load_recorded()[key(("convert", "-", BATCH, []))]["codes"]
    assert set(codes) == {"0", "3"} and min(codes.values()) >= 20


def main(argv):
    """Run every case; print each key whose result is new, changed or
    dropped. -> 1 under --check if one is, else 0; without --check, record
    the results first."""
    ap = argparse.ArgumentParser(description="Record the output digest corpus.")
    ap.add_argument("--check", action="store_true",
                    help="compare with the recorded corpus, write nothing, exit 1 on a change")
    check = ap.parse_args(argv).check
    old = load_recorded() if os.path.exists(DATA) else {}
    with tempfile.TemporaryDirectory() as d:
        work = Work(d)
        new = {key(case): work.run(case) for case in CASES}
    moved = [("changed: " if k in old else "new: ") + k for k in new if old.get(k) != new[k]]
    moved += ["dropped: " + k for k in sorted(set(old) - set(new))]
    for line in moved:
        print(line, file=sys.stderr)
    if check:
        print(f"{len(new)} keys on Python {sys.version.split()[0]}: {len(moved)} moved")
        return 1 if moved else 0
    with open(DATA, "w") as f:
        json.dump(new, f, indent=1, ensure_ascii=False)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
