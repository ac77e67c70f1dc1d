import ast
import hashlib
import io
import logging
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import forkfleet
from conftest import run_samples
from forkfleet import cli, mapgen
from forkfleet.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, _write_atomic,
                           main)
from forkfleet.config import ScenarioConfig
from forkfleet.fleet_sim import World, replay
from forkfleet.roadnet import load_roadnet, save_roadnet
from forkfleet.trajectory import read_csv, write_csv

SRC = pathlib.Path(forkfleet.__file__).parent


@pytest.fixture()
def map_file(tmp_path):
    path = tmp_path / "floor.roadnet"
    with open(path, "w") as f:
        save_roadnet(mapgen.warehouse_map(), f)
    return str(path)


def simulate(tmp_path, map_file, *extra):
    out = str(tmp_path / "out")
    code = main(["simulate", "--map", map_file, "--out-dir", out,
                 "--duration", "30", "--vehicles", "2", "--seed", "5", *extra])
    return code, out


class TestSimulate:
    def test_outputs(self, tmp_path, map_file):
        code, out = simulate(tmp_path, map_file)
        assert code == EXIT_OK
        for name in ("trajectory.csv", "soc.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "trajectory.csv")) as f:
            first = f.readline()
            assert first.startswith("# forkfleet ")
            assert "seed=5" in first
            f.seek(0)
            samples = read_csv(f)
        assert len(samples) == 2 * 301  # initial + 300 steps, 2 vehicles
        with open(os.path.join(out, "summary.txt")) as f:
            text = f.read()
        assert "vehicle 0:" in text and "band=" in text

    def test_deterministic_bytes(self, tmp_path, map_file):
        _, out1 = simulate(tmp_path / "a", map_file)
        _, out2 = simulate(tmp_path / "b", map_file)
        for name in ("trajectory.csv", "soc.csv", "summary.txt"):
            with open(os.path.join(out1, name), "rb") as f1, \
                 open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_provenance_identifies_the_config(self, tmp_path, map_file):
        firsts = []
        for name, dt in (("a", "0.1"), ("b", "0.2")):
            _, out = simulate(tmp_path / name, map_file, "--dt", dt)
            with open(os.path.join(out, "trajectory.csv")) as f:
                firsts.append(f.readline())
        assert firsts[0].startswith("# forkfleet ") and " config=sha256:" in firsts[0]
        assert firsts[0] != firsts[1]

    def test_missing_map(self, tmp_path):
        assert main(["simulate", "--map", str(tmp_path / "nope.roadnet"),
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_bad_set_key(self, tmp_path, map_file):
        code, _ = simulate(tmp_path, map_file, "--set", "kin.warp=1")
        assert code == EXIT_CONFIG

    def test_set_overrides_config_file(self, tmp_path, map_file):
        cfgp = tmp_path / "scenario.cfg"
        cfgp.write_text(f"map = {map_file}\nvehicles = 1\nduration = 10\n")
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", str(cfgp), "--out-dir", out,
                     "--set", "vehicles=2", "--seed", "0"])
        assert code == EXIT_OK
        with open(os.path.join(out, "trajectory.csv")) as f:
            samples = read_csv(f)
        assert len({s.vehicle_id for s in samples}) == 2

    @pytest.mark.parametrize("command", ["simulate", "replay", "analyze-density",
                                         "place-chargers", "heatmap"])
    def test_corrupt_map(self, tmp_path, capsys, command):
        # the trajectory is valid, so the one refusal is the map's; replay
        # loads the map although it never reads it
        bad = tmp_path / "bad.roadnet"
        bad.write_text("roadnet v1\nnode zero 0 0 0\n")
        traj = tmp_path / "traj.csv"
        traj.write_text(CSV_HEADER + "0,0,10,10,0,0,0,0,1\n1,0,11,10,0,1,0,0,1\n")
        inputs = [] if command == "simulate" else [str(traj)]
        assert main([command, "--map", str(bad), "--out-dir", str(tmp_path / "out"),
                     *inputs]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: bad record at line 2: 'node zero 0 0 0'\n"
        assert not (tmp_path / "out").exists()


CSV_HEADER = "t,vehicle_id,x,y,heading,speed,fork_height,load_mass,soc\n"
# two corridors with no road between them, one parking spot on each
ONE_WAY_CORRIDORS = """roadnet v1
node 0 0 0 0
node 1 10 0 0
node 2 0 20 0
node 3 10 20 0
edge 0 1 10 3 1
edge 2 3 10 3 1
spot 0 0 1 5
spot 1 2 3 5
"""
# node 0 -> 1 -> 2 with an infinite second edge and a spot at its far end
INF_EDGE = """roadnet v1
node 0 0 0 0
node 1 10 0 0
node 2 20 0 0
edge 0 1 10 3 1
edge 1 2 inf 3 1
spot 0 0 1 5
spot 1 1 2 inf
"""
# two spots anchored at node 0: a task's route is the one point the truck stands on
ONE_POINT_ROUTE = """roadnet v1
node 0 0 0 0
node 1 10 0 0
node 2 20 0 0
edge 0 1 10 3 1
edge 1 2 10 3 1
edge 2 0 20 3 1
spot 0 0 1 0
spot 1 0 1 0
"""
DECLARED = '<?xml version="1.0" encoding="%s"?>\n'
# one straight two-way road, 50 m
ONE_ROAD_ODR = """<OpenDRIVE>
    <road id="1" length="50">
      <planView><geometry s="0" x="0" y="0" hdg="0" length="50"><line/></geometry></planView>
      <lanes><laneSection s="0">
        <left><lane id="1" type="driving"/></left>
        <right><lane id="-1" type="driving"/></right>
      </laneSection></lanes>
    </road></OpenDRIVE>"""
GEOMETRY = '<geometry s="0" x="0" y="0" hdg="0" length="50"><line/></geometry>'
# a link from a road's start to road 1's end
PREDECESSOR_1 = '<link><predecessor elementType="road" elementId="1" contactPoint="end"/></link>'


# "module.function: message" of a raise site -> why it stays although
# no TestExitCodes row reaches it
REACHED_FROM_OUTSIDE = {
    "mapgen.warehouse_map: at most {} spots fit this grid":
        "the README's quick start and the benchmark call warehouse_map; the CLI builds no map",
}


def raise_sites():
    """{(file, line): "module.function: message"} of every `raise X(...)` in
    the package; the message shows each formatted value as {}."""
    sites = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                parts = child.exc.args[:1]
                if parts and isinstance(parts[0], ast.JoinedStr):
                    parts = parts[0].values
                message = "".join(p.value if isinstance(p, ast.Constant) else "{}"
                                  for p in parts)
                sites[str(path), child.lineno] = f"{'.'.join(scope)}: {message}"
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        module = "forkfleet" if path.stem == "__init__" else path.stem
        visit(ast.parse(path.read_text(), str(path)), path, [module])
    return sites


def lines_run(run):
    """run() under sys.settrace -> the (file, line) pairs of the package that
    it executes."""
    files, seen = {str(p) for p in SRC.glob("*.py")}, set()

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def odr_roads(*roads):
    """An OpenDRIVE document of straight two-way roads along y = 0, one for
    each (id, start x, length, link elements)."""
    return "<OpenDRIVE>" + "".join(
        f'<road id="{rid}" length="{length}">{link}<planView><geometry s="0" x="{x}" y="0" '
        f'hdg="0" length="{length}"><line/></geometry></planView><lanes><laneSection s="0">'
        '<left><lane id="1" type="driving"/></left><right><lane id="-1" type="driving"/>'
        '</right></laneSection></lanes></road>' for rid, x, length, link in roads) + "</OpenDRIVE>"


class TestExitCodes:
    """Bad inputs end in the documented exit code and a one-line message, not a
    traceback. Each row: test id, full argv, exit code, stderr prefix. {map}
    is the demo floor, {out} an output directory, {traj} a valid trajectory
    CSV, {nan_traj} the same with x = nan on one line, {soc_traj} a two-row
    CSV whose first soc is 5, {far_traj} the same
    with x = 1e200 (its squared distance to a node overflows), {heavy_traj}
    one truck lifting and lowering a 1e308 kg load, {jump_traj} and
    {spin_traj} one truck whose x or heading goes from 1e308 to -1e308,
    {fast_traj} two trucks side by side at 1e308 m/s, {manifest} a calibrate
    manifest whose energy is nan, {good_manifest} one naming {traj} with a
    finite energy, {huge_manifest} the same with 1e300 J, {heavy_manifest}
    and {spin_manifest} one naming {heavy_traj} or {spin_traj},
    {dir_manifest} one whose cycle is a directory, {abc_manifest} one
    naming {traj} with the energy abc, {dup_spots} the demo floor with spot
    1 renamed to 0, {bogus_record} the same with a bogus record on line 2,
    {corridors} ONE_WAY_CORRIDORS,
    {nan_heading} the same with node 1's heading nan, {nan_twin_node} the
    same with node 0's x nan and node 2 renamed 1, {inf_edge} INF_EDGE,
    {one_point} ONE_POINT_ROUTE, {no_nodes} a map with no nodes, {odr}
    ONE_ROAD_ODR and {odr_nan}, {odr_inf}, {odr_huge} the same with its
    length nan, inf or 1e308, {bogus_odr}, {utf32_odr} the same declaring an
    encoding the XML parser does not know or cannot use, {dir} a directory,
    and {latin1_map}, {latin1_traj}, {latin1_cfg}, {latin1_manifest},
    {latin1_odr} the same kind of file with one byte that is not UTF-8
    ({latin1_cycle} names {latin1_traj} as its cycle), {late_traj} one
    vehicle at t = 1e300, {far_t_traj} two vehicles at t = -1e308 and 1e308,
    {wide_t_traj} one vehicle at (10, 0) at t = -1e308, 0 and 1e308 and
    {coarse_t_traj} one vehicle at t = 1e17 and 1e17 + 64, {long_traj} one
    vehicle at t = 0 and 1e9, {back_traj} one vehicle at speed -1 and
    {back_manifest} one naming {back_traj}, {far_map} nodes (-1e308, 0) and
    (0, 0) joined both ways by 1e308 m edges, {far_x_traj} one vehicle at
    x = 1e308 at t = 0 and 1 and {far_pair_traj} two vehicles stopped at
    (-1e308, 0) at t = 0 and 1, {thin_map} two nodes 39,999,990 m apart in x
    and 4e-7 m in y, {no_eq_cfg} a config line without '=' and
    {no_comma_manifest} a manifest line without a comma. The other {odr_*}
    files are ONE_ROAD_ODR or odr_roads(), the other maps ONE_WAY_CORRIDORS
    and the other {*_traj} files a trajectory CSV, each with the one fault
    their row names. Rows run main in-process; test_run_as_a_module runs two
    of them through `python -m forkfleet.cli`, and
    test_every_refusal_has_a_row all of them under a tracer."""

    SIM = ["simulate", "--map", "{map}", "--out-dir", "{out}", "--vehicles", "6",
           "--duration", "2"]
    CONFIG, INPUT, INFEASIBLE = "config error: ", "input error: ", "infeasible: "
    ERROR = "error: "
    CASES = [
        ("valid", SIM, EXIT_OK, ""),
        ("--set kin.d_safe=nan", [*SIM, "--set", "kin.d_safe=nan"], EXIT_CONFIG, CONFIG),
        ("--set kin.b_max=0", [*SIM, "--set", "kin.b_max=0"], EXIT_CONFIG, CONFIG),
        ("--set kin.v_max=-1", [*SIM, "--set", "kin.v_max=-1"], EXIT_CONFIG, CONFIG),
        ("--set kin.horizon=0", [*SIM, "--set", "kin.horizon=0"], EXIT_CONFIG, CONFIG),
        ("--set kin.t_deadlock=inf", [*SIM, "--set", "kin.t_deadlock=inf"], EXIT_CONFIG, CONFIG),
        ("--dt 0", [*SIM, "--dt", "0"], EXIT_CONFIG, CONFIG),
        ("--duration nan", [*SIM, "--duration", "nan"], EXIT_CONFIG, CONFIG),
        # each finite, but duration / dt is inf steps, which int() refuses
        ("--duration 1e308 --dt 1e-300", [*SIM, "--duration", "1e308", "--dt", "1e-300"],
         EXIT_CONFIG, CONFIG),
        ("--vehicles 20", [*SIM, "--vehicles", "20"], EXIT_CONFIG, CONFIG),  # 8 spots
        ("--vehicles -1", [*SIM, "--vehicles", "-1"], EXIT_CONFIG, CONFIG),
        # an int too large for a float: the range check must not convert it
        ("--vehicles 10**400", [*SIM, "--vehicles", "1" + "0" * 400], EXIT_CONFIG, CONFIG),
        ("--set battery.capacity=0", [*SIM, "--set", "battery.capacity=0"], EXIT_CONFIG, CONFIG),
        ("--set battery.eta_drive=nan", [*SIM, "--set", "battery.eta_drive=nan"],
         EXIT_CONFIG, CONFIG),
        ("--set battery.eta_regen=1", [*SIM, "--set", "battery.eta_regen=1"], EXIT_CONFIG, CONFIG),
        ("--set battery.c_rr=nan", [*SIM, "--set", "battery.c_rr=nan"], EXIT_CONFIG, CONFIG),
        ("--set pickup_mass=nan", [*SIM, "--set", "pickup_mass=nan"], EXIT_CONFIG, CONFIG),
        ("--set density.linkage=bogus", [*SIM, "--set", "density.linkage=bogus"],
         EXIT_CONFIG, CONFIG),
        ("--policy fixed:99", [*SIM, "--policy", "fixed:99"], EXIT_CONFIG, CONFIG),
        ("--set battery.g=9.81", [*SIM, "--set", "battery.g=9.81"], EXIT_CONFIG, CONFIG),
        ("--set without =", [*SIM, "--set", "foo"], EXIT_CONFIG,
         CONFIG + "--set expects key=value, got 'foo'\n"),
        ("simulate without --map", ["simulate", "--out-dir", "{out}", "--duration", "2"],
         EXIT_CONFIG, ERROR + "missing required file path\n"),
        ("place-chargers placement.k=0",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.k=0",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.cell_size=0",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.cell_size=0", "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.d_scale=0",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.d_scale=0", "{traj}"], EXIT_CONFIG, CONFIG),
        ("heatmap placement.cell_size=-1",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=-1",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("heatmap placement.cell_size=1e-300",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=1e-300",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.cell_size=1e-300",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.cell_size=1e-300", "{traj}"], EXIT_CONFIG, CONFIG),
        # a 1e6-cell grid from x = -1e308; the truck at 1e308 is inf cells
        # from its origin, so it goes to the overflow tally
        ("heatmap sample inf cells out",
         ["heatmap", "--map", "{far_map}", "--out-dir", "{out}", "--set",
          "placement.cell_size=1e302", "{far_x_traj}"], EXIT_OK, ""),
        # 84 x 64 m over 1e-16 m cells: finite, but far more than MAX_CELLS
        ("heatmap placement.cell_size=1e-16",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=1e-16",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.cell_size=1e-16",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.cell_size=1e-16", "{traj}"], EXIT_CONFIG, CONFIG),
        # the bounding box over a subnormal cell size is inf cells wide
        ("heatmap placement.cell_size=5e-324",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=5e-324",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("analyze-density density.snapshot_interval=0",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=0", "{traj}"], EXIT_CONFIG, CONFIG),
        # 1 s of one vehicle over 1e-12 s ticks: 1e12 ticks
        ("analyze-density density.snapshot_interval=1e-12",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=1e-12", "{traj}"], EXIT_CONFIG, CONFIG),
        # 833,334 ticks of 1 vehicle: 833,334 x 2 x 88 = 1.47e8 entries, more
        # than MAX_ENTRIES
        ("analyze-density density.snapshot_interval=1.2e-6",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=1.2e-6", "{traj}"], EXIT_CONFIG, CONFIG),
        # 1e9 s at the default 1 s: a finite count, reported as one
        ("analyze-density 1e9 ticks",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{long_traj}"], EXIT_CONFIG,
         CONFIG + "density.snapshot_interval 1.0 over 1000000000 s makes 1e+09 ticks of 1 "),
        # 1 s over a subnormal interval is inf ticks, which math.floor refuses
        ("analyze-density density.snapshot_interval=5e-324",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=5e-324", "{traj}"], EXIT_CONFIG, CONFIG),
        ("replay x=nan", ["replay", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        # 1 s of one vehicle at 1e-7 s: 10^7 grid points, more than MAX_GRID_POINTS
        ("replay --dt 1e-7",
         ["replay", "--map", "{map}", "--out-dir", "{out}", "--dt", "1e-7", "{traj}"],
         EXIT_CONFIG, CONFIG),
        # t + dt == t at 1e300: the grid times never pass the last sample's
        ("replay t=1e300", ["replay", "--map", "{map}", "--out-dir", "{out}", "{late_traj}"],
         EXIT_CONFIG, CONFIG),
        # the second vehicle's first grid index is inf
        ("replay t=+-1e308", ["replay", "--map", "{map}", "--out-dir", "{out}", "{far_t_traj}"],
         EXIT_CONFIG, CONFIG),
        # times 16 apart at 1e17: a grid at dt 1 repeats its times
        ("replay --dt 1 at t=1e17",
         ["replay", "--map", "{map}", "--out-dir", "{out}", "--dt", "1", "{coarse_t_traj}"],
         EXIT_CONFIG, CONFIG),
        # a first soc outside [0, 1] would be copied to soc.csv as it is
        ("replay soc=5", ["replay", "--map", "{map}", "--out-dir", "{out}", "{soc_traj}"],
         EXIT_INPUT, INPUT + "line 2: soc 5.0 outside [0, 1]"),
        ("analyze-density x=nan",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("place-chargers x=nan",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("heatmap x=nan", ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("analyze-density x=1e200",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{far_traj}"],
         EXIT_INPUT, INPUT),
        ("place-chargers x=1e200",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "{far_traj}"],
         EXIT_INPUT, INPUT),
        # three 1e308 s dwell gaps on node 1: each finite, their sum inf
        ("place-chargers --dwell gaps sum to inf",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "--dwell", "{wide_t_traj}"],
         EXIT_INPUT, INPUT + "dwell time at node 1 sums past the float range"),
        # a truck driving at -1 m/s: a negative distance, named by vehicle and t
        ("replay speed -1", ["replay", "--map", "{map}", "--out-dir", "{out}", "{back_traj}"],
         EXIT_INPUT, INPUT + "vehicle 0 at t=0.1: ds=-0.1, dt=0.1"),
        ("calibrate speed -1", ["calibrate", "--out-dir", "{out}", "{back_manifest}"],
         EXIT_INPUT, INPUT + "vehicle 0 at t=1: ds=-1.0, dt=1.0"),
        # a 1e308 kg load lifted 1 m: the energy sum is inf
        ("replay energy not finite",
         ["replay", "--map", "{map}", "--out-dir", "{out}", "--dt", "1", "{heavy_traj}"],
         EXIT_INPUT, INPUT),
        ("simulate pickup_mass=1e308",
         ["simulate", "--map", "{map}", "--out-dir", "{out}", "--vehicles", "2",
          "--duration", "3", "--set", "pickup_mass=1e308"], EXIT_CONFIG, CONFIG),
        # lifting the 1e308 kg load makes the energy sum inf, which the meter refuses
        ("simulate pickup_mass=1e308 --duration 60",
         ["simulate", "--map", "{map}", "--out-dir", "{out}", "--vehicles", "2",
          "--duration", "60", "--set", "pickup_mass=1e308"], EXIT_CONFIG,
         CONFIG + "vehicle 0 at t=0.1: the energy sum is not finite"),
        # x from 1e308 to -1e308: interpolating between them overflows
        ("replay samples too far apart",
         ["replay", "--map", "{map}", "--out-dir", "{out}", "{jump_traj}"], EXIT_INPUT,
         INPUT + "vehicle 0 samples at t=0 and t=1 are too far apart to interpolate"),
        # heading from 1e308 to -1e308: math.remainder refuses their inf difference
        ("analyze-density heading too far apart",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{spin_traj}"],
         EXIT_INPUT, INPUT),
        ("calibrate heading too far apart",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{spin_manifest}"],
         EXIT_INPUT, INPUT),
        # two trucks side by side at 1e308 m/s: their speeds' sum overflows
        ("analyze-density mean speed not finite",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{fast_traj}"],
         EXIT_INPUT, INPUT),
        # two trucks stopped on far_map's node at x = -1e308: their x sum overflows
        ("analyze-density centroid not finite",
         ["analyze-density", "--map", "{far_map}", "--out-dir", "{out}", "{far_pair_traj}"],
         EXIT_INPUT, INPUT + "t=0: a critical cluster's centroid is not finite"),
        # inf drawn less inf regenerated: the objective is nan
        ("calibrate objective nan",
         ["calibrate", "--out-dir", "{out}", "{heavy_manifest}"], EXIT_INPUT, INPUT),
        ("calibrate objective nan --free c_rr",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{heavy_manifest}"],
         EXIT_INPUT, INPUT + "cycle 0: residual nan J"),
        # (-1e300) ** 2 overflows
        ("calibrate energy=1e300 --free c_rr",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{huge_manifest}"],
         EXIT_INPUT, INPUT + "cycle 0: residual -1e+300 J"),
        ("calibrate energy=nan",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{manifest}"], EXIT_INPUT, INPUT),
        ("calibrate energy=abc",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{abc_manifest}"], EXIT_INPUT,
         INPUT + "manifest line 1: bad energy value 'abc'\n"),
        ("calibrate --free bogus",
         ["calibrate", "--out-dir", "{out}", "--free", "bogus", "{good_manifest}"],
         EXIT_CONFIG, CONFIG),
        # one cycle would also be too few for two parameters: the name comes first
        ("calibrate --free c_rr,c_rr",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr,c_rr", "{good_manifest}"],
         EXIT_CONFIG, CONFIG),
        ("simulate two spots with one id",
         ["simulate", "--map", "{dup_spots}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT),
        ("simulate unknown map record",
         ["simulate", "--map", "{bogus_record}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "unknown record 'bogus' at line 2\n"),
        ("simulate heading=nan",
         ["simulate", "--map", "{nan_heading}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT),
        ("simulate edge length inf",
         ["simulate", "--map", "{inf_edge}", "--out-dir", "{out}", "--vehicles", "1",
          "--policy", "fixed:1", "--duration", "2"], EXIT_INPUT, INPUT),
        ("simulate one-point route",
         ["simulate", "--map", "{one_point}", "--out-dir", "{out}", "--vehicles", "1",
          "--duration", "20"], EXIT_OK, ""),
        ("heatmap on a map with no nodes",
         ["heatmap", "--map", "{no_nodes}", "--out-dir", "{out}", "{traj}"], EXIT_INPUT, INPUT),
        ("simulate unreachable spot",
         ["simulate", "--map", "{corridors}", "--out-dir", "{out}", "--vehicles", "1",
          "--duration", "5"], EXIT_INFEASIBLE, INFEASIBLE),
        ("convert --spacing 0", ["convert", "{odr}", "--out", "{out}", "--spacing", "0"],
         EXIT_CONFIG, CONFIG),
        ("convert --spacing nan", ["convert", "{odr}", "--out", "{out}", "--spacing", "nan"],
         EXIT_CONFIG, CONFIG),
        ("convert --spacing -1", ["convert", "{odr}", "--out", "{out}", "--spacing", "-1"],
         EXIT_CONFIG, CONFIG),
        ("convert --spacing inf", ["convert", "{odr}", "--out", "{out}", "--spacing", "inf"],
         EXIT_CONFIG, CONFIG),
        # 50 m at 1e-300 m: 5e301 sample points, more than MAX_POINTS
        ("convert --spacing 1e-300",
         ["convert", "{odr}", "--out", "{out}", "--spacing", "1e-300"], EXIT_CONFIG, CONFIG),
        ("convert length=nan", ["convert", "{odr_nan}", "--out", "{out}"], EXIT_INPUT, INPUT),
        ("convert length=inf", ["convert", "{odr_inf}", "--out", "{out}"], EXIT_INPUT, INPUT),
        ("convert length=1e308", ["convert", "{odr_huge}", "--out", "{out}"],
         EXIT_CONFIG, CONFIG),
        ("convert length=abc", ["convert", "{odr_abc}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: bad value for 'length': 'abc'\n"),
        ("convert no planView", ["convert", "{odr_no_plan_view}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: missing planView\n"),
        ("convert geometry without shape", ["convert", "{odr_no_shape}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: geometry without shape element\n"),
        ("convert segment length 0", ["convert", "{odr_zero_segment}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: non-positive segment length\n"),
        ("convert arc curvature 0", ["convert", "{odr_flat_arc}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: arc needs nonzero finite curvature\n"),
        ("convert empty planView", ["convert", "{odr_empty_plan_view}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: empty planView\n"),
        ("convert two segments at s=0", ["convert", "{odr_two_at_s0}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: segment s-offsets not strictly increasing\n"),
        ("convert link without elementId", ["convert", "{odr_no_element_id}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: link without elementId\n"),
        ("convert no road", ["convert", "{odr_no_road}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "document contains no <road> elements\n"),
        # 0.0005 m of segment is within 1e-3 of the declared 0 m
        ("convert declared length 0", ["convert", "{odr_zero_length}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1 has zero length\n"),
        ("convert linked roads 40 m apart", ["convert", "{odr_gap}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "linked roads 2/1 endpoints 40.0000 m apart\n"),
        # a link would resolve to one road "1" and take its nodes from the other
        ("convert two roads with one id", ["convert", "{odr_dup_ids}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "two roads with id 1\n"),
        # else it would be read as a road of its own, and a link could name it
        ("convert road without id", ["convert", "{odr_no_id}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road without id\n"),
        ("simulate --config a directory", [*SIM, "--config", "{dir}"], EXIT_CONFIG, ERROR),
        ("analyze-density --map a directory",
         ["analyze-density", "--map", "{dir}", "--out-dir", "{out}", "{traj}"],
         EXIT_CONFIG, ERROR),
        ("heatmap trajectory a directory",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{dir}"], EXIT_CONFIG, ERROR),
        ("calibrate manifest a directory",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{dir}"], EXIT_CONFIG, ERROR),
        ("calibrate cycle a directory",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{dir_manifest}"],
         EXIT_CONFIG, ERROR),
        ("--out-dir a regular file", [*SIM[:3], "--out-dir", "{traj}", *SIM[5:]],
         EXIT_CONFIG, ERROR),
        ("convert --out into a missing directory",
         ["convert", "{odr}", "--out", "{out}/site.roadnet"], EXIT_CONFIG, ERROR),
        ("simulate map not UTF-8",
         ["simulate", "--map", "{latin1_map}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT),
        ("heatmap trajectory not UTF-8",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{latin1_traj}"], EXIT_INPUT, INPUT),
        ("simulate --config not UTF-8", [*SIM, "--config", "{latin1_cfg}"], EXIT_INPUT, INPUT),
        ("calibrate manifest not UTF-8",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{latin1_manifest}"],
         EXIT_INPUT, INPUT),
        ("calibrate cycle not UTF-8",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{latin1_cycle}"],
         EXIT_INPUT, INPUT),
        ("convert input not UTF-8", ["convert", "{latin1_odr}", "--out", "{out}"],
         EXIT_INPUT, INPUT),
        ("convert unknown declared encoding", ["convert", "{bogus_odr}", "--out", "{out}"],
         EXIT_INPUT, INPUT),
        ("convert multi-byte declared encoding",
         ["convert", "{utf32_odr}", "--out", "{out}"], EXIT_INPUT, INPUT),
        # a regular file whose read fails (EIO at address 0)
        ("analyze-density --map unreadable",
         ["analyze-density", "--map", "/proc/self/mem", "--out-dir", "{out}", "{traj}"],
         EXIT_CONFIG, ERROR),
        ("--set kin.v_max=fast", [*SIM, "--set", "kin.v_max=fast"], EXIT_CONFIG,
         CONFIG + "key 'kin.v_max': cannot parse value 'fast'\n"),
        ("--set bogus.x=1", [*SIM, "--set", "bogus.x=1"], EXIT_CONFIG,
         CONFIG + "unknown group 'bogus'\n"),
        ("--policy fixed:abc", [*SIM, "--policy", "fixed:abc"], EXIT_CONFIG,
         CONFIG + "bad policy 'fixed:abc'\n"),
        ("--policy nearest", [*SIM, "--policy", "nearest"], EXIT_CONFIG,
         CONFIG + "unknown policy 'nearest'\n"),
        ("--config line without =", [*SIM, "--config", "{no_eq_cfg}"], EXIT_CONFIG,
         CONFIG + "line 1: expected 'key = value', got 'vehicles 2'\n"),
        ("simulate --map missing",
         ["simulate", "--map", "{dir}/missing.roadnet", "--out-dir", "{out}", "--duration", "2"],
         EXIT_CONFIG, ERROR + "file not found: "),
        ("calibrate manifest line without a comma",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{no_comma_manifest}"],
         EXIT_INPUT, INPUT + "manifest line 1: expected 'path,measured_joules'\n"),
        ("calibrate one cycle for two parameters",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr,c_steer", "{good_manifest}"],
         EXIT_INFEASIBLE, INFEASIBLE + "1 cycles for 2 free parameters\n"),
        ("convert missing attribute", ["convert", "{odr_no_hdg}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: <geometry> missing attribute 'hdg'\n"),
        ("convert declared length 60 of 50", ["convert", "{odr_long}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: declared length 60.0 != segment sum 50.0\n"),
        ("convert planView discontinuity", ["convert", "{odr_jump}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: planView discontinuity at s=25.0\n"),
        ("convert bad contactPoint", ["convert", "{odr_middle}", "--out", "{out}"],
         EXIT_INPUT,
         INPUT + "road 2: predecessor contactPoint 'middle' is neither 'start' nor 'end'\n"),
        ("convert spiral", ["convert", "{odr_spiral}", "--out", "{out}"],
         EXIT_INPUT, INPUT + "road 1: planView element 'spiral'\n"),
        ("simulate node id out of place",
         ["simulate", "--map", "{twin_node}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "waypoint at index 1 carries node id 0\n"),
        # of two faults, the node id out of place is named, not node 0's nan
        ("simulate node id out of place and a nan node",
         ["simulate", "--map", "{nan_twin_node}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "waypoint at index 2 carries node id 1\n"),
        ("simulate edge to a missing node",
         ["simulate", "--map", "{edge_to_7}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "edge 2->7 references a missing node\n"),
        ("simulate self-loop",
         ["simulate", "--map", "{self_loop}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "self-loop at node 2\n"),
        ("simulate speed limit 0",
         ["simulate", "--map", "{stopped_edge}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "edge 2->3 has speed limit 0.0\n"),
        ("simulate edge shorter than its chord",
         ["simulate", "--map", "{short_edge}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "edge 2->3 length 9.0 shorter than chord 10.0\n"),
        ("simulate spot on a missing edge",
         ["simulate", "--map", "{spot_off_road}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "spot 1 anchors to missing edge 3->2\n"),
        ("simulate spot past its edge",
         ["simulate", "--map", "{spot_past_edge}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "spot 1 offset 11.0 outside edge\n"),
        ("simulate map without header",
         ["simulate", "--map", "{headless_map}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "missing 'roadnet v1' header\n"),
        ("simulate bad map record",
         ["simulate", "--map", "{bad_record}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT + "bad record at line 3: 'node 1 10 zero 0'\n"),
        ("analyze-density on a map with no nodes",
         ["analyze-density", "--map", "{no_nodes}", "--out-dir", "{out}", "{traj}"],
         EXIT_INPUT, INPUT + "nearest_node on empty graph\n"),
        ("heatmap empty trajectory",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{empty_traj}"],
         EXIT_INPUT, INPUT + "line 1: empty file, header missing\n"),
        ("heatmap wrong header",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{header_traj}"],
         EXIT_INPUT, INPUT + "line 1: expected header '" + CSV_HEADER.strip() + "'\n"),
        ("heatmap 8 columns",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{columns_traj}"],
         EXIT_INPUT, INPUT + "line 2: expected 9 columns, got 8\n"),
        ("heatmap x=abc", ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{abc_traj}"],
         EXIT_INPUT, INPUT + "line 2: could not convert string to float: 'abc'\n"),
        ("heatmap t going back",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{unsorted_traj}"],
         EXIT_INPUT, INPUT + "line 3: samples for vehicle 0 not strictly increasing in t\n"),
        # 9,999,998.5 x 1.0000001 cells pass the check before rounding up;
        # 9,999,999 x 2 after it are more than MAX_CELLS
        ("heatmap grid past MAX_CELLS once rounded up",
         ["heatmap", "--map", "{thin_map}", "--out-dir", "{out}", "--set",
          "placement.cell_size=4", "{traj}"],
         EXIT_CONFIG, CONFIG + "grid 9999999x2 at cell_size 4.0\n"),
    ]

    @pytest.fixture()
    def files(self, tmp_path, map_file):
        rows = ["0,0,10,10,0,0,0,0,1\n", "1,0,11,10,0,1,0,0,0.99\n"]
        paths = {"map": map_file, "out": str(tmp_path / "out"), "dir": str(tmp_path)}
        with open(map_file) as f:
            floor = f.read()
        assert "\nspot 1 " in floor
        for name, text in (("traj", CSV_HEADER + "".join(rows)),
                           ("nan_traj", CSV_HEADER + rows[0] + "1,0,nan,10,0,1,0,0,0.99\n"),
                           ("soc_traj", CSV_HEADER + "0,0,0,0,0,0,0,0,5\n"
                                                     "0.1,0,0,0,0,0,0,0,1\n"),
                           ("far_traj", CSV_HEADER + rows[0] + "1,0,1e200,10,0,1,0,0,0.99\n"),
                           ("late_traj", CSV_HEADER + "1e300,0,10,10,0,0,0,0,1\n"),
                           ("far_t_traj", CSV_HEADER + "-1e308,1,10,10,0,0,0,0,1\n"
                                                       "1e308,0,10,10,0,0,0,0,1\n"),
                           ("wide_t_traj", CSV_HEADER + "-1e308,0,10,0,0,0,0,0,1\n"
                                                        "0,0,10,0,0,0,0,0,1\n"
                                                        "1e308,0,10,0,0,0,0,0,1\n"),
                           ("coarse_t_traj", CSV_HEADER + "1e17,0,10,10,0,0,0,0,1\n"
                                                          "100000000000000064,0,11,10,0,1,0,0,1\n"),
                           ("long_traj", CSV_HEADER + "0,0,10,10,0,0,0,0,1\n"
                                                      "1e9,0,10,10,0,0,0,0,1\n"),
                           ("back_traj", CSV_HEADER + "0,0,10,10,0,-1,0,0,1\n"
                                                      "1,0,9,10,0,-1,0,0,1\n"),
                           ("back_manifest", "back_traj,1000\n"),
                           ("far_map", "roadnet v1\nnode 0 -1e308 0 0\nnode 1 0 0 0\n"
                                       "edge 0 1 1e308 3 1\nedge 1 0 1e308 3 1\n"),
                           ("far_x_traj", CSV_HEADER + "0,0,1e308,0,0,0,0,0,1\n"
                                                       "1,0,1e308,0,0,0,0,0,1\n"),
                           ("far_pair_traj", CSV_HEADER + "0,0,-1e308,0,0,0,0,0,1\n"
                                                          "0,1,-1e308,0,0,0,0,0,1\n"
                                                          "1,0,-1e308,0,0,0,0,0,1\n"
                                                          "1,1,-1e308,0,0,0,0,0,1\n"),
                           ("heavy_traj", CSV_HEADER + "0,0,10,10,0,0,0,1e308,1\n"
                                                       "1,0,10,10,0,0,1,1e308,1\n"
                                                       "2,0,10,10,0,0,0,1e308,1\n"),
                           ("jump_traj", CSV_HEADER + "0,0,1e308,10,0,0,0,0,1\n"
                                                      "1,0,-1e308,10,0,0,0,0,1\n"),
                           ("spin_traj", CSV_HEADER + "0,0,10,10,1e308,0,0,0,1\n"
                                                      "1,0,10,10,-1e308,0,0,0,1\n"),
                           ("fast_traj", CSV_HEADER + "0,0,10,10,0,1e308,0,0,1\n"
                                                      "0,1,11,10,0,1e308,0,0,1\n"),
                           ("manifest", "traj,nan\n"),
                           ("spin_manifest", "spin_traj,5\n"),
                           ("heavy_manifest", "heavy_traj,5\n"),
                           ("huge_manifest", "traj,1e300\n"),
                           ("abc_manifest", "traj,abc\n"),
                           ("good_manifest", "traj,1000\n"),
                           ("dir_manifest", ".,1000\n"),
                           ("dup_spots", floor.replace("\nspot 1 ", "\nspot 0 ")),
                           ("bogus_record",
                            floor.replace("roadnet v1\n", "roadnet v1\nbogus 1 2 3\n")),
                           ("corridors", ONE_WAY_CORRIDORS),
                           ("nan_heading",
                            ONE_WAY_CORRIDORS.replace("node 1 10 0 0", "node 1 10 0 nan")),
                           ("nan_twin_node",
                            ONE_WAY_CORRIDORS.replace("node 0 0 0 0", "node 0 nan 0 0")
                            .replace("node 2 0 20 0", "node 1 0 20 0")),
                           ("inf_edge", INF_EDGE),
                           ("one_point", ONE_POINT_ROUTE),
                           ("no_nodes", "roadnet v1\n"),
                           ("odr", ONE_ROAD_ODR),
                           ("odr_nan", ONE_ROAD_ODR.replace('length="50"', 'length="nan"')),
                           ("odr_inf", ONE_ROAD_ODR.replace('length="50"', 'length="inf"')),
                           ("odr_huge", ONE_ROAD_ODR.replace('length="50"', 'length="1e308"')),
                           ("odr_abc", ONE_ROAD_ODR.replace('id="1" length="50"',
                                                            'id="1" length="abc"')),
                           ("odr_no_plan_view",
                            ONE_ROAD_ODR.replace(f"<planView>{GEOMETRY}</planView>", "")),
                           ("odr_no_shape", ONE_ROAD_ODR.replace("<line/>", "")),
                           ("odr_zero_segment", ONE_ROAD_ODR.replace('length="50"><line/>',
                                                                     'length="0"><line/>')),
                           ("odr_flat_arc",
                            ONE_ROAD_ODR.replace("<line/>", '<arc curvature="0"/>')),
                           ("odr_empty_plan_view", ONE_ROAD_ODR.replace(GEOMETRY, "")),
                           ("odr_two_at_s0",
                            ONE_ROAD_ODR.replace(GEOMETRY, GEOMETRY.replace("50", "25") * 2)),
                           ("odr_no_element_id",
                            odr_roads(("1", 0, 50, "<link><successor/></link>"))),
                           ("odr_no_road", "<OpenDRIVE></OpenDRIVE>"),
                           ("odr_zero_length",
                            ONE_ROAD_ODR.replace('id="1" length="50"', 'id="1" length="0"')
                            .replace('length="50"><line/>', 'length="0.0005"><line/>')),
                           ("odr_gap", odr_roads(("1", 0, 50, ""), ("2", 90, 10, PREDECESSOR_1))),
                           ("odr_dup_ids", odr_roads(("1", 0, 10, ""), ("1", 100, 10, ""),
                                                     ("2", 10, 10, PREDECESSOR_1))),
                           ("odr_no_id", ONE_ROAD_ODR.replace('<road id="1" ', '<road ')),
                           ("odr_junction", odr_roads(
                               ("1", 0, 50, '<link><successor elementType="junction" '
                                            'elementId="7"/></link>'))),
                           ("odr_unknown_road", odr_roads(
                               ("1", 0, 50, '<link><successor elementId="9"/></link>'))),
                           # 0xe9 is e-acute in Latin-1 and no UTF-8 sequence
                           ("latin1_map", floor.replace("\nnode 1 ", "\nnode 1 \xe9")),
                           ("latin1_traj", CSV_HEADER + rows[0] + "# caf\xe9\n" + rows[1]),
                           ("latin1_cfg", "vehicles = 2  # caf\xe9\n"),
                           ("latin1_manifest", "traj,1000  # caf\xe9\n"),
                           ("latin1_cycle", "latin1_traj,1000\n"),
                           ("latin1_odr", ONE_ROAD_ODR.replace('id="1"', 'id="caf\xe9"')),
                           ("bogus_odr", DECLARED % "bogus" + ONE_ROAD_ODR),
                           ("utf32_odr", DECLARED % "UTF-32" + ONE_ROAD_ODR),
                           ("no_eq_cfg", "vehicles 2\n"),
                           ("no_comma_manifest", "traj\n"),
                           ("odr_no_hdg", ONE_ROAD_ODR.replace(' hdg="0"', "")),
                           ("odr_long", ONE_ROAD_ODR.replace('id="1" length="50"',
                                                             'id="1" length="60"')),
                           # the second half starts 5 m past the first's end
                           ("odr_jump", ONE_ROAD_ODR.replace(GEOMETRY, GEOMETRY.replace("50", "25")
                                                             + GEOMETRY.replace("50", "25").replace(
                                                                 's="0" x="0"', 's="25" x="30"'))),
                           ("odr_middle", odr_roads(("1", 0, 50, ""), ("2", 50, 10, PREDECESSOR_1
                                                    .replace('"end"', '"middle"')))),
                           ("odr_spiral", ONE_ROAD_ODR.replace("<line/>", "<spiral/>")),
                           *((name, ONE_WAY_CORRIDORS.replace(old, new)) for name, old, new in (
                               ("twin_node", "node 1 10 0 0", "node 0 10 0 0"),
                               ("edge_to_7", "edge 2 3 ", "edge 2 7 "),
                               ("self_loop", "edge 2 3 ", "edge 2 2 "),
                               ("stopped_edge", "edge 2 3 10 3 ", "edge 2 3 10 0 "),
                               ("short_edge", "edge 2 3 10 ", "edge 2 3 9 "),
                               ("spot_off_road", "spot 1 2 3 ", "spot 1 3 2 "),
                               ("spot_past_edge", "spot 1 2 3 5", "spot 1 2 3 11"),
                               ("headless_map", "roadnet v1\n", ""),
                               ("bad_record", "node 1 10 0 0", "node 1 10 zero 0"))),
                           # 39,999,990 m wide and 4e-7 m tall, with no edges
                           ("thin_map", "roadnet v1\nnode 0 0 0 0\nnode 1 39999990 4e-7 0\n"),
                           ("empty_traj", ""),
                           ("header_traj", "t,x,y\n0,10,10\n"),
                           ("columns_traj", CSV_HEADER + "0,0,10,10,0,0,0,0\n"),
                           ("abc_traj", CSV_HEADER + "0,0,abc,10,0,0,0,0,1\n"),
                           ("unsorted_traj", CSV_HEADER + rows[1] + rows[0])):
            paths[name] = str(tmp_path / name)
            with open(paths[name], "w", encoding="latin-1") as f:
                f.write(text)
        return paths

    @pytest.mark.parametrize("argv,code,prefix", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_code(self, files, capsys, argv, code, prefix):
        argv = [a.format(**files) for a in argv]
        try:
            got = main(argv)
        except BaseException as exc:  # the contract: main returns, whatever the input
            pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
        err = capsys.readouterr().err
        assert got == code, err
        if code != EXIT_OK:
            assert err.startswith(prefix)
            assert err.count("\n") == 1

    def test_every_refusal_has_a_row(self, files, tmp_path):
        # every raise site in the package is reached by some row, or listed
        # with its reason; a listed site that a row reaches is a stale entry
        def run_rows():
            for i, (name, argv, code, _) in enumerate(self.CASES):
                # each row writes to an output directory of its own
                fmt = dict(files, out=str(tmp_path / f"out{i}"))
                assert main([a.format(**fmt) for a in argv]) == code, name
        sites, executed = raise_sites(), lines_run(run_rows)
        unreached = {site: key for site, key in sites.items() if site not in executed}
        assert sorted(f"{pathlib.Path(f).name}:{n} {key}" for (f, n), key in unreached.items()
                      if key not in REACHED_FROM_OUTSIDE) == []
        assert sorted(set(REACHED_FROM_OUTSIDE) - set(unreached.values())) == []

    @pytest.mark.parametrize("name,warning", [
        ("odr_junction", "road 1: skipping successor link to junction element"),
        ("odr_unknown_road", "road 1: link to unknown road 9 ignored"),
    ], ids=["convert link to a junction", "convert link to an unknown road"])
    def test_convert_warning(self, files, caplog, name, warning):
        # a link outside the subset is skipped with a warning, not refused
        with caplog.at_level(logging.WARNING, logger="forkfleet.odr_import"):
            assert main(["convert", files[name], "--out", files["out"]]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records] == [warning]

    def test_run_as_a_module(self, files):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(forkfleet.__file__)))
        for name in ("valid", "simulate map not UTF-8"):
            argv, code, prefix = next(c[1:] for c in self.CASES if c[0] == name)
            argv = [a.format(**files) for a in argv]
            proc = subprocess.run([sys.executable, "-m", "forkfleet.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == code, proc.stderr
            assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == int(code != 0)

    def test_decode_error_names_the_file(self, files, capsys):
        assert main(["heatmap", "--map", files["map"], "--out-dir", files["out"],
                     files["latin1_traj"]]) == EXIT_INPUT
        assert capsys.readouterr().err == (f"input error: {files['latin1_traj']} is not "
                                           "UTF-8 text: invalid continuation byte\n")

    def test_read_failure_names_the_file(self, files, capsys, monkeypatch):
        def failing_open(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)
        monkeypatch.setattr(cli, "open", failing_open, raising=False)  # shadows the builtin
        assert main(["heatmap", "--map", files["map"], "--out-dir", files["out"],
                     files["traj"]]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot read {files['map']}: Permission denied\n"


class TestDeclaredEncoding:
    """convert decodes an OpenDRIVE file as its XML declaration says: a
    Latin-1 file that declares so converts to the body of its UTF-8 twin."""

    def test_declared_latin1_gives_the_utf8_body(self, tmp_path):
        odr = ONE_ROAD_ODR.replace('id="1"', 'id="caf\xe9"')
        bodies = []
        for name, data in (("latin1", (DECLARED % "ISO-8859-1" + odr).encode("latin-1")),
                           ("utf8", odr.encode("utf-8"))):
            src, out = tmp_path / f"{name}.xodr", tmp_path / f"{name}.roadnet"
            src.write_bytes(data)
            assert main(["convert", str(src), "--out", str(out)]) == EXIT_OK
            bodies.append([ln for ln in out.read_text().splitlines() if not ln.startswith("#")])
        assert bodies[0] == bodies[1] and bodies[0]


class TestByteOrderMark:
    """A UTF-8 input may start with a byte-order mark: the marked files give
    the output bodies the unmarked ones give."""

    ROWS = CSV_HEADER + "0,0,10,10,0,0,0,0,1\n1,0,11,10,0,1,0,0,0.99\n"

    @pytest.mark.parametrize("inputs,argv", [
        (("map", "traj"), ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{traj}"]),
        (("map", "cfg"), ["simulate", "--map", "{map}", "--config", "{cfg}", "--out-dir",
                          "{out}"]),
        (("manifest", "traj"), ["calibrate", "--free", "c_rr", "--out-dir", "{out}",
                                "{manifest}"]),
        (("odr",), ["convert", "{odr}", "--out", "{out}"]),
    ], ids=["heatmap", "simulate", "calibrate", "convert"])
    def test_marked_inputs_give_the_same_bodies(self, tmp_path, map_file, inputs, argv):
        with open(map_file) as f:
            texts = {"map": f.read(), "traj": self.ROWS, "manifest": "traj,1000\n",
                     "cfg": "vehicles = 2\nduration = 2\n", "odr": ONE_ROAD_ODR}
        bodies = []
        for mark in ("", "\ufeff"):
            d = tmp_path / f"mark{len(mark)}"
            d.mkdir()
            paths = {"out": str(d / "out")}
            for name in inputs:
                paths[name] = str(d / name)
                with open(paths[name], "w", encoding="utf-8") as f:
                    f.write(mark + texts[name])
            assert main([a.format(**paths) for a in argv]) == EXIT_OK
            out = paths["out"]
            outs = ([os.path.join(out, n) for n in sorted(os.listdir(out))]
                    if os.path.isdir(out) else [out])
            bodies.append([])
            for path in outs:
                with open(path, encoding="utf-8") as f:
                    bodies[-1].append((os.path.basename(path),
                                       [ln for ln in f if not ln.startswith("#")]))
        assert bodies[0] == bodies[1] and all(lines for _, lines in bodies[0])


class TestLineNumbers:
    """Every line format skips blank and '#' lines, and its errors name the
    file's own line: here line 5, after a provenance line and a blank line."""

    @pytest.mark.parametrize("kind,text,message", [
        ("map", "# prov\nroadnet v1\n\nnode 0 0 0 0\nnode x 0 0 0\n",
         "input error: bad record at line 5: 'node x 0 0 0'\n"),
        ("trajectory", "# prov\n" + CSV_HEADER + "\n0,0,10,10,0,0,0,0,1\n0,0,x,10,0,0,0,0,1\n",
         "input error: line 5: could not convert string to float: 'x'\n"),
        ("config", "# prov\nseed = 1\n\nvehicles = 2\nnot a setting\n",
         "config error: line 5: expected 'key = value', got 'not a setting'\n"),
        ("manifest", "# prov\ntraj,1000\n\ntraj,1000\nonly-one-field\n",
         "input error: manifest line 5: expected 'path,measured_joules'\n"),
    ], ids=["map", "trajectory", "config", "manifest"])
    def test_error_names_the_file_line(self, tmp_path, map_file, capsys, kind, text, message):
        (tmp_path / "traj").write_text(CSV_HEADER + "0,0,10,10,0,0,0,0,1\n")
        bad = str(tmp_path / kind)
        with open(bad, "w") as f:
            f.write(text)
        out = str(tmp_path / "out")
        argv = {"map": ["heatmap", "--map", bad, "--out-dir", out, str(tmp_path / "traj")],
                "trajectory": ["heatmap", "--map", map_file, "--out-dir", out, bad],
                "config": ["simulate", "--map", map_file, "--config", bad, "--out-dir", out],
                "manifest": ["calibrate", "--out-dir", out, bad]}[kind]
        assert main(argv) == (EXIT_CONFIG if kind == "config" else EXIT_INPUT)
        assert capsys.readouterr().err == message


class TestWriteAtomic:
    BODY = "t,x\r\n0,1.5\n"
    TEXT = "# head\n" + BODY

    def test_bytes_and_mode_match_a_plain_write(self, tmp_path):
        path = tmp_path / "out.csv"
        _write_atomic([str(path)], "head", lambda f: f.write(self.BODY))
        plain = tmp_path / "plain.csv"
        with open(plain, "w", newline="") as f:
            f.write(self.TEXT)
        assert path.read_bytes() == plain.read_bytes() == self.TEXT.encode()
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # renaming a file onto a directory fails
        with pytest.raises(OSError):
            _write_atomic([str(target)], "head", lambda f: f.write(self.BODY))
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(target) == []

    def test_failed_render_writes_nothing(self, tmp_path):
        def render(f):
            f.write("partial")
            raise RuntimeError("render failed")
        with pytest.raises(RuntimeError):
            _write_atomic([str(tmp_path / "out.csv")], "head", render)
        assert os.listdir(tmp_path) == []


class TestStreamedSimulate:
    """simulate writes its CSVs tick by tick into temp files and renames them
    only once the whole run has succeeded."""
    NAMES = ("trajectory.csv", "soc.csv", "summary.txt")

    def test_a_failed_run_leaves_earlier_outputs(self, tmp_path, map_file, capsys):
        code, out = simulate(tmp_path, map_file)
        assert code == EXIT_OK
        before = {name: (tmp_path / "out" / name).read_bytes() for name in self.NAMES}
        corridors = tmp_path / "corridors.roadnet"
        corridors.write_text(ONE_WAY_CORRIDORS)
        # the truck lifts for 3.3 s and then finds no route: the run fails
        # after its first ticks are already in the temp files; duration / dt
        # is inf steps: the run fails after the headers, before its first tick
        for argv, code, prefix in (
                (["--map", str(corridors), "--vehicles", "1", "--duration", "5"],
                 EXIT_INFEASIBLE, "infeasible: "),
                (["--map", map_file, "--duration", "1e308", "--dt", "1e-300"],
                 EXIT_CONFIG, "config error: duration 1e+308 / dt 1e-300 ")):
            capsys.readouterr()
            assert main(["simulate", "--out-dir", out, *argv]) == code
            err = capsys.readouterr().err
            assert err.startswith(prefix) and err.count("\n") == 1
            assert {name: (tmp_path / "out" / name).read_bytes() for name in self.NAMES} == before
            assert sorted(os.listdir(out)) == sorted(self.NAMES)  # no *.tmp left

    def test_memory_is_flat_in_duration(self, tmp_path, map_file):
        # holding every sample would grow the peak about 6x from 10 s to 100 s
        def peak(duration):
            tracemalloc.start()
            try:
                assert main(["simulate", "--map", map_file, "--out-dir", str(tmp_path / "out"),
                             "--vehicles", "4", "--duration", duration]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        short, long = peak("10"), peak("100")
        assert long <= 1.5 * short, (short, long)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.data())
    def test_stream_equals_the_list_path(self, nx, ny, data):
        n_spots = data.draw(st.integers(1, min(6, nx * (ny + 1))))
        vehicles = data.draw(st.integers(0, n_spots))
        seed = data.draw(st.integers(0, 2**32))
        dt = data.draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
        duration = data.draw(st.sampled_from([0.0, 0.5, 2.5, 6.0]))
        with tempfile.TemporaryDirectory() as d:
            map_path = os.path.join(d, "floor.roadnet")
            with open(map_path, "w") as f:
                save_roadnet(mapgen.warehouse_map(nx=nx, ny=ny, n_spots=n_spots), f)
            runs = []
            for out in ("a", "b"):
                assert main(["simulate", "--map", map_path, "--out-dir", os.path.join(d, out),
                             "--vehicles", str(vehicles), "--seed", str(seed), "--dt", repr(dt),
                             "--duration", repr(duration)]) == EXIT_OK
                runs.append({name: pathlib.Path(d, out, name).read_bytes()
                             for name in self.NAMES})
            assert runs[0] == runs[1]
            with open(map_path) as f:
                graph = load_roadnet(f)
        cfg = ScenarioConfig()
        world = World(
            graph, vehicles, dt=dt, seed=seed, kin=cfg.kin, battery_params=cfg.battery,
            fork_mass=cfg.fork_mass, pickup_mass=cfg.pickup_mass, lift_height=cfg.lift_height)
        samples = run_samples(world, duration, cfg.fixed_spot())
        trajectory, soc = io.StringIO(), io.StringIO()
        write_csv(samples, trajectory)
        soc.write("t,vehicle_id,soc\n")
        soc.write("".join(f"{s.t:.12g},{s.vehicle_id},{s.soc:.12g}\n" for s in samples))
        for name, body in (("trajectory.csv", trajectory), ("soc.csv", soc)):
            assert runs[0][name].decode().split("\n", 1)[1] == body.getvalue(), name


def sha256_12(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:12]


class TestProvenance:
    def test_every_file_starts_with_its_command_line(self, tmp_path, map_file):
        _, sim = simulate(tmp_path, map_file)
        traj = os.path.join(sim, "trajectory.csv")
        odr = tmp_path / "site.xodr"
        odr.write_text(ONE_ROAD_ODR)
        manifest = tmp_path / "cycles.csv"
        manifest.write_text(f"{traj},1000000\n")
        os.makedirs(tmp_path / "convert")
        out = {c: str(tmp_path / c) for c in
               ("replay", "convert", "analyze-density", "place-chargers", "heatmap", "calibrate")}
        runs = [  # command, argv, seed, inputs in provenance order, output dir, files
            ("simulate", None, 5, [map_file], sim,
             ["soc.csv", "summary.txt", "trajectory.csv"]),
            ("replay", ["--map", map_file, traj], 0, [map_file, traj], out["replay"],
             ["replay.csv", "soc.csv"]),
            ("convert", [str(odr), "--out", os.path.join(out["convert"], "site.roadnet")], 0,
             [str(odr)], out["convert"], ["site.roadnet"]),
            ("analyze-density", ["--map", map_file, traj], 0, [map_file, traj],
             out["analyze-density"], ["density.csv", "episodes.txt"]),
            ("place-chargers", ["--map", map_file, traj], 0, [map_file, traj],
             out["place-chargers"], ["heatmap.txt", "heatmap_cells.csv", "placement.csv"]),
            ("heatmap", ["--map", map_file, traj], 0, [map_file, traj], out["heatmap"],
             ["heatmap.txt", "heatmap_cells.csv"]),
            ("calibrate", ["--free", "c_rr", str(manifest)], 0, [str(manifest), traj],
             out["calibrate"], ["fitted_params.cfg", "residuals.txt"]),
        ]
        for command, argv, seed, inputs, out_dir, files in runs:
            if argv is not None:
                if command != "convert":
                    argv = ["--out-dir", out_dir, *argv]
                assert main([command, *argv]) == EXIT_OK, command
            digests = " ".join(f"{os.path.basename(p)}:sha256:{sha256_12(p)}" for p in inputs)
            config = "" if command == "convert" else r" config=sha256:[0-9a-f]{12}"
            line = re.compile(rf"# forkfleet {re.escape(forkfleet.__version__)} seed={seed}"
                              rf"{config} inputs={re.escape(digests)}\n")
            assert sorted(os.listdir(out_dir)) == files, command
            firsts = set()
            for name in files:
                with open(os.path.join(out_dir, name)) as f:
                    firsts.add(f.readline())
                    assert not any(ln.startswith("#") for ln in f), (command, name)
            assert len(firsts) == 1, command
            assert line.fullmatch(firsts.pop()), command


class TestReplay:
    def test_round_trip(self, tmp_path, map_file):
        _, out = simulate(tmp_path, map_file)
        traj = os.path.join(out, "trajectory.csv")
        rout = str(tmp_path / "replayed")
        assert main(["replay", "--map", map_file, "--out-dir", rout, traj]) == EXIT_OK
        with open(os.path.join(rout, "replay.csv")) as f:
            replayed = read_csv(f)
        with open(traj) as f:
            original = read_csv(f)
        assert len(replayed) == len(original)
        for a, b in zip(original, replayed):
            assert math.isclose(a.soc, b.soc, abs_tol=1e-9)

    def test_soc_rows_are_the_replayed_rows(self, tmp_path, map_file):
        # vehicle 0 starts at t = -0.0, vehicle 1 at 0.0: equal as floats, but
        # ticks group by t's bits, so two ticks, and each row prints its own t
        traj = tmp_path / "signed_zero.csv"
        traj.write_text("t,vehicle_id,x,y,heading,speed,fork_height,load_mass,soc\n"
                        "-0,0,10,10,0,0,0,0,1\n0,1,20,10,0,0,0,0,1\n"
                        "0.2,0,10,10,0,0,0,0,1\n0.2,1,20,10,0,0,0,0,1\n")
        rout = tmp_path / "replayed"
        assert main(["replay", "--map", map_file, "--out-dir", str(rout), str(traj)]) == EXIT_OK
        rows = (rout / "replay.csv").read_text().splitlines()[2:]
        soc = (rout / "soc.csv").read_text().splitlines()
        assert soc[1] == "t,vehicle_id,soc"
        assert soc[2:] == [",".join((r.split(",")[0], r.split(",")[1], r.split(",")[8]))
                           for r in rows]
        assert soc[2:4] == ["-0,0,1", "0,1,1"] and len(rows) == 6
        with open(traj) as f:
            ticks = list(replay(read_csv(f)))
        assert [[(s.t.hex(), s.vehicle_id) for s in tick] for tick in ticks[:2]] == [
            [("-0x0.0p+0", 0)], [("0x0.0p+0", 1)]]

    def test_corrupt_trajectory(self, tmp_path, map_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,vehicle_id,x\n")
        assert main(["replay", "--map", map_file, "--out-dir", str(tmp_path),
                     str(bad)]) == EXIT_INPUT


class TestConvert:
    ODR = ONE_ROAD_ODR

    def test_convert(self, tmp_path):
        src = tmp_path / "site.xodr"
        src.write_text(self.ODR)
        dst = tmp_path / "site.roadnet"
        assert main(["convert", str(src), "--out", str(dst), "--spacing", "5"]) == EXIT_OK
        from forkfleet.roadnet import load_roadnet
        with open(dst) as f:
            g = load_roadnet(f)
        assert g.n_nodes() == 22  # 11 per direction at 5 m spacing

    def test_unsupported_geometry(self, tmp_path):
        src = tmp_path / "site.xodr"
        src.write_text(self.ODR.replace("<line/>", '<spiral curvStart="0" curvEnd="1"/>'))
        assert main(["convert", str(src), "--out", str(tmp_path / "x")]) == EXIT_INPUT


class TestAnalyses:
    def test_density_and_placement_and_heatmap(self, tmp_path, map_file):
        _, out = simulate(tmp_path, map_file)
        traj = os.path.join(out, "trajectory.csv")

        dout = str(tmp_path / "dens")
        assert main(["analyze-density", "--map", map_file, "--out-dir", dout,
                     traj]) == EXIT_OK
        assert os.path.exists(os.path.join(dout, "density.csv"))
        with open(os.path.join(dout, "episodes.txt")) as f:
            assert "critical episodes:" in f.read()

        pout = str(tmp_path / "plc")
        assert main(["place-chargers", "--map", map_file, "--out-dir", pout,
                     "--dwell", traj]) == EXIT_OK
        for name in ("placement.csv", "heatmap.txt", "heatmap_cells.csv"):
            assert os.path.exists(os.path.join(pout, name))

        hout = str(tmp_path / "heat")
        assert main(["heatmap", "--map", map_file, "--out-dir", hout, traj]) == EXIT_OK
        with open(os.path.join(hout, "heatmap.txt")) as f:
            lines = [l for l in f if not l.startswith("#")]
        assert lines[0].startswith("heatmap v1 ")

    def test_place_chargers_frees_the_samples_first(self, tmp_path, map_file, monkeypatch):
        _, out = simulate(tmp_path, map_file)

        class Samples(list):  # unlike a list, it can be weakly referenced
            pass

        refs = []

        def read(f):
            samples = Samples(read_csv(f))
            refs.append(weakref.ref(samples))
            return samples

        def place(*args):
            assert refs and refs[0]() is None, "the samples outlive visit_weights and heatmap"
            return place_chargers(*args)

        place_chargers = cli.plc.place_chargers
        monkeypatch.setattr(cli, "read_csv", read)
        monkeypatch.setattr(cli.plc, "place_chargers", place)
        assert main(["place-chargers", "--map", map_file, "--out-dir", str(tmp_path / "plc"),
                     os.path.join(out, "trajectory.csv")]) == EXIT_OK


class TestCalibrate:
    def make_manifest(self, tmp_path, map_file, n):
        paths = []
        for i in range(n):
            _, out = simulate(tmp_path / f"c{i}", map_file, "--set", f"seed={i}")
            paths.append(os.path.join(out, "trajectory.csv"))
        # measured energy: net draw under the default parameters
        from eager import integrate_trajectory
        from forkfleet.battery import FORK_MASS, BatteryParams
        lines = []
        for p in paths:
            with open(p) as f:
                samples = read_csv(f)
            draw, regen, _ = integrate_trajectory(samples, FORK_MASS,
                                                  BatteryParams(c_rr=0.017))
            lines.append(f"{p},{draw - regen:.6f}")
        manifest = tmp_path / "cycles.csv"
        manifest.write_text("\n".join(lines) + "\n")
        return str(manifest)

    def test_recovers_c_rr(self, tmp_path, map_file):
        manifest = self.make_manifest(tmp_path, map_file, 2)
        out = str(tmp_path / "fit")
        assert main(["calibrate", "--out-dir", out, "--free", "c_rr",
                     manifest]) == EXIT_OK
        with open(os.path.join(out, "fitted_params.cfg")) as f:
            text = f.read()
        fitted = dict(line.split(" = ") for line in text.splitlines()
                      if not line.startswith("#"))
        assert float(fitted["battery.c_rr"]) == pytest.approx(0.017, rel=1e-4)
        assert os.path.exists(os.path.join(out, "residuals.txt"))

    def test_provenance_digests_the_cycle_files(self, tmp_path, map_file):
        manifest = self.make_manifest(tmp_path, map_file, 2)

        def first_line(out):
            assert main(["calibrate", "--out-dir", out, "--free", "c_rr",
                         manifest]) == EXIT_OK
            with open(os.path.join(out, "fitted_params.cfg")) as f:
                return f.readline()

        before = first_line(str(tmp_path / "fit1"))
        with open(manifest) as f:
            cycle = f.readline().rsplit(",", 1)[0]
        with open(cycle) as f:
            lines = f.readlines()
        with open(cycle, "w") as f:
            f.writelines(lines[:len(lines) // 2])
        assert first_line(str(tmp_path / "fit2")) != before

    def test_underdetermined(self, tmp_path, map_file):
        manifest = self.make_manifest(tmp_path, map_file, 1)
        assert main(["calibrate", "--out-dir", str(tmp_path), "--free",
                     "c_rr,eta_drive", manifest]) == EXIT_INFEASIBLE

    def test_bad_manifest(self, tmp_path):
        manifest = tmp_path / "cycles.csv"
        manifest.write_text("only-one-field\n")
        assert main(["calibrate", "--out-dir", str(tmp_path),
                     str(manifest)]) == EXIT_INPUT


class TestParser:
    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "forkfleet" in capsys.readouterr().out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_no_command(self):
        assert main([]) == EXIT_CONFIG
