"""The CLI's exit-code contract over mutated inputs: whatever the trajectory,
manifest, roadnet map or --set value, and with or without place-chargers'
--dwell, cli.main returns 0, 2, 3 or 4, writes at most one line to stderr and
no traceback, leaves no file behind when it fails, and writes no nan or inf
into any file it does write."""

import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from forkfleet import cli, mapgen
from forkfleet.config import ScenarioConfig
from forkfleet.roadnet import save_roadnet
from forkfleet.trajectory import CSV_HEADER

EXTREMES = ["0", "1e308", "-1e308", "5e-324", "nan"]
NON_FINITE = re.compile(r"(?<![a-z])(nan|inf|infinity)(?![a-z])", re.IGNORECASE)

# two trucks on the demo floor, four samples each, lifting and driving
ROWS = [[str(t), str(v), str(10 + t + 5 * v), "10", "0", "1", str(0.5 * (t % 2)),
         str(100 * (t % 3)), "1"] for t in range(4) for v in range(2)]


def range_cases(obj=ScenarioConfig(), prefix=""):
    """'key=value' for every setting() field: at each finite end of its range,
    just past that end, just inside an open end, and at 1e308."""
    cases = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            cases += range_cases(value, f"{prefix}{f.name}.")
        if "range" not in f.metadata:
            continue
        low, high, ends = f.metadata["range"]
        values = ["1e308"]
        for end, outward, is_open in ((low, -math.inf, ends[0] == "("),
                                      (high, math.inf, ends[1] == ")")):
            if math.isfinite(end):
                past = end + (1 if outward > 0 else -1) if isinstance(value, int) \
                    else math.nextafter(end, outward)
                values += [repr(end), repr(past)]
                if is_open:
                    values.append(repr(math.nextafter(end, -outward)))
        cases += [f"{prefix}{f.name}={v}" for v in values]
    return cases


SET_CASES = range_cases()


@st.composite
def mutated_rows(draw):
    """ROWS with up to three fields dropped or set to an extreme value."""
    rows = [list(row) for row in ROWS]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        i = draw(st.integers(0, len(row) - 1))
        value = draw(st.sampled_from([None, *EXTREMES]))
        if value is None:
            del row[i]
        else:
            row[i] = value
    return "".join(",".join(row) + "\n" for row in rows)


# one truck's times, in increasing order: spans and gaps up to 2e308
TIMES = ["-1e308", "-1e300", "-1", "0", "1", "1e300", "1e308"]


@st.composite
def extreme_time_rows(draw):
    """ROWS with all four times of one truck drawn from TIMES."""
    rows = [list(row) for row in ROWS]
    truck = draw(st.integers(0, 1))
    picks = draw(st.lists(st.integers(0, len(TIMES) - 1), min_size=4, max_size=4, unique=True))
    for row, i in zip(rows[truck::2], sorted(picks)):  # ROWS is time-major, two trucks a time
        row[0] = TIMES[i]
    return "".join(",".join(row) + "\n" for row in rows)


COMMANDS = ["simulate", "replay", "analyze-density", "place-chargers", "heatmap", "calibrate"]


def run_main(argv, out):
    """cli.main(argv) under the contract; out is its --out-dir."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and err.count("\n") == (code != 0), err
    written = os.listdir(out) if os.path.isdir(out) else []
    if code != 0:
        assert written == [], err
    for name in written:
        with open(os.path.join(out, name)) as f:
            found = NON_FINITE.search(f.read())
        assert found is None, f"{name}: {found[0]!r} after {argv}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), rows=mutated_rows(),
       energy=st.sampled_from(["5000", *EXTREMES, "-5000"]),
       free=st.sampled_from([[], ["--free", "c_rr"]]), dwell=st.booleans(),
       sets=st.lists(st.sampled_from(SET_CASES), max_size=2))
def test_mutated_inputs_keep_the_exit_contract(command, rows, energy, free, dwell, sets):
    run_command(command, rows, energy, free, dwell, sets)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS[1:]), rows=extreme_time_rows(), dwell=st.booleans())
def test_extreme_times_keep_the_exit_contract(command, rows, dwell):
    """Gaps of up to 2e308 s between one truck's samples: spans and dwell sums
    that overflow."""
    run_command(command, rows, "5000", ["--free", "c_rr"], dwell, [])


def run_command(command, rows, energy, free, dwell, sets):
    """command on the demo floor, the trajectory CSV of rows and a manifest
    of that cycle with energy, under the contract."""
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("floor", "cycle", "manifest", "out")}
        with open(paths["floor"], "w") as f:
            save_roadnet(mapgen.warehouse_map(), f)
        with open(paths["cycle"], "w") as f:
            f.write(f"{CSV_HEADER}\n{rows}")
        with open(paths["manifest"], "w") as f:
            f.write(f"cycle,{energy}\n")
        argv = [command, "--out-dir", paths["out"], *[a for kv in sets for a in ("--set", kv)]]
        if command == "simulate":
            argv += ["--map", paths["floor"], "--vehicles", "2", "--duration", "2"]
        elif command == "calibrate":
            argv += [*free, paths["manifest"]]
        else:
            if command == "place-chargers" and dwell:
                argv.append("--dwell")
            argv += ["--map", paths["floor"], paths["cycle"]]
        run_main(argv, paths["out"])


def floor_lines():
    buf = io.StringIO()
    save_roadnet(mapgen.warehouse_map(), buf)
    return buf.getvalue().splitlines(keepends=True)


FLOOR = floor_lines()
EDGE_LINES = [i for i, line in enumerate(FLOOR) if line.startswith("edge ")]


@st.composite
def mutated_floor(draw):
    """The demo floor's roadnet v1 text with one or two edge records
    mutated: the length dropped, the record duplicated, or the length set to
    nan, inf, 1e308 or 5e-324."""
    lines = list(FLOOR)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.sampled_from(EDGE_LINES))
        parts = lines[i].split()
        how = draw(st.sampled_from(["drop", "duplicate", "nan", "inf", "1e308", "5e-324"]))
        if how == "drop":
            del parts[3]
        elif how == "duplicate":
            lines.append(lines[i])
        else:
            parts[3] = how
        if how != "duplicate":
            lines[i] = " ".join(parts) + "\n"
    return "".join(lines)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["analyze-density", "place-chargers"]), floor=mutated_floor(),
       dwell=st.booleans())
def test_mutated_maps_keep_the_exit_contract(command, floor, dwell):
    """The trajectory is ROWS unchanged, so whatever fails is the map."""
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("floor", "cycle", "out")}
        with open(paths["floor"], "w") as f:
            f.write(floor)
        with open(paths["cycle"], "w") as f:
            f.write(CSV_HEADER + "\n" + "".join(",".join(row) + "\n" for row in ROWS))
        flags = ["--dwell"] if command == "place-chargers" and dwell else []
        run_main([command, *flags, "--out-dir", paths["out"], "--map", paths["floor"],
                  paths["cycle"]], paths["out"])


# one map node's and one truck's coordinates: overflowing differences,
# squares and sums. The truck's are the node's in the opposite order, so that
# the values drawn first put the two farthest apart.
NODE_COORDS = ["-1e308", "1e308", "-1e300", "1e300", "-1e154", "1e154", "0"]
TRUCK_COORDS = ["1e308", "-1e308", "1e300", "-1e300", "1e154", "-1e154", "0"]
NODE_LINES = [i for i, line in enumerate(FLOOR) if line.startswith("node ")]


@st.composite
def extreme_coordinates(draw):
    """(floor, rows): the demo floor with one node moved to a point drawn from
    NODE_COORDS, each edge at that node lengthened to its new chord where that is
    longer (as build_graph demands), and ROWS with each x and y of one truck
    drawn from TRUCK_COORDS."""
    lines = list(FLOOR)
    i = draw(st.sampled_from(NODE_LINES))
    parts = lines[i].split()
    parts[2], parts[3] = draw(st.sampled_from(NODE_COORDS)), draw(st.sampled_from(NODE_COORDS))
    lines[i] = " ".join(parts) + "\n"
    xy = {int(p[1]): (float(p[2]), float(p[3])) for p in map(str.split, lines)
          if p[0] == "node"}
    for j in EDGE_LINES:
        e = lines[j].split()
        (ax, ay), (bx, by) = xy[int(e[1])], xy[int(e[2])]
        e[3] = repr(max(float(e[3]), math.hypot(bx - ax, by - ay)))
        lines[j] = " ".join(e) + "\n"
    rows = [list(row) for row in ROWS]
    for row in rows[draw(st.integers(0, 1))::2]:  # ROWS is time-major, two trucks a time
        row[2], row[3] = draw(st.sampled_from(TRUCK_COORDS)), draw(st.sampled_from(TRUCK_COORDS))
    return "".join(lines), "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=extreme_coordinates(), dwell=st.booleans())
def test_extreme_coordinates_keep_the_exit_contract(case, dwell):
    """Every command that reads a map or a trajectory, on one map node and
    one truck far out. 1e306 m heatmap cells keep a grid over 1e308 m
    within MAX_CELLS, so the heatmap is drawn, not refused."""
    floor, rows = case
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("floor", "cycle")}
        with open(paths["floor"], "w") as f:
            f.write(floor)
        with open(paths["cycle"], "w") as f:
            f.write(CSV_HEADER + "\n" + rows)
        sets = ["--set", "placement.cell_size=1e306"]
        flags = {"simulate": ["--vehicles", "2", "--duration", "2"],
                 "place-chargers": ["--dwell"] if dwell else []}
        for command in ("simulate", "replay", "analyze-density", "place-chargers", "heatmap"):
            out = os.path.join(d, command)
            inputs = [] if command == "simulate" else [paths["cycle"]]
            run_main([command, *sets, *flags.get(command, []), "--out-dir", out,
                      "--map", paths["floor"], *inputs], out)


SPOT_LINES = [i for i, line in enumerate(FLOOR) if line.startswith("spot ")]
RECORD_LINES = {"node": NODE_LINES, "edge": EDGE_LINES, "spot": SPOT_LINES}
# EXTREMES, -1, and the first node id past the floor's
FIELD_VALUES = [*EXTREMES, "-1", str(len(NODE_LINES))]


@st.composite
def mutated_records(draw):
    """The demo floor's roadnet v1 text with one or two fields after the
    record kind, each of a node, edge or spot record, set to a value drawn
    from FIELD_VALUES."""
    lines = list(FLOOR)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.sampled_from(RECORD_LINES[draw(st.sampled_from(sorted(RECORD_LINES)))]))
        parts = lines[i].split()
        parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(FIELD_VALUES))
        lines[i] = " ".join(parts) + "\n"
    return "".join(lines)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(floor=mutated_records())
def test_mutated_records_keep_the_exit_contract(floor):
    """simulate, replay and heatmap on one mutated map each; the trajectory
    is ROWS unchanged, so whatever fails is the map. simulate starts a truck
    on every spot, so each spot record is read beyond its load."""
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("floor", "cycle")}
        with open(paths["floor"], "w") as f:
            f.write(floor)
        with open(paths["cycle"], "w") as f:
            f.write(CSV_HEADER + "\n" + "".join(",".join(row) + "\n" for row in ROWS))
        for command in ("simulate", "replay", "heatmap"):
            out = os.path.join(d, command)
            args = ["--vehicles", str(len(SPOT_LINES)), "--duration", "2"] \
                if command == "simulate" else [paths["cycle"]]
            run_main([command, "--out-dir", out, "--map", paths["floor"], *args], out)


SHAPES = ["header only", "one sample", "one sample per truck", "trucks out of t order",
          "extreme ids", "two trucks at one t far apart", "t decreasing"]
IDS = [0, 1, 7, -1, -2**63, 2**64, 2**64 + 1, 2**100]


@st.composite
def trajectory_shape(draw, shape):
    """The rows of a trajectory CSV of shape, one of SHAPES; sample times,
    truck ids and offsets are drawn."""
    ids = draw(st.lists(st.sampled_from(IDS[:3] if shape != "extreme ids" else IDS[3:]),
                        min_size=2, max_size=3, unique=True))
    t0 = draw(st.sampled_from([0.0, 1.5, -3.0, 1e6]))
    far = {}
    if shape == "header only":
        samples = []
    elif shape == "one sample":
        samples = [(t0, ids[0])]
    elif shape == "one sample per truck":
        samples = [(t0 + draw(st.sampled_from([0.0, 1.0])) * i, v) for i, v in enumerate(ids)]
    elif shape == "t decreasing":
        samples = [(t0 + 2 - k, ids[0]) for k in range(3)] + [(t0 + k, ids[1]) for k in range(3)]
    else:
        # truck-major rows: each truck's times increase, the file's do not
        samples = [(t0 + k, v) for v in draw(st.permutations(ids)) for k in range(3)]
        if shape == "two trucks at one t far apart":
            far = {ids[1]: draw(st.sampled_from([1e5, -1e7]))}
    return "".join(f"{t!r},{v},{10 + k + far.get(v, 0)!r},{10 - far.get(v, 0)!r},0,1,0,0,1\n"
                   for k, (t, v) in enumerate(samples))


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
def test_trajectory_shapes_keep_the_exit_contract(shape, data):
    """Empty, single-sample, unsorted and mixed-truck trajectories through
    every command that reads one: each exits 0 or refuses cleanly."""
    rows = data.draw(trajectory_shape(shape))
    for command, dwell in (("replay", False), ("analyze-density", False),
                           ("place-chargers", False), ("place-chargers", True),
                           ("heatmap", False), ("calibrate", False)):
        run_command(command, rows, "5000", ["--free", "c_rr"], dwell, [])
