"""The same (map, config, seed, dt) gives byte-identical output files, over
random floors, fleets, seeds and steps: simulate, then replay,
analyze-density and place-chargers on its trajectory, run twice through
cli.main and once more in a fresh interpreter under another PYTHONHASHSEED,
so no output leans on set or dict order of strings or on state a run
leaves behind in the process."""

import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from forkfleet import cli
from forkfleet.mapgen import warehouse_map
from forkfleet.roadnet import save_roadnet

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the commands of one run, every path relative to the run's directory, so the
# provenance lines name the same paths in every run
DOWNSTREAM = (("replay", "replay"), ("analyze-density", "density"),
              ("place-chargers", "chargers"))

# runs the argv lists given as repr() on its command line, each through cli.main
CHILD = ("import ast, sys\nfrom forkfleet import cli\n"
         "sys.exit(max(cli.main(argv) for argv in ast.literal_eval(sys.argv[1])))")


def chain(vehicles, seed, dt):
    common = ["--map", "map.txt", "--dt", repr(dt)]
    sim = ["simulate", *common, "--out-dir", "sim", "--vehicles", str(vehicles),
           "--seed", str(seed), "--duration", "30"]
    return [sim] + [[cmd, *common, "--out-dir", out, "sim/trajectory.csv"]
                    for cmd, out in DOWNSTREAM]


def outputs(run_dir):
    """{relative path: bytes} of every file in run_dir."""
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def run_in_process(run_dir, argvs):
    here = os.getcwd()
    os.chdir(run_dir)
    try:
        assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
    finally:
        os.chdir(here)


FLOORS = st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda nxy: st.tuples(st.just(nxy), st.integers(2, (nxy[1] + 1) * nxy[0])))


# Each example runs the four commands three times, one run in a fresh
# interpreter: about 0.5 s on a 2-core machine, of which the interpreter's
# start and import take about 0.1 s. Twelve examples keep the test near 5 s
# of Tier-1 and still reach every nx and ny, fleets of 1 to 8 and both steps.
@settings(max_examples=20, deadline=None)
@given(FLOORS, st.data(), st.integers(), st.sampled_from([0.1, 0.25]))
def test_the_same_bytes_in_every_run(tmp_path_factory, floor, data, seed, dt):
    (nx, ny), n_spots = floor
    vehicles = data.draw(st.integers(1, n_spots // 2), label="vehicles")
    argvs = chain(vehicles, seed, dt)
    runs = []
    for _ in range(3):
        run_dir = tmp_path_factory.mktemp("run")
        with open(run_dir / "map.txt", "w", encoding="utf-8") as f:
            save_roadnet(warehouse_map(nx, ny, n_spots), f)
        runs.append(run_dir)
    run_in_process(runs[0], argvs)
    run_in_process(runs[1], argvs)
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed,
           "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run([sys.executable, "-c", CHILD, repr(argvs)], cwd=runs[2], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    first = outputs(runs[0])
    # the map, simulate's three files, replay's two, density's two and placement's
    assert len(first) == 1 + 3 + 2 + 2 + 1 + len(cli._HEATMAP_FILES)
    assert outputs(runs[1]) == first
    assert outputs(runs[2]) == first
