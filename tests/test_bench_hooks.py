"""The benchmark's tracer (perfbench/tracer.py) times the package from
outside: it replaces public functions at the attributes their callers look
up and counts work from their arguments and results. A traced simulate and
replay on the demo floor must still run, write the untraced bytes and reach
every layer those commands use, so that a change which moves one of these
hooks fails here and not only in a benchmark run."""

import importlib.util
import pathlib

from forkfleet import cli, mapgen, trajectory
from forkfleet.fleet_sim import World
from forkfleet.roadnet import save_roadnet

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# layers the tracer names whose functions the package no longer has
GONE = {"forkfleet.fleet_sim.sample_at", "forkfleet.battery.segment_energy",
        "forkfleet.density.sample_at", "World.run", "forkfleet.placement.nearest_node",
        "forkfleet.density.dijkstra", "forkfleet.battery.integrate_trajectory"}
VEHICLES, STEPS = 4, 200


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(tmp_path, tag):
    out = tmp_path / tag
    sim = ["simulate", "--map", str(tmp_path / "floor.roadnet"), "--out-dir", str(out / "sim"),
           "--vehicles", str(VEHICLES), "--duration", str(STEPS // 10), "--seed", "3"]
    rep = ["replay", "--map", str(tmp_path / "floor.roadnet"), "--out-dir", str(out / "rep"),
           str(out / "sim" / "trajectory.csv")]
    return out, sim, rep


def bodies(out):
    """{relative path: bytes after the provenance line} of every file in out."""
    return {str(p.relative_to(out)): p.read_bytes().split(b"\n", 1)[1]
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_traced_simulate_and_replay(tmp_path):
    with open(tmp_path / "floor.roadnet", "w") as f:
        save_roadnet(mapgen.warehouse_map(), f)
    out, sim, rep = commands(tmp_path, "plain")
    assert cli.main(sim) == 0 and cli.main(rep) == 0

    tracer = load_tracer()
    tr = tracer.Tracer()
    assert set(tr.missing) <= GONE, tr.missing
    traced_out, sim, rep = commands(tmp_path, "traced")
    tr.install()
    try:
        codes = [tr.command("simulate", sim), tr.command("replay", rep)]
    finally:
        tr.uninstall()
    assert codes == [0, 0]
    assert bodies(traced_out) == bodies(out)
    # uninstall puts every original back
    assert cli.write_csv is trajectory.write_csv
    assert World.step.__qualname__ == "World.step"

    layers, by_command = tr.aggregate()
    rows = VEHICLES * (STEPS + 1)
    assert tr.counters["fleet_sim.vehicle_steps"] == VEHICLES * STEPS
    assert tr.counters["trajectory.write_csv.rows"] == 2 * rows  # simulate's ticks, replay
    assert tr.counters["trajectory.read_csv.rows"] == rows
    assert layers["fleet_sim.step"]["calls"] == STEPS
    assert layers["fleet_sim.resolve_conflicts"]["calls"] == STEPS
    for name in ("roadnet.load_roadnet", "roadnet.astar", "roadnet.nearest_node",
                 "fleet_sim.replay"):
        assert layers[name]["calls"] >= 1, name
    assert set(by_command) == {"cli.simulate", "cli.replay"}
