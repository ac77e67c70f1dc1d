"""The benchmark's workloads: how each builds its inputs from the seed, the
CLI commands it times, and the checks on what those commands write.

The program only ever sees the generated map, config and CSV files; the
seed reaches it as the scenario seed in the config.
"""

from __future__ import annotations

import hashlib
import os
import shutil

from forkfleet import cli, mapgen, roadnet, trajectory
from forkfleet.battery import BatteryParams

# The L map: 16 x 12 blocks, 761 nodes, 128 parking spots.
L_MAP = {"nx": 16, "ny": 12, "n_spots": 128}
# The README demo floor: 59 nodes, 8 spots, 80 x 60 m.
DEMO_MAP = {}

# Scenario sizes. A workload's "vehicle steps" are vehicles x duration / dt of
# its scenario, the input size behind vehicle_steps_per_s.
SCENARIOS = {
    # 64 forklifts on the L map: the O(N^2) pair loop in resolve_conflicts and
    # the per-vehicle step bookkeeping dominate simulate.
    "fleet_dense": {"map": L_MAP, "vehicles": 64, "duration": 60.0, "dt": 0.1},
    # The same scenario, simulated once in set-up and kept at every
    # sample_every-th step (2 Hz); 64 vehicles give critical episodes (32 give
    # none), so episode stitching does work. Density snapshots every 2 s.
    "network_analysis": {"map": L_MAP, "vehicles": 64, "duration": 60.0, "dt": 0.1,
                         "sample_every": 5, "config": {"density.snapshot_interval": 2.0}},
    # Demo floor, 4 forklifts: 6 pairs per step, so conflict checks are cheap
    # and the battery kernel and CSV reads dominate. The calibration cycles are
    # the first cycle_duration seconds of the same scenario, one file per
    # vehicle, and calibration starts from c_rr = calib_start.
    "demo_energy": {"map": DEMO_MAP, "vehicles": 4, "duration": 300.0, "dt": 0.1,
                    "cycle_duration": 60.0, "calib_start": 0.05},
}

def vehicle_steps(p):
    return p["vehicles"] * int(round(p["duration"] / p["dt"]))


# --- set-up -----------------------------------------------------------------

def _write_map(p, d):
    path = os.path.join(d, "map.roadnet")
    with open(path, "w") as f:
        roadnet.save_roadnet(mapgen.warehouse_map(**p["map"]), f)
    return path


def _write_config(p, seed, d):
    path = os.path.join(d, "scenario.cfg")
    with open(path, "w") as f:
        f.write(f"seed = {seed}\nvehicles = {p['vehicles']}\n"
                f"duration = {p['duration']!r}\ndt = {p['dt']!r}\npolicy = random\n")
        for key, value in p.get("config", {}).items():
            f.write(f"{key} = {value!r}\n")
    return path


def _run(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit {rc}: {' '.join(argv)}")


def setup(name, p, seed, d):
    """Write the workload's inputs for `seed` into directory d."""
    os.makedirs(d, exist_ok=True)
    map_path = _write_map(p, d)
    cfg = _write_config(p, seed, d)
    if name == "network_analysis":
        tmp = os.path.join(d, "sim")
        _run(["simulate", "--config", cfg, "--map", map_path, "--out-dir", tmp])
        samples = _read_samples(os.path.join(tmp, "trajectory.csv"))
        every = p["sample_every"]
        with open(os.path.join(d, "trajectory.csv"), "w") as f:
            trajectory.write_csv([s for s in samples if round(s.t / p["dt"]) % every == 0], f)
        shutil.rmtree(tmp)
    elif name == "demo_energy":
        _write_cycles(p, seed, d, map_path)


def _write_cycles(p, seed, d, map_path):
    """Per-vehicle cycle CSVs and the calibrate manifest. A cycle's measured
    energy is (first soc - last soc) x capacity, read from its CSV."""
    tmp = os.path.join(d, "cycles_sim")
    _run(["simulate", "--map", map_path, "--vehicles", str(p["vehicles"]),
          "--seed", str(seed), "--duration", repr(p["cycle_duration"]),
          "--dt", repr(p["dt"]), "--out-dir", tmp])
    per_vehicle = trajectory.split_by_vehicle(_read_samples(os.path.join(tmp, "trajectory.csv")))
    capacity = BatteryParams().capacity
    lines = []
    for vid in sorted(per_vehicle):
        fname = f"cycle_{vid}.csv"
        with open(os.path.join(d, fname), "w") as f:
            trajectory.write_csv(per_vehicle[vid], f)
        series = _read_samples(os.path.join(d, fname))
        lines.append(f"{fname},{(series[0].soc - series[-1].soc) * capacity!r}\n")
    with open(os.path.join(d, "manifest.csv"), "w") as f:
        f.writelines(lines)
    shutil.rmtree(tmp)


# --- timed commands ---------------------------------------------------------

def commands(name, p, inputs, out):
    """-> [(command, argv, out_dir)] in pipeline order."""
    m = os.path.join(inputs, "map.roadnet")
    cfg = os.path.join(inputs, "scenario.cfg")

    def cmd(command, *rest):
        od = os.path.join(out, command)
        return command, [command, "--config", cfg, "--out-dir", od, *rest], od

    if name == "fleet_dense":
        return [cmd("simulate", "--map", m)]
    if name == "network_analysis":
        traj = os.path.join(inputs, "trajectory.csv")
        return [cmd("analyze-density", "--map", m, traj),
                cmd("place-chargers", "--map", m, traj)]
    if name == "demo_energy":
        return [cmd("simulate", "--map", m),
                cmd("replay", "--map", m, os.path.join(out, "simulate", "trajectory.csv")),
                cmd("calibrate", "--free", "c_rr", "--set", f"battery.c_rr={p['calib_start']!r}",
                    os.path.join(inputs, "manifest.csv"))]
    raise KeyError(name)


# --- output checks ----------------------------------------------------------

def body_digest(path):
    """SHA-256 of a file with its '#' provenance lines removed."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for line in f:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def digests(out_dir):
    """{file name: body digest} for every file a command wrote."""
    if not os.path.isdir(out_dir):
        return {}
    return {n: body_digest(os.path.join(out_dir, n)) for n in sorted(os.listdir(out_dir))}


def _rows(path):
    with open(path) as f:
        return [ln.rstrip("\n") for ln in f if not ln.startswith("#")][1:]


def _read_samples(path):
    with open(path) as f:
        return trajectory.read_csv(f)


def check(command, p, out_dir, inputs):
    """Seed-independent checks of one command's outputs -> list of problems."""
    try:
        return _check(command, p, out_dir, inputs)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]


def _check(command, p, out_dir, inputs):
    problems = []
    path = lambda n: os.path.join(out_dir, n)  # noqa: E731
    if command == "simulate":
        expect = p["vehicles"] * (int(round(p["duration"] / p["dt"])) + 1)
        n_traj = len(_rows(path("trajectory.csv")))
        n_soc = len(_rows(path("soc.csv")))
        if n_traj != expect or n_soc != expect:
            problems.append(f"simulate: {n_traj} trajectory / {n_soc} soc rows, expected {expect}")
        with open(path("summary.txt")) as f:
            n_sum = sum(1 for ln in f if ln.startswith("vehicle "))
        if n_sum != p["vehicles"]:
            problems.append(f"simulate: {n_sum} summary lines for {p['vehicles']} vehicles")
    elif command == "replay":
        # Replay re-grids at the simulation's own dt, so every sample lands
        # on a recorded one and the recomputed SOC matches the simulated SOC
        # up to the CSV's 12 significant digits.
        sim = _read_samples(os.path.join(os.path.dirname(out_dir), "simulate", "trajectory.csv"))
        rep = _read_samples(path("replay.csv"))
        if len(rep) != len(sim):
            problems.append(f"replay: {len(rep)} rows for {len(sim)} input samples")
        else:
            worst = max(abs(a.soc - b.soc) for a, b in zip(sim, rep))
            if worst > 1e-9:
                problems.append(f"replay: SOC differs from the simulated SOC by {worst:.3g}")
    elif command == "analyze-density":
        ticks = {ln.split(",", 1)[0] for ln in _rows(path("density.csv"))}
        interval = p.get("config", {}).get("density.snapshot_interval", 1.0)
        expect = int(round(p["duration"] / interval)) + 1
        if len(ticks) != expect:
            problems.append(f"analyze-density: {len(ticks)} ticks, expected {expect}")
        with open(path("episodes.txt")) as f:
            head = [ln for ln in f if not ln.startswith("#")][0]
        if not head.startswith("critical episodes: "):
            problems.append("analyze-density: episodes.txt has no count line")
    elif command == "place-chargers":
        n_samples = len(_rows(os.path.join(inputs, "trajectory.csv")))
        with open(path("heatmap.txt")) as f:
            rows = [ln for ln in f if not ln.startswith("#")][1:]
        total = sum(int(c) for ln in rows for c in ln.split())
        if total != n_samples:
            problems.append(f"place-chargers: heatmap counts {total} of {n_samples} samples")
        if not 1 <= len(_rows(path("placement.csv"))) <= 5:
            problems.append("place-chargers: placement.csv does not hold 1 to 5 stations")
    elif command == "calibrate":
        # The cycles were simulated with the default c_rr, and c_rr is the
        # only free parameter, so the fit must recover it.
        with open(path("fitted_params.cfg")) as f:
            fitted = dict(ln.split(" = ") for ln in f if not ln.startswith("#"))
        c_rr = float(fitted["battery.c_rr"])
        truth = BatteryParams().c_rr
        if abs(c_rr - truth) > 1e-6 * truth:
            problems.append(f"calibrate: fitted c_rr {c_rr!r}, expected {truth!r}")
    return problems
