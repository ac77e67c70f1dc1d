"""Command-line entry point.

Subcommands: simulate, replay, convert, analyze-density, place-chargers,
calibrate, heatmap. Exit codes: 0 success, 2 config/usage error, 3
input-data error, 4 infeasible analysis. Flag > config file > default.
Output files are written atomically (temp + rename), and each starts with
one provenance comment line: tool version, seed, a digest of the effective
config and a digest of each input file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import sys
import tempfile
from dataclasses import replace

from . import (ConfigError, ForkfleetError, Infeasible, InputError, __version__,
               battery as bat, density as dens, odr_import, placement as plc)
from .config import ScenarioConfig, apply_setting, dump_battery_params, load_config
from .fleet_sim import World, replay
from .roadnet import load_roadnet, save_roadnet
from .trajectory import SchemaError, read_csv, write_csv

EXIT_OK = 0
EXIT_CONFIG, EXIT_INPUT, EXIT_INFEASIBLE = ConfigError.code, InputError.code, Infeasible.code


class CliError(ConfigError):
    label = "error"


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def _provenance(inputs, cfg=None) -> str:
    """The provenance line of a command's files. cfg is the resolved scenario;
    its digest leaves out the map path, which the input digests cover.
    convert runs no scenario: seed 0 and no config digest."""
    head = f"forkfleet {__version__} seed=0"
    if cfg is not None:
        config = hashlib.sha256(repr(replace(cfg, map="")).encode()).hexdigest()[:12]
        head = f"forkfleet {__version__} seed={cfg.seed} config=sha256:{config}"
    digests = " ".join(f"{os.path.basename(p)}:sha256:{_digest(p)}" for p in inputs)
    return f"{head} inputs={digests}"


def _write_atomic(path: str, prov: str, render) -> None:
    """Write '# prov', then render's text, into a temp file of its own in
    path's directory, then rename it onto path. Concurrent writers never
    share a temp file, and a failed write removes its temp file."""
    buf = io.StringIO()
    buf.write(f"# {prov}\n")
    render(buf)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with open(fd, "w", newline="") as f:
            f.write(buf.getvalue())
        # mkstemp creates the file private (0600); give it open()'s mode
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_scenario(args) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if getattr(args, "config", None):
        _require_file(args.config)
        with open(args.config) as f:
            cfg = load_config(f, cfg)
    for flag in ("map", "seed", "dt", "duration", "vehicles", "policy"):
        v = getattr(args, flag, None)
        if v is not None:
            cfg = apply_setting(cfg, flag, str(v))
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        k, _, v = kv.partition("=")
        cfg = apply_setting(cfg, k.strip(), v.strip())
    cfg.validate()
    return cfg


def _require_file(path: str):
    if not path:
        raise CliError("missing required file path")
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}")
    if not os.path.isfile(path):
        raise CliError(f"not a regular file: {path}")


def _load_map(path):
    _require_file(path)
    with open(path) as f:
        return load_roadnet(f)


def _read_trajectory(path):
    _require_file(path)
    with open(path) as f:
        return read_csv(f)


def _load_analysis_inputs(args):
    """Scenario, map, trajectory CSV and provenance line of a command that
    reads a trajectory, loaded in that order."""
    cfg = _load_scenario(args)
    graph = _load_map(cfg.map)
    samples = _read_trajectory(args.trajectory)
    return cfg, graph, samples, _provenance([cfg.map, args.trajectory], cfg)


# --- subcommands -------------------------------------------------------------
# Each returns (provenance line, {file name: render(f)}) in write order; main
# writes the files once every computation has succeeded. Renders look up
# write_csv and _render_summary at call time, where a tracer or test may
# have replaced them.

def cmd_simulate(args):
    cfg = _load_scenario(args)
    graph = _load_map(cfg.map)
    world = World.spawn_at_spots(
        graph, cfg.vehicles, dt=cfg.dt, seed=cfg.seed, kin=cfg.kin,
        battery_params=cfg.battery, fork_mass=cfg.fork_mass,
        pickup_mass=cfg.pickup_mass, lift_height=cfg.lift_height)
    policy = cfg.policy_tuple()
    if policy[0] == "fixed" and all(s.id != policy[1] for s in graph.spots):
        raise ConfigError(f"policy '{cfg.policy}': the map has no spot {policy[1]}")
    samples = world.run(cfg.duration, policy=policy)
    prov = _provenance([cfg.map], cfg)
    return prov, {"trajectory.csv": lambda f: write_csv(samples, f),
                  "soc.csv": lambda f: _render_soc(samples, f),
                  "summary.txt": lambda f: _render_summary(world, f, prov)}


def _render_soc(samples, f):
    w = f.write
    w("t,vehicle_id,soc\n")
    for s in samples:
        w("%.12g,%s,%.12g\n" % (s.t, s.vehicle_id, s.soc))


def _render_summary(world, f, prov):
    # prov is unused (_write_atomic writes it); the benchmark's self-test
    # replaces this function by one with this signature
    for row in world.summary():
        f.write(
            "vehicle {vehicle_id}: distance={distance_driven:.3f}m "
            "tasks={tasks_completed} drawn={energy_drawn:.1f}J "
            "regen={energy_regenerated:.1f}J soc={final_soc:.6f} band={soc_band}\n"
            .format(**row))


def cmd_replay(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    consts = bat.VehicleConstants(fork_mass=cfg.fork_mass)
    out = replay(samples, graph, dt=cfg.dt, consts=consts, params=cfg.battery)
    return prov, {"replay.csv": lambda f: write_csv(out, f),
                  "soc.csv": lambda f: _render_soc(out, f)}


def cmd_convert(args):
    _require_file(args.input)
    with open(args.input) as f:
        text = f.read()
    desc = odr_import.parse_opendrive_subset(text)
    graph = odr_import.to_road_graph(desc, args.spacing)
    return _provenance([args.input]), {args.out: lambda f: save_roadnet(graph, f)}


def cmd_analyze_density(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    reports, episodes = dens.density_timeline(samples, graph, cfg.density)
    return prov, {"density.csv": lambda f: dens.write_report_csv(reports, f),
                  "episodes.txt": lambda f: dens.write_episode_summary(episodes, f)}


def cmd_place_chargers(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    pcfg = cfg.placement
    weights = plc.visit_weights(samples, graph, dwell_weighting=args.dwell)
    result = plc.place_chargers(graph, weights, pcfg.k, pcfg.min_separation, pcfg.d_scale)
    grid = plc.heatmap_for_graph(samples, graph, cell_size=pcfg.cell_size)
    return prov, {"placement.csv": lambda f: plc.write_placement_csv(result, graph, f),
                  **_heatmap_files(grid)}


def cmd_heatmap(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    grid = plc.heatmap_for_graph(samples, graph, cell_size=cfg.placement.cell_size)
    return prov, _heatmap_files(grid)


def _heatmap_files(grid):
    return {"heatmap.txt": lambda f: plc.write_heatmap(grid, f),
            "heatmap_cells.csv": lambda f: plc.write_heatmap_nonzero_csv(grid, f)}


def cmd_calibrate(args):
    cfg = _load_scenario(args)
    _require_file(args.manifest)
    cycles = []
    cycle_paths = []
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    with open(args.manifest) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(",", 1)
            if len(parts) != 2:
                raise SchemaError(f"manifest line {lineno}: expected 'path,measured_joules'")
            path = parts[0].strip()
            if not os.path.isabs(path):
                path = os.path.join(manifest_dir, path)
            samples = _read_trajectory(path)
            cycle_paths.append(path)
            try:
                measured = float(parts[1])
            except ValueError:
                measured = math.nan
            if not math.isfinite(measured):
                raise SchemaError(f"manifest line {lineno}: bad energy value {parts[1]!r}")
            cycles.append((samples, measured))
    free = [s.strip() for s in args.free.split(",") if s.strip()] if args.free else []
    consts = bat.VehicleConstants(fork_mass=cfg.fork_mass)
    result = bat.calibrate(cycles, cfg.battery, free, consts=consts)
    return _provenance([args.manifest, *cycle_paths], cfg), {
        "fitted_params.cfg": lambda f: dump_battery_params(result.params, f),
        "residuals.txt": lambda f: _render_residuals(result, f)}


def _render_residuals(result, f):
    f.write(f"objective = {result.objective:.12g}\n")
    f.write(f"sweeps = {result.sweeps}\n")
    f.write(f"converged = {result.converged}\n")
    for i, r in enumerate(result.residuals):
        f.write(f"cycle {i}: residual = {r:.12g} J\n")


# --- argument wiring ---------------------------------------------------------

def _arg(*names, **kwargs):
    return names, kwargs


# The flags of every command but convert; --map where the command loads a map.
_SHARED = (_arg("--config", help="scenario config file (key = value lines)"),
           _arg("--out-dir", default=".", help="output directory"),
           _arg("--seed", type=int),
           _arg("--dt", type=float),
           _arg("--set", action="append", metavar="KEY=VALUE",
                help="override any config key (repeatable)"))
_MAP = _arg("--map", help="roadnet v1 map file")
_TRAJECTORY = _arg("trajectory")

# (name, help, function, arguments)
_COMMANDS = (
    ("simulate", "run a fleet scenario and record trajectories", cmd_simulate,
     (*_SHARED, _MAP, _arg("--duration", type=float), _arg("--vehicles", type=int),
      _arg("--policy", help="random | fixed:<spot_id>"))),
    ("replay", "replay a trajectory CSV and recompute SOC", cmd_replay,
     (*_SHARED, _MAP, _TRAJECTORY)),
    ("convert", "convert an OpenDRIVE subset file to roadnet v1", cmd_convert,
     (_arg("input"), _arg("--out", required=True), _arg("--spacing", type=float, default=2.0))),
    ("analyze-density", "cluster vehicles by network distance over time", cmd_analyze_density,
     (*_SHARED, _MAP, _TRAJECTORY)),
    ("place-chargers", "compute charging station positions", cmd_place_chargers,
     (*_SHARED, _MAP, _TRAJECTORY,
      _arg("--dwell", action="store_true", help="weight nodes by dwell time"))),
    ("heatmap", "occupancy heatmap from a trajectory CSV", cmd_heatmap,
     (*_SHARED, _MAP, _TRAJECTORY)),
    ("calibrate", "fit battery parameters to measured cycles", cmd_calibrate,
     (*_SHARED, _arg("manifest", help="CSV manifest: trajectory_path,measured_joules"),
      _arg("--free", default="", help="comma-separated free parameter names"))),
)


def build_parser():
    ap = argparse.ArgumentParser(prog="forkfleet", description=__doc__)
    ap.add_argument("--version", action="version", version=f"forkfleet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        prov, files = args.func(args)
    except ForkfleetError as exc:  # its class carries the exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.code
    out_dir = getattr(args, "out_dir", "")  # convert's one file is its --out path
    path = out_dir
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for name, render in files.items():
            path = os.path.join(out_dir, name)
            _write_atomic(path, prov, render)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
