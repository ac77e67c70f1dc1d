"""Command-line entry point.

Subcommands: simulate, replay, convert, analyze-density, place-chargers,
calibrate, heatmap. Exit codes: 0 success, 2 config/usage error, 3
input-data error, 4 infeasible analysis. Flag > config file > default.
Output files are written atomically (temp + rename) and carry a provenance
header comment with tool version, seed and input digests.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import sys
import tempfile

from . import __version__, battery as bat, density as dens, odr_import, placement as plc
from .config import (ConfigError, ScenarioConfig, apply_setting, dump_battery_params,
                     load_config)
from .fleet_sim import NoFreeSpot, UnreachableDestination, World, replay
from .roadnet import FormatError, RoadNetError, load_roadnet, save_roadnet
from .trajectory import SchemaError, UnsortedSamples, read_csv, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def _provenance(seed, inputs) -> str:
    digests = " ".join(f"{os.path.basename(p)}:sha256:{_digest(p)}" for p in inputs)
    return f"forkfleet {__version__} seed={seed} inputs={digests}".rstrip()


def _write_atomic(path: str, render) -> None:
    """Render into a temp file of its own in path's directory, then rename it
    onto path. Concurrent writers never share a temp file, and a failed
    write removes its temp file."""
    buf = io.StringIO()
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
        raise CliError("missing required file path", EXIT_CONFIG)
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}", EXIT_CONFIG)


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
    return cfg, graph, samples, _provenance(cfg.seed, [cfg.map, args.trajectory])


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


# --- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
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
    prov = _provenance(cfg.seed, [cfg.map])
    _write_atomic(_out(args, "trajectory.csv"),
                  lambda f: write_csv(samples, f, header_comment=prov))
    _write_atomic(_out(args, "soc.csv"), lambda f: _render_soc(samples, f, prov))
    _write_atomic(_out(args, "summary.txt"), lambda f: _render_summary(world, f, prov))
    return EXIT_OK


def _render_soc(samples, f, prov):
    f.write(f"# {prov}\n")
    f.write("t,vehicle_id,soc\n")
    for s in samples:
        f.write(f"{s.t:.12g},{s.vehicle_id},{s.soc:.12g}\n")


def _render_summary(world, f, prov):
    f.write(f"# {prov}\n")
    for row in world.summary():
        f.write(
            "vehicle {vehicle_id}: distance={distance_driven:.3f}m "
            "tasks={tasks_completed} drawn={energy_drawn:.1f}J "
            "regen={energy_regenerated:.1f}J soc={final_soc:.6f} band={soc_band}\n"
            .format(**row))


def cmd_replay(args) -> int:
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    consts = bat.VehicleConstants(fork_mass=cfg.fork_mass)
    out = replay(samples, graph, dt=cfg.dt, consts=consts, params=cfg.battery)
    _write_atomic(_out(args, "replay.csv"),
                  lambda f: write_csv(out, f, header_comment=prov))
    _write_atomic(_out(args, "soc.csv"), lambda f: _render_soc(out, f, prov))
    return EXIT_OK


def cmd_convert(args) -> int:
    if not 0.0 < args.spacing < math.inf:
        raise ConfigError(f"--spacing must be finite and > 0, got {args.spacing}")
    _require_file(args.input)
    with open(args.input) as f:
        text = f.read()
    desc = odr_import.parse_opendrive_subset(text)
    graph = odr_import.to_road_graph(desc, args.spacing)
    prov = _provenance(0, [args.input])
    _write_atomic(args.out, lambda f: save_roadnet(graph, f, header_comment=prov))
    return EXIT_OK


def cmd_analyze_density(args) -> int:
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    reports, episodes = dens.density_timeline(samples, graph, cfg.density)
    _write_atomic(_out(args, "density.csv"),
                  lambda f: dens.write_report_csv(reports, f, header_comment=prov))
    _write_atomic(_out(args, "episodes.txt"),
                  lambda f: (f.write(f"# {prov}\n"), dens.write_episode_summary(episodes, f)))
    return EXIT_OK


def cmd_place_chargers(args) -> int:
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    pcfg = cfg.placement
    weights = plc.visit_weights(samples, graph, dwell_weighting=args.dwell)
    result = plc.place_chargers(graph, weights, pcfg.k, pcfg.min_separation, pcfg.d_scale)
    grid = plc.heatmap_for_graph(samples, graph, cell_size=pcfg.cell_size)
    _write_atomic(_out(args, "placement.csv"),
                  lambda f: plc.write_placement_csv(result, graph, f, header_comment=prov))
    _write_heatmap(args, grid, prov)
    return EXIT_OK


def cmd_heatmap(args) -> int:
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    grid = plc.heatmap_for_graph(samples, graph, cell_size=cfg.placement.cell_size)
    _write_heatmap(args, grid, prov)
    return EXIT_OK


def _write_heatmap(args, grid, prov):
    _write_atomic(_out(args, "heatmap.txt"),
                  lambda f: plc.write_heatmap(grid, f, header_comment=prov))
    _write_atomic(_out(args, "heatmap_cells.csv"),
                  lambda f: plc.write_heatmap_nonzero_csv(grid, f))


def cmd_calibrate(args) -> int:
    cfg = _load_scenario(args)
    _require_file(args.manifest)
    cycles = []
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
    prov = _provenance(cfg.seed, [args.manifest])
    _write_atomic(_out(args, "fitted_params.cfg"),
                  lambda f: dump_battery_params(result.params, f, header_comment=prov))
    _write_atomic(_out(args, "residuals.txt"), lambda f: _render_residuals(result, f, prov))
    return EXIT_OK


def _render_residuals(result, f, prov):
    f.write(f"# {prov}\n")
    f.write(f"objective = {result.objective:.12g}\n")
    f.write(f"sweeps = {result.sweeps}\n")
    f.write(f"converged = {result.converged}\n")
    for i, r in enumerate(result.residuals):
        f.write(f"cycle {i}: residual = {r:.12g} J\n")


# --- argument wiring ---------------------------------------------------------

def _common(p, with_map=True):
    p.add_argument("--config", help="scenario config file (key = value lines)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    if with_map:
        p.add_argument("--map", help="roadnet v1 map file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")


def build_parser():
    ap = argparse.ArgumentParser(prog="forkfleet", description=__doc__)
    ap.add_argument("--version", action="version", version=f"forkfleet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a fleet scenario and record trajectories")
    _common(p)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--vehicles", type=int, default=None)
    p.add_argument("--policy", default=None, help="random | fixed:<spot_id>")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="replay a trajectory CSV and recompute SOC")
    _common(p)
    p.add_argument("trajectory")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("convert", help="convert an OpenDRIVE subset file to roadnet v1")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--spacing", type=float, default=2.0)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("analyze-density", help="cluster vehicles by network distance over time")
    _common(p)
    p.add_argument("trajectory")
    p.set_defaults(func=cmd_analyze_density)

    p = sub.add_parser("place-chargers", help="compute charging station positions")
    _common(p)
    p.add_argument("trajectory")
    p.add_argument("--dwell", action="store_true", help="weight nodes by dwell time")
    p.set_defaults(func=cmd_place_chargers)

    p = sub.add_parser("heatmap", help="occupancy heatmap from a trajectory CSV")
    _common(p)
    p.add_argument("trajectory")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("calibrate", help="fit battery parameters to measured cycles")
    _common(p, with_map=False)
    p.add_argument("manifest", help="CSV manifest: trajectory_path,measured_joules")
    p.add_argument("--free", default="", help="comma-separated free parameter names")
    p.set_defaults(func=cmd_calibrate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigError, NoFreeSpot) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, UnsortedSamples, FormatError, odr_import.OdrError,
            RoadNetError, bat.NonphysicalSegment) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (plc.InfeasibleSeparation, dens.EmptyFleet, bat.Underdetermined,
            UnreachableDestination) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
