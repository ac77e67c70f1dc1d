"""Command-line entry point.

Subcommands: simulate, replay, convert, analyze-density, place-chargers,
calibrate, heatmap. Exit codes: 0 success, 2 config/usage error, 3
input-data error, 4 infeasible analysis. Flag > config file > default.
Output files are written into temp files, simulate's and replay's tick
by tick, and renamed together once the command has succeeded; each starts
with one provenance comment line: tool version, seed, a digest of the
effective config and a digest of each input file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import logging
import math
import os
import sys
from dataclasses import replace

from . import (ConfigError, ForkfleetError, Infeasible, InputError, __version__,
               battery as bat, check_ranges, density as dens, odr_import, placement as plc,
               records)
from .config import ScenarioConfig, apply_setting, dump_battery_params, load_config
from .fleet_sim import World, replay
from .roadnet import load_roadnet, save_roadnet
from .trajectory import CSV_HEADER, read_csv, write_csv

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


def _write_atomic(paths, prov: str, render) -> None:
    """Write '# prov' into a temp file of its own in each path's directory,
    call render with those files open in paths' order, and once it has
    returned rename each onto its path. Concurrent writers never share a
    temp file, and on any exception every temp file is removed."""
    tmps = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                # "x" is O_EXCL: the file is this call's own, with open()'s mode
                tmp = f"{path}.{os.urandom(8).hex()}.tmp"
                files.append(stack.enter_context(open(tmp, "x", newline="")))
                tmps.append(tmp)
                files[-1].write(f"# {prov}\n")
            render(*files)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):  # renamed already
                os.unlink(tmp)
        raise


def _load_scenario(args) -> ScenarioConfig:
    config = getattr(args, "config", None)
    cfg = _read_input(config, load_config) if config else ScenarioConfig()
    for flag in ("map", "seed", "dt", "duration", "vehicles", "policy"):
        v = getattr(args, flag, None)
        if v is not None:
            cfg = apply_setting(cfg, flag, str(v))
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        k, _, v = kv.partition("=")
        cfg = apply_setting(cfg, k.strip(), v.strip())
    check_ranges(cfg)
    return cfg


def _read_input(path: str, parse):
    """parse(f) of the UTF-8 text file at path, or of its bytes through f.buffer:
    the one place an input file is opened. A leading byte-order mark is dropped
    from the text. Text that is not UTF-8 is an input error; a path that names
    no regular file, or one that cannot be read, is the caller's error."""
    if not path:
        raise CliError("missing required file path")
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}")
    if not os.path.isfile(path):
        raise CliError(f"not a regular file: {path}")
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse(f)
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, not the file's start
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_analysis_inputs(args):
    """Scenario, map, trajectory CSV and provenance line of a command that
    reads a trajectory, loaded in that order."""
    cfg = _load_scenario(args)
    graph = _read_input(cfg.map, load_roadnet)
    samples = _read_input(args.trajectory, read_csv)
    return cfg, graph, samples, _provenance([cfg.map, args.trajectory], cfg)


# --- subcommands -------------------------------------------------------------
# Each returns (provenance line, file names, render); main calls render with
# one open temp file per name. simulate steps its fleet, and replay regrids
# and integrates its vehicles, inside render. Renders look up write_csv and
# _render_summary at call time, where a tracer or test may have replaced them.

def cmd_simulate(args):
    cfg = _load_scenario(args)
    graph = _read_input(cfg.map, load_roadnet)
    world = World(graph, cfg.vehicles, dt=cfg.dt, seed=cfg.seed, kin=cfg.kin,
                  battery_params=cfg.battery, fork_mass=cfg.fork_mass,
                  pickup_mass=cfg.pickup_mass, lift_height=cfg.lift_height)
    spot = cfg.fixed_spot()
    if spot is not None and not 0 <= spot < len(graph.spots):
        raise ConfigError(f"policy '{cfg.policy}': the map has no spot {spot}")
    prov = _provenance([cfg.map], cfg)

    def render(trajectory, soc, summary):
        _render_run(world.ticks(cfg.duration, spot), trajectory, soc)
        _render_summary(world, summary, prov)
    return prov, ("trajectory.csv", "soc.csv", "summary.txt"), render


def _render_run(ticks, rows, soc):
    """The trajectory CSV and soc.csv of a run: ticks are lists of samples,
    each list's samples sharing one t, whose text is formatted once."""
    rows.write(CSV_HEADER + "\n")
    soc.write("t,vehicle_id,soc\n")
    for tick in ticks:
        write_csv(tick, rows, header=False)
        if tick:
            t = "%.12g," % tick[0].t
            soc.write("".join([t + "%s,%.12g\n" % (s.vehicle_id, s.soc) for s in tick]))


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
    # the map is loaded, so a bad one is refused, and named in prov, but not read
    cfg, _, samples, prov = _load_analysis_inputs(args)
    ticks = replay(samples, dt=cfg.dt, fork_mass=cfg.fork_mass, params=cfg.battery)
    return prov, ("replay.csv", "soc.csv"), lambda replayed, soc: _render_run(ticks, replayed, soc)


def cmd_convert(args):
    # each importer warning as one labelled stderr line, before any error line
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    odr_import.log.addHandler(warnings)
    try:
        # the bytes, so the XML parser decodes them as the document declares
        roads = _read_input(args.input,
                            lambda f: odr_import.parse_opendrive_subset(f.buffer.read()))
        graph = odr_import.to_road_graph(roads, args.spacing)
    finally:
        odr_import.log.removeHandler(warnings)
    return _provenance([args.input]), (args.out,), lambda f: save_roadnet(graph, f)


def cmd_analyze_density(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    reports, episodes = dens.density_timeline(samples, graph, cfg.density)

    def render(density, summary):
        dens.write_report_csv(reports, density)
        dens.write_episode_summary(episodes, summary)
    return prov, ("density.csv", "episodes.txt"), render


def cmd_place_chargers(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    pcfg = cfg.placement
    weights = plc.visit_weights(samples, graph, dwell_weighting=args.dwell)
    grid = plc.heatmap_for_graph(samples, graph, cell_size=pcfg.cell_size)
    # the last reference: the samples are freed before placement builds its
    # rows; every input it could refuse has been refused by now
    del samples
    result = plc.place_chargers(graph, weights, pcfg.k, pcfg.min_separation, pcfg.d_scale)

    def render(placement, *heatmap):
        plc.write_placement_csv(result, graph, placement)
        _render_heatmap(grid, *heatmap)
    return prov, ("placement.csv", *_HEATMAP_FILES), render


def cmd_heatmap(args):
    cfg, graph, samples, prov = _load_analysis_inputs(args)
    grid = plc.heatmap_for_graph(samples, graph, cell_size=cfg.placement.cell_size)
    return prov, _HEATMAP_FILES, lambda *heatmap: _render_heatmap(grid, *heatmap)


_HEATMAP_FILES = ("heatmap.txt", "heatmap_cells.csv")


def _render_heatmap(grid, text, cells):
    plc.write_heatmap(grid, text)
    plc.write_heatmap_nonzero_csv(grid, cells)


def cmd_calibrate(args):
    cfg = _load_scenario(args)
    cycles = []
    cycle_paths = []
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    for lineno, line in _read_input(args.manifest, lambda f: list(records(f))):
        parts = line.rsplit(",", 1)
        if len(parts) != 2:
            raise InputError(f"manifest line {lineno}: expected 'path,measured_joules'")
        path = parts[0].strip()
        if not os.path.isabs(path):
            path = os.path.join(manifest_dir, path)
        samples = _read_input(path, read_csv)
        cycle_paths.append(path)
        try:
            measured = float(parts[1])
        except ValueError:
            measured = math.nan
        if not math.isfinite(measured):
            raise InputError(f"manifest line {lineno}: bad energy value {parts[1]!r}")
        cycles.append((samples, measured))
    free = [s.strip() for s in args.free.split(",") if s.strip()] if args.free else []
    result = bat.calibrate(cycles, cfg.battery, free, fork_mass=cfg.fork_mass)

    def render(fitted, residuals):
        dump_battery_params(result.params, fitted)
        _render_residuals(result, residuals)
    prov = _provenance([args.manifest, *cycle_paths], cfg)
    return prov, ("fitted_params.cfg", "residuals.txt"), render


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
    out_dir = getattr(args, "out_dir", "")  # convert's one file is its --out path
    try:
        prov, names, render = args.func(args)
        paths = [os.path.join(out_dir, name) for name in names]
        try:
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
            _write_atomic(paths, prov, render)
        except OSError as exc:
            raise CliError(f"cannot write {out_dir or paths[0]}: {exc.strerror or exc}")
    except ForkfleetError as exc:  # its class carries the exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
