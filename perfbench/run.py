"""forkfleet's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed in separate set-up processes,
then runs its CLI commands in one fresh measuring process (a closed loop
with one client: each command starts when the previous one has finished)
for S seconds, and checks every output. Prints a report, then as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones from a traced pass, beside untraced passes that give the overhead.

A fixed reference task (perfbench/reference.py) runs before and after every
set-up process and every timed command; each is reported at the speed at
which that task takes reference.REF_S seconds, so that the drift of a shared
host's speed over minutes does not read as a change of the program. The
times as measured are printed beside them.

Workloads, the layers each loads and bypasses, and which end-to-end metric
each layer metric should move, are in perfbench/design.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fleet_dense", "network_analysis", "demo_energy")
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S seconds
# have gone by, so that a set-up of a fraction of a second, whose time is
# mostly interpreter start, still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Every child must end within this many seconds of the start, so that the
# whole run ends within three minutes.
DEADLINE_S = 170

# The per-command wall-time metrics, in pipeline order.
COMMAND_OF = {"simulate_s": "simulate", "replay_s": "replay", "density_s": "analyze-density",
              "placement_s": "place-chargers", "calibrate_s": "calibrate"}


class BenchError(Exception):
    pass


def _alarm(signum, frame):
    raise TimeoutError


def _child(args, deadline):
    """Run a worker process to completion, killing it at `deadline`
    (time.monotonic) -> wall seconds.

    The wait blocks (a SIGALRM enforces the timeout) instead of polling as
    Popen.wait(timeout) does, whose 50 ms sleeps would round the set-up time.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.DEVNULL)
    old = signal.signal(signal.SIGALRM, _alarm)
    timeout = max(1, int(deadline - time.monotonic()))
    signal.alarm(timeout)
    try:
        code = proc.wait()
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, TimeoutError):
            raise BenchError(f"worker {args[0]} did not finish within {timeout} s") from None
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    if code != 0:
        raise BenchError(f"worker {args[0]} exited {code}")
    return time.perf_counter() - t0


def _file_digests(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def setup(workload, seed, work, repeats, deadline):
    """Build the inputs `repeats` times, or more while they take less than
    SETUP_MIN_S in all -> (input dir, [seconds at the reference speed],
    problems). The reference task runs before the first and after each."""
    times, dirs = [], []
    refs = [reference.reference()]
    while len(times) < repeats or (repeats > 1 and sum(times) < SETUP_MIN_S):
        d = os.path.join(work, f"inputs{len(times)}")
        wall = _child(["setup", "--workload", workload, "--seed", str(seed), "--dir", d], deadline)
        refs.append(reference.reference())
        times.append(reference.scaled(wall, refs[-2], refs[-1]))
        dirs.append(d)
    problems = []
    first = _file_digests(dirs[0])
    for d in dirs[1:]:
        if _file_digests(d) != first:
            problems.append(f"set-up is not deterministic: {d} differs from {dirs[0]}")
        shutil.rmtree(d)
    return dirs[0], times, problems


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _spread(xs):
    if len(xs) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f" q1 {q1:.4f} q3 {q3:.4f}"


def end_to_end(result, setup_times):
    steps = result["vehicle_steps"]
    untraced = [p for p in result["passes"] if not p["traced"]]
    wall = _median([p["scaled_wall"] for p in untraced])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "vehicle_steps_per_s": (steps / wall if wall > 0 else 0.0, "1/s"),
    }


def _representative(traced):
    """The traced pass with the (lower) median wall time."""
    return sorted(traced, key=lambda p: p["scaled_wall"])[(len(traced) - 1) // 2]


def _factor(p):
    """A pass's wall seconds -> seconds at the reference speed."""
    return reference.REF_S / _median(p["refs"])


def per_layer(result):
    """Per-layer metrics from the median traced pass; the per-command times
    come from the untraced passes of the same run. Times are at the reference
    speed: a layer's span times are scaled by its pass's reference median."""
    passes = result["passes"]
    untraced = [q for q in passes if not q["traced"]]
    rep = _representative([q for q in passes if q["traced"]])
    layers, counters = rep["layers"], rep["counters"]
    k = _factor(rep)

    def calls(n):
        return layers.get(n, {}).get("calls", 0)

    def incl(n):
        return k * layers.get(n, {}).get("s", 0.0)

    def self_s(n):
        return k * layers.get(n, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    vsteps = counters.get("fleet_sim.vehicle_steps", 0)
    evals = ratio(calls("battery.integrate_trajectory"), result["cycles"])
    untraced_wall = _median([q["scaled_wall"] for q in untraced])
    m = {metric: (_median([q["scaled"][c] for q in untraced if c in q["scaled"]]), "s")
         for metric, c in COMMAND_OF.items()}
    m.update({
        "fleet_sim.resolve_conflicts.s": (incl("fleet_sim.resolve_conflicts"), "s"),
        "fleet_sim.resolve_conflicts.calls": (calls("fleet_sim.resolve_conflicts"), "count"),
        "fleet_sim.resolve_conflicts.pairs": (counters.get("fleet_sim.resolve_conflicts.pairs", 0), "count"),
        "fleet_sim.step.self_s": (self_s("fleet_sim.step"), "s"),
        "fleet_sim.step.calls": (calls("fleet_sim.step"), "count"),
        "fleet_sim.vehicle_steps": (vsteps, "count"),
        "fleet_sim.us_per_vehicle_step": (1e6 * ratio(incl("fleet_sim.step"), vsteps), "us"),
        "fleet_sim.run.self_s": (self_s("fleet_sim.run"), "s"),
        "fleet_sim.replay.self_s": (self_s("fleet_sim.replay"), "s"),
        "roadnet.astar.calls": (calls("roadnet.astar"), "count"),
        "roadnet.astar.s": (incl("roadnet.astar"), "s"),
        "roadnet.dijkstra.calls": (calls("roadnet.dijkstra"), "count"),
        "roadnet.dijkstra.s": (incl("roadnet.dijkstra"), "s"),
        "roadnet.dijkstra.repeat_ratio": (ratio(counters.get("roadnet.dijkstra.repeats", 0),
                                                calls("roadnet.dijkstra")), "ratio"),
        "roadnet.nearest_node.calls": (calls("roadnet.nearest_node"), "count"),
        "roadnet.nearest_node.s": (incl("roadnet.nearest_node"), "s"),
        "roadnet.load_roadnet.calls": (calls("roadnet.load_roadnet"), "count"),
        "roadnet.load_roadnet.s": (incl("roadnet.load_roadnet"), "s"),
        "battery.segment_energy.calls": (calls("battery.segment_energy"), "count"),
        "battery.segment_energy.s": (incl("battery.segment_energy"), "s"),
        "battery.integrate_trajectory.calls": (calls("battery.integrate_trajectory"), "count"),
        "battery.calibrate.s": (incl("battery.calibrate"), "s"),
        "battery.calibrate.sweeps": (counters.get("battery.calibrate.sweeps", 0), "count"),
        "battery.calibrate.evals": (evals, "count"),
        "battery.calibrate.s_per_eval": (ratio(incl("battery.calibrate"), evals), "s"),
        "trajectory.sample_at.calls": (calls("trajectory.sample_at"), "count"),
        "trajectory.sample_at.s": (incl("trajectory.sample_at"), "s"),
        "trajectory.write_csv.s": (incl("trajectory.write_csv"), "s"),
        "trajectory.write_csv.rows": (counters.get("trajectory.write_csv.rows", 0), "count"),
        "trajectory.read_csv.s": (incl("trajectory.read_csv"), "s"),
        "trajectory.read_csv.rows": (counters.get("trajectory.read_csv.rows", 0), "count"),
        "density.density_timeline.self_s": (self_s("density.density_timeline"), "s"),
        "density.snapshot_from_states.self_s": (self_s("density.snapshot_from_states"), "s"),
        "density.clusters.s": (incl("density.clusters"), "s"),
        "density.ticks": (calls("density.snapshot_from_states"), "count"),
        "density.episodes": (counters.get("density.episodes", 0), "count"),
        "placement.visit_weights.self_s": (self_s("placement.visit_weights"), "s"),
        "placement.place_chargers.self_s": (self_s("placement.place_chargers"), "s"),
        "placement.heatmap_for_graph.s": (incl("placement.heatmap_for_graph"), "s"),
        "cli.self_s": (sum(self_s(c) for c in rep["commands"]), "s"),
        "trace.wall_s": (rep["scaled_wall"], "s"),
        "trace.overhead_s": (rep["scaled_wall"] - untraced_wall, "s"),
        "trace.spans": (rep["spans"], "count"),
        "wall_unscaled_s": (_median([q["wall"] for q in untraced]), "s"),
        "reference_s": (_median([r for q in passes for r in q["refs"]]), "s"),
    })
    return m


def exact_counts(q):
    """Every count a traced pass recorded: span calls and counters."""
    out = {f"{n}.calls": v["calls"] for n, v in q["layers"].items()}
    out.update(q["counters"])
    return out


def report_trace(result):
    """Per-command self times of the median traced pass, largest first; they
    sum to the command's traced wall time. Wall times here are as measured;
    the overhead compares times at the reference speed."""
    passes = result["passes"]
    rep = _representative([q for q in passes if q["traced"]])
    untraced_wall = _median([q["scaled_wall"] for q in passes if not q["traced"]])
    overhead = rep["scaled_wall"] - untraced_wall
    print(f"traced pass (run {passes.index(rep)}, {rep['spans']} spans): wall {rep['wall']:.4f} s;"
          f" at the reference speed {rep['scaled_wall']:.4f} s against an untraced median of "
          f"{untraced_wall:.4f} s: tracing overhead {overhead:+.4f} s "
          f"({100.0 * overhead / untraced_wall:+.1f}%)")
    for command, c in rep["commands"].items():
        selfs = sorted(c["self"].items(), key=lambda kv: -kv[1])
        print(f"  {command}: wall {c['wall']:.4f} s = sum of self times "
              f"{sum(v for _, v in selfs):.4f} s")
        for name, v in selfs:
            label = "cli.self" if name == command else name
            print(f"    {label:<36} {v:10.4f} s {100.0 * v / c['wall']:6.1f}%")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "forkfleet", "cli.py")):
        print("error: forkfleet sources not found under src/ next to perfbench/", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # A termination request unwinds through _child, which stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # A work directory of this run's own, so runs never share files; its last
    # spans and result stay beside it for inspection.
    base = os.path.join(HERE, ".work")
    work = os.path.join(base, f"{args.workload}.{os.getpid()}")
    os.makedirs(work)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        inputs, setup_times, problems = setup(args.workload, args.seed, work, repeats, deadline)
        _child(["measure", "--workload", args.workload, "--seed", str(args.seed),
                "--inputs", inputs, "--work", work, "--seconds", str(args.seconds),
                "--trace", str(args.trace)], deadline)
        with open(os.path.join(work, "result.json")) as f:
            result = json.load(f)
        for name in ("result.json", "spans.csv"):
            if os.path.exists(os.path.join(work, name)):
                os.replace(os.path.join(work, name), os.path.join(base, f"{args.workload}.{name}"))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += result["problems"]
    passes = result["passes"]
    untraced = [q for q in passes if not q["traced"]]
    traced = [q for q in passes if q["traced"]]
    if traced and any(exact_counts(q) != exact_counts(traced[0]) for q in traced):
        problems.append("counts differ between traced passes of one seed")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes; {attempted} commands, {failed} failed, "
          f"error_rate {failed / attempted:.4f}; digests checked against "
          f"{'recorded golden' if result['golden'] else 'the first pass'}")
    for msg in problems:
        print(f"  problem: {msg}")
    for name in result["missing_layers"]:
        print(f"  note: layer {name} not found, not traced")
    print("  times at the reference speed (as measured in brackets):")
    for command in untraced[0]["times"]:
        xs = [q["scaled"][command] for q in untraced]
        raw = _median([q["times"][command] for q in untraced])
        print(f"  {command:<16} median {_median(xs):.4f} s ({raw:.4f} s) over {len(xs)}{_spread(xs)}")
    refs = [r for q in passes for r in q["refs"]]
    print(f"  set-up           median {_median(setup_times):.4f} s over {len(setup_times)}"
          f"{_spread(setup_times)}")
    print(f"  reference task   median {_median(refs):.4f} s over {len(refs)}{_spread(refs)};"
          f" REF_S {reference.REF_S} s")

    if args.trace:
        report_trace(result)
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
