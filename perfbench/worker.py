"""Child processes of the benchmark.

    worker.py setup   --workload W --seed N --dir D
        Builds the workload's inputs in D (map, config, CSVs).
    worker.py measure --workload W --seed N --inputs D --work D --seconds S --trace T
        Runs the workload's commands through forkfleet.cli.main, in this
        process and one at a time, pass after pass until S seconds have gone
        by, checks every output, and writes result.json into the work
        directory. With --trace 1 untraced and traced passes alternate. The
        reference task runs before the first command of a pass and after
        each, and each command's time is also given at the reference speed.

run.py starts both; each runs in a fresh interpreter, so the measuring
process's peak RSS covers only the timed commands.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from forkfleet import cli  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def load_golden(name, seed):
    """Recorded output digests {command: {file: sha256}} for this seed, or None."""
    path = os.path.join(HERE, "golden.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(name, {}).get(str(seed))


def run_pass(cmds, tr=None):
    """Run every command once, with the reference task before the first and
    after each -> ({command: seconds}, {command: seconds at the reference
    speed}, [reference seconds], {command: exit code})."""
    times, scaled, codes = {}, {}, {}
    refs = [reference.reference()]
    for command, argv, _ in cmds:
        t0 = time.perf_counter()
        try:
            codes[command] = tr.command(command, argv) if tr else cli.main(argv)
        except Exception:  # one failing command must not stop the run
            traceback.print_exc()
            codes[command] = None
        times[command] = time.perf_counter() - t0
        refs.append(reference.reference())
        scaled[command] = reference.scaled(times[command], refs[-2], refs[-1])
    return times, scaled, refs, codes


def check_pass(p, cmds, codes, inputs, reference):
    """-> ({command: digests}, {command: [problems]}). A command has a problem
    when it exits nonzero, fails a check, or its outputs differ from the
    reference digests."""
    got, problems = {}, {}
    for command, _, out_dir in cmds:
        got[command] = workloads.digests(out_dir)
        probs = []
        if codes[command] != 0:
            probs.append(f"{command}: exit {codes[command]}")
        else:
            probs += workloads.check(command, p, out_dir, inputs)
        if reference is not None:
            want = reference.get(command, {})
            for fname in sorted(want):
                if got[command].get(fname) != want[fname]:
                    probs.append(f"{command}: {fname} digest differs from the reference")
        problems[command] = probs
    return got, problems


def measure(name, p, seed, inputs, work, seconds, trace, golden):
    """Timed passes over one workload's commands -> result dict."""
    out = os.path.join(work, "out")
    cmds = workloads.commands(name, p, inputs, out)
    tr = tracer.Tracer() if trace else None
    reference = golden
    passes, problems = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if traced:
            tr.reset(run_id=len(passes))
            tr.install()
        try:
            times, scaled, refs, codes = run_pass(cmds, tr if traced else None)
        finally:
            if traced:
                tr.uninstall()
        got, probs = check_pass(p, cmds, codes, inputs, reference)
        if reference is None:
            reference = got
        attempted += len(cmds)
        failed += sum(1 for c in probs if probs[c])
        problems += [msg for c in probs for msg in probs[c]]
        record = {"traced": traced, "times": times, "wall": sum(times.values()),
                  "scaled": scaled, "scaled_wall": sum(scaled.values()), "refs": refs}
        if traced:
            layers, by_command = tr.aggregate()
            record.update(layers=layers, commands=by_command, counters=dict(tr.counters),
                          spans=len(tr.start))
        passes.append(record)
        # with tracing, stop only after a traced pass, so both kinds are run
        if time.perf_counter() >= deadline and (traced or not trace):
            break
    if trace:
        tr.write_spans(os.path.join(work, "spans.csv"))
    return {
        "workload": name, "seed": seed, "passes": passes,
        "vehicle_steps": workloads.vehicle_steps(p),
        "cycles": p["vehicles"] if any(c[0] == "calibrate" for c in cmds) else 0,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "golden": golden is not None, "digests": reference,
        "missing_layers": tr.missing if tr else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SCENARIOS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir")
    ap.add_argument("--inputs")
    ap.add_argument("--work")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    p = workloads.SCENARIOS[args.workload]
    if args.mode == "setup":
        workloads.setup(args.workload, p, args.seed, args.dir)
        return 0
    result = measure(args.workload, p, args.seed, args.inputs, args.work, args.seconds,
                     args.trace, load_golden(args.workload, args.seed))
    with open(os.path.join(args.work, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
