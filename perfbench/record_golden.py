"""Record the output digests that the benchmark checks every command against.

    python3 perfbench/record_golden.py [SEED ...]

For every workload and seed it builds the inputs, runs the commands once,
refuses to record when a command fails or an output check does not hold,
and writes perfbench/golden.json. With no seeds it records seeds 0-29 and
the held-out seed of perfbench/design.json. Run it only on a commit whose
outputs are known to be right: every later commit is compared with it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import worker
import workloads


def record(seeds):
    golden = {}
    for name, p in workloads.SCENARIOS.items():
        golden[name] = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=os.path.join(worker.HERE, ".work")) as work:
                inputs = os.path.join(work, "inputs")
                workloads.setup(name, p, seed, inputs)
                result = worker.measure(name, p, seed, inputs, work, 0, 0, None)
            if result["failed"]:
                raise SystemExit(f"{name} seed {seed}: {result['problems']}")
            golden[name][str(seed)] = result["digests"]
            print(f"{name} seed {seed}: {sum(map(len, result['digests'].values()))} files",
                  flush=True)
    return golden


def main(argv):
    with open(os.path.join(worker.HERE, "design.json")) as f:
        held_out = json.load(f)["held_out_seed"]
    seeds = [int(a) for a in argv] or [*range(30), held_out]
    os.makedirs(os.path.join(worker.HERE, ".work"), exist_ok=True)
    golden = record(seeds)
    with open(os.path.join(worker.HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
