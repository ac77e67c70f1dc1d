"""simulate's output bytes pinned over non-default settings.

The benchmark's golden digests cover the default kin.* and battery.* values
only, so a constant of the kinematics or the battery model moved to a wrong
place would still pass them. Each scenario in simulate_digests.json runs
simulate on a warehouse_map floor with its own flags (non-default kin.*,
battery.* and load settings, dt 0.05 to 0.25, 1 to 40 trucks) and compares
the sha256 of each file's body (the provenance line dropped) with the
recorded one.

    PYTHONPATH=src python tests/test_simulate_digests.py

re-records the digests; do so only for a change meant to move output bits.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

from forkfleet import cli, mapgen
from forkfleet.roadnet import save_roadnet

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "simulate_digests.json")
NAMES = ("trajectory.csv", "soc.csv", "summary.txt")

with open(DATA) as f:
    SCENARIOS = json.load(f)


def body_digests(scenario, d):
    """{file name: sha256 of its body} of one simulate run in directory d."""
    map_path = os.path.join(d, "floor.roadnet")
    with open(map_path, "w") as f:
        save_roadnet(mapgen.warehouse_map(**scenario["map"]), f)
    out = os.path.join(d, "out")
    assert cli.main(["simulate", "--map", map_path, "--out-dir", out, *scenario["argv"]]) == 0
    digests = {}
    for name in NAMES:
        with open(os.path.join(out, name), "rb") as f:
            f.readline()  # the provenance line
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s["id"] for s in SCENARIOS])
def test_simulate_bytes_are_pinned(tmp_path, scenario):
    assert body_digests(scenario, str(tmp_path)) == scenario["digests"]


def test_scenarios_are_distinct():
    assert len({json.dumps(s["digests"], sort_keys=True) for s in SCENARIOS}) == len(SCENARIOS)


if __name__ == "__main__":
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as d:
            scenario["digests"] = body_digests(scenario, d)
        print(scenario["id"], file=sys.stderr)
    with open(DATA, "w") as f:
        json.dump(SCENARIOS, f, indent=1)
        f.write("\n")
