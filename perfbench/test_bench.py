"""Self-test of the benchmark on tiny instances of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py

Checks that counts and digests repeat exactly for a seed, that an altered
output is counted as a failed command, that times are scaled by the
reference task around each command, and that the metric names match
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os

import pytest

import reference
import run
import worker
import workloads

TINY_MAP = {"nx": 2, "ny": 2, "n_spots": 6}
TINY = {
    "fleet_dense": {"map": TINY_MAP, "vehicles": 4, "duration": 5.0, "dt": 0.1},
    "network_analysis": {"map": TINY_MAP, "vehicles": 4, "duration": 6.0, "dt": 0.1,
                         "sample_every": 5, "config": {"density.snapshot_interval": 2.0}},
    "demo_energy": {"map": TINY_MAP, "vehicles": 2, "duration": 6.0, "dt": 0.1,
                    "cycle_duration": 10.0, "calib_start": 0.05},
}


def _traced_run(name, tmp_path, tag, golden=None):
    work = tmp_path / tag
    inputs = str(work / "inputs")
    workloads.setup(name, TINY[name], 3, inputs)
    # seconds=0 with tracing: one untraced pass, then one traced pass
    return worker.measure(name, TINY[name], 3, inputs, str(work), 0, 1, golden)


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_and_digests_repeat(name, tmp_path):
    a = _traced_run(name, tmp_path, "a")
    b = _traced_run(name, tmp_path, "b")
    assert a["failed"] == 0 and b["failed"] == 0, a["problems"] + b["problems"]
    assert a["attempted"] == 2 * len(a["digests"])
    assert a["digests"] == b["digests"]
    ta, tb = [next(q for q in r["passes"] if q["traced"]) for r in (a, b)]
    assert run.exact_counts(ta) == run.exact_counts(tb)


def test_altered_output_is_a_failure(tmp_path, monkeypatch):
    clean = _traced_run("demo_energy", tmp_path, "clean")
    assert clean["failed"] == 0
    render = worker.cli._render_summary

    def altered(world, f, prov):
        render(world, f, prov)
        f.write("altered\n")

    monkeypatch.setattr(worker.cli, "_render_summary", altered)
    bad = _traced_run("demo_energy", tmp_path, "bad", golden=clean["digests"])
    assert bad["failed"] > 0
    assert bad["failed"] / bad["attempted"] > 0
    assert any("summary.txt digest differs" in m for m in bad["problems"])


def test_times_are_scaled_by_the_reference_around_each_command(tmp_path):
    assert reference.scaled(2.0, reference.REF_S, reference.REF_S) == 2.0
    assert reference.scaled(2.0, reference.REF_S, 3 * reference.REF_S) == 1.0
    result = _traced_run("demo_energy", tmp_path, "scaled")
    for q in result["passes"]:
        assert len(q["refs"]) == len(q["times"]) + 1
        assert all(r > 0 for r in q["refs"])
        for i, (command, t) in enumerate(q["times"].items()):
            assert q["scaled"][command] == reference.scaled(t, q["refs"][i], q["refs"][i + 1])
        assert q["scaled_wall"] == pytest.approx(sum(q["scaled"].values()))


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = _traced_run("demo_energy", tmp_path, "names")
    e2e = run.end_to_end(result, [0.1, 0.2, 0.3])
    layers = run.per_layer(result)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
