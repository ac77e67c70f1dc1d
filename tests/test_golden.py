"""Byte identity of every benchmark output with the recorded digests.

Builds each workload of perfbench/ at seed 0, runs its commands once and
compares the body (provenance lines dropped) of every file they write with
perfbench/golden.json, plus the benchmark's own seed-independent checks.
A change that moves any output bit fails here, not only in the benchmark.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SCENARIOS))
def test_outputs_match_golden_digests(tmp_path, name):
    p = workloads.SCENARIOS[name]
    golden = worker.load_golden(name, 0)
    assert golden, f"no recorded digests for {name} at seed 0"
    inputs = str(tmp_path / "inputs")
    workloads.setup(name, p, 0, inputs)
    result = worker.measure(name, p, 0, inputs, str(tmp_path / "work"), 0, 0, golden)
    assert result["failed"] == 0, result["problems"]
