"""Self-checks for the benchmark: its oracles catch wrong answers, its counts
repeat for a seed, and BENCHMARK.json names what the code reports.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Feeder, Tally  # noqa: E402

SMALL_KEY_BITS = 256


def make(name: str, seed: int, fault: str | None = None):
    if name == "feeder_2048":
        return Feeder(seed, fault, key_bits=SMALL_KEY_BITS)
    return WORKLOADS[name](seed, fault)


def run(workload, blocks: int = 1, tracer=None) -> Tally:
    tracer = tracer or NullTracer()
    state = workload.setup(tracer, 0)
    tally = Tally()
    for index in range(blocks):
        workload.run_block(state, index, tracer, tally)
    return tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_run_has_no_failures(name):
    tally = run(make(name, 7))
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures


@pytest.mark.parametrize("name,fault", [
    ("feeder_2048", "wrong_aggregate"),
    ("scenario_replay", "wrong_aggregate"),
    ("records_small", "flip_grant"),
    ("scenario_replay", "flip_grant"),
])
def test_injected_fault_raises_fail_ratio(name, fault):
    tally = run(make(name, 7, fault))
    assert tally.failed / tally.attempted > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed(name):
    first, second = (run(make(name, 11), blocks=2, tracer=Tracer()) for _ in range(2))
    assert dict(first.counts) == dict(second.counts)
    for _, _, compute in layers.COUNT_METRICS.values():
        assert compute(first) == compute(second)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == layers.per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "latency_ms", "work_per_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "records_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
