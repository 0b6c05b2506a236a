"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_op_list_and_fingerprint(name):
    a, b, c = (make_workload(name, seed) for seed in (7, 7, 8))
    assert a.describe() == b.describe()
    assert a.fingerprint() == b.fingerprint()
    assert a.describe() != c.describe()
    assert a.fingerprint() != c.fingerprint()


def test_symbolic_message_counts_do_not_depend_on_the_seed():
    """The seed scales shapes, not the schedules: rounds per pass agree."""
    rounds = set()
    for seed in (1, 2, 3):
        workload = make_workload("sim-symbolic", seed)
        workload.setup()
        rounds.add(sum(cost.rounds for cost in workload.expected.values()))
    assert len(rounds) == 1


def _bench(*args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(name, trace):
    result, stdout = _bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                            "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        report = json.loads(stdout.strip().splitlines()[-2])["report"]
        assert report["error_rate"] == 0


def _one_pass_failures(workload):
    passes = harness.run_passes(workload, 0)
    return [p for run in passes for p in run.problems if p]


def test_planted_wrong_cost_is_a_failed_op():
    workload = make_workload("sim-symbolic", 1, smoke=True)
    workload.setup()
    key = next(iter(workload.expected))
    cost = workload.expected[key]
    workload.expected[key] = dataclasses.replace(cost, words=cost.words + 1)
    failures = _one_pass_failures(workload)
    assert failures and all("differs from predict_cost" in f for f in failures)


def test_planted_wrong_product_is_a_failed_op():
    workload = make_workload("sim-data", 1, smoke=True)
    workload.setup()
    for product in workload.data.product.values():
        product[0, 0] += 1.0
    failures = _one_pass_failures(workload)
    assert failures and all("differs from numpy" in f for f in failures)


def test_tracer_wraps_every_binding_and_uninstalls_cleanly():
    from repro.algorithms import grid_selection, registry

    originals = tracing.original_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # select_grid is bound by `from ... import` in the registry too.
        assert registry.select_grid is grid_selection.select_grid
        assert getattr(registry.select_grid, "__perfbench_wrapper__", False)
        assert tracing.patched_attributes_intact(originals)
    finally:
        tracer.uninstall()
    assert tracing.patched_attributes_intact(originals) == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-data", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
