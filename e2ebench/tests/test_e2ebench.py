"""Tests of the benchmark itself: inputs, counts, checks and metric names.

Run from the repository root (the traced runs take a few minutes)::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import harness
from e2ebench.tracing import NULL_RECORDER, Recorder, Span, self_times
from e2ebench.workloads import WORKLOADS, AutoBatch, Ckpt20, Dense20, ModelTrace

ROOT = Path(__file__).resolve().parents[2]

#: The metric names the benchmark's specification lists.
SPEC_END_TO_END = {
    "setup_s", "ops_per_s", "op_s_p50", "op_s_tail", "failed_ratio", "peak_rss_mib",
}
SPEC_PER_LAYER = {
    "core.reorder_s", "core.dispatch_s", "core.chunk_updates", "core.pruned_ratio",
    "statevector.fuse_s", "statevector.sweeps_per_gate", "statevector.kernel_s",
    "statevector.kernel_calls", "statevector.kernel_bytes", "statevector.kernel_gbps",
    "statevector.kernel_bw_frac",
    "reliability.checkpoints", "reliability.checkpoint_s",
    "reliability.checkpoint_bytes", "reliability.norm_check_s",
    "planner.plan_s", "planner.features_s", "planner.plans_per_job",
    "planner.plan_share", "planner.selected.stabilizer", "planner.selected.sparse",
    "planner.selected.statevector", "planner.selected.mps",
    "engine.stabilizer_s", "engine.sparse_s", "engine.mps_s",
    "service.submit_s", "service.wait_s", "service.exec_s",
    "service.cache_hit_ratio", "service.admission_deferrals", "service.journal_bytes",
    "model.estimate_s", "model.des_s", "model.des_tasks", "model.modelled_s",
    "model.link_bytes",
    "obs.export_s", "obs.parse_s", "obs.analyze_s", "obs.fleet_s", "obs.spans",
    "obs.analyze_spans_per_s",
    "compression.profile_s", "host.copy_gbps", "trace_overhead",
}
#: Deliberate departures from that list; README.md gives each reason.
REPLACED = {"failed_ratio": "ok_ratio"}
ADDED_PER_LAYER = {"service.journal_records"}
NOT_EXACT = {"service.journal_bytes"}
SPEC_EXACT = {
    "core.chunk_updates", "core.pruned_ratio", "statevector.sweeps_per_gate",
    "statevector.kernel_calls", "statevector.kernel_bytes",
    "reliability.checkpoints", "reliability.checkpoint_bytes",
    "planner.plans_per_job", "planner.selected.stabilizer", "planner.selected.sparse",
    "planner.selected.statevector", "planner.selected.mps",
    "service.cache_hit_ratio", "service.admission_deferrals", "service.journal_bytes",
    "model.des_tasks", "model.modelled_s", "model.link_bytes", "obs.spans",
}


def test_metric_names_match_the_specification_and_benchmark_json() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_e2e = {REPLACED.get(name, name) for name in SPEC_END_TO_END}
    assert set(harness.END_TO_END) == expected_e2e
    assert set(harness.PER_LAYER) == SPEC_PER_LAYER | ADDED_PER_LAYER
    assert set(harness.EXACT) == (SPEC_EXACT - NOT_EXACT) | ADDED_PER_LAYER
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == harness.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]
    } == harness.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS.values()), ids=list(WORKLOADS))
def test_seed_fixes_the_inputs(workload, tmp_path: Path) -> None:
    first = workload(1, tmp_path).inputs()
    assert workload(1, tmp_path).inputs() == first
    assert workload(2, tmp_path).inputs() != first


def test_tail_is_the_highest_percentile_with_ten_samples_beyond() -> None:
    values = [float(v) for v in range(1, 41)]
    percentile, value = harness.tail(values)
    assert percentile == 75.0
    assert value == 30.0
    assert sum(v > value for v in values) == 10
    assert harness.tail(values[:12]) == (50.0, 6.5)


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        Span(1, "root", None, "a", "main", 0.0, 10.0),
        Span(2, "child", 1, "a", "main", 1.0, 4.0),
        Span(3, "child", 1, "a", "worker", 3.0, 6.0),
    ]
    assert self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}


def test_recorder_nests_spans_and_shares_the_op() -> None:
    recorder = Recorder()
    with recorder.span("outer", op="op-1"):
        with recorder.span("inner"):
            pass
    inner, outer = recorder.spans
    assert inner.parent == outer.span_id
    assert inner.op == outer.op == "op-1"


# -- perturbed outputs count as failures --------------------------------------


class SmallDense(Dense20):
    circuits_spec = (("qft", 10), ("rqc", 10))


class SmallCkpt(Ckpt20):
    circuits_spec = (("qft", 10),)


class SmallBatch(AutoBatch):
    FAMILIES = ("bv", "qft")
    WIDTHS = (8,)
    DUPLICATES = 1


def _ok_ratio(workload) -> float:
    outcome = harness.run(workload, seconds=0.0, trace=False)
    metrics, _ = harness.end_to_end(outcome, setup_s=1.0)
    return metrics["ok_ratio"]


def test_dense_check_catches_a_perturbed_amplitude(tmp_path: Path, monkeypatch) -> None:
    workload = SmallDense(1, tmp_path)
    workload.setup()
    assert _ok_ratio(workload) == 1.0
    run_one = SmallDense.run_one

    def perturbed(self, circuit):
        result = run_one(self, circuit)
        result.state.backing[0] += 1e-9
        return result

    monkeypatch.setattr(SmallDense, "run_one", perturbed)
    assert _ok_ratio(workload) == 0.0


def test_ckpt_check_counts_checkpoints(tmp_path: Path, monkeypatch) -> None:
    workload = SmallCkpt(1, tmp_path)
    workload.setup()
    assert _ok_ratio(workload) == 1.0
    monkeypatch.setattr(SmallCkpt, "expected_checkpoints", lambda self, c: 99)
    assert _ok_ratio(workload) == 0.0


def test_batch_check_compares_with_execute_job(tmp_path: Path) -> None:
    workload = SmallBatch(1, tmp_path)
    workload.setup()
    assert _ok_ratio(workload) == 1.0
    spec = workload.unique[0]
    workload.references[spec].counts = {"0": 1}
    copies = sum(s == spec for s in workload.batch)
    assert _ok_ratio(workload) == pytest.approx(1.0 - copies / len(workload.batch))


def test_model_check_requires_the_fleet_byte_identity(tmp_path: Path, monkeypatch) -> None:
    import e2ebench.workloads as workloads

    workload = ModelTrace(1, tmp_path)
    workload.circuits = workload.circuits[:1]
    fleet_analysis = workloads.fleet_analysis

    def off_by_one(spans):
        fleet = fleet_analysis(spans)
        fleet.total_bytes += 1
        return fleet

    ops, _ = workload.round(NULL_RECORDER)
    assert [op.ok for op in ops] == [True]
    monkeypatch.setattr(workloads, "fleet_analysis", off_by_one)
    ops, _ = workload.round(NULL_RECORDER)
    assert [op.ok for op in ops] == [False]


# -- whole runs through the command line --------------------------------------


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat_across_runs(workload: str) -> None:
    results = []
    for _ in range(2):
        completed = _run(workload, seed=7, trace=1)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(harness.PER_LAYER)
        results.append(result["metrics"])
    first, second = results
    for name in harness.EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_run_fails_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2ebench", tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run("dense20", seed=1, trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
