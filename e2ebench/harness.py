"""Metric catalogue, the timed loop, and the result line.

A run sets up one workload, then repeats its rounds until ``seconds`` have
passed.  With tracing off every round is timed plainly and the end-to-end
metrics are reported.  With tracing on, rounds alternate between untraced
and traced; the traced ones give the per-layer metrics, and the two kinds
together give ``trace_overhead``.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Any

from e2ebench.tracing import NULL_RECORDER, Recorder, instrumented, self_time_by_name

#: End-to-end metrics: name -> unit.  ``ok_ratio`` stands in for the
#: failure ratio (see README.md): it is never zero on a correct run.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ok_ratio": "fraction",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics: name -> (unit, better).  Times and counts are per op.
PER_LAYER: dict[str, tuple[str, str]] = {
    "core.reorder_s": ("s", "lower"),
    "core.dispatch_s": ("s", "lower"),
    "core.chunk_updates": ("count", "lower"),
    "core.pruned_ratio": ("fraction", "higher"),
    "statevector.fuse_s": ("s", "lower"),
    "statevector.sweeps_per_gate": ("ratio", "lower"),
    "statevector.kernel_s": ("s", "lower"),
    "statevector.kernel_calls": ("count", "lower"),
    "statevector.kernel_bytes": ("bytes", "lower"),
    "statevector.kernel_gbps": ("GB/s", "higher"),
    "statevector.kernel_bw_frac": ("fraction", "higher"),
    "reliability.checkpoints": ("count", "lower"),
    "reliability.checkpoint_s": ("s", "lower"),
    "reliability.checkpoint_bytes": ("bytes", "lower"),
    "reliability.norm_check_s": ("s", "lower"),
    "planner.plan_s": ("s", "lower"),
    "planner.features_s": ("s", "lower"),
    "planner.plans_per_job": ("count", "lower"),
    "planner.plan_share": ("fraction", "lower"),
    "planner.selected.stabilizer": ("fraction", "higher"),
    "planner.selected.sparse": ("fraction", "higher"),
    "planner.selected.statevector": ("fraction", "lower"),
    "planner.selected.mps": ("fraction", "lower"),
    "engine.stabilizer_s": ("s", "lower"),
    "engine.sparse_s": ("s", "lower"),
    "engine.mps_s": ("s", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.wait_s": ("s", "lower"),
    "service.exec_s": ("s", "lower"),
    "service.cache_hit_ratio": ("fraction", "higher"),
    "service.admission_deferrals": ("count", "lower"),
    "service.journal_bytes": ("bytes", "lower"),
    "service.journal_records": ("count", "lower"),
    "model.estimate_s": ("s", "lower"),
    "model.des_s": ("s", "lower"),
    "model.des_tasks": ("count", "lower"),
    "model.modelled_s": ("s", "lower"),
    "model.link_bytes": ("bytes", "lower"),
    "obs.export_s": ("s", "lower"),
    "obs.parse_s": ("s", "lower"),
    "obs.analyze_s": ("s", "lower"),
    "obs.fleet_s": ("s", "lower"),
    "obs.spans": ("count", "lower"),
    "obs.analyze_spans_per_s": ("spans/s", "higher"),
    "compression.profile_s": ("s", "lower"),
    "host.copy_gbps": ("GB/s", "higher"),
    "trace_overhead": ("fraction", "lower"),
}

#: Per-layer metrics that must repeat exactly from run to run (marked "c"
#: in README.md).  ``service.journal_bytes`` is not among them: the
#: journal stores wall-clock timestamps whose printed length varies.
EXACT = (
    "core.chunk_updates",
    "core.pruned_ratio",
    "statevector.sweeps_per_gate",
    "statevector.kernel_calls",
    "statevector.kernel_bytes",
    "reliability.checkpoints",
    "reliability.checkpoint_bytes",
    "planner.plans_per_job",
    "planner.selected.stabilizer",
    "planner.selected.sparse",
    "planner.selected.statevector",
    "planner.selected.mps",
    "service.cache_hit_ratio",
    "service.admission_deferrals",
    "service.journal_records",
    "model.des_tasks",
    "model.modelled_s",
    "model.link_bytes",
    "obs.spans",
)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples above.

    With fewer than 20 samples that percentile would fall below the
    median, so the median is reported instead (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    kernel_counters: dict[str, float],
    ops: int,
    copy_gbps: float,
    setup_info: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead``."""
    spans = recorder.spans
    counts = recorder.counts
    selfs = self_time_by_name(spans)

    def kernel(prefix: str) -> float:
        return sum(v for k, v in kernel_counters.items() if k.startswith(prefix))

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    kernel_s = kernel("kernel_seconds.")
    kernel_bytes = kernel("kernel_bytes.")
    kernel_gbps = _ratio(kernel_bytes, kernel_s) / 1e9
    gates = counts["core.gates"]
    plan_s = recorder.total("planner.plan")
    root_s = sum(s.duration for s in spans if s.parent is None)
    analyze_s = recorder.total("obs.analyze")
    out = {
        "core.reorder_s": per_op(recorder.total("core.reorder")),
        "core.dispatch_s": per_op(selfs.get("core.run", 0.0) - kernel_s),
        "core.chunk_updates": per_op(counts["core.chunk_updates"]),
        "core.pruned_ratio": _ratio(
            counts["core.chunk_updates_skipped"], counts["core.chunk_updates"]
        ),
        "statevector.fuse_s": per_op(recorder.total("statevector.fuse")),
        "statevector.sweeps_per_gate": _ratio(
            gates - counts["statevector.sweeps_saved"], gates
        ),
        "statevector.kernel_s": per_op(kernel_s),
        "statevector.kernel_calls": per_op(kernel("kernels.")),
        "statevector.kernel_bytes": per_op(kernel_bytes),
        "statevector.kernel_gbps": kernel_gbps,
        "statevector.kernel_bw_frac": _ratio(kernel_gbps, copy_gbps),
        "reliability.checkpoints": per_op(counts["reliability.checkpoints"]),
        "reliability.checkpoint_s": per_op(recorder.total("reliability.checkpoint")),
        "reliability.checkpoint_bytes": per_op(counts["reliability.checkpoint_bytes"]),
        "reliability.norm_check_s": per_op(recorder.total("reliability.norm_check")),
        "planner.plan_s": per_op(plan_s),
        "planner.features_s": per_op(recorder.total("planner.features")),
        "planner.plans_per_job": per_op(recorder.calls("planner.plan")),
        "planner.plan_share": _ratio(plan_s, root_s),
        "service.submit_s": per_op(recorder.total("service.submit")),
        "service.wait_s": per_op(counts["service.wait_s"]),
        "service.exec_s": per_op(counts["service.exec_s"]),
        "service.cache_hit_ratio": per_op(counts["service.cache_hits"]),
        "service.admission_deferrals": per_op(counts["service.admission_deferrals"]),
        "service.journal_bytes": per_op(counts["service.journal_bytes"]),
        "service.journal_records": per_op(counts["service.journal_records"]),
        "model.estimate_s": per_op(recorder.total("model.estimate")),
        "model.des_s": per_op(recorder.total("model.des")),
        "model.des_tasks": per_op(counts["model.des_tasks"]),
        "model.modelled_s": recorder.constants.get("model.modelled_s", 0.0),
        "model.link_bytes": per_op(counts["model.link_bytes"]),
        "obs.export_s": per_op(recorder.total("obs.export")),
        "obs.parse_s": per_op(recorder.total("obs.parse")),
        "obs.analyze_s": per_op(analyze_s),
        "obs.fleet_s": per_op(recorder.total("obs.fleet")),
        "obs.spans": per_op(counts["obs.spans"]),
        "obs.analyze_spans_per_s": _ratio(counts["obs.spans"], analyze_s),
        "compression.profile_s": setup_info.get("compression.profile_s", 0.0),
        "host.copy_gbps": copy_gbps,
    }
    for backend in ("stabilizer", "sparse", "statevector", "mps"):
        out[f"planner.selected.{backend}"] = per_op(counts[f"planner.selected.{backend}"])
    for backend in ("stabilizer", "sparse", "mps"):
        out[f"engine.{backend}_s"] = per_op(recorder.total(f"engine.{backend}"))
    return out


def run(workload, seconds: float, trace: bool) -> dict[str, Any]:
    """Time ``workload``'s rounds for ``seconds``; returns the result dict.

    The caller has already run ``workload.setup()``.
    """
    all_ops = []
    plain = {"ops": 0, "busy": 0.0}
    traced = {"ops": 0, "busy": 0.0}
    recorder = Recorder()
    kernel_counters = None
    if trace:
        from repro.obs.counters import CounterRegistry

        kernel_counters = CounterRegistry()
    start = time.perf_counter()
    rounds = 0
    while True:
        tracing = trace and rounds % 2 == 1
        if tracing:
            with instrumented(recorder, kernel_counters):
                ops, busy = workload.round(recorder)
        else:
            ops, busy = workload.round(NULL_RECORDER)
        side = traced if tracing else plain
        side["ops"] += len(ops)
        side["busy"] += busy
        all_ops.extend((op, tracing) for op in ops)
        rounds += 1
        enough_rounds = rounds >= (2 if trace else 1)
        if enough_rounds and time.perf_counter() - start >= seconds:
            break
    return {
        "ops": all_ops,
        "plain": plain,
        "traced": traced,
        "recorder": recorder,
        "kernel_counters": kernel_counters.snapshot() if kernel_counters else {},
    }


def end_to_end(outcome: dict[str, Any], setup_s: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of an untraced run, plus context for the log."""
    ops = [op for op, _ in outcome["ops"]]
    latencies = [op.latency_s for op in ops]
    good = sum(op.ok for op in ops)
    percentile, tail_value = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": _ratio(good, outcome["plain"]["busy"]),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail_value,
        "ok_ratio": good / len(ops),
        "peak_rss_mib": peak_rss_mib(),
    }
    context = {"samples": len(ops), "tail_percentile": round(percentile, 2)}
    return metrics, context


def per_layer(
    outcome: dict[str, Any], copy_gbps: float, setup_info: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of a traced run, ``trace_overhead`` included."""
    traced, plain = outcome["traced"], outcome["plain"]
    metrics = layer_metrics(
        outcome["recorder"],
        outcome["kernel_counters"],
        traced["ops"],
        copy_gbps,
        setup_info,
    )
    per_op_traced = _ratio(traced["busy"], traced["ops"])
    per_op_plain = _ratio(plain["busy"], plain["ops"])
    metrics["trace_overhead"] = _ratio(per_op_traced, per_op_plain) - 1.0
    return metrics


def result_line(
    outcome: dict[str, Any], metrics: dict[str, float], units: dict[str, str]
) -> dict[str, Any]:
    ops = [op for op, _ in outcome["ops"]]
    failed = sum(not op.ok for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
