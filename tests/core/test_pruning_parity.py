"""Pruning statistics are the paper's numbers: they must not move.

``tests/core/data/pruning_counters_golden.json`` holds the
``chunk_updates_total`` / ``chunk_updates_skipped`` the per-chunk engine
reported (one ``pruned()`` call per group member) for every library
family and pruning version at 14-18 qubits, with fusion on and off and
at the default and a fine chunk size.  The gate loop derives the same
counts from each op's fixed index bits; they must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuits.library import get_circuit
from repro.core.reorder import reorder
from repro.core.versions import VERSIONS_BY_NAME, VersionConfig
from repro.statevector.loop import LiveTracker, OpLive, compile_ops

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "pruning_counters_golden.json").read_text()
)

EXTRA_VERSIONS = {
    "Pruning+basis": VersionConfig(
        "Pruning+basis", dynamic_allocation=True, overlap=True, pruning=True,
        basis_tracking_pruning=True,
    ),
    "Pruning+diagonal": VersionConfig(
        "Pruning+diagonal", dynamic_allocation=True, overlap=True, pruning=True,
        diagonal_aware_pruning=True,
    ),
}


def _version(name: str) -> VersionConfig:
    return VERSIONS_BY_NAME.get(name) or EXTRA_VERSIONS[name]


def _counts(family, qubits, version, fusion, chunk_bits):
    """The gate loop's statistics, without touching amplitudes."""
    chunk_bits = chunk_bits or max(1, min(10, qubits - 2))
    ordered = reorder(get_circuit(family, qubits), version.reorder_strategy)
    tracker = LiveTracker(
        qubits,
        basis=version.basis_tracking_pruning,
        diagonal_aware=version.diagonal_aware_pruning,
    )
    total = skipped = 0
    for op in compile_ops(ordered, chunk_bits, fusion == "on"):
        tracker.observe(op)
        fixed = tracker.fixed() if version.pruning else (0, 0)
        live = OpLive.of(op, qubits, chunk_bits, *fixed)
        total += live.total
        skipped += live.skipped
    return total, skipped


def test_golden_covers_every_family_and_version() -> None:
    assert {entry["family"] for entry in GOLDEN} >= {"qft", "rqc", "qaoa", "hchain", "iqp"}
    assert {entry["version"] for entry in GOLDEN} == {
        "Baseline", "Pruning", "Q-GPU", "Pruning+basis", "Pruning+diagonal",
    }
    assert {entry["qubits"] for entry in GOLDEN} == {14, 15, 16, 18}


@pytest.mark.parametrize(
    "entry",
    GOLDEN,
    ids=lambda e: f"{e['family']}{e['qubits']}-{e['version']}-{e['fusion']}"
    f"-cb{e['chunk_bits']}",
)
def test_loop_reproduces_golden_counters(entry) -> None:
    counts = _counts(
        entry["family"], entry["qubits"], _version(entry["version"]),
        entry["fusion"], entry["chunk_bits"],
    )
    assert counts == (entry["total"], entry["skipped"])


@pytest.mark.parametrize(
    "entry",
    [e for e in GOLDEN if e["qubits"] == 14 and e["chunk_bits"] is None],
    ids=lambda e: f"{e['family']}-{e['version']}-{e['fusion']}",
)
def test_simulator_reports_golden_counters(entry) -> None:
    from repro.core.simulator import QGpuSimulator

    result = QGpuSimulator(
        version=_version(entry["version"]), workers=1, fusion=entry["fusion"]
    ).run(get_circuit(entry["family"], entry["qubits"]))
    assert (result.chunk_updates_total, result.chunk_updates_skipped) == (
        entry["total"], entry["skipped"],
    )
