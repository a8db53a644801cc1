"""``overlap_stats`` must give exactly the numbers of the per-span algorithm.

The analyzer bisects each transfer span into a per-lane union of the other
lanes' compute built once.  The algorithm it replaced rebuilt and scanned
that union for every transfer span; it is kept below as the oracle, and
``transfer`` / ``hidden`` must match it with ``==`` (same additions in the
same order, so bit-identical floats).
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import get_circuit
from repro.core.detailed import DetailedExecutor
from repro.core.versions import OVERLAP
from repro.hardware.machine import Machine
from repro.hardware.specs import MULTI_V100_MACHINE
from repro.hardware.trace import to_chrome_trace
from repro.obs.analyze import (
    TRANSFER_STAGES,
    _merge_intervals,
    analyze,
    overlap_stats,
)
from repro.obs.export import spans_from_events
from repro.obs.fleet import fleet_analysis
from repro.obs.tracer import Span


def _oracle(spans: list[Span]) -> tuple[float, float]:
    """``(transfer, hidden)`` with the other-lane union rebuilt per span."""
    compute_by_lane: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.stage == "compute" and span.end > span.start:
            compute_by_lane.setdefault(span.lane, []).append((span.start, span.end))
    merged_by_lane = {
        lane: _merge_intervals(intervals)
        for lane, intervals in compute_by_lane.items()
    }
    transfer = hidden = 0.0
    for span in spans:
        if span.stage not in TRANSFER_STAGES:
            continue
        transfer += span.duration
        other: list[tuple[float, float]] = []
        for lane, intervals in merged_by_lane.items():
            if lane != span.lane:
                other.extend(intervals)
        for start, end in _merge_intervals(other):
            lo = max(start, span.start)
            hi = min(end, span.end)
            if hi > lo:
                hidden += hi - lo
    return transfer, hidden


def _span(index: int, lane: str, stage: str | None, start: float, end: float) -> Span:
    return Span(index=index, name=f"s{index}", stage=stage, lane=lane,
                start=start, end=end, parent=None)


def _assert_matches_oracle(spans: list[Span]) -> None:
    stats = overlap_stats(spans)
    assert (stats.transfer, stats.hidden) == _oracle(spans)


# Lanes that carry only compute, only transfers, or both; stages include
# structural (None) and non-compute work that must be ignored.
LANES = ("gpu0:gpu", "gpu0:h2d", "gpu1:gpu", "gpu1:d2h", "main", "worker-1")
STAGES = ("compute", "h2d", "d2h", None, "codec")


@st.composite
def span_lists(draw) -> list[Span]:
    spans = []
    for index in range(draw(st.integers(0, 40))):
        # Times on a 0.1 grid: inexact binary fractions (so summation order
        # shows in the last bit) that still touch and nest often.
        start = 0.1 * draw(st.integers(0, 30))
        length = 0.1 * draw(st.integers(0, 12))  # zero-length spans included
        spans.append(_span(
            index, draw(st.sampled_from(LANES)), draw(st.sampled_from(STAGES)),
            start, start + length,
        ))
    return spans


@settings(max_examples=400, deadline=None)
@given(spans=span_lists())
def test_matches_per_span_oracle(spans: list[Span]) -> None:
    _assert_matches_oracle(spans)


@pytest.mark.parametrize(
    "spans",
    [
        # Touching compute intervals on two lanes, transfer lane without compute.
        [_span(0, "a", "compute", 0.0, 0.3), _span(1, "b", "compute", 0.3, 0.7),
         _span(2, "x", "h2d", 0.1, 0.6)],
        # Nested compute, transfer lane that also computes (same-lane excluded).
        [_span(0, "a", "compute", 0.0, 1.0), _span(1, "a", "compute", 0.2, 0.4),
         _span(2, "b", "compute", 0.5, 0.9), _span(3, "b", "d2h", 0.1, 0.8)],
        # Zero-length transfer at an interval edge and inside one.
        [_span(0, "a", "compute", 0.1, 0.2), _span(1, "b", "h2d", 0.2, 0.2),
         _span(2, "b", "d2h", 0.15, 0.15)],
        # Inverted span: no hidden time, negative transfer as before.
        [_span(0, "a", "compute", 0.0, 1.0), _span(1, "b", "h2d", 0.7, 0.3)],
        # Transfer before and after all compute.
        [_span(0, "a", "compute", 0.4, 0.5), _span(1, "b", "h2d", 0.0, 0.4),
         _span(2, "b", "h2d", 0.5, 0.9)],
    ],
    ids=["touching", "nested", "zero-length", "inverted", "outside"],
)
def test_edge_cases_match_oracle(spans: list[Span]) -> None:
    _assert_matches_oracle(spans)


# sha256 of ``json.dumps(result.to_dict(), sort_keys=True)`` for the 4-device
# ``qft_20`` Overlap DES trace that CI exports, taken with the per-span
# overlap algorithm.
DES_ANALYZE_SHA256 = "215fe3994ea78ada7594b0b98c008d67452c710913b90c27e1e22e77f58a572e"
DES_FLEET_SHA256 = "c653b533bda48716cecf0459a68fc530a930262dc24b8d505b3ccdc36202f2aa"


@pytest.fixture(scope="module")
def des_spans() -> list[Span]:
    executor = DetailedExecutor(
        Machine(MULTI_V100_MACHINE), chunk_bits=14, capacity_bytes=1 << 22,
        devices=4,
    )
    run = executor.execute(get_circuit("qft", 20), OVERLAP)
    return spans_from_events(to_chrome_trace(run.timeline))


def _sha256(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_des_trace_overlap_matches_oracle(des_spans) -> None:
    _assert_matches_oracle(des_spans)


def test_des_trace_analysis_json_unchanged(des_spans) -> None:
    assert _sha256(analyze(des_spans).to_dict()) == DES_ANALYZE_SHA256
    assert _sha256(fleet_analysis(des_spans).to_dict()) == DES_FLEET_SHA256
