"""A planner-routed job is planned once: at submit, memoized per service.

``BatchService.submit`` plans each unique ``(fingerprint, backend,
precision)`` once per service and keeps the resolved ``(backend,
precision)`` on the job; ``execute_job`` runs that route without planning
again.  A job loaded from a journal has no route and plans when it runs.
"""

from __future__ import annotations

import pytest

import repro.planner
from repro.circuits.library.registry import BUILDERS
from repro.hardware.specs import PAPER_MACHINE
from repro.obs.tracer import Tracer
from repro.planner import PlannerConfig
from repro.reliability.policy import DEFAULT_POLICY
from repro.service import BatchService, JobSpec, JobState, JobStore
from repro.service.service import execute_job


@pytest.fixture
def plan_calls(monkeypatch) -> list[str]:
    """Count every ``repro.planner.plan`` call, by circuit name."""
    calls: list[str] = []
    original = repro.planner.plan

    def counting(circuit, *args, **kwargs):
        calls.append(circuit.name)
        return original(circuit, *args, **kwargs)

    monkeypatch.setattr(repro.planner, "plan", counting)
    return calls


def auto(family: str, qubits: int, **kwargs) -> JobSpec:
    kwargs.setdefault("shots", 16)
    return JobSpec(family=family, qubits=qubits, backend="auto", precision="auto", **kwargs)


class TestOnePlanPerKey:
    def test_submit_plans_each_key_once_and_execution_never(self, plan_calls) -> None:
        service = BatchService(workers=1)
        specs = [
            auto("bv", 10),
            auto("bv", 10),  # duplicate: cache hit at dispatch
            auto("bv", 10, shots=32),  # same circuit, other result key
            JobSpec(family="bv", qubits=10, backend="auto", precision="double"),
            auto("w", 10),
            auto("qft", 10),
            JobSpec(family="qft", qubits=10),  # default path: never planned
        ]
        jobs = [service.submit(spec) for spec in specs]
        assert plan_calls == ["bv_10", "bv_10", "w_10", "qft_10"]
        service.run_until_complete()
        assert len(plan_calls) == 4
        assert all(job.state is JobState.SUCCEEDED for job in jobs)
        assert jobs[0].route == jobs[2].route == ("stabilizer", "double")
        assert jobs[-1].route is None

    def test_a_fresh_service_pays_for_its_own_plans(self, plan_calls) -> None:
        for _ in range(2):
            BatchService(workers=1).submit(auto("w", 10))
        assert plan_calls == ["w_10", "w_10"]

    @pytest.mark.parametrize("traced", [False, True])
    def test_selection_counted_once_per_submitted_job(self, traced) -> None:
        service = BatchService(workers=1, tracer=Tracer() if traced else None)
        for spec in (auto("bv", 10), auto("bv", 10, shots=8), auto("w", 10)):
            service.submit(spec)
        counters = service.run_until_complete()["counters"]
        assert counters["planner.selected.stabilizer"] == 2
        assert counters["planner.selected.sparse"] == 1


def _route(spec: JobSpec) -> tuple[str, str]:
    config = PlannerConfig(
        machine=PAPER_MACHINE, backend=spec.backend, precision=spec.precision
    )
    chosen = repro.planner.plan(spec.build_circuit(), config)
    return chosen.backend, chosen.precision


def _family_widths():
    for family in sorted(BUILDERS):
        # Grover's 2^(n/2) iterations make it 438k gates at 10 qubits.
        for width in (6,) if family == "grover" else (12, 14):
            yield family, width


@pytest.mark.parametrize("family,width", list(_family_widths()))
def test_stored_route_result_equals_planned_at_execution(family, width) -> None:
    spec = auto(family, width, seed=5)
    planned_here = execute_job(spec, PAPER_MACHINE, DEFAULT_POLICY)
    reused = execute_job(spec, PAPER_MACHINE, DEFAULT_POLICY, route=_route(spec))
    assert reused == planned_here


def test_journal_recovered_job_plans_at_execution(tmp_path, plan_calls) -> None:
    journal = tmp_path / "journal.jsonl"
    submitted = BatchService(workers=1, journal=JobStore(journal)).submit(auto("w", 10))
    assert plan_calls == ["w_10"]

    restarted = BatchService(workers=1, journal=JobStore(journal))
    (recovered,) = restarted.recover()
    assert recovered.job_id == submitted.job_id
    assert recovered.route is None
    restarted.run_until_complete()
    assert plan_calls == ["w_10", "w_10"]
    assert recovered.state is JobState.SUCCEEDED
    assert recovered.result.backend == "sparse"
