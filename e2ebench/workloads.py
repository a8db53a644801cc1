"""The benchmark's four workloads.

Each workload is generated from a seed, prepares its reference outputs in
:meth:`setup`, and then runs *rounds*: a fixed group of ops that every
round repeats (one pass over the circuit list, one batch, one model op).
Rounds keep the op mix identical however many of them fit in a run, so
medians and per-op counts do not depend on where the clock stopped.

All four are closed loops with a single caller: the next op (or batch)
starts only after the previous one returned.
"""

from __future__ import annotations

import math
import random
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.circuits.library.registry import get_circuit
from repro.compression.profile import family_ratio, get_profile
from repro.core.detailed import DetailedExecutor
from repro.core.simulator import QGpuSimulator
from repro.core.versions import ALL_VERSIONS, OVERLAP
from repro.hardware.machine import Machine
from repro.hardware.specs import MULTI_V100_MACHINE, PAPER_MACHINE
from repro.hardware.trace import to_chrome_trace
from repro.obs.analyze import analyze
from repro.obs.export import spans_from_events
from repro.obs.fleet import fleet_analysis
from repro.reliability.policy import DEFAULT_POLICY, RecoveryPolicy
from repro.service import BatchService, JobSpec, JobState, execute_job
from repro.statevector import simulate

from e2ebench.tracing import NULL_RECORDER

#: Amplitude agreement with the dense reference that the simulator
#: documents for the fused path (``fusion="on"``).
ATOL = 1e-12

#: Threads used to compute reference outputs in setup (the host's 2 cores).
SETUP_THREADS = 2


@dataclass
class Op:
    op_id: str
    latency_s: float
    ok: bool


def _report_failure(op_id: str) -> None:
    print(f"op {op_id} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _max_abs_diff(state: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(state - reference)))


class _CircuitLoop:
    """Shared body of the two dense workloads: one op per circuit."""

    name = ""
    circuits_spec: tuple[tuple[str, int], ...] = ()
    setup_threads = SETUP_THREADS

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.circuits = [
            get_circuit(family, width, seed=rng.randrange(1 << 31))
            for family, width in self.circuits_spec
        ]
        self.references: list[np.ndarray] = []
        self.rounds = 0
        self.setup_info: dict[str, float] = {}

    def inputs(self) -> list[str]:
        return [c.fingerprint() for c in self.circuits]

    def setup(self) -> None:
        with ThreadPoolExecutor(self.setup_threads) as pool:
            states = list(pool.map(simulate, self.circuits))
        self.references = [state.amplitudes for state in states]
        # Warm-up: every family once at a small width, so first-call costs
        # (imports, scratch buffers, kernel caches) land in setup.
        for family, _ in self.circuits_spec:
            small = get_circuit(family, 12, seed=0)
            result = self.run_one(small)
            if _max_abs_diff(result.state.backing, simulate(small).amplitudes) > ATOL:
                raise RuntimeError(f"warm-up {small.name} disagrees with reference")

    def run_one(self, circuit):
        raise NotImplementedError

    def check(self, circuit, result, reference: np.ndarray) -> bool:
        return _max_abs_diff(result.state.backing, reference) <= ATOL

    def round(self, recorder) -> tuple[list[Op], float]:
        self.rounds += 1
        ops, busy = [], 0.0
        for circuit, reference in zip(self.circuits, self.references):
            op_id = f"{self.rounds}:{circuit.name}"
            start = time.perf_counter()
            try:
                with recorder.span(f"op:{self.name}", op=op_id):
                    result = self.run_one(circuit)
                latency = time.perf_counter() - start
                ok = self.check(circuit, result, reference)
            except Exception:
                latency = time.perf_counter() - start
                _report_failure(op_id)
                ok = False
            result = None  # release the state before the next op
            busy += latency
            ops.append(Op(op_id, latency, ok))
        return ops, busy


class Dense20(_CircuitLoop):
    """Default-knob dense runs: fused statevector path, host-sized pool."""

    name = "dense20"
    circuits_spec = (
        ("qft", 20), ("rqc", 20), ("qaoa", 20), ("hchain", 20), ("iqp", 20),
        ("qft", 22),
    )

    def run_one(self, circuit):
        return QGpuSimulator().run(circuit)


class Ckpt20(_CircuitLoop):
    """Exact per-gate path with norm checks and periodic checkpoints."""

    name = "ckpt20"
    circuits_spec = (("qft", 20), ("rqc", 20), ("qaoa", 20))
    # Serial references: with two setup threads, peak_rss_mib was bimodal
    # (about 205 or 256 MiB), most likely because the order in which the
    # threads free large buffers moves glibc's mmap threshold, so the
    # checkpointing ops then keep 0 or ~50 MiB more resident.
    setup_threads = 1
    NORM_CHECK_EVERY = 16
    CHECKPOINT_EVERY = 32

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.policy = RecoveryPolicy(norm_check_every=self.NORM_CHECK_EVERY)
        self.checkpoint_path = workdir / "ckpt20.qgck"

    def run_one(self, circuit):
        self.checkpoint_path.unlink(missing_ok=True)
        simulator = QGpuSimulator(workers=1, reliability_policy=self.policy)
        return simulator.run(
            circuit,
            checkpoint_every=self.CHECKPOINT_EVERY,
            checkpoint_path=self.checkpoint_path,
        )

    def expected_checkpoints(self, circuit) -> int:
        # A checkpoint follows every CHECKPOINT_EVERY-th gate except the last.
        return (len(circuit) - 1) // self.CHECKPOINT_EVERY

    def check(self, circuit, result, reference: np.ndarray) -> bool:
        written = result.reliability.checkpoints_written
        wanted = self.expected_checkpoints(circuit)
        on_disk = self.checkpoint_path.exists() == (wanted > 0)
        return written == wanted and on_disk and super().check(
            circuit, result, reference
        )


class AutoBatch:
    """One planner-routed batch per round through a fresh service."""

    name = "auto_batch"
    FAMILIES = ("bv", "gs", "hlf", "w", "qft", "rqc", "qaoa", "iqp", "hchain")
    WIDTHS = (14, 16, 18)
    #: A quarter of each batch repeats an earlier job (cache hits).
    DUPLICATES = 9
    SERVICE_WORKERS = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.unique = [
            JobSpec(
                family=family,
                qubits=width,
                seed=rng.randrange(1 << 31),
                backend="auto",
                precision="auto",
                shots=64,
            )
            for family in self.FAMILIES
            for width in self.WIDTHS
        ]
        # A fixed composition and submission order: the seed changes the
        # circuits, not which jobs repeat or when they arrive, so run-to-run
        # spread reflects the program rather than the draw.
        stride = len(self.unique) // self.DUPLICATES
        self.batch = self.unique + self.unique[::stride][: self.DUPLICATES]
        self.references: dict[JobSpec, object] = {}
        self.rounds = 0
        self.setup_info: dict[str, float] = {}

    def inputs(self) -> list[str]:
        return [repr(spec) for spec in self.batch]

    def _service(self, journal: Path) -> BatchService:
        return BatchService(
            workers=self.SERVICE_WORKERS, sim_workers=1, policy="sjf", journal=journal
        )

    def setup(self) -> None:
        def reference(spec: JobSpec):
            return execute_job(spec, PAPER_MACHINE, DEFAULT_POLICY, 1)

        with ThreadPoolExecutor(SETUP_THREADS) as pool:
            results = list(pool.map(reference, self.unique))
        self.references = dict(zip(self.unique, results))
        # Warm-up: one small job per family through a journaled service.
        with tempfile.TemporaryDirectory(dir=self.workdir) as scratch:
            service = self._service(Path(scratch) / "journal.jsonl")
            jobs = [
                service.submit(
                    JobSpec(family=f, qubits=10, backend="auto", precision="auto", shots=8)
                )
                for f in self.FAMILIES
            ]
            service.run_until_complete()
        if any(job.state is not JobState.SUCCEEDED for job in jobs):
            raise RuntimeError("auto_batch warm-up batch did not succeed")

    def _ok(self, job) -> bool:
        if job.state is not JobState.SUCCEEDED or job.result is None:
            return False
        expected = self.references[job.spec]
        return (
            job.result.state_sha256 == expected.state_sha256
            and job.result.counts == expected.counts
        )

    def round(self, recorder) -> tuple[list[Op], float]:
        self.rounds += 1
        submitted = []
        with tempfile.TemporaryDirectory(dir=self.workdir) as scratch:
            journal = Path(scratch) / "journal.jsonl"
            service = self._service(journal)
            start = time.perf_counter()
            try:
                for index, spec in enumerate(self.batch):
                    op_id = f"{self.rounds}:{index}"
                    submitted_at = service.clock.now()
                    with recorder.span("service.submit", op=op_id):
                        job = service.submit(spec)
                    if recorder.enabled:
                        recorder.op_of_job[job.job_id] = op_id
                    submitted.append((op_id, job, submitted_at))
                snapshot = service.run_until_complete()
            except Exception:
                _report_failure(f"{self.rounds}:batch")
                busy = time.perf_counter() - start
                ops = [
                    Op(f"{self.rounds}:{index}", busy, False)
                    for index in range(len(self.batch))
                ]
                return ops, busy
            busy = time.perf_counter() - start
            journal_text = journal.read_text()
        ops = [
            Op(
                op_id,
                job.finished_at - at if job.finished_at is not None else busy,
                self._ok(job),
            )
            for op_id, job, at in submitted
        ]
        if recorder.enabled:
            jobs = [job for _, job, _ in submitted]
            recorder.count("service.wait_s", sum(j.wait_time or 0.0 for j in jobs))
            recorder.count("service.exec_s", sum(j.run_time or 0.0 for j in jobs))
            recorder.count("service.cache_hits", snapshot["cache"]["hits"])
            recorder.count(
                "service.admission_deferrals", snapshot["admission"]["deferrals"]
            )
            recorder.count("service.journal_bytes", len(journal_text.encode()))
            recorder.count("service.journal_records", journal_text.count("\n"))
            for name, value in snapshot["counters"].items():
                if name.startswith("planner.selected."):
                    recorder.count(name, value)
        return ops, busy


def critical_path_covers_root(critical) -> bool:
    """The critical path's segments tile its root interval exactly."""
    segments = critical.segments
    return (
        bool(segments)
        and segments[0].start == critical.root_start
        and segments[-1].end == critical.root_end
        and all(a.end == b.start for a, b in zip(segments, segments[1:]))
    )


class ModelTrace:
    """Timed model estimates plus one multi-device DES trace, analyzed."""

    name = "model_trace"
    ESTIMATE_CIRCUITS = (("qft", 30), ("rqc", 30), ("hchain", 32), ("qaoa", 34))
    PROFILE_FAMILIES = ("qft", "rqc", "hchain", "qaoa")
    DES_DEVICES = 4
    DES_CHUNK_BITS = 14
    DES_CAPACITY_BYTES = 1 << 22

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.circuits = [
            get_circuit(family, width, seed=rng.randrange(1 << 31))
            for family, width in self.ESTIMATE_CIRCUITS
        ]
        self.des_circuit = get_circuit("qft", 20)
        self.expected: tuple[float, float, int] | None = None
        self.rounds = 0
        self.setup_info: dict[str, float] = {}

    def inputs(self) -> list[str]:
        return [c.fingerprint() for c in (*self.circuits, self.des_circuit)]

    def setup(self) -> None:
        # Cold compression profiles: the ratios every estimate reads.
        get_profile.cache_clear()
        start = time.perf_counter()
        for family in self.PROFILE_FAMILIES:
            family_ratio(family)
        self.setup_info["compression.profile_s"] = time.perf_counter() - start
        # Warm-up: the same op on small inputs.
        small = [get_circuit(f, 24, seed=0) for f, _ in self.ESTIMATE_CIRCUITS]
        self._op(NULL_RECORDER, small, get_circuit("qft", 16))

    def _executor(self) -> DetailedExecutor:
        return DetailedExecutor(
            Machine(MULTI_V100_MACHINE),
            chunk_bits=self.DES_CHUNK_BITS,
            capacity_bytes=self.DES_CAPACITY_BYTES,
            devices=self.DES_DEVICES,
        )

    def _op(self, recorder, circuits, des_circuit):
        modelled = 0.0
        for circuit in circuits:
            for version in ALL_VERSIONS:
                with recorder.span("model.estimate"):
                    timed = QGpuSimulator(version=version).estimate(circuit)
                modelled += timed.total_seconds
        with recorder.span("model.des"):
            run = self._executor().execute(des_circuit, OVERLAP)
        with recorder.span("obs.export"):
            events = to_chrome_trace(run.timeline)
        with recorder.span("obs.parse"):
            spans = spans_from_events(events)
        with recorder.span("obs.analyze"):
            analysis = analyze(spans)
        with recorder.span("obs.fleet"):
            fleet = fleet_analysis(spans)
        return modelled + run.makespan, run, spans, analysis, fleet

    def round(self, recorder) -> tuple[list[Op], float]:
        self.rounds += 1
        op_id = str(self.rounds)
        start = time.perf_counter()
        try:
            with recorder.span(f"op:{self.name}", op=op_id):
                modelled, run, spans, analysis, fleet = self._op(
                    recorder, self.circuits, self.des_circuit
                )
            latency = time.perf_counter() - start
            link_bytes = sum(run.link_bytes.values())
            observed = (modelled, link_bytes, len(run.timeline.records))
            if self.expected is None:
                self.expected = observed
            ok = (
                math.isfinite(modelled)
                and observed == self.expected
                and fleet.total_bytes == run.bytes_h2d + run.bytes_d2h
                and critical_path_covers_root(analysis.critical)
            )
        except Exception:
            latency = time.perf_counter() - start
            _report_failure(op_id)
            return [Op(op_id, latency, False)], latency
        if recorder.enabled:
            recorder.count("model.des_tasks", len(run.timeline.records))
            recorder.count("model.link_bytes", link_bytes)
            recorder.count("obs.spans", len(spans))
            recorder.constants["model.modelled_s"] = modelled
        return [Op(op_id, latency, ok)], latency


WORKLOADS = {w.name: w for w in (Dense20, Ckpt20, AutoBatch, ModelTrace)}
