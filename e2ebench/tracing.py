"""Spans the benchmark records around its calls into each layer.

The traced run wraps the public functions of each layer (see
:func:`instrumented`) and records one :class:`Span` per call: its name,
start, end, parent and the id of the op it belongs to.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the part
of its interval that its child spans cover.

The untraced run uses :data:`NULL_RECORDER` and installs no wrappers, so
the only cost left in it is one no-op context manager per op.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    op: str | None
    lane: str
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory span and count store, safe to use from any thread."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Service job id -> benchmark op id, so worker-thread spans join the op.
    op_of_job: dict[str, str] = field(default_factory=dict)
    #: Values every traced op must reproduce exactly (set, not summed).
    constants: dict[str, float] = field(default_factory=dict)
    enabled: bool = True

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[Span]:
        """Record ``name`` around the block; ``op`` defaults to the parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            parent.span_id if parent is not None else None,
            op,
            threading.current_thread().name,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, increment: float = 1) -> None:
        with self._lock:
            self.counts[name] += increment

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


class _NullSpan:
    """Accepts and drops attribute writes (``span.op = ...``)."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        pass


class _NullRecorder:
    enabled = False
    _span = _NullSpan()

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[_NullSpan]:
        yield self._span

    def count(self, name: str, increment: float = 1) -> None:
        pass


NULL_RECORDER = _NullRecorder()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += selfs[span.span_id]
    return dict(out)


def write_spans(spans: list[Span], path: Path) -> None:
    """Write every span, with its self time, as one JSON document."""
    selfs = self_times(spans)
    origin = min((s.start for s in spans), default=0.0)
    records = [
        {
            "id": s.span_id,
            "name": s.name,
            "parent": s.parent,
            "op": s.op,
            "lane": s.lane,
            "start_s": s.start - origin,
            "end_s": s.end - origin,
            "self_s": selfs[s.span_id],
        }
        for s in sorted(spans, key=lambda s: (s.start, s.span_id))
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": records}, indent=None) + "\n")


# -- wrappers around the layers' public functions ------------------------------


def _wrap_run(recorder: Recorder, run: Callable) -> Callable:
    def wrapper(self, circuit, *args, **kwargs):
        with recorder.span("core.run"):
            result = run(self, circuit, *args, **kwargs)
        recorder.count("core.chunk_updates", result.chunk_updates_total)
        recorder.count("core.chunk_updates_skipped", result.chunk_updates_skipped)
        if result.reliability is not None:
            recorder.count(
                "reliability.checkpoints", result.reliability.checkpoints_written
            )
        return result

    return wrapper


def _wrap_reorder(recorder: Recorder, reorder: Callable) -> Callable:
    def wrapper(circuit, *args, **kwargs):
        with recorder.span("core.reorder"):
            ordered = reorder(circuit, *args, **kwargs)
        recorder.count("core.gates", len(ordered))
        return ordered

    return wrapper


def _wrap_fuse(recorder: Recorder, fuse: Callable) -> Callable:
    # The planner's feature pass and the DES executor call the same
    # function; only the functional engine's pass (directly under
    # core.run) is the statevector layer's fuse step.
    def wrapper(gates, *args, **kwargs):
        parent = recorder.current()
        if parent is None or parent.name != "core.run":
            return fuse(gates, *args, **kwargs)
        with recorder.span("statevector.fuse"):
            ops = fuse(gates, *args, **kwargs)
        recorder.count("statevector.sweeps_saved", len(gates) - len(ops))
        return ops

    return wrapper


def _wrap_checkpoint(recorder: Recorder, save: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span("reliability.checkpoint"):
            written = save(*args, **kwargs)
        recorder.count("reliability.checkpoint_bytes", written)
        return written

    return wrapper


def _wrap_backend(recorder: Recorder, run_backend: Callable) -> Callable:
    def wrapper(circuit, backend, *args, **kwargs):
        with recorder.span(f"engine.{backend}"):
            return run_backend(circuit, backend, *args, **kwargs)

    return wrapper


def _wrap_execute_job(recorder: Recorder, execute: Callable) -> Callable:
    # The service calls execute_job(spec, machine, sim_recovery,
    # sim_workers, tracer, job_id, ...) on a worker thread; the job id
    # names the op the benchmark assigned at submit.
    def wrapper(*args, **kwargs):
        job_id = args[5] if len(args) > 5 else kwargs.get("job_id")
        with recorder.span("service.exec", op=recorder.op_of_job.get(job_id)):
            return execute(*args, **kwargs)

    return wrapper


def _wrap_plain(recorder: Recorder, name: str, function: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(recorder: Recorder, counters) -> Iterator[Recorder]:
    """Wrap each layer's public entry points and install kernel counters.

    ``counters`` is a :class:`repro.obs.counters.CounterRegistry` that the
    statevector kernels count calls, bytes and seconds into.  Everything
    is restored on exit.
    """
    import repro.core.simulator as simulator
    import repro.planner as planner
    import repro.service.service as service
    import repro.statevector.fusion as fusion
    from repro.statevector.kernels import set_kernel_counters

    plan_module = sys.modules["repro.planner.plan"]
    patches = [
        (simulator.QGpuSimulator, "run", lambda f: _wrap_run(recorder, f)),
        (simulator, "reorder", lambda f: _wrap_reorder(recorder, f)),
        (fusion, "fuse_slabs", lambda f: _wrap_fuse(recorder, f)),
        (simulator, "save_checkpoint", lambda f: _wrap_checkpoint(recorder, f)),
        (simulator, "check_norm",
         lambda f: _wrap_plain(recorder, "reliability.norm_check", f)),
        (planner, "plan", lambda f: _wrap_plain(recorder, "planner.plan", f)),
        (plan_module, "analyze_circuit",
         lambda f: _wrap_plain(recorder, "planner.features", f)),
        (planner, "run_backend", lambda f: _wrap_backend(recorder, f)),
        (service, "execute_job", lambda f: _wrap_execute_job(recorder, f)),
    ]
    originals = []
    try:
        for owner, attr, wrap in patches:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        previous = set_kernel_counters(counters, timing=True)
        try:
            yield recorder
        finally:
            set_kernel_counters(*previous)
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
