"""Worker threads for the gate loop, and how many each op gets.

The tiled executor (:func:`repro.statevector.loop.sweep`) splits an op's
live units into contiguous runs, one per worker.  The workers are
*threads*: the hot kernels (BLAS matmuls, large-array ufuncs) release the
GIL, so they overlap on multicore hosts.  :class:`ChunkWorkerPool` is the
persistent pool one run owns; :func:`op_parts` sizes each op's fan-out
from the bytes it actually touches, so small or mostly pruned ops never
pay a pool handoff.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.errors import SimulationError

#: Below this many amplitudes ``workers="auto"`` stays serial: the state is
#: too small for threading to beat the bit-exact baseline path.
AUTO_PARALLEL_THRESHOLD = 1 << 18

#: Ceiling on auto-selected workers; explicit ``workers=`` may exceed it.
MAX_AUTO_WORKERS = 4

#: Live bytes per worker below which a pass runs inline on the calling
#: thread.  A pass's live bytes are summed over its ops: a lone sweep
#: streams each byte from memory once, while a tile pass runs all its
#: ops on a tile while it is cache-resident, so its work grows with the
#: op count.  Measured on a 2-core Xeon with BLAS on one thread: a lone
#: sweep of any kind split in two never won up to 2^22 complex128
#: amplitudes (64 MiB) and most kinds won 1.3-1.7x at 2^23, while whole
#: 20-22 qubit runs were about 15% faster with multi-op tile passes
#: split by this floor than with none split.
PARALLEL_MIN_BYTES = 1 << 26


def op_parts(live_bytes: int, pool: "ChunkWorkerPool | None") -> int:
    """Workers a pass runs on: one per :data:`PARALLEL_MIN_BYTES` of live
    bytes (summed over the pass's ops), capped at the pool size (1
    without a pool)."""
    if pool is None:
        return 1
    return max(1, min(pool.workers, live_bytes // PARALLEL_MIN_BYTES))


def resolve_workers(workers: int | str | None, num_amplitudes: int | None = None) -> int:
    """Turn a ``workers`` knob into a concrete worker count.

    ``None`` or ``"auto"`` selects ``min(cpu_count, 4)`` for states of at
    least :data:`AUTO_PARALLEL_THRESHOLD` amplitudes and ``1`` otherwise
    (small states stay on the bit-exact serial path).  Integers pass
    through validated.

    Raises:
        SimulationError: On a non-positive or non-integer worker count.
    """
    if workers is None or workers == "auto":
        if num_amplitudes is not None and num_amplitudes < AUTO_PARALLEL_THRESHOLD:
            return 1
        return max(1, min(MAX_AUTO_WORKERS, os.cpu_count() or 1))
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise SimulationError(f"workers must be a positive int or 'auto', got {workers!r}")
    if workers < 1:
        raise SimulationError(f"workers must be a positive int or 'auto', got {workers}")
    return workers


class ChunkWorkerPool:
    """A persistent pool of chunk-worker threads.

    One pool lives for the whole engine (and thus across every gate of
    every circuit the engine runs): thread startup is paid once, not per
    gate.  Tasks are plain callables over disjoint chunk sets, so no
    locking is needed; :meth:`run_tasks` blocks until all complete and
    re-raises the first failure.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise SimulationError("a worker pool needs at least 2 workers")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="chunk-worker"
        )

    def run_tasks(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute ``tasks`` concurrently; the calling thread joins the barrier."""
        if self._pool is None:
            raise SimulationError("worker pool is closed")
        if not tasks:
            return
        if len(tasks) == 1:
            tasks[0]()
            return
        futures = [self._pool.submit(task) for task in tasks[1:]]
        tasks[0]()  # the coordinator works too instead of idling at the barrier
        for future in futures:
            future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
