"""Host context for a run: fingerprint, thread settings and copy bandwidth.

The copy probe streams one array into another, each at least
:data:`PROBE_LLC_MULTIPLE` times the last-level cache, so neither side
fits in cache.  It runs in a child interpreter so that its arrays never
count towards the workload's peak resident memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

#: Environment variables the benchmark pins before NumPy loads, so the
#: workloads use no more threads than the simulator's own pools request.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Each probe array is this many times the last-level cache.
PROBE_LLC_MULTIPLE = 4

#: LLC assumed when the host reports none.
FALLBACK_LLC_BYTES = 32 << 20

_PROBE = r"""
import json, statistics, sys, time
import numpy as np
count = int(sys.argv[1]) // 8
source = np.ones(count)
target = np.empty(count)
np.copyto(target, source)  # faults in the target's pages
rates = []
for _ in range(5):
    start = time.perf_counter()
    np.copyto(target, source)
    rates.append(2 * source.nbytes / (time.perf_counter() - start) / 1e9)
print(json.dumps({"copy_gbps": statistics.median(rates), "samples": rates}))
"""


def pin_threads() -> dict[str, str]:
    """Pin every BLAS/OpenMP pool to one thread; returns the settings."""
    for name in THREAD_ENV:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_ENV}


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def llc_bytes() -> int:
    """Size of the highest-level CPU cache the kernel reports."""
    best_level, best_size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if level > best_level or (level == best_level and size > best_size):
            best_level, best_size = level, size
    return best_size or FALLBACK_LLC_BYTES


def copy_bandwidth(array_bytes: int) -> dict[str, Any]:
    """Median copy rate (read + write bytes per second, in GB/s)."""
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(array_bytes)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def probe() -> dict[str, Any]:
    """Fingerprint, thread settings, LLC and the measured copy bandwidth."""
    import numpy as np

    from repro.obs.ledger import environment_fingerprint

    llc = llc_bytes()
    array_bytes = PROBE_LLC_MULTIPLE * llc
    bandwidth = copy_bandwidth(array_bytes)
    return {
        "fingerprint": environment_fingerprint(),
        "nproc": os.cpu_count() or 1,
        "numpy": np.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "llc_bytes": llc,
        "probe_array_bytes": array_bytes,
        "copy_gbps": bandwidth["copy_gbps"],
        "copy_gbps_samples": bandwidth["samples"],
    }
