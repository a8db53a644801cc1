"""In-place kernels and work counters for the functional engine.

* :func:`apply_single_qubit_inplace` - the tiled *in-place* sweep of a
  single-qubit gate (or width-1 slab): the buffer is viewed as
  ``(above, 2, below)`` and each L2-sized tile runs one batched matmul
  into a thread-local scratch, copied back while the tile is still hot.
  No second full-size buffer, so the sweep never pays write-allocate
  traffic on a cold destination; real gate matrices additionally run on
  the float view of the buffer (half the arithmetic for the same traffic).
* :func:`count_kernel` / :func:`kernel_work` - the kernel invocation and
  work counters (amps, bytes, seconds) the gate loop records per op into
  the registry installed with :func:`set_kernel_counters`.

The gate loop in :mod:`repro.statevector.loop` drives these kernels over
L2-sized units of the backing buffer.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import SimulationError

#: Installed :class:`~repro.obs.counters.CounterRegistry` (or None).  A
#: module-level hook rather than a parameter so the hot kernel call sites
#: stay signature-stable; dispatchers count per *gate* (batched), never per
#: chunk, so the disabled cost is one None-check per gate.
_kernel_counters = None

#: Whether dispatch wall-timing (``kernel_seconds.<kind>``) is recorded.
#: Deterministic-clock runs install ``timing=False``: wall seconds would
#: break the byte-identical logical-clock trace promise, while the
#: amps/bytes work counters are exact integers and stay.
_kernel_timing = True


def set_kernel_counters(registry, timing=True):
    """Install the registry kernel work is recorded into.

    Pass ``None`` to disable counting; ``timing=False`` keeps the
    deterministic amps/bytes counters but skips wall-seconds (what the
    simulator installs for logical-clock tracers).  Returns the previous
    ``(registry, timing)`` pair - restore it with
    ``set_kernel_counters(*previous)``.
    """
    global _kernel_counters, _kernel_timing
    previous = (_kernel_counters, _kernel_timing)
    _kernel_counters = registry
    _kernel_timing = timing
    return previous


def count_kernel(kind: str, n: int = 1) -> None:
    """Record ``n`` kernel invocations of ``kind`` (no-op when uninstalled)."""
    registry = _kernel_counters
    if registry is not None:
        registry.count(f"kernels.{kind}", n)


class _NullWork:
    """Shared no-op work scope for the uninstalled-registry path."""

    __slots__ = ()

    def __enter__(self) -> "_NullWork":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_WORK = _NullWork()


class _KernelWork:
    """Times one batched kernel dispatch; records amps, bytes, seconds."""

    __slots__ = ("kind", "amps", "nbytes", "_start")

    def __init__(self, kind: str, amps: int, nbytes: int) -> None:
        self.kind = kind
        self.amps = amps
        self.nbytes = nbytes
        self._start = 0.0

    def __enter__(self) -> "_KernelWork":
        self._start = time.perf_counter() if _kernel_timing else 0.0
        return self

    def __exit__(self, *exc_info: object) -> bool:
        registry = _kernel_counters
        if registry is not None:
            if _kernel_timing:
                elapsed = time.perf_counter() - self._start
                registry.add(f"kernel_seconds.{self.kind}", elapsed)
            registry.add(f"kernel_amps.{self.kind}", self.amps)
            registry.add(f"kernel_bytes.{self.kind}", self.nbytes)
        return False


def kernel_work(kind: str, amps: int, itemsize: int = 16):
    """Work scope around one batched kernel dispatch of ``kind``.

    Use as a context manager wrapping the whole per-gate dispatch (never
    per chunk); on exit it accumulates ``kernel_seconds.<kind>``,
    ``kernel_amps.<kind>`` and ``kernel_bytes.<kind>`` into the installed
    registry - the live-roofline inputs :mod:`repro.obs.roofline` turns
    into achieved amps/s and bytes/amp per kernel kind.

    Bytes use the DES cost model's convention (read + write every touched
    amplitude: ``2 * amps * itemsize``, see
    :class:`~repro.core.executor`), so achieved bandwidth is directly
    comparable with the model's bound; kinds that move extra traffic
    (``gather``'s copy in/out) simply land further from the roof, which
    is the point of measuring them.

    When no registry is installed this returns a shared no-op scope: the
    disabled cost is one module-global read per gate.
    """
    if _kernel_counters is None:
        return _NULL_WORK
    return _KernelWork(kind, amps, 2 * amps * itemsize)


#: Pair elements per scratch tile for the in-place kernels: sized so a
#: whole (tile, scratch) working set stays L2-resident - measured fastest
#: at 256-512 KiB across qubit positions, distinctly ahead of both larger
#: tiles (L2 spill) and whole-buffer double-buffering (write-allocate
#: traffic on a second full-size destination).
_SCRATCH_AMPS = 1 << 15

#: Pair strides (in elements of the working dtype) up to which the
#: in-place kernel multiplies whole rows by ``M kron I`` instead of
#: batching tiny ``2 x stride`` matmuls (measured 2-6x faster for the
#: three lowest qubits at 2^20 amplitudes).
_KRON_MAX_BELOW = 8

#: Thread-local scratch store: the tiled in-place kernel reuses one
#: tile-sized vector per (thread, dtype) instead of allocating a fresh
#: temporary on every call.
_scratch_store = threading.local()


def _tile_scratch(dtype: np.dtype, elems: int) -> np.ndarray:
    """One thread-local contiguous scratch vector of at least ``elems``."""
    tiles = getattr(_scratch_store, "tiles", None)
    if tiles is None:
        tiles = _scratch_store.tiles = {}
    key = np.dtype(dtype).str
    vec = tiles.get(key)
    if vec is None or vec.size < elems:
        vec = tiles[key] = np.empty(elems, dtype=dtype)
    return vec


def _matmul_tile(matrix: np.ndarray, tile: np.ndarray, scratch: np.ndarray) -> None:
    """Apply ``matrix`` to one ``(rows, 2, cols)`` tile, in place.

    The batched matmul lands in the cache-resident ``scratch`` and is
    copied straight back while the tile is still hot - the buffer never
    needs a full-size second copy.
    """
    out = scratch[: tile.size].reshape(tile.shape)
    np.matmul(matrix, tile, out=out)
    tile[...] = out


def apply_single_qubit_inplace(
    buffer: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    part: int = 0,
    parts: int = 1,
) -> None:
    """Tiled in-place pair update of a contiguous buffer (no second buffer).

    The buffer is viewed as ``(above, 2, below)`` with ``qubit`` on the
    middle axis and each L2-sized tile runs one batched matmul into the
    shared scratch, copied straight back while the tile is hot — no
    output buffer, no swap, no gather, and no write-allocate traffic on a
    second full-size destination (measured ~1.4x over a double-buffer
    sweep at 2^22 amplitudes).  Real gate matrices additionally run on
    the float view of the buffer, halving the matmul arithmetic.

    Args:
        buffer: Contiguous amplitude buffer, updated in place.
        matrix: The 2x2 gate unitary.
        qubit: Target qubit index relative to ``buffer`` (``buffer.size``
            must cover ``2^(qubit+1)`` amplitudes).
        part: This worker's slab index in ``[0, parts)``.
        parts: Number of disjoint contiguous slabs the work is split
            into; the union over all parts covers the buffer exactly.
    """
    if matrix.shape != (2, 2):
        raise SimulationError(f"pair kernel needs a 2x2 matrix, got {matrix.shape}")
    if buffer.size < (1 << (qubit + 1)):
        raise SimulationError(
            f"buffer of {buffer.size} amps cannot host qubit {qubit}"
        )
    below = 1 << qubit
    above = buffer.size >> (qubit + 1)
    matrix = np.asarray(matrix, dtype=buffer.dtype)
    if buffer.dtype.kind == "c" and not matrix.imag.any():
        # Real gate matrix (h, x, the recipe's dominant single-qubit
        # sweeps): a real coefficient scales the re/im components of a
        # complex amplitude independently, so the identical sweep runs as
        # a *real* matmul over the float view - half the arithmetic for
        # the same memory traffic, and any tile or part boundary on the
        # float axis stays correct because every float component
        # transforms independently.
        float_dtype = np.float32 if buffer.dtype == np.complex64 else np.float64
        matrix = np.ascontiguousarray(matrix.real, dtype=float_dtype)
        buffer = buffer.view(float_dtype)
        below *= 2
    if below <= _KRON_MAX_BELOW:
        # A low qubit pairs elements a few apart: batching (2, below)
        # blocks would run one tiny matmul each.  Instead every row of
        # 2*below elements is one pair block, and the whole tile is a
        # single (rows x 2*below) @ (M kron I_below)^T product.
        block = np.ascontiguousarray(
            np.kron(matrix, np.eye(below, dtype=matrix.dtype)).T
        )
        rows = buffer.reshape(above, 2 * below)
        scratch = _tile_scratch(buffer.dtype, 2 * _SCRATCH_AMPS)
        step = max(1, _SCRATCH_AMPS // below)
        for row in range(part * above // parts, (part + 1) * above // parts, step):
            tile = rows[row : min(row + step, (part + 1) * above // parts)]
            out = scratch[: tile.size].reshape(tile.shape)
            np.matmul(tile, block, out=out)
            tile[...] = out
        return
    view = buffer.reshape(above, 2, below)
    # The column-split path keeps whole rows per tile, so the scratch must
    # cover one full row pair even when the budget is tiny.
    scratch = _tile_scratch(buffer.dtype, max(2 * _SCRATCH_AMPS, 2 * above))
    if above >= parts:
        start = part * above // parts
        stop = (part + 1) * above // parts
        if below <= _SCRATCH_AMPS:
            step = max(1, _SCRATCH_AMPS // below)
            for row in range(start, stop, step):
                end = min(row + step, stop)
                _matmul_tile(matrix, view[row:end], scratch)
        else:
            # A single batch row overflows the scratch budget (low `above`,
            # huge `below`): tile along the column axis within each row.
            for row in range(start, stop):
                for col in range(0, below, _SCRATCH_AMPS):
                    end = min(col + _SCRATCH_AMPS, below)
                    _matmul_tile(matrix, view[row : row + 1, :, col:end], scratch)
        return
    # Too few batch rows (qubit near the top): split the column axis instead.
    start = part * below // parts
    stop = (part + 1) * below // parts
    step = max(1, _SCRATCH_AMPS // max(1, 2 * above))
    for col in range(start, stop, step):
        end = min(col + step, stop)
        _matmul_tile(matrix, view[:, :, col:end], scratch)
