"""The functional engine's one gate loop: compile, prune by mask, sweep tiles.

:meth:`repro.core.simulator.QGpuSimulator.run` and
:meth:`repro.statevector.chunks.ChunkedStateVector.run` both execute
through :func:`run_gate_loop`, which works in three steps:

1. **Compile once.**  :func:`compile_ops` turns the (already reordered)
   gate stream into the op list: fusion slabs when fusion is on, the bare
   gates otherwise.
2. **Prune by mask.**  Before each op, a :class:`LiveTracker` reports the
   live set as fixed index bits: amplitude ``i`` can be non-zero only if
   ``i & mask == value``.  Algorithm 1's involvement mask (uninvolved
   qubits fixed at 0) and the basis tracker's fixed bits both have this
   form.  The op's chunk-group statistics follow in closed form
   (:class:`OpLive`), and its live units come from one vectorized
   ``(index & mask) == value`` test (:func:`live_indices`).
3. **Sweep tiles.**  :func:`sweep` runs the op over L2-sized units of the
   backing buffer (``2^TILE_BITS`` amplitudes), never over the model's
   ``2^chunk_bits`` chunks.  A diagonal op is one multiply per unit, with
   its factor built once per pattern of the op's qubits above the unit.
   A single-qubit op with everything live is one tiled in-place sweep.
   Only ops whose qubits reach above the unit gather their partner units
   into a scratch buffer.  When nothing needs to see the state between
   ops (no hooks, no per-op spans), consecutive ops that are all live and
   act within a tile run tile by tile (:func:`sweep_tiles`): each tile
   takes every op while it is cache-resident, one pass over memory for
   the whole run.

``chunk_bits`` is therefore the paper model's granularity and pruning's
(which chunk groups are skipped, and what ``chunk_updates_*`` count), not
the unit of execution.  A unit never straddles a pruned chunk: units are
capped at the lowest fixed bit, so pruned amplitudes are never touched.

Everything around the arithmetic is a hook: ``before`` hooks run ahead of
each applied op (cancellation polls, the fault guard's gate cursor),
``after`` hooks after it (norm checks, checkpoints, ``stop_after``), and
``execute`` replaces :func:`sweep` for fault-guarded runs that must move
every chunk group across a simulated link.

Numerics: with ``workers == 1`` every bare gate runs through
:func:`~repro.statevector.apply.apply_gate` and every diagonal through the
same multiply, so serial results are bit-identical across chunk sizes,
guarded runs, checkpoint/resume and ``stop_after``.  With ``workers > 1``
single-qubit gates take the in-place matmul kernel; results agree with
the serial engine to ``atol <= 1e-12``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.circuits.gates import Gate
from repro.hardware.specs import AMP_BYTES
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.statevector import fusion as _fusion
from repro.statevector.apply import apply_gate
from repro.statevector.fusion import GateSlab, slab_members
from repro.statevector.kernels import (
    _SCRATCH_AMPS,
    apply_single_qubit_inplace,
    count_kernel,
    kernel_work,
)
from repro.statevector.parallel import ChunkWorkerPool, op_parts

#: Amplitudes per execution unit: the in-place kernels' L2-sized tile.
TILE_BITS = _SCRATCH_AMPS.bit_length() - 1

#: A state splits into at least ``2^_MIN_UNITS_BITS`` units, so per-op
#: temporaries (a unit-sized scratch, a diagonal factor) stay a small
#: share of a small state - but a unit keeps at least ``2^_MIN_UNIT_BITS``
#: amplitudes: BLAS takes other code paths (other rounding) for tiny
#: operands, and serial results must not depend on the unit size.
_MIN_UNITS_BITS = 5
_MIN_UNIT_BITS = 10

#: Shortest period (in index bits) a diagonal factor is built over: long
#: enough that the repeated multiply runs on contiguous rows, small
#: enough that the factor stays in L1.
_MIN_FACTOR_BITS = 10

#: A tile batch holds diagonal factors worth at most this share of the
#: state before it runs: a long batch of wide diagonals would otherwise
#: hold every op's factors at once.
_FACTOR_SHARE = 16

Op = Gate | GateSlab


def compile_ops(gates: Sequence[Gate], chunk_bits: int, fusion: bool) -> list[Op]:
    """The op list a run executes: fusion slabs, or the bare gates.

    ``fuse_slabs`` is looked up on its module at call time, so anything
    wrapping :func:`repro.statevector.fusion.fuse_slabs` sees this call.
    """
    gates = list(gates)
    if not fusion:
        return gates
    return _fusion.fuse_slabs(gates, chunk_bits=chunk_bits)


def _tile_bits(num_qubits: int) -> int:
    """Index bits of one execution unit for a ``num_qubits`` state."""
    return min(
        TILE_BITS, max(num_qubits - _MIN_UNITS_BITS, min(num_qubits, _MIN_UNIT_BITS))
    )


def _low_bit(mask: int, default: int) -> int:
    return (mask & -mask).bit_length() - 1 if mask else default


def _bits_of(qubits, above: int) -> int:
    """Bitmask of ``qubits >= above``, shifted down by ``above``."""
    out = 0
    for q in qubits:
        if q >= above:
            out |= 1 << (q - above)
    return out


def live_indices(num_bits: int, mask: int, value: int) -> np.ndarray:
    """Indices ``i < 2^num_bits`` with ``i & mask == value``, ascending."""
    index = np.arange(1 << num_bits, dtype=np.int64)
    if not mask:
        return index
    return np.flatnonzero((index & mask) == value)


def _subset_offsets(bits: int) -> np.ndarray:
    """Every subset of ``bits``, ordered by the selector over its set bits."""
    offsets = np.zeros(1, dtype=np.int64)
    position = 0
    while bits >> position:
        if bits >> position & 1:
            offsets = np.concatenate([offsets, offsets | (1 << position)])
        position += 1
    return offsets


def live_chunk_groups(
    num_qubits: int,
    chunk_bits: int,
    qubits: Sequence[int],
    mask: int = 0,
    value: int = 0,
) -> np.ndarray:
    """Live chunk groups of a gate, one row per group.

    Each row holds the ``2^k`` chunk indices (``k`` = gate qubits at or
    above ``chunk_bits``) that must be co-resident to apply the gate, in
    ascending outside-bit order.  A group is live when any member can
    hold a non-zero amplitude under the fixed bits ``(mask, value)``; the
    default mask keeps every group.
    """
    outside = _bits_of(qubits, chunk_bits)
    high_mask = (mask >> chunk_bits) & ~outside
    bases = live_indices(
        num_qubits - chunk_bits, high_mask | outside, (value >> chunk_bits) & high_mask
    )
    return bases[:, None] | _subset_offsets(outside)[None, :]


class LiveTracker:
    """Pruning knowledge along a run: Algorithm 1 and, optionally, basis bits.

    Args:
        num_qubits: Register width.
        basis: Track per-qubit basis states
            (:class:`~repro.core.basis_tracking.BasisTracker`) and prune by
            their fixed bits instead of the involvement mask.
        diagonal_aware: Diagonal gates do not involve new qubits.
    """

    def __init__(
        self, num_qubits: int, *, basis: bool = False, diagonal_aware: bool = False
    ) -> None:
        # Imported lazily: repro.core's package __init__ imports the
        # simulator, which imports this package.
        from repro.core.basis_tracking import BasisTracker
        from repro.core.involvement import InvolvementTracker

        self.num_qubits = num_qubits
        self.involvement = InvolvementTracker(num_qubits)
        self.basis = BasisTracker(num_qubits) if basis else None
        self.diagonal_aware = diagonal_aware

    @property
    def mask(self) -> int:
        """The involvement bitmask (what checkpoints record)."""
        return self.involvement.mask

    def observe(self, op: Op) -> None:
        """Update with every gate ``op`` stands for.

        A slab only moves amplitude between indices that differ on its
        qubits, so pruning with the post-slab knowledge stays exact.
        """
        for member in slab_members(op):
            if self.basis is not None:
                self.basis.observe(member)
            self.involvement.involve(member, diagonal_aware=self.diagonal_aware)

    def fixed(self) -> tuple[int, int]:
        """``(mask, value)``: live amplitudes satisfy ``i & mask == value``."""
        if self.basis is not None:
            return self.basis.fixed_masks()
        return ((1 << self.num_qubits) - 1) & ~self.involvement.mask, 0


@dataclass(frozen=True)
class OpLive:
    """One op's live set: chunk-group statistics and the amplitudes to touch.

    Attributes:
        total: Chunk groups the unoptimized engine updates for this op.
        live: Groups with at least one member chunk that can be non-zero.
        mask / value: Amplitude ``i`` is touched iff ``i & mask == value``.
            Every fixed bit is at or above ``chunk_bits``: a chunk is either
            wholly touched or wholly skipped.
        outside_bits: The op's qubits at or above ``chunk_bits``, as a
            chunk-index bitmask.
    """

    total: int
    live: int
    mask: int
    value: int
    outside_bits: int

    @classmethod
    def of(
        cls, op: Op, num_qubits: int, chunk_bits: int, mask: int = 0, value: int = 0
    ) -> "OpLive":
        """Closed form over the fixed bits ``(mask, value)`` (0, 0 = no pruning).

        A group (chunks differing only on the op's outside bits) is live
        iff its fixed bits off the outside bits match, so ``live`` is
        ``2^(free chunk-index bits)``.  A diagonal op never moves
        amplitude, so it touches only the member chunks that are live
        themselves; any other op touches whole live groups.
        """
        outside = _bits_of(op.qubits, chunk_bits)
        high_mask = mask >> chunk_bits
        group_mask = high_mask & ~outside
        free = num_qubits - chunk_bits - outside.bit_count()
        touched = high_mask if op.is_diagonal else group_mask
        return cls(
            total=1 << free,
            live=1 << (free - group_mask.bit_count()),
            mask=touched << chunk_bits,
            value=((value >> chunk_bits) & touched) << chunk_bits,
            outside_bits=outside,
        )

    @property
    def skipped(self) -> int:
        return self.total - self.live


# -- the tiled executor ---------------------------------------------------------


def _uses_inplace(op: Op, exact: bool) -> bool:
    """Whether a single-qubit op takes the in-place matmul kernel.

    Serial runs keep :func:`apply_gate`'s arithmetic for bare gates, so
    they stay bit-identical to the per-gate engine; slabs and pooled runs
    take the faster kernel.
    """
    return isinstance(op, GateSlab) or not exact


def diagonal_factor(op: Op, dtype, local=None, pattern: int = 0):
    """Multiplier of a diagonal op over one aligned unit of amplitudes.

    Amplitude ``i`` is multiplied by ``d[local(i)]``, where ``local(i)``
    collects the bits of ``i`` at the op's qubits.  Within a unit, the
    bits at qubits above the unit are a fixed ``pattern``; the rest vary
    with the offset.  ``local`` is the offset part, from
    :func:`diagonal_local` (None when every op qubit is above the unit, in
    which case the factor is a scalar).  The factor repeats along the
    unit with the period of ``local``.
    """
    diagonal = op.diagonal()
    if local is None:
        return complex(diagonal[pattern])
    return np.asarray(diagonal[local | pattern], dtype=dtype)


def diagonal_local(op: Op, unit_bits: int) -> np.ndarray | None:
    """The within-unit part of ``local(i)`` over one period of the factor.

    The period covers the op's qubits inside the unit, and at least
    ``2^_MIN_FACTOR_BITS`` offsets so each multiply runs on long rows.
    None when no op qubit is inside the unit.
    """
    inside = [(pos, q) for pos, q in enumerate(op.qubits) if q < unit_bits]
    if not inside:
        return None
    period = max(max(q for _, q in inside) + 1, min(unit_bits, _MIN_FACTOR_BITS))
    offsets = np.arange(1 << period)
    local = np.zeros(1 << period, dtype=np.intp)
    for pos, q in inside:
        local |= (offsets >> q & 1) << pos
    return local


def _multiply(buffer: np.ndarray, factor) -> None:
    """``buffer *= factor``, a vector factor repeating along the buffer."""
    if isinstance(factor, np.ndarray):
        buffer = buffer.reshape(-1, factor.size)
    buffer *= factor


def _patterns(op: Op, starts: np.ndarray) -> np.ndarray:
    """Each unit's pattern of the op's qubit bits (zeros for inside qubits)."""
    patterns = np.zeros(starts.size, dtype=np.intp)
    for pos, q in enumerate(op.qubits):
        patterns |= (starts >> q & 1) << pos
    return patterns


def apply_to_buffer(
    buffer: np.ndarray, op: Op, exact: bool = True, scratch: np.ndarray | None = None
) -> None:
    """Apply ``op`` (qubits relative to ``buffer``) to a whole buffer in place.

    ``scratch`` (``2 * buffer.size`` elements) hosts
    :func:`apply_gate`'s temporaries, so a sweep allocates them once per
    op instead of once per unit.
    """
    if op.is_diagonal:
        multiply_diagonal(buffer, op)
    elif op.num_qubits == 1 and _uses_inplace(op, exact):
        apply_single_qubit_inplace(buffer, op.matrix(), op.qubits[0])
    else:
        apply_gate(buffer, op, scratch)


def multiply_diagonal(buffer: np.ndarray, op: Op, start: int = 0) -> None:
    """Multiply an aligned unit of amplitudes (global indices from
    ``start``) by the diagonal of ``op``, the same multiply a sweep does."""
    bits = buffer.size.bit_length() - 1
    pattern = int(_patterns(op, np.array([start]))[0])
    _multiply(buffer, diagonal_factor(op, buffer.dtype, diagonal_local(op, bits), pattern))


def _split(items: np.ndarray, parts: int) -> list[np.ndarray]:
    return [chunk for chunk in np.array_split(items, parts) if chunk.size]


def _run_parts(pool, tasks: list[Callable[[], None]], tracer: Tracer) -> None:
    """Run per-worker tasks: inline when there is one, else on the pool.

    Pooled tasks become ``tiles`` spans on their worker's lane, parented
    to the coordinator's open op span.
    """
    if pool is None or len(tasks) <= 1:
        for task in tasks:
            task()
        return
    if tracer.enabled:
        parent = tracer.current_parent()

        def traced(worker: int, task: Callable[[], None]) -> Callable[[], None]:
            def run() -> None:
                with tracer.span("tiles", stage="compute", parent=parent, worker=worker):
                    task()

            return run

        tasks = [traced(worker, task) for worker, task in enumerate(tasks)]
    if tracer is not NULL_TRACER:
        tracer.counters.count("pool.tasks", len(tasks))
    pool.run_tasks(tasks)


def sweep(
    backing: np.ndarray,
    op: Op,
    mask: int = 0,
    value: int = 0,
    *,
    pool: ChunkWorkerPool | None = None,
    tracer: Tracer = NULL_TRACER,
) -> None:
    """Apply ``op`` to the amplitudes ``i & mask == value`` of ``backing``.

    The work is split into aligned units of at most ``2^TILE_BITS``
    amplitudes (and at most ``2^-_MIN_UNITS_BITS`` of the state) that
    never straddle a fixed bit.  With a ``pool``, the
    units are split into contiguous runs, one per worker, sized from the
    op's live bytes (:func:`~repro.statevector.parallel.op_parts`).
    """
    n = backing.size.bit_length() - 1
    tile = _tile_bits(n)
    unit = min(tile, _low_bit(mask, n))
    if op.is_diagonal or max(op.qubits) < unit:
        sweep_tiles(backing, [op], mask, value, pool=pool, tracer=tracer)
        return
    live_amps = 1 << (n - mask.bit_count())
    itemsize = backing.dtype.itemsize
    parts = op_parts(live_amps * itemsize, pool)
    if isinstance(op, GateSlab) and len(op.gates) > 1:
        count_kernel("fused_slab")

    exact = pool is None
    if op.num_qubits == 1 and not mask and _uses_inplace(op, exact):
        # Everything live: one tiled in-place sweep over the whole buffer,
        # any target qubit, one contiguous slab per worker.
        matrix, qubit = op.matrix(), op.qubits[0]
        count_kernel("single", max(1, live_amps >> tile))
        with kernel_work("single", live_amps, itemsize):
            _run_parts(
                pool,
                [
                    lambda p=p: apply_single_qubit_inplace(
                        backing, matrix, qubit, part=p, parts=parts
                    )
                    for p in range(parts)
                ],
                tracer,
            )
        return

    # Partner units (op qubits above the unit) are gathered into one
    # scratch buffer of at most 2^tile amplitudes.
    while unit > 0 and unit + _bits_of(op.qubits, unit).bit_count() > tile:
        unit -= 1
    above = _bits_of(op.qubits, unit)
    mapping = {q: q for q in op.qubits if q < unit}
    for rank, q in enumerate(sorted(q for q in op.qubits if q >= unit)):
        mapping[q] = unit + rank
    remapped = op.remapped(mapping)
    if isinstance(remapped, GateSlab):
        remapped.matrix()  # contract once, before any worker needs it
    bases = live_indices(n - unit, (mask >> unit) | above, (value >> unit) & ~above)
    members = bases[:, None] | _subset_offsets(above)[None, :]
    units = backing.reshape(-1, 1 << unit)

    def gathered(owned: np.ndarray) -> None:
        group_buffer = np.empty((members.shape[1], 1 << unit), dtype=backing.dtype)
        scratch = np.empty(2 * group_buffer.size, dtype=backing.dtype)
        for group in owned:
            np.take(units, group, axis=0, out=group_buffer)
            apply_to_buffer(group_buffer.reshape(-1), remapped, exact, scratch)
            units[group] = group_buffer

    count_kernel("gather", bases.size)
    with kernel_work("gather", live_amps, itemsize):
        _run_parts(pool, [lambda o=o: gathered(o) for o in _split(members, parts)], tracer)


def tile_local(op: Op, live: OpLive, num_qubits: int) -> bool:
    """Whether ``op`` updates every tile on its own: nothing pruned, and
    no non-diagonal qubit at or above the tile."""
    return not live.mask and (op.is_diagonal or max(op.qubits) < _tile_bits(num_qubits))


def sweep_tiles(
    backing: np.ndarray,
    ops: Sequence[Op],
    mask: int = 0,
    value: int = 0,
    *,
    pool: ChunkWorkerPool | None = None,
    tracer: Tracer = NULL_TRACER,
) -> None:
    """Apply ops that act within a unit to every live unit, unit by unit.

    The units are the live ``i & mask == value`` amplitudes in aligned
    blocks of at most ``2^TILE_BITS``; every op's non-diagonal qubits sit
    below the unit.  Each unit takes every op while it is still in cache,
    so a run of ops costs one pass over memory instead of one per op, and
    each op runs the same per-unit arithmetic however many run together.
    A run whose diagonal factors would exceed ``1/_FACTOR_SHARE`` of the
    state is split into passes.  With a ``pool``, a pass is split across
    workers by its live bytes summed over its ops
    (:func:`~repro.statevector.parallel.op_parts`).
    """
    n = backing.size.bit_length() - 1
    unit = min(_tile_bits(n), _low_bit(mask, n))
    starts = live_indices(n - unit, mask >> unit, value >> unit) << unit
    steps, factor_bytes = [], 0
    for op in ops:
        if isinstance(op, GateSlab) and len(op.gates) > 1:
            count_kernel("fused_slab")
        if op.is_diagonal:
            # One factor per pattern of the op's qubits above the unit.
            local = diagonal_local(op, unit)
            patterns = _patterns(op, starts)
            factors = {
                int(p): diagonal_factor(op, backing.dtype, local, int(p))
                for p in np.unique(patterns)
            }
            steps.append((op, [factors[p] for p in patterns.tolist()]))
            factor_bytes += sum(np.asarray(f).nbytes for f in factors.values())
        else:
            if isinstance(op, GateSlab):
                op.matrix()  # contract once, before any worker needs it
            steps.append((op, None))
        if factor_bytes > backing.nbytes // _FACTOR_SHARE:
            _run_steps(backing, steps, unit, starts, pool, tracer)
            steps, factor_bytes = [], 0
    if steps:
        _run_steps(backing, steps, unit, starts, pool, tracer)


def _run_steps(backing, steps, unit, starts, pool, tracer) -> None:
    """One pass over the units in ``starts``, each taking every step."""
    live_amps = starts.size << unit
    itemsize = backing.dtype.itemsize
    parts = op_parts(len(steps) * live_amps * itemsize, pool)
    exact = pool is None

    def run(owned: np.ndarray) -> None:
        scratch = np.empty(2 << unit, dtype=backing.dtype)
        for index in owned.tolist():
            buffer = backing[starts[index] : starts[index] + (1 << unit)]
            for op, factors in steps:
                if factors is not None:
                    _multiply(buffer, factors[index])
                else:
                    apply_to_buffer(buffer, op, exact, scratch)

    count_kernel("tiles", starts.size)
    with kernel_work("tiles", live_amps, itemsize):
        _run_parts(
            pool,
            [lambda o=o: run(o) for o in _split(np.arange(starts.size), parts)],
            tracer,
        )


# -- the loop -------------------------------------------------------------------


@dataclass
class LoopResult:
    """Statistics of one :func:`run_gate_loop` pass.

    Attributes:
        chunk_updates_total: Chunk-group updates the unoptimized engine
            performs, summed over every op (replayed ones included).
        chunk_updates_skipped: Groups pruning proved all-zero.
        chunks_updated: Member chunks of the live groups, summed over
            every op.
        chunks_pruned: Member chunks of the skipped groups.
        interrupted_at: Cursor at which an ``after`` hook stopped the run.
    """

    chunk_updates_total: int = 0
    chunk_updates_skipped: int = 0
    chunks_updated: int = 0
    chunks_pruned: int = 0
    interrupted_at: int | None = None


def run_gate_loop(
    state,
    ops: Sequence[Op],
    *,
    tracker: LiveTracker | None = None,
    prune: bool = False,
    start: int = 0,
    workers: int = 1,
    tracer: Tracer = NULL_TRACER,
    before: Sequence[Callable[[int, Op], None]] = (),
    after: Sequence[Callable[[int], "bool | None"]] = (),
    execute: Callable[[int, Op, OpLive], None] | None = None,
) -> LoopResult:
    """Run ``ops`` over ``state`` (a :class:`ChunkedStateVector`).

    Args:
        tracker: Observes every op (also the replayed prefix); without
            one nothing is pruned.
        prune: Skip what the tracker proves zero.
        start: Ops before this index are replayed through the tracker
            and the statistics but not applied (checkpoint resume).
        workers: Worker threads; ``1`` keeps the bit-exact serial path.
        before: Called with (op index, op) ahead of each applied op.
        after: Called with the cursor after each applied op; True stops.
        execute: Applies (op index, op, live set) instead of :func:`sweep`.
    """
    n, chunk_bits = state.num_qubits, state.chunk_bits
    pool = ChunkWorkerPool(workers) if workers > 1 and execute is None else None
    # Without hooks or per-op spans nothing observes the state between
    # ops, so consecutive tile-local ops run tile by tile in one pass.
    batching = not (before or after or execute or tracer.enabled)
    pending: list[Op] = []
    result = LoopResult()
    try:
        for index, op in enumerate(ops):
            if tracker is not None:
                tracker.observe(op)
            fixed = tracker.fixed() if prune and tracker is not None else (0, 0)
            live = OpLive.of(op, n, chunk_bits, *fixed)
            result.chunk_updates_total += live.total
            result.chunk_updates_skipped += live.skipped
            result.chunks_updated += live.live << live.outside_bits.bit_count()
            result.chunks_pruned += live.skipped << live.outside_bits.bit_count()
            if index < start:
                continue
            if batching:
                if tile_local(op, live, n):
                    pending.append(op)
                    continue
                if pending:
                    sweep_tiles(state.backing, pending, pool=pool)
                    pending = []
            for hook in before:
                hook(index, op)
            if tracer.enabled:
                if tracer.histograms:
                    members = live.live << live.outside_bits.bit_count()
                    tracer.counters.histogram("chunk_bytes").observe(
                        members * (AMP_BYTES << chunk_bits)
                    )
                with tracer.span(
                    f"apply:{op.name}", stage="compute", gate=index, groups=live.live
                ):
                    _apply(state, index, op, live, execute, pool, tracer)
            else:
                _apply(state, index, op, live, execute, pool, tracer)
            stop = False
            for hook in after:
                stop = bool(hook(index + 1)) or stop
            if stop:
                result.interrupted_at = index + 1
                break
        if pending:
            sweep_tiles(state.backing, pending, pool=pool)
    finally:
        if pool is not None:
            pool.close()
    return result


def _apply(state, index, op, live, execute, pool, tracer) -> None:
    if execute is not None:
        execute(index, op, live)
    else:
        sweep(state.backing, op, live.mask, live.value, pool=pool, tracer=tracer)
