"""Chunked state vector - the functional model of QISKit-Aer's partitioning.

The paper's baseline (Section III-B, Fig. 1) splits the ``2^n`` amplitude
vector into ``2^(n-m)`` chunks of ``2^m`` amplitudes: the low ``m`` index
bits address *within* a chunk, the high ``n-m`` bits select the chunk.

* A gate whose qubits are all ``< m`` ("Case 1") updates each chunk
  independently.
* A gate touching qubits ``>= m`` ("Case 2") pairs chunks whose indices
  differ in the corresponding chunk-index bits; the paired chunks must be
  co-resident before the update (:func:`chunk_pair_groups`, which the
  timed and multi-GPU models schedule).

Storage is one contiguous backing buffer with the chunks as views into it
(chunk ``i`` occupies ``[i * 2^m, (i + 1) * 2^m)``).  ``m`` is the model's
and pruning's granularity only: gates execute through the one gate loop
of :mod:`repro.statevector.loop`, in L2-sized tiles over the backing.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.errors import SimulationError
from repro.statevector.loop import (
    LiveTracker,
    compile_ops,
    live_chunk_groups,
    run_gate_loop,
    sweep,
)


def chunk_pair_groups(
    num_qubits: int, chunk_bits: int, gate_qubits: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Group chunk indices that must be co-resident to apply a gate.

    Returns a list of tuples; each tuple holds the ``2^k`` chunk indices
    (``k`` = number of gate qubits outside the chunk) that form one
    independent update group, in ascending outside-bit order.  For a gate
    fully inside the chunk every group is a singleton.
    """
    groups = live_chunk_groups(num_qubits, chunk_bits, gate_qubits)
    return [tuple(group) for group in groups.tolist()]


class ChunkedStateVector:
    """State vector stored as equally sized chunks over one backing buffer.

    Args:
        num_qubits: Register width ``n``.
        chunk_bits: Amplitudes per chunk = ``2^chunk_bits``; must satisfy
            ``0 < chunk_bits <= n``.
        dtype: Amplitude dtype - ``complex128`` (default, bit-exact
            baseline) or ``complex64`` (the planner's single-precision
            fast path; gate matrices are cast down at the kernels).
    """

    def __init__(
        self, num_qubits: int, chunk_bits: int, dtype=np.complex128
    ) -> None:
        if not 0 < chunk_bits <= num_qubits:
            raise SimulationError(
                f"chunk_bits must be in (0, {num_qubits}], got {chunk_bits}"
            )
        if num_qubits > 26:
            raise SimulationError(
                "functional chunked simulation is limited to 26 qubits"
            )
        resolved = np.dtype(dtype)
        if resolved not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise SimulationError(
                f"state dtype must be complex64 or complex128, got {resolved}"
            )
        self.num_qubits = num_qubits
        self.chunk_bits = chunk_bits
        self.num_chunks = 1 << (num_qubits - chunk_bits)
        self.dtype = resolved
        self._backing = np.zeros(1 << num_qubits, dtype=resolved)
        self._backing[0] = 1.0
        self._chunks: list[np.ndarray] | None = None

    @property
    def chunk_size(self) -> int:
        """Amplitudes per chunk."""
        return 1 << self.chunk_bits

    @property
    def backing(self) -> np.ndarray:
        """The contiguous ``2^n`` amplitude buffer the chunks are views of."""
        return self._backing

    @property
    def chunks(self) -> list[np.ndarray]:
        """Per-chunk views into :attr:`backing` (writes go through)."""
        if self._chunks is None:
            size = self.chunk_size
            self._chunks = [
                self._backing[index * size : (index + 1) * size]
                for index in range(self.num_chunks)
            ]
        return self._chunks

    def to_dense(self) -> np.ndarray:
        """A dense copy of the full ``2^n`` vector."""
        return self._backing.copy()

    @classmethod
    def from_dense(
        cls, amplitudes: np.ndarray, chunk_bits: int, dtype=None
    ) -> "ChunkedStateVector":
        """Split a dense vector into chunks (copying).

        ``dtype=None`` keeps a complex64 input in complex64 and stores
        everything else (the historical callers pass complex128) at full
        precision, so no caller silently loses precision to a downcast.
        """
        num_qubits = int(amplitudes.size).bit_length() - 1
        if amplitudes.size != 1 << num_qubits:
            raise SimulationError("amplitude count is not a power of two")
        if dtype is None:
            dtype = (
                np.complex64
                if amplitudes.dtype == np.dtype(np.complex64)
                else np.complex128
            )
        out = cls(num_qubits, chunk_bits, dtype=dtype)
        out._backing[...] = amplitudes
        return out

    def apply(self, gate: Gate, pool=None) -> "ChunkedStateVector":
        """Apply one gate (or fusion slab) to the whole state.

        Args:
            gate: The gate to apply.
            pool: Optional
                :class:`~repro.statevector.parallel.ChunkWorkerPool`; when
                given, the tiles are split across its workers.
        """
        sweep(self._backing, gate, pool=pool)
        return self

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        workers: int | str | None = 1,
        pruning: bool = False,
        tracer=None,
        fusion: str = "on",
    ) -> "ChunkedStateVector":
        """Apply every gate of ``circuit`` in order, through the gate loop.

        Args:
            circuit: Circuit matching this state's width.
            workers: Worker threads; ``1`` (default) is the serial,
                bit-exact path, ``"auto"`` sizes the pool to the host, and
                ``N > 1`` splits each op's tiles over ``N`` threads.
            pruning: Track involvement (Algorithm 1) and skip the chunk
                groups it proves zero.
            tracer: Optional :class:`~repro.obs.Tracer`: per-op compute
                spans, kernel counters, and worker-lane spans.
            fusion: ``"on"`` (default) contracts consecutive gates into
                slabs via :func:`~repro.statevector.fusion.fuse_slabs`
                before execution (results agree with the unfused path to
                ``atol <= 1e-12``); ``"off"`` applies gates one by one.
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width {self.num_qubits}"
            )
        if fusion not in ("on", "off"):
            raise SimulationError(f"fusion must be 'on' or 'off', got {fusion!r}")
        # Imported lazily: repro.core's package __init__ pulls in the
        # simulator, which imports this module - importing at the top
        # would cycle.
        from repro.obs.tracer import NULL_TRACER
        from repro.statevector.kernels import set_kernel_counters
        from repro.statevector.parallel import resolve_workers

        if tracer is None:
            tracer = NULL_TRACER
        previous_counters = (
            set_kernel_counters(
                tracer.counters, timing=not tracer.clock.deterministic
            )
            if tracer is not NULL_TRACER
            else None
        )
        try:
            loop = run_gate_loop(
                self,
                compile_ops(circuit, self.chunk_bits, fusion == "on"),
                tracker=LiveTracker(self.num_qubits) if pruning else None,
                prune=pruning,
                workers=resolve_workers(workers, 1 << self.num_qubits),
                tracer=tracer,
            )
            if tracer is not NULL_TRACER and len(circuit):
                tracer.counters.count("chunks.updated", loop.chunks_updated)
                if pruning:
                    tracer.counters.count("chunks.pruned", loop.chunks_pruned)
        finally:
            if tracer is not NULL_TRACER:
                set_kernel_counters(*previous_counters)
        return self

    def chunk_is_zero(self, index: int, tolerance: float = 0.0) -> bool:
        """True when every amplitude in chunk ``index`` is (near) zero."""
        chunk = self.chunks[index]
        if tolerance == 0.0:
            return not np.any(chunk)
        return bool(np.all(np.abs(chunk) <= tolerance))

    def sample(self, shots: int, rng: np.random.Generator | None = None) -> dict[int, int]:
        """Sample basis states chunk-by-chunk, never densifying.

        Two-level sampling: first draw the chunk from the per-chunk
        probability masses (zero chunks are never touched - the sampling
        analogue of pruning), then the offset within the chunk.
        """
        if shots <= 0:
            raise SimulationError(f"shots must be positive, got {shots}")
        if rng is None:
            rng = np.random.default_rng()
        masses = np.array(
            [
                float(np.sum(np.abs(chunk) ** 2, dtype=np.float64))
                for chunk in self.chunks
            ]
        )
        total = masses.sum()
        if not np.isclose(total, 1.0, atol=1e-6):
            raise SimulationError(f"state is not normalised (sum p = {total:.6f})")
        chunk_draws = rng.choice(self.num_chunks, size=shots, p=masses / total)
        counts: dict[int, int] = {}
        for chunk_index in chunk_draws:
            chunk = self.chunks[chunk_index]
            probabilities = np.abs(chunk.astype(np.complex128)) ** 2
            offset = int(rng.choice(self.chunk_size, p=probabilities / probabilities.sum()))
            outcome = (int(chunk_index) << self.chunk_bits) | offset
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts


__all__ = ["ChunkedStateVector", "chunk_pair_groups"]
