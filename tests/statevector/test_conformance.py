"""Conformance of the gate loop at sizes where the tiled code runs.

At 16-18 qubits the state spans several ``2^TILE_BITS`` units and the
top qubits sit above a unit, so the whole-buffer, per-unit and gathered
paths of :func:`repro.statevector.loop.sweep` all execute, serially and
on the pool.  Every library family is checked against the dense
reference across fusion on/off, 1 and 2 workers, and the pruning
versions; byte identity is asserted where the docs promise it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.reorder import reorder
from repro.core.simulator import QGpuSimulator
from repro.core.versions import BASELINE, PRUNING, QGPU, VersionConfig
from repro.reliability.faults import FaultPlan
from repro.statevector import parallel
from repro.statevector.fusion import GateSlab, fuse_slabs, slab_members
from repro.statevector.loop import (
    TILE_BITS,
    LiveTracker,
    OpLive,
    compile_ops,
    live_chunk_groups,
)
from repro.statevector.state import simulate

BASIS = VersionConfig(
    "Pruning+basis", dynamic_allocation=True, overlap=True, pruning=True,
    basis_tracking_pruning=True,
)
DIAGONAL_AWARE = VersionConfig(
    "Pruning+diagonal", dynamic_allocation=True, overlap=True, pruning=True,
    diagonal_aware_pruning=True,
)
VERSIONS = (BASELINE, PRUNING, QGPU, BASIS)
WIDTH = 16


@pytest.fixture(autouse=True)
def _pooled_runs_split(monkeypatch) -> None:
    # These states sit below the per-worker byte floor, so a pooled run
    # would execute every op on one thread; a low floor makes the
    # 2-worker runs split their units across the pool.
    monkeypatch.setattr(parallel, "PARALLEL_MIN_BYTES", 1 << 16)


@lru_cache(maxsize=None)
def _reference(family: str, width: int) -> np.ndarray:
    return simulate(get_circuit(family, width)).amplitudes


def _bits(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.view(np.uint64)


def test_widths_run_the_tiled_paths() -> None:
    # The matrix below is only meaningful if the state spans several
    # units and some qubits sit above a unit.
    assert WIDTH > TILE_BITS


@pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.name)
@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_dense_on_every_path(family: str, version) -> None:
    circuit = get_circuit(family, WIDTH)
    reference = _reference(family, WIDTH)
    for fusion in ("on", "off"):
        for workers in (1, 2):
            result = QGpuSimulator(version=version, workers=workers, fusion=fusion).run(
                circuit
            )
            np.testing.assert_allclose(
                result.amplitudes, reference, atol=1e-12,
                err_msg=f"fusion={fusion} workers={workers}",
            )


@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_dense_at_18_qubits(family: str) -> None:
    circuit = get_circuit(family, 18)
    result = QGpuSimulator(workers=2).run(circuit)
    np.testing.assert_allclose(result.amplitudes, _reference(family, 18), atol=1e-12)


class TestByteIdentity:
    @pytest.mark.parametrize("family", ["qft", "rqc", "hchain"])
    def test_fusion_off_serial_is_independent_of_chunk_bits(self, family: str) -> None:
        circuit = get_circuit(family, WIDTH)
        runs = [
            QGpuSimulator(version=QGPU, workers=1, fusion="off", chunk_bits=bits)
            .run(circuit)
            .amplitudes
            for bits in (4, 10, 14)
        ]
        for amplitudes in runs[1:]:
            np.testing.assert_array_equal(_bits(amplitudes), _bits(runs[0]))

    @pytest.mark.parametrize("family", ["qaoa", "bv", "iqp"])
    def test_fusion_off_serial_matches_the_per_gate_apply(self, family: str) -> None:
        circuit = get_circuit(family, WIDTH)
        result = QGpuSimulator(version=BASELINE, workers=1, fusion="off").run(circuit)
        manual = QGpuSimulator(version=BASELINE, workers=1).run(QuantumCircuit(WIDTH)).state
        for gate in circuit:
            manual.apply(gate)
        np.testing.assert_array_equal(_bits(result.amplitudes), _bits(manual.backing))

    @pytest.mark.parametrize("fusion", ["on", "off"])
    @pytest.mark.parametrize("family", ["qft", "rqc", "iqp"])
    def test_tile_batching_changes_no_bit(self, family: str, fusion: str) -> None:
        # A cancellation token adds a per-op hook, which turns tile
        # batching off: both runs must agree bit for bit.
        from repro.reliability.cancellation import CancellationToken

        circuit = get_circuit(family, WIDTH)
        simulator = QGpuSimulator(version=QGPU, workers=1, fusion=fusion)
        batched = simulator.run(circuit).amplitudes
        per_op = simulator.run(circuit, cancel=CancellationToken()).amplitudes
        np.testing.assert_array_equal(_bits(batched), _bits(per_op))

    @pytest.mark.parametrize("family", ["qft", "hchain"])
    def test_checkpoint_resume_is_byte_identical(self, family: str, tmp_path) -> None:
        circuit = get_circuit(family, WIDTH)
        simulator = QGpuSimulator(version=QGPU, workers=1)
        plain = simulator.run(circuit, fusion="off").amplitudes
        path = tmp_path / "run.qgck"
        stop = len(circuit) // 2
        partial = simulator.run(
            circuit, checkpoint_every=stop, checkpoint_path=path, stop_after=stop
        )
        assert partial.interrupted_at == stop
        resumed = simulator.run(circuit, resume_from=path)
        np.testing.assert_array_equal(_bits(resumed.amplitudes), _bits(plain))


class TestPrunedAmplitudesUntouched:
    """Amplitudes pruning skips keep the +0.0 they started with."""

    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize(
        "version", [PRUNING, QGPU, DIAGONAL_AWARE], ids=lambda v: v.name
    )
    @pytest.mark.parametrize("family", ["qft", "iqp", "qaoa", "bv", "hlf"])
    def test_no_negative_zero_in_pruned_chunks(
        self, family: str, version, guarded: bool
    ) -> None:
        # Stop at the last gate after which some chunk is still pruned and
        # check those chunks bit for bit: a multiply of a zero by a
        # negative phase would leave a -0.0 behind.  A fault-guarded run
        # moves whole chunk groups over the simulated link but must
        # multiply only the chunks the unguarded sweep does.
        circuit = get_circuit(family, WIDTH)
        chunk_bits = 10
        every_chunk = (1 << (WIDTH - chunk_bits)) - 1
        tracker = LiveTracker(WIDTH, diagonal_aware=version.diagonal_aware_pruning)
        masks = []
        for gate in reorder(circuit, version.reorder_strategy):
            tracker.observe(gate)
            masks.append(tracker.mask >> chunk_bits)
        stop = max(k for k, mask in enumerate(masks, 1) if mask != every_chunk)
        fault_plan = FaultPlan(seed=7, transfer_rate=0.05) if guarded else None
        result = QGpuSimulator(
            version=version, workers=1, chunk_bits=chunk_bits, fault_plan=fault_plan
        ).run(circuit, stop_after=stop)
        chunks = _bits(result.amplitudes).reshape(-1, 2 << chunk_bits)
        pruned = [c for c in range(chunks.shape[0]) if c & ~masks[stop - 1]]
        assert pruned
        assert not chunks[pruned].any()
        if guarded:
            assert result.reliability.transfers > 0
            plain = QGpuSimulator(version=version, workers=1, chunk_bits=chunk_bits).run(
                circuit, stop_after=stop
            )
            np.testing.assert_array_equal(chunks.reshape(-1), _bits(plain.amplitudes))

    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize("fusion", ["on", "off"])
    @pytest.mark.parametrize(
        ("version", "live_chunks"),
        [(DIAGONAL_AWARE, [0, 8]), (BASIS, [8])],
        ids=["diagonal-aware", "basis"],
    )
    def test_diagonal_above_the_chunk_skips_its_zero_members(
        self, version, live_chunks, fusion: str, guarded: bool
    ) -> None:
        # Qubits 12 and 14 stay |0> and qubit 13 is flipped to |1>: the
        # diagonals' groups pair live chunks with provably zero ones (all
        # of them under basis pruning, 12 and 14 under diagonal-aware
        # pruning).  Every phase has a negative component, so multiplying
        # a zero member would write -0.0 into it.  A fault-guarded run
        # moves whole groups over the simulated link but must multiply
        # only the members the unguarded sweep does.
        circuit = QuantumCircuit(WIDTH)
        for q in range(10):
            circuit.h(q)
        circuit.x(13)
        circuit.rz(3 * np.pi / 2, 14).p(3 * np.pi / 4, 12).rz(3 * np.pi / 2, 13)
        fault_plan = FaultPlan(seed=7, transfer_rate=0.05) if guarded else None
        result = QGpuSimulator(
            version=version, workers=1, chunk_bits=10, fusion=fusion, fault_plan=fault_plan
        ).run(circuit)
        chunks = _bits(result.amplitudes).reshape(-1, 2 << 10)
        pruned = [c for c in range(chunks.shape[0]) if c not in live_chunks]
        assert not chunks[pruned].any()
        np.testing.assert_allclose(
            result.amplitudes, simulate(circuit).amplitudes, atol=1e-12
        )
        if guarded:
            assert result.reliability.transfers > 0
            # Guarded runs bypass fusion; compare with the unfused run.
            plain = QGpuSimulator(
                version=version, workers=1, chunk_bits=10, fusion="off"
            ).run(circuit)
            np.testing.assert_array_equal(chunks.reshape(-1), _bits(plain.amplitudes))


class TestEdgeCases:
    def test_one_qubit_circuit(self) -> None:
        circuit = QuantumCircuit(1).h(0).rz(0.3, 0).sx(0)
        for workers in (1, 2):
            result = QGpuSimulator(workers=workers).run(circuit)
            np.testing.assert_allclose(
                result.amplitudes, simulate(circuit).amplitudes, atol=1e-12
            )

    @pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.name)
    def test_zero_gate_circuit(self, version) -> None:
        result = QGpuSimulator(version=version, workers=2).run(QuantumCircuit(WIDTH))
        expected = np.zeros(1 << WIDTH, dtype=np.complex128)
        expected[0] = 1.0
        np.testing.assert_array_equal(_bits(result.amplitudes), _bits(expected))
        assert result.chunk_updates_total == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gates_only_above_the_chunk_boundary(self, workers: int) -> None:
        circuit = QuantumCircuit(WIDTH)
        for q in range(10, WIDTH):
            circuit.h(q)
        circuit.cx(15, 11).rz(0.4, 13).cp(0.9, 10, 15).swap(12, 14).ccx(10, 15, 13)
        circuit.ry(0.2, 15).cz(11, 14)
        for fusion in ("on", "off"):
            result = QGpuSimulator(
                version=QGPU, chunk_bits=10, workers=workers, fusion=fusion
            ).run(circuit)
            np.testing.assert_allclose(
                result.amplitudes, simulate(circuit).amplitudes, atol=1e-12
            )
            assert result.chunk_updates_skipped > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_width_eight_diagonal_slab(self, workers: int) -> None:
        circuit = QuantumCircuit(WIDTH)
        qubits = (0, 3, 7, 9, 10, 12, 14, 15)
        for q in range(WIDTH):
            circuit.h(q)
        for k, q in enumerate(qubits):
            circuit.rz(0.1 * (k + 1), q)
        circuit.cp(0.7, 3, 14)
        ops = compile_ops(list(circuit), 10, fusion=True)
        widths = [op.width for op in ops if isinstance(op, GateSlab) and op.is_diagonal]
        assert 8 in widths
        result = QGpuSimulator(chunk_bits=10, workers=workers).run(circuit)
        np.testing.assert_allclose(
            result.amplitudes, simulate(circuit).amplitudes, atol=1e-12
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fusion", ["on", "off"])
    def test_mask_splitting_tiles_unevenly(self, workers: int, fusion: str) -> None:
        # Basis tracking fixes qubit 11 at 1 and qubit 13 at 0: the live set
        # is every fourth 2^11-amplitude run, offset by one run, inside
        # tiles of 2^15 - units are capped at the fixed bit and the top
        # qubits are gathered across them.
        circuit = QuantumCircuit(WIDTH)
        for q in (0, 1, 2, 5, 9, 10, 12, 14, 15):
            circuit.h(q)
        circuit.x(11)
        circuit.cx(15, 2).cp(0.3, 3, 15).rz(0.8, 12).cx(12, 14).ry(0.4, 15)
        circuit.swap(14, 10).cz(11, 15).h(15)
        result = QGpuSimulator(
            version=BASIS, chunk_bits=10, workers=workers, fusion=fusion
        ).run(circuit)
        np.testing.assert_allclose(
            result.amplitudes, simulate(circuit).amplitudes, atol=1e-12
        )
        tracker = LiveTracker(WIDTH, basis=True)
        for gate in circuit:
            tracker.observe(gate)
        mask, value = tracker.fixed()
        assert (mask >> 11 & 1, value >> 11 & 1, mask >> 13 & 1) == (1, 1, 1)
        assert result.chunk_updates_skipped > 0


def test_op_live_matches_algorithm1_enumeration() -> None:
    # The closed-form live-group count against Algorithm 1's per-chunk
    # test on every group, along a pruned run with fused ops.
    from repro.core.pruning import chunk_is_pruned
    from repro.statevector.chunks import chunk_pair_groups

    n, chunk_bits = 12, 5
    circuit = get_circuit("qft", n)
    tracker = LiveTracker(n)
    for op in fuse_slabs(list(circuit), chunk_bits=chunk_bits):
        tracker.observe(op)
        mask, value = tracker.fixed()
        live = OpLive.of(op, n, chunk_bits, mask, value)
        groups = chunk_pair_groups(n, chunk_bits, op.qubits)
        expected = sum(
            not all(chunk_is_pruned(m, chunk_bits, tracker.mask) for m in members)
            for members in groups
        )
        assert (live.total, live.live) == (len(groups), expected)
        listed = live_chunk_groups(n, chunk_bits, op.qubits, live.mask, live.value)
        assert len(listed) == expected


@pytest.mark.parametrize("pruning", [False, True])
def test_traced_chunked_run_counts_updated_and_pruned_chunks(pruning: bool) -> None:
    # The chunked engine's chunk counters against the per-group
    # enumeration of Algorithm 1: member chunks of live groups are
    # updated, member chunks of all-zero groups are pruned.
    from repro.core.involvement import InvolvementTracker
    from repro.core.pruning import chunk_is_pruned
    from repro.obs import Tracer
    from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups

    n, chunk_bits = 12, 5
    circuit = get_circuit("qft", n)
    tracer = Tracer()
    ChunkedStateVector(n, chunk_bits).run(circuit, pruning=pruning, tracer=tracer)
    tracker = InvolvementTracker(n)
    updated = pruned = 0
    for op in fuse_slabs(list(circuit), chunk_bits=chunk_bits):
        for member in slab_members(op):
            tracker.involve(member)
        for members in chunk_pair_groups(n, chunk_bits, op.qubits):
            if pruning and all(chunk_is_pruned(m, chunk_bits, tracker.mask) for m in members):
                pruned += len(members)
            else:
                updated += len(members)
    assert tracer.counters.get("chunks.updated") == updated
    assert tracer.counters.get("chunks.pruned") == pruned
    assert (pruned > 0) == pruning
