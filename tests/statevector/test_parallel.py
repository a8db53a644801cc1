"""Tests for the tiled executor's workers, its kernels, and worker knobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.core.simulator import QGpuSimulator
from repro.core.versions import ALL_VERSIONS
from repro.errors import SimulationError
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
from repro.statevector.kernels import apply_single_qubit_inplace
from repro.statevector.loop import diagonal_factor, diagonal_local, sweep
from repro.statevector.parallel import (
    AUTO_PARALLEL_THRESHOLD,
    PARALLEL_MIN_BYTES,
    ChunkWorkerPool,
    op_parts,
    resolve_workers,
)
from repro.statevector.state import StateVector

SINGLE_GATES = ("h", "x", "y", "z", "s", "t")
PARAM_GATES = ("rx", "ry", "rz", "p")


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            name = str(rng.choice(SINGLE_GATES))
            getattr(circuit, name)(int(rng.integers(0, num_qubits)))
        elif kind == 1:
            name = str(rng.choice(PARAM_GATES))
            getattr(circuit, name)(float(rng.uniform(0, 2 * np.pi)),
                                   int(rng.integers(0, num_qubits)))
        elif kind == 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cz(int(a), int(b))
    return circuit


class TestChunkPairGroupsEdges:
    def test_gate_spanning_every_outside_qubit_forms_one_group(self):
        # 3 outside qubits -> every chunk is in the single co-residency group.
        groups = chunk_pair_groups(6, 3, (3, 4, 5))
        assert groups == [(0, 1, 2, 3, 4, 5, 6, 7)]

    def test_gate_spanning_every_outside_qubit_mixed_inside(self):
        # Inside qubits do not change the grouping; all outside bits pair.
        groups = chunk_pair_groups(5, 3, (0, 3, 4))
        assert groups == [(0, 1, 2, 3)]

    def test_single_chunk_when_chunk_bits_equals_num_qubits(self):
        assert chunk_pair_groups(4, 4, (0,)) == [(0,)]
        assert chunk_pair_groups(4, 4, (3,)) == [(0,)]

    def test_groups_partition_all_chunks(self):
        groups = chunk_pair_groups(7, 4, (5, 6))
        seen = sorted(index for members in groups for index in members)
        assert seen == list(range(8))
        assert all(len(members) == 4 for members in groups)


class TestResolveWorkers:
    def test_explicit_int_passes_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_auto_small_state_stays_serial(self):
        assert resolve_workers("auto", AUTO_PARALLEL_THRESHOLD - 1) == 1
        assert resolve_workers(None, 1 << 10) == 1

    def test_auto_large_state_uses_pool(self):
        resolved = resolve_workers("auto", AUTO_PARALLEL_THRESHOLD)
        assert 1 <= resolved <= 4

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "three", True])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(SimulationError, match="workers"):
            resolve_workers(bad)


class TestWorkerPool:
    def test_pool_requires_two_workers(self):
        with pytest.raises(SimulationError):
            ChunkWorkerPool(1)

    def test_run_tasks_executes_all_and_propagates_failure(self):
        pool = ChunkWorkerPool(3)
        hits: list[int] = []
        pool.run_tasks([lambda i=i: hits.append(i) for i in range(7)])
        assert sorted(hits) == list(range(7))

        def boom() -> None:
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            pool.run_tasks([lambda: None, boom])
        pool.close()
        with pytest.raises(SimulationError, match="closed"):
            pool.run_tasks([lambda: None])

    def test_op_parts_sized_from_live_bytes(self):
        assert op_parts(1 << 40, None) == 1  # no pool: serial
        pool = ChunkWorkerPool(2)
        try:
            assert op_parts(2 * PARALLEL_MIN_BYTES - 1, pool) == 1
            assert op_parts(2 * PARALLEL_MIN_BYTES, pool) == 2
            assert op_parts(1 << 40, pool) == 2  # capped at the pool size
        finally:
            pool.close()


class TestSerialParallelAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_engine_matches_serial_and_dense(self, seed):
        num_qubits, chunk_bits = 8, 5
        circuit = random_circuit(num_qubits, 30, seed)
        dense = StateVector(num_qubits)
        dense.run(circuit)
        serial = ChunkedStateVector(num_qubits, chunk_bits).run(circuit)
        parallel = ChunkedStateVector(num_qubits, chunk_bits).run(circuit, workers=4)
        np.testing.assert_allclose(serial.to_dense(), dense.amplitudes, atol=1e-12)
        np.testing.assert_allclose(parallel.to_dense(), serial.to_dense(), atol=1e-12)

    @pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
    def test_simulator_parallel_agrees_across_versions(self, version):
        circuit = random_circuit(7, 24, seed=11)
        serial = QGpuSimulator(version=version, chunk_bits=4, workers=1).run(circuit)
        parallel = QGpuSimulator(version=version, chunk_bits=4, workers=4).run(circuit)
        np.testing.assert_allclose(
            parallel.amplitudes, serial.amplitudes, atol=1e-12
        )
        assert parallel.chunk_updates_skipped == serial.chunk_updates_skipped

    def test_workers_one_is_bit_identical_to_serial(self):
        circuit = random_circuit(7, 24, seed=5)
        first = QGpuSimulator(chunk_bits=4, workers=1).run(circuit).amplitudes
        second = QGpuSimulator(chunk_bits=4, workers=1).run(circuit).amplitudes
        np.testing.assert_array_equal(
            first.view(np.uint64), second.view(np.uint64)
        )

    def test_pruning_aware_run_matches_unpruned(self):
        circuit = random_circuit(8, 20, seed=3)
        plain = ChunkedStateVector(8, 4).run(circuit)
        pruned = ChunkedStateVector(8, 4).run(circuit, workers=2, pruning=True)
        np.testing.assert_allclose(pruned.to_dense(), plain.to_dense(), atol=1e-12)

    def test_engine_handles_multi_qubit_cross_chunk_gate(self):
        # Both cx qubits above chunk_bits: the gathered fallback path.
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.h(q)
        circuit.cx(4, 5)
        circuit.cz(3, 5)
        serial = ChunkedStateVector(6, 3).run(circuit)
        parallel = ChunkedStateVector(6, 3).run(circuit, workers=3)
        np.testing.assert_allclose(parallel.to_dense(), serial.to_dense(), atol=1e-12)

    def test_pooled_run_survives_switch_storms(self, monkeypatch):
        # More workers than cores, with thread switches forced every few
        # microseconds: a lost or doubled unit update would break the
        # match with the dense reference.  The per-worker byte floor is
        # lowered so the sweeps of this state fan out.
        import sys
        import time

        from repro.obs import Tracer
        from repro.statevector import parallel

        monkeypatch.setattr(parallel, "PARALLEL_MIN_BYTES", 1 << 16)

        circuit = random_circuit(19, 40, seed=21)
        expected = StateVector(19).run(circuit).amplitudes
        tracer = Tracer()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            result = QGpuSimulator(workers=6, tracer=tracer).run(circuit)
            elapsed = time.monotonic() - started
        finally:
            sys.setswitchinterval(interval)
        assert elapsed < 60
        assert tracer.counters.get("pool.tasks") > 0
        np.testing.assert_allclose(result.amplitudes, expected, atol=1e-12)

    def test_pool_sweep_touches_only_the_live_set(self):
        # A pruned sweep must only touch the amplitudes its mask selects,
        # on the pool exactly as serially.
        state = ChunkedStateVector(6, 4)
        gate = Gate("h", (5,))
        live = (0b010000, 0)  # bit 4 fixed at 0: chunks 0 and 2 only
        pool = ChunkWorkerPool(2)
        try:
            reference = ChunkedStateVector(6, 4)
            sweep(reference.backing, gate, *live)
            sweep(state.backing, gate, *live, pool=pool)
        finally:
            pool.close()
        np.testing.assert_allclose(state.to_dense(), reference.to_dense(), atol=1e-12)
        assert not state.backing[16:32].any() and not state.backing[48:].any()


class TestKernels:
    def test_diagonal_factor_scalar_and_vector(self):
        gate = Gate("cz", (4, 5))
        # Both qubits above a 3-bit unit: the factor is a scalar phase.
        assert diagonal_local(gate, 3) is None
        factor = diagonal_factor(gate, np.complex128, None, pattern=0b11)
        assert factor == pytest.approx(-1.0)
        assert diagonal_factor(gate, np.complex128) == pytest.approx(1.0)
        # One qubit inside: the factor is a per-offset vector.
        mixed = Gate("cz", (1, 4))
        vector = diagonal_factor(
            mixed, np.complex128, diagonal_local(mixed, 3), pattern=0b10
        )
        assert isinstance(vector, np.ndarray)
        assert vector.shape == (8,)
        np.testing.assert_allclose(vector, [1, 1, -1, -1, 1, 1, -1, -1])

    def test_diagonal_sweep_builds_one_factor_per_pattern(self, monkeypatch):
        from repro.statevector import loop

        built: list[int] = []
        original = loop.diagonal_factor

        def counting(op, dtype, local=None, pattern=0):
            built.append(pattern)
            return original(op, dtype, local, pattern)

        monkeypatch.setattr(loop, "diagonal_factor", counting)
        monkeypatch.setattr(loop, "TILE_BITS", 3)
        state = np.ones(1 << 6, dtype=np.complex128)
        sweep(state, Gate("rz", (5,), (0.7,)))  # 8 units, 2 patterns
        assert sorted(built) == [0, 1]


class TestTiledKernels:
    """Cache-tiling edges of the in-place kernel and the tiled sweep."""

    def _random(self, size: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return (rng.normal(size=size) + 1j * rng.normal(size=size)).astype(
            np.complex128
        )

    def _expected(self, source: np.ndarray, qubit: int) -> np.ndarray:
        from repro.statevector.apply import apply_gate

        expected = source.copy()
        apply_gate(expected, Gate("h", (qubit,)))
        return expected

    @pytest.mark.parametrize("qubit", [0, 2, 4, 7])
    @pytest.mark.parametrize("parts", [1, 3])
    def test_inplace_matches_dense(self, qubit, parts):
        buffer = self._random(1 << 8, seed=qubit)
        expected = self._expected(buffer, qubit)
        matrix = Gate("h", (qubit,)).matrix()
        for part in range(parts):
            apply_single_qubit_inplace(buffer, matrix, qubit, part, parts)
        np.testing.assert_allclose(buffer, expected, atol=1e-12)

    def test_inplace_above_smaller_than_parts(self):
        # size 2^5, qubit 3: above = 2 rows < 3 parts -> column split.
        buffer = self._random(1 << 5, seed=5)
        expected = self._expected(buffer, 3)
        matrix = Gate("h", (3,)).matrix()
        for part in range(3):
            apply_single_qubit_inplace(buffer, matrix, 3, part, 3)
        np.testing.assert_allclose(buffer, expected, atol=1e-12)

    def test_inplace_column_tiling_within_rows(self, monkeypatch):
        # below > _SCRATCH_AMPS with above >= parts: the per-row column
        # tiling inside the row-range branch.
        from repro.statevector import kernels

        monkeypatch.setattr(kernels, "_SCRATCH_AMPS", 8)
        buffer = self._random(1 << 8, seed=2)
        expected = self._expected(buffer, 5)  # below = 32 > 8, above = 4
        apply_single_qubit_inplace(buffer, Gate("h", (5,)).matrix(), 5)
        np.testing.assert_allclose(buffer, expected, atol=1e-12)

    @pytest.mark.parametrize("qubit,parts", [(2, 2), (6, 3), (7, 3)])
    def test_inplace_parts_cover_disjointly(self, qubit, parts):
        # Doubling matrix: an amplitude is exactly doubled iff exactly one
        # part touched it, so all-doubled proves a disjoint exact cover.
        buffer = np.ones(1 << 8, dtype=np.complex128)
        double = 2.0 * np.eye(2, dtype=np.complex128)
        for part in range(parts):
            apply_single_qubit_inplace(buffer, double, qubit, part, parts)
        np.testing.assert_array_equal(buffer, np.full(buffer.size, 2.0 + 0j))

    def test_inplace_rejects_bad_inputs(self):
        buffer = np.zeros(8, dtype=np.complex128)
        with pytest.raises(SimulationError, match="2x2"):
            apply_single_qubit_inplace(buffer, np.eye(4), 0)
        with pytest.raises(SimulationError, match="cannot host"):
            apply_single_qubit_inplace(buffer, np.eye(2), 3)

    @pytest.mark.parametrize(
        "gate",
        [Gate("rx", (0,), (0.8,)), Gate("rx", (7,), (0.8,)), Gate("cx", (7, 1))],
        ids=str,
    )
    def test_serial_sweep_is_bit_identical_across_tilings(self, monkeypatch, gate):
        # The serial path's arithmetic per amplitude does not depend on
        # the unit size, so the tiling cannot change a single bit.
        from repro.statevector import loop

        buffer = self._random(1 << 8, seed=3)
        reference = buffer.copy()
        sweep(reference, gate)
        monkeypatch.setattr(loop, "TILE_BITS", 3)
        sweep(buffer, gate)
        np.testing.assert_array_equal(
            buffer.view(np.uint64), reference.view(np.uint64)
        )


class TestBackingStorage:
    def test_chunks_are_views_into_backing(self):
        state = ChunkedStateVector(5, 3)
        state.chunks[1][0] = 0.5
        assert state.backing[1 << 3] == 0.5


class TestSimulatorWorkersKnob:
    def test_invalid_workers_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="workers"):
            QGpuSimulator(workers=0)

    def test_run_override_beats_constructor(self):
        circuit = random_circuit(6, 12, seed=2)
        base = QGpuSimulator(chunk_bits=3, workers=1).run(circuit)
        overridden = QGpuSimulator(chunk_bits=3, workers=1).run(circuit, workers=3)
        np.testing.assert_allclose(
            overridden.amplitudes, base.amplitudes, atol=1e-12
        )

    def test_guarded_run_stays_serial_and_recovers(self):
        from repro.reliability.faults import FaultPlan

        circuit = random_circuit(6, 12, seed=9)
        plan = FaultPlan.from_spec("seed=3,transfer=0.05")
        clean = QGpuSimulator(chunk_bits=3, workers=4).run(circuit)
        faulty = QGpuSimulator(
            chunk_bits=3, workers=4, fault_plan=plan
        ).run(circuit)
        assert faulty.reliability is not None
        np.testing.assert_allclose(
            faulty.amplitudes, clean.amplitudes, atol=1e-12
        )
