"""Tests for the checkpoint container (format v2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.library import get_circuit
from repro.errors import CheckpointError
from repro.reliability import load_checkpoint, save_checkpoint
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.state import simulate


@pytest.fixture
def state() -> ChunkedStateVector:
    dense = simulate(get_circuit("qaoa", 8))
    return ChunkedStateVector.from_dense(dense.amplitudes, chunk_bits=5)


class TestRoundTrip:
    def test_metadata_and_state_round_trip(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        written = save_checkpoint(
            path, state, gate_cursor=17, involvement_mask=0b1011,
            circuit_name="qaoa_8", version_name="Q-GPU",
        )
        assert path.stat().st_size == written
        checkpoint = load_checkpoint(path)
        assert checkpoint.gate_cursor == 17
        assert checkpoint.involvement_mask == 0b1011
        assert checkpoint.circuit_name == "qaoa_8"
        assert checkpoint.version_name == "Q-GPU"
        assert checkpoint.chunk_bits == 5
        np.testing.assert_array_equal(
            checkpoint.state.to_dense().view(np.uint64),
            state.to_dense().view(np.uint64),
        )

    def test_write_is_atomic(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=1)
        save_checkpoint(path, state, gate_cursor=2)  # atomically replaced
        assert load_checkpoint(path).gate_cursor == 2
        assert not (tmp_path / "run.qgck.tmp").exists()


class TestErrors:
    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.qgck")

    def test_bad_magic(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=1)
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_metadata_corruption_detected(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=9)
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the fixed metadata block
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_state_detected(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=9)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="bad checkpoint state"):
            load_checkpoint(path)

    def test_state_payload_corruption_detected(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=9)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # inside the GFC payload, guarded by QGSV v2 CRC
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="bad checkpoint state"):
            load_checkpoint(path)


def _clifford_12():
    from repro.circuits.circuit import QuantumCircuit

    circuit = QuantumCircuit(12, name="clifford_12")
    for q in range(0, 12, 2):
        circuit.h(q)
    for q in range(11):
        circuit.cx(q, q + 1)
    circuit.s(3).cz(0, 11).x(5).swap(2, 9).ccx(0, 4, 7).cz(6, 10).s(11).x(1)
    return circuit


class TestFileBytes:
    """The engine's checkpoints keep the exact bytes of the copying writer."""

    # sha256 of the file the copying writer (``dump_state(state.to_dense())``)
    # produced at cursor len // 2.  These circuits only multiply amplitudes
    # by 0, +-1, +-i and 1/sqrt(2) against a zero partner, so the state
    # bits - and these digests - do not depend on the host's BLAS.
    GOLDEN = {
        ("gs", "Q-GPU"): "6bd0df5e673a56601c016f3df9fcb3198a518d09768e1428c90b61c7babc2a92",
        ("gs", "Baseline"): "bba9d4b87e1a7f53b16d9c34182b936faaea5ebcf690a7369609490a7200bf8b",
        ("clifford", "Q-GPU"): "3fd7b022ae07a087aa6f22b1392c245a1e5294bf9140c74964734b46cd47994c",
        ("clifford", "Baseline"): "ba8b1ddba483317d120e7258b12e5f19d497b8da39e9986efb4782adb550b4f1",
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
    def test_checkpoint_file_matches_golden_digest(self, tmp_path, key) -> None:
        import hashlib

        from repro.core.simulator import QGpuSimulator
        from repro.core.versions import VERSIONS_BY_NAME

        family, version = key
        circuit = get_circuit("gs", 12) if family == "gs" else _clifford_12()
        cursor = len(circuit) // 2
        path = tmp_path / "run.qgck"
        QGpuSimulator(version=VERSIONS_BY_NAME[version], workers=1).run(
            circuit, checkpoint_every=cursor, checkpoint_path=path, stop_after=cursor
        )
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.GOLDEN[key]

    def test_backing_dump_equals_the_dense_copy_dump(self, tmp_path, state) -> None:
        import io
        import struct
        import zlib

        from repro.reliability.checkpoint import Checkpoint, _encode_metadata
        from repro.statevector.io import dump_state

        path = tmp_path / "run.qgck"
        save_checkpoint(
            path, state, gate_cursor=9, involvement_mask=0b111,
            circuit_name="qaoa_8", version_name="Q-GPU",
        )
        metadata = _encode_metadata(Checkpoint(state, 9, 0b111, "qaoa_8", "Q-GPU"))
        expected = io.BytesIO()
        expected.write(metadata + struct.pack("<I", zlib.crc32(metadata)))
        dump_state(state.to_dense(), expected)
        assert path.read_bytes() == expected.getvalue()
