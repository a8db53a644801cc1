"""Gate-application kernels for dense state vectors.

These are the numpy analogues of the CUDA kernels described in Section II-A
of the paper: a gate on qubit ``j`` pairs amplitudes whose indices differ
only in bit ``j`` (Equation 8) and updates every pair with the same 2x2
matrix.  Qubit 0 is the least significant index bit.

Three kernels are provided, mirroring what a production simulator
specialises:

* :func:`apply_matrix` - general ``k``-qubit unitary via axis reshaping,
* :func:`apply_diagonal` - diagonal unitaries touch each amplitude once
  (half the memory traffic, no pairing),
* :func:`apply_controlled` - controlled gates update only the slice where
  all controls are 1.

All kernels update the array in place and accept vectors holding any number
of amplitudes that is a power of two at least ``2^k`` - the chunked engine
reuses them on single chunks.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.gates import Gate
from repro.errors import SimulationError


def _num_qubits_of(state: np.ndarray) -> int:
    if state.size == 0:
        raise SimulationError(
            "state vector is empty: a state needs at least 2^0 = 1 amplitude"
        )
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise SimulationError(f"state size {state.size} is not a power of two")
    return n


def _split_shape(n: int, qubits) -> tuple[tuple[int, ...], dict[int, int]]:
    """Tensor shape giving each listed qubit its own axis of 2.

    The index bits between listed qubits merge into one axis each, so
    the tensor has at most ``2k + 1`` axes instead of ``n``.  numpy's C
    order keeps axis 0 the most significant; returns the shape and each
    qubit's axis.
    """
    shape: list[int] = []
    axis: dict[int, int] = {}
    top = n
    for q in sorted(qubits, reverse=True):
        if top - q > 1:
            shape.append(1 << (top - q - 1))
        axis[q] = len(shape)
        shape.append(2)
        top = q
    if top:
        shape.append(1 << top)
    return tuple(shape), axis


def _fold_apply(moved: np.ndarray, matrix: np.ndarray, scratch) -> None:
    """Apply ``matrix`` over the leading axes of ``moved``, in place.

    The target axes are folded into matrix rows (a copy when the view is
    staggered) and multiplied; the result is written back through the
    view.  With ``scratch`` (at least ``2 * moved.size`` elements) both
    temporaries live in it instead of fresh allocations - the same
    matmul on the same operands, so the same bits.
    """
    rows = matrix.shape[0]
    if scratch is None:
        result = matrix @ moved.reshape(rows, -1)
    else:
        folded = scratch[: moved.size].reshape(moved.shape)
        folded[...] = moved
        result = scratch[moved.size : 2 * moved.size].reshape(rows, -1)
        np.matmul(matrix, folded.reshape(rows, -1), out=result)
    moved[...] = result.reshape(moved.shape)  # writes through the view


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], scratch=None
) -> None:
    """Apply a ``2^k x 2^k`` unitary to ``qubits`` of ``state``, in place.

    Args:
        state: Complex amplitude vector of length ``2^n``.
        matrix: Unitary with the first qubit in ``qubits`` as the least
            significant matrix axis.
        qubits: Distinct target qubits, each ``< n``.
        scratch: Optional reusable buffer of ``2 * state.size`` elements
            for the temporaries (see :func:`_fold_apply`).
    """
    n = _num_qubits_of(state)
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} qubits"
        )
    for q in qubits:
        if not 0 <= q < n:
            raise SimulationError(f"qubit {q} out of range for {n}-qubit state")

    # Match the state's precision (no-op for the complex128 baseline);
    # mixed-dtype matmul would upcast, round twice, and run slower.
    matrix = np.asarray(matrix, dtype=state.dtype)
    # View the vector as a tensor with one axis per target qubit.
    shape, axis = _split_shape(n, qubits)
    tensor = state.reshape(shape)
    # Move target axes to the front, most significant target first so that
    # flattening them yields the matrix's basis ordering (qubits[0] = LSB).
    axes = [axis[q] for q in reversed(qubits)]
    _fold_apply(np.moveaxis(tensor, axes, range(k)), matrix, scratch)


def apply_diagonal(state: np.ndarray, diagonal: np.ndarray, qubits: tuple[int, ...]) -> None:
    """Apply a diagonal unitary given by its ``2^k`` diagonal entries, in place."""
    n = _num_qubits_of(state)
    k = len(qubits)
    if diagonal.shape != (1 << k,):
        raise SimulationError(
            f"diagonal length {diagonal.shape} does not match {k} qubits"
        )
    diagonal = np.asarray(diagonal, dtype=state.dtype)
    shape, axis = _split_shape(n, qubits)
    tensor = state.reshape(shape)
    axes = [axis[q] for q in reversed(qubits)]
    moved = np.moveaxis(tensor, axes, range(k))
    moved *= diagonal.reshape((2,) * k + (1,) * (len(shape) - k))


def apply_controlled(
    state: np.ndarray,
    matrix: np.ndarray,
    controls: tuple[int, ...],
    targets: tuple[int, ...],
    scratch=None,
) -> None:
    """Apply ``matrix`` on ``targets`` where every control qubit is 1, in place."""
    n = _num_qubits_of(state)
    matrix = np.asarray(matrix, dtype=state.dtype)
    for c in controls:
        if not 0 <= c < n:
            raise SimulationError(f"control qubit {c} out of range")
    shape, axis = _split_shape(n, tuple(controls) + tuple(targets))
    tensor = state.reshape(shape)
    selector: list = [slice(None)] * len(shape)
    for c in controls:
        selector[axis[c]] = 1
    view = tensor[tuple(selector)]
    # Remaining axes keep their order; recompute target positions among them.
    control_axes = {axis[c] for c in controls}
    remaining = [a for a in range(len(shape)) if a not in control_axes]
    sub_axes = [remaining.index(axis[t]) for t in reversed(targets)]
    _fold_apply(np.moveaxis(view, sub_axes, range(len(targets))), matrix, scratch)


def apply_gate(state: np.ndarray, gate: Gate, scratch=None) -> None:
    """Apply ``gate`` to ``state`` in place, dispatching to the best kernel.

    ``scratch`` (at least ``2 * state.size`` elements) hosts the
    non-diagonal kernels' temporaries instead of fresh allocations.
    """
    if gate.is_diagonal:
        # The memoized diagonal avoids building the full 2^k x 2^k matrix
        # just to read its diagonal, once per call.
        apply_diagonal(state, gate.diagonal(), gate.qubits)
    elif gate.name in ("cx", "cy"):
        base = gate.matrix()[np.ix_([1, 3], [1, 3])]
        apply_controlled(state, base, gate.qubits[:1], gate.qubits[1:], scratch)
    elif gate.name == "ccx":
        apply_controlled(
            state,
            np.array([[0, 1], [1, 0]], dtype=np.complex128),
            gate.qubits[:2],
            gate.qubits[2:],
            scratch,
        )
    else:
        apply_matrix(state, gate.matrix(), gate.qubits, scratch)
