"""Gate orders of Algorithms 2 and 3 must not move.

``tests/core/data/reorder_golden.json`` holds the sha256 of the reordered
gate sequence (one ``repr((name, qubits, params))`` per line) for every
registry family at widths 10/16/20 and 30-34 (``grover`` only at 10: its
iteration count grows as 2^(n/2)), for greedy and forward-looking, each
with ``commute_diagonals`` off and on.  The hashes were taken from the
original implementation, which rescanned the whole ready list for every
candidate (O(R^2) per step); that implementation is kept below as the
oracle for random circuits.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import GateDag
from repro.circuits.gates import Gate
from repro.circuits.library import BUILDERS, get_circuit
from repro.core.reorder import reorder

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "reorder_golden.json").read_text()
)


def _sha256(circuit: QuantumCircuit) -> str:
    text = "\n".join(repr((g.name, g.qubits, g.params)) for g in circuit.gates)
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=4)
def _circuit(family: str, qubits: int) -> QuantumCircuit:
    return get_circuit(family, qubits)


def test_golden_covers_every_family_strategy_and_dag() -> None:
    assert {entry["family"] for entry in GOLDEN} == set(BUILDERS)
    assert {entry["qubits"] for entry in GOLDEN} == {10, 16, 20, 30, 31, 32, 33, 34}
    assert {
        (entry["strategy"], entry["commute_diagonals"]) for entry in GOLDEN
    } == {
        ("greedy", False), ("greedy", True),
        ("forward_looking", False), ("forward_looking", True),
    }


@pytest.mark.parametrize(
    "entry",
    GOLDEN,
    ids=lambda e: f"{e['family']}{e['qubits']}-{e['strategy']}"
    f"-{'commute' if e['commute_diagonals'] else 'strict'}",
)
def test_reorder_matches_golden_hash(entry) -> None:
    ordered = reorder(
        _circuit(entry["family"], entry["qubits"]), entry["strategy"],
        commute_diagonals=entry["commute_diagonals"],
    )
    assert len(ordered.gates) == entry["gates"]
    assert _sha256(ordered) == entry["sha256"]


# -- the original O(R^2) implementation, kept as the oracle --------------------


def _oracle_cost(qubits: tuple[int, ...], involved: set[int]) -> int:
    return sum(1 for q in qubits if q not in involved)


def _oracle_look_ahead(dag, candidate, ready, pending, involved):
    gate = dag.nodes[candidate].gate
    cost_current = _oracle_cost(gate.qubits, involved)
    involved_after = involved | set(gate.qubits)
    next_ready = [index for index in ready if index != candidate]
    for successor in dag.nodes[candidate].successors:
        if pending[successor] == 1:
            next_ready.append(successor)
    cost_look_ahead = 0
    if next_ready:
        cost_look_ahead = min(
            _oracle_cost(dag.nodes[index].gate.qubits, involved_after)
            for index in next_ready
        )
    return cost_current + cost_look_ahead, cost_current


def _oracle_order(circuit, commute_diagonals, look_ahead):
    """Algorithms 2/3 as first written: every candidate rescans ``ready``."""
    dag = GateDag(circuit, commute_diagonals=commute_diagonals)
    pending = {node.index: len(node.predecessors) for node in dag}
    ready = dag.roots()
    involved: set[int] = set()
    order: list[int] = []
    while ready:
        best_index = None
        best_cost = None
        for index in ready:
            if look_ahead:
                cost = _oracle_look_ahead(dag, index, ready, pending, involved)
            else:
                cost = _oracle_cost(dag.nodes[index].gate.qubits, involved)
            if best_cost is None or cost < best_cost or (
                cost == best_cost and index < best_index
            ):
                best_cost = cost
                best_index = index
        ready.remove(best_index)
        order.append(best_index)
        involved.update(dag.nodes[best_index].gate.qubits)
        for successor in sorted(dag.nodes[best_index].successors):
            pending[successor] -= 1
            if pending[successor] == 0:
                ready.append(successor)
    return tuple(dag.nodes[index].gate for index in order)


# Diagonal and non-diagonal gates of each arity, so the commuting DAG
# exposes many simultaneously ready gates on one qubit.
GATES_BY_ARITY = {
    1: ("h", "x", "t", "z", "rz", "sx"),
    2: ("cx", "cz", "cp", "swap", "rzz"),
    3: ("ccx", "ccz"),
}
PARAMS = {"rz": 1, "cp": 1, "rzz": 1}


@st.composite
def random_circuits(draw) -> QuantumCircuit:
    num_qubits = draw(st.integers(1, 12))
    circuit = QuantumCircuit(num_qubits)
    gates = []
    for position in range(draw(st.integers(0, 60))):
        arity = draw(st.integers(1, min(3, num_qubits)))
        name = draw(st.sampled_from(GATES_BY_ARITY[arity]))
        qubits = tuple(
            draw(st.permutations(range(num_qubits)))[:arity]
        )
        # Distinct angles keep equal-looking gates apart in the comparison.
        params = (0.1 * (position + 1),) * PARAMS.get(name, 0)
        gates.append(Gate(name, qubits, params))
    return circuit.with_gates(gates, suffix="")


@settings(max_examples=300, deadline=None)
@given(
    circuit=random_circuits(),
    look_ahead=st.booleans(),
    commute_diagonals=st.booleans(),
)
def test_reorder_matches_quadratic_oracle(
    circuit: QuantumCircuit, look_ahead: bool, commute_diagonals: bool
) -> None:
    strategy = "forward_looking" if look_ahead else "greedy"
    ordered = reorder(circuit, strategy, commute_diagonals=commute_diagonals)
    assert ordered.gates == _oracle_order(circuit, commute_diagonals, look_ahead)
