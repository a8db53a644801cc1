"""Dependency-aware gate reordering - Algorithms 2 and 3 of the paper.

Both heuristics traverse the gate-dependency DAG in topological order and
choose, at each step, an executable gate that delays qubit involvement:

* **Greedy** (Algorithm 2): pick the ready gate introducing the fewest new
  qubits.
* **Forward-looking** (Algorithm 3): rank each ready gate by
  ``costCurrent + costLookAhead`` - the new qubits it introduces plus the
  minimum new qubits any gate ready *after* it would introduce.  This looks
  one step past ties and finds orders greedy misses (the paper's Fig. 8c).

Both run through one ready-set loop; greedy is that loop with the
look-ahead term set to zero.

The paper's pseudocode initialises both running minima to 0, which would
never admit a positive cost; the intended infinity-initialisation is used
here.  Ties are broken by original circuit position, making the pass
deterministic (the paper picks randomly among equals).

Reordering never violates a dependency edge, so the simulated final state is
bit-identical to the original order (validated in the test suite).
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import GateDag
from repro.errors import CircuitError


def _reorder(
    circuit: QuantumCircuit, commute_diagonals: bool, look_ahead: bool
) -> QuantumCircuit:
    """The ready-set loop shared by Algorithms 2 and 3.

    Each step runs the ready gate with the smallest
    ``(current + look-ahead, current, original index)``: ``current`` is
    the number of new qubits the gate introduces, the look-ahead term
    (zero for greedy) the fewest new qubits any gate ready *after* it
    would introduce.  Ties on the total prefer the gate that is free right
    now (the paper's Fig. 8c trace runs the zero-cost CNOT before an
    equal-total Hadamard).

    Nothing rescans the ready list.  The loop keeps each ready gate's
    ``cost`` (its new-qubit count), the ready gates by cost (``buckets``)
    and the ready gates on each still-uninvolved qubit (``waiting``).
    Running a gate changes only the costs of the gates waiting on the
    qubits it involves.  A candidate's look-ahead minimum needs only the
    bucket sizes, the gates waiting on its new qubits, and the successors
    it makes ready.  A step costs O(R) for R ready gates, and one ``min``
    over a bucket while a zero-cost gate is ready.
    """
    dag = GateDag(circuit, commute_diagonals=commute_diagonals)
    qubits = [node.gate.qubits for node in dag]
    successors = [sorted(node.successors) for node in dag]
    pending = [len(node.predecessors) for node in dag]
    involved = [False] * circuit.num_qubits
    cost = [0] * len(dag)
    widest = max((len(gate_qubits) for gate_qubits in qubits), default=0)
    buckets: list[set[int]] = [set() for _ in range(widest + 1)]
    waiting: dict[int, set[int]] = {}

    def make_ready(index: int) -> None:
        new = [q for q in qubits[index] if not involved[q]]
        cost[index] = len(new)
        buckets[len(new)].add(index)
        for q in new:
            waiting.setdefault(q, set()).add(index)

    def total_cost(index: int) -> tuple[int, int]:
        """Algorithm 3's ``(current + look-ahead, current)`` for one gate."""
        current = cost[index]
        # A ready gate loses one new qubit per new qubit it shares with
        # ``index``; every other ready gate keeps its cost.
        shared: dict[int, int] = {}
        for q in qubits[index]:
            if not involved[q]:
                for other in waiting[q]:
                    shared[other] = shared.get(other, 0) + 1
        shared.pop(index, None)
        excluded = [0] * len(buckets)
        excluded[current] += 1
        best = None
        for other, count in shared.items():
            excluded[cost[other]] += 1
            after = cost[other] - count
            if best is None or after < best:
                best = after
        for k, members in enumerate(buckets):
            if best is not None and k >= best:
                break
            if len(members) > excluded[k]:
                best = k
                break
        touched = qubits[index]
        for successor in successors[index]:
            if pending[successor] == 1:
                after = sum(
                    1 for q in qubits[successor]
                    if not involved[q] and q not in touched
                )
                if best is None or after < best:
                    best = after
        return current + (best or 0), current

    for index in dag.roots():
        make_ready(index)
    order: list[int] = []
    while any(buckets):
        lowest = next(k for k, members in enumerate(buckets) if members)
        if not look_ahead or lowest == 0:
            # Greedy's look-ahead term is zero, so the lowest bucket wins.
            # Under Algorithm 3 a zero-cost gate wins too: running it
            # changes no other cost, so its look-ahead is at most the
            # cheapest rival's cost, no rival's total is lower, and equal
            # totals go to the gate of current cost 0.
            chosen = min(buckets[lowest])
        else:
            best_key = None
            for k, members in enumerate(buckets):
                # A gate of cost k has a total of at least k and loses
                # equal totals to the cheaper gates already ranked.
                if best_key is not None and best_key[0] <= k:
                    break
                for index in members:
                    candidate = (*total_cost(index), index)
                    if best_key is None or candidate < best_key:
                        best_key = candidate
            chosen = best_key[2]
        buckets[cost[chosen]].discard(chosen)
        order.append(chosen)
        for q in qubits[chosen]:
            if involved[q]:
                continue
            involved[q] = True
            for other in waiting.pop(q):
                if other != chosen:
                    buckets[cost[other]].discard(other)
                    cost[other] -= 1
                    buckets[cost[other]].add(other)
        for successor in successors[chosen]:
            pending[successor] -= 1
            if pending[successor] == 0:
                make_ready(successor)

    if len(order) != len(dag):  # pragma: no cover - DAG is acyclic by build
        raise CircuitError("reordering failed to schedule every gate")
    return circuit.with_gates(
        (dag.nodes[index].gate for index in order), suffix=""
    )


def reorder_greedy(circuit: QuantumCircuit, commute_diagonals: bool = False) -> QuantumCircuit:
    """Greedy reordering (Algorithm 2).

    Args:
        circuit: Circuit to reorder.
        commute_diagonals: Build the DAG with the diagonal-commutation
            relaxation (ablation option; the paper uses the conservative
            DAG).

    Returns:
        A new circuit whose gate order respects every dependency.
    """
    return _reorder(circuit, commute_diagonals, look_ahead=False)


def reorder_forward_looking(
    circuit: QuantumCircuit, commute_diagonals: bool = False
) -> QuantumCircuit:
    """Forward-looking reordering (Algorithm 3)."""
    return _reorder(circuit, commute_diagonals, look_ahead=True)


STRATEGIES = {
    "original": lambda circuit, commute_diagonals=False: circuit,
    "greedy": reorder_greedy,
    "forward_looking": reorder_forward_looking,
}


def reorder(
    circuit: QuantumCircuit, strategy: str = "forward_looking",
    commute_diagonals: bool = False,
) -> QuantumCircuit:
    """Reorder ``circuit`` with the named strategy.

    Args:
        circuit: Circuit to reorder.
        strategy: ``"original"`` (no-op), ``"greedy"`` or
            ``"forward_looking"`` (the Q-GPU default, Section V).
        commute_diagonals: DAG relaxation flag (ablation).
    """
    if strategy not in STRATEGIES:
        raise CircuitError(
            f"unknown reorder strategy {strategy!r}; pick one of {sorted(STRATEGIES)}"
        )
    return STRATEGIES[strategy](circuit, commute_diagonals=commute_diagonals)
