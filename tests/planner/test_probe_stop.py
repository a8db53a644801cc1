"""The sparse probe's price-floor stop never changes a plan.

``plan()`` stops the sparse probe once sparse's price provably exceeds
the cheapest rival it would have to beat.  The oracle below is the probe
as it ran before the stop - it always runs until it completes or a
ceiling trips - and every decision field of a plan must equal the
oracle's.  The rationale may differ only where the oracle's runner-up is
sparse: the stopped plan prices sparse at the structural bound instead
of the completed probe's integral, so it quotes a higher sparse price or,
where that lifts sparse above another rival (``ghz``), that rival.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library.registry import BUILDERS, get_circuit
from repro.errors import AnalysisError
from repro.planner import (
    DEFAULT_CONFIG,
    CircuitFeatures,
    analyze_circuit,
    backend_cost,
    plan,
)
from repro.planner.features import (
    PROBE_GATE_CEILING,
    PROBE_SUPPORT_CEILING,
    PROBE_WORK_CEILING,
)
from repro.sparse.state import SparseState

PLAN_MODULE = sys.modules["repro.planner.plan"]

#: The plan fields the stop must leave untouched.
DECISION = (
    "backend", "precision", "workers", "estimated_seconds",
    "estimated_bytes", "approximate",
)

BACKENDS = ("auto", "stabilizer", "sparse", "statevector", "mps")
PRECISIONS = ("auto", "single", "double")

#: Grover's 2^(n/2) iterations make it 438k gates at 10 qubits.
WIDTHS = {"grover": (4, 6, 8)}
DEFAULT_WIDTHS = (6, 10, 14, 18, 30)


def _full_probe(circuit: QuantumCircuit) -> tuple[bool, int, float]:
    """The probe without a price floor: ``(completed, peak, ops)``."""
    state = SparseState(circuit.num_qubits)
    peak = 1
    ops = 0.0
    for index, gate in enumerate(circuit):
        cost = state.support_size * (1 << gate.num_qubits)
        if index >= PROBE_GATE_CEILING or ops + cost > PROBE_WORK_CEILING:
            return False, peak, ops
        ops += cost
        state.apply(gate)
        peak = max(peak, state.support_size)
        if state.support_size > PROBE_SUPPORT_CEILING:
            return False, peak, ops
    return True, peak, ops


def _unprobed(circuit: QuantumCircuit, bond_cap: int) -> CircuitFeatures:
    return analyze_circuit(
        circuit, bond_cap=bond_cap, sparse_price_floor=lambda f: -math.inf
    )


def _oracle_features(circuit: QuantumCircuit, bond_cap: int = 64) -> CircuitFeatures:
    unprobed = _unprobed(circuit, bond_cap)
    completed, peak, ops = _full_probe(circuit)
    return dataclasses.replace(
        unprobed,
        probe_completed=completed,
        probe_stopped=False,
        probe_support_peak=peak,
        probe_support_ops=ops,
        sparse_ops=ops if completed else unprobed.sparse_ops,
    )


def _plan_or_error(circuit, config):
    try:
        return plan(circuit, config)
    except AnalysisError as error:
        return error


class _Planner:
    """Plans one circuit both ways.

    The analysis is a pure function of the circuit and the floor the
    plan's config yields, so the stopped analysis is computed once per
    distinct floor - the floor function itself runs for every config.
    """

    def __init__(self, circuit: QuantumCircuit, bond_cap: int = 64) -> None:
        self.circuit = circuit
        self.oracle = _oracle_features(circuit, bond_cap)
        self.unprobed = _unprobed(circuit, bond_cap)
        self.by_floor: dict[float, CircuitFeatures] = {}

    def _stopped(self, circuit, *, sparse_price_floor, **kwargs):
        floor = sparse_price_floor(self.unprobed)
        if floor not in self.by_floor:
            self.by_floor[floor] = analyze_circuit(
                circuit, sparse_price_floor=lambda f: floor, **kwargs
            )
        return self.by_floor[floor]

    def both(self, config):
        assert config.max_bond == self.unprobed.bond_cap
        with mock.patch.object(PLAN_MODULE, "analyze_circuit", self._stopped):
            stopped = _plan_or_error(self.circuit, config)
        with mock.patch.object(
            PLAN_MODULE, "analyze_circuit", lambda c, **kw: self.oracle
        ):
            oracle = _plan_or_error(self.circuit, config)
        return stopped, oracle


def _without_runner_up(rationale: str) -> str:
    return re.sub(r"vs \w+ [^)]*\)", "vs <runner-up>)", rationale)


def _assert_same_decision(stopped, oracle) -> bool:
    """Assert the stop changed nothing but the quote of a sparse runner-up.

    Returns whether the rationale differed.
    """
    if isinstance(oracle, AnalysisError):
        assert isinstance(stopped, AnalysisError) and str(stopped) == str(oracle)
        return False
    assert not isinstance(stopped, AnalysisError), stopped
    for name in DECISION:
        assert getattr(stopped, name) == getattr(oracle, name), name
    if stopped.rationale == oracle.rationale:
        return False
    assert stopped.features.probe_stopped
    assert "vs sparse " in oracle.rationale
    assert _without_runner_up(stopped.rationale) == _without_runner_up(
        oracle.rationale
    )
    return True


def _registry_cases():
    for family in sorted(BUILDERS):
        for width in WIDTHS.get(family, DEFAULT_WIDTHS):
            yield family, width


@pytest.mark.parametrize("family,width", list(_registry_cases()))
def test_registry_plans_match_full_probe(family: str, width: int) -> None:
    planner = _Planner(get_circuit(family, width))
    for precision in PRECISIONS:
        for backend in BACKENDS:
            for approximate in (False, True):
                config = dataclasses.replace(
                    DEFAULT_CONFIG,
                    backend=backend,
                    precision=precision,
                    allow_approximate=approximate,
                )
                _assert_same_decision(*planner.both(config))


def test_runner_up_sparse_price_is_the_only_rationale_change() -> None:
    # qft_10: statevector wins, sparse is the runner-up, and the stopped
    # probe prices it at the structural bound instead of the exact run.
    stopped, oracle = _Planner(get_circuit("qft", 10)).both(DEFAULT_CONFIG)
    assert _assert_same_decision(stopped, oracle)
    assert stopped.features.probe_stopped
    assert oracle.features.probe_completed


def _boundary_circuit(seed: int) -> QuantumCircuit:
    """A random 12-20 qubit circuit with ~15% Hadamards."""
    rng = random.Random(seed)
    n = rng.randint(12, 20)
    circuit = QuantumCircuit(n, name=f"boundary_{seed}")
    for _ in range(rng.randint(30, 60)):
        draw = rng.random()
        if draw < 0.15:
            circuit.h(rng.randrange(n))
        elif draw < 0.4:
            circuit.t(rng.randrange(n))
        elif draw < 0.6:
            circuit.x(rng.randrange(n))
        else:
            circuit.cx(*rng.sample(range(n), 2))
    return circuit


@pytest.mark.parametrize("seed", [1, 45, 99])
def test_floor_is_the_double_price_sparse_must_beat(seed: int) -> None:
    # Sparse wins by less than the dense engine's single-vs-double gap:
    # a floor priced at complex64 would stop the probe and lose sparse.
    circuit = _boundary_circuit(seed)
    stopped, oracle = _Planner(circuit).both(DEFAULT_CONFIG)
    single = backend_cost(oracle.features, "statevector", precision="single")
    assert single.seconds <= oracle.cost_for("sparse").seconds
    assert oracle.backend == "sparse"
    _assert_same_decision(stopped, oracle)


@pytest.mark.parametrize("approximate", [False, True])
def test_approximate_rival_counts_only_when_allowed(approximate: bool) -> None:
    # At bond cap 1 an approximate MPS run undercuts sparse; it may set
    # the floor only when the config lets it be chosen.
    circuit = QuantumCircuit(20, name="spread_7")
    for q in range(7):
        circuit.h(q)
    for q in range(19):
        circuit.cx(q, q + 1)
    for q in range(7):
        circuit.t(q)
    config = dataclasses.replace(
        DEFAULT_CONFIG, max_bond=1, allow_approximate=approximate
    )
    stopped, oracle = _Planner(circuit, bond_cap=1).both(config)
    assert oracle.cost_for("mps").seconds < oracle.cost_for("sparse").seconds
    assert oracle.backend == ("mps" if approximate else "sparse")
    _assert_same_decision(stopped, oracle)


def test_clifford_circuit_stops_before_the_first_gate() -> None:
    chosen = plan(get_circuit("bv", 18), DEFAULT_CONFIG)
    assert chosen.backend == "stabilizer"
    assert chosen.features.probe_stopped
    assert chosen.features.probe_support_ops == 0.0


@pytest.mark.parametrize(
    "config",
    [
        dataclasses.replace(DEFAULT_CONFIG, precision="single"),
        dataclasses.replace(DEFAULT_CONFIG, backend="mps"),
        dataclasses.replace(
            DEFAULT_CONFIG, backends=("stabilizer", "statevector", "mps")
        ),
    ],
    ids=["single", "forced-mps", "no-sparse"],
)
def test_probe_skipped_when_sparse_cannot_be_chosen(config) -> None:
    features = plan(get_circuit("w", 12), config).features
    assert features.probe_stopped
    assert features.probe_support_ops == 0.0


def test_forced_sparse_runs_the_full_probe() -> None:
    circuit = get_circuit("qft", 10)
    config = dataclasses.replace(DEFAULT_CONFIG, backend="sparse")
    assert plan(circuit, config).features == _oracle_features(circuit)


#: One-qubit gates that keep support (diagonal or permutation) and the
#: ones that split it.  Each circuit draws how often it splits (rarely to
#: about half its gates), so most runs stay support-sparse - sparse wins -
#: and the rest sit near the boundary where the probe stops mid-run.
_KEEP_1Q = ("x", "z", "s", "t")
_SPLIT_1Q = ("h", "sx")


@st.composite
def _support_sparse_circuits(draw) -> QuantumCircuit:
    n = draw(st.integers(1, 20))
    circuit = QuantumCircuit(n, name=f"random_{n}")
    qubits = st.integers(0, n - 1)
    kinds = ("keep",) * 3 + ("split",) * draw(st.integers(0, 4)) + ("two", "rz")
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "keep":
            circuit.add(draw(st.sampled_from(_KEEP_1Q)), draw(qubits))
        elif kind == "split":
            circuit.add(draw(st.sampled_from(_SPLIT_1Q)), draw(qubits))
        elif kind == "rz":
            circuit.rz(draw(st.floats(-3.0, 3.0)), draw(qubits))
        elif n >= 2:
            a, b = draw(st.lists(qubits, min_size=2, max_size=2, unique=True))
            circuit.add(draw(st.sampled_from(("cx", "cz", "swap"))), a, b)
    return circuit


@settings(max_examples=150, deadline=None)
@given(
    circuit=_support_sparse_circuits(),
    precision=st.sampled_from(PRECISIONS),
    backend=st.sampled_from(BACKENDS),
    approximate=st.booleans(),
    max_bond=st.sampled_from((1, 4, 64)),
)
def test_random_plans_match_full_probe(
    circuit, precision, backend, approximate, max_bond
):
    # Small bond caps make approximate MPS cheap, so the floor's
    # exact-only rule decides whether sparse may be stopped.
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        backend=backend,
        precision=precision,
        allow_approximate=approximate,
        max_bond=max_bond,
    )
    _assert_same_decision(*_Planner(circuit, max_bond).both(config))
