"""Scalar three-valued logic simulation.

The reference simulator: clear, exact, three-valued (0/1/X).  It is the
semantic ground truth that the bit-parallel simulator
(:mod:`repro.logic.bitsim`) is property-tested against, and the workhorse
for ATPG (which needs X values) and for small examples.

Key entry points:

* :func:`simulate_comb` -- evaluate the combinational core for one input
  assignment.
* :func:`next_state` -- the state the flip-flops capture.
* :func:`simulate_sequence` -- cycle-accurate functional simulation of a
  primary input sequence from an initial state (Section 4.3's
  ``P -> S`` trajectory), recording everything Chapter 4 needs: the state
  sequence, per-cycle line values, and per-cycle switching activity.
* :func:`simulate_broadside` -- two-pattern (launch/capture) simulation of
  a broadside test, returning both frames' line values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.circuits.netlist import Circuit
from repro.core.compiled import CompiledCircuit, compile_circuit
from repro.logic.patterns import BroadsideTest, Pattern, pattern_values
from repro.logic.values import X, is_binary


def simulate_comb(circuit: Circuit, input_values: Mapping[str, int]) -> dict[str, int]:
    """Evaluate the combinational core; unassigned inputs are X.

    ``input_values`` maps primary-input and present-state line names to
    values; a key that names anything else (a gate output, a typo) raises
    :class:`ValueError` so misdirected assignments cannot silently become
    X.  Returns a value for every line in the circuit.
    """
    compiled = compile_circuit(circuit)
    values = compiled.x_frame()
    compiled.load_inputs(values, input_values)
    compiled.eval_scalar(values)
    return compiled.as_dict(values)


def next_state(circuit: Circuit, line_values: Mapping[str, int]) -> tuple[int, ...]:
    """The state vector the flip-flops capture from evaluated line values."""
    return tuple(line_values[f.d] for f in circuit.flops)


def output_values(circuit: Circuit, line_values: Mapping[str, int]) -> tuple[int, ...]:
    """Primary output values from evaluated line values."""
    return tuple(line_values[po] for po in circuit.outputs)


def simulate_pattern(circuit: Circuit, pattern: Pattern) -> dict[str, int]:
    """Evaluate the circuit under one ``<s, v>`` pattern."""
    return simulate_comb(circuit, pattern_values(circuit, pattern))


@dataclass(frozen=True)
class SequenceResult:
    """Trajectory of a functional simulation run.

    Attributes
    ----------
    states:
        ``L+1`` state vectors ``s(0) .. s(L)``.
    line_values:
        Per-cycle full line valuations (``L`` entries, one per applied
        primary input vector).
    switching:
        ``switching[i]`` is the *switching activity* during clock cycle
        ``i`` -- the percentage of lines whose value in cycle ``i`` differs
        from cycle ``i-1`` (Section 4.4).  ``switching[0]`` is 0.0 and is
        considered undefined, matching the paper's Table 4.1.
    """

    states: list[tuple[int, ...]]
    line_values: list[dict[str, int]]
    switching: list[float]

    @property
    def peak_switching(self) -> float:
        """Peak per-cycle switching activity (ignoring the undefined cycle 0)."""
        return max(self.switching[1:], default=0.0)


def simulate_sequence(
    circuit: Circuit,
    initial_state: Sequence[int],
    pi_vectors: Sequence[Sequence[int]],
    keep_line_values: bool = True,
    compiled: CompiledCircuit | None = None,
    hold_indices: Sequence[int] | None = None,
    hold_period_log2: int = 2,
) -> SequenceResult:
    """Functional simulation of a primary input sequence.

    Applies ``pi_vectors[0..L-1]`` from ``initial_state``; the circuit
    traverses ``s(0)=initial_state, s(1), ..., s(L)`` where ``s(i+1)`` is
    the response to ``<s(i), p(i)>``.

    With ``hold_indices`` the run replays the state-holding DFT of
    Section 4.5: at every cycle ``i`` with ``i % 2**h == 0`` (``h`` =
    ``hold_period_log2``) the state variables at those positions do not
    capture, ``s(i+1)[k] = s(i)[k]``.  Tests start at even cycles and
    ``h >= 1`` is required, so a held transition is always a launch,
    never a capture; :func:`repro.core.state_holding.hold_indices` maps
    state-variable names to positions.

    The whole trajectory runs on the compiled IR: per cycle, one flat
    valuation array is evaluated and the switching-activity count is an
    elementwise comparison of consecutive arrays -- no per-line dict
    traffic.  Callers owning a :class:`CompiledCircuit` (the built-in
    generation loop simulates hundreds of segments of one circuit) may pass
    it as ``compiled``; otherwise the memoized compile cache supplies it.
    """
    if hold_indices and hold_period_log2 < 1:
        raise ValueError("h must be >= 1 so capture transitions are never held")
    cc = compiled if compiled is not None else compile_circuit(circuit)
    state = tuple(initial_state)
    if len(state) != cc.n_state:
        raise ValueError(
            f"initial state has {len(state)} bits, circuit has {cc.n_state} flops"
        )
    period = 1 << hold_period_log2
    n_inputs = cc.n_inputs
    n_sources = cc.n_sources
    ns_indices = cc.next_state_indices
    states = [state]
    all_values: list[dict[str, int]] = []
    switching: list[float] = []
    prev: list[int] | None = None
    n_lines = cc.num_lines
    for i, p in enumerate(pi_vectors):
        values = cc.x_frame()
        for j, b in zip(range(n_inputs), p):
            values[j] = b
        values[n_inputs:n_sources] = state
        cc.eval_scalar(values)
        if prev is None:
            switching.append(0.0)
        else:
            changed = sum(1 for a, b in zip(values, prev) if a != b)
            switching.append(100.0 * changed / n_lines)
        nxt = [values[idx] for idx in ns_indices]
        if hold_indices and i % period == 0:
            for k in hold_indices:
                nxt[k] = state[k]
        state = tuple(nxt)
        states.append(state)
        if keep_line_values:
            all_values.append(cc.as_dict(values))
        prev = values
    return SequenceResult(states=states, line_values=all_values, switching=switching)


def simulate_broadside(
    circuit: Circuit, test: BroadsideTest
) -> tuple[dict[str, int], dict[str, int]]:
    """Simulate both frames of a broadside test.

    Returns ``(frame1_values, frame2_values)`` -- the full line valuations
    under the first and second patterns.
    """
    frame1 = simulate_pattern(circuit, test.first)
    frame2 = simulate_pattern(circuit, test.second)
    return frame1, frame2


def make_broadside_test(
    circuit: Circuit,
    s1: Sequence[int],
    v1: Sequence[int],
    v2: Sequence[int],
    source_cycle: int = -1,
) -> BroadsideTest:
    """Build a broadside test, deriving ``s2`` as the response to ``<s1, v1>``."""
    frame1 = simulate_comb(
        circuit, dict(zip(circuit.inputs, v1)) | dict(zip(circuit.state_lines, s1))
    )
    s2 = next_state(circuit, frame1)
    return BroadsideTest(
        s1=tuple(s1), v1=tuple(v1), s2=s2, v2=tuple(v2), source_cycle=source_cycle
    )


def verify_broadside(circuit: Circuit, test: BroadsideTest) -> bool:
    """Check that ``s2`` really is the fault-free response to ``<s1, v1>``.

    X values in ``s2`` match anything (a partially specified test).
    """
    frame1 = simulate_pattern(circuit, test.first)
    derived = next_state(circuit, frame1)
    return all(
        not is_binary(expect) or not is_binary(got) or expect == got
        for expect, got in zip(test.s2, derived)
    )


def extract_tests_from_sequence(
    circuit: Circuit,
    result: SequenceResult,
    pi_vectors: Sequence[Sequence[int]],
    spacing: int = 2,
    start: int = 0,
) -> list[BroadsideTest]:
    """Extract functional broadside tests ``t(i)`` from a trajectory.

    Per Section 4.3, a test is defined by any two consecutive time units:
    ``t(i) = <s(i), p(i), s(i+1), p(i+1)>``.  To avoid the state-restore
    hardware an overlap would require, tests are taken every ``spacing``
    (= ``2**q``, default 2) cycles, up to the last ``i`` whose ``p(i+1)``
    and ``s(i+1)`` exist.
    """
    tests: list[BroadsideTest] = []
    limit = min(len(pi_vectors), len(result.states) - 1) - 2
    for i in range(start, limit + 1, spacing):
        tests.append(
            BroadsideTest(
                s1=result.states[i],
                v1=tuple(pi_vectors[i]),
                s2=result.states[i + 1],
                v2=tuple(pi_vectors[i + 1]),
                source_cycle=i,
            )
        )
    return tests
