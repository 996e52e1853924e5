"""Property tests: the compiled circuit IR against the scalar reference.

The compiled kernels (`repro.core.compiled`) are the shared evaluation
core under every simulator, so they are checked here against the
pre-refactor dict-based reference (`repro.logic.reference`) on random
circuits from the generator: scalar three-valued agreement (including
X-propagation) for plain simulation, PODEM's good/faulty pair and STA
case analysis, implication seeded from one literal on a closed frame,
bit-parallel agreement, fault-detection verdict agreement, and
compile-cache invalidation after netlist mutation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.podem import simulate_good_faulty
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.compiled import compile_circuit
from repro.faults.fsim import TransitionFaultSimulator
from repro.faults.lists import all_transition_faults
from repro.faults.models import StuckAtFault
from repro.logic.bitsim import pack_columns_indexed
from repro.logic.reference import (
    detects_transition_reference,
    imply_reference,
    simulate_comb_forced_reference,
    simulate_comb_reference,
    simulate_sequence_reference,
)
from repro.logic.simulator import (
    make_broadside_test,
    simulate_comb,
    simulate_sequence,
)
from repro.logic.values import X
from repro.sta.engine import CaseAnalysis, StaEngine


def random_circuit(seed: int, n_inputs: int = 4, n_flops: int = 4, n_gates: int = 30):
    return generate(
        GeneratorSpec(
            name=f"cc{seed}",
            n_inputs=n_inputs,
            n_outputs=3,
            n_flops=n_flops,
            n_gates=n_gates,
            seed=seed,
        )
    )


class TestLowering:
    def test_index_space_layout(self):
        c = random_circuit(0)
        cc = compile_circuit(c)
        assert list(cc.names) == c.lines
        assert cc.n_sources == len(c.inputs) + len(c.flops)
        assert cc.num_lines == c.num_lines
        # Parallel arrays are consistent: one opcode and fanin slice per gate.
        assert len(cc.op_codes) == c.num_gates
        assert len(cc.fanin_offsets) == c.num_gates + 1
        assert cc.fanin_offsets[-1] == len(cc.fanin_indices)
        # Schedule is levelized: every fanin index precedes its gate's line.
        for g, gate in enumerate(c.topo_gates):
            out_idx = cc.n_sources + g
            lo, hi = cc.fanin_offsets[g], cc.fanin_offsets[g + 1]
            fis = cc.fanin_indices[lo:hi]
            assert len(fis) == len(gate.inputs)
            assert all(f < out_idx for f in fis)

    def test_compile_cache_reuse_and_invalidation(self):
        c = random_circuit(1)
        cc1 = compile_circuit(c)
        assert compile_circuit(c) is cc1  # memoized per version
        before = simulate_comb(c, {c.inputs[0]: 1})
        c.add_gate("extra_inv", "NOT", [c.inputs[0]])
        c.add_output("extra_inv")
        cc2 = compile_circuit(c)
        assert cc2 is not cc1  # mutation bumped the version
        assert cc2.version > cc1.version
        after = simulate_comb(c, {c.inputs[0]: 1})
        assert after["extra_inv"] == 0
        # Pre-mutation lines are unaffected.
        for line, v in before.items():
            assert after[line] == v

    def test_cone_matches_transitive_fanout(self):
        c = random_circuit(2)
        cc = compile_circuit(c)
        rng = random.Random(2)
        for line in rng.sample(c.lines, 10):
            # Exactly the observation lines in the cone or on the line
            # itself, in observation order.
            reach = c.transitive_fanout(line) | {line}
            expect = tuple(i for i in cc.observation_indices if cc.names[i] in reach)
            assert cc.cone(cc.index[line]) == expect


def draw_assignment(data, c):
    """A random partial input assignment over 0/1/X."""
    return {
        line: data.draw(st.sampled_from([0, 1, X]))
        for line in c.comb_input_lines
        if data.draw(st.booleans())
    }


class TestScalarAgreement:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reference_with_x(self, data):
        """Compiled scalar == seed reference on all lines, X included."""
        c = random_circuit(data.draw(st.integers(0, 7)))
        assignment = draw_assignment(data, c)
        assert simulate_comb(c, assignment) == simulate_comb_reference(c, assignment)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_good_faulty_matches_forced_reference(self, data):
        """PODEM's good/faulty pair == the unforced/forced reference.

        Every line is a fault site -- sources and gates, both stuck
        values -- so the faulty frame's resume position is checked at
        each schedule position.
        """
        c = random_circuit(data.draw(st.integers(0, 7)))
        assignment = draw_assignment(data, c)
        good = simulate_comb_reference(c, assignment)
        for line in c.lines:
            for v in (0, 1):
                forced = simulate_comb_forced_reference(c, assignment, line, v)
                assert simulate_good_faulty(c, assignment, StuckAtFault(line, v)) == (
                    good,
                    forced,
                ), (line, v)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_case_propagation_matches_reference(self, data):
        """STA case analysis == one reference pass per pattern."""
        c = random_circuit(data.draw(st.integers(0, 7)))
        values = st.sampled_from([0, 1, X])
        pins = {
            line: (data.draw(values), data.draw(values))
            for line in c.comb_input_lines
            if data.draw(st.booleans())
        }
        v1 = simulate_comb_reference(c, {line: p[0] for line, p in pins.items()})
        v2 = simulate_comb_reference(c, {line: p[1] for line, p in pins.items()})
        pairs = StaEngine(c).propagate_case(CaseAnalysis(pins=pins))
        assert pairs == {line: (v1[line], v2[line]) for line in c.lines}

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_sequence_matches_reference(self, data):
        """States, per-cycle values and SWA agree with the seed loop."""
        c = random_circuit(data.draw(st.integers(0, 5)))
        length = data.draw(st.integers(1, 8))
        vectors = [
            [data.draw(st.integers(0, 1)) for _ in c.inputs] for _ in range(length)
        ]
        init = [data.draw(st.integers(0, 1)) for _ in c.flops]
        got = simulate_sequence(c, init, vectors)
        ref = simulate_sequence_reference(c, init, vectors)
        assert got.states == ref.states
        assert got.switching == ref.switching
        assert got.line_values == ref.line_values


def seeded_probes(c, literals):
    """Close ``literals``, then probe every X line with both values.

    Each probe is a copy of the closed frame plus one literal, closed by
    ``imply_scalar`` seeded with that line alone.  Returns
    ``(line, value, closed dict or None, reference on the union)`` per
    probe, or nothing when ``literals`` conflict.
    """
    cc = compile_circuit(c)
    base = imply_reference(c, literals)
    if base is None:
        return []
    known = {line: v for line, v in base.items() if v != X}
    frame = [base[name] for name in cc.names]
    out = []
    for line, v0 in base.items():
        if v0 != X:
            continue
        for v in (0, 1):
            probe = frame.copy()
            probe[cc.index[line]] = v
            got = cc.as_dict(probe) if cc.imply_scalar(probe, [cc.index[line]]) else None
            out.append((line, v, got, imply_reference(c, {**known, line: v})))
    return out


class TestSeededImplication:
    """A closed frame plus one literal, closed from that literal only, equals
    the reference sweep of the union (step 4's probe)."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_the_union(self, data):
        c = random_circuit(data.draw(st.integers(0, 7)))
        literals = data.draw(
            st.dictionaries(st.sampled_from(c.lines), st.integers(0, 1), max_size=4)
        )
        for line, v, got, want in seeded_probes(c, literals):
            assert got == want, (line, v)

    def test_conflicts_are_probed(self):
        rng = random.Random(5)
        outcomes = set()
        for seed in range(8):
            c = random_circuit(seed)
            for _ in range(5):
                literals = {line: rng.randint(0, 1) for line in rng.sample(c.lines, 3)}
                for line, v, got, want in seeded_probes(c, literals):
                    assert got == want, (seed, line, v)
                    outcomes.add(want is None)
        assert outcomes == {True, False}


class TestWordKernelCodegen:
    def test_generated_kernel_matches_scalar(self):
        """The exec-generated eval_words == per-bit eval_scalar."""
        c = random_circuit(3)
        cc = compile_circuit(c)
        rng = random.Random(3)
        lanes = 64
        mask = (1 << lanes) - 1
        values = cc.zero_frame()
        source_bits = [rng.getrandbits(lanes) for _ in range(cc.n_sources)]
        values[0 : cc.n_sources] = source_bits
        cc.eval_words(values, mask)
        for t in range(lanes):
            scalar = cc.zero_frame()
            scalar[0 : cc.n_sources] = [(w >> t) & 1 for w in source_bits]
            cc.eval_scalar(scalar)
            for i in range(cc.num_lines):
                assert (values[i] >> t) & 1 == scalar[i], (i, t)

    def test_kernel_built_once(self):
        c = random_circuit(4)
        cc = compile_circuit(c)
        assert cc._word_kernel is None
        cc.eval_words(cc.zero_frame(), 1)
        kernel = cc._word_kernel
        assert kernel is not None
        cc.eval_words(cc.zero_frame(), 1)
        assert cc._word_kernel is kernel


class TestBitParallelAgreement:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_words_match_scalar(self, data):
        c = random_circuit(data.draw(st.integers(0, 5)))
        n = data.draw(st.integers(1, 12))
        vectors = [
            [data.draw(st.integers(0, 1)) for _ in c.comb_input_lines]
            for _ in range(n)
        ]
        cc = compile_circuit(c)
        values = cc.zero_frame()
        pack_columns_indexed(values, vectors, 0)
        packed = cc.as_dict(cc.eval_words(values, (1 << n) - 1))
        for t, vec in enumerate(vectors):
            scalar = simulate_comb_reference(c, dict(zip(c.comb_input_lines, vec)))
            for line in c.lines:
                assert (packed[line] >> t) & 1 == scalar[line], (line, t)


class TestFaultVerdictAgreement:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_detection_matches_scalar_reference(self, data):
        """PPSFP verdicts == scalar forced-resimulation verdicts."""
        c = random_circuit(data.draw(st.integers(0, 4)))
        rng = random.Random(data.draw(st.integers(0, 999)))
        state = [0] * len(c.flops)
        tests = []
        for _ in range(data.draw(st.integers(1, 5))):
            v1 = [rng.randint(0, 1) for _ in c.inputs]
            v2 = [rng.randint(0, 1) for _ in c.inputs]
            test = make_broadside_test(c, state, v1, v2)
            tests.append(test)
            state = list(test.s2)
        faults = all_transition_faults(c)
        faults = rng.sample(faults, min(30, len(faults)))
        sim = TransitionFaultSimulator(c)
        words = sim.detection_words(tests, faults)
        for fault in faults:
            for t, test in enumerate(tests):
                expect = detects_transition_reference(c, test, fault)
                got = bool((words[fault] >> t) & 1)
                assert got == expect, (fault, t)
