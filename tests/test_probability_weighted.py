"""Tests for COP signal probabilities and the weighted TPG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.weighted import (
    WeightedTpg,
    choose_weight,
    realisable_weights,
    weights_from_cop,
)
from repro.circuits.benchmarks import get_circuit
from repro.circuits.netlist import Circuit
from repro.logic.probability import (
    gate_one_probability,
    signal_probabilities,
)
from repro.circuits.gates import GateType


class TestCop:
    def test_gate_formulas(self):
        assert gate_one_probability(GateType.AND, [0.5, 0.5]) == pytest.approx(0.25)
        assert gate_one_probability(GateType.NAND, [0.5, 0.5]) == pytest.approx(0.75)
        assert gate_one_probability(GateType.OR, [0.5, 0.5]) == pytest.approx(0.75)
        assert gate_one_probability(GateType.NOR, [0.5, 0.5]) == pytest.approx(0.25)
        assert gate_one_probability(GateType.XOR, [0.5, 0.5]) == pytest.approx(0.5)
        assert gate_one_probability(GateType.NOT, [0.3]) == pytest.approx(0.7)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=4))
    def test_probabilities_stay_in_unit_interval(self, p):
        for gt in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                   GateType.XOR, GateType.XNOR):
            v = gate_one_probability(gt, p)
            assert -1e-9 <= v <= 1 + 1e-9

    def test_cop_matches_simulation_on_tree(self):
        """On fanout-free logic COP is exact; validate by sampling."""
        import random

        c = Circuit(name="tree")
        for pi in ("a", "b", "cc", "d"):
            c.add_input(pi)
        c.add_gate("n1", "AND", ["a", "b"])
        c.add_gate("n2", "OR", ["cc", "d"])
        c.add_gate("o", "NAND", ["n1", "n2"])
        c.add_output("o")
        c.validate()
        prob = signal_probabilities(c)
        rng = random.Random(0)
        from repro.logic.simulator import simulate_comb

        n, ones = 4000, {line: 0 for line in c.lines}
        for _ in range(n):
            values = simulate_comb(
                c, {pi: rng.randint(0, 1) for pi in c.inputs}
            )
            for line in c.lines:
                ones[line] += values[line]
        for line in c.lines:
            assert prob[line] == pytest.approx(ones[line] / n, abs=0.04)

    def test_deep_and_chain_is_resistant(self):
        """A wide AND cone has a tiny 1-probability (a random-pattern-resistant line)."""
        c = Circuit(name="andchain")
        inputs = [c.add_input(f"i{k}") for k in range(8)]
        c.add_gate("w", "AND", inputs[:4])
        c.add_gate("x", "AND", inputs[4:])
        c.add_gate("o", "AND", ["w", "x"])
        c.add_output("o")
        c.validate()
        prob = signal_probabilities(c)
        assert prob["o"] == pytest.approx(1 / 256)

    def test_sequential_fixpoint(self):
        c = get_circuit("s298")
        prob = signal_probabilities(c)
        assert all(0.0 <= p <= 1.0 for p in prob.values())
        assert len(prob) == c.num_lines


class TestWeights:
    def test_realisable_set(self):
        weights = realisable_weights(3)
        values = {round(w, 4) for w, _, _ in weights}
        assert values == {0.5, 0.25, 0.75, 0.125, 0.875}

    def test_choose_weight(self):
        assert choose_weight(0.95, 4)[0] == pytest.approx(1 - 1 / 16)
        assert choose_weight(0.5, 4) == (0.5, 1, "direct")
        assert choose_weight(0.1, 3)[0] == pytest.approx(0.125)

    def test_weights_from_cop_bounded(self):
        c = get_circuit("s298")
        weights = weights_from_cop(c)
        assert set(weights) == set(c.inputs)
        assert all(0.0 <= w <= 1.0 for w in weights.values())


class TestWeightedTpg:
    def test_empirical_weights_match_plan(self):
        c = get_circuit("s344")
        tpg = WeightedTpg.for_circuit(
            c, weights={pi: 0.875 for pi in c.inputs}, max_taps=3
        )
        seq = tpg.sequence(99, 4000)
        for j, (weight, _, _) in enumerate(tpg.plan):
            ones = sum(v[j] for v in seq) / len(seq)
            assert ones == pytest.approx(weight, abs=0.05)

    def test_deterministic(self):
        c = get_circuit("s298")
        tpg = WeightedTpg.for_circuit(c)
        assert tpg.sequence(5, 30) == tpg.sequence(5, 30)

    def test_plan_sizes_the_register(self):
        """Each input reads its own run of register bits, as wide as its tree."""
        c = get_circuit("s344")
        tpg = WeightedTpg.for_circuit(c)
        assert [len(a) for a in tpg.allocation] == [taps for _, taps, _ in tpg.plan]
        assert [i for a in tpg.allocation for i in a] == list(range(tpg.n_register_bits))
        assert tpg.m == max(taps for _, taps, _ in tpg.plan)
        kinds = [kind for _, _, kind in tpg.plan]
        assert (tpg.n_and_gates, tpg.n_or_gates) == (kinds.count("and"), kinds.count("or"))

    def test_requires_seed(self):
        c = get_circuit("s298")
        with pytest.raises(RuntimeError):
            WeightedTpg.for_circuit(c).next_vector()

    def test_plugs_into_builtin_generator(self):
        """The weighted TPG drives the Chapter 4 flow unchanged."""
        from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
        from repro.faults.collapse import collapse_transition
        from repro.faults.lists import all_transition_faults

        c = get_circuit("s298")
        faults = collapse_transition(c, all_transition_faults(c))
        tpg = WeightedTpg.for_circuit(c)
        cfg = BuiltinGenConfig(segment_length=80, time_limit=8, rng_seed=4)
        result = BuiltinGenerator(c, faults, None, tpg=tpg, config=cfg).run()
        assert result.coverage > 10.0
