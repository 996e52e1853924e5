"""Tests for the synthetic benchmark generator."""

import random

import pytest

from repro.circuits.benchmarks import available, entry, get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.compiled import compile_circuit
from repro.logic.bitsim import pack_columns_indexed


def spec(**kw):
    base = dict(name="t", n_inputs=5, n_outputs=4, n_flops=6, n_gates=80)
    base.update(kw)
    return GeneratorSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        a = generate(spec())
        b = generate(spec())
        assert [(g.name, g.gate_type, g.inputs) for g in a.topo_gates] == [
            (g.name, g.gate_type, g.inputs) for g in b.topo_gates
        ]

    def test_seed_changes_circuit(self):
        a = generate(spec(seed=0))
        b = generate(spec(seed=1))
        assert [(g.name, g.inputs) for g in a.topo_gates] != [
            (g.name, g.inputs) for g in b.topo_gates
        ]

    def test_interface_counts(self):
        c = generate(spec())
        assert len(c.inputs) == 5
        assert len(c.outputs) == 4
        assert len(c.flops) == 6
        assert c.num_gates == 80

    def test_validates(self):
        generate(spec()).validate()

    def test_depth_is_realistic(self):
        c = generate(spec(n_gates=200))
        assert 4 <= c.depth <= 30

    def test_too_few_gates_rejected(self):
        with pytest.raises(ValueError):
            generate(spec(n_gates=2))

    def test_state_feeds_logic(self):
        c = generate(spec())
        used = {i for g in c.gates.values() for i in g.inputs}
        assert any(q in used for q in c.state_lines)

    def test_few_constant_lines(self):
        """Signature screening keeps degenerate logic rare."""
        c = generate(spec(n_gates=150))
        rng = random.Random(1)
        n = 512
        vecs = [[rng.randint(0, 1) for _ in c.comb_input_lines] for _ in range(n)]
        cc = compile_circuit(c)
        mask = (1 << n) - 1
        frame = cc.zero_frame()
        pack_columns_indexed(frame, vecs, 0)
        vals = cc.as_dict(cc.eval_words(frame, mask))
        constant = [l for l in c.lines if vals[l] in (0, mask)]
        assert len(constant) <= 0.1 * c.num_lines


class TestRegistry:
    def test_available_nonempty(self):
        names = available()
        assert "s27" in names and "s298" in names and "b14" in names

    def test_family_filter(self):
        assert set(available("itc99")) == {"b11", "b12", "b14", "b20"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            entry("s99999")

    def test_s27_is_real(self):
        assert not entry("s27").synthetic
        c = get_circuit("s27")
        assert c.num_gates == 10

    def test_cached(self):
        assert get_circuit("s298") is get_circuit("s298")

    def test_synthetic_matches_registry(self):
        e = entry("s344")
        c = get_circuit("s344")
        assert len(c.inputs) == e.n_inputs
        assert len(c.flops) == e.n_flops
        assert c.num_gates == e.n_gates

    def test_buffers_block(self):
        from repro.circuits.benchmarks import make_buffers_block

        target = get_circuit("s298")
        block = make_buffers_block(target)
        assert len(block.outputs) == len(target.inputs)
        assert len(block.flops) == 0


class TestGeneratorFuzz:
    """Hypothesis fuzzing: any legal spec yields a valid, simulable circuit."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        n_inputs=st.integers(1, 12),
        n_outputs=st.integers(1, 8),
        n_flops=st.integers(0, 10),
        n_gates=st.integers(12, 120),
        seed=st.integers(0, 5),
    )
    def test_random_specs_valid(self, n_inputs, n_outputs, n_flops, n_gates, seed):
        from repro.logic.simulator import simulate_sequence

        spec = GeneratorSpec(
            name="fuzz",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            n_flops=n_flops,
            n_gates=n_gates,
            seed=seed,
        )
        c = generate(spec)
        c.validate()
        assert len(c.inputs) == n_inputs
        assert len(c.flops) == n_flops
        assert c.num_gates == n_gates
        # The circuit must simulate from reset without errors.
        res = simulate_sequence(c, [0] * n_flops, [[1] * n_inputs, [0] * n_inputs])
        assert len(res.states) == 3
