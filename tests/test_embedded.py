"""Tests for embedded-block composition and SWA_func estimation."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.embedded as embedded
from repro.bist.tpg import DevelopedTpg
from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.embedded import (
    compose,
    compose_with_buffers,
    estimate_swa_func,
)
from repro.logic.simulator import simulate_sequence


def _composed_peaks(design, tpg, n_sequences, length, base_seed=0xC0FFEE):
    """Per-sequence peak target SWA from the combined netlist, scalar.

    Each sequence is the scalar TPG expansion of its seed, simulated over
    ``design.circuit``; a cycle's SWA counts the ``B2_*`` lines that
    toggled, as a percentage of the target's lines.
    """
    circuit = design.circuit
    target_lines = design.target_lines
    peaks = []
    for k in range(n_sequences):
        seed = (base_seed + 0x9E3779B9 * (k + 1)) & 0xFFFFFFFF or 1
        seq = tpg.sequence(seed, length)
        result = simulate_sequence(circuit, [0] * len(circuit.flops), seq)
        values = result.line_values
        peaks.append(
            max(
                (
                    100.0 * sum(1 for line in target_lines if cur[line] != prev[line])
                    / len(target_lines)
                    for prev, cur in zip(values, values[1:])
                ),
                default=0.0,
            )
        )
    return peaks


class TestCompose:
    def test_structure(self):
        driver = get_circuit("s344")
        target = get_circuit("s298")
        design = compose(driver, target)
        c = design.circuit
        assert len(c.inputs) == len(driver.inputs)
        assert len(c.flops) == len(driver.flops) + len(target.flops)
        assert len(design.target_lines) == target.num_lines
        c.validate()

    def test_interface_rule_enforced(self):
        driver = get_circuit("s27")  # 1 output
        target = get_circuit("s298")  # 3 inputs
        with pytest.raises(ValueError):
            compose(driver, target)

    def test_buffers_composition_is_identity(self):
        """Under the buffers driver the target sees the raw input sequence."""
        target = get_circuit("s298")
        design = compose_with_buffers(target)
        seq = [[1, 0, 1], [0, 1, 0], [1, 1, 1]]
        composed = simulate_sequence(
            design.circuit, [0] * len(design.circuit.flops), seq
        )
        standalone = simulate_sequence(target, [0] * len(target.flops), seq)
        # The target flop values must match cycle by cycle.
        for cyc in range(len(seq) + 1):
            composed_state = composed.states[cyc]
            target_part = composed_state[len(design.driver.flops):]
            assert target_part == standalone.states[cyc]

    def test_target_lines_cover_target(self):
        target = get_circuit("s298")
        design = compose_with_buffers(target)
        assert all(line.startswith("B2_") for line in design.target_lines)


class TestSwaFunc:
    def test_matches_scalar_reference(self):
        """The packed estimate equals scalar per-sequence simulation.

        Every lane of the shipped width (16 sequences) is recomputed from
        the scalar TPG expansion of its seed over the composition.
        """
        target = get_circuit("s298")
        design = compose_with_buffers(target)
        tpg = DevelopedTpg.for_circuit(design.driver)
        n_sequences = 16
        est = estimate_swa_func(design, n_sequences=n_sequences, length=40, tpg=tpg)
        assert list(est.per_sequence_peak) == _composed_peaks(design, tpg, n_sequences, 40)
        assert est.swa_func == max(est.per_sequence_peak)

    @pytest.mark.parametrize(
        "driver, target", [("s953", "s298"), ("s344", "s27"), ("s641", "s344")]
    )
    def test_matches_composed_netlist(self, driver, target):
        """Driver, then target alone == the combined netlist, float for float."""
        design = compose(get_circuit(driver), get_circuit(target))
        est = estimate_swa_func(design, n_sequences=12, length=30)
        tpg = DevelopedTpg.for_circuit(design.driver)
        assert list(est.per_sequence_peak) == _composed_peaks(design, tpg, 12, 30)
        assert est.swa_func == max(est.per_sequence_peak)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_composed_netlist_on_generated_pairs(self, data):
        """The same equality on hypothesis-drawn driver/target pairs."""
        n_pi = data.draw(st.integers(1, 4))
        driver = generate(
            GeneratorSpec(
                name="drv",
                n_inputs=data.draw(st.integers(1, 4)),
                n_outputs=data.draw(st.integers(n_pi, n_pi + 3)),
                n_flops=data.draw(st.integers(0, 4)),
                n_gates=data.draw(st.integers(8, 30)),
                seed=data.draw(st.integers(0, 999)),
            )
        )
        target = generate(
            GeneratorSpec(
                name="tgt",
                n_inputs=n_pi,
                n_outputs=data.draw(st.integers(1, 3)),
                n_flops=data.draw(st.integers(0, 4)),
                n_gates=data.draw(st.integers(8, 30)),
                seed=data.draw(st.integers(0, 999)),
            )
        )
        assume(len(driver.outputs) >= len(target.inputs))
        n_sequences = data.draw(st.integers(1, 9))
        length = data.draw(st.integers(1, 12))
        design = compose(driver, target)
        est = estimate_swa_func(design, n_sequences=n_sequences, length=length)
        tpg = DevelopedTpg.for_circuit(driver)
        assert list(est.per_sequence_peak) == _composed_peaks(design, tpg, n_sequences, length)

    def test_never_builds_the_combined_netlist(self):
        design = compose(get_circuit("s953"), get_circuit("s298"))
        estimate_swa_func(design, n_sequences=4, length=20)
        assert "circuit" not in vars(design)
        assert design.circuit is design.circuit  # built once, on first read
        assert "circuit" in vars(design)

    def test_one_packed_run_per_block(self, monkeypatch):
        """An estimate simulates the driver once, then the target alone once."""
        calls = []
        run = embedded.simulate_packed_words

        def counting(circuit, *args, **kwargs):
            calls.append(circuit.name)
            return run(circuit, *args, **kwargs)

        monkeypatch.setattr(embedded, "simulate_packed_words", counting)
        driver = get_circuit("s641")
        estimate_swa_func(compose(driver, get_circuit("s298")), n_sequences=5, length=17)
        estimate_swa_func(compose(driver, get_circuit("s344")), n_sequences=5, length=17)
        assert calls == ["s641", "s298", "s641", "s344"]

    def test_constrained_driver_not_higher_than_buffers(self):
        """A constraining driver cannot raise the peak above ~buffers level."""
        target = get_circuit("s298")
        unconstrained = estimate_swa_func(
            compose_with_buffers(target),
            n_sequences=8,
            length=80,
            tpg=DevelopedTpg.for_circuit(target),
        )
        driver = get_circuit("s953")
        constrained = estimate_swa_func(
            compose(driver, target), n_sequences=8, length=80
        )
        assert constrained.swa_func <= unconstrained.swa_func + 8.0

    def test_lane_cap(self):
        target = get_circuit("s27")
        design = compose_with_buffers(target)
        with pytest.raises(ValueError):
            estimate_swa_func(design, n_sequences=65, length=10)

    def test_estimate_fields(self):
        target = get_circuit("s27")
        design = compose_with_buffers(target)
        est = estimate_swa_func(design, n_sequences=3, length=20)
        assert est.n_sequences == 3
        assert len(est.per_sequence_peak) == 3
        assert est.swa_func == max(est.per_sequence_peak)
