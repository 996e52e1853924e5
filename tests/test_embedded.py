"""Tests for embedded-block composition and SWA_func estimation."""

import pytest

from repro.bist.tpg import DevelopedTpg
from repro.circuits.benchmarks import get_circuit, make_buffers_block
from repro.core.embedded import (
    compose,
    compose_with_buffers,
    estimate_swa_func,
)
from repro.logic.simulator import simulate_sequence


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
        target_lines = set(design.target_lines)
        for k in range(n_sequences):
            seed = (0xC0FFEE + 0x9E3779B9 * (k + 1)) & 0xFFFFFFFF or 1
            seq = tpg.sequence(seed, 40)
            result = simulate_sequence(
                design.circuit, [0] * len(design.circuit.flops), seq
            )
            peaks = []
            prev = None
            for values in result.line_values:
                if prev is not None:
                    changed = sum(
                        1 for line in target_lines if values[line] != prev[line]
                    )
                    peaks.append(100.0 * changed / len(target_lines))
                prev = values
            assert est.per_sequence_peak[k] == max(peaks), k
        assert est.swa_func == max(est.per_sequence_peak)

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
