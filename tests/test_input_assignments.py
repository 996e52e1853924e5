"""Tests for input necessary assignments (Section 3.2)."""

import contextlib
import itertools

import pytest

from repro.atpg import input_assignments
from repro.atpg.implication import binary_only, imply, merge_assignments
from repro.atpg.input_assignments import (
    POTENTIALLY_DETECTABLE,
    UNDETECTABLE,
    compute_input_assignments,
    transition_fault_na,
)
from repro.atpg.unroll import TwoFrameModel
from repro.circuits.benchmarks import get_circuit
from repro.circuits.gates import controlling_value
from repro.experiments.figures import fig_2_1_circuit
from repro.faults.lists import all_transition_faults, tpdf_list_all_paths
from repro.faults.models import Path, RISE, TransitionFault, TransitionPathDelayFault
from repro.faults.pdfsim import tpdf_detection_words
from repro.logic.simulator import make_broadside_test
from repro.logic.values import X
from repro.paths.selection import PathSelector


@pytest.fixture(scope="module")
def s27_model():
    return TwoFrameModel.build(get_circuit("s27"))


class TestSteps:
    def test_fig_2_1_step2_conflict(self):
        c = fig_2_1_circuit()
        model = TwoFrameModel.build(c)
        fault = TransitionPathDelayFault(Path(lines=("c", "d", "e")), RISE)
        result = compute_input_assignments(model, fault, step4=False)
        assert result.status == UNDETECTABLE

    def test_step1_uses_undetectable_set(self, s27_model):
        fault = tpdf_list_all_paths(s27_model.base)[0]
        tr = fault.transition_faults(s27_model.base)[0]
        result = compute_input_assignments(
            s27_model, fault, undetectable_transition_faults={tr}
        )
        assert result.status == UNDETECTABLE

    def test_transition_fault_na_inputs(self, s27_model):
        na = transition_fault_na(s27_model, TransitionFault("G14", RISE))
        assert na is not None
        # G14 = NOT(G0): backward implication determines G0 in both frames.
        assert na["G0@1"] == 1 and na["G0@2"] == 0


class TestNaMemo:
    """``transition_fault_na`` is memoized on the two-frame model."""

    def test_memo_equals_a_fresh_model(self, s27_model, monkeypatch):
        faults = all_transition_faults(s27_model.base)
        first = {tr: transition_fault_na(s27_model, tr) for tr in faults}
        fresh = TwoFrameModel.build(s27_model.base)
        expected = {tr: transition_fault_na(fresh, tr) for tr in faults}
        assert any(na is None for na in expected.values())
        calls = []
        monkeypatch.setattr(
            input_assignments, "imply", lambda *a: calls.append(a) or imply(*a)
        )
        for tr in faults:
            assert transition_fault_na(s27_model, tr) == first[tr] == expected[tr]
        assert not calls  # every repeat call is served from the memo

    def test_mutating_a_result_cannot_change_the_next(self, s27_model):
        fault = TransitionFault("G14", RISE)
        na = transition_fault_na(s27_model, fault)
        before = dict(na)
        with contextlib.suppress(TypeError):
            na["G0@1"] = 0
        with contextlib.suppress(TypeError):
            na["ghost"] = 1
        with contextlib.suppress(TypeError):
            del na["G14@2"]
        assert transition_fault_na(s27_model, fault) == before

    def test_scan_styles_keep_separate_entries(self):
        c = get_circuit("s27")
        broadside = TwoFrameModel.build(c)
        enhanced = TwoFrameModel.build_enhanced(c)
        # q@2 is BUF(d@1) under broadside but a free input under enhanced
        # scan, so a state-line fault's NAs differ between the two.
        fault = TransitionFault(c.state_lines[0], RISE)
        na_broadside = dict(transition_fault_na(broadside, fault))
        na_enhanced = dict(transition_fault_na(enhanced, fault))
        assert na_broadside != na_enhanced
        assert transition_fault_na(broadside, fault) == na_broadside
        assert transition_fault_na(enhanced, fault) == na_enhanced
        assert transition_fault_na(TwoFrameModel.build_enhanced(c), fault) == na_enhanced


class TestSoundness:
    """Necessity is w.r.t. *path-sensitized* TPDF detection.

    Step 3 adds the off-path non-controlling conditions of [16]: they are
    necessary for detecting the fault *through the path* (at least weak
    non-robust sensitization), the detection notion Chapter 3's selection
    uses -- not for the bare all-constituents-detected conjunction.
    """

    def _sensitized_detecting_tests(self, c, fault, tests, words):
        from repro.faults.pdfsim import classify_test

        pdf = fault.as_path_delay_fault
        return [
            tests[i]
            for i in range(len(tests))
            if (words[fault] >> i) & 1 and classify_test(c, pdf, tests[i]) is not None
        ]

    def test_assignments_hold_in_every_sensitized_detecting_test(self, s27_model):
        c = s27_model.base
        faults = tpdf_list_all_paths(c)
        tests = [
            make_broadside_test(c, s1, v1, v2)
            for s1 in itertools.product((0, 1), repeat=3)
            for v1 in itertools.product((0, 1), repeat=4)
            for v2 in itertools.product((0, 1), repeat=4)
        ]
        words = tpdf_detection_words(c, faults, tests)
        checked = 0
        for fault in faults:
            detecting = self._sensitized_detecting_tests(c, fault, tests, words)
            if not detecting:
                continue
            result = compute_input_assignments(s27_model, fault)
            assert result.status == POTENTIALLY_DETECTABLE, fault
            for (name, frame), value in result.input_assignments.items():
                for t in detecting:
                    if name in c.inputs:
                        idx = c.inputs.index(name)
                        actual = t.v1[idx] if frame == 1 else t.v2[idx]
                    else:
                        idx = c.state_lines.index(name)
                        actual = t.s1[idx] if frame == 1 else t.s2[idx]
                    assert actual == value, (fault, name, frame)
            checked += 1
        assert checked > 5

    def test_undetectable_claims_sound(self, s27_model):
        """No fault with a sensitized detecting test is screened out."""
        c = s27_model.base
        faults = tpdf_list_all_paths(c)
        tests = [
            make_broadside_test(c, s1, v1, v2)
            for s1 in itertools.product((0, 1), repeat=3)
            for v1 in itertools.product((0, 1), repeat=4)
            for v2 in itertools.product((0, 1), repeat=4)
        ]
        words = tpdf_detection_words(c, faults, tests)
        for fault in faults:
            result = compute_input_assignments(s27_model, fault)
            if result.status == UNDETECTABLE:
                sensitized = self._sensitized_detecting_tests(
                    c, fault, tests, words
                )
                assert not sensitized, fault


class TestPairs:
    def test_paired_inputs_only_fully_specified(self, s27_model):
        faults = tpdf_list_all_paths(s27_model.base)
        for fault in faults[:10]:
            result = compute_input_assignments(s27_model, fault)
            if result.undetectable:
                continue
            pairs = result.paired_inputs()
            for name, (v1, v2) in pairs.items():
                assert result.input_assignments[(name, 1)] == v1
                assert result.input_assignments[(name, 2)] == v2

    def test_step4_only_adds_assignments(self, s27_model):
        faults = tpdf_list_all_paths(s27_model.base)
        compared = 0
        for fault in faults:
            without = compute_input_assignments(s27_model, fault, step4=False)
            with4 = compute_input_assignments(s27_model, fault, step4=True)
            if without.undetectable or with4.undetectable:
                continue
            assert set(without.input_assignments) <= set(with4.input_assignments)
            for key, v in without.input_assignments.items():
                assert with4.input_assignments[key] == v
            compared += 1
        assert compared > 0


def dict_procedure(model, fault, step4_candidates=256):
    """The four steps over assignment dicts: one ``merge_assignments`` per
    necessary-assignment map or off-path literal, and a full ``imply`` of
    DetCon after steps 2 and 3 and for every step-4 probe.

    Returns ``(status, det_con, input_assignments)``.
    """
    undetectable = (UNDETECTABLE, {}, {})
    circuit, two_frame = model.base, model.model
    det_con = {}
    for tr in fault.transition_faults(circuit):
        na = transition_fault_na(model, tr)
        det_con = None if na is None else merge_assignments(det_con, na)
        if det_con is None:
            return undetectable
    closed = imply(two_frame, det_con)
    if closed is None:
        return undetectable
    det_con = binary_only(closed)
    lines = fault.path.lines
    for prev_line, on_line in zip(lines, lines[1:]):
        gate = circuit.gates[on_line]
        ctrl = controlling_value(gate.gate_type)
        if ctrl is None:
            continue
        for off in gate.inputs:
            if off != prev_line:
                det_con = merge_assignments(det_con, {f"{off}@2": 1 - ctrl})
                if det_con is None:
                    return undetectable
    closed = imply(two_frame, det_con)
    if closed is None:
        return undetectable
    det_con = binary_only(closed)

    support = set()
    for line in lines:
        for frame in (1, 2):
            mline = f"{line}@{frame}"
            if mline in two_frame.gates or mline in two_frame.inputs:
                support |= two_frame.transitive_fanin(mline)
    changed = True
    while changed:
        changed = False
        candidates = [line for line in two_frame.inputs if det_con.get(line, X) == X]
        candidates.sort(key=lambda l: (l not in support, l))
        for line in candidates[:step4_candidates]:
            closed0 = imply(two_frame, det_con | {line: 0})
            closed1 = imply(two_frame, det_con | {line: 1})
            if closed0 is None and closed1 is None:
                return undetectable
            if closed0 is None or closed1 is None:
                det_con = binary_only(closed1 if closed0 is None else closed0)
                changed = True

    inputs = {}
    for name in circuit.inputs + circuit.state_lines:
        for frame in (1, 2):
            v = det_con.get(f"{name}@{frame}", X)
            if v != X:
                inputs[(name, frame)] = v
    return POTENTIALLY_DETECTABLE, det_con, inputs


class TestAgainstDictProcedure:
    """The in-place frame procedure equals the dict procedure on every fault
    path selection screens."""

    @pytest.mark.parametrize("name,n", [("s27", 4), ("s298", 6)])
    def test_screened_faults(self, name, n):
        selector = PathSelector(get_circuit(name), closure_scan=24)
        result = selector.run(n)
        screened = list(result.records) + result.undetectable
        statuses = set()
        for fault in screened:
            got = selector.assignments_of(fault)
            tpdf = TransitionPathDelayFault(path=fault.path, direction=fault.direction)
            want = dict_procedure(selector.model, tpdf)
            assert got.status == want[0], fault
            assert list(got.det_con.items()) == list(want[1].items()), fault
            assert got.input_assignments == want[2], fault
            statuses.add(got.status)
        assert statuses == {UNDETECTABLE, POTENTIALLY_DETECTABLE}

    def test_every_s27_tpdf(self, s27_model):
        for fault in tpdf_list_all_paths(s27_model.base):
            got = compute_input_assignments(s27_model, fault)
            want = dict_procedure(s27_model, fault)
            assert (got.status, got.det_con, got.input_assignments) == want, fault
