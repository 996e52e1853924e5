"""Bit-parallel fault simulation for stuck-at and transition faults.

Transition faults under broadside tests are graded with the standard
two-frame semantics (Section 1.2): a ``v -> v'`` transition fault at line
``g`` is detected by ``<s1, v1, s2, v2>`` iff

1. the first pattern sets ``g = v`` in the fault-free circuit, and
2. under the second pattern the fault-free value of ``g`` is ``v'`` and
   the stuck-at-``v`` fault at ``g`` propagates to a primary output or to
   a next-state line (captured into the scan chain).

Simulation is PPSFP-style: all tests of a chunk are packed into integer
words (one bit lane per test), the fault-free frames are evaluated once,
and each fault re-evaluates, event-driven, only the gates its effect
reaches.  Everything runs in the line-index space of the compiled circuit
IR (:mod:`repro.core.compiled`): frames are flat arrays, and each fault
checks only the observation lines its cone can reach.  The tests of a
packed Fig 4.9 run need no packing or evaluation at all: their good
frames are sliced out of the frames the run already evaluated
(:class:`repro.logic.bitsim.LaneTests`).

The module also provides test-set compaction over *seed groups* -- the
reverse-order / forward-looking pass of [89] used by Chapter 4 to reduce
the number of selected LFSR seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.circuits.netlist import Circuit
from repro.core.compiled import CompiledCircuit, compile_circuit
from repro.faults.models import StuckAtFault, TransitionFault
from repro.logic.bitsim import LaneTests, lane_test_frames, pack_columns_indexed
from repro.logic.patterns import BroadsideTest, Pattern
from repro.obs import OBS


def _value_word(word: int, value: int, mask: int) -> int:
    """Word of lanes where a line's packed value equals ``value``."""
    return word if value == 1 else (word ^ mask)


def _pack_frame(
    compiled: CompiledCircuit,
    pi_vectors: Sequence[Sequence[int]],
    state_vectors: Sequence[Sequence[int]],
    mask: int,
) -> list[int]:
    """Pack one two-valued frame straight into a valuation array and evaluate."""
    values = compiled.zero_frame()
    pack_columns_indexed(values, pi_vectors, 0)
    pack_columns_indexed(values, state_vectors, compiled.n_inputs)
    compiled.eval_words(values, mask)
    return values


class TransitionFaultSimulator:
    """Grades transition faults against broadside test sets."""

    def __init__(self, circuit: Circuit, chunk_size: int = 256):
        """Simulate faults on ``circuit``, ``chunk_size`` tests per PPSFP pass."""
        self.circuit = circuit
        self.compiled = compile_circuit(circuit)
        self.chunk_size = chunk_size
        # Observation points: primary outputs plus next-state lines (the
        # compiled IR deduplicates, preserving order).
        self.observation: list[str] = [
            self.compiled.names[i] for i in self.compiled.observation_indices
        ]

    # ------------------------------------------------------------------
    def detection_words(
        self, tests: Sequence[BroadsideTest], faults: Sequence[TransitionFault]
    ) -> dict[TransitionFault, int]:
        """Per-fault detection word: bit ``t`` set iff test ``t`` detects it."""
        words = dict.fromkeys(faults, 0)
        for offset in range(0, len(tests), self.chunk_size):
            chunk = tests[offset : offset + self.chunk_size]
            chunk_words = self._simulate_chunk(chunk, faults)
            for fault, w in chunk_words.items():
                if w:
                    words[fault] |= w << offset
        return words

    def detected_faults(
        self, tests: Sequence[BroadsideTest], faults: Sequence[TransitionFault]
    ) -> set[TransitionFault]:
        """Faults detected by at least one test."""
        remaining = list(faults)
        detected: set[TransitionFault] = set()
        for offset in range(0, len(tests), self.chunk_size):
            if not remaining:
                break
            chunk = tests[offset : offset + self.chunk_size]
            chunk_words = self._simulate_chunk(chunk, remaining)
            newly = {f for f, w in chunk_words.items() if w}
            detected |= newly
            remaining = [f for f in remaining if f not in newly]
        return detected

    def detects(self, test: BroadsideTest, fault: TransitionFault) -> bool:
        """Whether a single test detects a single fault."""
        return bool(self.detection_words([test], [fault])[fault])

    def lane_detection_words(
        self, views: Sequence[LaneTests], faults: Sequence[TransitionFault]
    ) -> tuple[dict[TransitionFault, int], list[int]]:
        """Per-fault detection words of lane views of one packed run, one pass.

        The good frames are the run's own
        (:func:`repro.logic.bitsim.lane_test_frames`), where a test's bit
        is set by its lane and cycle rather than a list position, so the
        second value holds each view's bit mask.
        """
        good1, good2, mask, lane_masks = lane_test_frames(views)
        n = sum(map(len, views))
        return self._frame_words(good1, good2, mask, n, faults), lane_masks

    # ------------------------------------------------------------------
    def _simulate_chunk(
        self, tests: Sequence[BroadsideTest], faults: Sequence[TransitionFault]
    ) -> dict[TransitionFault, int]:
        if not tests:
            return dict.fromkeys(faults, 0)
        n = len(tests)
        mask = (1 << n) - 1
        cc = self.compiled
        good1 = _pack_frame(cc, [t.v1 for t in tests], [t.s1 for t in tests], mask)
        good2 = _pack_frame(cc, [t.v2 for t in tests], [t.s2 for t in tests], mask)
        return self._frame_words(good1, good2, mask, n, faults)

    def _frame_words(
        self,
        good1: Sequence[int],
        good2: Sequence[int],
        mask: int,
        n_tests: int,
        faults: Sequence[TransitionFault],
    ) -> dict[TransitionFault, int]:
        """The PPSFP pass over both good frames; ``mask`` holds the test bits."""
        cc = self.compiled
        index = cc.index
        out: dict[TransitionFault, int] = {}
        # Local tallies, folded into the registry once per chunk -- the
        # per-fault loop is the PPSFP hot path.
        skipped_act = skipped_cone = cones_run = 0
        for fault in faults:
            g = index[fault.line]
            act = _value_word(good1[g], fault.initial_value, mask) & _value_word(
                good2[g], fault.final_value, mask
            )
            if not act:
                skipped_act += 1
                out[fault] = 0
                continue
            cone_obs = cc.cone(g)
            if not cone_obs:
                skipped_cone += 1
                out[fault] = 0
                continue
            forced = mask if fault.stuck_value == 1 else 0
            cones_run += 1
            faulty = cc.faulty_cone_words(good2, g, forced, mask)
            get = faulty.get
            det = 0
            for obs in cone_obs:
                fv = get(obs)
                if fv is not None:
                    det |= fv ^ good2[obs]
                    if det & act == act:
                        break
            out[fault] = det & act
        if OBS.enabled:
            OBS.count("fsim.ppsfp_passes")
            OBS.count("fsim.faults_graded", len(faults))
            OBS.count("fsim.tests_graded", n_tests)
            OBS.count("fsim.cones_resimulated", cones_run)
            OBS.count("fsim.activation_skips", skipped_act)
            OBS.count("fsim.unobservable_skips", skipped_cone)
        return out


# ---------------------------------------------------------------------------
# Incremental grading with fault dropping
# ---------------------------------------------------------------------------


def _group_masks(group_sizes: Iterable[int]) -> list[int]:
    """Bit masks of consecutive groups: group ``k`` takes the next ``group_sizes[k]`` bits."""
    masks: list[int] = []
    offset = 0
    for n in group_sizes:
        masks.append(((1 << n) - 1) << offset)
        offset += n
    return masks


def _split_groups(
    words: Mapping[TransitionFault, int], group_masks: Sequence[int]
) -> list[set[TransitionFault]]:
    """Split per-fault detection words into per-group sets by bit mask.

    A fault lands in group ``k``'s set iff one of the tests whose bits
    ``group_masks[k]`` holds detects it.
    """
    out: list[set[TransitionFault]] = [set() for _ in group_masks]
    for fault, word in words.items():
        if not word:
            continue
        for k, group_mask in enumerate(group_masks):
            if word & group_mask:
                out[k].add(fault)
    return out


class FaultGrader:
    """Incremental transition-fault grading with fault dropping.

    The on-chip generation flow (Chapter 4) repeatedly asks "do the tests
    from this candidate segment detect *additional* faults?".  The grader
    keeps the undetected-fault frontier so each query only simulates
    remaining faults.

    The frontier is a few hundred collapsed faults at most at every
    shipped configuration (32 for s27, 250 for s298, 338 for s344), so
    every preview grades it in this process; ``repro-eda table --jobs``
    parallelizes whole rows instead.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[TransitionFault]):
        """Grade ``faults`` on ``circuit``."""
        self.simulator = TransitionFaultSimulator(circuit)
        self.all_faults = list(faults)
        self.remaining: list[TransitionFault] = list(faults)
        self.detected: set[TransitionFault] = set()

    def preview(self, tests: Sequence[BroadsideTest]) -> set[TransitionFault]:
        """Faults the tests would newly detect, *without* dropping them."""
        if not tests or not self.remaining:
            return set()
        return self.simulator.detected_faults(tests, self.remaining)

    def preview_groups(
        self, test_groups: Sequence[Sequence[BroadsideTest]]
    ) -> list[set[TransitionFault]]:
        """Per-group :meth:`preview` sets, graded in one PPSFP pass.

        The packed Fig 4.9 loop asks the same question for every
        surviving candidate lane of a seed batch: "would this lane's tests
        newly detect anything?".  Grading the lanes separately repeats the
        per-fault fixed work (activation words, cone lookups) once per
        lane; here all groups' tests share one frame set, the per-fault
        detection word is computed once, and the word is split back per
        group by bit masks.  When every group is a
        :class:`~repro.logic.bitsim.LaneTests` view -- the loop's case,
        all views of one packed run -- that frame set is sliced out of the
        run's own frames: no test is materialised, packed or evaluated
        again.  Each returned set equals ``preview(list(test_groups[k]))`` exactly --
        grading is against the current ``remaining`` frontier with no
        dropping between groups.
        """
        if not self.remaining or not any(map(len, test_groups)):
            return [set() for _ in test_groups]
        if all(isinstance(g, LaneTests) for g in test_groups):
            words, masks = self.simulator.lane_detection_words(test_groups, self.remaining)
        else:
            flat = [t for g in test_groups for t in g]
            words = self.simulator.detection_words(flat, self.remaining)
            masks = _group_masks(map(len, test_groups))
        return _split_groups(words, masks)

    def commit(self, newly_detected: Iterable[TransitionFault]) -> None:
        """Drop faults previously returned by :meth:`preview`."""
        newly = set(newly_detected)
        self.detected |= newly
        self.remaining = [f for f in self.remaining if f not in newly]

    def grade(self, tests: Sequence[BroadsideTest]) -> set[TransitionFault]:
        """Simulate, drop, and return the newly detected faults."""
        newly = self.preview(tests)
        self.commit(newly)
        return newly

    @property
    def coverage(self) -> float:
        """Fault coverage in percent over the initial fault list."""
        if not self.all_faults:
            return 0.0
        return 100.0 * len(self.detected) / len(self.all_faults)


# ---------------------------------------------------------------------------
# Stuck-at grading (single pattern)
# ---------------------------------------------------------------------------


def stuck_at_detection_words(
    circuit: Circuit, patterns: Sequence[Pattern], faults: Sequence[StuckAtFault]
) -> dict[StuckAtFault, int]:
    """Per-fault detection words for combinational (single-pattern) tests."""
    cc = compile_circuit(circuit)
    n = len(patterns)
    words = dict.fromkeys(faults, 0)
    if n == 0:
        return words
    mask = (1 << n) - 1
    good = _pack_frame(
        cc, [p.pi for p in patterns], [p.state for p in patterns], mask
    )
    index = cc.index
    for fault in faults:
        g = index[fault.line]
        act = _value_word(good[g], 1 - fault.value, mask)
        if not act:
            continue
        cone_obs = cc.cone(g)
        if not cone_obs:
            continue
        forced = mask if fault.value == 1 else 0
        faulty = cc.faulty_cone_words(good, g, forced, mask)
        get = faulty.get
        det = 0
        for obs in cone_obs:
            fv = get(obs)
            if fv is not None:
                det |= fv ^ good[obs]
        words[fault] = det & act
    return words


# ---------------------------------------------------------------------------
# Seed-group compaction (reverse order / forward-looking, [89])
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactionResult:
    """Indices of kept groups plus the coverage-preservation proof data."""

    kept: tuple[int, ...]
    faults_covered: int


def compact_groups(
    detections: Sequence[set],
) -> CompactionResult:
    """Reduce a sequence of test groups while preserving fault coverage.

    ``detections[i]`` is the set of faults group ``i`` detects.  The pass
    processes groups in reverse order of selection and keeps a group only
    if it detects a fault not detected by the groups kept so far -- the
    classic reverse-order compaction that [89]'s forward-looking fault
    simulation accelerates (here the full detection sets are available, so
    the "looking forward" is exact rather than first-detection-based).
    """
    union_all: set = set()
    for d in detections:
        union_all |= d
    needed = set(union_all)
    kept: list[int] = []
    for i in range(len(detections) - 1, -1, -1):
        contribution = detections[i] & needed
        if contribution:
            kept.append(i)
            needed -= contribution
    kept.reverse()
    return CompactionResult(kept=tuple(kept), faults_covered=len(union_all))


def compact_test_set(
    circuit: Circuit,
    tests: Sequence[BroadsideTest],
    faults: Sequence[TransitionFault],
) -> list[BroadsideTest]:
    """Static compaction of a broadside test set (reverse-order pass).

    Drops tests that detect no fault undetected by the kept tests,
    preserving transition fault coverage exactly -- the per-test analogue
    of the seed-group compaction used by the Chapter 4 flow.
    """
    simulator = TransitionFaultSimulator(circuit)
    words = simulator.detection_words(tests, faults)
    per_test: list[set[TransitionFault]] = [set() for _ in tests]
    for fault, word in words.items():
        while word:
            low = (word & -word).bit_length() - 1
            per_test[low].add(fault)
            word &= word - 1
    kept = compact_groups(per_test).kept
    return [tests[i] for i in kept]
