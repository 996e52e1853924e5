"""Built-in generation of functional broadside tests under PI constraints.

The paper's primary contribution (Sections 4.4, Fig 4.9): construct
*multi-segment primary input sequences* -- each segment generated on chip
by the TPG from its own LFSR seed -- such that, applied from a reachable
initial state, every clock cycle's switching activity stays within
``SWA_func`` (the peak possible under the embedding design's functional
input sequences) while transition fault coverage is maximised.

Construction procedure per Fig 4.9, with the paper's parameters ``R``
(consecutive failing seeds before a multi-segment sequence is closed) and
``Q`` (consecutive failing construction attempts before the whole process
stops):

1. start a sequence at the reachable initial state (all-0 here);
2. draw a random LFSR seed, produce a length-``L`` segment, simulate it
   from the current state, and truncate at the first cycle whose SWA
   exceeds ``SWA_func`` (to an even boundary, so the segment ends at the
   final state of its last complete test);
3. keep the segment iff its tests detect new faults; the next segment
   starts from its final state (the circuit's state is held while the new
   seed loads);
4. a segment of fewer than two cycles or with no new detections counts as
   a failure.

With a non-empty ``hold_set`` the same construction runs under the
state-holding DFT of Section 4.5 (used for the coverage-improvement pass).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.bist.area import AreaReport, estimate_area
from repro.bist.counters import ControllerCounters
from repro.bist.tpg import DevelopedTpg
from repro.circuits.netlist import Circuit
from repro.circuits.scan import ScanChains
from repro.core.compiled import compile_circuit
from repro.faults.fsim import FaultGrader, compact_groups
from repro.faults.models import TransitionFault
from repro.logic.bitsim import LaneTests, pack_bits, simulate_packed_words
from repro.logic.patterns import BroadsideTest
from repro.logic.simulator import extract_tests_from_sequence, simulate_sequence

#: Surviving candidate lanes are graded in blocks of this many through one
#: PPSFP pass (:meth:`repro.faults.fsim.FaultGrader.preview_groups`), each
#: lane a :class:`~repro.logic.bitsim.LaneTests` view whose good frames
#: are sliced out of the packed run: big enough to amortize the per-fault
#: fixed work across lanes, small enough that an early acceptance wastes
#: at most a few lanes' grading.
GRADE_BLOCK_LANES = 8


@dataclass(frozen=True)
class SegmentRecord:
    """One accepted TPG segment within a multi-segment sequence."""

    seed: int
    length: int
    n_tests: int
    n_new_detections: int
    peak_swa: float


@dataclass
class MultiSegmentSequence:
    """An accepted multi-segment primary input sequence."""

    segments: list[SegmentRecord] = field(default_factory=list)

    @property
    def n_segments(self) -> int:
        """Number of accepted segments in this sequence (``Nseg``)."""
        return len(self.segments)

    @property
    def longest_segment(self) -> int:
        """Length of the longest accepted segment (``Lmax`` contribution)."""
        return max((s.length for s in self.segments), default=0)


@dataclass
class BuiltinGenConfig:
    """Tunable parameters of the construction procedure.

    ``hold_period_log2`` is the paper's ``h``: held state variables skip
    capture every ``2**h`` cycles.  It must be at least 1, so that no
    capture transition of a test is ever held (Section 4.5).

    ``lanes`` caps the packed seed-trial engine: per decision point, up to
    ``min(lanes, R - current failures)`` candidate seeds are drawn,
    expanded, and simulated as bit lanes of one packed run (``None`` means
    64, one word's worth).  A decision of width 1 -- such as each one of
    the ``R = Q = 1`` holding probes -- is a one-lane packed run too.
    ``lanes=1`` instead sends every seed through the one-seed scalar
    loop, the oracle the packed engine is tested against.  The accepted
    segments are bit-identical to that oracle for the same ``rng_seed``
    (the random stream is rewound past speculatively drawn seeds), so
    ``lanes`` is purely a throughput knob.

    ``grade_shards`` must be 1: fault grading always runs in the calling
    process (:class:`repro.faults.fsim.FaultGrader`), and
    ``repro-eda table --jobs`` is the one way rows run in parallel.
    """

    segment_length: int = 300  # the paper's L
    r_limit: int = 3  # R: consecutive seed failures closing a sequence
    q_limit: int = 5  # Q: consecutive failed sequences stopping the process
    spacing: int = 2  # tests every 2**q cycles, q = 1
    hold_period_log2: int = 2  # h: state holding every 2**h cycles
    rng_seed: int = 1
    max_sequences: int = 200  # safety cap
    time_limit: float | None = None  # optional wall-clock cap (seconds)
    lanes: int | None = None  # max seeds per packed run (None = 64, 1 = scalar)
    # Always 1.  benchmarks/e2e still passes grade_shards=1; ROADMAP item
    # 1 moves the benchmark onto the registry and then deletes the field.
    grade_shards: int = 1

    def __post_init__(self) -> None:
        """Reject lanes outside 1..64, ``h < 1`` and any ``grade_shards`` but 1."""
        if self.lanes is not None and not 1 <= self.lanes <= 64:
            raise ValueError(f"lanes must be in 1..64, got {self.lanes}")
        if self.grade_shards != 1:
            raise ValueError(f"grade_shards must be 1, got {self.grade_shards}")
        if self.hold_period_log2 < 1:
            raise ValueError(
                "hold_period_log2 must be >= 1 so capture transitions are "
                f"never held, got {self.hold_period_log2}"
            )


@dataclass
class GenStats:
    """Instrumentation of one construction run (benchmark bookkeeping)."""

    seeds_evaluated: int = 0  # candidate seeds consumed by Fig 4.9 decisions
    seeds_accepted: int = 0  # seeds that became segments
    packed_batches: int = 0  # multi-lane packed simulations run
    scalar_trials: int = 0  # candidates evaluated through the scalar path


@dataclass
class BuiltinGenResult:
    """Everything Tables 4.3 / 4.4 report for one run."""

    sequences: list[MultiSegmentSequence]
    tests: list[BroadsideTest]
    swa_bound: float | None
    peak_swa: float
    detected: set[TransitionFault]
    coverage: float
    counters: ControllerCounters
    area: AreaReport

    @property
    def n_multi(self) -> int:
        """Number of multi-segment sequences (Table 4.3 ``Nmulti``)."""
        return len(self.sequences)

    @property
    def n_seg_max(self) -> int:
        """Largest number of segments in one sequence (``Nsegmax``)."""
        return max((s.n_segments for s in self.sequences), default=0)

    @property
    def l_max(self) -> int:
        """Longest primary input segment (``Lmax``)."""
        return max((s.longest_segment for s in self.sequences), default=0)

    @property
    def n_seeds(self) -> int:
        """Number of selected LFSR seeds (``Nseeds``)."""
        return sum(s.n_segments for s in self.sequences)

    @property
    def n_tests(self) -> int:
        """Number of applied tests (``Ntests``)."""
        return len(self.tests)


class BuiltinGenerator:
    """Built-in functional broadside test generation for one target circuit."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[TransitionFault],
        swa_func: float | None,
        tpg: DevelopedTpg | None = None,
        config: BuiltinGenConfig | None = None,
        initial_state: Sequence[int] | None = None,
        pattern_bank=None,
    ):
        """``pattern_bank`` (a :class:`repro.core.signal_patterns.
        FunctionalPatternBank`) switches segment truncation from the SWA
        bound to the stricter pattern-of-signal-transitions rule of [90]
        (the Section 5.1 future-work metric): a cycle is admissible only
        if its set of toggling (line, direction) pairs is a subset of a
        pattern observed under the functional input sequences.  Not
        combinable with state holding (holding deliberately leaves the
        functional pattern space)."""
        self.circuit = circuit
        # One compiled instance serves every segment simulation of every
        # seed; the grader's PPSFP chunks share it through the same cache.
        self.compiled = compile_circuit(circuit)
        self.config = config or BuiltinGenConfig()
        self.tpg = tpg or DevelopedTpg.for_circuit(circuit)
        self.swa_func = swa_func  # None = unconstrained ("buffers" column)
        self.pattern_bank = pattern_bank
        self.initial_state = tuple(initial_state or [0] * len(circuit.flops))
        self.grader = FaultGrader(circuit, faults)
        self.rng = random.Random(self.config.rng_seed)
        self.chains = ScanChains.partition(circuit)
        self.stats = GenStats()

    # ------------------------------------------------------------------
    def run(self, hold_set: Sequence[str] | None = None) -> BuiltinGenResult:
        """Run the full construction procedure (Fig 4.9)."""
        with obs.span(
            "gen.run", circuit=self.circuit.name, holding=bool(hold_set)
        ):
            return self._run(hold_set)

    def _run(self, hold_set: Sequence[str] | None) -> BuiltinGenResult:
        if hold_set and self.pattern_bank is not None:
            raise ValueError(
                "pattern-bound generation cannot be combined with state "
                "holding: held transitions leave the functional pattern space"
            )
        cfg = self.config
        deadline = time.monotonic() + cfg.time_limit if cfg.time_limit else None
        sequences: list[MultiSegmentSequence] = []
        per_sequence_tests: list[list[BroadsideTest]] = []
        detection_sets: list[set[TransitionFault]] = []
        peak_swa = 0.0
        q_failures = 0
        while q_failures < cfg.q_limit and len(sequences) < cfg.max_sequences:
            if deadline and time.monotonic() > deadline:
                break
            with obs.span("gen.sequence"):
                multi, tests, detected, peak = self._construct_sequence(
                    hold_set, deadline
                )
            if not multi.segments:
                q_failures += 1
                obs.count("gen.sequences_failed")
                continue
            q_failures = 0
            sequences.append(multi)
            per_sequence_tests.append(tests)
            detection_sets.append(detected)
            peak_swa = max(peak_swa, peak)
            if obs.OBS.enabled:
                obs.count("gen.sequences_accepted")
                obs.observe("gen.segments_per_sequence", multi.n_segments)
        # Seed-set reduction: drop whole sequences that no longer
        # contribute coverage (reverse-order / forward-looking pass, [89]).
        kept = compact_groups(detection_sets).kept
        if obs.OBS.enabled:
            obs.count("gen.sequences_compacted_away", len(detection_sets) - len(kept))
        sequences = [sequences[i] for i in kept]
        all_tests = [t for i in kept for t in per_sequence_tests[i]]
        peak_swa = max(
            (seg.peak_swa for s in sequences for seg in s.segments), default=0.0
        )
        counters = ControllerCounters(
            l_max=max((s.longest_segment for s in sequences), default=2),
            l_scan=self.chains.max_length,
            n_seg_max=max((s.n_segments for s in sequences), default=1),
            n_multi=max(len(sequences), 1),
            n_hold_sets=1 if hold_set else 0,
        )
        area = estimate_area(
            self.circuit,
            self.tpg,
            counters,
            n_seeds=sum(s.n_segments for s in sequences),
            n_lfsr=self.tpg.n_lfsr,
            n_hold_sets=1 if hold_set else 0,
            n_held_bits=len(hold_set or ()),
        )
        if obs.OBS.enabled:
            obs.gauge("gen.coverage_percent", round(self.grader.coverage, 4))
            obs.gauge("gen.peak_swa_percent", round(peak_swa, 4))
            obs.count("gen.tests_applied", len(all_tests))
        return BuiltinGenResult(
            sequences=sequences,
            tests=all_tests,
            swa_bound=self.swa_func,
            peak_swa=peak_swa,
            detected=set(self.grader.detected),
            coverage=self.grader.coverage,
            counters=counters,
            area=area,
        )

    # ------------------------------------------------------------------
    def _hold_indices(self, hold_set: Sequence[str] | None) -> list[int] | None:
        """State-vector positions of ``hold_set`` (``None`` without holding)."""
        if not hold_set:
            return None
        from repro.core.state_holding import hold_indices

        return hold_indices(self.circuit, hold_set)

    def _simulate(
        self,
        state: Sequence[int],
        pi_vectors: Sequence[Sequence[int]],
        hold_set: Sequence[str] | None,
    ):
        return simulate_sequence(
            self.circuit,
            state,
            pi_vectors,
            keep_line_values=self.pattern_bank is not None,
            compiled=self.compiled,
            hold_indices=self._hold_indices(hold_set),
            hold_period_log2=self.config.hold_period_log2,
        )

    def _construct_sequence(
        self, hold_set: Sequence[str] | None, deadline: float | None
    ) -> tuple[MultiSegmentSequence, list[BroadsideTest], set[TransitionFault], float]:
        cfg = self.config
        multi = MultiSegmentSequence()
        tests: list[BroadsideTest] = []
        detected: set[TransitionFault] = set()
        state = self.initial_state
        peak = 0.0
        r_failures = 0
        # The pattern-of-signal-transitions bound needs full per-cycle line
        # valuations, which the packed path does not retain.
        cap = 1 if self.pattern_bank is not None else cfg.lanes or 64
        seeds_tried_this_segment = 0
        while r_failures < cfg.r_limit:
            if deadline and time.monotonic() > deadline:
                break
            if cap > 1:
                width = min(cap, cfg.r_limit - r_failures)
                failures, accepted = self._trial_batch(state, width, hold_set)
            else:
                failures, accepted = self._trial_single(state, hold_set)
            if accepted is None:
                r_failures += failures
                seeds_tried_this_segment += failures
                continue
            seed, length, seg_tests, newly, seg_peak, end_state = accepted
            self.grader.commit(newly)
            r_failures = 0
            self.stats.seeds_accepted += 1
            if obs.OBS.enabled:
                obs.count("gen.seeds_accepted")
                obs.observe(
                    "gen.seeds_tried_per_segment",
                    seeds_tried_this_segment + failures + 1,
                )
                obs.observe("gen.segment_length", length)
                obs.observe("gen.new_detections_per_segment", len(newly))
            seeds_tried_this_segment = 0
            multi.segments.append(
                SegmentRecord(
                    seed=seed,
                    length=length,
                    n_tests=len(seg_tests),
                    n_new_detections=len(newly),
                    peak_swa=seg_peak,
                )
            )
            tests.extend(seg_tests)
            detected |= newly
            peak = max(peak, seg_peak)
            state = end_state
        return multi, tests, detected, peak

    # -- candidate evaluation: one seed, scalar trajectory ---------------
    def _trial_single(self, state: Sequence[int], hold_set: Sequence[str] | None):
        """Draw and evaluate one seed the Fig 4.9 way.

        The ``lanes=1`` oracle and the pattern-bank path: every other
        decision, width 1 included, goes through :meth:`_trial_batch`.
        Returns ``(failures, acceptance)``: ``(1, None)`` for a failing
        seed, ``(0, (...))`` with the acceptance payload otherwise.
        """
        cfg = self.config
        seed = self.rng.getrandbits(self.tpg.n_lfsr) or 1
        self.stats.seeds_evaluated += 1
        self.stats.scalar_trials += 1
        obs.count("gen.seeds_evaluated")
        obs.count("gen.scalar_trials")
        with obs.span("gen.expand", seeds=1):
            pi_vectors = self.tpg.sequence(seed, cfg.segment_length)
        with obs.span("gen.simulate", lanes=1):
            result = self._simulate(state, pi_vectors, hold_set)
        length = self._truncate_length(result)
        full = len(result.switching) - (len(result.switching) % 2)
        if length < full and obs.OBS.enabled:
            obs.count("gen.truncations")
            obs.observe("gen.truncated_length", length)
        if length < cfg.spacing:
            return 1, None
        seg_tests = extract_tests_from_sequence(
            self.circuit, result, pi_vectors[:length], spacing=cfg.spacing
        )
        with obs.span("gen.grade", tests=len(seg_tests)):
            newly = self.grader.preview(seg_tests)
        if not newly:
            return 1, None
        seg_peak = max(result.switching[1:length], default=0.0)
        return 0, (seed, length, seg_tests, newly, seg_peak, result.states[length])

    # -- candidate evaluation: up to 64 seeds, packed lanes --------------
    def _trial_batch(
        self, state: Sequence[int], width: int, hold_set: Sequence[str] | None
    ):
        """Evaluate ``width`` candidate seeds as lanes of one packed run.

        Replays the scalar decision sequence exactly: lanes are scanned in
        draw order, each failing lane counts one R-failure, and scanning
        stops at the first lane whose tests newly detect faults.  Seeds
        beyond the stopping point were drawn speculatively, so the random
        stream is rewound and re-advanced by only the consumed draws --
        the next decision point sees the same stream the scalar loop
        would.  Returns ``(failures_before_acceptance, acceptance|None)``.
        """
        cfg = self.config
        n_bits = self.tpg.n_lfsr
        saved = self.rng.getstate()
        seeds = [self.rng.getrandbits(n_bits) or 1 for _ in range(width)]
        with obs.span("gen.expand", seeds=width):
            pi_rows = self._lane_pi_words(seeds, cfg.segment_length)
        with obs.span("gen.simulate", lanes=width):
            packed = simulate_packed_words(
                self.circuit,
                state,
                pi_rows,
                width,
                hold_indices=self._hold_indices(hold_set),
                hold_period_log2=cfg.hold_period_log2,
                compiled=self.compiled,
            )
        self.stats.packed_batches += 1
        obs.count("gen.packed_batches")
        pcts = packed.switching_percent(self.compiled.num_lines)
        lengths = self._lane_lengths(pcts)
        survivors = [lane for lane in range(width) if lengths[lane] >= cfg.spacing]
        lane_newly: dict[int, set[TransitionFault]] = {}
        failures = 0
        accepted = None
        scanned = 0
        for lane in range(width):
            scanned += 1
            length = lengths[lane]
            if length < cfg.spacing:
                failures += 1
                continue
            if lane not in lane_newly:
                block = [k for k in survivors if k >= lane][:GRADE_BLOCK_LANES]
                if obs.OBS.enabled:
                    obs.count("gen.grade_blocks")
                    obs.observe("gen.lanes_per_grade_block", len(block))
                with obs.span("gen.grade", lanes=len(block)):
                    views = [LaneTests(packed, k, lengths[k], cfg.spacing) for k in block]
                    for k, newly in zip(block, self.grader.preview_groups(views)):
                        lane_newly[k] = newly
            newly = lane_newly[lane]
            if not newly:
                failures += 1
                continue
            seg_peak = max(pcts[lane][1:length], default=0.0)
            end_state = tuple((w >> lane) & 1 for w in packed.state_words[length])
            seg_tests = list(LaneTests(packed, lane, length, cfg.spacing))
            accepted = (seeds[lane], length, seg_tests, newly, seg_peak, end_state)
            break
        self.stats.seeds_evaluated += scanned
        obs.count("gen.seeds_evaluated", scanned)
        if scanned < width:
            # Rewind past the speculative draws: only the scanned seeds
            # were consumed by the Fig 4.9 decision sequence.
            self.rng.setstate(saved)
            for _ in range(scanned):
                self.rng.getrandbits(n_bits)
        return failures, accepted

    def _lane_pi_words(self, seeds: Sequence[int], length: int) -> list[list[int]]:
        """Lane-packed TPG expansion of every candidate seed.

        Uses the TPG's vectorized multi-lane stepping when available
        (:meth:`repro.bist.tpg.DevelopedTpg.sequence_batch`); any other
        TPG implementation falls back to per-seed scalar expansion packed
        columnwise.
        """
        batch = getattr(self.tpg, "sequence_batch", None)
        if batch is not None:
            return batch(seeds, length)
        sequences = [self.tpg.sequence(seed, length) for seed in seeds]
        return [
            [pack_bits([seq[i][j] for seq in sequences]) for j in range(len(sequences[0][i]))]
            for i in range(length)
        ]

    def _lane_lengths(self, pcts: Sequence[Sequence[float]]) -> list[int]:
        """Per-lane truncated segment lengths of a packed run's SWA traces."""
        out = [self._swa_cut(lane) for lane in pcts]
        if obs.OBS.enabled:
            length = len(pcts[0])
            full = length - (length % 2)
            truncated = [v for v in out if v < full]
            if truncated:
                obs.count("gen.truncations", len(truncated))
                for v in truncated:
                    obs.observe("gen.truncated_length", v)
        return out

    def _truncate_length(self, result) -> int:
        """Largest even prefix whose every cycle respects the active bound.

        Per Section 4.4: with the first violation at cycle ``j+1``, the
        segment is ``P(0..j-1)`` when ``j`` is even, else ``P(0..j-2)``,
        so the segment ends at the final state of its last complete test.
        With a ``pattern_bank``, a cycle violates when its pattern of
        signal-transitions is not admitted ([90]); otherwise when its SWA
        exceeds ``swa_func`` (:meth:`_swa_cut`).
        """
        if self.pattern_bank is None:
            return self._swa_cut(result.switching)
        from repro.core.signal_patterns import transition_pattern

        length = len(result.switching)
        for i in range(1, len(result.line_values)):
            pattern = transition_pattern(result.line_values[i - 1], result.line_values[i])
            if not self.pattern_bank.admits(pattern):
                j = i - 1
                length = j if j % 2 == 0 else j - 1
                break
        return max(0, length - (length % 2))

    def _swa_cut(self, switching: Sequence[float]) -> int:
        """:meth:`_truncate_length`'s SWA rule over one per-cycle trace."""
        length = len(switching)
        if self.swa_func is not None:
            bound = self.swa_func + 1e-9
            for i in range(1, length):
                if switching[i] > bound:
                    j = i - 1
                    length = j if j % 2 == 0 else j - 1
                    break
        return max(0, length - (length % 2))
