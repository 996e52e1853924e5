"""State-holding DFT for fault-coverage improvement (Section 4.5).

Exclusive use of functional broadside tests loses the faults only
unreachable states detect.  The optional DFT method keeps selected state
variables from changing at certain clock cycles during on-chip generation
(a latch-based clock-gating cell per set, Fig 4.10), steering the circuit
into unreachable states -- while the SWA bound still caps the switching
activity of every accepted segment.

Two constraints from the paper are honoured:

* holding happens every ``2**h`` cycles (the hold-enable NOR tap of
  Fig 4.11), aligned so that **no state variable is held during the
  capture transition** ``s(i+1) -> s(i+2)`` of any test (holding there
  would mask fault effects);
* holding sets are non-overlapping subsets of the state variables,
  selected by the full-binary-tree procedure of Fig 4.12: detecting
  abilities are evaluated from the root (all state variables) down to the
  leaves, then subsets are kept, split, or discarded bottom-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.circuits.netlist import Circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator, BuiltinGenResult
from repro.faults.models import TransitionFault


def hold_indices(circuit: Circuit, hold_set: Sequence[str]) -> list[int]:
    """State-vector positions of the held state variables.

    The index form both holding simulators consume: the scalar
    :func:`repro.logic.simulator.simulate_sequence` and the packed
    lane-wise analogue (:func:`repro.logic.bitsim.simulate_packed_words`).
    """
    hold_names = set(hold_set)
    return [k for k, q in enumerate(circuit.state_lines) if q in hold_names]


# ---------------------------------------------------------------------------
# Set selection (Fig 4.12)
# ---------------------------------------------------------------------------


@dataclass
class HoldingSetSelection:
    """Result of the binary-tree set-selection procedure."""

    sets: list[tuple[str, ...]]
    #: detecting ability recorded for each examined tree node (diagnostics)
    node_detections: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def n_sets(self) -> int:
        """Number of selected holding sets (``Nh``)."""
        return len(self.sets)

    @property
    def n_bits(self) -> int:
        """Total state variables included across selected sets (``Nbits``)."""
        return sum(len(s) for s in self.sets)


def _detecting_ability(
    circuit: Circuit,
    remaining_faults: Sequence[TransitionFault],
    hold_set: Sequence[str],
    swa_func: float | None,
    config: BuiltinGenConfig,
) -> tuple[int, BuiltinGenResult]:
    """Det(set): faults in Fr detected when holding ``hold_set``.

    Per Section 4.5.2, the probing runs use ``R = Q = 1`` -- the cheapest
    configuration that still exercises the whole construction flow.
    """
    probe_cfg = replace(config, r_limit=1, q_limit=1)
    generator = BuiltinGenerator(
        circuit, remaining_faults, swa_func, config=probe_cfg
    )
    result = generator.run(hold_set=hold_set)
    return len(result.detected), result


def select_holding_sets(
    circuit: Circuit,
    remaining_faults: Sequence[TransitionFault],
    swa_func: float | None,
    tree_height: int = 3,
    config: BuiltinGenConfig | None = None,
    rng_seed: int = 7,
) -> HoldingSetSelection:
    """The Fig 4.12 procedure: partition-and-select holding sets.

    A full, complete binary tree of height ``tree_height`` is built by
    randomly halving the parent's set; each node's detecting ability is
    evaluated top-down, then the bottom-up pass decides which subsets
    survive: a leaf with no detections becomes empty; a parent whose
    children jointly do at least as well is replaced by them.  Height 0
    is the root set alone; a negative height raises ``ValueError``.
    """
    if tree_height < 0:
        raise ValueError(f"tree_height must be non-negative, got {tree_height}")
    config = config or BuiltinGenConfig()
    rng = random.Random(rng_seed)
    all_sv = tuple(circuit.state_lines)
    if not all_sv or not remaining_faults:
        return HoldingSetSelection(sets=[])

    # Build the tree: nodes[(level, j)] = subset.
    nodes: dict[tuple[int, int], tuple[str, ...]] = {(0, 0): all_sv}
    height = tree_height
    for level in range(height):
        for j in range(1 << level):
            parent = nodes[(level, j)]
            shuffled = list(parent)
            rng.shuffle(shuffled)
            half = len(shuffled) // 2
            nodes[(level + 1, 2 * j)] = tuple(shuffled[:half])
            nodes[(level + 1, 2 * j + 1)] = tuple(shuffled[half:])

    # Top-down: detecting ability per node.
    det: dict[tuple[int, int], int] = {}
    for key, subset in nodes.items():
        if subset:
            det[key], _ = _detecting_ability(
                circuit, remaining_faults, subset, swa_func, config
            )
        else:
            det[key] = 0

    # Bottom-up: decide partitioning.  `resolved` maps a node to the list
    # of surviving subsets beneath it.
    resolved: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    for level in range(height, -1, -1):
        for j in range(1 << level):
            key = (level, j)
            if key not in nodes:
                continue
            if level == height:  # leaf
                resolved[key] = [nodes[key]] if det[key] > 0 and nodes[key] else []
            else:
                left, right = (level + 1, 2 * j), (level + 1, 2 * j + 1)
                child_best = max(det[left], det[right])
                if det[key] <= child_best:
                    resolved[key] = resolved[left] + resolved[right]
                    det[key] = child_best
                else:
                    resolved[key] = [nodes[key]] if nodes[key] else []

    # Final screen: keep subsets whose construction detects new faults,
    # updating Fr sequentially.
    selection: list[tuple[str, ...]] = []
    fr = list(remaining_faults)
    for subset in resolved[(0, 0)]:
        if not fr:
            break
        generator = BuiltinGenerator(circuit, fr, swa_func, config=config)
        result = generator.run(hold_set=subset)
        if result.detected:
            selection.append(subset)
            detected = set(result.detected)
            fr = [f for f in fr if f not in detected]
    return HoldingSetSelection(sets=selection, node_detections=det)


# ---------------------------------------------------------------------------
# Full coverage-improvement pass (Table 4.4)
# ---------------------------------------------------------------------------


@dataclass
class HoldingRunResult:
    """Outcome of on-chip generation with the selected holding sets."""

    selection: HoldingSetSelection
    per_set_results: list[BuiltinGenResult]
    newly_detected: set[TransitionFault]

    @property
    def n_multi(self) -> int:
        """Total multi-segment sequences across the per-set runs."""
        return sum(r.n_multi for r in self.per_set_results)

    @property
    def n_seg_max(self) -> int:
        """Largest per-sequence segment count across the per-set runs."""
        return max((r.n_seg_max for r in self.per_set_results), default=0)

    @property
    def l_max(self) -> int:
        """Longest accepted segment length across the per-set runs."""
        return max((r.l_max for r in self.per_set_results), default=0)

    @property
    def n_seeds(self) -> int:
        """Total seeds stored across the per-set runs (``Nseeds``)."""
        return sum(r.n_seeds for r in self.per_set_results)

    @property
    def n_tests(self) -> int:
        """Total broadside tests applied across the per-set runs."""
        return sum(r.n_tests for r in self.per_set_results)

    @property
    def peak_swa(self) -> float:
        """Peak per-cycle switching activity across the per-set runs."""
        return max((r.peak_swa for r in self.per_set_results), default=0.0)


def run_with_state_holding(
    circuit: Circuit,
    remaining_faults: Sequence[TransitionFault],
    swa_func: float | None,
    tree_height: int = 3,
    config: BuiltinGenConfig | None = None,
) -> HoldingRunResult:
    """Select holding sets, then run on-chip generation for each in turn.

    A new set is enabled only after all multi-segment sequences of the
    current set have been applied (the set counter / decoder of Fig 4.13).
    """
    config = config or BuiltinGenConfig()
    selection = select_holding_sets(
        circuit, remaining_faults, swa_func, tree_height=tree_height, config=config
    )
    fr = list(remaining_faults)
    newly: set[TransitionFault] = set()
    results: list[BuiltinGenResult] = []
    for subset in selection.sets:
        if not fr:
            break
        generator = BuiltinGenerator(circuit, fr, swa_func, config=config)
        result = generator.run(hold_set=subset)
        results.append(result)
        newly |= result.detected
        fr = [f for f in fr if f not in result.detected]
    return HoldingRunResult(
        selection=selection, per_set_results=results, newly_detected=newly
    )
