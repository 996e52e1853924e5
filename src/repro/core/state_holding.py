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

:func:`run_with_state_holding` is the whole procedure, in one pass.  The
screen that ends Fig 4.12 -- a candidate set is kept only if its full
construction detects faults still undetected -- is Fig 4.13's per-set
application, so the screen's runs are the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from repro.circuits.netlist import Circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator, BuiltinGenResult
from repro.faults.models import TransitionFault

#: Seed of the random halving that builds the Fig 4.12 tree.
_TREE_SEED = 7


def hold_indices(circuit: Circuit, hold_set: Sequence[str]) -> list[int]:
    """State-vector positions of the held state variables.

    The index form both holding simulators consume: the scalar
    :func:`repro.logic.simulator.simulate_sequence` and the packed
    lane-wise analogue (:func:`repro.logic.bitsim.simulate_packed_words`).
    """
    hold_names = set(hold_set)
    return [k for k, q in enumerate(circuit.state_lines) if q in hold_names]


# ---------------------------------------------------------------------------
# Candidate sets (Fig 4.12)
# ---------------------------------------------------------------------------


def _detecting_ability(
    circuit: Circuit,
    remaining_faults: Sequence[TransitionFault],
    hold_set: Sequence[str],
    swa_func: float | None,
    config: BuiltinGenConfig,
) -> int:
    """Det(set): faults in Fr detected when holding ``hold_set``.

    Per Section 4.5.2, the probing runs use ``R = Q = 1`` -- the cheapest
    configuration that still exercises the whole construction flow.
    """
    probe_cfg = replace(config, r_limit=1, q_limit=1)
    generator = BuiltinGenerator(
        circuit, remaining_faults, swa_func, config=probe_cfg
    )
    return len(generator.run(hold_set=hold_set).detected)


def _candidate_sets(
    circuit: Circuit,
    remaining_faults: Sequence[TransitionFault],
    swa_func: float | None,
    tree_height: int,
    config: BuiltinGenConfig,
) -> list[tuple[str, ...]]:
    """The subsets the Fig 4.12 tree keeps, left to right.

    A full, complete binary tree of height ``tree_height`` is built by
    randomly halving the parent's set; each node's detecting ability is
    evaluated top-down.  Bottom-up, a leaf that detects nothing is
    discarded, and a parent is replaced by its children's surviving
    subsets when the better child's Det is at least its own (the parent
    then takes that Det).
    """
    rng = random.Random(_TREE_SEED)
    nodes: dict[tuple[int, int], tuple[str, ...]] = {(0, 0): tuple(circuit.state_lines)}
    for level in range(tree_height):
        for j in range(1 << level):
            shuffled = list(nodes[(level, j)])
            rng.shuffle(shuffled)
            half = len(shuffled) // 2
            nodes[(level + 1, 2 * j)] = tuple(shuffled[:half])
            nodes[(level + 1, 2 * j + 1)] = tuple(shuffled[half:])

    det = {
        key: _detecting_ability(circuit, remaining_faults, subset, swa_func, config)
        if subset
        else 0
        for key, subset in nodes.items()
    }

    def resolve(level: int, j: int) -> tuple[int, list[tuple[str, ...]]]:
        """Det of node ``(level, j)`` after the bottom-up pass, and its subsets."""
        own = det[(level, j)]
        if level == tree_height:
            return own, [nodes[(level, j)]] if own else []
        left, right = resolve(level + 1, 2 * j), resolve(level + 1, 2 * j + 1)
        best = max(left[0], right[0])
        if own <= best:
            return best, left[1] + right[1]
        return own, [nodes[(level, j)]]

    return resolve(0, 0)[1]


# ---------------------------------------------------------------------------
# The coverage-improvement pass (Table 4.4)
# ---------------------------------------------------------------------------


@dataclass
class HoldingRunResult:
    """The selected holding sets and the on-chip generation run of each."""

    sets: list[tuple[str, ...]]
    per_set_results: list[BuiltinGenResult]

    @property
    def n_sets(self) -> int:
        """Number of selected holding sets (``Nh``)."""
        return len(self.sets)

    @property
    def n_bits(self) -> int:
        """Total state variables included across selected sets (``Nbits``)."""
        return sum(len(s) for s in self.sets)

    @property
    def newly_detected(self) -> set[TransitionFault]:
        """Faults of Fr the per-set runs detect."""
        return set().union(*(r.detected for r in self.per_set_results))

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
    tree_height: int,
    config: BuiltinGenConfig,
) -> HoldingRunResult:
    """Select holding sets and run on-chip generation with each, in one pass.

    The Fig 4.12 tree yields the candidate subsets; each then gets the
    full construction at ``config`` on the faults still undetected, in
    order, and is kept if and only if that run detects.  This screen is
    the per-set application of Fig 4.13 -- a new set is enabled only
    after all multi-segment sequences of the current set have been
    applied -- so the kept runs are the ``per_set_results``.  Height 0
    is the root set alone; a negative height raises ``ValueError``.
    """
    if tree_height < 0:
        raise ValueError(f"tree_height must be non-negative, got {tree_height}")
    fr = list(remaining_faults)
    holding = HoldingRunResult(sets=[], per_set_results=[])
    if not fr:
        return holding
    for subset in _candidate_sets(circuit, fr, swa_func, tree_height, config):
        if not fr:
            break
        result = BuiltinGenerator(circuit, fr, swa_func, config=config).run(hold_set=subset)
        if result.detected:
            holding.sets.append(subset)
            holding.per_set_results.append(result)
            fr = [f for f in fr if f not in result.detected]
    return holding
