"""Weighted random pattern generation ([84]-[87], Section 4.2).

A generalisation of the developed TPG's biasing: instead of the single
probability ``1 - 1/2**m`` per cube-specified input, each primary input
gets a weight from the realisable set ``{1/2**k, 1 - 1/2**k}`` (AND/OR
trees over ``k`` shift-register taps, ``k <= max_taps``).  Weights are
chosen from COP signal probabilities so that hard-to-launch faults become
likelier: an input whose ideal 1-probability is ``w`` receives the
realisable weight closest to ``w``.

The COP targets (:func:`weights_from_cop`) are 0.5 or 0.5 plus or minus
half the damping, so at the default damping every input gets 0.25, 0.5
or 0.75 and every tree is at most two taps wide.  s344's plan, the one
``ablation-weighted-tpg`` runs, is six 2-input ANDs and three 2-input ORs
(``m`` = 2); s298's is one AND and two ORs.  Wider trees come only from
explicit weights.

:class:`WeightedTpg` is the developed TPG of Fig 4.8
(:class:`repro.bist.tpg.DevelopedTpg`) with a tap count per input: an AND
tree is the cube value 0, an OR tree 1 and a direct tap x, and ``m`` is
the widest tree.  It steps, expands lane-packed and charges area exactly
as the developed TPG does; only the plan that sizes it differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

from repro.bist.cube import InputCube
from repro.bist.tpg import DevelopedTpg
from repro.circuits.netlist import Circuit
from repro.logic.probability import signal_probabilities
from repro.logic.values import X


def realisable_weights(max_taps: int) -> list[tuple[float, int, str]]:
    """(probability, taps, gate) triples realisable with AND/OR trees."""
    weights: list[tuple[float, int, str]] = [(0.5, 1, "direct")]
    for k in range(2, max_taps + 1):
        weights.append((1.0 / (1 << k), k, "and"))
        weights.append((1.0 - 1.0 / (1 << k), k, "or"))
    return sorted(weights)


def choose_weight(target: float, max_taps: int) -> tuple[float, int, str]:
    """The realisable weight closest to a target 1-probability."""
    return min(realisable_weights(max_taps), key=lambda w: abs(w[0] - target))


def weights_from_cop(circuit: Circuit, damping: float = 0.5) -> dict[str, float]:
    """Target per-input 1-probabilities from COP analysis.

    Heuristic from the weighted-random literature: push each input's
    probability away from the value that makes its fan-out cone's signal
    probabilities extreme.  We approximate by measuring, per input, the
    average launch probability of its transitive fan-out under p=0.5 and
    nudging the input toward whichever value raises it (evaluated by
    finite difference), damped by ``damping``: every target is 0.5 or
    ``0.5 +- damping * 0.5``.
    """
    base = signal_probabilities(circuit)
    targets: dict[str, float] = {}
    for pi in circuit.inputs:
        cone = circuit.transitive_fanout(pi)
        if not cone:
            targets[pi] = 0.5
            continue

        def cone_merit(p_input: float) -> float:
            prob = signal_probabilities(circuit, {pi: p_input}, iterations=4)
            return sum((1.0 - prob[l]) * prob[l] for l in cone) / len(cone)

        low, high = cone_merit(0.25), cone_merit(0.75)
        if abs(high - low) < 1e-9:
            targets[pi] = 0.5
        elif high > low:
            targets[pi] = 0.5 + damping * 0.5
        else:
            targets[pi] = 0.5 - damping * 0.5
    return targets


#: The input cube value (Section 4.3) each weight tree stands for.
_CUBE_VALUE = {"and": 0, "or": 1, "direct": X}


@dataclass
class WeightedTpg(DevelopedTpg):
    """The developed TPG of Fig 4.8 with per-input AND/OR weight trees."""

    #: per input: (weight, taps, gate-kind)
    plan: list[tuple[float, int, str]] = field(default_factory=list)

    @classmethod
    def for_circuit(
        cls,
        circuit: Circuit,
        weights: Mapping[str, float] | None = None,
        max_taps: int = 4,
        n_lfsr: int = 32,
    ) -> "WeightedTpg":
        """Build from explicit weights or COP-derived ones."""
        if weights is None:
            weights = weights_from_cop(circuit)
        plan = [choose_weight(weights.get(pi, 0.5), max_taps) for pi in circuit.inputs]
        ends = accumulate(taps for _, taps, _ in plan)
        return cls(
            cube=InputCube(values=tuple(_CUBE_VALUE[kind] for _, _, kind in plan)),
            m=max((taps for _, taps, _ in plan), default=1),
            allocation=[tuple(range(end - taps, end)) for (_, taps, _), end in zip(plan, ends)],
            n_lfsr=n_lfsr,
            plan=plan,
        )
