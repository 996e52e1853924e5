"""Embedded-block flow: primary input constraints and state holding.

The full Chapter 4 scenario:

1. embed the target circuit behind a driving block (Fig 4.1);
2. estimate ``SWA_func`` from functional input sequences of the design;
3. run built-in generation with the per-cycle switching bound (Fig 4.9);
4. compare against the unconstrained ``buffers`` baseline;
5. recover lost coverage with the state-holding DFT (Figs 4.10-4.13).

Run:  python examples/embedded_block_bist.py [target] [driver]
"""

import sys

from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
from repro.core.embedded import compose, compose_with_buffers, estimate_swa_func
from repro.core.state_holding import run_with_state_holding
from repro.faults.collapse import collapse_transition
from repro.faults.lists import all_transition_faults


def main(target_name: str = "s298", driver_name: str = "s953") -> None:
    target = get_circuit(target_name)
    driver = get_circuit(driver_name)
    faults = collapse_transition(target, all_transition_faults(target))
    config = BuiltinGenConfig(segment_length=150, time_limit=25)

    # Functional switching-activity bounds.
    swa_buffers = estimate_swa_func(
        compose_with_buffers(target), n_sequences=16, length=120
    ).swa_func
    swa_func = estimate_swa_func(
        compose(driver, target), n_sequences=16, length=120
    ).swa_func
    print(f"target {target_name} driven by {driver_name}")
    print(f"SWA_func unconstrained (buffers): {swa_buffers:.2f}%")
    print(f"SWA_func under the driving block: {swa_func:.2f}%")

    # Baseline: no constraints.
    base = BuiltinGenerator(target, faults, None, config=config).run()
    print(
        f"\nbuffers baseline:  FC {base.coverage:.2f}%  "
        f"(tests {base.n_tests}, peak SWA {base.peak_swa:.2f}%)"
    )

    # Constrained run.
    constrained = BuiltinGenerator(target, faults, swa_func, config=config).run()
    print(
        f"constrained run:   FC {constrained.coverage:.2f}%  "
        f"(tests {constrained.n_tests}, peak SWA {constrained.peak_swa:.2f}% "
        f"<= bound {swa_func:.2f}%)"
    )

    # State holding to recover coverage.
    remaining = [f for f in faults if f not in constrained.detected]
    holding = run_with_state_holding(
        target, remaining, swa_func, tree_height=2, config=config
    )
    improvement = 100.0 * len(holding.newly_detected) / len(faults)
    print(
        f"state holding:     +{improvement:.2f}% FC "
        f"({holding.n_sets} sets, {holding.n_bits} held bits, "
        f"peak SWA {holding.peak_swa:.2f}%)"
    )
    print(f"final coverage:    {constrained.coverage + improvement:.2f}%")


if __name__ == "__main__":
    main(*sys.argv[1:3])
