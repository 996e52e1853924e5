"""Chapter 2 flow: deterministic ATPG for transition path delay faults.

Enumerates paths, builds the TPDF fault list, and runs the five-sub-
procedure pipeline (transition-fault ATPG, preprocessing, fault
simulation, dynamic compaction heuristic, branch and bound), printing the
Table 2.1/2.3-style breakdown plus a sample generated test.  Work bounds
end every search, so everything but the trailing ``run time:`` line (the
Table 2.5-style wall-clock split) is the same on every run and host.

Run:  python examples/tpdf_atpg_flow.py [circuit-name] [max-faults]
"""

import sys

from repro.atpg.tpdf import (
    ABORTED,
    DETECTED,
    SUB_BRANCH_BOUND,
    SUB_FSIM,
    SUB_HEURISTIC,
    TpdfPipeline,
    UNDETECTABLE,
)
from repro.circuits.benchmarks import get_circuit
from repro.faults.lists import tpdf_list_all_paths
from repro.paths.enumeration import count_paths


def main(circuit_name: str = "s27", max_faults: str = "200") -> None:
    circuit = get_circuit(circuit_name)
    print(f"circuit: {circuit}  (paths: {count_paths(circuit)})")

    faults = tpdf_list_all_paths(circuit, max_paths=5 * int(max_faults))
    faults = faults[: int(max_faults)]
    print(f"targeting {len(faults)} transition path delay faults")

    report = TpdfPipeline(circuit).run(faults)

    print("\n--- classification (Table 2.1 style) ---")
    print(f"detected:     {report.count(DETECTED)}")
    print(f"undetectable: {report.count(UNDETECTABLE)}")
    print(f"aborted:      {report.count(ABORTED)}")

    print("\n--- per sub-procedure (Table 2.3 style) ---")
    print(f"upper bound after preprocessing: {report.prep_upper_bound}")
    print(f"detected by fault simulation:    {report.detected_by(SUB_FSIM)}")
    print(f"detected by heuristic:           {report.detected_by(SUB_HEURISTIC)}")
    print(f"detected by branch-and-bound:    {report.detected_by(SUB_BRANCH_BOUND)}")

    for fault, outcome in report.outcomes.items():
        if outcome.status == DETECTED and outcome.test is not None:
            print(f"\nsample: {fault}")
            print(f"  detected by test {outcome.test}")
            break

    split = [f"transition-fault ATPG {report.tg_time:.2f}s"]
    split += [f"{name} {t:.2f}s" for name, t in report.sub_times.items()]
    print(f"\nrun time: {', '.join(split)} (Table 2.5 style)")


if __name__ == "__main__":
    main(*sys.argv[1:3])
