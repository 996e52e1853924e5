"""Fault-list generation.

Builders for the fault universes the experiments grade against:

* :func:`all_transition_faults` -- both transition faults on every line,
  the universe :func:`repro.faults.collapse.collapsed_transition_faults`
  collapses for Chapter 4.
* :func:`tpdf_list_all_paths` -- transition path delay faults for every
  enumerable path (the Table 2.1 workload).
* :func:`tpdf_list_longest_first` -- TPDFs from the longest paths downward
  (the Table 2.2 workload, where faults are taken "from the longest paths
  to the shorter ones").
"""

from __future__ import annotations

from repro.circuits.netlist import Circuit
from repro.faults.models import (
    FALL,
    RISE,
    Path,
    TransitionFault,
    TransitionPathDelayFault,
)


def all_transition_faults(circuit: Circuit) -> list[TransitionFault]:
    """Both transition faults on every line."""
    return [
        TransitionFault(line, d) for line in circuit.lines for d in (RISE, FALL)
    ]


def tpdfs_of_paths(paths: list[Path]) -> list[TransitionPathDelayFault]:
    """Both TPDFs (rising/falling launch) for each path."""
    return [
        TransitionPathDelayFault(path=p, direction=d)
        for p in paths
        for d in (RISE, FALL)
    ]


def tpdf_list_all_paths(
    circuit: Circuit, max_paths: int | None = None
) -> list[TransitionPathDelayFault]:
    """TPDF fault list over all input-to-observation paths (Table 2.1 style)."""
    from repro.paths.enumeration import enumerate_paths

    paths = enumerate_paths(circuit, limit=max_paths)
    return tpdfs_of_paths(paths)


def tpdf_list_longest_first(
    circuit: Circuit, max_paths: int
) -> list[TransitionPathDelayFault]:
    """TPDFs for the ``max_paths`` structurally longest paths (Table 2.2 style)."""
    from repro.paths.enumeration import k_longest_paths

    paths = k_longest_paths(circuit, k=max_paths)
    return tpdfs_of_paths(paths)
