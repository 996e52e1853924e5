"""High-level flows: the paper's primary contribution and its extensions.

* :mod:`repro.core.compiled` -- the compiled circuit IR every simulator
  evaluates through (integer-indexed schedule, fanout cones, memoized
  per-netlist-version compile cache).
* :mod:`repro.core.embedded` -- embedded-block composition and SWA_func
  estimation under functional input sequences.
* :mod:`repro.core.functional` -- functional broadside test extraction.
* :mod:`repro.core.builtin_gen` -- built-in generation of functional
  broadside tests under primary input constraints (Fig 4.9).
* :mod:`repro.core.state_holding` -- the optional state-holding DFT
  (Figs 4.10-4.13): :func:`run_with_state_holding` selects the holding
  sets and applies each in one pass.
* :mod:`repro.core.signal_patterns` -- the pattern-of-signal-transitions
  extension sketched in the conclusions ([90]).

Re-exports resolve lazily (PEP 562): :mod:`repro.core.compiled` sits
*below* :mod:`repro.logic` in the layering (the simulators import it), so
importing it must not drag in the generation flows that sit above.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "BuiltinGenConfig": "repro.core.builtin_gen",
    "BuiltinGenerator": "repro.core.builtin_gen",
    "BuiltinGenResult": "repro.core.builtin_gen",
    "CompiledCircuit": "repro.core.compiled",
    "compile_circuit": "repro.core.compiled",
    "compose": "repro.core.embedded",
    "compose_with_buffers": "repro.core.embedded",
    "estimate_swa_func": "repro.core.embedded",
    "run_with_state_holding": "repro.core.state_holding",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.core.builtin_gen import (
        BuiltinGenConfig,
        BuiltinGenerator,
        BuiltinGenResult,
    )
    from repro.core.compiled import CompiledCircuit, compile_circuit
    from repro.core.embedded import compose, compose_with_buffers, estimate_swa_func
    from repro.core.state_holding import run_with_state_holding


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
