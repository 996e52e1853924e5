"""Structural collapsing of transition faults.

A slow-to-rise fault behaves as a second-frame stuck-at-0 and a
slow-to-fall fault as a stuck-at-1, so each transition fault is keyed by
its ``(line, stuck value)`` site.  Two sites merge only across a
fanout-free BUF or NOT (the gate input being merged is its driver's only
fanout), where the first-frame initialization condition carries over too:

* BUF: input s-a-v  == output s-a-v
* NOT: input s-a-v  == output s-a-(1-v)

The controlling-value merges of stuck-at collapsing (AND/NAND, OR/NOR)
are not applied: see :func:`transition_equivalence_classes`.  The
collapsed list keeps one representative per equivalence class (the
structurally deepest line, matching common ATPG practice).
"""

from __future__ import annotations

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.faults.lists import all_transition_faults
from repro.faults.models import FALL, RISE, TransitionFault


class _UnionFind:
    """Union-find over ``(line, polarity)`` fault sites, with path halving."""

    def __init__(self) -> None:
        """Start with every site its own class (lazily registered)."""
        self.parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(self, x: tuple[str, int]) -> tuple[str, int]:
        """Representative of ``x``'s equivalence class."""
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: tuple[str, int], b: tuple[str, int]) -> None:
        """Merge the classes of ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def transition_equivalence_classes(
    circuit: Circuit,
) -> dict[tuple[str, int], tuple[str, int]]:
    """Equivalence classes valid for *transition* faults.

    Only BUF/NOT connections (across fanout-free stems) are merged.  The
    controlling-value merges used for stuck-at faults are unsound here:
    a transition fault additionally carries a first-pattern initialization
    condition, and e.g. "AND input slow-to-fall" requires the *input* at 1
    under the first pattern while "AND output slow-to-fall" only requires
    the output at 1 -- their detecting test sets differ.

    Memoized per netlist version like :func:`repro.core.compiled.
    compile_circuit`: experiment harnesses re-derive the fault list for
    every probing run of the same circuit, and the classes only change
    when the structure does.
    """
    cached = getattr(circuit, "_transition_classes", None)
    version = circuit.version
    if cached is not None and cached[0] == version:
        return cached[1]
    uf = _UnionFind()
    fanout = circuit.fanout
    fanout_counts = {
        line: len(fanout.get(line, []))
        + (1 if line in circuit.outputs else 0)
        + (1 if line in set(circuit.next_state_lines) else 0)
        for line in circuit.lines
    }
    for gate in circuit.topo_gates:
        if gate.gate_type not in (GateType.BUF, GateType.NOT):
            continue
        src = gate.inputs[0]
        if fanout_counts.get(src, 0) != 1:
            continue
        inv = gate.gate_type == GateType.NOT
        for v in (0, 1):
            uf.union((src, v), (gate.name, (1 - v) if inv else v))
    classes = {
        key: uf.find(key) for key in [(l, v) for l in circuit.lines for v in (0, 1)]
    }
    circuit._transition_classes = (version, classes)
    return classes


def collapse_transition(
    circuit: Circuit, faults: list[TransitionFault]
) -> list[TransitionFault]:
    """One representative transition fault per (BUF/NOT) equivalence class.

    A slow-to-rise fault corresponds to the (line, stuck-at-0) class and a
    slow-to-fall fault to (line, stuck-at-1); the representative line's
    polarity is recovered from the class key.
    """
    classes = transition_equivalence_classes(circuit)
    seen: set[tuple[str, int]] = set()
    out: list[TransitionFault] = []
    for fault in faults:
        key = (fault.line, fault.stuck_value)
        rep = classes.get(key, key)
        if rep not in seen:
            seen.add(rep)
            out.append(
                TransitionFault(line=rep[0], direction=RISE if rep[1] == 0 else FALL)
            )
    return out


def collapsed_transition_faults(circuit: Circuit) -> list[TransitionFault]:
    """The collapsed list over *all* transition faults, memoized.

    Every experiment row, probing run, and holding pass grades against
    this same list; caching it per :attr:`Circuit.version` (the same
    mutation counter :func:`repro.core.compiled.compile_circuit` keys on)
    makes the re-derivation free.  Returns a fresh list each call so
    callers may filter or reorder without corrupting the cache.
    """
    cached = getattr(circuit, "_collapsed_transition", None)
    version = circuit.version
    if cached is not None and cached[0] == version:
        return list(cached[1])
    faults = collapse_transition(circuit, all_transition_faults(circuit))
    circuit._collapsed_transition = (version, tuple(faults))
    return list(faults)
