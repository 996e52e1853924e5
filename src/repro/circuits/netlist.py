"""Gate-level sequential netlist model.

A :class:`Circuit` is an ISCAS89-style netlist: primary inputs, primary
outputs, D flip-flops, and combinational gates.  Every signal is a named
*line*; a line is driven by exactly one of

* a primary input,
* a flip-flop output (a *present-state* line), or
* a combinational gate output,

and may fan out to any number of gate inputs, flip-flop D inputs, and
primary outputs.  The combinational core of the circuit (from primary
inputs and present-state lines to primary outputs and flip-flop D inputs,
the *next-state* lines) is what simulation, ATPG, and timing analysis
operate on.

The class is mutable while being built and computes derived structure
(topological order, levels, fanout) lazily, invalidating caches on any
structural edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.circuits.gates import COMBINATIONAL_TYPES, GateType


class NetlistError(ValueError):
    """Raised for structurally invalid netlists."""


@dataclass(frozen=True)
class Gate:
    """A combinational gate; ``name`` is also its output line name."""

    name: str
    gate_type: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.gate_type not in COMBINATIONAL_TYPES:
            raise NetlistError(f"{self.name}: not a combinational gate type: {self.gate_type}")
        if not self.inputs:
            raise NetlistError(f"{self.name}: gate has no inputs")
        if self.gate_type in (GateType.BUF, GateType.NOT) and len(self.inputs) != 1:
            raise NetlistError(f"{self.name}: {self.gate_type} must have exactly one input")


@dataclass(frozen=True)
class Flop:
    """A D flip-flop; ``q`` is its output (present-state) line, ``d`` its data input."""

    q: str
    d: str


@dataclass
class Circuit:
    """A sequential gate-level circuit.

    Attributes
    ----------
    name:
        Circuit name (benchmark-style, e.g. ``s27``).
    inputs:
        Ordered primary input line names.
    outputs:
        Ordered primary output line names (each references a driven line).
    flops:
        Ordered flip-flops; their order defines the default scan-chain
        stitching order.
    gates:
        Combinational gates keyed by output line name.
    """

    name: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    flops: list[Flop] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._cache: dict[str, object] = {}
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input line."""
        if name in self.inputs:
            raise NetlistError(f"duplicate primary input {name!r}")
        self.inputs.append(name)
        self._invalidate()
        return name

    def add_output(self, name: str) -> str:
        """Declare a primary output (references an existing or future line)."""
        self.outputs.append(name)
        self._invalidate()
        return name

    def add_dff(self, q: str, d: str) -> str:
        """Add a flip-flop with output line ``q`` and data input line ``d``."""
        if any(f.q == q for f in self.flops):
            raise NetlistError(f"duplicate flip-flop output {q!r}")
        self.flops.append(Flop(q=q, d=d))
        self._invalidate()
        return q

    def add_gate(self, name: str, gate_type: GateType | str, inputs: Iterable[str]) -> str:
        """Add a combinational gate driving line ``name``."""
        if isinstance(gate_type, str):
            gate_type = GateType(gate_type.upper())
        if name in self.gates:
            raise NetlistError(f"duplicate gate output {name!r}")
        self.gates[name] = Gate(name=name, gate_type=gate_type, inputs=tuple(inputs))
        self._invalidate()
        return name

    def _invalidate(self) -> None:
        self._cache = {}
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped on every structural edit.

        Consumers that derive expensive structure from the netlist (the
        compiled IR in :mod:`repro.core.compiled`) key their memoization on
        this counter so mutation invalidates them.  Direct mutation of the
        ``gates`` dict or the ``inputs``/``outputs``/``flops`` lists bypasses
        the counter, exactly as it bypasses the lazy structure caches; use
        the ``add_*`` methods.
        """
        return self._version

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def state_lines(self) -> list[str]:
        """Present-state line names in scan order."""
        return [f.q for f in self.flops]

    @property
    def next_state_lines(self) -> list[str]:
        """Next-state (flip-flop D input) line names in scan order."""
        return [f.d for f in self.flops]

    @property
    def comb_input_lines(self) -> list[str]:
        """Inputs of the combinational core: primary inputs then state lines."""
        return list(self.inputs) + self.state_lines

    @property
    def lines(self) -> list[str]:
        """All line names: primary inputs, state lines, gate outputs (topological)."""
        key = "lines"
        if key not in self._cache:
            self._cache[key] = self.comb_input_lines + [g.name for g in self.topo_gates]
        return list(self._cache[key])  # type: ignore[arg-type]

    @property
    def num_lines(self) -> int:
        """Total number of lines in the circuit."""
        return len(self.inputs) + len(self.flops) + len(self.gates)

    @property
    def num_gates(self) -> int:
        """Number of combinational gates."""
        return len(self.gates)

    def driver_kind(self, line: str) -> str:
        """Classify the driver of a line: ``input``, ``state`` or ``gate``."""
        if line in self.gates:
            return "gate"
        if line in self.inputs:
            return "input"
        if line in set(self.state_lines):
            return "state"
        raise NetlistError(f"undriven line {line!r}")

    @property
    def fanout(self) -> dict[str, list[str]]:
        """Map from line name to the gate output names it feeds."""
        key = "fanout"
        if key not in self._cache:
            fo: dict[str, list[str]] = {line: [] for line in self.lines}
            for gate in self.gates.values():
                for src in gate.inputs:
                    fo.setdefault(src, []).append(gate.name)
            self._cache[key] = fo
        return self._cache[key]  # type: ignore[return-value]

    @property
    def topo_gates(self) -> list[Gate]:
        """Combinational gates in topological (input-to-output) order."""
        key = "topo"
        if key not in self._cache:
            self._cache[key] = self._topological_sort()
        return self._cache[key]  # type: ignore[return-value]

    @property
    def levels(self) -> dict[str, int]:
        """Logic level of each line (inputs and state lines are level 0)."""
        key = "levels"
        if key not in self._cache:
            lv: dict[str, int] = {line: 0 for line in self.comb_input_lines}
            for gate in self.topo_gates:
                lv[gate.name] = 1 + max(lv[i] for i in gate.inputs)
            self._cache[key] = lv
        return self._cache[key]  # type: ignore[return-value]

    @property
    def depth(self) -> int:
        """Maximum logic level (combinational depth)."""
        levels = self.levels
        return max(levels.values()) if levels else 0

    def _topological_sort(self) -> list[Gate]:
        available = set(self.comb_input_lines)
        remaining = dict(self.gates)
        order: list[Gate] = []
        # Kahn's algorithm with explicit pending-count bookkeeping.
        pending: dict[str, int] = {}
        waiters: dict[str, list[str]] = {}
        ready: list[str] = []
        for gate in remaining.values():
            missing = [i for i in gate.inputs if i not in available]
            pending[gate.name] = len(set(missing))
            for src in set(missing):
                waiters.setdefault(src, []).append(gate.name)
            if pending[gate.name] == 0:
                ready.append(gate.name)
        while ready:
            name = ready.pop()
            order.append(remaining[name])
            for waiter in waiters.get(name, ()):
                pending[waiter] -= 1
                if pending[waiter] == 0:
                    ready.append(waiter)
        if len(order) != len(remaining):
            unresolved = sorted(set(remaining) - {g.name for g in order})
            raise NetlistError(
                f"{self.name}: combinational cycle or undriven input involving {unresolved[:5]}"
            )
        return order

    def transitive_fanout(self, line: str) -> set[str]:
        """All gate-output lines reachable (combinationally) from ``line``."""
        seen: set[str] = set()
        stack = [line]
        fanout = self.fanout
        while stack:
            cur = stack.pop()
            for nxt in fanout.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def transitive_fanin(self, *lines: str) -> set[str]:
        """All line names in the combinational fan-in cones of ``lines`` (inclusive)."""
        seen: set[str] = set()
        stack = list(lines)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            gate = self.gates.get(cur)
            if gate is not None:
                stack.extend(gate.inputs)
        return seen

    @property
    def observation_lines(self) -> list[str]:
        """Lines observed after capture: primary outputs, then next-state lines."""
        return list(self.outputs) + self.next_state_lines

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural integrity; raises :class:`NetlistError` on problems."""
        driven = set(self.inputs) | set(self.state_lines) | set(self.gates)
        if len(driven) != len(self.inputs) + len(self.flops) + len(self.gates):
            raise NetlistError(f"{self.name}: a line has multiple drivers")
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in driven:
                    raise NetlistError(f"{self.name}: gate {gate.name} reads undriven {src!r}")
        for flop in self.flops:
            if flop.d not in driven:
                raise NetlistError(f"{self.name}: flop {flop.q} reads undriven {flop.d!r}")
        for out in self.outputs:
            if out not in driven:
                raise NetlistError(f"{self.name}: primary output {out!r} is undriven")
        self.topo_gates  # raises on combinational cycles

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Summary statistics (N_PI, N_PO, N_FF, gates, lines, depth)."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "flops": len(self.flops),
            "gates": self.num_gates,
            "lines": self.num_lines,
            "depth": self.depth,
        }

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-enough copy (gates are immutable) with an optional new name."""
        return Circuit(
            name=name or self.name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            flops=list(self.flops),
            gates=dict(self.gates),
        )

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.topo_gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Circuit({self.name!r}, pi={s['inputs']}, po={s['outputs']}, "
            f"ff={s['flops']}, gates={s['gates']})"
        )
