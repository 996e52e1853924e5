"""Compiled circuit IR: one integer-indexed evaluation core for every simulator.

Every hot path in this reproduction -- scalar three-valued simulation,
PODEM's good/faulty frames, STA case analysis, the PPSFP bit-parallel
simulator, transition-fault grading, switching-activity accounting, and
the Chapter-4 built-in-generation loop -- evaluates the same
combinational core millions of times.  Walking ``Circuit.topo_gates``
with string-keyed dict lookups per gate per cycle dominates the cost of the
Tables 4.1-4.4 experiments, so this module lowers a :class:`Circuit` once
into flat integer-indexed structures that all simulators share:

* a contiguous *line-index space*: primary inputs occupy indices
  ``0 .. n_inputs-1``, present-state lines the next ``n_state`` indices,
  and gate outputs follow in topological order, so a full valuation is a
  plain list indexed by line;
* a levelized evaluation schedule as parallel arrays (``op_codes``,
  ``fanin_offsets``, ``fanin_indices``) plus a fused per-gate tuple form
  the interpreters iterate directly;
* event-driven single-fault injection (the PPSFP primitive) over a
  per-line fanout adjacency, plus the observation points -- primary
  outputs and next-state lines -- that each line's cone can reach, so
  fault grading checks only the observation lines a fault can possibly
  affect;
* a per-:class:`Circuit` memoized compile cache keyed on the netlist's
  mutation counter (:attr:`Circuit.version`), so repeated simulator
  construction and every ``simulate_*`` call reuse one compiled instance
  until the netlist is structurally edited.

The scalar three-valued and implication kernels here are property-tested
against the pre-refactor dict-based references (:mod:`repro.logic.
reference`); the word kernel -- the one bit-parallel evaluator, up to 64
lanes per Python int -- is in turn tested against the scalar kernel.
Layering::

    Circuit  --compile_circuit-->  CompiledCircuit
                                       |-- repro.logic.simulator   (scalar 0/1/X)
                                       |-- repro.atpg.podem        (good/faulty frames)
                                       |-- repro.sta.engine        (case analysis)
                                       |-- repro.logic.bitsim      (bit-parallel words)
                                       |-- repro.faults.fsim       (PPSFP fault grading)
                                       |-- repro.atpg.implication  (event-driven implication)
                                       `-- repro.core.builtin_gen  (Fig 4.9 loop)
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence

from repro.circuits.gates import COMBINATIONAL_TYPES, GateType
from repro.circuits.netlist import Circuit
from repro.logic.values import X
from repro.obs import OBS
from repro.obs import span as _obs_span

# Opcodes of the evaluation schedule, one per combinational gate type.
OP_BUF, OP_NOT, OP_AND, OP_NAND, OP_OR, OP_NOR, OP_XOR, OP_XNOR = range(8)

_OPCODE_OF: dict[GateType, int] = {
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
}

#: Gate type of each opcode (inverse of the lowering map).
OP_GATE_TYPES: tuple[GateType, ...] = tuple(
    sorted(_OPCODE_OF, key=_OPCODE_OF.__getitem__)
)

# The interpreters fuse each opcode into (family, inversion): AND/NAND,
# OR/NOR and XOR/XNOR share an accumulation loop and differ only in a
# final conditional complement.
_FAM_COPY, _FAM_AND, _FAM_OR, _FAM_XOR = range(4)
_FAMILY_OF = {
    OP_BUF: (_FAM_COPY, 0),
    OP_NOT: (_FAM_COPY, 1),
    OP_AND: (_FAM_AND, 0),
    OP_NAND: (_FAM_AND, 1),
    OP_OR: (_FAM_OR, 0),
    OP_NOR: (_FAM_OR, 1),
    OP_XOR: (_FAM_XOR, 0),
    OP_XNOR: (_FAM_XOR, 1),
}


class CompiledCircuit:
    """Flat integer-indexed form of a :class:`Circuit`'s combinational core.

    Build instances through :func:`compile_circuit`, which memoizes one
    compiled form per circuit version.  All attributes are read-only in
    spirit: a compiled circuit is a snapshot of one netlist version and is
    thrown away (not patched) when the netlist mutates.

    Attributes
    ----------
    names:
        Line names in index order (inputs, state lines, gates topologically).
    index:
        Inverse map, name -> line index.
    op_codes, fanin_offsets, fanin_indices:
        The evaluation schedule as parallel arrays: gate ``g`` (in schedule
        order, driving line ``n_sources + g``) has opcode ``op_codes[g]``
        and reads lines ``fanin_indices[fanin_offsets[g]:fanin_offsets[g+1]]``.
    output_indices, next_state_indices:
        Observed line indices: primary outputs in declaration order and
        flip-flop D inputs in scan order.
    observation_indices:
        The two observation groups merged, deduplicated, order-preserving.
    """

    __slots__ = (
        "circuit",
        "version",
        "names",
        "index",
        "n_inputs",
        "n_state",
        "n_sources",
        "n_gates",
        "num_lines",
        "op_codes",
        "fanin_offsets",
        "fanin_indices",
        "output_indices",
        "next_state_indices",
        "observation_indices",
        "_schedule",
        "_fanout_positions",
        "_observed",
        "_cone_cache",
        "_word_kernel",
    )

    def __init__(self, circuit: Circuit, version: int):
        """Bind to ``circuit`` at netlist ``version`` (fields set by lowering)."""
        self.circuit = circuit
        self.version = version

        inputs = list(circuit.inputs)
        state = circuit.state_lines
        topo = circuit.topo_gates
        self.n_inputs = len(inputs)
        self.n_state = len(state)
        self.n_sources = self.n_inputs + self.n_state
        self.n_gates = len(topo)
        self.num_lines = self.n_sources + self.n_gates

        names = inputs + state + [g.name for g in topo]
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {name: i for i, name in enumerate(names)}

        index = self.index
        op_codes: list[int] = []
        fanin_offsets: list[int] = [0]
        fanin_indices: list[int] = []
        schedule: list[tuple[int, int, int, tuple[int, ...]]] = []
        for g, gate in enumerate(topo):
            if gate.gate_type not in COMBINATIONAL_TYPES:  # pragma: no cover
                raise ValueError(f"{gate.name}: not lowerable: {gate.gate_type}")
            op = _OPCODE_OF[gate.gate_type]
            fis = tuple(index[i] for i in gate.inputs)
            op_codes.append(op)
            fanin_indices.extend(fis)
            fanin_offsets.append(len(fanin_indices))
            family, inv = _FAMILY_OF[op]
            schedule.append((self.n_sources + g, family, inv, fis))
        self.op_codes: tuple[int, ...] = tuple(op_codes)
        self.fanin_offsets: tuple[int, ...] = tuple(fanin_offsets)
        self.fanin_indices: tuple[int, ...] = tuple(fanin_indices)
        self._schedule = schedule

        # Fanout adjacency in *schedule-position* space: for each line
        # index, the schedule positions of the gates reading it.
        fanout: list[list[int]] = [[] for _ in range(self.num_lines)]
        for g, (_, _, _, fis) in enumerate(schedule):
            for f in set(fis):
                fanout[f].append(g)
        self._fanout_positions = fanout

        self.output_indices: tuple[int, ...] = tuple(
            index[po] for po in circuit.outputs
        )
        self.next_state_indices: tuple[int, ...] = tuple(
            index[f.d] for f in circuit.flops
        )
        seen: set[int] = set()
        obs: list[int] = []
        for i in self.output_indices + self.next_state_indices:
            if i not in seen:
                seen.add(i)
                obs.append(i)
        self.observation_indices: tuple[int, ...] = tuple(obs)
        self._observed = seen
        self._cone_cache: dict[int, tuple[int, ...]] = {}
        self._word_kernel = None  # built lazily on first eval_words call

    # ------------------------------------------------------------------
    # Frames and views
    # ------------------------------------------------------------------
    def x_frame(self) -> list[int]:
        """A fresh valuation array with every line unknown (X)."""
        return [X] * self.num_lines

    def zero_frame(self) -> list[int]:
        """A fresh all-zero valuation array (bit-parallel word frames)."""
        return [0] * self.num_lines

    def as_dict(self, values: Sequence[int]) -> dict[str, int]:
        """Dict view of a valuation array (the pre-refactor return shape)."""
        return dict(zip(self.names, values))

    def load_inputs(self, values: list[int], input_values: Mapping[str, int]) -> None:
        """Assign named input/state values into a valuation array.

        Raises :class:`ValueError` when a key is not a primary-input or
        present-state line name, so a misdirected value never reads as X.
        """
        index = self.index
        n_sources = self.n_sources
        for name, v in input_values.items():
            idx = index.get(name)
            if idx is None or idx >= n_sources:
                raise ValueError(
                    f"{self.circuit.name}: {name!r} is not a primary input or "
                    "present-state line"
                )
            values[idx] = v

    # ------------------------------------------------------------------
    # Evaluation kernels
    # ------------------------------------------------------------------
    def eval_scalar(self, values: list[int], start: int = 0) -> list[int]:
        """Three-valued (0/1/X) evaluation of the schedule, in place.

        ``values`` must hold the source-line values in its first
        ``n_sources`` slots; every gate slot from schedule position
        ``start`` on is overwritten (no gate reads a later one).  Returns
        ``values`` for chaining.
        """
        schedule = self._schedule[start:] if start else self._schedule
        for out, family, inv, fis in schedule:
            if family == _FAM_AND:
                r = 1
                for f in fis:
                    v = values[f]
                    if v == 0:
                        r = 0
                        break
                    if v == 2:
                        r = 2
            elif family == _FAM_OR:
                r = 0
                for f in fis:
                    v = values[f]
                    if v == 1:
                        r = 1
                        break
                    if v == 2:
                        r = 2
            elif family == _FAM_XOR:
                r = 0
                for f in fis:
                    v = values[f]
                    if v == 2:
                        r = 2
                        break
                    r ^= v
            else:
                r = values[fis[0]]
            values[out] = r if r == 2 else r ^ inv
        return values

    def imply_scalar(self, values: list[int], changed: Iterable[int]) -> bool:
        """Close a three-valued valuation under implications, in place.

        The kernel of :func:`repro.atpg.implication.imply`.  ``values``
        must be a fixpoint of the rules except at the line indices in
        ``changed``, which the caller has just moved from X to 0 or 1: an
        all-X frame is a fixpoint (no gate type derives 0/1 from X
        inputs), and so is any frame this method closed.  Only a gate
        with a changed line can then derive anything, so the worklist
        starts with the gates driving or reading those lines.  Visiting a
        gate applies forward implication (the output takes the
        three-valued evaluation of the inputs) and then backward
        implication (a binary output forces the inputs it leaves no
        choice for); when a line becomes binary, the gate driving it and
        every gate reading it are queued.  Lines only move from X to 0 or
        1 and every rule is monotone, so this reaches the fixpoint or
        conflict of the reference sweep
        (:func:`repro.logic.reference.imply_reference`).

        Returns False on a 0/1 conflict, leaving ``values`` partly closed.
        """
        schedule = self._schedule
        fanout = self._fanout_positions
        n_sources = self.n_sources
        work: list[int] = []  # a stack
        queued = [False] * self.n_gates
        changed = list(changed)
        while True:
            # Queue the gate driving each changed line and the gates reading it.
            for line in changed:
                d = line - n_sources
                if d >= 0 and not queued[d]:
                    queued[d] = True
                    work.append(d)
                for p in fanout[line]:
                    if not queued[p]:
                        queued[p] = True
                        work.append(p)
            changed.clear()
            if not work:
                return True
            g = work.pop()
            queued[g] = False
            out, family, inv, fis = schedule[g]
            # Forward implication: eval_scalar's gate evaluation, inlined.
            if family == _FAM_AND:
                r = 1
                for f in fis:
                    v = values[f]
                    if v == 0:
                        r = 0
                        break
                    if v == 2:
                        r = 2
            elif family == _FAM_OR:
                r = 0
                for f in fis:
                    v = values[f]
                    if v == 1:
                        r = 1
                        break
                    if v == 2:
                        r = 2
            elif family == _FAM_XOR:
                r = 0
                for f in fis:
                    v = values[f]
                    if v == 2:
                        r = 2
                        break
                    r ^= v
            else:
                r = values[fis[0]]
            cur = values[out]
            if r != 2:
                r ^= inv
                if cur == 2:
                    values[out] = cur = r
                    changed.append(out)
                elif cur != r:
                    return False
            # Backward implication.
            if cur != 2:
                if family == _FAM_AND or family == _FAM_OR:
                    ctrl = 0 if family == _FAM_AND else 1
                    if cur != ctrl ^ inv:
                        # Non-controlled output: every input is non-controlling.
                        for f in fis:
                            v = values[f]
                            if v == 2:
                                values[f] = 1 - ctrl
                                changed.append(f)
                            elif v == ctrl:
                                return False
                    else:
                        # Controlled output: a sole X input among
                        # non-controlling ones must be controlling.
                        unknown = -1
                        for f in fis:
                            v = values[f]
                            if v == ctrl or (v == 2 and unknown >= 0):
                                unknown = -1
                                break
                            if v == 2:
                                unknown = f
                        if unknown >= 0:
                            values[unknown] = ctrl
                            changed.append(unknown)
                else:
                    # BUF/NOT, XOR/XNOR: a sole X input takes the value
                    # that makes the output's parity.
                    unknown = -1
                    parity = cur ^ inv
                    for f in fis:
                        v = values[f]
                        if v != 2:
                            parity ^= v
                        elif unknown >= 0:
                            unknown = -1
                            break
                        else:
                            unknown = f
                    if unknown >= 0:
                        values[unknown] = parity
                        changed.append(unknown)

    def eval_words(self, values: list[int], mask: int) -> list[int]:
        """Bitwise word evaluation of the schedule, in place.

        Each bit position of a word is an independent 0/1 pattern; ``mask``
        holds a 1 in every live bit position (two-valued logic only).

        Dispatches to a straight-line kernel generated from the schedule
        (one expression statement per gate, no interpreter loop or family
        branching), built once per compiled instance.  The packed
        multi-lane simulator spends essentially all its time here, so the
        codegen is what the packed seed-trial throughput rides on.
        """
        kernel = self._word_kernel
        if kernel is None:
            with _obs_span("compile.word_kernel", circuit=self.circuit.name):
                kernel = self._word_kernel = self._build_word_kernel()
        return kernel(values, mask)

    def _build_word_kernel(self):
        """Generate, compile and exec the unrolled word-evaluation function.

        Emits ``v[out] = (v[a] OP v[b] ...) ^ mask`` per scheduled gate --
        semantically the loop body of the old interpreted ``eval_words``,
        flattened so each gate costs a handful of bytecodes.
        """
        ops = {_FAM_AND: " & ", _FAM_OR: " | ", _FAM_XOR: " ^ "}
        body: list[str] = []
        for out, family, inv, fis in self._schedule:
            op = ops.get(family)
            if op is None:
                expr = f"v[{fis[0]}]"
            else:
                expr = op.join(f"v[{f}]" for f in fis)
            if inv:
                expr = f"({expr}) ^ mask" if op else f"{expr} ^ mask"
            body.append(f"    v[{out}] = {expr}")
        src = "def kernel(v, mask):\n" + "\n".join(body or ["    pass"]) + "\n    return v\n"
        namespace: dict[str, object] = {}
        exec(compile(src, f"<word-kernel:{self.circuit.name}>", "exec"), namespace)
        return namespace["kernel"]

    # ------------------------------------------------------------------
    # Fanout cones (single-fault injection)
    # ------------------------------------------------------------------
    def cone(self, line_index: int) -> tuple[int, ...]:
        """Observation-line indices that ``line_index``'s fanout cone reaches.

        The line itself counts when it is observed.  The tuple preserves
        :attr:`observation_indices` order and is cached per line.
        """
        cached = self._cone_cache.get(line_index)
        if cached is not None:
            return cached
        fanout = self._fanout_positions
        n_sources = self.n_sources
        reach = {line_index}
        stack = [line_index]
        while stack:
            for pos in fanout[stack.pop()]:
                out = n_sources + pos
                if out not in reach:
                    reach.add(out)
                    stack.append(out)
        obs = tuple(i for i in self.observation_indices if i in reach)
        self._cone_cache[line_index] = obs
        return obs

    def faulty_cone_words(
        self,
        good_values: Sequence[int],
        line_index: int,
        forced_word: int,
        mask: int,
    ) -> dict[int, int]:
        """Re-evaluate the gates a forced line's value reaches, event-driven.

        Returns a sparse ``{line_index: word}`` map holding only the forced
        line and the gates that *diverge* from their good value -- the
        PPSFP single-fault-injection primitive.  Only gates reading a
        diverged line are evaluated, in schedule (topological) order off a
        heap, so a gate sees its inputs' final values; every other line
        reads its good value from ``good_values``.
        """
        faulty: dict[int, int] = {line_index: forced_word & mask}
        schedule = self._schedule
        fanout = self._fanout_positions
        get = faulty.get
        heap = list(fanout[line_index])  # ascending, so already a heap
        queued = set(heap)
        while heap:
            out, family, inv, fis = schedule[heappop(heap)]
            if family == _FAM_AND:
                w = mask
                for f in fis:
                    v = get(f, -1)
                    w &= good_values[f] if v < 0 else v
            elif family == _FAM_OR:
                w = 0
                for f in fis:
                    v = get(f, -1)
                    w |= good_values[f] if v < 0 else v
            elif family == _FAM_XOR:
                w = 0
                for f in fis:
                    v = get(f, -1)
                    w ^= good_values[f] if v < 0 else v
            else:
                f = fis[0]
                v = get(f, -1)
                w = good_values[f] if v < 0 else v
            if inv:
                w ^= mask
            if w != good_values[out]:
                faulty[out] = w
                for pos in fanout[out]:
                    if pos not in queued:
                        queued.add(pos)
                        heappush(heap, pos)
        return faulty


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` to its compiled IR, memoized per netlist version.

    The compiled instance is cached on the circuit object and transparently
    rebuilt after any structural edit (``add_gate`` and friends bump
    :attr:`Circuit.version`), so callers may invoke this in hot loops.
    """
    cached: CompiledCircuit | None = getattr(circuit, "_compiled", None)
    version = circuit.version
    if cached is not None and cached.version == version:
        if OBS.enabled:
            OBS.count("compile.cache_hits")
        return cached
    with _obs_span("compile", circuit=circuit.name):
        compiled = CompiledCircuit(circuit, version)
    if OBS.enabled:
        OBS.count("compile.cache_misses")
        OBS.count("compile.gates_lowered", compiled.n_gates)
    circuit._compiled = compiled
    return compiled
