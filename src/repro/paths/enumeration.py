"""Structural path enumeration.

Paths run from a combinational input (primary input or present-state line)
to an observation point (a line feeding a primary output or a flip-flop D
input).  Two enumeration modes mirror the dissertation's two workloads:

* :func:`enumerate_paths` -- exhaustive DFS enumeration, used for the
  small circuits of Table 2.1 ("enumerate all paths");
* :func:`longest_paths` -- lazy best-first enumeration, longest first,
  under a per-line delay weight; :func:`k_longest_paths` takes its first
  K paths.  It serves the larger circuits of Table 2.2 ("from the
  longest paths to the shorter ones") and the traditional-STA ranked
  path report of Chapter 3, whose pool doubling draws more paths from one
  generator instead of enumerating again
  (:meth:`repro.sta.engine.StaEngine.ranking`).
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Callable, Iterator

from repro.circuits.netlist import Circuit
from repro.faults.models import Path

DelayFn = Callable[[str], float]


def _observation_set(circuit: Circuit) -> set[str]:
    return set(circuit.outputs) | set(circuit.next_state_lines)


def unit_delay(line: str) -> float:
    """Unit delay model: every gate contributes 1 (inputs contribute 0)."""
    return 1.0


def iter_paths(circuit: Circuit) -> Iterator[Path]:
    """DFS over all input-to-observation paths."""
    observation = _observation_set(circuit)
    fanout = circuit.fanout
    stack_path: list[str] = []

    def dfs(line: str) -> Iterator[Path]:
        stack_path.append(line)
        if line in observation:
            yield Path(lines=tuple(stack_path))
        for nxt in fanout.get(line, ()):
            yield from dfs(nxt)
        stack_path.pop()

    for src in circuit.comb_input_lines:
        yield from dfs(src)


def enumerate_paths(circuit: Circuit, limit: int | None = None) -> list[Path]:
    """All paths, optionally truncated to ``limit`` (raises if exceeded).

    ``limit`` guards against the exponential blow-up the paper warns about
    (Section 3.1); pass ``None`` only for circuits known to be small.
    """
    paths: list[Path] = []
    for path in iter_paths(circuit):
        paths.append(path)
        if limit is not None and len(paths) > limit:
            raise ValueError(
                f"{circuit.name}: more than {limit} paths; use k_longest_paths"
            )
    return paths


def count_paths(circuit: Circuit) -> int:
    """Number of input-to-observation paths (dynamic programming, no enumeration)."""
    observation = _observation_set(circuit)
    fanout = circuit.fanout
    # counts[line] = number of paths from `line` to an observation point.
    counts: dict[str, int] = {}
    for gate in reversed(circuit.topo_gates):
        line = gate.name
        total = 1 if line in observation else 0
        total += sum(counts.get(nxt, 0) for nxt in fanout.get(line, ()))
        counts[line] = total
    total_paths = 0
    for src in circuit.comb_input_lines:
        own = 1 if src in observation else 0
        own += sum(counts.get(nxt, 0) for nxt in fanout.get(src, ()))
        total_paths += own
    return total_paths


def longest_paths(circuit: Circuit, delay_fn: DelayFn | None = None) -> Iterator[Path]:
    """Every path, in non-increasing delay order, generated lazily.

    Best-first search: partial paths are expanded in order of optimistic
    potential (length so far plus the best achievable remaining length),
    so only the explored frontier is materialised -- the circuit may
    contain exponentially many paths.  A frontier node is ``(line,
    parent node)``: extending a partial path allocates one pair, and only
    a finished path is spelled out as a tuple.  Ties pop in push order,
    so the sequence depends only on the circuit and the weights: any
    prefix is the same however far the generator is consumed.
    """
    delay_fn = delay_fn or unit_delay
    observation = _observation_set(circuit)
    fanout = circuit.fanout

    # Best remaining delay from each line to an observation point.
    neg_inf = float("-inf")
    remaining: dict[str, float] = {}
    order = [g.name for g in circuit.topo_gates]
    for line in reversed(circuit.comb_input_lines + order):
        best = 0.0 if line in observation else neg_inf
        for nxt in fanout.get(line, ()):
            cand = delay_fn(nxt) + remaining.get(nxt, neg_inf)
            if cand > best:
                best = cand
        remaining[line] = best

    heap: list[tuple[float, int, tuple, bool]] = []
    counter = 0
    for src in circuit.comb_input_lines:
        if remaining[src] > neg_inf:
            heapq.heappush(heap, (-remaining[src], counter, (src, None), False))
            counter += 1

    while heap:
        neg_pot, _, node, done = heapq.heappop(heap)
        if done:
            yield Path(lines=_spell(node))
            continue
        line = node[0]
        length = -neg_pot - remaining[line]
        if line in observation:
            heapq.heappush(heap, (-length, counter, node, True))
            counter += 1
        for nxt in fanout.get(line, ()):
            rem = remaining.get(nxt, neg_inf)
            if rem == neg_inf and nxt not in observation:
                continue
            new_len = length + delay_fn(nxt)
            pot = new_len + max(rem, 0.0 if nxt in observation else neg_inf)
            if pot == neg_inf:
                continue
            heapq.heappush(heap, (-pot, counter, (nxt, node), False))
            counter += 1


def _spell(node: tuple | None) -> tuple[str, ...]:
    """The lines of a frontier node's path, source first."""
    lines: list[str] = []
    while node is not None:
        line, node = node
        lines.append(line)
    lines.reverse()
    return tuple(lines)


def k_longest_paths(
    circuit: Circuit, k: int, delay_fn: DelayFn | None = None
) -> list[Path]:
    """The ``k`` longest paths in non-increasing delay order.

    The first ``k`` paths of :func:`longest_paths`, so ``k_longest_paths(c,
    k)`` is a prefix of ``k_longest_paths(c, k + j)``.
    """
    return list(islice(longest_paths(circuit, delay_fn), max(k, 0)))


def path_delay(path: Path, delay_fn: DelayFn | None = None) -> float:
    """Structural delay of a path under a per-line delay weight."""
    delay_fn = delay_fn or unit_delay
    return sum(delay_fn(line) for line in path.lines[1:])
