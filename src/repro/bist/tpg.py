"""Test pattern generation logic (Figs 4.7 and 4.8).

Two TPG structures are modelled cycle-accurately:

* :class:`ReferenceTpg` -- the structure of [73] (Fig 4.7): a *distinct
  set of d LFSR bits per primary input*, of which ``m`` feed an AND (for
  ``C(i)=0``) or OR (for ``C(i)=1``) biasing gate, so the favoured value
  appears with probability ``1 - 1/2**m``.  Its LFSR length grows as
  ``d * N_PI``.
* :class:`DevelopedTpg` -- the developed structure (Fig 4.8): a *fixed*
  ``N_LFSR``-stage LFSR feeding a shift register; each biased input taps
  ``m`` distinct shift-register bits, each unbiased input taps one, for a
  register of ``m*N_SP + (N_PI - N_SP)`` bits.  After a reseed, the shift
  register is re-initialised over ``len(register)`` clock cycles before
  pattern generation resumes (the "shift register initialization"
  operation mode of Section 4.4).  The COP-weighted TPG
  (:class:`repro.bist.weighted.WeightedTpg`) is this structure with a
  tree width per input.

Both expose ``sequence(seed, length)`` -- the primary input sequence a
given LFSR seed produces -- which is the unit the Chapter 4 construction
procedures select over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Sequence

from repro.bist.cube import InputCube, compute_input_cube
from repro.bist.lfsr import PRIMITIVE_TAPS, Lfsr, LfsrLanes
from repro.circuits.netlist import Circuit
from repro.logic.values import is_binary
from repro.obs import OBS


def _validate_batch_seeds(seeds: Sequence[int], n_lfsr: int, owner: str) -> None:
    """Reject lane/seed-count mismatches before the lane engine runs.

    Raises :class:`ValueError` naming the offending sizes -- previously a
    bad seed list surfaced as an opaque failure deep inside
    :class:`repro.bist.lfsr.LfsrLanes` or the packed word kernel.
    """
    if not 0 < len(seeds) <= 64:
        raise ValueError(
            f"{owner}.sequence_batch: got {len(seeds)} seeds; between 1 and "
            "64 packed lanes are supported per batch"
        )
    for t, seed in enumerate(seeds):
        if not 0 < seed < (1 << n_lfsr):
            raise ValueError(
                f"{owner}.sequence_batch: seeds[{t}] = {seed} is not a "
                f"non-zero {n_lfsr}-bit LFSR seed"
            )


@dataclass
class TpgStructure:
    """Common bookkeeping: per-input bit allocation and biasing gates."""

    cube: InputCube
    m: int
    #: per input: tuple of register-bit indices (len m when biased, else 1)
    allocation: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def n_register_bits(self) -> int:
        """Total register bits consumed."""
        return sum(len(a) for a in self.allocation)

    @property
    def n_inputs(self) -> int:
        """Number of primary inputs driven."""
        return len(self.cube.values)

    @property
    def n_and_gates(self) -> int:
        """Number of m-input AND biasing gates (inputs with C(i)=0)."""
        return sum(1 for v in self.cube.values if v == 0)

    @property
    def n_or_gates(self) -> int:
        """Number of m-input OR biasing gates (inputs with C(i)=1)."""
        return sum(1 for v in self.cube.values if v == 1)

    def _allocate(self) -> None:
        pos = 0
        self.allocation = []
        for v in self.cube.values:
            width = self.m if is_binary(v) else 1
            self.allocation.append(tuple(range(pos, pos + width)))
            pos += width

    def _vector_from_bits(self, bits: list[int]) -> list[int]:
        vector: list[int] = []
        for v, alloc in zip(self.cube.values, self.allocation):
            taps = [bits[i] for i in alloc]
            if v == 0:
                vector.append(1 if all(taps) else 0)  # AND: 0 with prob 1-1/2^m
            elif v == 1:
                vector.append(1 if any(taps) else 0)  # OR: 1 with prob 1-1/2^m
            else:
                vector.append(taps[0])
        return vector

    def _words_from_bit_words(self, bit_words: Sequence[int], mask: int) -> list[int]:
        """Lane-packed analogue of :meth:`_vector_from_bits`.

        ``bit_words[i]`` carries register/stage bit ``i`` of every lane in
        its bit positions; the biasing gates become bitwise AND/OR over the
        tapped words, so one pass emits the primary input vector of *all*
        lanes for this clock cycle.
        """
        row: list[int] = []
        for v, alloc in zip(self.cube.values, self.allocation):
            if v == 0:
                w = mask
                for i in alloc:
                    w &= bit_words[i]
            elif v == 1:
                w = 0
                for i in alloc:
                    w |= bit_words[i]
            else:
                w = bit_words[alloc[0]]
            row.append(w)
        return row


@dataclass
class DevelopedTpg(TpgStructure):
    """The fixed-LFSR + shift-register TPG of the developed method (Fig 4.8)."""

    n_lfsr: int = 32
    _lfsr: Lfsr | None = None
    _register: list[int] = field(default_factory=list)

    @classmethod
    def for_circuit(
        cls, circuit: Circuit, m: int = 3, n_lfsr: int = 32
    ) -> "DevelopedTpg":
        """Build the TPG for a circuit (cube computed per Section 4.3)."""
        tpg = cls(cube=compute_input_cube(circuit), m=m, n_lfsr=n_lfsr)
        tpg._allocate()
        return tpg

    @property
    def init_cycles(self) -> int:
        """Clock cycles to fill the shift register after a reseed."""
        return self.n_register_bits

    def load_seed(self, seed: int) -> None:
        """Reseed the LFSR and re-initialise the shift register.

        The register fills exactly as the hardware would -- one serial
        shift-in per clock -- so after initialisation index 0 holds the
        newest LFSR output, matching the shift direction of
        :meth:`next_vector`.
        """
        if self._lfsr is None:
            self._lfsr = Lfsr(n=self.n_lfsr, seed=seed)
        else:
            self._lfsr.reseed(seed)
        self._register = list(
            reversed([self._lfsr.step() for _ in range(self.n_register_bits)])
        )

    def next_vector(self) -> list[int]:
        """Advance one clock and emit the next primary input vector."""
        if self._lfsr is None:
            raise RuntimeError("load_seed() must be called first")
        self._register.insert(0, self._lfsr.step())
        self._register.pop()
        return self._vector_from_bits(self._register)

    def sequence(self, seed: int, length: int) -> list[list[int]]:
        """The primary input sequence produced from ``seed``."""
        self.load_seed(seed)
        if OBS.enabled:
            OBS.count("tpg.sequences")
            OBS.count("tpg.cycles", length)
        return [self.next_vector() for _ in range(length)]

    def sequence_batch(self, seeds: Sequence[int], length: int) -> list[list[int]]:
        """Lane-packed primary input sequences for up to 64 seeds at once.

        Returns ``rows`` where bit ``t`` of ``rows[i][j]`` is the value of
        primary input ``j`` at cycle ``i`` in the sequence of ``seeds[t]``
        -- exactly ``sequence(seeds[t], length)``, bit-identical, but with
        the LFSR, shift register, and biasing gates of every lane stepped
        together through :class:`repro.bist.lfsr.LfsrLanes`.  The rows feed
        the packed word simulator directly, no per-lane re-packing.
        """
        _validate_batch_seeds(seeds, self.n_lfsr, type(self).__name__)
        lanes = LfsrLanes(self.n_lfsr, list(seeds))
        mask = (1 << lanes.n_lanes) - 1
        register = list(
            reversed([lanes.step() for _ in range(self.n_register_bits)])
        )
        rows: list[list[int]] = []
        for _ in range(length):
            register.insert(0, lanes.step())
            register.pop()
            rows.append(self._words_from_bit_words(register, mask))
        if OBS.enabled:
            OBS.count("tpg.batch_expansions")
            OBS.count("tpg.batch_lane_cycles", length * lanes.n_lanes)
        return rows


@dataclass
class ReferenceTpg(TpgStructure):
    """The per-input-LFSR-bit TPG of [73] (Fig 4.7)."""

    d: int = 4
    _lfsr: Lfsr | None = None

    @classmethod
    def for_circuit(cls, circuit: Circuit, m: int = 3, d: int = 4) -> "ReferenceTpg":
        """Build the reference TPG; its LFSR has ``d * N_PI`` stages."""
        if m > d:
            raise ValueError("m must not exceed d")
        tpg = cls(cube=compute_input_cube(circuit), m=m, d=d)
        # Each input owns d consecutive LFSR bits; biased inputs use the
        # first m of them, unbiased inputs their first bit.
        pos = 0
        tpg.allocation = []
        for v in tpg.cube.values:
            width = tpg.m if is_binary(v) else 1
            tpg.allocation.append(tuple(range(pos, pos + width)))
            pos += tpg.d
        return tpg

    @property
    def n_lfsr(self) -> int:
        """LFSR length: d bits per primary input."""
        return self.d * len(self.cube.values)

    def _taps(self) -> tuple[int, ...] | None:
        # Fall back to a near-size tabulated polynomial extended with a
        # direct feedback tap; periodicity suffices for simulation.
        n = self.n_lfsr
        return None if n in PRIMITIVE_TAPS else (n, max(1, n - 3))

    def load_seed(self, seed: int) -> None:
        """Reseed the LFSR."""
        if self._lfsr is None:
            self._lfsr = Lfsr(n=self.n_lfsr, taps=self._taps(), seed=seed)
        else:
            self._lfsr.reseed(seed)

    def next_vector(self) -> list[int]:
        """Advance one clock and emit the next primary input vector."""
        if self._lfsr is None:
            raise RuntimeError("load_seed() must be called first")
        self._lfsr.step()
        bits = self._lfsr.bits
        return self._vector_from_bits(bits)

    def sequence(self, seed: int, length: int) -> list[list[int]]:
        """The primary input sequence produced from ``seed``."""
        self.load_seed(seed)
        if OBS.enabled:
            OBS.count("tpg.sequences")
            OBS.count("tpg.cycles", length)
        return [self.next_vector() for _ in range(length)]

    def sequence_batch(self, seeds: Sequence[int], length: int) -> list[list[int]]:
        """Lane-packed sequences for up to 64 seeds (see
        :meth:`DevelopedTpg.sequence_batch`); here the biasing gates tap
        the LFSR stages directly, so the stage words of
        :class:`repro.bist.lfsr.LfsrLanes` stand in for the shift register.
        """
        _validate_batch_seeds(seeds, self.n_lfsr, type(self).__name__)
        lanes = LfsrLanes(self.n_lfsr, list(seeds), taps=self._taps())
        mask = (1 << lanes.n_lanes) - 1
        rows: list[list[int]] = []
        for _ in range(length):
            lanes.step()
            rows.append(self._words_from_bit_words(lanes.stage_words, mask))
        if OBS.enabled:
            OBS.count("tpg.batch_expansions")
            OBS.count("tpg.batch_lane_cycles", length * lanes.n_lanes)
        return rows
