"""Loaded-program representation.

A :class:`Program` is what the XMTC compiler produces and what the
simulator consumes: the text segment (a list of
:class:`~repro.isa.instructions.Instruction` objects), the initial data
memory image (the paper's *memory map file* of global-variable values),
the format-string table backing the ``print`` instruction, the symbol
tables, and the pre-resolved *spawn regions* (the code broadcast to the
TCUs between each ``spawn`` and its matching ``join``).

The XMT toolchain has no operating system, so "global variables are the
only way to provide input to XMTC programs" (Section III-A); the
:meth:`Program.write_global` / :meth:`Program.read_global` helpers edit
the memory map accordingly before or after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.semantics import to_signed, to_unsigned

#: Default base address of the data segment.
DATA_BASE = 0x1000
#: Room the Master's serial stack must keep between the end of the data
#: segment and ``stack_top`` (the stack grows down towards the data).
MIN_SERIAL_STACK = 0x10000


@dataclass
class SpawnRegion:
    """One broadcastable parallel section of the text segment."""

    spawn_index: int
    join_index: int

    @property
    def start(self) -> int:
        """First instruction index executed by the TCUs."""
        return self.spawn_index + 1

    @property
    def length(self) -> int:
        """Number of broadcast instructions (drives broadcast cost)."""
        return self.join_index - self.spawn_index - 1

    def contains(self, index: int) -> bool:
        return self.start <= index < self.join_index


@dataclass
class GlobalSymbol:
    """A global variable in the memory map (name, address, word count)."""

    name: str
    addr: int
    n_words: int


@dataclass
class Program:
    """An assembled XMT program ready for simulation."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data_labels: Dict[str, int] = field(default_factory=dict)
    data_image: Dict[int, int] = field(default_factory=dict)
    strings: List[str] = field(default_factory=list)
    globals_table: Dict[str, GlobalSymbol] = field(default_factory=dict)
    entry: int = 0
    spawn_regions: List[SpawnRegion] = field(default_factory=list)
    data_end: int = DATA_BASE
    source: Optional[str] = None
    #: initial values of the global prefix-sum registers (``.greg``)
    greg_init: Dict[int, int] = field(default_factory=dict)
    #: compiled with the parallel-calls extension: spawn-region code may
    #: call functions outside the broadcast region (models the future
    #: XMT with cluster/TCU instruction caches -- paper Section IV)
    parallel_calls: bool = False

    def __post_init__(self):
        self._region_of: Dict[int, SpawnRegion] = {
            r.spawn_index: r for r in self.spawn_regions
        }

    # -- structure queries -------------------------------------------------

    def region_for_spawn(self, spawn_index: int) -> SpawnRegion:
        return self._region_of[spawn_index]

    def refresh_regions(self) -> None:
        """Re-derive spawn regions after text edits (used by the post-pass)."""
        self.spawn_regions = []
        open_spawn: Optional[int] = None
        for i, ins in enumerate(self.instructions):
            ins.index = i
            if ins.op == "spawn":
                if open_spawn is not None:
                    raise ValueError(
                        f"nested spawn at text index {i} (assembly line {ins.line})"
                    )
                open_spawn = i
            elif ins.op == "join":
                if open_spawn is None:
                    raise ValueError(
                        f"join without spawn at text index {i} (line {ins.line})"
                    )
                region = SpawnRegion(open_spawn, i)
                self.instructions[open_spawn].target = i
                self.spawn_regions.append(region)
                open_spawn = None
        if open_spawn is not None:
            raise ValueError("spawn without matching join")
        self._region_of = {r.spawn_index: r for r in self.spawn_regions}

    def check_stack_room(self, stack_top: int) -> None:
        """Raise ``ValueError`` if the data segment ends above
        ``stack_top`` minus :data:`MIN_SERIAL_STACK`: the serial stack
        would overwrite globals (and saved registers live in them)."""
        if self.data_end > stack_top - MIN_SERIAL_STACK:
            big = max(self.globals_table.values(), default=None,
                      key=lambda sym: sym.n_words)
            raise ValueError(
                f"data segment ends at {self.data_end:#x}, above stack_top "
                f"{stack_top:#x} minus the {MIN_SERIAL_STACK:#x}-byte minimum "
                "serial stack" + (f"; the largest global is {big.name!r} "
                                  f"({4 * big.n_words} bytes)" if big else ""))

    # -- memory-map I/O ----------------------------------------------------

    def _global(self, name: str) -> GlobalSymbol:
        try:
            return self.globals_table[name]
        except KeyError:
            raise KeyError(f"no such global {name!r}") from None

    def global_addr(self, name: str) -> int:
        """Address of a named global (raises ``KeyError`` if unknown)."""
        return self._global(name).addr

    def write_global(self, name: str, values, base_index: int = 0) -> None:
        """Write integers into a global scalar/array in the memory map.

        ``values`` may be a single int/float or an iterable.  Floats are
        stored as IEEE-754 single-precision bit patterns.
        """
        from repro.isa.semantics import f32_to_bits

        sym = self._global(name)
        if isinstance(values, (int, float)):
            values = [values]
        values = list(values)
        if base_index + len(values) > sym.n_words:
            raise ValueError(
                f"write of {len(values)} words at index {base_index} overflows "
                f"global '{name}' ({sym.n_words} words)"
            )
        for i, v in enumerate(values):
            bits = f32_to_bits(v) if isinstance(v, float) else to_unsigned(v)
            self.data_image[sym.addr + 4 * (base_index + i)] = bits

    def read_global(self, name: str, memory: Dict[int, int], count: Optional[int] = None,
                    base_index: int = 0, signed: bool = True):
        """Read a global back out of a (post-run) memory dictionary.

        Returns a single value for scalars, a list otherwise.
        """
        sym = self._global(name)
        n = sym.n_words - base_index if count is None else count
        out = []
        for i in range(n):
            raw = memory.get(sym.addr + 4 * (base_index + i), 0)
            out.append(to_signed(raw) if signed else raw)
        if sym.n_words == 1 and count is None:
            return out[0]
        return out

    # -- misc ----------------------------------------------------------------

    def label_at(self, index: int) -> Optional[str]:
        """Reverse-lookup a text label for traces (first match)."""
        for name, at in self.labels.items():
            if at == index:
                return name
        return None

    def __len__(self) -> int:
        return len(self.instructions)
