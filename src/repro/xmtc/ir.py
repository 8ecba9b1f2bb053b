"""Three-address intermediate representation of the core pass.

A deliberately GCC-3-address-flavoured IR: flat lists of instructions
with labels and explicit jumps.  A spawn statement lowers to a single
:class:`SpawnIR` node whose *body is nested inside it* -- this is how we
structurally guarantee what the real toolchain had to achieve with
outlining + no-inlining: no optimization pass can move code across a
spawn boundary, because the boundary is a subtree edge, and no value
computed inside a spawn body can be register-carried out of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union


class Temp:
    """A virtual register.  ``pinned`` names a physical register that
    the allocator must use (e.g. ``$`` is pinned to the getvt target)."""

    __slots__ = ("id", "hint", "is_float", "pinned")

    def __init__(self, id_: int, hint: str = "", is_float: bool = False,
                 pinned: Optional[int] = None):
        self.id = id_
        self.hint = hint
        self.is_float = is_float
        self.pinned = pinned

    def __repr__(self):
        suffix = "f" if self.is_float else ""
        return f"%{self.hint or 't'}{self.id}{suffix}"

    def __eq__(self, other):
        return isinstance(other, Temp) and other.id == self.id

    def __hash__(self):
        return self.id


class Const:
    """A 32-bit literal operand (raw bit pattern)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value & 0xFFFFFFFF

    def __repr__(self):
        return f"#{self.value}"

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self):
        return hash(("const", self.value))


Operand = Union[Temp, Const]


class IRInstr:
    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line

    def uses(self) -> Sequence[Temp]:
        return ()

    def defs(self) -> Sequence[Temp]:
        return ()

    def _fmt(self, *parts) -> str:
        return f"{type(self).__name__.lower():<8} " + ", ".join(str(p) for p in parts)


def _temps(*operands) -> List[Temp]:
    return [op for op in operands if isinstance(op, Temp)]


class Label(IRInstr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int = 0):
        super().__init__(line)
        self.name = name

    def __repr__(self):
        return f"{self.name}:"


class Jump(IRInstr):
    __slots__ = ("target",)

    def __init__(self, target: str, line: int = 0):
        super().__init__(line)
        self.target = target

    def __repr__(self):
        return self._fmt(self.target)


class CondJump(IRInstr):
    """Jump to ``target`` when ``a cond b`` holds (integer compare)."""

    __slots__ = ("cond", "a", "b", "target")
    #: cond in {"eq","ne","lt","le","gt","ge"}

    def __init__(self, cond: str, a: Operand, b: Operand, target: str, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.a = a
        self.b = b
        self.target = target

    def uses(self):
        return _temps(self.a, self.b)

    def __repr__(self):
        return self._fmt(self.cond, self.a, self.b, self.target)


class Bin(IRInstr):
    """``dst = a op b``; ``op`` is a semantics opcode (add/fadd/...)."""

    __slots__ = ("dst", "op", "a", "b")

    def __init__(self, dst: Temp, op: str, a: Operand, b: Operand, line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.op = op
        self.a = a
        self.b = b

    def uses(self):
        return _temps(self.a, self.b)

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst} = {self.op} {self.a}, {self.b}"


class Un(IRInstr):
    """``dst = op a`` for neg/not/fneg/itof/ftoi."""

    __slots__ = ("dst", "op", "a")

    def __init__(self, dst: Temp, op: str, a: Operand, line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.op = op
        self.a = a

    def uses(self):
        return _temps(self.a)

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst} = {self.op} {self.a}"


class Mov(IRInstr):
    __slots__ = ("dst", "src")

    def __init__(self, dst: Temp, src: Operand, line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.src = src

    def uses(self):
        return _temps(self.src)

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst} = {self.src}"


class La(IRInstr):
    """``dst = &global`` (resolved to an absolute address at assembly)."""

    __slots__ = ("dst", "symbol")

    def __init__(self, dst: Temp, symbol: str, line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.symbol = symbol

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst} = &{self.symbol}"


class FrameAddr(IRInstr):
    """``dst = sp + offset`` (serial frames only; no parallel stack)."""

    __slots__ = ("dst", "offset")

    def __init__(self, dst: Temp, offset: int, line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.offset = offset

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst} = sp+{self.offset}"


class Load(IRInstr):
    __slots__ = ("dst", "addr", "volatile", "readonly", "origin")

    def __init__(self, dst: Temp, addr: Temp, volatile: bool = False,
                 readonly: bool = False, origin: Optional[str] = None, line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.addr = addr
        self.volatile = volatile
        self.readonly = readonly   # route through the cluster RO cache
        self.origin = origin       # symbol the address derives from, if known

    def uses(self):
        return (self.addr,)

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        mode = "v" if self.volatile else ("ro" if self.readonly else "")
        return f"{self.dst} = load{mode} [{self.addr}]"


class Store(IRInstr):
    __slots__ = ("src", "addr", "volatile", "nonblocking", "origin")

    def __init__(self, src: Operand, addr: Temp, volatile: bool = False,
                 nonblocking: bool = False, origin: Optional[str] = None,
                 line: int = 0):
        super().__init__(line)
        self.src = src
        self.addr = addr
        self.volatile = volatile
        self.nonblocking = nonblocking
        self.origin = origin

    def uses(self):
        return _temps(self.src, self.addr)

    def __repr__(self):
        mode = "v" if self.volatile else ("nb" if self.nonblocking else "")
        return f"store{mode} [{self.addr}] = {self.src}"


class Pref(IRInstr):
    """Prefetch into the TCU prefetch buffer (inserted by the optimizer)."""

    __slots__ = ("addr",)

    def __init__(self, addr: Temp, line: int = 0):
        super().__init__(line)
        self.addr = addr

    def uses(self):
        return (self.addr,)

    def __repr__(self):
        return f"pref [{self.addr}]"


class Call(IRInstr):
    __slots__ = ("dst", "name", "args")

    def __init__(self, dst: Optional[Temp], name: str, args: List[Operand],
                 line: int = 0):
        super().__init__(line)
        self.dst = dst
        self.name = name
        self.args = args

    def uses(self):
        return _temps(*self.args)

    def defs(self):
        return (self.dst,) if self.dst is not None else ()

    def __repr__(self):
        args = ", ".join(str(a) for a in self.args)
        head = f"{self.dst} = " if self.dst is not None else ""
        return f"{head}call {self.name}({args})"


class Ret(IRInstr):
    __slots__ = ("src",)

    def __init__(self, src: Optional[Operand], line: int = 0):
        super().__init__(line)
        self.src = src

    def uses(self):
        return _temps(self.src) if self.src is not None else ()

    def __repr__(self):
        return f"ret {self.src}" if self.src is not None else "ret"


class PsIR(IRInstr):
    """Prefix-sum on a global register.

    ``mode``: ``"ps"`` (temp: amount in, old value out), ``"get"``
    (temp: value out), ``"set"`` (temp: value in).
    """

    __slots__ = ("temp", "greg", "mode")

    def __init__(self, temp: Temp, greg: int, mode: str = "ps", line: int = 0):
        super().__init__(line)
        self.temp = temp
        self.greg = greg
        self.mode = mode

    def uses(self):
        return (self.temp,) if self.mode in ("ps", "set") else ()

    def defs(self):
        return (self.temp,) if self.mode in ("ps", "get") else ()

    def __repr__(self):
        return f"{self.mode} {self.temp}, $g{self.greg}"


class PsmIR(IRInstr):
    """Prefix-sum to memory: ``old = M[addr]; M[addr] += temp; temp = old``."""

    __slots__ = ("temp", "addr", "origin")

    def __init__(self, temp: Temp, addr: Temp, line: int = 0,
                 origin: Optional[str] = None):
        super().__init__(line)
        self.temp = temp
        self.addr = addr
        self.origin = origin   # alias class of the target, if known

    def uses(self):
        return (self.temp, self.addr)

    def defs(self):
        return (self.temp,)

    def __repr__(self):
        return f"psm {self.temp}, [{self.addr}]"


class FenceIR(IRInstr):
    __slots__ = ()

    def __repr__(self):
        return "fence"


class PrintIR(IRInstr):
    __slots__ = ("fmt", "args")

    def __init__(self, fmt: str, args: List[Operand], line: int = 0):
        super().__init__(line)
        self.fmt = fmt
        self.args = args

    def uses(self):
        return _temps(*self.args)

    def __repr__(self):
        return f"print {self.fmt!r}, " + ", ".join(str(a) for a in self.args)


class SpawnIR(IRInstr):
    """``spawn(low, high) { body }`` with the body nested inside.

    ``dollar`` is the temp bound to ``$`` in the body (pinned to the
    getvt destination register by the allocator).
    """

    __slots__ = ("low", "high", "body", "dollar")

    def __init__(self, low: Operand, high: Operand, body: List[IRInstr],
                 dollar: Temp, line: int = 0):
        super().__init__(line)
        self.low = low
        self.high = high
        self.body = body
        self.dollar = dollar

    def uses(self):
        # conservatively: bounds plus everything the body reads that was
        # defined outside (computed precisely by the allocator's liveness)
        return _temps(self.low, self.high)

    def __repr__(self):
        return f"spawn {self.low}, {self.high} [{len(self.body)} instrs]"


class IRFunc:
    """One function's IR plus its frame bookkeeping."""

    def __init__(self, name: str, is_outlined: bool = False):
        self.name = name
        self.is_outlined = is_outlined
        self.params: List[Temp] = []
        self.body: List[IRInstr] = []
        self._next_temp = 0
        self._next_label = 0
        #: bytes of frame-resident locals (addr-taken scalars, arrays)
        self.frame_locals = 0
        #: max number of stack-passed outgoing args across calls
        self.max_outgoing_stack_args = 0
        self.has_calls = False
        #: symbol-name -> frame offset (debugging / tests)
        self.frame_map: Dict[str, int] = {}

    def new_temp(self, hint: str = "", is_float: bool = False,
                 pinned: Optional[int] = None) -> Temp:
        self._next_temp += 1
        return Temp(self._next_temp, hint, is_float, pinned)

    def new_label(self, hint: str = "L") -> str:
        self._next_label += 1
        return f".{hint}_{self.name}_{self._next_label}"

    def alloc_frame(self, nbytes: int, name: str = "") -> int:
        offset = self.frame_locals
        self.frame_locals += (nbytes + 3) & ~3
        if name:
            self.frame_map[name] = offset
        return offset

    def dump(self) -> str:
        lines = [f"func {self.name}({', '.join(map(str, self.params))}):"]

        def emit(instrs, indent):
            for ins in instrs:
                if isinstance(ins, Label):
                    lines.append(f"{' ' * (indent - 2)}{ins!r}")
                elif isinstance(ins, SpawnIR):
                    lines.append(f"{' ' * indent}{ins!r}")
                    emit(ins.body, indent + 4)
                else:
                    lines.append(f"{' ' * indent}{ins!r}")

        emit(self.body, 4)
        return "\n".join(lines)


class IRUnit:
    """IR for a whole translation unit."""

    def __init__(self):
        self.functions: List[IRFunc] = []
        #: name -> (type, init list, volatile) for data emission
        self.globals: Dict[str, object] = {}
        #: psBaseReg name -> (greg index, initial value)
        self.greg_map: Dict[str, tuple] = {}

    def function(self, name: str) -> IRFunc:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def dump(self) -> str:
        return "\n\n".join(f.dump() for f in self.functions)


def region_has_calls(body: List[IRInstr]) -> bool:
    """Does a spawn body contain function calls (parallel-calls ext.)?"""
    return any(isinstance(ins, Call) for ins in walk_instrs(list(body)))


def walk_instrs(instrs: List[IRInstr], include_spawn_bodies: bool = True):
    """Yield every instruction, optionally descending into spawn bodies."""
    for ins in instrs:
        yield ins
        if include_spawn_bodies and isinstance(ins, SpawnIR):
            yield from walk_instrs(ins.body, True)
