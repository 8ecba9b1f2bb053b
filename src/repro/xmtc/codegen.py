"""IR + register allocation -> XMT assembly lines.

The compiler emits assembly as :class:`~repro.xmtc.postpass.AsmLine`
records (labels, opcode, operand texts, source line), which go straight
through the post-pass verifier to the assembler; :func:`generate`
renders them as the textual assembly (the real toolchain's interface to
the simulator front end).  Conventions:

- args in ``$a0-$a3``, extra args on the stack (caller's outgoing area);
- result in ``$v0``; ``$ra`` return address;
- ``$t8``/``$t9``/``$at`` are compiler scratch (spills, immediates);
- frame layout from ``$sp``: outgoing args | locals+spills | saved
  ``$sN`` | ``$ra``;
- spawn regions: ``spawn`` / ``getvt $k0`` / ``chkid $k0`` dispatch
  loop / ``join`` (Section IV-D's virtual-thread orchestration);
- ``malloc`` is a bump-allocator runtime routine over ``__heap_ptr``;
  the bump is a psm fetch-and-add, so it is atomic (serial library call
  as in the paper; safe from parallel code under the parallel-calls
  extension).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.registers import REG_A0, REG_VT, reg_name
from repro.isa.semantics import f32_to_bits, to_signed
from repro.xmtc import ir as IR
from repro.xmtc.errors import CompileError
from repro.xmtc.postpass import AsmLine, render
from repro.xmtc.regalloc import REG, SCRATCH, FuncAllocation, allocate
from repro.xmtc.semantic import _fold_const

_SCRATCH_NAMES = [reg_name(SCRATCH[0]), reg_name(SCRATCH[1]), "$at"]

_IMM_FORMS = {"add": "addi", "and": "andi", "or": "ori", "xor": "xori",
              "sll": "slli", "srl": "srli", "sra": "srai", "slt": "slti"}

_CJ_SIGNED = {"eq": "seq", "ne": "sne", "lt": "slt", "le": "sle",
              "gt": "sgt", "ge": "sge"}

#: parallel-calls extension: per-TCU stack arena (software convention).
#: TCU k's stack grows down from PARALLEL_STACK_TOP - k * 2**LOG2_SIZE;
#: the arena sits far above the Master stack (0x0080_0000) and supports
#: up to 1024 TCUs at 16 KiB each.
PARALLEL_STACK_TOP = 0x07800000
PARALLEL_STACK_LOG2_SIZE = 14


class _FuncEmitter:
    def __init__(self, unit: "CodeGenerator", func: IR.IRFunc):
        self.u = unit
        self.func = func
        self.alloc: FuncAllocation = allocate(func)
        self.lines: List[AsmLine] = []
        #: labels waiting for the next instruction
        self._labels: List[str] = []
        self.outgoing = func.max_outgoing_stack_args * 4
        saved = sorted(self.alloc.serial.used_callee)
        self.saved_regs = saved
        self.save_ra = func.has_calls
        #: frame accesses go through $fp when spawn bodies call functions
        #: (TCUs switch $sp to their private stacks; $fp keeps pointing
        #: at the Master frame holding spilled live-ins)
        self.uses_fp = any(
            isinstance(ins, IR.SpawnIR) and IR.region_has_calls(ins.body)
            for ins in func.body)
        self.frame_reg = "$sp"
        self.frame_size = (self.outgoing + func.frame_locals
                           + 4 * len(saved) + (4 if self.save_ra else 0)
                           + (4 if self.uses_fp else 0))
        self.frame_size = (self.frame_size + 7) & ~7
        self._epilogue_label: Optional[str] = None
        self._src_line = 0

    # -- emission helpers ---------------------------------------------------

    def emit(self, op: str, *operands: str) -> None:
        # the source line lets simulator plug-ins refer hot assembly
        # back to XMTC lines (paper Section III-B)
        self.lines.append(AsmLine(self._labels, op, list(operands),
                                  self._src_line))
        self._labels = []

    def label(self, name: str) -> None:
        self._labels.append(name)

    def _frame_off(self, raw: int) -> int:
        return self.outgoing + raw

    def _save_area(self) -> int:
        return self.outgoing + self.func.frame_locals

    # operand -> register (reading); scratch_slot picks which scratch reg
    def read_op(self, op: IR.Operand, alloc, scratch_slot: int) -> str:
        if isinstance(op, IR.Const):
            if op.value == 0:
                return "$zero"
            name = _SCRATCH_NAMES[scratch_slot]
            self.emit("li", name, str(to_signed(op.value)))
            return name
        kind, n = alloc.where(op)
        if kind == REG:
            return reg_name(n)
        name = _SCRATCH_NAMES[scratch_slot]
        self.emit("lw", name, f"{self._frame_off(n)}({self.frame_reg})")
        return name

    # destination register; returns (reg_name, flush_fn)
    def write_op(self, temp: IR.Temp, alloc, scratch_slot: int = 0):
        kind, n = alloc.where(temp)
        if kind == REG:
            return reg_name(n), None
        name = _SCRATCH_NAMES[scratch_slot]
        off = self._frame_off(n)

        def flush():
            self.emit("sw", name, f"{off}({self.frame_reg})")

        return name, flush

    # -- function body ---------------------------------------------------------

    def run(self) -> List[AsmLine]:
        func = self.func
        self.label(func.name)
        self._prologue()
        # parameters: $a0-$a3 then stack (at old-sp, i.e. sp+frame_size+...)
        for i, ptemp in enumerate(func.params):
            if ptemp.pinned is None and ptemp.id not in self.alloc.serial.map:
                continue  # dead parameter: no move needed
            if i < 4:
                src = reg_name(REG_A0 + i)
            else:
                # caller pushed at its own sp+4*(i-4); after our prologue
                # that is sp + frame_size + 4*(i-4)
                src = None
            kind, n = self.alloc.serial.where(ptemp)
            if i < 4:
                if kind == REG:
                    if reg_name(n) != src:
                        self.emit("move", reg_name(n), src)
                else:
                    self.emit("sw", src, f"{self._frame_off(n)}($sp)")
            else:
                stack_off = self.frame_size + 4 * (i - 4)
                if kind == REG:
                    self.emit("lw", reg_name(n), f"{stack_off}($sp)")
                else:
                    self.emit("lw", "$t8", f"{stack_off}($sp)")
                    self.emit("sw", "$t8", f"{self._frame_off(n)}($sp)")
        self._region(func.body, self.alloc.serial, spawn=None)
        # safety net: fall off the end
        if self._labels or not self.lines or self.lines[-1].op != "jr":
            self._emit_epilogue(None)
        return self.lines

    def _prologue(self) -> None:
        if self.frame_size:
            self.emit("addi", "$sp", "$sp", f"-{self.frame_size}")
        base = self._save_area()
        for i, reg in enumerate(self.saved_regs):
            self.emit("sw", reg_name(reg), f"{base + 4 * i}($sp)")
        slot = base + 4 * len(self.saved_regs)
        if self.save_ra:
            self.emit("sw", "$ra", f"{slot}($sp)")
            slot += 4
        if self.uses_fp:
            self.emit("sw", "$fp", f"{slot}($sp)")
            self.emit("move", "$fp", "$sp")

    def _emit_epilogue(self, value: Optional[IR.Operand],
                       alloc=None) -> None:
        if value is not None:
            src = self.read_op(value, alloc or self.alloc.serial, 0)
            if src != "$v0":
                self.emit("move", "$v0", src)
        base = self._save_area()
        for i, reg in enumerate(self.saved_regs):
            self.emit("lw", reg_name(reg), f"{base + 4 * i}($sp)")
        slot = base + 4 * len(self.saved_regs)
        if self.save_ra:
            self.emit("lw", "$ra", f"{slot}($sp)")
            slot += 4
        if self.uses_fp:
            self.emit("lw", "$fp", f"{slot}($sp)")
        if self.frame_size:
            self.emit("addi", "$sp", "$sp", str(self.frame_size))
        self.emit("jr", "$ra")

    # -- regions -----------------------------------------------------------------

    def _region(self, instrs: List[IR.IRInstr], alloc, spawn) -> None:
        for ins in instrs:
            self._instr(ins, alloc, spawn)

    def _instr(self, ins: IR.IRInstr, alloc, spawn) -> None:
        self._src_line = ins.line
        if isinstance(ins, IR.Label):
            self.label(ins.name)
        elif isinstance(ins, IR.Jump):
            self.emit("j", ins.target)
        elif isinstance(ins, IR.CondJump):
            self._condjump(ins, alloc)
        elif isinstance(ins, IR.Bin):
            self._bin(ins, alloc)
        elif isinstance(ins, IR.Un):
            a = self.read_op(ins.a, alloc, 0)
            dst, flush = self.write_op(ins.dst, alloc, 0)
            self.emit(ins.op, dst, a)
            if flush:
                flush()
        elif isinstance(ins, IR.Mov):
            self._mov(ins, alloc)
        elif isinstance(ins, IR.La):
            dst, flush = self.write_op(ins.dst, alloc, 0)
            self.emit("la", dst, ins.symbol)
            if flush:
                flush()
        elif isinstance(ins, IR.FrameAddr):
            dst, flush = self.write_op(ins.dst, alloc, 0)
            self.emit("addi", dst, self.frame_reg,
                      str(self._frame_off(ins.offset)))
            if flush:
                flush()
        elif isinstance(ins, IR.Load):
            addr = self.read_op(ins.addr, alloc, 1)
            dst, flush = self.write_op(ins.dst, alloc, 0)
            op = "lwro" if ins.readonly else "lw"
            self.emit(op, dst, f"0({addr})")
            if flush:
                flush()
        elif isinstance(ins, IR.Store):
            src = self.read_op(ins.src, alloc, 0)
            addr = self.read_op(ins.addr, alloc, 1)
            op = "swnb" if ins.nonblocking else "sw"
            self.emit(op, src, f"0({addr})")
        elif isinstance(ins, IR.Pref):
            addr = self.read_op(ins.addr, alloc, 1)
            self.emit("pref", f"0({addr})")
        elif isinstance(ins, IR.Call):
            self._call(ins, alloc)
        elif isinstance(ins, IR.Ret):
            if spawn is not None:
                raise CompileError("internal: ret inside a spawn region")
            self._emit_epilogue(ins.src, alloc)
        elif isinstance(ins, IR.PsIR):
            self._ps(ins, alloc)
        elif isinstance(ins, IR.PsmIR):
            self._psm(ins, alloc)
        elif isinstance(ins, IR.FenceIR):
            self.emit("fence")
        elif isinstance(ins, IR.PrintIR):
            self._print(ins, alloc)
        elif isinstance(ins, IR.SpawnIR):
            self._spawn(ins, alloc)
        else:  # pragma: no cover
            raise CompileError(f"internal: cannot emit {type(ins).__name__}")

    def _mov(self, ins: IR.Mov, alloc) -> None:
        if isinstance(ins.src, IR.Const):
            dst, flush = self.write_op(ins.dst, alloc, 0)
            value = to_signed(ins.src.value)
            if value == 0:
                self.emit("move", dst, "$zero")
            else:
                self.emit("li", dst, str(value))
            if flush:
                flush()
            return
        src = self.read_op(ins.src, alloc, 1)
        dst, flush = self.write_op(ins.dst, alloc, 0)
        if dst != src:
            self.emit("move", dst, src)
        if flush:
            flush()

    def _bin(self, ins: IR.Bin, alloc) -> None:
        op = ins.op
        # immediate forms
        if isinstance(ins.b, IR.Const) and op in _IMM_FORMS:
            a = self.read_op(ins.a, alloc, 0)
            dst, flush = self.write_op(ins.dst, alloc, 0)
            self.emit(_IMM_FORMS[op], dst, a, str(to_signed(ins.b.value)))
            if flush:
                flush()
            return
        if isinstance(ins.b, IR.Const) and op == "sub":
            a = self.read_op(ins.a, alloc, 0)
            dst, flush = self.write_op(ins.dst, alloc, 0)
            self.emit("addi", dst, a, str(-to_signed(ins.b.value)))
            if flush:
                flush()
            return
        a = self.read_op(ins.a, alloc, 0)
        b = self.read_op(ins.b, alloc, 1)
        dst, flush = self.write_op(ins.dst, alloc, 0)
        self.emit(op, dst, a, b)
        if flush:
            flush()

    def _condjump(self, ins: IR.CondJump, alloc) -> None:
        a = self.read_op(ins.a, alloc, 0)
        if ins.cond in ("eq", "ne"):
            b = self.read_op(ins.b, alloc, 1)
            op = "beq" if ins.cond == "eq" else "bne"
            self.emit(op, a, b, ins.target)
            return
        # relational: compare against zero fast paths
        if isinstance(ins.b, IR.Const) and ins.b.value == 0:
            fast = {"lt": "bltz", "le": "blez", "gt": "bgtz", "ge": "bgez"}
            self.emit(fast[ins.cond], a, ins.target)
            return
        b = self.read_op(ins.b, alloc, 1)
        self.emit(_CJ_SIGNED[ins.cond], "$at", a, b)
        self.emit("bnez", "$at", ins.target)

    def _call(self, ins: IR.Call, alloc) -> None:
        self.u.called.add(ins.name)
        for i, arg in enumerate(ins.args):
            if i < 4:
                dst = reg_name(REG_A0 + i)
                if isinstance(arg, IR.Const):
                    self.emit("li", dst, str(to_signed(arg.value)))
                else:
                    kind, n = alloc.where(arg)
                    if kind == REG:
                        if reg_name(n) != dst:
                            self.emit("move", dst, reg_name(n))
                    else:
                        self.emit("lw", dst, f"{self._frame_off(n)}({self.frame_reg})")
            else:
                src = self.read_op(arg, alloc, 0)
                self.emit("sw", src, f"{4 * (i - 4)}($sp)")
        self.emit("jal", ins.name)
        if ins.dst is not None:
            kind, n = alloc.where(ins.dst)
            if kind == REG:
                if reg_name(n) != "$v0":
                    self.emit("move", reg_name(n), "$v0")
            else:
                self.emit("sw", "$v0", f"{self._frame_off(n)}({self.frame_reg})")

    def _ps(self, ins: IR.PsIR, alloc) -> None:
        op = {"ps": "ps", "get": "getg", "set": "setg"}[ins.mode]
        kind, n = alloc.where(ins.temp)
        if kind == REG:
            self.emit(op, reg_name(n), f"$g{ins.greg}")
            return
        off = self._frame_off(n)
        if ins.mode in ("ps", "set"):
            self.emit("lw", "$t8", f"{off}({self.frame_reg})")
        self.emit(op, "$t8", f"$g{ins.greg}")
        if ins.mode in ("ps", "get"):
            self.emit("sw", "$t8", f"{off}({self.frame_reg})")

    def _psm(self, ins: IR.PsmIR, alloc) -> None:
        addr = self.read_op(ins.addr, alloc, 1)
        kind, n = alloc.where(ins.temp)
        if kind == REG:
            self.emit("psm", reg_name(n), f"0({addr})")
            return
        off = self._frame_off(n)
        self.emit("lw", "$t8", f"{off}({self.frame_reg})")
        self.emit("psm", "$t8", f"0({addr})")
        self.emit("sw", "$t8", f"{off}({self.frame_reg})")

    def _print(self, ins: IR.PrintIR, alloc) -> None:
        fmt_label = self.u.fmt_label(ins.fmt)
        regs: List[str] = []
        scratch = 0
        for arg in ins.args:
            if isinstance(arg, IR.Const):
                if arg.value == 0:
                    regs.append("$zero")
                    continue
                if scratch >= len(_SCRATCH_NAMES):
                    raise CompileError(
                        "too many constant/spilled printf arguments in one "
                        "call (max 3); split the printf")
                name = _SCRATCH_NAMES[scratch]
                scratch += 1
                self.emit("li", name, str(to_signed(arg.value)))
                regs.append(name)
            else:
                kind, n = alloc.where(arg)
                if kind == REG:
                    regs.append(reg_name(n))
                else:
                    if scratch >= len(_SCRATCH_NAMES):
                        raise CompileError(
                            "too many constant/spilled printf arguments in "
                            "one call (max 3); split the printf")
                    name = _SCRATCH_NAMES[scratch]
                    scratch += 1
                    self.emit("lw", name, f"{self._frame_off(n)}({self.frame_reg})")
                    regs.append(name)
        self.emit("print", fmt_label, *regs)

    def _spawn(self, ins: IR.SpawnIR, alloc) -> None:
        body_alloc = self.alloc.bodies[id(ins)]
        has_calls = IR.region_has_calls(ins.body)
        low = self.read_op(ins.low, alloc, 0)
        high = self.read_op(ins.high, alloc, 1)
        loop = self.u.new_label("vt_loop")
        self.emit("spawn", low, high)
        if has_calls:
            # parallel-calls extension: each TCU switches to its private
            # stack before dispatching virtual threads (runs once per
            # TCU at broadcast); Master-frame accesses go through $fp
            self.emit("gettcu", "$t8")
            self.emit("slli", "$t9", "$t8", str(PARALLEL_STACK_LOG2_SIZE))
            self.emit("li", "$at", str(PARALLEL_STACK_TOP))
            self.emit("sub", "$sp", "$at", "$t9")
            if self.outgoing:
                # reserve this pseudo-frame's outgoing-argument area so
                # >4-arg calls from the body don't write above the stack
                self.emit("addi", "$sp", "$sp", f"-{self.outgoing}")
        self.label(loop)
        self.emit("getvt", reg_name(REG_VT))
        self.emit("chkid", reg_name(REG_VT))
        prev_frame_reg = self.frame_reg
        if has_calls:
            self.frame_reg = "$fp"
        self._region(ins.body, body_alloc, spawn=ins)
        self.frame_reg = prev_frame_reg
        self.emit("j", loop)
        self.emit("join")


class CodeGenerator:
    def __init__(self, unit: IR.IRUnit):
        self.unit = unit
        self.fmt_labels: Dict[str, str] = {}
        self.called: set = set()
        self._label_counter = 0

    def new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"__{hint}_{self._label_counter}"

    def fmt_label(self, fmt: str) -> str:
        label = self.fmt_labels.get(fmt)
        if label is None:
            label = f"__fmt_{len(self.fmt_labels)}"
            self.fmt_labels[fmt] = label
        return label

    def run(self) -> Tuple[List[str], List[AsmLine]]:
        """The data section's text lines (through ``.text``) and the
        text section's instruction lines."""
        text_lines = [AsmLine(["__start"], "jal", ["main"]),
                      AsmLine([], "halt", [])]
        for func in self.unit.functions:
            text_lines.extend(_FuncEmitter(self, func).run())
        if "malloc" in self.called:
            text_lines.extend(self._malloc_runtime())

        data_lines: List[str] = ["    .data"]
        for name, gvar in self.unit.globals.items():
            data_lines.extend(self._emit_global(name, gvar))
        for name, (index, init) in self.unit.greg_map.items():
            data_lines.append(f"    .greg {index}, {init}    # psBaseReg {name}")
        for fmt, label in self.fmt_labels.items():
            escaped = (fmt.replace("\\", "\\\\").replace('"', '\\"')
                       .replace("\n", "\\n").replace("\t", "\\t")
                       .replace("\0", "\\0"))
            data_lines.append(f'{label}: .fmt "{escaped}"')
        if "malloc" in self.called:
            data_lines.append("__heap_ptr: .word __heap_end")
            data_lines.append("__heap_end: .space 0")

        return data_lines + ["", "    .text"], text_lines

    def _emit_global(self, name: str, gvar) -> List[str]:
        t = gvar.var_type
        if t.is_array():
            n_words = t.n_words()
            init = gvar.init
            if not init:
                return [f"{name}: .space {4 * n_words}"]
            values = []
            elem = t.element_base()
            for expr in init:
                value = _fold_const(expr)
                if elem.is_float():
                    values.append(str(f32_to_bits(float(value))))
                else:
                    values.append(str(int(value)))
            # pad with zeros so the symbol keeps its full extent
            values.extend("0" for _ in range(n_words - len(values)))
            return [f"{name}: .word " + ", ".join(values)]
        value = 0
        if gvar.init is not None:
            folded = _fold_const(gvar.init)
            if t.is_float():
                return [f"{name}: .float {float(folded)}"]
            value = int(folded)
        if t.is_float():
            return [f"{name}: .float 0.0"]
        return [f"{name}: .word {value}"]

    @staticmethod
    def _malloc_runtime() -> List[AsmLine]:
        # fetch-and-add through psm: the bump is atomic at the cache
        # module, so the allocator is safe from parallel code too (the
        # parallel-calls extension's "parallel dynamic memory
        # allocation" -- paper Section IV-D future work).  Word-align
        # the size, then atomically bump __heap_ptr.
        return [AsmLine(["malloc"], "addi", ["$a0", "$a0", "3"]),
                AsmLine([], "srli", ["$a0", "$a0", "2"]),
                AsmLine([], "slli", ["$a0", "$a0", "2"]),
                AsmLine([], "la", ["$t0", "__heap_ptr"]),
                AsmLine([], "psm", ["$a0", "0($t0)"]),
                AsmLine([], "move", ["$v0", "$a0"]),
                AsmLine([], "jr", ["$ra"])]


def generate(unit: IR.IRUnit) -> str:
    """Emit assembly text for an optimized IR unit."""
    return render(*CodeGenerator(unit).run())
