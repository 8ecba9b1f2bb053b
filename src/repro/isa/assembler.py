"""Two-pass assembler for the XMT assembly language.

This plays the role of the SableCC-generated front end the paper
describes: it "reads the assembly file and instantiates the instruction
objects" and links the data section into the initial memory map.

Syntax overview::

        .data
    base:   .word 0                 # one word, initialized
    A:      .space 400              # 100 zeroed words
    V:      .word 1, 2, -3, 0x10    # several words
    F:      .float 1.5, 2.5         # IEEE-754 single words
    Lfmt:   .fmt "x=%d\\n"           # format string (string table, not memory)
        .text
    main:   li   $t0, A             # label -> data address
            lw   $t1, 0($t0)
            print Lfmt, $t1
            halt

Comments run from ``#`` or ``//`` to end of line.  ``spawn``/``join``
regions are resolved at assembly time; nested spawns are rejected
(the toolchain serializes nested parallelism before this point).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.isa.instructions import ALIASES, TABLE, Instruction
from repro.isa.program import DATA_BASE, GlobalSymbol, Program
from repro.isa.registers import parse_global_reg, parse_reg
from repro.isa.semantics import f32_to_bits, to_unsigned


class AssemblerError(Exception):
    """Assembly-time diagnostic, carrying the offending line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_LABEL_DEF_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|\d+)$")
_MEM_OPERAND_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))?\(\s*(\$\w+)\s*\)$")


def _parse_int(tok: str, line: int) -> int:
    """Every immediate, memory offset, ``.word`` and ``.greg`` value: an
    ``_INT_RE`` literal in [-2**31, 2**32), the values a 32-bit field
    holds as a signed or an unsigned number."""
    tok = tok.strip()
    try:
        value = int(tok, 0) if _INT_RE.match(tok) else None
    except ValueError:  # a leading zero: "010"
        value = None
    if value is None:
        raise AssemblerError(f"malformed integer literal {tok!r}", line)
    if not -(1 << 31) <= value < (1 << 32):
        raise AssemblerError(
            f"integer literal {tok} out of range [-2**31, 2**32)", line)
    return value


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas that are not inside quotes."""
    if '"' not in text:
        parts = [part.strip() for part in text.split(",")]
        if not parts[-1]:
            parts.pop()
        return parts
    parts = []
    depth_quote = False
    current = []
    for ch in text:
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _unescape(body: str, line: int) -> str:
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise AssemblerError("dangling escape in string literal", line)
            nxt = body[i + 1]
            mapped = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0"}.get(nxt)
            if mapped is None:
                raise AssemblerError(f"unknown escape \\{nxt}", line)
            out.append(mapped)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class _Assembler:
    def __init__(self, data_base: int = DATA_BASE):
        self.data_base = data_base
        self.program = Program()
        self.fmt_labels: Dict[str, int] = {}
        self._data_cursor = data_base
        self._section = ".text"
        self._pending_labels: List[Tuple[str, int]] = []
        self._last_data_labels: List[str] = []
        self._fixups: List[Tuple[Instruction, str, str, int]] = []

    # -- pass 1: build instructions / data with label placeholders ---------

    def line(self, raw: str, lineno: int) -> None:
        """Read one line of assembly text."""
        line = self._strip_comment(raw).strip()
        if not line:
            return
        line = self._consume_labels(line, lineno)
        if not line:
            return
        if line.startswith("."):
            self._directive(line, lineno)
            return
        parts = line.split(None, 1)
        ops = _split_operands(parts[1]) if len(parts) > 1 else []
        self.instruction(parts[0], ops, lineno, self._pending_src_line)

    def finish(self, source: str) -> Program:
        if self._pending_labels and self._section == ".text":
            # labels at end of text bind to one past the last instruction
            for name, lineno in self._pending_labels:
                self._bind_text_label(name, len(self.program.instructions), lineno)
            self._pending_labels.clear()
        self._resolve()
        self.program.source = source
        return self.program

    _SRC_MARK = re.compile(r"#\s*@(\d+)\s*$")

    def _strip_comment(self, line: str) -> str:
        # compiler-emitted source-line markers ("# @N") survive as
        # metadata before comments are dropped
        m = self._SRC_MARK.search(line)
        self._pending_src_line = int(m.group(1)) if m else 0
        if '"' not in line:
            return line.split("#", 1)[0].split("//", 1)[0]
        out = []
        in_str = False
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == '"' and (i == 0 or line[i - 1] != "\\"):
                in_str = not in_str
            if not in_str:
                if ch == "#":
                    break
                if ch == "/" and i + 1 < len(line) and line[i + 1] == "/":
                    break
            out.append(ch)
            i += 1
        return "".join(out)

    def _consume_labels(self, line: str, lineno: int) -> str:
        while True:
            m = _LABEL_DEF_RE.match(line)
            if not m:
                return line
            self.label(m.group(1), lineno)
            line = line[m.end():]

    def label(self, name: str, lineno: int) -> None:
        self._pending_labels.append((name, lineno))
        # Bind immediately for data labels so directives attach sizes.
        if self._section == ".data":
            self._flush_data_labels(lineno)

    def _flush_data_labels(self, lineno: int) -> None:
        for name, _ in self._pending_labels:
            if name in self.program.data_labels or name in self.fmt_labels:
                raise AssemblerError(f"duplicate data label {name!r}", lineno)
            self.program.data_labels[name] = self._data_cursor
        self._last_data_labels += [n for n, _ in self._pending_labels]
        self._pending_labels.clear()

    def _bind_text_label(self, name: str, index: int, lineno: int) -> None:
        if name in self.program.labels:
            raise AssemblerError(f"duplicate text label {name!r}", lineno)
        self.program.labels[name] = index

    # -- directives ----------------------------------------------------------

    def _directive(self, line: str, lineno: int) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name in (".text", ".data"):
            if self._pending_labels and self._section == ".text":
                for lbl, ln in self._pending_labels:
                    self._bind_text_label(lbl, len(self.program.instructions), ln)
                self._pending_labels.clear()
            self._section = name
            return
        if self._section != ".data":
            raise AssemblerError(f"directive {name} only allowed in .data", lineno)
        start = self._data_cursor
        if name == ".word":
            for tok in _split_operands(rest):
                if _INT_RE.match(tok):
                    self.program.data_image[self._data_cursor] = to_unsigned(
                        _parse_int(tok, lineno))
                else:
                    # label reference, resolved in pass 2
                    self._fixups.append((None, "data", tok, self._data_cursor))
                self._data_cursor += 4
        elif name == ".float":
            for tok in _split_operands(rest):
                try:
                    value = float(tok)
                except ValueError:
                    raise AssemblerError(f"malformed float literal {tok!r}", lineno)
                self.program.data_image[self._data_cursor] = f32_to_bits(value)
                self._data_cursor += 4
        elif name == ".space":
            nbytes = _parse_int(rest, lineno)
            if nbytes < 0 or nbytes % 4:
                raise AssemblerError(".space size must be a non-negative multiple of 4",
                                     lineno)
            for off in range(0, nbytes, 4):
                self.program.data_image[self._data_cursor + off] = 0
            self._data_cursor += nbytes
        elif name == ".greg":
            parts2 = _split_operands(rest)
            if len(parts2) != 2:
                raise AssemblerError(".greg expects: .greg N, VALUE", lineno)
            index = _parse_int(parts2[0], lineno)
            value = _parse_int(parts2[1], lineno)
            if not 0 <= index < 8:
                raise AssemblerError("global register index out of range", lineno)
            self.program.greg_init[index] = to_unsigned(value)
            self._last_data_labels = []
            return
        elif name == ".fmt":
            rest = rest.strip()
            if not (rest.startswith('"') and rest.endswith('"') and len(rest) >= 2):
                raise AssemblerError('.fmt expects a quoted string', lineno)
            text = _unescape(rest[1:-1], lineno)
            if not self._last_data_labels:
                raise AssemblerError(".fmt requires a preceding label", lineno)
            fmt_id = len(self.program.strings)
            self.program.strings.append(text)
            for lbl in self._last_data_labels:
                # .fmt labels live in the string table, not memory
                del self.program.data_labels[lbl]
                self.fmt_labels[lbl] = fmt_id
            self._last_data_labels = []
            return
        else:
            raise AssemblerError(f"unknown directive {name}", lineno)
        # record global symbols for memory-map I/O
        n_words = (self._data_cursor - start) // 4
        for lbl in self._last_data_labels:
            self.program.globals_table[lbl] = GlobalSymbol(lbl, start, n_words)
        self._last_data_labels = []

    # -- instructions ----------------------------------------------------------

    def instruction(self, op: str, ops: List[str], lineno: int,
                    src_line: int = 0) -> None:
        if self._section != ".text":
            raise AssemblerError("instruction outside .text section", lineno)
        for name, ln in self._pending_labels:
            self._bind_text_label(name, len(self.program.instructions), ln)
        self._pending_labels.clear()

        ins = self._build(op, ops, lineno)
        ins.index = len(self.program.instructions)
        ins.src_line = src_line
        self.program.instructions.append(ins)

    def _need(self, ops: List[str], n: int, op: str, lineno: int) -> None:
        if len(ops) != n:
            raise AssemblerError(f"{op} expects {n} operands, got {len(ops)}", lineno)

    def _mem_operand(self, tok: str, lineno: int) -> Tuple[int, int]:
        """``off($base)`` -> (base, off); a bad register raises ValueError."""
        m = _MEM_OPERAND_RE.match(tok.replace(" ", ""))
        if not m:
            raise AssemblerError(f"malformed memory operand {tok!r}", lineno)
        off = _parse_int(m.group(1), lineno) if m.group(1) else 0
        return parse_reg(m.group(2)), off

    def _build(self, op: str, ops: List[str], lineno: int) -> Instruction:
        """The record of one line, built from its row of ``TABLE``: each
        operand letter of the row's syntax fills its field (the letters
        are listed in :mod:`repro.isa.instructions`)."""
        mnemonic = op
        if op in ALIASES:
            mnemonic, template = ALIASES[op]
            self._need(ops, sum(isinstance(t, int) for t in template), op,
                       lineno)
            ops = [ops[t] if isinstance(t, int) else t for t in template]
        if mnemonic not in TABLE:
            raise AssemblerError(f"unknown opcode {op!r}", lineno)
        syntax = TABLE[mnemonic].syntax
        if syntax != "p":
            self._need(ops, len(syntax), op, lineno)
        elif not ops:
            raise AssemblerError("print expects a format label", lineno)
        ins = Instruction(mnemonic, lineno)
        try:
            for letter, tok in zip(syntax, ops):
                if letter == "d":
                    ins.rd = ins.wr = parse_reg(tok)
                elif letter == "s":
                    ins.rs = parse_reg(tok)
                    ins.reads += (ins.rs,)
                elif letter == "t":
                    ins.rt = parse_reg(tok)
                    ins.reads += (ins.rt,)
                elif letter == "m":
                    ins.rs, ins.imm = self._mem_operand(tok, lineno)
                    ins.reads += (ins.rs,)
                elif letter in "Dr":
                    ins.rd = parse_reg(tok)
                    ins.reads += (ins.rd,)
                    if letter == "D":
                        ins.wr = ins.rd
                elif letter == "g":
                    ins.imm = parse_global_reg(tok)
                elif letter == "i" or (letter == "a" and _INT_RE.match(tok)):
                    ins.imm = _parse_int(tok, lineno) & 0xFFFFFFFF
                elif letter == "a":  # a label: its address, in pass 2
                    self._fixups.append((ins, "imm", tok, lineno))
                else:  # "L" a branch target, "p" a format and its registers
                    ins.label = tok
                    self._fixups.append(
                        (ins, "target" if letter == "L" else "fmt", tok, lineno))
                    if letter == "p":
                        ins.reads = tuple([parse_reg(t) for t in ops[1:]])
        except ValueError as exc:  # a malformed register
            raise AssemblerError(str(exc), lineno) from None
        return ins

    # -- pass 2: resolution ----------------------------------------------------

    def _resolve(self) -> None:
        prog = self.program
        for ins, kind, name, where in self._fixups:
            if kind == "target":
                target = prog.labels.get(name)
                if target is None:
                    raise AssemblerError(f"undefined text label {name!r}", where)
                ins.target = target
            elif kind == "imm":
                if name in prog.data_labels:
                    ins.imm = prog.data_labels[name]
                elif name in prog.labels:
                    ins.imm = prog.labels[name]  # text address (for jr tables)
                else:
                    raise AssemblerError(f"undefined label {name!r}", where)
            elif kind == "fmt":
                fmt_id = self.fmt_labels.get(name)
                if fmt_id is None:
                    raise AssemblerError(f"undefined format label {name!r}", where)
                ins.imm = fmt_id
            elif kind == "data":
                addr = prog.data_labels.get(name)
                if addr is None:
                    addr = prog.labels.get(name)
                if addr is None:
                    raise AssemblerError(f"undefined label {name!r} in .word", 0)
                prog.data_image[where] = addr
        prog.data_end = self._data_cursor
        entry = prog.labels.get("__start", prog.labels.get("main"))
        if entry is None:
            raise AssemblerError("program has no '__start' or 'main' label")
        prog.entry = entry
        try:
            prog.refresh_regions()
        except ValueError as exc:
            raise AssemblerError(str(exc)) from None


def assemble(source: str, data_base: int = DATA_BASE) -> Program:
    """Assemble XMT assembly text into a :class:`Program`."""
    asm = _Assembler(data_base)
    for lineno, raw in enumerate(source.splitlines(), start=1):
        asm.line(raw, lineno)
    return asm.finish(source)


def assemble_lines(header: List[str], body, data_base: int = DATA_BASE
                   ) -> Program:
    """Assemble already-parsed lines (the compiler's post-pass output)
    without reading them back from text.  ``header`` is text lines; each
    ``body`` item has ``labels``, ``op``, ``operands``, ``src_line`` and
    ``render()``.  The text is rendered as the lines are fed, so line
    numbers and ``Program.source`` are those of ``assemble`` on it."""
    asm = _Assembler(data_base)
    text = list(header)
    for lineno, raw in enumerate(header, start=1):
        asm.line(raw, lineno)
    for line in body:
        first = len(text) + 1
        text.extend(line.render())
        for lineno, name in enumerate(line.labels, start=first):
            asm.label(name, lineno)
        if line.op is not None:
            asm.instruction(line.op, line.operands, len(text), line.src_line)
    return asm.finish("\n".join(text) + "\n")
