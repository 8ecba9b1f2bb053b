"""The compiler post-pass: assembly-level XMT semantics verification.

The paper, Section IV (and Fig. 9): "XMT places a restriction on the
layout of the assembly code of spawn blocks, because it needs to
broadcast it to the TCUs: all spawn-block code must be placed between
the spawn and join assembly instructions.  Interestingly, in its effort
to optimize the assembly, [the core pass] might decide to place a
basic-block that logically belongs to a spawn-block after it. ...  We
wrote a pass [SableCC] to check for this situation and fix it by
relocating such misplaced basic-blocks between the spawn and join
instructions."

This module is that pass, working on the core pass's assembly lines
(codegen hands them over as :class:`AsmLine` records; hand-written
assembly text comes in through :func:`run_postpass`, which parses it
first): it finds each spawn-join region, follows control flow from inside
the region, relocates any reachable basic block that was laid out
outside the region back in front of the ``join`` (adding the jump the
relocation requires, exactly as in Fig. 9b), and finally verifies that
the region is self-contained and free of parallel-illegal instructions
(``jal``/``jr``/``halt``/nested ``spawn``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from repro.xmtc.errors import CompileError

_LABEL_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*):\s*(.*)$")

#: opcodes that end a basic block unconditionally
_BLOCK_ENDERS = {"j", "jr", "halt", "join"}
#: branch opcodes whose LAST operand is a text label
_BRANCHES = {"beq", "bne", "beqz", "bnez", "blez", "bgtz", "bltz", "bgez", "j", "b"}
#: instructions illegal inside a broadcast spawn region
_PARALLEL_ILLEGAL = {"jal", "jr", "halt", "spawn"}


class AsmLine:
    """One text-section line: the labels bound to it, its opcode (None
    for labels at the very end) and operand texts, and the XMTC source
    line it came from (0 if none)."""

    __slots__ = ("labels", "op", "operands", "src_line")

    def __init__(self, labels: List[str], op: Optional[str],
                 operands: List[str], src_line: int = 0):
        self.labels = labels
        self.op = op
        self.operands = operands
        self.src_line = src_line

    def render(self) -> List[str]:
        out = [f"{label}:" for label in self.labels]
        if self.op is not None:
            text = self.op if not self.operands else (
                f"{self.op:<4} " + ", ".join(self.operands))
            if self.src_line:
                text = f"{text}  # @{self.src_line}"
            out.append("    " + text)
        return out

    def target(self) -> Optional[str]:
        if self.op in _BRANCHES and self.operands:
            return self.operands[-1]
        return None


def _parse(text: str) -> Tuple[List[str], List[AsmLine]]:
    """Split into (data/header lines, text-section instruction lines)."""
    header: List[str] = []
    body: List[AsmLine] = []
    in_text = False
    pending_labels: List[str] = []
    src_mark = re.compile(r"#\s*@(\d+)\s*$")
    for raw in text.splitlines():
        m = src_mark.search(raw)
        src_line = int(m.group(1)) if m else 0
        stripped = raw.split("#", 1)[0].rstrip()
        if not in_text:
            header.append(raw)
            if stripped.strip() == ".text":
                in_text = True
            continue
        line = stripped.strip()
        if not line:
            continue
        labels = []
        while True:
            m = _LABEL_RE.match(line)
            if not m or '"' in line.split(":")[0]:
                break
            labels.append(m.group(1))
            line = m.group(2).strip()
        if not line:
            pending_labels.extend(labels)
            continue
        parts = line.split(None, 1)
        op = parts[0]
        operands = ([p.strip() for p in parts[1].split(",")]
                    if len(parts) > 1 else [])
        body.append(AsmLine(pending_labels + labels, op, operands, src_line))
        pending_labels = []
    if pending_labels:
        body.append(AsmLine(pending_labels, None, []))
    return header, body


def _label_index(body: List[AsmLine]) -> Dict[str, int]:
    table: Dict[str, int] = {}
    for i, line in enumerate(body):
        for label in line.labels:
            if label in table:
                raise CompileError(f"post-pass: duplicate label {label!r}")
            table[label] = i
    return table


def _find_regions(body: List[AsmLine]) -> List[Tuple[int, int]]:
    regions = []
    open_spawn = None
    for i, line in enumerate(body):
        if line.op == "spawn":
            if open_spawn is not None:
                raise CompileError("post-pass: nested spawn in assembly")
            open_spawn = i
        elif line.op == "join":
            if open_spawn is None:
                raise CompileError("post-pass: join without spawn")
            regions.append((open_spawn, i))
            open_spawn = None
    if open_spawn is not None:
        raise CompileError("post-pass: spawn without join")
    return regions


def _block_extent(body: List[AsmLine], start: int) -> int:
    """End (exclusive) of the basic block starting at ``start``: follow
    until an unconditional control transfer (inclusive)."""
    i = start
    while i < len(body):
        line = body[i]
        if i > start and line.labels:
            # a new labeled block begins; the previous one falls through
            return i
        if line.op in _BLOCK_ENDERS:
            return i + 1
        i += 1
    return len(body)


class PostPassReport:
    def __init__(self):
        self.relocated_blocks = 0
        self.relocation_jumps_added = 0

    def __repr__(self):
        return (f"<postpass relocated={self.relocated_blocks} "
                f"jumps_added={self.relocation_jumps_added}>")


def _relocate_once(body: List[AsmLine],
                   report: PostPassReport) -> Optional[List[AsmLine]]:
    """Find one misplaced block and move it inside its region.
    Returns the new body, or None when no relocation is needed."""
    labels = _label_index(body)
    for spawn_i, join_i in _find_regions(body):
        inside: Set[int] = set(range(spawn_i + 1, join_i))
        for i in sorted(inside):
            target = body[i].target()
            if target is None:
                continue
            ti = labels.get(target)
            if ti is None:
                raise CompileError(f"post-pass: undefined label {target!r}")
            if spawn_i < ti < join_i:
                continue
            if ti == join_i:
                raise CompileError(
                    "post-pass: branch into the join instruction from "
                    "inside the spawn region")
            # Fig. 9a detected: a block logically in the region lies
            # outside it.  Relocate it in front of the join.
            extent = _block_extent(body, ti)
            block = body[ti:extent]
            # the block may fall off its end into other code; if so we
            # must terminate it -- but a legal relocation target always
            # ends with an unconditional transfer back into the region
            # (Fig. 9's `j BB1`); otherwise the code truly escapes:
            last = block[-1]
            if last.op not in _BLOCK_ENDERS:
                raise CompileError(
                    f"post-pass: control flows out of the spawn region "
                    f"through label {target!r} and never returns "
                    "(illegal layout that cannot be fixed by relocation)")
            if last.op in ("jr", "halt"):
                raise CompileError(
                    f"post-pass: spawn-region code reaches {last.op!r} "
                    f"via {target!r} -- illegal in parallel code")
            new_body = body[:ti] + body[extent:]
            # recompute join position after removal
            shift = extent - ti if ti < join_i else 0
            insert_at = join_i - shift
            # In this dispatch model TCUs park at chkid and never execute
            # the join, so the instruction before the join must already
            # end its block (codegen emits `j vt_loop` there).  If it
            # falls through, the input was wrong before we ever moved
            # anything.
            prev = new_body[insert_at - 1] if insert_at > 0 else None
            if prev is not None and prev.op not in _BLOCK_ENDERS:
                raise CompileError(
                    "post-pass: spawn-region code falls through into the "
                    "join instruction; TCUs park at chkid and must never "
                    "execute the join marker")
            report.relocated_blocks += 1
            return new_body[:insert_at] + list(block) + new_body[insert_at:]
    return None


def _verify(body: List[AsmLine], parallel_calls: bool = False) -> None:
    labels = _label_index(body)
    illegal = set(_PARALLEL_ILLEGAL)
    if parallel_calls:
        # the parallel-calls extension: TCUs may jal out of the
        # broadcast region (future-XMT instruction-cache model)
        illegal.discard("jal")
    for spawn_i, join_i in _find_regions(body):
        for i in range(spawn_i + 1, join_i):
            line = body[i]
            if line.op in illegal:
                raise CompileError(
                    f"post-pass: instruction {line.op!r} is illegal inside "
                    "a spawn region (broadcast code cannot call, halt or "
                    "nest spawns)")
            target = line.target()
            if target is not None:
                ti = labels[target]
                if not spawn_i < ti < join_i:
                    raise CompileError(
                        f"post-pass: spawn-region branch to {target!r} "
                        "escapes the broadcast region (paper Fig. 9)")
        # TCUs park at chkid; nothing may fall through into the join
        if join_i > spawn_i + 1 and body[join_i - 1].op not in _BLOCK_ENDERS:
            raise CompileError(
                "post-pass: spawn-region code falls through into the join")


def postpass_lines(header: List[str], body: List[AsmLine],
                   parallel_calls: bool = False
                   ) -> Tuple[List[str], List[AsmLine], PostPassReport]:
    """Verify (and fix) XMT layout semantics of an assembly module given
    as lines (``header`` is the text through ``.text``); returns the
    verified ``(header, body)`` lines and the report."""
    report = PostPassReport()
    for _ in range(1 + len(body)):
        new_body = _relocate_once(body, report)
        if new_body is None:
            break
        body = new_body
    else:  # pragma: no cover
        raise CompileError("post-pass: relocation did not converge")
    _verify(body, parallel_calls=parallel_calls)
    return header, body, report


def render(header: List[str], body: List[AsmLine]) -> str:
    """The assembly text of verified lines."""
    lines = list(header)
    for line in body:
        lines.extend(line.render())
    return "\n".join(lines) + "\n"


def run_postpass(asm_text: str,
                 parallel_calls: bool = False) -> Tuple[str, PostPassReport]:
    """Verify (and fix) XMT layout semantics of an assembly module given
    as text (hand-written assembly's front door)."""
    header, body, report = postpass_lines(*_parse(asm_text),
                                          parallel_calls=parallel_calls)
    return render(header, body), report
