"""Source-level cycle profiler (``xmtsim --profile`` / ``xmt-prof``).

Section III-B promises counters that refer hot assembly "back to the
corresponding XMTC lines of code".  The profiler attributes every issue
slot of every processor to the instruction occupying it:

- an **issue** charges one cycle to the instruction's text index;
- a **stall** (scoreboard wait, send-queue back-pressure, structural FU
  conflict, fence/drain, store-ack, latency bubble) charges its cycles
  (one when ticked, the whole span when slept through -- the PC cannot
  move during a sleep) to the instruction the processor is *blocked at*
  (``core.pc``), tagged with the stall cause.

Folding both through :attr:`Instruction.src_line` yields a gprof-style
flat profile per XMTC source line, and summing over each spawn region
yields the cumulative cost per spawn site.  Attributed cycles are
*issue-slot* cycles summed over all processors -- on a 64-TCU run one
simulated cycle of parallel section contributes up to 64 attributed
cycles, which is exactly the quantity a programmer optimizing total
work wants ranked.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.observability.artifacts import schema_of


class CycleProfiler:
    """Per-instruction-index issue and stall attribution.

    ``source`` is the text that :attr:`Instruction.src_line` numbers
    refer to.  For programs compiled from XMTC that is the *XMTC*
    source (the assembler's ``# @N`` markers carry XMTC line numbers),
    not ``program.source`` (the assembly text) -- pass it explicitly;
    without it the report still ranks lines but cannot quote them.
    """

    def __init__(self, program, source: Optional[str] = None):
        self.program = program
        self.source = source
        n = len(program.instructions)
        self.issues = [0] * n
        self.stalls = [0] * n
        #: stall cause -> cycles, machine-wide
        self.stall_causes: Dict[str, int] = {}

    # -- probes (hot paths; see repro.sim.observability.core.PROBES) ---------

    def issued(self, proc, uop) -> None:
        self.issues[uop.index] += 1

    def stalled(self, proc, cause: str, first: int, last: int) -> None:
        n = last - first + 1
        pc = proc.core.pc
        if 0 <= pc < len(self.stalls):
            self.stalls[pc] += n
        self.stall_causes[cause] = self.stall_causes.get(cause, 0) + n

    # -- folding -------------------------------------------------------------

    def to_data(self) -> Dict[str, Any]:
        """Fold per-index attribution into the report/JSON payload."""
        program = self.program
        instructions = program.instructions
        lines: Dict[int, List[int]] = {}  # src_line -> [cycles, issues, stalls]
        for index, issued in enumerate(self.issues):
            stalled = self.stalls[index]
            if not issued and not stalled:
                continue
            row = lines.setdefault(instructions[index].src_line, [0, 0, 0])
            row[0] += issued + stalled
            row[1] += issued
            row[2] += stalled
        line_rows = [{"line": line, "cycles": c, "issues": i, "stalls": s}
                     for line, (c, i, s) in lines.items()]
        line_rows.sort(key=lambda r: (-r["cycles"], r["line"]))

        sites = []
        for region in program.spawn_regions:
            spawn_ins = instructions[region.spawn_index]
            cum = sum(self.issues[i] + self.stalls[i]
                      for i in range(region.spawn_index,
                                     region.join_index + 1))
            sites.append({
                "spawn_index": region.spawn_index,
                "line": spawn_ins.src_line,
                "flat_cycles": (self.issues[region.spawn_index]
                                + self.stalls[region.spawn_index]),
                "cum_cycles": cum,
            })
        sites.sort(key=lambda r: -r["cum_cycles"])

        total = sum(self.issues) + sum(self.stalls)
        return {
            "schema": schema_of("profile"),
            "total_cycles": total,
            "total_issues": sum(self.issues),
            "total_stalls": sum(self.stalls),
            "lines": line_rows,
            "spawn_sites": sites,
            "stall_causes": dict(sorted(self.stall_causes.items())),
            "source": self.source,
        }


def source_line(source: Optional[str], line: int) -> str:
    """Line ``line`` (1-based) of ``source``, stripped -- the quote every
    report prints next to a line number; ``""`` when there is none."""
    lines = source.splitlines() if source else []
    return lines[line - 1].strip() if 1 <= line <= len(lines) else ""


def render_profile(data: Dict[str, Any], source: Optional[str] = None,
                   top: int = 20) -> str:
    """Render a profile payload (from :meth:`CycleProfiler.to_data` or a
    run directory's ``profile.json``) as the gprof-style hotspot table."""
    if source is None:
        source = data.get("source")

    def quoted(line: int) -> str:
        quote = source_line(source, line)
        return f"| {quote}" if quote else ""

    total = data["total_cycles"] or 1
    out = [f"cycle profile: {data['total_cycles']} attributed issue-slot "
           f"cycles ({data['total_issues']} issues, "
           f"{data['total_stalls']} stalls)",
           f"{'%cycles':>8}  {'cycles':>10}  {'issues':>10}  "
           f"{'stalls':>10}  {'line':>5}  source"]
    for row in data["lines"][:top]:
        line = row["line"]
        where = f"{line:>5}" if line > 0 else "   --"
        text = quoted(line) if line > 0 else "(assembly/runtime only)"
        out.append(f"{100.0 * row['cycles'] / total:>7.1f}%  "
                   f"{row['cycles']:>10}  {row['issues']:>10}  "
                   f"{row['stalls']:>10}  {where}  {text}")
    hidden = len(data["lines"]) - top
    if hidden > 0:
        out.append(f"  ... ({hidden} cooler line(s) elided; --top raises)")
    if data["spawn_sites"]:
        out.append("")
        out.append("spawn sites (flat = spawn dispatch, "
                   "cum = entire region):")
        out.append(f"{'%cum':>8}  {'cum cycles':>10}  {'flat':>10}  "
                   f"{'line':>5}  source")
        for site in data["spawn_sites"]:
            line = site["line"]
            where = f"{line:>5}" if line > 0 else "   --"
            out.append(f"{100.0 * site['cum_cycles'] / total:>7.1f}%  "
                       f"{site['cum_cycles']:>10}  "
                       f"{site['flat_cycles']:>10}  {where}  "
                       f"{quoted(line)}")
    if data["stall_causes"]:
        ranked = sorted(data["stall_causes"].items(), key=lambda kv: -kv[1])
        out.append("")
        out.append("stall causes: " + ", ".join(
            f"{cause} {cycles}" for cause, cycles in ranked))
    return "\n".join(out)
