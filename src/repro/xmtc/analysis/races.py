"""Spawn-region race detector (the ``race.*`` checks).

For every spawn region the detector collects the memory accesses its
virtual threads may perform -- direct loads/stores plus the effects of
functions called from the body (via the unit summaries) -- and pairs
them up.  A pair is a candidate race when at least one side writes and
the alias classes may overlap.  Candidates are then dismissed by the
coordination and privacy arguments the XMT programming model provides:

- the access is a ``ps``/``psm`` operation, or its address is derived
  from a prefix-sum result (the hardware serializes the claims);
- the enclosing block is guarded by comparing a prefix-sum result to a
  constant (the claim idiom: at most one thread per claimed cell);
- both sides run only under ``$ == K`` for the *same* K (one thread);
- both addresses have known affine forms over ``$`` and the forms are
  provably disjoint across distinct threads (``A[2*$]`` vs
  ``A[2*$+1]``), **or** -- when a form is unknown -- both addresses are
  pure ``$``-arithmetic by the flag heuristic.  Where both forms *are*
  known, overlapping windows like ``A[$]`` vs ``A[$+1]`` are now
  correctly reported instead of being the documented false negative of
  the flag rule.

Calls inside spawn bodies are analyzed interprocedurally when the
callee qualifies for a param-affine summary (leaf function, every
access pinned to an origin and an affine address over its parameters):
the callee's accesses are substituted with the caller's argument forms,
so ``put($, v)`` with ``put`` writing ``B[i]`` is recognized as the
thread-private ``B[$]`` idiom.  Non-qualifying callees keep the
worst-case per-origin call-effect treatment.

What survives is reported: **error** when both addresses are uniform
across threads (the location is *definitely* shared and the threads
*definitely* differ), **warning** when overlap merely may happen
(loaded/pointer-derived addresses, call-mediated effects).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.xmtc import ir as IR
from repro.xmtc.analysis.classify import (
    DOLLAR,
    UNIFORM,
    VAR_DOLLAR,
    Affine,
    BodyInfo,
    affine_disjoint,
    classify_body,
)
from repro.xmtc.analysis.diagnostics import Diagnostic
from repro.xmtc.analysis.summaries import UnitSummaries


class _Access:
    __slots__ = ("kind", "origin", "flags", "guards", "coordinated",
                 "via_call", "line", "pos", "affine")

    def __init__(self, kind: str, origin: Optional[str], flags: int,
                 guards, coordinated: bool, via_call: bool, line: int,
                 pos: int, affine: Optional[Affine] = None):
        self.kind = kind            # "read" | "write"
        self.origin = origin
        self.flags = flags
        self.guards = guards
        self.coordinated = coordinated
        self.via_call = via_call
        self.line = line
        self.pos = pos
        self.affine = affine        # address form over $ when known


def _pretty(origin: Optional[str]) -> str:
    if origin is None:
        return "memory through an unknown pointer"
    kind, _, name = origin.partition(":")
    what = "global" if kind == "g" else "local"
    return f"{what} '{name}'"


def _substitute(form: Affine, arg_forms: Sequence[Optional[Affine]]
                ) -> Optional[Affine]:
    """Replace the param variables of a callee access form with the
    caller-side affine forms of the call arguments."""
    out = Affine({}, dict(form.bases), form.offset)
    for var, c in form.terms.items():
        if var[0] != "p":
            return None
        index = var[1]
        if index >= len(arg_forms) or arg_forms[index] is None:
            return None
        out = out.add(arg_forms[index].scale(c))
    return out


def _compose_call(info: BodyInfo, ins: IR.Call, callee, guards, pos: int
                  ) -> Optional[List[_Access]]:
    """Interprocedural accesses for a qualifying leaf callee, or None
    when any substitution fails (fall back to worst case)."""
    if callee.param_affine is None:
        return None
    arg_forms = [info.affine_of(arg) for arg in ins.args]
    composed: List[_Access] = []
    for acc in callee.param_affine:
        form = _substitute(acc.affine, arg_forms)
        if form is None:
            return None
        composed.append(_Access(
            acc.kind, acc.origin, 0, guards,
            coordinated=acc.coordinated, via_call=True,
            line=ins.line, pos=pos, affine=form))
    return composed


def _collect_accesses(info: BodyInfo,
                      summaries: UnitSummaries) -> List[_Access]:
    accesses: List[_Access] = []
    body = info.spawn.body
    for pos, ins in enumerate(body):
        guards = info.guards_at(pos)
        if isinstance(ins, IR.Load):
            accesses.append(_Access(
                "read", ins.origin, info.operand_flags(ins.addr), guards,
                coordinated=info.is_ps_derived(ins.addr),
                via_call=False, line=ins.line, pos=pos,
                affine=info.affine_of(ins.addr)))
        elif isinstance(ins, IR.Store):
            accesses.append(_Access(
                "write", ins.origin, info.operand_flags(ins.addr), guards,
                coordinated=info.is_ps_derived(ins.addr),
                via_call=False, line=ins.line, pos=pos,
                affine=info.affine_of(ins.addr)))
        elif isinstance(ins, IR.PsmIR):
            accesses.append(_Access(
                "write", getattr(ins, "origin", None),
                info.operand_flags(ins.addr), guards,
                coordinated=True, via_call=False, line=ins.line, pos=pos,
                affine=info.affine_of(ins.addr)))
        elif isinstance(ins, IR.Call):
            callee = summaries.summary_of(ins.name)
            if callee is None:
                accesses.append(_Access("write", None, 0, guards,
                                        coordinated=False, via_call=True,
                                        line=ins.line, pos=pos))
                continue
            composed = _compose_call(info, ins, callee, guards, pos)
            if composed is not None:
                accesses.extend(composed)
                continue
            reads = callee.reads_serial | callee.reads_parallel
            writes = callee.writes_serial | callee.writes_parallel
            for origin in sorted(writes):
                accesses.append(_Access("write", origin, 0, guards,
                                        coordinated=False, via_call=True,
                                        line=ins.line, pos=pos))
            for origin in sorted(reads - writes):
                accesses.append(_Access("read", origin, 0, guards,
                                        coordinated=False, via_call=True,
                                        line=ins.line, pos=pos))
            if (callee.unknown_write_serial is not None
                    or callee.unknown_write_parallel is not None):
                accesses.append(_Access("write", None, 0, guards,
                                        coordinated=False, via_call=True,
                                        line=ins.line, pos=pos))
    return accesses


def _may_alias(a: _Access, b: _Access) -> bool:
    if a.origin is None or b.origin is None:
        return True
    return a.origin == b.origin


def _deq_key(access: _Access) -> Optional[int]:
    for atom in access.guards:
        if atom[0] == "deq":
            return atom[1]
    return None


def _coordinated(access: _Access) -> bool:
    if access.coordinated:
        return True
    return any(atom[0] == "pseq" for atom in access.guards)


def _addr_private(access: _Access) -> bool:
    if access.affine is not None:
        return access.affine.coeff(VAR_DOLLAR) != 0
    return not access.via_call and access.flags == DOLLAR


def _addr_uniform(access: _Access) -> bool:
    if access.via_call:
        return False
    if access.affine is not None:
        return access.affine.coeff(VAR_DOLLAR) == 0
    return access.flags == UNIFORM


def _pair_disjoint(a: _Access, b: _Access) -> bool:
    """Thread-disjointness of a pair of accesses.

    When both address forms are known the affine argument decides --
    soundly in both directions (``A[$]`` vs ``A[$+1]`` overlaps, the
    stride pair ``A[2*$]``/``A[2*$+1]`` does not).  When a form is
    missing, fall back to the original "both pure ``$``-arithmetic"
    heuristic."""
    if a.affine is not None and b.affine is not None:
        return affine_disjoint(a.affine, b.affine)
    return _addr_private(a) and _addr_private(b)


def check_races(unit: IR.IRUnit, summaries: UnitSummaries,
                source_file: str = "<source>") -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    seen: Set[Tuple] = set()
    for func in unit.functions:
        for ins in IR.walk_instrs(func.body, include_spawn_bodies=False):
            if isinstance(ins, IR.SpawnIR):
                diags.extend(_check_region(ins, func.name, summaries,
                                           source_file, seen))
    return diags


def _check_region(spawn: IR.SpawnIR, func_name: str,
                  summaries: UnitSummaries, source_file: str,
                  seen: Set[Tuple]) -> List[Diagnostic]:
    info = classify_body(spawn)
    accesses = _collect_accesses(info, summaries)
    diags: List[Diagnostic] = []
    n = len(accesses)
    for i in range(n):
        a = accesses[i]
        for j in range(i, n):
            b = accesses[j]
            d = _check_pair(a, b, func_name, source_file)
            if d is None:
                continue
            key = (d.check, d.severity, d.message)
            if key in seen:
                continue
            seen.add(key)
            diags.append(d)
    return diags


def _check_pair(a: _Access, b: _Access, func_name: str,
                source_file: str) -> Optional[Diagnostic]:
    if a.kind != "write" and b.kind != "write":
        return None
    if a is b and a.kind != "write":
        return None
    if not _may_alias(a, b):
        return None
    if _coordinated(a) or _coordinated(b):
        return None
    ka, kb = _deq_key(a), _deq_key(b)
    if a is b:
        # one store, executed by every virtual thread of the region
        if ka is not None:
            return None          # only thread K runs it
        if _addr_private(a):
            return None
        if _addr_uniform(a):
            return Diagnostic(
                check="race.write-write", severity="error",
                message=(f"{_pretty(a.origin)} is written by every "
                         f"virtual thread of the spawn region"),
                line=a.line, function=func_name, source_file=source_file,
                hint="coordinate the update with ps/psm, index the "
                     "target by $, or guard it with an if ($ == k)")
        if a.via_call:
            return Diagnostic(
                check="race.call-effect", severity="warning",
                message=(f"{_pretty(a.origin)} may be written by every "
                         f"virtual thread through the parallel call at "
                         f"line {a.line}"),
                line=a.line, function=func_name, source_file=source_file,
                hint="split the data so each thread's call touches a "
                     "disjoint slice, or coordinate with ps/psm")
        return Diagnostic(
            check="race.write-write", severity="warning",
            message=(f"store to {_pretty(a.origin)} may hit the same "
                     f"address from different virtual threads"),
            line=a.line, function=func_name, source_file=source_file,
            hint="coordinate with ps/psm or make the address a pure "
                 "function of $")
    if ka is not None and ka == kb:
        return None              # both restricted to the same thread
    if _pair_disjoint(a, b):
        return None              # per-thread slices of the same object
    if a.via_call or b.via_call:
        check = "race.call-effect"
        severity = "warning"
        message = (f"{_pretty(a.origin if a.origin is not None else b.origin)}"
                   f" may be {a.kind} and {b.kind} by different virtual "
                   f"threads through a parallel call "
                   f"(lines {a.line} and {b.line})")
        hint = ("split the data so each thread's call touches a disjoint "
                "slice, or coordinate with ps/psm")
    else:
        both_write = a.kind == "write" and b.kind == "write"
        check = "race.write-write" if both_write else "race.read-write"
        definite = _addr_uniform(a) and _addr_uniform(b)
        severity = "error" if definite else "warning"
        writer, other = (a, b) if a.kind == "write" else (b, a)
        verb = "written twice" if both_write else (
            f"written (line {writer.line}) and read (line {other.line})")
        shared = "is" if definite else "may be"
        message = (f"{_pretty(writer.origin)} {shared} {verb} by different "
                   f"virtual threads without ps/psm coordination")
        hint = ("use ps/psm for the shared update, fence and join before "
                "reading, or index by $ to keep it thread-private")
    return Diagnostic(check=check, severity=severity, message=message,
                      line=min(a.line, b.line) or max(a.line, b.line),
                      function=func_name, source_file=source_file, hint=hint)
