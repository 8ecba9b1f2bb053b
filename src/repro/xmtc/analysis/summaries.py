"""Per-function side-effect summaries, propagated through the call graph.

Every optimizer pass and checker that asks "may a spawn body write this
global?" used to answer it with a private whole-unit scan.  A
:class:`UnitSummaries` answers it once: for each function, the alias
classes (``g:<name>`` / ``l:<name>`` origins from lowering) it may read
and write, whether it touches memory through an unknown pointer, and
its prefix-sum traffic -- each split by *context*: effects of the
function's serial (master) code vs. effects of code lexically inside a
spawn body.  Calls are propagated to fixpoint over the call graph
(recursion converges because the effect sets only grow), and every
function transitively reachable from a parallel call site has its whole
summary folded into the parallel side, since its body then executes on
TCUs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.xmtc import ir as IR
from repro.xmtc.analysis.classify import Affine, affine_table, param_var


class ParamAccess:
    """One memory access of a *leaf* callee, with its address expressed
    as an affine form over the callee's parameters.

    Lets the race detector analyze ``f($ + k, ...)`` inside a spawn body
    with the caller's facts substituted for the parameters instead of
    bailing to the worst-case per-origin call effect."""

    __slots__ = ("kind", "origin", "affine", "line", "coordinated")

    def __init__(self, kind: str, origin: str, affine: Affine, line: int,
                 coordinated: bool = False):
        self.kind = kind            # "read" | "write"
        self.origin = origin
        self.affine = affine
        self.line = line
        self.coordinated = coordinated

    def __repr__(self):
        return f"ParamAccess({self.kind} {self.origin} @ {self.affine!r})"


class Site:
    """Where an effect happens: function name + XMTC source line."""

    __slots__ = ("function", "line")

    def __init__(self, function: str, line: int):
        self.function = function
        self.line = line

    def __repr__(self):
        return f"{self.function}:{self.line}"


class FunctionSummary:
    """Direct + propagated effects of one function, split by context."""

    def __init__(self, name: str):
        self.name = name
        # direct effects of the function's own instructions
        self.reads_serial: Set[str] = set()
        self.reads_parallel: Set[str] = set()
        self.writes_serial: Set[str] = set()
        self.writes_parallel: Set[str] = set()
        #: gregs touched by ps/set (get is a pure read and irrelevant here)
        self.ps_gregs: Set[int] = set()
        #: alias classes targeted by psm (None origin tracked separately)
        self.psm_origins: Set[str] = set()
        self.has_psm_unknown = False
        self.unknown_read_serial = False
        self.unknown_read_parallel = False
        self.unknown_write_serial: Optional[Site] = None
        self.unknown_write_parallel: Optional[Site] = None
        self.calls_serial: Set[str] = set()
        self.calls_parallel: Set[str] = set()
        self.has_spawn = False
        #: complete list of the function's accesses with param-affine
        #: addresses, or None when the function does not qualify (it
        #: calls, spawns, touches its frame, or has an access whose
        #: address/origin the affine analysis cannot pin down)
        self.param_affine: Optional[List[ParamAccess]] = None

    def effect_key(self) -> Tuple:
        return (frozenset(self.reads_serial), frozenset(self.reads_parallel),
                frozenset(self.writes_serial), frozenset(self.writes_parallel),
                frozenset(self.ps_gregs), frozenset(self.psm_origins),
                self.has_psm_unknown,
                self.unknown_read_serial, self.unknown_read_parallel,
                self.unknown_write_serial is not None,
                self.unknown_write_parallel is not None)


def _scan_function(func: IR.IRFunc) -> FunctionSummary:
    s = FunctionSummary(func.name)

    def record(ins: IR.IRInstr, parallel: bool):
        if isinstance(ins, IR.Load):
            if ins.origin is None:
                if parallel:
                    s.unknown_read_parallel = True
                else:
                    s.unknown_read_serial = True
            elif parallel:
                s.reads_parallel.add(ins.origin)
            else:
                s.reads_serial.add(ins.origin)
        elif isinstance(ins, IR.Store):
            if ins.origin is None:
                site = Site(func.name, ins.line)
                if parallel and s.unknown_write_parallel is None:
                    s.unknown_write_parallel = site
                elif not parallel and s.unknown_write_serial is None:
                    s.unknown_write_serial = site
            elif parallel:
                s.writes_parallel.add(ins.origin)
            else:
                s.writes_serial.add(ins.origin)
        elif isinstance(ins, IR.PsIR):
            if ins.mode in ("ps", "set"):
                s.ps_gregs.add(ins.greg)
        elif isinstance(ins, IR.PsmIR):
            origin = getattr(ins, "origin", None)
            if origin is None:
                s.has_psm_unknown = True
            else:
                s.psm_origins.add(origin)
        elif isinstance(ins, IR.Call):
            if parallel:
                s.calls_parallel.add(ins.name)
            else:
                s.calls_serial.add(ins.name)

    def scan(instrs: List[IR.IRInstr], parallel: bool):
        for ins in instrs:
            if isinstance(ins, IR.SpawnIR):
                s.has_spawn = True
                scan(ins.body, True)
            else:
                record(ins, parallel)

    scan(func.body, parallel=False)
    if not s.has_spawn and not s.calls_serial and not s.calls_parallel:
        s.param_affine = _param_affine_accesses(func)
    return s


def _param_affine_accesses(func: IR.IRFunc) -> Optional[List[ParamAccess]]:
    """Every access of a call- and spawn-free function as a
    :class:`ParamAccess`, or None if any access disqualifies it.

    Frame-based addresses disqualify: whether a callee's frame slots are
    per-thread in a parallel call is a property of the execution model
    we do not want the race verdict to depend on, so such functions keep
    the conservative per-origin call-effect treatment."""
    forms = affine_table(
        func.body,
        {p.id: Affine.var(param_var(i)) for i, p in enumerate(func.params)})
    accesses: List[ParamAccess] = []

    def form_of(addr: IR.Operand) -> Optional[Affine]:
        if isinstance(addr, IR.Const):
            return Affine.const(addr.value)
        if isinstance(addr, IR.Temp):
            if addr.id in forms:        # includes reassigned params (None)
                return forms[addr.id]
            for i, p in enumerate(func.params):
                if addr.id == p.id:
                    return Affine.var(param_var(i))
        return None

    for ins in IR.walk_instrs(func.body):
        if isinstance(ins, (IR.Load, IR.Store, IR.PsmIR)):
            origin = getattr(ins, "origin", None)
            form = form_of(ins.addr)
            if origin is None or form is None:
                return None
            if any(key[0] == "sp" for key in form.bases):
                return None
            if isinstance(ins, IR.PsmIR):
                kind, coordinated = "write", True
            elif isinstance(ins, IR.Store):
                kind, coordinated = "write", False
            else:
                kind, coordinated = "read", False
            accesses.append(ParamAccess(kind, origin, form, ins.line,
                                        coordinated))
    return accesses


class UnitSummaries:
    """Fixpoint summaries for a whole translation unit.

    After construction each :class:`FunctionSummary` includes the
    effects of its callees (serial-context calls contribute to the
    serial side, parallel-context calls to the parallel side -- and a
    callee's *own* parallel effects always stay parallel)."""

    def __init__(self, unit: IR.IRUnit):
        self.unit = unit
        self.functions: Dict[str, FunctionSummary] = {
            f.name: _scan_function(f) for f in unit.functions
        }
        self._propagate()
        #: functions whose bodies may execute on a TCU (transitively
        #: callable from inside some spawn body)
        self.parallel_functions: Set[str] = self._parallel_closure()
        self._serial_exec: Optional[Set[str]] = None

    # -- call-graph fixpoint ------------------------------------------------

    def _propagate(self):
        changed = True
        while changed:
            changed = False
            for s in self.functions.values():
                before = s.effect_key()
                for callee_name in s.calls_serial:
                    callee = self.functions.get(callee_name)
                    if callee is None:
                        # unknown extern: assume the worst in the caller's
                        # own context
                        if s.unknown_write_serial is None:
                            s.unknown_write_serial = Site(s.name, 0)
                        s.unknown_read_serial = True
                        continue
                    self._fold(s, callee, parallel=False)
                for callee_name in s.calls_parallel:
                    callee = self.functions.get(callee_name)
                    if callee is None:
                        if s.unknown_write_parallel is None:
                            s.unknown_write_parallel = Site(s.name, 0)
                        s.unknown_read_parallel = True
                        continue
                    self._fold(s, callee, parallel=True)
                if s.effect_key() != before:
                    changed = True

    @staticmethod
    def _fold(caller: FunctionSummary, callee: FunctionSummary,
              parallel: bool):
        """Fold a callee's effects into the caller at a call site whose
        context is ``parallel``.  The callee's parallel effects remain
        parallel regardless (a spawn inside the callee runs on TCUs no
        matter who called it)."""
        if parallel:
            caller.reads_parallel |= callee.reads_serial | callee.reads_parallel
            caller.writes_parallel |= (callee.writes_serial
                                       | callee.writes_parallel)
            if callee.unknown_read_serial or callee.unknown_read_parallel:
                caller.unknown_read_parallel = True
            unk = callee.unknown_write_serial or callee.unknown_write_parallel
            if unk is not None and caller.unknown_write_parallel is None:
                caller.unknown_write_parallel = unk
        else:
            caller.reads_serial |= callee.reads_serial
            caller.reads_parallel |= callee.reads_parallel
            caller.writes_serial |= callee.writes_serial
            caller.writes_parallel |= callee.writes_parallel
            if callee.unknown_read_serial:
                caller.unknown_read_serial = True
            if callee.unknown_read_parallel:
                caller.unknown_read_parallel = True
            if (callee.unknown_write_serial is not None
                    and caller.unknown_write_serial is None):
                caller.unknown_write_serial = callee.unknown_write_serial
            if (callee.unknown_write_parallel is not None
                    and caller.unknown_write_parallel is None):
                caller.unknown_write_parallel = callee.unknown_write_parallel
        caller.ps_gregs |= callee.ps_gregs
        caller.psm_origins |= callee.psm_origins
        caller.has_psm_unknown |= callee.has_psm_unknown

    def _parallel_closure(self) -> Set[str]:
        roots: Set[str] = set()
        for s in self.functions.values():
            roots |= s.calls_parallel
        work = [n for n in roots]
        seen = set(roots)
        while work:
            name = work.pop()
            callee = self.functions.get(name)
            if callee is None:
                continue
            for nxt in callee.calls_serial | callee.calls_parallel:
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return seen

    def serially_executed(self) -> Set[str]:
        """Functions that may execute in serial (master) context: the
        call-graph roots (``main`` and anything never called) plus the
        closure over their serial-context call edges.  A function in
        :attr:`parallel_functions` but *not* here only ever runs on
        TCUs."""
        if self._serial_exec is not None:
            return self._serial_exec
        called: Set[str] = set()
        for s in self.functions.values():
            called |= s.calls_serial | s.calls_parallel
        roots = {name for name in self.functions if name not in called}
        roots.add("main")
        seen = set(roots)
        work = list(roots)
        while work:
            name = work.pop()
            s = self.functions.get(name)
            if s is None:
                continue
            for nxt in s.calls_serial:
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        self._serial_exec = seen
        return seen

    # -- queries ------------------------------------------------------------

    def written_origins_parallel(self) -> Set[str]:
        """Alias classes that may be written (store or psm) by code
        executing on TCUs, anywhere in the unit."""
        written: Set[str] = set()
        for s in self.functions.values():
            written |= s.writes_parallel | s.psm_origins
        return written

    def unknown_parallel_store(self) -> Optional[Site]:
        """First site of a store through an unknown pointer (or psm with
        unknown target) in parallel context, or None if there is none.
        This is the only thing that now disables read-only-cache
        routing unit-wide."""
        for s in self.functions.values():
            if s.unknown_write_parallel is not None:
                return s.unknown_write_parallel
            if s.has_psm_unknown:
                return Site(s.name, 0)
        return None

    def summary_of(self, name: str) -> Optional[FunctionSummary]:
        return self.functions.get(name)


def compute_summaries(unit: IR.IRUnit) -> UnitSummaries:
    """Build fixpoint side-effect summaries for ``unit``."""
    return UnitSummaries(unit)
