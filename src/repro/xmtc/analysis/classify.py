"""Value classification and ``$``-guard facts inside spawn bodies.

The race detector needs to know, for the address of every memory access
in a spawn body, how it varies *across virtual threads*:

- **uniform** (flags ``0``): same value in every thread -- constants,
  broadcast live-ins from the master, ``&global`` / frame addresses;
- ``DOLLAR``: derived from ``$`` by pure arithmetic -- per-thread
  distinct in the common ``A[$]`` indexing idiom;
- ``PS``: derived from a ``ps``/``psm`` result -- per-thread distinct by
  the hardware's atomicity guarantee;
- ``LOADED``: involves a loaded or call-returned value -- unknown.

Flags combine by union over data dependencies and over multiple
definitions, computed as a flow-insensitive fixpoint per body (monotone:
flags only gain bits).

Guard facts are a forward must-analysis over the body's CFG answering
"which threads can be executing this block at all?":

- ``('deq', K)`` -- only the thread with ``$ == K`` (generated on the
  true edge of ``CondJump eq $, K`` and the false edge of the ``ne``
  form);
- ``('pseq',)`` -- the block is guarded by comparing a prefix-sum
  result against a constant: the claim idiom (``if (psm(...) == 0)``)
  admits at most one thread per claimed cell.

Facts meet by intersection (a fact must hold on every path) and are
never killed inside a block: they constrain *thread identity*, which no
assignment can change.

On top of the coarse flag lattice sits an **affine index analysis**
(:class:`Affine`, :func:`affine_table`): every temp that is a linear
combination of ``$`` (or, for function bodies, of the parameters),
uniform symbols (``&global``, frame addresses, broadcast live-ins) and
constants gets an exact symbolic form ``sum(c_i * var_i) + sum(m_j *
base_j) + k``.  Two array addresses with known affine forms support a
*sound* disjointness argument: for the same uniform base, thread ``i``
touches ``c*i + k1`` and thread ``j`` touches ``c*j + k2``, which
collide for distinct threads iff ``c*(i-j) == k2-k1`` has a nonzero
integer solution.  That argument replaces the old "pure-``$``
arithmetic is private" heuristic where a form is known -- it proves
``A[2*$]`` vs ``A[2*$+1]`` disjoint *and* catches the ``A[$]`` vs
``A[$+1]`` overlap the heuristic documented as a false negative.
Indices are treated as mathematical integers (no 32-bit wraparound),
the standard assumption for array-bounds reasoning.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.xmtc import ir as IR
from repro.xmtc.analysis.cfg import Block, split_blocks

UNIFORM = 0
DOLLAR = 1
PS = 2
LOADED = 4

GuardFact = Tuple
GuardSet = FrozenSet[GuardFact]

#: the spawn-body induction variable in affine terms
VAR_DOLLAR = ("$",)


def param_var(index: int) -> Tuple:
    """Affine variable standing for a function's ``index``-th parameter."""
    return ("p", index)


class Affine:
    """A linear form ``sum(c*var) + sum(m*base) + offset``.

    ``terms`` maps variable keys (``VAR_DOLLAR`` or ``param_var(i)``) to
    integer coefficients; ``bases`` maps uniform-symbol keys (``("la",
    name)``, ``("sp", off)``, ``("in", temp_id)`` for a broadcast
    live-in) to integer multipliers.  Zero coefficients are never
    stored, so structural equality is semantic equality.
    """

    __slots__ = ("terms", "bases", "offset")

    def __init__(self, terms: Dict[Tuple, int], bases: Dict[Tuple, int],
                 offset: int):
        self.terms = {k: v for k, v in terms.items() if v != 0}
        self.bases = {k: v for k, v in bases.items() if v != 0}
        self.offset = offset

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "Affine":
        return cls({}, {}, value)

    @classmethod
    def var(cls, key: Tuple) -> "Affine":
        return cls({key: 1}, {}, 0)

    @classmethod
    def base(cls, key: Tuple) -> "Affine":
        return cls({}, {key: 1}, 0)

    # -- arithmetic (None = not affine) -------------------------------------

    def add(self, other: "Affine") -> "Affine":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        bases = dict(self.bases)
        for k, v in other.bases.items():
            bases[k] = bases.get(k, 0) + v
        return Affine(terms, bases, self.offset + other.offset)

    def sub(self, other: "Affine") -> "Affine":
        return self.add(other.scale(-1))

    def scale(self, factor: int) -> "Affine":
        return Affine({k: v * factor for k, v in self.terms.items()},
                      {k: v * factor for k, v in self.bases.items()},
                      self.offset * factor)

    @property
    def is_const(self) -> bool:
        return not self.terms and not self.bases

    def coeff(self, key: Tuple) -> int:
        return self.terms.get(key, 0)

    def _key(self) -> Tuple:
        return (tuple(sorted(self.terms.items())),
                tuple(sorted(self.bases.items())), self.offset)

    def __eq__(self, other):
        return isinstance(other, Affine) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = [f"{c}*{v}" for v, c in sorted(self.terms.items())]
        parts += [f"{m}*{b}" for b, m in sorted(self.bases.items())]
        parts.append(str(self.offset))
        return "aff(" + " + ".join(parts) + ")"


#: lattice top for the affine fixpoint ("not a linear form")
_TOP = object()


def affine_table(body: List[IR.IRInstr], seeds: Dict[int, Affine],
                 is_uniform_live_in: Optional[Callable[[int], bool]] = None
                 ) -> Dict[int, Optional[Affine]]:
    """Affine forms for every temp defined in ``body``.

    ``seeds`` pins temps to known forms (the spawn ``$`` temp, or a
    function's parameters).  ``is_uniform_live_in`` decides whether an
    *undefined* temp (a broadcast live-in) may serve as a uniform base;
    when absent, undefined non-seed temps poison the form.  Returns
    ``temp id -> Affine`` with ``None`` for temps that are not provably
    linear (multiple disagreeing definitions, loads, calls, non-linear
    arithmetic).
    """
    defined: Set[int] = set()
    for ins in IR.walk_instrs(body):
        for d in ins.defs():
            defined.add(d.id)
    # a seed temp reassigned inside the body loses its pinned form
    tainted = {tid for tid in seeds if tid in defined}

    # bottom = absent, value = Affine, top = _TOP
    table: Dict[int, object] = {tid: _TOP for tid in tainted}

    def operand(op) -> object:
        if isinstance(op, IR.Const):
            # interpret the raw 32-bit pattern as a signed offset so
            # ``$ - 1`` and ``$ + (-1)`` agree
            value = op.value
            if value >= 0x80000000:
                value -= 0x100000000
            return Affine.const(value)
        if isinstance(op, IR.Temp):
            if op.id in seeds and op.id not in tainted:
                return seeds[op.id]
            if op.id in defined:
                return table.get(op.id)       # None = bottom (not yet known)
            if is_uniform_live_in is not None and is_uniform_live_in(op.id):
                return Affine.base(("in", op.id))
            return _TOP
        return _TOP

    def compute(ins: IR.IRInstr) -> object:
        if isinstance(ins, IR.Mov):
            return operand(ins.src)
        if isinstance(ins, IR.La):
            return Affine.base(("la", ins.symbol))
        if isinstance(ins, IR.FrameAddr):
            return Affine.base(("sp", ins.offset))
        if isinstance(ins, IR.Un):
            a = operand(ins.a)
            if a is None or a is _TOP:
                return a
            if ins.op == "neg":
                return a.scale(-1)
            return _TOP
        if isinstance(ins, IR.Bin):
            a, b = operand(ins.a), operand(ins.b)
            if a is None or b is None:
                return None
            if a is _TOP or b is _TOP:
                return _TOP
            if ins.op == "add":
                return a.add(b)
            if ins.op == "sub":
                return a.sub(b)
            if ins.op == "mul":
                if b.is_const:
                    return a.scale(b.offset)
                if a.is_const:
                    return b.scale(a.offset)
                return _TOP
            if ins.op == "sll":
                if b.is_const and 0 <= b.offset < 32:
                    return a.scale(1 << b.offset)
                return _TOP
            return _TOP
        return _TOP   # Load, Call, PsIR, PsmIR, ... destroy linearity

    changed = True
    while changed:
        changed = False
        for ins in IR.walk_instrs(body):
            for d in ins.defs():
                if d.id in seeds and d.id not in tainted:
                    continue
                new = compute(ins)
                if new is None:
                    continue              # operands still bottom
                cur = table.get(d.id)
                if cur is None:
                    table[d.id] = new
                    changed = True
                elif cur is not _TOP and (new is _TOP or new != cur):
                    table[d.id] = _TOP
                    changed = True
    return {tid: (form if form is not _TOP else None)
            for tid, form in table.items()}


def affine_disjoint(a: Affine, b: Affine, var: Tuple = VAR_DOLLAR) -> bool:
    """May two *different* values of ``var`` produce the same address?

    Returns True when provably not: the forms share the same uniform
    part, depend on ``var`` with the same nonzero coefficient ``c``, and
    ``c*(i-j) == delta`` has no nonzero integer solution (``delta == 0``
    or ``delta % c != 0``).  Anything else -- differing bases, differing
    coefficients, unknown components -- is "may collide".
    """
    delta = b.sub(a)
    if delta.terms or delta.bases:
        return False                     # var coefficients or bases differ
    c = a.coeff(var)
    if c == 0:
        return False                     # both uniform: same address
    d = delta.offset
    return d == 0 or d % c != 0


class BodyInfo:
    """Classification results for one spawn body."""

    def __init__(self, spawn: IR.SpawnIR):
        self.spawn = spawn
        self.flags: Dict[int, int] = {}
        self.exact_dollar: Set[int] = set()
        self.affine: Dict[int, Optional[Affine]] = {}
        self._defined: Set[int] = set()
        self.blocks: List[Block] = []
        self.block_of_pos: Dict[int, int] = {}
        self.block_guards: List[GuardSet] = []
        self._analyze()

    # -- queries ------------------------------------------------------------

    def operand_flags(self, op: Optional[IR.Operand]) -> int:
        if isinstance(op, IR.Temp):
            return self.flags.get(op.id, UNIFORM)
        return UNIFORM

    def guards_at(self, pos: int) -> GuardSet:
        bi = self.block_of_pos.get(pos)
        if bi is None:
            return frozenset()
        return self.block_guards[bi]

    def affine_of(self, op: Optional[IR.Operand]) -> Optional[Affine]:
        """Affine form of an operand, or None when not provably linear."""
        if isinstance(op, IR.Const):
            value = op.value
            if value >= 0x80000000:
                value -= 0x100000000
            return Affine.const(value)
        if isinstance(op, IR.Temp):
            if op.id == self.spawn.dollar.id:
                return Affine.var(VAR_DOLLAR)
            if op.id in self._defined:
                return self.affine.get(op.id)
            return Affine.base(("in", op.id))   # broadcast live-in
        return None

    def is_private_addr(self, addr: IR.Temp) -> bool:
        """Per-thread distinct address.  Proved by the affine form when
        one is known (nonzero ``$`` coefficient); otherwise falls back
        to the flag heuristic "pure ``$``-arithmetic is private" (whose
        ``A[$]`` vs ``A[$+1]`` overlap blindness the affine pair check
        in the race detector now covers)."""
        form = self.affine_of(addr)
        if form is not None:
            return form.coeff(VAR_DOLLAR) != 0
        return self.operand_flags(addr) == DOLLAR

    def is_ps_derived(self, addr: IR.Temp) -> bool:
        f = self.operand_flags(addr)
        return bool(f & PS) and not (f & LOADED)

    # -- analysis -----------------------------------------------------------

    def _analyze(self):
        body = self.spawn.body
        self.blocks, _label_block = split_blocks(body)
        for b in self.blocks:
            for pos in range(b.start, b.end):
                self.block_of_pos[pos] = b.index
        for ins in IR.walk_instrs(body):
            for d in ins.defs():
                self._defined.add(d.id)
        self._value_flags(body)
        self._dollar_copies(body)
        self.affine = affine_table(
            body, {self.spawn.dollar.id: Affine.var(VAR_DOLLAR)},
            # any temp live into the body is a broadcast master value
            is_uniform_live_in=lambda tid: True)
        self._guard_facts(body)

    def _value_flags(self, body: List[IR.IRInstr]):
        flags = self.flags
        flags[self.spawn.dollar.id] = DOLLAR

        def fl(op) -> int:
            if isinstance(op, IR.Temp):
                return flags.get(op.id, UNIFORM)
            return UNIFORM

        def bump(t: IR.Temp, bits: int) -> bool:
            old = flags.get(t.id, UNIFORM)
            new = old | bits
            if new != old:
                flags[t.id] = new
                return True
            return False

        changed = True
        while changed:
            changed = False
            for ins in IR.walk_instrs(body):
                if isinstance(ins, IR.Bin):
                    changed |= bump(ins.dst, fl(ins.a) | fl(ins.b))
                elif isinstance(ins, IR.Un):
                    changed |= bump(ins.dst, fl(ins.a))
                elif isinstance(ins, IR.Mov):
                    changed |= bump(ins.dst, fl(ins.src))
                elif isinstance(ins, (IR.La, IR.FrameAddr)):
                    changed |= bump(ins.dst, UNIFORM)
                elif isinstance(ins, IR.Load):
                    changed |= bump(ins.dst, LOADED)
                elif isinstance(ins, IR.Call):
                    if ins.dst is not None:
                        changed |= bump(ins.dst, LOADED)
                elif isinstance(ins, IR.PsIR):
                    if ins.mode in ("ps", "get"):
                        changed |= bump(ins.temp, PS)
                elif isinstance(ins, IR.PsmIR):
                    changed |= bump(ins.temp, PS)
        # the dollar temp stays pure $ no matter what the fixpoint added
        flags[self.spawn.dollar.id] = DOLLAR

    def _dollar_copies(self, body: List[IR.IRInstr]):
        """Temps that are plain copies of ``$`` (every definition is a
        ``Mov`` from another exact copy)."""
        defs: Dict[int, List[IR.IRInstr]] = {}
        for ins in IR.walk_instrs(body):
            for d in ins.defs():
                defs.setdefault(d.id, []).append(ins)
        exact = {self.spawn.dollar.id}
        changed = True
        while changed:
            changed = False
            for tid, dlist in defs.items():
                if tid in exact:
                    continue
                if dlist and all(isinstance(d, IR.Mov)
                                 and isinstance(d.src, IR.Temp)
                                 and d.src.id in exact for d in dlist):
                    exact.add(tid)
                    changed = True
        self.exact_dollar = exact

    def _edge_atoms(self, block: Block, body: List[IR.IRInstr]
                    ) -> Dict[int, GuardSet]:
        """Guard atoms generated on each outgoing edge of ``block``
        (successor block index -> atoms)."""
        out: Dict[int, GuardSet] = {s: frozenset() for s in block.succs}
        if block.start == block.end:
            return out
        last = body[block.end - 1]
        if not isinstance(last, IR.CondJump) or len(block.succs) < 1:
            return out
        atoms = self._eq_atoms(last.a, last.b) | self._eq_atoms(last.b, last.a)
        if not atoms:
            return out
        target = block.succs[0]
        fallthrough = block.succs[1] if len(block.succs) > 1 else None
        if last.cond == "eq":
            # equality holds on the taken edge
            if fallthrough != target:
                out[target] = atoms
        elif last.cond == "ne":
            # equality holds on the fall-through edge
            if fallthrough is not None and fallthrough != target:
                out[fallthrough] = atoms
        return out

    def _eq_atoms(self, a: IR.Operand, b: IR.Operand) -> Set[GuardFact]:
        atoms: Set[GuardFact] = set()
        if isinstance(a, IR.Temp) and isinstance(b, IR.Const):
            if a.id in self.exact_dollar:
                atoms.add(("deq", b.value))
            elif self.is_ps_derived(a):
                atoms.add(("pseq",))
            else:
                # affine guard: ``c*$ + k == K`` pins at most one thread
                form = self.affine_of(a)
                if (form is not None and not form.bases
                        and form.coeff(VAR_DOLLAR) != 0):
                    c = form.coeff(VAR_DOLLAR)
                    k = b.value
                    if k >= 0x80000000:
                        k -= 0x100000000
                    d = k - form.offset
                    if d % c == 0:
                        atoms.add(("deq", d // c))
                    else:
                        # no thread satisfies the guard; keep a distinct
                        # single-thread fact so the guarded code is
                        # still treated as at-most-one-thread
                        atoms.add(("deq", ("frac", d, c)))
        return atoms

    def _guard_facts(self, body: List[IR.IRInstr]):
        n = len(self.blocks)
        self.block_guards = [frozenset()] * n
        if n == 0:
            return
        edge_atoms = [self._edge_atoms(b, body) for b in self.blocks]
        # optimistic top = None; entry starts with no facts
        facts: List[Optional[GuardSet]] = [None] * n
        facts[0] = frozenset()
        work = [0]
        while work:
            bi = work.pop(0)
            here = facts[bi]
            for succ in self.blocks[bi].succs:
                flowing = frozenset(here | edge_atoms[bi].get(succ,
                                                              frozenset()))
                cur = facts[succ]
                new = flowing if cur is None else (cur & flowing)
                if new != cur:
                    facts[succ] = new
                    if succ not in work:
                        work.append(succ)
        self.block_guards = [f if f is not None else frozenset()
                             for f in facts]


def classify_body(spawn: IR.SpawnIR) -> BodyInfo:
    """Analyze one spawn body; results are positional over its
    ``spawn.body`` list."""
    return BodyInfo(spawn)
