"""Instruction/data packages.

"Simulated assembly instruction instances are wrapped in objects of type
Package.  An instruction package originates at a TCU, travels through a
specific set of cycle-accurate components according to its type ... and
expires upon returning to the commit stage of the originating TCU"
(Section III-A).  Components impose delays on packages that travel
through them; the inputs and states are processed at transaction level.
"""

from __future__ import annotations

from typing import Optional

# package kinds
LOAD = "load"
STORE = "store"            # blocking store (expects an ack)
STORE_NB = "store_nb"      # non-blocking store (ack only decrements counter)
PSM = "psm"
PREFETCH = "prefetch"
RO_FILL = "ro_fill"        # read-only cache miss fill
PS = "ps"                  # global prefix-sum request
PS_GET = "ps_get"          # global register read
PS_SET = "ps_set"          # global register write
GETVT = "getvt"            # virtual-thread id request

_SEQ = 0


class Package:
    """One memory/PS transaction traveling through the machine."""

    __slots__ = ("kind", "tcu_id", "cluster_id", "addr", "value", "rd",
                 "issue_time", "seq", "reply", "module", "performed",
                 "src_line", "rec")

    def __init__(self, kind: str, tcu_id: int, cluster_id: int,
                 addr: int = 0, value: int = 0, rd: int = -1,
                 issue_time: int = 0):
        global _SEQ
        _SEQ += 1
        self.kind = kind
        self.tcu_id = tcu_id          # global TCU id; -1 for the Master
        self.cluster_id = cluster_id  # return-routing key (master uses its own port)
        self.addr = addr
        self.value = value            # store data / ps amount
        self.rd = rd                  # destination register for replies
        self.issue_time = issue_time
        self.seq = _SEQ
        self.reply: Optional[int] = None  # value carried back to the TCU
        self.module: int = -1         # owning cache module (set by hashing)
        #: the memory effect already happened at issue (Master stores
        #: commit eagerly -- serial sections have no concurrent writers)
        self.performed = False
        #: originating XMTC source line (0 = unknown), for filter plug-ins
        self.src_line = 0
        #: flight-recorder lifecycle record: list of (stage, time_ps,
        #: queue_depth) stamps, or None when no recorder is armed
        self.rec = None

    @property
    def is_write(self) -> bool:
        return self.kind in (STORE, STORE_NB)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<pkg {self.kind} tcu={self.tcu_id} addr=0x{self.addr:x} "
                f"rd={self.rd} seq={self.seq}>")


def hash_address(addr: int, n_modules: int, line_shift: int = 5) -> int:
    """Hash an address onto a cache module.

    "The load-store (LS) unit applies hashing on each memory address to
    avoid hotspots" (Section II).  A multiplicative (Fibonacci) hash of
    the *cache-line* index spreads strided access patterns across
    modules far better than low-order-bit interleaving, while keeping
    the words of one line on one module (so the module tag arrays see
    spatial locality).  ``line_shift`` = log2(line bytes).
    """
    line = (addr >> line_shift) & 0xFFFFFFFF
    h = (line * 0x9E3779B1) & 0xFFFFFFFF
    if n_modules & (n_modules - 1) == 0:  # power of two: take top bits
        k = n_modules.bit_length() - 1
        return h >> (32 - k) if k else 0
    return h % n_modules
