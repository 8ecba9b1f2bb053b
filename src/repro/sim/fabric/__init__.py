"""Component fabric: ports and swappable backends.

The paper's Fig. 1 draws the XMT machine as solid boxes (clusters,
mesh-of-trees ICN, shared cache modules, DRAM ports) joined by explicit
links.  This package is that picture as code: every box is a
:class:`Component` behind a small ``tick/next_work/occupancy``
protocol, every arrow is a :class:`Port` (a bounded two-phase queue
with the consumer's wake-up hook), and each box's *implementation* is
a backend chosen by name from the :mod:`~repro.sim.fabric.registry` --
``XMTConfig.icn_backend`` / ``dram_backend`` / ``cache_layout`` select
among them, so topology studies sweep backends like any other config
axis (the approach of Akita and MGSim).
"""

from repro.sim.fabric.port import Component, Port
from repro.sim.fabric.registry import (
    BACKEND_KINDS,
    backend_class,
    create_backend,
    register_backend,
    registered,
    validate_backend,
)

__all__ = [
    "BACKEND_KINDS",
    "Component",
    "Port",
    "backend_class",
    "create_backend",
    "register_backend",
    "registered",
    "validate_backend",
]
