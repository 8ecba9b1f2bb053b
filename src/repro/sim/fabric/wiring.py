"""The machine's wiring map: every port and link of the Fig. 1 fabric.

Built by ``Machine._wire_fabric()`` after the components exist.  The
Fabric owns the *transient* side of the wiring -- the ``on_push``
consumer wake-ups -- and the descriptive side (which port feeds which
component under which backend), so ``xmt-explain``-style tools and
diagnostics can render the topology without poking inside backends.

Checkpoints treat the whole object like other transient state: the
hooks are detached before pickling (:meth:`unhook`) and the restored
machine rebuilds the map (``Machine._wire_fabric`` on load).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim.fabric.port import Link, Port


class Fabric:
    """Wiring of one machine: named ports, links, backend identities."""

    def __init__(self, machine):
        self.machine = machine
        self.ports: List[Port] = []
        self.links: List[Link] = []
        self._collect(machine)
        self.hook()

    def _collect(self, machine) -> None:
        icn = type(machine.icn).__name__
        for cluster in machine.clusters:
            self.ports.append(cluster.send_queue)
            self.links.append(Link(f"cluster{cluster.cluster_id}", icn,
                                   cluster.send_queue))
            self.links.append(Link(icn, f"cluster{cluster.cluster_id}"))
        self.ports.append(machine.master.send_queue)
        self.links.append(Link("master", icn, machine.master.send_queue))
        self.links.append(Link(icn, "master"))
        for module in machine.cache_modules:
            self.ports.extend((module.in_queue, module.out_queue))
            self.links.append(Link(icn, f"cache{module.module_id}",
                                   module.in_queue))
            self.links.append(Link(f"cache{module.module_id}", icn,
                                   module.out_queue))
        for port in machine.dram_ports:
            self.links.append(Link("cache*", f"dram{port.port_id}"))

    # -- transient consumer wake-ups ----------------------------------------

    def hook(self) -> None:
        """(Re)attach the ``on_push`` wake-ups: a package entering a
        cache module's input port activates the module in the cache
        bank's active set, without the producer (any ICN backend)
        naming the bank; a package entering a send port or a module's
        output port tells the network that drains it."""
        for module in self.machine.cache_modules:
            module.in_queue.on_push = module.wake
        self.machine.icn.hook_ports()

    def unhook(self) -> None:
        for port in self.ports:
            port.on_push = None

    # -- description ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        cfg = self.machine.config
        return {
            "backends": {
                "icn": cfg.icn_backend,
                "dram": cfg.dram_backend,
                "cache_layout": cfg.cache_layout,
            },
            "ports": [p.describe() for p in self.ports],
            "links": [l.describe() for l in self.links],
        }
