"""XMT floorplan description and ASCII visualization.

"XMTSim can be paired with the floorplan visualization package that is a
part of the XMT software release.  The visualization package allows
displaying data for each cluster or cache module on an XMT floorplan,
in colors or text.  It can be used as a part of an activity plug-in to
animate statistics obtained during a simulation run." (Section III-E)

The generated floorplan mirrors the canonical XMT die organization:
cluster tiles in a grid, a central uncore strip (Master TCU + spawn/PS
units, ICN, shared cache modules) and DRAM controllers on the die edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Block:
    """One floorplan rectangle (positions/sizes in millimeters)."""

    name: str
    kind: str          # "cluster" | "cache" | "icn" | "master" | "dram"
    index: int         # component index within its kind (-1 for singletons)
    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    def adjacent(self, other: "Block", tol: float = 1e-9) -> float:
        """Shared boundary length with another block (0 if not touching)."""
        # vertical contact
        if (abs(self.x + self.w - other.x) < tol
                or abs(other.x + other.w - self.x) < tol):
            lo = max(self.y, other.y)
            hi = min(self.y + self.h, other.y + other.h)
            return max(0.0, hi - lo)
        # horizontal contact
        if (abs(self.y + self.h - other.y) < tol
                or abs(other.y + other.h - self.y) < tol):
            lo = max(self.x, other.x)
            hi = min(self.x + self.w, other.x + other.w)
            return max(0.0, hi - lo)
        return 0.0


@dataclass
class Floorplan:
    blocks: List[Block] = field(default_factory=list)
    width: float = 0.0
    height: float = 0.0

    def by_kind(self, kind: str) -> List[Block]:
        return [b for b in self.blocks if b.kind == kind]

    def block(self, kind: str, index: int) -> Block:
        for b in self.blocks:
            if b.kind == kind and b.index == index:
                return b
        raise KeyError((kind, index))


def build_floorplan(n_clusters: int, n_cache_modules: int,
                    n_dram_ports: int, die_width: Optional[float] = None,
                    die_height: Optional[float] = None) -> Floorplan:
    """Lay out an XMT die: cluster grid on top, uncore strip below,
    DRAM controllers along the bottom edge.

    When no die size is given it is derived from the cluster count
    (~2.2 mm^2 per cluster tile plus the uncore share), so small test
    configurations get proportionally small -- and thermally responsive
    -- dies instead of two huge tiles on a 1024-TCU-sized die.
    """
    if die_width is None:
        side = max(3.0, 1.45 * math.sqrt(n_clusters) + 1.5)
        die_width = side
        die_height = side
    if die_height is None:
        die_height = die_width
    plan = Floorplan(width=die_width, height=die_height)
    uncore_h = die_height * 0.22
    dram_h = die_height * 0.08
    cluster_area_h = die_height - uncore_h - dram_h

    cols = max(1, int(math.ceil(math.sqrt(n_clusters))))
    rows = max(1, int(math.ceil(n_clusters / cols)))
    cw = die_width / cols
    ch = cluster_area_h / rows
    for i in range(n_clusters):
        r, c = divmod(i, cols)
        plan.blocks.append(Block(f"cluster{i}", "cluster", i,
                                 c * cw, dram_h + uncore_h + r * ch, cw, ch))

    # uncore strip: master | icn | cache modules
    master_w = die_width * 0.12
    icn_w = die_width * 0.28
    cache_w = die_width - master_w - icn_w
    y = dram_h
    plan.blocks.append(Block("master", "master", -1, 0.0, y, master_w, uncore_h))
    plan.blocks.append(Block("icn", "icn", -1, master_w, y, icn_w, uncore_h))
    mw = cache_w / max(1, n_cache_modules)
    for i in range(n_cache_modules):
        plan.blocks.append(Block(f"cache{i}", "cache", i,
                                 master_w + icn_w + i * mw, y, mw, uncore_h))

    dw = die_width / max(1, n_dram_ports)
    for i in range(n_dram_ports):
        plan.blocks.append(Block(f"dram{i}", "dram", i, i * dw, 0.0, dw, dram_h))
    return plan


_SHADES = " .:-=+*#%@"


def render_heatmap(plan: Floorplan, values: Dict[str, float],
                   cols: int = 64, rows: int = 24,
                   vmin: Optional[float] = None,
                   vmax: Optional[float] = None,
                   title: str = "") -> str:
    """Render per-block values as an ASCII heat map of the die.

    ``values`` maps block names to numbers (power, temperature,
    instruction counts...).  Denser glyphs mean hotter.
    """
    present = [values.get(b.name, 0.0) for b in plan.blocks]
    lo = min(present) if vmin is None else vmin
    hi = max(present) if vmax is None else vmax
    span = (hi - lo) or 1.0
    grid = [[" "] * cols for _ in range(rows)]
    for b in plan.blocks:
        value = values.get(b.name, 0.0)
        shade = _SHADES[min(len(_SHADES) - 1,
                            int((value - lo) / span * (len(_SHADES) - 1)))]
        x0 = int(b.x / plan.width * cols)
        x1 = max(x0 + 1, int((b.x + b.w) / plan.width * cols))
        y0 = int(b.y / plan.height * rows)
        y1 = max(y0 + 1, int((b.y + b.h) / plan.height * rows))
        for r in range(y0, min(rows, y1)):
            for c in range(x0, min(cols, x1)):
                grid[rows - 1 - r][c] = shade
    lines = []
    if title:
        lines.append(title)
    border = "+" + "-" * cols + "+"
    lines.append(border)
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append(border)
    lines.append(f"scale: '{_SHADES[0]}'={lo:.3g} .. '{_SHADES[-1]}'={hi:.3g}")
    return "\n".join(lines)
