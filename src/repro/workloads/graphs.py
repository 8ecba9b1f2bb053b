"""Graph builders (CSR) and host-side reference implementations.

The BFS / connectivity / max-flow workloads mirror the paper's Section
II-B evaluation family ("parallel graph algorithms derived from PRAM
theory").  A graph is a plain adjacency list -- ``adj[u]`` is the set of
``u``'s neighbours -- generated deterministically from a seed.  The
references below are short host algorithms over that list, so simulated
results can be checked exactly; the tests check the references in turn
against an independent graph library.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

Graph = List[Set[int]]


def random_graph(n: int, avg_degree: float, seed: int = 1) -> Graph:
    """Erdos-Renyi-ish undirected graph, connected-ish, deterministic."""
    rng = random.Random(seed)
    adj: Graph = [set() for _ in range(n)]

    def add_edge(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)

    for _ in range(int(n * avg_degree / 2)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            add_edge(u, v)
    # chain a spanning path through part of the nodes so BFS has depth
    for i in range(0, n - 1, max(1, n // 8)):
        add_edge(i, i + 1)
    return adj


def to_csr(adj: Graph) -> Tuple[List[int], List[int]]:
    """Undirected CSR: every edge appears in both adjacency lists."""
    row_ptr = [0]
    col: List[int] = []
    for nbrs in adj:
        col.extend(sorted(nbrs))
        row_ptr.append(len(col))
    return row_ptr, col


def to_edge_list(adj: Graph) -> Tuple[List[int], List[int]]:
    """Each undirected edge once, as ``(min, max)``, in sorted order."""
    us, vs = [], []
    for u, nbrs in enumerate(adj):
        for v in sorted(nbrs):
            if u < v:
                us.append(u)
                vs.append(v)
    return us, vs


def reference_bfs_levels(adj: Graph, src: int = 0) -> List[int]:
    """BFS depth of every vertex from ``src``; -1 where unreachable."""
    levels = [-1] * len(adj)
    levels[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if levels[v] < 0:
                    levels[v] = levels[u] + 1
                    nxt.append(v)
        frontier = nxt
    return levels


def reference_components(adj: Graph) -> List[int]:
    """Per-vertex canonical component label (min vertex id in component).

    Vertices are visited in increasing order, so the first vertex of a
    component to be reached is its smallest: its walk labels the rest.
    """
    label = [-1] * len(adj)
    for root in range(len(adj)):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for v in adj[stack.pop()]:
                if label[v] < 0:
                    label[v] = root
                    stack.append(v)
    return label


def reference_max_flow(n: int, arcs: Sequence[Tuple[int, int, int]],
                       s: int, t: int) -> int:
    """Maximum ``s``-``t`` flow over directed ``(u, v, capacity)`` arcs.

    Edmonds-Karp: augment along a shortest residual path (found by BFS)
    until ``t`` is unreachable.
    """
    if s == t:
        raise ValueError(f"source and sink are the same vertex {s}")
    residual = [dict() for _ in range(n)]
    for u, v, c in arcs:
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    flow = 0
    while True:
        parent = {s: s}
        frontier = [s]
        while frontier and t not in parent:
            nxt = []
            for u in frontier:
                for v, c in residual[u].items():
                    if c > 0 and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if t not in parent:
            return flow
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
