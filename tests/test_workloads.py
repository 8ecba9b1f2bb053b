"""Workload-library tests: every kernel validated against its host-side
reference implementation, in cycle-accurate mode."""

import hashlib
import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from conftest import run_xmtc_cycle
from repro.isa.semantics import bits_to_f32
from repro.sim.config import tiny
from repro.workloads import graphs as G
from repro.workloads import microbench as MB
from repro.workloads import programs as W


def run(builder, *args, config=None, max_cycles=8_000_000, **kw):
    src, inputs, expected = builder(*args, **kw)
    _, res = run_xmtc_cycle(src, inputs=inputs, config=config,
                            max_cycles=max_cycles)
    return res, expected


class TestCompaction:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_count_and_elements(self, parallel):
        res, expected = run(W.array_compaction, 40, parallel=parallel)
        assert res.read_global("count") == expected
        got = [x for x in res.read_global("B") if x != 0]
        assert len(got) == expected


class TestReduction:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_total(self, parallel):
        res, expected = run(W.reduction, 50, parallel=parallel)
        assert res.read_global("total") == expected


class TestPrefixSum:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33])
    def test_scan_sizes(self, n):
        res, expected = run(W.prefix_sum, n)
        assert res.read_global("X", count=n) == expected

    def test_serial_variant(self):
        res, expected = run(W.prefix_sum, 16, parallel=False)
        assert res.read_global("X", count=16) == expected


class TestBFS:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_levels_match_networkx(self, parallel):
        res, expected = run(W.bfs, 40, 3.0, parallel=parallel)
        assert res.read_global("level") == expected

    def test_disconnected_vertices_stay_unreached(self):
        # seed chosen arbitrarily; isolated vertices keep level -1
        res, expected = run(W.bfs, 30, 1.0, 99)
        got = res.read_global("level")
        assert got == expected
        if -1 in expected:
            assert -1 in got


class TestConnectivity:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_components_match_networkx(self, parallel):
        res, expected = run(W.connectivity, 28, 2.0, parallel=parallel)
        assert res.read_global("comp") == expected


class TestMatmul:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_product(self, parallel):
        res, expected = run(W.matmul, 5, parallel=parallel)
        assert res.read_global("C") == expected


class TestFFT:
    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("parallel", [True, False])
    def test_fft_matches_reference(self, n, parallel):
        res, expected = run(W.fft, n, parallel=parallel)
        re = [bits_to_f32(b) for b in res.read_global("re", signed=False)]
        im = [bits_to_f32(b) for b in res.read_global("im", signed=False)]
        for r, i, want in zip(re, im, expected):
            assert abs(complex(r, i) - want) < 1e-3 * max(1.0, abs(want))


class TestSpMV:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_product(self, parallel):
        src, inputs, expected = W.spmv(48, 4.0, parallel=parallel)
        _, res = run_xmtc_cycle(src, inputs=inputs, max_cycles=20_000_000)
        assert res.read_global("y") == expected

    def test_empty_rows_fine(self):
        src, inputs, expected = W.spmv(20, 0.5)
        _, res = run_xmtc_cycle(src, inputs=inputs, max_cycles=20_000_000)
        assert res.read_global("y") == expected


class TestListRanking:
    @pytest.mark.parametrize("n", [1, 2, 33, 64])
    @pytest.mark.parametrize("parallel", [True, False])
    def test_ranks_correct(self, n, parallel):
        src, inputs, expected = W.list_ranking(n, parallel=parallel)
        _, res = run_xmtc_cycle(src, inputs=inputs, max_cycles=20_000_000)
        assert res.read_global("R0")[:n] == expected

    def test_pointer_jumping_wins_at_scale(self):
        """Wyllie does n log n work, so it needs width to win -- and on
        the 64-TCU machine at n=512 it does (the paper's PRAM-theory
        'sometimes the only ones to do so' narrative)."""
        from repro.sim.config import fpga64

        n = 512
        src_p, inputs, _ = W.list_ranking(n, parallel=True)
        src_s, _, _ = W.list_ranking(n, parallel=False)
        _, par = run_xmtc_cycle(src_p, inputs=dict(inputs),
                                config=fpga64(), max_cycles=50_000_000)
        _, ser = run_xmtc_cycle(src_s, inputs=dict(inputs),
                                config=fpga64(), max_cycles=50_000_000)
        assert par.cycles < ser.cycles


class TestMaxFlow:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", [41, 7])
    def test_matches_networkx(self, parallel, seed):
        src, inputs, expected = W.max_flow(24, 3.0, seed=seed,
                                           parallel=parallel)
        _, res = run_xmtc_cycle(src, inputs=inputs, max_cycles=60_000_000)
        assert res.output.strip() == f"maxflow={expected}"
        assert res.read_global("flow") == expected

    def test_disconnected_terminal_zero_flow(self):
        # a graph where t ends up unreachable would still terminate;
        # approximate by a sparse graph and just require agreement
        src, inputs, expected = W.max_flow(16, 0.5, seed=3)
        _, res = run_xmtc_cycle(src, inputs=inputs, max_cycles=60_000_000)
        assert res.read_global("flow") == expected

    def test_parallel_wins_at_scale(self):
        """Ref [28]'s direction: the parallel-BFS inner loop pays off."""
        from repro.sim.config import fpga64

        src_p, inputs, _ = W.max_flow(96, 4.0, seed=5, parallel=True)
        src_s, _, _ = W.max_flow(96, 4.0, seed=5, parallel=False)
        _, par = run_xmtc_cycle(src_p, inputs=dict(inputs), config=fpga64(),
                                max_cycles=120_000_000)
        _, ser = run_xmtc_cycle(src_s, inputs=dict(inputs), config=fpga64(),
                                max_cycles=120_000_000)
        assert par.cycles < ser.cycles


class TestMergeSort:
    @pytest.mark.parametrize("n,p", [(64, 4), (128, 16), (128, 1)])
    def test_sorts_correctly(self, n, p):
        from conftest import opts

        src, inputs, expected = W.merge_sort(n, p)
        _, res = run_xmtc_cycle(src, inputs=inputs,
                                options=opts(parallel_calls=True),
                                max_cycles=30_000_000)
        where = "A" if res.read_global("sorted_in_a") else "B"
        assert res.read_global(where) == expected


def nx_graph(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from(zip(*G.to_edge_list(adj)))
    return g


def nx_random_graph(n, avg_degree, seed):
    """The generator as networkx builds it: the same draws, so the same
    graph, with networkx keeping the adjacency."""
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for _ in range(int(n * avg_degree / 2)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    for i in range(0, n - 1, max(1, n // 8)):
        g.add_edge(i, i + 1)
    return g


#: (n, avg_degree, seed): tiny, sparse (many components), dense
SPREAD = [(1, 0.0, 1), (2, 0.0, 1), (5, 0.5, 2), (16, 0.5, 3),
          (30, 1.0, 99), (40, 3.0, 8), (64, 2.0, 5), (12, 20, 11),
          (128, 1.0, 7), (200, 4.0, 41)]


class TestGraphHelpers:
    def test_csr_roundtrip(self):
        g = G.random_graph(20, 3.0, seed=5)
        row_ptr, col = G.to_csr(g)
        assert len(row_ptr) == 21
        assert row_ptr[-1] == len(col) == sum(map(len, g))
        for u in range(20):
            assert col[row_ptr[u]:row_ptr[u + 1]] == sorted(g[u])

    def test_deterministic_generation(self):
        a = G.random_graph(25, 2.5, seed=3)
        b = G.random_graph(25, 2.5, seed=3)
        assert a == b
        assert G.to_edge_list(a) == G.to_edge_list(b)

    @pytest.mark.parametrize("n,degree,seed", SPREAD)
    def test_generator_matches_networkx(self, n, degree, seed):
        adj = G.random_graph(n, degree, seed)
        want = nx_random_graph(n, degree, seed)
        assert list(zip(*G.to_edge_list(adj))) == sorted(want.edges())
        for u in range(n):
            assert adj[u] == set(want.neighbors(u))

    def test_reference_bfs_agrees_with_networkx(self):
        for n, degree, seed in SPREAD:
            adj = G.random_graph(n, degree, seed)
            for src in {0, n // 2, n - 1}:
                lengths = nx.single_source_shortest_path_length(
                    nx_graph(adj), src)
                assert G.reference_bfs_levels(adj, src) == [
                    lengths.get(v, -1) for v in range(n)], (n, degree, seed)

    @pytest.mark.parametrize("n,degree,seed", SPREAD)
    def test_reference_components_agree_with_networkx(self, n, degree, seed):
        adj = G.random_graph(n, degree, seed)
        want = list(range(n))
        for comp in nx.connected_components(nx_graph(adj)):
            for v in comp:
                want[v] = min(comp)
        assert G.reference_components(adj) == want

    def test_spread_includes_disconnected_graphs(self):
        multi = [args for args in SPREAD
                 if len(set(G.reference_components(G.random_graph(*args))))
                 > 1]
        assert len(multi) >= 4

    @pytest.mark.parametrize("n,degree,seed", [a for a in SPREAD if a[0] > 1])
    def test_reference_max_flow_agrees_with_networkx(self, n, degree, seed):
        rng = random.Random(seed)
        arcs = []
        for u, v in zip(*G.to_edge_list(G.random_graph(n, degree, seed))):
            arcs.append((u, v, rng.randint(1, 4)))
            arcs.append((v, u, rng.randint(0, 4)))
            if rng.random() < 0.2:  # a parallel arc adds its capacity
                arcs.append((u, v, rng.randint(1, 4)))
        dg = nx.DiGraph()
        dg.add_nodes_from(range(n))
        for u, v, c in arcs:
            if dg.has_edge(u, v):
                dg[u][v]["capacity"] += c
            else:
                dg.add_edge(u, v, capacity=c)
        for s, t in {(0, n - 1), (n - 1, 0), (n // 2, 0)}:
            if s != t:
                assert G.reference_max_flow(n, arcs, s, t) == \
                    nx.maximum_flow_value(dg, s, t)

    def test_reference_max_flow_undoes_a_blocking_path(self):
        """The first shortest path 0-1-2-3 blocks both others; the
        maximum of 2 needs flow pushed back along 2->1."""
        arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1), (4, 2, 1),
                (1, 5, 1), (5, 3, 1)]
        assert G.reference_max_flow(6, arcs, 0, 3) == 2

    @pytest.mark.parametrize("n,degree,seed", [(24, 3.0, 41), (24, 3.0, 7),
                                               (16, 0.5, 3), (96, 4.0, 5),
                                               (8, 14, 41)])
    def test_max_flow_workload_expects_networkx_value(self, n, degree, seed):
        """The value the max-flow kernel is checked against is the flow
        networkx finds on the kernel's own CSR arcs."""
        _, inputs, expected = W.max_flow(n, degree, seed)
        row_ptr, head, cap = inputs["row_ptr"], inputs["head"], inputs["cap"]
        dg = nx.DiGraph()
        dg.add_nodes_from(range(n))
        for u in range(n):
            for e in range(row_ptr[u], row_ptr[u + 1]):
                dg.add_edge(u, head[e], capacity=cap[e])
        assert expected == nx.maximum_flow_value(dg, 0, n - 1)

    #: sha256 over json([inputs, expected]) of each case, as generated
    #: when networkx built the graphs: the inputs must not move
    PINNED = {
        "bfs": ([(24,), (64, 3.0), (128,), (1024,), (30, 1.0, 99),
                 (12, 20)],
                "9fdc7e609dd07bf09b122f603a245119"
                "d6a25cdb8afc607f4153b623fb068f51"),
        "connectivity": ([(16,), (64,), (512,), (28, 2.0), (12, 14)],
                         "546672108578df19c30ce783c1e5df88"
                         "83acf57c5f42075078500795823695ea"),
        "max_flow": ([(24, 3.0, 41), (24, 3.0, 7), (16, 0.5, 3),
                      (96, 4.0, 5), (8, 14), (16, 2.0)],
                     "42918b780f359f7176bb34d38f22b9ef"
                     "6117e79e07bba792256d43973f7d3e23"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_inputs_are_pinned(self, name):
        cases, digest = self.PINNED[name]
        h = hashlib.sha256()
        for args in cases:
            _, inputs, expected = getattr(W, name)(*args)
            h.update(json.dumps([inputs, expected], sort_keys=True).encode())
        assert h.hexdigest() == digest


class TestImportFootprint:
    def test_core_imports_load_neither_networkx_nor_numpy(self):
        """networkx is the tests' oracle and numpy the thermal model's;
        importing the toolchain or a workload must load neither."""
        code = ("import sys, repro, repro.workloads, repro.toolchain.driver;"
                "print(sorted({'networkx', 'numpy'} & set(sys.modules)))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "[]"


class TestMicrobenchmarks:
    def test_grid_yields_four_groups(self):
        names = [name for name, _, _ in MB.table1_grid(1)]
        assert names == ["parallel_memory", "parallel_compute",
                         "serial_memory", "serial_compute"]

    @pytest.mark.parametrize("index", range(4))
    def test_each_microbench_runs(self, index):
        name, src, inputs = list(MB.table1_grid(1))[index]
        _, res = run_xmtc_cycle(src, inputs=inputs, max_cycles=5_000_000)
        assert res.cycles > 0

    def test_memory_bench_is_memory_bound(self):
        """The defining property of the Table I groups."""
        _, mem_src, _ = list(MB.table1_grid(1))[0]
        _, cmp_src, _ = list(MB.table1_grid(1))[1]
        _, mem = run_xmtc_cycle(mem_src, max_cycles=5_000_000)
        _, cmp_ = run_xmtc_cycle(cmp_src, max_cycles=5_000_000)
        mem_ratio = mem.stats.get("icn.send") / max(1, mem.instructions)
        cmp_ratio = cmp_.stats.get("icn.send") / max(1, cmp_.instructions)
        assert mem_ratio > 3 * cmp_ratio
