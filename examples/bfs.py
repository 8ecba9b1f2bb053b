#!/usr/bin/env python
"""PRAM breadth-first search: the paper's flagship irregular workload.

Section II-C describes the joint UIUC/UMD course experiment: on BFS,
none of 42 students got OpenMP speedups on an 8-way SMP, while XMTC
programs reached 8x-25x on the 64-TCU XMT.  This example runs the flat
PRAM BFS (frontier compaction with the hardware prefix-sum, vertex
claiming with psm) against the serial baseline on two machine sizes and
prints the speedups, checking every run's levels against the host
reference BFS.

Run:  python examples/bfs.py
"""

from repro import Simulator, chip1024, compile_xmtc, fpga64
from repro.workloads import graphs as G
from repro.workloads import programs as W


def run(source, inputs, config):
    program = compile_xmtc(source)
    for name, values in inputs.items():
        program.write_global(name, values)
    result = Simulator(program, config).run(max_cycles=100_000_000)
    return program, result


def main():
    n, degree = 512, 6.0
    print(f"building a random graph: {n} vertices, average degree {degree}")
    graph = G.random_graph(n, degree, seed=11)
    expected = G.reference_bfs_levels(graph, 0)
    reached = sum(1 for x in expected if x >= 0)
    print(f"  {sum(map(len, graph)) // 2} edges, {reached} vertices reachable "
          f"from vertex 0, depth {max(expected)}")
    print()

    par_src, inputs, _ = W.bfs(n, degree, seed=11, parallel=True)
    ser_src, _, _ = W.bfs(n, degree, seed=11, parallel=False)

    print("serial BFS on the Master TCU (fpga64)...")
    _, serial = run(ser_src, inputs, fpga64())
    assert serial.read_global("level") == expected
    print(f"  {serial.cycles} cycles")

    print("parallel PRAM BFS, 64 TCUs (fpga64)...")
    _, par64 = run(par_src, inputs, fpga64())
    assert par64.read_global("level") == expected
    print(f"  {par64.cycles} cycles  ->  "
          f"speedup {serial.cycles / par64.cycles:.1f}x")

    print("parallel PRAM BFS, 1024 TCUs (chip1024)...")
    _, par1024 = run(par_src, inputs, chip1024())
    assert par1024.read_global("level") == expected
    print(f"  {par1024.cycles} cycles  ->  "
          f"speedup {serial.cycles / par1024.cycles:.1f}x")

    print()
    print("levels match the host reference BFS on all three runs.")
    print("note how the irregular, fine-grained frontier work that defeats")
    print("lock-based SMP code maps directly onto getvt/ps/psm hardware.")


if __name__ == "__main__":
    main()
