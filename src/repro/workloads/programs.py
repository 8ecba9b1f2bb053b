"""PRAM-style XMTC kernels with parallel and serial variants.

Each builder returns ``(source, inputs)``: XMTC source text plus the
global-variable inputs to inject through the memory map.  Serial
variants run entirely on the Master TCU and are the baselines of the
Section II-B-style speedup benchmarks.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Dict, List, Tuple

from repro.workloads import graphs as G

Inputs = Dict[str, object]


# --------------------------------------------------------------------------- array compaction (Fig. 2a)

def array_compaction(n: int, seed: int = 7, parallel: bool = True
                     ) -> Tuple[str, Inputs, int]:
    """The paper's Fig. 2a kernel.  Returns (source, inputs, expected_count)."""
    rng = random.Random(seed)
    data = [rng.randrange(0, 4) for _ in range(n)]
    expected = sum(1 for x in data if x)
    if parallel:
        source = f"""
int A[{n}];
int B[{n}];
int count = 0;
psBaseReg int base = 0;
int main() {{
    spawn(0, {n - 1}) {{
        int inc = 1;
        if (A[$] != 0) {{
            ps(inc, base);
            B[inc] = A[$];
        }}
    }}
    count = base;
    printf("count=%d\\n", count);
    return 0;
}}
"""
    else:
        source = f"""
int A[{n}];
int B[{n}];
int count = 0;
int main() {{
    int k = 0;
    for (int i = 0; i < {n}; i++) {{
        if (A[i] != 0) {{
            B[k] = A[i];
            k++;
        }}
    }}
    count = k;
    printf("count=%d\\n", count);
    return 0;
}}
"""
    return source, {"A": data}, expected


# --------------------------------------------------------------------------- reduction

def reduction(n: int, seed: int = 3, parallel: bool = True
              ) -> Tuple[str, Inputs, int]:
    """Sum of an array via psm combining at the cache (parallel) or a
    serial loop."""
    rng = random.Random(seed)
    data = [rng.randrange(-50, 50) for _ in range(n)]
    expected = sum(data)
    if parallel:
        source = f"""
int A[{n}];
int total = 0;
int main() {{
    spawn(0, {n - 1}) {{
        int v = A[$];
        psm(v, total);
    }}
    printf("total=%d\\n", total);
    return 0;
}}
"""
    else:
        source = f"""
int A[{n}];
int total = 0;
int main() {{
    int s = 0;
    for (int i = 0; i < {n}; i++) s += A[i];
    total = s;
    printf("total=%d\\n", total);
    return 0;
}}
"""
    return source, {"A": data}, expected


# --------------------------------------------------------------------------- prefix sum (Hillis-Steele scan)

def prefix_sum(n: int, seed: int = 5, parallel: bool = True
               ) -> Tuple[str, Inputs, List[int]]:
    rng = random.Random(seed)
    data = [rng.randrange(0, 10) for _ in range(n)]
    expected = []
    acc = 0
    for x in data:
        acc += x
        expected.append(acc)
    if parallel:
        # Hillis-Steele with ping-pong buffers: one spawn per round,
        # plus a final copy-back when the result lands in Y
        source = f"""
int X[{n}];
int Y[{n}];
int main() {{
    int d = 1;
    int flip = 0;
    while (d < {n}) {{
        if (flip == 0) {{
            spawn(0, {n - 1}) {{
                if ($ >= d) Y[$] = X[$] + X[$ - d];
                else Y[$] = X[$];
            }}
        }} else {{
            spawn(0, {n - 1}) {{
                if ($ >= d) X[$] = Y[$] + Y[$ - d];
                else X[$] = Y[$];
            }}
        }}
        flip = 1 - flip;
        d = d * 2;
    }}
    if (flip == 1) {{
        spawn(0, {n - 1}) {{
            X[$] = Y[$];
        }}
    }}
    return 0;
}}
"""
    else:
        source = f"""
int X[{n}];
int Y[{n}];
int main() {{
    int acc = 0;
    for (int i = 0; i < {n}; i++) {{
        acc += X[i];
        X[i] = acc;
    }}
    return 0;
}}
"""
    return source, {"X": data}, expected


# --------------------------------------------------------------------------- BFS (level synchronous, PRAM style)

def bfs(n: int, avg_degree: float = 4.0, seed: int = 11, parallel: bool = True
        ) -> Tuple[str, Inputs, List[int]]:
    """Flat PRAM BFS: frontier compaction with ps, vertex claiming with
    psm -- the workload family of the paper's teaching experiment (II-C)
    and GPU comparison (II-B)."""
    g = G.random_graph(n, avg_degree, seed)
    row_ptr, col = G.to_csr(g)
    expected = G.reference_bfs_levels(g, 0)
    m = max(1, len(col))
    if parallel:
        source = f"""
int row_ptr[{n + 1}];
int col_idx[{m}];
int level[{n}];
int visited[{n}];
int frontier[{n}];
int next_frontier[{n}];
psBaseReg int nf = 0;
int rounds = 0;
int main() {{
    spawn(0, {n - 1}) {{
        level[$] = 0 - 1;
        visited[$] = 0;
    }}
    level[0] = 0;
    visited[0] = 1;
    frontier[0] = 0;
    int fs = 1;
    int depth = 0;
    while (fs > 0) {{
        depth++;
        nf = 0;
        spawn(0, fs - 1) {{
            int u = frontier[$];
            int e = row_ptr[u];
            int end = row_ptr[u + 1];
            while (e < end) {{
                int v = col_idx[e];
                int claim = 1;
                psm(claim, visited[v]);
                if (claim == 0) {{
                    level[v] = depth;
                    int slot = 1;
                    ps(slot, nf);
                    next_frontier[slot] = v;
                }}
                e++;
            }}
        }}
        fs = nf;
        if (fs > 0) {{
            spawn(0, fs - 1) {{
                frontier[$] = next_frontier[$];
            }}
        }}
        rounds++;
    }}
    printf("rounds=%d\\n", rounds);
    return 0;
}}
"""
    else:
        source = f"""
int row_ptr[{n + 1}];
int col_idx[{m}];
int level[{n}];
int frontier[{n}];
int next_frontier[{n}];
int rounds = 0;
int main() {{
    for (int i = 0; i < {n}; i++) level[i] = 0 - 1;
    level[0] = 0;
    frontier[0] = 0;
    int fs = 1;
    int depth = 0;
    int r = 0;
    while (fs > 0) {{
        depth++;
        int nf = 0;
        for (int i = 0; i < fs; i++) {{
            int u = frontier[i];
            for (int e = row_ptr[u]; e < row_ptr[u + 1]; e++) {{
                int v = col_idx[e];
                if (level[v] < 0) {{
                    level[v] = depth;
                    next_frontier[nf] = v;
                    nf++;
                }}
            }}
        }}
        for (int i = 0; i < nf; i++) frontier[i] = next_frontier[i];
        fs = nf;
        r++;
    }}
    rounds = r;
    printf("rounds=%d\\n", rounds);
    return 0;
}}
"""
    inputs = {"row_ptr": row_ptr, "col_idx": col if col else [0]}
    return source, inputs, expected


# --------------------------------------------------------------------------- connectivity (label propagation)

def connectivity(n: int, avg_degree: float = 3.0, seed: int = 13,
                 parallel: bool = True) -> Tuple[str, Inputs, List[int]]:
    g = G.random_graph(n, avg_degree, seed)
    us, vs = G.to_edge_list(g)
    m = max(1, len(us))
    expected = G.reference_components(g)
    if parallel:
        source = f"""
int eu[{m}];
int ev[{m}];
int comp[{n}];
int changed = 0;
int main() {{
    spawn(0, {n - 1}) {{
        comp[$] = $;
    }}
    int again = 1;
    while (again) {{
        changed = 0;
        spawn(0, {m - 1}) {{
            int a = comp[eu[$]];
            int b = comp[ev[$]];
            if (a < b) {{
                comp[ev[$]] = a;
                int one = 1;
                psm(one, changed);
            }}
            if (b < a) {{
                comp[eu[$]] = b;
                int one = 1;
                psm(one, changed);
            }}
        }}
        again = changed;
    }}
    return 0;
}}
"""
    else:
        source = f"""
int eu[{m}];
int ev[{m}];
int comp[{n}];
int main() {{
    for (int i = 0; i < {n}; i++) comp[i] = i;
    int again = 1;
    while (again) {{
        again = 0;
        for (int e = 0; e < {m}; e++) {{
            int a = comp[eu[e]];
            int b = comp[ev[e]];
            if (a < b) {{ comp[ev[e]] = a; again = 1; }}
            if (b < a) {{ comp[eu[e]] = b; again = 1; }}
        }}
    }}
    return 0;
}}
"""
    inputs = {"eu": us if us else [0], "ev": vs if vs else [0]}
    return source, inputs, expected


# --------------------------------------------------------------------------- matrix multiply

def matmul(n: int, seed: int = 17, parallel: bool = True
           ) -> Tuple[str, Inputs, List[int]]:
    rng = random.Random(seed)
    a = [rng.randrange(-4, 5) for _ in range(n * n)]
    b = [rng.randrange(-4, 5) for _ in range(n * n)]
    expected = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            expected[i * n + j] = sum(a[i * n + k] * b[k * n + j]
                                      for k in range(n))
    if parallel:
        source = f"""
int A[{n * n}];
int B[{n * n}];
int C[{n * n}];
int main() {{
    spawn(0, {n * n - 1}) {{
        int i = $ / {n};
        int j = $ % {n};
        int acc = 0;
        for (int k = 0; k < {n}; k++) {{
            acc += A[i * {n} + k] * B[k * {n} + j];
        }}
        C[$] = acc;
    }}
    return 0;
}}
"""
    else:
        source = f"""
int A[{n * n}];
int B[{n * n}];
int C[{n * n}];
int main() {{
    for (int i = 0; i < {n}; i++) {{
        for (int j = 0; j < {n}; j++) {{
            int acc = 0;
            for (int k = 0; k < {n}; k++) {{
                acc += A[i * {n} + k] * B[k * {n} + j];
            }}
            C[i * {n} + j] = acc;
        }}
    }}
    return 0;
}}
"""
    return source, {"A": a, "B": b}, expected


# --------------------------------------------------------------------------- FFT (radix-2, twiddles via memory map)

def fft(n: int, seed: int = 23, parallel: bool = True
        ) -> Tuple[str, Inputs, List[complex]]:
    """Iterative radix-2 FFT -- the multi-dimensional-FFT workload family
    of ref [24].  Twiddle factors and the bit-reversal permutation are
    host-injected through the memory map (no libm in XMTC)."""
    assert n & (n - 1) == 0 and n >= 2
    rng = random.Random(seed)
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    # reference FFT on float32-rounded inputs
    expected = _reference_fft(data)
    bits = n.bit_length() - 1
    rev = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    wre = [math.cos(-2 * math.pi * k / n) for k in range(n // 2)]
    wim = [math.sin(-2 * math.pi * k / n) for k in range(n // 2)]
    body = f"""
    int len = 2;
    while (len <= {n}) {{
        int half = len / 2;
        int stride = {n} / len;
        %LOOP%
        len = len * 2;
    }}
"""
    butterfly = """
            int group = IDX / half;
            int j = IDX % half;
            int base_i = group * len + j;
            int widx = j * stride;
            float wr = wre[widx];
            float wi = wim[widx];
            float xr = re[base_i + half];
            float xi = im[base_i + half];
            float tr = xr * wr - xi * wi;
            float ti = xr * wi + xi * wr;
            re[base_i + half] = re[base_i] - tr;
            im[base_i + half] = im[base_i] - ti;
            re[base_i] = re[base_i] + tr;
            im[base_i] = im[base_i] + ti;
"""
    if parallel:
        loop = (f"spawn(0, {n // 2 - 1}) {{\n"
                + butterfly.replace("IDX", "$")
                + "        }\n")
        shuffle = f"""
    spawn(0, {n - 1}) {{
        re[$] = re0[rev[$]];
        im[$] = im0[rev[$]];
    }}
"""
    else:
        loop = (f"for (int t = 0; t < {n // 2}; t++) {{\n"
                + butterfly.replace("IDX", "t")
                + "        }\n")
        shuffle = f"""
    for (int i = 0; i < {n}; i++) {{
        re[i] = re0[rev[i]];
        im[i] = im0[rev[i]];
    }}
"""
    source = f"""
float re0[{n}];
float im0[{n}];
float re[{n}];
float im[{n}];
float wre[{n // 2}];
float wim[{n // 2}];
int rev[{n}];
int main() {{
{shuffle}
{body.replace("%LOOP%", loop)}
    return 0;
}}
"""
    inputs = {
        "re0": [x.real for x in data],
        "im0": [x.imag for x in data],
        "wre": wre,
        "wim": wim,
        "rev": rev,
    }
    return source, inputs, expected


def _reference_fft(data: List[complex]) -> List[complex]:
    n = len(data)
    if n == 1:
        return list(data)
    even = _reference_fft(data[0::2])
    odd = _reference_fft(data[1::2])
    out = [0j] * n
    for k in range(n // 2):
        w = cmath.exp(-2j * cmath.pi * k / n) * odd[k]
        out[k] = even[k] + w
        out[k + n // 2] = even[k] - w
    return out


# --------------------------------------------------------------------------- sparse matrix-vector product (CSR)

def spmv(n: int, avg_nnz_per_row: float = 4.0, seed: int = 37,
         parallel: bool = True) -> Tuple[str, Inputs, List[int]]:
    """Integer CSR SpMV: one virtual thread per row (irregular row
    lengths are exactly what hardware thread dispatch load-balances)."""
    rng = random.Random(seed)
    row_ptr = [0]
    col: List[int] = []
    val: List[int] = []
    for _ in range(n):
        nnz = max(0, int(rng.gauss(avg_nnz_per_row, avg_nnz_per_row / 2)))
        cols = sorted(rng.sample(range(n), min(n, nnz)))
        col.extend(cols)
        val.extend(rng.randrange(-5, 6) for _ in cols)
        row_ptr.append(len(col))
    x = [rng.randrange(-9, 10) for _ in range(n)]
    expected = [
        sum(val[k] * x[col[k]] for k in range(row_ptr[i], row_ptr[i + 1]))
        for i in range(n)
    ]
    nnz_total = max(1, len(col))
    loop = """
        int acc = 0;
        int e = row_ptr[IDX];
        int end = row_ptr[IDX + 1];
        while (e < end) {
            acc += val[e] * x[col_idx[e]];
            e++;
        }
        y[IDX] = acc;
"""
    if parallel:
        body = f"    spawn(0, {n - 1}) {{\n" + loop.replace("IDX", "$") + "    }\n"
    else:
        body = (f"    for (int i = 0; i < {n}; i++) {{\n"
                + loop.replace("IDX", "i") + "    }\n")
    source = f"""
int row_ptr[{n + 1}];
int col_idx[{nnz_total}];
int val[{nnz_total}];
int x[{n}];
int y[{n}];
int main() {{
{body}
    return 0;
}}
"""
    inputs = {"row_ptr": row_ptr, "col_idx": col or [0],
              "val": val or [0], "x": x}
    return source, inputs, expected


# --------------------------------------------------------------------------- list ranking (pointer jumping)

def list_ranking(n: int, seed: int = 31, parallel: bool = True
                 ) -> Tuple[str, Inputs, List[int]]:
    """Wyllie's list ranking by pointer jumping -- *the* textbook PRAM
    primitive (JaJa ch. 3; the algorithmic theory the XMT platform was
    built to host).  Each element of a linked list learns its distance
    to the tail in O(log n) jump rounds of O(n) threads.

    The successor array uses ``n`` as the nil pointer.  Double-buffered
    (ping-pong) so the concurrent reads of each round see the previous
    round's values -- honest synchronous-PRAM emulation on the relaxed
    machine.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)  # order[k] = node at list position k
    succ = [n] * n
    for k in range(n - 1):
        succ[order[k]] = order[k + 1]
    expected = [0] * n
    for k, node in enumerate(order):
        expected[node] = n - 1 - k  # distance to tail
    if parallel:
        source = f"""
int S0[{n + 1}];
int S1[{n + 1}];
int R0[{n + 1}];
int R1[{n + 1}];
int main() {{
    spawn(0, {n - 1}) {{
        if (S0[$] == {n}) R0[$] = 0;
        else R0[$] = 1;
    }}
    R0[{n}] = 0;
    S0[{n}] = {n};
    int rounds = 0;
    int flip = 0;
    while (rounds < {max(1, (n - 1).bit_length())}) {{
        if (flip == 0) {{
            spawn(0, {n - 1}) {{
                int s = S0[$];
                R1[$] = R0[$] + R0[s];
                S1[$] = S0[s];
            }}
            S1[{n}] = {n};
            R1[{n}] = 0;
        }} else {{
            spawn(0, {n - 1}) {{
                int s = S1[$];
                R0[$] = R1[$] + R1[s];
                S0[$] = S1[s];
            }}
            S0[{n}] = {n};
            R0[{n}] = 0;
        }}
        flip = 1 - flip;
        rounds++;
    }}
    if (flip == 1) {{
        spawn(0, {n - 1}) {{ R0[$] = R1[$]; }}
    }}
    return 0;
}}
"""
    else:
        source = f"""
int S0[{n + 1}];
int R0[{n + 1}];
int main() {{
    /* find the head: the one node nobody points to */
    for (int i = 0; i < {n}; i++) R0[i] = 0;
    for (int i = 0; i < {n}; i++) {{
        int s = S0[i];
        if (s != {n}) R0[s] = 1;
    }}
    int h = 0;
    for (int i = 0; i < {n}; i++) {{
        if (R0[i] == 0) h = i;
    }}
    /* walk the list twice: count, then assign distance-to-tail */
    int count = 0;
    int cur = h;
    while (cur != {n}) {{ count++; cur = S0[cur]; }}
    cur = h;
    int rank = count - 1;
    while (cur != {n}) {{
        R0[cur] = rank;
        rank--;
        cur = S0[cur];
    }}
    return 0;
}}
"""
    return source, {"S0": succ + [n]}, expected


# --------------------------------------------------------------------------- maximum flow (parallel-BFS Edmonds-Karp)

def max_flow(n: int, avg_degree: float = 3.0, seed: int = 41,
             parallel: bool = True) -> Tuple[str, Inputs, int]:
    """Maximum s-t flow, the paper's ref [28] workload family ("Better
    Speedups for Parallel Max-Flow").  Edmonds-Karp with the augmenting
    path found by *parallel* level-synchronous BFS on the residual graph
    (claiming via psm, frontier compaction via ps) and serial
    augmentation -- the structure real parallel max-flow codes share:
    a parallel search inner loop inside a serial outer loop.

    Edges get small random capacities; the residual graph is stored as
    a full adjacency (forward + reverse arcs) in CSR with a per-arc
    capacity array and the reverse-arc index for pushback.
    """
    rng = random.Random(seed)
    g = G.random_graph(n, avg_degree, seed)
    s, t = 0, n - 1

    # build directed residual arcs: each undirected edge becomes two
    # arcs with independent capacities; plus reverse (0-capacity) arcs
    # are just the partner arc (undirected -> symmetric structure)
    arcs = []  # (u, v, cap)
    for u, v in zip(*G.to_edge_list(g)):
        arcs.append((u, v, rng.randint(1, 4)))
        arcs.append((v, u, rng.randint(1, 4)))
    # CSR over arcs
    by_u: List[List[int]] = [[] for _ in range(n)]
    for idx, (u, v, c) in enumerate(arcs):
        by_u[u].append(idx)
    row_ptr = [0]
    order = []
    for u in range(n):
        order.extend(by_u[u])
        row_ptr.append(len(order))
    pos_of = {arc: k for k, arc in enumerate(order)}
    head = [arcs[a][1] for a in order]
    cap = [arcs[a][2] for a in order]
    # partner arc (v->u arc paired with u->v) for residual pushback
    partner_of_arc = {}
    seen = {}
    for idx, (u, v, c) in enumerate(arcs):
        if (v, u) in seen:
            j = seen.pop((v, u))
            partner_of_arc[idx] = j
            partner_of_arc[j] = idx
        else:
            seen[(u, v)] = idx
    rev = [pos_of[partner_of_arc[a]] for a in order]

    expected = G.reference_max_flow(n, arcs, s, t)

    m = max(1, len(order))
    bfs_body = f"""
            int u = frontier[IDX];
            int e = row_ptr[u];
            int end = row_ptr[u + 1];
            while (e < end) {{
                if (cap[e] > 0) {{
                    int v = head[e];
                    int claim = 1;
                    psm(claim, visited[v]);
                    if (claim == 0) {{
                        parent_arc[v] = e;
                        int slot = 1;
                        ps(slot, nf);
                        next_frontier[slot] = v;
                    }}
                }}
                e++;
            }}
"""
    if parallel:
        bfs = (f"""
        while (fs > 0 && visited[{t}] == 0) {{
            nf = 0;
            spawn(0, fs - 1) {{
""" + bfs_body.replace("IDX", "$") + """
            }
            fs = nf;
            if (fs > 0) {
                spawn(0, fs - 1) { frontier[$] = next_frontier[$]; }
            }
        }
""")
    else:
        # serial variant: same claiming logic, serialized on the Master
        # (ps/psm are perfectly legal in serial code)
        bfs = (f"""
        while (fs > 0 && visited[{t}] == 0) {{
            nf = 0;
            for (int q = 0; q < fs; q++) {{
""" + bfs_body.replace("IDX", "q") + """
            }
            fs = nf;
            for (int q = 0; q < fs; q++) frontier[q] = next_frontier[q];
        }
""")
    if parallel:
        reset = f"""
        spawn(0, {n - 1}) {{
            visited[$] = 0;
            parent_arc[$] = 0 - 1;
        }}
"""
    else:
        reset = f"""
        for (int i = 0; i < {n}; i++) {{
            visited[i] = 0;
            parent_arc[i] = 0 - 1;
        }}
"""
    source = f"""
int row_ptr[{n + 1}];
int head[{m}];
int cap[{m}];
int rev[{m}];
int parent_arc[{n}];
int visited[{n}];
int frontier[{n}];
int next_frontier[{n}];
psBaseReg int nf = 0;
int flow = 0;
int main() {{
    while (1) {{
        /* reset BFS state */
{reset}
        visited[{s}] = 1;
        frontier[0] = {s};
        int fs = 1;
{bfs}
        if (visited[{t}] == 0) break;   /* no augmenting path left */
        /* walk the path backward: bottleneck, then augment */
        int bottleneck = 0x7FFFFFFF;
        int v = {t};
        while (v != {s}) {{
            int e = parent_arc[v];
            if (cap[e] < bottleneck) bottleneck = cap[e];
            v = head[rev[e]];
        }}
        v = {t};
        while (v != {s}) {{
            int e = parent_arc[v];
            cap[e] -= bottleneck;
            cap[rev[e]] += bottleneck;
            v = head[rev[e]];
        }}
        flow += bottleneck;
    }}
    printf("maxflow=%d\\n", flow);
    return 0;
}}
"""
    inputs = {"row_ptr": row_ptr, "head": head or [0], "cap": cap or [0],
              "rev": rev or [0]}
    return source, inputs, expected


# --------------------------------------------------------------------------- parallel merge sort (parallel-calls extension)

def merge_sort(n: int, p: int, seed: int = 29) -> Tuple[str, Inputs, List[int]]:
    """Divide-and-conquer sort exercising the parallel-calls extension
    (paper Section IV-E): each virtual thread runs *recursive* quicksort
    on its segment (function calls on per-TCU stacks), then parallel
    merge rounds combine the runs.  Compile with ``parallel_calls=True``.
    """
    assert n % p == 0 and (n // p) > 0 and p & (p - 1) == 0
    rng = random.Random(seed)
    data = [rng.randrange(-1000, 1000) for _ in range(n)]
    expected = sorted(data)
    seg = n // p
    source = f"""
int A[{n}];
int B[{n}];
int sorted_in_a = 1;

void qsort_seg(int* a, int lo, int hi) {{
    if (lo >= hi) return;
    int pv = a[(lo + hi) / 2];
    int i = lo;
    int j = hi;
    while (i <= j) {{
        while (a[i] < pv) i++;
        while (a[j] > pv) j--;
        if (i <= j) {{
            int t = a[i];
            a[i] = a[j];
            a[j] = t;
            i++;
            j--;
        }}
    }}
    qsort_seg(a, lo, j);
    qsort_seg(a, i, hi);
}}

int main() {{
    spawn(0, {p - 1}) {{
        int lo = $ * {seg};
        qsort_seg(A, lo, lo + {seg} - 1);
    }}
    int width = {seg};
    int* src = A;
    int* dst = B;
    while (width < {n}) {{
        int pairs = {n} / (2 * width);
        spawn(0, pairs - 1) {{
            int lo = $ * 2 * width;
            int mid = lo + width;
            int hi = mid + width;
            int i = lo;
            int j = mid;
            int k = lo;
            while (i < mid && j < hi) {{
                if (src[i] <= src[j]) {{ dst[k] = src[i]; i++; }}
                else {{ dst[k] = src[j]; j++; }}
                k++;
            }}
            while (i < mid) {{ dst[k] = src[i]; i++; k++; }}
            while (j < hi) {{ dst[k] = src[j]; j++; k++; }}
        }}
        int* tmp = src;
        src = dst;
        dst = tmp;
        width = width * 2;
    }}
    sorted_in_a = (src == A);
    return 0;
}}
"""
    return source, {"A": data}, expected


# --------------------------------------------------------------------------- memory-model litmus tests (Fig. 6 / Fig. 7)

def _delay_loop(var: str, count: int) -> str:
    if count <= 0:
        return ""
    return (f"int {var};\n"
            f"            for ({var} = 0; {var} < {count}; {var}++) {{ }}\n")


def litmus_relaxed(delay_a: int = 0, delay_b: int = 0
                   ) -> Tuple[str, Inputs, None]:
    """Fig. 6: two threads, no ordering operations.  Thread B records
    what it observed; the relaxed model allows (x,y) in
    {(0,0),(1,0),(1,1)} and -- with prefetching -- even (0,1).
    The delay knobs skew the race to exhibit different legal outcomes."""
    source = f"""
volatile int x = 0;
volatile int y = 0;
int seen_x = 0;
int seen_y = 0;
int main() {{
    spawn(0, 1) {{
        if ($ == 0) {{
            {_delay_loop("da", delay_a)}
            x = 1;
            y = 1;
        }}
        if ($ == 1) {{
            {_delay_loop("db", delay_b)}
            int oy = y;
            int ox = x;
            seen_y = oy;
            seen_x = ox;
        }}
    }}
    printf("x=%d y=%d\\n", seen_x, seen_y);
    return 0;
}}
"""
    return source, {}, None


def litmus_psm_ordered(delay_a: int = 0, delay_b: int = 0
                       ) -> Tuple[str, Inputs, None]:
    """Fig. 7: both threads synchronize over ``y`` with psm; the memory
    model then guarantees the invariant (seen_y==1 -> seen_x==1)."""
    source = f"""
volatile int x = 0;
volatile int y = 0;
int seen_x = 0;
int seen_y = 0;
int main() {{
    spawn(0, 1) {{
        if ($ == 0) {{
            {_delay_loop("da", delay_a)}
            x = 1;
            int tmpA = 1;
            psm(tmpA, y);
        }}
        if ($ == 1) {{
            {_delay_loop("db", delay_b)}
            int tmpB = 0;
            psm(tmpB, y);
            int ox = x;
            seen_y = tmpB;
            seen_x = ox;
        }}
    }}
    printf("x=%d y=%d\\n", seen_x, seen_y);
    return 0;
}}
"""
    return source, {}, None


#: Hand-written assembly demonstrating the Fig. 6/7 remark: "If Thread B
#: used a simple read operation for y instead of a prefix-sum,
#: prefetching could cause variable x to be read before y" -- TCU 1
#: prefetches x (value 0), spins until it sees y==1, then loads x and
#: hits the stale prefetch buffer.  With a fence (what the compiler
#: emits before prefix-sums), the buffer is flushed and x reads 1.
def litmus_prefetch_staleness(with_fence: bool) -> str:
    fence = "fence" if with_fence else "nop"
    return f"""
    .data
x:      .word 0
y:      .word 0
seen_x: .word 0
    .text
main:
    li   $t0, 0
    li   $t1, 1
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    bnez $k0, reader
    # thread 0: give the reader's prefetch a head start, then write
    # x and y (blocking stores: ordered arrival)
    li   $t5, 40
warm:
    addi $t5, $t5, -1
    bnez $t5, warm
    la   $t2, x
    li   $t3, 1
    sw   $t3, 0($t2)
    la   $t4, y
    sw   $t3, 0($t4)
    j    vt
reader:
    # thread 1: prefetch x early (captures the stale 0) ...
    la   $t2, x
    pref 0($t2)
    la   $t4, y
spin:
    lw   $t5, 0($t4)
    beqz $t5, spin
    # ... y==1 observed; {fence} then read x
    {fence}
    lw   $t6, 0($t2)
    la   $t7, seen_x
    sw   $t6, 0($t7)
    j    vt
    join
    halt
"""
