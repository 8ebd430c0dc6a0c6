"""Seeded input generators and reference bounds, independent of the program.

Every graph the benchmark feeds to prunesolve comes from here, so a change
to the program's own generator cannot change a workload's input. Graphs are
``(n, edges)`` pairs with ``edges`` an ``(m, 2)`` int64 array, ``u < v`` per
row. The bounds (a maximal matching, a greedy independent set) are computed
here too, from the same arrays, for the output checks in ``checks.py``.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np


def sub_seed(seed: int, *parts) -> int:
    """A 63-bit seed for one named input, derived from the run's seed."""
    text = "/".join(["perfbench", str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def ba_graph(n: int, m: int, seed: int) -> tuple[int, np.ndarray]:
    """Preferential attachment: a clique on the first ``m + 1`` nodes, then
    each new node links to ``m`` distinct earlier nodes drawn in proportion
    to their degree. Rows are ordered by (larger, smaller) endpoint, so in
    file order the node ids first appear as 0, 1, 2, ...
    """
    if n <= m + 1:
        raise ValueError(f"need n > m + 1, got n={n}, m={m}")
    rng = _rng(seed)
    edges = [(i, j) for j in range(m + 1) for i in range(j)]
    ends = [v for e in edges for v in e]
    for v in range(m + 1, n):
        draws = rng.random(4 * m)
        targets: set[int] = set()
        k = 0
        while len(targets) < m:
            if k == len(draws):
                draws, k = rng.random(4 * m), 0
            targets.add(ends[int(draws[k] * len(ends))])
            k += 1
        for u in sorted(targets):
            edges.append((u, v))
            ends.append(u)
            ends.append(v)
    return n, np.array(edges, dtype=np.int64)


def gnm_graph(n: int, m: int, seed: int) -> tuple[int, np.ndarray]:
    """Uniform random graph with exactly ``m`` edges (isolated nodes allowed)."""
    rng = _rng(seed)
    iu, iv = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(len(iu), size=m, replace=False))
    return n, np.stack([iu[pick], iv[pick]], axis=1).astype(np.int64)


def write_edge_list(edges: np.ndarray, n: int, path) -> None:
    """Write ``u v`` lines in the program's edge-list format.

    The program numbers nodes by first appearance in the file; this refuses
    to write a file where that numbering would differ from ours, so ids in
    the program's outputs can be checked against ``edges`` directly.
    """
    flat = edges.reshape(-1)
    _, first = np.unique(flat, return_index=True)
    if len(first) != n or not np.array_equal(np.argsort(first), np.arange(n)):
        raise ValueError("edge order would renumber nodes when loaded")
    with open(path, "w") as f:
        f.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
        f.write("\n")


def maximal_matching_size(n: int, edges: np.ndarray) -> int:
    """Size of a greedy maximal matching: a lower bound on any vertex cover
    and, subtracted from n, an upper bound on any independent set."""
    used = bytearray(n)
    size = 0
    for u, v in edges.tolist():
        if not used[u] and not used[v]:
            used[u] = used[v] = 1
            size += 1
    return size


def greedy_independent_set_size(n: int, edges: np.ndarray) -> int:
    """Size of a minimum-degree greedy independent set: a lower bound on the
    maximum independent set."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    alive = [True] * n
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    size = 0
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != len(adj[v]):
            continue
        size += 1
        alive[v] = False
        for u in list(adj[v]):
            alive[u] = False
            for w in adj[u]:
                if alive[w]:
                    adj[w].discard(u)
                    heapq.heappush(heap, (len(adj[w]), w))
    return size
