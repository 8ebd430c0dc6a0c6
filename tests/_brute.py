"""Slow, obviously correct references used as independent oracles in tests.

The bitmask solvers enumerate all 2^n node subsets, so they are only usable
for tiny graphs (n <= ~16). They share no code with the package's solvers.
``brute_edge_list`` is the line-by-line edge-list parser, and ``brute_csr``
builds neighbour lists with a lexsort; they check the loader, its numpy
pass over plain files and its line loop over any other, and ``Graph``. ``restart_scan_local_search_mis`` is the (1,2)-swap local search
that rescans the whole solution after every swap; it checks the worklist
version in the package. ``degree_order_start`` is the start both versions
make, written independently of the package's. ``drop_sweep_local_search_mvc``
is the vertex-cover local search as it was, a sweep that drops each node
whose neighbors are all inside; the package's cover, the complement of a
swapped independent set, must cover the same edges and be no larger.
``heap_greedy_mvc`` and
``heap_greedy_mis`` are the greedy solvers as they were over numpy rows and
tuple-keyed heaps, one push per residual-degree change; they check the
package's list-based greedy solvers. ``rescan_bb_mvc`` and
``id_order_matching_lb`` are the exact search as it was, rescanning the
whole graph for reductions and bounding with an id-ordered greedy matching;
they check the worklist search and its augmented matching bound.
``brute_max_matching`` is a maximum matching's size by recursion, and
``forest_mvc_size`` strips leaves to find a forest's minimum cover size.
``validate`` rechecks a ``Graph``'s structural invariants, symmetry by
comparing the sorted (src, dst) keys with the (dst, src) keys.
``edge_array_induced`` is the induced subgraph as it was, filtered from
the whole graph's edge array; it checks the row gather in the package.
"""

import functools
import heapq
import time

import numpy as np

from prunesolve.graph import EdgeListParseError, EmptyGraphError, Graph, NodeSet
from prunesolve.solvers import (
    MIS,
    MVC,
    Candidates,
    Solution,
    _check_time,
    _Deadline,
    greedy_mvc,
)


def _subset_tables(g):
    """Per-subset popcounts, per-edge endpoint bitmasks."""
    n = g.n
    subsets = np.arange(1 << n, dtype=np.uint32)
    pop = np.zeros(1 << n, dtype=np.int32)
    for bit in range(n):
        pop += ((subsets >> np.uint32(bit)) & np.uint32(1)).astype(np.int32)
    edges = g.edge_array()
    edge_masks = (np.uint32(1) << edges[:, 0].astype(np.uint32)) | (
        np.uint32(1) << edges[:, 1].astype(np.uint32)
    )
    return subsets, pop, edge_masks


def _eligible_filter(subsets, eligible_mask):
    if eligible_mask is None:
        return np.ones(subsets.shape, dtype=bool)
    bits = np.uint32(0)
    for v in np.flatnonzero(eligible_mask):
        bits |= np.uint32(1) << np.uint32(v)
    return (subsets & ~bits) == 0


def brute_mvc(g, eligible_mask=None):
    """Optimal vertex cover by enumeration.

    Full space: returns (min size, m). Restricted: lexicographic optimum,
    (size of the smallest subset among those covering the most edges,
    max covered edges).
    """
    subsets, pop, edge_masks = _subset_tables(g)
    covered = np.zeros(subsets.shape, dtype=np.int32)
    for em in edge_masks:
        covered += (subsets & em) != 0
    ok = _eligible_filter(subsets, eligible_mask)
    best_cov = int(covered[ok].max()) if ok.any() else 0
    at_best = ok & (covered == best_cov)
    return int(pop[at_best].min()), best_cov


def brute_mis(g, eligible_mask=None):
    """Optimal independent set size by enumeration."""
    subsets, pop, edge_masks = _subset_tables(g)
    independent = np.ones(subsets.shape, dtype=bool)
    for em in edge_masks:
        independent &= (subsets & em) != em
    independent &= _eligible_filter(subsets, eligible_mask)
    return int(pop[independent].max())


def brute_edge_list(path):
    """Parse an edge list one line at a time.

    Returns ``(n, edges, dropped_self_loops, dropped_duplicates)`` with
    ``edges`` an ``(m, 2)`` array of ``(min, max)`` pairs in file order, and
    raises the loader's exceptions with the same messages.
    """
    ids = {}
    edges = []
    seen = set()
    loops = 0
    dups = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(
                    f"{path}: line {lineno}: expected two integers, got {line!r}"
                )
            try:
                a = int(parts[0])
                b = int(parts[1])
            except ValueError:
                raise EdgeListParseError(
                    f"{path}: line {lineno}: non-integer token in {line!r}"
                ) from None
            u = ids.setdefault(a, len(ids))
            v = ids.setdefault(b, len(ids))
            if u == v:
                loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                dups += 1
                continue
            seen.add(key)
            edges.append(key)
    if not ids:
        raise EmptyGraphError(f"{path}: no edges found")
    return len(ids), np.array(edges, dtype=np.int64).reshape(-1, 2), loops, dups


def brute_csr(n, edges):
    """``(offsets, targets)`` of a simple undirected graph, by lexsort."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    targets = dst[np.lexsort((dst, src))]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, targets


def degree_order_start(g: Graph, good: np.ndarray) -> np.ndarray:
    """The local searches' start: each candidate, by ascending degree with
    ties to the lower id, joins the set unless a neighbor already has."""
    in_s = np.zeros(g.n, dtype=bool)
    for v in sorted(np.flatnonzero(good).tolist(), key=lambda u: (g.degree(u), u)):
        if not in_s[g.neighbors(v)].any():
            in_s[v] = True
    return in_s


def drop_sweep_local_search_mvc(g: Graph, cand: Candidates | None = None) -> Solution:
    """Local search for vertex cover: start from every candidate and drop,
    by ascending degree with ties to the lower id, each node whose neighbors
    are all still in.

    A dropped node's neighbors stay in, so the dropped nodes are independent
    and every edge between two candidates stays covered; in full space the
    result is a cover with no removable node.
    """
    cand = cand or Candidates()
    t0 = time.perf_counter()
    in_s = cand.mask_for(g).copy()
    for v in sorted(np.flatnonzero(in_s).tolist(), key=lambda u: (g.degree(u), u)):
        if in_s[g.neighbors(v)].all():
            in_s[v] = False
    return Solution(
        problem=MVC,
        nodes=NodeSet(in_s),
        algorithm="local-search",
        runtime=time.perf_counter() - t0,
        restricted=not cand.is_all,
    )


def restart_scan_local_search_mis(g: Graph, cand: Candidates | None = None) -> Solution:
    """Local search for independent set: the degree-ordered greedy start of
    :func:`degree_order_start`, then (1,2)-swaps until none applies.

    A swap replaces a solution node v by two of its non-adjacent one-tight
    neighbors (nodes whose single solution neighbor is v). First improvement:
    solution nodes are scanned in ascending order and the scan restarts after
    every swap; tightness is recomputed from the current solution at each
    restart. A swap can leave some third neighbor of v with no solution
    neighbor at all, so after each swap freed candidate nodes are re-added
    (ascending), which keeps full-space outputs maximal. In restricted mode
    only candidate nodes may enter, whether by swap or by re-add.
    """
    cand = cand or Candidates()
    t0 = time.perf_counter()
    good = cand.mask_for(g)
    in_s = degree_order_start(g, good)

    # tightness and swap-candidate counts are only ever read at candidate
    # nodes, so count over the candidate adjacency rows alone
    good_ids = np.flatnonzero(good)
    seg_len = g.degrees()[good_ids]
    if len(good_ids):
        seg_starts = np.concatenate([[0], np.cumsum(seg_len)[:-1]])
        starts = g.offsets[good_ids]
        total = int(seg_len.sum())
        within = np.arange(total) - np.repeat(seg_starts, seg_len)
        good_rows = g.targets[np.repeat(starts, seg_len) + within]
    else:
        seg_starts = np.empty(0, dtype=np.int64)
        good_rows = np.empty(0, dtype=g.targets.dtype)

    def good_neighbor_counts(mask: np.ndarray) -> np.ndarray:
        out = np.zeros(g.n, dtype=np.int64)
        if len(good_ids) and len(good_rows):
            hits = mask[good_rows].astype(np.int64)
            nonempty = seg_len > 0
            sums = np.zeros(len(good_ids), dtype=np.int64)
            if nonempty.any():
                sums[nonempty] = np.add.reduceat(hits, seg_starts[nonempty])
            out[good_ids] = sums
        return out

    tight = good_neighbor_counts(in_s)

    def add_free_nodes() -> None:
        # additions only tighten, so one ascending pass with an inline
        # recheck cannot miss a free node
        for u in np.flatnonzero(good & ~in_s & (tight == 0)):
            if not in_s[u] and tight[u] == 0:
                in_s[u] = True
                nu = g.neighbors(u)
                tight[nu[good[nu]]] += 1

    improved = True
    while improved:
        improved = False
        # one-tight candidate nodes that could swap in
        swap_in = good & ~in_s & (tight == 1)
        cnt = good_neighbor_counts(swap_in)
        # a swap needs two such neighbors, so other solution nodes are
        # skipped without changing which improvement fires first
        for v in np.flatnonzero(in_s & (cnt >= 2)):
            nbrs = g.neighbors(v)
            cands = nbrs[swap_in[nbrs]]
            swap = None
            for a in range(len(cands)):
                for b in range(a + 1, len(cands)):
                    if not g.has_edge(int(cands[a]), int(cands[b])):
                        swap = (int(cands[a]), int(cands[b]))
                        break
                if swap:
                    break
            if swap:
                i, j = swap
                in_s[v] = False
                in_s[i] = True
                in_s[j] = True
                # incremental tightness update, identical to a recount
                nv = g.neighbors(v)
                tight[nv[good[nv]]] -= 1
                for w in (i, j):
                    nw = g.neighbors(w)
                    tight[nw[good[nw]]] += 1
                add_free_nodes()
                improved = True
                break
    return Solution(
        problem=MIS,
        nodes=NodeSet(in_s),
        algorithm="local-search",
        runtime=time.perf_counter() - t0,
        restricted=not cand.is_all,
    )


def edge_array_induced(g: Graph, mask: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by ``mask``, always a new ``Graph``, and the ids of
    its nodes in ``g``: the edges of ``g.edge_array()`` with both ends in
    the mask, renumbered in ascending id order."""
    ids = np.flatnonzero(mask)
    new = np.full(g.n, -1, dtype=np.int64)
    new[ids] = np.arange(len(ids))
    e = g.edge_array()
    return Graph(len(ids), new[e[mask[e[:, 0]] & mask[e[:, 1]]]]), ids


def heap_greedy_mvc(g: Graph, cand: Candidates | None = None) -> Solution:
    """Greedy vertex cover: repeatedly take the eligible node covering the
    most currently uncovered edges.

    Full space stops when every edge is covered; restricted space stops when
    no eligible node covers any remaining edge. Residual degrees are kept
    incrementally in a lazy max-heap.
    """
    cand = cand or Candidates()
    t0 = time.perf_counter()
    eligible = cand.mask_for(g)
    in_cover = np.zeros(g.n, dtype=bool)
    resid = g.degrees().astype(np.int64).copy()
    uncovered = g.m
    heap = [(-int(resid[v]), int(v)) for v in np.flatnonzero(eligible & (resid > 0))]
    heapq.heapify(heap)
    while heap and uncovered:
        negd, v = heapq.heappop(heap)
        if in_cover[v] or resid[v] != -negd:
            continue
        if negd == 0:
            break
        in_cover[v] = True
        uncovered -= int(resid[v])
        nbrs = g.neighbors(v)
        alive = nbrs[~in_cover[nbrs]]
        resid[alive] -= 1
        for u in alive:
            if eligible[u]:
                heapq.heappush(heap, (-int(resid[u]), int(u)))
    return Solution(
        problem=MVC,
        nodes=NodeSet(in_cover),
        algorithm="greedy",
        runtime=time.perf_counter() - t0,
        restricted=not cand.is_all,
    )


def heap_greedy_mis(g: Graph, cand: Candidates | None = None) -> Solution:
    """Greedy independent set: repeatedly take the minimum-residual-degree
    node of the pool and drop it and its neighbors from the pool.

    Residual degree counts neighbors still in the pool. The pool starts as
    the candidate set, so the result is independent with respect to the full
    edge set and, in full-space mode, maximal.
    """
    cand = cand or Candidates()
    t0 = time.perf_counter()
    pool = cand.mask_for(g).copy()
    in_set = np.zeros(g.n, dtype=bool)
    resid = g.count_in_mask(pool)
    heap = [(int(resid[v]), int(v)) for v in np.flatnonzero(pool)]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if not pool[v] or resid[v] != d:
            continue
        in_set[v] = True
        nbrs = g.neighbors(v)
        removed = [v] + [int(u) for u in nbrs[pool[nbrs]]]
        pool[removed] = False
        for r in removed:
            rn = g.neighbors(r)
            alive = rn[pool[rn]]
            resid[alive] -= 1
            for u in alive:
                heapq.heappush(heap, (int(resid[u]), int(u)))
    return Solution(
        problem=MIS,
        nodes=NodeSet(in_set),
        algorithm="greedy",
        runtime=time.perf_counter() - t0,
        restricted=not cand.is_all,
    )


def id_order_matching_lb(adj: dict[int, set[int]]) -> int:
    """Size of a greedy maximal matching: a vertex-cover lower bound."""
    used: set[int] = set()
    size = 0
    for v in sorted(adj):
        if v in used:
            continue
        partner = None
        for u in sorted(adj[v]):
            if u not in used:
                partner = u
                break
        if partner is not None:
            used.add(v)
            used.add(partner)
            size += 1
    return size


def rescan_bb_mvc(sub: Graph, deadline: float) -> tuple[set[int], bool]:
    """Branch and bound for minimum vertex cover, depth first over an
    explicit stack.

    The incumbent starts as :func:`greedy_mvc`'s cover. A stack frame is
    (undo mark, chosen mark, nodes to take into the cover, node to drop):
    popping it rewinds the undo trail and ``chosen`` to its marks and applies
    its choice; then the reductions, the leaf check and the matching bound
    run. A branch pushes its exclude frame below its include frame, so the
    include side is searched first. Returns (best cover found, proven-optimal
    flag).
    """
    best = set(greedy_mvc(sub).nodes.ids().tolist())
    best_size = len(best)
    adj = {v: set(nbrs) for v, nbrs in enumerate(sub.neighbor_lists())}
    chosen: list[int] = []
    undo: list[tuple[int, set[int]]] = []

    def remove_node(v: int) -> None:
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        undo.append((v, nbrs))

    def reduce_() -> None:
        while True:
            _check_time(deadline)
            deg0 = [v for v in adj if not adj[v]]
            if deg0:
                for v in deg0:
                    remove_node(v)
                continue
            leaf = None
            for v in adj:
                if len(adj[v]) == 1:
                    leaf = v
                    break
            if leaf is None:
                return
            u = next(iter(adj[leaf]))
            chosen.append(u)
            remove_node(u)

    stack = [(0, 0, (), None)]
    try:
        while stack:
            mark_u, mark_c, take, drop = stack.pop()
            while len(undo) > mark_u:
                v, nbrs = undo.pop()
                adj[v] = nbrs
                for u in nbrs:
                    adj[u].add(v)
            del chosen[mark_c:]
            for u in take:
                chosen.append(u)
                remove_node(u)
            if drop is not None:
                remove_node(drop)
            reduce_()
            if not adj:
                if len(chosen) < best_size:
                    best = set(chosen)
                    best_size = len(chosen)
            elif len(chosen) + id_order_matching_lb(adj) < best_size:
                v = min(adj, key=lambda u: (-len(adj[u]), u))
                # exclude v (all its neighbors join the cover) below include v
                mark_u, mark_c = len(undo), len(chosen)
                stack.append((mark_u, mark_c, sorted(adj[v]), v))
                stack.append((mark_u, mark_c, (v,), None))
        return best, True
    except _Deadline:
        return best, False



def brute_max_matching(g: Graph) -> int:
    """Maximum matching size: the lowest free node is either left unmatched
    or matched to each free neighbor in turn, memoized on the free set."""
    nbrs = [sum(1 << u for u in row) for row in g.neighbor_lists()]

    @functools.cache
    def best(free: int) -> int:
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        out = best(rest)
        cand = nbrs[v] & rest
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    return best((1 << g.n) - 1)

def forest_mvc_size(g: Graph) -> int:
    """Minimum vertex cover size of a forest.

    Some minimum cover holds the neighbor of any leaf, so take it and delete
    its edges, until no edge is left. Raises ValueError if edges remain with
    no leaf among their endpoints, which happens only on a cycle.
    """
    adj = [set(nbrs) for nbrs in g.neighbor_lists()]
    leaves = [v for v in range(g.n) if len(adj[v]) == 1]
    size = 0
    while leaves:
        v = leaves.pop()
        if len(adj[v]) != 1:  # isolated since it was listed
            continue
        (u,) = adj[v]
        size += 1
        for w in adj[u]:
            adj[w].discard(u)
            if len(adj[w]) == 1:
                leaves.append(w)
        adj[u] = set()
    if any(adj):
        raise ValueError("graph has a cycle")
    return size


def validate(g: Graph) -> None:
    """Recheck all structural invariants; raises ValueError on violation."""
    if len(g.offsets) != g.n + 1 or g.offsets[0] != 0:
        raise ValueError("malformed offsets")
    if g.offsets[-1] != len(g.targets) or len(g.targets) != 2 * g.m:
        raise ValueError("neighbor list length does not equal 2m")
    degs = g.degrees()
    if degs.min(initial=0) < 0:
        raise ValueError("negative degree")
    rows = np.repeat(np.arange(g.n, dtype=np.int64), degs)
    if np.any(rows == g.targets):
        raise ValueError("self-loop present")
    if g.n and len(g.targets):
        inner = np.diff(g.targets)
        boundary = np.diff(rows).astype(bool)
        if np.any((inner <= 0) & ~boundary):
            raise ValueError("neighbor list not strictly increasing")
    # every (src, dst) entry needs its (dst, src) twin
    forward = np.sort(rows * g.n + g.targets)
    backward = np.sort(g.targets * g.n + rows)
    if not np.array_equal(forward, backward):
        raise ValueError("adjacency not symmetric")
