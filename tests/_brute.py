"""Slow, obviously correct references used as independent oracles in tests.

The bitmask solvers enumerate all 2^n node subsets, so they are only usable
for tiny graphs (n <= ~16). They share no code with the package's solvers.
``brute_edge_list`` is the line-by-line edge-list parser, and ``brute_csr``
builds neighbour lists with a lexsort; they check the vectorized loader and
``Graph``.
"""

import numpy as np

from prunesolve.graph import EdgeListParseError, EmptyGraphError


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
