"""Classical solvers for minimum vertex cover and maximum independent set.

Every solver comes in two flavors selected by a :class:`Candidates` argument:
the full search space (all nodes) or a restricted space where only a given
"good node" subset may enter the solution. Restricted vertex covers may
legitimately leave some edges uncovered; the coverage metric quantifies that.

Each algorithm is written once, for the full space, as a private core that
maps a graph to a node mask, and :func:`_restrict` alone restricts it, by
one rule. An independent set is the core's set of the subgraph the
candidates induce. A vertex cover is the candidates with a neighbor outside
the candidates, forced in because only they can cover those edges, plus
the core's cover of the subgraph the other candidates induce. So a
restricted cover covers every edge that touches a candidate, and a
restricted set is independent in the whole graph. In full space the
subgraph is the graph itself and nothing is forced.

The exact solver is a branch and reduce for minimum vertex cover: degree-0,
degree-1 and degree-2 reductions, the last folding a node and its two
non-adjacent neighbors into one merged node, then branching on a
maximum-degree node, bounded by a matching.

All solvers are deterministic given (graph, candidates), and ties are
always broken toward the lowest node id. One (1,2)-swap local search serves
both problems: a vertex cover is the complement of an independent set.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, NodeSet, _int_rows_text

MVC = "mvc"
MIS = "mis"
PROBLEMS = (MVC, MIS)
TIME_LIMIT = 3600.0  # seconds; the default exact-solver budget


def _norm_problem(problem: str) -> str:
    p = str(problem).lower()
    if p not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {PROBLEMS}")
    return p


@dataclass(frozen=True)
class Candidates:
    """Search space for a solver: either every node or a fixed good-node set."""

    good: NodeSet | None = None

    @property
    def is_all(self) -> bool:
        return self.good is None

    def mask_for(self, g: Graph) -> np.ndarray:
        """Boolean eligibility mask over the graph's nodes."""
        if self.good is None:
            return np.ones(g.n, dtype=bool)
        if self.good.universe != g.n:
            raise ValueError(
                f"candidate set over {self.good.universe} nodes used with a "
                f"{g.n}-node graph"
            )
        return self.good.mask


@dataclass
class Solution:
    """A solver's output node set plus bookkeeping about how it was produced."""

    problem: str
    nodes: NodeSet
    algorithm: str
    runtime: float
    optimal: bool | None = None  # exact solver only
    restricted: bool = False

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass
class ValidationReport:
    """Outcome of checking a solution against the problem's definition."""

    ok: bool
    problem: str
    failures: list[str] = field(default_factory=list)
    coverage: float | None = None


def coverage(g: Graph, s: Solution) -> float:
    """Fraction of edges with at least one endpoint in the solution.

    Defined for vertex-cover solutions only; an edgeless graph counts as
    fully covered.
    """
    if s.problem != MVC:
        raise ValueError("coverage is defined for vertex-cover solutions only")
    if g.m == 0:
        return 1.0
    e = g.edge_array()
    mask = s.nodes.mask
    covered = int(np.count_nonzero(mask[e[:, 0]] | mask[e[:, 1]]))
    return covered / g.m


def validate_solution(g: Graph, s: Solution) -> ValidationReport:
    """Check independence/maximality (MIS) or coverage (MVC).

    Maximality and full coverage are only required of full-space solutions;
    restricted runs may fall short by construction.
    """
    failures: list[str] = []
    mask = s.nodes.mask
    if s.problem == MIS:
        e = g.edge_array()
        if g.m:
            inside = mask[e[:, 0]] & mask[e[:, 1]]
            if inside.any():
                u, v = e[int(np.flatnonzero(inside)[0])]
                failures.append(
                    f"edge ({u}, {v}) has both endpoints in the independent set"
                )
        if not s.restricted and not failures:
            tight = g.count_in_mask(mask)
            addable = ~mask & (tight == 0)
            if addable.any():
                v = int(np.flatnonzero(addable)[0])
                failures.append(f"node {v} could be added: the set is not maximal")
        return ValidationReport(not failures, s.problem, failures)
    cov = coverage(g, s)
    if not s.restricted and cov < 1.0:
        e = g.edge_array()
        uncovered = ~(mask[e[:, 0]] | mask[e[:, 1]])
        u, v = e[int(np.flatnonzero(uncovered)[0])]
        failures.append(f"edge ({u}, {v}) is not covered")
    return ValidationReport(not failures, s.problem, failures, cov)


def format_solution(g: Graph, s: Solution) -> str:
    """Render the text form: a header line followed by sorted node ids."""
    cov = f"{coverage(g, s):.6f}" if s.problem == MVC else "-"
    opt = "-" if s.optimal is None else ("true" if s.optimal else "false")
    head = f"{s.problem} {s.algorithm} {s.size} {cov} {s.runtime:.6f} {opt}\n"
    return head + _int_rows_text(s.nodes.ids()[:, None])


def _rows(g: Graph, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every adjacency entry of the nodes ``ids``, in ascending (source,
    target) order: the entry's row (an index into ``ids``) and its target.

    Only those rows are gathered, so the cost is the sum of their degrees,
    not ``g``'s edge count.
    """
    starts = g.offsets[ids]
    deg = g.offsets[ids + 1] - starts
    # the position in g.targets of each entry of the rows
    pos = np.arange(int(deg.sum())) + np.repeat(starts - (np.cumsum(deg) - deg), deg)
    return np.repeat(np.arange(len(ids)), deg), g.targets[pos]


def _induced(g: Graph, mask: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by ``mask`` and the ids of its nodes in ``g``.

    Nodes keep their ascending order, so lowest-id ties break alike in both.
    The edges come from the :func:`_rows` of the masked nodes, which already
    hold both directions of every induced edge, in ascending (source,
    target) order. When the mask holds every node, the subgraph is ``g``
    itself.
    """
    ids = np.flatnonzero(mask)
    if len(ids) == g.n:
        return g, ids
    new = np.full(g.n, -1, dtype=np.int64)
    new[ids] = np.arange(len(ids))
    src, dst = _rows(g, ids)
    dst = new[dst]
    inside = dst >= 0
    sub = Graph.__new__(Graph)
    sub._build(len(ids), src[inside] * len(ids) + dst[inside])
    return sub, ids


def _leaving(g: Graph, mask: np.ndarray) -> np.ndarray:
    """The nodes of ``mask`` with a neighbor outside it, as a mask over
    ``g``'s nodes, found from the masked nodes' own :func:`_rows`. A mask
    of every node has none, and gathers nothing."""
    out = np.zeros(g.n, dtype=bool)
    if not mask.all():
        ids = np.flatnonzero(mask)
        src, dst = _rows(g, ids)
        out[ids[src[~mask[dst]]]] = True
    return out


def _lift(mask: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """A mask over :func:`_induced`'s subgraph as one over the ``n`` nodes
    that ``ids`` index; an all-node subgraph's mask is returned as is."""
    if len(ids) == n:
        return mask
    out = np.zeros(n, dtype=bool)
    out[ids[mask]] = True
    return out


def _restrict(
    g: Graph,
    cand: Candidates | None,
    problem: str,
    algorithm: str,
    full,
) -> Solution:
    """Run the full-space core ``full`` (a graph to a node mask) in the
    space ``cand`` allows, timed: the one restriction rule of every solver.

    An independent set is ``full(sub)`` on the subgraph the candidates
    induce. A vertex cover is ``forced | full(sub)``, where ``forced`` holds
    the candidates with a neighbor outside the candidates (:func:`_leaving`)
    and ``sub`` is the subgraph the other candidates induce. :func:`_lift`
    maps the mask back to ``g``'s nodes. In full space ``sub`` is ``g``
    itself, nothing is forced and nothing is gathered.
    """
    cand = cand or Candidates()
    t0 = time.perf_counter()
    eligible = cand.mask_for(g)
    forced = _leaving(g, eligible) if problem == MVC else np.zeros(g.n, dtype=bool)
    sub, ids = _induced(g, eligible & ~forced)
    return Solution(
        problem=problem,
        nodes=NodeSet(forced | _lift(full(sub), ids, g.n)),
        algorithm=algorithm,
        runtime=time.perf_counter() - t0,
        restricted=not cand.is_all,
    )


# ---------------------------------------------------------------------------
# Greedy


def _greedy_cover(g: Graph) -> np.ndarray:
    """Greedy vertex cover of ``g``: repeatedly take the node covering the
    most currently uncovered edges, ties to the lowest id, until every edge
    is covered.

    Each node with uncovered edges has one entry in a min-heap of plain
    ints, ``v - r * n``, which order as (-r, v). Residual degrees only fall,
    so an entry's r is an upper bound on its node's residual degree. When a
    popped entry's r is still exact, every other node's true (-degree, id)
    comes after it, so it is the pick that a heap re-pushed on every
    decrement would make. A stale entry is pushed back once at its true
    residual degree, or dropped at 0. While an edge is uncovered, its ends
    hold entries, so the heap is not empty.
    """
    n = g.n
    adj = g.neighbor_lists()
    deg = g.degrees()
    in_cover = bytearray(n)
    resid = deg.tolist()
    uncovered = g.m
    linked = np.flatnonzero(deg > 0)
    heap = (linked - deg[linked] * n).tolist()
    heapq.heapify(heap)
    while uncovered:
        q, v = divmod(heapq.heappop(heap), n)
        r = resid[v]
        if r != -q:
            if r:
                heapq.heappush(heap, v - r * n)
            continue
        in_cover[v] = 1
        uncovered -= r
        # a covered node has no heap entry, so its residual degree is never
        # read again
        for u in adj[v]:
            resid[u] -= 1
    return np.frombuffer(in_cover, dtype=bool)


def _greedy_set(g: Graph) -> np.ndarray:
    """Greedy independent set of ``g``, maximal: repeatedly take the
    minimum-residual-degree node of the pool, ties to the lowest id, and
    drop it and its neighbors from the pool.

    Residual degree counts neighbors still in the pool, which starts as
    every node. A node of degree 0 is picked whatever else is picked, and
    picking it changes no other node's residual degree, so one numpy pass
    takes every such node before the loop, and the set stays the same; most
    candidates of a pruned instance are such lone nodes in the subgraph
    they induce. The loop runs while a count of the pool's nodes is
    positive, so no entry left after the last pick is popped.

    The min-heap holds plain ints, ``r * n + v`` for residual degree r,
    which order as (r, v), but only for nodes at or below a frontier degree
    ``top``. A residual-degree drop pushes a new key only when the new
    degree is at most ``top``. When the heap runs dry while the pool is not
    empty, ``top`` rises to ``max(2 * top, lowest residual degree in the
    pool)`` and every pool node at or below it is pushed; ``top`` starts at
    0, so the first refill heaps the nodes of minimum degree, and doubling
    keeps the number of refills logarithmic in the maximum degree. So every
    pool node at or below ``top`` has an entry at its current degree, and
    every other pool node's key exceeds all of those: the smallest entry of
    a pool node is the pool's (r, id) minimum, the pick a heap holding every
    node would make. Residual degrees only fall, so a node's newest entry
    pops before its older ones, and the node leaves the pool at that pop or
    has already left it: an entry is skipped exactly when its node is out of
    the pool.
    """
    n = g.n
    adj = g.neighbor_lists()
    deg = g.degrees()
    lone = deg == 0
    in_set = bytearray(lone)
    pool = bytearray(~lone)
    live = np.frombuffer(pool, dtype=bool)
    resid = deg.tolist()
    left = n - int(np.count_nonzero(lone))
    top = 0
    heap = []
    while left:
        if not heap:
            now = np.array(resid, dtype=np.int64)
            top = max(2 * top, int(now[live].min()))
            low = np.flatnonzero(live & (now <= top))
            heap = (now[low] * n + low).tolist()
            heapq.heapify(heap)
        v = heapq.heappop(heap) % n
        if not pool[v]:
            continue
        in_set[v] = 1
        removed = [v] + [u for u in adj[v] if pool[u]]
        for r in removed:
            pool[r] = 0
        left -= len(removed)
        for r in removed:
            for u in adj[r]:
                if pool[u]:
                    d = resid[u] - 1
                    resid[u] = d
                    if d <= top:
                        heapq.heappush(heap, d * n + u)
    return np.frombuffer(in_set, dtype=bool)


def greedy_mvc(g: Graph, cand: Candidates | None = None) -> Solution:
    """Greedy vertex cover (:func:`_greedy_cover`), restricted to ``cand``
    by :func:`_restrict`."""
    return _restrict(g, cand, MVC, "greedy", _greedy_cover)


def greedy_mis(g: Graph, cand: Candidates | None = None) -> Solution:
    """Greedy independent set (:func:`_greedy_set`), restricted to ``cand``
    by :func:`_restrict`."""
    return _restrict(g, cand, MIS, "greedy", _greedy_set)


# ---------------------------------------------------------------------------
# Local search


def _swap_search(g: Graph) -> np.ndarray:
    """The one local search behind both problems: a maximal independent set
    of ``g``, as a mask.

    The start takes each node by ascending degree, ties to the lower id,
    unless a neighbor is taken already. A node with no neighbor is always
    taken and knocks out nothing, so only the nodes with one are sorted and
    visited; then (1,2)-swaps run until none applies. A swap replaces a
    solution node v by two of its non-adjacent one-tight neighbors (nodes
    whose single solution neighbor is v): the first such pair in
    adjacency order. First improvement over a min-heap worklist of
    "dirty" solution nodes; every solution node off the worklist has no
    swap. The smallest dirty node is popped and either swaps or becomes
    clean, so each swap is made at the smallest solution node that has one,
    and the result equals that of an ascending scan restarted after every
    swap. Only N(v) loses tightness in a swap, so only N(v) can hold freed
    nodes; they are re-added (ascending), so the result is maximal. A
    solution node's swaps depend only on which of its neighbors are
    one-tight, so a swap dirties the nodes it adds and the solution
    neighbors of every node whose one-tight status changed.
    """
    in_s = np.ones(g.n, dtype=bool)
    # nodes with a neighbor; a stable sort of their degrees over ascending
    # ids keeps the (degree, id) order
    deg = g.degrees()
    linked = np.flatnonzero(deg > 0)
    for v in linked[np.argsort(deg[linked], kind="stable")].tolist():
        if in_s[v]:  # taken
            in_s[g.neighbors(v)] = False

    tight = g.count_in_mask(in_s)
    # one-tight nodes that could swap in
    swap_in = ~in_s & (tight == 1)
    # a swap needs two such neighbors, so every other solution node starts
    # clean; an ascending list is already a heap
    heap = np.flatnonzero(in_s & (g.count_in_mask(swap_in) >= 2)).tolist()
    dirty = np.zeros(g.n, dtype=bool)
    dirty[heap] = True
    while heap:
        v = heapq.heappop(heap)
        dirty[v] = False
        nv = g.neighbors(v)
        cands = nv[swap_in[nv]]
        swap = None
        for a in range(len(cands)):
            for b in range(a + 1, len(cands)):
                if not g.has_edge(int(cands[a]), int(cands[b])):
                    swap = (int(cands[a]), int(cands[b]))
                    break
            if swap:
                break
        if not swap:
            continue
        i, j = swap
        in_s[v] = False
        in_s[i] = True
        in_s[j] = True
        tight[nv] -= 1
        added = [i, j]
        touched = [nv]
        for w in (i, j):
            nw = g.neighbors(w)
            tight[nw] += 1
            touched.append(nw)
        # additions only tighten, so one ascending pass with an inline
        # recheck cannot miss a free node
        for u in nv[~in_s[nv] & (tight[nv] == 0)]:
            if tight[u] == 0:
                in_s[u] = True
                nu = g.neighbors(u)
                tight[nu] += 1
                added.append(int(u))
                touched.append(nu)
        # v itself is two-tight now (i and j), so its status did not change
        touched = np.unique(np.concatenate(touched))
        now = ~in_s[touched] & (tight[touched] == 1)
        flipped = touched[now != swap_in[touched]]
        swap_in[touched] = now
        marked = np.concatenate([np.array(added, dtype=np.int64)]
                                + [g.neighbors(w) for w in flipped])
        marked = np.unique(marked[in_s[marked] & ~dirty[marked]])
        dirty[marked] = True
        for u in marked.tolist():
            heapq.heappush(heap, u)
    return in_s


def local_search_mvc(g: Graph, cand: Candidates | None = None) -> Solution:
    """Local search for vertex cover, restricted to ``cand`` by
    :func:`_restrict`: the complement of the :func:`_swap_search` set, a
    cover with no removable node. A (1,2)-swap of the set is a (2,1)-move
    of the cover."""
    return _restrict(g, cand, MVC, "local-search", lambda sub: ~_swap_search(sub))


def local_search_mis(g: Graph, cand: Candidates | None = None) -> Solution:
    """Local search for independent set (:func:`_swap_search`), restricted
    to ``cand`` by :func:`_restrict`."""
    return _restrict(g, cand, MIS, "local-search", _swap_search)


# ---------------------------------------------------------------------------
# Exact branch and bound


class _Deadline(Exception):
    pass


def _check_time(deadline: float) -> None:
    if time.perf_counter() > deadline:
        raise _Deadline


def _matching_lb(adj: dict[int, set[int]]) -> int:
    """Size of a matching in ``adj``: a vertex-cover lower bound, because a
    cover holds an endpoint of every matched edge.

    Nodes are matched by ascending degree, ties to the lower id, each to its
    lowest-degree free neighbor (again ties to the lower id), which gives a
    maximal matching. Then one pass, in the same order, over the nodes left
    free grows it along augmenting paths of three edges: a free v, its
    neighbor u, u's mate w and a free neighbor x != v of w (the first such
    path found, x of lowest degree) become the pairs (v, u) and (w, x).
    Matched nodes stay matched, so every neighbor of a free node has a mate.
    A free neighbor is found by a scan that keeps the lowest rank seen, so
    no set is built per node.
    """
    order = [v for _, v in sorted(zip(map(len, adj.values()), adj))]
    rank = {v: i for i, v in enumerate(order)}
    mate: dict[int, int] = {}
    end = len(order)
    for v in order:
        if v not in mate:
            best = end
            for u in adj[v]:
                if u not in mate:
                    r = rank[u]
                    if r < best:
                        best = r
            if best < end:
                u = order[best]
                mate[v] = u
                mate[u] = v
    size = len(mate) // 2
    for v in order:
        if v in mate:
            continue
        for u in adj[v]:
            w = mate[u]
            best = end
            for x in adj[w]:
                if x not in mate and x != v:
                    r = rank[x]
                    if r < best:
                        best = r
            if best < end:
                x = order[best]
                mate[v] = u
                mate[u] = v
                mate[w] = x
                mate[x] = w
                size += 1
                break
    return size


def _bb_mvc(sub: Graph, deadline: float) -> tuple[set[int], bool]:
    """Branch and reduce for minimum vertex cover, depth first over an
    explicit stack.

    The incumbent starts as :func:`_greedy_cover`'s cover. A stack frame is
    (undo mark, chosen mark, fold mark, nodes to take into the cover):
    popping it rewinds the undo trail, ``chosen`` and ``folds`` to its marks
    and takes its nodes; then the reductions, the leaf check and the
    matching bound run. A branch on v pushes its exclude frame (take every
    neighbor of v, which leaves v isolated) below its include frame (take
    v), so the include side is searched first. Returns (best cover found,
    proven-optimal flag).

    The reductions work from ``low``, a min-heap of node ids that holds
    every node of degree 2 or less: the root seeds it, and a node is pushed
    whenever its degree falls to 2 or less, or it is made with degree 2 or
    less. A popped id that is gone or has degree above 2 is skipped.
    Otherwise, lowest id first: a degree-0 node is removed; a degree-1
    node's neighbor joins the cover; a degree-2 node v with adjacent
    neighbors a and b (a triangle) puts both in the cover; and with
    non-adjacent ones, v is folded (Chen, Kanj & Jia 2001): v, a and b
    are removed, and a merged node adjacent to N(a) | N(b) takes v's id.
    A minimum cover of the folded graph has exactly one node fewer than one
    of the graph before it, so a fold counts one toward the cover size,
    which is ``len(chosen) + len(folds)``. The undo trail restores removed
    nodes from (v, neighbors) entries, and a fold adds (v, None), whose
    rewind deletes the merged node.

    Only a leaf that beats the incumbent unfolds ``chosen``, over the folds
    in reverse order: if the merged id is in the cover, it is replaced by a
    and b, else v joins. So the incumbent is always a cover of ``sub``,
    also when the deadline cuts the search short.

    Reductions run until the heap is empty, every frame starts from a
    reduced graph, and each rule and the merged node depend only on the
    adjacency, so the reduced graph, and with it the branch node (maximum
    degree, lowest id), depends only on the current adjacency. Any valid
    bound prunes only subtrees without a strictly smaller cover, so the
    incumbents, and the returned cover, are those of the unbounded search:
    a stronger bound changes only how many nodes are visited.
    """
    best = set(np.flatnonzero(_greedy_cover(sub)).tolist())
    best_size = len(best)
    adj = {v: set(nbrs) for v, nbrs in enumerate(sub.neighbor_lists())}
    chosen: list[int] = []
    folds: list[tuple[int, int, int]] = []  # (v, a, b), merged node id v
    undo: list[tuple[int, set[int] | None]] = []
    low = [v for v, nbrs in adj.items() if len(nbrs) <= 2]  # ascending: a heap
    push, pop, clock = heapq.heappush, heapq.heappop, time.perf_counter

    stack: list[tuple[int, int, int, tuple[int, ...]]] = [(0, 0, 0, ())]
    try:
        while stack:
            _check_time(deadline)
            mark_u, mark_c, mark_f, take = stack.pop()
            while len(undo) > mark_u:
                v, nbrs = undo.pop()
                if nbrs is None:  # a fold's merged node
                    for u in adj.pop(v):
                        adj[u].discard(v)
                else:
                    adj[v] = nbrs
                    for u in nbrs:
                        adj[u].add(v)
            del chosen[mark_c:]
            del folds[mark_f:]
            while True:
                for v in take:
                    chosen.append(v)
                    nbrs = adj.pop(v)
                    for u in nbrs:
                        rest = adj[u]
                        rest.discard(v)
                        if len(rest) <= 2:
                            push(low, u)
                    undo.append((v, nbrs))
                take = ()
                while low:
                    v = pop(low)
                    nbrs = adj.get(v)
                    if nbrs is None or len(nbrs) > 2:
                        continue
                    if not nbrs:
                        del adj[v]
                        undo.append((v, nbrs))
                        continue
                    if clock() > deadline:
                        raise _Deadline
                    if len(nbrs) == 1:
                        take = tuple(nbrs)
                        break
                    a, b = nbrs
                    na = adj[a]
                    if b in na:
                        take = (a, b)
                        break
                    # fold: v, a and b leave, and a merged node takes v's id
                    nb = adj.pop(b)
                    del adj[a], adj[v]
                    na.discard(v)
                    nb.discard(v)
                    for u in na:
                        rest = adj[u]
                        rest.discard(a)
                        rest.add(v)
                    for u in nb:
                        rest = adj[u]
                        rest.discard(b)
                        if v not in rest:
                            rest.add(v)
                        elif len(rest) <= 2:  # a and b, both its neighbors, became v
                            push(low, u)
                    merged = na | nb
                    adj[v] = merged
                    if len(merged) <= 2:
                        push(low, v)
                    undo += ((v, nbrs), (a, na), (b, nb), (v, None))
                    folds.append((v, a, b))
                if not take:
                    break
            size = len(chosen) + len(folds)
            if not adj:
                if size < best_size:
                    best = set(chosen)
                    for v, a, b in reversed(folds):
                        if v in best:
                            best.remove(v)
                            best.add(a)
                            best.add(b)
                        else:
                            best.add(v)
                    best_size = size
            # a matching has at most len(adj) // 2 edges, so when that is
            # too few to prune, the bound is not computed
            elif (size + len(adj) // 2 < best_size
                  or size + _matching_lb(adj) < best_size):
                # maximum degree, then lowest id
                v = -max(zip(map(len, adj.values()), map(int.__neg__, adj)))[1]
                # exclude v (all its neighbors join the cover) below include v
                mark = len(undo), len(chosen), len(folds)
                stack.append((*mark, tuple(adj[v])))
                stack.append((*mark, (v,)))
        return best, True
    except _Deadline:
        return best, False


def exact_solve(
    g: Graph,
    problem: str,
    cand: Candidates | None = None,
    time_limit: float = TIME_LIMIT,
) -> Solution:
    """Exact branch-and-reduce solve, restricted to ``cand`` by
    :func:`_restrict`: one minimum vertex cover search serves both problems.

    The search (:func:`_bb_mvc`) is a depth-first loop over an explicit
    stack, seeded with the greedy cover as its incumbent, so it neither
    recurses nor changes any process-wide setting. Reductions for nodes of
    degree 0, 1 and 2 run at every search node from a worklist of
    low-degree nodes, lowest id first: a degree-2 node whose neighbors are
    adjacent puts both in the cover, and one whose neighbors are not is
    folded with them into one merged node. Branching is on the
    maximum-degree undecided node, ties to the lowest id; and a matching,
    greedy by ascending degree and grown along three-edge augmenting paths,
    bounds covers from below. The reduced graph and the branch node depend
    only on the current graph, so the bound decides only how much is
    searched, never which cover is returned. Only a leaf that beats the
    incumbent unfolds its merged nodes, so every incumbent is a cover of
    the searched graph. An independent set is the complement of a minimum
    vertex cover.

    On timeout the best incumbent found so far is returned with
    ``optimal=False``; an independent set is then topped up with the
    graph's free nodes so that a full-space result stays maximal.
    """
    if not time_limit > 0:  # NaN too: no time would ever pass it
        raise ValueError("time_limit must be positive")
    problem = _norm_problem(problem)
    deadline = time.perf_counter() + time_limit
    optimal = False

    def search(sub: Graph) -> np.ndarray:
        nonlocal optimal
        cover, optimal = _bb_mvc(sub, deadline)
        in_set = np.ones(sub.n, dtype=bool)
        in_set[list(cover)] = False
        if problem == MVC:
            return ~in_set
        # a timed-out cover need not be minimal, so its complement need not
        # be maximal; additions only tighten, so one ascending pass with an
        # inline recheck adds every free node (none when optimal)
        free = np.flatnonzero(~in_set & (sub.count_in_mask(in_set) == 0)).tolist()
        if free:
            adj = sub.neighbor_lists()  # cached by _bb_mvc
            for v in free:
                if not any(in_set[u] for u in adj[v]):
                    in_set[v] = True
        return in_set

    s = _restrict(g, cand, problem, "exact", search)
    s.optimal = optimal
    return s


# ---------------------------------------------------------------------------
# Dispatch by name

SOLVERS = ("greedy", "local-search", "exact")


def solve(
    g: Graph,
    problem: str,
    solver: str,
    cand: Candidates | None = None,
    time_limit: float = TIME_LIMIT,
) -> Solution:
    """Run the named solver for the named problem.

    ``time_limit`` is used by the exact solver only.
    """
    problem = _norm_problem(problem)
    if solver == "greedy":
        return greedy_mvc(g, cand) if problem == MVC else greedy_mis(g, cand)
    if solver == "local-search":
        return local_search_mvc(g, cand) if problem == MVC else local_search_mis(g, cand)
    if solver == "exact":
        return exact_solve(g, problem, cand, time_limit=time_limit)
    raise ValueError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
