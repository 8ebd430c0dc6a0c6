"""Greedy and local-search solvers, validators, and the coverage metric."""

import itertools

import numpy as np
import pytest

from _brute import (
    degree_order_start,
    drop_sweep_local_search_mvc,
    edge_array_induced,
    heap_greedy_mis,
    heap_greedy_mvc,
    restart_scan_local_search_mis,
)
from conftest import graph_from_edges, random_graph
from prunesolve.graph import Graph, NodeSet, generate_ba
from prunesolve.solvers import (
    MIS,
    MVC,
    Candidates,
    Solution,
    _induced,
    coverage,
    exact_solve,
    format_solution,
    greedy_mis,
    greedy_mvc,
    local_search_mis,
    local_search_mvc,
    solve,
    validate_solution,
)


def mvc_solution(g, ids, algorithm="greedy", restricted=False):
    return Solution(MVC, NodeSet.from_ids(ids, g.n), algorithm, 0.0,
                    restricted=restricted)


def mis_solution(g, ids, restricted=False):
    return Solution(MIS, NodeSet.from_ids(ids, g.n), "greedy", 0.0,
                    restricted=restricted)


def gnm_graph(n, m, seed):
    """Uniform random graph with n nodes and (at most) m distinct edges."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    key = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    return Graph(n, np.stack([key // n, key % n], axis=1))


class TestCandidates:
    def test_all_vs_restricted(self):
        assert Candidates().is_all
        c = Candidates(NodeSet.from_ids([0, 2], 4))
        assert not c.is_all
        assert list(c.good.ids()) == [0, 2]

    def test_mask_for_checks_universe(self, triangle):
        c = Candidates(NodeSet.from_ids([0], 5))
        with pytest.raises(ValueError):
            c.mask_for(triangle)

    def test_mask_for_all(self, triangle):
        assert Candidates().mask_for(triangle).all()


class TestCoverage:
    def test_triangle_fractions(self, triangle):
        assert coverage(triangle, mvc_solution(triangle, [0])) == pytest.approx(2 / 3)
        assert coverage(triangle, mvc_solution(triangle, [0, 1])) == 1.0

    def test_star_center(self, star5):
        assert coverage(star5, mvc_solution(star5, [0])) == 1.0

    def test_edgeless_is_fully_covered(self, edgeless6):
        assert coverage(edgeless6, mvc_solution(edgeless6, [])) == 1.0

    def test_rejects_mis_solutions(self, triangle):
        with pytest.raises(ValueError):
            coverage(triangle, mis_solution(triangle, [0]))


class TestValidation:
    def test_mis_edge_violation_named(self, triangle):
        rep = validate_solution(triangle, mis_solution(triangle, [0, 1]))
        assert not rep.ok
        assert any("(0, 1)" in f for f in rep.failures)

    def test_mvc_cover_passes(self, triangle):
        rep = validate_solution(triangle, mvc_solution(triangle, [0, 1]))
        assert rep.ok and rep.coverage == 1.0

    def test_mis_maximality_violation_named(self, path3):
        rep = validate_solution(path3, mis_solution(path3, [0]))
        assert not rep.ok
        assert any("node 2" in f for f in rep.failures)

    def test_restricted_mis_not_held_to_maximality(self, path3):
        rep = validate_solution(path3, mis_solution(path3, [0], restricted=True))
        assert rep.ok

    def test_full_greedy_mvc_must_cover(self, path3):
        rep = validate_solution(path3, mvc_solution(path3, [0]))
        assert not rep.ok
        assert any("not covered" in f for f in rep.failures)

    @pytest.mark.parametrize("algorithm", ["local-search", "exact"])
    def test_full_cover_checked_for_every_algorithm(self, path3, algorithm):
        rep = validate_solution(path3, mvc_solution(path3, [], algorithm))
        assert not rep.ok and rep.coverage == 0.0
        assert rep.failures == ["edge (0, 1) is not covered"]

    def test_restricted_mvc_not_held_to_coverage(self, path3):
        rep = validate_solution(path3, mvc_solution(path3, [0], restricted=True))
        assert rep.ok and rep.coverage == 0.5


class TestFormatSolution:
    def test_mvc_header_and_ids(self, triangle):
        s = greedy_mvc(triangle)
        lines = format_solution(triangle, s).splitlines()
        head = lines[0].split()
        assert head[0] == "mvc" and head[1] == "greedy"
        assert head[2] == str(s.size)
        assert head[3] == "1.000000"
        assert head[5] == "-"
        assert lines[1:] == [str(v) for v in sorted(s.nodes.ids())]

    def test_mis_coverage_dash_and_optimal_flag(self, triangle):
        s = exact_solve(triangle, MIS)
        head = format_solution(triangle, s).splitlines()[0].split()
        assert head[3] == "-"
        assert head[5] == "true"


class TestGreedyMvc:
    def test_triangle_tie_break(self, triangle):
        s = greedy_mvc(triangle)
        assert sorted(s.nodes.ids()) == [0, 1]
        assert coverage(triangle, s) == 1.0

    def test_star_takes_center(self, star5):
        s = greedy_mvc(star5)
        assert list(s.nodes.ids()) == [0]

    def test_restricted_path_needs_both_endpoints(self, path3):
        s = greedy_mvc(path3, Candidates(NodeSet.from_ids([0, 2], 3)))
        assert sorted(s.nodes.ids()) == [0, 2]
        assert coverage(path3, s) == 1.0
        assert s.restricted

    def test_restricted_stops_when_nothing_coverable(self):
        # candidate 3 touches no uncovered edge once 0 is picked
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        s = greedy_mvc(g, Candidates(NodeSet.from_ids([0, 3], 4)))
        assert list(s.nodes.ids()) == [0]
        assert coverage(g, s) == 1.0

    def test_full_space_always_covers(self):
        for seed in range(6):
            g = random_graph(30, 0.15, seed)
            s = greedy_mvc(g)
            assert validate_solution(g, s).ok
            assert coverage(g, s) == 1.0


class TestGreedyMis:
    def test_triangle_size_one(self, triangle):
        assert greedy_mis(triangle).size == 1

    def test_path_takes_endpoints(self, path3):
        assert sorted(greedy_mis(path3).nodes.ids()) == [0, 2]

    def test_edgeless_takes_everything(self, edgeless6):
        assert greedy_mis(edgeless6).size == 6

    def test_restricted_respects_full_edge_set(self, triangle):
        s = greedy_mis(triangle, Candidates(NodeSet.from_ids([0, 1], 3)))
        assert s.size == 1
        assert validate_solution(triangle, s).ok

    def test_full_space_maximal_everywhere(self):
        for seed in range(6):
            g = random_graph(30, 0.15, seed)
            s = greedy_mis(g)
            assert validate_solution(g, s).ok


def greedy_reference_graphs():
    """The greedy differential test's graphs: small named cases, then 240
    random ER (G(n, m)) and BA graphs with n <= 300, a third of them with
    isolated nodes added and all node ids shuffled."""
    none = np.empty((0, 2), dtype=np.int64)
    yield "n=0", Graph(0, none)
    yield "n=1", Graph(1, none)
    yield "edgeless", Graph(7, none)
    yield "star", graph_from_edges(6, [(0, i) for i in range(1, 6)])
    yield "star, centre last", graph_from_edges(6, [(5, i) for i in range(5)])
    yield "K5", graph_from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    rng = np.random.default_rng(11)
    for i in range(240):
        n = int(rng.integers(2, 301))
        if i % 2:
            g = gnm_graph(n, int(rng.integers(0, 3 * n)), i)
        else:
            g = generate_ba(n, int(rng.integers(1, min(4, n - 1) + 1)), i)
        if i % 3 == 0:
            extra = int(rng.integers(1, 20))
            perm = rng.permutation(n + extra)
            g = Graph(n + extra, perm[g.edge_array()])
        yield f"{'gnm' if i % 2 else 'ba'} #{i}", g


def clique_ladder(k, isolated, seed):
    """Cliques K1, ..., Kk and ``isolated`` more nodes, ids shuffled."""
    starts = np.cumsum([0, *range(1, k + 1)])
    edges = [(a + i, a + j) for a, b in zip(starts, starts[1:])
             for i in range(b - a) for j in range(i + 1, b - a)]
    n = int(starts[-1]) + isolated
    perm = np.random.default_rng(seed).permutation(n)
    return Graph(n, perm[np.array(edges)])


def greedy_reference_spaces(g, rng):
    """Full space, then empty, full, single-node and random candidate sets."""
    yield Candidates()
    yield Candidates(NodeSet.from_ids([], g.n))
    yield Candidates(NodeSet.from_ids(np.arange(g.n), g.n))
    if g.n:
        yield Candidates(NodeSet.from_ids([int(rng.integers(g.n))], g.n))
    for frac in (0.2, 0.5, 0.8):
        yield Candidates(NodeSet.from_ids(np.flatnonzero(rng.random(g.n) < frac), g.n))


class TestGreedyMatchesHeapReference:
    @pytest.mark.parametrize("solver, reference", [
        (greedy_mvc, heap_greedy_mvc), (greedy_mis, heap_greedy_mis),
    ], ids=["mvc", "mis"])
    def test_same_sets_as_tuple_heap(self, solver, reference):
        rng = np.random.default_rng(5)
        cases = 0
        for name, g in greedy_reference_graphs():
            for cand in greedy_reference_spaces(g, rng):
                got = solver(g, cand)
                want = reference(g, cand)
                assert got.nodes == want.nodes, (name, cand.good)
                assert got.restricted == want.restricted
                cases += 1
        assert cases == 6 * 7 - 1 + 240 * 7

    @pytest.mark.parametrize("build", [
        lambda: generate_ba(20000, 4, 1), lambda: clique_ladder(40, 5, 3),
    ], ids=["ba-20k", "clique ladder"])
    def test_same_mis_sets_where_the_frontier_rises(self, build):
        # BA-20K holds most of its nodes above the frontier; on the ladder
        # the pool's lowest residual degree rises by one per pick, so the
        # frontier is raised several times
        g = build()
        rng = np.random.default_rng(17)
        some = Candidates(NodeSet.from_ids(np.flatnonzero(rng.random(g.n) < 0.4), g.n))
        for cand in (Candidates(), some):
            got = greedy_mis(g, cand)
            want = heap_greedy_mis(g, cand)
            assert got.nodes == want.nodes, cand.good
            assert got.restricted == want.restricted


def lone_heavy_mask(g, rng):
    """The lowest-degree 30% of the nodes (ties to the lower id) and a few
    random ones: on a BA graph, most of them have no neighbor in the set."""
    mask = np.zeros(g.n, dtype=bool)
    mask[np.argsort(g.degrees(), kind="stable")[:3 * g.n // 10]] = True
    mask[rng.integers(0, g.n, size=max(1, g.n // 100))] = True
    return mask


def lone_free_mask(g, rng):
    """Both ends of a random 15% of the edges: every node of the set has a
    neighbor in it."""
    mask = np.zeros(g.n, dtype=bool)
    e = g.edge_array()
    mask[e[rng.random(len(e)) < 0.15].ravel()] = True
    return mask


class TestInduced:
    def test_same_graph_as_edge_array_filter(self):
        # empty, full, random, lone-heavy and lone-free masks on the greedy
        # test's graphs, a third of them with shuffled ids and isolated nodes
        rng = np.random.default_rng(29)
        cases = lone = 0
        for name, g in greedy_reference_graphs():
            masks = [np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool),
                     rng.random(g.n) < 0.5]
            if g.n:
                masks.append(lone_heavy_mask(g, rng))
            if g.m:
                masks.append(lone_free_mask(g, rng))
            for mask in masks:
                sub, ids = _induced(g, mask)
                want, want_ids = edge_array_induced(g, mask)
                assert sub.n == want.n and sub.m == want.m, name
                assert np.array_equal(sub.offsets, want.offsets), name
                assert np.array_equal(sub.targets, want.targets), name
                assert np.array_equal(ids, want_ids), name
                if mask.all():
                    assert sub is g
                lone += int(np.count_nonzero(sub.degrees() == 0))
                cases += 1
        assert cases > 5 * 200 and lone > 0


class TestRestrictedLoneCandidates:
    """Restricted greedy and local search against their references on
    BA-2000 candidate sets made mostly of lone nodes, or of none."""

    G = generate_ba(2000, 4, 6)

    @pytest.mark.parametrize("make, lone_share", [
        (lone_heavy_mask, (0.5, 1.0)), (lone_free_mask, (0.0, 0.0)),
    ], ids=["mostly lone", "no lone"])
    def test_same_sets_as_references(self, make, lone_share):
        g = self.G
        mask = make(g, np.random.default_rng(8))
        share = np.count_nonzero(mask & (g.count_in_mask(mask) == 0)) / mask.sum()
        assert lone_share[0] <= share <= lone_share[1], share
        cand = Candidates(NodeSet(mask))
        for solver, reference in ((greedy_mis, heap_greedy_mis),
                                  (local_search_mis, restart_scan_local_search_mis)):
            got = solver(g, cand)
            want = reference(g, cand)
            assert got.nodes == want.nodes, solver.__name__
            assert got.restricted and want.restricted


class TestLocalSearchMvc:
    def test_triangle_removal(self, triangle):
        # init = {0,1,2}; node 0 is scanned first and removed
        s = local_search_mvc(triangle, Candidates(NodeSet.from_ids([0, 1, 2], 3)))
        assert sorted(s.nodes.ids()) == [1, 2]

    def test_star_keeps_center(self):
        # center last so the ascending scan removes each leaf first
        g = graph_from_edges(5, [(4, i) for i in range(4)])
        s = local_search_mvc(g, Candidates(NodeSet.from_ids(range(5), 5)))
        assert list(s.nodes.ids()) == [4]

    def test_restricted_pair_is_stable(self, path3):
        s = local_search_mvc(path3, Candidates(NodeSet.from_ids([0, 2], 3)))
        assert sorted(s.nodes.ids()) == [0, 2]

    def test_full_space_cover_and_local_minimality(self):
        for seed in range(8):
            g = random_graph(40, 0.12, seed)
            s = local_search_mvc(g)
            assert coverage(g, s) == 1.0
            inside = g.count_in_mask(s.nodes.mask)
            degs = g.degrees()
            removable = s.nodes.mask & (inside == degs)
            assert not removable.any()

    def test_restricted_subset_of_candidates(self):
        g = random_graph(40, 0.12, 4)
        cand = Candidates(NodeSet.from_ids(range(0, 40, 2), 40))
        s = local_search_mvc(g, cand)
        assert not (s.nodes.mask & ~cand.good.mask).any()

    def test_same_coverage_as_drop_sweep_never_larger(self):
        # random graphs with all nodes or a random 70% of them as
        # candidates, then the restart-scan reference spaces: the removed
        # set is independent and holds no candidate with a non-candidate
        # neighbor, so exactly the sweep's edges stay covered
        rng = np.random.default_rng(13)
        spaces = []
        for _ in range(120):
            n = int(rng.integers(4, 41))
            g = random_graph(n, float(rng.choice([0.0, 0.1, 0.25, 0.4])),
                             int(rng.integers(1 << 20)))
            spaces.append((g, Candidates()))
            spaces.append((g, Candidates(NodeSet(rng.random(n) < 0.7))))
        spaces += [s for kind in REFERENCE_KINDS for n in REFERENCE_SIZES
                   for s in reference_spaces(kind, n)]
        smaller = 0
        for g, cand in spaces:
            got = local_search_mvc(g, cand)
            want = drop_sweep_local_search_mvc(g, cand)
            e = g.edge_array()
            covered = got.nodes.mask[e[:, 0]] | got.nodes.mask[e[:, 1]]
            swept = want.nodes.mask[e[:, 0]] | want.nodes.mask[e[:, 1]]
            assert np.array_equal(covered, swept)
            assert got.size <= want.size
            assert not (got.nodes.mask & ~cand.mask_for(g)).any()
            assert got.restricted == want.restricted
            if cand.is_all:  # no cover node has all its neighbors inside
                inside = g.count_in_mask(got.nodes.mask)
                assert not (got.nodes.mask & (inside == g.degrees())).any()
            smaller += got.size < want.size
        # the check means little unless the swaps often shrink the cover
        assert smaller >= len(spaces) // 10, (smaller, len(spaces))

    def test_candidates_minus_restart_scan_mis_of_inner_candidates(self):
        # the cover is the candidates minus the reference MIS of those whose
        # neighbors are all candidates, which starts by their degrees in the
        # whole graph: the restart-scan reference spaces, then each of their
        # graphs with random 70% and 90% masks
        rng = np.random.default_rng(29)
        spaces = []
        for kind in REFERENCE_KINDS:
            for n in REFERENCE_SIZES:
                for g, cand in reference_spaces(kind, n):
                    spaces.append((g, cand.mask_for(g)))
                for frac in (0.7, 0.9):
                    spaces += [(g, rng.random(n) < frac) for _ in range(5)]
        for g, eligible in spaces:
            inner = eligible & (g.count_in_mask(~eligible) == 0)
            want = restart_scan_local_search_mis(g, Candidates(NodeSet(inner)))
            got = local_search_mvc(g, Candidates(NodeSet(eligible)))
            assert np.array_equal(got.nodes.mask, eligible & ~want.nodes.mask)

    def test_full_space_complement_has_no_swap(self):
        # brute force: the complement is independent and maximal, and no
        # node of it can be traded for two outside nodes
        for seed in range(60):
            n = 4 + seed % 9
            g = random_graph(n, (0.2, 0.35, 0.5)[seed % 3], seed)
            rest = ~local_search_mvc(g).nodes.mask
            e = g.edge_array()

            def independent(mask):
                return not (mask[e[:, 0]] & mask[e[:, 1]]).any()

            assert independent(rest)
            out = np.flatnonzero(~rest).tolist()
            for u in out:
                grown = rest.copy()
                grown[u] = True
                assert not independent(grown), (seed, u)
            for v in np.flatnonzero(rest).tolist():
                for a, b in itertools.combinations(out, 2):
                    traded = rest.copy()
                    traded[[a, b]] = True
                    traded[v] = False
                    assert not independent(traded), (seed, v, a, b)

    def test_swap_beats_drop_sweep(self):
        # the sweep drops the degree-ordered start {1, 4}; the swap trades
        # node 1 for both ends of the path 2-1-3, so the cover loses a node
        g = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        assert drop_sweep_local_search_mvc(g).nodes.ids().tolist() == [0, 2, 3]
        s = local_search_mvc(g)
        assert s.nodes.ids().tolist() == [0, 1]
        assert validate_solution(g, s).ok


REFERENCE_KINDS = ("ba", "gnm")
REFERENCE_SIZES = (5, 9, 20, 50, 120, 300, 1000, 3000)


def reference_spaces(kind, n):
    """One graph of the restart-scan differential test, in full space and
    with four candidate fractions."""
    g = generate_ba(n, min(3, n - 1), n) if kind == "ba" else gnm_graph(n, 2 * n, n)
    rng = np.random.default_rng(n)
    yield g, Candidates()
    for frac in (0.1, 0.4, 0.7, 0.9):
        yield g, Candidates(NodeSet.from_ids(np.flatnonzero(rng.random(n) < frac), n))


class TestLocalSearchMis:
    def test_path_swap_reaches_endpoints(self):
        # path 2-1-3 whose endpoints also touch node 0, which the leaf 4
        # keeps out: degree order starts {1, 4}, and only a (1,2)-swap of
        # the middle for the endpoints reaches the optimum
        g = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        assert np.flatnonzero(degree_order_start(g, np.ones(5, bool))).tolist() == [1, 4]
        assert local_search_mis(g).nodes.ids().tolist() == [2, 3, 4]

    def test_triangle_no_swap_possible(self, triangle):
        assert local_search_mis(triangle).size == 1

    def test_cycle5_reaches_optimum(self, cycle5):
        s = local_search_mis(cycle5)
        assert s.size == 2
        assert validate_solution(cycle5, s).ok

    def test_claw_swap_plus_free_nodes(self):
        # node 3 has degree 2; 0, 1, 2 and 6 have 3; 4 and 5 have 5. The
        # start {0, 3} blocks every other node. The claw at 0 swaps to its
        # one-tight pair {1, 2}, which frees its third leaf 6; re-adding 6
        # gives the unique optimum.
        g = graph_from_edges(7, [(0, 1), (0, 2), (0, 6), (1, 4), (1, 5), (2, 4),
                                 (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)])
        assert np.flatnonzero(degree_order_start(g, np.ones(7, bool))).tolist() == [0, 3]
        s = local_search_mis(g)
        assert s.nodes.ids().tolist() == [1, 2, 3, 6]
        assert s.nodes == restart_scan_local_search_mis(g).nodes

    def test_full_space_independent_and_maximal(self):
        for seed in range(8):
            g = random_graph(40, 0.12, seed)
            s = local_search_mis(g)
            assert validate_solution(g, s).ok

    def test_restricted_stays_in_candidates(self):
        g = random_graph(40, 0.12, 5)
        cand = Candidates(NodeSet.from_ids(range(0, 40, 3), 40))
        s = local_search_mis(g, cand)
        assert not (s.nodes.mask & ~cand.good.mask).any()
        assert validate_solution(g, s).ok

    def test_star_leaves_start_whatever_their_ids(self, star5):
        # the leaves (degree 1) come before the center (node 0), so the
        # start is already the unique optimum
        assert local_search_mis(star5).nodes.ids().tolist() == [1, 2, 3, 4]

    def test_swap_makes_a_lower_node_swappable(self):
        # start {0, 2, 3, 9}: node 2 has one one-tight neighbor (8), as 4
        # and 10 are two-tight; node 3 has 6 and 7. The swap 3 -> {6, 7}
        # leaves 10 one-tight on 2, so node 2 (below 3) now swaps to
        # {8, 10}. Scanning on upward from 3 would stop at {0, 2, 6, 7, 9}.
        g = graph_from_edges(11, [
            (0, 4), (0, 5), (1, 6), (1, 7), (1, 9), (2, 4), (2, 8), (2, 10),
            (3, 6), (3, 7), (3, 10), (4, 8), (5, 6), (5, 7), (5, 8), (5, 9),
            (5, 10)])
        start = degree_order_start(g, np.ones(11, bool))
        assert np.flatnonzero(start).tolist() == [0, 2, 3, 9]
        s = local_search_mis(g)
        assert s.nodes.ids().tolist() == [0, 6, 7, 8, 9, 10]
        assert s.nodes == restart_scan_local_search_mis(g).nodes

    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_matches_restart_scan_reference(self, kind, n):
        for g, cand in reference_spaces(kind, n):
            got = local_search_mis(g, cand)
            want = restart_scan_local_search_mis(g, cand)
            assert got.nodes == want.nodes, (kind, n)
            assert got.restricted == want.restricted

    def test_reference_cases_swap(self):
        # the differential test above only means something if its 80 cases
        # swap: with no swap, the result is the start
        swapped = [not np.array_equal(local_search_mis(g, cand).nodes.mask,
                                      degree_order_start(g, cand.mask_for(g)))
                   for kind in REFERENCE_KINDS for n in REFERENCE_SIZES
                   for g, cand in reference_spaces(kind, n)]
        assert len(swapped) == 80 and sum(swapped) >= len(swapped) // 3, sum(swapped)


class TestCrossSolverProperties:
    def test_mis_ordering_with_exact(self):
        for seed in range(5):
            g = random_graph(14, 0.3, seed)
            best = exact_solve(g, MIS).size
            assert best >= local_search_mis(g).size
            assert best >= greedy_mis(g).size

    def test_restricted_exact_beats_restricted_greedy(self):
        for seed in range(5):
            g = random_graph(14, 0.3, seed)
            rng = np.random.default_rng(seed)
            cand = Candidates(NodeSet(rng.random(g.n) < 0.6))
            assert exact_solve(g, MIS, cand).size >= greedy_mis(g, cand).size

    def test_solution_metadata(self, triangle):
        s = greedy_mvc(triangle)
        assert s.problem == MVC and s.algorithm == "greedy"
        assert s.runtime >= 0.0 and not s.restricted
        assert exact_solve(triangle, MVC).optimal is True


class TestSolveDispatch:
    def test_matches_direct_calls(self):
        g = random_graph(14, 0.3, 2)
        cand = Candidates(NodeSet.from_ids(range(0, 14, 2), 14))
        pairs = [
            (solve(g, MVC, "greedy", cand), greedy_mvc(g, cand)),
            (solve(g, MIS, "greedy"), greedy_mis(g)),
            (solve(g, MVC, "local-search"), local_search_mvc(g)),
            (solve(g, MIS, "local-search", cand), local_search_mis(g, cand)),
            (solve(g, MIS, "exact", cand), exact_solve(g, MIS, cand)),
        ]
        for got, want in pairs:
            assert (got.problem, got.algorithm) == (want.problem, want.algorithm)
            assert got.nodes == want.nodes and got.restricted == want.restricted

    def test_exact_time_limit_passed_through(self):
        g = random_graph(120, 0.2, 1)
        assert solve(g, MVC, "exact", time_limit=1e-4).optimal is False

    def test_unknown_names_rejected(self, triangle):
        with pytest.raises(ValueError, match="unknown solver 'tabu'"):
            solve(triangle, MVC, "tabu")
        with pytest.raises(ValueError, match="unknown problem 'vc'"):
            solve(triangle, "vc", "greedy")
