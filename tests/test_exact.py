"""Exact branch-and-bound solver against an exhaustive bitmask oracle."""

import hashlib
import itertools
import sys
import time

import numpy as np
import pytest

from _brute import (
    brute_max_matching,
    brute_mis,
    brute_mvc,
    forest_mvc_size,
    id_order_matching_lb,
    rescan_bb_mvc,
    set_difference_matching_lb,
)
from conftest import graph_from_edges, random_graph
from prunesolve import solvers
from prunesolve.graph import Graph, NodeSet, generate_ba
from prunesolve.solvers import (
    MIS,
    MVC,
    Candidates,
    coverage,
    exact_solve,
    greedy_mvc,
    validate_solution,
)


class TestHandCases:
    def test_cycle5(self, cycle5):
        mvc = exact_solve(cycle5, MVC)
        mis = exact_solve(cycle5, MIS)
        assert mvc.size == 3 and mvc.optimal is True
        assert mis.size == 2 and mis.optimal is True

    def test_path_degree_one_forcing(self, path3):
        # both reductions collapse the path to its middle node
        s = exact_solve(path3, MVC)
        assert list(s.nodes.ids()) == [1]

    def test_star(self, star5):
        assert exact_solve(star5, MVC).size == 1
        assert exact_solve(star5, MIS).size == 4

    def test_edgeless(self, edgeless6):
        assert exact_solve(edgeless6, MVC).size == 0
        assert exact_solve(edgeless6, MIS).size == 6

    def test_empty_candidates(self, path3):
        empty = Candidates(NodeSet(np.zeros(3, dtype=bool)))
        mvc = exact_solve(path3, MVC, empty)
        assert mvc.size == 0 and coverage(path3, mvc) == 0.0
        assert exact_solve(path3, MIS, empty).size == 0

    @pytest.mark.parametrize("limit", [0, float("nan")])
    def test_rejects_nonpositive_time_limit(self, path3, limit):
        with pytest.raises(ValueError):
            exact_solve(path3, MVC, time_limit=limit)


class TestRestrictedSemantics:
    def test_lexicographic_prefers_coverage_over_size(self):
        # covering all 4 path edges needs all three odd candidates even
        # though {2} alone would be a much smaller partial cover
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        s = exact_solve(g, MVC, Candidates(NodeSet.from_ids([0, 2, 4], 5)))
        assert sorted(s.nodes.ids()) == [0, 2, 4]
        assert coverage(g, s) == 1.0

    def test_forced_boundary_nodes_included(self, path3):
        s = exact_solve(path3, MVC, Candidates(NodeSet.from_ids([0, 2], 3)))
        assert sorted(s.nodes.ids()) == [0, 2]
        assert coverage(path3, s) == 1.0

    def test_restricted_mis_is_induced_subproblem(self, triangle):
        s = exact_solve(triangle, MIS, Candidates(NodeSet.from_ids([0, 1], 3)))
        assert s.size == 1
        assert validate_solution(triangle, s).ok


class TestOracleEquivalence:
    def test_full_space_matches_brute_force(self):
        for seed in range(20):
            g = random_graph(4 + seed % 11, 0.3, seed)
            mvc = exact_solve(g, MVC)
            mis = exact_solve(g, MIS)
            assert mvc.optimal and mis.optimal
            assert mvc.size == brute_mvc(g)[0]
            assert mis.size == brute_mis(g)
            assert coverage(g, mvc) == 1.0
            assert validate_solution(g, mis).ok
            # complement duality on the full space
            assert mvc.size + mis.size == g.n

    def test_restricted_matches_brute_force(self):
        for seed in range(20):
            g = random_graph(4 + seed % 11, 0.3, seed)
            rng = np.random.default_rng(1000 + seed)
            elig = rng.random(g.n) < 0.6
            cand = Candidates(NodeSet(elig))
            mvc = exact_solve(g, MVC, cand)
            want_size, want_cov = brute_mvc(g, elig)
            assert (mvc.size, round(coverage(g, mvc) * g.m)) == (want_size, want_cov)
            assert not (mvc.nodes.mask & ~elig).any()
            mis = exact_solve(g, MIS, cand)
            assert mis.size == brute_mis(g, elig)
            assert validate_solution(g, mis).ok


class TestSearchBehavior:
    def test_deterministic(self):
        g = random_graph(14, 0.3, 5)
        assert exact_solve(g, MVC).nodes == exact_solve(g, MVC).nodes
        assert exact_solve(g, MIS).nodes == exact_solve(g, MIS).nodes

    def test_timeout_returns_valid_incumbent(self):
        g = generate_ba(300, 4, seed=0)
        s = exact_solve(g, MVC, time_limit=1e-4)
        assert s.optimal is False
        assert coverage(g, s) == 1.0
        t = exact_solve(g, MIS, time_limit=1e-4)
        assert t.optimal is False
        assert validate_solution(g, t).ok

    def test_moderate_graph_finishes(self):
        g = generate_ba(40, 2, seed=3)
        s = exact_solve(g, MVC, time_limit=60)
        assert s.optimal is True
        assert coverage(g, s) == 1.0
        assert s.size <= 40

    def test_leaves_recursion_limit_alone(self, monkeypatch):
        # the search loops over an explicit stack, so it has no use for the
        # interpreter's recursion limit, which is shared by every thread
        def refuse(limit):
            raise AssertionError("exact_solve changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        # dense enough that some optima are only found after backtracking
        for seed in range(12):
            g = random_graph(10 + seed % 5, 0.5, seed)
            elig = np.random.default_rng(seed).random(g.n) < 0.6
            for mask in (None, elig):
                cand = None if mask is None else Candidates(NodeSet(mask))
                mvc = exact_solve(g, MVC, cand)
                mis = exact_solve(g, MIS, cand)
                assert mvc.optimal and mis.optimal
                assert (mvc.size, round(coverage(g, mvc) * g.m)) == brute_mvc(g, mask)
                assert mis.size == brute_mis(g, mask)

    def test_tied_optima_pinned(self, monkeypatch):
        # BA graphs have many optimal solutions; the digest pins which one the
        # search order picks, so reordering the search shows up here. Each
        # solve's size and flag are those of the rescanning search, so a new
        # digest can only come from a different choice among optima
        h = hashlib.sha256()
        for seed in range(10):
            g = generate_ba(150, 3, seed)
            for problem in (MVC, MIS):
                s = exact_solve(g, problem)
                with monkeypatch.context() as mp:
                    mp.setattr(solvers, "_bb_mvc", rescan_bb_mvc)
                    t = exact_solve(g, problem)
                assert s.optimal and (s.size, s.optimal) == (t.size, t.optimal)
                assert validate_solution(g, s).ok
                h.update(f"{problem} {seed} {s.nodes.ids().tolist()}\n".encode())
        assert h.hexdigest() == (
            "98da74e32ce82c3c58a1f85d14338fb04b4bf88aaeddfe903a3e3a9f91c5842a")

    def test_deadline_read_before_bounding(self, monkeypatch):
        # every popped frame reads the clock, not only the degree-1
        # reductions, which K(3,3) never runs; its greedy cover equals the
        # matching bound's limit, so the root would be bounded
        def refuse(adj):
            raise AssertionError("bounded after the deadline")

        monkeypatch.setattr(solvers, "_matching_lb", refuse)
        g = graph_from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        s = exact_solve(g, MVC, time_limit=1e-9)
        assert s.optimal is False
        assert coverage(g, s) == 1.0

    def test_timed_out_cover_complement_is_topped_up(self, monkeypatch):
        # a search cut short may return a valid cover that is not minimal;
        # the worst case is every node of its input, whose complement is empty
        monkeypatch.setattr(solvers, "_bb_mvc",
                            lambda sub, deadline: (set(range(sub.n)), False))
        g = random_graph(30, 0.15, 3)
        full = exact_solve(g, MIS)
        assert full.optimal is False
        assert validate_solution(g, full).ok
        elig = np.zeros(g.n, dtype=bool)
        elig[::2] = True
        part = exact_solve(g, MIS, Candidates(NodeSet(elig)))
        assert part.optimal is False
        assert validate_solution(g, part).ok
        # restricted validation does not ask for maximality, so check that no
        # candidate could still be added
        mask = part.nodes.mask
        assert not (mask & ~elig).any()
        assert not (elig & ~mask & (g.count_in_mask(mask) == 0)).any()


def _gnm(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    return graph_from_edges(n, [pairs[i] for i in sorted(keep)])


def _forest(n, rng):
    # each node joins a random earlier node, or starts a new tree
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n) if rng.random() < 0.8]
    return graph_from_edges(n, edges)


def _with_isolated(g, k, rng):
    # k extra isolated nodes, then every id shuffled
    perm = rng.permutation(g.n + k)
    return graph_from_edges(g.n + k, perm[g.edge_array()])


def _subdivided(g, rng):
    # every edge becomes a path of 2 or 3 edges through new nodes, so the
    # graph is full of degree-2 nodes whose folds nest
    edges, n = [], g.n
    for u, v in g.edge_array().tolist():
        inner = list(range(n, n + int(rng.integers(1, 3))))
        n += len(inner)
        path = [u, *inner, v]
        edges += zip(path, path[1:])
    return graph_from_edges(n, edges)


FAMILIES = ["gnm", "dense", "ba", "forest", "isolated", "subdivided"]


def _family(name, count=65):
    rng = np.random.default_rng(FAMILIES.index(name))
    graphs = []
    for i in range(count):
        if name == "gnm":
            n = int(rng.integers(2, 37))
            graphs.append(_gnm(n, int(rng.integers(0, 5 * n // 2 + 1)), rng))
        elif name == "dense":
            # denser: searches branch deeper, and an exclude side is often
            # searched after folds made on the include side
            n = int(rng.integers(16, 31))
            graphs.append(_gnm(n, 4 * n, rng))
        elif name == "ba":
            m = 1 + i % 4
            graphs.append(generate_ba(int(rng.integers(m + 1, 41)), m, i))
        elif name == "forest":
            graphs.append(_forest(int(rng.integers(1, 61)), rng))
        elif name == "subdivided":
            n = int(rng.integers(2, 13))
            g = _subdivided(_gnm(n, int(rng.integers(0, 2 * n + 1)), rng), rng)
            # half with shuffled ids, so the folds run in another order
            graphs.append(_with_isolated(g, 0, rng) if i % 2 else g)
        else:
            n = int(rng.integers(2, 31))
            base = (_gnm(n, int(rng.integers(0, 2 * n + 1)), rng) if i % 2
                    else generate_ba(max(n, 5), 1 + i % 4, i))
            graphs.append(_with_isolated(base, int(rng.integers(1, 9)), rng))
    return graphs


def _all_solves(graphs):
    """Every (graph, search space, problem) solve, in one fixed order."""
    out = []
    for i, g in enumerate(graphs):
        elig = np.random.default_rng(i).random(g.n) < 0.6
        for cand in (None, Candidates(NodeSet(elig))):
            for problem in (MVC, MIS):
                out.append(exact_solve(g, problem, cand))
    return out


class TestAgainstRescanSearch:
    """The worklist search against the rescanning search it replaced
    (``rescan_bb_mvc``, with its id-ordered greedy matching bound)."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_sizes_and_flags(self, family, monkeypatch):
        graphs = _family(family)
        new = _all_solves(graphs)
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_bb_mvc", rescan_bb_mvc)
            old = _all_solves(graphs)
        assert len(new) == 4 * len(graphs)
        for s, t in zip(new, old):
            assert (s.problem, s.size, s.optimal) == (t.problem, t.size, t.optimal)
            assert s.optimal is True
        for k, s in enumerate(new):
            assert validate_solution(graphs[k // 4], s).ok
        if family == "forest":  # full-space covers come first in each four
            assert [s.size for s in new[::4]] == [forest_mvc_size(g) for g in graphs]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_output_does_not_depend_on_bound(self, family, monkeypatch):
        # the reduced graph and the branch node depend only on the current
        # adjacency, so a weaker bound visits more nodes but returns the
        # same cover
        graphs = _family(family)
        new = _all_solves(graphs)
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_matching_lb", id_order_matching_lb)
            weak = _all_solves(graphs)
        for s, t in zip(new, weak):
            assert s.nodes == t.nodes


def _cycle(n):
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def _path(n):
    return graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])


def _hub_chains(lengths):
    # hubs 0 and 1 joined by chains of that many degree-2 nodes each (0: an
    # edge between the hubs)
    edges, n = [], 2
    for k in lengths:
        path = [0, *range(n, n + k), 1]
        n += k
        edges += zip(path, path[1:])
    return graph_from_edges(n, edges)


class TestFolding:
    """The degree-2 rules: a node whose neighbors are adjacent puts both in
    the cover, and one whose neighbors are not is folded with them."""

    @pytest.fixture
    def no_bound(self, monkeypatch):
        def refuse(adj):
            raise AssertionError("the matching bound ran")

        monkeypatch.setattr(solvers, "_matching_lb", refuse)

    def _solve_both(self, g, want_cover):
        mvc = exact_solve(g, MVC)
        mis = exact_solve(g, MIS)
        assert mvc.optimal and mis.optimal
        assert (mvc.size, mis.size) == (want_cover, g.n - want_cover)
        assert validate_solution(g, mvc).ok and validate_solution(g, mis).ok

    def test_cycles_and_paths_need_no_bound(self, no_bound):
        # folds shrink a cycle by two nodes at a time down to a triangle or
        # an edge, and a path by its leaves, so neither branches; brute
        # force confirms the closed forms up to 16 nodes
        for n in range(3, 41):
            for g, want in ((_cycle(n), (n + 1) // 2), (_path(n), n // 2)):
                if n <= 16:
                    assert brute_mvc(g)[0] == want
                self._solve_both(g, want)

    @pytest.mark.parametrize("lengths", [
        (1, 1, 1), (1, 2, 3), (2, 2, 2), (0, 1, 2), (2, 3), (4,),
        (1, 1, 1, 1, 1), (3, 4, 5), (1, 1, 2, 2, 3, 3),
    ])
    def test_chains_between_hubs_need_no_bound(self, no_bound, lengths):
        g = _hub_chains(lengths)
        self._solve_both(g, brute_mvc(g)[0])
        assert exact_solve(g, MIS).size == brute_mis(g)

    def test_restricted_subdivided_matches_brute_force(self):
        # small subdivided graphs, under 17 nodes, with random candidates
        rng = np.random.default_rng(42)
        graphs = [g for g in (_subdivided(_gnm(n, int(rng.integers(1, 2 * n + 1)), rng), rng)
                              for n in rng.integers(2, 7, size=80)) if g.n <= 16]
        assert len(graphs) > 40
        for g in graphs:
            for elig in (None, rng.random(g.n) < 0.6, rng.random(g.n) < 0.85):
                cand = None if elig is None else Candidates(NodeSet(elig))
                mvc = exact_solve(g, MVC, cand)
                mis = exact_solve(g, MIS, cand)
                assert mvc.optimal and mis.optimal
                assert (mvc.size, round(coverage(g, mvc) * g.m)) == brute_mvc(g, elig)
                assert mis.size == brute_mis(g, elig)
                assert validate_solution(g, mvc).ok and validate_solution(g, mis).ok
                if elig is not None:
                    assert not ((mvc.nodes.mask | mis.nodes.mask) & ~elig).any()


def _check_cut_short(g, mvc, mis, elig=None):
    """Full-space results must be a cover and a maximal set; restricted ones
    cover every edge that touches a candidate, and leave no candidate
    addable to the set."""
    assert validate_solution(g, mvc).ok and validate_solution(g, mis).ok
    if elig is not None:
        e = g.edge_array()
        c = mvc.nodes.mask
        touching = elig[e[:, 0]] | elig[e[:, 1]]
        assert (c[e[:, 0]] | c[e[:, 1]])[touching].all()
        s = mis.nodes.mask
        assert not ((c | s) & ~elig).any()
        assert not (elig & ~s & (g.count_in_mask(s) == 0)).any()


class TestCutShortWithFolds:
    """A search cut short returns its incumbent, which must be a real cover
    of the graph even while folds are applied: only a leaf that beats the
    incumbent unfolds into it."""

    @pytest.mark.parametrize("limit", [1e-4, 1e-3, 3e-3])
    def test_time_limits(self, limit):
        rng = np.random.default_rng(7)
        cut = 0
        for i in range(6):
            g = _subdivided(generate_ba(int(rng.integers(150, 300)), 4, i), rng)
            elig = rng.random(g.n) < 0.7
            for mask in (None, elig):
                cand = None if mask is None else Candidates(NodeSet(mask))
                mvc = exact_solve(g, MVC, cand, time_limit=limit)
                mis = exact_solve(g, MIS, cand, time_limit=limit)
                _check_cut_short(g, mvc, mis, mask)
                cut += (mvc.optimal is False) + (mis.optimal is False)
        assert cut > 0

    def test_every_cut_point(self, monkeypatch):
        # a clock that ticks once per read puts the deadline after each read
        # of the search in turn, from before the greedy incumbent to the end;
        # subdivided graphs fold without branching, and the G(n, 3n) ones
        # branch and fold
        rng = np.random.default_rng(3)
        graphs = [_family("subdivided")[k] for k in range(0, 65, 8)]
        graphs += [_subdivided(generate_ba(n, 3, n), rng) for n in (12, 20)]
        graphs += [_gnm(n, 3 * n, rng) for n in (30, 40, 60)]
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        cuts = improved = 0
        for g in graphs:
            elig = rng.random(g.n) < 0.7
            greedy = greedy_mvc(g).size
            for mask in (None, elig):
                cand = None if mask is None else Candidates(NodeSet(mask))
                for reads in itertools.count():
                    mvc = exact_solve(g, MVC, cand, time_limit=reads + 0.5)
                    mis = exact_solve(g, MIS, cand, time_limit=reads + 0.5)
                    _check_cut_short(g, mvc, mis, mask)
                    if mvc.optimal and mis.optimal:
                        break
                    cuts += 1
                    # cut after a leaf unfolded into a better incumbent
                    improved += mask is None and not mvc.optimal and mvc.size < greedy
        assert cuts > 500 and improved > 100


class TestMatchingBound:
    def test_never_above_maximum_matching_or_cover(self):
        rng = np.random.default_rng(5)
        graphs = [_gnm(n, int(rng.integers(0, 2 * n + 1)), rng)
                  for n in rng.integers(1, 13, size=120)]
        graphs += [_forest(int(n), rng) for n in rng.integers(1, 13, size=40)]
        tight = 0
        for g in graphs:
            adj = {v: set(nbrs) for v, nbrs in enumerate(g.neighbor_lists())}
            before = {v: set(nbrs) for v, nbrs in adj.items()}
            lb = solvers._matching_lb(adj)
            optimum = brute_mvc(g)[0]
            # the bound is the size of a matching, which is at most a
            # maximum matching, which is at most any cover
            assert 0 <= lb <= brute_max_matching(g) <= optimum
            assert adj == before  # the search keeps using adj after bounding
            tight += lb == optimum
        # a bound one too high fails on every graph where it is tight
        assert tight > len(graphs) // 2


    def test_same_value_as_set_difference_bound(self):
        # the scan for the lowest-ranked free neighbor picks the node the
        # set difference did, so every matching, and its size, is the same
        rng = np.random.default_rng(6)
        graphs = [_gnm(int(n), int(rng.integers(0, 3 * n + 1)), rng)
                  for n in rng.integers(1, 60, size=150)]
        graphs += _family("subdivided", 40)
        grew = 0
        for g in graphs:
            adj = {v: set(nbrs) for v, nbrs in enumerate(g.neighbor_lists())}
            want = set_difference_matching_lb(adj)
            assert solvers._matching_lb(adj) == want
            grew += want > id_order_matching_lb(adj)
        assert grew > 10  # the augmenting pass ran on some graphs


class TestTrees:
    def test_ba_tree_solved_by_leaf_reductions(self):
        # a tree is solved by degree-0 and degree-1 reductions alone, so a
        # 30K-node one must finish well inside the limit
        g = generate_ba(30000, 1, 0)
        mvc = exact_solve(g, MVC, time_limit=5)
        mis = exact_solve(g, MIS, time_limit=5)
        assert mvc.optimal is True and mis.optimal is True
        assert mvc.size == forest_mvc_size(g)
        assert mis.size == g.n - mvc.size
        assert validate_solution(g, mvc).ok and validate_solution(g, mis).ok
