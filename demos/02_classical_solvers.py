"""
Classical solvers: greedy, local search, and exact branch and bound
===================================================================

Minimum vertex cover and maximum independent set on small graphs, in both
the full search space and a restricted candidate set. Restriction is the
hook the learned pruner plugs into later.
"""

import numpy as np

from prunesolve.graph import Graph, NodeSet, generate_ba
from prunesolve.solvers import (
    Candidates,
    coverage,
    exact_solve,
    format_solution,
    greedy_mis,
    greedy_mvc,
    local_search_mis,
    local_search_mvc,
    validate_solution,
)

triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])

# Greedy cover keeps taking a maximum-residual-degree node until every edge
# is covered. On a star that is just the center.
print("greedy MVC on a star:")
print(format_solution(star, greedy_mvc(star)))

# Greedy independent set is the mirror image: repeatedly take a
# minimum-degree node and discard its neighbors.
print("greedy MIS on a triangle:")
print(format_solution(triangle, greedy_mis(triangle)))

# Local search visits nodes by ascending degree and needs no seed. One
# search serves both problems: an independent set starts greedily, then
# uses (1,2)-swaps, trading one node for two. A cover is every node but
# such a set, so for covers the same swap trades two nodes for one. Here
# the start takes the middle of the path 2-1-3 (and the leaf 4), and a swap
# trades it for both ends.
swappy = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
ls = local_search_mis(swappy)
print("local-search MIS:", [int(v) for v in ls.nodes.ids()])
print("local-search MVC:", [int(v) for v in local_search_mvc(swappy).nodes.ids()])

# The exact solver is branch and bound for vertex cover with degree
# reductions and a matching bound; an independent set is the complement of a
# minimum cover. On small graphs it proves optimality.
c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
for problem in ("mvc", "mis"):
    sol = exact_solve(c5, problem)
    print(f"exact {problem} on a 5-cycle: size {sol.size}, "
          f"optimal {sol.optimal}")

# Every solver also runs restricted to a candidate set. Restricted covers
# maximize covered edges first, then minimize size; restricted independent
# sets simply live inside the candidates.
ba = generate_ba(200, 3, seed=5)
rng = np.random.default_rng(1)
cand = Candidates(NodeSet(rng.random(ba.n) < 0.5))
full = greedy_mvc(ba)
part = greedy_mvc(ba, cand)
print(f"\nBA-200 greedy MVC: full size {full.size} covers "
      f"{round(coverage(ba, full) * ba.m)}/{ba.m} edges")
print(f"              restricted size {part.size} covers "
      f"{round(coverage(ba, part) * ba.m)}/{ba.m} edges")

# Validation is independent of the solvers and names the first offending
# edge or node, so a bad solution fails loudly.
report = validate_solution(ba, part)
print("restricted solution valid:", report.ok,
      " coverage:", round(report.coverage, 4))

from dataclasses import replace

bad = replace(exact_solve(triangle, "mis"), nodes=NodeSet(np.ones(3, dtype=bool)))
print("corrupted MIS report:", validate_solution(triangle, bad).failures[0])

# Local search never does worse than its degree-ordered start, and the
# exact solver is the floor (MVC) or ceiling (MIS) for both heuristics.
sizes = {
    "greedy": greedy_mvc(ba).size,
    "local-search": local_search_mvc(ba).size,
    "exact": exact_solve(ba, "mvc", time_limit=30.0).size,
}
print("\nBA-200 MVC sizes:", sizes)
