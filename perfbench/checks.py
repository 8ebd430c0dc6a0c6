"""Output checks made apart from the program, plus their self-tests.

Each check takes the benchmark's own edge array and what the program
printed or wrote, and returns a list of failure messages (empty when the
output is correct). Nothing here imports prunesolve.

Run ``python3 perfbench/checks.py`` to plant one fault per check and see
each rejected; ``run.py`` runs the same self-tests before every run.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np

# Report columns that carry timings; the rest must repeat exactly.
TIMING_COLUMNS = ("runtime_s", "speedup", "infer_teacher_ms", "infer_student_ms")
REPORT_SOLVERS = ("greedy", "local-search")
REPORT_VARIANTS = ("baseline", "pruned_pt", "pruned")


def _mask(n: int, ids: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def check_ids(n: int, ids: np.ndarray, what: str) -> list[str]:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return [f"{what}: node id out of range [0, {n})"]
    if np.unique(ids).size != ids.size:
        return [f"{what}: repeated node id"]
    return []


def check_independent(n: int, edges: np.ndarray, ids: np.ndarray,
                      what: str) -> list[str]:
    mask = _mask(n, ids)
    inside = mask[edges[:, 0]] & mask[edges[:, 1]]
    if inside.any():
        u, v = edges[int(np.flatnonzero(inside)[0])]
        return [f"{what}: edge ({u}, {v}) has both endpoints in the set"]
    return []


def check_maximal(n: int, edges: np.ndarray, ids: np.ndarray,
                  what: str) -> list[str]:
    mask = _mask(n, ids)
    blocked = mask.copy()
    blocked[edges[mask[edges[:, 0]], 1]] = True
    blocked[edges[mask[edges[:, 1]], 0]] = True
    if not blocked.all():
        return [f"{what}: node {int(np.flatnonzero(~blocked)[0])} could be "
                "added, the set is not maximal"]
    return []


def check_cover(n: int, edges: np.ndarray, ids: np.ndarray,
                what: str) -> list[str]:
    mask = _mask(n, ids)
    missed = ~(mask[edges[:, 0]] | mask[edges[:, 1]])
    if missed.any():
        u, v = edges[int(np.flatnonzero(missed)[0])]
        return [f"{what}: edge ({u}, {v}) is not covered"]
    return []


def check_subset(ids: np.ndarray, cand: np.ndarray, what: str) -> list[str]:
    outside = np.setdiff1d(ids, cand)
    if outside.size:
        return [f"{what}: node {int(outside[0])} is not a candidate"]
    return []


def check_gallai(n: int, mvc_size: int, mis_size: int, what: str) -> list[str]:
    if mvc_size + mis_size != n:
        return [f"{what}: |MVC| {mvc_size} + |MIS| {mis_size} != n {n}"]
    return []


def parse_solution(text: str, n: int, problem: str,
                   what: str) -> tuple[np.ndarray, list[str]]:
    """Parse ``solve`` output: a header ``problem algorithm size ...`` and
    one node id per line. Returns the ids and any format failures."""
    lines = text.strip().splitlines()
    if not lines:
        return np.empty(0, np.int64), [f"{what}: empty output"]
    head = lines[0].split()
    if len(head) != 6 or head[0] != problem:
        return np.empty(0, np.int64), [f"{what}: bad header {lines[0]!r}"]
    try:
        ids = np.array([int(x) for x in lines[1:]], dtype=np.int64)
        size = int(head[2])
    except ValueError:
        return np.empty(0, np.int64), [f"{what}: non-integer node id or size"]
    failures = check_ids(n, ids, what)
    if size != ids.size:
        failures.append(f"{what}: header size {size} but {ids.size} ids")
    return ids, failures


def parse_candidates(text: str, n: int) -> tuple[np.ndarray, list[str]]:
    """Parse a good-node file; it must name a non-empty strict subset."""
    rows = [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.startswith("#")]
    try:
        ids = np.array([int(x) for x in rows], dtype=np.int64)
    except ValueError:
        return np.empty(0, np.int64), ["candidate file: non-integer node id"]
    failures = check_ids(n, ids, "candidate file")
    if not 0 < ids.size < n:
        failures.append(f"candidate file: {ids.size} of {n} nodes, "
                        "not a non-empty strict subset")
    return ids, failures


def read_report(csv_path, json_path) -> tuple[list[dict], list[tuple], list[str]]:
    """Rows of the JSON report, the CSV rows without timing columns, and
    failures where the two files disagree."""
    with open(json_path) as f:
        rows = json.load(f)["rows"]
    with open(csv_path, newline="") as f:
        table = list(csv.reader(f))
    header, body = table[0], table[1:]
    keep = [i for i, c in enumerate(header) if c not in TIMING_COLUMNS]
    stable = [tuple(r[i] for i in keep) for r in body]
    failures = []
    csv_keys = [(r[header.index("solver")], r[header.index("variant")],
                 int(r[header.index("size")])) for r in body]
    json_keys = [(r["solver"], r["variant"], r["size"]) for r in rows]
    if csv_keys != json_keys:
        failures.append("report: CSV and JSON rows differ")
    return rows, stable, failures


def check_report(rows: list[dict], n: int, m: int, matching: int) -> list[str]:
    """The MVC pipeline report: every solver x variant row once, sizes of
    the input, full covers no smaller than a matching, real pruning."""
    failures = []
    keys = sorted((r["solver"], r["variant"]) for r in rows)
    want = sorted((s, v) for s in REPORT_SOLVERS for v in REPORT_VARIANTS)
    if keys != want:
        return [f"report: rows {keys}, expected {want}"]
    for r in rows:
        what = f"report {r['solver']}/{r['variant']}"
        if (r["n"], r["m"]) != (n, m):
            failures.append(f"{what}: n, m = {r['n']}, {r['m']}, input has {n}, {m}")
        if r["variant"] == "baseline":
            if r["coverage"] != 1.0:
                failures.append(f"{what}: full-space coverage {r['coverage']}")
            if r["size"] < matching:
                failures.append(f"{what}: cover of {r['size']} is smaller than "
                                f"a matching of {matching}")
        if r["variant"] == "pruned" and not 0.0 < r["prune_ratio"] < 1.0:
            failures.append(f"{what}: prune ratio {r['prune_ratio']}")
    return failures


def cover_size(row: dict, m: int) -> int:
    """Size of a full cover built from a partial one by adding one endpoint
    per uncovered edge, so lost coverage cannot pass for a smaller cover."""
    return row["size"] + round((1.0 - row["coverage"]) * m)


# ---------------------------------------------------------------------------
# Self-tests: each check must pass a correct output and reject a planted fault.


def self_test() -> list[str]:
    """Return the names of checks that did not behave; empty when all did."""
    # path 0-1-2-3-4 plus the isolated node 5
    n = 6
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4]], dtype=np.int64)
    a = lambda *xs: np.array(xs, dtype=np.int64)  # noqa: E731
    cases = [
        ("ids in range", check_ids(n, a(0, 5), "t"), check_ids(n, a(0, 6), "t")),
        ("distinct ids", check_ids(n, a(1, 3), "t"), check_ids(n, a(1, 1), "t")),
        ("independence", check_independent(n, edges, a(0, 2, 4), "t"),
         check_independent(n, edges, a(0, 1, 4), "t")),
        ("maximality", check_maximal(n, edges, a(0, 2, 4, 5), "t"),
         check_maximal(n, edges, a(0, 2, 5), "t")),
        ("coverage", check_cover(n, edges, a(1, 3), "t"),
         check_cover(n, edges, a(1, 2), "t")),
        ("candidate subset", check_subset(a(1, 3), a(1, 2, 3), "t"),
         check_subset(a(1, 4), a(1, 2, 3), "t")),
        ("Gallai identity", check_gallai(n, 2, 4, "t"),
         check_gallai(n, 2, 3, "t")),
        ("strict candidate subset", parse_candidates("# good\n1\n3\n", n)[1],
         parse_candidates("0\n1\n2\n3\n4\n5\n", n)[1]),
        ("solution header", parse_solution("mis greedy 2 - 0.1 -\n0\n2\n", n,
                                           "mis", "t")[1],
         parse_solution("mis greedy 3 - 0.1 -\n0\n2\n", n, "mis", "t")[1]),
    ]
    good_row = {"solver": "greedy", "variant": "baseline", "n": n, "m": 4,
                "size": 2, "coverage": 1.0, "prune_ratio": 1.0}
    rows = [dict(good_row, solver=s, variant=v,
                 prune_ratio=0.5 if v != "baseline" else 1.0)
            for s in REPORT_SOLVERS for v in REPORT_VARIANTS]
    uncovered = [dict(r, coverage=0.75) if r["variant"] == "baseline" else r
                 for r in rows]
    unpruned = [dict(r, prune_ratio=1.0) for r in rows]
    cases += [
        ("report coverage", check_report(rows, n, 4, 2),
         check_report(uncovered, n, 4, 2)),
        ("report pruning", check_report(rows, n, 4, 2),
         check_report(unpruned, n, 4, 2)),
        ("report rows", check_report(rows, n, 4, 2),
         check_report(rows[:-1], n, 4, 2)),
    ]
    broken = [name for name, ok, bad in cases if ok or not bad]
    if cover_size({"size": 3, "coverage": 0.5}, 4) != 5:
        broken.append("cover size")
    return broken


if __name__ == "__main__":
    broken = self_test()
    for name in broken:
        print(f"FAIL {name}")
    print("checker self-tests:", "failed" if broken else "all passed")
    sys.exit(1 if broken else 0)
