"""The three workloads: set-up, one timed round, and the checks of its outputs.

A round runs the same program calls on the same inputs every time. It
reports the time of each timed call and the stage it belongs to (1 or 2,
see the README), a quality ratio against a bound the benchmark computes
itself, the operations it attempted, the ones that failed, and a digest of
its non-timing outputs, which must repeat exactly from round to round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import inputs

# The training graphs do not depend on --seed: a model is trained once on a
# chosen small graph and then meets varied inputs, so the seed varies only
# the graphs the model is applied to. A training graph drawn per seed made
# the student's prune ratio, and with it every pruned timing and the
# quality ratio, swing by a third between seeds.
TRAIN_GRAPH_SEED = 0


@dataclass
class Round:
    times: dict[str, tuple[int, float]] = field(default_factory=dict)  # call: stage, s
    quality: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # check failures
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    figures: dict[str, float] = field(default_factory=dict)  # sizes, for people

    @property
    def wall_s(self) -> float:
        return sum(dt for _, dt in self.times.values())

    def op(self, failures: list[str]) -> None:
        """Count one operation whose output failed ``failures`` checks."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.wrong.extend(failures)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _cli(cli, *argv) -> tuple[int, str, str]:
    """Run one prunesolve command in-process; exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


class PipelineMvc:
    """``bench.run_pipeline`` for MVC: train on a BA-500 file with greedy
    labels and the default teacher and student architectures, test on one
    BA-10K file with greedy and local search, master seed 7, then write the
    CSV and JSON reports.

    Only the epoch counts differ from the defaults (teacher 100, students
    200, against 500 and 1000): with the defaults one round takes about 45 s,
    so a run would time a single round.
    """

    name = "pipeline-mvc"
    setups = 3
    TRAIN_N, TEST_N, M = 500, 10000, 4
    TEACHER_EPOCHS, STUDENT_EPOCHS = 100, 200
    MASTER_SEED = 7

    def setup(self, ps, work: Path, seed: int) -> dict:
        files = {}
        for role, n, s in (("train", self.TRAIN_N, TRAIN_GRAPH_SEED),
                           ("test", self.TEST_N, seed)):
            n, edges = inputs.ba_graph(n, self.M, inputs.sub_seed(s, self.name, role))
            path = work / f"mvc_{role}.txt"
            inputs.write_edge_list(edges, n, path)
            files[role] = (path, n, edges)
        bench = ps.bench
        config = bench.PipelineConfig(
            problem="mvc",
            train_graph=bench.GraphSpec("train", path=str(files["train"][0])),
            test_graphs=[bench.GraphSpec("test", path=str(files["test"][0]))],
            solvers=["greedy", "local-search"],
            seed=self.MASTER_SEED,
        )
        # The configs made from the master seed, with fewer epochs.
        config.teacher = replace(config.teacher, epochs=self.TEACHER_EPOCHS)
        config.student = replace(config.student, epochs=self.STUDENT_EPOCHS)
        _, n, edges = files["test"]
        return {"ps": ps, "config": config, "n": n, "edges": edges,
                "csv": work / "report.csv", "json": work / "report.json"}

    def reference(self, st: dict) -> None:
        st["matching"] = inputs.maximal_matching_size(st["n"], st["edges"])

    def round(self, st: dict) -> Round:
        bench = st["ps"].bench
        r = Round()
        marks: dict[str, float] = {}

        def log(message):
            marks.setdefault(message.split(":")[0], time.perf_counter())

        t0 = time.perf_counter()
        try:
            report = bench.run_pipeline(st["config"], log=log)
            t_ret = time.perf_counter()
            bench.emit_report(report, "csv", st["csv"])
            bench.emit_report(report, "json", st["json"])
            t_end = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - a program failure is a failed operation
            r.op([f"run_pipeline: {type(e).__name__}: {e}"])
            return r
        t3 = marks.get("phase 3", t_end)
        r.times = {"train": (1, t3 - t0), "eval": (2, t_end - t3)}
        r.layers = {
            "bench.phase1_s": marks.get("phase 2", t3) - marks.get("phase 1", t0),
            "bench.phase2_s": t3 - marks.get("phase 2", t3),
            "bench.phase3_s": t_ret - t3,
        }
        rows, stable, failures = checks.read_report(st["csv"], st["json"])
        m = len(st["edges"])
        failures += checks.check_report(rows, st["n"], m, st["matching"])
        if set(marks) != {"phase 1", "phase 2", "phase 3"}:
            failures.append(f"log: phase messages {sorted(marks)}")
        r.op(failures)
        if not failures:
            greedy = {x["variant"]: x for x in rows if x["solver"] == "greedy"}
            pruned = greedy["pruned"]
            r.quality = st["matching"] / checks.cover_size(pruned, m)
            r.figures = {"cover_size": checks.cover_size(pruned, m),
                         "baseline_cover": greedy["baseline"]["size"],
                         "pruned_coverage": pruned["coverage"],
                         "prune_ratio": pruned["prune_ratio"],
                         "matching": st["matching"]}
        r.digest = _digest(stable)
        return r


class SolveMis:
    """The deployment path through ``cli.main`` on BA-20K edge-list files:
    ``solve`` with greedy and local search on all nodes of the first two
    files, then, on every file, ``prune`` with an MIS student and ``solve``
    with greedy and local search on its candidate file. The student is
    trained in set-up through ``label``, ``train-teacher`` and
    ``train-student`` on a BA-1K file.

    The pruned pass runs on several files because the student's prune
    ratio follows each graph's maximum degree (its input feature is degree
    over maximum degree): on one file, the pruned set size moved by a
    quarter between seeds. The full-space pass runs on two so that it is
    about half of a round's time.
    """

    name = "solve-mis"
    setups = 2  # each trains the student
    TRAIN_N, TEST_N, M, TEST_FILES, FULL_FILES = 1000, 20000, 4, 4, 2
    TRAIN_SEED = 21  # the --seed of every training command
    TEACHER_EPOCHS, STUDENT_EPOCHS = 60, 200
    SOLVE_SEED = 1

    def setup(self, ps, work: Path, seed: int) -> dict:
        n, edges = inputs.ba_graph(self.TRAIN_N, self.M,
                                   inputs.sub_seed(TRAIN_GRAPH_SEED, self.name, "train"))
        train = work / "mis_train.txt"
        inputs.write_edge_list(edges, n, train)
        tests = []
        for i in range(self.TEST_FILES):
            n, edges = inputs.ba_graph(self.TEST_N, self.M,
                                       inputs.sub_seed(seed, self.name, "test", i))
            inputs.write_edge_list(edges, n, work / f"mis_test{i}.txt")
            tests.append((work / f"mis_test{i}.txt", n, edges))
        steps = [
            ("label", "--graph", train, "--problem", "mis", "--oracle", "greedy",
             "--out", work / "labels.txt"),
            ("train-teacher", "--graph", train, "--labels", work / "labels.txt",
             "--epochs", self.TEACHER_EPOCHS, "--out-params", work / "teacher.npz",
             "--out-log", work / "teacher_log.csv"),
            ("train-student", "--graph", train, "--labels", work / "labels.txt",
             "--teacher", work / "teacher.npz", "--epochs", self.STUDENT_EPOCHS,
             "--out-params", work / "student.npz",
             "--out-log", work / "student_log.csv"),
        ]
        for argv in steps:
            code, _, err = _cli(ps.cli, *argv, "--seed", self.TRAIN_SEED)
            if code != 0:
                raise RuntimeError(f"set-up step {argv[0]} exited {code}: {err.strip()}")
        return {"ps": ps, "work": work, "tests": tests}

    def reference(self, st: dict) -> None:
        st["matching"] = [inputs.maximal_matching_size(n, e) for _, n, e in st["tests"]]

    def round(self, st: dict) -> Round:
        cli, work = st["ps"].cli, st["work"]
        r = Round()
        outputs: dict[str, list[int]] = {}
        ratios = []

        def solve(i, solver, candidates, cand=None):
            graph, n, edges = st["tests"][i]
            bound = n - st["matching"][i]
            what = f"solve {solver} on {graph.name} with {Path(str(candidates)).name}"
            t0 = time.perf_counter()
            code, out, err = _cli(cli, "solve", "--graph", graph, "--problem", "mis",
                                  "--solver", solver, "--candidates", candidates,
                                  "--seed", self.SOLVE_SEED)
            r.times[what] = (1 if cand is None else 2, time.perf_counter() - t0)
            if code != 0:
                r.op([f"{what}: exit {code}: {err.strip()}"])
                return 0
            ids, failures = checks.parse_solution(out, n, "mis", what)
            failures += checks.check_independent(n, edges, ids, what)
            if cand is None:
                failures += checks.check_maximal(n, edges, ids, what)
            else:
                failures += checks.check_subset(ids, cand, what)
            if ids.size > bound:
                failures.append(f"{what}: {ids.size} nodes, more than n - |M| = {bound}")
            r.op(failures)
            outputs[what] = ids.tolist()
            return ids.size / bound

        for i in range(self.FULL_FILES):
            for solver in ("greedy", "local-search"):
                solve(i, solver, "all")
        for i, (graph, n, _) in enumerate(st["tests"]):
            cand_path = work / f"good_nodes{i}.txt"
            t0 = time.perf_counter()
            code, _, err = _cli(cli, "prune", "--params", work / "student.npz",
                                "--graph", graph, "--out", cand_path)
            r.times[f"prune {graph.name}"] = (2, time.perf_counter() - t0)
            if code != 0:
                r.op([f"prune {graph.name}: exit {code}: {err.strip()}"])
                continue
            cand, failures = checks.parse_candidates(cand_path.read_text(), n)
            r.op(failures)
            outputs[cand_path.name] = cand.tolist()
            solve(i, "greedy", cand_path, cand)
            ratios.append(solve(i, "local-search", cand_path, cand))
        r.quality = statistics.fmean(ratios) if ratios else 0.0
        r.figures = {k: len(v) for k, v in outputs.items()}
        r.digest = _digest(outputs)
        return r


class Exact:
    """``solvers.exact_solve`` for MVC and MIS in full space on sparse
    uniform random graphs and BA graphs with m = 3, passed as edge arrays.

    A graph's solve time varies by about 40 % (coefficient of variation)
    between seeds at every size tried, so a round solves many small graphs:
    the sum over 200 varies by about 3 %, and a round of about 5 s repeats
    several times in a run."""

    name = "exact"
    setups = 3
    ER_COUNT, ER_N, ER_M = 120, 60, 200
    BA_COUNT, BA_N, BA_M = 80, 150, 3
    TIME_LIMIT = 60.0

    def setup(self, ps, work: Path, seed: int) -> dict:
        specs = [inputs.gnm_graph(self.ER_N, self.ER_M,
                                  inputs.sub_seed(seed, self.name, "er", i))
                 for i in range(self.ER_COUNT)]
        specs += [inputs.ba_graph(self.BA_N, self.BA_M,
                                  inputs.sub_seed(seed, self.name, "ba", i))
                  for i in range(self.BA_COUNT)]
        graphs = [(ps.graph.Graph(n, edges), n, edges) for n, edges in specs]
        return {"ps": ps, "graphs": graphs}

    def reference(self, st: dict) -> None:
        st["bounds"] = [(inputs.maximal_matching_size(n, e),
                         inputs.greedy_independent_set_size(n, e))
                        for _, n, e in st["graphs"]]

    def round(self, st: dict) -> Round:
        exact_solve = st["ps"].solvers.exact_solve
        r = Round()
        sizes = []
        matched = covered = 0
        for i, ((g, n, edges), (matching, greedy_is)) in enumerate(
                zip(st["graphs"], st["bounds"])):
            found = {}
            for problem in ("mvc", "mis"):
                what = f"graph {i} {problem}"
                t0 = time.perf_counter()
                try:
                    sol = exact_solve(g, problem, time_limit=self.TIME_LIMIT)
                except Exception as e:  # noqa: BLE001 - counted as a failed operation
                    r.op([f"{what}: {type(e).__name__}: {e}"])
                    continue
                r.times[what] = (1 if problem == "mvc" else 2,
                                 time.perf_counter() - t0)
                ids = sol.nodes.ids()
                failures = checks.check_ids(n, ids, what)
                if sol.optimal is not True:
                    failures.append(f"{what}: not proved optimal")
                if problem == "mvc":
                    failures += checks.check_cover(n, edges, ids, what)
                    if ids.size < matching:
                        failures.append(f"{what}: cover {ids.size} < matching {matching}")
                else:
                    failures += checks.check_independent(n, edges, ids, what)
                    if ids.size < greedy_is:
                        failures.append(f"{what}: set {ids.size} < greedy {greedy_is}")
                    if "mvc" in found:
                        failures += checks.check_gallai(n, found["mvc"], ids.size, what)
                r.op(failures)
                found[problem] = ids.size
            if len(found) == 2:
                matched += matching
                covered += found["mvc"]
                sizes.append((found["mvc"], found["mis"]))
        r.quality = matched / covered if covered else 0.0
        r.figures = {"graphs": len(sizes), "mvc_nodes": covered,
                     "matching_nodes": matched}
        r.digest = _digest(sizes)
        return r


WORKLOADS = {w.name: w for w in (PipelineMvc(), SolveMis(), Exact())}
