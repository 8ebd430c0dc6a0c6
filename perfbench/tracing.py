"""Timing wrappers around the public functions of prunesolve's six modules.

``Tracer.install`` replaces every public function of ``graph``, ``gcn``,
``training``, ``solvers``, ``bench`` and ``cli`` (plus ``Graph.__init__``
and the CLI's subcommand handlers) with a wrapper that records calls, total
time and self time, where self time is total time minus the time of the
wrapped calls made inside it. Every binding of the original function in the
package is swapped, so ``from .solvers import greedy_mis`` call sites are
timed too. ``uninstall`` puts the originals back. Nothing inside the
program is edited: the spans are taken from the benchmark's side of each
call.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("graph", "gcn", "training", "solvers", "bench", "cli")
HEURISTICS = ("greedy_mvc", "local_search_mvc", "greedy_mis", "local_search_mis")
CLI_HANDLERS = {"_cmd_prune": "prune", "_cmd_solve": "solve"}

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better)
PER_LAYER = [
    ("graph.load_edge_list_s", "s", "lower"),
    ("graph.load_edge_list.calls", "count", "lower"),
    ("graph.edges_read_per_s", "1/s", "higher"),
    ("graph.Graph_s", "s", "lower"),
    ("gcn.forward_train_s", "s", "lower"),
    ("gcn.backward_s", "s", "lower"),
    ("gcn.adam_step_s", "s", "lower"),
    ("gcn.forward_s", "s", "lower"),
    ("gcn.supervised_loss_s", "s", "lower"),
    ("gcn.kd_loss_s", "s", "lower"),
    ("gcn.teacher_epoch_ms", "ms", "lower"),
    ("gcn.student_epoch_ms", "ms", "lower"),
    ("training.generate_labels_s", "s", "lower"),
    ("training.train_teacher.self_s", "s", "lower"),
    ("training.train_student.self_s", "s", "lower"),
    ("training.boost_weights_s", "s", "lower"),
    ("training.predict_good_nodes_s", "s", "lower"),
    ("training.teacher_best_epoch", "count", "lower"),
    ("training.student_best_epoch", "count", "lower"),
    ("training.student_good_fraction", "ratio", "lower"),
    *[(f"solvers.{s}.{v}_s", "s", "lower")
      for s in HEURISTICS for v in ("full", "pruned")],
    *[(f"solvers.{s}.{v}_size", "count", "lower" if s.endswith("mvc") else "higher")
      for s in HEURISTICS for v in ("full", "pruned")],
    ("solvers.candidate_nodes", "count", "lower"),
    ("solvers.exact_solve.mvc_s", "s", "lower"),
    ("solvers.exact_solve.mis_s", "s", "lower"),
    ("solvers.validate_solution_s", "s", "lower"),
    ("solvers.format_solution_s", "s", "lower"),
    ("bench.phase1_s", "s", "lower"),
    ("bench.phase2_s", "s", "lower"),
    ("bench.phase3_s", "s", "lower"),
    ("bench.run_pipeline.self_s", "s", "lower"),
    ("bench.emit_report_s", "s", "lower"),
    ("cli.prune.self_s", "s", "lower"),
    ("cli.solve.self_s", "s", "lower"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in MODULES]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)  # summed observations, see _record
        self._children: list[float] = []  # wrapped-call time per open span
        self._open: list[str] = []  # names of the open spans
        self._swapped: list[tuple[object, str, object]] = []
        self._teachers: list = []  # teacher and distillation-only parameters

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if short == "cli" and name in CLI_HANDLERS:
                    targets.append((obj, f"cli.{CLI_HANDLERS[name]}"))
                elif not name.startswith("_"):
                    targets.append((obj, f"{short}.{name}"))
        wrapped = {id(fn): self._wrap(fn, key) for fn, key in targets}
        for mod in [self.package, *self.modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._swap(mod, name, wrapped[id(obj)])
        graph_cls = self.package.graph.Graph
        self._swap(graph_cls, "__init__", self._wrap(graph_cls.__init__, "graph.Graph"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._swapped):
            setattr(owner, name, original)
        self._swapped.clear()

    def _swap(self, owner, name, new) -> None:
        self._swapped.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            tracer._open.append(key)
            t0 = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._children.pop()
                tracer._open.pop()
                if tracer._children:
                    tracer._children[-1] += dt
            tracer._record(key, dt, dt - child, args, kwargs, return_value)
            return return_value

        return traced

    # -- recording ----------------------------------------------------------

    def _record(self, key, dt, self_dt, args, kwargs, result) -> None:
        name = key
        c = self.counts
        if key.split(".")[1] in HEURISTICS:
            cand = _arg(args, kwargs, 1, "cand")
            space = "full" if cand is None or cand.is_all else "pruned"
            name = f"{key}.{space}"
            c[f"{name}_size"] += result.size
            c[f"{name}_calls"] += 1
            if space == "pruned":
                c["candidate_nodes"] += cand.good.size
                c["candidate_calls"] += 1
        elif key == "solvers.exact_solve":
            name = f"{key}.{str(_arg(args, kwargs, 1, 'problem')).lower()}"
        elif key == "graph.load_edge_list":
            c["edges_read"] += result.graph.m
        elif key == "gcn.adam_step":
            for role in ("teacher", "student"):
                if f"training.train_{role}" in self._open:
                    c[f"{role}_steps"] += 1
        elif key == "training.train_teacher":
            self._teachers.append(result.params)
            c["teacher_best_epoch"] += result.best_epoch
            c["teacher_calls"] += 1
        elif key == "training.train_student":
            if _arg(args, kwargs, 3, "bw") is None:
                self._teachers.append(result.params)  # distillation-only
            else:
                c["student_best_epoch"] += result.best_epoch
                c["student_calls"] += 1
        elif key == "training.predict_good_nodes":
            params = _arg(args, kwargs, 0, "params")
            if not any(params is p for p in self._teachers):
                c["good_nodes"] += result.size
                c["predicted_nodes"] += result.universe
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += self_dt

    # -- metrics ------------------------------------------------------------

    def per_layer(self, rounds: int, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics per round: sums divided by the traced rounds,
        ratios and means over all traced calls, plus ``extra`` (the pipeline
        phase times the workload takes from the log callback). Layers a
        workload does not call read 0."""
        t, s, c = self.total, self.self_time, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "graph.load_edge_list_s": t["graph.load_edge_list"] / rounds,
            "graph.load_edge_list.calls": self.calls["graph.load_edge_list"] / rounds,
            "graph.edges_read_per_s": ratio(c["edges_read"], t["graph.load_edge_list"]),
            "graph.Graph_s": t["graph.Graph"] / rounds,
            "gcn.teacher_epoch_ms": 1e3 * ratio(t["training.train_teacher"],
                                                c["teacher_steps"]),
            "gcn.student_epoch_ms": 1e3 * ratio(t["training.train_student"],
                                                c["student_steps"]),
            "training.train_teacher.self_s": s["training.train_teacher"] / rounds,
            "training.train_student.self_s": s["training.train_student"] / rounds,
            "training.teacher_best_epoch": ratio(c["teacher_best_epoch"],
                                                 c["teacher_calls"]),
            "training.student_best_epoch": ratio(c["student_best_epoch"],
                                                 c["student_calls"]),
            "training.student_good_fraction": ratio(c["good_nodes"],
                                                    c["predicted_nodes"]),
            "solvers.candidate_nodes": ratio(c["candidate_nodes"],
                                             c["candidate_calls"]),
            "bench.run_pipeline.self_s": s["bench.run_pipeline"] / rounds,
            "cli.prune.self_s": s["cli.prune"] / rounds,
            "cli.solve.self_s": s["cli.solve"] / rounds,
        }
        for key in ("gcn.forward_train", "gcn.backward", "gcn.adam_step",
                    "gcn.forward", "gcn.supervised_loss", "gcn.kd_loss",
                    "training.generate_labels", "training.boost_weights",
                    "training.predict_good_nodes", "solvers.exact_solve.mvc",
                    "solvers.exact_solve.mis", "solvers.validate_solution",
                    "solvers.format_solution", "bench.emit_report"):
            out[f"{key}_s"] = t[key] / rounds
        for solver in HEURISTICS:
            for space in ("full", "pruned"):
                name = f"solvers.{solver}.{space}"
                out[f"{name}_s"] = t[name] / rounds
                out[f"{name}_size"] = ratio(c[f"{name}_size"], c[f"{name}_calls"])
        out.update(extra)
        return {name: out[name] for name, _, _ in PER_LAYER}
