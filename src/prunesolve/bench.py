"""End-to-end pipeline and benchmark harness.

Three phases: label a small training graph with a classical solver and fit
the teacher; distill the boosted student (plus a distillation-only student
for the ablation); then, on each test graph, run every configured solver on
the full node set (baseline) and on the teacher's and student's predicted
good nodes (pruned_pt / pruned), timing each and reporting quality, speedup,
prune ratio, recall, and inference cost.

Solver timing excludes graph construction and network inference. Each
model's good nodes on a test graph come from one ``predict_good_nodes``
call, and ``infer_*_ms`` is that call's wall time: the degree features, the
float32 pass of ``gcn.predict`` and the threshold, which is what ``prune``
pays after reading its graph. The teacher's call comes first on each graph,
so it also builds the graph's cached float64 ``D^-1 A`` (about 0.3 ms at
BA-10K, under 1 % of a teacher pass); each call casts only that operator's
values to float32, sharing its index arrays. Non-timing fields are
deterministic given the config, which is what the determinism acceptance
check relies on.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import typing
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Graph, check_ba_args, derive_seed, generate_ba, load_edge_list
from .solvers import (
    MVC,
    SOLVERS,
    TIME_LIMIT,
    Candidates,
    coverage,
    solve,
    validate_solution,
    _norm_problem,
)
from .training import (
    LABEL_ORACLE,
    StudentConfig,
    TeacherConfig,
    boost_weights,
    generate_labels,
    predict_good_nodes,
    recall,
    train_student,
    train_teacher,
)

VARIANTS = ("baseline", "pruned_pt", "pruned")
SOLVER_REPEATS = 3  # runs per solver cell; the cell reports their median

TIMING_COLUMNS = ("runtime_s", "speedup", "infer_teacher_ms", "infer_student_ms")

REPORT_NOTES = [
    "input features are node degrees divided by the maximum degree",
    "boost weights: error scaling, then degree normalization, then rescale to sum |train|",
]


class PipelineError(RuntimeError):
    """A phase failed; the message starts with the phase tag."""

    def __init__(self, phase: str, message: str):
        super().__init__(f"phase {phase}: {message}")
        self.phase = phase
        self.detail = message


@dataclass(frozen=True)
class GraphSpec:
    """A test or train graph: either generator parameters or a file path."""

    name: str
    n: int | None = None
    m: int | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        has_params = self.n is not None or self.m is not None or self.seed is not None
        if self.path is None:
            if self.n is None or self.m is None or self.seed is None:
                raise ValueError(
                    f"graph {self.name!r} needs either a path or all of n, m, seed"
                )
            check_ba_args(self.n, self.m, self.seed)
        elif has_params:
            raise ValueError(f"graph {self.name!r} has both a path and parameters")

    def materialize(self) -> Graph:
        if self.path is not None:
            return load_edge_list(self.path).graph
        return generate_ba(self.n, self.m, self.seed)


@dataclass
class PipelineConfig:
    problem: str
    train_graph: GraphSpec
    test_graphs: list[GraphSpec]
    solvers: list[str]
    label_oracle: str = LABEL_ORACLE
    seed: int = 0
    teacher: TeacherConfig | None = None
    student: StudentConfig | None = None
    exact_time_limit: float = TIME_LIMIT

    def __post_init__(self):
        self.problem = _norm_problem(self.problem)
        # Unset training configs inherit their seeds from the master seed so a
        # single integer pins the whole run; explicit configs are used as-is.
        if self.teacher is None:
            self.teacher = TeacherConfig(seed=derive_seed(self.seed, "teacher"))
        if self.student is None:
            self.student = StudentConfig(seed=derive_seed(self.seed, "student"))
        if not self.solvers:
            raise ValueError("config needs at least one solver")
        for s in [*self.solvers, self.label_oracle]:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}, expected one of {SOLVERS}")
        if not self.test_graphs:
            raise ValueError("config needs at least one test graph")
        if not self.exact_time_limit > 0:
            raise ValueError(
                f"exact_time_limit must be > 0, got {self.exact_time_limit}")


@dataclass
class BenchRow:
    """One report row; its fields, in order, are the CSV columns."""

    graph: str
    n: int
    m: int
    problem: str
    solver: str
    variant: str
    size: int
    coverage: float | None
    runtime_s: float
    speedup: float
    prune_ratio: float
    recall_teacher: float
    recall_kd: float
    recall_student: float
    infer_teacher_ms: float
    infer_student_ms: float


CSV_COLUMNS = [f.name for f in dataclasses.fields(BenchRow)]


@dataclass
class BenchReport:
    config: PipelineConfig
    rows: list[BenchRow]
    notes: list[str]


def speedup(time_baseline: float, time_variant: float) -> float:
    """Baseline seconds over variant seconds."""
    if time_baseline <= 0 or time_variant <= 0:
        raise ValueError("times must be positive")
    return time_baseline / time_variant


def _run_cell(g: Graph, problem: str, solver: str, cand: Candidates,
              time_limit: float):
    """One (graph, solver, variant) measurement: repeated identical runs,
    validity check on the final solution. Returns (solution, median time)."""
    times = []
    for _ in range(SOLVER_REPEATS):
        sol = solve(g, problem, solver, cand, time_limit)
        times.append(sol.runtime)
    report = validate_solution(g, sol)
    if not report.ok:
        raise PipelineError("solve", f"{solver} produced an invalid solution: "
                                     + "; ".join(report.failures))
    return sol, float(np.median(times))


def _timed_prediction(params, g: Graph):
    """Good nodes from one ``predict_good_nodes`` call, and its wall time
    in milliseconds."""
    t0 = time.perf_counter()
    good = predict_good_nodes(params, g)
    return good, (time.perf_counter() - t0) * 1e3


def run_pipeline(cfg: PipelineConfig, log=None) -> BenchReport:
    """Execute all three phases and assemble the report.

    Solver cells run one after another in this process, so no timed run
    shares the machine with another cell. Rows come grouped by test graph
    (config order), then by solver, then by variant. Timeout notes follow
    all model notes.
    """
    def say(msg):
        if log:
            log(msg)

    notes = list(REPORT_NOTES)
    timeout_notes = []
    problem = cfg.problem

    # phase 1: oracle labels on the training graph, teacher fit
    try:
        say(f"phase 1: labeling {cfg.train_graph.name} and training teacher")
        train_g = cfg.train_graph.materialize()
        labels = generate_labels(
            train_g, problem, cfg.label_oracle,
            seed=derive_seed(cfg.seed, "labels"),
            time_limit=cfg.exact_time_limit,
        )
        teacher = train_teacher(train_g, labels, cfg.teacher)
    except Exception as e:
        raise PipelineError("labels+teacher", str(e)) from e

    # phase 2: boosted student plus distillation-only student
    try:
        say("phase 2: training students")
        bw = boost_weights(teacher.params, train_g, labels)
        student = train_student(train_g, labels, teacher.params, bw, cfg.student)
        kd_student = train_student(train_g, labels, teacher.params, None, cfg.student)
    except Exception as e:
        raise PipelineError("students", str(e)) from e

    # phase 3: per-test-graph prediction and solver runs
    rows: list[BenchRow] = []
    try:
        for spec in cfg.test_graphs:
            say(f"phase 3: benchmarking on {spec.name}")
            tg = spec.materialize()
            good_t, infer_t = _timed_prediction(teacher.params, tg)
            good_s, infer_s = _timed_prediction(student.params, tg)
            good_kd, _ = _timed_prediction(kd_student.params, tg)
            for model, good in (("teacher", good_t), ("student", good_s),
                                ("distilled-only student", good_kd)):
                if good.size in (0, tg.n):
                    notes.append(
                        f"{model} marked {'no' if good.size == 0 else 'every'} "
                        f"node good on {spec.name}"
                    )
            truth = generate_labels(
                tg, problem, cfg.label_oracle,
                seed=derive_seed(cfg.seed, "recall-labels", spec.name),
                time_limit=cfg.exact_time_limit,
            )
            shared = dict(
                graph=spec.name, n=tg.n, m=tg.m, problem=problem,
                recall_teacher=recall(good_t, truth),
                recall_kd=recall(good_kd, truth),
                recall_student=recall(good_s, truth),
                infer_teacher_ms=infer_t, infer_student_ms=infer_s,
            )
            cands = {
                "baseline": (Candidates(), 1.0),
                "pruned_pt": (Candidates(good_t), good_t.size / tg.n),
                "pruned": (Candidates(good_s), good_s.size / tg.n),
            }
            for solver in cfg.solvers:
                for variant in VARIANTS:
                    cand, ratio = cands[variant]
                    sol, runtime = _run_cell(tg, problem, solver, cand,
                                             cfg.exact_time_limit)
                    if variant == "baseline":
                        base_runtime = runtime
                        if sol.optimal is False:
                            timeout_notes.append(
                                f"exact baseline on {spec.name} hit the time "
                                "limit; best incumbent reported"
                            )
                    rows.append(BenchRow(
                        solver=solver, variant=variant, size=sol.size,
                        coverage=coverage(tg, sol) if problem == MVC else None,
                        runtime_s=runtime, speedup=speedup(base_runtime, runtime),
                        prune_ratio=ratio, **shared,
                    ))
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError("solve", str(e)) from e
    return BenchReport(cfg, rows, notes + timeout_notes)


# ---------------------------------------------------------------------------
# Report emission


def _cell(name: str, value):
    """A CSV cell: floats to 3 places for ``infer_*`` and 6 for the rest,
    None as empty, everything else as itself."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".3f" if name.startswith("infer_") else ".6f")
    return value


def emit_report(report: BenchReport, fmt: str, path) -> None:
    """Write the report as CSV rows or JSON with a config echo."""
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_COLUMNS)
            for r in report.rows:
                writer.writerow([_cell(k, v) for k, v in asdict(r).items()])
    elif fmt == "json":
        payload = {
            "config": asdict(report.config),
            "notes": report.notes,
            "rows": [asdict(r) for r in report.rows],
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}, expected csv or json")


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def typed(value, hint, key: str):
    """``value`` if it is a JSON value of the annotated type ``hint``, else a
    ValueError naming ``key``. As in JSON, true and 2.7 are no integers and
    an integer is a number (and stays an int). Lists are checked item by
    item and become tuples where ``hint`` says so; dataclasses use _from_dict.
    """
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if type(None) in args:  # X | None
        return None if value is None else typed(value, args[0], key)
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, key)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        return origin(typed(v, args[0], f"{key}[{i}]") for i, v in enumerate(value))
    is_number = hint is float and isinstance(value, int)
    if (isinstance(value, bool) != (hint is bool)
            or not (is_number or isinstance(value, hint))):
        raise ValueError(f"{key} must be {_KINDS[hint]}, got {value!r}")
    return value


def _from_dict(cls, raw, key: str):
    """Dataclass ``cls`` from a JSON object of its fields, each value checked
    by ``typed``; unknown or missing keys and range errors from
    ``cls.__post_init__`` raise a ValueError naming ``key``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{key} must be a JSON object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ValueError(f"{key}: unknown keys {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        required = f.default is f.default_factory is dataclasses.MISSING
        if required and f.name not in raw:
            raise ValueError(f"{key}: missing required key {f.name!r}")
    values = {k: typed(v, hints[k], f"{key}.{k}") for k, v in raw.items()}
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None


def config_from_dict(raw: dict) -> PipelineConfig:
    """A PipelineConfig from its JSON form, every value checked up front."""
    return _from_dict(PipelineConfig, raw, "config")
