"""Command-line interface: one binary, one subcommand per pipeline stage.

Precedence for every option is defaults < --config file < explicit flags.
A config file is a JSON object whose keys are the flag names with dashes
replaced by underscores; unknown keys are rejected.

Exit codes: 0 success; 1 usage problems (bad flags, malformed or missing
config, unreadable inputs); 2 failures while computing or writing results.
Output paths default into $PRUNESOLVE_OUT_DIR (current directory if unset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from . import gcn
from .graph import (
    _BadRow,
    _int_rows_text,
    _read_int_rows,
    dump_edge_list,
    generate_ba,
    load_edge_list,
)
from .solvers import PROBLEMS, SOLVERS, Candidates, format_solution, solve
from .training import (
    StudentConfig,
    TeacherConfig,
    boost_weights,
    generate_labels,
    load_labels,
    predict_good_nodes,
    save_labels,
    train_student,
    train_teacher,
    write_epoch_log,
)

OUT_DIR_ENV = "PRUNESOLVE_OUT_DIR"


class UsageError(Exception):
    """Bad invocation: wrong flags, malformed config, unreadable input."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; this CLI promises 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


def _default_path(name: str) -> str:
    return os.path.join(_out_dir(), name)


def _load_config_file(path) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return raw


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Apply the precedence defaults < config < flags.

    Every argparse option is declared with default None so "flag given" is
    detectable; this fills the gaps from the config file, then defaults.
    """
    config = {}
    if getattr(args, "config", None):
        config = _load_config_file(args.config)
        unknown = set(config) - set(defaults)
        if unknown:
            raise UsageError(
                f"config file {args.config}: unknown keys {sorted(unknown)}"
            )
    eff = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            eff[key] = flag_value
        elif key in config:
            eff[key] = config[key]
        else:
            eff[key] = default
    return eff


def _require(eff: dict, *keys: str) -> None:
    for key in keys:
        if eff[key] is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")


def _choice(key: str, value, choices):
    """``value`` if it is one of ``choices``, else a usage error naming them.

    Flags are checked by argparse; this catches values from a config file.
    """
    if value not in choices:
        raise UsageError(
            f"unknown {key} {value!r}, expected one of {', '.join(choices)}"
        )
    return value


def _parse_hidden(value) -> tuple:
    if isinstance(value, (list, tuple)):
        dims = tuple(int(d) for d in value)
    else:
        try:
            dims = tuple(int(p) for p in str(value).split(",") if p.strip())
        except ValueError:
            raise UsageError(f"bad hidden dims {value!r}; expected e.g. 32,32,32")
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"bad hidden dims {value!r}; widths must be >= 1")
    return dims


def _read_graph(path):
    try:
        return load_edge_list(path).graph
    except FileNotFoundError:
        raise UsageError(f"graph file not found: {path}") from None


def _read_labels(path, problem=None):
    try:
        return load_labels(path, problem=problem)
    except FileNotFoundError:
        raise UsageError(f"label file not found: {path}") from None


def _read_params(path):
    try:
        return gcn.load_params(path)
    except FileNotFoundError:
        raise UsageError(f"parameter file not found: {path}") from None


def _read_candidates(path, n: int) -> Candidates:
    """Read a good-node file: one node id per line, in the edge-list format."""
    if path == "all":
        return Candidates.all()
    try:
        ids = _read_int_rows(path, 1)
    except FileNotFoundError:
        raise UsageError(f"candidate file not found: {path}") from None
    except _BadRow as e:
        lineno, line, _ = e.args
        raise UsageError(
            f"{path}: line {lineno}: expected a node id, got {line!r}"
        ) from None
    if not len(ids):
        raise UsageError(f"{path}: no candidate ids")
    return Candidates.from_ids(ids.ravel(), n)


def _write_good_nodes(nodes, path) -> None:
    with open(path, "w") as f:
        f.write(f"# good nodes: {nodes.size}\n" + _int_rows_text(nodes.ids()[:, None]))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    defaults = {"n": None, "m": 4, "seed": 0, "out": _default_path("graph.txt")}
    eff = _merge(args, defaults)
    _require(eff, "n")
    g = generate_ba(int(eff["n"]), int(eff["m"]), int(eff["seed"]))
    dump_edge_list(g, eff["out"])
    print(f"wrote {eff['out']} ({g.n} nodes, {g.m} edges)")
    return 0


def _cmd_label(args) -> int:
    defaults = {
        "graph": None, "problem": None, "oracle": "greedy", "seed": 0,
        "time_limit": 3600.0, "out": _default_path("labels.txt"),
    }
    eff = _merge(args, defaults)
    _require(eff, "graph", "problem")
    # problem names are case-insensitive, as the library reads them
    problem = _choice("problem", str(eff["problem"]).lower(), PROBLEMS)
    oracle = _choice("oracle", eff["oracle"], SOLVERS)
    g = _read_graph(eff["graph"])
    ls = generate_labels(g, problem, oracle, int(eff["seed"]),
                         float(eff["time_limit"]))
    save_labels(ls, eff["out"])
    ones = int(ls.labels.sum())
    print(f"wrote {eff['out']} ({ones}/{g.n} nodes labeled 1)")
    return 0


def _cmd_train_teacher(args) -> int:
    defaults = {
        "graph": None, "labels": None, "hidden": "128,128,128",
        "epochs": 500, "lr": 1e-3, "dropout": 0.5, "seed": 0,
        "out_params": _default_path("teacher.npz"),
        "out_log": _default_path("teacher_log.csv"),
    }
    eff = _merge(args, defaults)
    _require(eff, "graph", "labels")
    g = _read_graph(eff["graph"])
    ls = _read_labels(eff["labels"])
    cfg = TeacherConfig(
        hidden_dims=_parse_hidden(eff["hidden"]),
        epochs=int(eff["epochs"]), lr=float(eff["lr"]),
        dropout=float(eff["dropout"]), seed=int(eff["seed"]),
    )
    result = train_teacher(g, ls, cfg)
    gcn.save_params(result.params, eff["out_params"], seed=cfg.seed)
    write_epoch_log(result.history, eff["out_log"])
    print(f"wrote {eff['out_params']} (best epoch {result.best_epoch}, "
          f"val loss {result.best_val_loss:.6f})")
    return 0


def _cmd_train_student(args) -> int:
    defaults = {
        "graph": None, "labels": None, "teacher": None, "hidden": None,
        "epochs": 1000, "lr": StudentConfig.lr, "dropout": 0.5, "kd_weight": 0.8,
        "temperature": 1.0, "boost": True, "seed": 0,
        "out_params": _default_path("student.npz"),
        "out_log": _default_path("student_log.csv"),
    }
    eff = _merge(args, defaults)
    _require(eff, "graph", "labels", "teacher")
    g = _read_graph(eff["graph"])
    ls = _read_labels(eff["labels"])
    teacher = _read_params(eff["teacher"])
    cfg = StudentConfig(
        hidden_dims=_parse_hidden(eff["hidden"]) if eff["hidden"] else None,
        epochs=int(eff["epochs"]), lr=float(eff["lr"]),
        dropout=float(eff["dropout"]), kd_weight=float(eff["kd_weight"]),
        temperature=float(eff["temperature"]), seed=int(eff["seed"]),
    )
    bw = boost_weights(teacher, g, ls) if eff["boost"] else None
    result = train_student(g, ls, teacher, bw, cfg)
    gcn.save_params(result.params, eff["out_params"], seed=cfg.seed)
    write_epoch_log(result.history, eff["out_log"])
    mode = "boosted" if eff["boost"] else "distillation-only"
    print(f"wrote {eff['out_params']} ({mode}, best epoch {result.best_epoch}, "
          f"val loss {result.best_val_loss:.6f})")
    return 0


def _cmd_prune(args) -> int:
    defaults = {
        "params": None, "graph": None, "seed": 0,
        "out": _default_path("good_nodes.txt"),
    }
    eff = _merge(args, defaults)
    _require(eff, "params", "graph")
    g = _read_graph(eff["graph"])
    params = _read_params(eff["params"])
    good = predict_good_nodes(params, g)
    _write_good_nodes(good, eff["out"])
    print(f"wrote {eff['out']} ({good.size}/{g.n} good nodes)")
    return 0


def _cmd_solve(args) -> int:
    defaults = {
        "graph": None, "problem": None, "solver": None, "candidates": "all",
        "seed": 0, "time_limit": 3600.0,
    }
    eff = _merge(args, defaults)
    _require(eff, "graph", "problem", "solver")
    problem = _choice("problem", str(eff["problem"]).lower(), PROBLEMS)
    solver = _choice("solver", eff["solver"], SOLVERS)
    g = _read_graph(eff["graph"])
    cand = _read_candidates(eff["candidates"], g.n)
    sol = solve(g, problem, solver, cand, int(eff["seed"]),
                float(eff["time_limit"]))
    sys.stdout.write(format_solution(g, sol))
    return 0


def _cmd_bench(args) -> int:
    defaults = {
        "jobs": 1, "seed": None,
        "out_csv": _default_path("bench.csv"),
        "out_json": _default_path("bench.json"),
    }
    if not getattr(args, "config", None):
        raise UsageError("bench needs --config pointing at a pipeline JSON file")
    raw = _load_config_file(args.config)
    eff = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        eff[key] = flag_value if flag_value is not None else default
    if eff["seed"] is not None:
        raw["seed"] = int(eff["seed"])
    try:
        cfg = bench_mod.config_from_dict(raw)
    except (TypeError, ValueError) as e:
        raise UsageError(f"config file {args.config}: {e}") from None
    report = bench_mod.run_pipeline(
        cfg, jobs=int(eff["jobs"]),
        log=lambda msg: print(msg, file=sys.stderr),
    )
    bench_mod.emit_report(report, "csv", eff["out_csv"])
    bench_mod.emit_report(report, "json", eff["out_json"])
    print(f"wrote {eff['out_csv']} and {eff['out_json']} ({len(report.rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="prunesolve",
        description="Learn-to-prune pipeline for vertex cover and independent set.",
        epilog=f"Option precedence: defaults < --config JSON < flags. "
               f"Default output directory: ${OUT_DIR_ENV} or '.'.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           epilog="Precedence: defaults < --config < flags.")
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of option values")
        p.add_argument("--seed", type=int, help="master random seed (default: 0)")
        return p

    p = add("gen", _cmd_gen, "Generate a preferential-attachment graph edge list.")
    p.add_argument("--n", type=int, help="number of nodes (required)")
    p.add_argument("--m", type=int, help="edges added per new node (default: 4)")
    p.add_argument("--out", help="output edge-list path (default: graph.txt)")

    p = add("label", _cmd_label, "Label a graph's nodes with a solver's solution.")
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--problem", choices=PROBLEMS, help="problem (required)")
    p.add_argument("--oracle", choices=SOLVERS,
                   help="labeling solver (default: greedy)")
    p.add_argument("--time-limit", type=float, dest="time_limit",
                   help="exact-oracle time limit seconds (default: 3600)")
    p.add_argument("--out", help="output label path (default: labels.txt)")

    p = add("train-teacher", _cmd_train_teacher, "Train the wide teacher network.")
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--labels", help="label file path (required)")
    p.add_argument("--hidden", help="hidden widths (default: 128,128,128)")
    p.add_argument("--epochs", type=int, help="training epochs (default: 500)")
    p.add_argument("--lr", type=float, help="learning rate (default: 0.001)")
    p.add_argument("--dropout", type=float, help="dropout rate (default: 0.5)")
    p.add_argument("--out-params", dest="out_params",
                   help="parameter output (default: teacher.npz)")
    p.add_argument("--out-log", dest="out_log",
                   help="epoch CSV log (default: teacher_log.csv)")

    p = add("train-student", _cmd_train_student,
            "Distill the compact student network from a teacher.")
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--labels", help="label file path (required)")
    p.add_argument("--teacher", help="teacher parameter file (required)")
    p.add_argument("--hidden",
                   help="hidden widths (default: 32,32,32 for mvc, 32,32 for mis)")
    p.add_argument("--epochs", type=int, help="training epochs (default: 1000)")
    p.add_argument("--lr", type=float,
                   help=f"learning rate (default: {StudentConfig.lr:g})")
    p.add_argument("--dropout", type=float, help="dropout rate (default: 0.5)")
    p.add_argument("--kd-weight", type=float, dest="kd_weight",
                   help="distillation weight in the combined loss (default: 0.8)")
    p.add_argument("--temperature", type=float,
                   help="distillation temperature (default: 1)")
    p.add_argument("--boost", action=argparse.BooleanOptionalAction,
                   help="weight the supervised term by boosting (default: on)")
    p.add_argument("--out-params", dest="out_params",
                   help="parameter output (default: student.npz)")
    p.add_argument("--out-log", dest="out_log",
                   help="epoch CSV log (default: student_log.csv)")

    p = add("prune", _cmd_prune, "Predict good nodes with trained parameters.")
    p.add_argument("--params", help="parameter file (required)")
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--out", help="good-node list output (default: good_nodes.txt)")

    p = add("solve", _cmd_solve, "Run one solver and print the solution.")
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--problem", choices=PROBLEMS, help="problem (required)")
    p.add_argument("--solver", choices=SOLVERS,
                   help="algorithm (required)")
    p.add_argument("--candidates",
                   help="good-node file restricting the search, or 'all' (default)")
    p.add_argument("--time-limit", type=float, dest="time_limit",
                   help="exact-solver time limit seconds (default: 3600)")

    p = add("bench", _cmd_bench, "Run the full pipeline from a JSON config.")
    p.add_argument("--jobs", type=int,
                   help="parallel solver cells (default: 1)")
    p.add_argument("--out-csv", dest="out_csv",
                   help="CSV report path (default: bench.csv)")
    p.add_argument("--out-json", dest="out_json",
                   help="JSON report path (default: bench.json)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("prunesolve: error: a command is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"prunesolve {args.command}: error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary maps failures to exit 2
        print(f"prunesolve {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
