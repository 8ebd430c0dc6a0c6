"""Command-line interface: one binary, one subcommand per pipeline stage.

Precedence for every option is defaults < --config file < explicit flags.
A config file is a JSON object whose keys are the flag names with dashes
replaced by underscores; unknown keys are rejected. Its values are type-
and range-checked like the flags, with JSON types: 2.7 is no integer and
"no" no boolean. `bench` instead reads a pipeline config, checked field by
field against PipelineConfig (see bench.config_from_dict).

Exit codes: 0 success; 1 usage problems (bad flags, any bad option value
from a flag or config file, malformed or missing config, unreadable or
malformed input files, parameter archives that cannot score the graph's
nodes, candidate ids outside the graph, labels for another node count than
the graph's), the option values among them found before any input is read
or model trained, the archives before any inference or training; 2
failures while computing or writing results. Output paths default into
$PRUNESOLVE_OUT_DIR (current directory if unset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from . import gcn
from .graph import (
    NodeSet,
    _BadRow,
    _int_rows_text,
    _read_int_rows,
    check_ba_args,
    dump_edge_list,
    generate_ba,
    load_edge_list,
)
from .solvers import (
    PROBLEMS,
    SOLVERS,
    TIME_LIMIT,
    Candidates,
    format_solution,
    solve,
)
from .training import (
    LABEL_ORACLE,
    StudentConfig,
    TeacherConfig,
    boost_weights,
    default_student_dims,
    degree_features,
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


def _default_path(name: str) -> str:
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), name)


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


class _Type:
    """One option's type and range, checked alike on flag text and on
    config-file values.

    Flag text is parsed with ``parse``; a config value must already have the
    option's JSON type ``hint`` (see ``bench.typed``). Either value then goes
    through ``rule``, which returns the value to use or raises ValueError.
    """

    def __init__(self, hint, parse=None, rule=None):
        self.hint, self.parse, self.rule = hint, parse or hint, rule
        self.__name__ = hint.__name__  # argparse names the type in its errors

    def __call__(self, text):
        value = self.parse(text)  # a ValueError here is argparse's "invalid value"
        try:
            return self.check(value, "value")
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    def check(self, value, key: str):
        value = bench_mod.typed(value, self.hint, key)
        try:
            return self.rule(value) if self.rule else value
        except ValueError as e:
            raise ValueError(f"{key} {e}") from None


def _above(low, strict: bool):
    def rule(value):
        if value > low or (value == low and not strict):
            return value
        raise ValueError(f"must be {'>' if strict else '>='} {low}, got {value!r}")
    return rule


_STR, _INT, _FLOAT, _BOOL = _Type(str), _Type(int), _Type(float), _Type(bool)
_SEED = _Type(int, rule=_above(0, strict=False))
_NO_EFFECT = "accepted for compatibility; has no effect"  # prune and solve --seed
_POSITIVE = _Type(float, rule=_above(0, strict=True))
_PROBLEM = _Type(str, rule=str.lower)  # case-insensitive, as the library reads it
_DIMS = _Type(tuple[int, ...],
              parse=lambda text: tuple(int(p) for p in text.split(",") if p.strip()))


def _config_defaults(parser: argparse.ArgumentParser, path) -> dict:
    """The config file's option values, each checked as its flag would be."""
    raw = _load_config_file(path)
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = set(raw) - set(actions)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {sorted(unknown)}")
    checked = {}
    for key, value in raw.items():
        action = actions[key]
        kind = action.type or (_BOOL if action.nargs == 0 else _STR)
        try:
            value = kind.check(value, key)
        except ValueError as e:
            raise UsageError(f"config file {path}: {e}") from None
        if action.choices and value not in action.choices:
            raise UsageError(f"unknown {key} {value!r}, expected one of "
                             f"{', '.join(action.choices)}")
        checked[key] = value
    return checked


def _require(args, *keys: str) -> None:
    for key in keys:
        if getattr(args, key) is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")


def _checked(make, *args, **kwargs):
    """``make(...)``, its ValueError for a bad argument made a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _dims_text(dims) -> str:
    return ",".join(map(str, dims))


def _read(load, path, what: str):
    """``load(path)``, a missing, unreadable or malformed file (a directory,
    say, or text that does not decode) made a usage error."""
    try:
        return load(path)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except OSError as e:
        raise UsageError(f"{what} file {path}: {e.strerror or e}") from None
    except ValueError as e:
        msg = str(e)
        raise UsageError(msg if str(path) in msg else f"{what} file {path}: {msg}") from None


def _read_graph_and_labels(args):
    """The --graph and --labels files, the labels checked to fit the graph."""
    g = _read(load_edge_list, args.graph, "graph").graph
    ls = _read(load_labels, args.labels, "label")
    if ls.n != g.n:
        raise UsageError(f"label file {args.labels} labels {ls.n} nodes, the graph has {g.n}")
    return g, ls


def _read_params(path, g):
    """A parameter archive whose input layer takes the degree features of
    ``g``, so that it can score g's nodes."""
    params = _read(gcn.load_params, path, "parameter")
    width = degree_features(g).shape[1]
    if params.dims[0] != width:
        raise UsageError(f"parameter file {path}: input layer takes {params.dims[0]} "
                         f"features, the degree features are {width} wide")
    return params


def _read_candidates(path, n: int) -> Candidates:
    """Read a good-node file: one node id per line, in the edge-list format."""
    if path == "all":
        return Candidates()
    try:
        ids = _read(lambda p: _read_int_rows(p, 1), path, "candidate")
    except _BadRow as e:
        lineno, line, _ = e.args
        raise UsageError(
            f"{path}: line {lineno}: expected a node id, got {line!r}"
        ) from None
    if not len(ids):
        raise UsageError(f"{path}: no candidate ids")
    ids = ids.ravel()  # int64, or Python ints beyond its range
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise UsageError(f"{path}: node id {ids[outside.argmax()]} is not in "
                         f"the {n}-node graph")
    return Candidates(NodeSet.from_ids(ids, n))


def _write_good_nodes(nodes, path) -> None:
    with open(path, "w") as f:
        f.write(f"# good nodes: {nodes.size}\n" + _int_rows_text(nodes.ids()[:, None]))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    _require(args, "n")
    _checked(check_ba_args, args.n, args.m, args.seed)
    g = generate_ba(args.n, args.m, args.seed)
    dump_edge_list(g, args.out)
    print(f"wrote {args.out} ({g.n} nodes, {g.m} edges)")
    return 0


def _cmd_label(args) -> int:
    _require(args, "graph", "problem")
    g = _read(load_edge_list, args.graph, "graph").graph
    ls = generate_labels(g, args.problem, args.oracle, args.seed, args.time_limit)
    save_labels(ls, args.out)
    ones = int(ls.labels.sum())
    print(f"wrote {args.out} ({ones}/{g.n} nodes labeled 1)")
    return 0


def _cmd_train_teacher(args) -> int:
    _require(args, "graph", "labels")
    cfg = _checked(TeacherConfig, hidden_dims=args.hidden, epochs=args.epochs,
                   lr=args.lr, dropout=args.dropout, seed=args.seed)
    g, ls = _read_graph_and_labels(args)
    result = train_teacher(g, ls, cfg)
    gcn.save_params(result.params, args.out_params, seed=cfg.seed)
    write_epoch_log(result.history, args.out_log)
    print(f"wrote {args.out_params} (best epoch {result.best_epoch}, "
          f"val loss {result.best_val_loss:.6f})")
    return 0


def _cmd_train_student(args) -> int:
    _require(args, "graph", "labels", "teacher")
    cfg = _checked(StudentConfig, hidden_dims=args.hidden, epochs=args.epochs,
                   lr=args.lr, dropout=args.dropout, kd_weight=args.kd_weight,
                   temperature=args.temperature, seed=args.seed)
    g, ls = _read_graph_and_labels(args)
    teacher = _read_params(args.teacher, g)
    bw = boost_weights(teacher, g, ls) if args.boost else None
    result = train_student(g, ls, teacher, bw, cfg)
    gcn.save_params(result.params, args.out_params, seed=cfg.seed)
    write_epoch_log(result.history, args.out_log)
    mode = "boosted" if args.boost else "distillation-only"
    print(f"wrote {args.out_params} ({mode}, best epoch {result.best_epoch}, "
          f"val loss {result.best_val_loss:.6f})")
    return 0


def _cmd_prune(args) -> int:
    _require(args, "params", "graph")
    g = _read(load_edge_list, args.graph, "graph").graph
    params = _read_params(args.params, g)
    good = predict_good_nodes(params, g)
    _write_good_nodes(good, args.out)
    print(f"wrote {args.out} ({good.size}/{g.n} good nodes)")
    if good.size == 0:
        print(f"prunesolve prune: warning: the model marks no node good; "
              f"solve rejects {args.out} as a candidate file", file=sys.stderr)
    elif good.size == g.n:
        print("prunesolve prune: warning: the model marks every node good, "
              "so nothing is pruned", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    _require(args, "graph", "problem", "solver")
    g = _read(load_edge_list, args.graph, "graph").graph
    cand = _read_candidates(args.candidates, g.n)
    sol = solve(g, args.problem, args.solver, cand, args.time_limit)
    sys.stdout.write(format_solution(g, sol))
    return 0


def _cmd_bench(args) -> int:
    if not args.config:
        raise UsageError("bench needs --config pointing at a pipeline JSON file")
    raw = _load_config_file(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = _checked(bench_mod.config_from_dict, raw)
    report = bench_mod.run_pipeline(cfg, log=lambda msg: print(msg, file=sys.stderr))
    bench_mod.emit_report(report, "csv", args.out_csv)
    bench_mod.emit_report(report, "json", args.out_json)
    print(f"wrote {args.out_csv} and {args.out_json} ({len(report.rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly: each option's type, range and default are declared here
# once; config-file values are checked by the same types.


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    """Shows every declared default; hidden widths as on the command line."""

    def _get_help_string(self, action):
        if action.default is None or "(default" in action.help:
            return action.help
        if isinstance(action.default, tuple):
            return f"{action.help} (default: {_dims_text(action.default)})"
        return super()._get_help_string(action)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="prunesolve",
        description="Learn-to-prune pipeline for vertex cover and independent set.",
        epilog=f"Option precedence: defaults < --config JSON < flags. "
               f"Default output directory: ${OUT_DIR_ENV} or '.'.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name, func, help_text, seed=0, seed_help="master random seed"):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           epilog="Precedence: defaults < --config < flags.",
                           formatter_class=_Help)
        p.set_defaults(func=func, command_parser=p)
        p.add_argument("--config", help="JSON file of option values")
        p.add_argument("--seed", type=_SEED, default=seed, help=seed_help)
        return p

    def out(p, flag, name, help_text):
        p.add_argument(flag, default=_default_path(name), help=help_text)

    def training(p, cfg):
        p.add_argument("--graph", help="edge-list path (required)")
        p.add_argument("--labels", help="label file path (required)")
        p.add_argument("--epochs", type=_INT, default=cfg.epochs,
                       help="training epochs")
        p.add_argument("--lr", type=_FLOAT, default=cfg.lr, help="learning rate")
        p.add_argument("--dropout", type=_FLOAT, default=cfg.dropout,
                       help="dropout rate")

    p = add("gen", _cmd_gen, "Generate a preferential-attachment graph edge list.")
    p.add_argument("--n", type=_INT, help="number of nodes (required)")
    p.add_argument("--m", type=_INT, default=4, help="edges added per new node")
    out(p, "--out", "graph.txt", "output edge-list path")

    p = add("label", _cmd_label, "Label a graph's nodes with a solver's solution.")
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--problem", type=_PROBLEM, choices=PROBLEMS,
                   help="problem (required)")
    p.add_argument("--oracle", choices=SOLVERS, default=LABEL_ORACLE,
                   help="labeling solver")
    p.add_argument("--time-limit", type=_POSITIVE, default=TIME_LIMIT,
                   help="exact-oracle time limit in seconds")
    out(p, "--out", "labels.txt", "output label path")

    p = add("train-teacher", _cmd_train_teacher, "Train the wide teacher network.",
            seed=TeacherConfig.seed)
    training(p, TeacherConfig)
    p.add_argument("--hidden", type=_DIMS, default=TeacherConfig.hidden_dims,
                   help="hidden widths")
    out(p, "--out-params", "teacher.npz", "parameter output")
    out(p, "--out-log", "teacher_log.csv", "epoch CSV log")

    p = add("train-student", _cmd_train_student,
            "Distill the compact student network from a teacher.",
            seed=StudentConfig.seed)
    training(p, StudentConfig)
    p.add_argument("--teacher", help="teacher parameter file (required)")
    p.add_argument("--hidden", type=_DIMS, default=StudentConfig.hidden_dims,
                   help="hidden widths (default: "
                        + " for mvc, ".join(_dims_text(default_student_dims(q))
                                            for q in PROBLEMS) + " for mis)")
    p.add_argument("--kd-weight", type=_FLOAT, default=StudentConfig.kd_weight,
                   help="distillation weight in the combined loss")
    p.add_argument("--temperature", type=_FLOAT, default=StudentConfig.temperature,
                   help="distillation temperature")
    p.add_argument("--boost", action=argparse.BooleanOptionalAction, default=True,
                   help="weight the supervised term by boosting")
    out(p, "--out-params", "student.npz", "parameter output")
    out(p, "--out-log", "student_log.csv", "epoch CSV log")

    p = add("prune", _cmd_prune, "Predict good nodes with trained parameters.",
            seed_help=_NO_EFFECT)
    p.add_argument("--params", help="parameter file (required)")
    p.add_argument("--graph", help="edge-list path (required)")
    out(p, "--out", "good_nodes.txt", "good-node list output")

    p = add("solve", _cmd_solve, "Run one solver and print the solution.",
            seed_help=_NO_EFFECT)
    p.add_argument("--graph", help="edge-list path (required)")
    p.add_argument("--problem", type=_PROBLEM, choices=PROBLEMS,
                   help="problem (required)")
    p.add_argument("--solver", choices=SOLVERS, help="algorithm (required)")
    p.add_argument("--candidates", default="all",
                   help="good-node file restricting the search, or 'all'")
    p.add_argument("--time-limit", type=_POSITIVE, default=TIME_LIMIT,
                   help="exact-solver time limit in seconds")

    p = add("bench", _cmd_bench, "Run the full pipeline from a JSON config.",
            seed=None, seed_help="master random seed (default: the config's)")
    out(p, "--out-csv", "bench.csv", "CSV report path")
    out(p, "--out-json", "bench.json", "JSON report path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.config and args.command != "bench":  # bench's is a pipeline config
            sub = args.command_parser
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"prunesolve {args.command}: error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary maps failures to exit 2
        print(f"prunesolve {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
