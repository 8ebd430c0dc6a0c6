"""Command-line interface: subcommands, precedence, and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prunesolve
from test_gcn import zero_like
from prunesolve.cli import OUT_DIR_ENV, _write_good_nodes, main
from prunesolve.gcn import init_params, load_params, save_params
from prunesolve.graph import NodeSet, load_edge_list
from prunesolve.training import load_labels


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def make_graph(workdir, name="g.txt", n=60, m=2, seed=1):
    assert run("gen", "--n", str(n), "--m", str(m), "--seed", str(seed),
               "--out", str(workdir / name)) == 0
    return workdir / name


def make_labels(workdir, graph, name="labels.txt", problem="mvc"):
    out = workdir / name
    assert run("label", "--graph", str(graph), "--problem", problem,
               "--out", str(out)) == 0
    return out


def npz_bytes(**arrays):
    """The bytes of an npz archive holding ``arrays``."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def make_teacher(workdir, graph, labels, name="teacher.npz"):
    out = workdir / name
    assert run("train-teacher", "--graph", str(graph), "--labels", str(labels),
               "--hidden", "8", "--epochs", "20",
               "--out-params", str(out),
               "--out-log", str(workdir / "tlog.csv")) == 0
    return out


class TestGen:
    def test_edge_count_example(self, workdir):
        out = make_graph(workdir, n=1000, m=4, seed=7)
        assert len(out.read_text().splitlines()) == 3990

    def test_missing_n_is_usage_error(self, workdir):
        assert run("gen") == 1

    def test_defaults_go_to_out_dir(self, workdir):
        assert run("gen", "--n", "20", "--m", "2") == 0
        assert (workdir / "graph.txt").exists()

    def test_config_file_with_flag_override(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps({"n": 30, "m": 2, "out": str(workdir / "o.txt")}))
        assert run("gen", "--config", str(cfg), "--m", "3") == 0
        # flag m=3 wins over config m=2; config n=30 still applies
        assert len((workdir / "o.txt").read_text().splitlines()) == 3 + 3 * 27

    def test_unknown_config_key_rejected(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps({"n": 30, "m": 2, "sede": 1}))
        assert run("gen", "--config", str(cfg)) == 1

    def test_malformed_config_rejected(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text("{not json")
        assert run("gen", "--config", str(cfg)) == 1


class TestLabel:
    def test_writes_labels(self, workdir):
        g = make_graph(workdir)
        out = make_labels(workdir, g)
        ls = load_labels(out)
        assert ls.problem == "mvc" and ls.oracle == "greedy"
        assert ls.n == 60

    def test_missing_graph_file(self, workdir):
        assert run("label", "--graph", "nope.txt", "--problem", "mvc") == 1

    def test_bad_problem_choice(self, workdir):
        g = make_graph(workdir)
        assert run("label", "--graph", str(g), "--problem", "sat") == 1

    @pytest.mark.parametrize("key, value, message", [
        ("problem", "vc", "unknown problem 'vc', expected one of mvc, mis"),
        ("oracle", "tabu", "unknown oracle 'tabu', expected one of greedy, "
                           "local-search, exact"),
    ], ids=["problem", "oracle"])
    def test_bad_config_choice_is_usage_error(self, workdir, capsys,
                                              key, value, message):
        g = make_graph(workdir)
        cfg = workdir / "label.json"
        cfg.write_text(json.dumps({"problem": "mvc", key: value}))
        capsys.readouterr()
        assert run("label", "--config", str(cfg), "--graph", str(g)) == 1
        assert message in capsys.readouterr().err
        assert not (workdir / "labels.txt").exists()

    def test_exact_timeout_is_runtime_failure(self, workdir):
        g = make_graph(workdir, n=300, m=4)
        assert run("label", "--graph", str(g), "--problem", "mvc",
                   "--oracle", "exact", "--time-limit", "0.0001") == 2


class TestTraining:
    def test_teacher_roundtrip(self, workdir):
        g = make_graph(workdir)
        labels = make_labels(workdir, g)
        params_file = make_teacher(workdir, g, labels)
        params = load_params(params_file)
        assert params.dims == [1, 8, 2]
        log = (workdir / "tlog.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_loss"
        assert len(log) == 21

    def test_student_boosted_and_plain(self, workdir):
        g = make_graph(workdir)
        labels = make_labels(workdir, g)
        teacher = make_teacher(workdir, g, labels)
        for extra, name in [((), "s1.npz"), (("--no-boost",), "s2.npz")]:
            assert run("train-student", "--graph", str(g),
                       "--labels", str(labels), "--teacher", str(teacher),
                       "--hidden", "4", "--epochs", "15",
                       "--out-params", str(workdir / name),
                       "--out-log", str(workdir / "slog.csv"), *extra) == 0
        assert load_params(workdir / "s1.npz").dims == [1, 4, 2]

    def test_missing_teacher_file(self, workdir):
        g = make_graph(workdir)
        labels = make_labels(workdir, g)
        assert run("train-student", "--graph", str(g), "--labels", str(labels),
                   "--teacher", "missing.npz") == 1

    def test_bad_hidden_spec(self, workdir):
        g = make_graph(workdir)
        labels = make_labels(workdir, g)
        assert run("train-teacher", "--graph", str(g), "--labels", str(labels),
                   "--hidden", "8,x") == 1

    @pytest.mark.parametrize("command", ["train-teacher", "train-student"])
    @pytest.mark.parametrize("n_labels", [2, 65])
    def test_labels_must_fit_graph(self, workdir, capsys, command, n_labels):
        # fewer labels than nodes used to train and exit 0, more to crash
        # inside training and exit 2
        g = make_graph(workdir)
        labels = workdir / "labels.txt"
        labels.write_text("# problem: mvc\n# oracle: greedy\n" + "".join(
            f"{v} {v % 2} {('train', 'val')[v % 2]}\n" for v in range(n_labels)))
        extra = []
        if command == "train-student":
            extra = ["--teacher", str(workdir / "teacher.npz")]
            save_params(init_params([1, 4, 2], 0), extra[1])
        capsys.readouterr()
        assert run(command, "--graph", str(g), "--labels", str(labels), *extra,
                   "--epochs", "2", "--out-params", str(workdir / "out.npz")) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"label file {labels} labels {n_labels} nodes, the graph has 60" in err
        assert not (workdir / "out.npz").exists()

    @pytest.mark.parametrize("body, detail", [
        (npz_bytes(a=np.arange(3)), "'dims is not a file in the archive'"),
        (npz_bytes(dims=np.array([1, 2]), w_self_0=np.ones((1, 2)))[:40],
         "File is not a zip file"),
    ], ids=["no-dims", "truncated"])
    @pytest.mark.parametrize("argv", [
        ["prune", "--params"],
        ["train-student", "--labels", "labels.txt", "--teacher"],
    ], ids=["prune", "train-student"])
    def test_bad_parameter_archive_exits_1(self, workdir, capsys, argv, body, detail):
        g = make_graph(workdir)
        make_labels(workdir, g)
        bad = workdir / "bad.npz"
        bad.write_bytes(body)
        capsys.readouterr()
        assert run(*argv, str(bad), "--graph", str(g)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{bad}: not a parameter archive: {detail}" in err


class TestPruneAndSolve:
    def test_prune_writes_good_nodes(self, workdir):
        g = make_graph(workdir)
        labels = make_labels(workdir, g)
        teacher = make_teacher(workdir, g, labels)
        out = workdir / "good.txt"
        assert run("prune", "--params", str(teacher), "--graph", str(g),
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# good nodes: ")
        ids = [int(x) for x in lines[1:]]
        assert len(ids) == int(lines[0].split(":")[1])
        assert all(0 <= v < 60 for v in ids)

    @pytest.mark.parametrize("bias, size, warning", [
        ([1.0, 0.0], 0, "the model marks no node good; solve rejects"),
        ([0.0, 1.0], 60, "the model marks every node good, so nothing is pruned"),
    ], ids=["none-good", "all-good"])
    def test_degenerate_prune_warns(self, workdir, capsys, bias, size, warning):
        g = make_graph(workdir)
        params = zero_like(init_params([1, 4, 2], seed=0))
        params.bias[-1][:] = bias
        save_params(params, workdir / "forced.npz")
        out = workdir / "good.txt"
        capsys.readouterr()
        assert run("prune", "--params", str(workdir / "forced.npz"),
                   "--graph", str(g), "--out", str(out)) == 0
        assert out.read_text().startswith(f"# good nodes: {size}\n")
        assert warning in capsys.readouterr().err

    def test_solve_prints_solution(self, workdir, capsys):
        g = make_graph(workdir)
        capsys.readouterr()
        assert run("solve", "--graph", str(g), "--problem", "mvc",
                   "--solver", "greedy") == 0
        out = capsys.readouterr().out.splitlines()
        head = out[0].split()
        assert head[0] == "mvc" and head[1] == "greedy"
        assert len(out) == 1 + int(head[2])

    def test_solve_accepts_prune_output_as_candidates(self, workdir, capsys):
        g = make_graph(workdir)
        labels = make_labels(workdir, g)
        teacher = make_teacher(workdir, g, labels)
        good = workdir / "good.txt"
        assert run("prune", "--params", str(teacher), "--graph", str(g),
                   "--out", str(good)) == 0
        capsys.readouterr()
        assert run("solve", "--graph", str(g), "--problem", "mis",
                   "--solver", "local-search", "--candidates", str(good),
                   "--seed", "3") == 0
        head = capsys.readouterr().out.splitlines()[0].split()
        assert head[0] == "mis" and head[1] == "local-search"

    @pytest.mark.parametrize("problem", ["mvc", "mis"])
    def test_local_search_ignores_seed(self, workdir, capsys, problem):
        g = make_graph(workdir, n=2000, m=4)
        outputs = []
        for seed in ("1", "2"):
            capsys.readouterr()
            assert run("solve", "--graph", str(g), "--problem", problem,
                       "--solver", "local-search", "--seed", seed) == 0
            head, *ids = capsys.readouterr().out.splitlines()
            outputs.append((head.split()[:4], ids))  # field 4 is the runtime
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == int(outputs[0][0][2]) > 0

    def test_solve_exact_reports_optimality(self, workdir, capsys):
        g = make_graph(workdir, n=30, m=1)
        capsys.readouterr()
        assert run("solve", "--graph", str(g), "--problem", "mvc",
                   "--solver", "exact") == 0
        assert capsys.readouterr().out.splitlines()[0].split()[5] == "true"

    @pytest.mark.parametrize("config, message", [
        ({"problem": "vc", "solver": "greedy"},
         "unknown problem 'vc', expected one of mvc, mis"),
        ({"problem": "vc", "solver": "exact"},
         "unknown problem 'vc', expected one of mvc, mis"),
        ({"problem": "mis", "solver": "tabu"},
         "unknown solver 'tabu', expected one of greedy, local-search, exact"),
    ], ids=["greedy-bad-problem", "exact-bad-problem", "bad-solver"])
    def test_bad_config_choice_is_usage_error(self, workdir, capsys,
                                              config, message):
        g = make_graph(workdir)
        cfg = workdir / "solve.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("solve", "--config", str(cfg), "--graph", str(g)) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_config_problem_case_insensitive(self, workdir, capsys):
        g = make_graph(workdir)
        cfg = workdir / "solve.json"
        cfg.write_text(json.dumps({"problem": "MIS", "solver": "greedy"}))
        capsys.readouterr()
        assert run("solve", "--config", str(cfg), "--graph", str(g)) == 0
        assert capsys.readouterr().out.split()[0] == "mis"

    def test_empty_candidate_file_rejected(self, workdir):
        g = make_graph(workdir)
        empty = workdir / "empty.txt"
        empty.write_text("# good nodes: 0\n")
        assert run("solve", "--graph", str(g), "--problem", "mvc",
                   "--solver", "greedy", "--candidates", str(empty)) == 1

    def test_good_node_file_format(self, workdir):
        out = workdir / "good.txt"
        _write_good_nodes(NodeSet.from_ids([12, 3, 40], 60), out)
        assert out.read_bytes() == b"# good nodes: 3\n3\n12\n40\n"
        _write_good_nodes(NodeSet(np.zeros(5, dtype=bool)), out)
        assert out.read_bytes() == b"# good nodes: 0\n"

    @pytest.mark.parametrize("body, message", [
        (b"# good nodes: 2\n1\n2 3\n", "line 3: expected a node id, got '2 3'"),
        (b"# good nodes: 2\n+1\n2 3\n", "line 3: expected a node id, got '2 3'"),
        (b"1\r\n\r\n x1 \r\n", "line 3: expected a node id, got 'x1'"),
        (b"4 # note\n", "line 1: expected a node id, got '4 # note'"),
        (b"# nothing\n\n", "no candidate ids"),
        (b"", "no candidate ids"),
        (b"3\n60\n", "node id 60 is not in the 60-node graph"),
        (b"-1\n", "node id -1 is not in the 60-node graph"),
        (b"1\n99999999999999999999999\n",
         "node id 99999999999999999999999 is not in the 60-node graph"),
        (b"1\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 2"),
    ])
    def test_bad_candidate_file_names_line(self, workdir, capsys, body, message):
        g = make_graph(workdir)
        cand = workdir / "cand.txt"
        cand.write_bytes(body)
        assert run("solve", "--graph", str(g), "--problem", "mvc",
                   "--solver", "greedy", "--candidates", str(cand)) == 1
        assert f"{cand}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name, body", [
        (["solve", "--problem", "mvc", "--solver", "greedy", "--graph"],
         "bad.txt", b"0 1\nx y\n"),
        (["train-teacher", "--graph", "g.txt", "--labels"], "bad.txt", b"0 1\n"),
        (["prune", "--graph", "g.txt", "--params"], "bad.npz", b"not an archive\n"),
        (["solve", "--problem", "mvc", "--solver", "greedy", "--graph"],
         "bad.txt", b"0 1\n\xff\xfe 2\n"),
        (["solve", "--problem", "mvc", "--solver", "greedy", "--graph", "g.txt",
          "--candidates"], "bad.txt", b"1\n\xff\n"),
    ], ids=["edge-list", "labels", "params", "edge-list-not-utf8", "candidates-not-utf8"])
    def test_malformed_input_file_exits_1(self, workdir, capsys, argv, name, body):
        make_graph(workdir)
        bad = workdir / name
        bad.write_bytes(body)
        capsys.readouterr()
        assert run(*argv, str(bad)) == 1
        out, err = capsys.readouterr()
        assert out == "" and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "mvc", "--solver", "greedy", "--graph"],
        ["solve", "--problem", "mvc", "--solver", "greedy", "--graph", "g.txt",
         "--candidates"],
        ["train-teacher", "--graph", "g.txt", "--labels"],
        ["prune", "--graph", "g.txt", "--params"],
    ], ids=["graph", "candidates", "labels", "params"])
    def test_directory_input_exits_1(self, workdir, capsys, argv):
        make_graph(workdir)
        folder = workdir / "folder"
        folder.mkdir()
        capsys.readouterr()
        assert run(*argv, str(folder)) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"file {folder}: Is a directory" in err

    def test_candidate_file_layouts(self, workdir, capsys):
        g = make_graph(workdir)
        plain = workdir / "plain.txt"
        plain.write_bytes(b"# good nodes: 4\n3\n7\n12\n40\n")
        dirty = workdir / "dirty.txt"
        dirty.write_bytes(b"\t+3\r\n\r\n  # c\r\n007 \r\n1_2\r\n40")
        signed = workdir / "signed.txt"  # one token outside the plain layout
        signed.write_bytes(b"# good nodes: 4\n+3\n7\n12\n40\n")
        outputs = []
        for cand in (plain, dirty, signed):
            capsys.readouterr()
            assert run("solve", "--graph", str(g), "--problem", "mis",
                       "--solver", "greedy", "--candidates", str(cand)) == 0
            head, *ids = capsys.readouterr().out.splitlines()
            outputs.append((head.split()[:3], ids))
        assert outputs[0] == outputs[1] == outputs[2]
        assert set(outputs[0][1]) <= {"3", "7", "12", "40"}


class TestBench:
    def bench_config(self, workdir, seed=5):
        cfg = {
            "problem": "mvc",
            "train_graph": {"name": "t", "n": 60, "m": 2, "seed": 1},
            "test_graphs": [{"name": "u", "n": 80, "m": 2, "seed": 2}],
            "solvers": ["greedy"],
            "seed": seed,
            "teacher": {"hidden_dims": [8], "epochs": 20},
            "student": {"hidden_dims": [8], "epochs": 20},
        }
        path = workdir / "bench_cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_bench_emits_both_reports(self, workdir):
        cfg = self.bench_config(workdir)
        assert run("bench", "--config", str(cfg)) == 0
        assert (workdir / "bench.csv").exists()
        payload = json.loads((workdir / "bench.json").read_text())
        assert payload["config"]["seed"] == 5
        assert len(payload["rows"]) == 3

    def test_seed_flag_overrides_config(self, workdir):
        cfg = self.bench_config(workdir, seed=5)
        assert run("bench", "--config", str(cfg), "--seed", "9") == 0
        payload = json.loads((workdir / "bench.json").read_text())
        assert payload["config"]["seed"] == 9

    def test_bench_requires_config(self, workdir):
        assert run("bench") == 1

    def test_jobs_flag_is_gone(self, workdir):
        cfg = self.bench_config(workdir)
        assert run("bench", "--config", str(cfg), "--jobs", "2") == 1
        assert not (workdir / "bench.csv").exists()

    def test_bench_bad_config_key(self, workdir):
        path = workdir / "bad.json"
        path.write_text(json.dumps({"problem": "mvc", "solvrs": ["greedy"]}))
        assert run("bench", "--config", str(path)) == 1


PIPELINE = {
    "problem": "mvc",
    "train_graph": {"name": "t", "n": 60, "m": 2, "seed": 1},
    "test_graphs": [{"name": "u", "n": 80, "m": 2, "seed": 2}],
    "solvers": ["greedy"],
    "teacher": {"hidden_dims": [8], "epochs": 20},
    "student": {"hidden_dims": [8], "epochs": 20},
}
SOLVE = ["solve", "--graph", "g.txt", "--problem", "mvc"]


class TestBadValues:
    """Every bad option value, from a flag or a config file, exits 1 naming
    its key before any input is read: the input files here do not exist."""

    @pytest.mark.parametrize("argv, config, message", [
        ([*SOLVE, "--solver", "greedy"], {"seed": "abc"},
         "seed must be an integer, got 'abc'"),
        (["gen"], {"n": "many"}, "n must be an integer, got 'many'"),
        ([*SOLVE, "--solver", "exact", "--time-limit", "-1"], None,
         "argument --time-limit: value must be > 0, got -1.0"),
        (["gen", "--n", "3", "--m", "4"], None, "need n > m, got n=3, m=4"),
        (["gen", "--n", "20", "--seed", "-1"], None,
         "argument --seed: value must be >= 0, got -1"),
        (["gen", "--n", "30"], {"m": 2.7}, "m must be an integer, got 2.7"),
        (["train-student", "--graph", "g.txt", "--labels", "l.txt",
          "--teacher", "t.npz"], {"boost": "no"},
         "boost must be true or false, got 'no'"),
        (["bench"], {**PIPELINE, "seed": 1.5},
         "seed must be an integer, got 1.5"),
        (["bench"], {**PIPELINE, "teacher": {"epochs": "5"}},
         "teacher.epochs must be an integer, got '5'"),
        (["bench"], {**PIPELINE, "exact_time_limit": -1},
         "exact_time_limit must be > 0, got -1"),
    ], ids=["solve-seed", "gen-n", "solve-time-limit", "gen-n-m", "gen-seed",
            "gen-m", "student-boost", "bench-seed", "bench-epochs",
            "bench-time-limit"])
    def test_exits_1_before_any_work(self, workdir, capsys, argv, config, message):
        if config is not None:
            (workdir / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "cfg.json"]
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert message in err
        assert out == "" and "phase 1" not in err
        assert sorted(workdir.iterdir()) == before


class TestTopLevel:
    def test_no_command_is_usage_error(self, workdir):
        assert run() == 1

    def test_solve_loads_no_scipy(self, tmp_path):
        # scipy is imported only to build the network's D^-1 A operator, so a
        # fresh process that solves in full space never loads it
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n")
        script = (
            "import sys\n"
            "from prunesolve.cli import main\n"
            f"code = main(['solve', '--graph', {str(graph)!r}, "
            "'--problem', 'mvc', '--solver', 'greedy'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(prunesolve.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_unknown_command(self, workdir):
        assert run("frobnicate") == 1

    def test_help_exits_zero(self, workdir, capsys):
        assert run("--help") == 0
        assert "command" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, workdir, capsys):
        assert run("gen", "--help") == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("command, shown", [
        ("gen", "edges added per new node (default: 4)"),
        ("label", "time limit in seconds (default: 3600.0)"),
        ("train-teacher", "hidden widths (default: 128,128,128)"),
        ("train-student", "learning rate (default: 0.001)"),
        ("prune", "good-node list output (default: {workdir}/good_nodes.txt)"),
        ("solve", "or 'all' (default: all)"),
        ("bench", "CSV report path (default: {workdir}/bench.csv)"),
    ])
    def test_help_shows_declared_default(self, workdir, capsys, monkeypatch,
                                         command, shown):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside the path
        assert run(command, "--help") == 0
        assert shown.format(workdir=workdir) in capsys.readouterr().out
