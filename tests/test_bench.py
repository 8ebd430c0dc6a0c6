"""Benchmark pipeline: config parsing, execution, and report emission."""

import csv
import dataclasses
import json
import multiprocessing
import os
import re
import threading

import numpy as np
import pytest

from prunesolve import bench, gcn, training
from prunesolve.bench import (
    CSV_COLUMNS,
    REPORT_NOTES,
    TIMING_COLUMNS,
    VARIANTS,
    BenchReport,
    GraphSpec,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    emit_report,
    run_pipeline,
    speedup,
)
from prunesolve.graph import NodeSet, derive_seed, dump_edge_list, generate_ba
from prunesolve.training import StudentConfig, TeacherConfig


def tiny_config(**overrides):
    """A pipeline config small enough for unit tests (seconds, not minutes)."""
    kwargs = dict(
        problem="mvc",
        train_graph=GraphSpec("train60", n=60, m=2, seed=1),
        test_graphs=[GraphSpec("test80", n=80, m=2, seed=2)],
        solvers=["greedy", "local-search"],
        seed=5,
        teacher=TeacherConfig(hidden_dims=(8,), epochs=30, seed=0),
        student=StudentConfig(hidden_dims=(8,), epochs=30, seed=0),
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def strip_timing(csv_path):
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    keep = [i for i, c in enumerate(rows[0]) if c not in TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


@pytest.fixture(scope="module")
def report():
    return run_pipeline(tiny_config())


@pytest.fixture(scope="module")
def greedy_report():
    return run_pipeline(tiny_config(solvers=["greedy"]))


class TestGraphSpec:
    def test_generator_params(self):
        g = GraphSpec("ba", n=30, m=2, seed=0).materialize()
        assert g.n == 30

    def test_file_path(self, tmp_path):
        g = generate_ba(25, 2, seed=3)
        p = tmp_path / "g.txt"
        dump_edge_list(g, p)
        back = GraphSpec("file", path=str(p)).materialize()
        assert back.n == 25 and back.m == g.m

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError):
            GraphSpec("half", n=30, m=2)
        with pytest.raises(ValueError):
            GraphSpec("both", n=30, m=2, seed=0, path="x.txt")


class TestPipelineConfig:
    def test_training_seeds_derive_from_master(self):
        cfg = PipelineConfig(
            problem="mvc",
            train_graph=GraphSpec("t", n=30, m=2, seed=0),
            test_graphs=[GraphSpec("u", n=30, m=2, seed=1)],
            solvers=["greedy"],
            seed=11,
        )
        assert cfg.teacher.seed == derive_seed(11, "teacher")
        assert cfg.student.seed == derive_seed(11, "student")

    def test_explicit_training_configs_kept(self):
        cfg = tiny_config()
        assert cfg.teacher.hidden_dims == (8,)
        assert cfg.teacher.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(solvers=[])
        with pytest.raises(ValueError):
            tiny_config(solvers=["simplex"])
        with pytest.raises(ValueError):
            tiny_config(test_graphs=[])
        with pytest.raises(ValueError):
            tiny_config(problem="tsp")


class TestSpeedup:
    def test_ratio(self):
        assert speedup(2.0, 0.5) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestPipelineError:
    def test_message_carries_phase(self):
        e = PipelineError("solve", "bad candidate set")
        assert e.phase == "solve"
        assert "phase solve" in str(e) and "bad candidate set" in str(e)


class TestRunPipeline:
    def test_row_grid(self, report):
        assert len(report.rows) == 2 * 3  # solvers x variants
        combos = {(r.solver, r.variant) for r in report.rows}
        assert ("greedy", "baseline") in combos
        assert ("local-search", "pruned") in combos

    def test_baseline_speedup_is_one(self, report):
        for r in report.rows:
            if r.variant == "baseline":
                assert r.speedup == 1.0
                assert r.prune_ratio == 1.0

    def test_row_fields_sane(self, report):
        for r in report.rows:
            assert r.graph == "test80" and r.n == 80
            assert 0.0 < r.prune_ratio <= 1.0
            assert r.runtime_s >= 0.0 and r.speedup > 0.0
            assert 0.0 <= r.recall_teacher <= 1.0
            assert 0.0 <= r.recall_kd <= 1.0
            assert 0.0 <= r.recall_student <= 1.0
            assert r.infer_teacher_ms > 0.0 and r.infer_student_ms > 0.0
            assert r.coverage is not None  # vertex-cover rows carry coverage

    def test_notes_present(self, report):
        assert any("degree" in n for n in report.notes)

    def test_mis_rows_have_no_coverage(self):
        rep = run_pipeline(tiny_config(problem="mis", solvers=["greedy"]))
        assert all(r.coverage is None for r in rep.rows)

    def test_deterministic_modulo_timing(self, tmp_path, report):
        again = run_pipeline(tiny_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, "csv", a)
        emit_report(again, "csv", b)
        assert strip_timing(a) == strip_timing(b)

    def test_two_graphs_keep_row_and_note_order(self, monkeypatch):
        # Every model marks every node good, so each graph gets model notes.
        # Rows come by graph in config order, then solver, then variant; the
        # timeout notes of all graphs follow every model note.
        monkeypatch.setattr(bench, "predict_good_nodes",
                            lambda params, g: NodeSet(np.ones(g.n, dtype=bool)))
        rep = run_pipeline(tiny_config(
            test_graphs=[GraphSpec("a", n=80, m=2, seed=2),
                         GraphSpec("b", n=70, m=2, seed=3)],
            solvers=["greedy", "exact"], exact_time_limit=1e-4))
        assert [(r.graph, r.solver, r.variant) for r in rep.rows] == [
            (g, s, v) for g in "ab" for s in ("greedy", "exact") for v in VARIANTS]
        assert rep.notes == [
            *REPORT_NOTES,
            *(f"{model} marked every node good on {g}" for g in "ab"
              for model in ("teacher", "student", "distilled-only student")),
            *(f"exact baseline on {g} hit the time limit; best incumbent reported"
              for g in "ab"),
        ]

    def test_three_inference_passes_per_test_graph(self, monkeypatch):
        # one pass per model on each graph; the infer_*_ms columns time the
        # passes that make the good-node sets, not extra ones
        calls = []
        predict = gcn.predict

        def counted(g, params, x):
            calls.append(g.n)
            return predict(g, params, x)

        monkeypatch.setattr(gcn, "predict", counted)
        run_pipeline(tiny_config(
            test_graphs=[GraphSpec("a", n=80, m=2, seed=2),
                         GraphSpec("b", n=70, m=2, seed=3)],
            solvers=["greedy"]))
        assert calls == [80, 80, 80, 70, 70, 70]

    def test_exact_timeout_noted_not_fatal(self):
        rep = run_pipeline(tiny_config(solvers=["exact"], exact_time_limit=1e-4))
        assert any("time limit" in n for n in rep.notes)
        assert len(rep.rows) == 3


def stable_fields(rep):
    """A report's rows without the timing columns, and its notes."""
    rows = [{k: v for k, v in dataclasses.asdict(r).items()
             if k not in TIMING_COLUMNS} for r in rep.rows]
    return rows, rep.notes


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the students train side by side only where processes fork")


@needs_fork
class TestConcurrentTraining:
    """Phase 2 trains the distillation-only student in a forked worker while
    the boosted one trains here; wide fits validate on a helper thread."""

    @staticmethod
    def wide_config(**overrides):
        # a teacher wide enough that its validation overlaps training
        fields = dict(
            train_graph=GraphSpec("train200", n=200, m=2, seed=1),
            teacher=TeacherConfig(hidden_dims=(128,), epochs=6, seed=0),
            student=StudentConfig(hidden_dims=(8,), epochs=6, seed=0),
            solvers=["greedy"])
        cfg = tiny_config(**{**fields, **overrides})
        assert 200 * 128 >= training.OVERLAP_MIN_CELLS
        return cfg

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # a host where training may use a second CPU: two CPUs, BLAS pinned
        # to one thread
        monkeypatch.setattr(training, "usable_cpus", lambda: 2)
        monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def test_students_side_by_side_validate_on_their_own_thread(
            self, monkeypatch, tmp_path):
        # students wide enough to overlap alone; every process appends its
        # own gcn.forward calls to one file, as (pid, on the main thread)
        calls = tmp_path / "forward.txt"
        forward = gcn.forward

        def spy(*args):
            with open(calls, "a") as f:
                main = threading.current_thread() is threading.main_thread()
                f.write(f"{os.getpid()} {int(main)}\n")
            return forward(*args)

        monkeypatch.setattr(gcn, "forward", spy)
        cfg = self.wide_config(
            student=StudentConfig(hidden_dims=(128,), epochs=6, seed=0))
        assert bench._fork_students()
        run_pipeline(cfg)
        seen = [line.split() for line in calls.read_text().splitlines()]
        here = str(os.getpid())
        worker = [main for pid, main in seen if pid != here]
        helper = [main for pid, main in seen if pid == here and main == "0"]
        # the worker's teacher logits and six validations, all on its main
        # thread; here only the teacher's six validations ran on a helper
        assert worker == ["1"] * 7
        assert len(helper) == 6

    def test_no_process_or_thread_outlives_run(self, monkeypatch):
        monkeypatch.setattr(bench, "_fork_students", lambda: True)
        threads = set(threading.enumerate())
        run_pipeline(self.wide_config())
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_students_fork_only_with_two_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(bench, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
        assert bench._fork_students() == (cpus == 2)
        pids = []
        train_student = bench.train_student

        def spy(*args):
            pids.append(os.getpid())
            return train_student(*args)

        # a forked worker appends to its own copy of the list, so only the
        # fits of this process show in it
        monkeypatch.setattr(bench, "train_student", spy)
        threads = set(threading.enumerate())
        run_pipeline(self.wide_config())
        assert set(threading.enumerate()) == threads
        assert multiprocessing.active_children() == []
        assert pids == [os.getpid()] * (2 if cpus == 1 else 1)

    def test_fork_and_in_process_give_same_report(self, monkeypatch):
        reports = {}
        for fork in (True, False):
            monkeypatch.setattr(bench, "_fork_students", lambda: fork)
            reports[fork] = run_pipeline(tiny_config(
                student=StudentConfig(hidden_dims=(8,), epochs=30, seed=4)))
        assert stable_fields(reports[True]) == stable_fields(reports[False])

    @pytest.mark.parametrize("fork", [True, False])
    def test_worker_failure_is_a_students_error(self, monkeypatch, fork):
        # the patched train_student is what the forked worker inherits; it
        # fails only outside this process, so only the worker's student
        # fails, and only on the fork path
        monkeypatch.setattr(bench, "_fork_students", lambda: fork)
        here = os.getpid()
        train_student = bench.train_student

        def fails_in_worker(*args):
            if os.getpid() != here:
                raise ValueError(f"student failed in worker {os.getpid()}")
            return train_student(*args)

        monkeypatch.setattr(bench, "train_student", fails_in_worker)
        threads = set(threading.enumerate())
        if fork:
            with pytest.raises(PipelineError, match="student failed in worker") as e:
                run_pipeline(self.wide_config())
            assert e.value.phase == "students"
        else:
            assert run_pipeline(self.wide_config()).rows
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

    def test_in_process_failure_waits_for_worker(self, monkeypatch):
        monkeypatch.setattr(bench, "_fork_students", lambda: True)

        def no_weights(*args):
            raise ValueError("no weights")

        monkeypatch.setattr(bench, "boost_weights", no_weights)
        with pytest.raises(PipelineError, match="no weights") as e:
            run_pipeline(self.wide_config())
        assert e.value.phase == "students"
        assert multiprocessing.active_children() == []


class TestEmitReport:
    def test_csv_columns(self, tmp_path, greedy_report):
        p = tmp_path / "out.csv"
        emit_report(greedy_report, "csv", p)
        with open(p, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + len(greedy_report.rows)
        cov = rows[1][CSV_COLUMNS.index("coverage")]
        assert len(cov.split(".")[1]) == 6

    def test_json_payload(self, tmp_path, greedy_report):
        p = tmp_path / "out.json"
        emit_report(greedy_report, "json", p)
        payload = json.loads(p.read_text())
        assert set(payload) == {"config", "notes", "rows"}
        assert payload["config"]["seed"] == 5
        assert payload["config"]["teacher"]["hidden_dims"] == [8]
        assert len(payload["rows"]) == len(greedy_report.rows)

    def test_unknown_format_rejected(self, tmp_path, greedy_report):
        with pytest.raises(ValueError):
            emit_report(greedy_report, "xml", tmp_path / "out.xml")


class TestConfigParsing:
    def test_minimal_dict(self):
        cfg = config_from_dict({
            "problem": "mis",
            "train_graph": {"name": "t", "n": 40, "m": 2, "seed": 0},
            "test_graphs": [{"name": "u", "n": 40, "m": 2, "seed": 1}],
            "solvers": ["greedy"],
            "seed": 9,
        })
        assert cfg.problem == "mis"
        assert cfg.teacher.seed == derive_seed(9, "teacher")

    def test_nested_training_blocks(self):
        cfg = config_from_dict({
            "problem": "mvc",
            "train_graph": {"name": "t", "n": 40, "m": 2, "seed": 0},
            "test_graphs": [{"name": "u", "n": 40, "m": 2, "seed": 1}],
            "solvers": ["greedy"],
            "teacher": {"hidden_dims": [16, 16], "epochs": 50},
            "student": {"hidden_dims": [8], "epochs": 40, "kd_weight": 0.5},
        })
        assert cfg.teacher.hidden_dims == (16, 16)
        assert cfg.student.kd_weight == 0.5

    def test_unknown_keys_rejected(self):
        base = {
            "problem": "mvc",
            "train_graph": {"name": "t", "n": 40, "m": 2, "seed": 0},
            "test_graphs": [{"name": "u", "n": 40, "m": 2, "seed": 1}],
            "solvers": ["greedy"],
        }
        # a config written for an earlier version fails, not half-applied
        for key, value in (("sover_repeats", 3), ("inference_repeats", 5),
                           ("recall_oracle", "greedy"), ("solver_repeats", 3)):
            with pytest.raises(ValueError, match="unknown keys"):
                config_from_dict({**base, key: value})
        with pytest.raises(ValueError, match="teacher"):
            config_from_dict({**base, "teacher": {"epochz": 5}})

    def test_root_must_be_object(self):
        with pytest.raises(ValueError):
            config_from_dict([1, 2, 3])

    BASE = {
        "problem": "mvc",
        "train_graph": {"name": "t", "n": 40, "m": 2, "seed": 0},
        "test_graphs": [{"name": "u", "n": 40, "m": 2, "seed": 1}],
        "solvers": ["greedy"],
    }

    @pytest.mark.parametrize("change, message", [
        ({"seed": True}, "config.seed must be an integer, got True"),
        ({"exact_time_limit": "60"}, "config.exact_time_limit must be a number"),
        ({"solvers": "greedy"}, "config.solvers must be a list"),
        ({"label_oracle": "tabu"}, "config: unknown solver 'tabu'"),
        ({"train_graph": {"name": "t", "n": 3, "m": 4, "seed": 0}},
         "config.train_graph: need n > m, got n=3, m=4"),
        ({"test_graphs": [{"name": "u", "n": 40, "m": 2, "seed": -1}]},
         "config.test_graphs[0]: seed must be >= 0, got -1"),
        ({"student": {"kd_weight": 1.5}},
         "config.student: kd_weight must be in [0, 1], got 1.5"),
        ({"teacher": {"hidden_dims": [8, 0]}},
         "config.teacher: hidden_dims must be one or more widths >= 1"),
    ], ids=["bool-int", "str-float", "str-list", "oracle", "n-m", "graph-seed",
            "kd-weight", "widths"])
    def test_bad_values_name_their_key(self, change, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict({**self.BASE, **change})

    def test_values_keep_their_json_type(self):
        # an int for a float field stays an int, so the report echoes it as given
        cfg = config_from_dict({**self.BASE, "exact_time_limit": 60,
                                "teacher": None})
        assert type(cfg.exact_time_limit) is int
        assert cfg.teacher == TeacherConfig(seed=derive_seed(0, "teacher"))
