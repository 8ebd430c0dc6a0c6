"""Release acceptance checks for the full prune-then-solve pipeline.

Each test prints a single PASS/FAIL verdict line outside pytest's capture,
then asserts the same condition, so the printed verdict always matches the
test outcome. Criteria that share an expensive training run consume one
module-scoped fixture.
"""

import csv
import json
import statistics
import time
import timeit

import numpy as np
import pytest

from _brute import brute_mis, brute_mvc
from conftest import random_graph
from test_gcn import max_rel_error, numeric_gradient
from prunesolve import bench
from prunesolve.bench import (
    TIMING_COLUMNS,
    GraphSpec,
    PipelineConfig,
    run_pipeline,
    speedup,
)
from prunesolve.cli import main
from prunesolve.gcn import (
    backward,
    forward,
    forward_train,
    init_params,
    kd_loss,
    predict,
    supervised_loss,
)
from prunesolve.graph import NodeSet, derive_seed, generate_ba, make_rng
from prunesolve.solvers import (
    Candidates,
    coverage,
    exact_solve,
    greedy_mis,
    local_search_mis,
    solve,
    validate_solution,
)
from prunesolve.training import (
    StudentConfig,
    TeacherConfig,
    boost_weights,
    degree_features,
    generate_labels,
    predict_good_nodes,
    train_student,
    train_teacher,
)


def verdict(capfd, name, ok, detail):
    """One visible PASS/FAIL line per criterion, then the matching assert."""
    with capfd.disabled():
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_a1_exact_solver_matches_brute_force(capfd):
    """200 seeded random graphs (n <= 14, p = 0.3): the branch-and-bound
    solver must match exhaustive enumeration on both problems, full and
    restricted, in under a minute total."""
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(200):
        n = 4 + seed % 11
        g = random_graph(n, 0.3, seed)
        rng = make_rng(derive_seed(seed, "eligible"))
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[int(rng.integers(n))] = True
        cand = Candidates(NodeSet(mask))

        checks = [
            ("mvc full", exact_solve(g, "mvc").size, brute_mvc(g)[0]),
            ("mis full", exact_solve(g, "mis").size, brute_mis(g)),
            ("mis restricted", exact_solve(g, "mis", cand).size,
             brute_mis(g, mask)),
        ]
        sol = exact_solve(g, "mvc", cand)
        want_size, want_cov = brute_mvc(g, mask)
        checks.append(("mvc restricted size", sol.size, want_size))
        checks.append(("mvc restricted covered", round(coverage(g, sol) * g.m),
                       want_cov))
        for what, got, want in checks:
            if got != want:
                mismatches.append(f"seed {seed} {what}: got {got}, want {want}")
    elapsed = time.perf_counter() - t0
    verdict(capfd, "A1 exact solver vs brute force",
            not mismatches and elapsed < 60.0,
            mismatches[0] if mismatches
            else f"200 graphs, both problems, full+restricted, {elapsed:.1f}s")


def test_a2_gradients_match_finite_differences(capfd):
    """20 random (graph, params) fixtures (n <= 8, widths <= 8, dropout off):
    analytic gradients of the combined loss within 1e-4 relative error of
    central finite differences, in under 30 s."""
    dim_choices = [(1, 4, 2), (1, 8, 2), (1, 8, 8, 2), (1, 6, 6, 2)]
    t0 = time.perf_counter()
    worst_overall = 0.0
    for seed in range(20):
        n = 4 + seed % 5
        dims = dim_choices[seed % len(dim_choices)]
        g = random_graph(n, 0.35, seed)
        rng = np.random.default_rng(seed + 900)
        x = rng.normal(size=(n, dims[0]))
        params = init_params(dims, seed)
        teacher = init_params(dims, seed + 77)
        labels = rng.integers(0, 2, size=n)
        ids = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
        weights = rng.uniform(0.5, 2.0, size=len(ids))
        t_logits = forward(g, teacher, x)

        def combined(logits):
            sup_v, sup_g = supervised_loss(logits, labels, ids, weights)
            kd_v, kd_g = kd_loss(logits, t_logits, ids, 1.5)
            return 0.3 * sup_v + 0.7 * kd_v, 0.3 * sup_g + 0.7 * kd_g

        logits, cache = forward_train(g, params, x)
        _, grad_logits = combined(logits)
        analytic = backward(g, params, cache, grad_logits)
        numeric = numeric_gradient(
            lambda p: combined(forward(g, p, x))[0], params)
        worst, mass = max_rel_error(analytic, numeric)
        assert mass > 1e-6, f"degenerate fixture at seed {seed}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    verdict(capfd, "A2 analytic gradients vs finite differences",
            worst_overall < 1e-4 and elapsed < 30.0,
            f"20 fixtures, worst rel err {worst_overall:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def mvc_pipeline():
    """One full cover pipeline: label BA-1K with greedy, train teacher and
    both students, benchmark greedy on BA-5K. Shared by A3 and A4, and by
    A9 through the third item: the (params, graph, good nodes) of every
    prediction the pipeline made."""
    cfg = PipelineConfig(
        problem="mvc",
        train_graph=GraphSpec("ba1k", n=1000, m=4, seed=1),
        test_graphs=[GraphSpec("ba5k", n=5000, m=4, seed=2)],
        solvers=["greedy"],
        seed=7,
    )
    predictions = []

    def recorded(params, g):
        good = predict_good_nodes(params, g)
        predictions.append((params, g, good))
        return good

    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "predict_good_nodes", recorded)
        report = run_pipeline(cfg)
    return report, time.perf_counter() - t0, predictions


def row_for(report, solver, variant):
    return next(r for r in report.rows
                if r.solver == solver and r.variant == variant)


def test_a3_pruned_greedy_cover_quality(mvc_pipeline, capfd):
    """Greedy cover restricted to the student's good nodes on BA-5K: a strict,
    non-empty good-node subset, edge coverage >= 0.99 and size within 5% of
    unrestricted greedy, with the whole pipeline under 10 minutes."""
    report, elapsed, _ = mvc_pipeline
    base = row_for(report, "greedy", "baseline")
    pruned = row_for(report, "greedy", "pruned")
    ok = (0.0 < pruned.prune_ratio < 1.0
          and pruned.coverage >= 0.99
          and pruned.size <= 1.05 * base.size
          and elapsed < 600.0)
    verdict(capfd, "A3 pruned greedy cover quality",
            ok,
            f"prune ratio {pruned.prune_ratio:.3f}, "
            f"coverage {pruned.coverage:.4f}, size {pruned.size} vs "
            f"baseline {base.size}, pipeline {elapsed:.0f}s")


def test_a4_boosted_student_recall(mvc_pipeline, capfd):
    """On BA-5K oracle labels, the boosted student's recall of good nodes
    must be within 0.01 of both the teacher and the distillation-only
    student, with the student marking a strict, non-empty subset."""
    report, _, _ = mvc_pipeline
    r = row_for(report, "greedy", "pruned")
    ok = (0.0 < r.prune_ratio < 1.0
          and r.recall_student >= r.recall_teacher - 0.01
          and r.recall_student >= r.recall_kd - 0.01)
    verdict(capfd, "A4 boosted student recall",
            ok,
            f"boosted {r.recall_student:.3f}, teacher {r.recall_teacher:.3f}, "
            f"distilled-only {r.recall_kd:.3f}, "
            f"prune ratio {r.prune_ratio:.3f}")


@pytest.fixture(scope="module")
def mis_prune():
    """Independent-set pipeline driven through the library API: teacher and
    boosted student trained on BA-1K greedy labels, pruning a BA-10K test
    graph. Shared state for A5, and for A9 through the models."""
    master = 21
    train_g = generate_ba(1000, 4, seed=1)
    test_g = generate_ba(10000, 4, seed=3)
    labels = generate_labels(train_g, "mis", "greedy",
                             seed=derive_seed(master, "labels"))
    teacher = train_teacher(train_g, labels,
                            TeacherConfig(seed=derive_seed(master, "teacher")))
    bw = boost_weights(teacher.params, train_g, labels)
    student = train_student(train_g, labels, teacher.params, bw,
                            StudentConfig(seed=derive_seed(master, "student")))
    good = predict_good_nodes(student.params, test_g)
    return test_g, good, {"teacher": teacher.params, "student": student.params}


def test_a5_pruned_mis_speedups(mis_prune, capfd):
    """On BA-10K, pruning to the student's good nodes must speed local
    search up >= 2.0x and greedy up >= 1.2x (medians of 3 runs), with the
    good set a proper, non-empty fraction (0 < ratio < 0.9) of the nodes."""
    g, good, _ = mis_prune
    cand = Candidates(good)
    ratio = good.size / g.n
    invalid = []

    def median_runtime(solve, **kw):
        times = []
        for _ in range(3):
            sol = solve(g, **kw)
            rep = validate_solution(g, sol)
            if not rep.ok:
                invalid.extend(rep.failures)
            times.append(sol.runtime)
        return float(np.median(times))

    ls_up = speedup(median_runtime(local_search_mis),
                    median_runtime(local_search_mis, cand=cand))
    gr_up = speedup(median_runtime(greedy_mis),
                    median_runtime(greedy_mis, cand=cand))
    ok = ls_up >= 2.0 and gr_up >= 1.2 and 0.0 < ratio < 0.9 and not invalid
    verdict(capfd, "A5 pruned independent-set speedups",
            ok,
            invalid[0] if invalid
            else f"local search {ls_up:.2f}x, greedy {gr_up:.2f}x, "
                 f"good-node ratio {ratio:.3f}")


def test_a6_student_inference_and_size(capfd):
    """On BA-50K, the narrow student's inference pass must beat the wide
    teacher's (medians of 5) at under 10% of the parameter count."""
    g = generate_ba(50000, 4, seed=4)
    x = degree_features(g)
    teacher = init_params([1, 128, 128, 128, 2], 0)
    student = init_params([1, 32, 32, 32, 2], 0)

    def median_ms(params):
        runs = timeit.repeat(lambda: predict(g, params, x), number=1, repeat=5)
        return 1e3 * statistics.median(runs)

    t_ms = median_ms(teacher)
    s_ms = median_ms(student)
    frac = student.param_count() / teacher.param_count()
    ok = s_ms < t_ms and frac < 0.10
    verdict(capfd, "A6 student inference speed and size",
            ok,
            f"student {s_ms:.1f}ms vs teacher {t_ms:.1f}ms, "
            f"params {student.param_count()}/{teacher.param_count()} "
            f"({frac:.1%})")


def test_a7_randomized_solver_validity(capfd):
    """1000 randomized (graph, problem, solver, candidate-set) trials: every
    returned solution must pass validation."""
    rng = np.random.default_rng(20240814)
    violations = []
    trials = 0
    for trial in range(1000):
        problem = ("mvc", "mis")[int(rng.integers(2))]
        solver = ("greedy", "local-search", "exact")[int(rng.integers(3))]
        n = int(rng.integers(4, 17 if solver == "exact" else 41))
        p = float(rng.choice([0.0, 0.1, 0.25, 0.4]))
        g = random_graph(n, p, int(rng.integers(1 << 20)))
        if rng.random() < 0.5:
            cand = Candidates()
        else:
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[int(rng.integers(n))] = True
            cand = Candidates(NodeSet(mask))
        sol = solve(g, problem, solver, cand, 30.0)
        rep = validate_solution(g, sol)
        if not rep.ok:
            violations.append(f"trial {trial} ({problem}/{solver}): "
                              + "; ".join(rep.failures))
        trials += 1
    verdict(capfd, "A7 randomized solver validity",
            trials == 1000 and not violations,
            violations[0] if violations else f"{trials} trials, 0 violations")


def test_a8_bench_reports_identical_modulo_timing(tmp_path, capfd):
    """Two `bench` command invocations with the same config must produce
    byte-identical CSV reports once timing columns are removed."""
    cfg = {
        "problem": "mvc",
        "train_graph": {"name": "t60", "n": 60, "m": 2, "seed": 1},
        "test_graphs": [{"name": "t80", "n": 80, "m": 2, "seed": 2}],
        "solvers": ["greedy", "local-search"],
        "seed": 5,
        "teacher": {"hidden_dims": [8], "epochs": 30},
        "student": {"hidden_dims": [8], "epochs": 30},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_once(tag):
        out = tmp_path / tag
        out.mkdir()
        code = main(["bench", "--config", str(cfg_path),
                     "--out-csv", str(out / "bench.csv"),
                     "--out-json", str(out / "bench.json")])
        with open(out / "bench.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rows[0])
                if name not in TIMING_COLUMNS]
        stripped = "\n".join(",".join(row[i] for i in keep) for row in rows)
        return code, stripped.encode()

    code1, first = run_once("run1")
    code2, second = run_once("run2")
    ok = code1 == 0 and code2 == 0 and first == second
    verdict(capfd, "A8 benchmark determinism modulo timing",
            ok,
            f"{len(first)} bytes compared" if first == second
            else "stripped reports differ")


def test_a9_float32_inference_matches_float64(mvc_pipeline, mis_prune, capfd):
    """The float32 pass behind predict_good_nodes must mark the same nodes
    as thresholded float64 logits on every trained model: A3/A4's teacher,
    boosted and distillation-only students on BA-5K, and A5's teacher and
    student on BA-10K. Any flipped node fails; the smallest float64 margin
    shows how near a tie the models came."""
    _, _, predictions = mvc_pipeline
    g10, good10, models = mis_prune
    teacher10 = models["teacher"]
    cases = [*predictions,
             (teacher10, g10, predict_good_nodes(teacher10, g10)),
             (models["student"], g10, good10)]
    flips, smallest = 0, np.inf
    for params, g, good in cases:
        logits = forward(g, params, degree_features(g))
        margin = logits[:, 1] - logits[:, 0]
        flips += int((good.mask != (margin >= 0)).sum())
        smallest = min(smallest, float(np.abs(margin).min()))
    verdict(capfd, "A9 float32 inference vs float64 forward",
            len(predictions) == 3 and flips == 0,
            f"{len(cases)} models, {flips} flipped nodes, "
            f"smallest float64 margin {smallest:.2e}")
