"""Label generation, boosting, and the teacher/student training loops."""

import threading

import numpy as np
import pytest

from _brute import serial_fit
from conftest import graph_from_edges
from prunesolve import gcn, training
from prunesolve.gcn import GcnParams, forward, init_params, kd_loss, supervised_loss
from prunesolve.graph import derive_seed, generate_ba
from prunesolve.training import (
    BoostWeights,
    LabelSet,
    StudentConfig,
    TeacherConfig,
    TrainingDivergedError,
    boost_weights,
    default_student_dims,
    degree_features,
    generate_labels,
    load_labels,
    predict_good_nodes,
    recall,
    save_labels,
    train_student,
    train_teacher,
    write_epoch_log,
)
from prunesolve.graph import NodeSet


def manual_labels(problem, labels, train_ids, oracle="greedy"):
    labels = np.asarray(labels, dtype=np.int8)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    val = np.setdiff1d(np.arange(len(labels)), train_ids)
    return LabelSet(problem, oracle, labels, train_ids, val)


def zero_params(dims):
    p = init_params(dims, seed=0)
    for w in p.w_self + p.w_neigh:
        w[:] = 0.0
    return p


class TestLabelSet:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            LabelSet("mvc", "greedy", np.zeros(4, np.int8),
                     np.array([0, 1]), np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            LabelSet("mvc", "greedy", np.zeros(4, np.int8),
                     np.array([0]), np.array([1, 2]))

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError):
            LabelSet("mvc", "greedy", np.array([0, 2], np.int8),
                     np.array([0]), np.array([1]))


class TestGenerateLabels:
    def test_star_mvc_labels_center_only(self, star5):
        ls = generate_labels(star5, "mvc", "exact", seed=0)
        assert list(ls.labels) == [1, 0, 0, 0, 0]

    def test_triangle_mis_has_one_positive(self, triangle):
        ls = generate_labels(triangle, "mis", "exact", seed=0)
        assert ls.labels.sum() == 1

    def test_split_is_half_and_disjoint(self):
        g = generate_ba(101, 3, seed=0)
        ls = generate_labels(g, "mvc", "greedy", seed=5)
        assert len(ls.train_ids) == 50 and len(ls.val_ids) == 51
        assert not np.intersect1d(ls.train_ids, ls.val_ids).size

    def test_split_deterministic_and_seeded(self):
        g = generate_ba(60, 3, seed=0)
        a = generate_labels(g, "mvc", "greedy", seed=1)
        b = generate_labels(g, "mvc", "greedy", seed=1)
        c = generate_labels(g, "mvc", "greedy", seed=2)
        assert np.array_equal(a.train_ids, b.train_ids)
        assert not np.array_equal(a.train_ids, c.train_ids)

    def test_local_search_oracle_runs(self, cycle5):
        ls = generate_labels(cycle5, "mis", "local-search", seed=3)
        assert ls.labels.sum() == 2

    def test_exact_timeout_suggests_fallback(self):
        g = generate_ba(300, 4, seed=1)
        with pytest.raises(RuntimeError, match="time limit"):
            generate_labels(g, "mvc", "exact", seed=0, time_limit=1e-4)

    def test_unknown_oracle_rejected(self, triangle):
        with pytest.raises(ValueError):
            generate_labels(triangle, "mvc", "random")

    def test_ba1k_greedy_positive_fraction(self):
        g = generate_ba(1000, 4, seed=1)
        frac = generate_labels(g, "mvc", "greedy").labels.mean()
        assert 0.4 <= frac <= 0.7


class TestLabelIo:
    def test_roundtrip(self, tmp_path, star5):
        ls = generate_labels(star5, "mvc", "exact", seed=0)
        p = tmp_path / "labels.txt"
        save_labels(ls, p)
        back = load_labels(p)
        assert back.problem == "mvc" and back.oracle == "exact"
        assert np.array_equal(back.labels, ls.labels)
        assert np.array_equal(back.train_ids, ls.train_ids)

    def test_missing_problem_is_an_error(self, tmp_path):
        p = tmp_path / "bare.txt"
        p.write_text("0 1 train\n1 0 val\n")
        with pytest.raises(ValueError):
            load_labels(p)


class TestDegreeFeatures:
    def test_normalized_by_max(self, star5):
        x = degree_features(star5)
        assert x.shape == (5, 1)
        assert x[0, 0] == 1.0
        assert np.allclose(x[1:, 0], 0.25)

    def test_edgeless_graph_is_all_zero(self, edgeless6):
        assert np.all(degree_features(edgeless6) == 0.0)


class TestBoostWeights:
    def test_all_correct_star_weights_follow_degree(self, star5):
        # handcrafted single-layer teacher that separates the star exactly:
        # margin = x - (mean neighbor x)/2 is positive only for the center
        teacher = GcnParams([np.array([[0.0, 1.0]])],
                            [np.array([[0.0, -0.5]])])
        labels = manual_labels("mvc", [1, 0, 0, 0, 0], np.arange(5), "exact")
        bw = boost_weights(teacher, star5, labels)
        assert np.allclose(bw.w, [2.5, 0.625, 0.625, 0.625, 0.625])
        assert bw.w.sum() == pytest.approx(5.0)
        assert bw.epsilon == pytest.approx(1e-6)

    def test_epsilon_half_leaves_only_degree_term(self, path3):
        # zero teacher predicts everything good; labels make that half wrong
        labels = manual_labels("mvc", [1, 0, 0], [0, 1])
        bw = boost_weights(zero_params([1, 2]), path3, labels)
        assert bw.epsilon == pytest.approx(0.5)
        assert np.allclose(bw.w, [2 / 3, 4 / 3])

    def test_misclassified_equal_degree_node_weighs_more(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        labels = manual_labels("mvc", [1, 1, 1, 0], np.arange(4))
        bw = boost_weights(zero_params([1, 2]), g, labels)
        assert bw.w[3] > bw.w[0]
        assert bw.w[0] == pytest.approx(bw.w[1]) == pytest.approx(bw.w[2])
        assert bw.epsilon == pytest.approx(0.25)

    def test_mis_uses_reciprocal_degree(self, star5):
        # zero teacher predicts all nodes good, matching all-one labels, so
        # only the reciprocal-degree term differentiates the weights
        labels = manual_labels("mis", [1, 1, 1, 1, 1], np.arange(5))
        bw = boost_weights(zero_params([1, 2]), star5, labels)
        assert bw.w[0] < bw.w[1]
        assert np.allclose(bw.w[1:], bw.w[1])
        assert bw.w.sum() == pytest.approx(5.0)

    def test_isolated_node_reciprocal_uses_one(self):
        g = graph_from_edges(3, [(0, 1)])
        labels = manual_labels("mis", [1, 0, 1], np.arange(3))
        bw = boost_weights(zero_params([1, 2]), g, labels)
        assert np.isfinite(bw.w).all() and (bw.w > 0).all()

    def test_all_wrong_is_clamped(self, path3):
        labels = manual_labels("mvc", [0, 0, 0], np.arange(3))
        bw = boost_weights(zero_params([1, 2]), path3, labels)
        assert bw.epsilon == pytest.approx(1 - 1e-6)
        assert (bw.w > 0).all()

    def test_invariants_on_random_graphs(self):
        for seed in range(4):
            g = generate_ba(50, 3, seed=seed)
            labels = generate_labels(g, "mvc", "greedy", seed=seed)
            teacher = init_params([1, 8, 2], seed=seed)
            bw = boost_weights(teacher, g, labels)
            assert bw.w.sum() == pytest.approx(len(labels.train_ids))
            assert (bw.w > 0).all()
            assert np.array_equal(bw.node_ids, labels.train_ids)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            BoostWeights(node_ids=np.array([0, 1]),
                         w=np.array([1.0, 0.0]), epsilon=0.1)


def star11_labels():
    """K1,10 exact labels with a split seed that puts the center in train."""
    g = graph_from_edges(11, [(0, i) for i in range(1, 11)])
    for seed in range(50):
        ls = generate_labels(g, "mvc", "exact", seed=seed)
        if 0 in ls.train_ids:
            return g, ls
    raise AssertionError("no split seed put the center in train")


class TestTrainTeacher:
    def test_star_separates_by_degree(self):
        g, ls = star11_labels()
        res = train_teacher(g, ls, TeacherConfig(seed=0))
        good = predict_good_nodes(res.params, g)
        assert list(good.ids()) == [0]
        pred = good.mask.astype(np.int8)
        assert np.array_equal(pred[ls.train_ids], ls.labels[ls.train_ids])

    def test_loss_decreases(self):
        g, ls = star11_labels()
        res = train_teacher(g, ls, TeacherConfig(seed=0))
        assert res.history[-1][1] < res.history[0][1]
        assert len(res.history) == 500
        assert res.best_epoch == min(res.history, key=lambda h: h[2])[0]

    def test_deterministic(self):
        g, ls = star11_labels()
        cfg = TeacherConfig(hidden_dims=(16, 16), epochs=40, seed=3)
        a = train_teacher(g, ls, cfg)
        b = train_teacher(g, ls, cfg)
        for wa, wb in zip(a.params.w_self + a.params.w_neigh,
                          b.params.w_self + b.params.w_neigh):
            assert np.array_equal(wa, wb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported(self):
        g, ls = star11_labels()
        cfg = TeacherConfig(hidden_dims=(8,), epochs=30, lr=1e200, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_teacher(g, ls, cfg)


class TestTrainStudent:
    def test_default_dims_per_problem(self):
        assert default_student_dims("mvc") == (32, 32, 32)
        assert default_student_dims("mis") == (32, 32)

    def test_param_counts_student_vs_teacher(self):
        teacher = init_params([1, 128, 128, 128, 2], seed=0)
        student = init_params([1, 32, 32, 32, 2], seed=0)
        assert teacher.param_count() == (
            2 * (128 + 128 * 128 + 128 * 128 + 128 * 2) + (3 * 128 + 2))
        assert student.param_count() == (
            2 * (32 + 32 * 32 + 32 * 32 + 32 * 2) + (3 * 32 + 2))
        assert student.param_count() < 0.1 * teacher.param_count()

    def test_combined_gradient_endpoints(self):
        # the blended objective degenerates to its two pure terms
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 2))
        teacher = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        ids = np.arange(6)
        lk, gk = kd_loss(logits, teacher, ids, 1.0)
        ls_, gs = supervised_loss(logits, labels, ids)
        lam = 1.0
        blended = lam * gk + (1 - lam) * gs
        assert np.max(np.abs(blended - gk)) < 1e-10
        lam = 0.0
        blended = lam * gk + (1 - lam) * gs
        assert np.max(np.abs(blended - gs)) < 1e-10

    def test_student_trains_and_matches_config(self):
        g, ls = star11_labels()
        teacher = train_teacher(g, ls, TeacherConfig(hidden_dims=(16,),
                                                     epochs=60, seed=0))
        cfg = StudentConfig(hidden_dims=(8, 8), epochs=50, seed=1)
        bw = boost_weights(teacher.params, g, ls)
        res = train_student(g, ls, teacher.params, bw, cfg)
        assert res.params.dims == [1, 8, 8, 2]
        assert len(res.history) == 50

    def test_boost_ids_must_match_split(self):
        g, ls = star11_labels()
        teacher = init_params([1, 8, 2], seed=0)
        bad = BoostWeights(node_ids=np.arange(3),
                           w=np.ones(3), epsilon=0.5)
        with pytest.raises(ValueError):
            train_student(g, ls, teacher, bad, StudentConfig(epochs=5))

    def test_none_weights_mean_uniform(self):
        g, ls = star11_labels()
        teacher = train_teacher(g, ls, TeacherConfig(hidden_dims=(8,),
                                                     epochs=30, seed=0))
        cfg = StudentConfig(hidden_dims=(8,), epochs=20, seed=2)
        unit = BoostWeights(node_ids=ls.train_ids,
                            w=np.ones(len(ls.train_ids)), epsilon=0.5)
        a = train_student(g, ls, teacher.params, None, cfg)
        b = train_student(g, ls, teacher.params, unit, cfg)
        for wa, wb in zip(a.params.w_self + a.params.w_neigh,
                          b.params.w_self + b.params.w_neigh):
            assert np.array_equal(wa, wb)


WIDE = 128  # with BA-200 (n x width 25 600) validation overlaps training


@pytest.fixture(scope="module")
def ba200():
    """BA-200 MVC labels and a briefly trained wide teacher."""
    g = generate_ba(200, 3, seed=4)
    assert g.n * WIDE >= training.OVERLAP_MIN_CELLS
    ls = generate_labels(g, "mvc", seed=2)
    teacher = train_teacher(g, ls, TeacherConfig(hidden_dims=(WIDE,), epochs=5,
                                                 seed=1))
    return g, ls, teacher.params


def fit_both_ways(monkeypatch, train):
    """``train()`` through the package's ``_fit`` and through the serial
    oracle ``serial_fit``."""
    overlapped = train()
    with monkeypatch.context() as m:
        m.setattr(training, "_fit", serial_fit)
        serial = train()
    return overlapped, serial


def assert_same_fit(a, b):
    assert a.history == b.history
    assert a.best_epoch == b.best_epoch
    assert a.params.version == b.params.version
    assert a.params.dims == b.params.dims
    for wa, wb in zip(a.params.arrays(), b.params.arrays(), strict=True):
        assert wa.dtype == wb.dtype and wa.tobytes() == wb.tobytes()


class TestOverlappedFit:
    """``_fit`` validates epoch t on a helper thread while it trains epoch
    t + 1; every output must equal the serial loop's, byte for byte."""

    @pytest.fixture(autouse=True)
    def spare_cpu(self, monkeypatch):
        monkeypatch.setattr(training, "_spare_cpu", lambda: True)

    @pytest.mark.parametrize("epochs", [1, 2, 7])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("role", ["teacher", "student", "kd-student"])
    def test_matches_serial_loop(self, monkeypatch, ba200, role, dropout, epochs):
        g, ls, teacher = ba200
        if role == "teacher":
            cfg = TeacherConfig(hidden_dims=(WIDE, WIDE), epochs=epochs,
                                dropout=dropout, seed=3)
            train = lambda: train_teacher(g, ls, cfg)  # noqa: E731
        else:
            bw = boost_weights(teacher, g, ls) if role == "student" else None
            cfg = StudentConfig(hidden_dims=(WIDE, 8), epochs=epochs,
                                dropout=dropout, seed=3)
            train = lambda: train_student(g, ls, teacher, bw, cfg)  # noqa: E731
        overlapped, serial = fit_both_ways(monkeypatch, train)
        assert len(overlapped.history) == epochs
        assert_same_fit(overlapped, serial)

    def test_small_fit_matches_serial_loop(self, monkeypatch, ba200):
        g, ls, _ = ba200
        cfg = TeacherConfig(hidden_dims=(8, 8), epochs=7, seed=3)
        assert g.n * 8 < training.OVERLAP_MIN_CELLS
        assert_same_fit(*fit_both_ways(monkeypatch,
                                       lambda: train_teacher(g, ls, cfg)))

    def fit(self, g, ls, cfg, val_loss):
        x = degree_features(g)

        def train_loss(logits):
            return supervised_loss(logits, ls.labels, ls.train_ids)

        dims = [1, *cfg.hidden_dims, 2]
        return (training._fit(g, x, cfg, dims, train_loss, val_loss),
                serial_fit(g, x, cfg, dims, train_loss, val_loss))

    @pytest.mark.parametrize("sign, best", [(1, "first"), (-1, "last")])
    def test_best_epoch_first_or_last(self, ba200, sign, best):
        # at this small rate the validation loss rises every epoch here, so
        # it is least at the first epoch and its negation least at the last
        g, ls, _ = ba200
        cfg = TeacherConfig(hidden_dims=(WIDE,), epochs=7, lr=1e-4, dropout=0.0,
                            seed=3)

        def val_loss(logits):
            loss, grad = supervised_loss(logits, ls.labels, ls.val_ids)
            return sign * loss, grad

        overlapped, serial = self.fit(g, ls, cfg, val_loss)
        assert overlapped.best_epoch == (7 if best == "last" else 1)
        assert_same_fit(overlapped, serial)

    def test_validation_runs_on_helper_thread_only_when_wide(self, monkeypatch, ba200):
        g, ls, _ = ba200
        threads = []
        forward = gcn.forward

        def spy(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return forward(*args)

        monkeypatch.setattr(gcn, "forward", spy)
        train_teacher(g, ls, TeacherConfig(hidden_dims=(WIDE,), epochs=3, seed=3))
        assert threads == [False] * 3
        threads.clear()
        train_teacher(g, ls, TeacherConfig(hidden_dims=(8,), epochs=3, seed=3))
        assert threads == [True] * 3

    @pytest.mark.parametrize("width", [WIDE, 8])
    def test_validation_error_propagates_and_joins_thread(self, ba200, width):
        g, ls, _ = ba200
        cfg = TeacherConfig(hidden_dims=(width,), epochs=7, seed=3)
        calls = []

        def val_loss(logits):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("validation failed at epoch 3")
            return supervised_loss(logits, ls.labels, ls.val_ids)

        before = threading.active_count()
        for fit in (training._fit, serial_fit):
            calls.clear()
            with pytest.raises(ValueError, match="epoch 3"):
                fit(g, degree_features(g), cfg, [1, width, 2],
                    lambda z: supervised_loss(z, ls.labels, ls.train_ids), val_loss)
            assert threading.active_count() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_validation_error_wins_over_next_epoch_divergence(self, ba200):
        # epoch 2's validation raises while epoch 3's training loss is not
        # finite: in turn the validation error comes first
        g, ls, _ = ba200
        cfg = TeacherConfig(hidden_dims=(WIDE,), epochs=7, seed=3)
        trained, validated = [], []

        def train_loss(logits):
            trained.append(1)
            loss, grad = supervised_loss(logits, ls.labels, ls.train_ids)
            return (np.nan if len(trained) == 3 else loss), grad

        def val_loss(logits):
            validated.append(1)
            if len(validated) == 2:
                raise ValueError("validation failed")
            return supervised_loss(logits, ls.labels, ls.val_ids)

        before = threading.active_count()
        for fit in (training._fit, serial_fit):
            trained.clear()
            validated.clear()
            with pytest.raises(ValueError, match="validation failed"):
                fit(g, degree_features(g), cfg, [1, WIDE, 2], train_loss, val_loss)
            assert threading.active_count() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_joins_thread(self, ba200):
        g, ls, _ = ba200
        cfg = TeacherConfig(hidden_dims=(WIDE,), epochs=30, lr=1e200, seed=0)
        before = threading.active_count()
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_teacher(g, ls, cfg)
        assert threading.active_count() == before


class TestSpareCpu:
    """A fit starts its helper thread only with two CPUs, BLAS pinned to one
    thread, and no other process of the program training beside it."""

    @pytest.fixture
    def host(self, monkeypatch):
        """Two usable CPUs and no BLAS thread variable set; returns the
        monkeypatch to change that with."""
        monkeypatch.setattr(training, "usable_cpus", lambda: 2)
        for var in training.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(var, raising=False)
        return monkeypatch

    @pytest.mark.parametrize("cpus, env, spare", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (8, {"OMP_NUM_THREADS": " 1 "}, True),
        (2, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {}, False),
        (2, {"OPENBLAS_NUM_THREADS": ""}, False),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ])
    def test_cpus_and_blas_threads(self, host, cpus, env, spare):
        host.setattr(training, "usable_cpus", lambda: cpus)
        for var, value in env.items():
            host.setenv(var, value)
        assert training._spare_cpu() is spare

    def test_none_beside_a_worker_process(self, host):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        host.setenv("OPENBLAS_NUM_THREADS", "1")
        assert training._spare_cpu()
        with ProcessPoolExecutor(1, multiprocessing.get_context("fork")) as pool:
            assert pool.submit(training._spare_cpu).result() is False
            assert not training._spare_cpu()
        assert training._spare_cpu()

    @pytest.mark.parametrize("cpus, blas", [(1, "1"), (2, None), (2, "2")])
    def test_wide_fit_without_it_stays_on_one_thread(self, host, ba200, cpus, blas):
        g, ls, _ = ba200
        host.setattr(training, "usable_cpus", lambda: cpus)
        if blas:
            host.setenv("OPENBLAS_NUM_THREADS", blas)
        threads = []
        forward = gcn.forward

        def spy(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return forward(*args)

        host.setattr(gcn, "forward", spy)
        cfg = TeacherConfig(hidden_dims=(WIDE,), epochs=3, seed=3)
        overlapped, serial = fit_both_ways(host, lambda: train_teacher(g, ls, cfg))
        assert threads == [True] * 6
        assert_same_fit(overlapped, serial)


class TestPrediction:
    def test_zero_params_tie_means_everything_good(self, path3):
        good = predict_good_nodes(zero_params([1, 2]), path3)
        assert good.size == 3

    def test_recall_cases(self):
        truth = manual_labels("mvc", [1, 0, 1, 0], [0, 1])
        n = truth.n
        assert recall(NodeSet.from_ids([0, 2], n), truth) == 1.0
        assert recall(NodeSet(np.zeros(n, dtype=bool)), truth) == 0.0
        assert recall(NodeSet(np.ones(n, dtype=bool)), truth) == 1.0
        assert recall(NodeSet.from_ids([0], n), truth) == 0.5

    def test_recall_without_positives_is_one(self):
        truth = manual_labels("mvc", [0, 0], [0])
        assert recall(NodeSet(np.zeros(2, dtype=bool)), truth) == 1.0


class TestEpochLog:
    def test_csv_shape(self, tmp_path):
        p = tmp_path / "log.csv"
        write_epoch_log([(0, 1.5, 2.5), (1, 1.25, 2.25)], p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1] == "0,1.5,2.5"
        assert len(lines) == 3


class TestPipelinePrediction:
    def test_student_prunes_to_nontrivial_subset_at_scale(self):
        # the distilled classifier is expected to retain a strict, non-empty
        # subset of a larger test graph under the default pipeline settings
        train_g = generate_ba(1000, 4, seed=1)
        test_g = generate_ba(5000, 4, seed=2)
        master = 7
        ls = generate_labels(train_g, "mvc", "greedy",
                             seed=derive_seed(master, "labels"))
        teacher = train_teacher(train_g, ls,
                                TeacherConfig(seed=derive_seed(master, "teacher")))
        bw = boost_weights(teacher.params, train_g, ls)
        student = train_student(train_g, ls, teacher.params, bw,
                                StudentConfig(seed=derive_seed(master, "student")))
        good = predict_good_nodes(student.params, test_g)
        assert 0 < good.size < test_g.n, (
            f"student marked {good.size}/{test_g.n} nodes good; expected a "
            f"strict non-empty subset"
        )
