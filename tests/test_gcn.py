"""GCN forward/backward, losses, optimizer, and persistence.

Gradient correctness is established against central finite differences,
which share no code with the analytic backward pass.
"""

import numpy as np
import pytest

from conftest import graph_from_edges, random_graph
from prunesolve.gcn import (
    GcnParams,
    adam_init,
    adam_step,
    backward,
    forward,
    forward_train,
    init_params,
    kd_loss,
    load_params,
    predict,
    save_params,
    softmax,
    supervised_loss,
)
from prunesolve.graph import Graph, generate_ba, make_rng
from prunesolve.training import degree_features


def zero_like(params):
    z = params.copy()
    for w in z.w_self + z.w_neigh:
        w[:] = 0.0
    return z


def numeric_gradient(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn over every weight and bias
    entry."""
    out = params.copy()
    for group in ("w_self", "w_neigh", "bias"):
        for k, w in enumerate(getattr(params, group)):
            target = getattr(out, group)[k]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + h
                up = loss_fn(params)
                w[idx] = orig - h
                down = loss_fn(params)
                w[idx] = orig
                target[idx] = (up - down) / (2 * h)
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0
    mass = 0.0
    for ga, gn in zip(analytic.w_self + analytic.w_neigh + analytic.bias,
                      numeric.w_self + numeric.w_neigh + numeric.bias):
        denom = np.maximum(np.abs(ga) + np.abs(gn), 1e-8)
        worst = max(worst, float((np.abs(ga - gn) / denom).max()))
        mass += float(np.abs(ga).sum())
    return worst, mass


def grad_fixture(seed, n=7, dims=(2, 4, 2), p=0.35):
    """Small random graph, features, params, and labels for gradient checks."""
    g = random_graph(n, p, seed)
    rng = np.random.default_rng(seed + 500)
    x = rng.normal(size=(n, dims[0]))
    params = init_params(dims, seed)
    labels = rng.integers(0, 2, size=n)
    node_ids = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
    weights = rng.uniform(0.5, 2.0, size=len(node_ids))
    return g, x, params, labels, node_ids, weights


class TestInit:
    def test_deterministic(self):
        a = init_params([1, 32, 32, 2], seed=1)
        b = init_params([1, 32, 32, 2], seed=1)
        for wa, wb in zip(a.w_self + a.w_neigh, b.w_self + b.w_neigh):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        p = init_params([1, 32, 2], seed=0)
        assert [w.shape for w in p.w_self] == [(1, 32), (32, 2)]
        assert [w.shape for w in p.w_neigh] == [(1, 32), (32, 2)]
        assert p.dims == [1, 32, 2]
        assert [b.shape for b in p.bias] == [(32,), (2,)]
        assert p.param_count() == 2 * (32 + 64) + (32 + 2)

    def test_rejects_single_dim(self):
        with pytest.raises(ValueError):
            init_params([1], seed=0)

    def test_glorot_bounds(self):
        p = init_params([8, 16, 2], seed=3)
        for w in (p.w_self[0], p.w_neigh[0]):
            limit = np.sqrt(6.0 / (8 + 16))
            assert np.abs(w).max() <= limit
            assert np.abs(w).max() > 0.5 * limit

    def test_shape_chain_validated(self):
        with pytest.raises(ValueError):
            GcnParams([np.zeros((1, 4)), np.zeros((5, 2))],
                      [np.zeros((1, 4)), np.zeros((5, 2))])


class TestForward:
    def test_zero_params_give_uniform_probs(self, triangle):
        p = zero_like(init_params([1, 4, 2], seed=0))
        x = np.ones((3, 1))
        assert np.all(forward(triangle, p, x) == 0.0)
        assert np.allclose(softmax(forward(triangle, p, x)), 0.5)

    def test_edgeless_single_layer_is_plain_linear(self):
        g = Graph(4, np.empty((0, 2), dtype=np.int64))
        p = init_params([3, 2], seed=1)
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.allclose(forward(g, p, x), x @ p.w_self[0])

    def test_symmetry_gives_identical_rows(self, triangle):
        p = init_params([1, 8, 2], seed=2)
        x = np.full((3, 1), 2.0)  # every node has degree 2
        z = forward(triangle, p, x)
        assert np.allclose(z[0], z[1]) and np.allclose(z[1], z[2])

    def test_eval_is_pure(self, cycle5):
        p = init_params([1, 6, 2], seed=4)
        x = np.arange(5, dtype=float).reshape(-1, 1)
        assert np.array_equal(forward(cycle5, p, x), forward(cycle5, p, x))

    def test_train_without_dropout_matches_eval(self, cycle5):
        p = init_params([1, 6, 2], seed=4)
        x = np.arange(5, dtype=float).reshape(-1, 1)
        logits, _ = forward_train(cycle5, p, x, 0.0)
        assert np.allclose(logits, forward(cycle5, p, x))

    def test_dropout_needs_rng(self, cycle5):
        p = init_params([1, 6, 2], seed=4)
        with pytest.raises(ValueError):
            forward_train(cycle5, p, np.ones((5, 1)), 0.5)

    def test_feature_shape_checked(self, cycle5):
        p = init_params([1, 6, 2], seed=4)
        with pytest.raises(ValueError):
            forward(cycle5, p, np.ones((4, 1)))
        with pytest.raises(ValueError):
            forward(cycle5, p, np.ones((5, 2)))

    def test_inverted_dropout_values(self, cycle5):
        # kept units are scaled by exactly 1/(1-p); dropped units are zero
        p = init_params([1, 40, 2], seed=5)
        x = np.ones((5, 1))
        base, cache0 = forward_train(cycle5, p, x, 0.0)
        _, cache = forward_train(cycle5, p, x, 0.5, make_rng(123))
        h0 = np.maximum(cache0.prez[0], 0.0)
        h1 = cache.inputs[1]
        ratio = np.divide(h1, h0, out=np.zeros_like(h1), where=h0 != 0)
        assert set(np.round(ratio[h0 != 0], 9)) <= {0.0, 2.0}


def matmul_predict(g, params, x):
    """:func:`predict`'s float32 pass with every product a matmul, one-input
    layers included: same order of operations per layer, same casts."""
    f32 = np.float32
    adj = g.mean_adjacency_csr()
    mean_adj = type(adj)((adj.data.astype(f32), adj.indices, adj.indptr),
                         shape=adj.shape)
    h = np.asarray(x, dtype=f32)
    for k in range(params.n_layers):
        w_neigh = params.w_neigh[k].astype(f32)
        d_in, d_out = w_neigh.shape
        z = mean_adj @ (h @ w_neigh) if d_out < d_in else (mean_adj @ h) @ w_neigh
        z += h @ params.w_self[k].astype(f32)
        z += params.bias[k].astype(f32)
        if k < params.n_layers - 1:
            np.maximum(z, 0.0, out=z)
        h = z
    return h[:, 1] >= h[:, 0]


class TestPredict:
    """The float32 pass against thresholded float64 :func:`forward`."""

    GRAPHS = [random_graph(4 + seed % 20, (0.1, 0.3, 0.6)[seed % 3], seed)
              for seed in range(30)] + [
        Graph(7, np.empty((0, 2), dtype=np.int64)),
        graph_from_edges(9, [(0, 1), (1, 2), (2, 0), (3, 4)]),  # 5..8 isolated
    ]

    # widening, equal and narrowing layers, one to four of them
    @pytest.mark.parametrize("dims", [
        (1, 2), (3, 2), (1, 8, 2), (2, 2, 2), (4, 16, 4, 2),
        (1, 32, 32, 32, 2), (6, 3, 12, 5, 2),
    ])
    def test_matches_thresholded_forward(self, dims):
        params = init_params(dims, seed=len(dims))
        rng = np.random.default_rng(sum(dims))
        for b in params.bias:
            b[:] = rng.normal(scale=0.5, size=b.shape)
        compared = 0
        for g in self.GRAPHS:
            x = rng.normal(size=(g.n, dims[0]))
            logits = forward(g, params, x)
            margin = logits[:, 1] - logits[:, 0]
            clear = np.abs(margin) > 1e-4 * np.abs(logits).max()
            good = predict(g, params, x)
            assert good.dtype == bool and good.shape == (g.n,)
            assert np.array_equal(good[clear], margin[clear] >= 0)
            compared += int(clear.sum())
        assert compared > 0.9 * sum(g.n for g in self.GRAPHS)

    @pytest.mark.parametrize("dims", [
        (1, 2), (1, 8, 2), (1, 32, 32, 2), (1, 128, 128, 128, 2),
    ])
    def test_one_input_layer_matches_matmul_pass(self, dims):
        # a BA graph with 50 isolated nodes appended, ids shuffled, beside
        # the small graphs; degree features and random ones
        ba = generate_ba(3000, 4, 5)
        perm = np.random.default_rng(7).permutation(ba.n + 50)
        graphs = self.GRAPHS + [Graph(ba.n + 50, perm[ba.edge_array()])]
        rng = np.random.default_rng(len(dims))
        marked = total = 0
        for seed in range(3):
            params = init_params(dims, seed=seed)
            for b in params.bias:
                b[:] = rng.normal(scale=0.5, size=b.shape)
            for g in graphs:
                for x in (degree_features(g), rng.normal(size=(g.n, 1))):
                    good = predict(g, params, x)
                    assert np.array_equal(good, matmul_predict(g, params, x))
                    marked += int(good.sum())
                    total += g.n
        # both classes occur, so the masks compared are not constant
        assert 0 < marked < total, (marked, total)

    @pytest.mark.parametrize("g", GRAPHS[-2:], ids=["edgeless", "isolated"])
    def test_zero_params_mark_every_node_good(self, g):
        p = zero_like(init_params([2, 8, 8, 2], seed=0))
        x = np.random.default_rng(1).normal(size=(g.n, 2))
        assert predict(g, p, x).all()

    def test_feature_shape_checked(self, cycle5):
        p = init_params([1, 6, 2], seed=4)
        with pytest.raises(ValueError):
            predict(cycle5, p, np.ones((4, 1)))
        with pytest.raises(ValueError):
            predict(cycle5, p, np.ones((5, 2)))


class TestSoftmaxAndLosses:
    def test_rows_sum_to_one_at_extremes(self):
        z = np.array([[1e3, -1e3], [0.0, 0.0], [-50.0, 60.0]])
        s = softmax(z)
        assert np.all(np.isfinite(s))
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)

    def test_supervised_near_perfect_prediction(self):
        logits = np.array([[10.0, -10.0]])
        loss, _ = supervised_loss(logits, np.array([0]), np.array([0]))
        assert loss == pytest.approx(2.06e-9, rel=0.01)

    def test_supervised_zero_logits_is_ln2(self):
        logits = np.zeros((4, 2))
        loss, _ = supervised_loss(logits, np.array([0, 1, 0, 1]), np.arange(4))
        assert loss == pytest.approx(4 * np.log(2))

    def test_supervised_weight_linearity(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        ids = np.arange(5)
        w = rng.uniform(0.5, 1.5, size=5)
        l1, g1 = supervised_loss(logits, labels, ids, w)
        l2, g2 = supervised_loss(logits, labels, ids, 2 * w)
        assert l2 == pytest.approx(2 * l1)
        assert np.allclose(g2, 2 * g1)

    def test_supervised_gradient_formula(self):
        logits = np.array([[0.3, -0.2], [1.0, 1.5], [0.0, 0.0]])
        labels = np.array([1, 0, 1])
        ids = np.array([0, 2])
        w = np.array([2.0, 3.0])
        _, grad = supervised_loss(logits, labels, ids, w)
        probs = softmax(logits[ids])
        want = probs.copy()
        want[[0, 1], labels[ids]] -= 1.0
        want *= w[:, None]
        assert np.allclose(grad[ids], want)
        assert np.all(grad[1] == 0.0)

    def test_supervised_log_clamp(self):
        # a fully confident wrong prediction must stay finite
        logits = np.array([[1e4, -1e4]])
        loss, _ = supervised_loss(logits, np.array([1]), np.array([0]))
        assert np.isfinite(loss)
        assert loss <= -np.log(1e-12) + 1.0

    def test_kd_matched_logits_zero_gradient(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 2))
        for t in (0.5, 1.0, 4.0):
            loss, grad = kd_loss(z, z, np.arange(6), t)
            assert np.allclose(grad, 0.0)
            assert loss > 0.0

    def test_kd_zero_logits_is_ln2(self):
        z = np.zeros((3, 2))
        loss, _ = kd_loss(z, z, np.arange(3), 1.0)
        assert loss == pytest.approx(3 * np.log(2))

    def test_kd_high_temperature_softens_to_uniform(self):
        teacher = np.array([[5.0, -3.0]])
        soft = softmax(teacher / 1e6)
        assert np.allclose(soft, 0.5, atol=1e-5)

    def test_kd_rejects_bad_temperature(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError):
            kd_loss(z, z, np.arange(2), 0.0)

    def test_weights_must_align(self):
        with pytest.raises(ValueError):
            supervised_loss(np.zeros((3, 2)), np.zeros(3, dtype=int),
                            np.array([0, 1]), np.array([1.0]))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, cycle5):
        p = init_params([1, 4, 2], seed=0)
        x = np.ones((5, 1))
        _, cache = forward_train(cycle5, p, x)
        grads = backward(cycle5, p, cache, np.zeros((5, 2)))
        for w in grads.w_self + grads.w_neigh:
            assert np.all(w == 0.0)

    def test_edgeless_graph_has_zero_neighbor_grads(self):
        g = Graph(5, np.empty((0, 2), dtype=np.int64))
        p = init_params([2, 4, 2], seed=1)
        x = np.random.default_rng(2).normal(size=(5, 2))
        logits, cache = forward_train(g, p, x)
        loss, grad = supervised_loss(logits, np.zeros(5, dtype=int), np.arange(5))
        grads = backward(g, p, cache, grad)
        for w in grads.w_neigh:
            assert np.all(w == 0.0)
        assert any(np.abs(w).sum() > 0 for w in grads.w_self)

    def test_stale_cache_rejected(self, cycle5):
        p = init_params([1, 4, 2], seed=0)
        x = np.ones((5, 1))
        _, cache = forward_train(cycle5, p, x)
        st = adam_init(p)
        logits2, _ = forward_train(cycle5, p, x)
        _, grad = supervised_loss(logits2, np.zeros(5, dtype=int), np.arange(5))
        adam_step(p, backward(cycle5, p, cache, grad), st, 1e-3)
        with pytest.raises(RuntimeError):
            backward(cycle5, p, cache, grad)


class TestGradientsAgainstFiniteDifferences:
    def check(self, loss_and_grad, params, loss_only):
        numeric = numeric_gradient(loss_only, params)
        analytic = loss_and_grad(params)
        worst, mass = max_rel_error(analytic, numeric)
        assert mass > 1e-4, "degenerate fixture: no gradient signal"
        assert worst < 1e-4

    def test_supervised_objective(self):
        for seed in (0, 1, 2):
            g, x, params, labels, ids, w = grad_fixture(seed)

            def loss_only(p):
                logits, _ = forward_train(g, p, x)
                return supervised_loss(logits, labels, ids, w)[0]

            def loss_and_grad(p):
                logits, cache = forward_train(g, p, x)
                _, grad = supervised_loss(logits, labels, ids, w)
                return backward(g, p, cache, grad)

            self.check(loss_and_grad, params, loss_only)

    def test_kd_objective(self):
        for seed in (3, 4):
            g, x, params, labels, ids, _ = grad_fixture(seed, dims=(1, 5, 2))
            teacher = np.random.default_rng(seed).normal(size=(g.n, 2))

            def loss_only(p):
                logits, _ = forward_train(g, p, x[:, :1])
                return kd_loss(logits, teacher, ids, 2.0)[0]

            def loss_and_grad(p):
                logits, cache = forward_train(g, p, x[:, :1])
                _, grad = kd_loss(logits, teacher, ids, 2.0)
                return backward(g, p, cache, grad)

            self.check(loss_and_grad, params, loss_only)

    def test_combined_objective(self):
        g, x, params, labels, ids, w = grad_fixture(5, dims=(2, 6, 4, 2))
        teacher = np.random.default_rng(7).normal(size=(g.n, 2))
        lam = 0.8

        def loss_only(p):
            logits, _ = forward_train(g, p, x)
            return (lam * kd_loss(logits, teacher, ids)[0]
                    + (1 - lam) * supervised_loss(logits, labels, ids, w)[0])

        def loss_and_grad(p):
            logits, cache = forward_train(g, p, x)
            _, gk = kd_loss(logits, teacher, ids)
            _, gs = supervised_loss(logits, labels, ids, w)
            return backward(g, p, cache, lam * gk + (1 - lam) * gs)

        self.check(loss_and_grad, params, loss_only)

    def test_with_dropout_mask_replayed(self):
        g, x, params, labels, ids, w = grad_fixture(6, dims=(2, 6, 2))

        def loss_only(p):
            logits, _ = forward_train(g, p, x, 0.5, make_rng(99))
            return supervised_loss(logits, labels, ids, w)[0]

        def loss_and_grad(p):
            logits, cache = forward_train(g, p, x, 0.5, make_rng(99))
            _, grad = supervised_loss(logits, labels, ids, w)
            return backward(g, p, cache, grad)

        self.check(loss_and_grad, params, loss_only)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = init_params([1, 4, 2], seed=0)
        before = p.copy()
        st = adam_init(p)
        from prunesolve.gcn import Grads
        zero = Grads([np.zeros_like(w) for w in p.w_self],
                     [np.zeros_like(w) for w in p.w_neigh])
        adam_step(p, zero, st, 1e-3)
        for a, b in zip(p.w_self + p.w_neigh, before.w_self + before.w_neigh):
            assert np.array_equal(a, b)

    def test_first_step_magnitude(self):
        p = init_params([1, 2], seed=0)
        before = p.w_self[0].copy()
        st = adam_init(p)
        from prunesolve.gcn import Grads
        g = Grads([np.zeros_like(w) for w in p.w_self],
                  [np.zeros_like(w) for w in p.w_neigh])
        g.w_self[0][0, 0] = 1.0
        adam_step(p, g, st, 1e-3)
        delta = p.w_self[0] - before
        assert delta[0, 0] == pytest.approx(-1e-3, rel=1e-6)
        assert delta[0, 1] == 0.0

    def test_trajectories_are_reproducible(self, cycle5):
        runs = []
        for _ in range(2):
            p = init_params([1, 4, 2], seed=3)
            st = adam_init(p)
            x = np.arange(5, dtype=float).reshape(-1, 1)
            labels = np.array([0, 1, 0, 1, 0])
            for _ in range(5):
                logits, cache = forward_train(cycle5, p, x)
                _, grad = supervised_loss(logits, labels, np.arange(5))
                adam_step(p, backward(cycle5, p, cache, grad), st, 1e-2)
            runs.append(p)
        for a, b in zip(runs[0].w_self + runs[0].w_neigh,
                        runs[1].w_self + runs[1].w_neigh):
            assert np.array_equal(a, b)

    def test_version_counts_updates(self):
        p = init_params([1, 2], seed=0)
        st = adam_init(p)
        from prunesolve.gcn import Grads
        g = Grads([np.ones_like(w) for w in p.w_self],
                  [np.ones_like(w) for w in p.w_neigh])
        v0 = p.version
        adam_step(p, g, st, 1e-3)
        adam_step(p, g, st, 1e-3)
        assert p.version == v0 + 2


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        p = init_params([1, 8, 8, 2], seed=11)
        rng = np.random.default_rng(11)
        for b in p.bias:
            b[:] = rng.normal(size=b.shape)
        f = tmp_path / "params.npz"
        save_params(p, f, seed=11)
        q = load_params(f)
        assert q.dims == p.dims
        for a, b in zip(p.w_self + p.w_neigh + p.bias,
                        q.w_self + q.w_neigh + q.bias):
            assert np.array_equal(a, b)

    def test_archive_without_biases_loads_zero_biases(self, tmp_path):
        p = init_params([1, 4, 2], seed=5)
        f = tmp_path / "params.npz"
        save_params(p, f)
        with np.load(f) as data:
            arrays = {k: data[k] for k in data.files if not k.startswith("bias_")}
        np.savez(f, **arrays)
        q = load_params(f)
        assert [b.shape for b in q.bias] == [(4,), (2,)]
        assert all(np.all(b == 0.0) for b in q.bias)

    def test_archive_is_self_describing(self, tmp_path):
        p = init_params([1, 4, 2], seed=5)
        f = tmp_path / "params.npz"
        save_params(p, f, seed=5)
        with np.load(f) as data:
            assert list(data["dims"]) == [1, 4, 2]
            assert int(data["seed"]) == 5

    def test_unknown_seed_stored_as_sentinel(self, tmp_path):
        p = init_params([1, 4, 2], seed=5)
        f = tmp_path / "params.npz"
        save_params(p, f)
        with np.load(f) as data:
            assert int(data["seed"]) == -1

    def test_corrupt_dims_rejected(self, tmp_path):
        p = init_params([1, 4, 2], seed=5)
        f = tmp_path / "params.npz"
        save_params(p, f)
        with np.load(f) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["dims"] = np.array([1, 5, 2], dtype=np.int64)
        np.savez(f, **arrays)
        with pytest.raises(ValueError):
            load_params(f)
