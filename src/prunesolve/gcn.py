"""Graph convolutional scorer with hand-written reverse-mode gradients.

Each layer computes ``z = h @ w_self + (D^-1 A h) @ w_neigh + b``: a node's
own features, the mean of its neighbors' features (zero for an isolated
node), and a per-layer bias. Hidden layers apply relu; the final layer is
linear. Mean aggregation (the row-normalized operator of GraphSAGE's mean
aggregator) keeps hub rows on the same scale as leaf rows, and the biases
let the network express a threshold, which a bias-free relu network,
positively homogeneous in its input, cannot. Forward passes in training
mode keep every intermediate needed by :func:`backward`; the optimizer
mutates parameters in place and bumps a version counter so stale caches
are rejected instead of silently producing wrong gradients.

Losses are sums (not means) over the nodes they are evaluated on, and each
loss returns its gradient with respect to the logits so callers can combine
them linearly.

Training, :func:`forward` and :func:`backward` run in float64, so the
finite-difference gradient checks and the trained parameters stay exact to
the last bit. Inference, :func:`predict`, runs a separate float32 pass that
picks per layer whether to aggregate or project first; it returns only the
good-node mask.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .graph import Graph, make_rng

LOG_EPS = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class GcnParams:
    """Per-layer self and neighbor weight matrices and bias vectors.

    ``bias=None`` means zero biases.
    """

    w_self: list[np.ndarray]
    w_neigh: list[np.ndarray]
    bias: list[np.ndarray] | None = None
    version: int = 0

    def __post_init__(self):
        if len(self.w_self) != len(self.w_neigh) or not self.w_self:
            raise ValueError("w_self and w_neigh must be equal-length, non-empty")
        for ws, wn in zip(self.w_self, self.w_neigh):
            if ws.shape != wn.shape:
                raise ValueError("self and neighbor weights must match in shape")
        for a, b in zip(self.w_self, self.w_self[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError("consecutive layer shapes do not chain")
        if self.bias is None:
            self.bias = _zero_biases(self.w_self)
        if [b.shape for b in self.bias] != [(w.shape[1],) for w in self.w_self]:
            raise ValueError("need one bias vector per layer, sized to its output")

    @property
    def dims(self) -> list[int]:
        return [self.w_self[0].shape[0]] + [w.shape[1] for w in self.w_self]

    @property
    def n_layers(self) -> int:
        return len(self.w_self)

    def param_count(self) -> int:
        return sum(w.size for w in self.w_self + self.w_neigh + self.bias)

    def copy(self) -> "GcnParams":
        return GcnParams(
            [w.copy() for w in self.w_self],
            [w.copy() for w in self.w_neigh],
            [b.copy() for b in self.bias],
            self.version,
        )


def _zero_biases(w_self: list[np.ndarray]) -> list[np.ndarray]:
    return [np.zeros(w.shape[1]) for w in w_self]


def init_params(dims, seed: int) -> GcnParams:
    """Glorot-uniform weights and zero biases, self weights drawn before
    neighbor weights at each layer so a seed pins the full draw order."""
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValueError(f"need at least two positive layer sizes, got {dims}")
    rng = make_rng(seed)
    w_self, w_neigh = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w_self.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        w_neigh.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
    return GcnParams(w_self, w_neigh)


@dataclass
class ForwardCache:
    """Intermediates of one training-mode forward pass."""

    inputs: list[np.ndarray]  # layer inputs h_k, post-dropout
    aggs: list[np.ndarray]  # neighbor means D^-1 A @ h_k per layer
    prez: list[np.ndarray]  # pre-activations z_k
    drop_scale: list[np.ndarray | None]  # inverted-dropout factors per hidden layer
    version: int


def _check_features(g: Graph, params: GcnParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"features must be (n, d), got {x.shape} for n={g.n}")
    if x.shape[1] != params.dims[0]:
        raise ValueError(
            f"feature width {x.shape[1]} does not match input layer {params.dims[0]}"
        )


def _run_forward(g: Graph, params: GcnParams, x: np.ndarray,
                 dropout_rate: float, rng) -> tuple[np.ndarray, ForwardCache]:
    _check_features(g, params, x)
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    mean_adj = g.mean_adjacency_csr()
    h = np.asarray(x, dtype=np.float64)
    inputs, aggs, prez, scales = [], [], [], []
    last = params.n_layers - 1
    for k in range(params.n_layers):
        agg = mean_adj @ h
        z = h @ params.w_self[k]
        z += agg @ params.w_neigh[k]
        z += params.bias[k]
        inputs.append(h)
        aggs.append(agg)
        prez.append(z)
        if k == last:
            h = z
        else:
            a = np.maximum(z, 0.0)
            if dropout_rate > 0.0:
                keep = rng.random(a.shape) >= dropout_rate
                scale = keep / (1.0 - dropout_rate)
                scales.append(scale)
                h = a * scale
            else:
                scales.append(None)
                h = a
    return h, ForwardCache(inputs, aggs, prez, scales, params.version)


def forward(g: Graph, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Evaluation-mode logits (no dropout)."""
    logits, _ = _run_forward(g, params, x, 0.0, None)
    return logits


def predict(g: Graph, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Good-node mask: class-1 logit at least the class-0 logit, from a
    float32 evaluation pass.

    Each layer runs in the cheaper order for its shape. Where it narrows it
    projects first, ``D^-1 A (h @ W_neigh)``, so the sparse product moves
    ``d_out`` columns, not ``d_in``; otherwise it aggregates first, as
    :func:`forward` does. A layer with one input feature makes its
    ``(n, 1) @ (1, d)`` products as broadcast multiplies: each entry is one
    rounded product either way, so the logits keep their bits. The
    features, weights, biases and the values of the cached float64 operator
    are cast on each call; the float32 operator shares that operator's index
    arrays. The logits differ from
    :func:`forward`'s by float32 rounding, so a node whose two logits nearly
    tie may land on the other side.
    """
    _check_features(g, params, x)
    f32 = np.float32
    adj64 = g.mean_adjacency_csr()
    mean_adj = type(adj64)((adj64.data.astype(f32), adj64.indices, adj64.indptr),
                           shape=adj64.shape)
    h = np.asarray(x, dtype=f32)
    last = params.n_layers - 1
    for k in range(params.n_layers):
        w_neigh = params.w_neigh[k].astype(f32)
        d_in, d_out = w_neigh.shape
        # with one input feature each product entry is a single multiply,
        # which a broadcast makes without a matmul's overhead
        mul = np.multiply if d_in == 1 else np.matmul
        if d_out < d_in:
            z = mean_adj @ (h @ w_neigh)
        else:
            z = mul(mean_adj @ h, w_neigh)
        z += mul(h, params.w_self[k].astype(f32))
        z += params.bias[k].astype(f32)
        if k < last:
            np.maximum(z, 0.0, out=z)
        h = z
    return h[:, 1] >= h[:, 0]


def forward_train(g: Graph, params: GcnParams, x: np.ndarray,
                  dropout_rate: float = 0.0,
                  rng=None) -> tuple[np.ndarray, ForwardCache]:
    """Training-mode forward pass; keeps intermediates for :func:`backward`.

    Dropout is the inverted kind, applied after each hidden relu only, so
    evaluation needs no rescaling. ``rng`` is required when dropout_rate > 0.
    """
    if dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout needs an rng")
    return _run_forward(g, params, x, dropout_rate, rng)


@dataclass
class Grads:
    """Loss gradients shaped like :class:`GcnParams`; ``bias=None`` means
    zero bias gradients."""

    w_self: list[np.ndarray]
    w_neigh: list[np.ndarray]
    bias: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.bias is None:
            self.bias = _zero_biases(self.w_self)


def backward(g: Graph, params: GcnParams, cache: ForwardCache,
             grad_logits: np.ndarray) -> Grads:
    """Gradients of a scalar loss with respect to every weight and bias.

    ``grad_logits`` is the loss gradient at the final pre-activations. The
    mean operator D^-1 A is not symmetric, so aggregation backpropagates
    through its transpose A D^-1 (A itself is symmetric: the graph is
    undirected).
    """
    if cache.version != params.version:
        raise RuntimeError(
            "forward cache is stale: parameters were updated after the pass"
        )
    mean_adj_t = g.mean_adjacency_csr().T
    g_self = [None] * params.n_layers
    g_neigh = [None] * params.n_layers
    g_bias = [None] * params.n_layers
    grad_z = np.asarray(grad_logits, dtype=np.float64)
    for k in range(params.n_layers - 1, -1, -1):
        h = cache.inputs[k]
        g_self[k] = h.T @ grad_z
        g_neigh[k] = cache.aggs[k].T @ grad_z
        g_bias[k] = grad_z.sum(axis=0)
        if k == 0:
            break
        grad_agg = grad_z @ params.w_neigh[k].T
        grad_h = grad_z @ params.w_self[k].T + mean_adj_t @ grad_agg
        scale = cache.drop_scale[k - 1]
        if scale is not None:
            grad_h = grad_h * scale
        grad_z = grad_h * (cache.prez[k - 1] > 0.0)
    return Grads(g_self, g_neigh, g_bias)


# ---------------------------------------------------------------------------
# Losses


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def supervised_loss(logits: np.ndarray, labels: np.ndarray, node_ids: np.ndarray,
                    weights: np.ndarray | None = None
                    ) -> tuple[float, np.ndarray]:
    """Weighted cross entropy summed over ``node_ids``.

    Returns the loss and its gradient with respect to the full logits array
    (zero outside ``node_ids``). ``weights`` defaults to all ones and is
    indexed positionally alongside ``node_ids``.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)[node_ids]
    if weights is None:
        w = np.ones(len(node_ids), dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(node_ids),):
            raise ValueError("weights must align with node_ids")
    probs = softmax(logits[node_ids])
    picked = probs[np.arange(len(node_ids)), y]
    loss = float(-(w * np.log(np.maximum(picked, LOG_EPS))).sum())
    grad_rows = probs.copy()
    grad_rows[np.arange(len(node_ids)), y] -= 1.0
    grad_rows *= w[:, None]
    grad = np.zeros_like(np.asarray(logits, dtype=np.float64))
    grad[node_ids] = grad_rows
    return loss, grad


def kd_loss(student_logits: np.ndarray, teacher_logits: np.ndarray,
            node_ids: np.ndarray, temperature: float = 1.0
            ) -> tuple[float, np.ndarray]:
    """Distillation cross entropy against softened teacher outputs, summed
    over ``node_ids``; gradient is (student - teacher softened probs) / T."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    node_ids = np.asarray(node_ids, dtype=np.int64)
    pt = softmax(np.asarray(teacher_logits)[node_ids] / temperature)
    ps = softmax(np.asarray(student_logits)[node_ids] / temperature)
    loss = float(-(pt * np.log(np.maximum(ps, LOG_EPS))).sum())
    grad = np.zeros_like(np.asarray(student_logits, dtype=np.float64))
    grad[node_ids] = (ps - pt) / temperature
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per weight matrix and
    bias vector."""

    m_self: list[np.ndarray]
    v_self: list[np.ndarray]
    m_neigh: list[np.ndarray]
    v_neigh: list[np.ndarray]
    m_bias: list[np.ndarray]
    v_bias: list[np.ndarray]
    step: int = 0


def adam_init(params: GcnParams) -> AdamState:
    return AdamState(
        [np.zeros_like(w) for w in params.w_self],
        [np.zeros_like(w) for w in params.w_self],
        [np.zeros_like(w) for w in params.w_neigh],
        [np.zeros_like(w) for w in params.w_neigh],
        [np.zeros_like(b) for b in params.bias],
        [np.zeros_like(b) for b in params.bias],
    )


def adam_step(params: GcnParams, grads: Grads, state: AdamState,
              lr: float) -> None:
    """One Adam update, in place; invalidates outstanding forward caches."""
    state.step += 1
    t = state.step
    groups = (
        (params.w_self, grads.w_self, state.m_self, state.v_self),
        (params.w_neigh, grads.w_neigh, state.m_neigh, state.v_neigh),
        (params.bias, grads.bias, state.m_bias, state.v_bias),
    )
    for ws, gs, ms, vs in groups:
        for w, gr, m, v in zip(ws, gs, ms, vs):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * gr
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * gr * gr
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            w -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    params.version += 1


# ---------------------------------------------------------------------------
# Persistence


def save_params(params: GcnParams, path, seed: int | None = None) -> None:
    """Write weights and biases to an ``.npz`` archive.

    The archive is self-describing: layer dims, the init seed when known,
    and the float64 matrices and bias vectors round-trip exactly.
    """
    arrays = {}
    for k, (ws, wn, b) in enumerate(zip(params.w_self, params.w_neigh,
                                        params.bias)):
        arrays[f"w_self_{k}"] = ws
        arrays[f"w_neigh_{k}"] = wn
        arrays[f"bias_{k}"] = b
    arrays["dims"] = np.asarray(params.dims, dtype=np.int64)
    arrays["seed"] = np.array(-1 if seed is None else int(seed), dtype=np.int64)
    np.savez(path, **arrays)


def load_params(path) -> GcnParams:
    """Read an archive written by :func:`save_params`; one without bias
    arrays loads with zero biases. Any other file raises ValueError."""
    try:
        with np.load(path) as data:
            dims = data["dims"]
            n_layers = len(dims) - 1
            w_self = [data[f"w_self_{k}"].astype(np.float64) for k in range(n_layers)]
            w_neigh = [data[f"w_neigh_{k}"].astype(np.float64) for k in range(n_layers)]
            bias = None
            if "bias_0" in data.files:
                bias = [data[f"bias_{k}"].astype(np.float64) for k in range(n_layers)]
    except (KeyError, EOFError, TypeError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: not a parameter archive: {e}") from None
    params = GcnParams(w_self, w_neigh, bias)
    if params.dims != [int(d) for d in dims]:
        raise ValueError(f"stored dims {list(dims)} do not match matrix shapes")
    return params

