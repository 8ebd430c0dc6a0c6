"""Label generation, teacher/student training, and boosting weights.

The workflow: a classical solver labels the nodes of a small training graph
(in-solution vs. not), a wide network learns those labels, and a narrow
network is distilled from it with a combined objective, its supervised term
reweighted by a one-shot boosting pass that amplifies teacher mistakes and
degree-relevant nodes. Prediction then marks "good" nodes on unseen graphs.

Everything is deterministic given the seeds; per-purpose streams (split,
init, dropout) are derived from one seed so runs cannot entangle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import gcn
from .gcn import GcnParams
from .graph import Graph, NodeSet, derive_seed, make_rng
from .solvers import MVC, TIME_LIMIT, _norm_problem, solve


LABEL_ORACLE = "greedy"  # the default solver whose solutions become labels


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""


@dataclass
class LabelSet:
    """Per-node binary labels (1 = in the oracle solution) plus a split."""

    problem: str
    oracle: str
    labels: np.ndarray
    train_ids: np.ndarray
    val_ids: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8)
        self.train_ids = np.sort(np.asarray(self.train_ids, dtype=np.int64))
        self.val_ids = np.sort(np.asarray(self.val_ids, dtype=np.int64))
        n = len(self.labels)
        combined = np.concatenate([self.train_ids, self.val_ids])
        if len(combined) != n or len(np.unique(combined)) != n:
            raise ValueError("train/val must partition the nodes")
        if combined.size and (combined.min() < 0 or combined.max() >= n):
            raise ValueError("split ids out of range")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.labels)


def generate_labels(g: Graph, problem: str, oracle: str = LABEL_ORACLE,
                    seed: int = 0, time_limit: float = TIME_LIMIT) -> LabelSet:
    """Run a full-space solver and label its solution nodes 1, others 0.

    The train/val split is a seeded uniform 50/50 shuffle. The exact oracle
    must finish within its time limit; a timeout is an error telling the
    caller to fall back to a heuristic oracle.
    """
    problem = _norm_problem(problem)
    sol = solve(g, problem, oracle, time_limit=time_limit)
    if sol.optimal is False:
        raise RuntimeError(
            "exact label oracle hit its time limit; rerun with "
            "oracle='greedy' or oracle='local-search'"
        )
    labels = sol.nodes.mask.astype(np.int8)
    rng = make_rng(derive_seed(seed, "split"))
    perm = rng.permutation(g.n)
    half = g.n // 2
    return LabelSet(
        problem=problem,
        oracle=oracle,
        labels=labels,
        train_ids=np.sort(perm[:half]),
        val_ids=np.sort(perm[half:]),
    )


def save_labels(ls: LabelSet, path) -> None:
    """Text form: '# key: value' header, then one 'node label split' line
    per node in id order."""
    split = np.full(ls.n, "val", dtype=object)
    split[ls.train_ids] = "train"
    with open(path, "w") as f:
        f.write(f"# problem: {ls.problem}\n")
        f.write(f"# oracle: {ls.oracle}\n")
        for v in range(ls.n):
            f.write(f"{v} {int(ls.labels[v])} {split[v]}\n")


def load_labels(path) -> LabelSet:
    """Parse the text form that :func:`save_labels` writes."""
    meta: dict[str, str] = {}
    rows: list[tuple[int, int, str]] = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, _, v = body.partition(":")
                    meta[k.strip()] = v.strip()
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("train", "val"):
                raise ValueError(
                    f"{path}: line {lineno}: expected 'node label split', got {line!r}"
                )
            try:
                rows.append((int(parts[0]), int(parts[1]), parts[2]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer node or label"
                ) from None
    problem, oracle = meta.get("problem"), meta.get("oracle")
    if problem is None or oracle is None:
        raise ValueError(f"{path}: file does not declare its problem/oracle")
    if not rows:
        raise ValueError(f"{path}: no label lines")
    n = max(r[0] for r in rows) + 1
    if len(rows) != n or len({r[0] for r in rows}) != n:
        raise ValueError(f"{path}: node ids must cover 0..{n - 1} exactly once")
    labels = np.zeros(n, dtype=np.int8)
    train: list[int] = []
    val: list[int] = []
    for v, lab, sp in rows:
        labels[v] = lab
        (train if sp == "train" else val).append(v)
    return LabelSet(_norm_problem(problem), oracle, labels,
                    np.sort(train), np.sort(val))


def degree_features(g: Graph) -> np.ndarray:
    """One input feature per node: degree divided by the maximum degree."""
    deg = g.degrees().astype(np.float64)
    top = deg.max() if g.n else 0.0
    if top > 0:
        deg = deg / top
    return deg.reshape(-1, 1)


# ---------------------------------------------------------------------------
# Training loops


def _check_fit_config(cfg) -> None:
    """Range rules shared by the teacher and student configs."""
    dims = cfg.hidden_dims
    if dims is not None and (not dims or min(dims) < 1):
        raise ValueError(f"hidden_dims must be one or more widths >= 1, got {dims}")
    if cfg.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {cfg.epochs}")
    if not cfg.lr > 0:
        raise ValueError(f"lr must be > 0, got {cfg.lr}")
    if not 0 <= cfg.dropout < 1:
        raise ValueError(f"dropout must be in [0, 1), got {cfg.dropout}")


@dataclass
class TeacherConfig:
    hidden_dims: tuple[int, ...] = (128, 128, 128)
    epochs: int = 500
    lr: float = 1e-3
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_fit_config(self)


def default_student_dims(problem: str) -> tuple:
    """Narrow widths; one fewer hidden layer for independent set."""
    return (32, 32, 32) if _norm_problem(problem) == MVC else (32, 32)


@dataclass
class StudentConfig:
    hidden_dims: tuple[int, ...] | None = None  # None: per-problem default
    epochs: int = 1000
    lr: float = 1e-3
    dropout: float = 0.5
    kd_weight: float = 0.8
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fit_config(self)
        if not 0 <= self.kd_weight <= 1:
            raise ValueError(f"kd_weight must be in [0, 1], got {self.kd_weight}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


@dataclass
class TrainResult:
    params: GcnParams
    history: list = field(default_factory=list)  # (epoch, train_loss, val_loss)
    best_epoch: int = 0

    @property
    def best_val_loss(self) -> float:
        return min(h[2] for h in self.history) if self.history else float("nan")


def write_epoch_log(history, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, train_loss, val_loss in history:
            writer.writerow([epoch, f"{train_loss:.10g}", f"{val_loss:.10g}"])


def _fit(g, x, cfg, dims, train_loss_fn, val_loss_fn):
    """Shared full-batch loop over ``cfg.epochs`` at ``cfg.lr``, with
    ``cfg.dropout`` and streams derived from ``cfg.seed``; keeps the
    best-validation-loss parameters.

    Validation loss is measured on the post-update parameters in eval mode,
    so the checkpoint corresponds to a state the caller could reproduce.
    """
    params = gcn.init_params(dims, derive_seed(cfg.seed, "init"))
    drop_rng = make_rng(derive_seed(cfg.seed, "dropout"))
    state = gcn.adam_init(params)
    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    history = []
    for epoch in range(1, cfg.epochs + 1):
        logits, cache = gcn.forward_train(g, params, x, cfg.dropout, drop_rng)
        train_loss, grad = train_loss_fn(logits)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(f"training diverged at epoch {epoch}")
        grads = gcn.backward(g, params, cache, grad)
        gcn.adam_step(params, grads, state, cfg.lr)
        val_logits = gcn.forward(g, params, x)
        val_loss, _ = val_loss_fn(val_logits)
        history.append((epoch, float(train_loss), float(val_loss)))
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
    return TrainResult(best_params, history, best_epoch)


def train_teacher(g: Graph, labels: LabelSet,
                  cfg: TeacherConfig | None = None) -> TrainResult:
    """Fit the wide network on oracle labels with plain cross entropy."""
    cfg = cfg or TeacherConfig()
    x = degree_features(g)
    dims = [x.shape[1], *cfg.hidden_dims, 2]

    def train_loss(logits):
        return gcn.supervised_loss(logits, labels.labels, labels.train_ids)

    def val_loss(logits):
        return gcn.supervised_loss(logits, labels.labels, labels.val_ids)

    return _fit(g, x, cfg, dims, train_loss, val_loss)


@dataclass
class BoostWeights:
    """Supervised-term weights for the train nodes, aligned with node_ids."""

    node_ids: np.ndarray
    w: np.ndarray
    epsilon: float

    def __post_init__(self):
        if self.w.shape != self.node_ids.shape:
            raise ValueError("weights must align with node_ids")
        if (self.w <= 0).any():
            raise ValueError("boost weights must be positive")


def boost_weights(teacher: GcnParams, g: Graph, labels: LabelSet) -> BoostWeights:
    """One-shot boosting pass over the train nodes.

    Start uniform at 1/|train|; scale misclassified nodes by exp(a) and
    correct ones by exp(-a) with a = ln((1-eps)/eps)/2, eps the teacher's
    clamped train error rate; multiply by train-normalized degree (cover
    labels) or reciprocal degree (independent-set labels, degree 0 treated
    as 1); rescale so the weights sum to |train|, keeping the supervised
    term's scale.
    """
    ids = labels.train_ids
    logits = gcn.forward(g, teacher, degree_features(g))
    pred = (logits[:, 1] >= logits[:, 0]).astype(np.int8)
    wrong = pred[ids] != labels.labels[ids]
    eps = float(np.clip(wrong.mean() if len(ids) else 0.0, 1e-6, 1 - 1e-6))
    alpha = 0.5 * np.log((1 - eps) / eps)
    w = np.full(len(ids), 1.0 / max(len(ids), 1))
    w *= np.where(wrong, np.exp(alpha), np.exp(-alpha))
    deg = g.degrees().astype(np.float64)[ids]
    if _norm_problem(labels.problem) == MVC:
        term = deg
    else:
        safe = np.where(deg > 0, deg, 1.0)
        term = 1.0 / safe
    total = term.sum()
    if total > 0:
        term = term / total
    w *= term
    w *= len(ids) / w.sum()
    return BoostWeights(node_ids=ids, w=w, epsilon=eps)


def train_student(g: Graph, labels: LabelSet, teacher: GcnParams,
                  bw: BoostWeights | None = None,
                  cfg: StudentConfig | None = None) -> TrainResult:
    """Distill the narrow network with the combined objective.

    Loss = kd_weight * distillation + (1 - kd_weight) * weighted cross
    entropy on the train nodes. ``bw=None`` means uniform unit weights (the
    distillation-only ablation). Validation uses the same combination with
    unit weights, since boost weights exist only for train nodes. Teacher
    logits are computed once in eval mode.
    """
    cfg = cfg or StudentConfig()
    x = degree_features(g)
    hidden = cfg.hidden_dims or default_student_dims(labels.problem)
    dims = [x.shape[1], *hidden, 2]
    t_logits = gcn.forward(g, teacher, x)
    if bw is not None and not np.array_equal(bw.node_ids, labels.train_ids):
        raise ValueError("boost weights were computed for a different split")
    w_train = bw.w if bw is not None else None

    def combined(logits, ids, weights):
        kd_v, kd_g = gcn.kd_loss(logits, t_logits, ids, cfg.temperature)
        sup_v, sup_g = gcn.supervised_loss(logits, labels.labels, ids, weights)
        loss = cfg.kd_weight * kd_v + (1 - cfg.kd_weight) * sup_v
        grad = cfg.kd_weight * kd_g + (1 - cfg.kd_weight) * sup_g
        return loss, grad

    def train_loss(logits):
        return combined(logits, labels.train_ids, w_train)

    def val_loss(logits):
        return combined(logits, labels.val_ids, None)

    return _fit(g, x, cfg, dims, train_loss, val_loss)


def predict_good_nodes(params: GcnParams, g: Graph) -> NodeSet:
    """Nodes whose class-1 logit is at least the class-0 logit, from the
    float32 pass of :func:`gcn.predict` over :func:`degree_features`.

    Ties go to good: for vertex cover, dropping a borderline node risks
    losing edge coverage.
    """
    return NodeSet(gcn.predict(g, params, degree_features(g)))


def recall(pred: NodeSet, truth: LabelSet) -> float:
    """True positives over actual positives; 1.0 when there are no positives."""
    pos = truth.labels == 1
    total = int(pos.sum())
    if total == 0:
        return 1.0
    tp = int((pred.mask & pos).sum())
    return tp / total
