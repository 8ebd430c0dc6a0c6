"""
Oracle labels and the wide teacher network
==========================================

Phase one of the pipeline: run a classical solver on a training graph to
label each node good (in the solution) or not, then fit a three-layer
128-wide graph network to those labels from a single degree feature.
"""

import tempfile
from pathlib import Path

import numpy as np

from prunesolve.gcn import load_params, save_params
from prunesolve.graph import derive_seed, generate_ba
from prunesolve.training import (
    TeacherConfig,
    degree_features,
    generate_labels,
    predict_good_nodes,
    train_teacher,
)

master = 7
g = generate_ba(1000, 4, seed=1)

# Labels come from a solver run: greedy here, exact or local search when you
# can afford them. Nodes are split 50/50 into train and validation.
labels = generate_labels(g, "mvc", "greedy", seed=derive_seed(master, "labels"))
frac = labels.labels.mean()
print(f"labeled {int(labels.labels.sum())}/{g.n} nodes good "
      f"({frac:.2f} of the graph)")
print("train/val split:", len(labels.train_ids), "/", len(labels.val_ids))

# The only input feature is degree over max degree; structure has to come
# from message passing, not from the feature vector.
x = degree_features(g)
print("feature matrix:", x.shape, " max:", x.max(), " min:", x.min())

# Teacher defaults: hidden widths (128, 128, 128), 500 epochs, Adam at 1e-3,
# dropout 0.5 on hidden activations. The checkpoint with the best validation
# loss wins, not the final epoch.
cfg = TeacherConfig(seed=derive_seed(master, "teacher"))
result = train_teacher(g, labels, cfg)
first = result.history[0]
best = result.history[result.best_epoch - 1]  # epochs count from 1
last = result.history[-1]
print(f"\nepoch {first[0]}: train {first[1]:.2f}  val {first[2]:.2f}")
print(f"best epoch {best[0]}: train {best[1]:.2f}  val {best[2]:.2f}")
print(f"epoch {last[0]}: train {last[1]:.2f}  val {last[2]:.2f}")

# Recall on the validation half is the number that matters downstream: a
# pruned solver can only use nodes the network kept.
good = predict_good_nodes(result.params, g)
print(f"\npredicted good nodes: {good.size}/{g.n}")
val = labels.val_ids
val_pos = labels.labels[val] == 1
val_recall = (good.mask[val] & val_pos).sum() / val_pos.sum()
print("recall on validation nodes:", round(float(val_recall), 4))

# Each layer sees a node's own degree, the mean degree of its neighbors,
# and a bias, so the network can learn a degree threshold instead of
# keeping every node: on this graph it marks a little over half the nodes
# good. The pruning value is judged later, on the benchmark, not here.

# Parameters persist as npz and reload bit-for-bit.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "teacher.npz"
    save_params(result.params, path)
    again = load_params(path)
    same = all(
        np.array_equal(a, b)
        for a, b in zip(again.w_self + again.w_neigh + again.bias,
                        result.params.w_self + result.params.w_neigh
                        + result.params.bias)
    )
    print("save/load round trip exact:", same)
