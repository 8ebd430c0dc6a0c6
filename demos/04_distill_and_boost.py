"""
Distilling a narrow student with boosted supervision
====================================================

Phase two: compress the wide teacher into a network a fraction of its size.
The student learns from softened teacher outputs plus a supervised term
whose node weights are boosted: teacher mistakes and structurally important
nodes (high degree for covers, low degree for independent sets) count more.
"""

import statistics
import timeit

from prunesolve.gcn import predict
from prunesolve.graph import derive_seed, generate_ba
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

master = 7
g = generate_ba(1000, 4, seed=1)
labels = generate_labels(g, "mvc", "greedy", seed=derive_seed(master, "labels"))
teacher = train_teacher(g, labels, TeacherConfig(seed=derive_seed(master, "teacher")))

# The boost starts every train node at uniform weight, multiplies nodes the
# teacher got wrong up and correct ones down (classic reweighting from the
# teacher's clamped error rate), then scales by normalized degree because a
# missed hub costs a cover more than a missed leaf. Weights stay positive
# and sum to the number of train nodes.
bw = boost_weights(teacher.params, g, labels)
deg = g.degrees()[bw.node_ids]
print(f"teacher train error: {bw.epsilon:.4f}")
print(f"boost weights: min {bw.w.min():.4f}  max {bw.w.max():.4f}  "
      f"sum {bw.w.sum():.1f}")
print("highest-weight node degree:", int(deg[bw.w.argmax()]),
      " lowest:", int(deg[bw.w.argmin()]))

# Students are narrow: (32, 32, 32) hidden for covers. The loss blends
# distillation against the teacher's logits (weight 0.8) with the boosted
# supervised term (weight 0.2).
scfg = StudentConfig(seed=derive_seed(master, "student"))
boosted = train_student(g, labels, teacher.params, bw, scfg)
plain = train_student(g, labels, teacher.params, None, scfg)

t_count = teacher.params.param_count()
s_count = boosted.params.param_count()
print(f"\nparameters: teacher {t_count}, student {s_count} "
      f"({s_count / t_count:.1%})")

val = labels.val_ids
val_pos = labels.labels[val] == 1
for name, res in (("boosted", boosted), ("distill-only", plain)):
    good = predict_good_nodes(res.params, g)
    val_recall = (good.mask[val] & val_pos).sum() / val_pos.sum()
    print(f"{name}: {good.size}/{g.n} good, "
          f"val recall {val_recall:.3f}, "
          f"best val loss {res.best_val_loss:.2f}")

# The size gap is what buys inference speed on big graphs. These are warm
# medians of 5 float32 passes over features built once; a `prune` call also
# pays the features and, on its first pass, the graph's D^-1 A operator.
big = generate_ba(10000, 4, seed=3)
bx = degree_features(big)


def median_ms(params):
    runs = timeit.repeat(lambda: predict(big, params, bx), number=1, repeat=5)
    return 1e3 * statistics.median(runs)


t_ms = median_ms(teacher.params)
s_ms = median_ms(boosted.params)
print(f"\nBA-10K forward pass: teacher {t_ms:.1f} ms, "
      f"student {s_ms:.1f} ms ({t_ms / s_ms:.1f}x faster)")
