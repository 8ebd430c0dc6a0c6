"""Learned search-space pruning for vertex cover and independent set.

A narrow graph network, distilled from a wider one trained on classical
solver labels, predicts which nodes are worth considering; the classical
solvers then run restricted to those nodes. The package provides the graph
container and generator, the solvers (greedy, local search, exact), the
network engine with manual gradients, the training/distillation/boosting
loop, and a benchmarking pipeline comparing pruned against full-space runs.

Only the pipeline entry points are exported here; everything else is
imported from its module (``prunesolve.graph``, ``prunesolve.solvers``,
``prunesolve.gcn``, ``prunesolve.training``, ``prunesolve.bench``).
"""

from .bench import GraphSpec, PipelineConfig, emit_report, run_pipeline
from .solvers import solve

__version__ = "0.1.0"

__all__ = ["GraphSpec", "PipelineConfig", "emit_report", "run_pipeline", "solve"]
