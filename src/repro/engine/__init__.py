"""Evaluation engines for the multi-set algebra.

Two engines compute identical results (tested against each other):

* :func:`evaluate` — the reference evaluator; a literal transliteration
  of the paper's multiplicity equations (semantic ground truth);
* :func:`execute` — the physical engine; hash joins, hash group-by,
  pipelined selections/projections over column batches with compiled
  expression kernels (:mod:`repro.engine.vector`).

Plus the planner's supporting cast: :class:`StatisticsCatalog` and
:func:`estimate_cardinality` / :func:`estimate_cost` for the optimizer.
"""

from repro.engine.cost import CostModel, estimate_cost
from repro.engine.evaluator import Environment, evaluate
from repro.engine.histograms import EquiDepthHistogram, HistogramCatalog
from repro.engine.planner import (
    execute,
    extract_equi_conjuncts,
    plan_physical,
)
from repro.engine.profiler import ProfileReport, execute_profiled
from repro.engine.set_semantics import evaluate_set
from repro.engine.statistics import (
    StatisticsCatalog,
    TableStats,
    estimate_cardinality,
)
from repro.engine.vector import (
    ColumnBatch,
    VectorOp,
    collect_batches,
    plan_vector,
)

__all__ = [
    "evaluate",
    "evaluate_set",
    "Environment",
    "plan_physical",
    "plan_vector",
    "VectorOp",
    "ColumnBatch",
    "collect_batches",
    "execute",
    "execute_profiled",
    "ProfileReport",
    "extract_equi_conjuncts",
    "StatisticsCatalog",
    "TableStats",
    "estimate_cardinality",
    "estimate_cost",
    "CostModel",
    "EquiDepthHistogram",
    "HistogramCatalog",
]
