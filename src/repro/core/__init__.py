"""The paper's contribution: the multi-path transfer performance model.

Layout (equation references are to the paper):

* :mod:`repro.core.params` — per-path parameters (α, β, ε) and their
  Ω/Δ reductions (Table 1), plus the calibrated parameter store;
* :mod:`repro.core.hockney` — Hockney's model (Eq. 1) and the multi-path
  max-time composition (Eqs. 2–4);
* :mod:`repro.core.optimizer` — closed-form optimal fractions θ*
  (Eqs. 8, 11, 24) with the negative-fraction drop rule;
* :mod:`repro.core.theorem` — the equal-time optimality property
  (Theorem 1) as executable checks;
* :mod:`repro.core.pipeline_model` — chunked staged transfers
  (Eqs. 12–18);
* :mod:`repro.core.chunking` — optimal chunk counts and the φ
  linearisation (Eqs. 14, 15, 19–22);
* :mod:`repro.core.numerical` — exact nonlinear solver (scipy) used to
  quantify the φ-linearisation ablation;
* :mod:`repro.core.planner` — Algorithm 1: the runtime planner with
  config cache and sequential-initiation correction;
* :mod:`repro.core.contention` — MaxRate-style shared-channel extension
  (paper future work).
"""

from repro.core.params import (
    LinkEstimate,
    ParameterStore,
    PathParams,
)
from repro.core.collective_model import CollectiveModel, CollectivePrediction
from repro.core.contention import ContentionAwareModel, ContentionSolution
from repro.core.hockney import HockneyModel, MultiPathModel
from repro.core.optimizer import FractionSolution, optimal_fractions
from repro.core.planner import PathAssignment, PathPlanner, TransferPlan, plan_transfer
from repro.core.transfer_graph import CompiledPath, GraphCache, TransferGraph

__all__ = [
    "PathParams",
    "LinkEstimate",
    "ParameterStore",
    "HockneyModel",
    "MultiPathModel",
    "FractionSolution",
    "optimal_fractions",
    "PathPlanner",
    "TransferPlan",
    "PathAssignment",
    "plan_transfer",
    "TransferGraph",
    "CompiledPath",
    "GraphCache",
    "ContentionAwareModel",
    "ContentionSolution",
    "CollectiveModel",
    "CollectivePrediction",
]
