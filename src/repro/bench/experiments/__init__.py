"""Per-figure experiment drivers (see DESIGN.md's experiment index).

========  =====================================================
FIG4      θ distribution across paths vs message size (Fig. 4)
FIG5      unidirectional BW grid (Fig. 5)
FIG6      bidirectional BW grid (Fig. 6)
FIG7      collective speedups (Fig. 7)
TAB-ERR   prediction-error aggregation (§5 headline numbers)
OBS1–5    the five §5.2 observations as quantitative checks
DRIFT     closed-loop recovery from injected link degradation
CHAOS     fault injection + multi-path recovery scenarios
CONTEND   contention-aware vs blind planning accuracy
OVERLOAD  4x offered load + mid-run fault: shedding/deadlines
========  =====================================================
"""

from repro.bench.experiments.chaos import ChaosResult, run_chaos
from repro.bench.experiments.contention import (
    ContentionReport,
    run_contention,
)

from repro.bench.experiments.fig4_theta import run_fig4
from repro.bench.experiments.bw_grid import run_fig5, run_fig6
from repro.bench.experiments.fig7_collectives import run_fig7
from repro.bench.experiments.drift_recovery import (
    DriftRecoveryResult,
    run_drift_recovery,
)
from repro.bench.experiments.error_analysis import (
    headline_speedups,
    prediction_error_table,
)
from repro.bench.experiments.observations import check_observations
from repro.bench.experiments.overload import (
    OverloadResult,
    overload_config,
    run_overload,
)

__all__ = [
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "prediction_error_table",
    "headline_speedups",
    "check_observations",
    "run_drift_recovery",
    "DriftRecoveryResult",
    "run_chaos",
    "ChaosResult",
    "run_contention",
    "ContentionReport",
    "run_overload",
    "OverloadResult",
    "overload_config",
]
