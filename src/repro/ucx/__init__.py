"""UCX-like transport layer (paper §4, Fig. 2a).

Step 1, extracting each system's parameters once and persisting them like
the paper's per-node model files, is
:func:`repro.bench.calibrate.calibrate_cached` (``cache_dir=``).

* :mod:`repro.ucx.tuning` — the environment-variable-style configuration
  surface (path include/exclude, pipelining, thresholds);
* :mod:`repro.ucx.context` — Step 2: the UCX context loads the model and
  owns the GPU runtime + planner;
* :mod:`repro.ucx.cuda_ipc` — Step 3/4: the cuda_ipc module consults the
  planner per transfer (eager vs rendezvous, single- vs multi-path);
* :mod:`repro.ucx.pipeline` — Step 5: the multi-path pipeline engine of
  [Sojoodi et al., ExHET'24] executing a TransferPlan on streams;
* :mod:`repro.ucx.endpoint` — endpoints issuing one-sided PUTs.
"""

from repro.gpu.errors import LinkFailure, PathUnavailable, TransferTimeout
from repro.ucx.context import UCXContext
from repro.ucx.endpoint import Endpoint
from repro.ucx.pipeline import PathFault, SettledExecution
from repro.ucx.tuning import TransportConfig

__all__ = [
    "UCXContext",
    "Endpoint",
    "TransportConfig",
    "LinkFailure",
    "TransferTimeout",
    "PathUnavailable",
    "PathFault",
    "SettledExecution",
]
