"""Parallel sweep execution: fan independent measurement points across cores.

Every measurement point in the figure sweeps runs in its own fresh
:class:`~repro.sim.engine.Engine`, so points are embarrassingly parallel.
:func:`parallel_map` fans a list of picklable task descriptors over a
process pool and collects results **in task order**, so a parallel sweep
produces byte-identical tables to a serial one:

* determinism comes from the tasks themselves — a task is a plain
  descriptor of one measurement point and the simulator is deterministic,
  so the executing process/core/ordering cannot leak into results;
* the pool uses the ``fork`` start method, so workers inherit the parent's
  warmed calibration caches (pre-warm with
  :func:`repro.bench.runner.get_setup` before fanning out) instead of
  re-running ping-pong sweeps per worker;
* ``jobs<=1``, a single task, or an unavailable ``fork`` context all fall
  back to a plain in-process loop, keeping tests and exotic platforms on
  one code path.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """A sensible ``--jobs`` default: physical parallelism, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def parallel_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    *,
    jobs: int | None = None,
) -> list[R]:
    """Ordered map of ``fn`` over ``tasks``, optionally across processes.

    Results are returned in task order regardless of completion order.
    ``fn`` and each task must be picklable when ``jobs > 1`` (module-level
    functions with primitive/dataclass payloads).
    """
    task_list: Sequence[T] = list(tasks)
    if jobs is None or jobs <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return [fn(task) for task in task_list]
    workers = min(jobs, len(task_list))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, task_list))


__all__ = ["parallel_map", "default_jobs"]
