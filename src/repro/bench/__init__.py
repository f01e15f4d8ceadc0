"""Benchmark harness: calibration, OSU-style micro-benchmarks, baselines,
and the per-figure experiment drivers (paper §5).

* :mod:`repro.bench.calibrate` — Step 1 of Fig. 2a: extract α̂, β̂, ε̂, φ̂
  from the (simulated) system by measurement, never by reading the
  simulator's ground truth;
* :mod:`repro.bench.omb` — OSU micro-benchmark loops: ``osu_bw``,
  ``osu_bibw`` (windowed), collective latency;
* :mod:`repro.bench.baselines` — the paper's three configurations:
  single-path direct, static exhaustive search [35], dynamic model-driven;
* :mod:`repro.bench.runner` — sweep orchestration and result tables;
* :mod:`repro.bench.experiments` — one driver per paper figure (FIG5 and
  FIG6 share :mod:`~repro.bench.experiments.bw_grid`).
"""

from repro.bench.env import BenchEnvironment
from repro.bench.calibrate import calibrate
from repro.bench.omb import osu_bw, osu_bibw, osu_collective_latency

__all__ = [
    "BenchEnvironment",
    "calibrate",
    "osu_bw",
    "osu_bibw",
    "osu_collective_latency",
]
