"""Smoke tests of the end-to-end benchmark (outside ``testpaths``, so the
default ``pytest`` run does not collect them).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def smoke(tmp_path: Path, seed: int) -> tuple[dict, dict]:
    """(last stdout line, -o document) of a smoke run of every workload."""
    out = tmp_path / f"seed{seed}" / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
         "-o", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return smoke(tmp, 0), smoke(tmp, 0)


def test_benchmark_json_matches_metric_table():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _kind) in PER_LAYER.items()
    }


def test_every_metric_emitted_with_unit(runs):
    (last, _doc), _ = runs
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in WORKLOADS:
        for name, (unit, *_rest) in {**END_TO_END, **PER_LAYER}.items():
            entry = last["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))


def test_same_seed_same_simulated_metrics(runs):
    (_l1, doc1), (_l2, doc2) = runs
    sim = [name for name, (_u, _b, kind) in PER_LAYER.items() if kind == "sim"]
    for r1, r2 in zip(doc1["results"], doc2["results"]):
        assert {k: r1["per_layer"][k] for k in sim} == {k: r2["per_layer"][k] for k in sim}


def test_seed_changes_inputs():
    pytest.importorskip("repro")
    from workloads import WORKLOADS as BY_NAME

    assert tuple(BY_NAME) == WORKLOADS
    for name in ("p2p_cold", "faults_open_loop"):
        wl = BY_NAME[name]
        assert wl.inputs(0, 40) == wl.inputs(0, 40)
        assert wl.inputs(0, 40) != wl.inputs(1, 40)


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.host_verdict(parent, [x * 1.2 for x in parent], "higher", 0.1) == "improved"
    assert compare.host_verdict(parent, [x * 0.8 for x in parent], "higher", 0.1) == "regressed"
    assert compare.host_verdict(parent, list(parent), "higher", 0.1) == "unchanged"
    assert compare.host_verdict([100.0], [99.0], "higher", 0.1) == "unresolved"
    assert compare.sim_verdict([1.0, 1.0], [1.0, 1.0], "lower") == "unchanged"
    assert compare.sim_verdict([1.0], [2.0], "lower") == "regressed"


def test_fails_without_program_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "benchmarks" / "e2e" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "p2p_warm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
