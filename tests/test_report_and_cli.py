"""Tests for report rendering and the CLI driver."""

import pytest

from repro.bench import report
from repro.bench.experiments import run_fig4
from repro.cli import main
from repro.units import MiB
from repro.util.tables import Table


def fake_fig5_table():
    t = Table(
        ["system", "paths", "window", "size_mib",
         "direct_gbps", "static_gbps", "dynamic_gbps", "predicted_gbps"],
    )
    for size, d, s, dy, p in [(2, 30, 35, 33, 40), (64, 45, 90, 100, 105)]:
        t.add(system="beluga", paths="3_GPUs", window=1, size_mib=size,
              direct_gbps=d, static_gbps=s, dynamic_gbps=dy, predicted_gbps=p)
    return t


class TestReport:
    def test_render_fig5_has_panels_and_legend(self):
        out = report.render_fig5(fake_fig5_table())
        assert "system=beluga" in out
        assert "o=direct" in out and "predicted" in out

    def test_render_fig4(self):
        table = run_fig4("beluga", sizes=[4 * MiB, 64 * MiB])
        out = report.render_fig4(table)
        assert "theta per path" in out
        assert "direct" in out

    def test_render_fig7(self):
        t = Table(
            ["system", "collective", "paths", "size_mib",
             "direct_latency_us", "static_latency_us", "dynamic_latency_us",
             "static_speedup", "dynamic_speedup"],
        )
        t.add(system="beluga", collective="alltoall", paths="2_GPUs",
              size_mib=16, direct_latency_us=100, static_latency_us=80,
              dynamic_latency_us=75, static_speedup=1.25, dynamic_speedup=1.33)
        out = report.render_fig7(t)
        assert "collective=alltoall" in out

    def test_experiments_markdown(self):
        text = report.experiments_markdown({"Section A": "body text"})
        assert text.startswith("# EXPERIMENTS")
        assert "## Section A" in text and "body text" in text


class TestCli:
    def test_fig4_command(self, capsys):
        assert main(["fig4", "--system", "beluga", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out and "theta" in out

    def test_calibrate_command(self, capsys):
        assert main(["calibrate", "--system", "beluga"]) == 0
        out = capsys.readouterr().out
        assert '"system": "beluga"' in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig4", "--system", "mars"])

    def test_invalid_gpu_pair_exits_cleanly(self):
        # Regression: an out-of-range GPU id must produce a clean error
        # message (like the --size fix), not a KeyError traceback.
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--system", "beluga", "--quick", "--dst", "9"])
        assert "invalid --dst 9" in str(exc.value)
        assert "GPUs 0..3" in str(exc.value)
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--system", "beluga", "--quick", "--src", "-1"])
        assert "invalid --src -1" in str(exc.value)

    def test_equal_gpu_pair_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--system", "beluga", "--quick",
                  "--src", "2", "--dst", "2"])
        assert "must name different GPUs" in str(exc.value)

    def test_invalid_size_still_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--system", "beluga", "--size", "banana"])
        assert "invalid --size" in str(exc.value)

    def test_drift_command_prints_recovery_table(self, capsys):
        assert main(["drift", "--system", "beluga", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "closed" in out and "open" in out
        assert "drift events" in out

    def test_critical_path_command_prints_slack(self, capsys):
        assert main(
            ["critical-path", "--system", "beluga", "--quick", "--size", "16M"]
        ) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "max_relative_slack" in out

    def test_stats_dump_writes_artifacts(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        assert main(
            ["stats", "--system", "beluga", "--quick", "--size", "16M",
             "--dump", str(prefix)]
        ) == 0
        assert (tmp_path / "run.metrics.json").exists()
        assert (tmp_path / "run.trace.json").exists()
        assert not (tmp_path / "run.decisions.jsonl").exists()
