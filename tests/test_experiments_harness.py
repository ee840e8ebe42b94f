"""Tests for the experiment harness plumbing: report rendering, CSV
export, the api facade, and the common configs (fast paths only — the
full experiments run in benchmarks/)."""

import csv
import json
from pathlib import Path

import pytest

from repro.api import build_workload, compare_schedulers, run_experiment
from repro.experiments import bench
from repro.experiments.common import (
    STANDARD_SPEEDUP,
    ExperimentScale,
    standard_engine,
    standard_params,
    standard_scheduler_config,
    standard_spec,
    standard_trace,
)
from repro.experiments.export import export_fig10, export_fig12, write_rows
from repro.experiments.report import render_kv, render_series, render_table
from repro.workload.generator import WorkloadParams, generate_trace


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "longer"], [(1, 2.34567), ("xy", 3.0)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.346" in out
        assert "xy" in out

    def test_render_table_empty(self):
        out = render_table(["col"], [])
        assert "col" in out

    def test_render_series_sparkline(self):
        out = render_series("s", [1, 2], [1.0, 2.0])
        assert out.count("#") > 0
        assert "2.000" in out

    def test_render_series_zero_max(self):
        out = render_series("s", [1], [0.0])
        assert "0.000" in out

    def test_render_kv(self):
        out = render_kv("title", {"alpha": 0.5, "note": "x"})
        assert "alpha" in out and "0.5" in out and "x" in out


class TestExport:
    def test_write_rows_roundtrip(self, tmp_path):
        p = write_rows(tmp_path / "x.csv", ["a", "b"], [(1, 2), (3, 4)])
        with p.open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_export_fig10_shape(self, tmp_path):
        data = {
            "rows": {
                "noshare": {
                    "throughput_qps": 1.0,
                    "relative": 1.0,
                    "paper_relative": 1.0,
                    "mean_rt": 2.0,
                    "cache_hit": 0.5,
                    "disk_reads": 10,
                }
            }
        }
        p = export_fig10(data, tmp_path / "f10.csv")
        content = p.read_text()
        assert "noshare" in content

    def test_export_fig12_shape(self, tmp_path):
        data = {"ks": [1, 5], "throughput": [0.5, 0.6], "liferaft2": 0.4}
        p = export_fig12(data, tmp_path / "f12.csv")
        assert "liferaft2" in p.read_text()


class TestCommonConfigs:
    def test_standard_spec_matches_paper_sample(self):
        spec = standard_spec()
        assert spec.n_timesteps == 31  # the 800GB sample's step count
        assert spec.atom_side == 64

    def test_scales_differ_in_size(self):
        small = standard_params(ExperimentScale.SMALL)
        full = standard_params(ExperimentScale.FULL)
        assert full.n_jobs > small.n_jobs
        assert full.span > small.span

    def test_engine_matches_paper_cache(self):
        eng = standard_engine()
        assert eng.cache.capacity_atoms == 256  # 2GB of 8MB atoms
        assert eng.cache.policy == "lruk"

    def test_scheduler_config_paper_defaults(self):
        cfg = standard_scheduler_config()
        assert cfg.alpha == 0.5
        assert cfg.batch_size == 15
        assert cfg.adaptive_alpha

    def test_scheduler_config_overrides(self):
        cfg = standard_scheduler_config(batch_size=3, job_aware=False)
        assert cfg.batch_size == 3
        assert not cfg.job_aware

    def test_standard_trace_rescaled(self):
        t1 = standard_trace(ExperimentScale.SMALL, speedup=1.0, seed=3)
        t8 = standard_trace(ExperimentScale.SMALL, speedup=STANDARD_SPEEDUP, seed=3)
        assert t8.span == pytest.approx(t1.span / STANDARD_SPEEDUP)


class TestApiFacade:
    def small_trace(self):
        spec = standard_spec()
        return generate_trace(spec, WorkloadParams(n_jobs=8, span=60.0, seed=1))

    def test_build_workload_speedup(self):
        t = build_workload(params=WorkloadParams(n_jobs=8, span=60.0, seed=1), speedup=2.0)
        assert t.n_jobs >= 8

    def test_run_experiment(self):
        result = run_experiment(self.small_trace(), "liferaft2")
        assert result.n_queries > 0

    def test_compare_schedulers(self):
        out = compare_schedulers(self.small_trace(), schedulers=("noshare", "jaws2"))
        assert set(out) == {"noshare", "jaws2"}
        assert all(r.n_queries > 0 for r in out.values())


class TestBenchRegressionGate:
    """``check_regression`` reads an exact-only report against every
    recorded baseline format."""

    ROOT = Path(__file__).resolve().parents[1]

    @staticmethod
    def report(baseline_path, factor=1.0, slow=None):
        """A one-engine quick report at ``factor`` x the baseline's
        exact walls, with scheduler ``slow`` at 3x."""
        baseline = json.loads(baseline_path.read_text())["quick"]
        rows = {}
        for name, row in baseline["schedulers"].items():
            wall = row["exact"]["wall_s"] if "exact" in row else row["wall_s"]
            rows[name] = {"wall_s": wall * (3.0 if name == slow else factor)}
        return {
            "format": bench.FORMAT_VERSION,
            "mode": "quick",
            "total_wall_s": sum(row["wall_s"] for row in rows.values()),
            "schedulers": rows,
        }

    @pytest.mark.parametrize("baseline", ["BENCH_PR5.json", "BENCH_PR10.json"])
    def test_exact_only_report_against_baseline(self, baseline):
        path = self.ROOT / baseline
        assert bench.check_regression(self.report(path, factor=1.5), path) is None
        failure = bench.check_regression(self.report(path, slow="liferaft2"), path)
        assert failure is not None
        assert failure.startswith("liferaft2:")
