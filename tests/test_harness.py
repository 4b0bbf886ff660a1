"""Tests for the harness: YAML config, plugins, runner, scheduler, CLI."""

import json

import pytest

from repro.errors import HarnessConfigError, PluginError
from repro.harness.config import load_config, parse_config
from repro.harness.plugins import (
    AnalysisPlugin, DeployedApp, available_plugins, get_plugin, register_plugin,
)
from repro.harness.runner import Harness
from repro.harness.scheduler import SearchJob, grid_jobs, run_grid

VALID_YAML = """
kmeans:
  benchmark: kmeans
  build: ['generate-inputs']
  clean: ['remove-inputs']
  metric: MCR
  threshold: 1.0e-6
  runs: 10
  time_limit_hours: 24
  analysis:
    floatsmith:
      name: floatSmith
      extra_args:
        algorithm: ddebug
"""


class TestConfigParsing:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "kmeans.yaml"
        path.write_text(VALID_YAML)
        configs = load_config(path)
        assert len(configs) == 1
        entry = configs[0]
        assert entry.name == "kmeans"
        assert entry.benchmark == "kmeans"
        assert entry.metric == "MCR"
        assert entry.threshold == 1e-6
        assert entry.runs == 10
        assert entry.time_limit_hours == 24.0
        spec = entry.analysis("floatsmith")
        assert spec.plugin == "floatSmith"
        assert spec.extra_args == {"algorithm": "ddebug"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(HarnessConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [unclosed")
        with pytest.raises(HarnessConfigError, match="invalid YAML"):
            load_config(path)

    def test_benchmark_defaults_to_entry_name(self):
        entry = parse_config({"hydro-1d": {}})[0]
        assert entry.benchmark == "hydro-1d"

    def test_unknown_keys_rejected(self):
        with pytest.raises(HarnessConfigError, match="unknown keys"):
            parse_config({"x": {"thresold": 1e-3}})

    def test_bad_threshold_rejected(self):
        with pytest.raises(HarnessConfigError, match="threshold"):
            parse_config({"x": {"threshold": "tiny"}})
        with pytest.raises(HarnessConfigError, match="positive"):
            parse_config({"x": {"threshold": -1}})

    def test_bad_runs_rejected(self):
        with pytest.raises(HarnessConfigError, match="runs"):
            parse_config({"x": {"runs": 0}})

    def test_fuse_key_parses_and_validates(self):
        # ``fuse`` is no longer a harness key
        for value in (False, True):
            with pytest.raises(HarnessConfigError, match="unknown keys.*fuse"):
                parse_config({"x": {"fuse": value}})

    def test_analysis_requires_name(self):
        with pytest.raises(HarnessConfigError, match="'name'"):
            parse_config({"x": {"analysis": {"a": {}}}})

    def test_non_mapping_rejected(self):
        with pytest.raises(HarnessConfigError, match="mapping"):
            parse_config(["not", "a", "mapping"])
        with pytest.raises(HarnessConfigError, match="mapping"):
            parse_config({"x": "oops"})

    def test_unknown_analysis_lookup(self):
        entry = parse_config({"x": {}})[0]
        with pytest.raises(HarnessConfigError, match="no analysis"):
            entry.analysis("ghost")

    def test_shipped_configs_parse(self):
        from pathlib import Path
        config_dir = Path(__file__).parent.parent / "configs"
        files = sorted(config_dir.glob("*.yaml"))
        assert len(files) == 17
        for path in files:
            entries = load_config(path)
            assert len(entries) == 1
            assert entries[0].analyses


class TestPlugins:
    def test_floatsmith_registered(self):
        assert "floatsmith" in available_plugins()
        assert get_plugin("floatSmith").plugin_name == "floatSmith"

    def test_unknown_plugin(self):
        with pytest.raises(PluginError, match="unknown analysis plugin"):
            get_plugin("ghost")

    def test_register_requires_name(self):
        class Anonymous(AnalysisPlugin):
            def analysis(self, app, **extra):
                raise NotImplementedError

        with pytest.raises(PluginError, match="no plugin_name"):
            register_plugin(Anonymous)

    def test_custom_plugin_roundtrip(self):
        class Null(AnalysisPlugin):
            plugin_name = "nullTest"

            def analysis(self, app, **extra):
                raise NotImplementedError

        register_plugin(Null)
        try:
            assert isinstance(get_plugin("nulltest"), Null)
        finally:
            from repro.harness import plugins as plugins_module
            plugins_module._PLUGINS.pop("nulltest", None)

    def test_floatsmith_rejects_unknown_args(self, tmp_path, data_env):
        from repro.benchmarks.base import get_benchmark
        from repro.verify.quality import QualitySpec
        app = DeployedApp(
            benchmark=get_benchmark("tridiag"),
            quality=QualitySpec("MAE", 1e-8),
            runs_per_config=10,
            time_limit_seconds=86400,
            output_dir=tmp_path,
        )
        plugin = get_plugin("floatSmith")
        with pytest.raises(PluginError, match="unknown extra_args"):
            plugin.analysis(app, algorithm="DD", bogus=1)
        # the search options are entry keys, not plugin arguments
        for key, value in (("prune", True), ("shadow", True),
                           ("screen", True), ("rounding", "stochastic")):
            with pytest.raises(PluginError, match=f"unknown extra_args.*{key}"):
                plugin.analysis(app, algorithm="DD", **{key: value})

    def test_floatsmith_writes_interchange_artifact(self, tmp_path, data_env):
        from repro.benchmarks.base import get_benchmark
        from repro.verify.quality import QualitySpec
        app = DeployedApp(
            benchmark=get_benchmark("tridiag"),
            quality=QualitySpec("MAE", 1e-8),
            runs_per_config=10,
            time_limit_seconds=86400,
            output_dir=tmp_path,
        )
        result = get_plugin("floatSmith").analysis(app, algorithm="DD")
        payload = json.loads(result.artifact.read_text())
        assert payload["program"] == "tridiag"
        assert payload["strategy"] == "delta-debugging"
        assert payload["configuration"]["actions"]
        assert result.outcome.found_solution


class TestHarnessRunner:
    def test_run_entry_end_to_end(self, tmp_path, data_env):
        config = parse_config({
            "tridiag": {
                "threshold": 1e-8,
                "analysis": {
                    "fs": {"name": "floatSmith", "extra_args": {"algorithm": "DD"}},
                },
            },
        })[0]
        harness = Harness(output_dir=tmp_path / "results")
        report = harness.run_entry(config)
        assert report.benchmark == "tridiag"
        assert report.metric == "MAE"
        assert len(report.analyses) == 1
        analysis = report.analyses[0]
        assert analysis.found_solution
        assert analysis.speedup > 0.5
        assert analysis.error_value <= 1e-8
        assert analysis.artifact.exists()

    def test_run_file(self, tmp_path, data_env):
        path = tmp_path / "cfg.yaml"
        path.write_text(VALID_YAML.replace("kmeans", "tridiag").replace("MCR", "MAE"))
        harness = Harness(output_dir=tmp_path / "out")
        reports = harness.run_file(path)
        assert len(reports) == 1
        assert reports[0].analyses[0].strategy == "delta-debugging"


class TestScheduler:
    def test_grid_jobs_cross_product(self):
        jobs = grid_jobs(["a", "b"], ["DD", "GA"], [1e-3, 1e-8])
        assert len(jobs) == 8
        assert jobs[0] == SearchJob("a", "DD", 1e-3)

    def test_run_grid_serial(self, data_env):
        jobs = grid_jobs(["tridiag"], ["DD", "CB"], [1e-8])
        results = run_grid(jobs)
        assert all(r.ok for r in results)
        assert [r.job.algorithm for r in results] == ["DD", "CB"]

    def test_run_grid_parallel_preserves_order(self, data_env):
        jobs = grid_jobs(["tridiag", "innerprod"], ["DD"], [1e-8])
        results = run_grid(jobs, workers=2)
        assert [r.job.program for r in results] == ["tridiag", "innerprod"]
        assert all(r.ok for r in results)

    def test_failed_job_reported_not_raised(self):
        results = run_grid([SearchJob("no-such-bench", "DD", 1e-6)])
        assert not results[0].ok
        assert "BenchmarkNotFound" in results[0].error

    def test_job_label(self):
        job = SearchJob("kmeans", "ddebug", 1e-6)
        assert job.label() == "kmeans/DD@1e-06"
