"""Tests of the search session: the job identity every front end must
keep, and the search options (prune, shadow, rounding, screen) and
execution settings (executor, workers, trial timeout, retries) as the
CLI, the YAML harness and the grid scheduler each take them."""

from __future__ import annotations

import pytest

from repro.core.checkpoint import grid_fingerprint
from repro.errors import HarnessConfigError
from repro.harness.config import parse_config
from repro.harness.session import ExecutionOptions, SearchOptions
from repro.service import GridSpec, SpecError

# ---------------------------------------------------------------------------
# Job identity goldens: ``GridSpec.digest()`` names service jobs and
# ``grid_fingerprint`` guards journaled resume, so neither may move when
# the options are refactored.

GOLDEN_AXES = dict(
    programs=("eos", "hpccg"), algorithms=("DD", "BW"), thresholds=(1e-6,),
)

GOLDEN_IDENTITY = [
    ({}, "aaed5df31320", "ec9dd7ed1dc7a9bfb154"),
    ({"prune": True, "shadow": True}, "8aedd2f125f9", "09a51af477204db3c740"),
    ({"rounding": "stochastic"}, "c8e97aaf3bc8", "728e47f6c5f9f4409b7d"),
    ({"screen": True}, "9f1e11d3b2a2", "d476e4a8a03e95f06134"),
    (
        {
            "prune": True, "shadow": True, "rounding": "stochastic",
            "screen": True, "executor": "process", "executor_workers": 2,
            "max_evaluations": 12,
        },
        "ec0c9b4c9c62", "05e28cf30d32e435af38",
    ),
]


@pytest.mark.parametrize(
    "overrides, digest, fingerprint", GOLDEN_IDENTITY,
    ids=["defaults", "prune-shadow", "stochastic", "screen", "everything"],
)
def test_job_identity_golden(overrides, digest, fingerprint):
    spec = GridSpec(**GOLDEN_AXES, **overrides)
    assert spec.digest() == digest
    assert grid_fingerprint(spec.jobs()) == fingerprint
    # the spool round trip names the same job
    assert GridSpec.from_json_dict(spec.to_json_dict()).digest() == digest


# ---------------------------------------------------------------------------
# One validator for YAML entries and spool JSON


class TestSearchOptions:
    def test_yaml_entry_keys(self):
        entry = parse_config({"x": {
            "prune": True, "shadow": False, "rounding": "stochastic",
            "screen": None,
        }})[0]
        # null inherits, like an absent key
        assert entry.options == {
            "prune": True, "shadow": False, "rounding": "stochastic",
        }
        assert parse_config({"x": {}})[0].options == {}

    @pytest.mark.parametrize("body, message", [
        ({"prune": "yes"}, "prune must be a boolean"),
        ({"shadow": 1}, "shadow must be a boolean"),
        ({"screen": "true"}, "screen must be a boolean"),
        ({"rounding": "up"}, "rounding must be one of"),
        ({"rounding": True}, "rounding must be one of"),
    ])
    def test_yaml_entry_rejects(self, body, message):
        with pytest.raises(HarnessConfigError, match=f"x: {message}"):
            parse_config({"x": body})

    @pytest.mark.parametrize("key, value", [
        ("prune", "false"), ("shadow", 0), ("screen", "yes"),
        ("rounding", "Stochastic"),
    ])
    def test_spool_json_rejects(self, key, value):
        payload = GridSpec(**GOLDEN_AXES).to_json_dict()
        payload[key] = value
        with pytest.raises(SpecError, match=key):
            GridSpec.from_json_dict(payload)

    def test_direct_spec_rejects_bad_rounding(self):
        with pytest.raises(SpecError, match="rounding"):
            GridSpec(**GOLDEN_AXES, rounding="up")

    def test_harness_flag_overridden_per_entry(self, tmp_path, data_env):
        from repro.harness import plugins
        from repro.harness.runner import Harness

        seen = []

        class Recorder(plugins.AnalysisPlugin):
            plugin_name = "optionsRecorder"

            def analysis(self, app, **extra):
                seen.append(app.options)
                raise plugins.PluginError("recorded")

        plugins.register_plugin(Recorder)
        try:
            entry = parse_config({"tridiag": {
                "prune": False, "screen": True,
                "analysis": {"r": {"name": "optionsRecorder"}}},
            })[0]
            harness = Harness(
                output_dir=tmp_path, use_cache=False,
                options=SearchOptions(prune=True, shadow=True),
            )
            with pytest.raises(plugins.PluginError, match="recorded"):
                harness.run_entry(entry)
        finally:
            plugins._PLUGINS.pop("optionsrecorder", None)
        assert seen == [SearchOptions(prune=False, shadow=True, screen=True)]

    def test_grid_and_submit_expand_one_spec(self):
        from repro.harness.cli import _grid_spec, build_parser

        common = [
            "--programs", "eos", "hpccg", "--algorithms", "DD", "BW",
            "--thresholds", "1e-6", "--max-evaluations", "12",
            "--prune", "--order", "shadow", "--rounding", "stochastic",
            "--screen", "--executor", "process", "--workers", "2",
            "--trial-timeout", "30", "--max-retries", "1",
        ]
        parser = build_parser()
        grid = _grid_spec(parser.parse_args(["grid", *common]))
        submit = _grid_spec(parser.parse_args(["submit", *common]))
        assert grid == submit
        assert (grid.prune, grid.shadow, grid.rounding, grid.screen) == (
            True, True, "stochastic", True,
        )
        assert (grid.executor, grid.executor_workers, grid.trial_timeout,
                grid.max_retries) == ("process", 2, 30.0, 1)


# ---------------------------------------------------------------------------
# The execution settings: one validator for YAML entries, spool JSON and
# a directly built GridSpec; one flag set for search, run, grid and submit

#: (field, bad value); the YAML entry names ``executor_workers``
#: ``workers`` and has no key for the fault policy
EXECUTION_REJECTS = [
    ("executor", "Process"), ("executor", " process"),
    ("executor_workers", 0), ("executor_workers", True),
    ("executor_workers", "two"), ("trial_timeout", -1),
    ("trial_timeout", "soon"), ("max_retries", 1.5), ("max_retries", True),
]
_YAML_KEY = {field: key for key, field in ExecutionOptions.YAML_KEYS.items()}


@pytest.mark.parametrize("front_end, field, value", [
    (front_end, field, value)
    for field, value in EXECUTION_REJECTS
    for front_end in ("yaml", "spool", "direct")
    if front_end != "yaml" or field in _YAML_KEY
])
def test_execution_setting_rejected(front_end, field, value):
    if front_end == "yaml":
        key = _YAML_KEY[field]
        with pytest.raises(HarnessConfigError, match=f"x: {key} must be"):
            parse_config({"x": {key: value}})
    elif front_end == "spool":
        payload = GridSpec(**GOLDEN_AXES).to_json_dict()
        payload[field] = value
        with pytest.raises(SpecError, match=f"{field} must be"):
            GridSpec.from_json_dict(payload)
    else:
        with pytest.raises(SpecError, match=f"{field} must be"):
            GridSpec(**GOLDEN_AXES, **{field: value})


def test_execution_yaml_entry_keys():
    entry = parse_config({"x": {"executor": "thread", "workers": 3}})[0]
    assert entry.execution == {"executor": "thread", "executor_workers": 3}
    assert parse_config({"x": {"workers": None}})[0].execution == {}
    for key in ("trial_timeout", "max_retries", "executor_workers"):
        with pytest.raises(HarnessConfigError, match="unknown keys"):
            parse_config({"x": {key: 1}})


@pytest.mark.parametrize("flags", [
    ["--workers", "0"], ["--workers", "-2"], ["--trial-timeout", "0"],
    ["--trial-timeout", "nan"], ["--max-retries", "-1"],
    ["--executor", "Process"],
])
@pytest.mark.parametrize("command", [
    ["search", "eos"], ["run", "x.yaml"],
    ["grid", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-6"],
    ["submit", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-6"],
])
def test_cli_rejects_bad_execution_flags(command, flags, capsys):
    from repro.harness.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main([*command, *flags])
    assert exit_info.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_cli_execution_flags_parse_to_options():
    from repro.harness.cli import build_parser

    args = build_parser().parse_args([
        "search", "eos", "--executor", "thread", "--workers", "3",
        "--trial-timeout", "2.5", "--max-retries", "0",
    ])
    assert ExecutionOptions.from_args(args) == ExecutionOptions(
        executor="thread", executor_workers=3, trial_timeout=2.5,
    )
    defaults = build_parser().parse_args(["search", "eos"])
    assert ExecutionOptions.from_args(defaults) == ExecutionOptions()


def test_execution_harness_flag_overridden_per_entry(tmp_path, data_env):
    from repro.harness import plugins
    from repro.harness.cli import build_parser
    from repro.harness.runner import Harness

    seen = []

    class Recorder(plugins.AnalysisPlugin):
        plugin_name = "executorRecorder"

        def analysis(self, app, **extra):
            seen.append((app.executor.name, app.executor.workers))
            raise plugins.PluginError("recorded")

    plugins.register_plugin(Recorder)
    args = build_parser().parse_args(
        ["run", "x.yaml", "--executor", "thread", "--workers", "2"],
    )
    harness = Harness(
        output_dir=tmp_path, use_cache=False,
        execution=ExecutionOptions.from_args(args),
    )
    analysis = {"r": {"name": "executorRecorder"}}
    try:
        for body in (
            {"executor": "serial"}, {}, {"workers": 3},
        ):
            (entry,) = parse_config({"tridiag": {**body, "analysis": analysis}})
            with pytest.raises(plugins.PluginError, match="recorded"):
                harness.run_entry(entry)
    finally:
        plugins._PLUGINS.pop("executorrecorder", None)
    assert seen == [("serial", 1), ("thread", 2), ("thread", 3)]


# ---------------------------------------------------------------------------
# Front-end parity on real benchmarks: the same options through
# ``mixpbench search``, a YAML harness entry and a scheduler shard build
# the same search.

PARITY_CASES = [
    ("hpccg", "HR", {"prune": True, "shadow": True, "screen": True}),
    ("eos", "BW", {"rounding": "stochastic", "screen": True}),
]


def _cli_flags(options: dict) -> list[str]:
    flags = []
    if options.get("prune"):
        flags.append("--prune")
    if options.get("shadow"):
        flags += ["--order", "shadow"]
    if "rounding" in options:
        flags += ["--rounding", options["rounding"]]
    if options.get("screen"):
        flags.append("--screen")
    return flags


@pytest.mark.parametrize(
    "program, algorithm, options", PARITY_CASES, ids=["hpccg-HR", "eos-BW"],
)
def test_front_ends_build_the_same_search(program, algorithm, options, data_env):
    from repro.benchmarks.base import get_benchmark
    from repro.core.results import SearchOutcome
    from repro.harness.cli import main
    from repro.harness.config import parse_config
    from repro.harness.runner import Harness
    from repro.harness.scheduler import SearchJob, run_shard

    saved = data_env / "search.json"
    assert main([
        "search", program, "--algorithm", algorithm, "--no-cache",
        "--output-dir", str(data_env / "cli"), "--save", str(saved),
        *_cli_flags(options),
    ]) == 0
    direct = SearchOutcome.load(saved)

    entry = parse_config({program: {
        **options,
        "analysis": {"fs": {
            "name": "floatSmith", "extra_args": {"algorithm": algorithm},
        }},
    }})[0]
    (harnessed,) = Harness(
        output_dir=data_env / "harness", use_cache=False,
    ).run_entry(entry).analyses

    shard = run_shard(SearchJob(
        program=program, algorithm=algorithm,
        threshold=get_benchmark(program).default_threshold, **options,
    ))
    assert shard.ok, shard.error
    scheduled = shard.outcome

    assert direct.evaluations == harnessed.evaluations == scheduled.evaluations
    assert direct.final.config == harnessed.config == scheduled.final.config
    assert direct.error_value == harnessed.error_value == scheduled.error_value
    for key in ("prune", "shadow", "screen"):
        expected = direct.metadata.get(key) or {}
        assert (key in options) == bool(expected), key
        assert getattr(harnessed, key) == expected, key
        assert (scheduled.metadata.get(key) or {}) == expected, key
