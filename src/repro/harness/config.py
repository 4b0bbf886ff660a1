"""YAML harness configuration (paper Listing 4).

The harness is driven by a per-benchmark YAML file::

    kmeans:
      benchmark: kmeans          # suite registry name (defaults to the key)
      build: ['generate-inputs'] # build/deploy steps (informational)
      clean: ['remove-inputs']
      metric: MCR                # quality metric for verification
      threshold: 1.0e-6          # acceptance threshold
      runs: 10                   # timed runs per configuration
      time_limit_hours: 24       # simulated analysis budget
      executor: process          # batch executor: serial/thread/process
      workers: 4                 # worker count for thread/process
      cache: true                # persistent evaluation cache on/off
      shadow: true               # search options: prune/shadow/rounding/screen
      analysis:
        floatsmith:              # analysis id
          name: floatSmith       # plugin name in the registry
          extra_args:
            algorithm: ddebug    # search strategy

The search-option and execution keys are validated in
:mod:`repro.harness.session` (``SearchOptions``, ``ExecutionOptions``).
Unknown keys are rejected so typos fail loudly.  ``load_config``
returns one :class:`HarnessConfig` per top-level key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import yaml

from repro.core.evaluator import DEFAULT_TIME_LIMIT
from repro.errors import HarnessConfigError
from repro.harness.session import ExecutionOptions, SearchOptions, check_setting

__all__ = ["AnalysisSpec", "HarnessConfig", "load_config", "parse_config"]

_TOP_KEYS = {
    "benchmark", "build", "build_dir", "clean", "metric", "threshold",
    "runs", "time_limit_hours", "analysis", "args", "bin", "copy", "output",
    "cache", *ExecutionOptions.YAML_KEYS, *(f.name for f in fields(SearchOptions)),
}


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis entry: which plugin to run and with what arguments."""

    identifier: str
    plugin: str
    extra_args: dict[str, Any] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class HarnessConfig:
    """Everything the harness needs to deploy and analyse one program."""

    name: str
    benchmark: str
    metric: str | None = None
    threshold: float | None = None
    runs: int | None = None
    time_limit_hours: float = DEFAULT_TIME_LIMIT / 3600.0
    analyses: tuple[AnalysisSpec, ...] = ()
    build: tuple[str, ...] = ()
    clean: tuple[str, ...] = ()
    #: persistent evaluation cache toggle; None inherits
    cache: bool | None = None
    #: the search options this entry sets (see SearchOptions); the
    #: others inherit the harness-wide values
    options: dict[str, Any] = field(default_factory=dict, hash=False)
    #: the execution settings this entry sets (see ExecutionOptions),
    #: by field name; the others inherit the harness-wide values
    execution: dict[str, Any] = field(default_factory=dict, hash=False)

    def analysis(self, identifier: str) -> AnalysisSpec:
        for spec in self.analyses:
            if spec.identifier == identifier:
                return spec
        raise HarnessConfigError(
            f"{self.name}: no analysis named {identifier!r}; "
            f"available: {[s.identifier for s in self.analyses]}"
        )


def load_config(path: str | Path) -> list[HarnessConfig]:
    """Load and validate a harness YAML file."""
    path = Path(path)
    if not path.exists():
        raise HarnessConfigError(f"config file not found: {path}")
    try:
        payload = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise HarnessConfigError(f"{path}: invalid YAML: {exc}") from exc
    return parse_config(payload, source=str(path))


def parse_config(payload: Any, source: str = "<config>") -> list[HarnessConfig]:
    """Validate an already-parsed YAML document."""
    if not isinstance(payload, Mapping) or not payload:
        raise HarnessConfigError(
            f"{source}: expected a mapping of benchmark entries, got {type(payload).__name__}"
        )
    configs = []
    for name, body in payload.items():
        configs.append(_parse_entry(str(name), body, source))
    return configs


def _parse_entry(name: str, body: Any, source: str) -> HarnessConfig:
    if not isinstance(body, Mapping):
        raise HarnessConfigError(f"{source}: entry {name!r} must be a mapping")
    unknown = set(body) - _TOP_KEYS
    if unknown:
        raise HarnessConfigError(
            f"{source}: entry {name!r} has unknown keys {sorted(unknown)}"
        )

    threshold = body.get("threshold")
    if threshold is not None:
        try:
            threshold = float(threshold)
        except (TypeError, ValueError):
            raise HarnessConfigError(
                f"{source}: {name}: threshold must be a number, got {threshold!r}"
            ) from None
        if threshold <= 0:
            raise HarnessConfigError(f"{source}: {name}: threshold must be positive")

    runs = body.get("runs")
    if runs is not None:
        if not isinstance(runs, int) or runs < 1:
            raise HarnessConfigError(f"{source}: {name}: runs must be a positive integer")

    hours = body.get("time_limit_hours", DEFAULT_TIME_LIMIT / 3600.0)
    try:
        hours = float(hours)
    except (TypeError, ValueError):
        raise HarnessConfigError(
            f"{source}: {name}: time_limit_hours must be a number"
        ) from None
    check_setting("time_limit_hours", hours, HarnessConfigError, f"{source}: {name}: ")

    cache = body.get("cache")
    if cache is not None and not isinstance(cache, bool):
        raise HarnessConfigError(
            f"{source}: {name}: cache must be a boolean"
        )

    where = f"{source}: {name}: "
    options = SearchOptions.parse(body, HarnessConfigError, where)
    execution = ExecutionOptions.parse(
        body, HarnessConfigError, where, keys=ExecutionOptions.YAML_KEYS,
    )

    analyses = []
    for identifier, spec in (body.get("analysis") or {}).items():
        if not isinstance(spec, Mapping) or "name" not in spec:
            raise HarnessConfigError(
                f"{source}: {name}: analysis {identifier!r} needs a 'name' key"
            )
        extra = spec.get("extra_args") or {}
        if not isinstance(extra, Mapping):
            raise HarnessConfigError(
                f"{source}: {name}: extra_args of {identifier!r} must be a mapping"
            )
        analyses.append(AnalysisSpec(str(identifier), str(spec["name"]), dict(extra)))

    return HarnessConfig(
        name=name,
        benchmark=str(body.get("benchmark", name)),
        metric=body.get("metric"),
        threshold=threshold,
        runs=runs,
        time_limit_hours=hours,
        analyses=tuple(analyses),
        build=tuple(body.get("build") or ()),
        clean=tuple(body.get("clean") or ()),
        cache=cache,
        options=options,
        execution=execution,
    )
