"""One search session: the search options and the one builder of a search.

The paper's harness hands a deployed application to an analysis plugin
(Section III-A.c), and its scheduler fans (program × algorithm ×
threshold) searches out to workers (Section IV).  Every front end —
``mixpbench search``, the YAML harness's ``floatSmith`` plugin, and the
grid/service shards of :func:`repro.harness.scheduler.run_shard` —
builds its search here:

* :class:`SearchOptions` declares the four options that change *which*
  configurations a search tries: ``prune``, ``shadow`` (``--order
  shadow``), ``rounding`` and ``screen``.  It owns each option's
  default, validation, command-line flag, YAML entry key and spool-JSON
  key.
* :class:`ExecutionOptions` does the same for the four settings of *how*
  a search executes (executor, workers, trial timeout, retries), and
  :meth:`~ExecutionOptions.open_executor` builds the executor.
  :class:`~repro.harness.scheduler.SearchJob` and
  :class:`~repro.service.spec.GridSpec` extend both classes, so their
  fields (and a grid's job identity) carry them under the same names.
* :func:`open_session` runs prune → shadow guidance → certification →
  :class:`~repro.core.evaluator.ConfigurationEvaluator` → strategy.  The
  caller keeps owning the executor, cache and trace it passes in.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Mapping

from repro.benchmarks.base import Benchmark
from repro.core.batch import EXECUTOR_NAMES, BatchExecutor, make_executor
from repro.core.evaluator import ConfigurationEvaluator
from repro.search.base import SearchStrategy
from repro.search.bitwidth import ROUNDING_MODES
from repro.search.registry import make_strategy, strategy_kwargs
from repro.verify.quality import QualitySpec

__all__ = [
    "ExecutionOptions", "SearchOptions", "check_fields", "check_setting",
    "flag_type", "open_session",
]


_BOOLEAN = (lambda v: type(v) is bool, "must be a boolean")
_POSITIVE_INT = (lambda v: type(v) is int and v >= 1, "must be a positive integer")
#: NaN fails ``v > 0`` too
_POSITIVE = (lambda v: type(v) in (int, float) and v > 0, "must be a positive number")

#: every option's, setting's and budget's rule: (check, what the check
#: demands); ``type(v) is int`` keeps booleans out of the integer settings
_RULES = {
    "prune": _BOOLEAN,
    "shadow": _BOOLEAN,
    "rounding": (lambda v: v in ROUNDING_MODES, f"must be one of {list(ROUNDING_MODES)}"),
    "screen": _BOOLEAN,
    "executor": (lambda v: v in EXECUTOR_NAMES, f"must be one of {list(EXECUTOR_NAMES)}"),
    "executor_workers": _POSITIVE_INT,
    "trial_timeout": _POSITIVE,
    "max_retries": (lambda v: type(v) is int and v >= 0, "must be a non-negative integer"),
    "max_evaluations": _POSITIVE_INT,
    "time_limit_seconds": _POSITIVE,
    "time_limit_hours": _POSITIVE,
}


def check_setting(
    name: str, value: Any, error: type[Exception], where: str = "", key: str | None = None,
) -> None:
    """Raise ``error`` (prefixed with ``where``, naming ``key`` or ``name``)
    unless ``value`` meets the rule of setting ``name``."""
    check, rule = _RULES[name]
    if not check(value):
        raise error(f"{where}{key or name} {rule}, got {value!r}")


def check_fields(options: Any, error: type[Exception], where: str = "") -> None:
    """Check every ruled field of a built dataclass (a grid spec).  A null
    passes only where the field's default is null: elsewhere its JSON
    round trip would read the default back and name a different job."""
    for f in fields(options):
        value = getattr(options, f.name)
        if f.name in _RULES and not (value is None and f.default is None):
            check_setting(f.name, value, error, where)


def _parse(payload: Mapping, keys: Any, error: type[Exception], where: str) -> dict:
    """The fields ``payload`` sets under ``keys`` (payload key -> field, or
    a dataclass naming both), each checked against its rule; a breach raises
    ``error`` prefixed with ``where``, and absent or null keys are left out."""
    if not isinstance(keys, Mapping):
        keys = {f.name: f.name for f in fields(keys)}
    settings = {}
    for key, name in keys.items():
        value = payload.get(key)
        if value is None:
            continue
        check_setting(name, value, error, where, key)
        settings[name] = value
    return settings


def flag_type(name: str, convert: type) -> Any:
    """An argparse ``type``: ``convert`` the flag, then apply ``name``'s rule."""
    check, rule = _RULES[name]

    def parse(text: str) -> Any:
        value = convert(text)
        if not check(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # keeps argparse's "invalid int value" message
    return parse


@dataclass(frozen=True, kw_only=True)
class SearchOptions:
    """What a search tries, independent of how it executes.

    A YAML entry and a spool-JSON grid spec name each option by its
    field name; :meth:`add_arguments` lists the command-line flags.
    """

    #: restrict the search space with the static dataflow pruner
    #: (docs/static-analysis.md)
    prune: bool = False
    #: enumerate locations most-sensitive-first, ordered by one shadow
    #: run (docs/shadow-analysis.md)
    shadow: bool = False
    #: store-rounding mode of the emulated e8m*/e11m* formats; only the
    #: bit-width bisection strategy consumes it
    rounding: str = "nearest"
    #: skip configurations whose certified error lower bound already
    #: violates the threshold (docs/error-bounds.md)
    screen: bool = False

    def options_json(self) -> dict:
        """The options as spool-JSON keys.

        ``rounding`` and ``screen`` are written only when set, so a spec
        that leaves them at their defaults keeps the digest (and job
        identifier) it had before those options existed.
        """
        payload: dict[str, Any] = {"prune": self.prune, "shadow": self.shadow}
        if self.rounding != "nearest":
            payload["rounding"] = self.rounding
        if self.screen:
            payload["screen"] = True
        return payload

    @staticmethod
    def parse(payload: Mapping, error: type[Exception], where: str = "") -> dict:
        """The options a YAML entry or spool-JSON payload sets, validated
        against :data:`_RULES`; absent and null keys inherit (are left out)."""
        return _parse(payload, SearchOptions, error, where)

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """The option flags ``search``, ``run``, ``grid`` and ``submit`` share."""
        parser.add_argument(
            "--prune", action="store_true",
            help="restrict the search space with the static dataflow pruner",
        )
        parser.add_argument(
            "--order", choices=["none", "shadow"], default="none",
            help="search-location ordering: 'shadow' runs one shadow "
                 "sensitivity analysis and enumerates locations "
                 "most-sensitive-first (default: none)",
        )
        parser.add_argument(
            "--rounding", choices=ROUNDING_MODES, default="nearest",
            help="store-rounding mode for emulated e8m*/e11m* formats "
                 "(consumed by the BW bit-width bisection strategy; "
                 "default: nearest, i.e. round-to-nearest-even)",
        )
        parser.add_argument(
            "--screen", action="store_true",
            help="skip configurations whose certified error lower bound "
                 "already violates the threshold; screening only skips, "
                 "and every kept configuration is still executed and "
                 "verified (see docs/error-bounds.md)",
        )

    @staticmethod
    def from_args(args: argparse.Namespace) -> "SearchOptions":
        """The options the flags of :meth:`add_arguments` selected."""
        return SearchOptions(
            prune=args.prune,
            shadow=args.order == "shadow",
            rounding=args.rounding,
            screen=args.screen,
        )


@dataclass(frozen=True, kw_only=True)
class ExecutionOptions:
    """How a search executes, independent of what it tries.  Spool JSON
    names each setting by its field name, a YAML entry by :attr:`YAML_KEYS`."""

    #: batch executor, one of :data:`~repro.core.batch.EXECUTOR_NAMES`
    executor: str = "serial"
    #: thread/process worker count (None: 4 threads or 2 processes)
    executor_workers: int | None = None
    #: the FaultPolicy: per-trial wall-clock budget in real seconds
    #: (None: none) and retries of a transient worker failure
    trial_timeout: float | None = None
    max_retries: int = 0

    #: YAML entry key -> field; the fault policy is harness-wide only
    YAML_KEYS: ClassVar[Mapping[str, str]] = {"executor": "executor", "workers": "executor_workers"}

    def open_executor(self) -> BatchExecutor:
        """A new batch executor with these settings; the caller closes it."""
        return make_executor(
            self.executor, self.executor_workers,
            trial_timeout=self.trial_timeout, max_retries=self.max_retries,
        )

    @staticmethod
    def parse(
        payload: Mapping, error: type[Exception], where: str = "", keys: Mapping | None = None,
    ) -> dict:
        """The settings a YAML entry or spool-JSON payload sets, validated
        as :meth:`SearchOptions.parse` does.  ``keys`` maps payload keys
        to field names (default: the field names, as in spool JSON)."""
        return _parse(payload, keys or ExecutionOptions, error, where)

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """The flags ``search``, ``run``, ``grid`` and ``submit`` share."""
        parser.add_argument(
            "--executor", choices=EXECUTOR_NAMES, default="serial",
            help="batch backend for configuration evaluation (default: serial)",
        )
        parser.add_argument(
            "--workers", type=flag_type("executor_workers", int), default=None,
            help="worker count for the thread/process executors",
        )
        parser.add_argument(
            "--trial-timeout", type=flag_type("trial_timeout", float),
            default=None, metavar="SECONDS",
            help="per-trial wall-clock budget; slower trials are reported "
                 "as runtime errors (process executor kills hung workers)",
        )
        parser.add_argument(
            "--max-retries", type=flag_type("max_retries", int), default=0,
            metavar="N",
            help="retry transient worker failures up to N times with "
                 "exponential backoff (default: 0, no retries)",
        )

    @staticmethod
    def from_args(args: argparse.Namespace) -> "ExecutionOptions":
        """The settings the flags of :meth:`add_arguments` selected."""
        return ExecutionOptions(
            executor=args.executor, executor_workers=args.workers,
            trial_timeout=args.trial_timeout, max_retries=args.max_retries,
        )


def open_session(
    bench: Benchmark,
    options: SearchOptions,
    *,
    quality: QualitySpec | None,
    algorithm: str,
    strategy_args: Mapping[str, Any] | None = None,
    **evaluator_kwargs: Any,
) -> tuple[ConfigurationEvaluator, SearchStrategy]:
    """Build one search: its evaluator and its strategy, not yet run.

    ``evaluator_kwargs`` go to :class:`ConfigurationEvaluator` as they
    are (executor, cache, trace, budgets, timing); closing the executor
    and trace stays with the caller.  ``strategy_args`` override the
    strategy's constructor parameters, including the ``rounding`` that
    ``options`` selects.

    The shadow run and the certificate are pure in-process functions of
    the benchmark: one shadow report per benchmark and process serves
    both ``shadow`` and ``screen``, and it is identical across the
    serial, thread and process executors.
    """
    space_override = prune_info = None
    if options.prune:
        from repro.typeforge.prune import prune_report

        report = bench.report()
        pruned = prune_report(report)
        space_override = pruned.space
        prune_info = pruned.stats(report.search_space())
    location_order = shadow_info = None
    if options.shadow:
        from repro.shadow import shadow_guidance

        location_order, shadow_info = shadow_guidance(bench)
    certificate = screen_info = None
    if options.screen:
        from repro.typeforge.errorbound import certify_benchmark

        _, certificate = certify_benchmark(bench)
        screen_info = certificate.info()
    evaluator = ConfigurationEvaluator(
        bench,
        quality=quality,
        space_override=space_override,
        prune_info=prune_info,
        location_order=location_order,
        shadow_info=shadow_info,
        screen=certificate,
        screen_info=screen_info,
        **evaluator_kwargs,
    )
    strategy = make_strategy(algorithm, **{
        **strategy_kwargs(algorithm, rounding=options.rounding),
        **(strategy_args or {}),
    })
    return evaluator, strategy
