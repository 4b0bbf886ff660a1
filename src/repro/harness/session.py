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
  key.  :class:`~repro.harness.scheduler.SearchJob` and
  :class:`~repro.service.spec.GridSpec` extend it, so their fields (and
  a grid's job identity) carry the options under the same names.
* :func:`open_session` runs prune → shadow guidance → certification →
  :class:`~repro.core.evaluator.ConfigurationEvaluator` → strategy.  The
  caller keeps owning the executor, cache and trace it passes in.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.benchmarks.base import Benchmark
from repro.core.evaluator import ConfigurationEvaluator
from repro.search.base import SearchStrategy
from repro.search.bitwidth import ROUNDING_MODES
from repro.search.registry import make_strategy, strategy_kwargs
from repro.verify.quality import QualitySpec

__all__ = ["SearchOptions", "open_session"]


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

    def options(self) -> "SearchOptions":
        """These options alone, without a subclass's other fields."""
        return SearchOptions(
            **{f.name: getattr(self, f.name) for f in fields(SearchOptions)}
        )

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
        """The options a YAML entry or spool-JSON payload sets, validated.

        A key that is absent or null is left out, so a YAML entry
        inherits the harness-wide value.  ``prune``, ``shadow`` and
        ``screen`` must be booleans and ``rounding`` one of
        :data:`~repro.search.bitwidth.ROUNDING_MODES`; anything else
        raises ``error`` with ``where`` as the message prefix.
        """
        options = {}
        for f in fields(SearchOptions):
            value = payload.get(f.name)
            if value is None:
                continue
            if f.name == "rounding":
                if value not in ROUNDING_MODES:
                    raise error(
                        f"{where}rounding must be one of "
                        f"{list(ROUNDING_MODES)}, got {value!r}"
                    )
            elif not isinstance(value, bool):
                raise error(f"{where}{f.name} must be a boolean, got {value!r}")
            options[f.name] = value
        return options

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
