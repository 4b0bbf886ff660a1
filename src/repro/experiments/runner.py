"""Experiment runner: the ``mixpbench-experiments`` entry point.

Regenerates the paper's evaluation artifacts::

    mixpbench-experiments table1            # kernel inventory
    mixpbench-experiments table2            # TV/TC per program
    mixpbench-experiments table3            # kernel search evaluation
    mixpbench-experiments table4            # manual all-single conversion
    mixpbench-experiments table5            # app searches at 3 thresholds
    mixpbench-experiments fig2 fig3         # figure data series
    mixpbench-experiments prune-stats       # Table II before/after --prune
    mixpbench-experiments shadow-stats      # unguided vs --order shadow
    mixpbench-experiments screen-stats      # plain vs --screen certificates
    mixpbench-experiments format-stats      # BW bisection vs built-in dtypes
    mixpbench-experiments ext-half ext-hrc  # extensions beyond the paper
    mixpbench-experiments all               # everything

Search-driven experiments cache per-cell outcomes as JSON under
``results/searches/``; delete that directory to force fresh runs.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    compare, ext_convergence, ext_half, ext_hrc, ext_machines,
    fig2, fig3, format_stats, insights, prune_stats, screen_stats,
    shadow_stats, table1, table2, table3, table4, table5,
)
from repro.experiments.context import ExperimentContext
from repro.harness.session import flag_type

__all__ = ["main", "run_experiment", "EXPERIMENTS"]

EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5", "fig2", "fig3",
    "insights", "compare", "prune-stats", "shadow-stats", "screen-stats",
    "format-stats",
    "ext-half", "ext-hrc", "ext-machines", "ext-convergence",
)


def run_experiment(name: str, ctx: ExperimentContext, results_dir: str) -> str:
    """Run one named experiment and return its rendered text."""
    if name == "table1":
        return table1.run(results_dir)
    if name == "table2":
        return table2.run(results_dir)
    if name == "table3":
        return table3.run(ctx, results_dir)
    if name == "table4":
        return table4.run(results_dir)
    if name == "table5":
        return table5.run(ctx, results_dir)
    if name == "fig2":
        return fig2.run(ctx, results_dir)
    if name == "fig3":
        return fig3.run(ctx, results_dir)
    if name == "insights":
        return insights.run(ctx, results_dir)
    if name == "compare":
        return compare.run(ctx, results_dir)
    if name == "prune-stats":
        return prune_stats.run(results_dir)
    if name == "shadow-stats":
        return shadow_stats.run(results_dir)
    if name == "screen-stats":
        return screen_stats.run(results_dir)
    if name == "format-stats":
        return format_stats.run(results_dir)
    if name == "ext-half":
        return ext_half.run(results_dir)
    if name == "ext-hrc":
        return ext_hrc.run(ctx, results_dir)
    if name == "ext-machines":
        return ext_machines.run(results_dir)
    if name == "ext-convergence":
        return ext_convergence.run(ctx, results_dir)
    raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixpbench-experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"any of {EXPERIMENTS} or 'all'",
    )
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--max-evaluations", type=flag_type("max_evaluations", int), default=None,
        help="cap EV per search (smoke runs); the 24h budget still applies",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk search cache",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = list(args.experiments)
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {EXPERIMENTS}", file=sys.stderr)
        return 2

    ctx = ExperimentContext(
        results_dir=args.results_dir,
        workers=args.workers,
        max_evaluations=args.max_evaluations,
        use_disk_cache=not args.no_cache,
    )
    for name in names:
        started = time.time()
        text = run_experiment(name, ctx, args.results_dir)
        print(text)
        print(f"[{name}: {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
