"""The benchmark's workloads: what each one runs and why it was chosen.

Every workload is a closed loop whose load comes from one process: the next
search, grid or job starts only after the previous one has finished.
None uses more than two worker processes or threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: the suite's own input seed (``Benchmark.seed``)
DEFAULT_SEED = 20200901

GUIDED_PROGRAMS = ("eos", "planckian", "hpccg", "cfd", "hotspot", "kmeans")


@dataclass(frozen=True)
class Search:
    """One search or grid as the CLI runs it (the flags of ``grid``)."""

    programs: tuple[str, ...]
    algorithm: str
    threshold: float | None = None
    executor: str = "serial"
    workers: int | None = None
    prune: bool = False
    shadow: bool = False
    screen: bool = False


@dataclass(frozen=True)
class Submission:
    """One grid spec a tenant submits to the service."""

    tenant: str
    programs: tuple[str, ...]
    algorithms: tuple[str, ...]
    thresholds: tuple[float, ...] = (1e-6,)

    def spec(self):
        from repro.service import GridSpec

        return GridSpec(
            programs=self.programs, algorithms=self.algorithms,
            thresholds=self.thresholds,
        )

    def grid_args(self) -> list[str]:
        """``mixpbench grid`` flags that run the same spec directly."""
        return [
            "grid", "--programs", *self.programs,
            "--algorithms", *self.algorithms,
            "--thresholds", *(repr(t) for t in self.thresholds),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json
    why: str
    #: the longer reason, for the workload record (baseline.json)
    reason: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    #: a CLI search or grid (``search``/``grid`` subcommand) ...
    search: Search | None = None
    grid: bool = False
    #: ... or, for the service, each tenant's submissions in order
    tenants: tuple[tuple[Submission, ...], ...] = field(default=())

    @property
    def service(self) -> bool:
        return bool(self.tenants)

    @property
    def units(self) -> int:
        """Searches (CLI) or jobs (service) in one run of the workload."""
        if self.service:
            return sum(map(len, self.tenants))
        return len(self.search.programs)

    def is_later(self, sub: Submission) -> bool:
        """Whether a tenant submitted ``sub`` after its first job ended."""
        return all(subs[0] is not sub for subs in self.tenants)

    def cli_args(self) -> list[str]:
        """The ``mixpbench`` arguments of one CLI run (output flags aside)."""
        s = self.search
        if self.grid:
            args = [
                "grid", "--programs", *s.programs, "--algorithms", s.algorithm,
                "--thresholds", repr(s.threshold),
            ]
        else:
            (program,) = s.programs
            args = ["search", program, "--algorithm", s.algorithm]
        if s.prune:
            args.append("--prune")
        if s.shadow:
            args += ["--order", "shadow"]
        if s.screen:
            args.append("--screen")
        if s.executor != "serial":
            args += ["--executor", s.executor, "--workers", str(s.workers)]
        return args

    def command(self) -> str:
        if self.service:
            lines = ["mixpbench serve --service-workers 2"]
            for submissions in self.tenants:
                for sub in submissions:
                    lines.append(
                        f"submit_request(tenant={sub.tenant}): "
                        + " ".join(sub.grid_args()[1:])
                    )
            return "; ".join(lines)
        return "mixpbench " + " ".join(self.cli_args())


# Tenant alpha's and tenant beta's first jobs both search srad, so the two
# race for the shared cache; every shard of beta's second job, and most of
# alpha's second, were already evaluated by a first job.
_ALPHA = (
    Submission("alpha", ("srad", "hpccg"), ("DD",)),
    Submission("alpha", ("srad", "hpccg"), ("HR",)),
)
_BETA = (
    Submission("beta", ("srad", "blackscholes"), ("DD",)),
    Submission("beta", ("hpccg", "blackscholes"), ("DD",)),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="lavamd-hr",
            why="trial execution: serial HR search on lavamd; instrumented "
                "Benchmark.execute is most of the wall time, with no shadow "
                "run or certification",
            reason="Tests trial execution. Tools of this family spend most "
                   "of their time executing the candidate configurations they "
                   "verify. 14 of HR's 37 evaluations on lavamd execute the "
                   "program (plus the all-double baseline); the other 23 fail "
                   "the simulated compile check and never run. There is no "
                   "shadow run or certification, so a change to the analysis "
                   "layers should leave this workload unchanged.",
            loads=("harness.cli", "benchmarks", "typeforge", "core.evaluator",
                   "runtime", "runtime.machine", "verify", "runtime.cache",
                   "search"),
            bypasses=("shadow", "typeforge.prune", "typeforge.errorbound",
                      "core.checkpoint", "core.batch process pool", "service"),
            search=Search(("lavamd",), "HR"),
        ),
        Workload(
            name="guided-grid",
            why="analysis: a pruned, shadow-ordered, screened DD grid of six "
                "programs; shadow runs and certification are most of the wall "
                "time, with 10 evaluations and a fsync'd run journal",
            reason="Tests analysis. Six shadow runs and six certifications "
                   "(each certification runs its own shadow run) take about "
                   "three quarters of the wall time; the same grid without "
                   "guidance takes about 1 s. It runs only 10 evaluations, and "
                   "the run journal fsyncs each trial, so an analysis change "
                   "shows here and a per-trial change barely moves it.",
            loads=("harness.cli", "benchmarks", "typeforge", "typeforge.prune",
                   "typeforge.errorbound", "shadow", "core.evaluator",
                   "runtime", "verify", "runtime.cache", "core.checkpoint",
                   "search"),
            bypasses=("core.batch process pool", "service"),
            search=Search(GUIDED_PROGRAMS, "DD", 1e-6, prune=True,
                          shadow=True, screen=True),
            grid=True,
        ),
        Workload(
            name="service-two-tenant",
            why="service: a 2-worker daemon, two tenants each submitting two "
                "overlapping grids; the only workload through the service "
                "journal, work-stealing shard queue and shared cache",
            reason="The only workload through the service journal, the "
                   "work-stealing shard queue and the shared EvaluationCache. "
                   "Tenants alpha and beta each submit two grids, the second "
                   "after the first ends; both first jobs search srad and race "
                   "for the shared cache, and the second jobs read what the "
                   "first jobs wrote, so a change that speeds cache reads but "
                   "slows writes shows here.",
            loads=("service", "core.batch work-stealing queue",
                   "core.checkpoint", "runtime.cache (shared)", "benchmarks",
                   "typeforge", "core.evaluator", "runtime", "verify",
                   "search"),
            bypasses=("shadow", "typeforge.prune", "typeforge.errorbound",
                      "core.batch process pool"),
            tenants=(_ALPHA, _BETA),
        ),
        Workload(
            name="lavamd-ga-process",
            why="process executor: GA on lavamd prefetches whole populations "
                "through a 2-worker process pool, so pickling, worker reuse "
                "and result return are on the critical path",
            reason="GA prefetches whole populations, so dispatch to the "
                   "process pool is on the critical path: pickling, worker "
                   "reuse and returning results. It is the only workload "
                   "through the process pool in core.batch. Per-call execution "
                   "time is not traced here (the proxies do not reach the pool "
                   "workers); lavamd-hr measures it.",
            loads=("harness.cli", "benchmarks", "typeforge", "core.evaluator",
                   "core.batch process pool", "runtime", "runtime.machine",
                   "verify", "runtime.cache", "search"),
            bypasses=("shadow", "typeforge.prune", "typeforge.errorbound",
                      "core.checkpoint", "service"),
            search=Search(("lavamd",), "GA", executor="process", workers=2),
        ),
    )
}
