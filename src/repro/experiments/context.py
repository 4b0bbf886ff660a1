"""Shared experiment context: runs and caches search outcomes.

Table III, Table V, Figure 2 and Figure 3 all consume the same
(program × algorithm × threshold) search grid.  The context runs each
cell once, keeps it in memory, and persists it as FloatSmith-style
interchange JSON under ``results/searches/`` so repeated experiment
invocations (and the pytest benches) do not redo completed searches.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.benchmarks.base import application_benchmarks, kernel_benchmarks
from repro.core.evaluator import DEFAULT_TIME_LIMIT
from repro.core.results import SearchOutcome
from repro.harness.scheduler import JobResult, SearchJob, run_grid
from repro.search.registry import canonical_name, make_strategy

__all__ = [
    "ExperimentContext",
    "KERNEL_THRESHOLD", "APP_THRESHOLDS",
    "KERNEL_ALGORITHMS", "APP_ALGORITHMS",
]

#: the paper's kernel evaluation threshold (Section IV-B.1)
KERNEL_THRESHOLD = 1e-8
#: the paper's application quality bounds (Section IV-B.2)
APP_THRESHOLDS = (1e-3, 1e-6, 1e-8)
#: kernels are small enough for the exhaustive search
KERNEL_ALGORITHMS = ("CB", "CM", "DD", "HR", "HC", "GA")
#: the paper does not run CB on the applications
APP_ALGORITHMS = ("CM", "DD", "HR", "HC", "GA")


class ExperimentContext:
    """Runs search jobs on demand and caches their outcomes."""

    def __init__(
        self,
        results_dir: str | Path = "results",
        workers: int = 1,
        max_evaluations: int | None = None,
        time_limit_seconds: float = DEFAULT_TIME_LIMIT,
        use_disk_cache: bool = True,
    ) -> None:
        self.results_dir = Path(results_dir)
        self.workers = workers
        self.max_evaluations = max_evaluations
        self.time_limit_seconds = time_limit_seconds
        self.use_disk_cache = use_disk_cache
        self._memory: dict[tuple[str, str, float], JobResult] = {}

    # -- cache plumbing -----------------------------------------------------
    def _key(self, program: str, algorithm: str, threshold: float):
        return (program, canonical_name(algorithm), float(threshold))

    @staticmethod
    def _strategy_fingerprint(algorithm: str) -> str:
        """Short digest of the strategy's parameters, so cached
        outcomes from an older strategy configuration are ignored
        instead of silently mixed with fresh ones."""
        description = make_strategy(algorithm).describe()
        blob = json.dumps(description, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:8]

    @staticmethod
    def _program_fingerprint(program: str) -> str:
        """Short digest of the benchmark's compute-module sources and
        inputs parameters: editing a benchmark invalidates its cached
        searches instead of silently replaying stale outcomes."""
        import inspect

        from repro.benchmarks.base import get_benchmark

        bench = get_benchmark(program)
        hasher = hashlib.sha256()
        for module in bench.modules():
            hasher.update(inspect.getsource(module).encode())
        hasher.update(repr(sorted(
            (k, str(v)) for k, v in bench.inputs().items()
            if isinstance(v, (int, float, str))
        )).encode())
        return hasher.hexdigest()[:8]

    def _cache_path(self, key) -> Path:
        program, algorithm, threshold = key
        fingerprint = self._strategy_fingerprint(algorithm)
        program_fp = self._program_fingerprint(program)
        return (
            self.results_dir / "searches"
            / f"{program}-{algorithm}-{threshold:g}-{fingerprint}-{program_fp}.json"
        )

    def _load_disk(self, key) -> JobResult | None:
        path = self._cache_path(key)
        if self.use_disk_cache and path.exists():
            outcome = SearchOutcome.load(path)
            job = SearchJob(program=key[0], algorithm=key[1], threshold=key[2])
            return JobResult(job=job, outcome=outcome)
        return None

    def _store(self, key, result: JobResult) -> None:
        self._memory[key] = result
        if self.use_disk_cache and result.ok:
            result.outcome.save(self._cache_path(key))

    # -- public API -----------------------------------------------------------
    def outcome(self, program: str, algorithm: str, threshold: float) -> SearchOutcome | None:
        """The search outcome for one grid cell (None if the job failed)."""
        results = self.outcomes([(program, algorithm, threshold)])
        return results[0].outcome

    def outcomes(self, cells) -> list[JobResult]:
        """Resolve many grid cells, scheduling the missing ones in bulk."""
        keys = [self._key(*cell) for cell in cells]
        missing = []
        for key in keys:
            if key in self._memory:
                continue
            cached = self._load_disk(key)
            if cached is not None:
                self._memory[key] = cached
            else:
                missing.append(key)
        if missing:
            jobs = [
                SearchJob(
                    program=program, algorithm=algorithm, threshold=threshold,
                    time_limit_seconds=self.time_limit_seconds,
                    max_evaluations=self.max_evaluations,
                )
                for (program, algorithm, threshold) in missing
            ]
            for key, result in zip(missing, run_grid(jobs, workers=self.workers)):
                self._store(key, result)
        return [self._memory[key] for key in keys]

    # -- canonical grids --------------------------------------------------------
    def kernel_grid(self) -> list[JobResult]:
        """Table III: every kernel × every algorithm at 1e-8."""
        cells = [
            (program, algorithm, KERNEL_THRESHOLD)
            for program in kernel_benchmarks()
            for algorithm in KERNEL_ALGORITHMS
        ]
        return self.outcomes(cells)

    def application_grid(self) -> list[JobResult]:
        """Table V: every application × 5 algorithms × 3 thresholds."""
        cells = [
            (program, algorithm, threshold)
            for threshold in APP_THRESHOLDS
            for program in application_benchmarks()
            for algorithm in APP_ALGORITHMS
        ]
        return self.outcomes(cells)
