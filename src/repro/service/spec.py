"""Job specifications and records for the search service.

A *grid spec* is the client-side description of one search job: the
(program × algorithm × threshold) cross product plus the execution
options ``mixpbench grid`` takes.  It is deliberately the same shape
:func:`repro.harness.scheduler.grid_jobs` expands, so a submitted job
and a direct ``mixpbench grid`` of the same spec run the *same*
:class:`~repro.harness.scheduler.SearchJob` shards and produce
byte-identical outcomes (modulo the ``eval_stats`` telemetry block,
which records wall time and executor identity).

A *job record* is the service-side ledger entry: who submitted what,
and where it is in the ``queued → running → done/failed/cancelled``
lifecycle.  Both serialise to plain JSON for the service journal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.core.batch import EXECUTOR_NAMES
from repro.errors import MixPBenchError
from repro.harness.scheduler import SearchJob, grid_jobs
from repro.harness.session import SearchOptions

__all__ = [
    "JOB_STATES", "TERMINAL_STATES", "GridSpec", "JobRecord", "SpecError",
]

#: the full job lifecycle; the first three are live, the rest terminal
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_DEFAULT_TIME_LIMIT = 24 * 3600.0


class SpecError(MixPBenchError):
    """A submitted grid spec is malformed."""


@dataclass(frozen=True)
class GridSpec(SearchOptions):
    """One submittable search job: a grid plus its execution options.

    The search options (``prune``, ``shadow``, ``rounding``, ``screen``)
    are the keyword-only fields of
    :class:`~repro.harness.session.SearchOptions`.  The shared evaluation
    cache is *not* part of the spec — the service owns it (every
    tenant's evaluations route through one store, which is what makes
    overlapping submissions dedupe); a direct ``mixpbench grid``
    chooses its own.
    """

    programs: tuple[str, ...]
    algorithms: tuple[str, ...]
    thresholds: tuple[float, ...]
    max_evaluations: int | None = None
    time_limit_seconds: float = _DEFAULT_TIME_LIMIT
    executor: str = "serial"
    executor_workers: int | None = None
    trial_timeout: float | None = None
    max_retries: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "programs", tuple(self.programs))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(
            self, "thresholds", tuple(float(t) for t in self.thresholds)
        )
        if not self.programs or not self.algorithms or not self.thresholds:
            raise SpecError(
                "a grid spec needs at least one program, algorithm and threshold"
            )
        if self.executor not in EXECUTOR_NAMES:
            raise SpecError(
                f"unknown executor {self.executor!r}; "
                f"choose one of {EXECUTOR_NAMES}"
            )
        SearchOptions.parse(vars(self.options()), SpecError)

    def jobs(self, cache_dir: str | None = None) -> list[SearchJob]:
        """Expand into the shards a scheduler dispatches."""
        settings = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name not in ("programs", "algorithms", "thresholds")
        }
        return grid_jobs(
            self.programs, self.algorithms, self.thresholds,
            cache_dir=cache_dir, **settings,
        )

    @property
    def shards(self) -> int:
        return len(self.programs) * len(self.algorithms) * len(self.thresholds)

    def digest(self) -> str:
        """Stable content hash of the spec (used in job identifiers)."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def label(self) -> str:
        programs = ",".join(self.programs)
        algorithms = ",".join(self.algorithms)
        thresholds = ",".join(f"{t:g}" for t in self.thresholds)
        return f"{programs} x {algorithms} @ {thresholds}"

    def to_json_dict(self) -> dict:
        return {
            "programs": list(self.programs),
            "algorithms": list(self.algorithms),
            "thresholds": list(self.thresholds),
            "max_evaluations": self.max_evaluations,
            "time_limit_seconds": self.time_limit_seconds,
            "executor": self.executor,
            "executor_workers": self.executor_workers,
            "trial_timeout": self.trial_timeout,
            "max_retries": self.max_retries,
            **self.options_json(),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GridSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"grid spec must be an object, got {type(payload).__name__}")
        # Ledger records and spool requests written by older releases
        # carry a ``fuse`` execution flag that never affected results;
        # it is accepted and discarded.
        unknown = set(payload) - {f.name for f in fields(cls)} - {"fuse"}
        if unknown:
            raise SpecError(f"unknown grid spec field(s): {sorted(unknown)}")
        try:
            return cls(
                programs=tuple(payload["programs"]),
                algorithms=tuple(payload["algorithms"]),
                thresholds=tuple(payload["thresholds"]),
                max_evaluations=payload.get("max_evaluations"),
                time_limit_seconds=float(
                    payload.get("time_limit_seconds", _DEFAULT_TIME_LIMIT)
                ),
                executor=payload.get("executor", "serial"),
                executor_workers=payload.get("executor_workers"),
                trial_timeout=payload.get("trial_timeout"),
                max_retries=int(payload.get("max_retries", 0)),
                **SearchOptions.parse(payload, SpecError, "grid spec: "),
            )
        except KeyError as missing:
            raise SpecError(f"grid spec is missing {missing.args[0]!r}") from None


@dataclass
class JobRecord:
    """The service ledger's view of one submitted job."""

    job_id: str
    tenant: str
    spec: GridSpec
    state: str = "queued"
    error: str | None = None
    #: aggregate outcome statistics, filled at the terminal transition
    #: (shard counts, evaluations, shared-cache hits, redispatches)
    stats: dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def with_state(self, state: str) -> "JobRecord":
        return replace(self, state=state)

    def to_json_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec.to_json_dict(),
            "state": self.state,
            "error": self.error,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "JobRecord":
        return cls(
            job_id=payload["job_id"],
            tenant=payload.get("tenant", "default"),
            spec=GridSpec.from_json_dict(payload["spec"]),
            state=payload.get("state", "queued"),
            error=payload.get("error"),
            stats=dict(payload.get("stats", {})),
        )
