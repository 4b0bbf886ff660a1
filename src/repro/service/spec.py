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
from dataclasses import dataclass, field, fields
from typing import Mapping

from repro.core.evaluator import DEFAULT_TIME_LIMIT
from repro.errors import MixPBenchError
from repro.harness.scheduler import SearchJob, grid_jobs
from repro.harness.session import ExecutionOptions, SearchOptions

__all__ = [
    "JOB_STATES", "TERMINAL_STATES", "GridSpec", "JobRecord", "SpecError",
]

#: the full job lifecycle; the first three are live, the rest terminal
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


class SpecError(MixPBenchError):
    """A submitted grid spec is malformed."""


@dataclass(frozen=True)
class GridSpec(SearchOptions, ExecutionOptions):
    """One submittable search job: a grid plus its execution options.

    The search options and the execution settings are the keyword-only
    fields of :class:`~repro.harness.session.SearchOptions` and
    :class:`~repro.harness.session.ExecutionOptions`.  The shared
    evaluation cache is *not* part of the spec — the service owns it
    (every tenant's evaluations route through one store, which is what
    makes overlapping submissions dedupe); a direct ``mixpbench grid``
    chooses its own.  Every field is validated, raising :class:`SpecError`.
    """

    programs: tuple[str, ...]
    algorithms: tuple[str, ...]
    thresholds: tuple[float, ...]
    max_evaluations: int | None = None
    time_limit_seconds: float = DEFAULT_TIME_LIMIT

    def __post_init__(self) -> None:
        number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        names = lambda v: type(v) in (list, tuple) and v and all(isinstance(n, str) for n in v)
        numbers = lambda v: type(v) in (list, tuple) and v and all(map(number, v))
        for name, check, rule in (
            ("programs", names, "a non-empty list of names"),
            ("algorithms", names, "a non-empty list of names"),
            ("thresholds", numbers, "a non-empty list of numbers"),
            ("max_evaluations", lambda v: v is None or type(v) is int, "an integer"),
            ("time_limit_seconds", number, "a number"),
        ):
            value = getattr(self, name)
            if not check(value):
                raise SpecError(f"grid spec: {name} must be {rule}, got {value!r}")
        object.__setattr__(self, "programs", tuple(self.programs))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "thresholds", tuple(map(float, self.thresholds)))
        object.__setattr__(self, "time_limit_seconds", float(self.time_limit_seconds))
        SearchOptions.parse(vars(self), SpecError, "grid spec: ")
        ExecutionOptions.parse(vars(self), SpecError, "grid spec: ")

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
            **{f.name: getattr(self, f.name) for f in fields(ExecutionOptions)},
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
        return cls(
            programs=payload.get("programs"),
            algorithms=payload.get("algorithms"),
            thresholds=payload.get("thresholds"),
            max_evaluations=payload.get("max_evaluations"),
            time_limit_seconds=payload.get("time_limit_seconds", DEFAULT_TIME_LIMIT),
            **SearchOptions.parse(payload, SpecError, "grid spec: "),
            **ExecutionOptions.parse(payload, SpecError, "grid spec: "),
        )


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
