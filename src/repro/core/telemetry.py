"""Search telemetry: evaluation counters and the JSON-lines trace.

The paper's harness runs thousands of configuration evaluations per
analysis; knowing where they went — fresh executions, in-memory cache
hits, persistent-cache replays, parallel batches — is what makes the
batch layer tunable.  :class:`EvalStats` is the counter block every
:class:`~repro.core.evaluator.ConfigurationEvaluator` maintains; it is
surfaced in ``SearchOutcome.metadata["eval_stats"]`` and in harness
reports.  :class:`TraceWriter` appends one JSON object per event to a
trace file, giving a replayable record of a search run.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO

__all__ = ["EvalStats", "TraceWriter"]


@dataclass
class EvalStats:
    """Counters describing where an evaluator's work went.

    ``evaluations`` counts trials that entered the log (EV);
    every one of them is either a ``fresh_evaluations`` (actually
    executed) or a ``persistent_hits`` (replayed from the on-disk
    cache).  ``memory_hits`` are repeats within one run — they cost
    nothing and never enter the trial log.  ``wall_seconds`` is *real*
    host time spent executing configurations (the quantity parallel
    executors shrink), as opposed to the simulated analysis clock.
    """

    evaluations: int = 0
    fresh_evaluations: int = 0
    memory_hits: int = 0
    persistent_hits: int = 0
    compile_errors: int = 0
    batches: int = 0
    batched_configs: int = 0
    prefetched_executions: int = 0
    wall_seconds: float = 0.0
    executor: str = "serial"
    workers: int = 1
    #: fault-tolerance incidents (see repro.core.batch.FaultPolicy):
    #: trials that blew their wall-clock budget, transient failures
    #: retried, worker pools killed/respawned, and work items
    #: re-dispatched after a pool died under them
    timeouts: int = 0
    retries: int = 0
    worker_restarts: int = 0
    redispatched: int = 0
    #: configurations rejected by the static error-bound certifier
    #: (see repro.typeforge.errorbound) without running — free skips
    #: that never enter the trial log's EV count.  Serialised only when
    #: nonzero so screening-off payloads stay byte-identical to
    #: releases that predate the counter.
    screened: int = 0
    #: free-form labels (strategy name, program) attached by callers
    labels: dict[str, str] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        """All evaluations answered without executing the program."""
        return self.memory_hits + self.persistent_hits

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "evaluations": self.evaluations,
            "fresh_evaluations": self.fresh_evaluations,
            "memory_hits": self.memory_hits,
            "persistent_hits": self.persistent_hits,
            "cache_hits": self.cache_hits,
            "compile_errors": self.compile_errors,
            "batches": self.batches,
            "batched_configs": self.batched_configs,
            "prefetched_executions": self.prefetched_executions,
            "wall_seconds": round(self.wall_seconds, 6),
            "executor": self.executor,
            "workers": self.workers,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "redispatched": self.redispatched,
        }
        if self.screened:
            payload["screened"] = self.screened
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def merge(self, other: "EvalStats") -> None:
        """Accumulate another evaluator's counters (harness totals)."""
        self.evaluations += other.evaluations
        self.fresh_evaluations += other.fresh_evaluations
        self.memory_hits += other.memory_hits
        self.persistent_hits += other.persistent_hits
        self.compile_errors += other.compile_errors
        self.batches += other.batches
        self.batched_configs += other.batched_configs
        self.prefetched_executions += other.prefetched_executions
        self.wall_seconds += other.wall_seconds
        self.timeouts += other.timeouts
        self.retries += other.retries
        self.worker_restarts += other.worker_restarts
        self.redispatched += other.redispatched
        self.screened += other.screened


class TraceWriter:
    """Append-only JSON-lines event log for one search/harness run.

    Each :meth:`emit` call writes one JSON object carrying the event
    kind, a monotonically increasing sequence number and a wall-clock
    timestamp.  The writer is thread-safe (batch executors may emit
    from worker callbacks) and flushes every line so a crashed run
    still leaves a usable trace.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] = self.path.open("a")
        self._lock = threading.Lock()
        self._sequence = 0

    def emit(self, kind: str, **fields: Any) -> None:
        with self._lock:
            event = {"seq": self._sequence, "ts": round(time.time(), 3), "kind": kind}
            event.update(fields)
            self._sequence += 1
            self._handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
