"""Spans around the calls into each layer, recorded from outside ``src/``.

Each proxy below is handed to the program through a public parameter
(``get_benchmark(machine=...)``, the evaluator's ``program``,
``quality``, ``cache`` and ``executor``, a ``RunJournal`` subclass), so
the program runs unchanged.  Spans are kept in memory, one record per
call with its parent, and written out when the run ends.  A layer's
self time is its span's duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import fields

from repro.core.batch import BatchExecutor
from repro.core.checkpoint import RunJournal
from repro.core.results import EvaluationStatus
from repro.runtime.cache import EvaluationCache
from repro.runtime.machine import DEFAULT_MACHINE, MachineModel
from repro.verify.quality import QualitySpec


class Recorder:
    """Thread-safe span recorder: per-name totals, self times and counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self.durations: dict[str, list[int]] = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0, 0, stack[-1][0] if stack else -1))
        frame = [index, 0]  # own span index, time covered by children
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.spans[index] = (name, start, end, self.spans[index][3])
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                self.durations[name].append(duration)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9


#: the recorder of this process; proxies look it up at call time so
#: that they stay picklable for process-pool work items
RECORDER = Recorder()


def span(name: str, traced: bool):
    return RECORDER.span(name) if traced else nullcontext()


class ProgramProxy:
    """The evaluator's ``program``: times ``Benchmark.execute`` and adds up
    the work each execution's profile reports."""

    def __init__(self, bench) -> None:
        self._bench = bench

    def __getattr__(self, name):
        return getattr(self._bench, name)

    def execute(self, config, inputs=None):
        with RECORDER.span("execute"):
            result = self._bench.execute(config, inputs)
        summary = result.profile.summary()
        RECORDER.count("profiled_trials")
        RECORDER.count("ops", int(sum(summary["ops"].values())))
        RECORDER.count("bytes", int(summary["bytes_read"] + summary["bytes_written"]))
        return result


class TimedMachine(MachineModel):
    """The default machine model, timing each ``time(profile)`` call."""

    def time(self, profile):
        with RECORDER.span("machine"):
            return super().time(profile)


def timed_machine() -> TimedMachine:
    return TimedMachine(**{
        f.name: getattr(DEFAULT_MACHINE, f.name) for f in fields(MachineModel)
    })


class TimedQuality(QualitySpec):
    """A quality spec timing each verification against the baseline."""

    def check(self, reference, candidate):
        with RECORDER.span("verify"):
            return super().check(reference, candidate)


class TimedCache(EvaluationCache):
    """An evaluation cache timing reads and writes and counting hits."""

    def get(self, program, context, config_digest):
        with RECORDER.span("cache_get"):
            record = super().get(program, context, config_digest)
        RECORDER.count("cache_gets")
        if record is not None:
            RECORDER.count("cache_hits")
        return record

    def put(self, program, context, config_digest, record):
        with RECORDER.span("cache_put"):
            super().put(program, context, config_digest, record)
        RECORDER.count("cache_puts")
        # the evaluator writes every fresh evaluation, executed or not
        if record.get("status") != EvaluationStatus.COMPILE_ERROR.value:
            RECORDER.count("executions")


class TimedJournal(RunJournal):
    """A run journal timing each fsync'd append."""

    def append(self, kind, **fields_):
        with RECORDER.span("journal"):
            super().append(kind, **fields_)
        RECORDER.count("journal_appends")


class TimedExecutor(BatchExecutor):
    """Wraps the evaluator's batch executor, timing each dispatch."""

    def __init__(self, inner: BatchExecutor) -> None:
        self.inner = inner
        self.name = inner.name
        self.workers = inner.workers
        self.policy = inner.policy

    def run(self, program, configs):
        RECORDER.count("batches")
        RECORDER.count("batched_configs", len(configs))
        with RECORDER.span("dispatch"):
            return self.inner.run(program, configs)

    def fault_counters(self):
        return self.inner.fault_counters()

    def close(self):
        self.inner.close()
