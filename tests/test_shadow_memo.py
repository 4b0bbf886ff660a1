"""The per-process shared shadow report (``shared_sensitivity``).

``--order shadow`` guidance and ``--screen`` certification read one
default-precision :class:`~repro.shadow.report.SensitivityReport` per
inputs fingerprint per process.  The contracts under test:

* a guided, screened job runs the shadow engine exactly once, and its
  ordering and certificate equal those of an unshared computation;
* :func:`~repro.shadow.report.run_shadow_analysis` itself stays
  uncached, so the shadow bench keeps timing real runs;
* concurrent first requests for one program share one cache slot and
  a single run.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.shadow.report as shadow_report
from repro.benchmarks.base import clear_process_caches, get_benchmark
from repro.harness.scheduler import SearchJob, run_shard
from repro.shadow import run_shadow_analysis, shared_sensitivity
from repro.typeforge.errorbound import analyze_error_bounds, calibrate_bound


@pytest.fixture()
def engine_runs(monkeypatch, data_env):
    """Count shadow engine executions (one ShadowContext per run), in a
    fresh data dir so the shared report starts cold."""
    calls = []
    real = shadow_report.ShadowContext

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(shadow_report, "ShadowContext", counting)
    return calls


def _guided_screened_job() -> SearchJob:
    return SearchJob(
        program="eos", algorithm="DD", threshold=1e-8,
        max_evaluations=12, shadow=True, screen=True,
    )


def _unshared_certificate(bench):
    report = bench.report()
    model = analyze_error_bounds(
        report.scans, entry=report.entry, dependence=report.dependence,
    )
    return calibrate_bound(model, run_shadow_analysis(bench))


def _run_threads(workers: int, target) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestSharedReport:
    def test_guided_screened_shard_runs_engine_once(self, engine_runs):
        result = run_shard(_guided_screened_job())
        assert result.ok, result.error
        assert len(engine_runs) == 1
        assert result.outcome.metadata["shadow"]["ops"] > 0
        assert "screen" in result.outcome.metadata

    def test_shard_metadata_equals_unshared_computation(self, engine_runs):
        shared = run_shard(_guided_screened_job())
        clear_process_caches()
        fresh = run_shard(_guided_screened_job())
        assert shared.ok and fresh.ok
        assert len(engine_runs) == 2  # clearing dropped the shared report
        for key in ("shadow", "screen"):
            assert shared.outcome.metadata[key] == fresh.outcome.metadata[key]
        # and both equal what separate, unshared shadow runs produce
        bench = get_benchmark("eos")
        assert shared.outcome.metadata["shadow"] == run_shadow_analysis(bench).summary()
        screen = dict(shared.outcome.metadata["screen"])
        screen.pop("screened")  # the search's own count, not the certificate's
        assert screen == _unshared_certificate(bench).info()

    def test_raw_analysis_stays_uncached(self, engine_runs):
        bench = get_benchmark("eos")
        shared_sensitivity(bench)
        first = run_shadow_analysis(bench)
        second = run_shadow_analysis(bench)
        assert len(engine_runs) == 3
        assert first is not second
        assert first.to_json_dict() == second.to_json_dict()


class TestConcurrentFirstTouch:
    def test_threads_share_one_run_and_one_object(self, monkeypatch, data_env):
        real = shadow_report.run_shadow_analysis
        calls = []

        def slow(benchmark, *args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the window a second caller could race into
            return real(benchmark, *args, **kwargs)

        monkeypatch.setattr(shadow_report, "run_shadow_analysis", slow)
        workers = 4
        barrier = threading.Barrier(workers)
        benches = [get_benchmark("eos") for _ in range(workers)]
        reports: list = [None] * workers

        def ask(i: int) -> None:
            barrier.wait()
            reports[i] = shared_sensitivity(benches[i])

        _run_threads(workers, ask)
        assert len(calls) == 1
        assert all(r is reports[0] for r in reports)

    def test_first_touch_of_the_slot_is_shared(self, data_env):
        """More threads than cores race to create one fingerprint's slot,
        many times over; a lost update would leave an orphan slot."""
        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5.0
            for _ in range(200):
                clear_process_caches()
                benches = [get_benchmark("tridiag") for _ in range(workers)]
                barrier = threading.Barrier(workers)
                slots: list = [None] * workers

                def touch(i: int) -> None:
                    barrier.wait()
                    slots[i] = benches[i]._shared_state()

                _run_threads(workers, touch)
                assert all(s is slots[0] for s in slots)
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)
