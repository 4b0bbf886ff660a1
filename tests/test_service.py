"""Tests of :mod:`repro.service`: specs, the durable queue, the
scheduler (quotas, cancellation, crash redispatch, recovery) and the
daemon-free client half."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.checkpoint import JournalError, RunJournal, job_key
from repro.errors import MixPBenchError
from repro.harness.scheduler import run_grid, run_shard
from repro.service import (
    GridSpec, JobRecord, QuotaExceeded, Scheduler, SchedulerHooks,
    ServiceDraining, ServiceError, ServiceJournal, SpecError, UnknownJob,
    attach, job_status, load_service_state, request_cancel, results_path,
    service_status, state_paths, submit_request,
)

SMALL = dict(
    programs=("tridiag",), algorithms=("DD",), thresholds=(1e-8,),
    max_evaluations=4,
)


def small_spec(**overrides) -> GridSpec:
    return GridSpec(**{**SMALL, **overrides})


def stripped(payload: list[dict]) -> list[dict]:
    """Results with the run-dependent telemetry block removed — the
    repo-wide byte-identity comparison convention."""
    out = json.loads(json.dumps(payload))
    for row in out:
        (row.get("outcome") or {}).get("metadata", {}).pop("eval_stats", None)
    return out


# ---------------------------------------------------------------------------
# GridSpec / JobRecord


class TestGridSpec:
    def test_round_trip(self):
        spec = small_spec(executor="thread", executor_workers=2, prune=True)
        clone = GridSpec.from_json_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_is_content_addressed(self):
        assert small_spec().digest() == small_spec().digest()
        assert small_spec().digest() != small_spec(max_evaluations=5).digest()

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            GridSpec(programs=(), algorithms=("DD",), thresholds=(1e-8,))

    def test_unknown_executor_rejected(self):
        with pytest.raises(SpecError):
            small_spec(executor="quantum")

    def test_unknown_field_rejected(self):
        payload = small_spec().to_json_dict()
        payload["cache_dir"] = "/tmp/x"
        with pytest.raises(SpecError, match="cache_dir"):
            GridSpec.from_json_dict(payload)

    def test_missing_field_rejected(self):
        payload = small_spec().to_json_dict()
        del payload["programs"]
        with pytest.raises(SpecError, match="programs"):
            GridSpec.from_json_dict(payload)

    def test_shards_and_label(self):
        spec = GridSpec(
            programs=("a", "b"), algorithms=("DD", "GA"), thresholds=(1e-8,),
        )
        assert spec.shards == 4
        assert spec.label() == "a,b x DD,GA @ 1e-08"

    def test_fuse_round_trip_and_shard_propagation(self):
        # ledger records and spool requests from older releases carry
        # the removed trace-fusion flag; it is dropped on load, so it
        # neither survives a round trip nor reaches the shard jobs
        payload = small_spec().to_json_dict()
        assert "fuse" not in payload
        payload["fuse"] = False
        spec = GridSpec.from_json_dict(payload)
        assert spec == small_spec()
        assert "fuse" not in spec.to_json_dict()
        assert spec.jobs() == small_spec().jobs()
        assert len(spec.jobs()) == spec.shards
        assert not any(hasattr(job, "fuse") for job in spec.jobs())

    def test_fuse_defaults_true_for_legacy_payloads(self):
        # a legacy payload with the flag at its old default loads as the
        # same spec, with the same digest, as one that never carried it
        payload = small_spec().to_json_dict()
        payload["fuse"] = True
        spec = GridSpec.from_json_dict(payload)
        assert spec == small_spec()
        assert spec.digest() == small_spec().digest()

    def test_job_record_round_trip(self):
        record = JobRecord(
            job_id="job-0001-aaaa", tenant="alice", spec=small_spec(),
            state="done", stats={"shards": 1},
        )
        clone = JobRecord.from_json_dict(record.to_json_dict())
        assert clone == record
        assert clone.terminal


# ---------------------------------------------------------------------------
# Durable queue: the service journal


class TestServiceJournal:
    def test_fresh_directory_gets_header(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.close()
        state = load_service_state(state_paths(tmp_path)["journal"])
        assert state.version == 1
        assert state.jobs == {}

    def test_submit_and_state_round_trip(self, tmp_path):
        record = JobRecord(job_id="job-0001-aaaa", tenant="t", spec=small_spec())
        with ServiceJournal(tmp_path) as journal:
            journal.append_submit(record, 1)
            journal.append_state(record.job_id, "running")
            journal.append_state(
                record.job_id, "done", stats={"shards_done": 1},
            )
        state = load_service_state(state_paths(tmp_path)["journal"])
        loaded = state.jobs[record.job_id]
        assert loaded.state == "done"
        assert loaded.stats == {"shards_done": 1}
        assert state.sequence == 1

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        record = JobRecord(job_id="job-0001-aaaa", tenant="t", spec=small_spec())
        with ServiceJournal(tmp_path) as journal:
            journal.append_submit(record, 1)
        path = state_paths(tmp_path)["journal"]
        with path.open("ab") as handle:
            handle.write(b'{"kind": "state", "job_id": "job-0001-a')  # SIGKILL
        state = load_service_state(path)
        assert state.torn_tail
        assert state.jobs[record.job_id].state == "queued"
        with ServiceJournal(tmp_path) as journal:  # reopen truncates
            journal.append_state(record.job_id, "done")
        final = load_service_state(path)
        assert not final.torn_tail
        assert final.jobs[record.job_id].state == "done"

    def test_version_mismatch_refused(self, tmp_path):
        path = state_paths(tmp_path)["journal"]
        path.write_text('{"kind": "service", "version": 99}\n')
        with pytest.raises(JournalError, match="version"):
            ServiceJournal(tmp_path)

    def test_unknown_record_kinds_are_ignored(self, tmp_path):
        with ServiceJournal(tmp_path) as journal:
            journal.append("audit", who="future-schema")
        state = load_service_state(state_paths(tmp_path)["journal"])
        assert state.jobs == {}


# ---------------------------------------------------------------------------
# Scheduler


class TestScheduler:
    def test_two_tenants_dedupe_and_match_direct_grid(self, data_env):
        spec = small_spec(algorithms=("DD", "GA"), max_evaluations=8)
        scheduler = Scheduler(data_env / "svc", workers=2, quota=4)
        scheduler.start()
        try:
            first = scheduler.submit(spec, tenant="alice")
            second = scheduler.submit(spec, tenant="bob")
            assert scheduler.wait_job(first, timeout=180) == "done"
            assert scheduler.wait_job(second, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)

        stats_a = scheduler.status(first)["job"]["stats"]
        stats_b = scheduler.status(second)["job"]["stats"]
        # overlapping submissions dedupe through the one shared cache:
        # at least one tenant's evaluations were someone else's work
        assert stats_a["persistent_hits"] + stats_b["persistent_hits"] > 0
        assert stats_a["evaluations"] == stats_b["evaluations"]

        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        for job_id in (first, second):
            served = json.loads(
                results_path(data_env / "svc", job_id).read_text()
            )
            assert stripped(served) == stripped(direct)

    def test_quota_counts_active_jobs_per_tenant(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc", quota=1)  # never started
        scheduler.submit(small_spec(), tenant="alice")
        with pytest.raises(QuotaExceeded):
            scheduler.submit(small_spec(), tenant="alice")
        scheduler.submit(small_spec(), tenant="bob")  # separate budget
        scheduler.stop(drain=False)

    def test_submit_while_draining_rejected(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        scheduler.drain()
        with pytest.raises(ServiceDraining):
            scheduler.submit(small_spec())
        scheduler.stop(drain=False)

    def test_cancel_queued_job(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")  # workers never started
        job_id = scheduler.submit(small_spec())
        assert scheduler.cancel(job_id) == "cancelled"
        assert scheduler.status(job_id)["job"]["state"] == "cancelled"
        assert not results_path(tmp_path / "svc", job_id).exists()
        assert scheduler.cancel(job_id) == "cancelled"  # idempotent no-op
        scheduler.stop(drain=False)
        # the cancellation is durable: a reopened service keeps it
        reopened = Scheduler(tmp_path / "svc")
        assert reopened.status(job_id)["job"]["state"] == "cancelled"
        reopened.stop(drain=False)

    def test_cancel_running_job_stops_at_shard_boundary(self, data_env):
        cancelled = threading.Event()
        holder: dict[str, Scheduler] = {}

        def on_shard_start(job_id: str, key: str) -> None:
            if not cancelled.is_set():
                cancelled.set()
                holder["scheduler"].cancel(job_id)

        scheduler = Scheduler(
            data_env / "svc", workers=1,
            hooks=SchedulerHooks(shard_started=on_shard_start),
        )
        holder["scheduler"] = scheduler
        job_id = scheduler.submit(small_spec(algorithms=("DD", "GA")))
        scheduler.start()
        try:
            assert scheduler.wait_job(job_id, timeout=180) == "cancelled"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(job_id)["job"]["stats"]
        # the in-flight shard finished, the unstarted one was dropped
        assert stats["shards_done"] == 1
        assert stats["shards"] == 2

    def test_worker_crash_is_redispatched(self, data_env):
        crashes = {"left": 1}

        def crash_once(job_id: str, key: str) -> None:
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("synthetic worker crash")

        scheduler = Scheduler(
            data_env / "svc", workers=1, shard_retries=2,
            hooks=SchedulerHooks(shard_started=crash_once),
        )
        scheduler.start()
        try:
            job_id = scheduler.submit(small_spec())
            assert scheduler.wait_job(job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(job_id)["job"]["stats"]
        assert stats["redispatched_shards"] == 1
        assert stats["shards_done"] == 1

    def test_worker_crash_exhausts_retries(self, data_env):
        def always_crash(job_id: str, key: str) -> None:
            raise RuntimeError("synthetic worker crash")

        scheduler = Scheduler(
            data_env / "svc", workers=1, shard_retries=1,
            hooks=SchedulerHooks(shard_started=always_crash),
        )
        scheduler.start()
        try:
            job_id = scheduler.submit(small_spec())
            assert scheduler.wait_job(job_id, timeout=180) == "failed"
        finally:
            scheduler.stop(drain=True)
        job = scheduler.status(job_id)["job"]
        assert "WorkerCrash" in job["error"]
        assert job["stats"]["redispatched_shards"] == 1

    def test_unknown_job_and_bad_tenant(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        with pytest.raises(UnknownJob):
            scheduler.cancel("job-9999-missing")
        with pytest.raises(MixPBenchError):
            scheduler.submit(small_spec(), tenant="no/slashes")
        scheduler.stop(drain=False)

    def test_recovery_resumes_killed_jobs_trial_by_trial(self, data_env):
        """A SIGKILL'd service's ledger says `running`; the reopened
        scheduler re-enqueues the job and its finished shard is
        restored from the run journal instead of recomputed."""
        root = data_env / "svc"
        spec = small_spec(algorithms=("DD", "GA"))
        paths = state_paths(root)
        for name in ("cache", "runs", "jobs", "spool"):
            paths[name].mkdir(parents=True, exist_ok=True)

        # what the dead daemon left behind: an accepted job mid-run …
        record = JobRecord(job_id="job-0001-deadbeef", tenant="alice", spec=spec)
        with ServiceJournal(root) as journal:
            journal.append_submit(record, 1)
            journal.append_state(record.job_id, "running")
        # … whose first shard it had journaled to completion
        shards = spec.jobs()
        with RunJournal(paths["runs"], record.job_id, shards) as run_journal:
            run_shard(shards[0], journal=run_journal, key=job_key(0, shards[0]))

        scheduler = Scheduler(root, workers=1)
        assert scheduler.status(record.job_id)["job"]["state"] == "queued"
        scheduler.start()
        try:
            assert scheduler.wait_job(record.job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(record.job_id)["job"]["stats"]
        assert stats["shards_restored"] == 1
        assert stats["shards_done"] == 2

        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        served = json.loads(results_path(root, record.job_id).read_text())
        assert stripped(served) == stripped(direct)

    def test_recovery_finalizes_fully_journaled_job_without_workers(
        self, data_env
    ):
        """If every shard was journaled before the crash, only the
        terminal ledger transition was lost — recovery writes it (and
        results.json) without executing anything."""
        root = data_env / "svc"
        spec = small_spec()
        paths = state_paths(root)
        paths["runs"].mkdir(parents=True, exist_ok=True)
        record = JobRecord(job_id="job-0001-deadbeef", tenant="alice", spec=spec)
        with ServiceJournal(root) as journal:
            journal.append_submit(record, 1)
            journal.append_state(record.job_id, "running")
        shards = spec.jobs()
        with RunJournal(paths["runs"], record.job_id, shards) as run_journal:
            for index, shard in enumerate(shards):
                run_shard(shard, journal=run_journal, key=job_key(index, shard))

        scheduler = Scheduler(root)  # note: start() never called
        job = scheduler.status(record.job_id)["job"]
        scheduler.stop(drain=False)
        assert job["state"] == "done"
        assert job["stats"]["shards_restored"] == 1
        assert results_path(root, record.job_id).exists()

    def test_recovery_fails_job_whose_journal_is_refused(self, data_env):
        """A run journal written for a different grid (an older job
        schema changes the fingerprint) fails that job at start-up
        instead of crashing the daemon; other jobs keep running."""
        root = data_env / "svc"
        paths = state_paths(root)
        paths["runs"].mkdir(parents=True, exist_ok=True)
        stale = JobRecord(job_id="job-0001-deadbeef", tenant="alice",
                          spec=small_spec())
        healthy = JobRecord(job_id="job-0002-cafef00d", tenant="bob",
                            spec=small_spec())
        with ServiceJournal(root) as journal:
            journal.append_submit(stale, 1)
            journal.append_state(stale.job_id, "running")
            journal.append_submit(healthy, 2)
        # the stale job's journal header fingerprints another grid
        other_grid = small_spec(thresholds=(1e-4,)).jobs()
        RunJournal(paths["runs"], stale.job_id, other_grid).close()

        scheduler = Scheduler(root, workers=1)
        job = scheduler.status(stale.job_id)["job"]
        assert job["state"] == "failed"
        assert "refusing to resume" in job["error"]
        scheduler.start()
        try:
            assert scheduler.wait_job(healthy.job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        reopened = load_service_state(paths["journal"]).jobs[stale.job_id]
        assert reopened.state == "failed"


# ---------------------------------------------------------------------------
# Spool protocol + client


class TestSpoolAndClient:
    def _spool_submit(self, scheduler: Scheduler, payload: dict) -> dict:
        spool = scheduler.paths["spool"]
        (spool / "req-1.json").write_text(json.dumps(payload))
        assert scheduler.poll_spool() == 1
        return json.loads((spool / "req-1.ack.json").read_text())

    def test_spool_submission_acked(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        ack = self._spool_submit(
            scheduler,
            {"tenant": "alice", "spec": small_spec().to_json_dict()},
        )
        scheduler.stop(drain=False)
        assert ack["ok"]
        assert scheduler.status(ack["job_id"])["job"]["tenant"] == "alice"

    def test_spool_malformed_spec_rejected(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        ack = self._spool_submit(scheduler, {"tenant": "alice", "spec": {}})
        scheduler.stop(drain=False)
        assert not ack["ok"]
        assert "program" in ack["error"]

    def test_spool_cancel_request(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        job_id = scheduler.submit(small_spec())
        request_cancel(tmp_path / "svc", job_id)
        assert scheduler.poll_spool() == 1
        assert scheduler.status(job_id)["job"]["state"] == "cancelled"
        scheduler.stop(drain=False)

    def test_status_is_readable_without_a_daemon(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        job_id = scheduler.submit(small_spec())
        scheduler.stop(drain=False)
        snapshot = service_status(tmp_path / "svc")
        assert snapshot["serving_pid"] is None
        assert [job["job_id"] for job in snapshot["jobs"]] == [job_id]
        assert job_status(tmp_path / "svc", job_id)["state"] == "queued"
        with pytest.raises(ServiceError, match="no such job"):
            job_status(tmp_path / "svc", "job-9999-missing")

    def test_submit_request_times_out_without_daemon(self, tmp_path):
        with pytest.raises(ServiceError, match="serve"):
            submit_request(
                tmp_path / "svc", small_spec(), timeout=0.2, poll_seconds=0.05,
            )

    def test_serve_loop_end_to_end_in_process(self, data_env):
        """The daemon loop itself: spool ingestion, pid file, stop-file
        drain — driven through the real client functions."""
        root = data_env / "svc"
        scheduler = Scheduler(root, workers=1)
        server = threading.Thread(
            target=scheduler.serve,
            kwargs={"poll_seconds": 0.02, "idle_exit_seconds": 60.0},
            daemon=True,
        )
        server.start()
        try:
            job_id = submit_request(root, small_spec(), tenant="alice", timeout=30)
            assert service_status(root)["serving_pid"] is not None
            assert attach(root, job_id, timeout=180) == "done"
        finally:
            (root / "stop").touch()
            server.join(timeout=30)
        assert not server.is_alive()
        assert not (root / "serve.pid").exists()
        assert service_status(root)["serving_pid"] is None

    def test_attach_streams_progress_and_returns_state(self, data_env):
        root = data_env / "svc"
        scheduler = Scheduler(root, workers=1)
        scheduler.start()
        lines: list[str] = []
        try:
            job_id = scheduler.submit(small_spec())
            state = attach(root, job_id, stream=lines.append, timeout=180)
        finally:
            scheduler.stop(drain=True)
        assert state == "done"
        assert any(line.startswith("shard ") for line in lines)
        assert any("state: done" in line for line in lines)
        with pytest.raises(ServiceError, match="no such job"):
            attach(root, "job-9999-missing")
