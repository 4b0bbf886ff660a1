"""The workload run in-process, in a fresh process started by ``run.py``.

    python3 perfbench/inproc.py MODE SEED WORKLOAD WORKDIR [SPANS.jsonl]

MODE is one of

* ``setup``  -- only the set-up a CLI workload performs before its search:
  import ``repro.harness.cli``, then for every program ``get_benchmark``,
  ``Benchmark.inputs`` and ``Benchmark.report``, the ``prune_report``,
  ``shadow_guidance`` and ``certify_benchmark`` calls the workload's flags
  ask for, and last the ``ConfigurationEvaluator`` constructor, which runs
  the all-double baseline;
* ``plain``  -- the whole workload through the same public calls the CLI
  (or, for the service, the daemon) makes, with no proxies;
* ``traced`` -- the same, with the layer proxies of ``layers.py`` passed in
  and a span around each call.

The last line of standard output is one JSON object: the outcome of every
search (for the output checks) and, when traced, the per-layer figures.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


def outcome_signature(outcome: dict) -> dict:
    """What must repeat exactly across runs of one search."""
    final = outcome.get("final")
    return {
        "program": outcome["program"],
        "strategy": outcome["strategy"],
        "threshold": outcome["threshold"],
        "timed_out": outcome["timed_out"],
        "evaluations": outcome["evaluations"],
        "final": None if final is None else {
            "config": final["config"],
            "status": final["status"],
            "error_value": final["error_value"],
        },
    }


def eval_counts(outcomes: list[dict]) -> dict:
    """Exact counts summed from the outcomes' ``eval_stats``."""
    totals = {"evaluations": 0, "executions": 0, "compile_errors": 0,
              "screened": 0, "batches": 0}
    for outcome in outcomes:
        stats = outcome.get("metadata", {}).get("eval_stats", {})
        totals["evaluations"] += stats.get("evaluations", 0)
        # with a fresh cache every compile error is a fresh evaluation
        totals["executions"] += (stats.get("fresh_evaluations", 0)
                                 - stats.get("compile_errors", 0))
        totals["compile_errors"] += stats.get("compile_errors", 0)
        totals["screened"] += stats.get("screened", 0)
        totals["batches"] += stats.get("batches", 0)
    return totals


def closed_loop(tenants, submit, state_of, timeout: float, poll: float = 0.02):
    """Each tenant submits its next job only after its previous one ended.

    Returns one ``(submission, job_id, state, submitted, ended)`` tuple per
    job, tenant by tenant in submission order, times from
    ``time.perf_counter``.
    """
    from repro.service import TERMINAL_STATES

    pending = [list(subs) for subs in tenants]
    live: dict[int, tuple] = {}
    finished = []

    def submit_next(index: int) -> None:
        sub = pending[index].pop(0)
        submitted = time.perf_counter()
        live[index] = (sub, submit(sub), submitted)

    for index in range(len(pending)):
        submit_next(index)
    deadline = time.perf_counter() + timeout
    while live:
        if time.perf_counter() > deadline:
            raise TimeoutError(f"service jobs still live after {timeout:g}s")
        for index, (sub, job_id, submitted) in list(live.items()):
            state = state_of(job_id)
            if state not in TERMINAL_STATES:
                continue
            finished.append((sub, job_id, state, submitted, time.perf_counter()))
            del live[index]
            if pending[index]:
                submit_next(index)
        time.sleep(poll)
    order = [sub for subs in tenants for sub in subs]
    return sorted(finished, key=lambda job: order.index(job[0]))


def _prepare(program, s, traced, cache_dir, journal=None, key=None):
    """The evaluator ``mixpbench search``/``grid`` builds for one program,
    through the same public calls in the same order."""
    from repro.benchmarks.base import get_benchmark
    from repro.core.batch import make_executor
    from repro.core.checkpoint import JournalTrialStore
    from repro.core.evaluator import ConfigurationEvaluator
    from repro.runtime.cache import EvaluationCache
    from repro.runtime.machine import DEFAULT_MACHINE
    from repro.verify.quality import QualitySpec

    import layers
    from layers import span

    with span("inputs", traced):
        bench = get_benchmark(
            program, machine=layers.timed_machine() if traced else DEFAULT_MACHINE,
        )
        bench.inputs()
    with span("typeforge", traced):
        report = bench.report()
    space_override = prune_info = None
    if s.prune:
        from repro.typeforge.prune import prune_report

        with span("prune", traced):
            pruned = prune_report(report)
        space_override = pruned.space
        prune_info = pruned.stats(report.search_space())
    location_order = shadow_info = None
    if s.shadow:
        from repro.shadow import shadow_guidance

        with span("shadow", traced):
            location_order, shadow_info = shadow_guidance(bench)
    certificate = screen_info = None
    if s.screen:
        from repro.typeforge.errorbound import certify_benchmark

        with span("certify", traced):
            _, certificate = certify_benchmark(bench)
        screen_info = certificate.info()
    threshold = s.threshold if s.threshold is not None else bench.default_threshold
    quality = (layers.TimedQuality if traced else QualitySpec)(bench.metric, threshold)
    executor = make_executor(s.executor, s.workers)
    if traced:
        executor = layers.TimedExecutor(executor)
    cache = (layers.TimedCache if traced else EvaluationCache)(cache_dir)
    if journal is not None:
        cache = JournalTrialStore(journal, key, None, inner=cache)
    try:
        with span("evaluator_init", traced):
            evaluator = ConfigurationEvaluator(
                layers.ProgramProxy(bench) if traced else bench,
                quality=quality, executor=executor, cache=cache,
                space_override=space_override, prune_info=prune_info,
                location_order=location_order, shadow_info=shadow_info,
                screen=certificate, screen_info=screen_info,
            )
    except BaseException:
        executor.close()
        raise
    return evaluator, executor


def run_cli_workload(w, mode: str, workdir: Path) -> list[dict]:
    """``mixpbench search`` or ``mixpbench grid`` (serial, journaled)."""
    from repro.core.checkpoint import RunJournal, job_key
    from repro.harness.scheduler import JobResult, grid_jobs
    from repro.search.registry import make_strategy, strategy_kwargs

    import layers
    from layers import span

    s = w.search
    traced = mode == "traced"
    cache_dir = workdir / "cache"
    jobs = journal = None
    if w.grid and mode != "setup":
        jobs = grid_jobs(
            s.programs, [s.algorithm], [s.threshold], cache_dir=cache_dir,
            prune=s.prune, shadow=s.shadow, screen=s.screen,
        )
        journal = (layers.TimedJournal if traced else RunJournal)(
            workdir / "runs", "bench", jobs,
        )
    outcomes = []
    try:
        for index, program in enumerate(s.programs):
            key = job_key(index, jobs[index]) if journal is not None else None
            evaluator, executor = _prepare(program, s, traced, cache_dir, journal, key)
            try:
                if mode == "setup":
                    continue
                strategy = make_strategy(
                    s.algorithm, **strategy_kwargs(s.algorithm, rounding="nearest"),
                )
                with span("strategy", traced):
                    outcome = strategy.run(evaluator)
            finally:
                executor.close()
            if journal is not None:
                journal.append_job_done(
                    key, JobResult(job=jobs[index], outcome=outcome).to_json_dict(),
                )
            outcomes.append(outcome.to_json_dict())
    finally:
        if journal is not None:
            journal.close()
    return outcomes


def run_service_workload(w, mode: str, workdir: Path) -> tuple[list[dict], dict]:
    """The daemon's scheduler in-process: the same closed loop of
    submissions through ``Scheduler.submit``, two worker threads."""
    import repro.service.scheduler as service_scheduler
    from repro.service import Scheduler, SchedulerHooks, results_path

    import layers

    traced = mode == "traced"
    submitted: dict[str, float] = {}
    # a shard can start before submit() returns its job id to this thread,
    # so queue waits are worked out once every job has ended
    started: dict[tuple[str, str], float] = {}
    shards: list[float] = []

    def shard_started(job_id, key):
        started[(job_id, key)] = time.perf_counter()

    def shard_finished(job_id, key, result):
        shards.append(time.perf_counter() - started[(job_id, key)])

    hooks = None
    if traced:
        # the scheduler opens each job's run journal itself
        service_scheduler.RunJournal = layers.TimedJournal
        hooks = SchedulerHooks(shard_started, shard_finished)
    scheduler = Scheduler(workdir / "state", workers=2, hooks=hooks)
    if traced:
        scheduler.cache = layers.TimedCache(scheduler.paths["cache"])

    def submit(sub):
        submitting = time.perf_counter()
        with layers.span("submit", traced):
            job_id = scheduler.submit(sub.spec(), sub.tenant)
        submitted[job_id] = submitting
        return job_id

    scheduler.start()
    try:
        jobs = closed_loop(
            w.tenants, submit,
            lambda job_id: scheduler.status(job_id)["job"]["state"],
            timeout=150.0,
        )
    finally:
        scheduler.stop(drain=True, timeout=60.0)
    outcomes = []
    hits = []
    later_hits = 0
    for sub, job_id, state, _, _ in jobs:
        stats = scheduler.status(job_id)["job"]["stats"]
        hits.append(stats.get("persistent_hits", 0))
        if w.is_later(sub):
            later_hits += hits[-1]
        if state == "done":
            payload = json.loads(results_path(workdir / "state", job_id).read_text())
            outcomes += [r["outcome"] for r in payload if r["outcome"]]
    service = {
        "queue_wait_s": sum(t - submitted[job_id] for (job_id, _), t in started.items()),
        "shard_s": sum(shards),
        "shared_cache_hits": sum(hits),
        "later_job_hits": later_hits,
        "job_states": [state for _, _, state, _, _ in jobs],
    }
    return outcomes, service


def layer_metrics(outcomes: list[dict], import_s: float, service: dict) -> dict:
    """Per-layer figures from the recorder (see BENCHMARK.json ``per_layer``)."""
    from layers import RECORDER as r

    counts = eval_counts(outcomes)
    memory_hits = sum(
        o.get("metadata", {}).get("eval_stats", {}).get("memory_hits", 0)
        for o in outcomes
    )
    execute = r.durations.get("execute", [])
    trials = r.counts["profiled_trials"]
    gets = r.counts["cache_gets"]
    return {
        "import_s": import_s,
        "inputs_s": r.seconds("inputs"),
        "typeforge_s": r.seconds("typeforge"),
        "prune_s": r.seconds("prune"),
        "certify_s": r.seconds("certify"),
        "shadow_s": r.seconds("shadow"),
        "evaluator_init_s": r.seconds("evaluator_init"),
        "evaluations": counts["evaluations"],
        "executions": r.counts["executions"],
        "compile_errors": counts["compile_errors"],
        "screened": counts["screened"],
        "memory_hits": memory_hits,
        "executed_ratio": (r.counts["executions"] / counts["evaluations"]
                           if counts["evaluations"] else 0.0),
        "execute_s": r.seconds("execute"),
        "execute_ms": statistics.median(execute) / 1e6 if execute else 0.0,
        "machine_s": r.seconds("machine"),
        "ops_per_trial": r.counts["ops"] / trials if trials else 0.0,
        "bytes_per_trial": r.counts["bytes"] / trials if trials else 0.0,
        "verify_s": r.seconds("verify"),
        "cache_get_s": r.seconds("cache_get"),
        "cache_put_s": r.seconds("cache_put"),
        "cache_gets": gets,
        "cache_puts": r.counts["cache_puts"],
        "cache_hit_ratio": r.counts["cache_hits"] / gets if gets else 0.0,
        "journal_s": r.seconds("journal"),
        "journal_appends": r.counts["journal_appends"],
        "dispatch_s": r.seconds("dispatch"),
        "batches": r.counts["batches"],
        "batched_configs": r.counts["batched_configs"],
        "strategy_s": r.seconds("strategy"),
        "strategy_self_s": r.self_seconds("strategy"),
        "submit_s": r.seconds("submit"),
        "queue_wait_s": service.get("queue_wait_s", 0.0),
        "shard_s": service.get("shard_s", 0.0),
        "shared_cache_hits": service.get("shared_cache_hits", 0),
        "later_job_hits": service.get("later_job_hits", 0),
    }


def main(argv: list[str]) -> int:
    mode, seed, name, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    begun = time.perf_counter()
    import repro.harness.cli  # noqa: F401 — the CLI's own start-up imports
    import_s = time.perf_counter() - begun

    from repro.benchmarks.base import Benchmark

    Benchmark.seed = seed
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    service: dict = {}
    if w.service:
        outcomes, service = run_service_workload(w, mode, workdir)
    else:
        outcomes = run_cli_workload(w, mode, workdir)
    payload = {
        "outcomes": [outcome_signature(o) for o in outcomes],
        "job_states": service.get("job_states", []),
    }
    if mode == "traced":
        from layers import RECORDER

        payload["layers"] = layer_metrics(outcomes, import_s, service)
        if spans_path is not None:
            with spans_path.open("w") as handle:
                for span_name, start, end, parent in RECORDER.spans:
                    handle.write(json.dumps({
                        "name": span_name, "start_ns": start, "end_ns": end,
                        "parent": parent,
                    }) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
