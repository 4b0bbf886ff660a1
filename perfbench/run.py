"""The repository's benchmark: whole ``mixpbench`` runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  The workloads are defined in
``workloads.py`` and listed in ``BENCHMARK.json``, with the reasons they
were chosen.

``--trace 0`` runs the workload as real processes with tracing off, in a
closed loop, for about ``--seconds``: each round runs the CLI command (or
spawns the service daemon and drives it) and fresh set-up-only processes,
then checks the outputs.  It reports the medians of ``wall_s``, ``setup_s``,
``job_s`` and ``peak_rss_mb``.

``--trace 1`` runs the workload in-process (``inproc.py``) with the layer
proxies of ``layers.py`` off and on, alternately, and reports the
per-layer figures of the traced passes, whose spans it writes to
``.perfbench/spans-WORKLOAD.jsonl``; the CLI workloads also run the real
command once, so that the in-process run is checked to reproduce it.

Output checks: every final configuration is verified again by a fresh,
unscreened evaluator against the all-double output; every round must give
the same outcomes and the same exact counts, also across invocations of
the same code and seed (``.perfbench/ledger.json``); and, once per
invocation of the service workload, every job's results must equal those
of a direct ``mixpbench grid`` of its spec, ``eval_stats`` aside.  A
failed check fails its search or job, and the command exits non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
#: environment switches that would move the runs off the defaults users get
FUSE_VARS = ("MIXPBENCH_FUSE", "MIXPBENCH_FUSE_CACHE", "MIXPBENCH_FUSE_NUMBA")
#: the whole run must end within 180 s: no child outlives this budget,
#: and no round starts that would not fit in it
BUDGET_SECONDS = 160.0
STARTED = time.perf_counter()
MIN_ROUNDS = 3
SETUP_SECONDS = 1.0
#: counts that depend on how the service's tenants race for the shared cache
RACY_SERVICE_COUNTS = ("executions", "journal_appends")
EXACT_COUNTS = ("evaluations", "executions", "compile_errors", "screened",
                "batches", "journal_appends", "ops_per_trial", "bytes_per_trial")


class Failures:
    """Searches or jobs attempted, and the reasons any of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, units: int, problems: list[str]) -> None:
        """``units`` more searches or jobs, all failed if any problem."""
        self.attempted += units
        self.fail(units, problems)

    def fail(self, units: int, problems: list[str]) -> None:
        """A later check failed ``units`` of the searches or jobs recorded."""
        if problems:
            self.failed = min(self.failed + units, self.attempted)
            self.reasons += problems


# -- processes ---------------------------------------------------------------

def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in FUSE_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    env["MIXPBENCH_DATA"] = str(work / "data")
    env["TMPDIR"] = str(work / "tmp")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], env: dict, log: Path) -> subprocess.Popen:
    with log.open("w") as out:
        return subprocess.Popen(
            [sys.executable, *args], env=env, cwd=ROOT, stdout=out,
            stderr=subprocess.STDOUT, start_new_session=True,
        )


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing its process group after ``timeout``);
    returns its exit code and its own peak RSS in MB, which includes the
    children it waited for, such as pool workers."""
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def remaining() -> float:
    return BUDGET_SECONDS - (time.perf_counter() - STARTED)


def run_child(args: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """One child from spawn to exit: (wall seconds, peak RSS MB, exit code)."""
    started = time.perf_counter()
    proc = spawn(args, env, log)
    code, rss = reap(proc, max(1.0, remaining()))
    return time.perf_counter() - started, rss, code


def tail(log: Path, lines: int = 5) -> str:
    try:
        return " | ".join(log.read_text().strip().splitlines()[-lines:])
    except OSError:
        return ""


# -- output checks -----------------------------------------------------------

class Verifier:
    """Re-verifies final configurations with a fresh, unscreened evaluator
    against the all-double output, once per distinct configuration."""

    def __init__(self) -> None:
        self._seen: dict[str, str | None] = {}

    def problem(self, outcome: dict) -> str | None:
        label = f"{outcome['program']}/{outcome['strategy']}@{outcome['threshold']:g}"
        if outcome["timed_out"]:
            return f"{label}: timed out"
        final = outcome["final"]
        if final is None:
            return None
        key = json.dumps([outcome["program"], outcome["threshold"], final],
                         sort_keys=True)
        if key not in self._seen:
            self._seen[key] = self._verify(label, outcome, final)
        return self._seen[key]

    @staticmethod
    def _verify(label: str, outcome: dict, final: dict) -> str | None:
        from repro.benchmarks.base import get_benchmark
        from repro.core.evaluator import ConfigurationEvaluator
        from repro.core.types import PrecisionConfig
        from repro.verify.quality import QualitySpec

        bench = get_benchmark(outcome["program"])
        evaluator = ConfigurationEvaluator(
            bench, quality=QualitySpec(bench.metric, outcome["threshold"]),
        )
        record = evaluator.evaluate(PrecisionConfig.from_json_dict(final["config"]))
        if not record.passed:
            return f"{label}: final configuration fails re-verification"
        if record.error_value != float(final["error_value"]):
            return (f"{label}: re-verified error {record.error_value!r} differs "
                    f"from the reported {final['error_value']!r}")
        return None


class Ledger:
    """Outcomes and exact counts of earlier runs of the same code and seed."""

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def reference(self) -> dict | None:
        return self.entries.get(self.key)

    def store(self, value: dict) -> None:
        self.entries[self.key] = value
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        tmp.replace(self.path)


def compare(reference: dict, observed: dict, what: str) -> list[str]:
    if reference["outcomes"] != observed["outcomes"]:
        return [f"{what}: outcomes differ from an earlier run of the same code"]
    diffs = [
        f"{name} {reference['counts'][name]} != {observed['counts'][name]}"
        for name in reference["counts"]
        if reference["counts"][name] != observed["counts"].get(name)
    ]
    return [f"{what}: exact counts differ ({', '.join(diffs)})"] if diffs else []


def code_digest() -> str:
    """Digest of the program and benchmark sources ("the same code")."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    commit = "unknown"
    try:
        # the checkout itself may not be a repository: never look above it
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "code": code_digest(),
    }


# -- end-to-end runs ---------------------------------------------------------

def run_command(w, seed: int, out: Path, env: dict) -> tuple[float, float, dict]:
    """One run of the workload's ``mixpbench`` command: its wall time from
    process start to exit, its peak RSS, and the outcomes it wrote."""
    out.mkdir(parents=True)
    args = [str(HERE / "launch.py"), str(seed), *w.cli_args(),
            "--output-dir", str(out / "cli")]
    if w.grid:
        args += ["--run-id", "bench"]
    else:
        args += ["--save", str(out / "outcome.json")]
    wall, rss, code = run_child(args, env, out / "cli.log")
    problems = []
    outcomes, journal_appends = [], 0
    if code != 0:
        problems.append(f"mixpbench exited {code}: {tail(out / 'cli.log')}")
    elif w.grid:
        results = json.loads((out / "cli" / "runs" / "bench" / "results.json").read_text())
        outcomes = [r["outcome"] for r in results if r["outcome"]]
        problems += [f"grid job failed: {r['error_kind']}"
                     for r in results if not r["outcome"]]
        journal = out / "cli" / "runs" / "bench" / "journal.jsonl"
        journal_appends = len(journal.read_text().splitlines())
    else:
        outcomes = [json.loads((out / "outcome.json").read_text())]
    from inproc import eval_counts, outcome_signature

    counts = eval_counts(outcomes)
    if w.grid:
        counts["journal_appends"] = journal_appends
    observed = {"outcomes": [outcome_signature(o) for o in outcomes],
                "counts": counts, "raw": outcomes, "problems": problems}
    return wall, rss, observed


def cli_round(w, seed: int, out: Path, env: dict) -> tuple[dict, dict]:
    """The command once, then fresh set-up-only processes; short set-ups
    are sampled more than once, so that each round spends about
    ``SETUP_SECONDS`` on them."""
    wall, rss, observed = run_command(w, seed, out, env)
    sample = {"wall_s": [wall], "job_s": [wall], "setup_s": [], "peak_rss_mb": [rss]}
    while sum(sample["setup_s"]) < SETUP_SECONDS:
        probe = out / f"setup{len(sample['setup_s'])}"
        setup, _, code = run_child(
            [str(HERE / "inproc.py"), "setup", str(seed), w.name, str(probe)],
            env, probe.with_suffix(".log"),
        )
        if code != 0:
            observed["problems"].append(
                f"set-up process exited {code}: {tail(probe.with_suffix('.log'))}"
            )
            break
        sample["setup_s"].append(setup)
    return sample, observed


def service_round(w, seed: int, out: Path, env: dict) -> tuple[dict, dict]:
    """Spawn a fresh daemon, drive the tenants' closed loop through the
    spool, then stop the daemon."""
    from inproc import closed_loop, eval_counts, outcome_signature
    from repro.service import job_status, results_path, submit_request

    out.mkdir(parents=True)
    state = out / "state"
    spawned = time.perf_counter()
    daemon = spawn(
        [str(HERE / "launch.py"), str(seed), "serve", "--state-dir", str(state),
         "--service-workers", "2"],
        env, out / "daemon.log",
    )
    problems = []
    jobs = []
    setup = []
    try:
        pid_file = state / "serve.pid"
        while not pid_file.exists():
            if daemon.poll() is not None or time.perf_counter() - spawned > 60:
                raise RuntimeError(f"daemon did not start: {tail(out / 'daemon.log')}")
            time.sleep(0.002)
        setup.append(time.perf_counter() - spawned)
        jobs = closed_loop(
            w.tenants,
            lambda sub: submit_request(state, sub.spec(), tenant=sub.tenant),
            lambda job_id: job_status(state, job_id)["state"],
            timeout=max(1.0, remaining()),
        )
    except (RuntimeError, TimeoutError, OSError) as error:
        problems.append(f"service: {error}")
    finally:
        (state / "stop").parent.mkdir(parents=True, exist_ok=True)
        (state / "stop").touch()
        code, rss = reap(daemon, max(1.0, remaining()))
    if code != 0:
        problems.append(f"daemon exited {code}: {tail(out / 'daemon.log')}")
    outcomes, payloads, hits = [], {}, []
    for sub, job_id, job_state, _, _ in jobs:
        if job_state != "done":
            problems.append(f"{sub.tenant} job {job_id}: {job_state}")
            continue
        payload = json.loads(results_path(state, job_id).read_text())
        payloads[(sub.tenant, sub.programs, sub.algorithms)] = payload
        outcomes += [r["outcome"] for r in payload]
        hits.append((w.is_later(sub),
                     job_status(state, job_id)["stats"].get("persistent_hits", 0)))
    sample = {"setup_s": setup, "peak_rss_mb": [rss], "wall_s": [], "job_s": []}
    if jobs:
        sample["wall_s"].append(max(j[4] for j in jobs) - min(j[3] for j in jobs))
        sample["job_s"].append(statistics.median(j[4] - j[3] for j in jobs))
    counts = eval_counts(outcomes)
    counts.pop("executions")  # fresh or replayed depends on the cache race
    observed = {"outcomes": [outcome_signature(o) for o in outcomes],
                "counts": counts, "raw": outcomes, "problems": problems,
                "payloads": payloads,
                "first_job_hits": [h for later, h in hits if not later],
                "later_job_hits": [h for later, h in hits if later]}
    return sample, observed


def strip_eval_stats(payload: list) -> str:
    for result in payload:
        if result.get("outcome"):
            result["outcome"]["metadata"].pop("eval_stats", None)
    return json.dumps(payload, indent=2, sort_keys=True)


def service_equals_grid(w, seed: int, observed: dict, out: Path, env: dict) -> list[str]:
    """Each job's results, ``eval_stats`` aside, against a direct grid."""
    problems = []
    for subs in w.tenants:
        for sub in subs:
            key = (sub.tenant, sub.programs, sub.algorithms)
            if key not in observed["payloads"]:
                continue
            grid_out = out / "-".join(("grid", sub.tenant, *sub.programs, *sub.algorithms))
            _, _, code = run_child(
                [str(HERE / "launch.py"), str(seed), *sub.grid_args(),
                 "--output-dir", str(grid_out), "--run-id", "direct"],
                env, out / f"{grid_out.name}.log",
            )
            label = f"{sub.tenant} {' '.join(sub.grid_args()[1:])}"
            if code != 0:
                problems.append(f"{label}: direct grid exited {code}")
                continue
            direct = json.loads((grid_out / "runs" / "direct" / "results.json").read_text())
            if strip_eval_stats(direct) != strip_eval_stats(observed["payloads"][key]):
                problems.append(f"{label}: service results differ from a direct grid")
    return problems


def run_end_to_end(w, seed: int, seconds: float, work: Path, env: dict,
                   ledger: Ledger, failures: Failures) -> tuple[dict, dict]:
    verifier = Verifier()
    samples: dict[str, list[float]] = {}
    extra: dict = {"rounds": 0}
    reference = ledger.reference()
    stored_before = reference is not None
    first = None
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        out = work / f"round{extra['rounds']}"
        if w.service:
            sample, observed = service_round(w, seed, out, env)
        else:
            sample, observed = cli_round(w, seed, out, env)
        problems = list(observed["problems"])
        problems += [p for p in map(verifier.problem, observed["raw"]) if p]
        stored = {"outcomes": observed["outcomes"], "counts": observed["counts"]}
        if reference is not None:
            problems += compare(reference, stored, f"round {extra['rounds']}")
        elif not problems:
            reference = stored
        if w.service and first is None and not problems:
            first = (observed, out)
        if w.service:
            extra.setdefault("first_job_hits", []).append(observed["first_job_hits"])
            extra.setdefault("later_job_hits", []).append(observed["later_job_hits"])
        failures.record(w.units, problems)
        for name, values in sample.items():
            samples.setdefault(name, []).extend(values)
        extra["rounds"] += 1
        elapsed = time.perf_counter() - started
        per_round = time.perf_counter() - round_started
        if extra["rounds"] >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
        if per_round > remaining():
            break
    if w.service and first is not None:
        # outside the measured time: the checked jobs ran in the first clean round
        failures.fail(w.units, service_equals_grid(w, seed, *first, env))
    if not stored_before and reference is not None and not failures.failed:
        ledger.store(reference)
    extra["samples"] = samples
    medians = {name: statistics.median(values)
               for name, values in samples.items() if values}
    return medians, extra


# -- traced runs -------------------------------------------------------------

PREDICTIONS = {
    "lavamd-hr": lambda m: [
        ("execute_s > half the traced wall time",
         m["execute_s"] > 0.5 * m["traced_wall_s"]),
        ("shadow_s and certify_s are 0", m["shadow_s"] == 0 and m["certify_s"] == 0),
    ],
    "guided-grid": lambda m: [
        ("shadow_s + certify_s > half the traced wall time",
         m["shadow_s"] + m["certify_s"] > 0.5 * m["traced_wall_s"]),
    ],
    "lavamd-ga-process": lambda m: [
        ("dispatch_s covers most of strategy.run", m["dispatch_s"] > 0.5 * m["strategy_s"]),
    ],
    "service-two-tenant": lambda m: [
        ("later jobs hit the shared cache", m["later_job_hits"] > 0),
    ],
}


def run_traced(w, seed: int, seconds: float, work: Path, env: dict,
               ledger: Ledger, failures: Failures) -> tuple[dict, dict]:
    started = time.perf_counter()
    expected = None
    if not w.service:
        # the in-process run must reproduce what the real command returns
        _, _, observed = run_command(w, seed, work / "reference", env)
        expected = observed["outcomes"]
        failures.record(w.units, observed["problems"] + [
            p for p in map(Verifier().problem, observed["raw"]) if p
        ])
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    layer_samples: list[dict] = []
    passes = 0
    while True:
        for mode in ("plain", "traced"):
            out = work / f"{mode}{passes}"
            out.mkdir(parents=True)
            args = [str(HERE / "inproc.py"), mode, str(seed), w.name, str(out)]
            if mode == "traced":
                args.append(str(STATE / f"spans-{w.name}.jsonl"))
            wall, _, code = run_child(args, env, out / "inproc.log")
            pass_problems = []
            if code != 0:
                pass_problems.append(
                    f"{mode} in-process run exited {code}: {tail(out / 'inproc.log')}"
                )
            else:
                result = json.loads((out / "inproc.log").read_text().splitlines()[-1])
                walls[mode].append(wall)
                if expected is None:
                    expected = result["outcomes"]
                elif result["outcomes"] != expected:
                    pass_problems.append(f"{mode} in-process outcomes differ from the command's")
                pass_problems += [f"{mode} in-process run: job {s}" for s in result["job_states"]
                                  if s != "done"]
                if mode == "traced":
                    layer_samples.append(result["layers"])
            failures.record(w.units, pass_problems)
        passes += 1
        elapsed = time.perf_counter() - started
        if walls["traced"] and elapsed * (passes + 1) / passes > seconds:
            break
        if passes >= 8 or not walls["traced"] and passes >= 2:
            break
        if elapsed / passes > remaining():
            break
    if not layer_samples:
        return {}, {}
    exact = [c for c in EXACT_COUNTS
             if not (w.service and c in RACY_SERVICE_COUNTS)]
    counts = {c: layer_samples[0][c] for c in exact}
    count_problems = [
        f"traced pass {i}: {c} {s[c]} != {counts[c]}"
        for i, s in enumerate(layer_samples) for c in exact if s[c] != counts[c]
    ]
    stored = {"outcomes": expected, "counts": counts}
    reference = ledger.reference()
    if reference is not None:
        count_problems += compare(reference, stored, "traced run")
    elif not count_problems and not failures.failed:
        ledger.store(stored)
    failures.fail(w.units, count_problems)
    metrics = {
        name: statistics.median(s[name] for s in layer_samples)
        for name in layer_samples[0]
    }
    metrics["traced_wall_s"] = statistics.median(walls["traced"])
    metrics["trace_overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["plain"]))
    return metrics, {"passes": passes, "walls": walls, "layer_samples": layer_samples}


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the process group it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "harness" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    work = STATE / f"run-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work)
    # this process re-verifies outputs in-process: same inputs as the children
    for name in FUSE_VARS:
        os.environ.pop(name, None)
    os.environ["MIXPBENCH_DATA"] = env["MIXPBENCH_DATA"]
    os.environ["TMPDIR"] = env["TMPDIR"]
    from repro.benchmarks.base import Benchmark

    Benchmark.seed = seed
    # compile every module up front, so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False)

    info = environment()
    mode = "trace" if args.trace else "end-to-end"
    ledger = Ledger(STATE / "ledger.json", f"{info['code']}:{w.name}:{seed}:{mode}")
    failures = Failures()
    try:
        if args.trace:
            values, extra = run_traced(w, seed, seconds, work, env, ledger, failures)
            declared = spec["per_layer"]
        else:
            values, extra = run_end_to_end(w, seed, seconds, work, env, ledger, failures)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = failures.failed / max(failures.attempted, 1)
    print(f"perfbench {w.name} seed={seed} {mode}: nproc={info['nproc']} "
          f"python={info['python']} numpy={info['numpy']} commit={info['commit']} "
          f"code={info['code']}")
    for reason in failures.reasons:
        print(f"  FAILED: {reason}")
    metrics = {}
    for entry in declared:
        value = values.get(entry["name"])
        if value is None:
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:18s} {value:.6g} {entry['unit']}")
    print(f"  {'failed_ratio':18s} {failed_ratio:.6g} fraction "
          f"({failures.failed} of {failures.attempted} searches/jobs)")
    if args.trace and values:
        checks = PREDICTIONS[w.name](values)
        for text, held in checks:
            print(f"  prediction: {text}: {'holds' if held else 'DOES NOT HOLD'}")
    if w.service and not args.trace:
        print(f"  shared_cache_hits first jobs {extra.get('first_job_hits')} "
              f"later jobs {extra.get('later_job_hits')}")
    correct = failures.failed == 0 and len(metrics) == len(declared)
    result = {"correct": correct, "attempted": failures.attempted,
              "failed": failures.failed, "metrics": metrics}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{w.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": info, "result": result, "failed_ratio": failed_ratio,
                    "failures": failures.reasons, "detail": extra},
                   indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
