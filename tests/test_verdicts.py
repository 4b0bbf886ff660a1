"""Trials are verified where they run: executors ship verdicts, not outputs.

The contracts under test, on real suite benchmarks:

* a process-pool search (2 workers) and a serial one give bitwise-equal
  trial logs on lavamd, whose output is 900k doubles;
* after ``prefetch`` the evaluator stages only small verdicts, and a
  worker's reply carries no array;
* the all-double baseline runs once per process per program, however
  many evaluators share it, and a forked worker that lacks it computes
  it once;
* ``Benchmark.baseline`` is the plain all-double execution, bit for bit;
* hpccg's results do not depend on the BLAS thread count of the host.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks.base import Benchmark, get_benchmark
from repro.core import batch
from repro.core.batch import ExecutionFailure, Verdict, make_executor
from repro.core.evaluator import ConfigurationEvaluator, TimingMode
from repro.core.results import EvaluationStatus
from repro.core.types import PrecisionConfig
from repro.search.registry import make_strategy
from repro.verify.quality import QualitySpec

REPO_ROOT = Path(__file__).parent.parent


def trial_log(evaluator):
    """Everything observable about a trial log, as exact bits."""
    return [
        (t.index, t.config.digest(), t.status, repr(t.error_value),
         repr(t.speedup), repr(t.modeled_seconds), repr(t.analysis_seconds))
        for t in evaluator.trials
    ]


def ga_generation(executor_name, program="lavamd", evaluations=6):
    """One GA generation (population 6) on ``program``."""
    bench = get_benchmark(program)
    with make_executor(executor_name, 2) as executor:
        evaluator = ConfigurationEvaluator(
            bench, executor=executor, max_evaluations=evaluations,
        )
        make_strategy("GA").run(evaluator)
    return evaluator


@pytest.fixture()
def baseline_runs(monkeypatch, data_env):
    """Log every all-double execution as ``pid program`` lines in a file
    (forked pool workers inherit the patch and append to the same file),
    in a fresh data dir so every baseline memo starts cold."""
    log = data_env / "baselines.log"
    real = Benchmark.execute

    def counting(self, config, inputs=None):
        if config == PrecisionConfig() and inputs is None:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {self.name}\n")
        return real(self, config, inputs)

    monkeypatch.setattr(Benchmark, "execute", counting)

    def runs() -> Counter:
        if not log.exists():
            return Counter()
        return Counter(tuple(line.split()) for line in log.read_text().splitlines())

    return runs


class TestLavamdParity:
    def test_process_trial_log_equals_serial(self, data_env):
        serial = ga_generation("serial")
        process = ga_generation("process")
        assert trial_log(process) == trial_log(serial)
        statuses = {t.status for t in serial.trials}
        # the generation holds configurations that fail the MAE
        # threshold as well as ones that pass
        assert EvaluationStatus.FAILED_QUALITY in statuses
        assert EvaluationStatus.PASSED in statuses
        assert serial.quality.metric == "MAE"

    def test_prefetch_stages_verdicts_only(self, data_env):
        bench = get_benchmark("lavamd")
        with make_executor("process", 2) as executor:
            evaluator = ConfigurationEvaluator(bench, executor=executor)
            space = evaluator.space()
            configs = [space.lower(loc) for loc in space.locations()[:4]]
            assert evaluator.prefetch(configs) == len(configs)
        staged = list(evaluator._staged.values())
        assert len(staged) == len(configs)
        for verdict in staged:
            assert isinstance(verdict, (Verdict, ExecutionFailure))
            assert not isinstance(verdict, np.ndarray)
            if isinstance(verdict, Verdict):
                assert not any(isinstance(field, np.ndarray) for field in verdict)

    def test_worker_reply_is_a_few_bytes(self, data_env, monkeypatch):
        # run the worker function in this process, without leaving its
        # warm benchmark behind for pools forked by later tests
        monkeypatch.setattr(batch, "_WORKER_BENCHMARKS", {})
        bench = get_benchmark("lavamd")
        config = bench.search_space().uniform_config("single")
        reply = batch._execute_work_item((
            "lavamd", bench.machine, QualitySpec("MAE", 1e-6),
            config.to_json_dict(), None,
        ))
        assert reply[0] == "ok"
        assert not any(isinstance(field, np.ndarray) for field in reply)
        assert len(pickle.dumps(reply)) < 100
        # the same verification the evaluator would have done in-line
        baseline = bench.execute(PrecisionConfig()).output
        result = QualitySpec("MAE", 1e-6).check(baseline, bench.execute(config).output)
        assert reply[1:3] == (result.value, result.passed)


class TestBaselineMemo:
    def test_memo_is_the_plain_execution(self, data_env):
        bench = get_benchmark("lavamd")
        memo = bench.baseline()
        plain = bench.execute(PrecisionConfig())
        assert memo.output.tobytes() == plain.output.tobytes()
        assert memo.modeled_seconds == plain.modeled_seconds
        assert not memo.output.flags.writeable
        # another instance of the program reads the same memo
        assert get_benchmark("lavamd").baseline().output is memo.output

    def test_once_per_process_across_evaluators_and_workers(self, baseline_runs):
        lavamd = get_benchmark("lavamd")
        with make_executor("process", 2) as executor:
            for threshold in (1e-6, 1e-3):  # two evaluators, one executor
                evaluator = ConfigurationEvaluator(
                    lavamd, quality=QualitySpec("MAE", threshold),
                    executor=executor, max_evaluations=6,
                )
                make_strategy("GA").run(evaluator)
            # the pool was forked before cfd's baseline existed, so each
            # worker that runs a cfd trial computes it, once
            cfd = get_benchmark("cfd")
            for threshold in (1e-6, 1e-3):
                evaluator = ConfigurationEvaluator(
                    cfd, quality=QualitySpec("MAE", threshold),
                    executor=executor, max_evaluations=6,
                )
                make_strategy("GA").run(evaluator)
        runs = baseline_runs()
        parent = str(os.getpid())
        assert runs[(parent, "lavamd")] == 1
        assert runs[(parent, "cfd")] == 1
        assert all(count == 1 for count in runs.values()), runs
        assert any(pid != parent for pid, program in runs if program == "cfd")
        # the workers were forked after the lavamd memo: none re-ran it
        assert [key for key in runs if key[1] == "lavamd"] == [(parent, "lavamd")]

    def test_concurrent_first_callers_share_one_run(self, baseline_runs):
        """More threads than cores ask a cold slot for the baseline at
        once (service shards of one program); a lost update would run it
        twice or hand out two arrays."""
        workers = 8
        barrier = threading.Barrier(workers)
        benches = [get_benchmark("eos") for _ in range(workers)]
        outputs: list = [None] * workers

        def ask(i: int) -> None:
            barrier.wait(timeout=30)
            outputs[i] = benches[i].baseline().output

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(baseline_runs().values()) == 1
        assert all(output is outputs[0] for output in outputs)

    def test_wall_clock_times_its_own_baseline(self, baseline_runs):
        bench = get_benchmark("eos")
        ConfigurationEvaluator(bench)
        ConfigurationEvaluator(bench)
        assert sum(baseline_runs().values()) == 1
        ConfigurationEvaluator(bench, timing=TimingMode.WALL_CLOCK)
        assert sum(baseline_runs().values()) == 2


def _hpccg_digest(threads: str | None, tmp_path) -> str:
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(tmp_path),
        "MIXPBENCH_DATA": str(tmp_path / "data"),
        "PYTHONPATH": str(REPO_ROOT / "src"),
    }
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    script = (
        "import hashlib\n"
        "from repro.benchmarks.base import get_benchmark\n"
        "output = get_benchmark('hpccg').baseline().output\n"
        "print(hashlib.sha256(output.tobytes()).hexdigest())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, cwd=REPO_ROOT, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


def test_hpccg_baseline_is_independent_of_blas_threads(tmp_path):
    # a threaded BLAS splits hpccg's dot products by the core count;
    # every mixpbench process pins it to one thread before NumPy loads
    unset = _hpccg_digest(None, tmp_path)
    assert unset == _hpccg_digest("1", tmp_path)
    assert unset == _hpccg_digest("2", tmp_path)
    assert len(unset) == len(hashlib.sha256().hexdigest())
