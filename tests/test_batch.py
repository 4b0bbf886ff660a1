"""Batch-evaluation layer: executors, prefetch/replay determinism,
and EvalStats accounting.

The contract under test is the one DESIGN'd into
:mod:`repro.core.batch`: executors run only the pure trial of a
configuration (execute, then verify against the baseline) and return
its verdict, all bookkeeping is replayed serially, so a parallel run's
trial log is bit-identical to the serial one.
"""

import math

import pytest

from helpers import ToyProgram

from repro.core.batch import (
    DEFAULT_BATCH_SIZE, EXECUTOR_NAMES, ExecutionFailure, ProcessExecutor,
    SerialExecutor, ThreadExecutor, Verdict, Verifier, WorkStealingQueue,
    chunked, execute_guarded, make_executor,
)
from repro.core.evaluator import ConfigurationEvaluator, TimingMode
from repro.core.telemetry import EvalStats
from repro.core.types import PrecisionConfig
from repro.search.registry import make_strategy


def trial_log(evaluator):
    """Everything observable about a trial log, bitwise."""
    return [
        (t.index, t.config.digest(), t.status, t.error_value, t.speedup,
         t.modeled_seconds, t.analysis_seconds)
        for t in evaluator.trials
    ]


def outcome_payload(outcome):
    """Interchange JSON with the (legitimately varying) telemetry removed."""
    payload = outcome.to_json_dict()
    payload.get("metadata", {}).pop("eval_stats", None)
    return payload


def run_strategy(algorithm, executor=None):
    program = ToyProgram(n_clusters=6, toxic=(0, 3))
    evaluator = ConfigurationEvaluator(
        program, measurement_noise=0.0, executor=executor,
    )
    outcome = make_strategy(algorithm).run(evaluator)
    return program, evaluator, outcome


class TestChunked:
    def test_even_split(self):
        assert list(chunked(range(6), 2)) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_tail(self):
        assert list(chunked(range(5), 2)) == [[0, 1], [2, 3], [4]]

    def test_consumes_generators(self):
        assert list(chunked((i for i in range(3)), 10)) == [[0, 1, 2]]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            list(chunked(range(3), 0))

    def test_default_batch_size_positive(self):
        assert DEFAULT_BATCH_SIZE >= 1


class TestExecutors:
    def configs(self, program, count=5):
        space = program.search_space()
        locations = space.locations()
        return [space.lower(locations[: i + 1]) for i in range(count)]

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_results_match_serial(self, name):
        program = ToyProgram(n_clusters=6, toxic=(1,))
        configs = self.configs(program)
        baseline = program.execute(PrecisionConfig())
        verifier = Verifier(program, program.quality, baseline.output)
        reference = SerialExecutor().run(verifier, configs)
        with make_executor(name, 2) as executor:
            results = executor.run(verifier, configs)
        assert len(results) == len(reference)
        assert {r.passed for r in reference} == {True, False}  # toxic cluster 1
        for got, want in zip(results, reference):
            assert type(got) is Verdict
            assert got.value == want.value or (
                math.isnan(got.value) and math.isnan(want.value)
            )
            assert got.passed == want.passed
            assert got.modeled_seconds == want.modeled_seconds

    def test_make_executor_names_and_defaults(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)
        assert make_executor("thread", 7).workers == 7
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_runtime_error_becomes_failure_marker(self):
        class ExplodingProgram(ToyProgram):
            def execute(self, config):
                raise FloatingPointError("overflow in half precision")

        program = ExplodingProgram()
        result = execute_guarded(program, program.search_space().lower(
            program.search_space().locations()[0]
        ))
        assert isinstance(result, ExecutionFailure)
        assert result.kind == "FloatingPointError"

    def test_process_executor_falls_back_for_unregistered_programs(self):
        # ToyProgram is not a registry benchmark, so the process backend
        # must transparently degrade to threads instead of failing to
        # resolve the name in the worker.
        program = ToyProgram(n_clusters=4)
        configs = self.configs(program, count=4)
        with ProcessExecutor(2) as executor:
            results = executor.run(program, configs)
        assert len(results) == 4
        assert all(not isinstance(r, ExecutionFailure) for r in results)


class TestPrefetchReplay:
    def test_prefetch_stages_and_evaluate_consumes(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(
            program, measurement_noise=0.0, executor=ThreadExecutor(2),
        )
        space = evaluator.space()
        configs = [space.lower(loc) for loc in space.locations()]
        staged = evaluator.prefetch(configs)
        assert staged == len(configs)
        executed_before = program.executions
        for config in configs:
            evaluator.evaluate(config)
        # evaluate() consumed staged results instead of re-executing
        assert program.executions == executed_before
        assert evaluator.stats.prefetched_executions == len(configs)

    def test_prefetch_noop_without_executor(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(program, measurement_noise=0.0)
        space = evaluator.space()
        assert evaluator.prefetch([space.lower(space.locations()[0])]) == 0

    def test_prefetch_noop_under_wall_clock(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(
            program, measurement_noise=0.0, executor=ThreadExecutor(2),
            timing=TimingMode.WALL_CLOCK,
        )
        space = evaluator.space()
        assert evaluator.prefetch([space.lower(space.locations()[0])]) == 0

    def test_evaluate_many_equals_serial_loop(self):
        space_configs = None
        logs = []
        for executor in (None, ThreadExecutor(3)):
            program = ToyProgram(n_clusters=5, toxic=(2,))
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
            )
            space = evaluator.space()
            if space_configs is None:
                space_configs = [space.lower(loc) for loc in space.locations()]
            if executor is None:
                for config in space_configs:
                    evaluator.evaluate(config)
            else:
                evaluator.evaluate_many(space_configs)
            logs.append(trial_log(evaluator))
            assert evaluator.analysis_seconds > 0
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("algorithm", ["CB", "GA", "HR", "HC"])
    def test_strategy_trial_logs_identical_across_executors(self, algorithm):
        _, serial_eval, serial_outcome = run_strategy(algorithm)
        with ThreadExecutor(4) as executor:
            _, batch_eval, batch_outcome = run_strategy(algorithm, executor)
        assert trial_log(serial_eval) == trial_log(batch_eval)
        assert outcome_payload(serial_outcome) == outcome_payload(batch_outcome)


class TestEvalStats:
    def test_accounting_identity(self):
        # every EV is either fresh or a persistent replay; memory hits
        # are extra answers that never enter the trial log
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(program, measurement_noise=0.0)
        space = evaluator.space()
        config = space.lower(space.locations()[0])
        evaluator.evaluate(config)
        evaluator.evaluate(config)  # repeat: memory hit
        evaluator.evaluate(space.lower(space.locations()[1]))
        stats = evaluator.stats
        assert stats.evaluations == stats.fresh_evaluations + stats.persistent_hits
        assert stats.evaluations == 2
        assert stats.memory_hits == 1
        assert stats.cache_hits == 1
        assert evaluator.evaluations == stats.evaluations

    def test_batch_counters(self):
        program = ToyProgram(n_clusters=4)
        with ThreadExecutor(2) as executor:
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
            )
            space = evaluator.space()
            configs = [space.lower(loc) for loc in space.locations()]
            evaluator.evaluate_many(configs)
        stats = evaluator.stats
        assert stats.batches == 1
        assert stats.batched_configs == len(configs)
        assert stats.prefetched_executions == len(configs)
        assert stats.executor == "thread"
        assert stats.workers == 2
        assert stats.wall_seconds >= 0.0

    def test_outcome_metadata_carries_stats(self):
        _, evaluator, outcome = run_strategy("DD")
        stats = outcome.metadata["eval_stats"]
        assert stats["evaluations"] == evaluator.evaluations
        assert stats["labels"]["strategy"] == outcome.strategy
        assert stats["labels"]["program"] == "toy"

    def test_as_dict_and_merge(self):
        a = EvalStats(evaluations=3, fresh_evaluations=2, persistent_hits=1,
                      wall_seconds=0.5)
        b = EvalStats(evaluations=1, fresh_evaluations=1, memory_hits=4)
        a.merge(b)
        assert a.evaluations == 4
        assert a.fresh_evaluations == 3
        assert a.memory_hits == 4
        payload = a.as_dict()
        assert payload["cache_hits"] == a.memory_hits + a.persistent_hits
        assert payload["executor"] == "serial"


class TestWorkStealingQueue:
    def test_fifo_within_a_lane(self):
        queue = WorkStealingQueue()
        queue.push("a", 1)
        queue.push("a", 2)
        assert queue.pop(preferred="a") == ("a", 1)
        assert queue.pop(preferred="a") == ("a", 2)
        assert len(queue) == 0

    def test_prefers_own_lane_then_steals_deepest(self):
        queue = WorkStealingQueue()
        queue.push("shallow", 1)
        queue.push("deep", 1)
        queue.push("deep", 2)
        queue.push("mine", 1)
        assert queue.pop(preferred="mine") == ("mine", 1)
        # own lane empty: steal from the deepest backlog
        assert queue.pop(preferred="mine") == ("deep", 1)

    def test_steal_tie_breaks_by_lane_name(self):
        queue = WorkStealingQueue()
        queue.push("b", 1)
        queue.push("a", 1)
        lane, _ = queue.pop(preferred="zzz")
        assert lane == "b"  # equal depth: the greatest lane name wins

    def test_drop_lane_returns_unstarted_items(self):
        queue = WorkStealingQueue()
        queue.push("a", 1)
        queue.push("a", 2)
        queue.push("b", 9)
        assert queue.drop_lane("a") == [1, 2]
        assert queue.drop_lane("a") == []
        assert len(queue) == 1

    def test_pop_timeout_and_close(self):
        queue = WorkStealingQueue()
        assert queue.pop(timeout=0.01) is None
        queue.push("a", 1)
        queue.close()
        assert queue.pop() == ("a", 1)  # closing drains, it does not drop
        assert queue.pop() is None

    def test_close_wakes_blocked_consumers(self):
        import threading

        queue = WorkStealingQueue()
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(queue.pop(timeout=30.0))
        )
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen == [None]
