"""Byte-identity of the storage-exact emulated formats.

``e8m23`` and ``e11m52`` keep every mantissa bit of their fp32/fp64
storage, so a configuration spelled with them must be *byte-identical*
to the same configuration spelled with the built-in dtypes: same
output bits, same profile summary, same modeled time.  This is the
suite enforcing the PR's hard invariant — the emulated-format
machinery may not perturb anything that does not actually drop bits.

Every benchmark is checked cold and warm, so the per-process caches
(RNG replay, inputs, recording signatures) are proven exact too.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.benchmarks.base import (
    available_benchmarks, clear_process_caches, get_benchmark,
)
from repro.core.types import Precision, get_format

ALL_BENCHMARKS = available_benchmarks()

#: (alias, built-in oracle): the storage-exact emulated formats and the
#: dtype each must be indistinguishable from
ALIASES = (
    ("e8m23", Precision.SINGLE),
    ("e11m52", Precision.DOUBLE),
)


@pytest.fixture(scope="module")
def exact_env(tmp_path_factory):
    """Module-private data dir + clean per-process caches."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("MIXPBENCH_DATA", str(tmp_path_factory.mktemp("data")))
    clear_process_caches()
    yield
    clear_process_caches()
    patcher.undo()


@pytest.fixture(scope="module")
def suite_runs(exact_env):
    """Execute each (benchmark, config) once cold and once warm,
    lazily, sharing results across the alias/oracle comparisons."""
    cache: dict = {}

    def run(name: str, config):
        key = (name, config.digest())
        if key not in cache:
            # lowered configs are allowed to overflow (srad is designed
            # to); warnings-as-errors is test_apps' job, not this suite's
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                clear_process_caches()
                cold = get_benchmark(name).execute(config)
                warm = get_benchmark(name).execute(config)
            cache[key] = (cold, warm)
        return cache[key]

    return run


def _configs(name: str, alias: str, builtin: Precision):
    space = get_benchmark(name).search_space()
    return space.uniform_config(get_format(alias)), space.uniform_config(builtin)


@pytest.mark.parametrize("alias,builtin", ALIASES, ids=[a for a, _ in ALIASES])
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestStorageExactAliases:
    """uniform e8m23 == uniform fp32, uniform e11m52 == uniform fp64."""

    def test_fused_cold_and_warm_bit_identical(self, name, alias, builtin, suite_runs):
        emulated, oracle = _configs(name, alias, builtin)
        ref_cold, ref_warm = suite_runs(name, oracle)
        got_cold, got_warm = suite_runs(name, emulated)
        for ref, got in ((ref_cold, got_cold), (ref_warm, got_warm)):
            reference = np.asarray(ref.output)
            output = np.asarray(got.output)
            assert output.shape == reference.shape
            assert output.dtype == reference.dtype
            # byte equality is NaN-aware: identical bit patterns pass
            # where `==` would reject NaN == NaN.
            assert output.tobytes() == reference.tobytes()

    def test_fused_profiles_and_times_identical(self, name, alias, builtin, suite_runs):
        emulated, oracle = _configs(name, alias, builtin)
        ref_cold, ref_warm = suite_runs(name, oracle)
        got_cold, got_warm = suite_runs(name, emulated)
        for ref, got in ((ref_cold, got_cold), (ref_warm, got_warm)):
            assert got.profile.summary() == ref.profile.summary()
            assert got.modeled_seconds == ref.modeled_seconds
