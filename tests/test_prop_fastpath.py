"""Property-based tests for the interpreted fast path (hypothesis).

The contract under test is the strongest one the runtime makes:
executing any straight-line ufunc sequence must produce bit-identical
outputs and identical profiles whether it runs under the readable
reference recorder or on the signature-cached fast path (with its
buffer reuse and init-copy elision).

Random short programs over random dtypes/shapes probe the recording
and reuse machinery; the explicit programs below pin shape changes,
aliased operands and mid-chain mutation, which hypothesis is unlikely
to hit by chance.
"""

from __future__ import annotations

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.types import Precision, PrecisionConfig
from repro.runtime.memory import Workspace
from repro.runtime.mparray import reference_recording

#: ops are appended to a growing value list; each step draws operand
#: indices into it (0 and 1 are the declared input arrays)
_BINARY = ("add", "sub", "mul", "div", "max")
_UNARY = ("sqrt", "abs", "neg")
_SCALAR = ("smul", "sadd")


@st.composite
def programs(draw):
    n_ops = draw(st.integers(min_value=2, max_value=6))
    steps = []
    for i in range(n_ops):
        kind = draw(st.sampled_from(_BINARY + _UNARY + _SCALAR))
        live = 2 + i  # inputs plus every prior result
        src1 = draw(st.integers(min_value=0, max_value=live - 1))
        src2 = draw(st.integers(min_value=0, max_value=live - 1))
        const = draw(st.sampled_from((0.5, 1.25, 2.0, -0.75)))
        steps.append((kind, src1, src2, const))
    precision = draw(st.sampled_from((Precision.DOUBLE, Precision.SINGLE)))
    shape = draw(st.sampled_from(((4,), (16,), (3, 5))))
    return precision, shape, steps


def _run_program(precision, shape, steps):
    """Execute one random program in a fresh workspace; returns the
    final array's bytes and the workspace profile summary."""
    config = PrecisionConfig({"a": precision, "b": precision})
    ws = Workspace(config)
    size = int(np.prod(shape))
    init_a = (np.arange(size, dtype=np.float64).reshape(shape) % 7) * 0.25 + 0.5
    init_b = (np.arange(size, dtype=np.float64).reshape(shape) % 5) * 0.5 + 1.0
    values = [ws.array("a", init=init_a), ws.array("b", init=init_b)]
    for kind, src1, src2, const in steps:
        x = values[src1]
        y = values[src2]
        if kind == "add":
            result = x + y
        elif kind == "sub":
            result = x - y
        elif kind == "mul":
            result = x * y
        elif kind == "div":
            result = x / y
        elif kind == "max":
            result = np.maximum(x, y)
        elif kind == "sqrt":
            result = np.sqrt(x)
        elif kind == "abs":
            result = np.abs(x)
        elif kind == "neg":
            result = -x
        elif kind == "smul":
            result = x * const
        else:  # sadd
            result = x + const
        values.append(result)
    # bind the result to a declaration, as every real benchmark does,
    # so the init-copy elision path is exercised too
    final = ws.array("out", init=values[-1] + 0.0)
    return np.asarray(final._data).tobytes(), ws.profile.summary()


@given(programs())
@settings(max_examples=40, deadline=None)
def test_interpreted_reference_identical(program):
    precision, shape, steps = program
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with reference_recording():
            reference = _run_program(precision, shape, steps)
        # repeated fast-path runs: warm signature caches stay exact too
        fast = [_run_program(precision, shape, steps) for _ in range(2)]
    for run in fast:
        assert run == reference


class TestExplicitPrograms:
    """Hand-written programs compared against the reference recorder."""

    @staticmethod
    def _bytes(arr):
        return np.asarray(arr._data).tobytes()

    def _assert_fast_matches_reference(self, kernel, *args):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast_ws = Workspace()
            fast = kernel(fast_ws, *args)
            ref_ws = Workspace()
            with reference_recording():
                ref = kernel(ref_ws, *args)
        assert self._bytes(fast) == self._bytes(ref)
        assert fast_ws.profile.summary() == ref_ws.profile.summary()

    def test_shape_change_between_runs(self):
        def kernel(ws, n):
            a = ws.array("a", shape=n, fill=1.5)
            b = ws.array("b", shape=n, fill=0.5)
            r = (((a + b) * 2.0 - b) / 1.5 + a) * 0.5
            return ws.array("out", init=r + 0.0)

        self._assert_fast_matches_reference(kernel, 64)
        self._assert_fast_matches_reference(kernel, 32)

    def test_shape_change_mid_chain(self):
        def kernel(ws):
            a = ws.array("a", shape=(4, 8), fill=2.0)
            row = ws.array("r", shape=8, fill=1.0)
            t = (((a * 0.5 + a) * 1.25 - a) / 2.0) + a
            r = t + row  # broadcasting op mid-sequence
            return ws.array("out", init=r + 0.0)

        self._assert_fast_matches_reference(kernel)

    def test_aliased_operands(self):
        def kernel(ws, alias):
            x = ws.array("x", shape=64, fill=1.25)
            y = x if alias else ws.array("y", shape=64, fill=0.75)
            r = ((x + y) * 0.5 - y) / 1.5 + x
            return ws.array("out", init=r + 0.0)

        self._assert_fast_matches_reference(kernel, False)
        self._assert_fast_matches_reference(kernel, True)  # one buffer twice

    def test_mutation_mid_chain(self):
        def kernel(ws):
            a = ws.array("a", shape=64, fill=1.0)
            b = ws.array("b", shape=64, fill=2.0)
            t = a + b
            a[0] = 5.0  # in-place store between dependent ops
            return ws.array("out", init=t * a + 0.0)

        self._assert_fast_matches_reference(kernel)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
