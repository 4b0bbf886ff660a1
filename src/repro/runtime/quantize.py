"""Store-side quantisation for emulated floating-point formats.

A :class:`~repro.core.types.CustomFormat` stores its values in a
built-in IEEE dtype (fp32 for ``e8m*``, fp64 for ``e11m*``) but keeps
only ``m`` explicit mantissa bits: every assignment into a variable of
the format rounds the stored bit pattern so the dropped mantissa tail
is zero.  This module holds the rounding kernels; the integration
points (where stores happen) live in :mod:`repro.runtime.memory` and
:mod:`repro.runtime.mparray`.

Two rounding modes are supported:

* **round-to-nearest-even** (default): the classic bias-add-truncate
  bit trick.  With ``s`` dropped tail bits, add
  ``((u >> s) & 1) + (2**(s-1) - 1)`` and clear the tail — ties go to
  the value whose kept LSB is zero.  Overflow past the largest
  representable value rounds to infinity, exactly as IEEE hardware
  would.
* **stochastic** (``sr`` formats): truncate, then round up with
  probability ``tail / 2**s`` using a per-variable
  ``numpy.random.Generator`` seeded from the workspace seed and the
  variable uid.  Store order is deterministic, so the draw stream — and
  hence every run — replays bit-identically across fast-path, reference
  and shadow executions.

NaN handling: the bias add could carry a NaN's mantissa into the
exponent field, so NaN payloads are saved and restored around both
kernels.  Infinities are naturally safe — their mantissa field is zero,
the bias never reaches the kept bits, and truncation restores the tail.
Subnormals are truncated in the storage format's mantissa field
(VPREC-style): the emulated format inherits the storage format's
exponent range and gradual underflow.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.types import CustomFormat

__all__ = [
    "QuantSpec",
    "modeled_nbytes",
    "quantize_array",
    "quantize_scalar",
    "spec_for",
]

_UINT = {
    np.dtype(np.float32): np.dtype(np.uint32),
    np.dtype(np.float64): np.dtype(np.uint64),
}


def modeled_nbytes(fmt: CustomFormat, count: int) -> int:
    """Modeled footprint of ``count`` elements stored in ``fmt``."""
    return (int(count) * fmt.bits + 7) // 8


def _rng_seed(seed: int, uid: str) -> np.random.SeedSequence:
    """Deterministic per-variable seed: stochastic draws replay exactly
    for a given (workspace seed, variable uid) pair."""
    digest = hashlib.blake2b(uid.encode(), digest_size=8).digest()
    return np.random.SeedSequence((int(seed), int.from_bytes(digest, "big")))


class QuantSpec:
    """Resolved quantisation parameters for one variable."""

    __slots__ = ("fmt", "shift", "stochastic", "rng")

    def __init__(self, fmt: CustomFormat, seed: int, uid: str) -> None:
        self.fmt = fmt
        self.shift = fmt.shift
        self.stochastic = fmt.stochastic
        self.rng = (
            np.random.default_rng(_rng_seed(seed, uid)) if fmt.stochastic else None
        )


def spec_for(precision, seed: int, uid: str) -> QuantSpec | None:
    """The :class:`QuantSpec` for a resolved precision level, or
    ``None`` when no rounding is needed — built-in precisions and the
    storage-exact formats (``e8m23``/``e11m52``), whose runs must stay
    byte-identical to fp32/fp64."""
    if isinstance(precision, CustomFormat) and precision.shift > 0:
        return QuantSpec(precision, seed, uid)
    return None


def quantize_array(data: np.ndarray, spec: QuantSpec) -> None:
    """Round ``data`` (fp32/fp64, any shape) in place to ``spec``'s
    mantissa width."""
    shift = spec.shift
    u = data.view(_UINT[data.dtype])
    utype = u.dtype.type
    tail = utype((1 << shift) - 1)
    nan_mask = np.isnan(data)
    has_nan = bool(nan_mask.any())
    if has_nan:
        saved = u[nan_mask]
    if spec.stochastic:
        frac = u & tail
        draw = spec.rng.integers(0, 1 << shift, size=u.shape, dtype=u.dtype)
        up = draw < frac
        np.bitwise_and(u, ~tail, out=u)
        u[up] += utype(1 << shift)
    else:
        bias = ((u >> utype(shift)) & utype(1)) + utype((1 << (shift - 1)) - 1)
        u += bias
        np.bitwise_and(u, ~tail, out=u)
    if has_nan:
        u[nan_mask] = saved


def quantize_scalar(value, spec: QuantSpec):
    """Round one scalar; returns a NumPy scalar of the same dtype."""
    arr = np.array(value, ndmin=1)
    quantize_array(arr, spec)
    return arr.dtype.type(arr[0])
