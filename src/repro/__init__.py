"""HPC-MixPBench: an HPC benchmark suite for mixed-precision analysis.

A faithful Python reproduction of the IISWC 2020 paper: 17 precision-
configurable HPC benchmarks, a Typeforge-style type-dependence
analysis, six CRAFT-style search algorithms, a FloatSmith-style
orchestration layer, and a YAML-driven harness that regenerates every
table and figure of the paper's evaluation.
"""

import os

# One BLAS thread, set before NumPy first loads: a threaded BLAS splits
# reductions such as ``np.dot`` by the host's core count, so the same
# configuration would return different bits on different machines (and
# small dot products only pay for the threads).  Pool workers inherit
# the setting.  A process that loaded NumPy before importing this
# package keeps its BLAS as it is (see docs/runtime.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

from repro.core.types import Precision, PrecisionConfig
from repro.core.variables import Cluster, Granularity, SearchSpace, Variable, VariableKind
from repro.runtime.machine import DEFAULT_MACHINE, MachineModel
from repro.runtime.memory import Workspace
from repro.verify.quality import QualityResult, QualitySpec

__version__ = "1.0.0"

__all__ = [
    "Precision",
    "PrecisionConfig",
    "Variable",
    "VariableKind",
    "Cluster",
    "Granularity",
    "SearchSpace",
    "Workspace",
    "MachineModel",
    "DEFAULT_MACHINE",
    "QualitySpec",
    "QualityResult",
    "__version__",
]
