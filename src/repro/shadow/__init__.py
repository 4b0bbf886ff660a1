"""Shadow-value sensitivity analysis (``repro.shadow``).

One instrumented run propagates lower-precision *shadow replicas*
(fp32, and fp16 where enabled) of every workspace variable alongside
the fp64 reference, attributing observed divergence back to the
variables that caused it.  The resulting
:class:`~repro.shadow.report.SensitivityReport` feeds three consumers:

* guided search — ``--order shadow`` ranks search locations
  most-sensitive-first for every registered strategy;
* predict-and-verify — ``mixpbench sensitivity`` turns the report
  into a candidate configuration and verifies it through the normal
  :class:`~repro.core.evaluator.ConfigurationEvaluator`;
* the ``shadow-stats`` experiment table.
"""

from repro.shadow.engine import ShadowArray, ShadowContext, ShadowWorkspace
from repro.shadow.order import ShadowOrder
from repro.shadow.recommend import Recommendation, recommend_and_verify
from repro.shadow.report import (
    SensitivityReport, VariableSensitivity, run_shadow_analysis,
    shadow_guidance, shared_sensitivity,
)

__all__ = [
    "ShadowArray",
    "ShadowContext",
    "ShadowWorkspace",
    "ShadowOrder",
    "Recommendation",
    "recommend_and_verify",
    "SensitivityReport",
    "VariableSensitivity",
    "run_shadow_analysis",
    "shadow_guidance",
    "shared_sensitivity",
]
