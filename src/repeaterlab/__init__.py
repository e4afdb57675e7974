"""Entanglement swapping for a three-node repeater, with cost accounting.

The protocol: two partially entangled pairs meet at a middle station,
whose tuned four-outcome measurement swaps the entanglement out to the
end nodes at the best rate any local strategy allows.  The package
builds that measurement, runs and samples the protocol, decides whether
an arbitrary projective measurement is optimal, and bounds what a single
outcome can achieve in any finite dimension.
"""

from .bounds import (BoundResult, achieving_operator, p_max, steering_bound,
                     trace_rearrangement_lb)
from .criterion import (CriterionReport, RankOneRequiredError, achieved_rate,
                        criterion_lhs, is_optimal, measurement_from_text)
from .repeater import (AnalyticResult, ComparisonRecord, OptimalBasis, SampledResult,
                       bell_kets, build_optimal_basis, compare_with_bell,
                       computational_kets, direct_success_prob, projection_bounds,
                       run_protocol_analytic, run_protocol_sampled,
                       run_protocol_with_kets)

__version__ = "0.1.0"

__all__ = [
    "AnalyticResult",
    "BoundResult",
    "ComparisonRecord",
    "CriterionReport",
    "OptimalBasis",
    "RankOneRequiredError",
    "SampledResult",
    "achieved_rate",
    "achieving_operator",
    "bell_kets",
    "build_optimal_basis",
    "compare_with_bell",
    "computational_kets",
    "criterion_lhs",
    "direct_success_prob",
    "is_optimal",
    "measurement_from_text",
    "p_max",
    "projection_bounds",
    "run_protocol_analytic",
    "run_protocol_sampled",
    "run_protocol_with_kets",
    "steering_bound",
    "trace_rearrangement_lb",
    "__version__",
]
