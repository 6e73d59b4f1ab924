"""Combinatorial calculus of dual graphs, multidegrees, and sheaf models.

Nodal curves are handled through their dual graphs.  The package
implements semistable modifications (inserting and contracting chains
of rational curves), pushforward of line bundles to torsion-free sheaf
models, exact stability and balanced inequalities, and the bijection
between balanced bundles on small modifications and semistable sheaf
models on the stable target.
"""

from .graphs import (
    DualGraph,
    ExceptionalCycleError,
    boundary_count,
    chi_structure,
    classify,
    connected_subcurves,
    exceptional_vertices,
    is_connected_subcurve,
    is_exceptional,
    maximal_exceptional_chains,
)
from .sheaves import (
    ChainCohomology,
    Multidegree,
    SheafModel,
    Twister,
    chain_h,
    interval_sum_range,
    omega_multidegree,
    sheaf_degree,
    twist,
)
from .modifications import (
    Modification,
    contracted_edge_id,
    is_small,
    modify,
    pullback_multidegree,
    small_modification,
    stable_model,
)
from .pushforward import (
    AdmissibilityFlags,
    ModelMismatchError,
    NotAdmissibleError,
    PushforwardDiagnostics,
    admissibility,
    chain_degrees,
    pushforward_degree_oracle,
    pushforward_diagnostics,
    pushforward_model,
    same_pushforward,
)
from .stability import (
    BalancedScan,
    Polarization,
    SubcurveScan,
    balanced_report,
    bundle_stability_report,
    canonical_polarization,
    check_balanced,
    check_bundle_stability,
    check_sheaf_stability,
    chi_twisted,
    enumerate_balanced,
    enumerate_semistable_models,
    sheaf_stability_report,
)
from .correspondence import (
    CorrespondenceReport,
    certify_bijection,
    phi,
    phi_inverse,
)
from .catalog import elliptic_bridge, theta_graph
from .verify import ALL_SUITES, VerifyConfig, run_suite, run_verification

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES",
    "AdmissibilityFlags",
    "BalancedScan",
    "ChainCohomology",
    "CorrespondenceReport",
    "DualGraph",
    "ExceptionalCycleError",
    "ModelMismatchError",
    "Modification",
    "Multidegree",
    "NotAdmissibleError",
    "Polarization",
    "PushforwardDiagnostics",
    "SheafModel",
    "SubcurveScan",
    "Twister",
    "VerifyConfig",
    "admissibility",
    "balanced_report",
    "boundary_count",
    "bundle_stability_report",
    "canonical_polarization",
    "certify_bijection",
    "chain_degrees",
    "chain_h",
    "check_balanced",
    "check_bundle_stability",
    "check_sheaf_stability",
    "chi_structure",
    "chi_twisted",
    "classify",
    "connected_subcurves",
    "contracted_edge_id",
    "elliptic_bridge",
    "enumerate_balanced",
    "enumerate_semistable_models",
    "exceptional_vertices",
    "interval_sum_range",
    "is_connected_subcurve",
    "is_exceptional",
    "is_small",
    "maximal_exceptional_chains",
    "modify",
    "omega_multidegree",
    "phi",
    "phi_inverse",
    "pullback_multidegree",
    "pushforward_degree_oracle",
    "pushforward_diagnostics",
    "pushforward_model",
    "run_suite",
    "run_verification",
    "same_pushforward",
    "sheaf_degree",
    "sheaf_stability_report",
    "small_modification",
    "stable_model",
    "theta_graph",
    "twist",
]
