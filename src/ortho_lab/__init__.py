"""Exact arithmetic for the orthogonality graph on sign vectors.

Independence bounds from eigenvalue ratios, kernel-reduction searches
for tight independent sets, clique-translate colourings, recursive
subgraph constructions, and JSON certificates for all of it - with no
floating point anywhere in a proof path.
"""

from .graphs import (
    Family,
    GraphKind,
    GraphStats,
    VertexWord,
    adjacent_bits,
    antipodal_structure_check,
    double_cover_partition,
    omega,
    orthogonal,
    psi,
    psi_stats,
    structure_report,
    y_adjacent,
    y_canonical,
    y_quotient,
    y_vertices,
)
from .spectral import (
    BoundReport,
    equality_condition_check,
    gram_identities,
    least_eigenvalue,
    neighbourhood_gram_spectrum,
    ratio_bound,
    verify_tau_eigenspace,
)
from .search import (
    IndSetCertificate,
    SearchOutcome,
    certify_indset,
    check_independent,
    enumerate_candidates,
    kernel_reduce,
)
from .colouring import (
    ChiStatusReport,
    CliqueCertificate,
    ColouringCertificate,
    Verdict,
    chi_status,
    normal_cayley_colouring,
    psi_colouring,
    sylvester_clique,
    translate_disjointness,
    verify_clique,
    verify_colouring,
)
from .families import (
    DoublingBoundReport,
    FamilyReport,
    initial_segment_family,
    lift_to_omega,
    m2k_bound,
    small_odd_family,
    symdiff_transform_check,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "GraphKind",
    "GraphStats",
    "VertexWord",
    "adjacent_bits",
    "antipodal_structure_check",
    "double_cover_partition",
    "omega",
    "orthogonal",
    "psi",
    "psi_stats",
    "structure_report",
    "y_adjacent",
    "y_canonical",
    "y_quotient",
    "y_vertices",
    "BoundReport",
    "equality_condition_check",
    "gram_identities",
    "least_eigenvalue",
    "neighbourhood_gram_spectrum",
    "ratio_bound",
    "verify_tau_eigenspace",
    "IndSetCertificate",
    "SearchOutcome",
    "certify_indset",
    "check_independent",
    "enumerate_candidates",
    "kernel_reduce",
    "ChiStatusReport",
    "CliqueCertificate",
    "ColouringCertificate",
    "Verdict",
    "chi_status",
    "normal_cayley_colouring",
    "psi_colouring",
    "sylvester_clique",
    "translate_disjointness",
    "verify_clique",
    "verify_colouring",
    "DoublingBoundReport",
    "FamilyReport",
    "initial_segment_family",
    "lift_to_omega",
    "m2k_bound",
    "small_odd_family",
    "symdiff_transform_check",
    "__version__",
]
