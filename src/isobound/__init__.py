"""Exact edge-isoperimetric profiles of small graphs and lower bounds for
Cartesian products via separable convex allocation over factor minorants."""

from .allocation import (
    AllocationResult,
    FactorAssignment,
    SharpnessCertificate,
    sharpness_certificate,
    theorem_bound,
)
from .certify import (
    DirichletCertificate,
    NonlinearityWitness,
    SlabsOptimalError,
    VerificationEntry,
    VerificationReport,
    q71_witness,
    q72_certificate,
    verify_theorem,
)
from .closed_forms import (
    BoundReport,
    bl_bound,
    connected_regular_bound,
    grid_bound,
    hamming_bound,
    regular_product_bound,
    regular_power_bound,
    torus_bound,
)
from .graphs import (
    CapExceededError,
    Graph,
    ParseError,
    ProductSpec,
    VertexSet,
    cartesian_product,
    generate,
    parse_graph,
    parse_product_spec,
    petersen,
)
from .minorants import (
    Breakpoint,
    ConvexMinorant,
    RegularSummary,
    build_minorant,
    regular_summary,
)
from .profiles import (
    IsoProfile,
    ProfileEntry,
    min_boundary,
    profile_bruteforce,
    profile_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "BoundReport",
    "Breakpoint",
    "CapExceededError",
    "ConvexMinorant",
    "DirichletCertificate",
    "FactorAssignment",
    "Graph",
    "IsoProfile",
    "NonlinearityWitness",
    "ParseError",
    "ProductSpec",
    "ProfileEntry",
    "RegularSummary",
    "SharpnessCertificate",
    "SlabsOptimalError",
    "VerificationEntry",
    "VerificationReport",
    "VertexSet",
    "bl_bound",
    "build_minorant",
    "cartesian_product",
    "connected_regular_bound",
    "generate",
    "grid_bound",
    "hamming_bound",
    "min_boundary",
    "parse_graph",
    "parse_product_spec",
    "petersen",
    "profile_bruteforce",
    "profile_closed_form",
    "q71_witness",
    "q72_certificate",
    "regular_product_bound",
    "regular_power_bound",
    "regular_summary",
    "sharpness_certificate",
    "theorem_bound",
    "torus_bound",
    "verify_theorem",
]
