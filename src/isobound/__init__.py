"""Exact edge-isoperimetric profiles of small graphs and lower bounds for
Cartesian products via separable convex allocation over factor minorants.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so a command pays only for
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it exports.
_EXPORTS = {
    "allocation": (
        "AllocationResult",
        "FactorAssignment",
        "SharpnessCertificate",
        "sharpness_certificate",
        "theorem_bound",
    ),
    "certify": (
        "DirichletCertificate",
        "NonlinearityWitness",
        "SlabsOptimalError",
        "VerificationEntry",
        "VerificationReport",
        "q71_witness",
        "q72_certificate",
        "verify_theorem",
    ),
    "closed_forms": (
        "BoundReport",
        "bl_bound",
        "connected_regular_bound",
        "grid_bound",
        "hamming_bound",
        "regular_product_bound",
        "regular_power_bound",
        "torus_bound",
    ),
    "graphs": (
        "CapExceededError",
        "Graph",
        "ParseError",
        "ProductSpec",
        "VertexSet",
        "cartesian_product",
        "generate",
        "parse_graph",
        "parse_product_spec",
        "petersen",
    ),
    "minorants": (
        "Breakpoint",
        "ConvexMinorant",
        "RegularSummary",
        "build_minorant",
        "regular_summary",
    ),
    "profiles": (
        "IsoProfile",
        "ProfileEntry",
        "min_boundary",
        "profile_bruteforce",
        "profile_closed_form",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
