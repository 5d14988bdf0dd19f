"""Exact splitting types of holomorphic vector bundles on the Riemann sphere.

A bundle is a Laurent-polynomial transition matrix over Q(i), invertible on
the overlap of the two standard charts.  The library computes its
Grothendieck splitting type with a re-multipliable certificate, exact
two-chart Cech cohomology dimensions, degrees, and the usual bundle
operations; see the README for the CLI.
"""

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    InvalidBundle,
    ParseError,
    SectionVanishes,
    SystemTooLarge,
    WindowUnstable,
)
from .exact import GaussianRational, Rational
from .laurent import (
    Chart,
    LaurentPoly,
    W_CHART,
    Z_CHART,
    chart_contains,
    chart_degree,
    constant,
    monomial,
    z_power,
)
from .lmatrix import (
    LaurentMatrix,
    ScalarMatrix,
    block_diag,
    is_unimodular,
    kernel_basis,
    kron,
)
from .bundle import (
    VectorBundle,
    diagonal_bundle,
    line_bundle,
    random_bundle,
    random_unimodular,
    trivial_bundle,
    validate,
)
from .cech import (
    Section,
    euler_char,
    h0_dim,
    h0_profile,
    h0_sections,
    h1_dim_oracle,
    is_section,
)
from .splitter import (
    Factorization,
    SplittingType,
    extract_section,
    grothendieck_split,
    is_self_dual,
    iso,
    minimal_twist,
    splitting_type,
    verify_factorization,
)
from .text import (
    format_bundle,
    format_factorization,
    format_matrix,
    format_poly,
    format_scalar,
    parse_bundle,
    parse_factorization,
    parse_matrix,
    parse_poly,
    parse_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "DimensionMismatch",
    "Factorization",
    "GaussianRational",
    "InternalCheckError",
    "InvalidBundle",
    "LaurentMatrix",
    "LaurentPoly",
    "ParseError",
    "Rational",
    "ScalarMatrix",
    "Section",
    "SectionVanishes",
    "SplittingType",
    "SystemTooLarge",
    "VectorBundle",
    "W_CHART",
    "WindowUnstable",
    "Z_CHART",
    "block_diag",
    "chart_contains",
    "chart_degree",
    "constant",
    "diagonal_bundle",
    "euler_char",
    "extract_section",
    "format_bundle",
    "format_factorization",
    "format_matrix",
    "format_poly",
    "format_scalar",
    "grothendieck_split",
    "h0_dim",
    "h0_profile",
    "h0_sections",
    "h1_dim_oracle",
    "is_section",
    "is_self_dual",
    "is_unimodular",
    "iso",
    "kernel_basis",
    "kron",
    "line_bundle",
    "minimal_twist",
    "monomial",
    "parse_bundle",
    "parse_factorization",
    "parse_matrix",
    "parse_poly",
    "parse_scalar",
    "random_bundle",
    "random_unimodular",
    "splitting_type",
    "trivial_bundle",
    "validate",
    "verify_factorization",
    "z_power",
]
