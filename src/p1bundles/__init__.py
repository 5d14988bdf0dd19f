"""Exact splitting types of holomorphic vector bundles on the Riemann sphere.

A bundle is a Laurent-polynomial transition matrix over Q(i), invertible on
the overlap of the two standard charts.  The library computes its
Grothendieck splitting type with a re-multipliable certificate, exact
two-chart Cech cohomology dimensions, degrees, and the usual bundle
operations; see the README for the CLI.

``import p1bundles`` loads no submodule: a public name (``p1bundles.h0_dim``)
or a submodule (``p1bundles.cech``) is imported on first use (PEP 562).  A
public name is read off its home module on every access, never copied here,
so a function patched on its home module is seen through the package too.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_HOMES = {
    "errors": (
        "DimensionMismatch",
        "InternalCheckError",
        "InvalidBundle",
        "KernelBudgetExceeded",
        "P1BundlesError",
        "ParseError",
        "RefusedArgument",
        "SystemTooLarge",
        "WindowUnstable",
    ),
    "exact": ("GaussianRational", "Rational"),
    "laurent": (
        "Chart",
        "LaurentPoly",
        "W_CHART",
        "Z_CHART",
        "chart_contains",
        "constant",
        "monomial",
        "z_power",
    ),
    "lmatrix": (
        "LaurentMatrix",
        "ScalarMatrix",
        "block_diag",
        "kernel_basis",
        "kron",
    ),
    "bundle": (
        "VectorBundle",
        "diagonal_bundle",
        "line_bundle",
        "random_bundle",
        "random_unimodular",
        "trivial_bundle",
    ),
    "cech": (
        "Section",
        "euler_char",
        "h0_dim",
        "h0_profile",
        "h0_sections",
        "h1_dim_oracle",
        "is_section",
    ),
    "splitter": (
        "Factorization",
        "SplittingType",
        "grothendieck_split",
        "splitting_type",
        "verify_factorization",
    ),
    "text": (
        "format_bundle",
        "format_factorization",
        "format_matrix",
        "format_poly",
        "format_scalar",
        "parse_bundle",
        "parse_factorization",
        "parse_matrix",
        "parse_poly",
        "parse_scalar",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
