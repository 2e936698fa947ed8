"""Exact scalar arithmetic: rational functions over Q and Q(i), a parser,
and fraction-free linear algebra over the function field."""

from .gaussian import GaussianRational
from .linalg import (
    FracMatrix,
    generic_rank,
    image_at_sample,
    kernel_basis,
    pivot_columns,
    rank_at_samples,
    sample_point,
    solve_columns,
    solve_linear,
)
from .parse import parse_scalar
from .poly import Polynomial, divexact, poly_gcd, poly_lcm
from .scalar import Chart, ScalarExpr, coeff_to_str, dot, poly_to_str, same_chart, to_str

__all__ = [
    "Chart",
    "FracMatrix",
    "GaussianRational",
    "Polynomial",
    "ScalarExpr",
    "coeff_to_str",
    "divexact",
    "dot",
    "generic_rank",
    "image_at_sample",
    "kernel_basis",
    "pivot_columns",
    "parse_scalar",
    "poly_gcd",
    "poly_lcm",
    "poly_to_str",
    "rank_at_samples",
    "same_chart",
    "sample_point",
    "solve_columns",
    "solve_linear",
    "to_str",
]
