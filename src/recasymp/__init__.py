"""Exact asymptotic expansions of linear recurrences with polynomial
coefficients.

Given a recurrence sum_j p_j(n) t_{n-j} = 0, the package determines (or
verifies) a stretched-exponential growth frame

    F(n) = exp(beta (n log n - n) + c sqrt(n) + alpha log n + kappa)

and solves, in exact rational arithmetic, for the correction series

    t_n ~ C * F(n) * (1 + a_1 n^(-1/2) + a_2 n^(-1) + ...),

order by order to any requested depth.  A high-precision numeric layer
evaluates expansions, estimates the connection constant C from exact
sequence values, and cross-checks everything against the built-in
involution-number preset.
"""

from .engine import Expansion, residual_check, solve_expansion
from .errors import (
    AmbiguousRoot,
    EvaluationError,
    FrameMismatch,
    InputTooLarge,
    NegativeValuation,
    NonPositiveValuation,
    NoRationalRoot,
    PrecisionUnachievable,
    RamificationError,
    RecasympError,
    ResonantOrder,
    TruncationDominates,
)
from .evaluate import (
    RatioReport,
    connection_constant,
    eval_expansion,
    format_significant,
    ratio_check,
    truncation_floor_digits,
    working_dps,
)
from .frame import Frame, frame_ratio, frame_ratio_parts, shift_exponent
from .framesolve import frame_solve, rational_roots
from .involutions import (
    BRUTE_FORCE_LIMIT,
    involution_count_brute,
    involution_count_by_sum,
    involution_counts_by_egf,
    involution_numbers,
)
from .presets import INV_SQRT2, PRESETS, Preset, a85_frame, a85_recurrence, get_preset
from .rationals import Rational, format_rational, parse_rational, rat
from .recurrence import Recurrence, poly_to_laurent
from .render import expansion_to_latex, frame_to_latex, series_to_latex
from .series import (
    PuiseuxSeries,
    add,
    compose_shift,
    exp_series,
    log1p_series,
    mul,
    mul_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRoot",
    "BRUTE_FORCE_LIMIT",
    "EvaluationError",
    "Expansion",
    "Frame",
    "FrameMismatch",
    "INV_SQRT2",
    "InputTooLarge",
    "NegativeValuation",
    "NoRationalRoot",
    "NonPositiveValuation",
    "PRESETS",
    "PrecisionUnachievable",
    "Preset",
    "PuiseuxSeries",
    "RamificationError",
    "Rational",
    "RatioReport",
    "RecasympError",
    "Recurrence",
    "ResonantOrder",
    "TruncationDominates",
    "a85_frame",
    "a85_recurrence",
    "add",
    "compose_shift",
    "connection_constant",
    "eval_expansion",
    "exp_series",
    "expansion_to_latex",
    "format_rational",
    "format_significant",
    "frame_ratio",
    "frame_ratio_parts",
    "frame_solve",
    "frame_to_latex",
    "get_preset",
    "involution_count_brute",
    "involution_count_by_sum",
    "involution_counts_by_egf",
    "involution_numbers",
    "log1p_series",
    "mul",
    "mul_sum",
    "parse_rational",
    "poly_to_laurent",
    "rat",
    "rational_roots",
    "ratio_check",
    "residual_check",
    "series_to_latex",
    "shift_exponent",
    "solve_expansion",
    "truncation_floor_digits",
    "working_dps",
]
