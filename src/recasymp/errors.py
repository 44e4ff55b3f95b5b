"""Exceptions raised by the series arithmetic, the expansion solver and the
numeric evaluator.

Every failure mode that a caller can trigger with legitimate input gets its
own class, so the command line tool can map each one to a stable exit code
and tests can assert on the precise cause.  A message that names an
offending input value quotes it through quoted, so its length stays
bounded whatever the input's.
"""


def quoted(value) -> str:
    """A value as an error message quotes it: whole up to 40 characters,
    else its first 20 and its length, so that a message about a huge input
    stays one short line.  A string is quoted by its repr and measured by
    its own length; any other value is shown and measured by its repr,
    or named by its type where repr() refuses it (an int past the
    int-string digit limit, or a Fraction holding one)."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} past the int-string digit limit>"
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


class RecasympError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveValuation(RecasympError):
    """exp or log1p applied to a series with valuation <= 0; the result
    would not be a formal power series in the same variable."""


class NegativeValuation(RecasympError):
    """Shift substitution applied to a Laurent series with negative
    valuation; the substitution is only defined for power series."""


class RamificationError(RecasympError):
    """The frame exponent beta makes some shift ratio x^(2*beta*j)
    leave the ramification-2 lattice (2*beta*j not an integer)."""


class FrameMismatch(RecasympError):
    """At some order the residual has a forced nonzero coefficient that no
    choice of the current series coefficient can cancel: the frame
    (beta, c, alpha) does not belong to this recurrence."""

    def __init__(self, k: int, order: int):
        self.k = k
        self.order = order
        super().__init__(
            f"residual coefficient at order {order} cannot be cancelled "
            f"while solving for coefficient {k}"
        )


class ResonantOrder(RecasympError):
    """At the one order where the coefficient being solved for is read (see
    the engine module), both the forcing term and the linear response
    vanish, so it is a free parameter.  It is reported, never silently
    set."""

    def __init__(self, k: int, order: int):
        self.k = k
        self.order = order
        super().__init__(f"coefficient {k} is undetermined at order {order} (resonance)")


class NoRationalRoot(RecasympError):
    """A frame equation has no rational solution (or does not reduce to a
    univariate rational equation at all): the stretched-exponential
    template does not cover this recurrence."""


class AmbiguousRoot(RecasympError):
    """A frame equation has more than one rational solution; the caller
    must pick a branch explicitly."""

    def __init__(self, candidates, message: str):
        self.candidates = list(candidates)
        super().__init__(message)


class InputTooLarge(RecasympError):
    """A deliberately bounded routine (the brute-force involution counter,
    or the exact t_n alone) was asked for more than it is willing to do."""


class EvaluationError(RecasympError):
    """Base class for numeric evaluation failures."""


class PrecisionUnachievable(EvaluationError):
    """The requested number of correct digits cannot be certified with the
    working precision policy in effect."""


class TruncationDominates(EvaluationError):
    """The requested accuracy is below the truncation error floor of the
    expansion, or below the recessive solution that the exact values carry:
    no working precision can help."""

    def __init__(self, requested_digits: int, floor_digits: int):
        self.requested_digits = requested_digits
        self.floor_digits = floor_digits
        super().__init__(
            f"truncation error or the recessive solution limits accuracy to "
            f"about {floor_digits} digits, but {requested_digits} were requested"
        )
