"""LaTeX rendering of solved expansions.

Produces display-ready strings in the style in which such asymptotic
results are usually quoted: an optional closed-form constant, the growth
factor with its exponent spelled out, and the correction series in powers
of n^(-1/2) with exact rational coefficients, closed by the order term.
"""

from __future__ import annotations

from .engine import Expansion
from .frame import Frame


def _frac(p: int, q: int) -> str:
    return rf"\frac{{{p}}}{{{q}}}"


def _monomial(coeff, symbol: str) -> str:
    """|coeff| * symbol as LaTeX, e.g. (1/2, "n") -> \\frac{n}{2}; the sign
    is handled by the caller.  An empty symbol renders a bare rational."""
    p = abs(coeff.numerator)
    q = coeff.denominator
    if not symbol:
        return str(p) if q == 1 else _frac(p, q)
    if q == 1:
        if p == 1:
            return symbol
        return f"{p} {symbol}"
    return rf"\frac{{{symbol if p == 1 else f'{p} {symbol}'}}}{{{q}}}"


def _signed_terms(pairs) -> str:
    """Join (coefficient, symbol) pairs into a signed LaTeX sum."""
    out = ""
    for coeff, symbol in pairs:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        body = _monomial(coeff, symbol)
        if not out:
            out = body if sign == "+" else "-" + body
        else:
            out += f" {sign} {body}"
    return out


def _power_of_n(k: int) -> str:
    """n^(k/2) as it appears in denominators: sqrt(n), n, n^{\\frac{3}{2}}..."""
    if k == 1:
        return r"\sqrt{n}"
    if k == 2:
        return "n"
    if k % 2 == 0:
        return rf"n^{{{k // 2}}}"
    return rf"n^{{\frac{{{k}}}{{2}}}}"


def frame_to_latex(fr: Frame) -> str:
    """The growth factor F(n) = n^(beta n) e^(-beta n + c sqrt n + kappa) n^alpha."""
    factors = []
    if fr.beta != 0:
        factors.append(rf"n^{{{_signed_terms([(fr.beta, 'n')])}}}")
    exponent = _signed_terms(
        [(-fr.beta, "n"), (fr.c, r"\sqrt{n}"), (fr.kappa, "")]
    )
    if exponent:
        factors.append(rf"e^{{{exponent}}}")
    if fr.alpha != 0:
        if 2 * fr.alpha == 1:
            factors.append(r"\sqrt{n}")
        else:
            factors.append(rf"n^{{{_signed_terms([(fr.alpha, '')])}}}")
    return r" \, ".join(factors) if factors else "1"


def _series_term(a, k: int) -> tuple[str, str]:
    """(sign, body) for a_k n^(-k/2)."""
    sign = "-" if a < 0 else "+"
    p = abs(a.numerator)
    q = a.denominator
    power = _power_of_n(k)
    denominator = power if q == 1 else f"{q} {power}"
    return sign, rf"\frac{{{p}}}{{{denominator}}}"


def series_to_latex(exp: Expansion, k: int) -> str:
    """1 + a_1/sqrt(n) + ... + a_k n^(-k/2) + O(n^(-(k+1)/2))."""
    if not 0 <= k <= exp.K:
        raise ValueError(f"have coefficients 1..{exp.K}, asked for {k}")
    parts = ["1"]
    for i in range(1, k + 1):
        a = exp.coefficient(i)
        if a == 0:
            continue
        sign, body = _series_term(a, i)
        parts.append(f"{sign} {body}")
    parts.append(rf"+ O\!\left(\frac{{1}}{{{_power_of_n(k + 1)}}}\right)")
    return " ".join(parts)


def expansion_to_latex(exp: Expansion, constant_latex: str | None = None) -> str:
    """The full display: [C] F(n) ( series )."""
    pieces = []
    if constant_latex:
        pieces.append(constant_latex)
    pieces.append(frame_to_latex(exp.frame))
    body = r" \, ".join(pieces)
    return rf"{body} \left( {series_to_latex(exp, exp.K)} \right)"
