"""LaTeX rendering of frames and expansions."""

import pytest

from recasymp import (
    Expansion,
    Frame,
    Recurrence,
    expansion_to_latex,
    frame_to_latex,
    series_to_latex,
    solve_expansion,
)


def test_involution_frame(a85_fr):
    assert (
        frame_to_latex(a85_fr)
        == r"n^{\frac{n}{2}} \, e^{-\frac{n}{2} + \sqrt{n} - \frac{1}{4}}"
    )


def test_trivial_frame_is_one():
    assert frame_to_latex(Frame(0, 0, 0, 0)) == "1"


def test_factorial_frame():
    assert frame_to_latex(Frame(1, 0, "1/2", 0)) == r"n^{n} \, e^{-n} \, \sqrt{n}"


def test_reciprocal_factorial_frame():
    assert (
        frame_to_latex(Frame(-1, 0, "-1/2", 0)) == r"n^{-n} \, e^{n} \, n^{-\frac{1}{2}}"
    )


def test_pure_stretched_exponential():
    assert frame_to_latex(Frame(0, "2", 0, "1/3")) == r"e^{2 \sqrt{n} + \frac{1}{3}}"


def test_series_k0_is_one_plus_order_term(a85_k10):
    assert series_to_latex(a85_k10, 0) == r"1 + O\!\left(\frac{1}{\sqrt{n}}\right)"


def test_series_signs_and_powers(a85_k10):
    assert series_to_latex(a85_k10, 3) == (
        r"1 + \frac{7}{24 \sqrt{n}} - \frac{119}{1152 n}"
        r" - \frac{7933}{414720 n^{\frac{3}{2}}}"
        r" + O\!\left(\frac{1}{n^{2}}\right)"
    )


def test_series_skips_zero_coefficients():
    fact = solve_expansion(Recurrence([[1], [0, -1]]), Frame(1, 0, "1/2"), 3)
    assert series_to_latex(fact, 3) == r"1 + \frac{1}{12 n} + O\!\left(\frac{1}{n^{2}}\right)"


def test_series_k_out_of_range(a85_k10):
    with pytest.raises(ValueError):
        series_to_latex(a85_k10, 11)


def test_full_display_with_constant(a85_k10):
    k2 = Expansion(a85_k10.frame, a85_k10.a[:2])
    assert expansion_to_latex(k2, constant_latex=r"\frac{1}{\sqrt{2}}") == (
        r"\frac{1}{\sqrt{2}} \, n^{\frac{n}{2}} \, e^{-\frac{n}{2} + \sqrt{n} - \frac{1}{4}}"
        r" \left( 1 + \frac{7}{24 \sqrt{n}} - \frac{119}{1152 n}"
        r" + O\!\left(\frac{1}{n^{\frac{3}{2}}}\right) \right)"
    )


def test_full_display_defaults_to_all_terms(a85_k10):
    out = expansion_to_latex(a85_k10)
    assert r"\frac{1683008269760589544489}{88580102706155225088000 n^{5}}" in out
    assert "O\\!" in out
