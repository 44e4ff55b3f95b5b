"""Recurrence container, polynomial helpers and the x-domain rewrite."""

import pytest

from recasymp import Expansion, Frame, PuiseuxSeries, Rational, Recurrence, poly_to_laurent
from recasymp.recurrence import poly_degree, poly_eval


def test_normalization_strips_trailing_zeros():
    rec = Recurrence([[1, 0, 0], [-1, 0]])
    assert rec.coeffs == ((1,), (-1,))
    assert rec.order == 1


def test_order_counts_polynomials():
    assert Recurrence([[1], [-1], [1, -1]]).order == 2


def test_leading_and_trailing_must_be_nonzero():
    with pytest.raises(ValueError):
        Recurrence([[0], [1]])
    with pytest.raises(ValueError):
        Recurrence([[1], [0, 0]])
    with pytest.raises(ValueError):
        Recurrence([[1]])


def test_interior_zero_polynomials_allowed():
    rec = Recurrence([[1], [], [0, -1]])
    assert list(rec.active_shifts()) == [(0, (1,)), (2, (0, -1))]


def test_int_coefficients_only():
    with pytest.raises(TypeError):
        Recurrence([[1.0], [-1]])
    with pytest.raises(TypeError):
        Recurrence([[True], [-1]])


@pytest.mark.parametrize(
    "a, b, names",
    [
        (
            Recurrence([[1], [-1], [1, -1]]),
            Recurrence([[1], [-1], [1, -1, 0]]),
            ("coeffs", "order"),
        ),
        (Frame("1/2", 1, 0), Frame(Rational(1, 2), 1, 0, 0), ("beta", "kappa")),
        (
            Expansion(Frame("1/2", 1, 0), 2, [1, Rational(-1, 3)]),
            Expansion(Frame("1/2", 1, 0), 2, [Rational(1), Rational(-1, 3)]),
            ("frame", "K", "a"),
        ),
    ],
    ids=["Recurrence", "Frame", "Expansion"],
)
def test_immutability_and_equality(a, b, names):
    # Values spelled differently are equal and hash alike; no attribute,
    # declared or not, can be set.
    assert a == b
    assert hash(a) == hash(b)
    for name in (*names, "undeclared"):
        with pytest.raises(AttributeError):
            setattr(a, name, 3)
    assert a == b


def test_sequence_residual():
    rec = Recurrence([[1], [-1], [1, -1]])
    t = [1, 1, 2, 4, 10, 26, 76]
    for n in range(2, 7):
        assert rec.sequence_residual(t, n) == 0
    broken = [1, 1, 2, 4, 11]
    assert rec.sequence_residual(broken, 4) != 0
    with pytest.raises(ValueError):
        rec.sequence_residual(t, 1)


def test_json_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Recurrence.from_json_dict({"order": 3, "coeffs": [[1], [-1]]})


def test_poly_helpers():
    assert poly_degree(()) == -1
    assert poly_degree((5,)) == 0
    assert poly_degree((1, -1)) == 1
    assert poly_eval((1, -1), 7) == 1 - 7
    assert poly_eval((2, 0, 3), 10) == 302
    assert poly_eval((), 4) == 0


def test_poly_to_laurent():
    assert poly_to_laurent((1,), 3) == PuiseuxSeries.one(3)
    # n - 1 -> x^-2 - 1.
    assert poly_to_laurent((-1, 1), 3) == PuiseuxSeries.from_terms({-2: 1, 0: -1}, 3)
    # n^2 -> x^-4.
    assert poly_to_laurent((0, 0, 1), 1) == PuiseuxSeries.monomial(1, -4, 1)
    assert poly_to_laurent((), 2).is_zero
    # In y = 1/n: n - 1 -> y^-1 - 1, n^2 -> y^-2.
    assert poly_to_laurent((-1, 1), 3, 1) == PuiseuxSeries.from_terms({-1: 1, 0: -1}, 3)
    assert poly_to_laurent((0, 0, 1), 1, 1) == PuiseuxSeries.monomial(1, -2, 1)
