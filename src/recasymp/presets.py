"""Built-in problem presets.

A preset bundles everything the numeric commands need that pure algebra
cannot supply: the recurrence, its growth frame, the connection constant,
and sources of exact sequence values for cross-checking: the list
t_0 .. t_n by stepping the recurrence, and t_n alone by binary splitting
(capped at EXACT_INDEX_LIMIT).

The one preset shipped is "a85", the involution numbers t_n (number of
permutations of n letters equal to their own inverse, OEIS A000085):

    t_n - t_{n-1} + (1 - n) t_{n-2} = 0,        t_0 = t_1 = 1,

with frame parameters beta = 1/2, c = 1, alpha = 0, kappa = -1/4 and
connection constant 1/sqrt(2), so that

    t_n ~ (1/sqrt(2)) n^(n/2) e^(-n/2 + sqrt(n) - 1/4) (1 + 7/(24 sqrt(n)) - ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frame import Frame
from .involutions import involution_number, involution_numbers
from .recurrence import Recurrence

#: Sentinel for the exact connection constant 1/sqrt(2); it is irrational,
#: so it cannot travel as a Rational and is materialised only at working
#: precision inside an evaluation.
INV_SQRT2 = object()


def a85_recurrence() -> Recurrence:
    return Recurrence([[1], [-1], [1, -1]])


def a85_frame() -> Frame:
    return Frame("1/2", "1", "0", "-1/4")


@dataclass(frozen=True)
class Preset:
    name: str
    recurrence: Recurrence
    frame: Frame
    constant: object
    constant_latex: str
    sequence: object = field(repr=False)
    term: object = field(repr=False)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


PRESETS = {
    "a85": Preset(
        name="a85",
        recurrence=a85_recurrence(),
        frame=a85_frame(),
        constant=INV_SQRT2,
        constant_latex=r"\frac{1}{\sqrt{2}}",
        sequence=involution_numbers,
        term=involution_number,
    )
}
