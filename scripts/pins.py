"""Check the outputs pinned past the tier-1 tests, in one process.

    PYTHONPATH=src python scripts/pins.py

Each row of PINS runs CLI argvs through ``cli.main`` (RECURRENCES are
written as NAME.json to a temporary directory) or an in-process check, and
compares the sha256 of the joined stdout, the stdout or the exit code with
its expected value.  Prints ok or FAIL per row with the row's elapsed time;
exits 1 naming each FAIL.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from recasymp import (
    Frame, FrameMismatch, RecasympError, Recurrence, ResonantOrder, cli, format_rational,
    frame_solve, involutions as inv, residual_check, solve_expansion,
)

RECURRENCES = {
    "a85": [[1], [-1], [1, -1]],
    "factorial": [[1], [0, -1]],
    "twoterm": [[1], [-2], [0, -1]],
    "catalan": [[4, 4], [2, -4]],
    "motzkin": [[18, 9], [-3, -6], [3, -3]],
    "sparse": [[1], [], [], [0, -1]],
    "order3": [[1], [-1], [0, -1], [0, -1]],
    "harmonic": [[0, 1], [1, -2], [-1, 1]],
}


class Pin(NamedTuple):
    name: str
    reason: str
    run: tuple | Callable[[], None]  # CLI argvs, or a check that prints its output
    compare: str  # "sha256", "stdout" or "exit"
    expected: str | int


def _sweep() -> Iterator[list]:
    """The coefficient lists of 6000 seeded random recurrences of order 1 to 3."""
    rng = random.Random("frame finder outcomes")
    for _ in range(6000):
        coeffs = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
                  for _ in range(rng.randint(1, 3) + 1)]
        for end in (0, -1):
            while not any(coeffs[end]):
                coeffs[end] = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        yield coeffs


def frame_finder_outcomes() -> None:
    """One line per seeded random recurrence: its frame's JSON or its error."""
    for coeffs in _sweep():
        try:
            print(json.dumps(frame_solve(Recurrence(coeffs)).to_json_dict()))
        except Exception as err:
            print(f"{type(err).__name__}: {err}")


def _times(p: list, h: int) -> list:
    """The coefficients of p(n) * (n + h), constant term first."""
    out = [0] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i] += h * c
        out[i + 1] += c
    return out


def _at(p: list, s: int) -> list:
    """The coefficients of p(n + s), constant term first (Horner)."""
    out: list = []
    for c in reversed(p):
        out = _times(out, s)
        out[0] += c
    return out


#: Name, the transformed p_j from (j, p_j, order), and the frame it must
#: give from (beta, c, alpha); each derived without the program.
#: t'_n = (n + 2) t_n: p'_j = p_j prod_(i != j) (n - i + 2).
#: t'_n = n! t_n: p'_j = p_j n (n - 1) ... (n - j + 1).
#: t'_n = t_(n+1): p'_j(n) = p_j(n + 1).
RELATIONS = (
    ("(n + 2)-twist", lambda j, p, d: reduce(_times, (2 - i for i in range(d + 1) if i != j), p),
     lambda b, c, a: (b, c, a + 1)),
    ("n!-twist", lambda j, p, d: reduce(_times, range(0, -j, -1), p),
     lambda b, c, a: (b + 1, c, a + Fraction(1, 2))),
    ("index shift t(n+1)", lambda j, p, d: _at(p, 1),
     lambda b, c, a: (b, c, a + b)),
)


def _triple(rec: Recurrence) -> tuple | str:
    """(beta, c, alpha) of rec's frame, or the name of its typed error."""
    try:
        frame = frame_solve(rec)
    except RecasympError as err:
        return type(err).__name__
    return frame.beta, frame.c, frame.alpha


def metamorphic_sweep() -> None:
    """Over the sweep's frames, the exceptions to each relation (a frame
    other than the predicted one, or a typed error), one line each, then
    the split of the sign gauge p'_j = (-1)^j p_j: the same frame, a
    dominating one (same beta, larger (c, alpha)), another, or an error."""
    frames = []
    for coeffs in _sweep():
        got = _triple(Recurrence(coeffs))
        if not isinstance(got, str):
            frames.append((coeffs, got))
    print(f"{len(frames)} frames")
    for name, transform, predict in RELATIONS:
        misses = []
        for coeffs, frame in frames:
            d = len(coeffs) - 1
            got = _triple(Recurrence([transform(j, p, d) for j, p in enumerate(coeffs)]))
            if got != predict(*frame):
                misses.append(f"    {coeffs}: {got}")
        print(f"{name}: {len(misses)} exceptions", *misses, sep="\n")
    split: Counter = Counter()
    for coeffs, (beta, c, alpha) in frames:
        got = _triple(Recurrence([[(-1) ** j * a for a in p] for j, p in enumerate(coeffs)]))
        if isinstance(got, str):
            split[got] += 1
        elif got == (beta, c, alpha):
            split["same frame"] += 1
        elif got[0] == beta and got[1:] > (c, alpha):
            split["dominating"] += 1
        else:
            split["other"] += 1
    print("sign gauge:", ", ".join(f"{n} {kind}" for kind, n in sorted(split.items())))


def _family_draw(rng: random.Random, family: str, i: int) -> tuple:
    """(coeffs, (beta, c, alpha)) of one draw of a small family in its
    closed-form frame: t(n) = r(n) t(n-1) with r monic of degree d and n^(d-1)
    coefficient b, frame (d, 0, b + d/2); t(n) = u t(n-1) + (n+v) t(n-2),
    frame (1/2, u, (v+1)/2); t(n) = r(n) t(n-j), j in {2, 3}, frame
    (d/j, 0, d/2 + b/j)."""
    if family == "two_term":
        u, v = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)
        return [[1], [-u], [-v, -1]], (Fraction(1, 2), u, Fraction(v + 1, 2))
    d = 1 + i % (3 if family == "monic" else 2)
    r = [rng.randint(-3, 3) for _ in range(d)] + [1]
    if family == "monic":
        return [[1], [-c for c in r]], (d, 0, r[d - 1] + Fraction(d, 2))
    j = 2 + (i // 2) % 2
    frame = (Fraction(d, j), 0, Fraction(d, 2) + Fraction(r[d - 1], j))
    return [[1]] + [[]] * (j - 1) + [[-c for c in r]], frame


def _outcome(rec: Recurrence, frame: Frame, K: int) -> str:
    """Every a_k and the certificate's order, or the error's (type, k, order)."""
    try:
        exp = solve_expansion(rec, frame, K)
    except (FrameMismatch, ResonantOrder) as err:
        return f"{type(err).__name__} k={err.k} order={err.order}"
    return f"{' '.join(map(format_rational, exp.a))} | order {residual_check(rec, exp)}"


def engine_outcomes() -> None:
    """One line per seeded draw, frame and K: the draw's own frame, then one
    wrong frame, alpha (even draws) or c (odd draws) moved by 1/2; and the
    factorial at K = 100."""
    rng = random.Random("engine outcomes")
    for family in ("monic", "two_term", "sparse"):
        for i in range(20):
            coeffs, (beta, c, alpha) = _family_draw(rng, family, i)
            half = Fraction(1, 2)
            wrong = Frame(beta, c, alpha + half) if i % 2 == 0 else Frame(beta, c + half, alpha)
            rec = Recurrence(coeffs)
            for frame in (Frame(beta, c, alpha), wrong):
                for K in (0, 1, 5, 13, 24):
                    print(coeffs, frame.to_json_dict(), f"K={K}:", _outcome(rec, frame, K))
    factorial = Recurrence(RECURRENCES["factorial"])
    print("factorial K=100:", _outcome(factorial, Frame(1, 0, Fraction(1, 2)), 100))


def oracles_at_2000() -> None:
    print(f"EGF: {inv.involution_counts_by_egf(2000) == inv.involution_numbers(2000)}, "
          f"2-cycle sum: {inv.involution_count_by_sum(2000) == inv.involution_number(2000)}")


def _verify(name, k, reason, frame, orders):
    """The row of solve-frame --verify k on NAME.json: frame "beta c alpha", orders."""
    beta, c, alpha = frame.split()
    argvs = (("solve-frame", "--recurrence", f"{name}.json", "--verify", str(k)),)
    return Pin(f"{name} --verify {k}", reason, argvs, "stdout",
               f'{{"beta":"{beta}","c":"{c}","alpha":"{alpha}","kappa":"0"}}\n'
               f"verified: residual vanishes through {orders} orders\n")


PINS = (
    Pin("a85 coeffs --K 300", "the deep path past the K = 169 that tier-1 pins",
        (("coeffs", "--preset", "a85", "--K", "300", "--format", "json"),),
        "sha256", "d088198cc05c4be4d7496723e78e1d133920e1d6bae772f992098b525c2d2939"),
    Pin("factorial coeffs --K 300", "c = 0, beta = 1: the march in x^2 = 1/n, odd a_k zero",
        (("coeffs", "--recurrence", "factorial.json", "--K", "300", "--format", "json"),),
        "sha256", "e9bf65ba2dc5a2861188f4786739520b123ed0d61382adc99fdfc599589554f1"),
    Pin("twoterm coeffs --K 300", "frame (1/2, 2, 1/2): exp(beta A + c B) times exp(alpha C)",
        (("coeffs", "--recurrence", "twoterm.json", "--K", "300", "--format", "json"),),
        "sha256", "074f1844f087749eab6b6aa3a4890cbf7180d5b8ca7cce94490e5b1da58a6c1e"),
    _verify("twoterm", 300, "its solve and certificate in one process", "1/2 2 1/2", 300),
    Pin("frame finder outcomes", "6000 seeded recurrences of order 1 to 3 through frame_solve",
        frame_finder_outcomes,
        "sha256", "4fefbbbcc615e78ae91af84d1d4629ad095a8a9f0fad8148ec4006c81dbcbdc6"),
    _verify("a85", 300, "solve and certify at the K of the a85 coeffs sha", "1/2 1 0", 300),
    _verify("factorial", 25, "c = 0: weights, march and certificate in y = 1/n", "1 0 1/2", 25),
    _verify("factorial", 300, "the same at the K of its coeffs sha", "1 0 1/2", 301),
    Pin("harmonic --verify 30", "alpha^2 = 0 stands for a log n term: exit code 2",
        (("solve-frame", "--recurrence", "harmonic.json", "--verify", "30"),), "exit", 2),
    _verify("catalan", 30, "beta = 0, gauged by hand to t = rho^n u", "0 0 -3/2", 31),
    _verify("motzkin", 30, "beta = 0, gauged by hand to t = rho^n u", "0 0 -3/2", 31),
    _verify("sparse", 30, "t(n) = n t(n-3): beta = 1/3, j = 3 in y = 1/n", "1/3 0 1/2", 31),
    _verify("order3", 60, "t(n) = t(n-1) + n t(n-2) + n t(n-3): reach 6 against d = 2",
            "1/2 2 -1/2", 60),
    Pin("numeric layer", "eval at n up to 10^400 and k up to 60, constant and check",
        tuple(("eval", "--preset", "a85", "--n", str(10**e), "--k", str(k), "--digits", "30")
              for e in (3, 5, 50, 400) for k in (0, 1, 17, 60)) + (
            ("constant", "--preset", "a85", "--n", "100000", "--k", "30", "--digits", "30"),
            ("check", "--preset", "a85", "--n", "2500", "--k", "20", "--digits", "25")),
        "sha256", "201564861c8341b0fa59c8e5e8d47008cda7d6822464f1db3c9e54349ab8ef2b"),
    Pin("numeric layer, constants and JSON", "rational and 1/sqrt2 --constant, check's JSON",
        tuple(("eval", "--preset", "a85", "--n", str(10**e), "--k", str(k), "--digits", "30",
               "--constant", c) for e in (3, 50) for c in ("3/7", "1/sqrt2") for k in (1, 17)) + (
            ("check", "--preset", "a85", "--n", "10000", "--k", "20", "--digits", "30",
             "--format", "json"),),
        "sha256", "be3dcd99a21fd6a3ec89d7e1b5a42915c5ef3718ae712a5994246502edb97065"),
    Pin("engine outcomes", "60 seeded family draws in their frames and a wrong one, K up to 24",
        engine_outcomes,
        "sha256", "127f9bbfef338cab8e0262f8a78da23fa7b5e5b9528f4a84bd451f023a66ad15"),
    Pin("metamorphic sweep", "the sweep's frames under three exact relations, and the sign gauge",
        metamorphic_sweep, "stdout",
        "877 frames\n(n + 2)-twist: 0 exceptions\nn!-twist: 0 exceptions\n"
        "index shift t(n+1): 0 exceptions\n"
        "sign gauge: 610 NoRationalRoot, 54 dominating, 47 other, 166 same frame\n"),
    Pin("oracles at n = 2000", "EGF table and 2-cycle sum at twice the n tier-1 reaches",
        oracles_at_2000, "stdout", "EGF: True, 2-cycle sum: True\n"),
)


def observe(pin: Pin, tmp: str):
    """The exit code, or the stdout or its sha256; a nonzero exit code or an
    exception stands in for the stdout.  NAME.json files are read in tmp."""
    out, log = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(log):
            codes = [pin.run()] if callable(pin.run) else [cli.main(
                [str(Path(tmp, a)) if a.endswith(".json") else a for a in argv])
                for argv in pin.run]
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    code = next(filter(None, codes), 0)
    if pin.compare == "exit":
        return code
    if code:
        return f"exit code {code}: " + log.getvalue().partition("\n")[0]
    text = out.getvalue()
    return hashlib.sha256(text.encode()).hexdigest() if pin.compare == "sha256" else text


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, coeffs in RECURRENCES.items():
            Path(tmp, f"{name}.json").write_text(json.dumps({"coeffs": coeffs}))
        for pin in PINS:
            start = perf_counter()
            got = observe(pin, tmp)
            elapsed = perf_counter() - start
            print("ok  " if got == pin.expected else "FAIL",
                  f"{pin.name}: {pin.reason} ({elapsed:.2f} s)")
            if got != pin.expected:
                failed.append(pin.name)
                print(f"     expected {pin.expected!r}\n     got      {got!r}")
    if failed:
        print(f"{len(failed)} of {len(PINS)} pins failed: {'; '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
