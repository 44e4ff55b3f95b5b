"""Command line interface.

Subcommands:

    seq          exact sequence values from a preset recurrence
    coeffs       solve for expansion coefficients (text, JSON or LaTeX)
    eval         evaluate an expansion numerically at one index
    check        compare an expansion against the exact sequence
    solve-frame  determine the growth frame of a recurrence
    render       LaTeX for a solved expansion
    constant     estimate the connection constant from exact values

Exit codes: 0 success, 1 usage or input errors, 2 exact-computation
failures (wrong frame, resonance, no usable frame), 3 precision failures
(requested digits cannot be delivered honestly).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from functools import lru_cache

from .engine import residual_check, solve_expansion
from .errors import EvaluationError, RecasympError
from .evaluate import connection_constant, eval_expansion, format_significant, ratio_check
from .frame import Frame
from .framesolve import frame_solve
from .presets import INV_SQRT2, get_preset
from .rationals import format_rational, parse_rational
from .recurrence import Recurrence
from .render import expansion_to_latex

#: Significant digits used by the one-line big-integer summaries.
SUMMARY_DIGITS = 20

#: Integers up to this many bits go to Decimal in one conversion; on
#: CPython 3.11 splitting starts to pay at about 30000 bits.
_DECIMAL_SPLIT_BITS = 32768


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _compact_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _load(path: str, what: str, parse):
    """parse(the JSON payload of path); a failure is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read {what} from {path}: {exc}") from None
    except ValueError:
        # json.load reads an integer with int(), which refuses one longer
        # than the int-string digit limit of Python 3.11+; the limit stays.
        raise _UsageError(
            f"cannot read {what} from {path}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits, Python's int-string limit"
        ) from None
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad {what} file {path}: {exc}") from None


def _problem(args) -> tuple[Recurrence, Frame, object, str | None]:
    """(recurrence, frame, constant, constant_latex) from --preset or
    --recurrence/--frame options."""
    if args.preset is not None:
        preset = get_preset(args.preset)
        return preset.recurrence, preset.frame, preset.constant, preset.constant_latex
    rec = _load(args.recurrence, "recurrence", Recurrence.from_json_dict)
    frame = _load(args.frame, "frame", Frame.from_json_dict) if args.frame else frame_solve(rec)
    return rec, frame, None, None


def _got(text: str) -> str:
    """A rejected option value for its usage message: whole up to 40
    characters, else its first 20 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def _at_least(name: str, low: int):
    """An argparse type: an integer >= low.  argparse prefixes each
    message with the flag, so a usage error always names it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # Past Python's int-string digit limit, int() fails as on junk.
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            need = f" of at most {limit} digits" if 0 < limit < len(text) else ""
            raise argparse.ArgumentTypeError(f"need an integer{need}, got {_got(text)}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"need {name} >= {low}, got {value}")
        return value

    return parse


def _constant(text: str):
    """An argparse type: 'p/q' or the 1/sqrt2 sentinel."""
    if text in ("1/sqrt2", "1/sqrt(2)"):
        return INV_SQRT2
    try:
        return parse_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need 'p/q' or '1/sqrt2', got {_got(text)}"
        ) from None


def _digit_count(value: int) -> int:
    """Decimal digits of a positive integer without converting it to
    decimal, which takes time quadratic in its length.  The bit length b
    puts the count at floor((b - 1) log10 2) + 1 or one more; the factor
    below is just under log10 2, so the start is never too high, and
    comparing with the next power of ten settles it."""
    digits = (value.bit_length() - 1) * 3010299956 // 10**10 + 1
    power = 10**digits
    while value >= power:
        digits += 1
        power *= 10
    return digits


def _decimal(value: int) -> Decimal:
    """A non-negative integer as an exact Decimal, printed past the
    int-to-str digit limit of Python 3.11+ that str() of an int enforces;
    the interpreter-wide limit stays as it is.

    Decimal(value) takes time quadratic in the length, so past
    _DECIMAL_SPLIT_BITS the integer is split by bits into halves and
    rebuilt as hi * 2^h + lo in exact Decimal arithmetic, whose big
    products are fast.  Halving gives at most two widths per level, and
    each power of two is computed once."""
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    powers: dict[int, Decimal] = {}

    def convert(v: int, bits: int) -> Decimal:
        if bits <= _DECIMAL_SPLIT_BITS:
            return Decimal(v)
        h = bits // 2
        if h not in powers:
            powers[h] = ctx.power(2, h)
        hi = convert(v >> h, bits - h)
        return ctx.add(ctx.multiply(hi, powers[h]), convert(v & ((1 << h) - 1), h))

    return convert(value, value.bit_length())


def _integer_summary(value: int) -> str:
    return f"{_digit_count(value)} digits; {format_significant(value, SUMMARY_DIGITS)}"


# -- commands ---------------------------------------------------------------


def _cmd_seq(args) -> int:
    preset = get_preset(args.preset)
    if args.digits_only:
        print(_integer_summary(preset.term(args.n)))
    elif args.last:
        print(_decimal(preset.term(args.n)))
    else:
        for v in preset.sequence(args.n):
            print(_decimal(v))
    return 0


def _cmd_coeffs(args) -> int:
    if args.frame is not None and args.recurrence is None:
        # A preset brings its own frame; a --frame beside it would be ignored.
        raise _UsageError("argument --frame: needs --recurrence, not --preset")
    rec, frame, _, constant_latex = _problem(args)
    exp = solve_expansion(rec, frame, args.k)
    if args.format == "json":
        print(_compact_json(exp.to_json_dict()))
    elif args.format == "latex":
        print(expansion_to_latex(exp, constant_latex=constant_latex))
    else:
        for k in range(1, exp.K + 1):
            print(f"{k}: {format_rational(exp.coefficient(k))}")
    return 0


def _cmd_eval(args) -> int:
    rec, frame, constant, _ = _problem(args)
    exp = solve_expansion(rec, frame, args.k)
    if args.constant is not None:
        constant = args.constant
    value = eval_expansion(exp, constant, args.n, args.k, args.digits)
    rendered = format_significant(value, args.digits)
    if args.format == "json":
        print(
            _compact_json(
                {"n": args.n, "k": args.k, "digits": args.digits, "value": rendered}
            )
        )
    else:
        print(rendered)
    return 0


def _cmd_check(args) -> int:
    get_preset(args.preset)  # ratio_check knows a85 alone; reject the rest
    report = ratio_check(args.n, args.k, args.digits)
    if args.format == "json":
        out = _compact_json(report.to_json_dict())
    else:
        out = "\n".join(
            [
                f"n: {report.n}",
                f"k: {report.k}",
                f"digits: {report.digits}",
                f"asy: {format_significant(report.asy, report.digits)}",
                f"exact: {format_significant(report.exact, report.digits)}",
                f"ratio: {format_significant(report.ratio, report.digits)}",
                f"working precision: {report.working_dps} dps",
            ]
        )
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write report to {args.report}: {exc}") from None
        print(f"report written to {args.report}")
    else:
        print(out)
    return 0


def _cmd_solve_frame(args) -> int:
    rec = _load(args.recurrence, "recurrence", Recurrence.from_json_dict)
    frame = frame_solve(rec)
    payload = frame.to_json_dict()
    if args.verify is None:
        print(_compact_json(payload))
    else:
        exp = solve_expansion(rec, frame, args.verify)
        order = residual_check(rec, exp)
        if args.format == "json":
            print(_compact_json({"frame": payload, "verified_order": order}))
        else:
            print(_compact_json(payload))
            print(f"verified: residual vanishes through {order} orders")
    return 0


def _cmd_constant(args) -> int:
    rec, frame, _, _ = _problem(args)
    exp = solve_expansion(rec, frame, args.k)
    value = connection_constant(rec, exp, args.n, args.k, args.digits)
    print(format_significant(value, args.digits))
    return 0


# -- parser -----------------------------------------------------------------


def _add_format(p, *choices):
    p.add_argument(
        "--format",
        choices=choices,
        default="text",
        help="output format (default text)",
    )


def _add_evaluation(p):
    p.add_argument("--n", type=_at_least("n", 1), required=True, help="index (>= 1)")
    p.add_argument(
        "--k", type=_at_least("k", 0), required=True, help="correction terms to use"
    )
    p.add_argument(
        "--digits", type=_at_least("digits", 1), required=True, help="significant digits"
    )


# One parser per process: a parse leaves it as it was, and it costs more than eval.
@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    parser = _Parser(
        prog="recasymp",
        description="Exact asymptotic expansions of polynomial-coefficient "
        "linear recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("seq", help="exact sequence values")
    p.add_argument("--preset", required=True, help="preset name (a85)")
    p.add_argument(
        "--n", type=_at_least("n", 0), required=True, help="last index, inclusive"
    )
    p.add_argument("--last", action="store_true", help="print only t_n")
    p.add_argument(
        "--digits-only",
        action="store_true",
        help="print a one-line size summary of t_n instead of the integer",
    )
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("coeffs", help="solve for expansion coefficients")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset name (a85)")
    source.add_argument("--recurrence", help="path to a recurrence JSON file")
    p.add_argument(
        "--frame",
        help="path to a frame JSON file (with --recurrence; solved if omitted)",
    )
    p.add_argument(
        "--K",
        dest="k",
        type=_at_least("K", 1),
        required=True,
        help="number of coefficients (>= 1)",
    )
    _add_format(p, "text", "json", "latex")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate an expansion at one index")
    p.add_argument("--preset", required=True, help="preset name (a85)")
    _add_evaluation(p)
    p.add_argument(
        "--constant",
        type=_constant,
        help="connection constant: 'p/q' or '1/sqrt2' (default: the preset's); "
        "write a negative one as --constant=-p/q",
    )
    _add_format(p, "text", "json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="compare an expansion with exact values")
    p.add_argument("--preset", required=True, help="preset name (a85)")
    _add_evaluation(p)
    p.add_argument("--report", help="also write the report to this file")
    _add_format(p, "text", "json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve-frame", help="determine the growth frame")
    p.add_argument("--recurrence", required=True, help="path to a recurrence JSON file")
    p.add_argument(
        "--verify",
        type=_at_least("K", 0),
        metavar="K",
        help="also solve K coefficients and certify the residual",
    )
    _add_format(p, "text", "json")
    p.set_defaults(func=_cmd_solve_frame)

    p = sub.add_parser("render", help="LaTeX for a solved expansion")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset name (a85)")
    source.add_argument("--recurrence", help="path to a recurrence JSON file")
    p.add_argument("--frame", help="path to a frame JSON file")
    p.add_argument(
        "--k", type=_at_least("k", 0), required=True, help="terms to display"
    )
    # render is coeffs --format latex, with its own --k >= 0 bound.
    p.set_defaults(func=_cmd_coeffs, format="latex")

    p = sub.add_parser(
        "constant", help="estimate the connection constant from exact values"
    )
    p.add_argument("--preset", required=True, help="preset name (a85)")
    _add_evaluation(p)
    p.set_defaults(func=_cmd_constant)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    except RecasympError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
