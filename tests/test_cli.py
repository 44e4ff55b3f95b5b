"""The command line surface: outputs, formats, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recasymp import Expansion, presets
from recasymp.cli import _DECIMAL_SPLIT_BITS, _decimal, build_parser, main
from recasymp.involutions import EXACT_INDEX_LIMIT, involution_count_by_sum

FACT_REC = {"order": 1, "coeffs": [[1], [0, -1]]}
AMBIGUOUS_REC = {"order": 2, "coeffs": [[1], [-2, -2], [0, 0, 1]]}
GEOMETRIC_REC = {"order": 1, "coeffs": [[1], [-2]]}
A85_FRAME = {"beta": "1/2", "c": "1", "alpha": "0", "kappa": "-1/4"}
# The interpreter's int-to-str digit limit (Python 3.11+) as the session
# starts; no command may change it.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: None)()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# -- seq ------------------------------------------------------------------------


def test_seq_lists_values(capsys):
    code, out, _ = run(capsys, "seq", "--preset", "a85", "--n", "6")
    assert code == 0
    assert out.splitlines() == ["1", "1", "2", "4", "10", "26", "76"]


def test_seq_last(capsys):
    code, out, _ = run(capsys, "seq", "--preset", "a85", "--n", "10", "--last")
    assert (code, out.strip()) == (0, "9496")


def test_seq_n_zero(capsys):
    code, out, _ = run(capsys, "seq", "--preset", "a85", "--n", "0")
    assert (code, out.strip()) == (0, "1")


def test_seq_digits_only_summary(capsys):
    code, out, _ = run(
        capsys, "seq", "--preset", "a85", "--n", "1000", "--digits-only"
    )
    assert code == 0
    assert out.strip() == "1297 digits; 2.1439289538422655419e1296"


@pytest.mark.parametrize(
    "mode", [[], ["--last"], ["--digits-only"]], ids=["list", "last", "digits-only"]
)
def test_seq_past_the_int_to_str_digit_limit(capsys, monkeypatch, mode):
    # t_3000 has 4588 digits, past the 4300 that str() of an int allows on
    # Python 3.11+; the CLI converts without touching that limit.  Its
    # 15241 bits are split four levels deep at this split size.
    monkeypatch.setattr("recasymp.cli._DECIMAL_SPLIT_BITS", 1024)
    code, out, _ = run(capsys, "seq", "--preset", "a85", "--n", "3000", *mode)
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == INT_DIGIT_LIMIT
    last = out.splitlines()[-1]
    if mode == ["--digits-only"]:
        assert last == "4588 digits; 5.8972648739430762467e4587"
    else:
        assert last == str(Decimal(involution_count_by_sum(3000)))
    if mode == ["--last"]:
        assert out == last + "\n"
    if not mode:
        assert len(out.splitlines()) == 3001


def test_split_decimal_conversion_matches_decimal():
    for bits in (0, 1, _DECIMAL_SPLIT_BITS, _DECIMAL_SPLIT_BITS + 1, 2 * _DECIMAL_SPLIT_BITS + 3):
        for value in (2**bits - 1, 2**bits, 2**bits + 1, 2**bits // 3):
            assert str(_decimal(value)) == str(Decimal(value))


@pytest.mark.parametrize(
    "mode, want",
    [("--last", "9496"), ("--digits-only", "4 digits; 9496.0000000000000000")],
)
def test_seq_single_value_modes_skip_the_list(capsys, monkeypatch, mode, want):
    def no_list(n):
        raise AssertionError("the whole list was built")

    a85 = dataclasses.replace(presets.PRESETS["a85"], sequence=no_list)
    monkeypatch.setitem(presets.PRESETS, "a85", a85)
    code, out, _ = run(capsys, "seq", "--preset", "a85", "--n", "10", mode)
    assert (code, out.strip()) == (0, want)


# 2^13301 is the first power of two whose digit count a five-digit log10 2
# (0.30103, just above it) would overestimate.
@pytest.mark.parametrize(
    "base, j", [(10, 1), (10, 4299), (10, 4300), (10, 4301), (10, 20000), (2, 13301)]
)
def test_seq_digits_only_counts_digits_at_powers(capsys, monkeypatch, base, j):
    for value in (base**j - 1, base**j, base**j + 1):
        a85 = dataclasses.replace(presets.PRESETS["a85"], term=lambda n, v=value: v)
        monkeypatch.setitem(presets.PRESETS, "a85", a85)
        code, out, _ = run(capsys, "seq", "--preset", "a85", "--n", "1", "--digits-only")
        assert code == 0
        assert out.split()[:2] == [str(Decimal(value).adjusted() + 1), "digits;"]


def test_seq_negative_n_is_usage_error(capsys):
    code, _, err = run(capsys, "seq", "--preset", "a85", "--n", "-1")
    assert code == 1
    assert "error" in err


def test_unknown_preset_is_usage_error(capsys):
    for argv in (
        ("seq", "--preset", "nope", "--n", "3"),
        ("check", "--preset", "bogus", "--n", "100", "--k", "1", "--digits", "5"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unknown preset" in err


@pytest.mark.parametrize(
    "argv",
    [("coeffs", "--K", "1"), ("render", "--k", "1"),
     ("eval", "--n", "10", "--k", "1", "--digits", "5"),
     ("constant", "--n", "10", "--k", "1", "--digits", "1")],
    ids=["coeffs", "render", "eval", "constant"],
)
def test_empty_preset_name_is_an_unknown_preset(capsys, argv):
    # An empty --preset is a name, not a missing option: it is never read
    # as a request for --recurrence.
    code, out, err = run(capsys, argv[0], "--preset", "", *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: unknown preset ''; available: a85\n"


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "seq", "--preset", "a85", "--n", "3", "--frobnicate")
    assert code == 1
    assert "error" in err


# -- coeffs ----------------------------------------------------------------------


def test_coeffs_text(capsys):
    code, out, _ = run(capsys, "coeffs", "--preset", "a85", "--K", "2")
    assert code == 0
    assert out.splitlines() == ["1: 7/24", "2: -119/1152"]


def test_coeffs_json_is_compact_and_round_trips(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--preset", "a85", "--K", "2", "--format", "json"
    )
    assert code == 0
    line = out.strip()
    assert line == (
        '{"frame":{"beta":"1/2","c":"1","alpha":"0","kappa":"-1/4"},'
        '"K":2,"a":["7/24","-119/1152"]}'
    )
    # Byte-identical round trip through the library types.
    exp = Expansion.from_json_dict(json.loads(line))
    assert json.dumps(exp.to_json_dict(), separators=(",", ":")) == line


def test_coeffs_k60_json_is_byte_identical(capsys):
    # sha256 of the exact stdout: any change in a coefficient or in the
    # formatting moves it.
    code, out, _ = run(
        capsys, "coeffs", "--preset", "a85", "--K", "60", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "21e232093679fadae0bd22f7d6a0d899c6c4061633b8ac4f4e41b7073764b07c"
    )


def test_coeffs_k169_json_is_byte_identical(capsys):
    # The deep expansion of acceptance criterion 2 through the CLI; the
    # digest was taken from the per-coefficient Fraction kernels.
    code, out, _ = run(
        capsys, "coeffs", "--preset", "a85", "--K", "169", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "71513e54e463c9442e38aecdac8e5bd820633084dc07c1a28290ef2320d38bba"
    )


def test_coeffs_latex(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--preset", "a85", "--K", "9", "--format", "latex"
    )
    assert code == 0
    assert r"\frac{1}{\sqrt{2}}" in out
    assert r"\frac{7}{24 \sqrt{n}}" in out
    assert r"- \frac{119}{1152 n}" in out
    assert r"\frac{10362392814297883973}{263631258054033408000 n^{\frac{9}{2}}}" in out


def test_coeffs_requires_positive_K(capsys):
    code, _, err = run(capsys, "coeffs", "--preset", "a85", "--K", "0")
    assert code == 1
    assert "--K" in err


def test_coeffs_from_recurrence_file_with_auto_frame(tmp_path, capsys):
    rec = write_json(tmp_path, "fact.json", FACT_REC)
    code, out, _ = run(capsys, "coeffs", "--recurrence", rec, "--K", "2")
    assert code == 0
    assert out.splitlines() == ["1: 0", "2: 1/12"]


def test_coeffs_from_recurrence_and_frame_files(tmp_path, capsys):
    rec = write_json(tmp_path, "a85.json", {"order": 2, "coeffs": [[1], [-1], [1, -1]]})
    frame = write_json(tmp_path, "frame.json", A85_FRAME)
    code, out, _ = run(
        capsys, "coeffs", "--recurrence", rec, "--frame", frame, "--K", "1"
    )
    assert (code, out.strip()) == (0, "1: 7/24")


def test_coeffs_preset_and_recurrence_conflict(tmp_path, capsys):
    rec = write_json(tmp_path, "fact.json", FACT_REC)
    code, _, err = run(
        capsys, "coeffs", "--preset", "a85", "--recurrence", rec, "--K", "1"
    )
    assert code == 1
    assert "not allowed" in err


@pytest.mark.parametrize(
    "command, count", [("coeffs", "--K"), ("render", "--k")], ids=["coeffs", "render"]
)
def test_frame_beside_a_preset_is_usage_error(capsys, command, count):
    code, out, err = run(
        capsys, command, "--preset", "a85", "--frame", "/nonexistent.json", count, "2"
    )
    assert (code, out) == (1, "")
    assert "--frame" in err and "--recurrence" in err


def test_coeffs_missing_file(capsys):
    code, _, err = run(capsys, "coeffs", "--recurrence", "/no/such.json", "--K", "1")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("key, value", [("beta", True), ("c", 1.0)])
def test_coeffs_frame_file_with_inexact_value_is_usage_error(tmp_path, capsys, key, value):
    # A bool is not read as 1, just as a float is not read as a rational.
    rec = write_json(tmp_path, "a85.json", {"order": 2, "coeffs": [[1], [-1], [1, -1]]})
    frame = write_json(tmp_path, "frame.json", {**A85_FRAME, key: value})
    code, out, err = run(
        capsys, "coeffs", "--recurrence", rec, "--frame", frame, "--K", "1"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: bad frame file ")


def test_coeffs_recurrence_file_with_infinite_order_is_usage_error(tmp_path, capsys):
    # JSON's Infinity loads as a float; like 1.5, true and "1" it is not an
    # int order, even where int() would accept it.
    rec = tmp_path / "order.json"
    for order in ("Infinity", "1.5", "1.0", "true", '"1"'):
        rec.write_text(f'{{"order": {order}, "coeffs": [[1], [0, -1]]}}', encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--recurrence", str(rec), "--K", "1")
        assert (code, out) == (1, ""), order
        assert err.startswith("error: bad recurrence file "), order


def test_coeffs_malformed_recurrence_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "coeffs", "--recurrence", str(bad), "--K", "1")
    assert code == 1
    assert "cannot read" in err


def test_recurrence_file_past_the_int_digit_limit_is_usage_error(tmp_path, capsys):
    # json.load refuses an integer past Python's int-string limit with a
    # plain ValueError; the message names the file and the limit.
    rec = tmp_path / "long.json"
    rec.write_text('{"coeffs": [[1], [0, -1' + "0" * 5000 + "]]}", encoding="utf-8")
    code, out, err = run(capsys, "coeffs", "--recurrence", str(rec), "--K", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read recurrence from {rec}: ")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err and len(err) < 300
    assert "set_int_max_str_digits" not in err


# -- eval ------------------------------------------------------------------------


def test_eval_text(capsys):
    code, out, _ = run(
        capsys, "eval", "--preset", "a85", "--n", "1000", "--k", "1",
        "--digits", "20",
    )
    assert (code, out.strip()) == (0, "2.1441496003431008422e1296")


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--preset", "a85", "--n", "1000", "--k", "1",
        "--digits", "20", "--format", "json",
    )
    assert code == 0
    assert out.strip() == (
        '{"n":1000,"k":1,"digits":20,"value":"2.1441496003431008422e1296"}'
    )


def test_eval_explicit_constant(capsys):
    code, out, _ = run(
        capsys, "eval", "--preset", "a85", "--n", "4", "--k", "0",
        "--digits", "5", "--constant", "1",
    )
    # 16 e^(-1/4) = 12.461; the default 1/sqrt2 constant gives 8.8111.
    assert (code, out.strip()) == (0, "12.461")
    code, out, _ = run(
        capsys, "eval", "--preset", "a85", "--n", "4", "--k", "0",
        "--digits", "5", "--constant", "1/sqrt2",
    )
    assert (code, out.strip()) == (0, "8.8111")


def test_eval_bad_constant(capsys):
    code, _, err = run(
        capsys, "eval", "--preset", "a85", "--n", "4", "--k", "0",
        "--digits", "5", "--constant", "sqrt3",
    )
    assert code == 1
    assert "error" in err


def test_eval_negative_constant_takes_an_equals_sign(capsys):
    argv = ("eval", "--preset", "a85", "--n", "1000", "--k", "1", "--digits", "20")
    code, out, _ = run(capsys, *argv, "--constant=1/3")
    assert code == 0
    assert run(capsys, *argv, "--constant=-1/3") == (0, "-" + out, "")
    # With a space, argparse reads -1/3 as a flag of its own.
    code, _, err = run(capsys, *argv, "--constant", "-1/3")
    assert code == 1
    assert "argument --constant: expected one argument" in err


def test_eval_invalid_n(capsys):
    code, _, err = run(
        capsys, "eval", "--preset", "a85", "--n", "0", "--k", "1", "--digits", "5"
    )
    assert code == 1
    assert "n >= 1" in err


def test_eval_beyond_float_range_does_not_crash(capsys):
    # n log n overflows a float here; precision is sized from logarithms.
    code, out, err = run(
        capsys, "eval", "--preset", "a85", "--n", str(10**400), "--k", "3",
        "--digits", "10",
    )
    assert code in (0, 3)
    if code == 0:
        assert out.strip().startswith("5.365687672e")
    else:
        assert "error" in err


# -- check -----------------------------------------------------------------------


def test_check_text(capsys):
    code, out, _ = run(
        capsys, "check", "--preset", "a85", "--n", "1000", "--k", "1",
        "--digits", "20",
    )
    assert code == 0
    lines = out.splitlines()
    assert "n: 1000" in lines
    assert "asy: 2.1441496003431008422e1296" in lines
    assert "ratio: 1.0001029168902448312" in lines
    assert "working precision: 34 dps" in lines


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "--preset", "a85", "--n", "1000", "--k", "1",
        "--digits", "20", "--format", "json",
    )
    assert code == 0
    assert out.strip() == (
        '{"n":1000,"k":1,"asy":"2.1441496003431008422e1296",'
        '"ratio":"1.0001029168902448312","digits":20}'
    )


def test_check_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "check", "--preset", "a85", "--n", "200", "--k", "2",
        "--digits", "10", "--format", "json", "--report", str(report),
    )
    assert code == 0
    assert str(report) in out
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["n"] == 200
    assert payload["k"] == 2


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_check_unwritable_report_is_usage_error(tmp_path, capsys, where):
    report = tmp_path / "missing" / "r.txt" if where == "missing-dir" else tmp_path
    code, out, err = run(
        capsys, "check", "--preset", "a85", "--n", "100", "--k", "1",
        "--digits", "10", "--report", str(report),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write report to {report}: ")
    assert err.count("\n") == 1


# -- solve-frame -------------------------------------------------------------------


def test_solve_frame_factorial(tmp_path, capsys):
    rec = write_json(tmp_path, "fact.json", FACT_REC)
    code, out, _ = run(capsys, "solve-frame", "--recurrence", rec)
    assert code == 0
    assert out.strip() == '{"beta":"1","c":"0","alpha":"1/2","kappa":"0"}'


def test_solve_frame_verify(tmp_path, capsys):
    rec = write_json(tmp_path, "fact.json", FACT_REC)
    code, out, _ = run(capsys, "solve-frame", "--recurrence", rec, "--verify", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '{"beta":"1","c":"0","alpha":"1/2","kappa":"0"}'
    assert lines[1].startswith("verified: residual vanishes through ")
    assert int(lines[1].split()[-2]) >= 4


def test_solve_frame_verify_json(tmp_path, capsys):
    rec = write_json(tmp_path, "fact.json", FACT_REC)
    code, out, _ = run(
        capsys, "solve-frame", "--recurrence", rec, "--verify", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["frame"] == {"beta": "1", "c": "0", "alpha": "1/2", "kappa": "0"}
    assert payload["verified_order"] >= 4


def test_solve_frame_ambiguous_is_computation_error(tmp_path, capsys):
    rec = write_json(tmp_path, "amb.json", AMBIGUOUS_REC)
    code, _, err = run(capsys, "solve-frame", "--recurrence", rec)
    assert code == 2
    assert "computation error" in err
    assert "-2" in err and "2" in err  # all candidates reported


def test_solve_frame_geometric_is_computation_error(tmp_path, capsys):
    rec = write_json(tmp_path, "geo.json", GEOMETRIC_REC)
    code, _, err = run(capsys, "solve-frame", "--recurrence", rec)
    assert code == 2
    assert "computation error" in err


# -- render ------------------------------------------------------------------------


def test_render_preset(capsys):
    code, out, _ = run(capsys, "render", "--preset", "a85", "--k", "2")
    assert code == 0
    assert out.strip() == (
        r"\frac{1}{\sqrt{2}} \, n^{\frac{n}{2}} \, e^{-\frac{n}{2} + \sqrt{n} - \frac{1}{4}}"
        r" \left( 1 + \frac{7}{24 \sqrt{n}} - \frac{119}{1152 n}"
        r" + O\!\left(\frac{1}{n^{\frac{3}{2}}}\right) \right)"
    )


def test_render_from_file_has_no_constant(tmp_path, capsys):
    rec = write_json(tmp_path, "fact.json", FACT_REC)
    code, out, _ = run(capsys, "render", "--recurrence", rec, "--k", "2")
    assert code == 0
    assert out.startswith(r"n^{n} \, e^{-n} \, \sqrt{n}")


@pytest.mark.parametrize(
    "source, k",
    [(("--preset", "a85"), 1), (("--preset", "a85"), 3),
     (("--recurrence", "{fact}"), 2), (("--recurrence", "{a85}", "--frame", "{frame}"), 3)],
    ids=["preset-k1", "preset-k3", "file-auto-frame", "file-with-frame"],
)
def test_render_is_coeffs_in_latex(tmp_path, capsys, source, k):
    files = {
        "{fact}": write_json(tmp_path, "fact.json", FACT_REC),
        "{a85}": write_json(tmp_path, "a85.json", A85_REC),
        "{frame}": write_json(tmp_path, "frame.json", A85_FRAME),
    }
    source = [files.get(a, a) for a in source]
    rendered = run(capsys, "render", *source, "--k", str(k))
    coeffs = run(capsys, "coeffs", *source, "--K", str(k), "--format", "latex")
    assert rendered == coeffs
    assert rendered[0] == 0 and rendered[1]


def test_render_k_zero_is_the_bare_frame(capsys):
    # coeffs refuses --K 0; render shows the frame and the O-term alone.
    code, out, err = run(capsys, "render", "--preset", "a85", "--k", "0")
    assert (code, err) == (0, "")
    assert out == (
        r"\frac{1}{\sqrt{2}} \, n^{\frac{n}{2}} \, e^{-\frac{n}{2} + \sqrt{n} - \frac{1}{4}}"
        r" \left( 1 + O\!\left(\frac{1}{\sqrt{n}}\right) \right)" "\n"
    )


# -- constant ----------------------------------------------------------------------


def test_constant_estimates_inv_sqrt2(capsys):
    code, out, _ = run(
        capsys, "constant", "--preset", "a85", "--n", "2500", "--k", "20",
        "--digits", "20",
    )
    assert (code, out.strip()) == (0, "0.70710678118654752440")


@pytest.mark.parametrize("command", ["check", "constant"])
def test_exact_value_past_the_cap_is_refused_at_once(capsys, command):
    start = time.perf_counter()
    code, out, err = run(
        capsys, command, "--preset", "a85", "--n", "1000000000", "--k", "1",
        "--digits", "5",
    )
    assert (code, out) == (2, "")
    assert f"capped at n = {EXACT_INDEX_LIMIT}" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "n, digits, result",
    [(50, 24, 3), (50, 5, "0.70711"), (2, 1, 3)],
    ids=["n50-24-digits", "n50-5-digits", "n2-1-digit"],
)
def test_constant_stops_at_the_recessive_floor(capsys, n, digits, result):
    # t_n carries the recessive solution at e^(-2 sqrt n) relative, 7.2e-7
    # at n = 50 and 0.06 at n = 2, so the constant 1/sqrt 2 = 0.7071067811...
    # holds to 5 digits at n = 50 and none at n = 2 whatever k is.
    code, out, err = run(
        capsys, "constant", "--preset", "a85", "--n", str(n), "--k", "30",
        "--digits", str(digits),
    )
    if result == 3:
        assert (code, out) == (3, "")
        assert "precision error" in err
    else:
        assert (code, out, err) == (0, result + "\n", "")


def test_constant_beyond_floor_is_precision_error(capsys):
    code, _, err = run(
        capsys, "constant", "--preset", "a85", "--n", "100", "--k", "4",
        "--digits", "50",
    )
    assert code == 3
    assert "precision error" in err


# -- usage messages ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag, says",
    [
        (("eval", "--preset", "a85", "--n", "4", "--k", "0", "--digits", "5",
          "--constant", "abc"), "--constant", "got 'abc'"),
        (("eval", "--preset", "a85", "--n", "4", "--k", "-1", "--digits", "5"), "--k",
         "need k >= 0"),
        (("seq", "--preset", "a85", "--n", "-1"), "--n", "need n >= 0"),
        # More digits than Python's int-string limit (4300 by default): the
        # message names the limit and echoes a prefix, not all 5001 digits.
        (("eval", "--preset", "a85", "--n", "1" + "0" * 5000, "--k", "0", "--digits",
          "5"), "--n", f"at most {sys.get_int_max_str_digits()} digits"),
        (("eval", "--preset", "a85", "--n", "4", "--k", "0", "--digits", "5",
          "--constant", "1" + "0" * 5000), "--constant", "(5001 characters)"),
        (("eval", "--preset", "a85", "--n", "4", "--k", "0", "--digits", "5",
          "--constant", "1/1" + "0" * 5000), "--constant", "(5003 characters)"),
    ],
    ids=["eval-constant-abc", "eval-k-negative", "seq-n-negative", "eval-n-past-int-limit",
         "eval-constant-past-int-limit", "eval-constant-denominator-past-int-limit"],
)
def test_usage_error_names_its_flag(capsys, argv, flag, says):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: argument {flag}: ")
    assert says in err and len(err) < 200
    assert "invalid literal" not in err


# -- traffic ---------------------------------------------------------------------

A85_REC = {"order": 2, "coeffs": [[1], [-1], [1, -1]]}

# The exact stdout of each README command line; "{fact}" and "{a85}" stand
# for recurrence files.  The certificates are the exact numbers, not bounds.
TRAFFIC = [
    (("seq", "--preset", "a85", "--n", "10", "--last"), "9496\n"),
    (("seq", "--preset", "a85", "--n", "1000", "--digits-only"),
     "1297 digits; 2.1439289538422655419e1296\n"),
    (("coeffs", "--preset", "a85", "--K", "2"), "1: 7/24\n2: -119/1152\n"),
    (("coeffs", "--preset", "a85", "--K", "2", "--format", "json"),
     '{"frame":{"beta":"1/2","c":"1","alpha":"0","kappa":"-1/4"},"K":2,'
     '"a":["7/24","-119/1152"]}\n'),
    (("coeffs", "--preset", "a85", "--K", "9", "--format", "latex"),
     r"\frac{1}{\sqrt{2}} \, n^{\frac{n}{2}} \, e^{-\frac{n}{2} + \sqrt{n} - \frac{1}{4}}"
     r" \left( 1 + \frac{7}{24 \sqrt{n}} - \frac{119}{1152 n}"
     r" - \frac{7933}{414720 n^{\frac{3}{2}}} + \frac{1967381}{39813120 n^{2}}"
     r" - \frac{57200419}{1337720832 n^{\frac{5}{2}}}"
     r" + \frac{6340449533}{687970713600 n^{3}}"
     r" + \frac{3840755481827}{115579079884800 n^{\frac{7}{2}}}"
     r" - \frac{1165106617342939}{22191183337881600 n^{4}}"
     r" + \frac{10362392814297883973}{263631258054033408000 n^{\frac{9}{2}}}"
     r" + O\!\left(\frac{1}{n^{5}}\right) \right)" "\n"),
    (("eval", "--preset", "a85", "--n", "1000", "--k", "1", "--digits", "20"),
     "2.1441496003431008422e1296\n"),
    (("check", "--preset", "a85", "--n", "1000", "--k", "1", "--digits", "20"),
     "n: 1000\nk: 1\ndigits: 20\nasy: 2.1441496003431008422e1296\n"
     "exact: 2.1439289538422655419e1296\nratio: 1.0001029168902448312\n"
     "working precision: 34 dps\n"),
    (("constant", "--preset", "a85", "--n", "2500", "--k", "20", "--digits", "20"),
     "0.70710678118654752440\n"),
    (("render", "--preset", "a85", "--k", "2"),
     r"\frac{1}{\sqrt{2}} \, n^{\frac{n}{2}} \, e^{-\frac{n}{2} + \sqrt{n} - \frac{1}{4}}"
     r" \left( 1 + \frac{7}{24 \sqrt{n}} - \frac{119}{1152 n}"
     r" + O\!\left(\frac{1}{n^{\frac{3}{2}}}\right) \right)" "\n"),
    (("solve-frame", "--recurrence", "{fact}", "--verify", "6"),
     '{"beta":"1","c":"0","alpha":"1/2","kappa":"0"}\n'
     "verified: residual vanishes through 7 orders\n"),
    (("solve-frame", "--recurrence", "{a85}", "--verify", "6"),
     '{"beta":"1/2","c":"1","alpha":"0","kappa":"0"}\n'
     "verified: residual vanishes through 6 orders\n"),
]


@pytest.mark.parametrize(
    "argv, stdout",
    TRAFFIC,
    ids=[
        "seq-last", "seq-digits-only", "coeffs-text", "coeffs-json", "coeffs-latex",
        "eval", "check", "constant", "render", "solve-frame-fact", "solve-frame-a85",
    ],
)
def test_traffic_stdout_is_pinned(tmp_path, capsys, argv, stdout):
    files = {
        "{fact}": write_json(tmp_path, "fact.json", FACT_REC),
        "{a85}": write_json(tmp_path, "a85.json", A85_REC),
    }
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out, err) == (0, stdout, "")


def test_parser_is_built_once_and_survives_usage_errors(capsys):
    # As in a fresh process, the first parse is an error, and each later
    # error fails at a different point of the one cached parser.
    build_parser.cache_clear()
    for argv in (
        ("coeffs", "--preset", "a85", "--K", "0"),
        ("coeffs", "--preset", "a85", "--recurrence", "r.json", "--K", "2"),
        ("coeffs", "--preset", "a85", "--K", "2", "--bogus"),
        ("coeffs", "--preset", "a85"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: ")
    argv = ("coeffs", "--preset", "a85", "--K", "2")
    assert run(capsys, *argv) == (0, dict(TRAFFIC)[argv], "")
    assert build_parser() is build_parser()


# -- fuzzing the file-reading commands -------------------------------------------

_small = st.integers(min_value=-3, max_value=3)
_junk = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.sampled_from([1.0, float("inf"), float("nan"), 10**400]),
    st.sampled_from(["1/0", "1/2", "-3/4", "x"]), st.lists(_small, max_size=2),
    st.dictionaries(st.text(max_size=2), _small, max_size=1),
)


def _spoiled(draw, value, junk=_junk):
    """value, or one time in eight junk in its place."""
    return draw(junk) if draw(st.integers(min_value=0, max_value=7)) == 0 else value


@st.composite
def _recurrence_file(draw):
    """The text of a recurrence file of order <= 4 and degree <= 3, its
    declared order right, absent or spoiled, and at times a coefficient,
    a polynomial, the payload or the JSON itself spoiled."""
    end = st.lists(_small, min_size=1, max_size=4).filter(any)
    inner = st.lists(st.lists(_small, max_size=4), max_size=3)
    coeffs = [draw(end), *draw(inner), draw(end)]
    payload = {"coeffs": coeffs}
    if draw(st.booleans()):
        payload["order"] = _spoiled(draw, len(coeffs) - 1)
    i = draw(st.integers(min_value=0, max_value=len(coeffs) - 1))
    if coeffs[i]:
        k = draw(st.integers(min_value=0, max_value=len(coeffs[i]) - 1))
        coeffs[i][k] = _spoiled(draw, coeffs[i][k])
    coeffs[i] = _spoiled(draw, coeffs[i])
    return _spoiled(draw, json.dumps(_spoiled(draw, payload)), st.text(max_size=8))


@st.composite
def _frame_file(draw):
    """The text of a frame file with small values, each possibly spoiled."""
    values = st.one_of(_small, st.sampled_from(["1/2", "-1/2", "3/2", "1/3"]))
    keys = ["beta", "c", "alpha"] + (["kappa"] if draw(st.booleans()) else [])
    payload = {key: _spoiled(draw, draw(values)) for key in keys}
    return _spoiled(draw, json.dumps(_spoiled(draw, payload)), st.text(max_size=8))


_K = st.integers(min_value=-1, max_value=6).map(str)


@st.composite
def _invocations(draw):
    """A command line over the file-reading commands and the file contents
    it names: well-formed, mistyped or not JSON at all."""
    files = {"rec.json": draw(_recurrence_file())}
    command = draw(st.sampled_from(["solve-frame", "coeffs", "render"]))
    argv = [command, "--recurrence", "rec.json"]
    if command == "solve-frame":
        if draw(st.booleans()):
            argv += ["--verify", draw(_K)]
        argv += draw(st.sampled_from([[], ["--format", "json"]]))
    else:
        argv += ["--K" if command == "coeffs" else "--k", draw(_K)]
        if draw(st.booleans()):
            files["frame.json"] = draw(_frame_file())
            argv += ["--frame", "frame.json"]
        if command == "coeffs":
            argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "latex"]]))
    return argv, files


@settings(max_examples=150, deadline=None)
@given(_invocations())
def test_file_commands_end_in_an_exit_code_never_a_traceback(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# -- entry point --------------------------------------------------------------------


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "recasymp.cli", "seq", "--preset", "a85", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1", "1", "2", "4"]
