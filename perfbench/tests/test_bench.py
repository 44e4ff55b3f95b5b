"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Small instances of the four workloads stand in for the full-size ones,
except where the seeded generator itself is under test.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import calibration
import run
import tracing
import workloads
from recasymp import cli, engine, evaluate, framesolve, involutions, series
from recasymp.recurrence import Recurrence
from recasymp.series import PuiseuxSeries

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

SMALL = {
    "deep_solve": workloads.DeepSolve(K=12),
    "frame_discovery": workloads.FrameDiscovery(
        K=8, mix=(("monic", 3), ("two_term", 2), ("sparse", 4), ("out_of_template", 2))),
    "numeric_check": workloads.NumericCheck(mix={1000: (2, 2, 1), 2500: (2, 2, 1), 10**4: (2, 2, 1)}),
    "oracle_crosscheck": workloads.OracleCrosscheck(n_max=8),
}


@pytest.fixture(scope="module")
def batches():
    """name -> (workload, state, untraced results) for the small instances."""
    out = {}
    for name, wl in SMALL.items():
        state = wl.prepare(3)
        out[name] = (wl, state, run.run_batch(wl, state))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    first = wl.prepare(5)["ops"]
    assert first == wl.prepare(5)["ops"]
    if name != "deep_solve":  # the deep solve has one fixed input
        assert first != wl.prepare(6)["ops"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_batches_pass_their_checkers(batches, name):
    wl, state, results = batches[name]
    assert all(ok for ok, _ in run.check_batch(wl, state, results))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_equal_untraced(batches, name):
    wl, state, results = batches[name]
    with tracing.Tracer() as tracer:
        traced = run.run_batch(wl, state)
    assert tracer.spans
    assert ([workloads.fingerprint(out, err) for _, out, err in traced]
            == [workloads.fingerprint(out, err) for _, out, err in results])
    assert [out for _, out, _ in traced] == [out for _, out, _ in results]


def _rejects(wl, state, op, out, err=None):
    return not wl.check(state, op, out, err)


def _bump_digit(text: str, index: int) -> str:
    """Change the index-th decimal digit of a number string."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = positions[index]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_deep_solve_checker_rejects_corruption(batches):
    wl, state, results = batches["deep_solve"]
    op, (_, out, _) = state["ops"][0], results[0]
    assert wl.check(state, op, out, None)
    for index in (0, 1, 7):
        data = json.loads(out["stdout"])
        value = Fraction(data["a"][index]) + Fraction(1, 10**6)
        data["a"][index] = f"{value.numerator}/{value.denominator}"
        assert _rejects(wl, state, op, dict(out, stdout=json.dumps(data)))
    assert _rejects(wl, state, op, dict(out, rc=2))
    assert _rejects(wl, state, op, dict(out, order=op["K"] - 1))


def test_frame_discovery_checker_rejects_corruption(batches):
    wl, state, results = batches["frame_discovery"]
    solved = [(op, out) for op, (_, out, err) in zip(state["ops"], results) if err is None]
    refused = [(op, err) for op, (_, _, err) in zip(state["ops"], results) if err is not None]
    assert solved and refused
    for op, out in solved:
        bad = copy.deepcopy(out)
        bad["expansion"]["a"][3] = str(Fraction(bad["expansion"]["a"][3]) + 1)
        assert _rejects(wl, state, op, bad)
        bad = copy.deepcopy(out)
        bad["expansion"]["frame"]["alpha"] = str(Fraction(bad["expansion"]["frame"]["alpha"]) + 1)
        assert _rejects(wl, state, op, bad)
    op, err = refused[0]
    assert wl.check(state, op, None, err)
    assert _rejects(wl, state, op, solved[0][1])
    assert _rejects(wl, state, op, None, ValueError("not the typed error"))


def test_numeric_checker_rejects_corruption(batches):
    wl, state, _ = batches["numeric_check"]
    pin_ratio, pin_constant = state["ops"][:2]
    cases = [
        (pin_ratio, ("asy", "ratio"), (19,)),
        (pin_constant, ("constant",), (29,)),
        ({"kind": "ratio", "n": 2500, "k": 12, "digits": 25}, ("asy", "ratio"), (12, 20)),
        ({"kind": "constant", "n": 10**4, "k": 20, "digits": 30}, ("constant",), (12, 25)),
    ]
    for op, keys, digit_positions in cases:
        out = wl.run(state, op)
        assert wl.check(state, op, out, None)
        for key in keys:
            for pos in digit_positions:
                assert _rejects(wl, state, op, dict(out, **{key: _bump_digit(out[key], pos)}))
    refused = next(op for op in state["ops"] if op.get("error"))
    assert _rejects(wl, state, refused, {"constant": "0.7071"})


def test_oracle_checker_rejects_corruption(batches):
    wl, state, results = batches["oracle_crosscheck"]
    op, out = state["ops"][0], results[0][1]
    for route, index in (("recurrence", 8), ("egf", 5), ("sum", 6), ("brute", 7)):
        bad = copy.deepcopy(out)
        bad[route][index] += 1
        assert _rejects(wl, state, op, bad)


def _small_pipeline():
    rec = Recurrence(workloads.A85_COEFFS)
    exp = engine.solve_expansion(rec, framesolve.frame_solve(rec), 6)
    engine.residual_check(rec, exp)
    evaluate.ratio_check(1000, 3, 15, expansion=exp)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["coeffs", "--preset", "a85", "--K", "5", "--format", "json"])
    involutions.involution_counts_by_egf(12)
    involutions.involution_count_by_sum(12)
    involutions.involution_count_brute(5)


def test_measure_fails_a_repeat_whose_output_changed():
    class Drifting:
        name = "drifting"
        calls = 0

        def run(self, state, op):
            self.calls += 1
            return {"value": min(self.calls, 2)}

        def check(self, state, op, out, err):
            return err is None

    checked, latencies, walls, attempted, failed = run.measure(
        Drifting(), {"ops": [{}]}, 0.5, calibration.Yardstick())
    assert checked[0][0]
    assert attempted == len(latencies[0]) > 1
    assert failed == attempted - 1


def test_units_tick_inside_an_operation_and_leave_its_latency():
    class Busy:
        def run(self, state, op):
            return sum(i * i % 7 for i in range(600_000))

    yardstick = calibration.Yardstick()
    with yardstick.ticking():
        start = time.thread_time()
        lat, out, err = run.run_op(Busy(), {}, {}, yardstick)
        total = time.thread_time() - start
    assert err is None and yardstick.mark() >= 2
    assert all(t > 0 for t in yardstick.samples)
    assert lat == pytest.approx(total - yardstick.spent, abs=1e-3)


def test_scale_around_widens_to_local_units():
    yardstick = calibration.Yardstick()
    yardstick.samples[:] = [0.001] * 10 + [0.002] * 50
    nominal = calibration.NOMINAL_S
    assert calibration.LOCAL_UNITS == 30
    assert yardstick.scale_around(30, 31) == pytest.approx(nominal / 0.002)
    assert yardstick.scale_around(0, 1) == pytest.approx(nominal * 30 / (10 * 0.001 + 20 * 0.002))
    assert yardstick.scale_around(59, 60) == pytest.approx(nominal / 0.002)
    assert yardstick.scale_around(0, 40) == pytest.approx(nominal * 40 / (10 * 0.001 + 30 * 0.002))


def test_wrapper_call_counts_match_profiler():
    codes = {getattr(sys.modules[f"recasymp.{m}"], f).__code__: f"{m}.{f}"
             for m, f in tracing.TARGETS}
    counted = {name: 0 for name in codes.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counted[codes[frame.f_code]] += 1

    with tracing.Tracer() as tracer:
        sys.setprofile(profile)
        try:
            _small_pipeline()
        finally:
            sys.setprofile(None)
    stats = tracer.layer_stats()
    assert {name: int(stats.get(f"{name}.calls", 0)) for name in counted} == counted
    assert all(counted[name] > 0 for name in ("series.mul", "series.add", "series.exp_series",
                                              "frame.frame_ratio", "cli.main"))


def test_tracer_rebinds_by_name_imports_and_restores_them():
    original = (series.mul, series.exp_series, engine.solve_expansion)
    with tracing.Tracer():
        assert engine.mul is series.mul and series.mul.__wrapped__ is original[0]
        assert framesolve.exp_series is series.exp_series is not original[1]
        assert cli.solve_expansion is engine.solve_expansion is not original[2]
    assert (engine.mul, framesolve.exp_series, cli.solve_expansion) == original
    assert (series.mul, series.exp_series, engine.solve_expansion) == original


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0]]
    stats = tracer.layer_stats()
    assert stats["a.calls"] == 2 and stats["b.calls"] == 1
    assert stats["a.self_s"] == pytest.approx(7.0)
    assert stats["a.total_s"] == pytest.approx(10.0)
    assert stats["b.self_s"] == pytest.approx(3.0)


def test_mul_products_counts_coefficient_products():
    calls = [0]

    class Counted(Fraction):
        def __mul__(self, other):
            calls[0] += 1
            return Fraction(self) * other

    for v1, n1, t1, v2, n2, t2 in ((0, 5, 5, 0, 5, 5), (-2, 3, 6, 1, 7, 8), (2, 4, 6, -1, 2, 1)):
        s1 = PuiseuxSeries(v1, [Counted(i + 1) for i in range(n1)], v1 + n1)
        s2 = PuiseuxSeries(v2, [Counted(i + 2) for i in range(n2)], v2 + n2)
        calls[0] = 0
        series.mul(s1, s2)
        assert tracing.mul_products(s1, s2) == calls[0]


def _result(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _result("--workload", "numeric_check", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 145
    wanted = declared["per_layer"] if trace == "1" else declared["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_list_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == tracing.PER_LAYER


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _result("--workload", "numeric_check", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
