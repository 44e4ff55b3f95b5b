"""Benchmark for recasymp: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from that
checkout's ``src`` and nowhere else.  The run sets up (import, seeded
inputs, one-time solves), then repeats the workload's fixed batch of
operations until ``--seconds`` have passed, at least once, checks every
output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Operations are timed in thread CPU time, scaled to a nominal host speed by
the calibration units of ``calibration.py`` that run among them.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
one more batch runs under the tracer and the metrics are the per-layer ones;
the spans go to ``perfbench/out``.  The line before the result is the run's
metadata.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

from calibration import LOCAL_UNITS, NOMINAL_S, Yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Fresh processes that time set-up; with the run's own set-up they give
#: the samples whose median is setup_s.
SETUP_PROBES = 6

#: Calibration units run after each set-up, besides those that tick inside
#: it, to scale it.
SETUP_UNITS = 12

#: Tail percentiles tried from the highest down; the first with at least
#: ten samples beyond it is reported, else the maximum.
TAIL_LADDER = (99.9, 99.0, 90.0)


def load_workloads():
    """Import the library from this checkout's src, then the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import recasymp
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import recasymp from {src}: {exc}")
    if src not in Path(recasymp.__file__).resolve().parents:
        raise SystemExit(f"perfbench: recasymp was imported from {recasymp.__file__}, not {src}")
    return workloads


def run_op(wl, state, op, yardstick: Yardstick | None = None
           ) -> tuple[float, object, BaseException | None]:
    """(latency_s, output, error) of one operation.

    The latency is the CPU time the thread spent in the operation, less
    the calibration units the yardstick ran inside it.  The library's calls
    are single-threaded and do no I/O, so on an idle host this is their
    wall time; on a shared host it leaves out the time the host gave to
    other tenants."""
    err = out = None
    clock = yardstick.clock if yardstick else thread_time
    start = clock()
    try:
        out = wl.run(state, op)
    except Exception as exc:  # every failure is a verdict, not a crash
        err = exc
    return clock() - start, out, err


def run_batch(wl, state) -> list[tuple[float, object, BaseException | None]]:
    return [run_op(wl, state, op) for op in state["ops"]]


def check_batch(wl, state, results) -> list[tuple[bool, str]]:
    """(verdict, fingerprint) per operation; a checker that raises fails."""
    import workloads

    verdicts = []
    for op, (_, out, err) in zip(state["ops"], results):
        try:
            ok = bool(wl.check(state, op, out, err))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            detail = workloads.error_text(err) if err is not None else "wrong output"
            print(f"perfbench: {wl.name} failed on {json.dumps(op)[:200]}: {detail}", file=sys.stderr)
        verdicts.append((ok, workloads.fingerprint(out, err)))
    return verdicts


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest TAIL_LADDER percentile with at least
    ten samples beyond it, by nearest rank, else (100, max)."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p / 100.0 * len(ordered)) - 1]
    return 100.0, ordered[-1]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(wl, seed: int) -> dict:
    import mpmath
    from recasymp.rationals import Rational

    return {
        "workload": wl.name,
        "seed": seed,
        "params": wl.params(),
        "rational_backend": f"{Rational.__module__}.{Rational.__name__}",
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, in nominal time."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(wl, state, seconds: float, yardstick: Yardstick):
    """Run and check the batch once, then repeat its operations in order
    until `seconds` of wall time have passed since the start, with the
    yardstick ticking throughout.  An operation is not started when it
    would end more than half its last wall time past the deadline.  A
    repetition must give the first run's output, so only the first run is
    checked.

    Returns (first-run verdicts, per-op (latency, first unit, end unit)
    samples, complete batch times, operations attempted, operations
    failed)."""
    with yardstick.ticking():
        measured = _measure(wl, state, seconds, yardstick)
    yardstick.burst(max(0, LOCAL_UNITS - yardstick.mark()))
    return measured


def _measure(wl, state, seconds: float, yardstick: Yardstick):
    import workloads

    deadline = perf_counter() + seconds
    gc.collect()
    first, last_wall, latencies = [], [], []
    for op in state["ops"]:
        start, mark = perf_counter(), yardstick.mark()
        first.append(run_op(wl, state, op, yardstick))
        latencies.append([(first[-1][0], mark, yardstick.mark())])
        last_wall.append(perf_counter() - start)
    checked = check_batch(wl, state, first)
    walls = [sum(lat for lat, _, _ in first)]
    attempted, failed = len(first), sum(not ok for ok, _ in checked)
    while True:
        gc.collect()
        wall = 0.0
        for i, op in enumerate(state["ops"]):
            start, mark = perf_counter(), yardstick.mark()
            if start + last_wall[i] / 2 > deadline:
                return checked, latencies, walls, attempted, failed
            lat, out, err = run_op(wl, state, op, yardstick)
            last_wall[i] = perf_counter() - start
            latencies[i].append((lat, mark, yardstick.mark()))
            wall += lat
            attempted += 1
            ok, fp = checked[i]
            if not ok or workloads.fingerprint(out, err) != fp:
                failed += 1
                print(f"perfbench: {wl.name} repeat of operation {i} failed", file=sys.stderr)
        walls.append(wall)


def op_latency(samples: list[tuple[float, int, int]], yardstick: Yardstick) -> float:
    """An operation's latency in a run in nominal time: the mean of its
    repetitions, or its first run if it was not repeated (the first run
    warms caches up), each scaled by the units nearest it."""
    return statistics.fmean(lat * yardstick.scale_around(start, end)
                            for lat, start, end in samples[1:] or samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_stick = Yardstick()
    with setup_stick.ticking():
        t0 = thread_time()
        workloads = load_workloads()
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]
        state = wl.prepare(args.seed)
        setup = thread_time() - t0 - setup_stick.spent
    setup_stick.burst(SETUP_UNITS)
    setup *= setup_stick.scale()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    yardstick = Yardstick()
    checked, latencies, walls, attempted, failed = measure(wl, state, args.seconds, yardstick)
    scale = yardstick.scale()
    per_op = [op_latency(samples, yardstick) for samples in latencies]
    wall = sum(per_op)
    meta = metadata(wl, args.seed)
    meta.update(batches=len(walls), batch_cpu_s=walls, units=len(yardstick.samples),
                unit_mean_s=NOMINAL_S / scale, scale=scale)

    if args.trace:
        from tracing import PER_LAYER, Tracer

        # Units tick inside the traced batch as in the measured one; the
        # spans' clock leaves their time out.
        gc.collect()
        traced_stick, results, held = Yardstick(), [], []
        with traced_stick.ticking(), Tracer(traced_stick.clock) as tracer:
            for op in state["ops"]:
                mark = traced_stick.mark()
                results.append(run_op(wl, state, op, traced_stick))
                held.append((mark, traced_stick.mark()))
        traced_stick.burst(max(0, LOCAL_UNITS - traced_stick.mark()))
        traced = check_batch(wl, state, results)
        mismatched = sum(fp != ref for (_, fp), (_, ref) in zip(traced, checked))
        attempted += len(traced)
        failed += sum(not ok for ok, _ in traced) + mismatched
        stats = tracer.layer_stats()
        traced_cpu = sum(lat for lat, _, _ in results)
        stats["trace.overhead_s"] = sum(lat * traced_stick.scale_around(*units)
                                        for (lat, _, _), units in zip(results, held)) - wall
        metrics = {name: {"value": stats.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-{args.seed}.json")
        meta.update(traced_outputs_differ=mismatched, spans=len(tracer.spans),
                    traced_batch_cpu_s=traced_cpu)
    else:
        setups = [setup] + [setup_probe(wl.name, args.seed) for _ in range(SETUP_PROBES)]
        # per_op and wall are in nominal time (see calibration.py).
        tail_p, tail_s = tail(per_op)
        correct = len(per_op) * (attempted - failed) / attempted
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": correct / wall, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(per_op), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        meta.update(setup_samples_s=setups, op_samples=len(per_op), tail_percentile=tail_p)

    meta["fail_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
