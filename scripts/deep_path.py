"""Time the deep path in two checkouts, in alternating fresh processes.

    python scripts/deep_path.py BASE HEAD --K 300 --pairs 5
    python scripts/deep_path.py BASE HEAD --K 300 --recurrence factorial.json

BASE and HEAD are repository checkouts (each with a ``src/recasymp``).  Each
pair runs one fresh interpreter per checkout, the side that goes first
alternating from pair to pair.  A run solves a recurrence through K
coefficients with ``solve_expansion`` and certifies them with
``residual_check``, timing each by the thread time of its process, and
hashes the coefficients.  The recurrence is the a85 preset in its frame, or
the one in the JSON file given by ``--recurrence``, in the frame that
``frame_solve`` finds for it (not timed).  The script
prints one JSON object: every pair's times, each side's medians and
quartiles, the ratios HEAD / BASE of those medians, how many pairs HEAD won
(took less time in), whether the two sides' coefficients agree, and whether
the certificates hold: ``certified`` is true when every run verifies at
least K orders and both sides verify the same number.  It exits 1, after
the report, unless ``same_coefficients`` and ``certified`` are both true.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

#: What one fresh process runs; argv[1] is K, argv[2] a recurrence file
#: or empty for the a85 preset.
_RUN = """
import hashlib, json, sys
from time import thread_time
from recasymp.engine import residual_check, solve_expansion
from recasymp.framesolve import frame_solve
from recasymp.presets import get_preset
from recasymp.recurrence import Recurrence

k, path = int(sys.argv[1]), sys.argv[2]
if path:
    with open(path, encoding="utf-8") as f:
        rec = Recurrence.from_json_dict(json.load(f))
    frame = frame_solve(rec)
else:
    preset = get_preset("a85")
    rec, frame = preset.recurrence, preset.frame
t0 = thread_time()
exp = solve_expansion(rec, frame, k)
t1 = thread_time()
order = residual_check(rec, exp)
t2 = thread_time()
print(json.dumps({
    "solve_s": t1 - t0,
    "certify_s": t2 - t1,
    "total_s": t2 - t0,
    "verified_order": order,
    "a_sha256": hashlib.sha256(repr(exp.a).encode()).hexdigest(),
}))
"""

_TIMES = ("solve_s", "certify_s", "total_s")


def run_once(checkout: Path, k: int, recurrence: Path | None = None) -> dict:
    """One fresh interpreter on the checkout's library: its times and hash."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(k), str(recurrence or "")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def quartiles(times: list) -> list:
    """[Q1, median, Q3] by the inclusive method; one time is all three."""
    return quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout timed as the baseline")
    parser.add_argument("head", type=Path, help="checkout compared against it")
    parser.add_argument("--K", dest="k", type=int, default=300, help="coefficients (300)")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs (5)")
    parser.add_argument(
        "--recurrence", type=Path, help="recurrence JSON file, solved in its frame (a85)"
    )
    args = parser.parse_args(argv)
    recurrence = args.recurrence.resolve() if args.recurrence else None
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.k, recurrence)
        pairs.append(pair)
    orders = {p[s]["verified_order"] for p in pairs for s in sides}
    medians = {
        side: {t: median(p[side][t] for p in pairs) for t in _TIMES} for side in sides
    }
    report = {
        "recurrence": str(args.recurrence or "a85"),
        "K": args.k,
        "clock": "thread_time of each fresh process",
        "checkouts": {side: str(path) for side, path in sides.items()},
        "pairs": pairs,
        "median": medians,
        "quartiles": {
            side: {t: quartiles([p[side][t] for p in pairs]) for t in _TIMES} for side in sides
        },
        "ratio_head_over_base": {
            t: medians["head"][t] / medians["base"][t] for t in _TIMES
        },
        "pairs_head_won": {
            t: sum(p["head"][t] < p["base"][t] for p in pairs) for t in _TIMES
        },
        "same_coefficients": len({p[s]["a_sha256"] for p in pairs for s in sides}) == 1,
        "certified": len(orders) == 1 and min(orders) >= args.k,
    }
    print(json.dumps(report, indent=1))
    return 0 if report["same_coefficients"] and report["certified"] else 1


if __name__ == "__main__":
    sys.exit(main())
