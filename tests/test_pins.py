"""The table of scripts/pins.py, which CI runs in full: every CLI row parses
and every recurrence loads, so a renamed flag or a broken recurrence fails
here too, and one row of each kind compares what it should."""

import hashlib
import importlib.util
from pathlib import Path

from recasymp.cli import build_parser
from recasymp.recurrence import Recurrence

_SPEC = importlib.util.spec_from_file_location(
    "pins", Path(__file__).parents[1] / "scripts" / "pins.py"
)
pins = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pins)

ARGVS = [argv for pin in pins.PINS if not callable(pin.run) for argv in pin.run]


def test_every_pinned_argv_parses():
    assert ARGVS
    for argv in ARGVS:
        build_parser().parse_args(list(argv))


def test_every_pinned_recurrence_loads_and_every_file_is_one():
    for coeffs in pins.RECURRENCES.values():
        Recurrence.from_json_dict({"coeffs": coeffs})
    files = {a for argv in ARGVS for a in argv if a.endswith(".json")}
    assert files == {f"{name}.json" for name in pins.RECURRENCES}


def test_rows_compare_the_output_its_sha256_or_the_exit_code(tmp_path):
    (tmp_path / "harmonic.json").write_text('{"coeffs": [[0, 1], [1, -2], [-1, 1]]}')
    a85 = (("coeffs", "--preset", "a85", "--K", "2"), ("coeffs", "--preset", "a85", "--K", "1"))
    harmonic = (("solve-frame", "--recurrence", "harmonic.json", "--verify", "2"),)
    out = "1: 7/24\n2: -119/1152\n1: 7/24\n"  # the stdouts joined
    assert pins.observe(pins.Pin("", "", a85, "stdout", ""), tmp_path) == out
    sha = pins.observe(pins.Pin("", "", a85, "sha256", ""), tmp_path)
    assert sha == hashlib.sha256(out.encode()).hexdigest()
    assert pins.observe(pins.Pin("", "", harmonic, "exit", 2), tmp_path) == 2
    got = pins.observe(pins.Pin("", "", harmonic, "stdout", ""), tmp_path)
    assert got.startswith("exit code 2: computation error: ")
