"""scripts/deep_path.py's verdict: the report is printed either way, and the
exit code is 1 unless both sides solve the same coefficients and every
certificate reaches K.  run_once is replaced, so no process starts."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "deep_path", Path(__file__).parents[1] / "scripts" / "deep_path.py"
)
deep_path = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(deep_path)


@pytest.mark.parametrize(
    "head_sha,head_order,code",
    [
        ("same", 20, 0),
        ("other", 20, 1),
        ("same", 19, 1),
        ("same", 21, 1),  # past K, but the two sides verify different orders
    ],
)
def test_exit_code_follows_the_report(monkeypatch, capsys, head_sha, head_order, code):
    def run_once(checkout, k, recurrence=None):
        head = checkout.name == "head"
        return {
            "solve_s": 1.0, "certify_s": 0.5, "total_s": 1.5,
            "verified_order": head_order if head else 20,
            "a_sha256": head_sha if head else "same",
        }

    monkeypatch.setattr(deep_path, "run_once", run_once)
    assert deep_path.main(["base", "head", "--K", "20", "--pairs", "2"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["same_coefficients"] is (head_sha == "same")
    assert report["certified"] is (head_order == 20)
    assert len(report["pairs"]) == 2
