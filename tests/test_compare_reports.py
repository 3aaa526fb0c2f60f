"""tools/compare_reports.py: how two records of report rounds differ."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _record(cross_check, spread):
    report = {"residual_sup": {"gauss_cross_check": cross_check},
              "conformal": {"sectional_spread": spread}, "classification": "WHITNEY_BRANCH"}
    return {"calls": [{"call": "run_case", "json": json.dumps(report), "csv": "", "markdown": []}]}


def test_rounding_noise_near_zero_is_small_against_the_stated_bound(capsys):
    # relative to the values themselves the two records differ by up to 1.0;
    # against max(|a|, |b|, 1) by at most 1.5e-15
    same = compare_reports.compare(_record(1.0e-15, 8.9e-16), _record(2.5e-15, 0.0))
    lines = capsys.readouterr().out.splitlines()
    assert not same
    assert lines[1].startswith("largest relative float difference: 1.000e+00 at "
                               "[0].json.conformal.sectional_spread (2 floats differ)")
    assert lines[2] == ("largest |a - b| / max(|a|, |b|, 1): 1.500e-15 "
                        "at [0].json.residual_sup.gauss_cross_check")


def test_identical_records_print_no_float_line(capsys):
    assert compare_reports.compare(_record(1e-15, 0.0), _record(1e-15, 0.0))
    assert capsys.readouterr().out == "calls: 1 and 1, byte-identical: 1\n"
