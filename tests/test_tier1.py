"""tools/tier1.py: what it reads off pytest's output."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "tier1", Path(__file__).resolve().parent.parent / "tools" / "tier1.py")
tier1 = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1)

_PASSING = """\
........................................................................ [ 94%]
.......................................                                  [100%]
============================= slowest 10 durations =============================
40.29s setup    tests/test_acceptance.py::test_criterion_03_isotropy
10.94s call     tests/test_error_estimate.py::test_estimate_bounds_true_error_n3_hyperbolic
0.01s teardown tests/test_cli.py::TestConfig::test_effective_config_round_trip
687 passed in 126.74s (0:02:06)
"""

_FAILING = """\
..F.s..E                                                                 [100%]
==================================== ERRORS ====================================
____________________ ERROR collecting tests/test_broken.py _____________________
=================================== FAILURES ===================================
_________________________________ test_three __________________________________
E   assert 1 == 2
============================= slowest 10 durations =============================
0.50s call     tests/test_a.py::test_one[2-0.5]

(5 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_a.py::test_three - assert 1 == 2
ERROR tests/test_broken.py
1 failed, 5 passed, 1 skipped, 2 warnings, 1 error in 3.07s
"""


def test_a_passing_run():
    got = tier1.summary(_PASSING)
    assert got["pytest_s"] == 126.74
    assert got["counts"] == {"passed": 687, "failed": 0, "skipped": 0}
    assert got["durations"] == [
        {"seconds": 40.29, "phase": "setup",
         "test": "tests/test_acceptance.py::test_criterion_03_isotropy"},
        {"seconds": 10.94, "phase": "call",
         "test": "tests/test_error_estimate.py::test_estimate_bounds_true_error_n3_hyperbolic"},
        {"seconds": 0.01, "phase": "teardown",
         "test": "tests/test_cli.py::TestConfig::test_effective_config_round_trip"},
    ]


def test_a_failing_run_with_every_outcome():
    got = tier1.summary(_FAILING)
    assert got["pytest_s"] == 3.07
    assert got["counts"] == {"passed": 5, "failed": 1, "skipped": 1, "warnings": 2, "errors": 1}
    assert got["durations"] == [
        {"seconds": 0.5, "phase": "call", "test": "tests/test_a.py::test_one[2-0.5]"}]


def test_a_framed_summary_line_and_no_table():
    got = tier1.summary("===== 2 failed, 3 errors in 0.21s =====\n")
    assert got == {"pytest_s": 0.21,
                   "counts": {"passed": 0, "failed": 2, "skipped": 0, "errors": 3},
                   "durations": []}
