"""Run the tier-1 suite and record its wall time, outcome counts and slowest tests.

    python3 tools/tier1.py --out tier1.json

Runs ``python -m pytest -q --continue-on-collection-errors --durations=10``
from the root of the checkout, with its ``src`` first on ``PYTHONPATH``:
the tier-1 command of ROADMAP.md.  It prints pytest's output and writes to
``--out`` one JSON object: ``wall_s``, the wall seconds of the pytest
process; ``pytest_s``, the seconds pytest's summary line reports;
``counts``, the passed, failed and skipped tests and any other outcome the
summary line names; and ``durations``, the ten slowest setup, call and
teardown phases, each as ``{"seconds", "phase", "test"}``.  It exits with
pytest's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]

#: the closing line, "3 failed, 680 passed, 2 skipped in 121.06s (0:02:01)",
#: bare under -q and framed by "=" otherwise
_SUMMARY = re.compile(r"^=*\s*(?P<outcomes>.*?)\s+in (?P<seconds>[\d.]+)s\b")
_HEADER = re.compile(r"slowest \d+ durations")
_OUTCOME = re.compile(r"(\d+) (\w+)")
_DURATION = re.compile(r"^(?P<seconds>[\d.]+)s\s+(?P<phase>setup|call|teardown)\s+(?P<test>\S.*)$")
#: pytest writes "1 error" and "2 errors", "1 warning" and "2 warnings"
_PLURAL = {"error": "errors", "warning": "warnings"}


def summary(text: str) -> dict:
    """The counts, reported seconds and durations table of pytest's output ``text``."""
    lines = text.splitlines()
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    seconds = None
    for line in reversed(lines):
        match = _SUMMARY.match(line)
        if match:
            seconds = float(match["seconds"])
            for number, outcome in _OUTCOME.findall(match["outcomes"]):
                counts[_PLURAL.get(outcome, outcome)] = int(number)
            break
    durations = []
    header = next((i for i, line in enumerate(lines) if _HEADER.search(line)), None)
    if header is not None:
        for line in lines[header + 1:]:
            match = _DURATION.match(line)
            if not match:
                break
            durations.append({"seconds": float(match["seconds"]), "phase": match["phase"],
                              "test": match["test"]})
    return {"pytest_s": seconds, "counts": counts, "durations": durations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, help="where the JSON record goes")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    began = time.perf_counter()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - began
    sys.stdout.write(proc.stdout)
    record = {"wall_s": wall, **summary(proc.stdout)}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
