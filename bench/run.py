"""whitneygeo benchmark: run one workload, check its certificates, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; whitneygeo is imported from ``src/``.  The
process is one closed-loop client: it runs the workload's commands back to
back in rounds, and starts another round only while one more fits in
``--seconds`` (at least one round runs).  Each command begins with
whitneygeo's module caches empty, as a fresh command-line invocation would.
BLAS gets one thread per available core.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics: ``wall_s`` (median round time), ``setup_s`` (median of
six fresh-process set-ups), ``peak_rss_mb`` and ``defect_error_max``.
With ``--trace 1`` it holds the per-layer metrics instead: the jet
micro-benchmarks, then rounds with every call into a whitneygeo module
recorded as a span (see ``spans.py``).  Spans
and per-command details go to ``bench/results/``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: set-up samples per run, half taken before the rounds and half after, so
#: that their median does not rest on one moment of a machine whose speed
#: drifts
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 120


def _limit_blas_threads() -> None:
    """One BLAS thread per core this process may run on, set before numpy loads."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _setup_seconds(workload: str, seed: int, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _run_round(commands, reset_caches, tally) -> float:
    """Run every command once; return the time spent in the commands.

    Each command starts as in a fresh process: whitneygeo's module caches
    empty, and no garbage left by the command before it.
    """
    total = 0.0
    for command in commands:
        reset_caches()
        gc.collect()
        start = time.perf_counter()
        try:
            outcomes = command.run()
        except Exception:  # one failed command must not end the run
            traceback.print_exc()
            outcomes = None
        seconds = time.perf_counter() - start
        total += seconds
        tally.record(command, outcomes, seconds)
    return total


class Tally:
    """Operations attempted and failed, the checks they missed, their errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.defect_errors = []
        self.commands = []

    def record(self, command, outcomes, seconds):
        self.attempted += command.size
        self.commands.append({"command": command.label, "seconds": seconds,
                              "failed": outcomes is None})
        if outcomes is None:
            self.failed += command.size
            return
        for outcome in outcomes:
            self.problems += [f"{outcome.label}: {p}" for p in outcome.problems]
            if outcome.defect_error is not None:
                self.defect_errors.append(outcome.defect_error)


def _rounds(run_one, seconds: float) -> list:
    """Call ``run_one`` while another call fits in ``seconds``; at least once."""
    times, start = [], time.perf_counter()
    while True:
        times.append(run_one())
        if time.perf_counter() - start + statistics.mean(times) > seconds:
            return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _plain_run(args, workloads, commands, tally) -> tuple[dict, dict]:
    setup = _setup_seconds(args.workload, args.seed, SETUP_REPEATS // 2)
    walls = _rounds(lambda: _run_round(commands, workloads.reset_caches, tally), args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += _setup_seconds(args.workload, args.seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
        "defect_error_max": _metric(max(tally.defect_errors, default=0.0), "1"),
    }
    details = {"round_wall_s": walls, "setup_s": setup}
    return metrics, details


def _traced_run(args, workloads, commands, tally) -> tuple[dict, dict]:
    import micro
    import whitneygeo
    import spans

    micro_metrics, micro_problems = micro.run(args.seed)
    tally.problems += micro_problems
    tracer = spans.Tracer(whitneygeo)

    def traced_round():
        with tracer.root("round"):
            return _run_round(commands, workloads.reset_caches, tally)

    tracer.install()
    try:
        walls = _rounds(traced_round, args.seconds)
    finally:
        tracer.uninstall()
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    layers = tracer.analyse(len(walls))
    layers["trace.wall_s"] = statistics.median(walls)
    layers["trace.overhead_s"] = spans.span_cost(whitneygeo) * layers["trace.spans"]
    layers.update(micro_metrics)
    metrics = {}
    with open(HERE.parent / "BENCHMARK.json") as fh:
        for entry in json.load(fh)["per_layer"]:
            metrics[entry["name"]] = _metric(layers[entry["name"]], entry["unit"])
    return metrics, {"round_wall_s": walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "whitneygeo" / "__init__.py").is_file():
        print(f"error: no whitneygeo sources under {SRC}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    commands = workloads.build(args.workload, args.seed)
    tally = Tally()
    run = _traced_run if args.trace else _plain_run
    metrics, details = run(args, workloads, commands, tally)

    correct = not tally.problems
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"metrics": metrics, "problems": tally.problems,
                   "commands": tally.commands, **details}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
