"""Record the reports of one benchmark round, and compare two such records.

    python3 tools/compare_reports.py record --workload catalog_n2 --seed 7 --out A.json
    python3 tools/compare_reports.py record --root ../other-checkout --workload edges --out B.json
    python3 tools/compare_reports.py compare A.json B.json

``record`` runs one round of a workload of ``bench/workloads.py`` with the
whitneygeo of the checkout ``--root`` (default: the one holding this script),
each command starting with empty module caches as in the benchmark.  It
writes, for every ``run_case`` call, ``report_to_json``,
``report_to_csv_row`` and ``report_to_markdown`` of its report, and for
every ``conformal_block`` call its block as JSON.  The workload ``edges``
instead runs the cases that no benchmark workload reaches: an n = 4 run with
its conformal block, an RK4 hard failure and an UNRESOLVED case, the flow at
n = 3 (resolution 12, the least that gives a ladder) and of a quintic
Hamiltonian at n = 2, the n = 4 conformal blocks of ``contact_whitney_s``
and ``contact_whitney_b``, ``contact_whitney_s`` at n = 2 strongly deformed
(a = 0.5) and at a small theta (0.05, where the affine chart's |z| is near
1/tanh(theta) = 20), ``contact_whitney_r`` at n = 2 with r = 1.3, a = 0.4
and a non-zero B (its fiber's gauge on record), ``whitney_ch`` at n = 2 and
theta = 0.01 and 0.005 (ladders that do not contract at the default
resolution), and two ``whitneygeo verify`` calls (their output
dropped): one read from a config file with tuple, ``tol_*`` and
``conformal`` settings, and a lift of the ``perturbed`` case with
``--seed 5``.

``compare`` tells whether two records are byte-identical.  Where they are
not, it prints the largest relative difference between two floats, the
largest |a - b| / max(|a|, |b|, 1), the form in which a bound on report
numbers is stated (it does not blow up at values that are rounding noise
around 0), and every difference that is not between floats.  It exits 0 for identical records
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


#: the config file of the ``edges`` workload's ``verify --config`` call
_EDGES_CONFIG = """\
case = product_torus
radii = 1.1, 0.9
tol_integral = 1e-7
resolution = 16
conformal = yes
format = markdown
"""


def _cli(cli, argv: list, config: str | None = None) -> None:
    """Run ``whitneygeo`` on ``argv``, with the text ``config`` as its
    ``--config`` file if given, and drop what it prints."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if config is not None:
            path = Path(tmp) / "run.cfg"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        if cli.main(argv) == 2:
            raise RuntimeError(f"whitneygeo {' '.join(argv)} is a configuration error")


def _edges(cli, verify, immersions, seed: int) -> list:
    """The calls of the ``edges`` workload, as functions of no arguments."""
    make_spec = immersions.make_spec
    quintic = immersions.random_quartic(2, 5) + ((0.2, (2, 1, 1, 1)), (-0.15, (0, 0, 3, 2)))
    return [
        lambda: verify.run_case(make_spec("whitney_c0", 4, r=1.0), resolution=12,
                                seed=seed, conformal=True),
        lambda: verify.run_case(make_spec("perturbed", 2, epsilon=0.5), seed=seed),
        lambda: verify.run_case(make_spec("perturbed", 3, epsilon=0.05, seed=3), resolution=12,
                                seed=seed),
        lambda: verify.run_case(make_spec("perturbed", 2, epsilon=0.05, hamiltonian=quintic),
                                resolution=16, seed=seed),
        lambda: verify.run_case(make_spec("whitney_ch", 2, theta=0.2), resolution=16,
                                seed=seed),
        lambda: verify.conformal_block(make_spec("whitney_cp", 3, theta=0.5), seed=seed),
        lambda: verify.conformal_block(make_spec("contact_whitney_s", 4, theta=0.5, a=0.8),
                                       seed=seed),
        lambda: verify.conformal_block(make_spec("contact_whitney_b", 4, theta=1.1, a=1.2),
                                       seed=seed),
        lambda: verify.run_case(make_spec("contact_whitney_s", 2, theta=0.35, a=0.5),
                                resolution=24, seed=seed),
        lambda: verify.run_case(make_spec("contact_whitney_s", 2, theta=0.05), seed=seed),
        lambda: verify.run_case(make_spec("contact_whitney_r", 2, r=1.3, a=0.4,
                                          B=(0.2, -0.1, 0.3, 0.15, -0.25)), seed=seed),
        lambda: verify.run_case(make_spec("whitney_ch", 2, theta=0.01), seed=seed),
        lambda: verify.run_case(make_spec("whitney_ch", 2, theta=0.005), seed=seed),
        lambda: _cli(cli, ["verify"], config=_EDGES_CONFIG),
        lambda: _cli(cli, ["verify", "--case", "lifted", "--base", "perturbed", "--seed", "5",
                           "--resolution", "16"]),
    ]


def record(root: Path, workload: str, seed: int) -> list:
    """Every report of one round of ``workload``, with whitneygeo from ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from whitneygeo import cli, immersions, verify

    calls = []
    run_case, conformal_block = verify.run_case, verify.conformal_block

    def recorded_run_case(spec, *args, **kwargs):
        report = run_case(spec, *args, **kwargs)
        calls.append({
            "call": f"run_case {report.case} n={report.n} "
                    + json.dumps(report.parameters, sort_keys=True),
            "json": verify.report_to_json(report),
            "csv": verify.report_to_csv_row(report),
            "markdown": verify.report_to_markdown(report).splitlines(),
        })
        return report

    def recorded_block(spec, *args, **kwargs):
        block = conformal_block(spec, *args, **kwargs)
        calls.append({"call": f"conformal_block {spec.kind} n={spec.n}",
                      "json": json.dumps(block)})
        return block

    # the command line calls run_case through the name it imported
    verify.run_case = cli.run_case = recorded_run_case
    verify.conformal_block = recorded_block
    if workload == "edges":
        commands = _edges(cli, verify, immersions, seed)
    else:
        commands = [command.run for command in workloads.build(workload, seed)]
    for run in commands:
        workloads.reset_caches()
        run()
    return calls


def _as_float(value):
    """``value`` as a float if it is a float or a string that reads as one, else None."""
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _relative(x: float, y: float, floor: float = 0.0) -> float:
    """|x - y| / max(|x|, |y|, floor); 0 for two NaNs, inf for one."""
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    scale = max(abs(x), abs(y), floor)
    return abs(x - y) / scale if scale else 0.0


def _walk(a, b, path: str, floats: list, others: list) -> None:
    """Collect the differences of two parsed records: ``(relative, path, a, b)``
    where both sides are floats, ``(path, a, b)`` elsewhere."""
    if a == b and type(a) is type(b) and repr(a) == repr(b):
        return
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}", floats, others)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", floats, others)
    elif _as_float(a) is not None and _as_float(b) is not None:
        x, y = _as_float(a), _as_float(b)
        floats.append((_relative(x, y), path, x, y))
    else:
        others.append((path, a, b))


def compare(first: dict, second: dict) -> bool:
    """Print how two records differ; return whether they are byte-identical."""
    a, b = first["calls"], second["calls"]
    same = sum(x == y for x, y in zip(a, b))
    print(f"calls: {len(a)} and {len(b)}, byte-identical: {same}")
    floats, others = [], []
    if len(a) != len(b):
        others.append(("calls", f"{len(a)} calls", f"{len(b)} calls"))
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            x, y = dict(x, json=json.loads(x["json"])), dict(y, json=json.loads(y["json"]))
            _walk(x, y, f"[{i}]", floats, others)
    if floats:
        worst, where, _, _ = max(floats)
        print(f"largest relative float difference: {worst:.3e} at {where} "
              f"({len(floats)} floats differ)")
        worst, where = max((_relative(x, y, 1.0), path) for _, path, x, y in floats)
        print(f"largest |a - b| / max(|a|, |b|, 1): {worst:.3e} at {where}")
    for path, x, y in others:
        print(f"not a float difference at {path}: {x!r} != {y!r}")
    return same == len(a) == len(b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record the reports of one workload round")
    rec.add_argument("--workload", required=True,
                     help="catalog_n2, flow_n2, highdim or edges")
    rec.add_argument("--seed", type=int, default=7)
    rec.add_argument("--root", type=Path, default=ROOT, help="the checkout to run")
    rec.add_argument("--out", type=Path, required=True)
    cmp = sub.add_parser("compare", help="compare two records")
    cmp.add_argument("first", type=Path)
    cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        calls = record(args.root.resolve(), args.workload, args.seed)
        doc = {"workload": args.workload, "seed": args.seed, "calls": calls}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{len(calls)} calls recorded in {args.out}")
        return 0
    first, second = (json.loads(p.read_text()) for p in (args.first, args.second))
    return 0 if compare(first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
