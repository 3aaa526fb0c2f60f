"""Command-line entry point: catalog listing, case verification, sweeps.

Exit codes: 0 on success (including an honest UNRESOLVED classification),
1 when a hard invariant fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .immersions import CATALOG, make_spec
from .verify import (
    CSV_COLUMNS,
    Tolerances,
    report_to_csv_row,
    report_to_json,
    report_to_markdown,
    run_case,
)

_CASE_PARAM_KEYS = ("r", "theta", "a", "epsilon", "steps", "base", "B", "radii")

#: every setting a config file may give; flags override them
_SETTING_KEYS = (
    "case", "n", *_CASE_PARAM_KEYS, "resolution", "seed", "format", "out",
    "conformal", "tol_pointwise", "tol_inequality", "tol_integral",
    "tol_classification", "tol_strictness",
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="whitneygeo",
        description="verification runs for sphere immersions in model spaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="print the case catalog")
    lst.add_argument("--json", action="store_true", help="machine-readable catalog")

    for name in ("verify", "sweep"):
        q = sub.add_parser(name, help=f"{name} one case")
        q.add_argument("--config", help="flat key=value config file; flags override")
        q.add_argument("--case")
        q.add_argument("--n", type=int)
        q.add_argument("--r", type=float)
        q.add_argument("--theta", type=float)
        q.add_argument("--a", type=float)
        q.add_argument("--epsilon", type=float)
        q.add_argument("--steps", type=int)
        q.add_argument("--base")
        q.add_argument("--resolution", type=int)
        q.add_argument("--seed", type=int)
        q.add_argument("--format", choices=("json", "csv", "markdown"))
        q.add_argument("--out")
        if name == "verify":
            q.add_argument("--conformal", action="store_true", default=None,
                           help="also compute the Weyl/sectional block")
        q.add_argument("--tol-pointwise", type=float, dest="tol_pointwise")
        q.add_argument("--tol-inequality", type=float, dest="tol_inequality")
        q.add_argument("--tol-integral", type=float, dest="tol_integral")
        q.add_argument("--tol-classification", type=float, dest="tol_classification")
        q.add_argument("--tol-strictness", type=float, dest="tol_strictness")
        if name == "sweep":
            q.add_argument("--sweep", required=True,
                           help="parameter range: name=start:stop:steps")
    return p


_FLOAT_KEYS = {
    "r", "theta", "a", "epsilon",
    "tol_pointwise", "tol_inequality", "tol_integral",
    "tol_classification", "tol_strictness",
}
_INT_KEYS = {"n", "steps", "resolution", "seed"}


def parse_config_text(text: str) -> dict:
    """Flat key=value lines (``#`` comments allowed) to a typed dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _SETTING_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _FLOAT_KEYS:
            out[key] = float(val)
        elif key in _INT_KEYS:
            out[key] = int(val)
        elif key in ("B", "radii"):
            out[key] = tuple(float(s) for s in val.split(",") if s.strip())
        elif key == "conformal":
            out[key] = val.lower() in ("1", "true", "yes")
        else:
            out[key] = val
    return out


def _merge_settings(args) -> dict:
    settings = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            settings.update(parse_config_text(fh.read()))
    for key in _SETTING_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    settings.setdefault("n", 2)
    settings.setdefault("seed", 0)
    settings.setdefault("format", "json")
    if "case" not in settings:
        raise ValueError("no case selected (use --case or a config file)")
    return settings


def _tolerances_from(settings: dict) -> Tolerances:
    kw = {}
    for src, dst in (
        ("tol_pointwise", "pointwise"),
        ("tol_inequality", "inequality_slack"),
        ("tol_integral", "integral"),
        ("tol_classification", "classification"),
        ("tol_strictness", "strictness"),
    ):
        if src in settings:
            kw[dst] = settings[src]
    return Tolerances(**kw)


def _spec_from(settings: dict):
    params = {}
    for key in _CASE_PARAM_KEYS:
        if key in settings:
            params[key] = settings[key]
    if settings["case"] == "perturbed":
        params.setdefault("seed", settings["seed"])
    return make_spec(settings["case"], settings["n"], **params)


def _effective_config(settings: dict) -> dict:
    out = {}
    for k, v in sorted(settings.items()):
        if k == "out":  # where the report lands does not affect the run
            continue
        if isinstance(v, tuple):
            out[k] = ",".join(repr(float(x)) for x in v)
        else:
            out[k] = str(v)
    return out


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_list(args) -> int:
    if args.json:
        print(json.dumps(CATALOG, indent=2, sort_keys=True))
        return 0
    width = max(len(k) for k in CATALOG)
    for name, entry in CATALOG.items():
        print(f"{name:<{width}}  [{entry['model']}]  {entry['params']}")
        print(f"{'':<{width}}  {entry['note']}")
    return 0


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return report_to_json(report) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_COLUMNS)
        w.writerow(report_to_csv_row(report))
        return buf.getvalue()
    return report_to_markdown(report)


def cmd_verify(args) -> int:
    settings = _merge_settings(args)
    spec = _spec_from(settings)
    report = run_case(
        spec,
        resolution=settings.get("resolution"),
        tolerances=_tolerances_from(settings),
        seed=settings["seed"],
        conformal=bool(settings.get("conformal")),
        effective_config=_effective_config(settings),
    )
    _emit(_render(report, settings["format"]), settings.get("out"))
    return 1 if report.hard_failures else 0


def cmd_sweep(args) -> int:
    settings = _merge_settings(args)
    if "conformal" in settings:
        raise ValueError("sweep computes no conformal block; the key 'conformal' "
                         "belongs to verify")
    try:
        name, rng = args.sweep.split("=", 1)
        start, stop, count = rng.split(":")
        if int(count) < 1:
            raise ValueError(f"the count {count} must be at least 1")
        values = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ValueError(f"bad --sweep argument {args.sweep!r}: {exc}") from None
    name = name.strip()
    if name not in ("r", "theta", "a", "epsilon"):
        raise ValueError(f"unknown sweep parameter {name!r} in --sweep {args.sweep!r}; "
                         "it must be one of r, theta, a, epsilon")

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([name] + CSV_COLUMNS)
    worst = 0
    sup_h = []
    for v in values:
        s = dict(settings)
        s[name] = float(v)
        spec = _spec_from(s)
        report = run_case(
            spec,
            resolution=s.get("resolution"),
            tolerances=_tolerances_from(s),
            seed=s["seed"],
            effective_config=_effective_config(s),
        )
        w.writerow([repr(float(v))] + report_to_csv_row(report))
        worst = max(worst, 1 if report.hard_failures else 0)
        sup_h.append(report.residual_sup.get("sup_nabla_h", 0.0))
    _emit(buf.getvalue(), settings.get("out"))
    if name == "theta" and len(values) > 2 and all(
        a >= b for a, b in zip(sup_h[::-1], sup_h[::-1][1:])
    ):
        print(
            f"# note: sup nabla-h decreases monotonically as {name} decreases",
            file=sys.stderr,
        )
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
