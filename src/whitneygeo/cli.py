"""Command-line entry point: catalog listing, case verification, sweeps.

Config keys and the flags of ``verify`` and ``sweep`` come from one table,
``_SETTINGS``, and both commands run a case through one function, ``_run``.
``--seed`` seeds the run's gradient test functions and random planes, and the
Hamiltonian of a ``perturbed`` case, flowed alone or as the base of a lift.

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

#: the report formats of ``verify``; a sweep writes CSV
_FORMATS = ("json", "csv", "markdown")

_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _reals(val: str) -> tuple:
    """Comma-separated reals, as a tuple of floats."""
    return tuple(float(s) for s in val.split(",") if s.strip())


def _one_of(choices, val: str) -> str:
    if val not in choices:
        raise ValueError(f"{val!r} is not one of {', '.join(choices)}")
    return val


def _format(val: str) -> str:
    return _one_of(_FORMATS, val)


def _boolean(val: str) -> bool:
    return _BOOLEANS[_one_of(_BOOLEANS, val.lower())]


#: the parameters a case may read, each with the reader of its config value
_CASE_PARAMS = {"r": float, "theta": float, "a": float, "epsilon": float, "steps": int,
                "base": str, "B": _reals, "radii": _reals}

#: the Tolerances field each tol_* setting sets
_TOLERANCES = {"tol_pointwise": "pointwise", "tol_inequality": "inequality_slack",
               "tol_integral": "integral", "tol_classification": "classification",
               "tol_strictness": "strictness"}

#: every setting, with the reader of its config value.  Each setting but a
#: tuple of reals (``B``, ``radii``: config only) is also a flag of the same
#: name, dashes for underscores, which overrides the config file.
_SETTINGS = {"case": str, "n": int, **_CASE_PARAMS, "resolution": int, "seed": int,
             "format": _format, "out": str, "conformal": _boolean,
             **dict.fromkeys(_TOLERANCES, float)}

#: the settings a sweep refuses, and why
_VERIFY_ONLY = {"conformal": "sweep computes no conformal block",
                "format": "sweep writes CSV only"}

#: the parameters a sweep may vary: the real ones of a case
_SWEEPABLE = [key for key, read in _CASE_PARAMS.items() if read is float]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="whitneygeo", description="verification runs for sphere immersions in model spaces")
    sub = p.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="print the case catalog")
    lst.add_argument("--json", action="store_true", help="machine-readable catalog")

    for name in ("verify", "sweep"):
        q = sub.add_parser(name, help=f"{name} one case")
        q.add_argument("--config", help="flat key=value config file; flags override")
        for key, read in _SETTINGS.items():
            if read is _reals or (name == "sweep" and key in _VERIFY_ONLY):
                continue
            flag = "--" + key.replace("_", "-")
            if read is _boolean:
                q.add_argument(flag, action="store_true", default=None,
                               help="also compute the Weyl/sectional block")
            elif read is _format:
                q.add_argument(flag, choices=_FORMATS)
            else:
                q.add_argument(flag, type=read)
        if name == "sweep":
            q.add_argument("--sweep", required=True,
                           help="parameter range: name=start:stop:steps")
    return p


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
        if key not in _SETTINGS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _SETTINGS[key](val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    return out


def _merge_settings(args) -> dict:
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings.update(parse_config_text(fh.read()))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if args.command == "sweep":
        for key, why in _VERIFY_ONLY.items():
            if key in settings:
                raise ValueError(f"{why}; the key {key!r} belongs to verify")
    settings = {"n": 2, "seed": 0, "format": "json", **settings}
    if "case" not in settings:
        raise ValueError("no case selected (use --case or a config file)")
    return settings


def _run(settings: dict):
    """Build the spec and tolerances of ``settings`` and run the case once.

    The run's seed also seeds the Hamiltonian of a ``perturbed`` case, and
    of a lift whose base is ``perturbed``.  The report echoes ``settings``,
    but for ``out``, as its effective configuration.
    """
    case = settings["case"]
    params = {key: settings[key] for key in _CASE_PARAMS if key in settings}
    if case == "perturbed" or (case, settings.get("base")) == ("lifted", "perturbed"):
        params["seed"] = settings["seed"]
    spec = make_spec(case, settings["n"], **params)
    tolerances = Tolerances(**{f: settings[k] for k, f in _TOLERANCES.items() if k in settings})
    effective = {
        key: ",".join(repr(float(x)) for x in val) if isinstance(val, tuple) else str(val)
        for key, val in sorted(settings.items())
        if key != "out"  # where the report lands does not affect the run
    }
    return run_case(spec, resolution=settings.get("resolution"), tolerances=tolerances,
                    seed=settings["seed"], conformal=bool(settings.get("conformal")),
                    effective_config=effective)


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


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return report_to_json(report) + "\n"
    if fmt == "csv":
        return _csv([CSV_COLUMNS, report_to_csv_row(report)])
    return report_to_markdown(report)


def cmd_verify(args) -> int:
    settings = _merge_settings(args)
    report = _run(settings)
    _emit(_render(report, settings["format"]), settings.get("out"))
    return 1 if report.hard_failures else 0


def cmd_sweep(args) -> int:
    settings = _merge_settings(args)
    try:
        name, rng = args.sweep.split("=", 1)
        start, stop, count = rng.split(":")
        if int(count) < 1:
            raise ValueError(f"the count {count} must be at least 1")
        values = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ValueError(f"bad --sweep argument {args.sweep!r}: {exc}") from None
    name = name.strip()
    if name not in _SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {name!r} in --sweep {args.sweep!r}; "
                         f"it must be one of {', '.join(_SWEEPABLE)}")

    rows = [[name] + CSV_COLUMNS]
    worst, sup_h = 0, []
    for v in values:
        report = _run({**settings, name: float(v)})
        rows.append([repr(float(v))] + report_to_csv_row(report))
        worst = max(worst, 1 if report.hard_failures else 0)
        sup_h.append(report.residual_sup.get("sup_nabla_h", 0.0))
    _emit(_csv(rows), settings.get("out"))
    if name == "theta" and len(values) > 2 and all(
        a >= b for a, b in zip(sup_h[::-1], sup_h[::-1][1:])
    ):
        print(f"# note: sup nabla-h decreases monotonically as {name} decreases",
              file=sys.stderr)
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"list": cmd_list, "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
