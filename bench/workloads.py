"""The benchmark's workloads: which certificates each runs, and their checks.

An operation is one certificate: a ``run_case`` or ``conformal_block`` call
together with its checks.  A command is one call into whitneygeo; a CLI
``sweep`` command runs five certificates.  Every check compares a report
with a closed form or with a property the method must have, never with a
stored copy of an earlier report:

* the Whitney sphere in C^2 of radius r has volume pi^2 r^2, the totally
  geodesic sphere 4 pi, and the flat torus (2 pi)^2 r1 r2;
* an equality case has true defect 0, so its |defect_normalized| may not
  exceed its own quadrature-error estimate;
* every Yano integral vanishes by the divergence theorem (|.| <= 1e-8);
* the classification is the paper's: WHITNEY_BRANCH for the sphere
  families, PARALLEL_BRANCH for the torus and the totally geodesic sphere,
  STRICT (defect > 1e-4) for the Hamiltonian deformation;
* no hard failure; the n = 4 block is conformally flat (Weyl sup <= 1e-7)
  with non-constant sectional curvature (spread >= 1e-3), and the totally
  geodesic sphere has constant sectional curvature (spread <= 1e-9).

The seed chooses the run seed handed to whitneygeo (it draws the Yano
gradient test functions and the sampled sectional planes) and the radii of
the torus.  The commands run in a fixed order: peak memory depends on the
order, through how the heap fragments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from whitneygeo import cli, geometry, immersions, jets, quadrature, spaceforms, verify

#: the n = 2 acceptance sweeps: five parameter values per sphere family
SWEEPS = {
    "whitney_c0": ("r", [0.5, 0.75, 1.0, 1.5, 2.0]),
    "whitney_cp": ("theta", [0.2, 0.35, 0.5, 0.75, 1.0]),
    "whitney_ch": ("theta", [0.8, 0.95, 1.1, 1.25, 1.4]),
    "contact_whitney_r": ("r", [0.5, 0.75, 1.0, 1.5, 2.0]),
    "contact_whitney_s": ("theta", [0.2, 0.35, 0.5, 0.75, 1.0]),
    "contact_whitney_b": ("theta", [0.8, 0.95, 1.1, 1.25, 1.4]),
}

#: families whose sweep values are evenly spaced run through ``sweep``
#: (start:stop:count); the others through one ``verify`` per value
SWEEP_ARGS = {
    "whitney_ch": "theta=0.8:1.4:5",
    "contact_whitney_b": "theta=0.8:1.4:5",
}

#: resolution of the n = 3 certificates.  Both certify WHITNEY_BRANCH from
#: K = 16 on, but there a Yano gradient integral of contact_whitney_s reaches
#: 3.2e-9 on some run seeds, within a factor 3 of its 1e-8 tolerance; at
#: K = 18 none of them exceeds 6e-11
HIGHDIM_RESOLUTION = 18

YANO_TOL = 1e-8
VOLUME_RTOL = 1e-9
STRICT_MIN_DEFECT = 1e-4
WEYL_MAX = 1e-7
SPREAD_MIN = 1e-3
CONSTANT_SPREAD_MAX = 1e-9


@dataclass
class Outcome:
    """One certificate: its label, the checks it missed, its error estimate."""

    label: str
    problems: list
    defect_error: float | None = None


@dataclass
class Command:
    """One call into whitneygeo that runs ``size`` certificates."""

    label: str
    size: int
    run: object  # () -> list[Outcome]
    specs: list = field(default_factory=list)


def report_problems(rep: dict, classification: str, volume: float | None = None,
                    equality: bool = False, strict: bool = False) -> list:
    """Checks on one report, given as the dict its JSON form holds."""
    problems = []
    integ = rep["integrals"]
    if rep["classification"] != classification:
        problems.append(f"classified {rep['classification']}, want {classification}")
    if rep["hard_failures"]:
        problems.append("hard failures: " + "; ".join(rep["hard_failures"]))
    for name, value in rep["yano"].items():
        if name != "main_error" and not abs(value) <= YANO_TOL:
            problems.append(f"yano[{name}] = {value:.3e} exceeds {YANO_TOL:.0e}")
    if volume is not None and not abs(integ["volume"] - volume) <= VOLUME_RTOL * volume:
        problems.append(f"volume {integ['volume']!r}, closed form {volume!r}")
    defect, error = integ["defect_normalized"], integ["defect_error"]
    if equality and not abs(defect) <= error:
        problems.append(f"|defect| {abs(defect):.3e} exceeds its error estimate {error:.3e}")
    if strict and not defect > STRICT_MIN_DEFECT:
        problems.append(f"defect {defect:.3e} is not above {STRICT_MIN_DEFECT:.0e}")
    return problems


def _cli(argv: list) -> str:
    """Run the command line in-process and return what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"whitneygeo {' '.join(argv)} exited {code}")
    return out.getvalue()


def _verify_command(kind: str, pname: str, value: float, run_seed: int) -> Command:
    argv = ["verify", "--case", kind, "--n", "2", f"--{pname}", repr(value),
            "--seed", str(run_seed), "--format", "json"]
    volume = math.pi**2 * value**2 if kind == "whitney_c0" else None

    def run():
        rep = json.loads(_cli(argv))
        problems = report_problems(rep, "WHITNEY_BRANCH", volume, equality=True)
        if rep["parameters"][pname] != value:
            problems.append(f"report echoes {pname} = {rep['parameters'][pname]!r}")
        return [Outcome(f"{kind} {pname}={value}", problems,
                        rep["integrals"]["defect_error"])]

    spec = immersions.make_spec(kind, 2, **{pname: value})
    return Command(f"cli verify {kind} {pname}={value}", 1, run, [spec])


def _sweep_command(kind: str, run_seed: int) -> Command:
    pname, values = SWEEPS[kind]
    argv = ["sweep", "--case", kind, "--n", "2", "--sweep", SWEEP_ARGS[kind],
            "--seed", str(run_seed)]

    def run():
        rows = list(csv.DictReader(io.StringIO(_cli(argv))))
        if len(rows) != len(values):
            raise RuntimeError(f"sweep gave {len(rows)} rows, want {len(values)}")
        out = []
        for want, row in zip(values, rows):
            defect, error = float(row["defect_normalized"]), float(row["defect_error"])
            problems = []
            if not abs(float(row[pname]) - want) <= 1e-12:
                problems.append(f"row at {pname} = {row[pname]}, want {want}")
            if row["classification"] != "WHITNEY_BRANCH":
                problems.append(f"classified {row['classification']}, want WHITNEY_BRANCH")
            if row["hard_failures"]:
                problems.append("hard failures: " + row["hard_failures"])
            if not abs(float(row["yano_main"])) <= YANO_TOL:
                problems.append(f"yano[main] = {row['yano_main']} exceeds {YANO_TOL:.0e}")
            if not abs(defect) <= error:
                problems.append(f"|defect| {abs(defect):.3e} exceeds its error estimate {error:.3e}")
            out.append(Outcome(f"{kind} {pname}={want}", problems, error))
        return out

    specs = [immersions.make_spec(kind, 2, **{pname: v}) for v in values]
    return Command(f"cli sweep {kind} {SWEEP_ARGS[kind]}", len(values), run, specs)


def _case_command(label: str, spec, checks: dict, run_seed: int,
                  resolution: int | None = None, conformal: bool = False,
                  spread_max: float | None = None) -> Command:
    def run():
        rep = asdict(verify.run_case(spec, resolution=resolution, seed=run_seed,
                                     conformal=conformal))
        problems = report_problems(rep, **checks)
        if spread_max is not None:
            spread = rep["conformal"]["sectional_spread"]
            if not spread <= spread_max:
                problems.append(f"sectional spread {spread:.3e} exceeds {spread_max:.0e}")
        return [Outcome(label, problems, rep["integrals"]["defect_error"])]

    return Command(f"run_case {label}", 1, run, [spec])


def _conformal_command(label: str, spec, run_seed: int) -> Command:
    def run():
        block = verify.conformal_block(spec, seed=run_seed)
        problems = []
        weyl, spread = block["weyl_sup"], block["sectional_spread"]
        if weyl is None or not weyl <= WEYL_MAX:
            problems.append(f"Weyl sup {weyl} exceeds {WEYL_MAX:.0e}")
        if not spread >= SPREAD_MIN:
            problems.append(f"sectional spread {spread:.3e} below {SPREAD_MIN:.0e}")
        return [Outcome(label, problems)]

    return Command(f"conformal_block {label}", 1, run, [spec])


def _catalog_n2(rng, run_seed: int) -> list:
    make_spec = immersions.make_spec
    commands = []
    for kind, (pname, values) in SWEEPS.items():
        if kind in SWEEP_ARGS:
            commands.append(_sweep_command(kind, run_seed))
        else:
            commands += [_verify_command(kind, pname, v, run_seed) for v in values]
    radii = tuple(float(r) for r in rng.uniform(0.8, 1.25, size=2))
    commands += [
        _case_command(
            f"product_torus radii={radii}", make_spec("product_torus", 2, radii=radii),
            dict(classification="PARALLEL_BRANCH",
                 volume=(2.0 * math.pi) ** 2 * radii[0] * radii[1]),
            run_seed),
        _case_command(
            "totally_geodesic_cp", make_spec("totally_geodesic_cp", 2),
            dict(classification="PARALLEL_BRANCH", volume=4.0 * math.pi),
            run_seed, conformal=True, spread_max=CONSTANT_SPREAD_MAX),
        _case_command(
            "lifted base=whitney_c0", make_spec("lifted", 2, base="whitney_c0"),
            dict(classification="WHITNEY_BRANCH", equality=True), run_seed),
        # at epsilon = 0 the flow is skipped and the case is whitney_c0, r = 1
        _case_command(
            "perturbed epsilon=0", make_spec("perturbed", 2, epsilon=0.0),
            dict(classification="WHITNEY_BRANCH", volume=math.pi**2, equality=True),
            run_seed),
    ]
    return commands


def _flow_n2(rng, run_seed: int) -> list:
    spec = immersions.make_spec("perturbed", 2, epsilon=0.05, seed=3)
    return [_case_command("perturbed epsilon=0.05 seed=3", spec,
                          dict(classification="STRICT", strict=True), run_seed)]


def _highdim(rng, run_seed: int) -> list:
    make_spec = immersions.make_spec
    K = HIGHDIM_RESOLUTION
    whitney = dict(classification="WHITNEY_BRANCH", equality=True)
    return [
        _case_command(f"whitney_cp n=3 theta=0.5 K={K}",
                      make_spec("whitney_cp", 3, theta=0.5), whitney, run_seed, K),
        _case_command(f"contact_whitney_s n=3 theta=0.5 a=0.8 K={K}",
                      make_spec("contact_whitney_s", 3, theta=0.5, a=0.8),
                      whitney, run_seed, K),
        _conformal_command("contact_whitney_r n=4 r=1",
                           make_spec("contact_whitney_r", 4, r=1.0), run_seed),
    ]


WORKLOADS = {"catalog_n2": _catalog_n2, "flow_n2": _flow_n2, "highdim": _highdim}


def build(name: str, seed: int) -> list:
    """The workload's commands, with the inputs the seed gives them."""
    rng = np.random.default_rng(seed)
    run_seed = int(rng.integers(0, 2**16))
    return WORKLOADS[name](rng, run_seed)


def ambient_models(commands: list) -> list:
    """One model per distinct ambient space the commands' certificates use."""
    models = {}
    for command in commands:
        for spec in command.specs:
            model = immersions.model_for(spec)
            models.setdefault((model.kind, model.n, getattr(model, "a", None)), model)
    return list(models.values())


def reset_caches() -> None:
    """Empty whitneygeo's module caches, as a fresh process starts with them."""
    for module in (jets, spaceforms, immersions, geometry, quadrature, verify, cli):
        for name, value in vars(module).items():
            if name.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
