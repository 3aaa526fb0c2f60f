"""Per-case verification: residual aggregation, integral certification,
equality-case classification, and report rendering.

A case run evaluates each grid once, in one order-3 chunk loop
(:func:`_grid_sums`).  Every rung of the convergence ladder integrates the
certificate's integrands there; two companion grids at 1/2 and 3/4 of the
resolution do nothing else, and with the full grid they give each
quadrature-error estimate (:func:`whitneygeo.quadrature.quadrature_error`).
The full grid's chunks also feed the gradient-field integrals of the
divergence identity, the l2 sums, the sups and minima of every pointwise
identity on the trusted nodes and, at n <= 3 with ``conformal``, the
sectional-curvature statistics.  The standalone conformal block, and the
n >= 4 block on its coarser grid, run only the order-2 frame stage.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jets
from .geometry import (
    TJ,
    CurvatureData,
    curvature_data,
    frame_geometry,
    gauss_curvature,
    gradient_field,
    paper_residuals,
    pointwise_geometry,
    sectional_curvatures,
    structure_checks,
    vector_field_scalars,
)
from .immersions import ImmersionSpec, SphereChart, model_for
from .quadrature import (
    ROUNDOFF,
    IntegrationGrid,
    build_grid,
    ladder_resolutions,
    quadrature_error,
)

__all__ = [
    "Tolerances",
    "VerificationReport",
    "run_case",
    "classify_equality",
    "report_to_json",
    "report_to_csv_row",
    "CSV_COLUMNS",
    "report_to_markdown",
]

CLASSIFICATIONS = ("PARALLEL_BRANCH", "WHITNEY_BRANCH", "STRICT", "UNRESOLVED")

#: isotropy tolerance by construction quality of the case
_EXACT_ISOTROPY_TOL = 1e-9
_FLOWED_ISOTROPY_TOL = 1e-7

_STRUCTURE_TOLS = {
    "cubic_symmetry": 1e-9,
    "codazzi_total_symmetry": 1e-8,
    "mean_curvature_symmetry": 1e-9,
    "gauss_cross_check": 1e-8,
    "h_contact_component": 1e-8,
    "hcov_xi_vs_h": 1e-8,
    "H_contact_derivative": 1e-8,
}

_IDENTITY_TOL = 1e-10

#: residuals whose sup and volume-normalized l2 norm a report records
_L2_RESIDUALS = (
    "whitney_residual",
    "scalar_relation_residual",
    "equality_condition_residual",
)

#: n >= 4 conformal-block grid: its sups need coverage, not integration accuracy
_CONFORMAL_RESOLUTION = 12


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by the checks and the equality classification."""

    pointwise: float = 1e-8
    inequality_slack: float = 1e-9
    integral: float = 1e-8
    classification: float = 1e-6
    strictness: float = 1e-4

    def __post_init__(self):
        if not (self.strictness > self.classification > self.inequality_slack):
            raise ValueError(
                "tolerances must satisfy strictness > classification > "
                "inequality slack"
            )


@dataclass
class VerificationReport:
    """Everything a case run certifies, in JSON-ready form."""

    report_version: int
    case: str
    n: int
    parameters: dict
    model: str
    model_self_test: dict
    resolution: int
    num_nodes: int
    seed: int
    residual_sup: dict
    residual_l2: dict
    gap_minima: dict
    integrals: dict
    yano: dict
    quadrature: dict
    classification: str
    unresolved_reason: str | None
    hard_failures: list
    conformal: dict | None
    effective_config: dict


def classify_equality(
    defect_normalized: float,
    sup_nabla_h: float,
    sup_whitney: float,
    tol: Tolerances,
    resolved: bool,
) -> str:
    """Equality-case decision from the integral defect and pointwise sups."""
    if not resolved:
        return "UNRESOLVED"
    if defect_normalized <= tol.classification:
        if sup_nabla_h <= tol.pointwise:
            return "PARALLEL_BRANCH"
        if sup_whitney <= tol.pointwise:
            return "WHITNEY_BRANCH"
        return "UNRESOLVED"
    if defect_normalized >= tol.strictness:
        return "STRICT"
    return "UNRESOLVED"


def _chunk_size(chart_dim: int) -> int:
    return 1024 if chart_dim >= 7 else 4096


def _gradient_test_functions(spec: ImmersionSpec, seed: int, count: int = 3):
    """Seeded smooth scalar functions on the domain, as packed-jet evaluators.

    Each is a sum of two exponentials of linear forms in the packed inner
    jets: the sphere coordinates, or cos and then sin of the torus angles.
    """
    rng = np.random.default_rng(seed + 7919)
    n = spec.n
    funcs = []
    for _ in range(count):
        if spec.domain == "sphere":
            forms = rng.normal(size=(2, n + 1))
            forms /= np.linalg.norm(forms, axis=1, keepdims=True)
            s = rng.uniform(0.3, 0.8, size=2)
        else:
            forms = 0.4 * np.hstack([rng.normal(size=(2, n)) for _ in range(2)])
            s = np.ones(2)
        c = rng.normal(size=2)

        def f(inner, ops, forms=forms, s=s, c=c):
            return ops.fn("exp", (inner @ forms.T) * s) @ c

        funcs.append(f)
    return funcs


def _certificate_integrands(pg, cd) -> dict:
    """The integrands of the main inequality and of its divergence identity.

    ``nabla_h_sq`` is |nabla h|^2, or its contact projection in the
    Sasakian case; J H (resp. phi H) has frame components -H.
    """
    vf = vector_field_scalars(pg, cd, TJ(-pg.H.v, -pg.H.d))
    return {
        "volume": np.ones(len(pg.sqrt_det_g)),
        "ric_direction": vf["ric_YY"],
        "nabla_h_sq": np.einsum("bijkl,bijkl->b", pg.hcov, pg.hcov),
        "yano_main": vf["yano_integrand"],
    }


def _grid_sums(spec, model, grid: IntegrationGrid, atlas, integrands,
               consume=None) -> dict:
    """Integrate each array of ``integrands(pg, cd)`` over one grid.

    This is the one order-3 chunk loop.  The full rung of a case also hands
    each chunk to ``consume(chart, idx, pg, cd)``, and there the curvature
    takes both routes, since the structure checks compare them.
    """
    curvature = gauss_curvature if consume is None else curvature_data
    sums = {}
    for chart, idx in grid.chunks(_chunk_size(model.chart_dim)):
        pg, fields = pointwise_geometry(model, spec, chart, grid.t[idx], atlas=atlas)
        cd = curvature(pg, fields)
        w = grid.weight[idx]
        for name, vals in integrands(pg, cd).items():
            sums[name] = sums.get(name, 0.0) + float(np.sum(w * vals * pg.sqrt_det_g))
        if consume is not None:
            consume(chart, idx, pg, cd)
        del pg, fields, cd  # free this chunk's arrays before the next one allocates
    return sums


def _normalized_integrals(n: int, sums: dict) -> dict:
    """Volume-normalized defect of the main inequality and Yano integral."""
    coef = (n - 1.0) * (n + 2.0) / (3.0 * n**2)
    vol = sums["volume"]
    return {
        "defect_normalized": (coef * sums["nabla_h_sq"] - sums["ric_direction"])
        / vol,
        "yano_main": sums["yano_main"] / vol,
    }


def _quadrature_estimates(n: int, ladder) -> dict:
    """Error estimates of the normalized defect and Yano integral.

    ``ladder`` holds ``(K, sums)`` of :func:`_certificate_integrands` on the
    rungs of :func:`whitneygeo.quadrature.ladder_resolutions`.
    """
    normalized = [(k, _normalized_integrals(n, s)) for k, s in ladder]
    top = ladder[-1][1]
    # both integrals are differences of terms bounded by |nabla h|^2 and
    # Ric(JH, JH), which set the size of their rounding noise
    floor = ROUNDOFF * (top["nabla_h_sq"] + abs(top["ric_direction"])) / top["volume"]
    # the divergence-identity integral vanishes exactly, so its ladder is
    # the control that vets a fitted estimate
    control = [v["yano_main"] for _, v in normalized]
    out = {}
    for name in ("defect_normalized", "yano_main"):
        values = [v[name] for _, v in normalized]
        error, method = quadrature_error(values, floor, control)
        out[name] = {
            "ladder": [[k, x] for (k, _), x in zip(normalized, values)],
            "estimate": method,
            "error": error,
        }
    return out


def _unresolved_reason(
    defect_norm, error, gates, sup_nabla_h, sup_whitney, tol, structural
) -> str:
    """Why :func:`classify_equality` withheld a decision, in its order."""
    if structural:
        return "structural hard failures: " + "; ".join(structural)
    if not any(error <= bound for bound in gates.values()):
        parts = [
            f"the {name} gate {bound:.2e}"
            + (f" ({error / bound:.3g}x)" if bound > 0 else "")
            for name, bound in gates.items()
        ]
        return f"defect error estimate {error:.2e} exceeds " + " and ".join(parts)
    if defect_norm <= tol.classification:
        return (
            f"defect {defect_norm:.2e} is at equality, but neither sup "
            f"|nabla h| {sup_nabla_h:.2e} nor the Whitney residual "
            f"{sup_whitney:.2e} is within the pointwise tolerance "
            f"{tol.pointwise:.0e}"
        )
    return (
        f"defect {defect_norm:.2e} lies between the classification "
        f"{tol.classification:.0e} and strictness {tol.strictness:.0e} "
        f"thresholds"
    )


def _accumulate_case(spec, model, grid: IntegrationGrid, atlas, seed, sectional=None):
    """The full rung: the ladder integrands plus every other consumer of a chunk.

    Those are the gradient-field integrals, the l2 sums, the trusted-node
    sups and minima and, given a :class:`_SectionalStats`, the curvature
    statistics of the trusted nodes.
    """
    grad_funcs = _gradient_test_functions(spec, seed)
    ops = jets._Ops(spec.n, 2)
    grads, l2sums, sups, mins = {}, {}, {}, {}

    def consume(chart, idx, pg, cd):
        t, w, trusted = grid.t[idx], grid.weight[idx], grid.trusted[idx]
        dens = pg.sqrt_det_g
        if spec.domain == "sphere":
            inner = atlas.u_jets(chart, t, order=2)
        else:
            inner = np.concatenate(jets._seed_angles(t, 2), axis=-1)
        for k, f in enumerate(grad_funcs):
            vf = vector_field_scalars(pg, cd, gradient_field(pg, f(inner, ops)))
            name = f"yano_grad_{k}"
            grads[name] = grads.get(name, 0.0) + float(
                np.sum(w * vf["yano_integrand"] * dens)
            )
        res = paper_residuals(pg, cd)
        for name in _L2_RESIDUALS:
            l2sums[name] = l2sums.get(name, 0.0) + float(
                np.sum(w * res[name] ** 2 * dens)
            )
        if not np.any(trusted):
            return
        main = res["nabla_xi_h_norm2"] if model.is_sasakian else res["nabla_h_norm2"]
        checked = {k: res[k] for k in _L2_RESIDUALS + ("identity_34", "identity_35")}
        checked["sup_nabla_h"] = np.sqrt(np.maximum(main, 0.0))
        checked["lemma_gap_32_abs"] = res["lemma_gap_32"]
        checked.update(structure_checks(pg, cd))
        for name, vals in checked.items():
            sups[name] = max(sups.get(name, 0.0), float(np.max(np.abs(vals[trusted]))))
        for name in ("lemma_gap_31", "lemma_gap_32"):
            mins[name] = min(mins.get(name, np.inf), float(np.min(res[name][trusted])))
        if sectional is not None:
            sectional.add(cd.Riem[trusted])

    sums = _grid_sums(spec, model, grid, atlas, _certificate_integrands, consume)
    return {**sums, **grads}, sups, l2sums, mins


def _rk4_step_check(spec, atlas, grid, sample: int = 64) -> float:
    """Sup drift of the flowed jets when the RK4 step is halved."""
    from .immersions import eval_immersion, make_spec

    pool = np.nonzero(grid.chart == 0)[0]
    idx = pool[np.linspace(0, len(pool) - 1, min(sample, len(pool))).astype(int)]
    t = grid.t[idx]
    chart = 0
    fine = make_spec(
        "perturbed", spec.n, **{**spec.params, "steps": 2 * spec.params["steps"]}
    )
    a = eval_immersion(spec, chart, t, atlas=atlas, order=1)
    b = eval_immersion(fine, chart, t, atlas=atlas, order=1)
    return float(np.max(np.abs(a[0] - b[0])))


class _SectionalStats:
    """Weyl sup and sampled sectional range, folded in chunk by chunk.

    Each chunk adds the Gauss-route curvature of its trusted nodes; the
    random planes come from one stream per run, drawn chunk after chunk.
    """

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = np.random.default_rng(seed + 104729)
        self.weyl_sup = None
        self.kmin, self.kmax = np.inf, -np.inf

    def add(self, riem, weyl=None):
        n = self.n
        if weyl is not None:
            cur = float(np.max(np.abs(weyl)))
            self.weyl_sup = cur if self.weyl_sup is None else max(self.weyl_sup, cur)
        cd = CurvatureData(Riem=riem, Riem_metric=None, Ricci=None, scalar=None, Weyl=weyl)
        B = len(riem)
        planes = [(i, j) for i in range(n) for j in range(i + 1, n)]
        V = np.zeros((B, len(planes), n))
        W = np.zeros((B, len(planes), n))
        for p, (i, j) in enumerate(planes):
            V[:, p, i] = 1.0
            W[:, p, j] = 1.0
        K = sectional_curvatures(cd, V, W)
        Vr = self.rng.normal(size=(B, 20, n))
        Vr /= np.linalg.norm(Vr, axis=-1, keepdims=True)
        Wr = self.rng.normal(size=(B, 20, n))
        Wr -= np.einsum("bpi,bpi->bp", Wr, Vr)[..., None] * Vr
        Wr /= np.linalg.norm(Wr, axis=-1, keepdims=True)
        Kr = sectional_curvatures(cd, Vr, Wr)
        self.kmin = min(self.kmin, float(K.min()), float(Kr.min()))
        self.kmax = max(self.kmax, float(K.max()), float(Kr.max()))

    def result(self) -> dict:
        return {
            "weyl_sup": self.weyl_sup,
            "sectional_min": self.kmin,
            "sectional_max": self.kmax,
            "sectional_spread": self.kmax - self.kmin,
        }


def _conformal_block(spec, model, grid, atlas, seed):
    """The curvature statistics from the order-2 frame stage at the trusted nodes."""
    stats = _SectionalStats(spec.n, seed)
    for chart, idx in grid.chunks(_chunk_size(model.chart_dim)):
        trusted = grid.trusted[idx]
        if not np.any(trusted):
            continue
        pg, fields = frame_geometry(model, spec, chart, grid.t[idx][trusted], atlas=atlas)
        cd = gauss_curvature(pg, fields)
        stats.add(cd.Riem, cd.Weyl)
    return stats.result()


def conformal_block(
    spec: ImmersionSpec, resolution: int | None = None, seed: int = 0
) -> dict:
    """Weyl sup and sampled sectional spread for one case, standalone."""
    model = model_for(spec)
    model.self_test(strict=True)
    atlas = SphereChart(spec.n) if spec.domain == "sphere" else None
    if resolution is None and spec.n >= 4:
        resolution = _CONFORMAL_RESOLUTION
    grid = build_grid(spec.n, resolution, domain=spec.domain, atlas=atlas)
    return _conformal_block(spec, model, grid, atlas, seed)


def run_case(
    spec: ImmersionSpec,
    resolution: int | None = None,
    tolerances: Tolerances | None = None,
    seed: int = 0,
    conformal: bool = False,
    effective_config: dict | None = None,
) -> VerificationReport:
    """Run the full verification pipeline for one case."""
    tol = tolerances or Tolerances()
    model = model_for(spec)
    self_test = dict(model.self_test(strict=True))
    atlas = SphereChart(spec.n) if spec.domain == "sphere" else None

    grid = build_grid(spec.n, resolution, domain=spec.domain, atlas=atlas)
    resolution = grid.resolution
    rungs = ladder_resolutions(resolution)

    # at n <= 3 the curvature statistics come from the full pass's own
    # chunks; at n >= 4 from the frame stage on a coarser grid, below
    sectional = _SectionalStats(spec.n, seed) if conformal and spec.n <= 3 else None
    sums, sups, l2sums, mins = _accumulate_case(spec, model, grid, atlas, seed, sectional)
    # the 1/2 and 3/4 rungs of the convergence ladder need only the
    # certificate's integrands, not the sups or the gradient-field integrals
    ladder = []
    for k in rungs[:2]:
        rung = build_grid(spec.n, k, domain=spec.domain, atlas=atlas)
        ladder.append((k, _grid_sums(spec, model, rung, atlas, _certificate_integrands)))
    ladder.append((resolution, sums))
    quadrature = _quadrature_estimates(spec.n, ladder)

    vol = sums["volume"]
    coef = (spec.n - 1.0) * (spec.n + 2.0) / (3.0 * spec.n**2)
    lhs = sums["ric_direction"]
    rhs = coef * sums["nabla_h_sq"]
    defect = rhs - lhs
    defect_norm = defect / vol

    defect_error = quadrature["defect_normalized"]["error"]
    # the defect estimate must certify the *decision*: either it is small
    # against the equality threshold or small against the defect itself
    gates = {
        "absolute": 0.5 * tol.classification,
        "relative": 0.25 * abs(defect_norm),
    }
    quadrature["gates"] = gates
    resolved = any(defect_error <= bound for bound in gates.values())

    yano = {"main": sums["yano_main"] / vol}
    for k in range(3):
        yano[f"grad_{k}"] = sums[f"yano_grad_{k}"] / vol
    yano["main_error"] = quadrature["yano_main"]["error"]

    l2 = {k: float(np.sqrt(max(v, 0.0) / vol)) for k, v in l2sums.items()}

    # hard invariants: structural ones invalidate the classification,
    # integral-certificate misses fail the run but leave a resolved defect
    # classification meaningful
    structural = []
    certificates = []
    if not self_test.get("ok", False):
        structural.append("model self-test failed")
    iso_tol = (
        _FLOWED_ISOTROPY_TOL
        if spec.kind in ("perturbed", "lifted")
        else _EXACT_ISOTROPY_TOL
    )
    if sups.get("isotropy", 0.0) > iso_tol:
        structural.append(f"isotropy {sups['isotropy']:.2e} > {iso_tol:.0e}")
    for name, t_ in _STRUCTURE_TOLS.items():
        if sups.get(name, 0.0) > t_:
            structural.append(f"{name} {sups[name]:.2e} > {t_:.0e}")
    for name in ("identity_34", "identity_35"):
        if sups.get(name, 0.0) > _IDENTITY_TOL:
            structural.append(f"{name} {sups[name]:.2e} > {_IDENTITY_TOL:.0e}")
    for name in ("lemma_gap_31", "lemma_gap_32"):
        if mins.get(name, 0.0) < -tol.inequality_slack:
            structural.append(
                f"{name} {mins[name]:.2e} < -{tol.inequality_slack:.0e}"
            )
    if spec.kind == "perturbed" and spec.params["epsilon"] > 0:
        rk4_drift = _rk4_step_check(spec, atlas, grid)
        sups["rk4_step_drift"] = rk4_drift
        if rk4_drift > 1e-9:
            structural.append(f"RK4 halved-step drift {rk4_drift:.2e} > 1e-9")
    if defect < -tol.integral * vol:
        certificates.append(f"integral defect {defect_norm:.2e} below -integral tol")
    for k, v in yano.items():
        if k == "main_error":
            continue
        if abs(v) > tol.integral:
            certificates.append(f"yano[{k}] {v:.2e} exceeds integral tol")
    failures = structural + certificates

    sup_nabla_h = sups.get("sup_nabla_h", 0.0)
    sup_whitney = sups.get("whitney_residual", 0.0)
    classification = classify_equality(
        defect_norm, sup_nabla_h, sup_whitney, tol, resolved and not structural
    )
    unresolved_reason = None
    if classification == "UNRESOLVED":
        unresolved_reason = _unresolved_reason(
            defect_norm, defect_error, gates, sup_nabla_h, sup_whitney, tol,
            structural,
        )

    conf = None
    if sectional is not None:
        conf = sectional.result()
    elif conformal:
        conf_grid = build_grid(spec.n, _CONFORMAL_RESOLUTION, spec.domain, atlas)
        conf = _conformal_block(spec, model, conf_grid, atlas, seed)

    params = {
        k: (list(v) if isinstance(v, tuple) and k != "hamiltonian" else v)
        for k, v in spec.params.items()
        if k != "hamiltonian"
    }
    self_test_json = {
        k: (bool(v) if k == "ok" else float(v)) for k, v in self_test.items()
    }

    return VerificationReport(
        report_version=2,
        case=spec.kind,
        n=spec.n,
        parameters=params,
        model=model.kind,
        model_self_test=self_test_json,
        resolution=resolution,
        num_nodes=int(len(grid.t)),
        seed=seed,
        residual_sup={k: float(v) for k, v in sorted(sups.items())},
        residual_l2=l2,
        gap_minima={k: float(v) for k, v in sorted(mins.items())},
        integrals={
            "volume": vol,
            "ric_direction": lhs,
            "nabla_h_sq": sums["nabla_h_sq"],
            "rhs_scaled": rhs,
            "defect": defect,
            "defect_normalized": defect_norm,
            "defect_error": defect_error,
        },
        yano=yano,
        quadrature=quadrature,
        classification=classification,
        unresolved_reason=unresolved_reason,
        hard_failures=failures,
        conformal=conf,
        effective_config=effective_config or {},
    )


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=False)


CSV_COLUMNS = [
    "case",
    "n",
    "parameters",
    "classification",
    "volume",
    "ric_direction",
    "rhs_scaled",
    "defect_normalized",
    "defect_error",
    "yano_main",
    "whitney_residual_sup",
    "scalar_relation_sup",
    "sup_nabla_h",
    "isotropy_sup",
    "gauss_cross_check_sup",
    "lemma_gap_31_min",
    "lemma_gap_32_min",
    "hard_failures",
]


def report_to_csv_row(report: VerificationReport) -> list[str]:
    i = report.integrals
    s = report.residual_sup
    g = report.gap_minima
    return [
        report.case,
        str(report.n),
        json.dumps(report.parameters, sort_keys=True),
        report.classification,
        repr(i["volume"]),
        repr(i["ric_direction"]),
        repr(i["rhs_scaled"]),
        repr(i["defect_normalized"]),
        repr(i["defect_error"]),
        repr(report.yano["main"]),
        repr(s.get("whitney_residual", float("nan"))),
        repr(s.get("scalar_relation_residual", float("nan"))),
        repr(s.get("sup_nabla_h", float("nan"))),
        repr(s.get("isotropy", float("nan"))),
        repr(s.get("gauss_cross_check", float("nan"))),
        repr(g.get("lemma_gap_31", float("nan"))),
        repr(g.get("lemma_gap_32", float("nan"))),
        ";".join(report.hard_failures),
    ]


def report_to_markdown(report: VerificationReport) -> str:
    i = report.integrals
    lines = [
        f"## {report.case} (n = {report.n})",
        "",
        f"- parameters: `{json.dumps(report.parameters, sort_keys=True)}`",
        f"- model: {report.model} (self-test "
        f"{'ok' if report.model_self_test.get('ok') else 'FAILED'})",
        f"- classification: **{report.classification}**",
        f"- integral defect (volume-normalized): {i['defect_normalized']:.3e} "
        f"(quadrature error estimate {i['defect_error']:.1e}, "
        f"{report.quadrature['defect_normalized']['estimate']})",
        f"- divergence-identity integral: {report.yano['main']:.3e} "
        f"(quadrature error estimate {report.yano['main_error']:.1e}, "
        f"{report.quadrature['yano_main']['estimate']})",
    ]
    if report.unresolved_reason:
        lines.append(f"- unresolved because: {report.unresolved_reason}")
    lines += ["", "| check | sup residual |", "|---|---|"]
    for k, v in report.residual_sup.items():
        lines.append(f"| {k} | {v:.3e} |")
    lines.append("")
    lines.append("| gap | minimum |")
    lines.append("|---|---|")
    for k, v in report.gap_minima.items():
        lines.append(f"| {k} | {v:.3e} |")
    if report.conformal:
        c = report.conformal
        lines.append("")
        w = "n/a" if c["weyl_sup"] is None else f"{c['weyl_sup']:.3e}"
        lines.append(f"- Weyl sup: {w}")
        lines.append(f"- sectional spread: {c['sectional_spread']:.3e}")
    if report.hard_failures:
        lines.append("")
        lines.append("**Hard failures:** " + "; ".join(report.hard_failures))
    return "\n".join(lines) + "\n"
