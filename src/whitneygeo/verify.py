"""Per-case verification: residual aggregation, integral certification,
equality-case classification, and report rendering.

A case run evaluates each grid once.  Every rung of the convergence ladder
integrates the certificate's integrands there, read through one name map
(``_CERTIFICATE``) from :func:`whitneygeo.geometry.paper_residuals`, the
table that also gives the sups.  The rungs at 1/2 and 3/4 of the
resolution do nothing else, and with the full grid they give each
quadrature-error estimate (:func:`whitneygeo.quadrature.quadrature_error`).
The full grid's chunks also feed the gradient-field integrals of the
divergence identity, the l2 sums, the sups and minima of every pointwise
identity over every node and, at n <= 3 with ``conformal``, the
sectional-curvature statistics.  At n >= 4 those come from the conformal
block's grid, which runs only the order-2 frame stage, as the standalone
:func:`conformal_block` does.

A run is one map (:func:`_map_chunks`) and one fold.  One builder,
:func:`_map_grids`, makes a job of every chunk of every grid the run
evaluates: a module-level function and its inputs, the spec, the case's
model with its base-point fields (computed once, by the builder), the
function's own arguments, the seed of the chunk's random planes (from
the run seed and the chunk's place among the chunks that draw planes) and
its own nodes (the points themselves) and weights.  The same map carries
the case's other checks: the model's self-test and, for a flowed case,
the RK4 step check on its sampled nodes.  The jobs run on the process's
one pool of forked workers, started by the first map that wants more than
one and kept across cases, with the einsum plans, Leibniz tables and
curvature pair tables each worker has built: those depend on shapes only.  Each chunk job returns
its partial sums, sups, minima and sectional range (a frame-stage chunk:
its sectional range and Weyl sup), and the caller folds them in chunk
order, as a serial loop would; so a report does not depend on the number
of workers.  Each worker
holds the geometry of one chunk at a time.
"""

from __future__ import annotations

import atexit
import json
import math
import numbers
import operator
import os
import pickle
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jets
from .geometry import (
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
from .immersions import (
    ImmersionSpec, _lift_base, domain_jets, eval_immersion, make_spec, model_for,
)
from .quadrature import (
    ROUNDOFF,
    _integer,
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

#: the sup bound of each structural check, in the order a report lists
#: their failures: isotropy (of every case, the flowed and lifted ones
#: included), the structure equations, then the identities of
#: :func:`paper_residuals`
_STRUCTURE_TOLS = {
    "isotropy": 1e-9,
    "cubic_symmetry": 1e-9,
    "codazzi_total_symmetry": 1e-8,
    "mean_curvature_symmetry": 1e-9,
    "gauss_cross_check": 1e-8,
    "h_contact_component": 1e-8,
    "hcov_xi_vs_h": 1e-8,
    "H_contact_derivative": 1e-8,
    "identity_34": 1e-10,
    "identity_35": 1e-10,
}

#: the structural checks only a Sasakian ambient has
_CONTACT_CHECKS = ("h_contact_component", "hcov_xi_vs_h", "H_contact_derivative")

#: residuals whose sup and volume-normalized l2 norm a report records
_L2_RESIDUALS = (
    "whitney_residual",
    "scalar_relation_residual",
    "equality_condition_residual",
)

#: n >= 4 conformal-block grid: its sups need coverage, not integration
#: accuracy.  K = 10 is the largest K whose 2 K^4 nodes (20 000) stay within
#: the block's budget of 12^4 = 20 736 nodes
_CONFORMAL_RESOLUTION = 10


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by the checks and the equality classification."""

    pointwise: float = 1e-8
    inequality_slack: float = 1e-9
    integral: float = 1e-8
    classification: float = 1e-6
    strictness: float = 1e-4

    def __post_init__(self):
        # a NaN would pass every "abs(x) > tol" check, so it is refused here
        for name, value in asdict(self).items():
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValueError(f"tolerance {name} must be a finite number >= 0, got {value!r}")
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
    """Most nodes per chunk job.

    Small enough that the rungs of an n = 2, K = 48 ladder (4608, 2592 and
    1152 nodes) make six jobs, which two workers share about evenly; with
    4096 they made four, and the flowed case's pass waited on one worker.
    """
    return 1024 if chart_dim >= 7 else 2048


#: seeded gradient test functions per case, each a Yano integral of the report
_GRADIENT_TESTS = 3


def _gradient_test_functions(spec: ImmersionSpec, seed: int):
    """Seeded smooth scalar functions on the domain, as packed-jet evaluators.

    Each is a sum of two exponentials of linear forms in the packed inner
    jets of :func:`domain_jets`: sphere coordinates, or cos, then sin, of
    the torus angles.
    """
    rng = np.random.default_rng(seed + 7919)
    n = spec.n
    funcs = []
    for _ in range(_GRADIENT_TESTS):
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


def _worker_count(jobs: int) -> int:
    """Chunk workers for ``jobs`` chunk jobs: one per usable core, at most one per job.

    One, so that the caller evaluates in-process, where ``fork`` is not a
    start method and in a daemonic process, which may not start children.
    """
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, jobs))


#: glibc ``mallopt`` settings of every chunk worker: M_MMAP_THRESHOLD and
#: M_TOP_PAD of 64 MB, M_TRIM_THRESHOLD of 256 MB.  A chunk's temporaries
#: then come from a heap that stays mapped across jobs, instead of fresh
#: mappings that fault in page by page and are unmapped when freed
_MALLOPT = ((-3, 64 << 20), (-2, 64 << 20), (-1, 256 << 20))


def _openblas(stem: str) -> list:
    """The function ``stem`` of every OpenBLAS this process has loaded, as ctypes functions.

    Builds rename their exports (numpy's wheels have
    ``scipy_openblas_set_num_threads64_``), so each prefix and suffix they
    use is tried.  The libraries are found by file name among the
    process's mappings; none where there are no ``/proc/self/maps``.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            mappings = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = {m[5].strip() for m in mappings
             if len(m) == 6 and "openblas" in m[5].rpartition("/")[2]}
    names = [f"{pre}{stem}{post}" for pre in ("", "scipy_") for post in ("", "64_", "_64_")]
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if fn is not None:
            found.append(fn)
    return found


def _init_worker():
    """Pool initializer: the allocator settings, and one BLAS thread per worker.

    There are as many workers as cores, so a threaded matrix product in a
    worker only oversubscribes them.  Either setting is skipped where its
    function (``mallopt``, OpenBLAS's ``openblas_set_num_threads``) is missing.
    """
    import ctypes

    for set_threads in _openblas("openblas_set_num_threads"):
        set_threads(1)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


#: the process's chunk pool, ``(owner pid, pool, workers)``: started by the
#: first map that wants more than one worker and kept across cases
_POOL = None


def _close_pool(finish: bool = False):
    """Stop this process's chunk workers, at once or (``finish``) after their jobs;
    a pool that a fork inherited is only forgotten."""
    global _POOL
    entry, _POOL = _POOL, None
    if entry is not None and entry[0] == os.getpid():
        entry[1].close() if finish else entry[1].terminate()
        entry[1].join()


atexit.register(_close_pool)


def _pool(workers: int):
    """The process's chunk pool, with at least ``workers`` workers."""
    global _POOL
    if _POOL is not None and (_POOL[0] != os.getpid() or _POOL[2] < workers):
        _close_pool()
    if _POOL is None:
        import multiprocessing

        pool = multiprocessing.get_context("fork").Pool(workers, initializer=_init_worker)
        _POOL = (os.getpid(), pool, workers)
    return _POOL[1]


def _run_job(job):
    """``fn(*args)`` of a pickled job ``(fn, *args)``, unpickled here so that a job a
    worker cannot unpickle fails into the caller instead of killing the worker."""
    fn, *args = pickle.loads(job)
    return fn(*args)


def _map_chunks(jobs: list) -> list:
    """``[fn(*args) for fn, *args in jobs]``, on every core the process may use.

    ``fn`` is a module-level function or a bound method, and a job holds
    everything it reads; a job that evaluates nodes ends with their array.
    The jobs go out most nodes first, one at a time, to the process's pool
    of :func:`_worker_count` workers (or run in-process when that is one),
    so the jobs without nodes fill the tail of the last chunks; the results
    come back in job order.  The workers outlive the map, and their shape
    tables with them.  A job's exception (or its unpickling's) reaches the
    caller after the other jobs end, and stops the pool until the next map.
    """
    order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][-1])
                   if isinstance(jobs[i][-1], np.ndarray) else 0)
    tasks = [jobs[i] for i in order]
    workers = _worker_count(len(jobs))
    if workers == 1:
        results = [fn(*args) for fn, *args in tasks]
    else:
        try:
            # imap pickles each job as the pool sends it, where map would
            # hold them all at once
            results = list(_pool(workers).imap(_run_job, map(pickle.dumps, tasks), chunksize=1))
        except BaseException as exc:
            # after a job's error the others finish: terminate() can kill a worker
            # that holds the result queue's lock, and then waits for that lock
            _close_pool(finish=isinstance(exc, Exception))
            raise
    out = [None] * len(jobs)
    for i, result in zip(order, results):
        out[i] = result
    return out


def _fold(partials, combine, start) -> dict:
    """Per-name ``combine`` of the chunks' partial dicts, in chunk order."""
    out = {}
    for part in partials:
        for name, value in part.items():
            out[name] = combine(out.get(name, start), value)
    return out


#: the certificate's integrals and the :func:`paper_residuals` entry each integrates
_CERTIFICATE = {
    "ric_direction": "ric_JH_JH",
    "nabla_h_sq": "nabla_xi_h_norm2",
    "yano_main": "yano_integrand",
}


def _chunk_sums(spec, model, nodes, w, curvature=gauss_curvature):
    """One chunk's geometry and residuals, and the weighted sum of each certificate integrand.

    ``nodes`` holds the chunk's nodes and ``w`` their weights.

    ``nabla_h_sq`` is |nabla h|^2, or its contact projection in the
    Sasakian case.  ``curvature_scale`` is |c| + |H|^2, with c the
    ambient's sectional curvature on the tangent planes: the size of the
    curvature terms the integrands are built from, which, unlike the
    integrands, does not vanish on the parallel branch.  It vanishes only
    for a minimal immersion into a flat ambient.
    """
    pg, fields = pointwise_geometry(model, spec, nodes)
    cd = curvature(pg, fields)
    res = paper_residuals(pg, cd)
    integrands = {"volume": np.ones(len(nodes))}
    integrands.update((name, res[key]) for name, key in _CERTIFICATE.items())
    integrands["curvature_scale"] = abs(pg.c_eff) + res["H_norm2"]
    sums = {
        name: float(np.sum(w * vals * pg.sqrt_det_g))
        for name, vals in integrands.items()
    }
    return sums, pg, cd, res


def _normalized_integrals(n: int, sums: dict) -> dict:
    """The main inequality's scaled right side and defect, then the
    volume-normalized defect and Yano integral."""
    vol = sums["volume"]
    rhs = (n - 1.0) * (n + 2.0) / (3.0 * n**2) * sums["nabla_h_sq"]
    defect = rhs - sums["ric_direction"]
    return {
        "rhs_scaled": rhs,
        "defect": defect,
        "defect_normalized": defect / vol,
        "yano_main": sums["yano_main"] / vol,
    }


def _quadrature_estimates(n: int, ladder) -> dict:
    """Error estimates of the normalized defect and Yano integral.

    ``ladder`` holds ``(K, sums)`` of :func:`_chunk_sums`, folded over the
    rungs of :func:`whitneygeo.quadrature.ladder_resolutions`.
    """
    normalized = [(k, _normalized_integrals(n, s)) for k, s in ladder]
    top = ladder[-1][1]
    # both integrals are differences of terms bounded by |nabla h|^2 and
    # Ric(JH, JH), which set the size of their rounding noise.  Where those
    # vanish (parallel h, H = 0) the noise is that of the curvature terms
    # they are built from, and both integrands have the units of a
    # curvature squared: so the floor is the larger of the two sizes
    floor = max(
        ROUNDOFF * (top["nabla_h_sq"] + abs(top["ric_direction"])) / top["volume"],
        ROUNDOFF * (top["curvature_scale"] / top["volume"]) ** 2,
    )
    # the divergence-identity integral vanishes exactly, so its ladder is
    # the control that vets a fitted estimate
    control = [v["yano_main"] for _, v in normalized]
    out = {}
    for name in ("defect_normalized", "yano_main"):
        values = [v[name] for _, v in normalized]
        error, method = quadrature_error(values, [k for k, _ in normalized], floor, control)
        out[name] = {
            "ladder": [[k, x] for (k, _), x in zip(normalized, values)],
            "estimate": method,
            "error": error,
        }
    return out


def _defect_violated(defect_norm: float, defect_error: float, tol: Tolerances) -> bool:
    """Whether the normalized defect is negative beyond the integral tolerance
    and its own quadrature-error estimate, so the inequality fails."""
    return defect_norm < -(tol.integral + defect_error)


def _unresolved_reason(
    defect_norm, estimate, gates, sup_nabla_h, sup_whitney, tol, structural
) -> str:
    """Why :func:`classify_equality` withheld a decision, in its order;
    ``estimate`` is the defect's entry of the report's ``quadrature``."""
    if structural:
        return "structural hard failures: " + "; ".join(structural)
    error = estimate["error"]
    if estimate["estimate"] == "stalled":
        (k1, d1), (k2, d2), (k3, d3) = estimate["ladder"]
        return (f"the defect ladder does not contract: |D({k2}) - D({k1})| = "
                f"{abs(d2 - d1):.2e}, then |D({k3}) - D({k2})| = {abs(d3 - d2):.2e}")
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


def _rung_chunk(spec, model, seed, full, planes, nodes, w):
    """One chunk job of a case's ladder: the sums of its certificate integrands.

    ``model`` is the case's, its base-point fields computed once by the
    caller; ``nodes`` and ``w`` are the chunk's nodes and weights.  A
    companion rung integrates nothing else.  The ``full`` grid's chunks also
    give the gradient-field integrals, the l2 sums, the sups and minima and,
    from the seed ``planes`` of its random planes (None for none), the
    sectional range.
    """
    if not full:
        return (_chunk_sums(spec, model, nodes, w)[0],)
    # the structure checks compare both curvature routes
    sums, pg, cd, res = _chunk_sums(spec, model, nodes, w, curvature_data)
    dens = pg.sqrt_det_g
    inner, ops = domain_jets(spec, nodes, order=2), jets._Ops(spec.n, 2)
    for k, f in enumerate(_gradient_test_functions(spec, seed)):
        vf = vector_field_scalars(pg, cd, gradient_field(pg, f(inner, ops)))
        sums[f"yano_grad_{k}"] = float(np.sum(w * vf["yano_integrand"] * dens))
    l2 = {name: float(np.sum(w * res[name] ** 2 * dens)) for name in _L2_RESIDUALS}
    main = res["nabla_xi_h_norm2"] if model.is_sasakian else res["nabla_h_norm2"]
    checked = {k: res[k] for k in _L2_RESIDUALS + ("identity_34", "identity_35")}
    checked["sup_nabla_h"] = np.sqrt(np.maximum(main, 0.0))
    checked["lemma_gap_32_abs"] = res["lemma_gap_32"]
    checked.update(structure_checks(pg, cd))
    sups = {name: float(np.max(np.abs(vals))) for name, vals in checked.items()}
    mins = {name: float(np.min(res[name])) for name in ("lemma_gap_31", "lemma_gap_32")}
    span = None if planes is None else _sectional_range(cd, planes)
    return sums, l2, sups, mins, span


def _map_grids(spec, model, seed, groups, checks) -> list:
    """The chunk jobs of every group and the jobs ``checks``, in one map.

    A group is ``(fn, args, grid, planes)``: each chunk of ``grid`` is the
    job ``fn(spec, model, *args, planes, nodes, w)`` of its nodes and
    weights, where ``planes`` is the seed of its random planes if the group
    draws planes, else None.  The k-th chunk that draws, counting in group
    order, has child k of the run's plane seed, so its planes depend neither
    on the other chunks' draws nor on the process that draws them.  Returns
    each group's results, in chunk order, then the list of the results of
    ``checks``.
    """
    size = _chunk_size(model.chart_dim)
    model.base_fields()  # once, here: every job carries the model
    plane_seed = np.random.SeedSequence(seed + 104729)
    jobs, ends = [], []
    for fn, args, grid, planes in groups:
        chunks = grid.chunks(size)
        seeds = plane_seed.spawn(len(chunks)) if planes else [None] * len(chunks)
        jobs += [(fn, spec, model, *args, s, grid.nodes[idx], grid.weight[idx])
                 for s, idx in zip(seeds, chunks)]
        ends.append(len(jobs))
    parts = _map_chunks(jobs + list(checks))
    return [parts[a:b] for a, b in zip([0, *ends], ends)] + [parts[len(jobs):]]


#: nodes of the RK4 step check
_RK4_SAMPLE = 64


def _rk4_sample(grid) -> np.ndarray:
    """The nodes, evenly spaced in the grid's order, of the RK4 step check."""
    idx = np.linspace(0, len(grid.nodes) - 1, min(_RK4_SAMPLE, len(grid.nodes))).astype(int)
    return grid.nodes[idx]


def _rk4_step_check(spec, nodes) -> float:
    """Sup drift of the flowed order-3 jets at ``nodes``, every row, when the RK4
    step is halved."""
    fine = make_spec("perturbed", spec.n, **{**spec.params, "steps": 2 * spec.params["steps"]})
    return float(np.max(np.abs(eval_immersion(spec, nodes) - eval_immersion(fine, nodes))))


#: random planes per node behind the sampled sectional range
_RANDOM_PLANES = 20


def _draw_planes(rng, count: int, n: int):
    """The unnormalized random plane pairs of ``count`` nodes, in draw order."""
    shape = (count, _RANDOM_PLANES, n)
    return rng.normal(size=shape), rng.normal(size=shape)


def _sectional_range(cd: CurvatureData, planes) -> tuple[float, float]:
    """Least and greatest sectional curvature over the coordinate planes, the
    diagonal of the curvature operator, and the random planes drawn from the
    seed ``planes``, at every node of ``cd``.  A plane's curvature depends
    only on its span, so the pairs drawn are not orthonormalized."""
    K = np.diagonal(cd.R, axis1=1, axis2=2)
    rng = np.random.default_rng(planes)
    Kr = sectional_curvatures(cd, *_draw_planes(rng, len(cd.R), cd.Ricci.shape[-1]))
    return min(float(K.min()), float(Kr.min())), max(float(K.max()), float(Kr.max()))


def _sectional_stats(spans, weyl_sups) -> dict:
    """Weyl sup and sampled sectional range from each chunk's range and Weyl sup."""
    kmin = min((lo for lo, _ in spans), default=np.inf)
    kmax = max((hi for _, hi in spans), default=-np.inf)
    sups = [w for w in weyl_sups if w is not None]
    return {
        "weyl_sup": max(sups) if sups else None,
        "sectional_min": kmin,
        "sectional_max": kmax,
        "sectional_spread": kmax - kmin,
    }


def _frame_chunk(spec, model, planes, nodes, w):
    """One chunk job of a conformal block: the frame stage's sectional range
    from the seed ``planes`` of its random planes, and its Weyl sup (None
    below n = 4).  It integrates nothing, so the weights ``w`` go unread."""
    pg, fields = frame_geometry(model, spec, nodes)
    cd = gauss_curvature(pg, fields)
    weyl_sup = None if cd.W is None else float(np.max(np.abs(cd.W)))
    return _sectional_range(cd, planes), weyl_sup


def conformal_block(
    spec: ImmersionSpec, resolution: int | None = None, seed: int = 0
) -> dict:
    """Weyl sup and sampled sectional spread for one case, standalone: the
    order-2 frame stage at every node."""
    seed = _integer("seed", seed, 0)
    model = model_for(spec)
    if resolution is None and spec.n >= 4:
        resolution = _CONFORMAL_RESOLUTION
    grid = build_grid(spec.n, resolution, domain=spec.domain)
    # the strict self-test raises in its job, and the map passes it on
    frame, _ = _map_grids(spec, model, seed, [(_frame_chunk, (), grid, True)],
                          [(model.self_test, True)])
    return _sectional_stats(*zip(*frame))


def run_case(
    spec: ImmersionSpec,
    resolution: int | None = None,
    tolerances: Tolerances | None = None,
    seed: int = 0,
    conformal: bool = False,
    effective_config: dict | None = None,
) -> VerificationReport:
    """Run the full verification pipeline for one case."""
    seed = _integer("seed", seed, 0)
    tol = tolerances or Tolerances()
    model = model_for(spec)

    grid = build_grid(spec.n, resolution, domain=spec.domain)
    resolution = grid.resolution
    rungs = ladder_resolutions(resolution)
    # the 1/2 and 3/4 rungs of the convergence ladder need only the
    # certificate's integrands, not the sups or the gradient-field integrals.
    # The curvature statistics come from the full grid's chunks at n <= 3,
    # and from the frame stage on the conformal block's grid at n >= 4
    groups = [(_rung_chunk, (seed, False), build_grid(spec.n, k, domain=spec.domain), False)
              for k in rungs[:2]]
    groups.append((_rung_chunk, (seed, True), grid, conformal and spec.n <= 3))
    if conformal and spec.n >= 4:
        conf_grid = build_grid(spec.n, _CONFORMAL_RESOLUTION, domain=spec.domain)
        groups.append((_frame_chunk, (), conf_grid, True))
    # the strict self-test raises in its job, and the map passes it on
    checks = [(model.self_test, True)]
    flowed = _lift_base(spec) if spec.kind == "lifted" else spec
    if flowed.kind == "perturbed" and flowed.params["epsilon"] > 0:
        checks.append((_rk4_step_check, flowed, _rk4_sample(grid)))
    half, three_quarter, full, *frame, (self_test, *drift) = _map_grids(
        spec, model, seed, groups, checks
    )

    ladder = [(k, _fold([p[0] for p in parts], operator.add, 0.0))
              for k, parts in zip(rungs, (half, three_quarter, full))]
    quadrature = _quadrature_estimates(spec.n, ladder)
    sums = ladder[-1][1]
    _, l2s, sups, mins, spans = zip(*full)
    sups, mins = _fold(sups, max, 0.0), _fold(mins, min, np.inf)
    conf = None
    if conformal:
        conf = _sectional_stats(*(zip(*frame[0]) if frame else (spans, [])))

    vol = sums["volume"]
    normalized = _normalized_integrals(spec.n, sums)
    defect_norm = normalized["defect_normalized"]
    defect_error = quadrature["defect_normalized"]["error"]
    # the defect estimate must certify the *decision*: either it is small
    # against the equality threshold or small against the defect itself
    gates = {
        "absolute": 0.5 * tol.classification,
        "relative": 0.25 * abs(defect_norm),
    }
    quadrature["gates"] = gates
    # a ladder that does not contract bounds nothing, either way
    stalled = quadrature["defect_normalized"]["estimate"] == "stalled"
    resolved = not stalled and any(defect_error <= bound for bound in gates.values())

    # what stays in ``normalized`` are the report's inequality integrals
    yano = {"main": normalized.pop("yano_main")}
    for k in range(_GRADIENT_TESTS):
        yano[f"grad_{k}"] = sums[f"yano_grad_{k}"] / vol
    yano["main_error"] = quadrature["yano_main"]["error"]

    l2 = {k: float(np.sqrt(max(v, 0.0) / vol))
          for k, v in _fold(l2s, operator.add, 0.0).items()}

    # hard invariants: structural ones invalidate the classification,
    # integral-certificate misses fail the run but leave a resolved defect
    # classification meaningful.  Every case has every residual but the
    # contact checks, which a Kaehler ambient lacks
    structural = [] if self_test.get("ok", False) else ["model self-test failed"]
    for name, bound in _STRUCTURE_TOLS.items():
        if (model.is_sasakian or name not in _CONTACT_CHECKS) and sups[name] > bound:
            structural.append(f"{name} {sups[name]:.2e} > {bound:.0e}")
    for name in ("lemma_gap_31", "lemma_gap_32"):
        if mins[name] < -tol.inequality_slack:
            structural.append(f"{name} {mins[name]:.2e} < -{tol.inequality_slack:.0e}")
    for rk4_drift in drift:
        sups["rk4_step_drift"] = rk4_drift
        if rk4_drift > 1e-9:
            structural.append(f"RK4 halved-step drift {rk4_drift:.2e} > 1e-9")
    certificates = []
    if not stalled and _defect_violated(defect_norm, defect_error, tol):
        certificates.append(
            f"integral defect {defect_norm:.2e} below -(integral tol + "
            f"error estimate {defect_error:.1e})"
        )
    certificates += [f"yano[{k}] {v:.2e} exceeds integral tol" for k, v in yano.items()
                     if k != "main_error" and abs(v) > tol.integral]
    failures = structural + certificates

    sup_nabla_h = sups["sup_nabla_h"]
    sup_whitney = sups["whitney_residual"]
    classification = classify_equality(
        defect_norm, sup_nabla_h, sup_whitney, tol, resolved and not structural
    )
    unresolved_reason = None
    if classification == "UNRESOLVED":
        unresolved_reason = _unresolved_reason(
            defect_norm, quadrature["defect_normalized"], gates, sup_nabla_h, sup_whitney, tol,
            structural,
        )

    params = {k: list(v) if isinstance(v, tuple) else v
              for k, v in spec.params.items() if k != "hamiltonian"}
    self_test_json = {k: bool(v) if k == "ok" else float(v) for k, v in self_test.items()}

    return VerificationReport(
        report_version=2,
        case=spec.kind,
        n=spec.n,
        parameters=params,
        model=model.kind,
        model_self_test=self_test_json,
        resolution=resolution,
        num_nodes=int(len(grid.nodes)),
        seed=seed,
        residual_sup={k: float(v) for k, v in sorted(sups.items())},
        residual_l2=l2,
        gap_minima={k: float(v) for k, v in sorted(mins.items())},
        integrals={
            "volume": vol,
            "ric_direction": sums["ric_direction"],
            "nabla_h_sq": sums["nabla_h_sq"],
            **normalized,
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


def _reads(field_name: str, key: str):
    """The CSV reader of ``report.<field_name>[key]``."""
    return lambda report: repr(getattr(report, field_name)[key])


#: the CSV columns and the reader of each one's cell
_CSV = {
    "case": lambda report: report.case,
    "n": lambda report: str(report.n),
    "parameters": lambda report: json.dumps(report.parameters, sort_keys=True),
    "classification": lambda report: report.classification,
    **{name: _reads("integrals", name) for name in (
        "volume", "ric_direction", "rhs_scaled", "defect_normalized", "defect_error")},
    "yano_main": _reads("yano", "main"),
    "whitney_residual_sup": _reads("residual_sup", "whitney_residual"),
    "scalar_relation_sup": _reads("residual_sup", "scalar_relation_residual"),
    "sup_nabla_h": _reads("residual_sup", "sup_nabla_h"),
    "isotropy_sup": _reads("residual_sup", "isotropy"),
    "gauss_cross_check_sup": _reads("residual_sup", "gauss_cross_check"),
    "lemma_gap_31_min": _reads("gap_minima", "lemma_gap_31"),
    "lemma_gap_32_min": _reads("gap_minima", "lemma_gap_32"),
    "hard_failures": lambda report: ";".join(report.hard_failures),
}

CSV_COLUMNS = list(_CSV)


def report_to_csv_row(report: VerificationReport) -> list[str]:
    return [read(report) for read in _CSV.values()]


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
