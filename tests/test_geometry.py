"""Tensor engine: structure equations, dual curvature routes, identities."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo import geometry, jets, verify
from whitneygeo.geometry import (
    TJ,
    CurvatureData,
    _frame,
    _induced_metric_hessian,
    curvature_data,
    frame_geometry,
    gauss_curvature,
    paper_residuals,
    pointwise_geometry,
    sectional_curvatures,
    structure_checks,
)
from whitneygeo.immersions import make_spec, model_for, node_jets
from whitneygeo.quadrature import sphere_points
from whitneygeo.immersions import eval_immersion
from whitneygeo.spaceforms import (
    BoothbyWangModel,
    _metric_bracket,
    christoffel_from_metric,
    make_model,
)

import curvature_reference
from curvature_reference import riemann_from_metric
from scalar_reference import mirror

ALL_KINDS = ["C_n", "CP_n", "CH_n", "Sasakian_R", "Sasakian_S", "Sasakian_B"]


def _points(n, count=10, seed=0):
    """Seeded sphere points, drawn in the spherical parameters away from their poles."""
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(0.5, np.pi - 0.5, count) for _ in range(n - 1)]
    cols.append(rng.uniform(0.2, 2 * np.pi - 0.2, count))
    return sphere_points(np.column_stack(cols))


def _mixed_frame(gt, mixer):
    """Gram-Schmidt on the rows of ``mixer`` under g, with derivatives: the
    Cholesky frame of M g M^T, in the coordinates M maps to, applied to M."""
    M = np.asarray(mixer, dtype=float)
    dg = None if gt.d is None else np.einsum("ia,bacz,jc->bijz", M, gt.d, M)
    E = _frame(TJ(M @ gt.v @ M.T, dg))
    return TJ(E.v @ M, None if E.d is None else np.einsum("bijz,ja->biaz", E.d, M))


def _nodes(kind, n, count, seed):
    """Seeded nodes: torus angles for the torus, else sphere points."""
    if kind == "product_torus":
        return np.random.default_rng(seed).uniform(0, 2 * np.pi, size=(count, n))
    return _points(n, count, seed)


def _run(kind, n, kw, count=10, seed=0, mixer=None):
    """The full pass at seeded nodes; a ``mixer`` has the pipeline frame its rows."""
    spec = make_spec(kind, n, **kw)
    model = model_for(spec)
    nodes = _nodes(kind, n, count, seed)
    frame = _frame if mixer is None else (lambda gt: _mixed_frame(gt, mixer))
    with mock.patch.object(geometry, "_frame", frame):
        pg, fields = pointwise_geometry(model, spec, nodes)
    cd = curvature_data(pg, fields)
    return pg, cd, paper_residuals(pg, cd), structure_checks(pg, cd)


class TestDegenerateCases:
    def test_totally_geodesic_all_vanishes(self):
        pg, cd, res, chk = _run("totally_geodesic_cp", 2, {})
        assert res["h_norm2"].max() < 1e-18
        assert res["nabla_h_norm2"].max() < 1e-18
        assert res["H_norm2"].max() < 1e-18
        # constant sectional curvature 1 from the Gauss equation with h = 0:
        # the curvature operator is the identity on 2-vectors, 1 x 1 at n = 2
        assert_allclose(cd.R, np.broadcast_to(np.eye(1), cd.R.shape), atol=1e-9)

    def test_flat_torus_parallel_and_ricci_flat(self):
        pg, cd, res, chk = _run("product_torus", 2, dict(radii=(1.0, 1.0)))
        assert res["nabla_h_norm2"].max() < 1e-25
        assert np.abs(cd.Ricci).max() < 1e-14
        assert np.abs(cd.R).max() < 1e-14
        assert res["ric_JH_JH"].max() < 1e-14

    def test_unequal_torus_still_parallel(self):
        pg, cd, res, chk = _run("product_torus", 3, dict(radii=(0.5, 1.0, 2.0)))
        assert res["nabla_h_norm2"].max() < 1e-25
        assert np.abs(cd.R).max() < 1e-13


class TestWhitneyRelation:
    def test_flat_whitney_pointwise_shape(self):
        # h = n/(n+2) [g H + two J-corrections] in frame components
        pg, cd, res, chk = _run("whitney_c0", 2, dict(r=1.0))
        assert res["whitney_residual"].max() < 1e-9

    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("whitney_cp", dict(theta=0.35)),
            ("whitney_ch", dict(theta=0.35)),
            ("contact_whitney_r", dict(r=1.0, a=0.1)),
            ("contact_whitney_s", dict(theta=0.35, a=0.7)),
            ("contact_whitney_b", dict(theta=0.35, a=1.1)),
        ],
    )
    def test_families_satisfy_relation(self, kind, kw):
        pg, cd, res, chk = _run(kind, 2, kw)
        assert res["whitney_residual"].max() < 1e-12
        assert res["scalar_relation_residual"].max() < 1e-12
        assert np.abs(res["lemma_gap_32"]).max() < 1e-11
        assert res["equality_condition_residual"].max() < 1e-11


class TestStructureEquations:
    @pytest.mark.parametrize(
        "kind,n,kw",
        [
            ("whitney_c0", 2, dict(r=1.0)),
            ("whitney_cp", 3, dict(theta=0.5)),
            ("contact_whitney_s", 2, dict(theta=0.5, a=0.8)),
            ("contact_whitney_b", 3, dict(theta=0.5, a=1.0)),
            ("contact_whitney_r", 4, dict(r=1.0)),
            ("perturbed", 2, dict(epsilon=0.05, seed=3)),
        ],
    )
    def test_suite(self, kind, n, kw):
        pg, cd, res, chk = _run(kind, n, kw, count=8)
        assert chk["cubic_symmetry"].max() < 1e-9
        assert chk["codazzi_total_symmetry"].max() < 1e-8
        assert chk["mean_curvature_symmetry"].max() < 1e-9
        assert chk["gauss_cross_check"].max() < 1e-8
        if pg.is_sasakian:
            assert chk["h_contact_component"].max() < 1e-8
            assert chk["hcov_xi_vs_h"].max() < 1e-8
            assert chk["H_contact_derivative"].max() < 1e-8
            # norm split of the covariant derivative across normal components
            split = res["nabla_h_norm2"] - res["nabla_xi_h_norm2"] - res["h_norm2"]
            assert np.abs(split).max() < 1e-10

    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("whitney_cp", dict(theta=0.5)),
            ("contact_whitney_s", dict(theta=0.5, a=0.8)),
            ("perturbed", dict(epsilon=0.05, seed=3)),
            ("product_torus", dict(radii=(1.0, 1.5))),
        ],
    )
    def test_pointwise_identities_and_gaps(self, kind, kw):
        pg, cd, res, chk = _run(kind, 2, kw)
        assert np.abs(res["identity_34"]).max() < 1e-10
        assert np.abs(res["identity_35"]).max() < 1e-10
        assert res["lemma_gap_31"].min() > -1e-9
        assert res["lemma_gap_32"].min() > -1e-9


class TestCurvatureRoutes:
    def test_gauss_vs_metric_route(self):
        for kind, kw in (
            ("whitney_cp", dict(theta=0.5)),
            ("contact_whitney_b", dict(theta=0.5, a=1.0)),
        ):
            pg, cd, res, chk = _run(kind, 2, kw, count=8, seed=4)
            scale = max(np.abs(cd.R).max(), 1.0)
            assert np.abs(cd.R - cd.R_metric).max() / scale < 1e-8

    @pytest.mark.parametrize("kind, kw", [("whitney_cp", dict(theta=0.5)),
                                          ("contact_whitney_s", dict(theta=0.6, a=0.8))])
    def test_metric_route_reads_the_metric_hessian(self, kind, kw):
        # the cross-check is independent of the Gauss route only while the
        # metric route reads the ambient G2: perturbing it must show
        spec = make_spec(kind, 2, **kw)
        pg, fields = pointwise_geometry(model_for(spec), spec, _points(2, count=8, seed=4))
        tol = verify._STRUCTURE_TOLS["gauss_cross_check"]
        for factor, agree in ((1.0, True), (1.0 + 1e-3, False)):
            cd = curvature_data(pg, dataclasses.replace(fields, G2=fields.G2 * factor))
            gap = np.abs(cd.R - cd.R_metric).max() / max(np.abs(cd.R).max(), 1.0)
            assert gap <= tol if agree else gap > 1e4 * tol, (factor, gap)

    def test_ricci_symmetric(self):
        pg, cd, _, _ = _run("whitney_ch", 2, dict(theta=0.6), seed=5)
        assert_allclose(cd.Ricci, cd.Ricci.transpose(0, 2, 1), atol=1e-12)

    def test_weyl_vanishes_for_whitney_four_sphere(self):
        pg, cd, res, chk = _run("whitney_c0", 4, dict(r=1.0), count=4, seed=6)
        assert np.abs(cd.W).max() < 1e-9
        # non-constant sectional curvature
        B = cd.R.shape[0]
        V = np.zeros((B, 2, 4))
        W = np.zeros((B, 2, 4))
        V[:, 0, 0] = 1.0
        W[:, 0, 1] = 1.0
        V[:, 1, 0] = 1.0
        W[:, 1, 3] = 1.0
        K = sectional_curvatures(cd, V, W)
        assert np.abs(K[:, 0] - K[:, 1]).max() > 1e-3


class TestFrameIndependence:
    def test_scalars_invariant_under_basis_remix(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        base = _run("whitney_cp", 2, dict(theta=0.5), seed=7)
        mixed = _run("whitney_cp", 2, dict(theta=0.5), seed=7, mixer=q)
        for name in (
            "h_norm2", "nabla_h_norm2", "H_norm2", "ric_JH_JH", "div_JH",
            "nabla_JH_norm2", "lie_JH_g_norm2", "scalar_curvature",
            "whitney_residual",
        ):
            assert_allclose(base[2][name], mixed[2][name], rtol=1e-9, atol=1e-9)

    def test_scalars_invariant_under_general_remix(self):
        # non-orthogonal invertible premix of the Gram-Schmidt input
        mix = np.array([[1.0, 0.4], [-0.3, 0.8]])
        base = _run("contact_whitney_s", 2, dict(theta=0.5, a=0.8), seed=8)
        mixed = _run(
            "contact_whitney_s", 2, dict(theta=0.5, a=0.8), seed=8, mixer=mix
        )
        for name in ("h_norm2", "nabla_h_norm2", "scalar_curvature"):
            assert_allclose(base[2][name], mixed[2][name], rtol=1e-9, atol=1e-9)


def _tangents(u0):
    """Each node's chart tangent basis Q, shaped (B, n+1, n)."""
    return np.moveaxis(node_jets(u0, order=1)[1:], 0, -1)


def _along_great_circles(model, spec, u0, invariant, step=1e-4):
    """Central differences of a scalar invariant along the great circles
    cos(tau) u0 + sin(tau) Q_c, whose tangents at tau = 0 are the chart
    directions d/ds_c of each node."""
    Q = _tangents(u0)
    grad = np.zeros((len(u0), spec.n))
    for c in range(spec.n):
        ends = []
        for tau in (step, -step):
            pts = np.cos(tau) * u0 + np.sin(tau) * Q[:, :, c]
            ends.append(invariant(pointwise_geometry(model, spec, pts)[0]))
        grad[:, c] = (ends[0] - ends[1]) / (2 * step)
    return grad


def _metric_in_node_chart(model, spec, u0, s):
    """The induced metric at s in the chart of each node ``u0``.

    The point U(s) = (u0 + Q s) / sqrt(1 + |s|^2) has its own node chart,
    whose tangent basis Q' gives the metric g' there; a vector w tangent at
    U(s) has coordinates Q'^T w, so g(s) = M^T g' M with M = Q'^T dU/ds.
    """
    Q = _tangents(u0)
    r2 = 1.0 + np.sum(s * s, axis=-1)
    U = (u0 + np.einsum("bki,bi->bk", Q, s)) / np.sqrt(r2)[:, None]
    dU = (Q - U[:, :, None] * s[:, None, :] / np.sqrt(r2)[:, None, None]) / np.sqrt(r2)[:, None, None]
    M = np.einsum("bki,bka->bia", _tangents(U), dU)
    pg, _ = frame_geometry(model, spec, U)
    return np.einsum("bij,bia,bjc->bac", pg.g.v, M, M)


class TestFiniteDifferenceOracles:
    def test_covariant_h_derivative_vs_fd_of_norm(self):
        # e_k(|h|^2) = 2 sum h . (nabla h) by metric compatibility of the
        # connection; the right side uses the engine's covariant derivative,
        # the left side is a plain finite difference of a scalar invariant.
        spec = make_spec("whitney_cp", 2, theta=0.5)
        model = model_for(spec)
        u = _points(2, count=6, seed=10)
        pg, fields = pointwise_geometry(model, spec, u)
        engine = 2.0 * np.einsum("bijl,bijkl->bk", pg.h.v, pg.hcov)
        grad = _along_great_circles(
            model, spec, u, lambda p: np.einsum("bijk,bijk->b", p.h.v, p.h.v)
        )
        fd = np.einsum("bkc,bc->bk", pg.E.v, grad)
        assert_allclose(engine, fd, atol=1e-5, rtol=1e-5)

    def test_mean_curvature_derivative_vs_fd(self):
        spec = make_spec("contact_whitney_s", 2, theta=0.5, a=0.8)
        model = model_for(spec)
        u = _points(2, count=6, seed=11)
        pg, _ = pointwise_geometry(model, spec, u)
        engine = 2.0 * np.einsum("bj,bij->bi", pg.H.v, pg.Hcov)
        grad = _along_great_circles(
            model, spec, u, lambda p: np.einsum("bk,bk->b", p.H.v, p.H.v)
        )
        fd = np.einsum("bkc,bc->bk", pg.E.v, grad)
        assert_allclose(engine, fd, atol=1e-5, rtol=1e-5)

    def test_induced_metric_second_derivative_vs_fd(self):
        # second differences of the metric in each node's chart, at points
        # on its chart lines, Richardson-extrapolated over two steps
        spec = make_spec("whitney_ch", 2, theta=0.5)
        model = model_for(spec)
        u = _points(2, count=4, seed=12)
        pg, fields = pointwise_geometry(model, spec, u)
        g2 = _induced_metric_hessian(pg, fields)

        def metric(*steps):
            s = np.zeros((len(u), 2))
            for c, h in steps:
                s[:, c] += h
            return _metric_in_node_chart(model, spec, u, s)

        def second(c, d, h):
            if c == d:
                return (metric((c, h)) - 2.0 * metric() + metric((c, -h))) / h**2
            return (metric((c, h), (d, h)) - metric((c, h), (d, -h))
                    - metric((c, -h), (d, h)) + metric((c, -h), (d, -h))) / (4 * h * h)

        for c in range(2):
            for d in range(2):
                fd = (4.0 * second(c, d, 1e-3) - second(c, d, 2e-3)) / 3.0
                assert_allclose(g2[..., c, d], fd, atol=1e-6, rtol=1e-6)


def _symmetric(rng, shape, k):
    """Random arrays symmetric in their last k axes."""
    t = rng.normal(size=shape + (shape[-1],) * (k - 1))
    return mirror(t, k)


class TestTangentialRoute:
    """The base point's constant fields pulled back along the tangents, against dense contractions."""

    @pytest.mark.parametrize(
        "kind, n", [(k, n) for n in (2, 3) for k in ALL_KINDS] + [("Sasakian_R", 4)]
    )
    def test_matches_dense_chart_derivatives(self, kind, n):
        model = make_model(kind, n, a=0.8)
        rng = np.random.default_rng(30 + n)
        B, m = 6, model.chart_dim
        X1 = rng.normal(size=(B, m, n))
        X2, X3 = _symmetric(rng, (B, m, n), 2), _symmetric(rng, (B, m, n), 3)
        base = model.base_fields()
        G0, G1, G2, Gamma0 = base.G0[0], base.G1[0], base.G2[0], base.Gamma0[0]
        XX = geometry._pairs(X1)
        # d_s Gamma = (G^-1 bracket(G2_s) - G^-1 G1_s G^-1 bracket(G1)) / 2
        Ginv = np.linalg.inv(G0)
        dgamma = 0.5 * (
            np.einsum("mr,rnls->mnls", Ginv, _metric_bracket(G2[None])[0])
            - np.einsum("mp,pqs,qr,rnl->mnls", Ginv, G1, Ginv, _metric_bracket(base.G1)[0])
        )

        def dense_sum(*terms):
            return sum(np.einsum(sig, *ops, optimize=True) for sig, *ops in terms)

        dense = {
            "G1X": np.einsum("mns,bsc->bmnc", G1, X1),
            "GX": np.einsum("mnl,blc->bmnc", Gamma0, X1),
            "G2XX": np.einsum("mnst,bsc,btd->bmncd", G2, X1, X1),
            "G1X2": np.einsum("mns,bscd->bmncd", G1, X2),
            "S": X2 + np.einsum("mnl,bna,blB->bmaB", Gamma0, X1, X1),
            "dS": X3 + dense_sum(
                ("mnls,bna,blB,bsc->bmaBc", dgamma, X1, X1, X1),
                ("mnl,bnac,blB->bmaBc", Gamma0, X2, X1),
                ("mnl,bna,blBc->bmaBc", Gamma0, X1, X2),
            ),
            "g2": dense_sum(
                ("mnst,bsc,btd,bmA,bnB->bABcd", G2, X1, X1, X1, X1),
                ("mns,bscd,bmA,bnB->bABcd", G1, X2, X1, X1),
                ("mns,bsc,bmAd,bnB->bABcd", G1, X1, X2, X1),
                ("mns,bsc,bmA,bnBd->bABcd", G1, X1, X1, X2),
                ("mns,bsd,bmAc,bnB->bABcd", G1, X1, X2, X1),
                ("mns,bsd,bmA,bnBc->bABcd", G1, X1, X1, X2),
                ("mn,bmAcd,bnB->bABcd", G0, X3, X1),
                ("mn,bmAc,bnBd->bABcd", G0, X2, X2),
                ("mn,bmAd,bnBc->bABcd", G0, X2, X2),
                ("mn,bmA,bnBcd->bABcd", G0, X1, X3),
            ),
        }
        GX = geometry._pullback(base.Gamma0, X1)
        S = geometry._covariant_hessian(base, [None, X1, X2, X3], GX)
        got = {
            "G1X": geometry._pullback(base.G1, X1),
            "GX": GX,
            "G2XX": geometry._pullback(base.G2, XX, 2),
            "G1X2": geometry._pullback(base.G1, X2),
            "S": S.v,
            "dS": S.d,
            "g2": _induced_metric_hessian(SimpleNamespace(X=[None, X1, X2, X3]), base),
        }
        assert np.array_equal(base.Gamma0[0], christoffel_from_metric(base.G0, base.G1)[0])
        for name, want in dense.items():
            assert got[name].shape == want.shape, name
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[name] - want)) <= 1e-13 * scale, name
        # a field given at every node takes the batched contraction, to the same values
        Gamma1 = base.Gamma1.transpose(0, 1, 4, 2, 3)
        for D, legs, k in ((base.G1, X1, 1), (base.G1, X2, 1), (base.G2, XX, 2), (Gamma1, XX, 2)):
            every = np.broadcast_to(D, (B,) + D.shape[1:])
            once = geometry._pullback(D, legs, k)
            assert np.max(np.abs(geometry._pullback(every, legs, k) - once)) <= (
                1e-13 * np.max(np.abs(once)))


_CATALOG = [
    ("whitney_c0", dict(r=1.3)),
    ("whitney_cp", dict(theta=0.5)),
    ("whitney_ch", dict(theta=0.9)),
    ("contact_whitney_r", dict(r=0.8, a=0.3)),
    ("contact_whitney_s", dict(theta=0.6, a=0.8)),
    ("contact_whitney_b", dict(theta=0.8, a=1.2)),
    ("product_torus", dict()),
    ("totally_geodesic_cp", dict()),
    ("perturbed", dict(epsilon=0.05, seed=3)),
    ("lifted", dict(base="whitney_c0", r=1.1)),
]

#: the pointwise invariants the certificate integrates or bounds
_INVARIANTS = ("h_norm2", "H_norm2", "nabla_h_norm2", "nabla_xi_h_norm2", "nabla_perp_H_norm2",
               "ric_JH_JH", "yano_integrand", "scalar_curvature", "whitney_residual",
               "scalar_relation_residual", "equality_condition_residual")


def _per_node_route(model, spec, nodes):
    """The full pass with every field evaluated at the node images themselves,
    in the chart the immersion is given in: no isometry."""
    X = jets._unpack_blocks(eval_immersion(spec, nodes, order=3), spec.n, 3)
    return geometry._extrinsic(model, spec, X, model.fields_at(X[0]))


def _pointwise(pg, fields):
    cd = curvature_data(pg, fields)
    res = paper_residuals(pg, cd)
    out = {name: res[name] for name in _INVARIANTS}
    out.update(structure_checks(pg, cd), sqrt_det_g=pg.sqrt_det_g)
    return out


_CENTRED_CASES = [(k, kw, n) for n in (2, 3) for k, kw in _CATALOG
                  if k != "totally_geodesic_cp" or n == 2]


@pytest.mark.parametrize("kind, kw, n", _CENTRED_CASES,
                         ids=[f"{k}-n{n}" for k, _, n in _CENTRED_CASES])
def test_centred_route_matches_the_per_node_route(kind, kw, n):
    if kind == "whitney_c0":
        kw = dict(kw, B=tuple(0.1 * np.arange(2 * n)))  # a center off the origin
    spec = make_spec(kind, n, **kw)
    model = model_for(spec)
    if kind == "product_torus":
        nodes = np.random.default_rng(n).uniform(0, 2 * np.pi, size=(12, n))
    else:
        nodes = _points(n, count=12, seed=n)
    want = _pointwise(*_per_node_route(model, spec, nodes))
    got = _pointwise(*pointwise_geometry(model, spec, nodes))
    assert got.keys() == want.keys()
    for name, ref in want.items():
        assert np.all(np.abs(got[name] - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)), name


@pytest.mark.parametrize("kind, kw", [("contact_whitney_s", dict(theta=0.5, a=0.8)),
                                      ("contact_whitney_r", dict(r=1.3, a=0.4))])
def test_the_fiber_is_derived_once_per_call(kind, kw, monkeypatch):
    # the centre moves the base and lifts it: the lift's fiber is the only one
    calls = []
    fiber = BoothbyWangModel.fiber
    monkeypatch.setattr(BoothbyWangModel, "fiber",
                        lambda self, z, ops: calls.append(len(z)) or fiber(self, z, ops))
    spec = make_spec(kind, 2, **kw)
    pointwise_geometry(model_for(spec), spec, _points(2, count=6, seed=1))
    assert len(calls) == 1


@pytest.mark.parametrize("order", [2, 3])
def test_degenerate_induced_metric_is_refused(order):
    # a second tangent of zero makes the induced metric singular at every node
    spec = make_spec("whitney_cp", 2, theta=0.5)
    model = model_for(spec)
    x = model.centre(eval_immersion(spec, _points(2, count=4, seed=3), order=order), spec.n)
    X = list(jets._unpack_blocks(x, spec.n, order))
    X[1] = X[1].copy()
    X[1][..., 1] = 0.0
    with pytest.raises(RuntimeError, match="degenerate induced metric"):
        geometry._extrinsic(model, spec, X, model.base_fields())


def _gram_schmidt_reference(g, dg, mixer):
    """Gram-Schmidt on the rows of ``mixer`` (or the coordinate basis) under
    one node's metric g (n, n), with the product rule along dg (n, n, z)."""
    n = len(g)
    basis = np.eye(n) if mixer is None else mixer
    E, dE = [], []
    for i in range(n):
        w, dw = basis[i].copy(), np.zeros((n, dg.shape[-1]))
        for e, de in zip(E, dE):
            c = w @ g @ e
            dc = dw.T @ g @ e + np.einsum("a,acz,c->z", w, dg, e) + (w @ g) @ de
            w, dw = w - c * e, dw - np.outer(e, dc) - c * de
        q = w @ g @ w
        dq = 2.0 * dw.T @ g @ w + np.einsum("a,acz,c->z", w, dg, w)
        r = np.sqrt(q)
        E.append(w / r)
        dE.append(dw / r - np.outer(w, dq) / (2.0 * r**3))
    return np.array(E), np.array(dE)


class TestCholeskyFrame:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mix", ["none", "orthogonal", "general"])
    def test_matches_gram_schmidt(self, n, mix):
        rng = np.random.default_rng(17 + n)
        B = 6
        a = rng.normal(size=(B, n, n))
        g = a @ a.transpose(0, 2, 1) + n * np.eye(n)
        dg = rng.normal(size=(B, n, n, n))
        dg = dg + dg.transpose(0, 2, 1, 3)
        mixer = {
            "none": None,
            "orthogonal": np.linalg.qr(rng.normal(size=(n, n)))[0],
            "general": np.eye(n) + 0.4 * rng.normal(size=(n, n)),
        }[mix]
        got = _frame(TJ(g, dg)) if mixer is None else _mixed_frame(TJ(g, dg), mixer)
        for b in range(B):
            E, dE = _gram_schmidt_reference(g[b], dg[b], mixer)
            assert np.max(np.abs(got.v[b] - E)) <= 1e-13 * np.max(np.abs(E))
            assert np.max(np.abs(got.d[b] - dE)) <= 1e-13 * np.max(np.abs(dE))

    @pytest.mark.parametrize("mixer", [None, np.array([[1.0, 0.4], [-0.3, 0.8]])])
    def test_orthonormal_with_derivatives(self, mixer):
        # E g E^T = I at every node, so its derivative vanishes too
        pg, _, _, _ = _run("contact_whitney_s", 2, dict(theta=0.5, a=0.8), seed=8,
                           mixer=mixer)
        E, dE, g, dg = pg.E.v, pg.E.d, pg.g.v, pg.g.d
        assert_allclose(np.einsum("bia,bac,bjc->bij", E, g, E),
                        np.broadcast_to(np.eye(2), g.shape), rtol=0, atol=1e-14)
        d = (np.einsum("biaz,bac,bjc->bijz", dE, g, E)
             + np.einsum("bia,bacz,bjc->bijz", E, dg, E)
             + np.einsum("bia,bac,bjcz->bijz", E, g, dE))
        assert np.max(np.abs(d)) <= 1e-13 * np.max(np.abs(dg))


class TestFrameStage:
    """The order-2 frame stage against the full order-3 pass."""

    @pytest.mark.parametrize(
        "kind, n, kw",
        [
            ("whitney_cp", 4, dict(theta=0.5)),
            ("contact_whitney_b", 3, dict(theta=0.8, a=1.2)),
            ("contact_whitney_r", 4, dict(r=1.0)),
            ("perturbed", 2, dict(epsilon=0.05, seed=3)),
        ],
    )
    def test_gauss_curvature_matches_full_pass(self, kind, n, kw):
        spec = make_spec(kind, n, **kw)
        model = model_for(spec)
        u = _points(n, count=6, seed=5)
        full = curvature_data(*pointwise_geometry(model, spec, u))
        pg, fields = frame_geometry(model, spec, u)
        cd = gauss_curvature(pg, fields)
        for name in ("R", "Ricci", "scalar", "W"):
            want = getattr(full, name)
            if name == "W" and n < 4:
                assert want is None and cd.W is None
            else:
                assert np.array_equal(getattr(cd, name), want), name
        # the stage carries values only
        assert cd.R_metric is None and pg.hcov is None
        assert pg.X is None  # the input of the induced g2
        assert not hasattr(pg, "G2X")  # built where the induced g2 reads it, not kept
        assert pg.g.d is None and pg.E.d is None and pg.h.d is None
        assert fields is model.base_fields()  # the fields at the base point


_OPERATOR_CASES = [(k, kw, n) for n in (2, 3, 4) for k, kw in _CATALOG
                   if k != "totally_geodesic_cp" or n == 2]


@pytest.mark.parametrize("kind, kw, n", _OPERATOR_CASES,
                         ids=[f"{k}-n{n}" for k, _, n in _OPERATOR_CASES])
def test_curvature_operator_matches_the_tensor_routes(kind, kw, n):
    # every quantity read off the operator on 2-vectors, against the n^4
    # tensors built the long way
    spec = make_spec(kind, n, **kw)
    pg, fields = pointwise_geometry(model_for(spec), spec, _nodes(kind, n, 5, n))
    cd = curvature_data(pg, fields)
    riem = curvature_reference.gauss_riemann(pg, fields)
    want = curvature_reference.curvature(riem)
    tol = 1e-13 * max(np.abs(riem).max(), 1.0)
    assert np.abs(curvature_reference.tensor(cd.R, n) - riem).max() <= tol
    metric = curvature_reference.metric_riemann(pg, fields)
    assert np.abs(curvature_reference.tensor(cd.R_metric, n) - metric).max() <= tol
    assert np.abs(cd.Ricci - want.Ricci).max() <= tol
    assert np.abs(cd.scalar - want.scalar).max() <= tol
    if n >= 4:
        assert abs(np.abs(cd.W).max() - np.abs(want.Weyl).max()) <= tol
        assert np.abs(curvature_reference.tensor(cd.W, n) - want.Weyl).max() <= tol
    else:
        assert cd.W is None and want.Weyl is None
    # random planes drawn as the sectional range draws them, pairs of normal
    # vectors; the reference takes an orthonormal basis of each, where its
    # denominator |V|^2 |W|^2 - (V.W)^2 does not cancel
    V, W = np.random.default_rng(n).normal(size=(2, 5, 20, n))
    Vo = V / np.linalg.norm(V, axis=-1, keepdims=True)
    Wo = W - np.sum(W * Vo, axis=-1, keepdims=True) * Vo
    Wo /= np.linalg.norm(Wo, axis=-1, keepdims=True)
    K = curvature_reference.sectional_curvatures(riem, Vo, Wo)
    assert np.abs(sectional_curvatures(cd, V, W) - K).max() <= tol


@pytest.mark.parametrize("kind, kw", [("whitney_cp", dict(theta=0.5)),
                                      ("contact_whitney_s", dict(theta=0.6, a=0.8)),
                                      ("perturbed", dict(epsilon=0.05, seed=3))])
def test_curvature_operator_is_symmetric_and_satisfies_bianchi(kind, kw):
    spec = make_spec(kind, 4, **kw)
    cd = gauss_curvature(*frame_geometry(model_for(spec), spec, _points(4, count=6, seed=2)))
    scale = max(np.abs(cd.R).max(), 1.0)
    assert np.abs(cd.R - cd.R.transpose(0, 2, 1)).max() <= 1e-14 * scale
    # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): R_{01,23} - R_{02,13} + R_{03,12}
    bianchi = cd.R[:, 0, 5] - cd.R[:, 1, 4] + cd.R[:, 2, 3]
    assert np.abs(bianchi).max() <= 1e-14 * scale


@pytest.mark.parametrize("kind, n", [(k, n) for n in (2, 3, 4) for k in ALL_KINDS])
def test_ambient_curvature_on_any_orthonormal_frame(kind, n):
    # the closed form on the pairs, on frames that are neither Lagrangian nor
    # Legendrian (there gJ and gphi vanish), against the base point's
    # curvature from the ambient metric
    model = make_model(kind, n, a=0.8)
    fields, G = model.base_fields(), model.base_fields().G0[0]
    X = np.random.default_rng(n).normal(size=(6, n, model.chart_dim))
    F = np.linalg.solve(np.linalg.cholesky(np.einsum("bim,mk,bjk->bij", X, G, X)), X)
    c_eff = (model.c_tilde + 3.0) / 4.0 if model.is_sasakian else float(model.c)
    pg = SimpleNamespace(F=TJ(F, None), n=n, is_sasakian=model.is_sasakian, c_eff=c_eff)
    R4 = riemann_from_metric(fields.G0, fields.G1, fields.G2)[0]
    want = np.einsum("rsmv,bim,bjv,bls,rt,bkt->bijkl", R4, F, F, F, G, F, optimize=True)
    got = geometry._ambient_curvature(pg, fields)
    assert np.abs(curvature_reference.tensor(got, n) - want).max() <= 1e-13 * max(
        np.abs(want).max(), 1.0)


def test_sectional_curvatures_match_the_full_contraction():
    # any symmetric operator, read as the n^4 tensor it stands for
    rng = np.random.default_rng(41)
    B, Q, n = 7, 5, 4
    R = rng.normal(size=(B, 6, 6))
    R = R + R.transpose(0, 2, 1)
    V, W = rng.normal(size=(B, Q, n)), rng.normal(size=(B, Q, n))
    cd = CurvatureData(R=R, R_metric=R, Ricci=None, scalar=None, W=None)
    want = curvature_reference.sectional_curvatures(curvature_reference.tensor(R, n), V, W)
    got = sectional_curvatures(cd, V, W)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
