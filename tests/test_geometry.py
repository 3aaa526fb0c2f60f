"""Tensor engine: structure equations, dual curvature routes, identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo import jets
from whitneygeo.geometry import (
    CurvatureData,
    _induced_metric_hessian,
    _second_derivative_of_induced_metric,
    curvature_data,
    frame_geometry,
    gauss_curvature,
    paper_residuals,
    pointwise_geometry,
    sectional_curvatures,
    structure_checks,
)
from whitneygeo.immersions import SphereChart, make_spec, model_for
from whitneygeo.spaceforms import (
    christoffel_along,
    christoffel_derivative,
    christoffel_from_metric,
    make_model,
)

ALL_KINDS = ["C_n", "CP_n", "CH_n", "Sasakian_R", "Sasakian_S", "Sasakian_B"]


def _params(n, count=10, seed=0):
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(0.5, np.pi - 0.5, count) for _ in range(n - 1)]
    cols.append(rng.uniform(0.2, 2 * np.pi - 0.2, count))
    return np.column_stack(cols)


@pytest.fixture(scope="module")
def atlas2():
    return SphereChart(2)


def _run(kind, n, kw, count=10, seed=0, chart=0, mixer=None, atlas=None):
    spec = make_spec(kind, n, **kw)
    model = model_for(spec)
    atlas = atlas or SphereChart(n)
    if kind == "product_torus":
        t = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=(count, n))
    else:
        t = _params(n, count, seed)
    pg, fields = pointwise_geometry(model, spec, chart, t, atlas=atlas, mixer=mixer)
    cd = curvature_data(pg, fields)
    return pg, cd, paper_residuals(pg, cd), structure_checks(pg, cd)


class TestDegenerateCases:
    def test_totally_geodesic_all_vanishes(self, atlas2):
        pg, cd, res, chk = _run("totally_geodesic_cp", 2, {})
        assert res["h_norm2"].max() < 1e-18
        assert res["nabla_h_norm2"].max() < 1e-18
        assert res["H_norm2"].max() < 1e-18
        # constant sectional curvature 1 from the Gauss equation with h = 0
        n = 2
        delta = np.eye(n)
        want = np.einsum("ik,jl->ijkl", delta, delta) - np.einsum(
            "il,jk->ijkl", delta, delta
        )
        assert_allclose(cd.Riem, np.broadcast_to(want, cd.Riem.shape), atol=1e-9)

    def test_flat_torus_parallel_and_ricci_flat(self):
        pg, cd, res, chk = _run("product_torus", 2, dict(radii=(1.0, 1.0)))
        assert res["nabla_h_norm2"].max() < 1e-25
        assert np.abs(cd.Ricci).max() < 1e-14
        assert np.abs(cd.Riem).max() < 1e-14
        assert res["ric_JH_JH"].max() < 1e-14

    def test_unequal_torus_still_parallel(self):
        pg, cd, res, chk = _run("product_torus", 3, dict(radii=(0.5, 1.0, 2.0)))
        assert res["nabla_h_norm2"].max() < 1e-25
        assert np.abs(cd.Riem).max() < 1e-13


class TestWhitneyRelation:
    def test_flat_whitney_pointwise_shape(self, atlas2):
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
            scale = max(np.abs(cd.Riem).max(), 1.0)
            assert np.abs(cd.Riem - cd.Riem_metric).max() / scale < 1e-8

    def test_ricci_symmetric(self):
        pg, cd, _, _ = _run("whitney_ch", 2, dict(theta=0.6), seed=5)
        assert_allclose(cd.Ricci, cd.Ricci.transpose(0, 2, 1), atol=1e-12)

    def test_weyl_vanishes_for_whitney_four_sphere(self):
        pg, cd, res, chk = _run("whitney_c0", 4, dict(r=1.0), count=4, seed=6)
        assert np.abs(cd.Weyl).max() < 1e-9
        # non-constant sectional curvature
        B = cd.Riem.shape[0]
        V = np.zeros((B, 2, 4))
        W = np.zeros((B, 2, 4))
        V[:, 0, 0] = 1.0
        W[:, 0, 1] = 1.0
        V[:, 1, 0] = 1.0
        W[:, 1, 3] = 1.0
        K = sectional_curvatures(cd, V, W)
        assert np.abs(K[:, 0] - K[:, 1]).max() > 1e-3


class TestFrameIndependence:
    def test_scalars_invariant_under_basis_remix(self, atlas2):
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


class TestFiniteDifferenceOracles:
    def test_covariant_h_derivative_vs_fd_of_norm(self, atlas2):
        # e_k(|h|^2) = 2 sum h . (nabla h) by metric compatibility of the
        # connection; the right side uses the engine's covariant derivative,
        # the left side is a plain finite difference of a scalar invariant.
        spec = make_spec("whitney_cp", 2, theta=0.5)
        model = model_for(spec)
        t = _params(2, count=6, seed=10)
        pg, fields = pointwise_geometry(model, spec, 0, t, atlas=atlas2)
        engine = 2.0 * np.einsum("bijl,bijkl->bk", pg.h.v, pg.hcov)
        step = 1e-4
        grad = np.zeros((len(t), 2))
        for c in range(2):
            tp = t.copy(); tm = t.copy()
            tp[:, c] += step; tm[:, c] -= step
            hp, _ = pointwise_geometry(model, spec, 0, tp, atlas=atlas2)
            hm, _ = pointwise_geometry(model, spec, 0, tm, atlas=atlas2)
            fp = np.einsum("bijk,bijk->b", hp.h.v, hp.h.v)
            fm = np.einsum("bijk,bijk->b", hm.h.v, hm.h.v)
            grad[:, c] = (fp - fm) / (2 * step)
        fd = np.einsum("bkc,bc->bk", pg.E.v, grad)
        assert_allclose(engine, fd, atol=1e-5, rtol=1e-5)

    def test_mean_curvature_derivative_vs_fd(self, atlas2):
        spec = make_spec("contact_whitney_s", 2, theta=0.5, a=0.8)
        model = model_for(spec)
        t = _params(2, count=6, seed=11)
        pg, _ = pointwise_geometry(model, spec, 0, t, atlas=atlas2)
        engine = 2.0 * np.einsum("bj,bij->bi", pg.H.v, pg.Hcov)
        step = 1e-4
        grad = np.zeros((len(t), 2))
        for c in range(2):
            tp = t.copy(); tm = t.copy()
            tp[:, c] += step; tm[:, c] -= step
            hp, _ = pointwise_geometry(model, spec, 0, tp, atlas=atlas2)
            hm, _ = pointwise_geometry(model, spec, 0, tm, atlas=atlas2)
            grad[:, c] = (
                np.einsum("bk,bk->b", hp.H.v, hp.H.v)
                - np.einsum("bk,bk->b", hm.H.v, hm.H.v)
            ) / (2 * step)
        fd = np.einsum("bkc,bc->bk", pg.E.v, grad)
        assert_allclose(engine, fd, atol=1e-5, rtol=1e-5)

    def test_induced_metric_second_derivative_vs_fd(self, atlas2):
        spec = make_spec("whitney_ch", 2, theta=0.5)
        model = model_for(spec)
        t = _params(2, count=4, seed=12)
        pg, fields = pointwise_geometry(model, spec, 0, t, atlas=atlas2)
        g2 = _induced_metric_hessian(pg, fields)
        step = 1e-4
        for c in range(2):
            tp = t.copy(); tm = t.copy()
            tp[:, c] += step; tm[:, c] -= step
            gp, _ = pointwise_geometry(model, spec, 0, tp, atlas=atlas2)
            gm, _ = pointwise_geometry(model, spec, 0, tm, atlas=atlas2)
            fd = (gp.g.d - gm.g.d) / (2 * step)
            assert_allclose(g2[..., c], fd, atol=1e-6, rtol=1e-6)


def _symmetric(rng, shape, k):
    """Random arrays symmetric in their last k axes."""
    t = rng.normal(size=shape + (shape[-1],) * (k - 1))
    return (jets._mirror2 if k == 2 else jets._mirror3)(t, shape[-1])


class TestTangentialRoute:
    """The metric differentiated only along the immersion, against the dense route."""

    @pytest.mark.parametrize(
        "kind, n", [(k, n) for n in (2, 3) for k in ALL_KINDS] + [("Sasakian_R", 4)]
    )
    def test_matches_dense_chart_derivatives(self, kind, n):
        model = make_model(kind, n, a=0.8)
        rng = np.random.default_rng(30 + n)
        B, m = 6, model.chart_dim
        pts = model.random_chart_points(rng, B)
        X1 = rng.normal(size=(B, m, n))
        X2, X3 = _symmetric(rng, (B, m, n), 2), _symmetric(rng, (B, m, n), 3)
        G0, G1, G2 = model.metric_jets(pts, order=2)
        G2X = jets._packed_hessian_along(model.fields_at(pts).G, X1)
        G1X = np.einsum("bmns,bsc->bmnc", G1, X1)
        gamma, dgamma = christoffel_along(G0, G1, G1X, G2X)
        assert np.array_equal(gamma, christoffel_from_metric(G0, G1))
        dense = {
            "G2X": np.einsum("brlns,bsc->brlnc", G2, X1),
            "dgamma": np.einsum(
                "bmnls,bsc->bmnlc", christoffel_derivative(G0, G1, G2), X1
            ),
            # the chart-wide first term of the induced g2, then the rest unchanged
            "g2": np.einsum("bmnst,btd,bsc,bmA,bnB->bABcd", G2, X1, X1, X1, X1)
            + _second_derivative_of_induced_metric(
                G0, G1, np.zeros_like(G2X), X1, X2, X3
            ),
        }
        got = {
            "G2X": G2X,
            "dgamma": dgamma,
            "g2": _second_derivative_of_induced_metric(G0, G1, G2X, X1, X2, X3),
        }
        for name, want in dense.items():
            assert got[name].shape == want.shape, name
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[name] - want)) <= 1e-13 * scale, name


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
        atlas = SphereChart(n)
        t = _params(n, count=6, seed=5)
        full = curvature_data(*pointwise_geometry(model, spec, 0, t, atlas=atlas))
        pg, fields = frame_geometry(model, spec, 0, t, atlas=atlas)
        cd = gauss_curvature(pg, fields)
        for name in ("Riem", "Ricci", "scalar", "Weyl"):
            want = getattr(full, name)
            if name == "Weyl" and n < 4:
                assert want is None and cd.Weyl is None
            else:
                assert np.array_equal(getattr(cd, name), want), name
        # the stage carries values only
        assert cd.Riem_metric is None and pg.hcov is None
        assert pg.X is None and pg.G2X is None  # the inputs of the induced g2
        assert pg.g.d is None and pg.E.d is None and pg.h.d is None
        assert len(fields.G) <= 1 + model.chart_dim  # the metric to order 1


def test_stepwise_sectional_matches_single_einsum():
    rng = np.random.default_rng(41)
    B, P, n = 7, 5, 4
    riem = rng.normal(size=(B, n, n, n, n))
    V, W = rng.normal(size=(B, P, n)), rng.normal(size=(B, P, n))
    cd = CurvatureData(Riem=riem, Riem_metric=riem, Ricci=None, scalar=None, Weyl=None)
    num = np.einsum("bijkl,bpi,bpj,bpk,bpl->bp", riem, V, W, V, W)
    den = (
        np.einsum("bpi,bpi->bp", V, V) * np.einsum("bpi,bpi->bp", W, W)
        - np.einsum("bpi,bpi->bp", V, W) ** 2
    )
    want = num / den
    got = sectional_curvatures(cd, V, W)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
