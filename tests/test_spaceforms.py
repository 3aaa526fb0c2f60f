"""Ambient model validation: structure identities and curvature oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo import jets
from whitneygeo.spaceforms import (
    DomainError,
    ModelValidationError,
    ComplexSpaceFormModel,
    christoffel_derivative,
    christoffel_from_metric,
    make_model,
    riemann_from_metric,
)

import scalar_reference as sj

ALL_KINDS = ["C_n", "CP_n", "CH_n", "Sasakian_R", "Sasakian_S", "Sasakian_B"]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_self_test_passes(kind, n):
    model = make_model(kind, n)
    report = model.self_test(strict=True)
    assert report["ok"]


class TestSelfTestCache:
    def test_cached_failing_report_still_raises(self):
        model = make_model("CP_n", 2)
        tols = model._self_test_tols()
        model._self_test_tols = lambda: dict.fromkeys(tols, -1.0)
        report = model.self_test(strict=False)
        assert not report["ok"]
        with pytest.raises(ModelValidationError, match="failed self-test"):
            model.self_test(strict=True)
        assert model.self_test(strict=False) is report

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_evaluates_its_chart_once(self, kind, monkeypatch):
        model = make_model(kind, 2)
        calls = []
        build = type(model)._chart_jets

        def counted(self, points):
            calls.append(len(points))
            return build(self, points)

        monkeypatch.setattr(type(model), "_chart_jets", counted)
        model.self_test()
        assert calls == [50]
        model.self_test()
        assert calls == [50]


class TestMakeModel:
    def test_deformed_phi_sectional_constants(self):
        assert make_model("Sasakian_S", 2, a=1.0).c_tilde == pytest.approx(1.0)
        assert make_model("Sasakian_S", 2, a=0.5).c_tilde == pytest.approx(5.0)
        assert make_model("Sasakian_B", 2, a=1.0).c_tilde == pytest.approx(-4.0)
        assert make_model("Sasakian_B", 2, a=2.0).c_tilde == pytest.approx(-3.5)

    def test_deformed_models_self_test(self):
        for kind, a in (("Sasakian_S", 0.7), ("Sasakian_B", 1.4)):
            assert make_model(kind, 2, a).self_test(strict=True)["ok"]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_model("Sasakian_S", 2, a=-1.0)
        with pytest.raises(ValueError):
            make_model("nonsense", 2)
        with pytest.raises(ValueError):
            make_model("CP_n", 1)

    @pytest.mark.parametrize("kind, n, a, bad", [
        ("Sasakian_S", 2, float("nan"), "deformation parameter a"),
        ("Sasakian_S", 2, float("inf"), "deformation parameter a"),
        ("Sasakian_B", 2, float("inf"), "deformation parameter a"),
        ("Sasakian_B", 2, 0.0, "deformation parameter a"),
        ("Sasakian_S", 2, True, "deformation parameter a"),
        ("Sasakian_B", 2, "1.0", "deformation parameter a"),
        ("C_n", 2.5, 1.0, "model dimension n"),
        ("Sasakian_R", float("nan"), 1.0, "model dimension n"),
        ("CP_n", True, 1.0, "model dimension n"),
        ("CH_n", "3", 1.0, "model dimension n"),
        ("C_n", 10**400, 1.0, "model dimension n"),
    ])
    def test_bad_inputs_name_the_parameter(self, kind, n, a, bad):
        with pytest.raises(ValueError) as info:
            make_model(kind, n, a)
        value = a if bad.endswith(" a") else n
        assert str(info.value).startswith(bad + " must be ")
        assert str(info.value).endswith(f"got {value!r}")

    def test_integral_dimension_is_taken_as_an_int(self):
        model = make_model("CP_n", 2.0)
        assert model.n == 2 and type(model.n) is int and model.chart_dim == 4

    def test_bad_curvature_sign_is_shown(self):
        with pytest.raises(ValueError, match="got 2"):
            ComplexSpaceFormModel(2, 2)


class TestChristoffel:
    def test_flat_space_vanishes(self):
        model = make_model("C_n", 2)
        pts = np.random.default_rng(0).normal(size=(10, 4))
        gamma = model.fields_at(pts).Gamma0
        assert np.max(np.abs(gamma)) == 0.0

    def test_symmetric_lower_indices(self):
        model = make_model("CP_n", 2)
        pts = model.random_chart_points(np.random.default_rng(1), 10)
        gamma = model.fields_at(pts).Gamma0
        assert np.array_equal(gamma, gamma.transpose(0, 1, 3, 2))

    @pytest.mark.parametrize("kind", ["CP_n", "CH_n", "Sasakian_S"])
    def test_metric_compatibility_fd_oracle(self, kind):
        # FD derivative of the metric must match the Christoffel reconstruction
        # d_s g_{mn} = Gamma^r_{sm} g_{rn} + Gamma^r_{sn} g_{mr}
        model = make_model(kind, 2)
        pts = model.random_chart_points(np.random.default_rng(2), 4)
        f = model.fields_at(pts)
        G0, gamma = f.G0, f.Gamma0
        h = 1e-6
        m = model.chart_dim
        for s in range(m):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, s] += h
            dm[:, s] -= h
            Gp, Gm = model.fields_at(dp).G0, model.fields_at(dm).G0
            fd = (Gp - Gm) / (2 * h)
            rec = np.einsum("brm,brn->bmn", gamma[:, :, s, :], G0) + np.einsum(
                "brn,bmr->bmn", gamma[:, :, s, :], G0
            )
            assert_allclose(fd, rec, atol=1e-8)

    def test_jet_first_derivatives_match_fd(self):
        model = make_model("CH_n", 2)
        pts = model.random_chart_points(np.random.default_rng(3), 4)
        G1 = model.fields_at(pts).G1
        h = 1e-6
        for s in range(model.chart_dim):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, s] += h
            dm[:, s] -= h
            Gp, Gm = model.fields_at(dp).G0, model.fields_at(dm).G0
            assert_allclose(G1[..., s], (Gp - Gm) / (2 * h), atol=1e-9)


class TestCurvatureOracle:
    def test_flat_both_vanish(self):
        model = make_model("C_n", 3)
        rng = np.random.default_rng(4)
        f = model.fields_at(rng.normal(size=(5, 6)))
        R = riemann_from_metric(f.G0, f.G1, f.G2)
        X, Y, Z = (rng.normal(size=(5, 6)) for _ in range(3))
        oracle = model.curvature_oracle(f, X, Y, Z)
        assert np.max(np.abs(R)) < 1e-14
        assert np.max(np.abs(oracle)) == 0.0

    def test_projective_oracle_match(self):
        model = make_model("CP_n", 2)
        rng = np.random.default_rng(5)
        f = model.fields_at(model.random_chart_points(rng, 50))
        R = riemann_from_metric(f.G0, f.G1, f.G2)
        X, Y, Z = (rng.normal(size=(50, 4)) for _ in range(3))
        derived = np.einsum("brsmn,bm,bn,bs->br", R, X, Y, Z)
        oracle = model.curvature_oracle(f, X, Y, Z)
        scale = np.maximum(np.linalg.norm(oracle, axis=-1), 1.0)
        assert np.max(np.linalg.norm(derived - oracle, axis=-1) / scale) < 1e-8

    def test_flat_contact_model_coefficients(self):
        # c~ = -3 kills the sectional block and leaves the structure block
        # with coefficient -1
        model = make_model("Sasakian_R", 2)
        assert (model.c_tilde + 3.0) / 4.0 == 0.0
        assert (model.c_tilde - 1.0) / 4.0 == -1.0
        rng = np.random.default_rng(6)
        f = model.fields_at(model.random_chart_points(rng, 8))
        X, Y, Z = (rng.normal(size=(8, 5)) for _ in range(3))
        oracle = model.curvature_oracle(f, X, Y, Z)
        # the sectional part would contribute g(Y,Z)X - g(X,Z)Y; check the
        # oracle does not contain it by comparing against the pure
        # structure-term evaluation at a point where eta(X)=eta(Y)=eta(Z)=0
        xi = f.Xi0
        g = lambda U, V: np.einsum("bmn,bm,bn->b", f.G0, U, V)
        proj = lambda U: U - (g(U, xi) / g(xi, xi))[:, None] * xi
        Xp, Yp, Zp = proj(X), proj(Y), proj(Z)
        o2 = model.curvature_oracle(f, Xp, Yp, Zp)
        phi = lambda U: np.einsum("bmn,bn->bm", f.Phi0, U)
        struct = (
            g(phi(Yp), Zp)[:, None] * phi(Xp)
            - g(phi(Xp), Zp)[:, None] * phi(Yp)
            + 2.0 * g(Xp, phi(Yp))[:, None] * phi(Zp)
        )
        assert_allclose(o2, -struct, atol=1e-12)


class TestDomains:
    def test_hyperbolic_ball_boundary(self):
        model = make_model("CH_n", 2)
        with pytest.raises(DomainError):
            model.fields_at(np.array([[0.8, 0.4, 0.4, 0.3]]))

    def test_sphere_chart_boundary(self):
        model = make_model("Sasakian_S", 2)
        with pytest.raises(DomainError):
            model.fields_at(np.array([[0.9, 0.3, 0.3, 0.0, 0.1]]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wrong_chart_dimension(self, kind):
        model = make_model(kind, 2)
        for dim in (model.chart_dim - 1, model.chart_dim + 1):
            with pytest.raises(DomainError, match="chart dim"):
                model.fields_at(np.zeros((1, dim)))
            with pytest.raises(DomainError, match="chart dim"):
                model.fields_at(np.zeros(dim))

    def test_bergman_ball_domain(self):
        model = make_model("Sasakian_B", 2)
        model.fields_at(np.array([[0.3, 0.1, 0.2, 0.1, 5.0]]))
        with pytest.raises(DomainError):
            model.fields_at(np.array([[0.9, 0.5, 0.2, 0.1, 0.0]]))


@pytest.mark.parametrize("kind", ["Sasakian_R", "Sasakian_B"])
@pytest.mark.parametrize("n", [2, 3])
def test_reeb_translation_leaves_the_fields_unchanged(kind, n):
    # the fiber coordinate of the lifts is set per node: that holds only
    # because no field reads the last chart coordinate
    model = make_model(kind, n, a=1.3)
    pts = model.random_chart_points(np.random.default_rng(23), 8)
    want = vars(model.fields_at(pts))
    for shift in (-2.5, -0.3, 0.7, 11.0):
        moved = pts.copy()
        moved[:, -1] += shift
        for name, got in vars(model.fields_at(moved)).items():
            if got is None:
                assert want[name] is None, name
            else:
                assert np.array_equal(got, want[name]), (name, shift)


def _chart_seeds(pts, order):
    """The chart coordinates at ``pts`` as packed jets in themselves, (coefficients, B, m)."""
    m = pts.shape[-1]
    x = np.zeros((len(jets._packed_basis(m, order)),) + pts.shape)
    x[0] = pts
    x[1 : 1 + m] = np.eye(m)[:, None, :]
    return x


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_centre_is_an_isometry_onto_the_base_point(kind, n):
    # the jets of the map itself: its differential D and second derivatives
    # at each point p, whose image must carry the base point's fields
    model = make_model(kind, n, a=0.8)
    pts = model.random_chart_points(np.random.default_rng(40 + n), 8)
    m = model.chart_dim
    Y0, D, D2 = jets._unpack_blocks(model.centre(_chart_seeds(pts, 2), m), m, 2)
    assert np.array_equal(Y0, np.zeros_like(pts))
    at, base = model.fields_at(pts), model.base_fields()

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    # the metric, and to first order around p: D^T G(0) D = G(p), and its derivatives
    close(np.einsum("bia,bij,bjc->bac", D, base.G0, D), at.G0)
    close(np.einsum("bias,bij,bjc->bacs", D2, base.G0, D)
          + np.einsum("bia,bij,bjcs->bacs", D, base.G0, D2)
          + np.einsum("bia,bijk,bjc,bks->bacs", D, base.G1, D, D), at.G1)
    if not model.is_sasakian:
        close(np.einsum("bia,bac->bic", D, at.J0), np.einsum("bij,bja->bia", base.J0, D))
        return
    close(np.einsum("bia,bac->bic", D, at.Phi0), np.einsum("bij,bja->bia", base.Phi0, D))
    close(np.einsum("bia,ba->bi", D, at.Xi0), np.broadcast_to(base.Xi0, pts.shape))
    close(np.einsum("bi,bia->ba", base.Eta0, D), at.Eta0)


def test_rank_phi_via_singular_values():
    for kind in ("Sasakian_R", "Sasakian_S", "Sasakian_B"):
        model = make_model(kind, 2)
        pts = model.random_chart_points(np.random.default_rng(7), 20)
        f = model.fields_at(pts)
        sv = np.linalg.svd(f.Phi0, compute_uv=False)
        assert np.max(sv[:, -1]) < 1e-10
        assert np.min(sv[:, -2]) > 1e-8


def _central_difference(f, pts, h=1e-5):
    """d_s f at the points as a new last axis s, by central differences."""
    cols = []
    for s in range(pts.shape[1]):
        step = np.zeros(pts.shape[1])
        step[s] = h
        cols.append((f(pts + step) - f(pts - step)) / (2 * h))
    return np.stack(cols, axis=-1)


class TestChartDerivatives:
    """The jet derivatives of the chart tensors against finite differences."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_metric_second_derivatives(self, kind):
        model = make_model(kind, 2)
        pts = model.random_chart_points(np.random.default_rng(11), 4)
        G2 = model.fields_at(pts).G2
        fd = _central_difference(lambda p: model.fields_at(p).G1, pts)
        assert np.max(np.abs(fd - G2)) <= 1e-8 * max(np.max(np.abs(G2)), 1.0)

    @pytest.mark.parametrize("kind", ["Sasakian_R", "Sasakian_S", "Sasakian_B"])
    @pytest.mark.parametrize("name", ["Phi", "Xi", "Eta"])
    def test_structure_first_derivatives(self, kind, name):
        model = make_model(kind, 2, a=0.7)
        pts = model.random_chart_points(np.random.default_rng(12), 4)
        d1 = getattr(model.fields_at(pts), name + "1")
        fd = _central_difference(lambda p: getattr(model.fields_at(p), name + "0"), pts)
        assert np.max(np.abs(fd - d1)) <= 1e-8 * max(np.max(np.abs(d1)), 1.0)


# ---------------------------------------------------------------------------
# reference: the chart tensors as nested lists of scalar jets
# ---------------------------------------------------------------------------

def _blocks(entries, order, B, v):
    """(value, d1, ...) arrays of a nested list of scalar jets and constants."""
    grid = np.empty(np.shape(entries), dtype=object)
    for idx in np.ndindex(grid.shape):
        e = entries
        for i in idx:
            e = e[i]
        grid[idx] = e
    out = []
    for k in range(order + 1):
        blk = np.zeros((B,) + grid.shape + (v,) * k)
        for idx, e in np.ndenumerate(grid):
            if isinstance(e, sj.ScalarJet):
                blk[(slice(None),) + idx] = (e.val, e.d1, e.d2)[k]
            elif k == 0:
                blk[(slice(None),) + idx] = e
        out.append(blk)
    return out


def _dot(U, V):
    return sum((u * v for u, v in zip(U, V)), start=U[0] * 0.0)


def _reference_complex_metric(x, y, c):
    n = len(x)
    if c == 0:
        return [[1.0 if i == j else 0.0 for j in range(2 * n)] for i in range(2 * n)]
    one = 1.0 + c * _dot(x, x) + c * _dot(y, y)
    w = sj.recip(one * one)
    diag = one * w
    out = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            P = (x[i] * x[j] + y[i] * y[j]) * w
            Q = (x[i] * y[j] - y[i] * x[j]) * w
            A = -c * P + (diag if i == j else 0.0)
            out[i][j] = out[n + i][n + j] = A
            out[i][n + j] = -c * Q
            out[n + i][j] = c * Q
    return out


def _reference_fields(model, pts):
    """The metric to order 2 and the structure tensors to order 1.

    These are the formulas the packed builders replaced: each tensor entry
    is a scalar jet, contracted in Python loops, and the derivatives of the
    inverse round metric are written out by hand.
    """
    n, m, B = model.n, model.chart_dim, len(pts)
    order = 3 if model.kind == "Sasakian_S" else 2
    q = sj.seed(pts, order)
    x, y = q[:n], q[n : 2 * n]
    out = {}
    if not model.is_sasakian:
        g = _reference_complex_metric(x, y, model.c)
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = -np.eye(n)
        J[n:, :n] = np.eye(n)
        out["J0"] = np.broadcast_to(J, (B, m, m))
        out["J1"] = np.zeros((B, m, m, m))
    elif model.kind in ("Sasakian_R", "Sasakian_B"):
        if model.kind == "Sasakian_R":
            scale = 0.5
            eta = [-0.5 * yi for yi in y] + [0.0] * n + [0.5]
            g = [[eta[i] * eta[j] + (0.25 if i == j < 2 * n else 0.0) for j in range(m)]
                 for i in range(m)]
        else:
            scale = a = model.a
            w = sj.recip(1.0 - _dot(x, x) - _dot(y, y))
            eta = [-4.0 * yi * w for yi in y] + [4.0 * xi * w for xi in x] + [1.0]
            h = [[0.0] * m for _ in range(m)]
            for i, row in enumerate(_reference_complex_metric(x, y, -1)):
                for j, e in enumerate(row):
                    h[i][j] = 4.0 * e
            g = [[a * h[i][j] + a * a * (eta[i] * eta[j]) for j in range(m)]
                 for i in range(m)]
        E0, E1 = _blocks(eta, 1, B, m)
        Jz = np.zeros((m, m))
        Jz[:n, n : 2 * n] = -np.eye(n)
        Jz[n : 2 * n, :n] = np.eye(n)
        Phi0 = np.broadcast_to(-Jz, (B, m, m)).copy()
        Phi1 = np.zeros((B, m, m, m))
        Phi0[:, 2 * n, :] = np.einsum("bc,cd->bd", E0, Jz) / E0[:, 2 * n, None]
        Phi1[:, 2 * n, :, :] = np.einsum("bcs,cd->bds", E1, Jz) / E0[:, 2 * n, None, None]
        Xi0 = np.zeros((B, m))
        Xi0[:, 2 * n] = 1.0 / scale
        if model.kind == "Sasakian_B":
            E0, E1 = a * E0, a * E1
        out.update(Phi0=Phi0, Phi1=Phi1, Xi0=Xi0, Xi1=np.zeros((B, m, m)), Eta0=E0, Eta1=E1)
    else:
        a = model.a
        s = _dot(q, q)
        E = x + [sj.sqrt(1.0 - s)] + q[n:]
        T = [[sj.derivative(e, i) for e in E] for i in range(m)]
        rot = lambda V: [-v for v in V[n + 1 :]] + list(V[: n + 1])
        JE = rot([sj.drop(e) for e in E])
        gbar = [[_dot(T[i], T[j]) for j in range(m)] for i in range(m)]
        etabar = [_dot(T[i], JE) for i in range(m)]
        K = [[_dot(T[i], rot(T[j])) for j in range(m)] for i in range(m)]
        g = [[a * gbar[i][j] + a * (a - 1.0) * etabar[i] * etabar[j] for j in range(m)]
             for i in range(m)]
        Gb0, Gb1 = _blocks(gbar, 1, B, m)
        K0, K1 = _blocks(K, 1, B, m)
        Eb0, Eb1 = _blocks(etabar, 1, B, m)
        W0 = np.linalg.inv(Gb0)
        W1 = -np.einsum("bmp,bpqs,bqn->bmns", W0, Gb1, W0)
        out.update(
            Phi0=-np.einsum("bac,bcd->bad", W0, K0),
            Phi1=-(np.einsum("bacs,bcd->bads", W1, K0) + np.einsum("bac,bcds->bads", W0, K1)),
            Xi0=np.einsum("bpq,bq->bp", W0, Eb0) / a,
            Xi1=(np.einsum("bpqs,bq->bps", W1, Eb0) + np.einsum("bpq,bqs->bps", W0, Eb1)) / a,
            Eta0=a * Eb0,
            Eta1=a * Eb1,
        )
    out["G0"], out["G1"], out["G2"] = _blocks(g, 2, B, m)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_packed_builders_match_scalar_jet_reference(kind, n):
    model = make_model(kind, n, a=0.8)
    pts = model.random_chart_points(np.random.default_rng(20 + n), 5)
    fields = vars(model.fields_at(pts))
    # the connection comes from the metric blocks the fields carry
    metric = fields["G0"], fields["G1"], fields["G2"]
    assert np.array_equal(fields.pop("Gamma0"), christoffel_from_metric(*metric[:2]))
    assert np.array_equal(fields.pop("Gamma1"), christoffel_derivative(*metric))
    want = _reference_fields(model, pts)
    assert {k for k, v in fields.items() if v is not None} == set(want)
    for name, ref in want.items():
        got = fields[name]
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name
