"""Catalog immersions: chart atlas, formula values, flows and lifts."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo.geometry import curvature_data, paper_residuals, pointwise_geometry, structure_checks
from whitneygeo.immersions import (
    HamiltonianDeformation,
    SphereChart,
    eval_immersion,
    hamiltonian_flow,
    loop_integral,
    make_spec,
    model_for,
    random_quartic,
)
from whitneygeo.jets import constant, seed_variables


@pytest.fixture(scope="module")
def atlas2():
    return SphereChart(2)


def _sample_params(n, count=12, seed=0):
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(0.5, np.pi - 0.5, count) for _ in range(n - 1)]
    cols.append(rng.uniform(0.2, 2 * np.pi - 0.2, count))
    return np.column_stack(cols)


class TestSphereChart:
    def test_unit_norm_jets(self, atlas2):
        t = _sample_params(2)
        for c in range(atlas2.num_charts):
            u = atlas2.u_jets(c, t, order=3)
            norm = sum((uj * uj for uj in u[1:]), start=u[0] * u[0])
            assert_allclose(norm.val, 1.0, atol=1e-14)
            assert_allclose(norm.d1, 0.0, atol=1e-13)
            assert_allclose(norm.d2, 0.0, atol=1e-12)

    def test_roundtrip(self, atlas2):
        t = _sample_params(2, seed=3)
        for c in range(atlas2.num_charts):
            u = atlas2.u_values(c, t)
            t2 = atlas2.params_from_u(c, u)
            assert_allclose(atlas2.u_values(c, t2), u, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coverage(self, n):
        atlas = SphereChart(n)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(200, n + 1))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w = atlas.partition_of_unity(u)
        assert_allclose(w.sum(axis=0), 1.0, atol=1e-14)
        # every point is well inside at least one chart
        rho = np.stack(
            [atlas.singular_distance(c, u) for c in range(atlas.num_charts)]
        )
        assert rho.max(axis=0).min() > 0.5

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            SphereChart(5)


class TestCatalogValues:
    def test_whitney_flat_at_axis_point(self, atlas2):
        spec = make_spec("whitney_c0", 2, r=1.0)
        t = atlas2.params_from_u(0, np.array([[1.0, 0.0, 0.0]]))
        x = eval_immersion(spec, 0, t, atlas=atlas2)
        assert_allclose([xi.val[0] for xi in x], [1, 0, 0, 0], atol=1e-14)

    def test_whitney_flat_double_point(self, atlas2):
        spec = make_spec("whitney_c0", 2, r=1.3, B=(0.1, -0.2, 0.3, 0.0))
        t = atlas2.params_from_u(0, np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        x = eval_immersion(spec, 0, t, atlas=atlas2)
        vals = np.array([xi.val for xi in x])
        assert_allclose(vals[:, 0], vals[:, 1], atol=1e-13)

    def test_projective_family_on_equator(self, atlas2):
        # at u_{n+1} = 0 the affine chart value is u / sinh(theta)
        theta = 0.4
        spec = make_spec("whitney_cp", 2, theta=theta)
        t = atlas2.params_from_u(0, np.array([[0.6, 0.8, 0.0]]))
        x = eval_immersion(spec, 0, t, atlas=atlas2)
        got = np.array([xi.val[0] for xi in x])
        want = np.array([0.6, 0.8, 0.0, 0.0]) / math.sinh(theta)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_torus_values(self):
        spec = make_spec("product_torus", 2, radii=(1.0, 2.0))
        x = eval_immersion(spec, 0, np.array([[0.0, np.pi / 2]]))
        assert_allclose(
            [xi.val[0] for xi in x], [1.0, 0.0, 0.0, 2.0], atol=1e-14
        )

    def test_flat_contact_fiber_closed_form(self, atlas2):
        # the contact condition determines the fiber: dz/du equals the
        # quadrature of sum(y_i dx_i) along the last sphere coordinate
        r = 1.7
        spec = make_spec("contact_whitney_r", 2, r=r, a=0.0)
        us = np.linspace(-0.9, 0.9, 7)
        t = atlas2.params_from_u(
            0,
            np.column_stack(
                [np.sqrt(1 - us**2) * 0.6, np.sqrt(1 - us**2) * 0.8, us]
            ),
        )
        x = eval_immersion(spec, 0, t, atlas=atlas2)
        z = x[-1].val
        # independent quadrature of the defining one-form
        from numpy.polynomial.legendre import leggauss

        xs, ws = leggauss(64)
        for k, u1 in enumerate(us):
            s = 0.5 * u1 * (xs + 1.0)
            w = 0.5 * u1 * ws
            integrand = r * r * (1 - 3 * s**2) / (1 + s**2) ** 3
            assert_allclose(z[k], np.sum(w * integrand), atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_spec("whitney_cp", 2, theta=0.0)
        with pytest.raises(ValueError):
            make_spec("whitney_c0", 2, r=-1.0)
        with pytest.raises(ValueError):
            make_spec("totally_geodesic_cp", 3)
        with pytest.raises(ValueError):
            make_spec("contact_whitney_s", 2, theta=0.5, a=0.0)
        with pytest.raises(ValueError):
            make_spec("unknown_case", 2)
        with pytest.raises(ValueError):
            make_spec("product_torus", 2, radii=(1.0,))
        with pytest.raises(ValueError):
            make_spec("perturbed", 2, steps=4)

    @pytest.mark.parametrize("kind", ["perturbed", "lifted"])
    @pytest.mark.parametrize("hamiltonian, names", [
        ((), "non-empty sequence"),
        ("abc", "non-empty sequence"),
        (((1.0, (1, 0)),), "term 0 (1.0, (1, 0))"),
        (((1.0, (2, 0, 0, 0)), (1.0, (1, 0, 0, 0, 0))), "term 1 (1.0, (1, 0, 0, 0, 0))"),
        (((float("nan"), (1, 0, 0, 0)),), "term 0 (nan,"),
        (((float("inf"), (1, 0, 0, 0)),), "term 0 (inf,"),
        (((1.0, (1, 0, -1, 0)),), "term 0 (1.0, (1, 0, -1, 0))"),
        (((1.0, (1.5, 0, 0, 0)),), "term 0 (1.0, (1.5, 0, 0, 0))"),
        (((True, (1, 0, 0, 0)),), "term 0 (True,"),
        (((1.0,),), "term 0 (1.0,)"),
    ])
    def test_hamiltonian_validation(self, kind, hamiltonian, names):
        params = dict(base="perturbed") if kind == "lifted" else {}
        with pytest.raises(ValueError, match=re.escape(names)):
            make_spec(kind, 2, hamiltonian=hamiltonian, **params)

    def test_valid_hamiltonian_is_normalized(self):
        spec = make_spec("perturbed", 2, hamiltonian=[[1, [2, 0, 0, 0]]])
        assert spec.params["hamiltonian"] == ((1.0, (2, 0, 0, 0)),)


ALL_SPHERE_CASES = [
    ("whitney_c0", dict(r=1.0)),
    ("whitney_cp", dict(theta=0.5)),
    ("whitney_ch", dict(theta=0.5)),
    ("totally_geodesic_cp", dict()),
    ("contact_whitney_r", dict(r=1.0, a=0.2)),
    ("contact_whitney_s", dict(theta=0.5, a=0.8)),
    ("contact_whitney_b", dict(theta=0.5, a=1.2)),
    ("perturbed", dict(epsilon=0.05, seed=3)),
    ("lifted", dict(base="whitney_c0", r=1.0)),
]


class TestIsotropy:
    @pytest.mark.parametrize("kind,kw", ALL_SPHERE_CASES)
    def test_lagrangian_or_legendrian(self, kind, kw, atlas2):
        spec = make_spec(kind, 2, **kw)
        model = model_for(spec)
        t = _sample_params(2, count=10, seed=1)
        pg, _ = pointwise_geometry(model, spec, 0, t, atlas=atlas2)
        tol = 1e-7 if kind in ("perturbed", "lifted") else 1e-9
        assert pg.isotropy.max() < tol


class TestChartConsistency:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("whitney_c0", dict(r=1.0)),
            ("whitney_cp", dict(theta=0.5)),
            ("contact_whitney_s", dict(theta=0.5, a=0.8)),
            ("totally_geodesic_cp", dict()),
        ],
    )
    def test_invariants_agree_across_charts(self, kind, kw, atlas2):
        # same geometric points through both charts of the atlas
        rng = np.random.default_rng(11)
        u = rng.normal(size=(8, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        spec = make_spec(kind, 2, **kw)
        model = model_for(spec)
        scalars = []
        for c in range(atlas2.num_charts):
            t = atlas2.params_from_u(c, u)
            pg, fields = pointwise_geometry(model, spec, c, t, atlas=atlas2)
            cd = curvature_data(pg, fields)
            res = paper_residuals(pg, cd)
            scalars.append(
                np.stack([res["h_norm2"], res["H_norm2"], res["scalar_curvature"],
                          res["nabla_h_norm2"]])
            )
        assert_allclose(scalars[0], scalars[1], rtol=1e-9, atol=1e-9)


class TestDegenerationLimit:
    def test_projective_family_approaches_totally_geodesic(self, atlas2):
        t = _sample_params(2, count=6, seed=2)
        sup_h = []
        for theta in (0.4, 0.2, 0.1):
            spec = make_spec("whitney_cp", 2, theta=theta)
            pg, _ = pointwise_geometry(model_for(spec), spec, 0, t, atlas=atlas2)
            res_h = np.einsum("bijk,bijk->b", pg.h.v, pg.h.v)
            sup_h.append(res_h.max())
        assert sup_h[0] > sup_h[1] > sup_h[2]
        assert sup_h[2] < 0.2
        # scalar curvature approaches the totally geodesic value n(n-1)c = 2
        spec = make_spec("whitney_cp", 2, theta=0.05)
        pg, fields = pointwise_geometry(model_for(spec), spec, 0, t, atlas=atlas2)
        cd = curvature_data(pg, fields)
        assert_allclose(cd.scalar, 2.0, atol=0.02)


def _reference_flow(x, ham):
    """RK4 on lists of scalar jets: J grad F summed term by term with Jet products."""
    m = len(x)
    n = m // 2
    grads = ham.gradient_terms(m)

    def field(state):
        g = []
        for terms in grads:
            acc = state[0] * 0.0
            for c, e in terms:
                term = constant(np.full(state[0].batch_shape, c), x[0].num_vars, x[0].order)
                for i, k in enumerate(e):
                    for _ in range(k):
                        term = term * state[i]
                acc = acc + term
            g.append(acc)
        return [-gi for gi in g[n:]] + g[:n]

    h = ham.epsilon / ham.steps
    for _ in range(ham.steps):
        k1 = field(x)
        k2 = field([xi + (h / 2.0) * ki for xi, ki in zip(x, k1)])
        k3 = field([xi + (h / 2.0) * ki for xi, ki in zip(x, k2)])
        k4 = field([xi + h * ki for xi, ki in zip(x, k3)])
        x = [
            xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
    return x


class TestHamiltonianFlow:
    def test_zero_hamiltonian_is_identity(self, atlas2):
        spec0 = make_spec("whitney_c0", 2, r=1.0)
        spec = make_spec("perturbed", 2, epsilon=0.0)
        t = _sample_params(2, count=5, seed=4)
        x0 = eval_immersion(spec0, 0, t, atlas=atlas2)
        x1 = eval_immersion(spec, 0, t, atlas=atlas2)
        for a, b in zip(x0, x1):
            assert_allclose(a.val, b.val, atol=1e-15)
            assert_allclose(a.d3, b.d3, atol=1e-15)

    def test_rotation_hamiltonian_preserves_invariants(self, atlas2):
        # F = |z|^2 / 2 generates an ambient rotation, hence an isometry
        n = 2
        coeffs = []
        for i in range(2 * n):
            e = [0] * (2 * n)
            e[i] = 2
            coeffs.append((0.5, tuple(e)))
        spec0 = make_spec("whitney_c0", 2, r=1.0)
        spec = make_spec(
            "perturbed", 2, epsilon=0.4, steps=64, hamiltonian=tuple(coeffs)
        )
        t = _sample_params(2, count=8, seed=5)
        model = model_for(spec)
        out = []
        for s in (spec0, spec):
            pg, fields = pointwise_geometry(model, s, 0, t, atlas=atlas2)
            cd = curvature_data(pg, fields)
            res = paper_residuals(pg, cd)
            out.append(
                np.stack(
                    [res["h_norm2"], res["nabla_h_norm2"], res["scalar_curvature"]]
                )
            )
        assert_allclose(out[0], out[1], rtol=1e-8, atol=1e-8)

    def test_flow_rotation_matches_exact_exponential(self):
        # d/ds z = J z integrates to the ambient rotation by angle s: the
        # flowed seeds are R z0, so d1 is the rotation R and d2 = d3 = 0
        coeffs = tuple(
            (0.5, tuple(2 if j == i else 0 for j in range(4))) for i in range(4)
        )
        ham = HamiltonianDeformation(coeffs=coeffs, epsilon=0.3, steps=64)
        seeds = seed_variables(np.array([[0.3, -0.2, 0.5, 0.1]]), 3, batch=True)
        out = hamiltonian_flow(list(seeds), ham)
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.block([[c * np.eye(2), -s * np.eye(2)], [s * np.eye(2), c * np.eye(2)]])
        want = R @ np.array([0.3, -0.2, 0.5, 0.1])
        got = np.array([o.val[0] for o in out])
        assert_allclose(got, want, atol=1e-12)
        assert_allclose(np.array([o.d1[0] for o in out]), R, atol=1e-13)
        for o in out:
            assert_allclose(o.d2, 0.0, atol=1e-13)
            assert_allclose(o.d3, 0.0, atol=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_flow_matches_scalar_jet_reference(self, n, order):
        # a linear term gives grad F a constant monomial
        linear = ((0.3, (1,) + (0,) * (2 * n - 1)),)
        ham = HamiltonianDeformation(
            coeffs=random_quartic(n, 3) + linear, epsilon=0.05, steps=4
        )
        t = _sample_params(n, count=3, seed=10 + n)
        x = eval_immersion(make_spec("whitney_c0", n), 0, t, order=order)
        got = hamiltonian_flow(x, ham)
        want = _reference_flow(x, ham)
        for k in range(order + 1):
            block = ("val", "d1", "d2", "d3")[k]
            ref = np.stack([getattr(w, block) for w in want])
            new = np.stack([getattr(g, block) for g in got])
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_order_one_flow_is_truncated_order_three(self, atlas2):
        # the RK4 step check and the lift integrand flow order-1 jets
        spec = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        t = _sample_params(2, count=6, seed=11)
        lo = eval_immersion(spec, 0, t, atlas=atlas2, order=1)
        hi = eval_immersion(spec, 0, t, atlas=atlas2, order=3)
        for a, b in zip(lo, hi):
            assert a.order == 1
            assert_allclose(a.val, b.val, rtol=1e-14, atol=1e-15)
            assert_allclose(a.d1, b.d1, rtol=1e-14, atol=1e-15)

    def test_generic_quartic_breaks_whitney_relation(self, atlas2):
        spec = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        model = model_for(spec)
        t = _sample_params(2, count=10, seed=6)
        pg, fields = pointwise_geometry(model, spec, 0, t, atlas=atlas2)
        cd = curvature_data(pg, fields)
        res = paper_residuals(pg, cd)
        assert pg.isotropy.max() < 1e-8
        assert res["whitney_residual"].max() > 1e-3

    def test_random_quartic_deterministic(self):
        assert random_quartic(2, 7) == random_quartic(2, 7)
        assert random_quartic(2, 7) != random_quartic(2, 8)


class TestLegendrianLift:
    def test_perturbed_base_keeps_its_hamiltonian(self, atlas2):
        from whitneygeo.immersions import _lift_primitive_for

        ham = random_quartic(2, 99)
        custom = _lift_primitive_for(
            make_spec("lifted", 2, base="perturbed", hamiltonian=ham), atlas2
        )
        seeded = _lift_primitive_for(make_spec("lifted", 2, base="perturbed"), atlas2)
        assert custom.base_spec.params["hamiltonian"] == ham
        assert seeded.base_spec.params["hamiltonian"] == random_quartic(2, 1)
        assert custom is not seeded

    def test_loop_integral_vanishes(self, atlas2):
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        assert abs(loop_integral(spec, atlas2)) < 1e-10

    def test_lift_is_legendrian_and_whitney_type(self, atlas2):
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        model = model_for(spec)
        t = _sample_params(2, count=10, seed=7)
        pg, fields = pointwise_geometry(model, spec, 0, t, atlas=atlas2)
        cd = curvature_data(pg, fields)
        res = paper_residuals(pg, cd)
        assert pg.isotropy.max() < 1e-8
        assert res["whitney_residual"].max() < 1e-9

    def test_lift_consistent_across_charts(self, atlas2):
        # the primitive is anchored at one geometric point, so the fiber
        # coordinate agrees between charts
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        rng = np.random.default_rng(8)
        u = rng.normal(size=(6, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        zs = []
        for c in range(2):
            t = atlas2.params_from_u(c, u)
            x = eval_immersion(spec, c, t, atlas=atlas2)
            zs.append(x[-1].val)
        assert_allclose(zs[0], zs[1], atol=1e-10)
