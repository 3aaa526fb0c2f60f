"""Catalog immersions: node-centred sphere charts, formula values, flows and lifts."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo import immersions, jets
from whitneygeo.geometry import curvature_data, paper_residuals, pointwise_geometry, structure_checks
from whitneygeo.immersions import (
    HamiltonianDeformation,
    eval_immersion,
    hamiltonian_flow,
    loop_integral,
    make_spec,
    model_for,
    node_jets,
    params_from_u,
    random_quartic,
    sphere_points,
)
from whitneygeo.jets import Jet, constant


def _sample_params(n, count=12, seed=0):
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(0.5, np.pi - 0.5, count) for _ in range(n - 1)]
    cols.append(rng.uniform(0.2, 2 * np.pi - 0.2, count))
    return np.column_stack(cols)


def _points_and_poles(n, count=20, seed=5):
    """Random sphere points, then every +-e_k: the poles of spherical coordinates."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, n + 1))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.concatenate([u, np.eye(n + 1), -np.eye(n + 1)])


def _ref_node_jets(u0, order):
    """The node chart (u0 + Q s) / sqrt(1 + |s|^2) in scalar Jets seeded on s at 0."""
    n = u0.shape[-1] - 1
    Q = immersions._reflections(u0)[:, :, :n]
    s = jets.seed_variables(np.zeros((len(u0), n)), order, batch=True)
    inv = jets.recip(jets.sqrt(sum((si * si for si in s[1:]), start=s[0] * s[0]) + 1.0))
    return [sum((si * Q[:, k, i] for i, si in enumerate(s)), start=inv * 0.0 + u0[:, k]) * inv
            for k in range(n + 1)]


class TestSphereChart:
    def test_unit_norm_jets(self):
        u = node_jets(_points_and_poles(2), order=3)
        norm = jets._Ops(2, 3).mul(u, u).sum(axis=-1)
        val, d1, d2, d3 = jets._unpack_blocks(norm, 2, 3)
        assert_allclose(val, 1.0, atol=1e-14)
        assert_allclose(d1, 0.0, atol=1e-14)
        assert_allclose(d2, 0.0, atol=1e-14)
        assert_allclose(d3, 0.0, atol=1e-14)

    def test_roundtrip(self):
        t = _sample_params(2, seed=3)
        u = sphere_points(t)
        assert_allclose(params_from_u(u), t, atol=1e-12)
        assert_allclose(sphere_points(params_from_u(u)), u, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coverage(self, n):
        # every point, the poles of the spherical coordinates included, sits
        # at the centre of its own chart: the first partials are an
        # orthonormal basis of its tangent space
        u = _points_and_poles(n)
        d1 = jets._unpack_blocks(node_jets(u, order=1), n, 1)[1]  # (B, n+1, n)
        assert_allclose(np.einsum("bki,bkj->bij", d1, d1),
                        np.broadcast_to(np.eye(n), (len(u), n, n)), atol=1e-15)
        assert_allclose(np.einsum("bk,bki->bi", u, d1), 0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_node_jets_match_scalar_jet_reference(self, n):
        u = _points_and_poles(n, count=6)
        got = jets._unpack_blocks(node_jets(u, order=3), n, 3)
        ref = _ref_node_jets(u, 3)
        for k, block in enumerate(("val", "d1", "d2", "d3")):
            want = np.stack([getattr(j, block) for j in ref], axis=1)
            assert got[k].shape == want.shape, block
            assert np.max(np.abs(got[k] - want)) <= 1e-14, block

    def test_no_dimension_limit(self):
        # the charts themselves work in any dimension; only the grids keep
        # a cost guard (n <= 4)
        t = _sample_params(5, count=4, seed=9)
        x = eval_immersion(make_spec("whitney_c0", 5), t, order=1)
        d1 = jets._unpack_blocks(x, 5, 1)[1]
        assert np.linalg.matrix_rank(d1[0]) == 5
        assert np.all(np.linalg.svd(d1, compute_uv=False).min(axis=1) > 0.1)


class TestCatalogValues:
    def test_whitney_flat_at_axis_point(self):
        spec = make_spec("whitney_c0", 2, r=1.0)
        t = params_from_u(np.array([[1.0, 0.0, 0.0]]))
        x = eval_immersion(spec, t)
        assert_allclose(x[0, 0], [1, 0, 0, 0], atol=1e-14)

    def test_whitney_flat_double_point(self):
        spec = make_spec("whitney_c0", 2, r=1.3, B=(0.1, -0.2, 0.3, 0.0))
        t = params_from_u(np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        x = eval_immersion(spec, t)
        assert_allclose(x[0, 0], x[0, 1], atol=1e-13)

    def test_projective_family_on_equator(self):
        # at u_{n+1} = 0 the affine chart value is u / sinh(theta)
        theta = 0.4
        spec = make_spec("whitney_cp", 2, theta=theta)
        t = params_from_u(np.array([[0.6, 0.8, 0.0]]))
        x = eval_immersion(spec, t)
        got = x[0, 0]
        want = np.array([0.6, 0.8, 0.0, 0.0]) / math.sinh(theta)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_torus_values(self):
        spec = make_spec("product_torus", 2, radii=(1.0, 2.0))
        x = eval_immersion(spec, np.array([[0.0, np.pi / 2]]))
        assert_allclose(x[0, 0], [1.0, 0.0, 0.0, 2.0], atol=1e-14)

    def test_flat_contact_fiber_closed_form(self):
        # the contact condition determines the fiber: dz/du equals the
        # quadrature of sum(y_i dx_i) along the last sphere coordinate
        r = 1.7
        spec = make_spec("contact_whitney_r", 2, r=r, a=0.0)
        us = np.linspace(-0.9, 0.9, 7)
        t = params_from_u(
            np.column_stack([np.sqrt(1 - us**2) * 0.6, np.sqrt(1 - us**2) * 0.8, us])
        )
        x = eval_immersion(spec, t)
        z = x[0, :, -1]
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
    def test_lagrangian_or_legendrian(self, kind, kw):
        spec = make_spec(kind, 2, **kw)
        model = model_for(spec)
        t = _sample_params(2, count=10, seed=1)
        pg, _ = pointwise_geometry(model, spec, t)
        assert pg.isotropy.max() < 1e-9


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
    def test_invariants_agree_across_charts(self, kind, kw, monkeypatch):
        # the same points in node charts whose tangent bases are turned by a
        # random rotation: the invariants do not depend on the basis
        rng = np.random.default_rng(11)
        u = rng.normal(size=(8, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        t = params_from_u(u)
        spec = make_spec(kind, 2, **kw)
        model = model_for(spec)
        turn = np.eye(3)
        turn[:2, :2] = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        reflections = immersions._reflections
        scalars = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(immersions, "_reflections", lambda v: reflections(v) @ turn)
            pg, fields = pointwise_geometry(model, spec, t)
            cd = curvature_data(pg, fields)
            res = paper_residuals(pg, cd)
            scalars.append(
                np.stack([res["h_norm2"], res["H_norm2"], res["scalar_curvature"],
                          res["nabla_h_norm2"]])
            )
        assert_allclose(scalars[0], scalars[1], rtol=1e-9, atol=1e-9)


class TestDegenerationLimit:
    def test_projective_family_approaches_totally_geodesic(self):
        t = _sample_params(2, count=6, seed=2)
        sup_h = []
        for theta in (0.4, 0.2, 0.1):
            spec = make_spec("whitney_cp", 2, theta=theta)
            pg, _ = pointwise_geometry(model_for(spec), spec, t)
            res_h = np.einsum("bijk,bijk->b", pg.h.v, pg.h.v)
            sup_h.append(res_h.max())
        assert sup_h[0] > sup_h[1] > sup_h[2]
        assert sup_h[2] < 0.2
        # scalar curvature approaches the totally geodesic value n(n-1)c = 2
        spec = make_spec("whitney_cp", 2, theta=0.05)
        pg, fields = pointwise_geometry(model_for(spec), spec, t)
        cd = curvature_data(pg, fields)
        assert_allclose(cd.scalar, 2.0, atol=0.02)


def _jets_of(packed, v):
    """The scalar Jets of packed (coefficients, B, m) jets in ``v`` variables."""
    order = jets._packed_order(packed, v)
    blocks = jets._unpack_blocks(packed, v, order)
    return [Jet(order, v, *(np.moveaxis(b, 1, 0)[mu] for b in blocks))
            for mu in range(packed.shape[-1])]


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


def _allocating_flow(x, ham, num_vars):
    """RK4 with a new array for every temporary and one plain packed product
    per monomial, in the buffered kernel's operation order."""
    m = x.shape[-1]
    n = m // 2
    grads = ham.gradient_terms(m)
    needed = {e for terms in grads for _, e in terms}
    for degree in range(max(map(sum, needed)), 1, -1):
        needed |= {immersions._parent(e)[0] for e in needed if sum(e) == degree}
    monomials = sorted(needed, key=lambda e: (sum(e), e))
    C = np.zeros((m, len(monomials)))
    for mu, terms in enumerate(grads):
        for c, e in terms:
            C[mu, monomials.index(e)] += c
    JC = np.concatenate([-C[n:], C[:n]])
    table = jets._leibniz_table(num_vars, jets._packed_order(x, num_vars))

    def field(state):
        mono = []
        for e in monomials:
            if sum(e) == 0:
                one = np.zeros_like(state[:, 0])
                one[0] = 1.0
                mono.append(one)
            elif sum(e) == 1:
                mono.append(state[:, e.index(1)])
            else:
                parent, var = immersions._parent(e)
                mono.append(jets._packed_mul(mono[monomials.index(parent)], state[:, var], table))
        return np.matmul(JC, np.stack(mono, axis=1))

    state = np.moveaxis(x, -1, 1)
    h = ham.epsilon / ham.steps
    for _ in range(ham.steps):
        k1 = field(state)
        k2 = field(state + (h / 2.0) * k1)
        k3 = field(state + (h / 2.0) * k2)
        k4 = field(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.moveaxis(state, 1, -1)


def _chart_jets(count):
    """The order-3 Whitney sphere jets at the first ``count`` nodes of the K = 48 grid."""
    from whitneygeo.quadrature import build_grid

    grid = build_grid(2, 48, domain="sphere")
    return eval_immersion(make_spec("whitney_c0", 2), grid.t[:count])


def _perturbed_hamiltonian():
    params = make_spec("perturbed", 2, epsilon=0.05, seed=3).params
    return HamiltonianDeformation(params["hamiltonian"], params["epsilon"], params["steps"])


# a fresh interpreter that flows 2304 nodes of the K = 48 grid and prints
# the minor page faults the flow took, then the process's total
_FAULT_PROBE = """
import resource
from whitneygeo.quadrature import build_grid
from whitneygeo.immersions import (
    HamiltonianDeformation, eval_immersion, hamiltonian_flow, make_spec)
grid = build_grid(2, 48, domain="sphere")
x = eval_immersion(make_spec("whitney_c0", 2), grid.t[:2304])
p = make_spec("perturbed", 2, epsilon=0.05, seed=3).params
ham = HamiltonianDeformation(p["hamiltonian"], p["epsilon"], p["steps"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
hamiltonian_flow(x, ham, 2)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(len(x[0]), after - before, after)
"""


class TestFlowKernel:
    @pytest.mark.parametrize("count", [1, 2304])
    def test_matches_allocating_reference_bitwise(self, count):
        x = _chart_jets(count)
        kept = x.copy()
        ham = _perturbed_hamiltonian()
        got = hamiltonian_flow(x, ham, 2)
        assert got.shape == x.shape == (10, count, 4)
        assert np.array_equal(got, _allocating_flow(x, ham, 2))
        # the input is neither updated nor handed back
        assert np.array_equal(x, kept)
        assert not np.shares_memory(got, x)

    def test_fresh_process_takes_few_page_faults(self):
        # an allocating loop took about 230 000 minor faults here, one per
        # page of every stage temporary, in a process whose heap is cold
        pytest.importorskip("resource")
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(immersions.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        nodes, faults, total = map(int, done.stdout.split())
        if total == 0:
            pytest.skip("ru_minflt is not counted on this platform")
        assert nodes == 2304
        assert faults < 50_000


class TestHamiltonianFlow:
    def test_zero_hamiltonian_is_identity(self):
        spec0 = make_spec("whitney_c0", 2, r=1.0)
        spec = make_spec("perturbed", 2, epsilon=0.0)
        t = _sample_params(2, count=5, seed=4)
        x0 = eval_immersion(spec0, t)
        x1 = eval_immersion(spec, t)
        assert_allclose(x0, x1, atol=1e-15)

    def test_rotation_hamiltonian_preserves_invariants(self):
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
            pg, fields = pointwise_geometry(model, s, t)
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
        seeds = np.zeros((len(jets._packed_basis(4, 3)), 1, 4))
        seeds[0, 0] = [0.3, -0.2, 0.5, 0.1]
        seeds[1:5, 0] = np.eye(4)
        out = hamiltonian_flow(seeds, ham, 4)
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.block([[c * np.eye(2), -s * np.eye(2)], [s * np.eye(2), c * np.eye(2)]])
        want = R @ np.array([0.3, -0.2, 0.5, 0.1])
        assert_allclose(out[0, 0], want, atol=1e-12)
        assert_allclose(out[1:5, 0].T, R, atol=1e-13)
        assert_allclose(out[5:], 0.0, atol=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_flow_matches_scalar_jet_reference(self, n, order):
        # a linear term gives grad F a constant monomial
        linear = ((0.3, (1,) + (0,) * (2 * n - 1)),)
        ham = HamiltonianDeformation(
            coeffs=random_quartic(n, 3) + linear, epsilon=0.05, steps=4
        )
        t = _sample_params(n, count=3, seed=10 + n)
        x = eval_immersion(make_spec("whitney_c0", n), t, order=order)
        got = _jets_of(hamiltonian_flow(x, ham, n), n)
        want = _reference_flow(_jets_of(x, n), ham)
        for k in range(order + 1):
            block = ("val", "d1", "d2", "d3")[k]
            ref = np.stack([getattr(w, block) for w in want])
            new = np.stack([getattr(g, block) for g in got])
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_order_one_flow_is_truncated_order_three(self):
        # the RK4 step check and the lift integrand flow order-1 jets
        spec = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        t = _sample_params(2, count=6, seed=11)
        lo = eval_immersion(spec, t, order=1)
        hi = eval_immersion(spec, t, order=3)
        assert lo.shape == (3,) + hi.shape[1:]
        assert_allclose(lo, hi[:3], rtol=1e-14, atol=1e-15)

    def test_generic_quartic_breaks_whitney_relation(self):
        spec = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        model = model_for(spec)
        t = _sample_params(2, count=10, seed=6)
        pg, fields = pointwise_geometry(model, spec, t)
        cd = curvature_data(pg, fields)
        res = paper_residuals(pg, cd)
        assert pg.isotropy.max() < 1e-9
        assert res["whitney_residual"].max() > 1e-3

    def test_random_quartic_deterministic(self):
        assert random_quartic(2, 7) == random_quartic(2, 7)
        assert random_quartic(2, 7) != random_quartic(2, 8)


class TestLegendrianLift:
    def test_perturbed_base_keeps_its_hamiltonian(self):
        from whitneygeo.immersions import _lift_primitive_for

        ham = random_quartic(2, 99)
        custom = _lift_primitive_for(make_spec("lifted", 2, base="perturbed", hamiltonian=ham))
        seeded = _lift_primitive_for(make_spec("lifted", 2, base="perturbed"))
        assert custom.base_spec.params["hamiltonian"] == ham
        assert seeded.base_spec.params["hamiltonian"] == random_quartic(2, 1)
        assert custom is not seeded

    @pytest.mark.parametrize("base", ["whitney_c0", "perturbed"])
    def test_path_integrand_is_the_n_variable_partial(self, base):
        # the integrand flows 1-variable jets along the path axis only
        prim = immersions._lift_primitive_for(make_spec("lifted", 2, base=base))
        t = _sample_params(2, count=7, seed=12)
        x = prim._base_jets(immersions._spherical_jets(t, order=1), jets._Ops(2, 1))
        for axis in range(2):
            want = (x[0, :, 2:] * x[1 + axis, :, :2]).sum(axis=-1)
            assert_allclose(prim._integrand(t, axis), want, rtol=1e-14, atol=1e-15)

    def test_shared_path_heads_match_single_node_paths(self):
        # nodes on one polar circle share their first segment, integrated once
        prim = immersions._lift_primitive_for(make_spec("lifted", 2, base="whitney_c0"))
        polar = np.repeat([0.4, 1.3, 2.9], 4)
        t = np.stack([polar, np.tile([0.1, 1.7, 3.3, 6.0], 3)], axis=1)
        single = [prim.values(t[i : i + 1])[0] for i in range(len(t))]
        assert_allclose(prim.values(t), single, rtol=1e-14, atol=1e-15)

    def test_loop_integral_vanishes(self):
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        assert abs(loop_integral(spec)) < 1e-10

    def test_lift_is_legendrian_and_whitney_type(self):
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        model = model_for(spec)
        t = _sample_params(2, count=10, seed=7)
        pg, fields = pointwise_geometry(model, spec, t)
        cd = curvature_data(pg, fields)
        res = paper_residuals(pg, cd)
        assert pg.isotropy.max() < 1e-9
        assert res["whitney_residual"].max() < 1e-9

    def test_lift_consistent_across_charts(self):
        # the primitive is a function on the sphere: the parameters (theta,
        # phi), (-theta, phi + pi) and (theta, phi + 2 pi) name one point,
        # reached by different paths from the anchor
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        t = _sample_params(2, count=6, seed=8)
        others = [np.column_stack([-t[:, 0], t[:, 1] + np.pi]), t + [0.0, 2.0 * np.pi]]
        z = eval_immersion(spec, t)[0, :, -1]
        for t2 in others:
            assert_allclose(sphere_points(t2), sphere_points(t), atol=1e-15)
            assert_allclose(eval_immersion(spec, t2)[0, :, -1], z, atol=1e-10)


class TestBergmanFiber:
    """The sqrt-free density of the ball-model fiber."""

    def _sqrt_route(self, fiber, u_vals, order):
        # the density through the sphere point (sqrt(1 - u^2), 0, ..., u)
        ops = jets._Ops(1, order + 1)
        un = np.zeros((order + 2, len(u_vals)))
        un[0], un[1] = u_vals, 1.0
        head = ops.fn("sqrt", immersions._plus(-ops.mul(un, un), 1.0))
        z = immersions._complex_pairs(np.stack([head, un], axis=-1), fiber.theta, "ch", ops)
        x, y = z.real[..., 0], z.imag[..., 0]
        w = ops.fn("recip", immersions._plus(-(ops.mul(x, x) + ops.mul(y, y)), 1.0))
        low = jets._Ops(1, order)
        acc = low.mul(y[:-1], x[1:]) - low.mul(x[:-1], y[1:])
        return low.mul(acc, fiber.kappa * w[:-1])

    @pytest.mark.parametrize("theta", [0.5, 0.8, 1.4])
    def test_matches_the_root_route_inside(self, theta):
        fiber = immersions._BergmanFiber(2, theta)
        u = np.linspace(-0.95, 0.95, 39)
        got, want = fiber._rho_jets(u, 2), self._sqrt_route(fiber, u, 2)
        for k in range(3):
            scale = np.max(np.abs(want[k]))
            assert np.max(np.abs(got[k] - want[k])) <= 1e-12 * scale, k

    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_at_the_poles_of_the_last_coordinate(self, n):
        # u_n = +-1 is a smooth point of the sphere: the jets there are the
        # limits of their neighbours'
        fiber = immersions._BergmanFiber(n, 0.8)
        u = np.array([-1.0, 1.0])
        rho = fiber._rho_jets(u, 2)
        assert np.all(np.isfinite(rho))
        near = fiber._rho_jets(u * (1.0 - 1e-7), 2)
        assert_allclose(rho, near, rtol=1e-5, atol=1e-6)
        spec = make_spec("contact_whitney_b", n, theta=0.8)
        e_n = np.zeros((2, n + 1))
        e_n[:, -1] = [1.0, -1.0]
        x = eval_immersion(spec, params_from_u(e_n))
        assert np.all(np.isfinite(x))
        pg, _ = pointwise_geometry(model_for(spec), spec, params_from_u(e_n))
        assert pg.isotropy.max() < 1e-9


# -- the packed evaluators against their scalar-Jet formulas -------------------
#
# The references below are the catalog formulas written with scalar Jets and
# (real, imaginary) pairs of them; the packed evaluators must agree with them
# block by block.

class _CJ:
    """A complex scalar as a (real, imaginary) pair of Jets."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __mul__(self, other):
        if isinstance(other, _CJ):
            return _CJ(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)
        return _CJ(self.re * other, self.im * other)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def inv(self):
        q = jets.recip(self.abs2())
        return _CJ(self.re * q, -self.im * q)


def _ref_spherical(t, order):
    """u(t) in scalar Jets seeded on the spherical parameters."""
    seeds = jets.seed_variables(t, order, batch=True)
    comps, prefix = [], None
    for th in seeds[:-1]:
        comps.append(jets.cos(th) if prefix is None else prefix * jets.cos(th))
        prefix = jets.sin(th) if prefix is None else prefix * jets.sin(th)
    return comps + [prefix * jets.cos(seeds[-1]), prefix * jets.sin(seeds[-1])]


def _ref_pairs(u, theta, variant):
    un = u[-1]
    one = constant(np.ones(un.batch_shape), un.num_vars, un.order)
    ch, sh = math.cosh(theta), math.sinh(theta)
    u2 = un * un
    if variant == "cp":
        slot, num = _CJ(ch * one, sh * un), _CJ(sh * ch * (1.0 + u2), un)
        den = ch * ch + sh * sh * u2
    else:
        slot, num = _CJ(sh * one, ch * un), _CJ(sh * ch * (1.0 + u2), -un)
        den = sh * sh + ch * ch * u2
    inv = (slot * _CJ(num.re / den, num.im / den)).inv()
    return [inv * uj for uj in u[:-1]]


def _ref_c0(spec, u):
    n, B = spec.n, spec.params["B"]
    w = spec.params["r"] * jets.recip(1.0 + u[-1] * u[-1])
    return [u[j] * w + B[j] for j in range(n)] + [u[j] * w * u[-1] + B[n + j] for j in range(n)]


def _ref_contact_r(spec, u):
    n, r, B = spec.n, spec.params["r"], spec.params["B"]
    un = u[-1]
    w = r * jets.recip(1.0 + un * un)
    xs = [u[j] * w * un for j in range(n)]
    ys = [u[j] * w for j in range(n)]
    z = un * w * w + r * spec.params["a"] + B[2 * n]
    z = sum((B[n + j] * xs[j] for j in range(n)), start=z)
    return [x + B[j] for j, x in enumerate(xs)] + [y + B[n + j] for j, y in enumerate(ys)] + [z]


def _ref_contact_s(spec, u):
    un = u[-1]
    ch, sh = math.cosh(spec.params["theta"]), math.sinh(spec.params["theta"])
    one = constant(np.ones(un.batch_shape), un.num_vars, un.order)
    inv = _CJ(ch * one, sh * un).inv()
    ws = [inv * uj for uj in u[:-1]]
    return [w.re for w in ws] + [w.im for w in ws] + [un / (ch * ch + sh * sh * un * un)]


def _ref_totally_geodesic(spec, u):
    H = immersions._reflections(np.stack([c.val for c in u], axis=-1))
    rot = [sum(u[c] * H[:, c, r] for c in range(3)) for r in range(3)]
    zs = [rot[j] / rot[2] for j in range(2)]
    return zs + [z * 0.0 for z in zs]


class _RefFiber(immersions._BergmanFiber):
    """The Bergman fiber with its density in scalar Jets; the panel rule is shared."""

    def _rho_jets(self, u_vals, order):
        (un,) = jets.seed_variables(u_vals[:, None], order + 1, batch=True)
        zs = _ref_pairs([jets.sqrt(1.0 - un * un)] + [un * 0.0] * (self.n - 1) + [un],
                        self.theta, "ch")
        w = jets.recip(1.0 - sum((z.abs2() for z in zs[1:]), start=zs[0].abs2()))
        acc = sum((jets._drop(z.im) * jets.derivative(z.re, 0)
                   - jets._drop(z.re) * jets.derivative(z.im, 0) for z in zs[1:]),
                  start=jets._drop(zs[0].im) * jets.derivative(zs[0].re, 0)
                  - jets._drop(zs[0].re) * jets.derivative(zs[0].im, 0))
        rho = acc * (self.kappa * jets._drop(w))
        blocks = (rho.val, rho.d1, rho.d2)
        return np.stack([blocks[k][(...,) + (0,) * k] for k in range(order + 1)])

    def fiber(self, un):
        rho = self._rho_jets(un.val, 2)
        derivs = (self.primitive_values(un.val), -rho[0], -rho[1], -rho[2])
        return jets.compose_univariate(derivs[: un.order + 1], un)


class _RefLift(immersions._LiftPrimitive):
    """The Legendrian lift with its base and integrand in scalar Jets; the panel rule is shared."""

    def base(self, u):
        spec = self.base_spec
        x = _ref_c0(spec if spec.kind == "whitney_c0" else
                    make_spec("whitney_c0", spec.n, r=spec.params["r"]), u)
        if spec.kind == "perturbed":
            x = _reference_flow(x, HamiltonianDeformation(
                spec.params["hamiltonian"], spec.params["epsilon"], spec.params["steps"]))
        return x

    def _integrand(self, t, axis):
        x = self.base(_ref_spherical(t, 1))
        n = self.base_spec.n
        return sum((x[n + j].val * x[j].d1[:, axis] for j in range(n)), start=0.0)

    def lifted(self, t, order):
        x = self.base(_ref_node_jets(sphere_points(t), order))
        n = self.base_spec.n
        z = Jet(order, n, self.values(t))
        for a in range(n if order else 0):
            p = sum((jets._drop(x[n + j]) * jets.derivative(x[j], a) for j in range(1, n)),
                    start=jets._drop(x[n]) * jets.derivative(x[0], a))
            for k, block in enumerate((p.val, p.d1, p.d2)[:order]):
                getattr(z, f"d{k + 1}")[:, a] = block
        z.d2 = None if order < 2 else jets._mirror2(z.d2, n)
        z.d3 = None if order < 3 else jets._mirror3(z.d3, n)
        return x + [z]


def _small_hamiltonian(n):
    e = lambda *pairs: tuple(sum(k for i, k in pairs if i == v) for v in range(2 * n))
    return ((0.3, e((0, 2), (n, 1))), (-0.2, e((1, 1), (n + 1, 2))), (0.1, e((2 * n - 1, 4))))


def _reference_jets(spec, t, order):
    """The scalar-Jet formula of ``spec`` at parameters ``t``, in the node charts."""
    if spec.kind == "product_torus":
        seeds = jets.seed_variables(t, order, batch=True)
        radii = spec.params["radii"]
        return ([r * jets.cos(s) for r, s in zip(radii, seeds)]
                + [r * jets.sin(s) for r, s in zip(radii, seeds)])
    if spec.kind == "lifted":
        return _RefLift(immersions._lift_primitive_for(spec).base_spec).lifted(t, order)
    u = _ref_node_jets(sphere_points(t), order)
    theta = spec.params.get("theta")
    if spec.kind in ("whitney_cp", "whitney_ch"):
        zs = _ref_pairs(u, theta, spec.kind[-2:])
        return [z.re for z in zs] + [z.im for z in zs]
    if spec.kind == "contact_whitney_b":
        zs = _ref_pairs(u, theta, "ch")
        return [z.re for z in zs] + [z.im for z in zs] + [_RefFiber(spec.n, theta).fiber(u[-1])]
    if spec.kind == "totally_geodesic_cp":
        return _ref_totally_geodesic(spec, u)
    if spec.kind == "contact_whitney_r":
        return _ref_contact_r(spec, u)
    if spec.kind == "contact_whitney_s":
        return _ref_contact_s(spec, u)
    x = _ref_c0(spec if spec.kind == "whitney_c0" else
                make_spec("whitney_c0", spec.n, r=spec.params["r"]), u)
    if spec.kind == "perturbed":
        x = _reference_flow(x, HamiltonianDeformation(
            spec.params["hamiltonian"], spec.params["epsilon"], spec.params["steps"]))
    return x


def _evaluator_cases():
    cases = []
    for n in (2, 3, 4):
        kinds = [
            ("whitney_c0", dict(r=1.3, B=tuple(0.1 * np.arange(2 * n)))),
            ("whitney_cp", dict(theta=0.5)),
            ("whitney_ch", dict(theta=0.9)),
            ("contact_whitney_r", dict(r=0.8, a=0.3, B=tuple(0.1 * np.arange(2 * n + 1)))),
            ("contact_whitney_s", dict(theta=0.6, a=0.8)),
            ("contact_whitney_b", dict(theta=0.8, a=1.2)),
            ("perturbed", dict(epsilon=0.05, steps=16, hamiltonian=_small_hamiltonian(n))),
            ("lifted", dict(base="whitney_c0", r=1.1)),
            ("product_torus", dict(radii=tuple(1.0 + 0.2 * np.arange(n)))),
        ]
        if n == 2:
            kinds += [("totally_geodesic_cp", {}),
                      ("lifted", dict(base="perturbed", epsilon=0.03, steps=16,
                                      hamiltonian=_small_hamiltonian(2)))]
        # two draws of sample points each (numbered as the charts of an
        # earlier atlas, so that the test names stay put)
        for draw in ((1, 2) if n == 4 else (0, 1)):
            cases += [(kind, n, draw, kw) for kind, kw in kinds]
    return cases


@pytest.mark.parametrize("kind, n, draw, kw", _evaluator_cases())
def test_packed_evaluator_matches_scalar_jet_formula(kind, n, draw, kw):
    spec = make_spec(kind, n, **kw)
    if kind == "product_torus":
        t = np.random.default_rng(20 + n).uniform(0, 2 * np.pi, size=(4, n))
    else:
        t = _sample_params(n, count=4, seed=20 + n + draw)
    for order in range(4):
        got = jets._unpack_blocks(eval_immersion(spec, t, order=order), n, order)
        ref = _reference_jets(spec, t, order)
        for k, block in enumerate(("val", "d1", "d2", "d3")[: order + 1]):
            want = np.stack([getattr(j, block) for j in ref], axis=1)
            assert got[k].shape == want.shape, (order, block)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[k] - want)) <= 1e-13 * scale, (order, block)
