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
    make_spec,
    model_for,
    node_jets,
    random_quartic,
)
from whitneygeo.quadrature import sphere_points
from whitneygeo.spaceforms import SasakianB

import scalar_reference as sj


def _sample_points(n, count=12, seed=0):
    """Seeded sphere points, drawn in the spherical parameters away from their poles."""
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(0.5, np.pi - 0.5, count) for _ in range(n - 1)]
    cols.append(rng.uniform(0.2, 2 * np.pi - 0.2, count))
    return sphere_points(np.column_stack(cols))


def _points_and_poles(n, count=20, seed=5):
    """Random sphere points, then every +-e_k: the poles of spherical coordinates."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, n + 1))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.concatenate([u, np.eye(n + 1), -np.eye(n + 1)])


def _ref_node_jets(u0, order):
    """The node chart (u0 + Q s) / sqrt(1 + |s|^2) in scalar jets seeded on s at 0."""
    n = u0.shape[-1] - 1
    Q = immersions._reflections(u0)[:, :, :n]
    s = sj.seed(np.zeros((len(u0), n)), order)
    inv = sj.recip(sj.sqrt(sum((si * si for si in s[1:]), start=s[0] * s[0]) + 1.0))
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
        u = _sample_points(5, count=4, seed=9)
        x = eval_immersion(make_spec("whitney_c0", 5), u, order=1)
        d1 = jets._unpack_blocks(x, 5, 1)[1]
        assert np.linalg.matrix_rank(d1[0]) == 5
        assert np.all(np.linalg.svd(d1, compute_uv=False).min(axis=1) > 0.1)


class TestCatalogValues:
    def test_whitney_flat_at_axis_point(self):
        spec = make_spec("whitney_c0", 2, r=1.0)
        x = eval_immersion(spec, np.array([[1.0, 0.0, 0.0]]))
        assert_allclose(x[0, 0], [1, 0, 0, 0], atol=1e-14)

    def test_whitney_flat_double_point(self):
        spec = make_spec("whitney_c0", 2, r=1.3, B=(0.1, -0.2, 0.3, 0.0))
        x = eval_immersion(spec, np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        assert_allclose(x[0, 0], x[0, 1], atol=1e-13)

    def test_projective_family_on_equator(self):
        # at u_{n+1} = 0 the affine chart value is u / sinh(theta)
        theta = 0.4
        spec = make_spec("whitney_cp", 2, theta=theta)
        x = eval_immersion(spec, np.array([[0.6, 0.8, 0.0]]))
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
        u = np.column_stack([np.sqrt(1 - us**2) * 0.6, np.sqrt(1 - us**2) * 0.8, us])
        x = eval_immersion(spec, u)
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

    def test_numeric_parameters_are_stored_as_validated(self):
        spec = make_spec("whitney_cp", 2, theta="0.5")
        assert spec.params["theta"] == 0.5 and type(spec.params["theta"]) is float
        spec = make_spec("perturbed", 2, steps=32.0, epsilon="0.05", seed=np.int64(3))
        assert (spec.params["steps"], spec.params["epsilon"], spec.params["seed"]) == (32, 0.05, 3)
        assert [type(spec.params[k]) for k in ("steps", "epsilon", "seed")] == [int, float, int]
        spec = make_spec("whitney_c0", 2, B=np.arange(4))
        assert spec.params["B"] == (0.0, 1.0, 2.0, 3.0)
        assert all(type(b) is float for b in spec.params["B"])

    @pytest.mark.parametrize("kind, params, name", [
        ("whitney_cp", dict(theta=float("nan")), "theta"),
        ("whitney_c0", dict(r=float("inf")), "r"),
        ("whitney_cp", dict(theta="abc"), "theta"),
        ("contact_whitney_s", dict(a=float("nan")), "a"),
        ("contact_whitney_r", dict(a=float("inf")), "a"),
        ("whitney_c0", dict(B=(0.0, 0.0, float("nan"), 0.0)), "B"),
        ("product_torus", dict(radii=(1.0, float("inf"))), "radii"),
        ("perturbed", dict(steps=32.7), "steps"),
        ("perturbed", dict(seed=1.5), "seed"),
        ("perturbed", dict(epsilon=float("nan")), "epsilon"),
        ("lifted", dict(base="perturbed", steps=40.5), "steps"),
        ("lifted", dict(r=float("nan")), "r"),
        ("whitney_cp", dict(theta=True), "theta"),
        ("perturbed", dict(seed=True), "seed"),
        ("product_torus", dict(radii=(True, 2)), "radii"),
        ("whitney_c0", dict(B=(0.0, True, 0.0, 0.0)), "B"),
        ("contact_whitney_r", dict(B=np.array([1, 0, 0, 0, 0], dtype=bool)), "B"),
        ("product_torus", dict(radii=(1.0, "two")), "radii"),
        ("perturbed", dict(seed=-1), "seed"),
    ])
    def test_bad_numbers_are_refused_by_name(self, kind, params, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            make_spec(kind, 2, **params)

    @pytest.mark.parametrize("kind, params, name", [
        ("whitney_cp", dict(thetta=0.3), "thetta"),
        ("lifted", dict(base="whitney_c0", epsilon=0.3), "epsilon"),
        ("whitney_c0", dict(theta=0.3), "theta"),
        ("totally_geodesic_cp", dict(r=1.0), "r"),
    ])
    def test_unread_parameters_are_refused_by_name(self, kind, params, name):
        # a value nothing reads would be ignored, and enter the spec's hash
        with pytest.raises(ValueError, match=rf"reads no parameter {name};"):
            make_spec(kind, 2, **params)

    @pytest.mark.parametrize("n", [2.5, True, "two"])
    def test_bad_dimension_is_refused_by_name(self, n):
        with pytest.raises(ValueError, match=r"^n must be"):
            make_spec("whitney_c0", n)

    @pytest.mark.parametrize("params, message", [
        (dict(epsilon=-0.1), "epsilon must be non-negative"),
        (dict(steps=4), "RK4 step count"),
        (dict(r=-1), "radius r"),
    ])
    def test_lift_refuses_a_bad_base_up_front(self, params, message):
        # the base is validated when the lift is built, not at evaluation
        with pytest.raises(ValueError, match=message):
            make_spec("lifted", 2, base="perturbed", **params)

    def test_specs_are_hashable_and_read_only(self):
        spec = make_spec("whitney_cp", 2)
        assert hash(spec) == hash(make_spec("whitney_cp", 2, theta=0.5))
        assert {spec: 1}[make_spec("whitney_cp", 2, theta="0.5")] == 1
        assert hash(make_spec("lifted", 2, base="perturbed")) != hash(make_spec("lifted", 2))
        with pytest.raises(TypeError, match="read-only"):
            spec.params["theta"] = 1.0
        with pytest.raises(TypeError, match="read-only"):
            spec.params.update(theta=1.0)
        assert spec.params == {"theta": 0.5}


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
        u = _sample_points(2, count=10, seed=1)
        pg, _ = pointwise_geometry(model, spec, u)
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
        spec = make_spec(kind, 2, **kw)
        model = model_for(spec)
        turn = np.eye(3)
        turn[:2, :2] = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        reflections = immersions._reflections
        scalars = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(immersions, "_reflections", lambda v: reflections(v) @ turn)
            pg, fields = pointwise_geometry(model, spec, u)
            cd = curvature_data(pg, fields)
            res = paper_residuals(pg, cd)
            scalars.append(np.stack([res[name] for name in (
                "h_norm2", "H_norm2", "scalar_curvature", "nabla_h_norm2", "ric_JH_JH",
                "div_JH", "nabla_JH_norm2", "lie_JH_g_norm2", "whitney_residual")]))
        assert_allclose(scalars[0], scalars[1], rtol=1e-9, atol=1e-9)


class TestDegenerationLimit:
    def test_projective_family_approaches_totally_geodesic(self):
        u = _sample_points(2, count=6, seed=2)
        sup_h = []
        for theta in (0.4, 0.2, 0.1):
            spec = make_spec("whitney_cp", 2, theta=theta)
            pg, _ = pointwise_geometry(model_for(spec), spec, u)
            res_h = np.einsum("bijk,bijk->b", pg.h.v, pg.h.v)
            sup_h.append(res_h.max())
        assert sup_h[0] > sup_h[1] > sup_h[2]
        assert sup_h[2] < 0.2
        # scalar curvature approaches the totally geodesic value n(n-1)c = 2
        spec = make_spec("whitney_cp", 2, theta=0.05)
        pg, fields = pointwise_geometry(model_for(spec), spec, u)
        cd = curvature_data(pg, fields)
        assert_allclose(cd.scalar, 2.0, atol=0.02)


def _jets_of(packed, v):
    """The scalar jets of packed (coefficients, B, m) jets in ``v`` variables."""
    order = jets._packed_order(packed, v)
    blocks = jets._unpack_blocks(packed, v, order)
    return [sj.ScalarJet(order, v, *(np.moveaxis(b, 1, 0)[mu] for b in blocks))
            for mu in range(packed.shape[-1])]


def _gradient_terms(ham, m):
    """d_mu F as a list of (coefficient, exponents) terms, one list per mu."""
    out = [[] for _ in range(m)]
    for c, e in ham.coeffs:
        for mu in range(m):
            if e[mu] > 0:
                e2 = list(e)
                e2[mu] -= 1
                out[mu].append((c * e[mu], tuple(e2)))
    return out


def _reference_flow(x, ham):
    """RK4 on lists of scalar jets: J grad F summed term by term with their products."""
    m = len(x)
    n = m // 2
    grads = _gradient_terms(ham, m)

    def field(state):
        g = []
        for terms in grads:
            acc = state[0] * 0.0
            for c, e in terms:
                term = sj.constant(np.full(state[0].batch_shape, c), x[0].num_vars, x[0].order)
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


def _rk4(field, x, ham):
    """Allocating RK4 of ``field`` on the (coefficients, 2n, batch) state of ``x``."""
    state = np.moveaxis(x, -1, 1)
    h = ham.epsilon / ham.steps
    for _ in range(ham.steps):
        k1 = field(state)
        k2 = field(state + (h / 2.0) * k1)
        k3 = field(state + (h / 2.0) * k2)
        k4 = field(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.moveaxis(state, 1, -1)


def _parent(e: tuple) -> tuple[tuple, int]:
    """A monomial of degree >= 1 as (parent, variable): e = parent * x_variable."""
    var = max(i for i, k in enumerate(e) if k)
    parent = list(e)
    parent[var] -= 1
    return tuple(parent), var


def _monomials(needed):
    """``needed`` closed under parents, by degree, then exponents."""
    needed = set(needed)
    for degree in range(max(map(sum, needed), default=0), 1, -1):
        needed |= {_parent(e)[0] for e in needed if sum(e) == degree}
    return sorted(needed, key=lambda e: (sum(e), e))


def _monomial_values(monomials, state, table):
    """Each monomial's packed jet, one plain product of its parent and its last variable."""
    mono = []
    for e in monomials:
        if sum(e) == 0:
            one = np.zeros_like(state[:, 0])
            one[0] = 1.0
            mono.append(one)
        elif sum(e) == 1:
            mono.append(state[:, e.index(1)])
        else:
            parent, var = _parent(e)
            mono.append(jets._packed_mul(mono[monomials.index(parent)], state[:, var], table))
    return np.stack(mono, axis=1)


def _allocating_flow(x, ham, num_vars):
    """The factored field J c + sum_i x_i (C Z)_i, the kernel's former route,
    with a new array for every temporary: Z holds the parents of the
    monomials of grad F, one plain product each, and the Leibniz sum of S = C Z
    with the state is written out."""
    m = x.shape[-1]
    n = m // 2
    terms = [((mu + n) % m, c if mu < n else -c, e)
             for mu, grad in enumerate(_gradient_terms(ham, m)) for c, e in grad]
    monomials = _monomials(_parent(e)[0] for _, _, e in terms if any(e))
    C = np.zeros((m, m, len(monomials)))
    Jc = np.zeros((m, 1))
    for mu, c, e in terms:
        if any(e):
            parent, i = _parent(e)
            C[i, mu, monomials.index(parent)] += c
        else:
            Jc[mu] += c
    table = jets._leibniz_table(num_vars, jets._packed_order(x, num_vars))

    def field(state):
        rows, _, batch = state.shape
        S = np.matmul(C.reshape(m * m, -1), _monomial_values(monomials, state, table))
        S = S.reshape(rows, m, m, batch)
        out = np.zeros_like(state)
        for o, l, r, w in table:
            out[o] += w * np.einsum("imb,ib->mb", S[l], state[r])
        out[0] += Jc
        return out

    return _rk4(field, x, ham)


def _faa_di_bruno_flow(x, ham, num_vars):
    """The kernel's field with a new array for every temporary, in its operation
    order: V(x0), then DV s[o], the pair terms D^2V(s[i], s[rest]) and the
    triple terms D^3V(s[i], s[j], s[k]) added row by row in table order."""
    m = x.shape[-1]
    v = num_vars
    order = jets._packed_order(x, v)
    monomials, tables = immersions._field_tables(ham.coeffs, m, order)
    pairs, triples = jets._partition_table(v, order)
    low = math.comb(v + order - 1, v) if order else 1
    row = {idx: r for r, idx in enumerate(monomials)}

    def at_node(table, mono):
        if table.shape[-1] == 1:  # a constant keeps a batch axis of length 1
            return table
        flat = np.matmul(table.reshape(-1, table.shape[-1]), mono[: table.shape[-1]])
        return flat.reshape(table.shape[:-1] + (-1,))

    def field(s):
        x0 = s[0]
        mono = np.ones((1, s.shape[-1]))
        for degree in range(1, len(monomials[-1]) + 1):
            block = [idx for idx in monomials if len(idx) == degree]
            parents = mono[[row[idx[:-1]] for idx in block]]
            mono = np.concatenate([mono, parents * x0[[idx[-1] for idx in block]]])
        out = np.zeros_like(s)
        out[0] = at_node(tables[0], mono)
        if order == 0:
            return out
        if len(tables) > 1:
            out[1:] = np.einsum("mjb,rjb->rmb", at_node(tables[1], mono), s[1:])
        if order < 2 or len(tables) < 3:
            return out
        N2 = tables[2].shape[-1]
        T2 = tables[2].transpose(0, 2, 3, 1).reshape(m * m, N2 * m)
        X2 = mono[None, :N2, None] * s[1 : v + 1][:, None]
        U = np.matmul(T2, X2.reshape(v, N2 * m, -1)).reshape(v, m, m, -1)
        P = np.einsum("imjb,rjb->irmb", U, s[1:low])
        for o, i, r, w in pairs:
            out[o] += w * P[i, r - 1]
        if order < 3 or len(tables) < 4:
            return out
        N3 = tables[3].shape[-1]
        T3 = tables[3].transpose(0, 3, 4, 1, 2).reshape(m * m, N3 * m * m)
        couples = [(i, j) for i in range(v) for j in range(i, v)]
        left = X2[[i for i, _ in couples], :N3]
        right = s[1 : v + 1][[j for _, j in couples]]
        X3 = left[:, :, :, None] * right[:, None, None]
        Q = np.matmul(T3, X3.reshape(len(X3), -1, X3.shape[-1])).reshape(len(X3), m, m, -1)
        R = np.einsum("pmlb,klb->pkmb", Q, s[1 : v + 1])
        for o, i, j, k in triples:
            out[o] += R[couples.index((i, j)), k]
        return out

    return _rk4(field, x, ham)


def _monomial_flow(x, ham, num_vars):
    """The route before the factored field: every monomial of grad F, its top
    degree included, and J grad F as one coefficient matrix times them."""
    m = x.shape[-1]
    n = m // 2
    grads = _gradient_terms(ham, m)
    monomials = _monomials(e for terms in grads for _, e in terms)
    C = np.zeros((m, len(monomials)))
    for mu, terms in enumerate(grads):
        for c, e in terms:
            C[mu, monomials.index(e)] += c
    JC = np.concatenate([-C[n:], C[:n]])
    table = jets._leibniz_table(num_vars, jets._packed_order(x, num_vars))
    return _rk4(lambda state: np.matmul(JC, _monomial_values(monomials, state, table)), x, ham)


_QUINTIC_TERMS = ((0.2, (2, 1, 0, 1, 1, 0)), (-0.15, (0, 0, 3, 0, 1, 1)), (0.1, (1, 0, 0, 2, 0, 2)))
_SEXTIC_TERMS = ((0.05, (2, 0, 1, 0, 2, 1)), (-0.08, (0, 3, 0, 0, 0, 3)))


def _chart_jets(count):
    """The order-3 Whitney sphere jets at the first ``count`` nodes of the K = 48 grid."""
    from whitneygeo.quadrature import build_grid

    grid = build_grid(2, 48, domain="sphere")
    return eval_immersion(make_spec("whitney_c0", 2), grid.nodes[:count])


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
x = eval_immersion(make_spec("whitney_c0", 2), grid.nodes[:2304])
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
        assert np.array_equal(got, _faa_di_bruno_flow(x, ham, 2))
        # the input is neither updated nor handed back
        assert np.array_equal(x, kept)
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("count", [1, 2304])
    def test_matches_the_factored_field(self, count):
        # J c + sum_i x_i (C Z)_i: another route, its sums in another order
        x = _chart_jets(count)
        ham = _perturbed_hamiltonian()
        ref = _allocating_flow(x, ham, 2)
        assert np.max(np.abs(hamiltonian_flow(x, ham, 2) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("count", [1, 2304])
    def test_matches_the_monomial_route(self, count):
        # the field's sums run in another order than the monomial route's
        x = _chart_jets(count)
        ham = _perturbed_hamiltonian()
        ref = _monomial_flow(x, ham, 2)
        assert np.max(np.abs(hamiltonian_flow(x, ham, 2) - ref)) <= 1e-14 * np.max(np.abs(ref))

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
        u = _sample_points(2, count=5, seed=4)
        x0 = eval_immersion(spec0, u)
        x1 = eval_immersion(spec, u)
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
        u = _sample_points(2, count=8, seed=5)
        model = model_for(spec)
        out = []
        for s in (spec0, spec):
            pg, fields = pointwise_geometry(model, s, u)
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
        u = _sample_points(n, count=3, seed=10 + n)
        x = eval_immersion(make_spec("whitney_c0", n), u, order=order)
        got = _jets_of(hamiltonian_flow(x, ham, n), n)
        want = _reference_flow(_jets_of(x, n), ham)
        for k in range(order + 1):
            block = ("val", "d1", "d2", "d3")[k]
            ref = np.stack([getattr(w, block) for w in want])
            new = np.stack([getattr(g, block) for g in got])
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("coeffs", [
        # a quintic: the parents of grad F reach the cubics
        random_quartic(2, 5) + ((0.2, (2, 1, 1, 1)), (-0.15, (0, 0, 3, 2))),
        ((0.7, (1, 2, 0, 1)),),
    ], ids=["quintic", "one_monomial"])
    def test_flow_matches_scalar_jet_reference_beyond_quartics(self, coeffs):
        ham = HamiltonianDeformation(coeffs=coeffs, epsilon=0.05, steps=4)
        x = eval_immersion(make_spec("whitney_c0", 2), _sample_points(2, count=3, seed=12))
        got = _jets_of(hamiltonian_flow(x, ham, 2), 2)
        want = _reference_flow(_jets_of(x, 2), ham)
        for block in ("val", "d1", "d2", "d3"):
            ref = np.stack([getattr(w, block) for w in want])
            new = np.stack([getattr(g, block) for g in got])
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("degree, order, count", [
        (5, 1, 3), (5, 2, 3), (5, 3, 3), (6, 1, 3), (6, 2, 3), (6, 3, 3), (5, 3, 1), (6, 3, 1),
    ])
    def test_n3_flow_matches_scalar_jet_reference_beyond_quartics(self, degree, order, count):
        # D^3V of a quintic or sextic depends on the node, and so does every
        # lower derivative; count 1 is a single-node batch
        coeffs = random_quartic(3, 4) + _QUINTIC_TERMS + (_SEXTIC_TERMS if degree == 6 else ())
        ham = HamiltonianDeformation(coeffs=coeffs, epsilon=0.05, steps=4)
        u = _sample_points(3, count=count, seed=13)
        x = eval_immersion(make_spec("whitney_c0", 3), u, order=order)
        got = _jets_of(hamiltonian_flow(x, ham, 3), 3)
        want = _reference_flow(_jets_of(x, 3), ham)
        for block in ("val", "d1", "d2", "d3")[: order + 1]:
            ref = np.stack([getattr(w, block) for w in want])
            new = np.stack([getattr(g, block) for g in got])
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_constant_hamiltonian_is_identity(self):
        # grad F vanishes, so the flow moves nothing
        u = _sample_points(2, count=5, seed=4)
        spec = make_spec("perturbed", 2, epsilon=0.05, hamiltonian=((1.0, (0, 0, 0, 0)),))
        x = eval_immersion(make_spec("whitney_c0", 2), u)
        assert np.array_equal(eval_immersion(spec, u), x)
        ham = HamiltonianDeformation(spec.params["hamiltonian"], 0.05, 32)
        assert not np.shares_memory(hamiltonian_flow(x, ham, 2), x)

    def test_linear_hamiltonian_translates(self):
        # grad F = (0.3, 0, 0, -0.2) is constant: the flow adds 0.05 J grad F
        # to the values, rounded once per step at |x| <= 1, and moves no derivative
        u = _sample_points(2, count=5, seed=4)
        spec = make_spec("perturbed", 2, epsilon=0.05,
                         hamiltonian=((0.3, (1, 0, 0, 0)), (-0.2, (0, 0, 0, 1))))
        x = eval_immersion(make_spec("whitney_c0", 2), u)
        got = eval_immersion(spec, u)
        assert_allclose(got[0] - x[0], np.broadcast_to([0.0, 0.01, 0.015, 0.0], x[0].shape),
                        rtol=0, atol=32 * 2.3e-16)
        assert np.array_equal(got[1:], x[1:])

    def test_order_one_flow_is_truncated_order_three(self):
        # the loop integrand flows order-1 jets
        spec = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        u = _sample_points(2, count=6, seed=11)
        lo = eval_immersion(spec, u, order=1)
        hi = eval_immersion(spec, u, order=3)
        assert lo.shape == (3,) + hi.shape[1:]
        assert_allclose(lo, hi[:3], rtol=1e-14, atol=1e-15)

    def test_generic_quartic_breaks_whitney_relation(self):
        spec = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        model = model_for(spec)
        u = _sample_points(2, count=10, seed=6)
        pg, fields = pointwise_geometry(model, spec, u)
        cd = curvature_data(pg, fields)
        res = paper_residuals(pg, cd)
        assert pg.isotropy.max() < 1e-9
        assert res["whitney_residual"].max() > 1e-3

    def test_random_quartic_deterministic(self):
        assert random_quartic(2, 7) == random_quartic(2, 7)
        assert random_quartic(2, 7) != random_quartic(2, 8)


def _loop_integrand(spec, theta_polar, phi):
    """d z / d phi of the lift ``spec`` along the loop at angles ``phi``: (B,).

    The loop is u = cos a e_0 + sin a (cos phi e_(n-1) + sin phi e_n), a =
    ``theta_polar``, and the derivative is sum_i d_i z (Q_i . du/dphi), with
    d_i z the lift's own fiber partials in the node chart of basis Q.
    """
    n, r = spec.n, math.sin(theta_polar)
    u, du = np.zeros((2, len(phi), n + 1))
    u[:, 0] = math.cos(theta_polar)
    u[:, n - 1], u[:, n] = r * np.cos(phi), r * np.sin(phi)
    du[:, n - 1], du[:, n] = -u[:, n], u[:, n - 1]
    dz = eval_immersion(spec, u, order=1)[1:, :, -1]
    return np.einsum("ib,bki,bk->b", dz, immersions._reflections(u)[:, :, :n], du)


def loop_integral(spec, theta_polar=None, resolution=64):
    """Integral of sum(y_i dx_i) around a closed azimuthal loop (exactness check).

    ``theta_polar`` is the loop's angle from e_0, pi / 2 by default; a base
    spec is lifted with the parameters it hands a lift.
    """
    if spec.kind != "lifted":
        keys = immersions._LIFT_KEYS.get(spec.kind, ())
        spec = make_spec("lifted", spec.n, base=spec.kind,
                         **{k: v for k, v in spec.params.items() if k in keys})
    a = math.pi / 2 if theta_polar is None else theta_polar
    xs, ws = np.polynomial.legendre.leggauss(resolution)
    integ = _loop_integrand(spec, a, np.pi + np.pi * xs)
    return float(np.pi * (integ * ws).sum())


class TestLegendrianLift:
    def test_perturbed_base_keeps_its_hamiltonian(self):
        ham = random_quartic(2, 99)
        custom = immersions._lift_base(make_spec("lifted", 2, base="perturbed", hamiltonian=ham))
        seeded = immersions._lift_base(make_spec("lifted", 2, base="perturbed"))
        assert custom.params["hamiltonian"] == ham
        assert seeded.params["hamiltonian"] == random_quartic(2, 1)
        assert seeded.params["epsilon"] == 0.02

    @pytest.mark.parametrize("polar", [np.pi / 2, 0.7], ids=["equator", "polar-0.7"])
    @pytest.mark.parametrize("base", ["whitney_c0", "perturbed"])
    def test_loop_integrand_is_the_base_one_form_along_the_loop(self, base, polar):
        # sum_j y_j dx_j / dphi, from central differences of the base's values
        spec = make_spec("lifted", 2, base=base)
        base_spec = immersions._lift_base(spec)
        phi = np.linspace(0.1, 2 * np.pi - 0.1, 9)

        def values(angles):
            u = np.column_stack([np.full_like(angles, np.cos(polar)),
                                 np.sin(polar) * np.cos(angles), np.sin(polar) * np.sin(angles)])
            return eval_immersion(base_spec, u, order=0)[0]

        h = 1e-5
        dx = (values(phi + h) - values(phi - h)) / (2 * h)
        want = np.sum(values(phi)[:, 2:] * dx[:, :2], axis=-1)
        got = _loop_integrand(spec, polar, phi)
        assert np.max(np.abs(want)) > 0.1
        assert_allclose(got, want, rtol=0, atol=1e-8 * np.max(np.abs(want)))

    def test_loop_integral_vanishes(self):
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        assert abs(loop_integral(spec)) < 1e-10

    def test_loop_integral_lifts_a_base_spec(self):
        # a base spec hands the lift only the parameters a lift reads
        base = make_spec("whitney_c0", 2, r=1.3, B=(0.1, 0.0, 0.0, 0.2))
        assert abs(loop_integral(base, theta_polar=0.9)) < 1e-10
        flowed = make_spec("perturbed", 2, epsilon=0.05, seed=3)
        assert abs(loop_integral(flowed)) < 1e-10

    def test_lift_is_legendrian_and_whitney_type(self):
        spec = make_spec("lifted", 2, base="whitney_c0", r=1.0)
        model = model_for(spec)
        u = _sample_points(2, count=10, seed=7)
        pg, fields = pointwise_geometry(model, spec, u)
        cd = curvature_data(pg, fields)
        res = paper_residuals(pg, cd)
        assert pg.isotropy.max() < 1e-9
        assert res["whitney_residual"].max() < 1e-9


class TestBergmanFiber:
    """The ball-model fiber at the poles of the last sphere coordinate."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_at_the_poles_of_the_last_coordinate(self, n):
        # u_n = +-1 is a smooth point of the sphere: the jets there are
        # finite, Legendrian and the limits of their neighbours'
        spec = make_spec("contact_whitney_b", n, theta=0.8)
        e_n = np.zeros((2, n + 1))
        e_n[:, -1] = [1.0, -1.0]
        x = eval_immersion(spec, e_n)
        assert np.all(np.isfinite(x))
        near = e_n.copy()
        near[:, 0] = 1e-7
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        assert_allclose(x, eval_immersion(spec, near), rtol=1e-5, atol=1e-6)
        pg, _ = pointwise_geometry(model_for(spec), spec, e_n)
        assert pg.isotropy.max() < 1e-9


# -- the packed evaluators against their scalar-jet formulas -------------------
#
# The references below are the catalog formulas written with the tests' scalar
# jet algebra (``scalar_reference``) and (real, imaginary) pairs of its jets;
# the packed evaluators must agree with them block by block.

class _CJ:
    """A complex scalar as a (real, imaginary) pair of scalar jets."""

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
        q = sj.recip(self.abs2())
        return _CJ(self.re * q, -self.im * q)


def _ref_pairs(u, theta, variant):
    un = u[-1]
    one = sj.constant(np.ones(un.batch_shape), un.num_vars, un.order)
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
    w = spec.params["r"] * sj.recip(1.0 + u[-1] * u[-1])
    return [u[j] * w + B[j] for j in range(n)] + [u[j] * w * u[-1] + B[n + j] for j in range(n)]


def _ref_contact_r(spec, u):
    n, r, B = spec.n, spec.params["r"], spec.params["B"]
    un = u[-1]
    w = r * sj.recip(1.0 + un * un)
    xs = [u[j] * w * un for j in range(n)]
    ys = [u[j] * w for j in range(n)]
    z = un * w * w + r * spec.params["a"] + B[2 * n]
    z = sum((B[n + j] * xs[j] for j in range(n)), start=z)
    return [x + B[j] for j, x in enumerate(xs)] + [y + B[n + j] for j, y in enumerate(ys)] + [z]


def _ref_contact_s(spec, u):
    un = u[-1]
    ch, sh = math.cosh(spec.params["theta"]), math.sinh(spec.params["theta"])
    one = sj.constant(np.ones(un.batch_shape), un.num_vars, un.order)
    inv = _CJ(ch * one, sh * un).inv()
    ws = [inv * uj for uj in u[:-1]]
    return [w.re for w in ws] + [w.im for w in ws] + [un / (ch * ch + sh * sh * un * un)]


def _ref_totally_geodesic(spec, u):
    H = immersions._reflections(np.stack([c.val for c in u], axis=-1))
    rot = [sum(u[c] * H[:, c, r] for c in range(3)) for r in range(3)]
    zs = [rot[j] / rot[2] for j in range(2)]
    return zs + [z * 0.0 for z in zs]


class _RefFiber:
    """The ball-model fiber by the rotational symmetry of its base map, in scalar jets.

    The pullback of omega is rho(u) du in the last sphere coordinate u
    alone, so the fiber's derivatives are -rho and its derivatives,
    composed with the jet of u; rho comes from the sphere point
    (sqrt(1 - u^2), 0, ..., 0, u).  Its value is 0, as the packed route's.
    """

    def __init__(self, n, theta):
        self.n, self.theta = n, theta
        self.kappa = 4.0 * SasakianB._phi_sign  # omega = kappa w (y dx - x dy)

    def _rho_jets(self, u_vals, order):
        (un,) = sj.seed(u_vals[:, None], order + 1)
        zs = _ref_pairs([sj.sqrt(1.0 - un * un)] + [un * 0.0] * (self.n - 1) + [un],
                        self.theta, "ch")
        w = sj.recip(1.0 - sum((z.abs2() for z in zs[1:]), start=zs[0].abs2()))
        acc = sum((sj.drop(z.im) * sj.derivative(z.re, 0)
                   - sj.drop(z.re) * sj.derivative(z.im, 0) for z in zs[1:]),
                  start=sj.drop(zs[0].im) * sj.derivative(zs[0].re, 0)
                  - sj.drop(zs[0].re) * sj.derivative(zs[0].im, 0))
        rho = acc * (self.kappa * sj.drop(w))
        blocks = (rho.val, rho.d1, rho.d2)
        return np.stack([blocks[k][(...,) + (0,) * k] for k in range(order + 1)])

    def fiber(self, un):
        rho = self._rho_jets(un.val, 2)
        derivs = (np.zeros_like(un.val), -rho[0], -rho[1], -rho[2])
        return sj.compose_univariate(derivs[: un.order + 1], un)


def _ref_lifted(base_spec, u0, order):
    """The Legendrian lift with its base and fiber derivatives in scalar jets; the fiber value is 0."""
    u = _ref_node_jets(u0, order)
    x = _ref_c0(make_spec("whitney_c0", base_spec.n, r=base_spec.params["r"]), u)
    if base_spec.kind == "perturbed":
        x = _reference_flow(x, HamiltonianDeformation(
            base_spec.params["hamiltonian"], base_spec.params["epsilon"],
            base_spec.params["steps"]))
    n = base_spec.n
    z = sj.ScalarJet(order, n, np.zeros(len(u0)))
    for a in range(n if order else 0):
        p = sum((sj.drop(x[n + j]) * sj.derivative(x[j], a) for j in range(1, n)),
                start=sj.drop(x[n]) * sj.derivative(x[0], a))
        for k, block in enumerate((p.val, p.d1, p.d2)[:order]):
            getattr(z, f"d{k + 1}")[:, a] = block
    z.d2 = None if order < 2 else sj.mirror(z.d2, 2)
    z.d3 = None if order < 3 else sj.mirror(z.d3, 3)
    return x + [z]


def _small_hamiltonian(n):
    e = lambda *pairs: tuple(sum(k for i, k in pairs if i == v) for v in range(2 * n))
    return ((0.3, e((0, 2), (n, 1))), (-0.2, e((1, 1), (n + 1, 2))), (0.1, e((2 * n - 1, 4))))


def _reference_jets(spec, nodes, order):
    """The scalar-jet formula of ``spec`` at ``nodes``, in the node charts."""
    if spec.kind == "product_torus":
        seeds = sj.seed(nodes, order)
        radii = spec.params["radii"]
        return ([r * sj.cos(s) for r, s in zip(radii, seeds)]
                + [r * sj.sin(s) for r, s in zip(radii, seeds)])
    if spec.kind == "lifted":
        return _ref_lifted(immersions._lift_base(spec), nodes, order)
    u = _ref_node_jets(nodes, order)
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
        nodes = np.random.default_rng(20 + n).uniform(0, 2 * np.pi, size=(4, n))
    else:
        nodes = _sample_points(n, count=4, seed=20 + n + draw)
    for order in range(4):
        got = jets._unpack_blocks(eval_immersion(spec, nodes, order=order), n, order)
        ref = _reference_jets(spec, nodes, order)
        for k, block in enumerate(("val", "d1", "d2", "d3")[: order + 1]):
            want = np.stack([getattr(j, block) for j in ref], axis=1)
            assert got[k].shape == want.shape, (order, block)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[k] - want)) <= 1e-13 * scale, (order, block)
