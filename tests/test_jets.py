"""Jet arithmetic against independent oracles.

Oracles used here:
  * symbolic differentiation of monomials (dict-based polynomial algebra),
  * brute-force polynomial multiplication (coefficient convolution),
  * central finite differences of composed scalar functions.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo import jets
from whitneygeo.jets import (
    Jet,
    compose,
    constant,
    derivative,
    elementary,
    seed_variables,
)


# ---------------------------------------------------------------------------
# polynomial oracle: polys as {exponent tuple: coeff} dicts
# ---------------------------------------------------------------------------

def poly_mul(p, q, max_deg=None):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            if max_deg is not None and sum(e) > max_deg:
                continue
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def poly_eval_jet(p, seeds):
    v = seeds[0].num_vars
    acc = constant(np.zeros(seeds[0].batch_shape), v, seeds[0].order)
    for e, c in p.items():
        term = constant(np.full(seeds[0].batch_shape, c), v, seeds[0].order)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * seeds[i]
        acc = acc + term
    return acc


def poly_partial(p, i):
    out = {}
    for e, c in p.items():
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * e[i]
    return out


def poly_value(p, x):
    return sum(c * np.prod([xi**k for xi, k in zip(x, e)]) for e, c in p.items())


def poly_derivs_at(p, x, order):
    """All partial derivatives of p at x up to total order, via symbolic rules."""
    v = len(x)
    out = {(): poly_value(p, x)}
    frontier = {(): p}
    for _ in range(order):
        nxt = {}
        for idx, q in frontier.items():
            for i in range(v):
                nidx = idx + (i,)
                nxt[nidx] = poly_partial(q, i)
                out[nidx] = poly_value(nxt[nidx], x)
        frontier = nxt
    return out


def random_poly(rng, v, deg):
    p = {}
    for e in itertools.product(range(deg + 1), repeat=v):
        if 0 < sum(e) <= deg or sum(e) == 0:
            p[e] = rng.normal()
    return p


# ---------------------------------------------------------------------------
# seeding and basic arithmetic
# ---------------------------------------------------------------------------

class TestSeeds:
    def test_seed_values_and_gradients(self):
        j0, j1 = seed_variables([0.5, -1.0], order=3)
        assert j0.val == 0.5 and j1.val == -1.0
        assert_allclose(j0.d1, [1.0, 0.0])
        assert_allclose(j1.d1, [0.0, 1.0])
        assert np.all(j0.d2 == 0) and np.all(j0.d3 == 0)

    def test_order_zero_seed_is_constant_like(self):
        (j,) = seed_variables([0.0], order=0)
        assert j.order == 0 and j.d1 is None and j.d2 is None and j.d3 is None

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            seed_variables([0.0], order=4)
        with pytest.raises(ValueError):
            seed_variables([0.0], order=-1)

    def test_triple_product_mixed_partial(self):
        x, y, z = seed_variables([0.3, -0.7, 1.1], order=3)
        f = x * y * z
        # d^3(xyz)/dx dy dz = 1 everywhere
        assert_allclose(f.d3[0, 1, 2], 1.0)
        assert_allclose(f.d3[2, 0, 1], 1.0)


class TestArith:
    def test_one_plus_x_times_one_minus_x(self):
        (x,) = seed_variables([0.0], order=2)
        f = (1.0 + x) * (1.0 - x)
        assert_allclose(f.val, 1.0)
        assert_allclose(f.d1, [0.0])
        assert_allclose(f.d2, [[-2.0]])

    def test_f_over_f_is_one(self):
        rng = np.random.default_rng(0)
        seeds = seed_variables(rng.normal(size=3), order=3)
        f = poly_eval_jet({(0, 0, 0): 2.0, (1, 1, 0): 0.5, (0, 0, 2): -0.3}, seeds)
        g = f / f
        assert_allclose(g.val, 1.0, atol=1e-14)
        assert_allclose(g.d1, 0.0, atol=1e-13)
        assert_allclose(g.d2, 0.0, atol=1e-13)
        assert_allclose(g.d3, 0.0, atol=1e-12)

    def test_product_matches_convolution_oracle(self):
        rng = np.random.default_rng(7)
        for v in (1, 2, 3):
            x0 = rng.normal(size=v)
            p = random_poly(rng, v, 3)
            q = random_poly(rng, v, 3)
            seeds = seed_variables(x0, order=3)
            jp = poly_eval_jet(p, seeds) * poly_eval_jet(q, seeds)
            oracle = poly_derivs_at(poly_mul(p, q), x0, 3)
            assert_allclose(jp.val, oracle[()], rtol=1e-12, atol=1e-12)
            for i in range(v):
                assert_allclose(jp.d1[i], oracle[(i,)], rtol=1e-11, atol=1e-11)
                for j in range(v):
                    assert_allclose(jp.d2[i, j], oracle[(i, j)], rtol=1e-11, atol=1e-10)
                    for k in range(v):
                        assert_allclose(
                            jp.d3[i, j, k], oracle[(i, j, k)], rtol=1e-10, atol=1e-9
                        )

    def test_truncated_product_drops_high_degrees_only(self):
        # Degree-3 truncation of p*q must match the convolution truncated at 3.
        rng = np.random.default_rng(3)
        v = 2
        x0 = rng.normal(size=v)
        p = random_poly(rng, v, 2)
        q = random_poly(rng, v, 2)
        seeds = seed_variables(x0, order=3)
        jp = poly_eval_jet(p, seeds) * poly_eval_jet(q, seeds)
        oracle = poly_derivs_at(poly_mul(p, q), x0, 3)
        for i in range(v):
            for j in range(v):
                for k in range(v):
                    assert_allclose(jp.d3[i, j, k], oracle[(i, j, k)], rtol=1e-10, atol=1e-10)

    def test_shape_mismatch_raises(self):
        (a,) = seed_variables([1.0], order=2)
        (b,) = seed_variables([1.0], order=3)
        with pytest.raises(ValueError):
            a + b
        c, d = seed_variables([1.0, 2.0], order=2)
        with pytest.raises(ValueError):
            a * c

    def test_division_by_near_zero_raises(self):
        (a,) = seed_variables([1.0], order=2)
        b = constant(1e-15, 1, 2)
        with pytest.raises(ZeroDivisionError):
            a / b

    def test_algebra_identities_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = int(rng.integers(1, 4))
            seeds = seed_variables(rng.normal(size=v), order=3)
            pa, pb, pc = (random_poly(rng, v, 2) for _ in range(3))
            a, b, c = (poly_eval_jet(p, seeds) for p in (pa, pb, pc))
            lhs = (a * b) * c
            rhs = a * (b * c)
            scale = max(1.0, np.abs(rhs.d3).max())
            assert_allclose(lhs.val, rhs.val, rtol=1e-14, atol=1e-14)
            assert_allclose(lhs.d3, rhs.d3, rtol=1e-13, atol=1e-13 * scale)
            lhs2 = a * (b + c)
            rhs2 = a * b + a * c
            assert_allclose(lhs2.d2, rhs2.d2, rtol=1e-13, atol=1e-12)
            assert_allclose(lhs2.d3, rhs2.d3, rtol=1e-13, atol=1e-12)


class TestSymmetry:
    def test_blocks_exactly_symmetric_after_ops(self):
        rng = np.random.default_rng(5)
        seeds = seed_variables(rng.normal(size=3), order=3)
        f = poly_eval_jet(random_poly(rng, 3, 3), seeds)
        g = jets.sin(f) * jets.exp(seeds[0]) / (2.0 + jets.cosh(seeds[1]))
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(g.d3, np.transpose(g.d3, perm))
        assert np.array_equal(g.d2, g.d2.T)

    def test_mirrored_blocks_are_c_contiguous(self):
        rng = np.random.default_rng(6)
        x, y, z = seed_variables(rng.normal(size=(64, 3)), order=3, batch=True)
        g = jets.sin(x * y) * (z + 2.0)
        for blk in (g.d2, g.d3):
            assert blk.flags.c_contiguous
        # the same entries as indexing the trailing axes directly
        lo, hi = np.sort(np.indices((3, 3)), axis=0)
        assert np.array_equal(jets._mirror2(g.d2, 3), g.d2[..., lo, hi])
        a, b, c = np.sort(np.indices((3, 3, 3)), axis=0)
        assert np.array_equal(jets._mirror3(g.d3, 3), g.d3[..., a, b, c])


# ---------------------------------------------------------------------------
# elementary functions: series values and finite-difference oracle
# ---------------------------------------------------------------------------

def fd_derivs(f, x0, order, step):
    """Central finite differences of a scalar function of one variable."""
    h = step
    if order == 1:
        return (f(x0 + h) - f(x0 - h)) / (2 * h)
    if order == 2:
        return (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
    if order == 3:
        return (f(x0 + 2 * h) - 2 * f(x0 + h) + 2 * f(x0 - h) - f(x0 - 2 * h)) / (
            2 * h**3
        )
    raise ValueError(order)


class TestElementary:
    def test_sin_maclaurin(self):
        (x,) = seed_variables([0.0], order=3)
        s = elementary(x, "sin")
        assert_allclose([s.val, s.d1[0], s.d2[0, 0], s.d3[0, 0, 0]], [0, 1, 0, -1])

    def test_hyperbolic_identity(self):
        (t,) = seed_variables([0.37], order=3)
        one = jets.cosh(t) * jets.cosh(t) - jets.sinh(t) * jets.sinh(t)
        assert_allclose(one.val, 1.0, rtol=1e-14)
        assert_allclose(one.d1, 0.0, atol=1e-14)
        assert_allclose(one.d2, 0.0, atol=1e-13)
        assert_allclose(one.d3, 0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "kind,fn,x0",
        [
            ("sin", np.sin, 0.4),
            ("cos", np.cos, -0.3),
            ("sinh", np.sinh, 0.2),
            ("cosh", np.cosh, 0.7),
            ("exp", np.exp, 0.1),
            ("sqrt", np.sqrt, 1.7),
            ("recip", lambda x: 1.0 / x, 0.8),
        ],
    )
    def test_composition_vs_finite_differences(self, kind, fn, x0):
        # Composite scalar function g(t) = f(p(t)) with a cubic inner map.
        def p(t):
            return 1.3 + 0.4 * t - 0.2 * t**2 + 0.05 * t**3 if kind == "sqrt" else (
                x0 + 0.9 * t + 0.3 * t**2 - 0.1 * t**3
            )

        def g(t):
            return fn(p(t))

        (t,) = seed_variables([0.0], order=3)
        inner = p(t)
        got = elementary(inner, kind)
        for order, step, tol in ((1, 1e-6, 1e-8), (2, 1e-4, 1e-6), (3, 1e-3, 1e-4)):
            want = fd_derivs(g, 0.0, order, step)
            blk = [got.d1[0], got.d2[0, 0], got.d3[0, 0, 0]][order - 1]
            assert_allclose(blk, want, rtol=tol, atol=tol)

    def test_exp_third_derivative_fd(self):
        (x,) = seed_variables([0.21], order=3)
        e = elementary(0.5 * x * x + x, "exp")
        want = fd_derivs(lambda t: np.exp(0.5 * t * t + t), 0.21, 3, 1e-3)
        assert_allclose(e.d3[0, 0, 0], want, rtol=1e-5)

    def test_sqrt_domain_error(self):
        (x,) = seed_variables([-1.0], order=2)
        with pytest.raises(ValueError):
            elementary(x, "sqrt")

    def test_recip_domain_error(self):
        with pytest.raises(ZeroDivisionError):
            elementary(constant(0.0, 1, 1), "recip")


class TestCompose:
    def test_multivariate_chain_rule_vs_fd(self):
        # f(u, w) evaluated on inner maps of two variables.
        def f_np(u, w):
            return np.sin(u) * w + u * w**2

        def x_np(t, s):
            return 0.3 + t * s + t**2

        def y_np(t, s):
            return 1.1 - s + 0.5 * t

        def g(t, s):
            return f_np(x_np(t, s), y_np(t, s))

        t0, s0 = 0.13, -0.41
        inner = seed_variables([t0, s0], order=3)
        xj = 0.3 + inner[0] * inner[1] + inner[0] * inner[0]
        yj = 1.1 - inner[1] + 0.5 * inner[0]
        outer = seed_variables([xj.val, yj.val], order=3)
        fjet = jets.sin(outer[0]) * outer[1] + outer[0] * outer[1] * outer[1]
        out = compose(fjet, [xj, yj])
        assert_allclose(out.val, g(t0, s0), rtol=1e-13)
        h = 1e-5
        assert_allclose(out.d1[0], (g(t0 + h, s0) - g(t0 - h, s0)) / (2 * h), rtol=1e-7)
        h = 1e-4
        mixed = (
            g(t0 + h, s0 + h) - g(t0 + h, s0 - h) - g(t0 - h, s0 + h) + g(t0 - h, s0 - h)
        ) / (4 * h * h)
        assert_allclose(out.d2[0, 1], mixed, rtol=1e-5, atol=1e-7)
        h = 2e-3
        d3 = (
            g(t0, s0 + 2 * h) - 2 * g(t0, s0 + h) + 2 * g(t0, s0 - h) - g(t0, s0 - 2 * h)
        ) / (2 * h**3)
        assert_allclose(out.d3[1, 1, 1], d3, rtol=2e-4, atol=2e-4)

    def test_derivative_shift(self):
        seeds = seed_variables([0.2, 0.4], order=3)
        f = seeds[0] * seeds[0] * seeds[1]
        fx = derivative(f, 0)
        assert fx.order == 2
        assert_allclose(fx.val, 2 * 0.2 * 0.4)
        assert_allclose(fx.d1, [2 * 0.4, 2 * 0.2])


def _packed_seeds(point, order):
    """Coordinate jets at ``point`` as packed (coefficients, 1) arrays."""
    v = len(point)
    seeds = np.zeros((v, len(jets._packed_basis(v, order)), 1))
    seeds[:, 0, 0] = point
    if order >= 1:
        seeds[:, 1 : v + 1, 0] = np.eye(v)
    return seeds


class TestComplex:
    """Complex scalars as complex128 packed jets: the packed kernels keep the dtype."""

    def test_mul_div_roundtrip(self):
        rng = np.random.default_rng(2)
        x, y = _packed_seeds(rng.normal(size=2), 3)
        ops = jets._Ops(2, 3)
        a = ops.mul(x, y) + 1j * (x - y)
        a[0] += 1.5
        b = y + 0.3j * x
        b[0] += 2.0
        c = ops.mul(ops.mul(a, b), ops.fn("recip", b))
        assert c.dtype == np.complex128
        assert_allclose(c[0], a[0], rtol=1e-12)
        assert_allclose(c, a, atol=1e-11)

    def test_abs2_matches(self):
        x, y = _packed_seeds([0.3, -0.2], 2)
        ops = jets._Ops(2, 2)
        z = x + 1j * y
        abs2 = ops.mul(z, z.conj())
        assert_allclose(abs2.real, ops.mul(x, x) + ops.mul(y, y), atol=1e-15)
        assert_allclose(abs2.imag, 0.0, atol=1e-15)
        assert_allclose(abs2[0].real, 0.3**2 + 0.2**2)

    def test_division_near_zero_raises(self):
        x, y = _packed_seeds([0.0, 0.0], 1)
        with pytest.raises(ZeroDivisionError):
            jets._Ops(2, 1).fn("recip", x + 1j * y)


class TestBatch:
    def test_batched_matches_loop(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(6, 2))
        seeds = seed_variables(pts, order=3, batch=True)
        f = jets.sin(seeds[0]) * jets.exp(seeds[1] * 0.3) + seeds[0] / (2.0 + seeds[1] * seeds[1])
        for b in range(6):
            s = seed_variables(pts[b], order=3)
            g = jets.sin(s[0]) * jets.exp(s[1] * 0.3) + s[0] / (2.0 + s[1] * s[1])
            assert_allclose(f.val[b], g.val, rtol=1e-14)
            assert_allclose(f.d3[b], g.d3, rtol=1e-13, atol=1e-13)
