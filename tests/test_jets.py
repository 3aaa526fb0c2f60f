"""Jet arithmetic against independent oracles.

The packed kernels (``jets._Ops.mul``, ``jets._Ops.fn`` and the chain rule
``jets._packed_compose``) and the full-block face on them (``jets.Jet`` and
``jets.compose``) are checked against:
  * symbolic differentiation of monomials (dict-based polynomial algebra),
  * brute-force polynomial multiplication and substitution (coefficient
    convolution),
  * Maclaurin series of the elementary functions,
  * central finite differences of composed scalar functions.
"""

import itertools
import types
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo import jets
from whitneygeo.jets import Jet, compose


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


def poly_substitute(p, qs):
    """The polynomial p(q_1, ..., q_m) in the variables of the q_i."""
    v = len(next(iter(qs[0])))
    out = {}
    for e, c in p.items():
        term = {(0,) * v: c}
        for q, k in zip(qs, e):
            for _ in range(k):
                term = poly_mul(term, q)
        for te, tc in term.items():
            out[te] = out.get(te, 0.0) + tc
    return out


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
# packed jets: seeds, polynomials and partials read by index
# ---------------------------------------------------------------------------

def _seeds(points, order):
    """Coordinate jets at ``points`` (shape (B, v), or (v,) for B = 1) as packed (coefficients, B)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v = points.shape[-1]
    seeds = np.zeros((v, len(jets._packed_basis(v, order))) + points.shape[:-1])
    for i in range(v):
        seeds[i, 0] = points[..., i]
        if order >= 1:
            seeds[i, 1 + i] = 1.0
    return seeds


def _plus(u, c):
    """u + c for a constant c: only the value row moves."""
    out = u.copy()
    out[0] += c
    return out


def poly_eval_packed(p, seeds, ops):
    acc = np.zeros_like(seeds[0])
    for e, c in p.items():
        term = _plus(np.zeros_like(seeds[0]), c)
        for i, k in enumerate(e):
            for _ in range(k):
                term = ops.mul(term, seeds[i])
        acc = acc + term
    return acc


def _partial(packed, v, idx):
    """The partial over the index multiset ``idx`` of a packed jet in ``v`` variables."""
    basis = jets._packed_basis(v, jets._packed_order(packed, v))
    return packed[basis.index(tuple(sorted(idx)))]


# (rtol, atol) for the partials of order 0, 1, 2, 3 against a polynomial oracle
_ORACLE_TOL = ((1e-12, 1e-12), (1e-11, 1e-11), (1e-11, 1e-10), (1e-10, 1e-9))


def _assert_matches_oracle(packed, oracle, v, order):
    for k in range(order + 1):
        rtol, atol = _ORACLE_TOL[k]
        for idx in itertools.product(range(v), repeat=k):
            assert_allclose(_partial(packed, v, idx), oracle[idx], rtol=rtol, atol=atol)


def _assert_face_matches_oracle(jet, oracle, v):
    for k, blk in enumerate((jet.val, jet.d1, jet.d2, jet.d3)):
        rtol, atol = _ORACLE_TOL[k]
        for idx in itertools.product(range(v), repeat=k):
            assert_allclose(blk[(0,) + idx], oracle[idx], rtol=rtol, atol=atol)


def _full_jet(derivs, v, order):
    """A Jet holding the partials ``derivs[idx]`` in full, symmetric blocks."""
    blocks = [np.zeros((1,) + (v,) * k) for k in range(order + 1)]
    for k, blk in enumerate(blocks):
        for idx in itertools.product(range(v), repeat=k):
            blk[(0,) + idx] = derivs[idx]
    return Jet(order, v, *blocks)


# ---------------------------------------------------------------------------
# seeding and basic arithmetic
# ---------------------------------------------------------------------------

class TestSeeds:
    def test_seed_values_and_gradients(self):
        # the Jet constructor fills the blocks it is not given with zeros
        j = Jet(3, 2, np.array([0.5]), np.array([[1.0, 0.0]]))
        assert j.val == 0.5
        assert_allclose(j.d1, [[1.0, 0.0]])
        assert j.d2.shape == (1, 2, 2) and j.d3.shape == (1, 2, 2, 2)
        assert np.all(j.d2 == 0) and np.all(j.d3 == 0)

    def test_order_zero_seed_is_constant_like(self):
        j = Jet(0, 1, 0.0)
        assert j.order == 0 and j.d1 is None and j.d2 is None and j.d3 is None
        assert (j * j).val == 0.0 and (j * j).d1 is None

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            Jet(4, 1, 0.0)
        with pytest.raises(ValueError):
            Jet(-1, 1, 0.0)

    def test_triple_product_mixed_partial(self):
        x, y, z = _seeds([0.3, -0.7, 1.1], 3)
        ops = jets._Ops(3, 3)
        f = ops.mul(ops.mul(x, y), z)
        # d^3(xyz)/dx dy dz = 1 everywhere
        assert_allclose(_partial(f, 3, (0, 1, 2)), 1.0)
        full = [Jet(3, 3, *jets._unpack_blocks(s, 3, 3)) for s in (x, y, z)]
        g = full[0] * full[1] * full[2]
        assert_allclose(g.d3[0, 0, 1, 2], 1.0)
        assert_allclose(g.d3[0, 2, 0, 1], 1.0)


class TestArith:
    def test_one_plus_x_times_one_minus_x(self):
        (x,) = _seeds([0.0], 2)
        f = jets._Ops(1, 2).mul(_plus(x, 1.0), _plus(-x, 1.0))
        assert_allclose(f[:, 0], [1.0, 0.0, -2.0])

    def test_f_over_f_is_one(self):
        rng = np.random.default_rng(0)
        seeds = _seeds(rng.normal(size=3), 3)
        ops = jets._Ops(3, 3)
        f = poly_eval_packed({(0, 0, 0): 2.0, (1, 1, 0): 0.5, (0, 0, 2): -0.3}, seeds, ops)
        g = ops.mul(f, ops.fn("recip", f))
        assert_allclose(g[0], 1.0, atol=1e-14)
        assert_allclose(g[1:4], 0.0, atol=1e-13)
        assert_allclose(g[4:10], 0.0, atol=1e-13)
        assert_allclose(g[10:], 0.0, atol=1e-12)

    def test_product_matches_convolution_oracle(self):
        rng = np.random.default_rng(7)
        for v in (1, 2, 3):
            x0 = rng.normal(size=v)
            p = random_poly(rng, v, 3)
            q = random_poly(rng, v, 3)
            ops = jets._Ops(v, 3)
            seeds = _seeds(x0, 3)
            pp, pq = (poly_eval_packed(r, seeds, ops) for r in (p, q))
            oracle = poly_derivs_at(poly_mul(p, q), x0, 3)
            _assert_matches_oracle(ops.mul(pp, pq), oracle, v, 3)
            # the full-block face gives the same partials
            a, b = (Jet(3, v, *jets._unpack_blocks(r, v, 3)) for r in (pp, pq))
            _assert_face_matches_oracle(a * b, oracle, v)

    def test_truncated_product_drops_high_degrees_only(self):
        # Degree-3 truncation of p*q must match the convolution truncated at 3.
        rng = np.random.default_rng(3)
        v = 2
        x0 = rng.normal(size=v)
        p = random_poly(rng, v, 2)
        q = random_poly(rng, v, 2)
        ops = jets._Ops(v, 3)
        seeds = _seeds(x0, 3)
        prod = ops.mul(poly_eval_packed(p, seeds, ops), poly_eval_packed(q, seeds, ops))
        oracle = poly_derivs_at(poly_mul(p, q), x0, 3)
        for idx in itertools.product(range(v), repeat=3):
            assert_allclose(_partial(prod, v, idx), oracle[idx], rtol=1e-10, atol=1e-10)

    def test_shape_mismatch_raises(self):
        a = Jet(2, 1, 1.0)
        with pytest.raises(ValueError):
            a * Jet(3, 1, 1.0)
        with pytest.raises(ValueError):
            a * Jet(2, 2, 1.0)

    def test_division_by_near_zero_raises(self):
        b = _plus(np.zeros((3, 1)), 1e-15)
        with pytest.raises(ZeroDivisionError):
            jets._Ops(1, 2).fn("recip", b)

    def test_algebra_identities_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = int(rng.integers(1, 4))
            ops = jets._Ops(v, 3)
            seeds = _seeds(rng.normal(size=v), 3)
            a, b, c = (poly_eval_packed(random_poly(rng, v, 2), seeds, ops) for _ in range(3))
            lhs = ops.mul(ops.mul(a, b), c)
            rhs = ops.mul(a, ops.mul(b, c))
            scale = max(1.0, np.abs(rhs[len(jets._packed_basis(v, 2)):]).max())
            assert_allclose(lhs[0], rhs[0], rtol=1e-14, atol=1e-14)
            assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13 * scale)
            lhs2 = ops.mul(a, b + c)
            rhs2 = ops.mul(a, b) + ops.mul(a, c)
            assert_allclose(lhs2, rhs2, rtol=1e-13, atol=1e-12)


class TestSymmetry:
    def test_blocks_exactly_symmetric_after_ops(self):
        rng = np.random.default_rng(5)
        seeds = _seeds(rng.normal(size=(4, 3)), 3)
        ops = jets._Ops(3, 3)
        f = poly_eval_packed(random_poly(rng, 3, 3), seeds, ops)
        g = ops.mul(ops.fn("exp", f), ops.fn("exp", seeds[0]))
        a, b = (Jet(3, 3, *jets._unpack_blocks(r, 3, 3)) for r in (f, g))
        outer = Jet(3, 1, *jets._unpack_blocks(jets._table(f[0], "exp", 3), 1, 3))
        for h in (a * b, compose(outer, [a])):
            for perm in itertools.permutations(range(3)):
                assert np.array_equal(h.d3, np.transpose(h.d3, (0,) + tuple(p + 1 for p in perm)))
            assert np.array_equal(h.d2, np.swapaxes(h.d2, 1, 2))


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


def _cubic(coeffs, t, ops):
    """c0 + c1 t + c2 t^2 + c3 t^3 for a packed jet t."""
    t2 = ops.mul(t, t)
    return _plus(coeffs[1] * t + coeffs[2] * t2 + coeffs[3] * ops.mul(t2, t), coeffs[0])


class TestElementary:
    @pytest.mark.parametrize(
        "kind,fn,x0",
        [
            ("exp", np.exp, 0.1),
            ("recip", lambda x: 1.0 / x, 0.8),
        ],
    )
    def test_composition_vs_finite_differences(self, kind, fn, x0):
        # Composite scalar function g(t) = f(p(t)) with a cubic inner map.
        coeffs = (x0, 0.9, 0.3, -0.1)

        def g(t):
            return fn(sum(c * t**k for k, c in enumerate(coeffs)))

        ops = jets._Ops(1, 3)
        (t,) = _seeds([0.0], 3)
        inner = _cubic(coeffs, t, ops)
        got = ops.fn(kind, inner)
        # the same chain rule through the full-block face
        outer = Jet(3, 1, *jets._unpack_blocks(jets._table(inner[0], kind, 3), 1, 3))
        face = compose(outer, [Jet(3, 1, *jets._unpack_blocks(inner, 1, 3))])
        for order, step, tol in ((1, 1e-6, 1e-8), (2, 1e-4, 1e-6), (3, 1e-3, 1e-4)):
            want = fd_derivs(g, 0.0, order, step)
            assert_allclose(got[order, 0], want, rtol=tol, atol=tol)
        assert_allclose([face.val[0], face.d1[0, 0], face.d2[0, 0, 0], face.d3[0, 0, 0, 0]],
                        got[:, 0], rtol=1e-14, atol=1e-14)

    def test_exp_third_derivative_fd(self):
        (x,) = _seeds([0.21], 3)
        ops = jets._Ops(1, 3)
        e = ops.fn("exp", 0.5 * ops.mul(x, x) + x)
        want = fd_derivs(lambda t: np.exp(0.5 * t * t + t), 0.21, 3, 1e-3)
        assert_allclose(e[3], want, rtol=1e-5)

    def test_recip_domain_error(self):
        with pytest.raises(ZeroDivisionError):
            jets._Ops(1, 1).fn("recip", np.zeros((2, 1)))


class TestCompose:
    def test_multivariate_chain_rule_vs_fd(self):
        # f(u, w) evaluated on inner maps of two variables.
        def f_np(u, w):
            return np.exp(u) * w + u * w**2

        def x_np(t, s):
            return 0.3 + t * s + t**2

        def y_np(t, s):
            return 1.1 - s + 0.5 * t

        def g(t, s):
            return f_np(x_np(t, s), y_np(t, s))

        t0, s0 = 0.13, -0.41
        ops = jets._Ops(2, 3)
        t, s = _seeds([t0, s0], 3)
        xj = _plus(ops.mul(t, s) + ops.mul(t, t), 0.3)
        yj = _plus(-s + 0.5 * t, 1.1)
        u, w = _seeds([xj[0, 0], yj[0, 0]], 3)
        fjet = ops.mul(ops.fn("exp", u), w) + ops.mul(u, ops.mul(w, w))
        packed = jets._packed_compose(fjet, [xj, yj], ops.table)
        face = compose(Jet(3, 2, *jets._unpack_blocks(fjet, 2, 3)),
                       [Jet(3, 2, *jets._unpack_blocks(r, 2, 3)) for r in (xj, yj)])
        # the face's blocks as a packed array, to read both results the same way
        for out in (packed, jets._pack_blocks([face.val, face.d1, face.d2, face.d3], 2)):
            assert_allclose(out[0], g(t0, s0), rtol=1e-13)
            h = 1e-5
            fd = (g(t0 + h, s0) - g(t0 - h, s0)) / (2 * h)
            assert_allclose(_partial(out, 2, (0,)), fd, rtol=1e-7)
            h = 1e-4
            mixed = (
                g(t0 + h, s0 + h) - g(t0 + h, s0 - h) - g(t0 - h, s0 + h) + g(t0 - h, s0 - h)
            ) / (4 * h * h)
            assert_allclose(_partial(out, 2, (0, 1)), mixed, rtol=1e-5, atol=1e-7)
            h = 2e-3
            d3 = (
                g(t0, s0 + 2 * h) - 2 * g(t0, s0 + h) + 2 * g(t0, s0 - h) - g(t0, s0 - 2 * h)
            ) / (2 * h**3)
            assert_allclose(_partial(out, 2, (1, 1, 1)), d3, rtol=2e-4, atol=2e-4)

    def test_four_variable_chain_rule_vs_polynomial_substitution(self):
        # a cubic outer polynomial in 4 variables over quadratic inner maps in 4
        rng = np.random.default_rng(11)
        m = v = 4
        x0 = rng.normal(size=v)
        P = random_poly(rng, m, 3)
        Qs = [random_poly(rng, v, 2) for _ in range(m)]
        q0 = [poly_value(q, x0) for q in Qs]
        oracle = poly_derivs_at(poly_substitute(P, Qs), x0, 3)
        f = _full_jet(poly_derivs_at(P, q0, 3), m, 3)
        xs = [_full_jet(poly_derivs_at(q, x0, 3), v, 3) for q in Qs]
        packed = jets._packed_compose(jets._pack_blocks([f.val, f.d1, f.d2, f.d3], m),
                                      [jets._pack_blocks([x.val, x.d1, x.d2, x.d3], v) for x in xs],
                                      jets._leibniz_table(v, 3))
        _assert_matches_oracle(packed[:, 0], oracle, v, 3)
        face = compose(f, xs)
        _assert_face_matches_oracle(face, oracle, v)
        # truncated to the lower of the two orders
        low = compose(Jet(2, m, f.val, f.d1, f.d2), xs)
        assert low.order == 2 and low.d3 is None
        assert_allclose(low.d2, face.d2, rtol=1e-15, atol=1e-15)

    def test_one_variable_chain_rule_matches_maclaurin(self):
        # exp(u) with u = t + t^2 / 2: its Maclaurin series 1 + t + t^2 + 2/3 t^3
        (t,) = _seeds([0.0], 3)
        ops = jets._Ops(1, 3)
        u = t + 0.5 * ops.mul(t, t)
        got = jets._packed_compose(jets._table(u[0], "exp", 3), [u], ops.table)
        assert_allclose(got[:, 0], [1.0, 1.0, 2.0, 4.0], rtol=1e-15)
        assert np.array_equal(got, ops.fn("exp", u))


class TestComplex:
    """Complex scalars as complex128 packed jets: the packed kernels keep the dtype."""

    def test_mul_div_roundtrip(self):
        rng = np.random.default_rng(2)
        x, y = _seeds(rng.normal(size=2), 3)
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
        x, y = _seeds([0.3, -0.2], 2)
        ops = jets._Ops(2, 2)
        z = x + 1j * y
        abs2 = ops.mul(z, z.conj())
        assert_allclose(abs2.real, ops.mul(x, x) + ops.mul(y, y), atol=1e-15)
        assert_allclose(abs2.imag, 0.0, atol=1e-15)
        assert_allclose(abs2[0].real, 0.3**2 + 0.2**2)

    def test_division_near_zero_raises(self):
        x, y = _seeds([0.0, 0.0], 1)
        with pytest.raises(ZeroDivisionError):
            jets._Ops(2, 1).fn("recip", x + 1j * y)


class TestBatch:
    def test_batched_matches_loop(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(6, 2))
        ops = jets._Ops(2, 3)

        def formula(x, y):
            den = ops.fn("recip", _plus(ops.mul(y, y), 2.0))
            return ops.mul(ops.fn("exp", x), ops.fn("exp", 0.3 * y)) + ops.mul(x, den)

        f = formula(*_seeds(pts, 3))
        for b in range(6):
            g = formula(*_seeds(pts[b : b + 1], 3))
            assert_allclose(f[0, b], g[0, 0], rtol=1e-14)
            assert_allclose(f[:, b], g[:, 0], rtol=1e-13, atol=1e-13)


def test_bench_micro_runs_on_the_full_block_face():
    # bench/micro.py times and checks Jet * Jet and compose; its source is
    # run from its path, so that nothing is written next to it
    path = Path(__file__).resolve().parents[1] / "bench" / "micro.py"
    micro = types.ModuleType("bench_micro")
    exec(compile(path.read_text(), str(path), "exec"), vars(micro))
    metrics, problems = micro.run(7)
    assert problems == []
    assert set(metrics) == {"jets.mul_o3_v3.us", "jets.mul_o3_v7.us", "jets.compose_o3_v4.us"}
    assert all(value > 0 for value in metrics.values())
