"""Property tests of the packed jet kernels against the tests' scalar algebra.

A packed array stores each distinct partial of a jet once along its leading
axis (``jets._packed_basis``); these tests draw random jets of the dense
reference algebra in ``scalar_reference``, pack them, and check every
packed kernel against the reference operation it stands for.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneygeo import jets

from scalar_reference import ScalarJet, compose_univariate, derivative, mirror

# a fixed example sequence keeps the suite reproducible
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

num_vars = st.integers(min_value=1, max_value=4)
orders = st.integers(min_value=0, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _symmetrize(t, k):
    """Copy the sorted-index entries of the last k axes to every permutation."""
    if k < 2:
        return t
    return mirror(t, k)


def _random_blocks(rng, shape, v, order):
    """Full, symmetric derivative blocks (value, d1, ...) with the given leading shape."""
    return [_symmetrize(rng.normal(size=shape + (v,) * k), k) for k in range(order + 1)]


def _random_jet(rng, batch, v, order, positive=False):
    blocks = _random_blocks(rng, (batch,), v, order)
    if positive:
        blocks[0] = 0.5 + np.abs(blocks[0])
    return ScalarJet(order, v, *blocks)


def _packed(jet):
    """One jet as a packed (coefficients, batch) array."""
    return jets._pack_blocks(jet.blocks(), jet.num_vars)


def _assert_packed_close(got, want_jet):
    want = _packed(want_jet)
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds)
def test_packed_mul_matches_jet_mul(v, order, seed):
    rng = np.random.default_rng(seed)
    a, b = (_random_jet(rng, 3, v, order) for _ in range(2))
    table = jets._leibniz_table(v, order)
    _assert_packed_close(jets._packed_mul(_packed(a), _packed(b), table), a * b)


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds)
def test_packed_mul_ring_laws(v, order, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_packed(_random_jet(rng, 3, v, order)) for _ in range(3))
    table = jets._leibniz_table(v, order)
    mul = lambda x, y: jets._packed_mul(x, y, table)
    close = lambda x, y: np.max(np.abs(x - y)) <= 1e-13 * max(np.max(np.abs(x)), 1.0)
    assert close(mul(a, b), mul(b, a))
    assert close(mul(mul(a, b), c), mul(a, mul(b, c)))


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds, kind=st.sampled_from(["recip", "exp"]))
def test_packed_compose_matches_compose_univariate(v, order, seed, kind):
    rng = np.random.default_rng(seed)
    u = _random_jet(rng, 3, v, order, positive=True)
    derivs = jets._table(u.val, kind, order)
    got = jets._packed_compose(derivs, [_packed(u)], jets._leibniz_table(v, order))
    _assert_packed_close(got, compose_univariate(derivs, u))


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds,
       dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3))
def test_packed_matmul_matches_entry_loop(v, order, seed, dims):
    rng = np.random.default_rng(seed)
    p, k, r = dims
    A = [[_random_jet(rng, 2, v, order) for _ in range(k)] for _ in range(p)]
    B = [[_random_jet(rng, 2, v, order) for _ in range(r)] for _ in range(k)]
    # packed matrices shaped (coefficients, batch, rows, columns)
    pack = lambda M: np.stack([np.stack([_packed(e) for e in row], -1) for row in M], -2)
    got = jets._packed_matmul(pack(A), pack(B), jets._leibniz_table(v, order))
    for i in range(p):
        for j in range(r):
            want = sum((A[i][c] * B[c][j] for c in range(1, k)), start=A[i][0] * B[0][j])
            _assert_packed_close(got[..., i, j], want)


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds)
def test_unpack_pack_round_trip(v, order, seed):
    rng = np.random.default_rng(seed)
    size = len(jets._packed_basis(v, order))
    packed = rng.normal(size=(size, 2, 3))
    blocks = jets._unpack_blocks(packed, v, order)
    assert [b.shape for b in blocks] == [(2, 3) + (v,) * k for k in range(order + 1)]
    assert np.array_equal(jets._pack_blocks(blocks, v), packed)
    # full symmetric blocks survive the other way round
    full = _random_blocks(rng, (2, 3), v, order)
    for got, want in zip(jets._unpack_blocks(jets._pack_blocks(full, v), v, order), full):
        assert np.array_equal(got, want)


@PROPERTY
@given(v=num_vars, order=st.integers(min_value=1, max_value=3), seed=seeds)
def test_packed_gradient_matches_derivative(v, order, seed):
    rng = np.random.default_rng(seed)
    f = _random_jet(rng, 3, v, order)
    grad = jets._packed_gradient(_packed(f), v)
    for i in range(v):
        _assert_packed_close(grad[..., i], derivative(f, i))


def _close(got, want):
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)


def _complex_pair(rng, shape):
    """Random real packed arrays (re, im) and the complex packed array re + i im."""
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    return re, im, re + 1j * im


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds)
def test_packed_mul_complex_is_its_real_decomposition(v, order, seed):
    rng = np.random.default_rng(seed)
    rows = len(jets._packed_basis(v, order))
    (a, b, z), (c, d, w) = (_complex_pair(rng, (rows, 3)) for _ in range(2))
    table = jets._leibniz_table(v, order)
    mul = lambda x, y: jets._packed_mul(x, y, table)
    got = mul(z, w)
    assert got.dtype == np.complex128 and mul(a, c).dtype == np.float64
    assert _close(got.real, mul(a, c) - mul(b, d))
    assert _close(got.imag, mul(a, d) + mul(b, c))
    # a real factor times a complex one
    assert _close(mul(a, w), mul(a, c) + 1j * mul(a, d))


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds,
       dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3))
def test_packed_matmul_complex_is_its_real_decomposition(v, order, seed, dims):
    rng = np.random.default_rng(seed)
    p, k, r = dims
    rows = len(jets._packed_basis(v, order))
    a, b, z = _complex_pair(rng, (rows, 2, p, k))
    c, d, w = _complex_pair(rng, (rows, 2, k, r))
    table = jets._leibniz_table(v, order)
    matmul = lambda x, y: jets._packed_matmul(x, y, table)
    got = matmul(z, w)
    assert got.dtype == np.complex128
    assert _close(got.real, matmul(a, c) - matmul(b, d))
    assert _close(got.imag, matmul(a, d) + matmul(b, c))


@PROPERTY
@given(v=num_vars, order=orders, seed=seeds, kind=st.sampled_from(["recip", "exp"]))
def test_packed_compose_complex_is_its_real_decomposition(v, order, seed, kind):
    rng = np.random.default_rng(seed)
    rows = len(jets._packed_basis(v, order))
    x, y, _ = _complex_pair(rng, (rows, 3))
    x[0] += 3.0  # keep 1/z away from its pole
    z = x + 1j * y
    table = jets._leibniz_table(v, order)
    f = lambda name, u: jets._packed_compose(jets._table(u[0], name, order), [u], table)
    mul = lambda a, b: jets._packed_mul(a, b, table)
    got = f(kind, z)
    assert got.dtype == np.complex128
    if kind == "recip":  # 1/z = (x - i y) / (x^2 + y^2)
        q = f("recip", mul(x, x) + mul(y, y))
        want = mul(x, q) - 1j * mul(y, q)
    else:  # exp(z) = exp(x) (cos y + i sin y), cos and sin as derivative tables
        sin, cos = np.sin(y[0]), np.cos(y[0])
        trig = lambda rows: jets._packed_compose(np.stack(rows[: order + 1]), [y], table)
        want = mul(f("exp", x), trig((cos, -sin, -cos, sin)) + 1j * trig((sin, cos, -sin, -cos)))
    assert _close(got, want)


def test_packed_order_rejects_a_ragged_row_count():
    assert jets._packed_order(np.zeros((10, 1)), 3) == 2
    with pytest.raises(ValueError, match="fit no jet order"):
        jets._packed_order(np.zeros((9, 1)), 3)


def test_packed_kernels_name_the_layout_they_need():
    # a single point keeps a batch axis of length 1; a bare (coefficients,)
    # array is refused by name rather than failing inside the product loop
    ops = jets._Ops(1, 2)
    x = np.array([0.5, 1.0, 0.0])
    with pytest.raises(ValueError, match=r"\(coefficients, batch, \.\.\.\)"):
        ops.mul(x, x)
    with pytest.raises(ValueError, match=r"\(coefficients, batch, \.\.\.\)"):
        ops.fn("exp", x)
    assert np.array_equal(ops.mul(x[:, None], x[:, None])[:, 0], [0.25, 1.0, 2.0])
