"""Truncated multivariate Taylor arithmetic (jets) up to third order.

A :class:`Jet` stores the value and the raw partial derivatives (not the
factorial-divided Taylor coefficients) of a scalar quantity with respect to
``num_vars`` independent variables, up to total order <= 3.  All arithmetic
propagates derivatives exactly at the truncation order, so feeding seeded
jets through an analytic formula yields the exact derivatives of that
formula at the base point.

Coefficient arrays carry an arbitrary leading batch shape, which lets a
single jet describe a quantity at many evaluation points at once; every
operation is vectorized over the batch.

Degree-2 and degree-3 blocks are kept bitwise symmetric: after each
operation the canonical (sorted-index) entry is mirrored to all index
permutations.  :class:`Jet` is the public reference algebra; the
certificate pipeline runs on the packed arrays at the end of this module,
which store each distinct partial once and take real or complex entries.
The module ends with ``_einsum``, the planned batched contraction kernel
that ``geometry``, ``spaceforms`` and ``verify`` contract through.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

__all__ = [
    "Jet",
    "seed_variables",
    "constant",
    "elementary",
    "derivative",
    "compose",
    "compose_univariate",
    "sin",
    "cos",
    "sinh",
    "cosh",
    "exp",
    "sqrt",
    "recip",
]

# Reciprocal of a jet value this close to zero is refused rather than
# letting derivatives blow past float range.
DIV_FLOOR = 1e-12

_MIRROR2_CACHE: dict[int, np.ndarray] = {}
_MIRROR3_CACHE: dict[int, np.ndarray] = {}
_LEIBNIZ_CACHE: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}


# The mirrors take from the flattened trailing axes, so the result is
# C-contiguous; fancy indexing on the separate trailing axes would give the
# batch axis stride 1.


def _mirror2(t: np.ndarray, v: int) -> np.ndarray:
    """Copy the i<=j entries of the trailing (v, v) block to all permutations."""
    if v not in _MIRROR2_CACHE:
        idx = np.sort(np.indices((v, v)).reshape(2, -1), axis=0)
        _MIRROR2_CACHE[v] = idx[0] * v + idx[1]
    flat = t.reshape(t.shape[:-2] + (v * v,))
    return np.take(flat, _MIRROR2_CACHE[v], axis=-1).reshape(t.shape)


def _mirror3(t: np.ndarray, v: int) -> np.ndarray:
    """Copy the i<=j<=k entries of the trailing (v, v, v) block everywhere."""
    if v not in _MIRROR3_CACHE:
        idx = np.sort(np.indices((v, v, v)).reshape(3, -1), axis=0)
        _MIRROR3_CACHE[v] = (idx[0] * v + idx[1]) * v + idx[2]
    flat = t.reshape(t.shape[:-3] + (v**3,))
    return np.take(flat, _MIRROR3_CACHE[v], axis=-1).reshape(t.shape)


def _sym3_from_21(t2: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Symmetric 3-tensor sum A_{ij} c_k + A_{ik} c_j + A_{jk} c_i."""
    base = t2[..., :, :, None] * t1[..., None, None, :]
    return base + np.swapaxes(base, -1, -2) + np.moveaxis(base, -1, -3)


class Jet:
    """Value plus partial derivatives of one scalar quantity.

    Parameters
    ----------
    order : int
        Truncation order, in ``{0, 1, 2, 3}``.
    num_vars : int
        Number of independent variables.
    val, d1, d2, d3 : ndarray
        Batched coefficient blocks; ``d1`` has trailing shape ``(num_vars,)``,
        ``d2`` ``(num_vars, num_vars)`` and so on.  Blocks above ``order``
        are ``None``.
    """

    __slots__ = ("order", "num_vars", "val", "d1", "d2", "d3")

    def __init__(self, order, num_vars, val, d1=None, d2=None, d3=None):
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be in 0..3, got {order}")
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        self.order = order
        self.num_vars = num_vars
        self.val = np.asarray(val, dtype=float)
        b = self.val.shape
        v = num_vars
        self.d1 = np.zeros(b + (v,)) if (order >= 1 and d1 is None) else d1
        self.d2 = np.zeros(b + (v, v)) if (order >= 2 and d2 is None) else d2
        self.d3 = np.zeros(b + (v, v, v)) if (order >= 3 and d3 is None) else d3
        if order < 1:
            self.d1 = None
        if order < 2:
            self.d2 = None
        if order < 3:
            self.d3 = None

    # -- basic introspection -------------------------------------------------

    @property
    def batch_shape(self):
        return self.val.shape

    def copy(self) -> "Jet":
        return Jet(
            self.order,
            self.num_vars,
            self.val.copy(),
            None if self.d1 is None else self.d1.copy(),
            None if self.d2 is None else self.d2.copy(),
            None if self.d3 is None else self.d3.copy(),
        )

    def __repr__(self):
        return (
            f"Jet(order={self.order}, num_vars={self.num_vars}, "
            f"batch={self.batch_shape}, val={self.val!r})"
        )

    def _check_compatible(self, other: "Jet"):
        if self.order != other.order or self.num_vars != other.num_vars:
            raise ValueError(
                "jet shape mismatch: "
                f"({self.order}, {self.num_vars}) vs ({other.order}, {other.num_vars})"
            )

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            out = self.copy()
            out.val = out.val + np.asarray(other, dtype=float)
            return out
        self._check_compatible(other)
        return Jet(
            self.order,
            self.num_vars,
            self.val + other.val,
            None if self.d1 is None else self.d1 + other.d1,
            None if self.d2 is None else self.d2 + other.d2,
            None if self.d3 is None else self.d3 + other.d3,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.order,
            self.num_vars,
            -self.val,
            None if self.d1 is None else -self.d1,
            None if self.d2 is None else -self.d2,
            None if self.d3 is None else -self.d3,
        )

    def __sub__(self, other):
        if not isinstance(other, Jet):
            out = self.copy()
            out.val = out.val - np.asarray(other, dtype=float)
            return out
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = np.asarray(other, dtype=float)

            def scale(blk, extra):
                if blk is None:
                    return None
                return blk * (c if c.ndim == 0 else c.reshape(c.shape + (1,) * extra))

            return Jet(
                self.order,
                self.num_vars,
                self.val * c,
                scale(self.d1, 1),
                scale(self.d2, 2),
                scale(self.d3, 3),
            )
        self._check_compatible(other)
        a, b = self, other
        v = self.num_vars
        val = a.val * b.val
        d1 = d2 = d3 = None
        if self.order >= 1:
            d1 = a.d1 * b.val[..., None] + b.d1 * a.val[..., None]
        if self.order >= 2:
            d2 = (
                a.d2 * b.val[..., None, None]
                + b.d2 * a.val[..., None, None]
                + a.d1[..., :, None] * b.d1[..., None, :]
                + b.d1[..., :, None] * a.d1[..., None, :]
            )
            d2 = _mirror2(d2, v)
        if self.order >= 3:
            d3 = (
                a.d3 * b.val[..., None, None, None]
                + b.d3 * a.val[..., None, None, None]
                + _sym3_from_21(a.d2, b.d1)
                + _sym3_from_21(b.d2, a.d1)
            )
            d3 = _mirror3(d3, v)
        return Jet(self.order, v, val, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self.__mul__(1.0 / np.asarray(other, dtype=float))
        return self.__mul__(recip(other))

    def __rtruediv__(self, other):
        return recip(self).__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError("jet powers must be non-negative integers")
        out = constant(np.ones(self.batch_shape), self.num_vars, self.order)
        for _ in range(int(k)):
            out = out * self
        return out


def seed_variables(base_point, order: int, batch=False) -> list[Jet]:
    """Seed one jet per coordinate of ``base_point``.

    Each returned jet has the coordinate value, a unit first derivative in
    its own slot, and zero higher coefficients.

    Parameters
    ----------
    base_point : array_like
        Coordinates; shape ``(num_vars,)`` or, with ``batch=True``,
        ``(..., num_vars)`` for batched evaluation.
    order : int
        Truncation order in ``{0, 1, 2, 3}``.
    """
    p = np.asarray(base_point, dtype=float)
    if not batch:
        p = np.atleast_1d(p)
        if p.ndim != 1:
            raise ValueError("base_point must be one-dimensional (or use batch=True)")
    v = p.shape[-1]
    jets = []
    for i in range(v):
        j = Jet(order, v, p[..., i].copy())
        if order >= 1:
            j.d1[..., i] = 1.0
        jets.append(j)
    return jets


def constant(value, num_vars: int, order: int) -> Jet:
    """A jet whose derivative blocks all vanish."""
    return Jet(order, num_vars, np.asarray(value, dtype=float).copy())


def compose_univariate(derivs, u: Jet) -> Jet:
    """Compose a scalar function with a jet (Faa di Bruno to order 3).

    ``derivs`` is the tuple ``(f(u0), f'(u0), f''(u0), f'''(u0))`` truncated
    to ``u.order + 1`` entries, each shaped like ``u.val``.
    """
    f = derivs
    v = u.num_vars
    val = np.asarray(f[0], dtype=float)
    d1 = d2 = d3 = None
    if u.order >= 1:
        d1 = f[1][..., None] * u.d1
    if u.order >= 2:
        d2 = f[1][..., None, None] * u.d2 + f[2][..., None, None] * (
            u.d1[..., :, None] * u.d1[..., None, :]
        )
        d2 = _mirror2(d2, v)
    if u.order >= 3:
        d3 = (
            f[1][..., None, None, None] * u.d3
            + f[2][..., None, None, None] * _sym3_from_21(u.d2, u.d1)
            + f[3][..., None, None, None]
            * (
                u.d1[..., :, None, None]
                * u.d1[..., None, :, None]
                * u.d1[..., None, None, :]
            )
        )
        d3 = _mirror3(d3, v)
    return Jet(u.order, v, val, d1, d2, d3)


def _table(x: np.ndarray, kind: str):
    """The value and first three derivatives of an elementary function at ``x``."""
    if kind == "sin":
        s, c = np.sin(x), np.cos(x)
        return (s, c, -s, -c)
    if kind == "cos":
        s, c = np.sin(x), np.cos(x)
        return (c, -s, -c, s)
    if kind == "sinh":
        s, c = np.sinh(x), np.cosh(x)
        return (s, c, s, c)
    if kind == "cosh":
        s, c = np.sinh(x), np.cosh(x)
        return (c, s, c, s)
    if kind == "exp":
        e = np.exp(x)
        return (e, e, e, e)
    if kind == "sqrt":
        if np.any(x <= 0):
            raise ValueError("sqrt of a jet requires a strictly positive value")
        r = np.sqrt(x)
        return (r, 0.5 / r, -0.25 / (r * x), 0.375 / (r * x * x))
    if kind == "recip":
        if np.any(np.abs(x) < DIV_FLOOR):
            raise ZeroDivisionError(
                "jet reciprocal: value within %.1e of zero" % DIV_FLOOR
            )
        w = 1.0 / x
        return (w, -w * w, 2.0 * w**3, -6.0 * w**4)
    raise ValueError(f"unknown elementary kind {kind!r}")


def elementary(a: Jet, kind: str) -> Jet:
    """Apply an elementary function to a jet.

    ``kind`` is one of ``sin, cos, sinh, cosh, exp, sqrt, recip``.
    """
    return compose_univariate(_table(a.val, kind)[: a.order + 1], a)


def _dispatch(kind):
    def op(x):
        if isinstance(x, Jet):
            return elementary(x, kind)
        return getattr(np, kind)(x)

    op.__name__ = kind
    return op


sin = _dispatch("sin")
cos = _dispatch("cos")
sinh = _dispatch("sinh")
cosh = _dispatch("cosh")
exp = _dispatch("exp")
sqrt = _dispatch("sqrt")


def recip(x):
    if isinstance(x, Jet):
        return elementary(x, "recip")
    return 1.0 / x


def derivative(jet: Jet, i: int) -> Jet:
    """The jet of ``d(jet)/dx_i``, one order lower."""
    if jet.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    return Jet(
        jet.order - 1,
        jet.num_vars,
        jet.d1[..., i].copy(),
        None if jet.d2 is None else jet.d2[..., i, :].copy(),
        None if jet.d3 is None else jet.d3[..., i, :, :].copy(),
    )


def _drop(j: Jet) -> Jet:
    """Same jet truncated one order lower."""
    return Jet(
        j.order - 1,
        j.num_vars,
        j.val,
        j.d1 if j.order - 1 >= 1 else None,
        j.d2 if j.order - 1 >= 2 else None,
        None,
    )


def compose(f: Jet, xs: list[Jet]) -> Jet:
    """Multivariate chain rule: the jet of ``f(x_1(t), ..., x_m(t))``.

    ``f`` is a jet in ``m`` variables (the derivatives of the outer function
    at the inner values) and ``xs`` are ``m`` jets in a common set of inner
    variables.  The result is truncated to ``min(f.order, xs[0].order)``.
    """
    m = f.num_vars
    if len(xs) != m:
        raise ValueError(f"need {m} inner jets, got {len(xs)}")
    order = min(f.order, xs[0].order)
    v = xs[0].num_vars
    for x in xs:
        if x.num_vars != v or x.order != xs[0].order:
            raise ValueError("inner jets must share order and num_vars")
    val = f.val.copy()
    out = Jet(order, v, val)
    if order == 0:
        return out
    X1 = np.stack([x.d1 for x in xs], axis=-2)  # (..., m, v)
    out.d1 = np.einsum("...m,...mi->...i", f.d1, X1)
    if order >= 1 and order < 2:
        return out
    X2 = np.stack([x.d2 for x in xs], axis=-3)  # (..., m, v, v)
    out.d2 = _mirror2(
        np.einsum("...m,...mij->...ij", f.d1, X2)
        + np.einsum("...mn,...mi,...nj->...ij", f.d2, X1, X1),
        v,
    )
    if order < 3:
        return out
    X3 = np.stack([x.d3 for x in xs], axis=-4)
    cross = np.einsum("...mn,...mi,...njk->...ijk", f.d2, X1, X2)
    cross = cross + np.moveaxis(cross, -3, -2) + np.moveaxis(cross, -3, -1)
    out.d3 = _mirror3(
        np.einsum("...m,...mijk->...ijk", f.d1, X3)
        + cross
        + np.einsum("...mnp,...mi,...nj,...pk->...ijk", f.d3, X1, X1, X1),
        v,
    )
    return out


# -- packed coefficient arrays -------------------------------------------------
#
# A packed array holds jets of one order and variable count in one block
# whose leading coefficient axis stores each distinct partial once, in the
# degree-sorted order of _packed_basis, so its first rows are its truncation
# to a lower order.  The immersions and the ambient models use (coefficients,
# batch, tensor axes), where a product of matrix jets is a stacked matmul;
# the Hamiltonian flow runs on (coefficients, jets, batch).  The kernels
# allocate their outputs with the inputs' dtype, so complex jets are
# complex128 packed arrays.


def _packed_basis(v: int, order: int) -> list[tuple]:
    """Sorted index tuples of the distinct partials: (), (i,), (i, j), (i, j, k)."""
    return [
        idx
        for k in range(order + 1)
        for idx in combinations_with_replacement(range(v), k)
    ]


def _packed_order(packed: np.ndarray, v: int) -> int:
    """The jet order of a packed array in ``v`` variables, from its row count."""
    order = 0
    while comb(v + order, order) < len(packed):
        order += 1
    if comb(v + order, order) != len(packed):
        raise ValueError(f"{len(packed)} coefficient rows fit no jet order in {v} variables")
    return order


def _leibniz_table(v: int, order: int) -> list[tuple[int, int, int, int]]:
    """The product rule on the packed basis as (output, left, right, weight).

    The partial of f g over the index multiset a is the sum, over the ways
    of splitting the positions of a into two groups b and a - b, of
    d^b f d^(a-b) g; the weight counts the splits that give the same pair.
    Each output's first term is its value-times-partial term (left row 0,
    weight 1).
    """
    if (v, order) in _LEIBNIZ_CACHE:
        return _LEIBNIZ_CACHE[v, order]
    basis = _packed_basis(v, order)
    row = {idx: i for i, idx in enumerate(basis)}
    table = []
    for out, a in enumerate(basis):
        splits = Counter()
        for k in range(len(a) + 1):
            for pos in combinations(range(len(a)), k):
                left = tuple(a[p] for p in pos)
                right = tuple(a[p] for p in range(len(a)) if p not in pos)
                splits[row[left], row[right]] += 1
        table += [(out, l, r, w) for (l, r), w in splits.items()]
    _LEIBNIZ_CACHE[v, order] = table
    return table


def _leibniz(product, a, b, table, out, scratch=None):
    """The packed product loop: out[o] = sum of w product(a[l], b[r]) over the table.

    A factor with fewer rows than the table has vanishing higher partials (a
    constant has one row); terms reading missing or all-zero rows are skipped.
    ``scratch``, shaped like ``out[0]``, holds each term before it is added;
    a caller that repeats the product passes one so the loop allocates nothing.
    """
    def live(x):  # a dense row answers at its first entry
        return [i < len(x) and (bool(x[i].flat[0]) or bool(x[i].any())) for i in range(len(out))]

    live_a, live_b = live(a), live(b)
    started = [False] * len(out)
    if scratch is None:
        scratch = np.empty_like(out[0])
    for o, l, r, w in table:
        if not (live_a[l] and live_b[r]):
            continue
        target = scratch if started[o] else out[o]
        product(a[l], b[r], out=target)
        if w != 1:
            target *= w
        if started[o]:
            out[o] += scratch
        started[o] = True
    for o, done in enumerate(started):
        if not done:
            out[o] = 0.0
    return out


def _packed_mul(a: np.ndarray, b: np.ndarray, table, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """The packed broadcasting product ``a * b``; ``out`` must not overlap ``a``, ``b``.

    ``scratch`` is :func:`_leibniz`'s term buffer, shaped like ``out[0]``.
    """
    if out is None:
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        out = np.empty((table[-1][0] + 1,) + shape, np.result_type(a, b))
    return _leibniz(np.multiply, a, b, table, out, scratch)


def _packed_matmul(a: np.ndarray, b: np.ndarray, table) -> np.ndarray:
    """The packed matrix product ``a @ b`` (last two axes) to the table's order."""
    shape = np.broadcast_shapes(a.shape[1:-2], b.shape[1:-2]) + (a.shape[-2], b.shape[-1])
    out = np.empty((table[-1][0] + 1,) + shape, np.result_type(a, b))
    return _leibniz(np.matmul, a, b, table, out)


def _packed_compose(derivs, u: np.ndarray, table) -> np.ndarray:
    """f(u) as the sum over k of f^(k)(u0)/k! (u - u0)^k, in packed products.

    ``derivs`` is ``(f(u0), f'(u0), ...)``, one more than the table's order.
    """
    du = u[: table[-1][0] + 1].copy()
    du[0] = 0.0
    out = np.zeros((table[-1][0] + 1,) + u.shape[1:], np.result_type(u, *derivs))
    out[0] = derivs[0]
    power = du
    for k in range(1, len(derivs)):
        if k > 1:
            power = _packed_mul(power, du, table)
        out[: len(power)] += (derivs[k] / factorial(k)) * power
    return out


class _Ops:
    """Packed jet arithmetic in ``v`` variables to one ``order``, real or complex."""

    def __init__(self, v: int, order: int):
        self.v = v
        self.order = order
        self.table = _leibniz_table(v, order)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _packed_mul(a, b, self.table)

    def fn(self, kind: str, u: np.ndarray) -> np.ndarray:
        """The elementary function ``kind`` of :func:`_table` applied to ``u``."""
        return _packed_compose(_table(u[0], kind)[: self.order + 1], u, self.table)


def _seed_angles(t: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each angle ``t[:, i]`` as packed jets in the angles, (coefficients, B, v).

    Angle i's jets are univariate: only the rows (), (i,), (i, i), ... are nonzero.
    """
    B, v = t.shape
    row = {idx: r for r, idx in enumerate(_packed_basis(v, order))}
    s, c = np.sin(t), np.cos(t)
    cos, sin = np.zeros((2, len(row), B, v))
    for k, (dc, ds) in enumerate(zip((c, -s, -c, s)[: order + 1], (s, c, -s, -c))):
        rows = [row[(i,) * k] for i in range(v)]
        cos[rows, :, range(v)] = dc.T
        sin[rows, :, range(v)] = ds.T
    return cos, sin


def _packed_inv(a: np.ndarray, table, order: int) -> np.ndarray:
    """A^-1 = sum over k of (-A0^-1 D)^k A0^-1 for A = A0 + D, to the table's ``order``."""
    inv0 = np.linalg.inv(a[0])
    x = -np.matmul(inv0, a[: table[-1][0] + 1])
    x[0] = 0.0
    total = x.copy()
    total[0] = np.eye(a.shape[-1])
    power = x
    for _ in range(order - 1):
        power = _packed_matmul(power, x, table)
        total += power
    return np.matmul(total, inv0)


def _packed_gradient(packed: np.ndarray, v: int) -> np.ndarray:
    """The partials d_a of every entry, one order lower, as a new last axis: a row gather."""
    order = _packed_order(packed, v)
    row = {idx: i for i, idx in enumerate(_packed_basis(v, order))}
    rows = [
        [row[tuple(sorted(idx + (a,)))] for a in range(v)]
        for idx in _packed_basis(v, order - 1)
    ]
    return np.moveaxis(packed[np.array(rows)], 1, -1)


def _packed_hessian_along(packed: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Second partials along directions: out[b, ..., nu, c] = sum over a of d_nu d_a p X[b, a, c].

    ``packed`` is (coefficients, B, *s) to order 2 or more in v variables and
    ``X`` is (B, v, n); the result is (B, *s, v, n).  One row gather and one
    batched matmul per nu, so the full (v, v) Hessian block is never formed.
    """
    B, v, n = X.shape
    row = {idx: i for i, idx in enumerate(_packed_basis(v, 2))}
    size = packed[0].size // B
    if len(packed) < len(row):  # a lower order: the second partials vanish
        return np.zeros((B,) + packed.shape[2:] + (v, n))
    out = np.empty((v, B, size, n))
    for nu in range(v):
        rows = np.take(packed, [row[tuple(sorted((nu, a)))] for a in range(v)], axis=0)
        np.matmul(rows.reshape(v, B, size).transpose(1, 2, 0), X, out=out[nu])
    return np.moveaxis(out, 0, -2).reshape((B,) + packed.shape[2:] + (v, n))


def _unpack_blocks(packed: np.ndarray, v: int, order: int) -> list[np.ndarray]:
    """Full blocks (value, d1, ...) to ``order``: shapes s, s + (v,), ... for (coefficients, *s).

    Each partial fills every permutation of its indices; blocks above the
    array's order are zero.
    """
    have = _packed_order(packed, v)
    row = {idx: i for i, idx in enumerate(_packed_basis(v, have))}
    flat = packed.reshape(len(packed), -1)
    blocks = []
    for k in range(order + 1):
        shape = packed.shape[1:] + (v,) * k
        if k > have:
            blocks.append(np.zeros(shape))
            continue
        rows = [row[tuple(sorted(idx))] for idx in product(range(v), repeat=k)]
        blk = np.empty((flat.shape[1], len(rows)))
        for s in range(0, flat.shape[1], 2048):  # transposed in slabs that stay in cache
            blk[s : s + 2048] = flat[rows, s : s + 2048].T
        blocks.append(blk.reshape(shape))
    return blocks


def _pack_blocks(blocks: list[np.ndarray], v: int) -> np.ndarray:
    """The packed array of full derivative blocks (value, d1, d2, ...)."""
    basis = _packed_basis(v, len(blocks) - 1)
    return np.stack([blocks[len(idx)][(..., *idx)] for idx in basis])


# -- batched contractions ------------------------------------------------------
#
# geometry, spaceforms and verify contract per-node tensors of a few entries
# each.  A label ``b`` that leads a subscript term is the batch axis of that
# operand (or of the output), and no other position may hold it.  numpy's
# optimize=True route plans the path again on every call and runs each
# pairwise step as a batched matmul on reshaped copies, which at these sizes
# costs far more than the arithmetic; C einsum on operands whose batch axis
# is last and contiguous runs each step as vector loops over the nodes.

_PLAN_CACHE: dict[tuple, _Plan] = {}
_PLAN_BATCH = 1024  # the batch length plans are made for, so that B does not change them
# Largest non-batch index space of a pairwise step that runs as C einsum;
# above it numpy's matmuls win.  Serial rounds with every command timed
# under each gate in turn: highdim took 7.35 s at 512 against 7.9-8.1 s at
# 128, 256 and 1024, and catalog_n2 12.1-12.3 s anywhere from 128 to 512.
_STEP_GATE = 512


class _Plan(NamedTuple):
    """How :func:`_einsum` runs one signature.

    On the kernel's route ``steps`` holds, per pairwise step, the positions
    it pops from the operand list (numpy's path), its C einsum subscripts on
    batch-last operands and its non-batch output shape, and ``path`` is
    None.  On numpy's route ``steps`` is None, ``path`` is numpy's path and
    the transposes are empty.
    """

    path: list | None
    steps: tuple | None
    to_last: tuple  # per operand, the transpose to batch-last, or None without a batch axis
    back: tuple  # the transpose of the batch-last result to batch-first


def _batch_last(term: str) -> str:
    return term[1:] + "b" if term.startswith("b") else term


def _plan(subscripts: str, shapes: tuple) -> _Plan:
    """The plan of ``subscripts`` for operands of these non-batch shapes."""
    inputs, arrow, output = subscripts.partition("->")
    terms = inputs.split(",")
    if any("b" in t[1:] for t in terms + [output]):
        raise ValueError(f"einsum {subscripts!r}: the batch label b may only lead a term")
    batched = [t.startswith("b") for t in terms]
    if len(terms) == 2:  # numpy's path for two operands, without its search
        path = ["einsum_path", (0, 1)]
    else:
        dummies = [np.broadcast_to(np.empty(()), (_PLAN_BATCH,) * bt + s)
                   for bt, s in zip(batched, shapes)]
        path = np.einsum_path(subscripts, *dummies, optimize="greedy")[0]
    numpy_route = _Plan(path, None, (), ())
    if not arrow or "..." in subscripts or not output.startswith("b"):
        return numpy_route
    dims = {}
    for bt, t, s in zip(batched, terms, shapes):
        dims.update(zip(t[bt:], s))
    work = [_batch_last(t) for t in terms]
    steps = []
    for positions in path[1:]:
        positions = tuple(sorted(positions, reverse=True))
        taken = [work.pop(p) for p in positions]
        if prod(dims[c] for c in set("".join(taken)) - {"b"}) > _STEP_GATE:
            return numpy_route
        if work:
            needed = set("".join(work) + output) - {"b"}
            result = "".join(dict.fromkeys(c for t in taken for c in t if c in needed))
            result += "b" * any("b" in t for t in taken)
        else:
            result = _batch_last(output)
        steps.append((positions, ",".join(taken) + "->" + result,
                      tuple(dims[c] for c in result.rstrip("b"))))
        work.append(result)
    to_last = tuple(tuple(range(1, len(s) + 1)) + (0,) if bt else None
                    for bt, s in zip(batched, shapes))
    rank = len(output)
    return _Plan(None, tuple(steps), to_last, (rank - 1,) + tuple(range(rank - 1)))


def _einsum(subscripts: str, *operands):
    """``np.einsum(subscripts, *operands, optimize=True)`` for batch-labelled operands.

    Each signature is planned once per non-batch shape (:data:`_PLAN_CACHE`)
    with numpy's greedy pairwise path, made for a fixed batch length, so the
    plan depends on neither the chunk size nor the call order.  Each step
    runs as C einsum on contiguous batch-last operands into a C-contiguous
    batch-last buffer, and the result is a batch-first view of the last one,
    which the next contraction takes without a copy.  A call with ``...``,
    without the batch label in its output, or with a step above
    :data:`_STEP_GATE` runs numpy's own route on the cached path; a single
    operand goes straight to C einsum.
    """
    if len(operands) == 1:
        return np.einsum(subscripts, operands[0])
    terms = subscripts.partition("->")[0].split(",")
    key = (subscripts, *(op.shape[1:] if t.startswith("b") else op.shape
                         for t, op in zip(terms, operands)))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = _plan(subscripts, key[1:])
    if plan.steps is None:
        return np.einsum(subscripts, *operands, optimize=plan.path)
    batch = max(op.shape[0] for op, axes in zip(operands, plan.to_last) if axes)
    ops = [op if axes is None else np.ascontiguousarray(op.transpose(axes))
           for op, axes in zip(operands, plan.to_last)]
    for positions, step, shape in plan.steps:
        taken = [ops.pop(p) for p in positions]
        out = np.empty(shape + (batch,) * step.endswith("b"), np.result_type(*taken))
        ops.append(np.einsum(step, *taken, out=out))
    return ops[0].transpose(plan.back)
