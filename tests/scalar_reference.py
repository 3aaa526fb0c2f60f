"""A scalar jet algebra with dense, mirrored derivative blocks: the tests' reference.

:class:`ScalarJet` stores the value and the full derivative blocks d1, d2,
d3 of one scalar quantity in ``num_vars`` variables, with a leading batch
shape.  Its product rule and Faa di Bruno chain rule are written out block
by block, and the degree-2 and degree-3 blocks are kept bitwise symmetric
by copying each sorted-index entry to its permutations.  Nothing here
touches whitneygeo, so the packed kernels and the catalog formulas built on
them are checked against an independent algebra.
"""

from __future__ import annotations

import numpy as np

_MIRROR_CACHE: dict[tuple[int, int], np.ndarray] = {}


def mirror(t: np.ndarray, k: int) -> np.ndarray:
    """Copy the sorted-index entries of the trailing k axes (size v) to every permutation."""
    v = t.shape[-1]
    if (v, k) not in _MIRROR_CACHE:
        idx = np.sort(np.indices((v,) * k).reshape(k, -1), axis=0)
        _MIRROR_CACHE[v, k] = np.ravel_multi_index(tuple(idx), (v,) * k)
    flat = t.reshape(t.shape[:-k] + (v**k,))
    return np.take(flat, _MIRROR_CACHE[v, k], axis=-1).reshape(t.shape)


def _sym3_from_21(t2: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Symmetric 3-tensor sum A_{ij} c_k + A_{ik} c_j + A_{jk} c_i."""
    base = t2[..., :, :, None] * t1[..., None, None, :]
    return base + np.swapaxes(base, -1, -2) + np.moveaxis(base, -1, -3)


def _bcast(c, extra):
    """A batch of scalars shaped to multiply a block with ``extra`` trailing axes."""
    return c if c.ndim == 0 else c.reshape(c.shape + (1,) * extra)


class ScalarJet:
    """Value plus full derivative blocks to ``order`` <= 3; blocks above it are None."""

    __slots__ = ("order", "num_vars", "val", "d1", "d2", "d3")

    def __init__(self, order, num_vars, val, d1=None, d2=None, d3=None):
        self.order = order
        self.num_vars = num_vars
        self.val = np.asarray(val, dtype=float)
        given = (d1, d2, d3)
        for k in (1, 2, 3):
            blk = None
            if k <= order:
                blk = given[k - 1]
                if blk is None:
                    blk = np.zeros(self.val.shape + (num_vars,) * k)
            setattr(self, f"d{k}", blk)

    @property
    def batch_shape(self):
        return self.val.shape

    def blocks(self):
        return [self.val, self.d1, self.d2, self.d3][: self.order + 1]

    def _map(self, fn):
        """The same jet with every block replaced by ``fn(block, k)``."""
        return ScalarJet(self.order, self.num_vars,
                         *(fn(b, k) for k, b in enumerate(self.blocks())))

    def _check(self, other):
        if (self.order, self.num_vars) != (other.order, other.num_vars):
            raise ValueError("jet shape mismatch")

    def __add__(self, other):
        if not isinstance(other, ScalarJet):
            c = np.asarray(other, dtype=float)
            return self._map(lambda b, k: b + c if k == 0 else b.copy())
        self._check(other)
        return ScalarJet(self.order, self.num_vars,
                         *(a + b for a, b in zip(self.blocks(), other.blocks())))

    __radd__ = __add__

    def __neg__(self):
        return self._map(lambda b, k: -b)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ScalarJet):
            c = np.asarray(other, dtype=float)
            return self._map(lambda b, k: b * _bcast(c, k))
        self._check(other)
        a, b = self, other
        val = a.val * b.val
        d1 = d2 = d3 = None
        if self.order >= 1:
            d1 = a.d1 * b.val[..., None] + b.d1 * a.val[..., None]
        if self.order >= 2:
            d2 = mirror(
                a.d2 * b.val[..., None, None]
                + b.d2 * a.val[..., None, None]
                + a.d1[..., :, None] * b.d1[..., None, :]
                + b.d1[..., :, None] * a.d1[..., None, :],
                2,
            )
        if self.order >= 3:
            d3 = mirror(
                a.d3 * b.val[..., None, None, None]
                + b.d3 * a.val[..., None, None, None]
                + _sym3_from_21(a.d2, b.d1)
                + _sym3_from_21(b.d2, a.d1),
                3,
            )
        return ScalarJet(self.order, self.num_vars, val, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ScalarJet):
            return self * (1.0 / np.asarray(other, dtype=float))
        return self * recip(other)


def seed(points, order: int) -> list[ScalarJet]:
    """One jet per coordinate of ``points`` (shape ``(..., v)``), with a unit gradient."""
    p = np.asarray(points, dtype=float)
    v = p.shape[-1]
    jets = []
    for i in range(v):
        j = ScalarJet(order, v, p[..., i].copy())
        if order >= 1:
            j.d1[..., i] = 1.0
        jets.append(j)
    return jets


def constant(value, num_vars: int, order: int) -> ScalarJet:
    """A jet whose derivative blocks all vanish."""
    return ScalarJet(order, num_vars, np.asarray(value, dtype=float).copy())


def compose_univariate(derivs, u: ScalarJet) -> ScalarJet:
    """f(u) by Faa di Bruno to order 3; ``derivs`` is (f(u0), f'(u0), ...), one per order."""
    f = derivs
    val = np.asarray(f[0], dtype=float)
    d1 = d2 = d3 = None
    if u.order >= 1:
        d1 = f[1][..., None] * u.d1
    if u.order >= 2:
        d2 = mirror(f[1][..., None, None] * u.d2
                    + f[2][..., None, None] * (u.d1[..., :, None] * u.d1[..., None, :]), 2)
    if u.order >= 3:
        cube = u.d1[..., :, None, None] * u.d1[..., None, :, None] * u.d1[..., None, None, :]
        d3 = mirror(f[1][..., None, None, None] * u.d3
                    + f[2][..., None, None, None] * _sym3_from_21(u.d2, u.d1)
                    + f[3][..., None, None, None] * cube, 3)
    return ScalarJet(u.order, u.num_vars, val, d1, d2, d3)


def _sin_cos(x):
    return np.sin(x), np.cos(x)


def _sqrt(x):
    r = np.sqrt(x)
    return r, 0.5 / r, -0.25 / (r * x), 0.375 / (r * x * x)


def _recip(x):
    w = 1.0 / x
    return w, -w * w, 2.0 * w**3, -6.0 * w**4


def _atan(x):
    q = 1.0 / (1.0 + x * x)
    return np.arctan(x), q, -2.0 * x * q * q, (6.0 * x * x - 2.0) * q**3


def _elementary(derivs):
    return lambda u: compose_univariate(derivs(u.val)[: u.order + 1], u)


sin = _elementary(lambda x: (lambda s, c: (s, c, -s, -c))(*_sin_cos(x)))
cos = _elementary(lambda x: (lambda s, c: (c, -s, -c, s))(*_sin_cos(x)))
sqrt = _elementary(_sqrt)
recip = _elementary(_recip)
atan = _elementary(_atan)


def derivative(jet: ScalarJet, i: int) -> ScalarJet:
    """The jet of ``d(jet)/dx_i``, one order lower."""
    return ScalarJet(jet.order - 1, jet.num_vars,
                     *(b[(...,) + (i,) + (slice(None),) * k].copy()
                       for k, b in enumerate(jet.blocks()[1:])))


def drop(jet: ScalarJet) -> ScalarJet:
    """The same jet truncated one order lower."""
    return ScalarJet(jet.order - 1, jet.num_vars, *jet.blocks()[:-1])
