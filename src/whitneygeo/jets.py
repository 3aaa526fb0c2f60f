"""Truncated multivariate Taylor arithmetic (jets) up to third order.

A jet holds the value and the raw partial derivatives (not the
factorial-divided Taylor coefficients) of a quantity with respect to ``v``
independent variables, up to a total order <= 3.  Its arithmetic is exact
at the truncation order, so feeding seeded jets through an analytic formula
yields the exact derivatives of that formula at the base point.

There is one algebra, on packed arrays: a leading coefficient axis stores
each distinct partial once (:func:`_packed_basis`), the axes after it carry
a batch of evaluation points and any tensor shape, and the entries may be
real or complex.  :func:`_packed_mul` is the product rule and
:func:`_packed_compose` the one chain rule, whose univariate outer
functions are exp and 1/x (:func:`_table`): the torus seeds the cos
and sin of its angles directly (:func:`_seed_angles`).  :class:`Jet` and
:func:`compose` are a full-block face on them, with one dense derivative
block per order, kept for the micro-benchmarks in ``bench/micro.py``.  The
module ends with ``_einsum``, the planned batched contraction kernel that
``geometry`` and ``spaceforms`` contract through.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

__all__ = ["Jet", "compose"]

# Reciprocal of a jet value this close to zero is refused rather than
# letting derivatives blow past float range.
DIV_FLOOR = 1e-12

_LEIBNIZ_CACHE: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}


class Jet:
    """One quantity's value and full derivative blocks, for a batch of points.

    Parameters
    ----------
    order : int
        Truncation order, in ``{0, 1, 2, 3}``.
    num_vars : int
        Number of independent variables.
    val, d1, d2, d3 : ndarray
        Batched coefficient blocks; ``d1`` has trailing shape ``(num_vars,)``,
        ``d2`` ``(num_vars, num_vars)`` and so on, symmetric in those axes.
        Missing blocks up to ``order`` are zero; blocks above it are ``None``.
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
        given = (d1, d2, d3)
        for k in (1, 2, 3):
            blk = None
            if k <= order:
                blk = given[k - 1]
                if blk is None:
                    blk = np.zeros(self.val.shape + (num_vars,) * k)
            setattr(self, f"d{k}", blk)

    def _packed(self, order: int) -> np.ndarray:
        """The packed array, with a batch axis of length 1 for a single point."""
        packed = _pack_blocks([self.val, self.d1, self.d2, self.d3][: order + 1], self.num_vars)
        return packed[:, None] if self.val.ndim == 0 else packed

    def __mul__(self, other: "Jet") -> "Jet":
        if not isinstance(other, Jet):
            return NotImplemented
        if (self.order, self.num_vars) != (other.order, other.num_vars):
            raise ValueError(
                "jet shape mismatch: "
                f"({self.order}, {self.num_vars}) vs ({other.order}, {other.num_vars})"
            )
        v, order = self.num_vars, self.order
        out = _packed_mul(self._packed(order), other._packed(order), _leibniz_table(v, order))
        out = out.reshape((len(out),) + np.broadcast_shapes(self.val.shape, other.val.shape))
        return Jet(order, v, *_unpack_blocks(out, v, order))


def compose(f: Jet, xs: list[Jet]) -> Jet:
    """Multivariate chain rule: the jet of ``f(x_1(t), ..., x_m(t))``.

    ``f`` is a jet in ``m`` variables (the derivatives of the outer function
    at the inner values) and ``xs`` are ``m`` jets in a common set of inner
    variables.  The result is truncated to ``min(f.order, xs[0].order)``.
    """
    m = f.num_vars
    if len(xs) != m:
        raise ValueError(f"need {m} inner jets, got {len(xs)}")
    v = xs[0].num_vars
    if any((x.order, x.num_vars) != (xs[0].order, v) for x in xs):
        raise ValueError("inner jets must share order and num_vars")
    order = min(f.order, xs[0].order)
    out = _packed_compose(f._packed(order), [x._packed(order) for x in xs],
                          _leibniz_table(v, order))
    out = out.reshape((len(out),) + np.broadcast_shapes(f.val.shape, *(x.val.shape for x in xs)))
    return Jet(order, v, *_unpack_blocks(out, v, order))


def _table(x: np.ndarray, kind: str, order: int) -> np.ndarray:
    """An elementary function at ``x`` as a packed jet in one variable: row k is its k-th derivative.

    ``kind`` is one of ``exp, recip``.
    """
    if kind == "exp":
        e = np.exp(x)
        derivs = (e, e, e, e)
    elif kind == "recip":
        if np.any(np.abs(x) < DIV_FLOOR):
            raise ZeroDivisionError(
                "jet reciprocal: value within %.1e of zero" % DIV_FLOOR
            )
        w = 1.0 / x
        derivs = (w, -w * w, 2.0 * w**3, -6.0 * w**4)
    else:
        raise ValueError(f"unknown elementary kind {kind!r}")
    return np.stack(derivs[: order + 1])


# -- packed coefficient arrays -------------------------------------------------
#
# A packed array holds jets of one order and variable count in one block
# whose leading coefficient axis stores each distinct partial once, in the
# degree-sorted order of _packed_basis, so its first rows are its truncation
# to a lower order.  The immersions and the ambient models use (coefficients,
# batch, tensor axes), where a product of matrix jets is a stacked matmul.
# The kernels allocate their outputs with the inputs' dtype, so complex jets
# are complex128 packed arrays.


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


def _partition_table(v: int, order: int) -> tuple[list, list]:
    """The chain rule's terms beyond the first derivative on the packed basis.

    The partial of f(x) over the index multiset a is the sum, over the set
    partitions of the positions of a, of D^k f applied to the partials of x
    over the blocks, k being the number of blocks (Faa di Bruno's formula;
    Constantine & Savits, Trans. AMS 348, 1996).  Up to order 3 a partition
    into two blocks is a singleton {i} and the rest, so it is returned as
    (output, i, rest's row, weight), the weight counting the partitions that
    give the same pair (for a two-index row, the block holding its first
    index is the singleton); the one partition into three singletons of a
    three-index row is (output, i, j, k).
    """
    basis = _packed_basis(v, order)
    row = {idx: r for r, idx in enumerate(basis)}
    pairs, triples = [], []
    for out, a in enumerate(basis):
        if len(a) == 2:
            pairs.append((out, a[0], row[a[1:]], 1))
        elif len(a) == 3:
            splits = Counter((a[p], row[a[:p] + a[p + 1 :]]) for p in range(3))
            pairs += [(out, i, rest, w) for (i, rest), w in splits.items()]
            triples.append((out, *a))
    return pairs, triples


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


def _check_layout(*packed):
    """Refuse a packed array without a batch axis after its coefficient axis."""
    for p in packed:
        if np.ndim(p) < 2:
            raise ValueError(
                f"packed jets are laid out (coefficients, batch, ...), got shape "
                f"{np.shape(p)}; give a single point a batch axis of length 1"
            )


def _packed_mul(a: np.ndarray, b: np.ndarray, table, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """The packed broadcasting product ``a * b``; ``out`` must not overlap ``a``, ``b``.

    ``scratch`` is :func:`_leibniz`'s term buffer, shaped like ``out[0]``.
    """
    _check_layout(a, b)
    if out is None:
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        out = np.empty((table[-1][0] + 1,) + shape, np.result_type(a, b))
    return _leibniz(np.multiply, a, b, table, out, scratch)


def _packed_matmul(a: np.ndarray, b: np.ndarray, table) -> np.ndarray:
    """The packed matrix product ``a @ b`` (last two axes) to the table's order."""
    shape = np.broadcast_shapes(a.shape[1:-2], b.shape[1:-2]) + (a.shape[-2], b.shape[-1])
    out = np.empty((table[-1][0] + 1,) + shape, np.result_type(a, b))
    return _leibniz(np.matmul, a, b, table, out)


def _packed_compose(f: np.ndarray, xs, table) -> np.ndarray:
    """The packed jet of f(x_1, ..., x_m): the sum over alpha of d^alpha f / alpha! delta^alpha.

    ``f`` is a packed jet in the m = ``len(xs)`` outer variables, holding the
    outer function's partials at the inner values, to at most the table's
    order.  ``xs`` are packed inner jets in the table's variables, and
    delta_i is x_i less its value.  Each monomial delta^alpha is its parent
    delta^(alpha - e_last) times delta_last, in the basis order of ``f``
    (Griewank & Walther, "Evaluating Derivatives", 2nd ed., SIAM 2008).
    With one outer variable this is f(u0) + sum over k of f^(k)(u0)/k! du^k.
    """
    _check_layout(f, *xs)
    rows = table[-1][0] + 1
    deltas = []
    for x in xs:
        delta = x[:rows].copy()
        delta[0] = 0.0
        deltas.append(delta)
    shape = np.broadcast_shapes(f.shape[1:], *(x.shape[1:] for x in xs))
    out = np.zeros((rows,) + shape, np.result_type(f, *xs))
    out[0] = f[0]
    m, order = len(xs), _packed_order(f, len(xs))
    powers = {}  # the monomials that are still parents
    for r, idx in enumerate(_packed_basis(m, order)[1:], 1):
        parent, last = idx[:-1], idx[-1]
        if not parent:
            power = deltas[last]
        else:
            power = _packed_mul(powers[parent], deltas[last], table)
            if last == m - 1:  # its last child: free it, as the one-variable series always did
                del powers[parent]
        if len(idx) < order:
            powers[idx] = power
        weight = prod(factorial(k) for k in Counter(idx).values())
        out[: len(power)] += (f[r] / weight) * power
    return out


class _Ops:
    """Packed jet arithmetic in ``v`` variables to one ``order``, real or complex."""

    def __init__(self, v: int, order: int):
        self.v = v
        self.order = order
        self.table = _leibniz_table(v, order)
        self.rows = self.table[-1][0] + 1  # coefficient rows of a jet to this order

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _packed_mul(a, b, self.table)

    def fn(self, kind: str, u: np.ndarray) -> np.ndarray:
        """The elementary function ``kind`` of :func:`_table`, exp or recip, of ``u``."""
        return _packed_compose(_table(u[0], kind, self.order), [u], self.table)


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


def _packed_gradient(packed: np.ndarray, v: int) -> np.ndarray:
    """The partials d_a of every entry, one order lower, as a new last axis: a row gather."""
    order = _packed_order(packed, v)
    row = {idx: i for i, idx in enumerate(_packed_basis(v, order))}
    rows = [
        [row[tuple(sorted(idx + (a,)))] for a in range(v)]
        for idx in _packed_basis(v, order - 1)
    ]
    return np.moveaxis(packed[np.array(rows)], 1, -1)


def _packed_fiber(alpha: np.ndarray, x: np.ndarray, ops: _Ops) -> np.ndarray:
    """The packed jets of the function f with value 0 and df = alpha . dx, (coefficients, B).

    ``x`` holds packed jets (coefficients, B, w) to ``ops.order`` and
    ``alpha`` packed jets of the same width to at least ``ops.order`` - 1,
    all that is read.  The partials are d_a f = sum_j alpha_j d_a x_j, one
    order lower, and the partial over the sorted indices (a, rest) is row
    rest of d_a f.
    """
    f = np.zeros(x.shape[:2], np.result_type(alpha, x))
    if ops.order:
        dx = _packed_gradient(x, ops.v)
        low = _leibniz_table(ops.v, ops.order - 1)
        df = _packed_matmul(alpha[: len(dx), :, None, :], dx, low)[..., 0, :]
        row = {idx: r for r, idx in enumerate(_packed_basis(ops.v, ops.order - 1))}
        partials = _packed_basis(ops.v, ops.order)[1:]
        f[1:] = df[[row[idx[1:]] for idx in partials], :, [idx[0] for idx in partials]]
    return f


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
# geometry and spaceforms contract per-node tensors of a few entries
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
    batch-last operands, its non-batch output shape and which of its
    operands carry the batch axis, and ``path`` is None.  On numpy's route
    ``steps`` is None, ``path`` is numpy's path and the transposes are empty.
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
                      tuple(dims[c] for c in result.rstrip("b")),
                      tuple(t.endswith("b") for t in taken)))
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
    operand goes straight to C einsum.  A batch axis of length 1 broadcasts
    against the others, as numpy's does: a field that is the same at every
    node, such as the ambient fields at the base point, keeps one.
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
    ops = [op if axes is None else np.ascontiguousarray(op.transpose(axes))
           for op, axes in zip(operands, plan.to_last)]
    for positions, step, shape, batched in plan.steps:
        taken = [ops.pop(p) for p in positions]
        batch = max(op.shape[-1] if bt else 1 for op, bt in zip(taken, batched))
        out = np.empty(shape + (batch,) * step.endswith("b"), np.result_type(*taken))
        ops.append(np.einsum(step, *taken, out=out))
    return ops[0].transpose(plan.back)
