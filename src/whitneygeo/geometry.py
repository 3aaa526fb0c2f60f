"""Pointwise extrinsic geometry of an immersed sphere or torus.

Everything is computed in batch form at nodes, the points of the domain, in
two stages by jet order.  Both first move each node's image to the model's
base point by an isometry of the ambient
(:meth:`~whitneygeo.spaceforms.BaseModel.centre`), which keeps every
invariant computed here, so all nodes read the same ambient fields: the
model's fields at the base point, computed once per model and carried with
a batch axis of length 1.  The frame stage (:func:`frame_geometry`) takes
values from order-2 jets of the immersion: enough for the Gauss-route
curvature.  The full pass (:func:`pointwise_geometry`) runs the same stage
on order-3 jets, so scalars and frames also carry their first derivatives
in each node's chart through a minimal "tensor jet" (value plus trailing
derivative axis), which makes the covariant derivative of the second
fundamental form an exact algebraic computation rather than a finite
difference.  The fields at the base point meet the nodes only through
``_pullback``: one matrix product with X1, X2 or X1⊗X1 of all nodes.

The orthonormal frame is a Cholesky factor's inverse applied to the
coordinate basis, differentiated in closed form; both stages take it from
``_frame``.  The full pass differentiates ambient vector fields one way:
the Christoffel symbols are contracted with the frame once, and one
covariant derivative ``nabla_{e_k}`` serves the tangent frame, the normal
part of the second fundamental form and the mean curvature vector.

Index conventions follow the adapted-frame picture: ``h[b, i, j, k]`` is
the second fundamental form paired with the k-th normal frame vector,
totally symmetric in (i, j, k) on Lagrangian/Legendrian images.  The
intrinsic curvature is an operator on the frame's 2-vectors (Besse,
Einstein Manifolds, ch. 1): ``R[b, p, q]`` over the P = n(n-1)/2 pairs
p = (i < j), q = (k < l) in the order of ``np.triu_indices``, paired as
g(R(e_i, e_j) e_l, e_k).  It is symmetric, constant curvature K gives
K times the identity, the sectional curvature of a coordinate plane is a
diagonal entry, and every entry of the n^4 tensor is one of its entries,
its negative or 0.  Ricci, the scalar curvature, the Weyl operator and the
sectional curvatures are all read off it.

Every contraction runs through ``_einsum`` (``jets._einsum``),
``_pullback``'s matrix product or, for the curvature operator, gathers at
the pairs and matrix products with the constant tables of
:func:`_pair_tables`.  Every ``_einsum`` signature follows the kernel's
batch-label contract: the label ``b`` is the node axis, it leads each term
of an operand or output that has one, and it appears nowhere else.  The
kernel runs its pairwise steps as C einsum with the node axis last; its
results, like ``_pullback``'s, are batch-first views of batch-last buffers,
so one contraction's output feeds the next without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import jets
from .jets import _einsum
from .immersions import ImmersionSpec, eval_immersion
from .spaceforms import BaseModel, _metric_bracket

__all__ = [
    "TJ",
    "tj_einsum",
    "PointGeometry",
    "CurvatureData",
    "frame_geometry",
    "pointwise_geometry",
    "gauss_curvature",
    "curvature_data",
    "paper_residuals",
    "structure_checks",
    "vector_field_scalars",
    "gradient_field",
    "sectional_curvatures",
]


class TJ:
    """A batched tensor with its first derivatives in the node chart.

    ``v`` has shape ``(B, ...)``; ``d`` appends one axis of length n (the
    dimension of the domain), or is None where only values are
    computed (the order-2 frame stage).
    """

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __sub__(self, other):
        return TJ(self.v - other.v, None if self.d is None else self.d - other.d)


def tj_einsum(spec: str, *ops) -> TJ:
    """einsum with the product rule; operands are TJ or plain arrays."""
    if not any(isinstance(op, TJ) for op in ops):
        raise ValueError("tj_einsum needs at least one TJ operand")
    ins, out = spec.split("->")
    ins = ins.split(",")
    vals = [op.v if isinstance(op, TJ) else op for op in ops]
    v = _einsum(spec, *vals)
    d = None
    for k, op in enumerate(ops):
        if not isinstance(op, TJ) or op.d is None:
            continue
        mod = ",".join(s + "Z" if i == k else s for i, s in enumerate(ins))
        args = [op.d if i == k else vals[i] for i in range(len(ops))]
        term = _einsum(f"{mod}->{out}Z", *args)
        d = term if d is None else d + term
    return TJ(v, d)


@dataclass
class PointGeometry:
    """All pointwise extrinsic data at a batch of nodes."""

    is_sasakian: bool
    n: int
    g: TJ  # induced metric (B, n, n)
    sqrt_det_g: np.ndarray  # (B,)
    E: TJ  # orthonormal tangent frame, coordinate components (B, n, n)
    F: TJ  # the same frame in ambient components (B, n, m)
    h: TJ  # second fundamental form (B, n, n, n), values only: its d enters through H
    h_xi: np.ndarray | None  # contact-normal component of h (B, n, n)
    H: TJ  # mean curvature components (B, n)
    isotropy: np.ndarray  # per-node isotropy residual (B,)
    c_eff: float  # sectional constant of the ambient on isotropic tangents
    # derivative levels, None after the order-2 frame stage (its TJs have no d)
    X: list | None = None  # immersion blocks X0..X3, shaped (B, m, n, ...)
    A: np.ndarray | None = None  # connection <nabla_{e_k} e_i, e_j> (B,n,n,n)
    hcov: np.ndarray | None = None  # nabla h [b, i, j, k, l] (B, n, n, n, n)
    hcov_xi: np.ndarray | None = None  # contact-normal block of nabla h (B, n, n, n)
    Hcov: np.ndarray | None = None  # [b, i, j] = H^{j}_{,i} (B, n, n)
    Hcov_xi: np.ndarray | None = None  # contact component of nabla-perp H (B, n)


@dataclass
class CurvatureData:
    """Intrinsic curvature through two independent routes, as operators on the
    frame's 2-vectors: ``[b, p, q]`` over the pairs p = (i < j), q = (k < l)."""

    R: np.ndarray  # Gauss-equation route (B, P, P)
    R_metric: np.ndarray | None  # induced-metric-derivative route (full pass)
    Ricci: np.ndarray  # (B, n, n), from the Gauss route
    scalar: np.ndarray  # (B,)
    W: np.ndarray | None  # the Weyl operator (B, P, P) for n >= 4


def _frame(gt: TJ) -> TJ:
    """Orthonormal frame from the coordinate basis, with derivatives.

    Gram-Schmidt on the coordinate basis under g is E = L^-1 with L L^T = g
    (Cholesky), and dE = -Phi(E dg E^T) E, where Phi keeps the lower
    triangle and halves the diagonal (Murray, arXiv:1602.07527).
    """
    n = gt.v.shape[-1]
    L = np.linalg.cholesky(gt.v)
    E = np.linalg.solve(L, np.broadcast_to(np.eye(n), L.shape))
    if gt.d is None:
        return TJ(E, None)
    phi = np.tril(np.ones((n, n))) - 0.5 * np.eye(n)
    P = _einsum("bia,bacz,bjc->bijz", E, gt.d, E) * phi[:, :, None]
    return TJ(E, -_einsum("bijz,bja->biaz", P, E))


#: per n, the pairs of the curvature operator and its Ricci matrix (:func:`_pair_tables`)
_PAIR_CACHE: dict = {}


def _pair_tables(n):
    """The pairs p = (i < j) of the curvature operator as index arrays I, J,
    and its constant Ricci matrix C, (P^2, n^2).

    C carries two maps: Ric = R C, the contraction Ric_jl = sum_i Riem_ijil
    of the flattened operator, and (A ⊙ g) = C A, the Kulkarni-Nomizu product
    A_ik g_jl + A_jl g_ik - A_il g_jk - A_jk g_il of a symmetric n x n
    matrix with the frame metric, read at the pairs.
    """
    if n not in _PAIR_CACHE:
        I, J = np.triu_indices(n, 1)
        d = np.eye(n)
        kn = (np.einsum("ia,kc,jl->ijklac", d, d, d) + np.einsum("ja,lc,ik->ijklac", d, d, d)
              - np.einsum("ia,lc,jk->ijklac", d, d, d) - np.einsum("ja,kc,il->ijklac", d, d, d))
        _PAIR_CACHE[n] = I, J, kn[I, J][:, I, J].reshape(len(I) ** 2, n * n)
    return _PAIR_CACHE[n]


def _compound(A):
    """The second compound of each n x n slice A[b, :, :, m], summed over m:
    sum_m A_ikm A_jlm - A_ilm A_jkm at the pairs p = (i, j), q = (k, l), (B, P, P).

    ``A`` is (B, n, n, M); a matrix takes a trailing axis of length 1.  The
    gathers copy whole node rows of A batch-last, which ``_einsum`` takes
    without another copy.
    """
    I, J, _ = _pair_tables(A.shape[1])
    At = np.moveaxis(A, 0, -1)

    def rows(x, y):  # A[b, x, y, m] at the index arrays x, y, seen batch-first
        return np.moveaxis(At[x, y], -1, 0)

    i, j, k, l = I[:, None], J[:, None], I[None, :], J[None, :]
    return (_einsum("bpqm,bpqm->bpq", rows(i, k), rows(j, l))
            - _einsum("bpqm,bpqm->bpq", rows(i, l), rows(j, k)))


def _ambient_curvature(pg: PointGeometry, fields):
    """The ambient curvature on the lifted frame's pairs, from its closed form.

    Kähler: c (g ⊙ g / 2 + Λ²(gJ) - 2 gJ_ij gJ_lk); Sasakian:
    k1 g ⊙ g / 2 + k2 (Λ²(gphi) + 2 gphi_ji gphi_lk - (eta eta) ⊙ g).
    On the pairs g ⊙ g / 2 is the identity.
    """
    F = pg.F.v
    I, J, C = _pair_tables(pg.n)
    S = fields.Phi0 if pg.is_sasakian else fields.J0
    gS = _einsum("bmn,bim,bjn->bij", fields.G0, _einsum("bmr,bir->bim", S, F), F)
    eye, compound = np.eye(len(I)), _compound(gS[..., None])
    if not pg.is_sasakian:
        return pg.c_eff * (eye + compound - 2.0 * _einsum("bp,bq->bpq", gS[:, I, J], gS[:, J, I]))
    k1 = pg.c_eff  # (c~ + 3)/4
    k2 = k1 - 1.0  # (c~ - 1)/4
    eta = _einsum("bm,bim->bi", fields.Eta0, F)
    eta_g = (_einsum("bi,bk->bik", eta, eta).reshape(len(F), -1) @ C.T).reshape(compound.shape)
    pair = _einsum("bp,bq->bpq", gS[:, J, I], gS[:, J, I])
    return k1 * eye + k2 * (compound + 2.0 * pair - eta_g)


def frame_geometry(model: BaseModel, spec: ImmersionSpec, nodes):
    """The order-2 frame stage at ``nodes``, as :func:`pointwise_geometry` returns
    it but with values only: all that :func:`gauss_curvature` needs."""
    return _geometry(model, spec, nodes, order=2)


def pointwise_geometry(model: BaseModel, spec: ImmersionSpec, t):
    """Evaluate the full extrinsic tensor pipeline at the nodes ``t``.

    ``t`` holds the nodes, sphere points u (B, n+1) or torus angles (B, n).
    On the sphere, derivatives are taken in each node's own chart
    (:func:`whitneygeo.immersions.node_jets`), where the round metric is the
    identity.  Returns ``(PointGeometry, AmbientFields)``; the fields, the
    model's at the base point, are reused by :func:`curvature_data` for the
    ambient term of the Gauss equation.
    """
    return _geometry(model, spec, t, order=3)


def _pairs(X1):
    """X1⊗X1 per node, (B, m, m, n, n), as a batch-first view of a batch-last buffer."""
    last = np.moveaxis(X1, 0, -1)
    return np.moveaxis(last[:, None, :, None] * last[None, :, None, :], -1, 0)


def _pullback(D, legs, k=1):
    """The field ``D`` with its last ``k`` axes contracted with the ``legs`` of each node.

    ``legs`` is X1 (B, m, n), X2 (B, m, n, n) or X1⊗X1 (B, m, m, n, n); the
    result is (B, field axes, leg axes).  A base-point field, one batch entry,
    meets all nodes in one matrix product over the batch-last ``legs``, and
    the result is a batch-first view of a batch-last buffer.
    """
    field = D.shape[1 : D.ndim - k]
    if len(D) > 1:
        f, s, a = "mnlk"[: len(field)], "st"[:k], "acde"[: legs.ndim - 1 - k]
        return _einsum(f"b{f}{s},b{s}{a}->b{f}{a}", D, legs)
    last = np.moveaxis(legs, 0, -1)
    flat = D.reshape(prod(field), -1) @ last.reshape(D.size // prod(field), -1)
    return np.moveaxis(flat.reshape(field + last.shape[k:]), -1, 0)


def _covariant_hessian(fields, X, GX):
    """S = X2 + Gamma(X1, X1), with its derivative X3 + dGamma(X1, X1, X1) +
    Gamma(X2, X1) + Gamma(X1, X2) given ``GX`` = Gamma(., X1); Gamma is
    symmetric, so the last two are one term and its transpose."""
    X1, X2 = X[1:3]
    S = X2 + _einsum("bmnl,bna,blB->bmaB", fields.Gamma0, X1, X1)
    if GX is None:
        return TJ(S, None)
    dG = _pullback(fields.Gamma1.transpose(0, 1, 4, 2, 3), _pairs(X1), 2)  # [b, m, s, a, B]
    mixed = _einsum("bmnB,bnac->bmaBc", GX, X2)
    return TJ(S, X[3] + _einsum("bmsaB,bsc->bmaBc", dG, X1) + mixed + mixed.swapaxes(2, 3))


def _geometry(model, spec, nodes, order):
    """The frame stage from order-``order`` jets; order 3 adds the derivative levels.

    Each node's image is first moved to the base point by an isometry
    (:meth:`~whitneygeo.spaceforms.BaseModel.centre`), so every node reads
    the model's fields there (:meth:`~whitneygeo.spaceforms.BaseModel.base_fields`).
    """
    x = model.centre(eval_immersion(spec, nodes, order=order), spec.n)
    return _extrinsic(model, spec, jets._unpack_blocks(x, spec.n, order), model.base_fields())


def _extrinsic(model, spec, X, fields):
    """The pipeline on the immersion's blocks ``X`` (X0..X2, or X0..X3 for the
    full pass) against ``fields``, order-2 :class:`AmbientFields` along the
    image: at every node, or with one batch entry for all nodes."""
    n = spec.n
    full = len(X) == 4
    # the tangents meet many fields: one batch-last copy, seen batch-first
    X = [X[0], np.moveaxis(np.ascontiguousarray(np.moveaxis(X[1], 0, -1)), -1, 0), *X[2:]]
    X1, X2 = X[1:3]

    # chart fields along the image, with node-chart derivatives in the full pass
    def along(D1):
        return _pullback(D1, X1) if full else None

    Gt = TJ(fields.G0, along(fields.G1))
    GX = along(fields.Gamma0)  # Gamma(., X1)
    Tt = TJ(X1, X2 if full else None)
    # induced metric
    gt = tj_einsum("bmn,bma,bnB->baB", Gt, Tt, Tt)
    det = np.linalg.det(gt.v)
    if np.any(det <= 0):
        raise RuntimeError(
            f"degenerate induced metric (min det {det.min():.3e}); "
            "immersion fails the rank check"
        )
    Et = _frame(gt)
    Ft = tj_einsum("bia,bma->bim", Et, Tt)

    # the normal frame J e_i (phi e_i), and the isotropy residual
    if model.is_sasakian:
        Nt = tj_einsum("bmn,bin->bim", TJ(fields.Phi0, along(fields.Phi1)), Ft)
        Xit, c_eff = TJ(fields.Xi0, along(fields.Xi1)), (model.c_tilde + 3.0) / 4.0
    else:
        Nt = tj_einsum("bmn,bin->bim", TJ(fields.J0, along(fields.J1)), Ft)
        Xit, c_eff = None, float(model.c)
    iso = np.max(np.abs(_einsum("bmn,bim,bjn->bij", Gt.v, Nt.v, Ft.v)), axis=(1, 2))
    if model.is_sasakian:
        iso = np.maximum(np.abs(_einsum("bm,bim->bi", fields.Eta0, Ft.v)).max(axis=1), iso)

    # coordinate second fundamental form (ambient covariant second derivative)
    St = _covariant_hessian(fields, X, GX)
    Wt = tj_einsum("bmaB,bia,bjB->bijm", St, Et, Et)
    h = _einsum("bmn,bijm,bkn->bijk", Gt.v, Wt.v, Nt.v)
    h_xi = None
    if model.is_sasakian:
        h_xi = _einsum("bmn,bijm,bn->bij", Gt.v, Wt.v, Xit.v)
    # mean curvature; h's derivative is read only through it
    Ht = TJ((1.0 / n) * _einsum("biik->bk", h), None)
    if full:
        Ht.d = (1.0 / n) * tj_einsum("bmn,bm,bkn->bk", Gt, tj_einsum("biim->bm", Wt), Nt).d

    pg = PointGeometry(
        is_sasakian=model.is_sasakian, n=n, g=gt, sqrt_det_g=np.sqrt(det), E=Et, F=Ft,
        h=TJ(h, None), h_xi=h_xi, H=Ht, isotropy=iso, c_eff=c_eff,
    )
    if not full:
        return pg, fields

    pg.X = X

    # the ambient covariant derivative along the frame, nabla_{e_k} V, with
    # k the first axis after the batch; Gamma(X1, .) is GX, Gamma being symmetric
    gk = _einsum("bkc,bmlc->bkml", Et.v, GX)

    def nabla(Vt):
        s = "ij"[: Vt.v.ndim - 2]  # V's frame indices, before its ambient one
        return (_einsum(f"bkc,b{s}mc->bk{s}m", Et.v, Vt.d)
                + _einsum(f"bkml,b{s}l->bk{s}m", gk, Vt.v))

    # connection coefficients and the normal projection of W
    pg.A = A = _einsum("bmn,bkim,bjn->bkij", Gt.v, nabla(Ft), Ft.v)
    tang = tj_einsum("bmn,bijm,bkn->bijk", Gt, Wt, Ft)
    DV = nabla(Wt - tj_einsum("bijk,bkm->bijm", tang, Ft))
    raw = _einsum("bmn,bkijm,bln->bijkl", Gt.v, DV, Nt.v)
    corr = _einsum("bkim,bmjl->bijkl", A, h) + _einsum("bkjm,biml->bijkl", A, h)
    pg.hcov = raw - corr
    if model.is_sasakian:
        raw_xi = _einsum("bmn,bkijm,bn->bijk", Gt.v, DV, Xit.v)
        corr_xi = _einsum("bkim,bmj->bijk", A, h_xi) + _einsum("bkjm,bim->bijk", A, h_xi)
        pg.hcov_xi = raw_xi - corr_xi

    # normal derivatives of the mean curvature
    DH = nabla(tj_einsum("bk,bkm->bm", Ht, Nt))
    pg.Hcov = _einsum("bim,bmn,bjn->bij", DH, Gt.v, Nt.v)
    if model.is_sasakian:
        pg.Hcov_xi = _einsum("bim,bmn,bn->bi", DH, Gt.v, Xit.v)
    return pg, fields


def gauss_curvature(pg: PointGeometry, fields) -> CurvatureData:
    """Intrinsic curvature by the Gauss equation R = Rbar + sum_m Λ²(h_m), from
    values only (:func:`frame_geometry` suffices); ``R_metric`` is None."""
    n, B = pg.n, len(pg.h.v)
    C = _pair_tables(n)[2]
    R = _ambient_curvature(pg, fields) + _compound(pg.h.v)
    Ricci = (R.reshape(B, -1) @ C).reshape(B, n, n)
    scalar = 2.0 * np.trace(R, axis1=1, axis2=2)
    W = None
    if n >= 4:
        ric_g = (Ricci.reshape(B, -1) @ C.T).reshape(R.shape)  # Ric ⊙ g
        gg = np.eye(R.shape[-1]) / ((n - 1.0) * (n - 2.0))  # g ⊙ g / (2 (n-1)(n-2))
        W = R - ric_g / (n - 2.0) + scalar[:, None, None] * gg
    return CurvatureData(R=R, R_metric=None, Ricci=Ricci, scalar=scalar, W=W)


def _induced_metric_hessian(pg: PointGeometry, fields) -> np.ndarray:
    """Second node-chart derivatives of the induced metric g (B, n, n, n, n), full pass only.

    d_c d_d G(X1_A, X1_B) is Q2(X1_A, X1_B), Q2 = G2(X1_c, X1_d) + G1(X2_cd),
    plus terms in pairs that swap A and B, formed once as Y: Q2(X1, X1) + Y + Y^T.
    """
    _, X1, X2, X3 = pg.X
    XX = _pairs(X1)
    Q2 = _pullback(fields.G2, XX, 2) + _pullback(fields.G1, X2)
    Y = _einsum("bmA,bmBcd->bABcd", _pullback(fields.G0, X1), X3) + _einsum(
        "bmAc,bmBd->bABcd", X2, _pullback(fields.G0, X2))
    U = _einsum("bmBc,bmAd->bABcd", _pullback(fields.G1, XX, 2), X2)  # G1(., X1_B, X1_c)
    Y += U + U.swapaxes(3, 4)
    return _einsum("bmncd,bmA,bnB->bABcd", Q2, X1, X1) + Y + Y.swapaxes(1, 2)


def _metric_curvature(pg: PointGeometry, fields) -> np.ndarray:
    """The curvature operator from the induced metric's node-chart derivatives, full pass only.

    In coordinates R_fcae = (H_fe,ac + H_ac,ef - H_ec,af - H_fa,ec) / 2
    + Gamma_{d,ef} Gamma^d_ac - Gamma_{d,af} Gamma^d_ec, with H the induced
    metric's Hessian, taken at the pairs (a < e, f < c) and framed as
    Λ²E R Λ²E^T.
    """
    I, J, _ = _pair_tables(pg.n)
    a, e, f, c = I[:, None], J[:, None], I[None, :], J[None, :]
    H = _induced_metric_hessian(pg, fields)  # [b, A, B, c, d] = d_c d_d g_AB
    first = 0.5 * _metric_bracket(pg.g.d)  # Gamma_{d,ef} as [b, d, e, f]
    second = _einsum("bid,bik,bkef->bdef", pg.E.v, pg.E.v, first)  # g^-1 = E^T E
    Rc = (0.5 * (H[:, f, e, a, c] + H[:, a, c, e, f] - H[:, e, c, a, f] - H[:, f, a, e, c])
          + _einsum("bdpq,bdpq->bpq", first[:, :, e, f], second[:, :, a, c])
          - _einsum("bdpq,bdpq->bpq", first[:, :, a, f], second[:, :, e, c]))
    L = _compound(pg.E.v[..., None])  # Λ²E
    return L @ Rc @ L.transpose(0, 2, 1)


def curvature_data(pg: PointGeometry, fields) -> CurvatureData:
    """Intrinsic curvature by the Gauss equation and by metric derivatives."""
    cd = gauss_curvature(pg, fields)
    cd.R_metric = _metric_curvature(pg, fields)
    return cd


def vector_field_scalars(pg: PointGeometry, cd: CurvatureData, Y: TJ) -> dict:
    """Divergence, gradient norms, Lie derivative and the divergence-identity
    combination for a tangent field given by frame components."""
    gradY = _einsum("bia,bka->bik", pg.E.v, Y.d)  # e_i(Y_k)
    nablaY = gradY + _einsum("bj,bijk->bik", Y.v, pg.A)
    divY = _einsum("bii->b", nablaY)
    nablaY2 = _einsum("bik,bik->b", nablaY, nablaY)
    lie = nablaY + nablaY.transpose(0, 2, 1)
    lie2 = _einsum("bik,bik->b", lie, lie)
    ricYY = _einsum("bij,bi,bj->b", cd.Ricci, Y.v, Y.v)
    return {
        "nablaY": nablaY,
        "div": divY,
        "nabla_norm2": nablaY2,
        "lie_norm2": lie2,
        "ric_YY": ricYY,
        "yano_integrand": ricYY + 0.5 * lie2 - nablaY2 - divY**2,
        "conformal_gap": nablaY2 - divY**2 / pg.n,
    }


def gradient_field(pg: PointGeometry, f) -> TJ:
    """Frame components (with derivatives) of grad f from its packed order-2 jet."""
    _, d1, d2 = jets._unpack_blocks(f, pg.n, 2)
    v = _einsum("bka,ba->bk", pg.E.v, d1)
    d = _einsum("bkac,ba->bkc", pg.E.d, d1) + _einsum("bka,bac->bkc", pg.E.v, d2)
    return TJ(v, d)


def paper_residuals(pg: PointGeometry, cd: CurvatureData) -> dict:
    """Every identity/inequality of the target theorems as per-node scalars."""
    n = pg.n
    delta = np.eye(n)
    H = pg.H.v
    coef = n / (n + 2.0)
    model_h = coef * (
        _einsum("ij,bk->bijk", delta, H)
        + _einsum("jk,bi->bijk", delta, H)
        + _einsum("ik,bj->bijk", delta, H)
    )
    whitney = _sup(pg.h.v - model_h)

    h_norm2 = _einsum("bijk,bijk->b", pg.h.v, pg.h.v)
    H_norm2 = _einsum("bk,bk->b", H, H)
    nabla_xi_h2 = _einsum("bijkl,bijkl->b", pg.hcov, pg.hcov)
    nabla_h2 = nabla_xi_h2.copy()
    if pg.is_sasakian:
        nabla_h2 = nabla_h2 + _einsum("bijk,bijk->b", pg.hcov_xi, pg.hcov_xi)
    nablaperpH2 = _einsum("bij,bij->b", pg.Hcov, pg.Hcov)

    scalar_rel = np.abs(
        H_norm2 - (n + 2.0) / (n**2 * (n - 1.0)) * cd.scalar + (n + 2.0) / n * pg.c_eff
    )

    Y = TJ(-pg.H.v, -pg.H.d)  # frame components of J H (resp. phi H)
    vf = vector_field_scalars(pg, cd, Y)

    main_h2 = nabla_xi_h2 if pg.is_sasakian else nabla_h2
    gap_32 = main_h2 - 3.0 * n**2 / (n + 2.0) * nablaperpH2
    identity_34 = vf["nabla_norm2"] - nablaperpH2
    identity_35 = vf["lie_norm2"] - 4.0 * nablaperpH2

    eq_model = coef * (
        _einsum("bil,jk->bijkl", pg.Hcov, delta)
        + _einsum("bjl,ik->bijkl", pg.Hcov, delta)
        + _einsum("bkl,ij->bijkl", pg.Hcov, delta)
    )
    eq_residual = _sup(pg.hcov - eq_model)

    return {
        "whitney_residual": whitney,
        "scalar_relation_residual": scalar_rel,
        "h_norm2": h_norm2,
        "H_norm2": H_norm2,
        "nabla_h_norm2": nabla_h2,
        "nabla_xi_h_norm2": nabla_xi_h2,
        "nabla_perp_H_norm2": nablaperpH2,
        "ric_JH_JH": vf["ric_YY"],
        "div_JH": vf["div"],
        "nabla_JH_norm2": vf["nabla_norm2"],
        "lie_JH_g_norm2": vf["lie_norm2"],
        "lemma_gap_31": vf["conformal_gap"],
        "lemma_gap_32": gap_32,
        "identity_34": identity_34,
        "identity_35": identity_35,
        "equality_condition_residual": eq_residual,
        "yano_integrand": vf["yano_integrand"],
        "scalar_curvature": cd.scalar,
    }


def _sup(t):
    """max |t| per node, over every axis after the batch."""
    return np.max(np.abs(t), axis=tuple(range(1, t.ndim)))


def structure_checks(pg: PointGeometry, cd: CurvatureData) -> dict:
    """Frame/structure-equation residuals (cubic symmetry, Codazzi, ...)."""
    h, hc = pg.h.v, pg.hcov
    codazzi = ((0, 1, 3, 2, 4), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4))
    out = {
        "isotropy": pg.isotropy,
        "cubic_symmetry": np.maximum(_sup(h - h.transpose(0, 2, 1, 3)),
                                     _sup(h - h.transpose(0, 3, 2, 1))),
        "codazzi_total_symmetry": np.max([_sup(hc - hc.transpose(p)) for p in codazzi], axis=0),
        "mean_curvature_symmetry": _sup(pg.Hcov - pg.Hcov.transpose(0, 2, 1)),
        "gauss_cross_check": _sup(cd.R - cd.R_metric) / np.maximum(_sup(cd.R), 1.0),
    }
    if pg.is_sasakian:
        out["h_contact_component"] = _sup(pg.h_xi)
        out["hcov_xi_vs_h"] = _sup(pg.hcov_xi - pg.h.v)
        out["H_contact_derivative"] = _sup(pg.Hcov_xi - pg.H.v)
    return out


def sectional_curvatures(cd: CurvatureData, V: np.ndarray, W: np.ndarray):
    """Sectional curvature of span(V, W) per node; frame components (B, Q, n).

    It is w^T R w / w^T w with the 2-vector w_p = V_i W_j - V_j W_i, p = (i, j).
    """
    I, J, _ = _pair_tables(V.shape[-1])
    w = V[..., I] * W[..., J] - V[..., J] * W[..., I]  # (B, Q, P)
    Rw = _einsum("bpr,bqr->bqp", cd.R, w)
    return _einsum("bqp,bqp->bq", w, Rw) / _einsum("bqp,bqp->bq", w, w)
