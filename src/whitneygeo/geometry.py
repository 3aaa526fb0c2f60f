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
difference.  The fields' chart derivatives at the base point enter only
contracted with the immersion's tangents X1 (``_along``).

The orthonormal frame is a Cholesky factor's inverse applied to the
coordinate basis, differentiated in closed form; both stages take it from
``_frame``.  The full pass differentiates ambient vector fields one way:
the Christoffel symbols are contracted with the frame once, and one
covariant derivative ``nabla_{e_k}`` serves the tangent frame, the normal
part of the second fundamental form and the mean curvature vector.

Index conventions follow the adapted-frame picture: ``h[b, i, j, k]`` is
the second fundamental form paired with the k-th normal frame vector,
totally symmetric in (i, j, k) on Lagrangian/Legendrian images;
``Riem[b, i, j, k, l]`` is the intrinsic curvature paired as
g(R(e_i, e_j) e_l, e_k), so constant curvature K gives
K (d_ik d_jl - d_il d_jk).

Every contraction runs through ``_einsum`` (``jets._einsum``), and every
signature follows its batch-label contract: the label ``b`` is the node
axis, it leads each term of an operand or output that has one, and it
appears nowhere else.  The kernel plans each signature once and runs its
pairwise steps as C einsum with the node axis last; its results are
batch-first views of batch-last buffers, so one contraction's output feeds
the next without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import _einsum
from .immersions import ImmersionSpec, eval_immersion
from .spaceforms import BaseModel, riemann_from_metric

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

    def __add__(self, other):
        return TJ(self.v + other.v, None if self.d is None else self.d + other.d)

    def __sub__(self, other):
        return TJ(self.v - other.v, None if self.d is None else self.d - other.d)

    def scaled(self, c):
        return TJ(c * self.v, None if self.d is None else c * self.d)


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

    spec: ImmersionSpec
    is_sasakian: bool
    n: int
    g: TJ  # induced metric (B, n, n)
    sqrt_det_g: np.ndarray  # (B,)
    E: TJ  # orthonormal tangent frame, coordinate components (B, n, n)
    F: TJ  # the same frame in ambient components (B, n, m)
    N: TJ  # normal frame J e_i / phi e_i, ambient components (B, n, m)
    Xi: TJ | None  # unit contact normal along the image (Sasakian); its value is the base point's
    h: TJ  # second fundamental form components (B, n, n, n)
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
    """Intrinsic curvature through two independent routes."""

    Riem: np.ndarray  # Gauss-equation route, frame components (B,n,n,n,n)
    Riem_metric: np.ndarray | None  # induced-metric-derivative route (full pass)
    Ricci: np.ndarray  # (B, n, n), from the Gauss route
    scalar: np.ndarray  # (B,)
    Weyl: np.ndarray | None  # (B,n,n,n,n) for n >= 4


def _second_derivative_of_induced_metric(G0x, G1x, G2X, X1, X2, X3):
    """d_c d_d g_AB of the induced metric; ``G2X[b, m, n, s, d] = d_s d_{X_d} g_mn``."""
    g2 = _einsum("bmnsd,bsc->bmncd", G2X, X1)  # d_{X_c} d_{X_d} g_mn
    g2 = _einsum("bmncd,bmA,bnB->bABcd", g2, X1, X1)
    g2 += _einsum("bmns,bscd,bmA,bnB->bABcd", G1x, X2, X1, X1)
    g2 += _einsum("bmns,bsc,bmAd,bnB->bABcd", G1x, X1, X2, X1)
    g2 += _einsum("bmns,bsc,bmA,bnBd->bABcd", G1x, X1, X1, X2)
    g2 += _einsum("bmns,bsd,bmAc,bnB->bABcd", G1x, X1, X2, X1)
    g2 += _einsum("bmns,bsd,bmA,bnBc->bABcd", G1x, X1, X1, X2)
    g2 += _einsum("bmn,bmAcd,bnB->bABcd", G0x, X3, X1)
    g2 += _einsum("bmn,bmAc,bnBd->bABcd", G0x, X2, X2)
    g2 += _einsum("bmn,bmAd,bnBc->bABcd", G0x, X2, X2)
    g2 += _einsum("bmn,bmA,bnBcd->bABcd", G0x, X1, X3)
    return g2


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


def _ambient_frame_curvature(pg: PointGeometry, fields):
    """Closed-form ambient curvature paired on the lifted frame."""
    F = pg.F.v
    n = pg.n
    B = F.shape[0]
    delta = np.eye(n)
    if not pg.is_sasakian:
        c = pg.c_eff
        gJ = _einsum("bmn,bim,bjn->bij", fields.G0,
                       _einsum("bmr,bir->bim", fields.J0, F), F)
        Rbar = (
            _einsum("ik,jl->ijkl", delta, delta)[None]
            - _einsum("il,jk->ijkl", delta, delta)[None]
            + _einsum("bjl,bik->bijkl", gJ, gJ)
            - _einsum("bil,bjk->bijkl", gJ, gJ)
            - 2.0 * _einsum("bij,blk->bijkl", gJ, gJ)
        )
        return c * Rbar
    k1 = pg.c_eff  # (c~ + 3)/4
    k2 = k1 - 1.0  # (c~ - 1)/4
    gphi = _einsum("bmn,bim,bjn->bij", fields.G0,
                     _einsum("bmr,bir->bim", fields.Phi0, F), F)
    eta = _einsum("bm,bim->bi", fields.Eta0, F)
    sect = (
        _einsum("ik,jl->ijkl", delta, delta)[None]
        - _einsum("il,jk->ijkl", delta, delta)[None]
    ) * np.ones((B, 1, 1, 1, 1))
    struct = (
        _einsum("bi,bl,jk->bijkl", eta, eta, delta)
        - _einsum("bj,bl,ik->bijkl", eta, eta, delta)
        + _einsum("il,bj,bk->bijkl", delta, eta, eta)
        - _einsum("jl,bi,bk->bijkl", delta, eta, eta)
        + _einsum("bjl,bik->bijkl", gphi, gphi)
        - _einsum("bil,bjk->bijkl", gphi, gphi)
        + 2.0 * _einsum("bji,blk->bijkl", gphi, gphi)
    )
    return k1 * sect + k2 * struct


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


def _along(D, X1):
    """Chart derivatives ``D`` (last axis) of a field along the tangents ``X1``: its
    node-chart derivatives, with c a new last axis.

    A ``D`` with one batch entry is the same at every node, and is contracted
    without its batch axis, as one matrix product.
    """
    s = "mnlk"[: D.ndim - 2]
    if len(D) == 1:
        return _einsum(f"{s}a,bac->b{s}c", D[0], X1)
    return _einsum(f"b{s}a,bac->b{s}c", D, X1)


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
    X1, X2 = X[1:3]

    # chart fields restricted to the image, with node-chart derivatives in the
    # full pass
    def along(D1):
        return _along(D1, X1) if full else None

    Gt = TJ(fields.G0, along(fields.G1))
    gammat = TJ(fields.Gamma0, along(fields.Gamma1))
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

    if not model.is_sasakian:
        Jt = TJ(fields.J0, along(fields.J1))
        Nt = tj_einsum("bmn,bin->bim", Jt, Ft)
        Xit = None
        c_eff = float(model.c)
        iso = np.max(np.abs(tj_einsum("bmn,bim,bjn->bij", Gt, Nt, Ft).v), axis=(1, 2))
    else:
        Phit = TJ(fields.Phi0, along(fields.Phi1))
        Nt = tj_einsum("bmn,bin->bim", Phit, Ft)
        Xit = TJ(fields.Xi0, along(fields.Xi1))
        c_eff = (model.c_tilde + 3.0) / 4.0
        eta_res = np.abs(_einsum("bm,bim->bi", fields.Eta0, Ft.v))
        phi_res = np.abs(tj_einsum("bmn,bim,bjn->bij", Gt, Nt, Ft).v)
        iso = np.maximum(eta_res.max(axis=1), phi_res.max(axis=(1, 2)))

    # coordinate second fundamental form (ambient covariant second derivative)
    St = TJ(X2, X[3] if full else None) + tj_einsum("bmnl,bna,blB->bmaB", gammat, Tt, Tt)
    Wt = tj_einsum("bmaB,bia,bjB->bijm", St, Et, Et)
    ht = tj_einsum("bmn,bijm,bkn->bijk", Gt, Wt, Nt)
    h_xi = None
    if model.is_sasakian:
        h_xi = tj_einsum("bmn,bijm,bn->bij", Gt, Wt, Xit).v
    Ht = tj_einsum("biik->bk", ht).scaled(1.0 / n)  # mean curvature

    pg = PointGeometry(
        spec=spec, is_sasakian=model.is_sasakian, n=n, g=gt,
        sqrt_det_g=np.sqrt(det), E=Et, F=Ft, N=Nt, Xi=Xit, h=ht, h_xi=h_xi, H=Ht,
        isotropy=iso, c_eff=c_eff,
    )
    if not full:
        return pg, fields

    pg.X = X

    # the ambient covariant derivative along the frame, nabla_{e_k} V, with
    # k the first axis after the batch
    gk = _einsum("bkc,bmnl,bnc->bkml", Et.v, gammat.v, Tt.v)

    def nabla(Vt):
        s = "ij"[: Vt.v.ndim - 2]  # V's frame indices, before its ambient one
        return _einsum(f"bkc,b{s}mc->bk{s}m", Et.v, Vt.d) + _einsum(
            f"bkml,b{s}l->bk{s}m", gk, Vt.v
        )

    # connection coefficients and the normal projection of W
    pg.A = A = _einsum("bmn,bkim,bjn->bkij", Gt.v, nabla(Ft), Ft.v)
    tang = tj_einsum("bmn,bijm,bkn->bijk", Gt, Wt, Ft)
    DV = nabla(Wt - tj_einsum("bijk,bkm->bijm", tang, Ft))
    raw = _einsum("bmn,bkijm,bln->bijkl", Gt.v, DV, Nt.v)
    corr = _einsum("bkim,bmjl->bijkl", A, ht.v) + _einsum(
        "bkjm,biml->bijkl", A, ht.v
    )
    pg.hcov = raw - corr
    if model.is_sasakian:
        raw_xi = _einsum("bmn,bkijm,bn->bijk", Gt.v, DV, Xit.v)
        corr_xi = _einsum("bkim,bmj->bijk", A, h_xi) + _einsum(
            "bkjm,bim->bijk", A, h_xi
        )
        pg.hcov_xi = raw_xi - corr_xi

    # normal derivatives of the mean curvature
    DH = nabla(tj_einsum("bk,bkm->bm", Ht, Nt))
    pg.Hcov = _einsum("bim,bmn,bjn->bij", DH, Gt.v, Nt.v)
    if model.is_sasakian:
        pg.Hcov_xi = _einsum("bim,bmn,bn->bi", DH, Gt.v, Xit.v)
    return pg, fields


def gauss_curvature(pg: PointGeometry, fields) -> CurvatureData:
    """Intrinsic curvature by the Gauss equation R = Rbar + h^h, from values
    only (:func:`frame_geometry` suffices); ``Riem_metric`` is None."""
    n = pg.n
    Rbar = _ambient_frame_curvature(pg, fields)
    hh = _einsum("bikm,bjlm->bijkl", pg.h.v, pg.h.v)
    Riem = Rbar + hh - hh.transpose(0, 1, 2, 4, 3)
    Ricci = _einsum("bijil->bjl", Riem)
    scalar = _einsum("bjj->b", Ricci)
    Weyl = None
    if n >= 4:
        delta = np.eye(n)
        ric_g = (
            _einsum("bik,jl->bijkl", Ricci, delta)
            + _einsum("bjl,ik->bijkl", Ricci, delta)
            - _einsum("bil,jk->bijkl", Ricci, delta)
            - _einsum("bjk,il->bijkl", Ricci, delta)
        )
        gg = 2.0 * (
            _einsum("ik,jl->ijkl", delta, delta)
            - _einsum("il,jk->ijkl", delta, delta)
        )[None]
        Weyl = (
            Riem
            - ric_g / (n - 2.0)
            + scalar[:, None, None, None, None] * gg / (2.0 * (n - 1.0) * (n - 2.0))
        )
    return CurvatureData(
        Riem=Riem, Riem_metric=None, Ricci=Ricci, scalar=scalar, Weyl=Weyl
    )


def _induced_metric_hessian(pg: PointGeometry, fields) -> np.ndarray:
    """Second node-chart derivatives of the induced metric g (B, n, n, n, n), full pass only."""
    G2X = _along(fields.G2, pg.X[1])
    return _second_derivative_of_induced_metric(fields.G0, fields.G1, G2X, *pg.X[1:])


def curvature_data(pg: PointGeometry, fields) -> CurvatureData:
    """Intrinsic curvature by the Gauss equation and by metric derivatives."""
    cd = gauss_curvature(pg, fields)
    R4 = riemann_from_metric(pg.g.v, pg.g.d, _induced_metric_hessian(pg, fields))
    cd.Riem_metric = _einsum(
        "bdcae,bia,bje,blc,bdf,bkf->bijkl", R4, pg.E.v, pg.E.v, pg.E.v, pg.g.v, pg.E.v
    )
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
    whitney = np.max(np.abs(pg.h.v - model_h), axis=(1, 2, 3))

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
    eq_residual = np.max(np.abs(pg.hcov - eq_model), axis=(1, 2, 3, 4))

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


def structure_checks(pg: PointGeometry, cd: CurvatureData) -> dict:
    """Frame/structure-equation residuals (cubic symmetry, Codazzi, ...)."""
    h = pg.h.v
    out = {}
    out["isotropy"] = pg.isotropy
    cub = np.maximum(
        np.max(np.abs(h - h.transpose(0, 2, 1, 3)), axis=(1, 2, 3)),
        np.max(np.abs(h - h.transpose(0, 3, 2, 1)), axis=(1, 2, 3)),
    )
    out["cubic_symmetry"] = cub
    hc = pg.hcov
    cod = np.maximum(
        np.max(np.abs(hc - hc.transpose(0, 1, 3, 2, 4)), axis=(1, 2, 3, 4)),
        np.max(np.abs(hc - hc.transpose(0, 1, 2, 4, 3)), axis=(1, 2, 3, 4)),
    )
    cod = np.maximum(
        cod, np.max(np.abs(hc - hc.transpose(0, 2, 1, 3, 4)), axis=(1, 2, 3, 4))
    )
    out["codazzi_total_symmetry"] = cod
    out["mean_curvature_symmetry"] = np.max(
        np.abs(pg.Hcov - pg.Hcov.transpose(0, 2, 1)), axis=(1, 2)
    )
    scale = np.maximum(np.max(np.abs(cd.Riem), axis=(1, 2, 3, 4)), 1.0)
    out["gauss_cross_check"] = (
        np.max(np.abs(cd.Riem - cd.Riem_metric), axis=(1, 2, 3, 4)) / scale
    )
    if pg.is_sasakian:
        out["h_contact_component"] = np.max(np.abs(pg.h_xi), axis=(1, 2))
        out["hcov_xi_vs_h"] = np.max(np.abs(pg.hcov_xi - pg.h.v), axis=(1, 2, 3))
        out["H_contact_derivative"] = np.max(
            np.abs(pg.Hcov_xi - pg.H.v), axis=1
        )
    return out


def sectional_curvatures(cd: CurvatureData, V: np.ndarray, W: np.ndarray):
    """Sectional curvature of span(V, W) per node; frame components (B,P,n)."""
    # one contraction at a time: with the shared p, a single einsum finds
    # no pairwise path and loops over all six indices
    num = _einsum("bijkl,bpl->bpijk", cd.Riem, W)
    num = _einsum("bpijk,bpk->bpij", num, V)
    num = _einsum("bpij,bpi,bpj->bp", num, V, W)
    vv = _einsum("bpi,bpi->bp", V, V)
    ww = _einsum("bpi,bpi->bp", W, W)
    vw = _einsum("bpi,bpi->bp", V, W)
    return num / (vv * ww - vw**2)
