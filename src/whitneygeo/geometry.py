"""Pointwise extrinsic geometry of an immersed sphere or torus.

Everything is computed in batch form, in two stages by jet order.  The
frame stage (:func:`frame_geometry`) takes values from order-2 jets of the
immersion and the metric's first chart derivatives: enough for the
Gauss-route curvature.  The full pass (:func:`pointwise_geometry`) runs the
same stage on order-3 jets, so scalars and frames also carry their first
parameter derivatives through a minimal "tensor jet" (value plus trailing
derivative axis), which makes the covariant derivative of the second
fundamental form an exact algebraic computation rather than a finite
difference.  The metric is differentiated twice only along the immersion's
tangents X1.

Index conventions follow the adapted-frame picture: ``h[b, i, j, k]`` is
the second fundamental form paired with the k-th normal frame vector,
totally symmetric in (i, j, k) on Lagrangian/Legendrian images;
``Riem[b, i, j, k, l]`` is the intrinsic curvature paired as
g(R(e_i, e_j) e_l, e_k), so constant curvature K gives
K (d_ik d_jl - d_il d_jk).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from functools import partial

# planned pairwise contractions: the multi-operand chain-rule einsums
# are hopeless without this
_einsum = partial(np.einsum, optimize=True)

from . import jets
from .immersions import ImmersionSpec, eval_immersion
from .spaceforms import BaseModel, christoffel_along, riemann_from_metric

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
    """A batched tensor with its first parameter derivatives.

    ``v`` has shape ``(B, ...)``; ``d`` appends one axis of length n (the
    number of immersion parameters), or is None where only values are
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


def _tj_sqrt(s: TJ) -> TJ:
    r = np.sqrt(s.v)
    return TJ(r, None if s.d is None else s.d * (0.5 / r)[..., None])


def _tj_recip(s: TJ) -> TJ:
    w = 1.0 / s.v
    return TJ(w, None if s.d is None else -s.d * (w * w)[..., None])


@dataclass
class PointGeometry:
    """All pointwise extrinsic data at a batch of parameter points."""

    spec: ImmersionSpec
    is_sasakian: bool
    n: int
    chart_points: np.ndarray  # (B, m)
    g: TJ  # induced metric (B, n, n)
    sqrt_det_g: np.ndarray  # (B,)
    E: TJ  # orthonormal tangent frame, coordinate components (B, n, n)
    F: TJ  # the same frame in ambient components (B, n, m)
    N: TJ  # normal frame J e_i / phi e_i, ambient components (B, n, m)
    Xi: TJ | None  # unit contact normal along the image (Sasakian)
    h: TJ  # second fundamental form components (B, n, n, n)
    h_xi: np.ndarray | None  # contact-normal component of h (B, n, n)
    H: TJ  # mean curvature components (B, n)
    isotropy: np.ndarray  # per-node isotropy residual (B,)
    c_eff: float  # sectional constant of the ambient on isotropic tangents
    # derivative levels, None after the order-2 frame stage (its TJs have no d)
    X: list | None = None  # immersion blocks X0..X3, shaped (B, m, n, ...)
    G2X: np.ndarray | None = None  # d_s d_{X_d} g_mn along the tangents (B,m,m,m,n)
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


def _gram_schmidt(gt: TJ, n: int, mixer: np.ndarray | None):
    """Orthonormal frame from the coordinate basis, with derivatives."""
    B = gt.v.shape[0]
    basis = np.eye(n) if mixer is None else np.asarray(mixer, dtype=float)
    frames = []
    for i in range(n):
        w = TJ(
            np.broadcast_to(basis[i], (B, n)).copy(),
            None if gt.d is None else np.zeros((B, n, n)),
        )
        for e in frames:
            c = tj_einsum("ba,bac,bc->b", w, gt, e)
            w = w - tj_einsum("b,ba->ba", c, e)
        nrm = _tj_sqrt(tj_einsum("ba,bac,bc->b", w, gt, w))
        w = tj_einsum("b,ba->ba", _tj_recip(nrm), w)
        frames.append(w)
    return TJ(
        np.stack([e.v for e in frames], axis=1),
        None if gt.d is None else np.stack([e.d for e in frames], axis=1),
    )


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


def frame_geometry(model: BaseModel, spec: ImmersionSpec, t):
    """The order-2 frame stage at ``t``, as :func:`pointwise_geometry` returns it
    but with values only: all that :func:`gauss_curvature` needs."""
    return _geometry(model, spec, t, None, order=2)


def pointwise_geometry(model: BaseModel, spec: ImmersionSpec, t, *,
                       mixer: np.ndarray | None = None):
    """Evaluate the full extrinsic tensor pipeline at parameter batch ``t``.

    On the sphere, derivatives are taken in each node's own chart
    (:func:`whitneygeo.immersions.node_jets`), where the round metric is the
    identity.  Returns ``(PointGeometry, AmbientFields)``; the fields are
    reused by :func:`curvature_data` for the ambient term of the Gauss
    equation.
    """
    return _geometry(model, spec, t, mixer, order=3)


def _geometry(model, spec, t, mixer, order):
    """The frame stage from order-``order`` jets; order 3 adds the derivative levels."""
    n = spec.n
    full = order == 3
    x = eval_immersion(spec, t, order=order)
    X = jets._unpack_blocks(x, n, order)
    X0, X1, X2 = X[:3]
    fields = model.fields_at(X0, order=order - 1)

    # chart fields restricted to the image, with parameter derivatives in the
    # full pass; the metric is differentiated twice only along the tangents X1
    def along(D1, sub="bmns,bsc->bmnc"):
        return _einsum(sub, D1, X1) if full else None

    Gt = TJ(fields.G0, along(fields.G1))
    G2X = jets._packed_hessian_along(fields.G, X1) if full else None
    gammat = TJ(*christoffel_along(fields.G0, fields.G1, Gt.d, G2X))
    Tt = TJ(X1, X2 if full else None)
    # induced metric
    gt = tj_einsum("bmn,bma,bnB->baB", Gt, Tt, Tt)
    det = np.linalg.det(gt.v)
    if np.any(det <= 0):
        raise RuntimeError(
            f"degenerate induced metric (min det {det.min():.3e}); "
            "immersion fails the rank check"
        )
    Et = _gram_schmidt(gt, n, mixer)
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
        Xit = TJ(fields.Xi0, along(fields.Xi1, "bms,bsc->bmc"))
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
        spec=spec, is_sasakian=model.is_sasakian, n=n, chart_points=X0, g=gt,
        sqrt_det_g=np.sqrt(det), E=Et, F=Ft, N=Nt, Xi=Xit, h=ht, h_xi=h_xi, H=Ht,
        isotropy=iso, c_eff=c_eff,
    )
    if not full:
        return pg, fields

    pg.X, pg.G2X = X, G2X

    # connection coefficients and the normal projection of W
    DF = _einsum("bkc,bimc->bkim", Et.v, Ft.d) + _einsum(
        "bkc,bmnl,bnc,bil->bkim", Et.v, gammat.v, Tt.v, Ft.v
    )
    pg.A = A = _einsum("bmn,bkim,bjn->bkij", Gt.v, DF, Ft.v)
    tang = tj_einsum("bmn,bijm,bkn->bijk", Gt, Wt, Ft)
    Vt = Wt - tj_einsum("bijk,bkm->bijm", tang, Ft)
    DV = _einsum("bkc,bijmc->bijkm", Et.v, Vt.d) + _einsum(
        "bkc,bmnl,bnc,bijl->bijkm", Et.v, gammat.v, Tt.v, Vt.v
    )
    raw = _einsum("bmn,bijkm,bln->bijkl", Gt.v, DV, Nt.v)
    corr = _einsum("bkim,bmjl->bijkl", A, ht.v) + _einsum(
        "bkjm,biml->bijkl", A, ht.v
    )
    pg.hcov = raw - corr
    if model.is_sasakian:
        raw_xi = _einsum("bmn,bijkm,bn->bijk", Gt.v, DV, Xit.v)
        corr_xi = _einsum("bkim,bmj->bijk", A, h_xi) + _einsum(
            "bkjm,bim->bijk", A, h_xi
        )
        pg.hcov_xi = raw_xi - corr_xi

    # normal derivatives of the mean curvature
    Hambt = tj_einsum("bk,bkm->bm", Ht, Nt)
    DH = _einsum("bic,bmc->bim", Et.v, Hambt.d) + _einsum(
        "bic,bmnl,bnc,bl->bim", Et.v, gammat.v, Tt.v, Hambt.v
    )
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
    """Second parameter derivatives of the induced metric g (B, n, n, n, n), full pass only."""
    return _second_derivative_of_induced_metric(fields.G0, fields.G1, pg.G2X, *pg.X[1:])


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
