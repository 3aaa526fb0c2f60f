"""The intrinsic curvature as full n^4 tensors: the tests' reference for the operator.

``geometry`` keeps the curvature as an operator R[b, p, q] on the frame's
2-vectors, over the pairs p = (i < j) and q = (k < l).  The routines here
build the same quantities the long way, as tensors Riem[b, i, j, k, l]
paired as g(R(e_i, e_j) e_l, e_k): the Gauss route with the ambient
curvature written out entry by entry, the metric route through
:func:`riemann_from_metric` and a six-operand frame contraction,
Ricci, the scalar curvature and the Weyl tensor by their defining formulas,
and sectional curvatures by a full contraction with V, W, V, W.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from whitneygeo.geometry import _induced_metric_hessian
from whitneygeo.spaceforms import _riemann, christoffel_derivative, christoffel_from_metric


def riemann_from_metric(G0, G1, G2):
    """R^rho_{sigma mu nu} with R(X, Y)Z = R^rho_{sigma mu nu} X^mu Y^nu Z^sigma.

    Curvature convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
    - nabla_{[X, Y]} Z.
    """
    return _riemann(christoffel_from_metric(G0, G1), christoffel_derivative(G0, G1, G2))


def ambient_frame_curvature(pg, fields):
    """Closed-form ambient curvature paired on the lifted frame, (B, n, n, n, n)."""
    F = pg.F.v
    n = pg.n
    B = F.shape[0]
    delta = np.eye(n)
    sect = (np.einsum("ik,jl->ijkl", delta, delta)
            - np.einsum("il,jk->ijkl", delta, delta))[None] * np.ones((B, 1, 1, 1, 1))
    if not pg.is_sasakian:
        gJ = np.einsum("bmn,bmr,bir,bjn->bij", fields.G0, fields.J0, F, F)
        return pg.c_eff * (
            sect
            + np.einsum("bjl,bik->bijkl", gJ, gJ)
            - np.einsum("bil,bjk->bijkl", gJ, gJ)
            - 2.0 * np.einsum("bij,blk->bijkl", gJ, gJ)
        )
    k1 = pg.c_eff  # (c~ + 3)/4
    k2 = k1 - 1.0  # (c~ - 1)/4
    gphi = np.einsum("bmn,bmr,bir,bjn->bij", fields.G0, fields.Phi0, F, F)
    eta = np.einsum("bm,bim->bi", fields.Eta0, F)
    struct = (
        np.einsum("bi,bl,jk->bijkl", eta, eta, delta)
        - np.einsum("bj,bl,ik->bijkl", eta, eta, delta)
        + np.einsum("il,bj,bk->bijkl", delta, eta, eta)
        - np.einsum("jl,bi,bk->bijkl", delta, eta, eta)
        + np.einsum("bjl,bik->bijkl", gphi, gphi)
        - np.einsum("bil,bjk->bijkl", gphi, gphi)
        + 2.0 * np.einsum("bji,blk->bijkl", gphi, gphi)
    )
    return k1 * sect + k2 * struct


def gauss_riemann(pg, fields):
    """The Gauss route Riem = Rbar + h_ikm h_jlm - h_ilm h_jkm, (B, n, n, n, n)."""
    hh = np.einsum("bikm,bjlm->bijkl", pg.h.v, pg.h.v)
    return ambient_frame_curvature(pg, fields) + hh - hh.transpose(0, 1, 2, 4, 3)


def metric_riemann(pg, fields):
    """The metric route: ``riemann_from_metric`` of the induced metric, framed."""
    R4 = riemann_from_metric(pg.g.v, pg.g.d, _induced_metric_hessian(pg, fields))
    E = pg.E.v
    return np.einsum("bdcae,bia,bje,blc,bdf,bkf->bijkl", R4, E, E, E, pg.g.v, E,
                     optimize=True)


def curvature(riem):
    """Ricci, scalar curvature and, for n >= 4, the Weyl tensor of ``riem``."""
    n = riem.shape[1]
    ricci = np.einsum("bijil->bjl", riem)
    scalar = np.einsum("bjj->b", ricci)
    weyl = None
    if n >= 4:
        delta = np.eye(n)
        ric_g = (np.einsum("bik,jl->bijkl", ricci, delta)
                 + np.einsum("bjl,ik->bijkl", ricci, delta)
                 - np.einsum("bil,jk->bijkl", ricci, delta)
                 - np.einsum("bjk,il->bijkl", ricci, delta))
        gg = 2.0 * (np.einsum("ik,jl->ijkl", delta, delta)
                    - np.einsum("il,jk->ijkl", delta, delta))[None]
        weyl = (riem - ric_g / (n - 2.0)
                + scalar[:, None, None, None, None] * gg / (2.0 * (n - 1.0) * (n - 2.0)))
    return SimpleNamespace(Ricci=ricci, scalar=scalar, Weyl=weyl)


def sectional_curvatures(riem, V, W):
    """Sectional curvature of span(V, W) per node; frame components (B, Q, n)."""
    num = np.einsum("bijkl,bpi,bpj,bpk,bpl->bp", riem, V, W, V, W, optimize=True)
    den = (np.einsum("bpi,bpi->bp", V, V) * np.einsum("bpi,bpi->bp", W, W)
           - np.einsum("bpi,bpi->bp", V, W) ** 2)
    return num / den


def tensor(R, n):
    """The n^4 tensor of a pair operator R (B, P, P): Riem_ijkl = ± R_pq, 0 off the pairs."""
    I, J = np.triu_indices(n, 1)
    riem = np.zeros((len(R), n, n, n, n))
    for p, (i, j) in enumerate(zip(I, J)):
        for q, (k, l) in enumerate(zip(I, J)):
            riem[:, i, j, k, l] = riem[:, j, i, l, k] = R[:, p, q]
            riem[:, j, i, k, l] = riem[:, i, j, l, k] = -R[:, p, q]
    return riem
