"""Chart models of the six ambient spaces.

Three Kaehler models (flat complex space, the projective space normalized to
holomorphic sectional curvature +4 in its affine chart, the hyperbolic ball
normalized to -4) and three Sasakian models (the standard contact structure
on R^{2n+1}, the unit sphere with a homothetic deformation, and the Bergman
ball times a line).  The Sasakian models are one construction,
:class:`BoothbyWangModel`: a line bundle over the chart of C^n, the affine
chart of CP^n or the ball CH^n, with the contact form dt + omega.  Every
model exposes

* ``fields_at``: at a batch of chart points, the metric to second
  derivatives, the Levi-Civita connection with its first derivatives and
  the structure tensors (J, or phi/xi/eta) to first derivatives,
* a closed-form curvature expression (``curvature_oracle``) used as an
  independent cross-check,
* a randomized ``self_test`` that must pass before any submanifold
  computation downstream is trusted,
* one isometry per node (``centre``) that moves the node's image to the
  chart's base point, coordinate 0, where ``base_fields`` holds the fields.

All evaluation is batched: ``points`` has shape ``(B, chart_dim)``.

One builder per model, ``_chart_jets``, serves ``fields_at``: it computes
the metric to order 2 and the structure tensors to order 1 as packed jets
(``jets._packed_basis``) shaped (coefficients, B, tensor axes).  Products
are Leibniz-table loops and 1/x a truncated Taylor series, so no
derivative formula is written by hand.
``fields_at`` unpacks them into mirrored, batch-first derivative blocks and
adds the connection; the self-test reads its curvature from that
connection, so one evaluation of its points serves every check.

Every ambient here is homogeneous, and the certificate reads only isometry
invariants.  So the geometry evaluates no field at the nodes: ``centre``
maps each node's chart jets by an isometry that takes its image to the base
point (a translation of C^n, a unitary map of the homogeneous coordinates
of CP^n, a ball automorphism of CH^n), and the fields there are computed
once per model instance.  A Sasakian model centres the jets of a Legendrian
image's base by its base model's isometry and lifts the result (its
fiber from the contact condition), so each node's fiber is derived once.

Its einsum contractions go through ``jets._einsum`` under the batch-label
contract of :mod:`whitneygeo.geometry`: ``b`` leads every term that carries
the batch axis and appears nowhere else, and a term without it (a fixed
matrix such as J) is shared by all points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import _einsum
from .quadrature import _integer

__all__ = [
    "AmbientFields",
    "DomainError",
    "ModelValidationError",
    "make_model",
    "christoffel_from_metric",
    "christoffel_derivative",
]


#: the largest n whose chart, of dimension 2n or 2n + 1, is an array length numpy can index
_MAX_N = (np.iinfo(np.intp).max - 1) // 2

#: the seed and point count of every model's self-test
SELF_TEST_SEED = 1234
SELF_TEST_POINTS = 50


class DomainError(ValueError):
    """A chart coordinate left the model's declared domain."""


class ModelValidationError(RuntimeError):
    """A model failed its mandatory curvature/structure self-test."""


@dataclass
class AmbientFields:
    """Chart-level field data at a batch of points; a derivative block's last axis is d/dq^sigma."""

    G0: np.ndarray  # (B, m, m)
    G1: np.ndarray  # (B, m, m, m)
    G2: np.ndarray  # (B, m, m, m, m)
    Gamma0: np.ndarray  # Gamma^mu_{nu lambda}, (B, m, m, m)
    Gamma1: np.ndarray  # d_sigma Gamma^mu_{nu lambda}, (B, m, m, m, m)
    # complex models
    J0: np.ndarray | None = None
    J1: np.ndarray | None = None
    # Sasakian models
    Phi0: np.ndarray | None = None
    Phi1: np.ndarray | None = None
    Xi0: np.ndarray | None = None
    Xi1: np.ndarray | None = None
    Eta0: np.ndarray | None = None
    Eta1: np.ndarray | None = None


# ---------------------------------------------------------------------------
# metric -> connection -> curvature (chart arrays)
# ---------------------------------------------------------------------------

def _metric_bracket(G1):
    """bracket[b, rho, nu, lam] = d_nu g_{rho lam} + d_lam g_{rho nu} - d_rho g_{nu lam}.

    ``G1[b, r, l, n]`` holds ``d_n g_{rl}``; trailing axes after ``n`` ride along.
    """
    d_nu = np.swapaxes(G1, 2, 3)
    d_lam = G1  # already [rho, nu, lam]
    d_rho = np.moveaxis(G1, 3, 1)
    return d_nu + d_lam - d_rho


def christoffel_from_metric(G0, G1):
    """Levi-Civita symbols Gamma^mu_{nu lambda} from metric first derivatives."""
    Ginv = np.linalg.inv(G0)
    return 0.5 * _einsum("bmr,brnl->bmnl", Ginv, _metric_bracket(G1))


def christoffel_derivative(G0, G1, G2):
    """d_sigma Gamma^mu_{nu lambda}; ``G2[b, r, l, n, s] = d_s d_n g_{rl}``."""
    Ginv = np.linalg.inv(G0)
    dGinv = -_einsum("bmp,bpqs,bqn->bmns", Ginv, G1, Ginv)
    return 0.5 * (
        _einsum("bmrs,brnl->bmnls", dGinv, _metric_bracket(G1))
        + _einsum("bmr,brnls->bmnls", Ginv, _metric_bracket(G2))
    )


def _riemann(gamma, dgamma):
    """R^rho_{sigma mu nu} of a connection and its first derivatives, with
    R(X, Y)Z = R^rho_{sigma mu nu} X^mu Y^nu Z^sigma.

    Curvature convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
    - nabla_{[X, Y]} Z.
    """
    t1 = _einsum("brnsm->brsmn", dgamma)  # d_mu Gamma^rho_{nu sigma}
    t2 = _einsum("brmsn->brsmn", dgamma)  # d_nu Gamma^rho_{mu sigma}
    q1 = _einsum("brml,blns->brsmn", gamma, gamma)
    q2 = _einsum("brnl,blms->brsmn", gamma, gamma)
    return t1 - t2 + q1 - q2


# ---------------------------------------------------------------------------
# packed chart tensors
# ---------------------------------------------------------------------------

def _complex_rotation(n: int) -> np.ndarray:
    """Multiplication by i on C^n in real coordinates: (x, y) -> (-y, x)."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _triangle(m):
    """Row and column of the upper-triangle entry that stands for each (i, j) of an m x m matrix."""
    i, j = np.indices((m, m)).reshape(2, -1)
    return np.minimum(i, j), np.maximum(i, j)


def _outer(e, table):
    """The packed product e e^T, bitwise symmetric: (i, j) and (j, i) are both e_min e_max."""
    m = e.shape[-1]
    lo, hi = _triangle(m)
    ee = jets._packed_mul(np.take(e, lo, axis=-1), np.take(e, hi, axis=-1), table)
    return ee.reshape(ee.shape[:-1] + (m, m))


def _kaehler_metric(z, c, table):
    """The packed affine-chart metric of holomorphic sectional curvature 4c to order 2, and w.

    g = w I - c [[P, Q], [-Q, P]] with w = 1 / (1 + c |z|^2), (x, y) = w z,
    P = x x^T + y y^T and Q = x y^T - y x^T: flat, Fubini-Study or Bergman.
    """
    m = z.shape[-1]
    n = m // 2
    if c == 0:  # constants: one coefficient row
        one = np.ones((1,) + z.shape[1:-1])
        return one[..., None, None] * np.eye(m), one
    u = c * jets._packed_mul(z, z, table).sum(axis=-1)
    u[0] += 1.0
    w = jets._packed_compose(jets._table(u[0], "recip", 2), [u], table)
    wz = jets._packed_mul(w[..., None], z, table)
    # entries (a, b) and (b, a) both come from the pair (min, max), so P is
    # bitwise symmetric and Q bitwise antisymmetric
    lo, hi = _triangle(n)
    i, j = np.indices((n, n)).reshape(2, -1)
    x_lo, x_hi, y_lo, y_hi = (np.take(wz, k, axis=-1) for k in (lo, hi, n + lo, n + hi))
    P = jets._packed_mul(x_lo, x_hi, table) + jets._packed_mul(y_lo, y_hi, table)
    Q = jets._packed_mul(x_lo, y_hi, table) - jets._packed_mul(y_lo, x_hi, table)
    Q *= np.sign(j - i)
    A = -c * P
    A[..., :: n + 1] += w[..., None]
    A, Q = (M.reshape(M.shape[:-1] + (n, n)) for M in (A, -c * Q))
    return np.block([[A, Q], [-Q, A]]), w


# ---------------------------------------------------------------------------
# per-node isometries on packed chart jets
# ---------------------------------------------------------------------------

def _complex(x: np.ndarray, n: int) -> np.ndarray:
    """The n complex coordinates x_j + i x_{n+j} of real chart jets, complex packed."""
    return x[..., :n] + 1j * x[..., n : 2 * n]


def _real_pairs(z: np.ndarray) -> np.ndarray:
    """Real chart jets (Re z, Im z) of complex packed jets."""
    return np.concatenate([z.real, z.imag], axis=-1)


def _unitary_to(Z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """U Z per batch entry, for a unitary U with U a = e_0, where a (B, N) are unit vectors.

    ``Z`` is packed (coefficients, B, N); U is linear, so it acts row by
    row.  U = -conj(p) H, with H = I - 2 v v* / |v|^2 the Householder
    reflection of v = a + p e_0 and p = a_0 / |a_0| (1 where a_0 = 0): then
    H a = -p e_0 and |v|^2 = 2 (1 + |a_0|) >= 2 (Golub & Van Loan, "Matrix
    Computations", 4th ed., 2013, sec. 5.1).
    """
    a0 = a[:, 0]
    r = np.abs(a0)
    p = np.ones_like(a0)
    np.divide(a0, r, out=p, where=r > 0)
    v = a.copy()
    v[:, 0] += p
    c = np.sum(Z * v.conj(), axis=-1) * (2.0 / np.sum(np.abs(v) ** 2, axis=-1))
    UZ = Z - c[..., None] * v
    UZ *= -p.conj()[:, None]
    return UZ


def _projective_move(z: np.ndarray, ops) -> np.ndarray:
    """z -> (U Z)_{1..n} / (U Z)_0 on Z = (1, z), U unitary with U Z(z[0]) on e_0.

    U(n+1) acts on the homogeneous coordinates by holomorphic isometries of
    the Fubini-Study metric, and this one takes the node z[0] to 0.
    """
    Z = np.zeros(z.shape[:-1] + (z.shape[-1] + 1,), complex)
    Z[0, :, 0] = 1.0
    Z[..., 1:] = z
    UZ = _unitary_to(Z, Z[0] / np.linalg.norm(Z[0], axis=-1, keepdims=True))
    num = UZ[..., 1:]
    num[0] = 0.0  # U Z(z[0]) = |Z(z[0])| e_0
    return ops.mul(num, ops.fn("recip", UZ[..., 0])[..., None])


def _ball_move(z: np.ndarray, ops) -> np.ndarray:
    """The ball automorphism that takes the node a = z[0] to 0.

    z -> (a - s z - <z, a> a / (1 + s)) / (1 - <z, a>) with s = sqrt(1 -
    |a|^2) and <z, a> = sum z_j conj(a_j): Rudin's (a - P_a z - s Q_a z) /
    (1 - <z, a>) ("Function Theory in the Unit Ball of C^n", 1980, 2.2.1)
    with (1 - s) / |a|^2 = 1 / (1 + s), so a = 0 is regular.  It is
    holomorphic and an isometry of the Bergman metric.
    """
    a = z[0]
    s = np.sqrt(1.0 - np.sum(np.abs(a) ** 2, axis=-1))
    inner = np.sum(z * a.conj(), axis=-1)
    num = -(s[:, None] * z) - (inner / (1.0 + s))[..., None] * a
    num[0] = 0.0  # a - s a - |a|^2 a / (1 + s) = 0
    den = -inner
    den[0] += 1.0
    return ops.mul(num, ops.fn("recip", den)[..., None])


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------

class BaseModel:
    """Shared chart-evaluation machinery for all six models."""

    kind: str = ""
    is_sasakian: bool = False
    chart_dim: int = 0

    def __init__(self, n: int):
        self.n = _integer("model dimension n", n, 2, _MAX_N)
        self._self_test_report: dict | None = None
        self._base: AmbientFields | None = None

    # subclasses fill these ---------------------------------------------------

    def _chart_jets(self, points) -> dict:
        """The model's chart tensors as packed jets, shaped (coefficients, B, ...).

        ``"G"`` is the metric to order 2; the other entries name the
        structure tensors of :class:`AmbientFields` (``"J"``, or ``"Phi"``,
        ``"Xi"`` and ``"Eta"``), each to order 1.
        """
        raise NotImplementedError

    def check_in_chart(self, points: np.ndarray) -> None:
        """Raise :class:`DomainError` if any point leaves the chart domain."""

    # shared evaluation --------------------------------------------------------

    def _validate(self, pts):
        """Raise :class:`DomainError` for points of the wrong width or outside the chart."""
        if pts.shape[-1] != self.chart_dim:
            raise DomainError(
                f"{self.kind}: expected chart dim {self.chart_dim}, got {pts.shape[-1]}"
            )
        self.check_in_chart(pts)

    def _seed(self, points):
        """Validated chart points as packed coordinate jets: linear, so order 1 is exact."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.chart_dim
        self._validate(pts)
        seeds = np.zeros((1 + v,) + pts.shape)
        seeds[0] = pts
        seeds[1:] = np.eye(v)[:, None, :]
        return seeds

    def _assert_spd(self, G0):
        try:
            np.linalg.cholesky(G0)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(G0)
            bad = int(np.argmin(eigs[..., 0]))
            raise ModelValidationError(
                f"{self.kind}: metric not positive definite at batch index {bad} "
                f"(min eigenvalue {eigs[bad, 0]:.3e})"
            ) from None

    def fields_at(self, points) -> AmbientFields:
        """The metric to order 2, the Levi-Civita connection with its first
        derivatives, and the structure tensors to order 1, at ``points``."""
        packed = self._chart_jets(points)
        blocks = {
            f"{name}{k}": block
            for name, p in packed.items()
            for k, block in enumerate(
                jets._unpack_blocks(p, self.chart_dim, 2 if name == "G" else 1))
        }
        G0, G1, G2 = blocks["G0"], blocks["G1"], blocks["G2"]
        self._assert_spd(G0)
        return AmbientFields(**blocks, Gamma0=christoffel_from_metric(G0, G1),
                             Gamma1=christoffel_derivative(G0, G1, G2))

    def base_fields(self) -> AmbientFields:
        """:meth:`fields_at` at the base point, chart coordinate 0.

        Computed once per instance.  The batch axis has length 1, which
        broadcasts against the nodes' in ``jets._einsum``.
        """
        if self._base is None:
            self._base = self.fields_at(np.zeros((1, self.chart_dim)))
        return self._base

    def centre(self, x: np.ndarray, v: int) -> np.ndarray:
        """The chart jets of the node images moved to the base point, one isometry per node.

        ``x`` holds packed jets (coefficients, B, 2n) in ``v`` variables of
        Kaehler chart coordinates: of a Lagrangian image, or of the base of
        a Legendrian one, whose lift the Sasakian models return.  Their
        value row, the node images, must lie in the chart.  Each node's
        jets are mapped by an isometry of the model that takes its image to
        chart coordinate 0 and keeps the structure tensors (J, or phi, xi
        and eta), so every invariant the certificate reads at the node can
        be read there against :meth:`base_fields`.
        """
        raise NotImplementedError

    def curvature_oracle(self, fields: AmbientFields, X, Y, Z):
        """The closed-form R(X, Y)Z, (B, m), at the points of ``fields``."""
        raise NotImplementedError

    # self-test ----------------------------------------------------------------

    def self_test(self, strict: bool = True):
        """Randomized structure/curvature validation; cached after first run.

        Returns a dict mapping check name to residual; the special key
        ``ok`` reports whether every residual is within its tolerance.
        With ``strict``, a failing report raises, a cached one included.
        """
        tols = self._self_test_tols()
        report = self._self_test_report
        if report is None:
            rng = np.random.default_rng(SELF_TEST_SEED)
            fields = self.fields_at(self.random_chart_points(rng, SELF_TEST_POINTS))
            R = _riemann(fields.Gamma0, fields.Gamma1)
            report = self._run_self_test(fields, R, rng)
            report["curvature_oracle"] = self._curvature_match(fields, R, rng)
            report["bianchi"] = self._bianchi_residual(R)
            report["ok"] = all(v <= tols[k] for k, v in report.items())
            self._self_test_report = report
        if strict and not report["ok"]:
            bad = {k: v for k, v in report.items() if k != "ok" and v > tols[k]}
            raise ModelValidationError(
                f"{self.kind} failed self-test: "
                + ", ".join(f"{k}={v:.2e} (tol {tols[k]:.0e})" for k, v in bad.items())
            )
        return report

    def random_chart_points(self, rng, count):
        raise NotImplementedError

    def _curvature_match(self, fields, R, rng):
        """Relative mismatch of derived Riemann ``R`` vs closed-form curvature."""
        B = len(fields.G0)
        X, Y, Z = (rng.normal(size=(B, self.chart_dim)) for _ in range(3))
        derived = _einsum("brsmn,bm,bn,bs->br", R, X, Y, Z)
        oracle = self.curvature_oracle(fields, X, Y, Z)
        scale = np.maximum(np.linalg.norm(oracle, axis=-1), 1.0)
        return float(np.max(np.linalg.norm(derived - oracle, axis=-1) / scale))

    @staticmethod
    def _bianchi_residual(R):
        cyc = R + _einsum("brsmn->brmns", R) + _einsum("brsmn->brnsm", R)
        scale = max(float(np.max(np.abs(R))), 1.0)
        return float(np.max(np.abs(cyc)) / scale)


class ComplexSpaceFormModel(BaseModel):
    """Kaehler chart with a closed-form constant-holomorphic-curvature check."""

    is_sasakian = False

    def __init__(self, n: int, c: int):
        super().__init__(n)
        if c not in (-1, 0, 1):
            raise ValueError(f"holomorphic curvature sign c must be -1, 0, or +1, got {c!r}")
        self.c = c
        self.chart_dim = 2 * n
        self.kind = {0: "C_n", 1: "CP_n", -1: "CH_n"}[c]

    def check_in_chart(self, points):
        if self.c == -1:
            s = np.sum(points**2, axis=-1)
            if np.any(s >= 1.0):
                raise DomainError(
                    f"CH_n chart requires |z| < 1, got |z|^2 max {s.max():.6f}"
                )

    def _chart_jets(self, points):
        table = jets._leibniz_table(self.chart_dim, 2)
        G, _ = _kaehler_metric(self._seed(points), self.c, table)
        return {"G": G, "J": np.broadcast_to(_complex_rotation(self.n), (1,) + G.shape[1:])}

    def centre(self, x, v):
        """A translation of C^n; a unitary map of the homogeneous coordinates
        of CP^n; an automorphism of the ball CH^n.  All are holomorphic."""
        self._validate(x[0])
        if self.c == 0:
            out = x.copy()
            out[0] = 0.0
            return out
        move = _projective_move if self.c == 1 else _ball_move
        return _real_pairs(move(_complex(x, self.n), jets._Ops(v, jets._packed_order(x, v))))

    def curvature_oracle(self, fields, X, Y, Z):
        G0 = fields.G0
        J = _complex_rotation(self.n)
        JX = _einsum("mn,bn->bm", J, X)
        JY = _einsum("mn,bn->bm", J, Y)
        JZ = _einsum("mn,bn->bm", J, Z)
        g = lambda U, V: _einsum("bmn,bm,bn->b", G0, U, V)
        out = (
            g(Y, Z)[:, None] * X
            - g(X, Z)[:, None] * Y
            + g(JY, Z)[:, None] * JX
            - g(JX, Z)[:, None] * JY
            - 2.0 * g(JX, Y)[:, None] * JZ
        )
        return self.c * out

    def random_chart_points(self, rng, count):
        if self.c == -1:
            pts = rng.normal(size=(count, self.chart_dim))
            pts *= (0.8 * rng.uniform(0.1, 1.0, size=(count, 1)) ** (1.0 / self.chart_dim)
                    / np.linalg.norm(pts, axis=1, keepdims=True))
            return pts
        return rng.uniform(-0.9, 0.9, size=(count, self.chart_dim))

    @staticmethod
    def _self_test_tols():
        return {
            "J_squared": 1e-12,
            "hermitian_compat": 1e-12,
            "holomorphic_sectional": 1e-8,
            "curvature_oracle": 1e-8,
            "bianchi": 1e-9,
        }

    def _run_self_test(self, f, R, rng):
        G0 = f.G0
        B = len(G0)
        J = _complex_rotation(self.n)
        report = {}
        report["J_squared"] = float(np.max(np.abs(J @ J + np.eye(self.chart_dim))))
        X = rng.normal(size=(B, self.chart_dim))
        Y = rng.normal(size=(B, self.chart_dim))
        JX = X @ J.T
        JY = Y @ J.T
        hermitian = _einsum("bmn,bm,bn->b", G0, JX, JY) - _einsum(
            "bmn,bm,bn->b", G0, X, Y
        )
        report["hermitian_compat"] = float(np.max(np.abs(hermitian)))
        # holomorphic sectional curvature of the span {X, JX} equals 4c
        RX = _einsum("brsmn,bm,bn,bs->br", R, X, JX, JX)
        num = _einsum("bmn,bm,bn->b", G0, RX, X)
        den = _einsum("bmn,bm,bn->b", G0, X, X) ** 2
        report["holomorphic_sectional"] = float(np.max(np.abs(num / den - 4.0 * self.c)))
        return report


class BoothbyWangModel(BaseModel):
    """The three Sasakian space forms, each a line bundle over the Kaehler
    chart of :func:`_kaehler_metric`: R^{2n+1} over C^n (c = 0), the deformed
    unit sphere over CP^n (c = +1) and the Bergman ball times a line over
    CH^n (c = -1).

    Chart (z, t) with g = k a K_c + a^2 eta-bar eta-bar^T, eta-bar = dt +
    omega and omega = k w sum_j (x_j dy_j - y_j dx_j), w = 1 / (1 + c |z|^2);
    eta = a eta-bar, xi = (d/dt) / a, and phi is minus the complex rotation
    of the z block, lifted to ker eta.  For k = 1, c = +1 and a = 1 it is
    the round metric in the Hopf chart (z, t) -> e^{it} (1, z) / sqrt(1 +
    |z|^2) of the unit sphere, where eta-bar is Im(conj(P) . dP), and k = 4
    on the ball.  For c = 0 and k = a = 1/2 it is the standard structure on
    R^{2n+1}, eta = (dz - sum_j y_j dx_j) / 2 and g = (dx^2 + dy^2) / 4 +
    eta^2, in the coordinates z = t + sum_j x_j y_j / 2.  The base has
    holomorphic sectional curvature 4c / (k a), and phi-sectional curvature
    is that less 3 (Blair, "Riemannian Geometry of Contact and Symplectic
    Manifolds", 2nd ed., 2010).
    """

    is_sasakian = True
    # phi is minus the complex rotation, lifted; the sign is pinned by the
    # nabla_X xi = -phi X identity (see self_test).
    _phi_sign = -1.0

    def __init__(self, n: int, c: int, a: float = 1.0):
        super().__init__(n)
        if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0 < a < math.inf:
            raise ValueError(f"deformation parameter a must be a finite real > 0, got {a!r}")
        if c not in (-1, 0, 1):
            raise ValueError(f"base curvature sign c must be -1, 0 or +1, got {c!r}")
        self.a = float(a)
        self.c = c
        self.k = {1: 1.0, 0: 0.5, -1: 4.0}[c]
        self.kind = {1: "Sasakian_S", 0: "Sasakian_R", -1: "Sasakian_B"}[c]
        self.c_tilde = 4.0 * c / (self.k * self.a) - 3.0
        self.chart_dim = 2 * self.n + 1
        self.kaehler = ComplexSpaceFormModel(self.n, c)

    def check_in_chart(self, points):
        if self.c == -1:
            s = np.sum(points[..., :-1] ** 2, axis=-1)
            if np.any(s >= 1.0 - 1e-12):
                raise DomainError(
                    f"Sasakian_B chart requires |z| < 1, got |z|^2 max {s.max():.8f}"
                )

    def _chart_jets(self, points):
        n, m = self.n, self.chart_dim
        z = self._seed(points)[..., : 2 * n]
        table = jets._leibniz_table(m, 2)
        kaehler, w = _kaehler_metric(z, self.c, table)
        Jz = np.matmul(z, _complex_rotation(n).T)  # (-y, x)
        omega = self.k * jets._packed_mul(w[..., None], Jz, table)
        eta_bar = np.zeros(omega.shape[:-1] + (m,))
        eta_bar[..., : 2 * n] = omega
        eta_bar[0, :, 2 * n] = 1.0
        G = _outer(self.a * eta_bar, table)
        G[: len(kaehler), :, :-1, :-1] += self.k * self.a * kaehler
        eta = eta_bar[: m + 1]
        Jt = np.zeros((m, m))
        Jt[:-1, :-1] = _complex_rotation(n)
        s = self._phi_sign
        Phi = np.zeros(eta.shape + (m,))
        Phi[0] = s * Jt
        # the t-row keeps phi X in ker eta
        Phi[..., -1, :] = -s * np.matmul(eta, Jt)
        Xi = np.zeros((1,) + eta.shape[1:])
        Xi[0, :, -1] = 1.0 / self.a
        return {"G": G, "Phi": Phi, "Xi": Xi, "Eta": self.a * eta}

    def fiber(self, z: np.ndarray, ops) -> np.ndarray:
        """The fiber t of a Legendrian image over z: dt = -omega(z), value 0.

        ``z`` holds real packed jets (coefficients, B, 2n).  -omega = k w
        (y, -x) . d(x, y) is built to order - 1, all that
        ``jets._packed_fiber`` reads; on C^n, w = 1.
        """
        if not ops.order:
            return np.zeros(z.shape[:2])
        n = z.shape[-1] // 2
        low = jets._Ops(ops.v, ops.order - 1)
        zl = z[: low.rows]
        yx = np.concatenate([zl[..., n:], -zl[..., :n]], axis=-1)
        if not self.c:
            return jets._packed_fiber(self.k * yx, z, ops)
        u = self.c * low.mul(zl, zl).sum(axis=-1)
        u[0] += 1.0
        return jets._packed_fiber(low.mul(self.k * low.fn("recip", u)[..., None], yx), z, ops)

    def lift(self, z: np.ndarray, ops) -> np.ndarray:
        """The Legendrian lift (z, :meth:`fiber` of z) of base jets ``z``, (coefficients, B, 2n)."""
        return np.concatenate([z, self.fiber(z, ops)[..., None]], axis=-1)

    def centre(self, z: np.ndarray, v: int) -> np.ndarray:
        """The lift of the base's :meth:`ComplexSpaceFormModel.centre` of ``z``.

        ``z`` holds the base's jets (coefficients, B, 2n) of a Legendrian
        image, and the result is chart jets (coefficients, B, 2n + 1).  The
        base's holomorphic isometry keeps d omega, so it lifts to an isometry
        of the bundle that keeps eta-bar = dt + omega, and with the Kaehler
        block and d/dt the metric, phi, xi and eta.  It maps the lift of z to
        a lift of the moved z, which is :meth:`lift`'s up to a Reeb
        translation, itself such an isometry.
        """
        moved = self.kaehler.centre(z, v)
        return self.lift(moved, jets._Ops(v, jets._packed_order(moved, v)))

    def curvature_oracle(self, fields, X, Y, Z):
        G0, Phi, Xi, Eta = fields.G0, fields.Phi0, fields.Xi0, fields.Eta0
        g = lambda U, V: _einsum("bmn,bm,bn->b", G0, U, V)
        eta = lambda U: _einsum("bm,bm->b", Eta, U)
        phi = lambda U: _einsum("bmn,bn->bm", Phi, U)
        pX, pY, pZ = phi(X), phi(Y), phi(Z)
        k1 = (self.c_tilde + 3.0) / 4.0
        k2 = (self.c_tilde - 1.0) / 4.0
        sect = g(Y, Z)[:, None] * X - g(X, Z)[:, None] * Y
        struct = (
            (eta(X) * eta(Z))[:, None] * Y
            - (eta(Y) * eta(Z))[:, None] * X
            + (g(X, Z) * eta(Y))[:, None] * Xi
            - (g(Y, Z) * eta(X))[:, None] * Xi
            + g(pY, Z)[:, None] * pX
            - g(pX, Z)[:, None] * pY
            + 2.0 * g(X, pY)[:, None] * pZ
        )
        return k1 * sect + k2 * struct

    @staticmethod
    def _self_test_tols():
        return {
            "eta_vs_metric": 1e-10,
            "phi_xi": 1e-10,
            "eta_phi": 1e-10,
            "phi_squared": 1e-10,
            "phi_compat": 1e-10,
            "d_eta": 1e-10,
            "rank_phi_small": 1e-10,
            # max 1e-8 / sigma_2 over the points, sigma_2 phi's second-smallest
            # singular value: passes when sigma_2 >= 1e-8
            "rank_phi_gap": 1.0,
            "nabla_xi": 1e-8,
            "nabla_phi": 1e-8,
            "phi_sectional": 1e-8,
            "curvature_oracle": 1e-8,
            "bianchi": 1e-9,
        }

    def _run_self_test(self, f, R, rng):
        B = len(f.G0)
        G0, Phi0, Phi1, Xi0, Xi1, Eta0, Eta1 = (
            f.G0, f.Phi0, f.Phi1, f.Xi0, f.Xi1, f.Eta0, f.Eta1,
        )
        m = self.chart_dim
        X = rng.normal(size=(B, m))
        Y = rng.normal(size=(B, m))
        g = lambda U, V: _einsum("bmn,bm,bn->b", G0, U, V)
        report = {}
        report["eta_vs_metric"] = float(
            np.max(np.abs(Eta0 - _einsum("bmn,bn->bm", G0, Xi0)))
        )
        report["phi_xi"] = float(np.max(np.abs(_einsum("bmn,bn->bm", Phi0, Xi0))))
        report["eta_phi"] = float(np.max(np.abs(_einsum("bm,bmn->bn", Eta0, Phi0))))
        phi2 = _einsum("bmr,brn->bmn", Phi0, Phi0)
        target = -np.eye(m)[None] + _einsum("bm,bn->bmn", Xi0, Eta0)
        report["phi_squared"] = float(np.max(np.abs(phi2 - target)))
        pX = _einsum("bmn,bn->bm", Phi0, X)
        pY = _einsum("bmn,bn->bm", Phi0, Y)
        etaX = _einsum("bm,bm->b", Eta0, X)
        etaY = _einsum("bm,bm->b", Eta0, Y)
        report["phi_compat"] = float(np.max(np.abs(g(pX, pY) - g(X, Y) + etaX * etaY)))
        # d eta (X, Y) = g(X, phi Y) with the half-antisymmetrization convention;
        # Eta1[b, a, s] = d_s eta_a, so deta[b, m, n] = (d_m eta_n - d_n eta_m)/2
        deta = 0.5 * (Eta1.transpose(0, 2, 1) - Eta1)
        lhs = _einsum("bmn,bm,bn->b", deta, X, Y)
        rhs = _einsum("bmn,bm,bn->b", G0, X, pY)
        report["d_eta"] = float(np.max(np.abs(lhs - rhs)))
        sv = np.linalg.svd(Phi0, compute_uv=False)
        report["rank_phi_small"] = float(np.max(sv[:, -1]))
        report["rank_phi_gap"] = float(np.max(1e-8 / np.maximum(sv[:, -2], 1e-300)))
        # nabla_X xi = -phi X
        gamma = f.Gamma0
        covxi = _einsum("bms,bs->bm", Xi1, X) + _einsum(
            "bmnl,bn,bl->bm", gamma, X, Xi0
        )
        report["nabla_xi"] = float(np.max(np.abs(covxi + pX)))
        # (nabla_X phi) Y = g(X, Y) xi - eta(Y) X
        dphi = _einsum("bmls,bs,bl->bm", Phi1, X, Y)
        corr = _einsum("bmnr,bn,brl,bl->bm", gamma, X, Phi0, Y) - _einsum(
            "bmr,brnl,bn,bl->bm", Phi0, gamma, X, Y
        )
        lhsp = dphi + corr
        rhsp = g(X, Y)[:, None] * Xi0 - etaY[:, None] * X
        report["nabla_phi"] = float(np.max(np.abs(lhsp - rhsp)))
        # phi-sectional curvature of span {U, phi U}, U orthogonal to xi
        U = X - (etaX / g(Xi0, Xi0))[:, None] * Xi0
        pU = _einsum("bmn,bn->bm", Phi0, U)
        RU = _einsum("brsmn,bm,bn,bs->br", R, U, pU, pU)
        num = _einsum("bmn,bm,bn->b", G0, RU, U)
        den = g(U, U) * g(pU, pU)
        report["phi_sectional"] = float(np.max(np.abs(num / den - self.c_tilde)))
        return report

    def random_chart_points(self, rng, count):
        m = self.chart_dim - 1
        if self.c == -1:
            z = rng.normal(size=(count, m))
            r = 0.75 * rng.uniform(0.2, 1.0, size=(count, 1)) ** (1.0 / m)
            z = z * r / np.linalg.norm(z, axis=1, keepdims=True)
        else:
            z = rng.uniform(-0.9, 0.9, size=(count, m))
        t = rng.uniform(-1.0, 1.0, size=(count, 1))
        return np.concatenate([z, t], axis=1)


def make_model(kind: str, n: int, a: float = 1.0) -> BaseModel:
    """Build one of the six ambient models by name.

    ``kind`` is one of ``C_n, CP_n, CH_n, Sasakian_R, Sasakian_S,
    Sasakian_B``; ``a`` is the homothetic deformation parameter of the two
    deformable Sasakian models.
    """
    if kind == "C_n":
        return ComplexSpaceFormModel(n, 0)
    if kind == "CP_n":
        return ComplexSpaceFormModel(n, 1)
    if kind == "CH_n":
        return ComplexSpaceFormModel(n, -1)
    if kind == "Sasakian_R":
        return BoothbyWangModel(n, 0, 0.5)
    if kind == "Sasakian_S":
        return BoothbyWangModel(n, 1, a)
    if kind == "Sasakian_B":
        return BoothbyWangModel(n, -1, a)
    raise ValueError(f"unknown model kind {kind!r}")
