"""Sphere charts and the catalog of explicit immersions.

The parameter domain for sphere immersions is an atlas of rotated
generalized-spherical-coordinate charts (two charts up to n = 3, three for
n = 4, where any two singular loci of such charts must intersect).  Each
chart's singular locus is a great (n-2)-subsphere; a smooth distance-based
window vanishes near it and the windows form a partition of unity used by
the quadrature grids.

Catalog entries evaluate to order-3 jets of ambient chart coordinates, so
every downstream tensor is differentiated exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import ComplexJet, Jet, compose_univariate, constant, derivative, seed_variables
from .spaceforms import BaseModel, DomainError, SasakianB, make_model

__all__ = [
    "SphereChart",
    "ImmersionSpec",
    "HamiltonianDeformation",
    "CATALOG",
    "make_spec",
    "model_for",
    "eval_immersion",
    "hamiltonian_flow",
    "random_quartic",
    "loop_integral",
]

# Chart windows are sin^2(distance to the singular subsphere): polynomial in
# the sphere coordinates, so blended integrands stay analytic and Gauss
# quadrature keeps its spectral rate.  Raising the power sharpens the blend
# but pulls the normalization's complex poles toward the real domain.
WINDOW_POWER = 1
WINDOW_DROP = 1e-18
# nodes closer than this to their own chart's singular locus keep their
# (tiny) integration weight but are excluded from sup-norm residual checks
TRUST_RADIUS = 0.1


def _chart_rotations(n: int) -> list[np.ndarray]:
    """Rotations whose singular subspheres jointly stay far from every point."""
    d = n + 1
    eye = np.eye(d)
    if n in (2, 3):
        if n == 2:
            Q1 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        else:
            Q1 = eye[:, [2, 3, 0, 1]]  # swap pairs (1,3), (2,4)
        return [eye, Q1]
    if n == 4:
        # singular subspheres span(e0,e1,e2), span(e2,e3,e4), span(e0,e3,e4):
        # every pairwise intersection is far from the third chart's locus
        Q1 = eye[:, [2, 3, 4, 0, 1]]
        Q2 = eye[:, [0, 3, 4, 1, 2]]
        return [eye, Q1, Q2]
    raise ValueError(f"sphere atlas supports 2 <= n <= 4, got {n}")


class SphereChart:
    """Atlas of rotated spherical-coordinate charts on the unit n-sphere.

    Chart ``c`` maps parameters ``t = (theta_1..theta_{n-1}, phi)`` in
    ``(0, pi)^{n-1} x [0, 2pi)`` to ``u = Q_c u_std(t)`` where ``u_std`` is
    the standard spherical parametrization with first axis polar.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sphere dimension must be >= 2")
        self.n = n
        self.rotations = _chart_rotations(n)
        self.num_charts = len(self.rotations)

    def u_jets(self, chart: int, t, order: int = 3) -> list[Jet]:
        """Jets of the n+1 sphere coordinates at parameter batch ``t``."""
        tt = np.atleast_2d(np.asarray(t, dtype=float))
        seeds = seed_variables(tt, order, batch=True)
        n = self.n
        comps = []
        prefix = None
        for i in range(n - 1):
            th = seeds[i]
            comps.append(jets.cos(th) if prefix is None else prefix * jets.cos(th))
            prefix = jets.sin(th) if prefix is None else prefix * jets.sin(th)
        phi = seeds[n - 1]
        comps.append(prefix * jets.cos(phi) if prefix is not None else jets.cos(phi))
        comps.append(prefix * jets.sin(phi) if prefix is not None else jets.sin(phi))
        Q = self.rotations[chart]
        return [
            sum((Q[r, c] * comps[c] for c in range(n + 1) if Q[r, c] != 0.0),
                start=comps[0] * 0.0)
            for r in range(n + 1)
        ]

    def u_values(self, chart: int, t) -> np.ndarray:
        return np.stack([j.val for j in self.u_jets(chart, t, order=0)], axis=-1)

    def params_from_u(self, chart: int, u) -> np.ndarray:
        """Invert the chart map (valid away from its singular subsphere)."""
        uu = np.atleast_2d(np.asarray(u, dtype=float))
        v = uu @ self.rotations[chart]  # Q^T u, batched
        n = self.n
        t = np.empty(uu.shape[:-1] + (n,))
        for i in range(n - 1):
            tail = np.linalg.norm(v[..., i + 1 :], axis=-1)
            t[..., i] = np.arctan2(tail, v[..., i])
        t[..., n - 1] = np.mod(np.arctan2(v[..., n], v[..., n - 1]), 2.0 * np.pi)
        return t

    def singular_distance(self, chart: int, u) -> np.ndarray:
        """Angular distance from the chart's singular great subsphere."""
        uu = np.atleast_2d(np.asarray(u, dtype=float))
        v = uu @ self.rotations[chart]
        r = np.linalg.norm(v[..., -2:], axis=-1)
        return np.arcsin(np.clip(r, 0.0, 1.0))

    def window(self, chart: int, u, power: int | None = None) -> np.ndarray:
        """Unnormalized chart window sin^2p(distance to singular locus)."""
        uu = np.atleast_2d(np.asarray(u, dtype=float))
        v = uu @ self.rotations[chart]
        s2 = np.sum(v[..., -2:] ** 2, axis=-1)
        p = WINDOW_POWER if power is None else power
        return s2**p

    def partition_of_unity(self, u, power: int | None = None) -> np.ndarray:
        """Window weights normalized over charts; shape (num_charts, B)."""
        w = np.stack([self.window(c, u, power) for c in range(self.num_charts)])
        total = w.sum(axis=0)
        if np.any(total <= 0):
            raise RuntimeError("sphere atlas windows fail to cover a point")
        return w / total

    def anchor_point(self) -> np.ndarray:
        """A fixed point comfortably inside every chart's active region."""
        return np.full(self.n + 1, 1.0 / math.sqrt(self.n + 1))


# ---------------------------------------------------------------------------
# catalog specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianDeformation:
    """Polynomial Hamiltonian (monomial list) with flow time and step count."""

    coeffs: tuple  # tuple of (coefficient, exponent tuple over the 2n chart vars)
    epsilon: float
    steps: int = 64

    def gradient_terms(self, m: int):
        out = [[] for _ in range(m)]
        for c, e in self.coeffs:
            for mu in range(m):
                if e[mu] > 0:
                    e2 = list(e)
                    e2[mu] -= 1
                    out[mu].append((c * e[mu], tuple(e2)))
        return out


@dataclass(frozen=True)
class ImmersionSpec:
    """A catalog entry (or derived case) with validated parameters."""

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    @property
    def domain(self) -> str:
        return "torus" if self.kind == "product_torus" else "sphere"

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items() if k != "hamiltonian")
        return f"{self.kind}(n={self.n}{', ' + ps if ps else ''})"


CATALOG = {
    "whitney_c0": dict(
        model="C_n",
        params="r > 0 (radius), B (center, 2n reals)",
        note="sphere immersion into flat complex space; double point at the poles",
    ),
    "whitney_cp": dict(
        model="CP_n",
        params="theta > 0",
        note="sphere family in the projective model; theta -> 0 is totally geodesic",
    ),
    "whitney_ch": dict(
        model="CH_n",
        params="theta > 0",
        note="sphere family in the hyperbolic-ball model",
    ),
    "contact_whitney_r": dict(
        model="Sasakian_R",
        params="r > 0, a (fiber offset), B (2n+1 reals, contact translation)",
        note="Legendrian sphere in the flat contact model",
    ),
    "contact_whitney_s": dict(
        model="Sasakian_S",
        params="theta > 0, a > 0 (deformation)",
        note="Legendrian sphere in the deformed sphere model",
    ),
    "contact_whitney_b": dict(
        model="Sasakian_B",
        params="theta > 0, a > 0 (deformation)",
        note="Legendrian sphere over the hyperbolic ball; fiber reconstructed "
        "from the contact condition",
    ),
    "product_torus": dict(
        model="C_n",
        params="radii (n positive reals)",
        note="flat Lagrangian torus; parallel second fundamental form",
    ),
    "totally_geodesic_cp": dict(
        model="CP_n",
        params="(none); n = 2 only",
        note="totally geodesic Lagrangian sphere in the projective model",
    ),
    "perturbed": dict(
        model="C_n",
        params="epsilon >= 0, seed, steps >= 16, r > 0",
        note="Hamiltonian deformation of the flat-space sphere immersion",
    ),
    "lifted": dict(
        model="Sasakian_R",
        params="base in {whitney_c0, perturbed} plus the base's parameters",
        note="Legendrian lift of an exact Lagrangian in the flat model",
    ),
}


def make_spec(kind: str, n: int, **params) -> ImmersionSpec:
    """Validate parameters and build an immersion spec."""
    if kind not in CATALOG:
        raise ValueError(f"unknown catalog case {kind!r}; see CATALOG")
    if n < 2:
        raise ValueError("n must be >= 2")
    p = dict(params)
    if kind in ("whitney_cp", "whitney_ch", "contact_whitney_s", "contact_whitney_b"):
        theta = float(p.setdefault("theta", 0.5))
        if theta <= 0:
            raise ValueError(
                f"{kind} requires theta > 0 (theta = 0 is the totally geodesic case)"
            )
        if kind in ("contact_whitney_s", "contact_whitney_b"):
            a = float(p.setdefault("a", 1.0))
            if a <= 0:
                raise ValueError("deformation parameter a must be positive")
    elif kind == "whitney_c0":
        r = float(p.setdefault("r", 1.0))
        if r <= 0:
            raise ValueError("radius r must be positive")
        B = np.asarray(p.setdefault("B", np.zeros(2 * n)), dtype=float)
        if B.shape != (2 * n,):
            raise ValueError(f"center B must have {2 * n} components")
        p["B"] = tuple(B)
    elif kind == "contact_whitney_r":
        r = float(p.setdefault("r", 1.0))
        if r <= 0:
            raise ValueError("radius r must be positive")
        p.setdefault("a", 0.0)
        B = np.asarray(p.setdefault("B", np.zeros(2 * n + 1)), dtype=float)
        if B.shape != (2 * n + 1,):
            raise ValueError(f"translation B must have {2 * n + 1} components")
        p["B"] = tuple(B)
    elif kind == "product_torus":
        radii = np.asarray(p.setdefault("radii", np.ones(n)), dtype=float)
        if radii.shape != (n,) or np.any(radii <= 0):
            raise ValueError(f"radii must be {n} positive reals")
        p["radii"] = tuple(radii)
    elif kind == "totally_geodesic_cp":
        if n != 2:
            raise ValueError(
                "totally_geodesic_cp is restricted to n = 2: for n >= 3 the real "
                "locus cannot avoid the deleted hyperplane of a single affine chart"
            )
    elif kind == "perturbed":
        eps = float(p.setdefault("epsilon", 0.05))
        if eps < 0:
            raise ValueError("epsilon must be non-negative")
        steps = int(p.setdefault("steps", 32))
        if steps < 16:
            raise ValueError("RK4 step count must be at least 16")
        p.setdefault("seed", 1)
        p.setdefault("r", 1.0)
        if "hamiltonian" not in p:
            p["hamiltonian"] = random_quartic(n, int(p["seed"]))
        p["hamiltonian"] = _validated_hamiltonian(p["hamiltonian"], n)
    elif kind == "lifted":
        base = p.setdefault("base", "whitney_c0")
        if base not in ("whitney_c0", "perturbed"):
            raise ValueError("lift base must be whitney_c0 or perturbed")
        p.setdefault("r", 1.0)
        if base == "perturbed":
            p.setdefault("epsilon", 0.02)
            p.setdefault("steps", 32)
            p.setdefault("seed", 1)
        if "hamiltonian" in p:
            p["hamiltonian"] = _validated_hamiltonian(p["hamiltonian"], n)
    return ImmersionSpec(kind=kind, n=n, params=p)


def _validated_hamiltonian(terms, n: int) -> tuple:
    """A non-empty sequence of (finite real, 2n non-negative ints) pairs, as tuples."""
    if not isinstance(terms, (tuple, list)) or not terms:
        raise ValueError(f"hamiltonian must be a non-empty sequence of (coefficient, "
                         f"exponents) pairs, got {terms!r}")
    for i, term in enumerate(terms):
        c, e = term if isinstance(term, (tuple, list)) and len(term) == 2 else (None, None)
        if (isinstance(c, bool) or not isinstance(c, numbers.Real) or not math.isfinite(c)
                or not isinstance(e, (tuple, list)) or len(e) != 2 * n
                or not all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
                           and k >= 0 for k in e)):
            raise ValueError(f"hamiltonian term {i} {term!r} is not a (finite real "
                             f"coefficient, {2 * n} non-negative integer exponents) pair")
    return tuple((float(c), tuple(int(k) for k in e)) for c, e in terms)


def model_for(spec: ImmersionSpec) -> BaseModel:
    a = float(spec.params.get("a", 1.0))
    kind = CATALOG[spec.kind]["model"]
    if kind in ("Sasakian_S", "Sasakian_B"):
        return make_model(kind, spec.n, a)
    return make_model(kind, spec.n)


def random_quartic(n: int, seed: int, scale: float = 1.0):
    """Seeded random polynomial of degrees 2..4 on the 2n chart variables."""
    rng = np.random.default_rng(seed)
    m = 2 * n
    terms = []
    from itertools import combinations_with_replacement

    for deg in (2, 3, 4):
        for combo in combinations_with_replacement(range(m), deg):
            e = [0] * m
            for i in combo:
                e[i] += 1
            terms.append(tuple(e))
    coeffs = rng.normal(size=len(terms)) * (scale / math.sqrt(len(terms)))
    return tuple((float(c), e) for c, e in zip(coeffs, terms))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _complex_pairs(u: list[Jet], theta: float, variant: str):
    """Affine-chart coordinates of the projective/hyperbolic sphere families.

    ``variant`` selects the denominator pattern: ``cp`` uses
    (cosh + i sinh u) with the +i fiber slot, ``ch`` uses (sinh + i cosh u)
    with the -i slot.  Returns the n affine coordinates plus the
    homogeneous fiber slot and leading denominator.
    """
    n = len(u) - 1
    un = u[-1]
    one = constant(np.ones(un.batch_shape), un.num_vars, un.order)
    ch, sh = math.cosh(theta), math.sinh(theta)
    u2 = un * un
    if variant == "cp":
        slot1 = ComplexJet(ch * one, sh * un)
        num = ComplexJet(sh * ch * (1.0 + u2), un)
        den = ch * ch + sh * sh * u2
    elif variant == "ch":
        slot1 = ComplexJet(sh * one, ch * un)
        num = ComplexJet(sh * ch * (1.0 + u2), -un)
        den = sh * sh + ch * ch * u2
    else:
        raise ValueError(variant)
    wlast = ComplexJet(num.re / den, num.im / den)
    scale = slot1 * wlast
    q = scale.abs2()
    inv = ComplexJet(scale.re / q, (-scale.im) / q)
    return [inv * u[j] for j in range(n)], wlast, slot1


def _eval_whitney_c0(spec, u, order):
    n = spec.n
    r = spec.params["r"]
    B = spec.params["B"]
    un = u[-1]
    w = r * jets.recip(1.0 + un * un)
    xs = [u[j] * w + B[j] for j in range(n)]
    ys = [u[j] * w * un + B[n + j] for j in range(n)]
    return xs + ys


def _eval_whitney_cp(spec, u, order):
    zs, _, _ = _complex_pairs(u, spec.params["theta"], "cp")
    return [z.re for z in zs] + [z.im for z in zs]


def _eval_whitney_ch(spec, u, order):
    zs, _, _ = _complex_pairs(u, spec.params["theta"], "ch")
    return [z.re for z in zs] + [z.im for z in zs]


# ambient unitaries for the totally geodesic projective case (n = 2): the
# deleted hyperplane of the rotated affine chart meets the real locus only
# at the parameter chart's own (inactive) singular axis
_TG_UNITARIES = {
    0: np.array(
        [
            [1, 0, 0],
            [0, 1 / math.sqrt(2), -1j / math.sqrt(2)],
            [0, 1 / math.sqrt(2), 1j / math.sqrt(2)],
        ]
    ),
    1: np.array(
        [
            [0, 0, 1],
            [1 / math.sqrt(2), -1j / math.sqrt(2), 0],
            [1 / math.sqrt(2), 1j / math.sqrt(2), 0],
        ]
    ),
}


def _eval_totally_geodesic_cp(spec, u, chart, order):
    n = spec.n
    U = _TG_UNITARIES[chart]
    hom = [ComplexJet.from_real(uj) for uj in u]
    rot = []
    for r_ in range(n + 1):
        acc = hom[0] * complex(U[r_, 0])
        for c_ in range(1, n + 1):
            acc = acc + hom[c_] * complex(U[r_, c_])
        rot.append(acc)
    zs = [rot[j] / rot[n] for j in range(n)]
    return [z.re for z in zs] + [z.im for z in zs]


def _eval_contact_whitney_r(spec, u, order):
    n = spec.n
    r = spec.params["r"]
    a = spec.params["a"]
    B = spec.params["B"]
    un = u[-1]
    w = r * jets.recip(1.0 + un * un)
    xs = [u[j] * w * un for j in range(n)]
    ys = [u[j] * w for j in range(n)]
    z = un * w * w + r * a  # r^2 u/(1+u^2)^2 + r a
    # contact translation: (x, y, z) -> (x+Bx, y+By, z+Bz+sum By_i x_i)
    zt = z + B[2 * n] + sum((B[n + j] * xs[j] for j in range(n)), start=un * 0.0)
    return (
        [xj + B[j] for j, xj in enumerate(xs)]
        + [yj + B[n + j] for j, yj in enumerate(ys)]
        + [zt]
    )


def _eval_contact_whitney_s(spec, u, order):
    n = spec.n
    un = u[-1]
    one = constant(np.ones(un.batch_shape), un.num_vars, un.order)
    th = spec.params["theta"]
    ch, sh = math.cosh(th), math.sinh(th)
    u2 = un * un
    slot1 = ComplexJet(ch * one, sh * un)
    q = slot1.abs2()
    inv = ComplexJet(slot1.re / q, (-slot1.im) / q)
    ws = [inv * ComplexJet.from_real(u[j]) for j in range(n)]
    den = ch * ch + sh * sh * u2
    wlast = ComplexJet((sh * ch * (1.0 + u2)) / den, un / den)
    # graph chart of the unit sphere: drop the real part of the last slot
    return [w.re for w in ws] + [w.im for w in ws] + [wlast.im]


class _BergmanFiber:
    """Fiber coordinate of the ball-model Legendrian family.

    The contact condition forces dt = -omega along the image; by the
    rotational symmetry of the base map the pullback of omega is
    rho(u) du in the last sphere coordinate alone, so the fiber is a
    single-variable primitive, evaluated by composite Gauss panels and
    differentiated through univariate jets.
    """

    def __init__(self, n: int, theta: float):
        self.n = n
        self.theta = theta
        self.kappa = 4.0 * SasakianB._phi_sign
        self._gl = np.polynomial.legendre.leggauss(16)

    def _rho_jets(self, u_vals: np.ndarray, order: int) -> Jet:
        """omega-pullback density as a univariate jet batch."""
        seeds = seed_variables(u_vals[:, None], order + 1, batch=True)
        un = seeds[0]
        head = jets.sqrt(1.0 - un * un)
        u_list = [head] + [un * 0.0] * (self.n - 1) + [un]
        zs, _, _ = _complex_pairs(u_list, self.theta, "ch")
        s = zs[0].abs2()
        for z in zs[1:]:
            s = s + z.abs2()
        w = jets.recip(1.0 - s)
        acc = None
        for z in zs:
            x, y = jets._drop(z.re), jets._drop(z.im)
            dx, dy = derivative(z.re, 0), derivative(z.im, 0)
            term = y * dx - x * dy
            acc = term if acc is None else acc + term
        return acc * (self.kappa * jets._drop(w))

    def primitive_values(self, u_vals: np.ndarray) -> np.ndarray:
        """t(u) = -integral of rho from 0 to u, composite 16-point panels."""
        u_vals = np.asarray(u_vals, dtype=float)
        panel = max(0.02, min(0.25, self.theta / 2.0))
        xs, ws = self._gl
        out = np.zeros_like(u_vals)
        npanels = np.maximum(1, np.ceil(np.abs(u_vals) / panel).astype(int))
        maxp = int(npanels.max())
        for k in range(maxp):
            active = npanels > k
            lo = u_vals * (k / npanels)
            hi = u_vals * np.minimum(k + 1, npanels) / npanels
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            pts = mid[active, None] + half[active, None] * xs[None, :]
            rho = self._rho_jets(pts.ravel(), order=0).val.reshape(pts.shape)
            out[active] -= half[active] * (rho * ws[None, :]).sum(axis=1)
        return out

    def fiber_jet(self, un: Jet) -> Jet:
        vals = self.primitive_values(un.val.ravel()).reshape(un.val.shape)
        rho = self._rho_jets(un.val.ravel(), order=2)
        table = [
            vals,
            -rho.val.reshape(un.val.shape),
            -rho.d1[..., 0].reshape(un.val.shape),
            -rho.d2[..., 0, 0].reshape(un.val.shape),
        ]
        return compose_univariate(table[: un.order + 1], un)


_FIBER_CACHE: dict[tuple, _BergmanFiber] = {}


def _eval_contact_whitney_b(spec, u, order):
    n = spec.n
    zs, _, _ = _complex_pairs(u, spec.params["theta"], "ch")
    key = (n, float(spec.params["theta"]))
    if key not in _FIBER_CACHE:
        _FIBER_CACHE[key] = _BergmanFiber(n, spec.params["theta"])
    t = _FIBER_CACHE[key].fiber_jet(u[-1])
    return [z.re for z in zs] + [z.im for z in zs] + [t]


def _eval_product_torus(spec, t, order):
    tt = np.atleast_2d(np.asarray(t, dtype=float))
    seeds = seed_variables(tt, order, batch=True)
    radii = spec.params["radii"]
    xs = [radii[j] * jets.cos(seeds[j]) for j in range(spec.n)]
    ys = [radii[j] * jets.sin(seeds[j]) for j in range(spec.n)]
    return xs + ys


def hamiltonian_flow(x: list[Jet], ham: HamiltonianDeformation) -> list[Jet]:
    """Classical RK4 flow of the Hamiltonian field J grad F on the jet state.

    The 2n input jets are packed once into one state array shaped
    (coefficients, 2n, batch): the coefficient axis holds each distinct
    partial derivative once (value, then the i, i <= j and i <= j <= k
    partials: 10 rows for 2 variables at order 3), and the batch axis is
    last, so every numpy loop runs over it.  A product of jets is a fixed
    Leibniz table of (output, left, right, weight) terms, each one in-place
    multiply-add over rows of batch length.  Per stage, each distinct
    monomial of grad F is built once, as its parent (the monomial without
    one factor of its last variable) times that variable, in one stacked
    product per degree; J grad F is one contraction of the monomials with a
    coefficient matrix, and each RK4 stage is one array operation.
    """
    m = len(x)
    n = m // 2
    order, v = x[0].order, x[0].num_vars
    grads = ham.gradient_terms(m)
    needed = {e for terms in grads for _, e in terms}
    top = max(map(sum, needed))
    for degree in range(top, 1, -1):
        needed |= {_parent(e)[0] for e in needed if sum(e) == degree}
    monomials = sorted(needed, key=lambda e: (sum(e), e))
    mono_index = {e: i for i, e in enumerate(monomials)}
    C = np.zeros((m, len(monomials)))
    for mu, terms in enumerate(grads):
        for c, e in terms:
            C[mu, mono_index[e]] += c
    # J grad F: rows reordered with the complex-rotation sign pattern
    JC = np.concatenate([-C[n:], C[:n]], axis=0)

    state = jets._pack(x)
    table = jets._leibniz_table(v, order)
    mono = np.zeros((state.shape[0], len(monomials), state.shape[2]))
    mono[0, [i for i, e in enumerate(monomials) if sum(e) == 0]] = 1.0
    linear = [i for i, e in enumerate(monomials) if sum(e) == 1]
    linear_vars = [monomials[i].index(1) for i in linear]
    # one stacked product per degree: the degree's (contiguous) rows, the
    # rows of their parents and their last variables
    products = []
    for degree in range(2, top + 1):
        rows = [i for i, e in enumerate(monomials) if sum(e) == degree]
        split = [_parent(monomials[i]) for i in rows]
        products.append((
            slice(rows[0], rows[-1] + 1),
            [mono_index[parent] for parent, _ in split],
            [var for _, var in split],
        ))

    def field(state):
        mono[:, linear] = state[:, linear_vars]
        for rows, parents, variables in products:
            jets._packed_mul(mono[:, parents], state[:, variables], table, mono[:, rows])
        return np.matmul(JC, mono)

    steps = ham.steps
    h = ham.epsilon / steps
    for _ in range(steps):
        k1 = field(state)
        k2 = field(state + (h / 2.0) * k1)
        k3 = field(state + (h / 2.0) * k2)
        k4 = field(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state[0, 0])):
            raise FloatingPointError("Hamiltonian flow left the numeric range")
    return jets._unpack(state, order, v, x[0].batch_shape)


def _parent(e: tuple) -> tuple[tuple, int]:
    """A monomial of degree >= 1 as (parent, variable): e = parent * x_variable."""
    var = max(i for i, k in enumerate(e) if k)
    parent = list(e)
    parent[var] -= 1
    return tuple(parent), var


def _eval_perturbed(spec, u, order):
    base = make_spec("whitney_c0", spec.n, r=spec.params["r"])
    x = _eval_whitney_c0(base, u, order)
    ham = HamiltonianDeformation(
        coeffs=spec.params["hamiltonian"],
        epsilon=spec.params["epsilon"],
        steps=spec.params["steps"],
    )
    if ham.epsilon == 0.0:
        return x
    return hamiltonian_flow(x, ham)


# -- Legendrian lift ---------------------------------------------------------

class _LiftPrimitive:
    """Path-integrated primitive of sum(y_i dx_i) over a sphere chart.

    Paths run from a fixed anchor, one parameter coordinate at a time
    (polar angles first, then the periodic angle), with composite
    16-point Gauss panels per segment.
    """

    def __init__(self, base_spec: ImmersionSpec, chart_atlas: SphereChart):
        self.base_spec = base_spec
        self.atlas = chart_atlas
        self._gl = np.polynomial.legendre.leggauss(16)
        u_anchor = chart_atlas.anchor_point()
        self.anchor_params = [
            chart_atlas.params_from_u(c, u_anchor)[0]
            for c in range(chart_atlas.num_charts)
        ]

    def _base_jets(self, chart, t, order):
        u = self.atlas.u_jets(chart, t, order)
        if self.base_spec.kind == "whitney_c0":
            return _eval_whitney_c0(self.base_spec, u, order)
        return _eval_perturbed(self.base_spec, u, order)

    def _integrand(self, chart, t):
        """d/dtau of the primitive along each parameter direction: (B, n)."""
        x = self._base_jets(chart, t, order=1)
        n = self.base_spec.n
        xs, ys = x[:n], x[n:]
        vals = np.zeros(xs[0].val.shape + (self.base_spec.n,))
        for j in range(n):
            vals += ys[j].val[..., None] * xs[j].d1
        return vals

    def values(self, chart: int, t: np.ndarray) -> np.ndarray:
        tt = np.atleast_2d(np.asarray(t, dtype=float))
        B = tt.shape[0]
        t0 = self.anchor_params[chart]
        out = np.zeros(B)
        xs, ws = self._gl
        current = np.broadcast_to(t0, tt.shape).copy()
        for axis in range(self.base_spec.n):
            lo = current[:, axis].copy()
            hi = tt[:, axis]
            seglen = hi - lo
            npanels = np.maximum(1, np.ceil(np.abs(seglen) / 0.4).astype(int))
            maxp = int(npanels.max())
            for k in range(maxp):
                active = npanels > k
                a = lo + seglen * (k / npanels)
                b = lo + seglen * np.minimum(k + 1, npanels) / npanels
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                if not np.any(active):
                    continue
                pts = np.repeat(current[active][:, None, :], len(xs), axis=1)
                pts[:, :, axis] = mid[active, None] + half[active, None] * xs[None, :]
                flat = pts.reshape(-1, self.base_spec.n)
                integ = self._integrand(chart, flat)[:, axis].reshape(pts.shape[:2])
                out[active] += half[active] * (integ * ws[None, :]).sum(axis=1)
            current[:, axis] = hi
        return out

    def lifted_jets(self, chart: int, t: np.ndarray, order: int) -> list[Jet]:
        """Base coordinates plus the primitive fiber, all as jets."""
        base = self._base_jets(chart, t, order)
        n = self.base_spec.n
        xs, ys = base[:n], base[n:]
        z = Jet(order, base[0].num_vars, self.values(chart, t))
        if order == 0:
            return base + [z]
        pa = []
        for a_ in range(base[0].num_vars):
            acc = None
            for j in range(n):
                term = jets._drop(ys[j]) * derivative(xs[j], a_)
                acc = term if acc is None else acc + term
            pa.append(acc)
        for a_, p in enumerate(pa):
            z.d1[..., a_] = p.val
            if order >= 2:
                z.d2[..., a_, :] = p.d1
            if order >= 3:
                z.d3[..., a_, :, :] = p.d2
        if order >= 2:
            z.d2 = jets._mirror2(z.d2, z.num_vars)
        if order >= 3:
            z.d3 = jets._mirror3(z.d3, z.num_vars)
        return base + [z]


_LIFT_CACHE: dict = {}


def _lift_primitive_for(spec: ImmersionSpec, atlas: SphereChart) -> _LiftPrimitive:
    base_kind = spec.params["base"]
    if base_kind == "whitney_c0":
        base = make_spec("whitney_c0", spec.n, r=spec.params["r"])
    else:
        base = make_spec("perturbed", spec.n, **{
            k: v for k, v in spec.params.items()
            if k in ("r", "epsilon", "steps", "seed", "hamiltonian")
        })
    key = (base.kind, base.n, tuple(sorted(base.params.items())), atlas.num_charts)
    if key not in _LIFT_CACHE:
        _LIFT_CACHE[key] = _LiftPrimitive(base, atlas)
    return _LIFT_CACHE[key]


def _eval_lifted(spec, u, chart, t, atlas, order):
    prim = _lift_primitive_for(spec, atlas)
    return prim.lifted_jets(chart, t, order)


def loop_integral(spec: ImmersionSpec, atlas: SphereChart, chart: int = 0,
                  theta_polar: float | None = None, resolution: int = 64) -> float:
    """Integral of sum(y_i dx_i) around a closed azimuthal loop (exactness check)."""
    prim = _lift_primitive_for(spec if spec.kind == "lifted" else
                               make_spec("lifted", spec.n, base=spec.kind,
                                         **{k: v for k, v in spec.params.items()
                                            if k in ("r", "epsilon", "steps", "seed",
                                                     "hamiltonian")}),
                               atlas)
    n = spec.n
    t0 = np.full(n, np.pi / 2)
    if theta_polar is not None:
        t0[0] = theta_polar
    xs, ws = np.polynomial.legendre.leggauss(resolution)
    phis = np.pi + np.pi * xs
    pts = np.repeat(t0[None, :], resolution, axis=0)
    pts[:, n - 1] = phis
    integ = prim._integrand(chart, pts)[:, n - 1]
    return float(np.pi * (integ * ws).sum())


def eval_immersion(
    spec: ImmersionSpec,
    chart_index: int,
    t,
    atlas: SphereChart | None = None,
    order: int = 3,
) -> list[Jet]:
    """Order-``order`` jets of the ambient chart coordinates at parameters ``t``.

    For sphere-domain cases ``t`` are chart parameters of ``atlas`` (built
    on demand when omitted); the torus case takes the n angles directly.
    """
    if spec.domain == "torus":
        return _eval_product_torus(spec, t, order)
    if atlas is None:
        atlas = SphereChart(spec.n)
    u = atlas.u_jets(chart_index, t, order)
    if spec.kind == "whitney_c0":
        return _eval_whitney_c0(spec, u, order)
    if spec.kind == "whitney_cp":
        return _eval_whitney_cp(spec, u, order)
    if spec.kind == "whitney_ch":
        return _eval_whitney_ch(spec, u, order)
    if spec.kind == "totally_geodesic_cp":
        return _eval_totally_geodesic_cp(spec, u, chart_index, order)
    if spec.kind == "contact_whitney_r":
        return _eval_contact_whitney_r(spec, u, order)
    if spec.kind == "contact_whitney_s":
        return _eval_contact_whitney_s(spec, u, order)
    if spec.kind == "contact_whitney_b":
        return _eval_contact_whitney_b(spec, u, order)
    if spec.kind == "perturbed":
        return _eval_perturbed(spec, u, order)
    if spec.kind == "lifted":
        return _eval_lifted(spec, u, chart_index, t, atlas, order)
    raise ValueError(f"unhandled case {spec.kind!r}")
