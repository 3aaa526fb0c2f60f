"""Sphere charts and the catalog of explicit immersions.

Sphere nodes are the parameters ``t = (theta_1..theta_{n-1}, phi)`` of the
standard spherical parametrization u(t), first axis polar.  Each node's
jets are taken in a chart centred at that node, s -> (u0 + Q s) /
sqrt(1 + |s|^2), where the columns of Q are an orthonormal basis of the
tangent space at u0 from a Householder reflection.  The round metric is the
identity at s = 0, so the frames are equally well conditioned at every
point of the sphere, poles included, and no node needs another chart.

Catalog entries evaluate to order-3 jets of ambient chart coordinates, so
every downstream tensor is differentiated exactly.  The jets are packed
arrays shaped (coefficients, B, chart dim) (see :mod:`whitneygeo.jets`):
the node chart's jets have a closed form at s = 0, and every formula, its
complex slots included (as complex128), is a chain of packed products and
compositions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .spaceforms import BaseModel, DomainError, SasakianB, make_model

__all__ = [
    "ImmersionSpec",
    "HamiltonianDeformation",
    "CATALOG",
    "make_spec",
    "model_for",
    "eval_immersion",
    "hamiltonian_flow",
    "node_jets",
    "params_from_u",
    "random_quartic",
    "loop_integral",
    "sphere_points",
]


def _spherical_jets(t, order: int) -> np.ndarray:
    """Packed jets of u(t) in the spherical parameters themselves, (coefficients, B, n+1).

    Coordinate k of u is a product of functions of one angle each (sin of
    the angles before k, cos of angle k), so each partial is a product of
    their derivatives.
    """
    tt = np.atleast_2d(np.asarray(t, dtype=float))
    n = tt.shape[-1]
    s, c = np.sin(tt), np.cos(tt)
    sin, cos = (s, c, -s, -c), (c, -s, -c, s)  # derivatives 0..3
    basis = jets._packed_basis(n, order)
    u = np.zeros((len(basis), len(tt), n + 1))
    for r, idx in enumerate(basis):
        counts = [idx.count(i) for i in range(n)]
        for k in range(n + 1):
            if any(counts[k + 1 :]):
                continue  # coordinate k does not depend on the later angles
            row = cos[counts[k]][:, k] if k < n else 1.0
            for i in range(min(k, n)):
                row = row * sin[counts[i]][:, i]
            u[r, :, k] = row
    return u


def sphere_points(t) -> np.ndarray:
    """The sphere points u(t) of spherical parameters ``t``, shaped (B, n+1)."""
    return _spherical_jets(t, 0)[0]


def params_from_u(u) -> np.ndarray:
    """Spherical parameters of sphere points ``u``, the inverse of :func:`sphere_points`."""
    uu = np.atleast_2d(np.asarray(u, dtype=float))
    n = uu.shape[-1] - 1
    t = np.empty(uu.shape[:-1] + (n,))
    for i in range(n - 1):
        tail = np.linalg.norm(uu[..., i + 1 :], axis=-1)
        t[..., i] = np.arctan2(tail, uu[..., i])
    t[..., n - 1] = np.mod(np.arctan2(uu[..., n], uu[..., n - 1]), 2.0 * np.pi)
    return t


def _reflections(u: np.ndarray) -> np.ndarray:
    """Householder reflections H = I - 2 v v^T / |v|^2 with v = u + sign(u_n) e_n.

    H u = -sign(u_n) e_n, so the first n columns of the symmetric orthogonal
    H are an orthonormal basis of the tangent space at u.  The sign keeps
    |v|^2 = 2 (1 + |u_n|) >= 2.  Shaped (B, n+1, n+1).
    """
    v = np.array(u, dtype=float)
    v[:, -1] += np.where(v[:, -1] < 0.0, -1.0, 1.0)
    H = -2.0 * v[:, :, None] * v[:, None, :] / np.sum(v * v, axis=-1)[:, None, None]
    H += np.eye(u.shape[-1])
    return H


def node_jets(u, order: int = 3) -> np.ndarray:
    """Packed jets of the chart s -> (u0 + Q s) / sqrt(1 + |s|^2) at s = 0, one per point u0.

    Q is the tangent basis of :func:`_reflections`.  Since (1 + |s|^2)^(-1/2)
    = 1 - |s|^2 / 2 + O(|s|^4), the partials are d_i = Q_i, d_ij = -u0
    delta_ij and d_ijk = -(Q_i delta_jk + Q_j delta_ik + Q_k delta_ij).
    Shaped (coefficients, B, n+1), the rows in the order of
    ``jets._packed_basis(n, order)``.
    """
    u0 = np.atleast_2d(np.asarray(u, dtype=float))
    n = u0.shape[-1] - 1
    Q = np.moveaxis(_reflections(u0)[:, :, :n], -1, 0)  # Q[i] is the i-th tangent vector
    basis = jets._packed_basis(n, order)
    out = np.zeros((len(basis), len(u0), n + 1))
    for r, idx in enumerate(basis):
        if not idx:
            out[r] = u0
        elif len(idx) == 1:
            out[r] = Q[idx[0]]
        elif len(idx) == 2:
            if idx[0] == idx[1]:
                out[r] = -u0
        else:
            a, b, c = idx
            out[r] = -((b == c) * Q[a] + (a == c) * Q[b] + (a == b) * Q[c])
    return out


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


class _Params(dict):
    """Validated spec parameters: read-only and hashable, so a spec can key a dict."""

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("spec parameters are read-only; build a new spec with make_spec")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@dataclass(frozen=True)
class ImmersionSpec:
    """A catalog entry (or derived case) with validated parameters."""

    kind: str
    n: int
    params: dict = field(default_factory=_Params)

    @property
    def domain(self) -> str:
        return "torus" if self.kind == "product_torus" else "sphere"


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


def _real(p: dict, name: str, default: float) -> float:
    """Parameter ``name`` (or its default) as a finite float, stored back into ``p``."""
    raw = p.get(name, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    p[name] = value
    return value


def _integer(p: dict, name: str, default: int) -> int:
    """Parameter ``name`` (or its default) as an int, stored back into ``p``."""
    raw = p.get(name, default)
    if isinstance(raw, numbers.Integral) and not isinstance(raw, bool):
        p[name] = int(raw)
        return p[name]
    value = _real(p, name, default)
    if not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {raw!r}")
    p[name] = int(value)
    return p[name]


def _reals(p: dict, name: str, default, size: int) -> tuple:
    """Parameter ``name`` as a tuple of ``size`` finite floats, stored back into ``p``."""
    values = np.asarray(p.get(name, default), dtype=float)
    if values.shape != (size,) or not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be {size} finite reals")
    p[name] = tuple(float(v) for v in values)
    return p[name]


def make_spec(kind: str, n: int, **params) -> ImmersionSpec:
    """Validate parameters and build an immersion spec.

    Numeric parameters are stored as the float or int they were validated
    as; a non-finite value, or a non-integral ``steps`` or ``seed``, raises
    a ``ValueError`` that names it.
    """
    if kind not in CATALOG:
        raise ValueError(f"unknown catalog case {kind!r}; see CATALOG")
    if n < 2:
        raise ValueError("n must be >= 2")
    p = dict(params)
    if kind in ("whitney_cp", "whitney_ch", "contact_whitney_s", "contact_whitney_b"):
        if _real(p, "theta", 0.5) <= 0:
            raise ValueError(
                f"{kind} requires theta > 0 (theta = 0 is the totally geodesic case)"
            )
        if kind in ("contact_whitney_s", "contact_whitney_b") and _real(p, "a", 1.0) <= 0:
            raise ValueError("deformation parameter a must be positive")
    elif kind == "whitney_c0":
        if _real(p, "r", 1.0) <= 0:
            raise ValueError("radius r must be positive")
        _reals(p, "B", np.zeros(2 * n), 2 * n)  # the center
    elif kind == "contact_whitney_r":
        if _real(p, "r", 1.0) <= 0:
            raise ValueError("radius r must be positive")
        _real(p, "a", 0.0)
        _reals(p, "B", np.zeros(2 * n + 1), 2 * n + 1)  # the contact translation
    elif kind == "product_torus":
        if min(_reals(p, "radii", np.ones(n), n)) <= 0:
            raise ValueError(f"radii must be {n} positive reals")
    elif kind == "totally_geodesic_cp":
        if n != 2:
            raise ValueError(
                "totally_geodesic_cp is restricted to n = 2: for n >= 3 the real "
                "locus cannot avoid the deleted hyperplane of a single affine chart"
            )
    elif kind == "perturbed":
        if _real(p, "epsilon", 0.05) < 0:
            raise ValueError("epsilon must be non-negative")
        if _integer(p, "steps", 32) < 16:
            raise ValueError("RK4 step count must be at least 16")
        _integer(p, "seed", 1)
        _real(p, "r", 1.0)
        if "hamiltonian" not in p:
            p["hamiltonian"] = random_quartic(n, p["seed"])
        p["hamiltonian"] = _validated_hamiltonian(p["hamiltonian"], n)
    elif kind == "lifted":
        base = p.setdefault("base", "whitney_c0")
        if base not in ("whitney_c0", "perturbed"):
            raise ValueError("lift base must be whitney_c0 or perturbed")
        _real(p, "r", 1.0)
        if base == "perturbed":
            _real(p, "epsilon", 0.02)
            _integer(p, "steps", 32)
            _integer(p, "seed", 1)
        if "hamiltonian" in p:
            p["hamiltonian"] = _validated_hamiltonian(p["hamiltonian"], n)
    return ImmersionSpec(kind=kind, n=n, params=_Params(p))


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

def _plus(x: np.ndarray, c) -> np.ndarray:
    """The packed jet x + c for a constant c, in place: only the value row moves."""
    x[0] += c
    return x


def _complex_pairs(u: np.ndarray, theta: float, variant: str, ops) -> np.ndarray:
    """Affine-chart coordinates of the projective/hyperbolic sphere families.

    ``u`` holds packed sphere-coordinate jets; the result is the n complex
    coordinates z_j = u_j / (s w), complex packed.  ``variant`` ``cp`` has
    the fiber slot s = cosh + i sinh u_n and the last homogeneous
    coordinate w = (sinh cosh (1 + u_n^2) + i u_n) / (cosh^2 + sinh^2 u_n^2);
    ``ch`` swaps cosh and sinh in s and in the denominator, and conjugates
    the numerator.
    """
    n = u.shape[-1] - 1
    un = u[..., -1]
    ch, sh = math.cosh(theta), math.sinh(theta)
    if variant == "cp":
        a, b, sign = ch, sh, 1.0
    elif variant == "ch":
        a, b, sign = sh, ch, -1.0
    else:
        raise ValueError(variant)
    u2 = ops.mul(un, un)
    slot = _plus(1j * b * un, a)
    num = _plus(sh * ch * u2 + 1j * sign * un, sh * ch)
    den = _plus(b * b * u2, a * a)
    inv = ops.mul(den, ops.fn("recip", ops.mul(slot, num)))
    return ops.mul(u[..., :n], inv[..., None])


def _split(z: np.ndarray, *extra) -> np.ndarray:
    """Real chart coordinates (Re z, Im z, extra...) on the last axis."""
    return np.concatenate([z.real, z.imag, *(e[..., None] for e in extra)], axis=-1)


def _eval_whitney_c0(spec, u, ops):
    n = spec.n
    un = u[..., -1]
    w = spec.params["r"] * ops.fn("recip", _plus(ops.mul(un, un), 1.0))
    uw = ops.mul(u[..., :n], w[..., None])
    x = np.concatenate([uw, ops.mul(uw, un[..., None])], axis=-1)
    x[0] += spec.params["B"]
    return x


def _eval_whitney_cp(spec, u, ops):
    return _split(_complex_pairs(u, spec.params["theta"], "cp", ops))


def _eval_whitney_ch(spec, u, ops):
    return _split(_complex_pairs(u, spec.params["theta"], "ch", ops))


def _eval_totally_geodesic_cp(spec, u, ops):
    """The real locus in the affine chart whose centre is the node.

    The per-node reflection of :func:`_reflections`, a real orthogonal map
    of the homogeneous coordinates and so an isometry of CP_n, takes the
    node to (up to sign) e_n, where the affine chart z = U_j / U_n is 0.
    """
    n = spec.n
    rot = np.einsum("rbi,bij->rbj", u, _reflections(u[0]))
    return _split(ops.mul(rot[..., :n], ops.fn("recip", rot[..., n])[..., None]))


def _eval_contact_whitney_r(spec, u, ops):
    n = spec.n
    r = spec.params["r"]
    B = spec.params["B"]
    un = u[..., -1]
    w = r * ops.fn("recip", _plus(ops.mul(un, un), 1.0))
    ys = ops.mul(u[..., :n], w[..., None])
    xs = ops.mul(ys, un[..., None])
    z = ops.mul(ops.mul(un, w), w)  # r^2 u/(1+u^2)^2
    # contact translation: (x, y, z) -> (x+Bx, y+By, z+Bz+sum By_i x_i)
    x = np.concatenate([xs, ys, (z + xs @ B[n : 2 * n])[..., None]], axis=-1)
    x[0] += B
    x[0, :, 2 * n] += r * spec.params["a"]
    return x


def _eval_contact_whitney_s(spec, u, ops):
    n = spec.n
    un = u[..., -1]
    th = spec.params["theta"]
    ch, sh = math.cosh(th), math.sinh(th)
    slot = _plus(1j * sh * un, ch)
    den = _plus(sh * sh * ops.mul(un, un), ch * ch)
    ws = ops.mul(u[..., :n], ops.fn("recip", slot)[..., None])
    # graph chart of the unit sphere: the imaginary part of the last slot
    return _split(ws, ops.mul(un, ops.fn("recip", den)))


class _BergmanFiber:
    """Fiber coordinate of the ball-model Legendrian family.

    The contact condition forces dt = -omega along the image; by the
    rotational symmetry of the base map the pullback of omega is
    rho(u) du in the last sphere coordinate alone, so the fiber is a
    single-variable primitive, evaluated by composite Gauss panels and
    composed with the packed jet of that coordinate.
    """

    def __init__(self, n: int, theta: float):
        self.n = n
        self.theta = theta
        self.kappa = 4.0 * SasakianB._phi_sign
        self._gl = np.polynomial.legendre.leggauss(16)

    def _rho_jets(self, u_vals: np.ndarray, order: int) -> np.ndarray:
        """omega-pullback density at ``u_vals`` and its first ``order`` derivatives.

        Univariate packed rows: row k is the k-th derivative.  At the sphere
        point (sqrt(1 - u^2), 0, ..., 0, u) only z_0 = sqrt(1 - u^2) c(u) is
        nonzero, with c the factor of :func:`_complex_pairs`.  In y dx - x dy
        and in |z|^2 the root enters squared, so rho = kappa (1 - u^2)
        (Im c Re c' - Re c Im c') / (1 - (1 - u^2) |c|^2) is smooth through
        u = +-1.
        """
        ops = jets._Ops(1, order + 1)
        un = np.zeros((order + 2, len(u_vals)))
        un[0], un[1] = u_vals, 1.0
        one = np.zeros_like(un)
        one[0] = 1.0
        c = _complex_pairs(np.stack([one, un], axis=-1), self.theta, "ch", ops)[..., 0]
        cr, ci = c.real, c.imag
        q = _plus(-ops.mul(un, un), 1.0)  # 1 - u^2
        w = ops.fn("recip", _plus(-ops.mul(q, ops.mul(cr, cr) + ops.mul(ci, ci)), 1.0))
        # Im c Re c' - Re c Im c', one order down: d/du shifts the rows up by one
        low = jets._Ops(1, order)
        acc = low.mul(ci[:-1], cr[1:]) - low.mul(cr[:-1], ci[1:])
        return low.mul(low.mul(acc, q[:-1]), self.kappa * w[:-1])

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
            rho = self._rho_jets(pts.ravel(), order=0)[0].reshape(pts.shape)
            out[active] -= half[active] * (rho * ws[None, :]).sum(axis=1)
        return out

    def fiber_jet(self, un: np.ndarray, ops) -> np.ndarray:
        """The fiber as a packed jet, from the packed jet ``un`` of u_n."""
        rho = self._rho_jets(un[0], order=2)
        derivs = np.stack((self.primitive_values(un[0]), -rho[0], -rho[1], -rho[2]))
        return jets._packed_compose(derivs[: ops.order + 1], [un], ops.table)


def _eval_contact_whitney_b(spec, u, ops):
    z = _complex_pairs(u, spec.params["theta"], "ch", ops)
    fiber = _BergmanFiber(spec.n, spec.params["theta"])
    return _split(z, fiber.fiber_jet(u[..., -1], ops))


def _eval_product_torus(spec, t, order):
    cos, sin = jets._seed_angles(np.atleast_2d(np.asarray(t, dtype=float)), order)
    radii = np.array(spec.params["radii"])
    return np.concatenate([radii * cos, radii * sin], axis=-1)


def hamiltonian_flow(x: np.ndarray, ham: HamiltonianDeformation, num_vars: int) -> np.ndarray:
    """Classical RK4 flow of the Hamiltonian field J grad F on packed jets.

    ``x`` holds the 2n chart coordinates as packed jets in ``num_vars``
    variables, (coefficients, batch, 2n); the flowed jets come back in a new
    array of the same layout.  Inside, the state is one array shaped
    (coefficients, 2n, batch): the coefficient axis holds each distinct
    partial derivative once (value, then the i, i <= j and i <= j <= k
    partials: 10 rows for 2 variables at order 3), and the batch axis is
    last, so every numpy loop runs over it.  A product of jets is a fixed
    Leibniz table of (output, left, right, weight) terms, each one in-place
    multiply-add over rows of batch length.  Per stage, each distinct
    monomial of grad F is built once, as its parent (the monomial without
    one factor of its last variable) times that variable, in one stacked
    product per degree; J grad F is one contraction of the monomials with a
    coefficient matrix.

    The step loop allocates nothing: the state, the four slopes, the stage
    argument, the slope sum, the monomials, the gathered parent and
    variable rows and the Leibniz term buffers are allocated once per call,
    and every stage writes into them.  The chunk workers keep their heaps
    mapped (``verify._MALLOPT``), but a serial run in the calling process
    and the first map in a new process still get large temporaries from
    the allocator as fresh mappings that are unmapped when freed.  There a
    loop that allocated its 0.2-3.7 MB temporaries took a page fault for
    every page of every one of them: about 230 000 faults for one
    2304-node order-3 batch, a third of the flow's time.  The RK4
    combinations keep their operation order, ((k1 + 2 k2) + 2 k3) + k4 and
    so on, so the jets do not depend on how the loop stores them.
    """
    m = x.shape[-1]
    n = m // 2
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

    # a copy: the loop updates the state in place
    state = np.array(np.moveaxis(x, -1, 1), order="C")
    rows, _, batch = state.shape
    table = jets._leibniz_table(num_vars, jets._packed_order(x, num_vars))
    mono = np.zeros((rows, len(monomials), batch))
    mono[0, [i for i, e in enumerate(monomials) if sum(e) == 0]] = 1.0
    linear = [(i, e.index(1)) for i, e in enumerate(monomials) if sum(e) == 1]
    # one stacked product per degree: the degree's (contiguous) monomials,
    # gathered from the rows of their parents and their last variables
    products = []
    for degree in range(2, top + 1):
        block = [i for i, e in enumerate(monomials) if sum(e) == degree]
        split = [_parent(monomials[i]) for i in block]
        products.append((
            mono[:, block[0] : block[-1] + 1],
            np.array([mono_index[parent] for parent, _ in split]),
            np.array([var for _, var in split]),
            np.empty((rows, len(block), batch)),
            np.empty((rows, len(block), batch)),
            np.empty((len(block), batch)),
        ))

    def field(s, out):
        for i, var in linear:
            mono[:, i] = s[:, var]
        for target, parents, variables, left, right, scratch in products:
            # a "clip" take writes into its out; a "raise" one copies first
            np.take(mono, parents, axis=1, out=left, mode="clip")
            np.take(s, variables, axis=1, out=right, mode="clip")
            jets._packed_mul(left, right, table, target, scratch)
        np.matmul(JC, mono, out=out)

    k1, k2, k3, k4, arg, acc = (np.empty_like(state) for _ in range(6))
    finite = np.empty(batch, dtype=bool)
    steps = ham.steps
    h = ham.epsilon / steps
    for _ in range(steps):
        field(state, k1)
        np.multiply(k1, h / 2.0, out=arg)
        arg += state
        field(arg, k2)
        np.multiply(k2, h / 2.0, out=arg)
        arg += state
        field(arg, k3)
        np.multiply(k3, h, out=arg)
        arg += state
        field(arg, k4)
        # state + (h/6) (((k1 + 2 k2) + 2 k3) + k4)
        np.multiply(k2, 2.0, out=acc)
        acc += k1
        np.multiply(k3, 2.0, out=arg)
        acc += arg
        acc += k4
        acc *= h / 6.0
        state += acc
        if not np.isfinite(state[0, 0], out=finite).all():
            raise FloatingPointError("Hamiltonian flow left the numeric range")
    return np.ascontiguousarray(np.moveaxis(state, 1, -1))


def _parent(e: tuple) -> tuple[tuple, int]:
    """A monomial of degree >= 1 as (parent, variable): e = parent * x_variable."""
    var = max(i for i, k in enumerate(e) if k)
    parent = list(e)
    parent[var] -= 1
    return tuple(parent), var


def _eval_perturbed(spec, u, ops):
    base = make_spec("whitney_c0", spec.n, r=spec.params["r"])
    x = _eval_whitney_c0(base, u, ops)
    ham = HamiltonianDeformation(
        coeffs=spec.params["hamiltonian"],
        epsilon=spec.params["epsilon"],
        steps=spec.params["steps"],
    )
    if ham.epsilon == 0.0:
        return x
    return hamiltonian_flow(x, ham, ops.v)


# -- Legendrian lift ---------------------------------------------------------

class _LiftPrimitive:
    """Path-integrated primitive of sum(y_i dx_i) over the spherical parameters.

    Paths run from one anchor, one parameter coordinate at a time (polar
    angles first, then the periodic angle), with composite 16-point Gauss
    panels per segment; the integrand is the form along the coordinate
    line, through the partials of u(t).  Nodes that share the first
    coordinates share the first segments, which are integrated once.
    """

    def __init__(self, base_spec: ImmersionSpec):
        self.base_spec = base_spec
        self._gl = np.polynomial.legendre.leggauss(16)
        n = base_spec.n
        self.anchor = params_from_u(np.full(n + 1, 1.0 / math.sqrt(n + 1)))[0]

    def _base_jets(self, u, ops):
        if self.base_spec.kind == "whitney_c0":
            return _eval_whitney_c0(self.base_spec, u, ops)
        return _eval_perturbed(self.base_spec, u, ops)

    def _integrand(self, t, axis):
        """d/dtau of the primitive along parameter ``axis``: (B,)."""
        n = self.base_spec.n
        # the base as 1-variable order-1 jets in the path parameter: the
        # value row and the partial along ``axis``
        u = _spherical_jets(t, order=1)[[0, 1 + axis]]
        x = self._base_jets(u, jets._Ops(1, 1))
        # sum over j of y_j d_tau x_j
        return (x[0, :, n:] * x[1, :, :n]).sum(axis=-1)

    def values(self, t: np.ndarray) -> np.ndarray:
        tt = np.atleast_2d(np.asarray(t, dtype=float))
        t0 = self.anchor
        out = np.zeros(tt.shape[0])
        xs, ws = self._gl
        for axis in range(self.base_spec.n):
            # the path to t runs from the anchor along each axis in turn, so
            # its segments up to this one depend on t[:, :axis + 1] only:
            # integrate each segment once per distinct head
            _, first, back = np.unique(
                tt[:, : axis + 1], axis=0, return_index=True, return_inverse=True
            )
            current = np.concatenate(
                [tt[first, :axis], np.broadcast_to(t0[axis:], (len(first), len(t0) - axis))],
                axis=1,
            )
            total = out[first]
            lo = current[:, axis].copy()
            hi = tt[first, axis]
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
                integ = self._integrand(flat, axis).reshape(pts.shape[:2])
                total[active] += half[active] * (integ * ws[None, :]).sum(axis=1)
            out = total[back.reshape(-1)]
        return out

    def lifted_jets(self, t: np.ndarray, u: np.ndarray, ops) -> np.ndarray:
        """Base coordinates plus the primitive fiber, as packed jets in the node charts of ``u``."""
        n = self.base_spec.n
        base = self._base_jets(u, ops)
        z = np.empty(base.shape[:2])
        z[0] = self.values(t)
        if ops.order:
            # the fiber's partials d_a z = sum_j y_j d_a x_j, one order lower:
            # the partial over the sorted indices (a, rest) is row rest of d_a z
            dx = jets._packed_gradient(base[..., :n], n)
            low = jets._leibniz_table(n, ops.order - 1)
            dz = jets._packed_matmul(base[: len(dx), :, None, n:], dx, low)[..., 0, :]
            row = {idx: r for r, idx in enumerate(jets._packed_basis(n, ops.order - 1))}
            partials = jets._packed_basis(n, ops.order)[1:]
            z[1:] = dz[[row[idx[1:]] for idx in partials], :, [idx[0] for idx in partials]]
        return np.concatenate([base, z[..., None]], axis=-1)


def _lift_primitive_for(spec: ImmersionSpec) -> _LiftPrimitive:
    base_kind = spec.params["base"]
    if base_kind == "whitney_c0":
        base = make_spec("whitney_c0", spec.n, r=spec.params["r"])
    else:
        base = make_spec("perturbed", spec.n, **{
            k: v for k, v in spec.params.items()
            if k in ("r", "epsilon", "steps", "seed", "hamiltonian")
        })
    return _LiftPrimitive(base)


def loop_integral(spec: ImmersionSpec, theta_polar: float | None = None,
                  resolution: int = 64) -> float:
    """Integral of sum(y_i dx_i) around a closed azimuthal loop (exactness check)."""
    prim = _lift_primitive_for(spec if spec.kind == "lifted" else
                               make_spec("lifted", spec.n, base=spec.kind,
                                         **{k: v for k, v in spec.params.items()
                                            if k in ("r", "epsilon", "steps", "seed",
                                                     "hamiltonian")}))
    n = spec.n
    t0 = np.full(n, np.pi / 2)
    if theta_polar is not None:
        t0[0] = theta_polar
    xs, ws = np.polynomial.legendre.leggauss(resolution)
    phis = np.pi + np.pi * xs
    pts = np.repeat(t0[None, :], resolution, axis=0)
    pts[:, n - 1] = phis
    integ = prim._integrand(pts, n - 1)
    return float(np.pi * (integ * ws).sum())


_EVALUATORS = {
    "whitney_c0": _eval_whitney_c0,
    "whitney_cp": _eval_whitney_cp,
    "whitney_ch": _eval_whitney_ch,
    "totally_geodesic_cp": _eval_totally_geodesic_cp,
    "contact_whitney_r": _eval_contact_whitney_r,
    "contact_whitney_s": _eval_contact_whitney_s,
    "contact_whitney_b": _eval_contact_whitney_b,
    "perturbed": _eval_perturbed,
}


def eval_immersion(spec: ImmersionSpec, t, order: int = 3) -> np.ndarray:
    """Packed order-``order`` jets of the ambient chart coordinates at parameters ``t``.

    Shaped (coefficients, B, chart dim), the rows in the order of
    ``jets._packed_basis(n, order)``.  For sphere-domain cases ``t`` are
    spherical parameters and the jets are in each node's own chart
    (:func:`node_jets`); the torus case takes the n angles directly.
    """
    if spec.domain == "torus":
        return _eval_product_torus(spec, t, order)
    tt = np.atleast_2d(np.asarray(t, dtype=float))
    u = node_jets(sphere_points(tt), order)
    ops = jets._Ops(spec.n, order)
    if spec.kind == "lifted":
        return _lift_primitive_for(spec).lifted_jets(tt, u, ops)
    if spec.kind not in _EVALUATORS:
        raise ValueError(f"unhandled case {spec.kind!r}")
    return _EVALUATORS[spec.kind](spec, u, ops)
