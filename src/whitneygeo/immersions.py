"""Sphere charts and the catalog of explicit immersions.

A node is a point of the domain: a sphere point u, shaped (B, n+1), or the
n angles of the torus.  Each sphere node's jets are taken in a chart
centred at that node, s -> (u0 + Q s) / sqrt(1 + |s|^2), where the columns
of Q are an orthonormal basis of the tangent space at u0 from a Householder
reflection.  The round metric is the identity at s = 0, so the frames are
equally well conditioned at every point of the sphere, and no node needs
another chart.  The torus takes cos, then sin, of its angles as inner jets
(:func:`domain_jets`).

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
from functools import partial

import numpy as np

from . import jets
from .spaceforms import BaseModel, SasakianB, make_model

__all__ = [
    "ImmersionSpec",
    "HamiltonianDeformation",
    "CATALOG",
    "make_spec",
    "model_for",
    "domain_jets",
    "eval_immersion",
    "hamiltonian_flow",
    "node_jets",
    "random_quartic",
    "loop_integral",
]


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


def domain_jets(spec: ImmersionSpec, nodes, order: int = 3) -> np.ndarray:
    """Packed inner jets at ``nodes``, the input of every catalog formula: the
    node charts of :func:`node_jets` on the sphere, (coefficients, B, n+1), and
    cos, then sin, of the torus angles seeded on themselves, (coefficients, B, 2n).
    """
    if spec.domain == "torus":
        return np.concatenate(jets._seed_angles(np.atleast_2d(nodes), order), axis=-1)
    return node_jets(nodes, order)


# ---------------------------------------------------------------------------
# catalog specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianDeformation:
    """Polynomial Hamiltonian (monomial list) with flow time and step count."""

    coeffs: tuple  # tuple of (coefficient, exponent tuple over the 2n chart vars)
    epsilon: float
    steps: int

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
        note="Legendrian sphere over the hyperbolic ball; the fiber's derivatives "
        "from the contact condition, its value 0 at every node (a Reeb translation)",
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
    if isinstance(raw, bool):
        raise ValueError(f"{name} must be a real number, got {raw!r}")
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
    """Parameter ``name`` as a tuple of ``size`` finite floats, stored back into ``p``.

    Booleans, as :func:`_real` refuses them, and entries that are no
    numbers raise a ``ValueError`` that names the parameter.
    """
    raw = p.get(name, default)
    try:
        values = np.asarray(raw, dtype=float)
        valid = (values.shape == (size,) and np.all(np.isfinite(values)) and not any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(raw, dtype=object).flat))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be {size} finite reals, got {raw!r}")
    p[name] = tuple(float(v) for v in values)
    return p[name]


#: the parameters each kind reads; a lift reads its ``base`` and the keys
#: it hands that base (``_LIFT_KEYS``)
_KEYS = {"whitney_c0": ("r", "B"), "whitney_cp": ("theta",), "whitney_ch": ("theta",),
         "contact_whitney_r": ("r", "a", "B"), "contact_whitney_s": ("theta", "a"),
         "contact_whitney_b": ("theta", "a"), "product_torus": ("radii",),
         "totally_geodesic_cp": (), "perturbed": ("epsilon", "steps", "seed", "r", "hamiltonian")}


def make_spec(kind: str, n: int, **params) -> ImmersionSpec:
    """Validate parameters and build an immersion spec.

    Numeric parameters are stored as the float or int they were validated
    as; a non-finite value, a non-integral ``n``, ``steps`` or ``seed``, or
    a parameter the kind does not read raises a ``ValueError`` that names it.
    """
    if kind not in CATALOG:
        raise ValueError(f"unknown catalog case {kind!r}; see CATALOG")
    n = _integer({}, "n", n)
    if n < 2:
        raise ValueError("n must be >= 2")
    p = dict(params)
    keys = _KEYS.get(kind)
    if kind == "lifted":
        if p.setdefault("base", "whitney_c0") not in _LIFT_KEYS:
            raise ValueError("lift base must be whitney_c0 or perturbed")
        keys = ("base",) + _LIFT_KEYS[p["base"]]
    unknown = sorted(set(p) - set(keys))
    if unknown:
        raise ValueError(f"{kind} reads no parameter {', '.join(unknown)}; "
                         f"its parameters are {', '.join(keys) or '(none)'}")
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
        if _real(p, "r", 1.0) <= 0:
            raise ValueError("radius r must be positive")
        if "hamiltonian" not in p:
            p["hamiltonian"] = random_quartic(n, p["seed"])
        p["hamiltonian"] = _validated_hamiltonian(p["hamiltonian"], n)
    elif kind == "lifted":
        # the base validates the lift's parameters, and the lift keeps them as
        # validated; a hamiltonian only if given, as the seed draws the default
        valid = _lift_base(ImmersionSpec(kind, n, p)).params
        p.update((k, valid[k]) for k in _LIFT_KEYS[p["base"]] if k in p or k != "hamiltonian")
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
    a, b, sign = {"cp": (ch, sh, 1.0), "ch": (sh, ch, -1.0)}[variant]
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


def _eval_contact_whitney_b(spec, u, ops):
    """The ball-model family, its fiber from the contact condition dt = -omega of
    eta-bar = dt + omega (:meth:`whitneygeo.spaceforms.SasakianB.fiber`)."""
    x = _split(_complex_pairs(u, spec.params["theta"], "ch", ops))
    return np.concatenate([x, SasakianB.fiber(x, ops)[..., None]], axis=-1)


def _eval_product_torus(spec, inner, ops):
    """The radii times the inner jets, cos, then sin, of the angles (:func:`domain_jets`)."""
    return np.tile(spec.params["radii"], 2) * inner


def hamiltonian_flow(x: np.ndarray, ham: HamiltonianDeformation, num_vars: int) -> np.ndarray:
    """Classical RK4 flow of the Hamiltonian field J grad F on packed jets.

    ``x`` holds the 2n chart coordinates as packed jets in ``num_vars``
    variables, (coefficients, batch, 2n); the flowed jets come back in a new
    array of the same layout.  Inside, the state is one array shaped
    (coefficients, 2n, batch): the coefficient axis holds each distinct
    partial derivative once (value, then the i, i <= j and i <= j <= k
    partials: 10 rows for 2 variables at order 3), and the batch axis is
    last, so every numpy loop runs over it.  A product of jets is a fixed
    Leibniz table of (output, left, right, weight) terms.

    A term c x^e of grad F with e != 0 is c x_i x^p, where x^p, its parent,
    is x^e without one factor of its last variable x_i.  So
    J grad F = J c + sum_i x_i (C Z)_i: Z holds the parents, C their
    coefficients by (i, row) with J folded in, and c the constant terms.
    Per stage, each monomial of Z is built once, as its own parent times a
    variable, in one stacked product per degree; one matrix product gives
    S = C Z, and one Leibniz loop contracts S with the state over i.  A
    zero time or a vanishing gradient flows by the identity.

    The step loop allocates nothing: every stage writes into buffers
    allocated once per call, as outside the chunk workers a loop that
    allocated its temporaries took a page fault for every page of each (see
    the README's numerical notes).  The RK4 combinations keep their
    operation order, ((k1 + 2 k2) + 2 k3) + k4 and so on, so the jets do
    not depend on how the loop stores them.
    """
    m = x.shape[-1]
    n = m // 2
    # c x^e of d_mu F goes to row (mu + n) mod m of J grad F, negated for mu >= n
    terms = [((mu + n) % m, c if mu < n else -c, e)
             for mu, grad in enumerate(ham.gradient_terms(m)) for c, e in grad]
    needed = {_parent(e)[0] for _, _, e in terms if any(e)}
    top = max(map(sum, needed), default=0)
    for degree in range(top, 1, -1):
        needed |= {_parent(e)[0] for e in needed if sum(e) == degree}
    monomials = sorted(needed, key=lambda e: (sum(e), e))
    C = np.zeros((m * m, len(monomials)))
    Jc = np.zeros((m, 1))
    for mu, c, e in terms:
        if any(e):
            parent, i = _parent(e)
            C[i * m + mu, monomials.index(parent)] += c
        else:
            Jc[mu] += c
    if ham.epsilon == 0.0 or not (C.any() or Jc.any()):
        return x.copy()

    # a copy: the loop updates the state in place
    state = np.array(np.moveaxis(x, -1, 1), order="C")
    rows, _, batch = state.shape
    table = jets._leibniz_table(num_vars, jets._packed_order(x, num_vars))
    Z = np.zeros((rows, len(monomials), batch))
    Z[0, [k for k, e in enumerate(monomials) if not any(e)]] = 1.0
    linear = [(k, e.index(1)) for k, e in enumerate(monomials) if sum(e) == 1]
    # one stacked product per degree: the degree's (contiguous) monomials,
    # gathered from the rows of their parents and their last variables
    products = []
    for degree in range(2, top + 1):
        block = [k for k, e in enumerate(monomials) if sum(e) == degree]
        split = [_parent(monomials[k]) for k in block]
        products.append((
            Z[:, block[0] : block[-1] + 1],
            np.array([monomials.index(parent) for parent, _ in split]),
            np.array([var for _, var in split]),
            *np.empty((2, rows, len(block), batch)),
            np.empty((len(block), batch)),
        ))
    S = np.empty((rows, m, m, batch))  # S[:, i, mu] is (C Z) at (i, mu)
    CZ = S.reshape(rows, m * m, batch)
    term = np.empty((m, batch))

    def field(s, out):
        for k, var in linear:
            Z[:, k] = s[:, var]
        for target, parents, variables, left, right, scratch in products:
            # a "clip" take writes into its out; a "raise" one copies first
            np.take(Z, parents, axis=1, out=left, mode="clip")
            np.take(s, variables, axis=1, out=right, mode="clip")
            jets._packed_mul(left, right, table, target, scratch)
        np.matmul(C, Z, out=CZ)
        jets._leibniz(partial(np.einsum, "imb,ib->mb"), S, s, table, out, term)
        out[0] += Jc

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
    p = spec.params
    x = _eval_whitney_c0(make_spec("whitney_c0", spec.n, r=p["r"]), u, ops)
    ham = HamiltonianDeformation(p["hamiltonian"], p["epsilon"], p["steps"])
    return hamiltonian_flow(x, ham, ops.v)


# -- Legendrian lift ---------------------------------------------------------

#: the parameters a lift hands to its base, by base kind
_LIFT_KEYS = {
    "whitney_c0": ("r",),
    "perturbed": ("r", "epsilon", "steps", "seed", "hamiltonian"),
}


def _lift_base(spec: ImmersionSpec) -> ImmersionSpec:
    """The exact Lagrangian a lift lifts, built (so validated) by :func:`make_spec`.

    A flowed base runs for epsilon = 0.02 unless the lift names its own.
    """
    kind = spec.params["base"]
    params = {k: spec.params[k] for k in _LIFT_KEYS[kind] if k in spec.params}
    if kind == "perturbed":
        params = {"epsilon": 0.02, **params}
    return make_spec(kind, spec.n, **params)


def _eval_lifted(spec, u, ops):
    """Base coordinates plus the fiber z with dz = sum_j y_j dx_j, as packed jets.

    A global z exists because sum y dx is closed on a Lagrangian and
    H^1(S^n) = 0 for n >= 2; :func:`loop_integral` checks the closedness.
    The value of z is 0 at every node, a Reeb translation chosen per node.
    Neither the metric nor phi, xi and eta of Sasakian_R (eta = (dz - sum y
    dx) / 2) depends on the last chart coordinate, so the Reeb flow is an
    automorphism of the whole Sasakian structure (Blair, Riemannian Geometry
    of Contact and Symplectic Manifolds, 2nd ed., 2010), and every invariant
    the certificate reads is the same.
    """
    n = spec.n
    base = _lift_base(spec)
    x = _EVALUATORS[base.kind](base, u, ops)
    return np.concatenate([x, jets._packed_fiber(x[..., n:], x[..., :n], ops)[..., None]],
                          axis=-1)


def _loop_integrand(spec: ImmersionSpec, theta_polar: float, phi) -> np.ndarray:
    """d z / d phi of the lift ``spec`` along the loop at angles ``phi``: (B,).

    The loop is u = cos a e_0 + sin a (cos phi e_(n-1) + sin phi e_n), a =
    ``theta_polar``, and the derivative is sum_i d_i z (Q_i . du/dphi), with
    d_i z the lift's own fiber partials in the node chart of basis Q.
    """
    n, r = spec.n, math.sin(theta_polar)
    u, du = np.zeros((2, len(phi), n + 1))
    u[:, 0] = math.cos(theta_polar)
    u[:, n - 1], u[:, n] = r * np.cos(phi), r * np.sin(phi)
    du[:, n - 1], du[:, n] = -u[:, n], u[:, n - 1]
    dz = eval_immersion(spec, u, order=1)[1:, :, -1]
    return np.einsum("ib,bki,bk->b", dz, _reflections(u)[:, :, :n], du)


def loop_integral(spec: ImmersionSpec, theta_polar: float | None = None,
                  resolution: int = 64) -> float:
    """Integral of sum(y_i dx_i) around a closed azimuthal loop (exactness check).

    ``theta_polar`` is the loop's angle from e_0, pi / 2 by default; a base
    spec is lifted with the parameters it hands a lift.
    """
    if spec.kind != "lifted":
        keys = _LIFT_KEYS.get(spec.kind, ())
        spec = make_spec("lifted", spec.n, base=spec.kind,
                         **{k: v for k, v in spec.params.items() if k in keys})
    a = math.pi / 2 if theta_polar is None else theta_polar
    xs, ws = np.polynomial.legendre.leggauss(resolution)
    integ = _loop_integrand(spec, a, np.pi + np.pi * xs)
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
    "lifted": _eval_lifted,
    "product_torus": _eval_product_torus,
}


def eval_immersion(spec: ImmersionSpec, nodes, order: int = 3) -> np.ndarray:
    """Packed order-``order`` jets of the ambient chart coordinates at ``nodes``.

    ``nodes`` are sphere points u, shaped (B, n+1), or torus angles, shaped
    (B, n).  The result is shaped (coefficients, B, chart dim), the rows in
    the order of ``jets._packed_basis(n, order)``; on the sphere the jets
    are in each node's own chart (:func:`node_jets`).  The fiber coordinate
    of ``lifted`` and ``contact_whitney_b`` is 0 at every node, and only its
    derivatives come from the contact condition (``jets._packed_fiber``).
    """
    inner = domain_jets(spec, nodes, order)
    return _EVALUATORS[spec.kind](spec, inner, jets._Ops(spec.n, order))
