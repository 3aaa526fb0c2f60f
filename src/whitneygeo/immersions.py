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
compositions.  A Legendrian entry is the lift of a Kaehler base
(``_LIFT_BASES``) by its model (``BoothbyWangModel.lift``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import jets, quadrature
from .spaceforms import BaseModel, make_model

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
        note="Legendrian lift of whitney_c0 (radius r, centre B's first 2n entries) "
        "to the flat contact model; a and B's fiber entry are Reeb/contact "
        "translations, which no invariant reads",
    ),
    "contact_whitney_s": dict(
        model="Sasakian_S",
        params="theta > 0, a > 0 (deformation)",
        note="Legendrian lift of whitney_cp to the deformed sphere; the fiber's "
        "derivatives from the contact condition, its value 0 at every node",
    ),
    "contact_whitney_b": dict(
        model="Sasakian_B",
        params="theta > 0, a > 0 (deformation)",
        note="Legendrian lift of whitney_ch over the hyperbolic ball; the fiber's "
        "derivatives from the contact condition, its value 0 at every node",
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
        note="Legendrian lift of its base, an exact Lagrangian in the flat model, to "
        "the flat contact model; the fiber's derivatives from the contact "
        "condition, its value 0 at every node",
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


def _integer(p: dict, name: str, default: int, least: int) -> int:
    """Parameter ``name`` (or its default) as an int of at least ``least``, stored
    back into ``p``; a value that is no real number, such as a numeric string, is
    read by :func:`_real` first."""
    raw = p.get(name, default)
    if not isinstance(raw, numbers.Real):
        raw = _real(p, name, default)
    p[name] = quadrature._integer(name, raw, least)
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
    as, in the order of the kind's ``_KEYS`` (a lift's: its base, then
    ``_LIFT_KEYS``) whatever order they were given in.  A non-finite value,
    a non-integral ``n``, ``steps`` or ``seed`` or one below its least value
    (2, 1 and 0), or a parameter the kind does not read raises a
    ``ValueError`` that names it.
    """
    if kind not in CATALOG:
        raise ValueError(f"unknown catalog case {kind!r}; see CATALOG")
    n = _integer({}, "n", n, 2)
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
        if _integer(p, "steps", 32, 1) < 16:
            raise ValueError("RK4 step count must be at least 16")
        _integer(p, "seed", 1, 0)
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
    # in the kind's order, so that equal specs list their parameters alike
    return ImmersionSpec(kind=kind, n=n, params=_Params((k, p[k]) for k in keys if k in p))


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


def random_quartic(n: int, seed: int):
    """Seeded random polynomial of degrees 2..4 on the 2n chart variables, its
    coefficients normal with standard deviation 1 / sqrt(number of terms)."""
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
    coeffs = rng.normal(size=len(terms)) * (1.0 / math.sqrt(len(terms)))
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


def _eval_product_torus(spec, inner, ops):
    """The radii times the inner jets, cos, then sin, of the angles (:func:`domain_jets`)."""
    return np.tile(spec.params["radii"], 2) * inner


def _field_tables(coeffs, m: int, order: int) -> tuple[list, list]:
    """The field V = J grad F of the polynomial ``coeffs`` and its derivatives
    to ``order``, as coefficient tables against monomials.

    The monomials are ``jets._packed_basis(m, top)``: index multisets, a
    monomial's parent is its tuple without the last index, and the
    monomials of degree at most d come first.  Table k, shaped
    (m,) * (k + 1) + (N_k,), holds D^kV[mu, i_1, ..., i_k] as coefficients
    of the first N_k monomials, those of degree at most deg F - 1 - k; the
    list stops at the first derivative that vanishes.  Each partial of F is
    taken once per sorted index tuple and copied to the tuple's
    permutations, and row mu of J grad F is -d_(mu+n) F for mu < n and
    d_(mu-n) F after.
    """
    n = m // 2
    partials = {(): {}}
    for c, e in coeffs:
        partials[()][e] = partials[()].get(e, 0.0) + c
    for beta in jets._packed_basis(m, order + 1)[1:]:
        i = beta[-1]
        d = partials[beta] = {}
        for e, c in partials[beta[:-1]].items():
            if e[i]:
                low = e[:i] + (e[i] - 1,) + e[i + 1 :]
                d[low] = d.get(low, 0.0) + c * e[i]
    tops = []
    for k in range(1, order + 2):
        degrees = [sum(e) for beta, d in partials.items() if len(beta) == k for e in d]
        if not degrees:
            break
        tops.append(max(degrees))
    monomials = jets._packed_basis(m, max(tops, default=0))
    column = {tuple(map(idx.count, range(m))): r for r, idx in enumerate(monomials)}
    tables = []
    for k, top in enumerate(tops):
        sets = [beta for beta in partials if len(beta) == k + 1]
        t, col, c = zip(*[(t, column[e], c) for t, beta in enumerate(sets)
                          for e, c in partials[beta].items()])
        table = np.zeros((len(sets), math.comb(m + top, top)))
        table[list(t), list(col)] = c  # one entry per (partial, monomial)
        index = {beta: t for t, beta in enumerate(sets)}
        full = table[[index[tuple(sorted(p))] for p in product(range(m), repeat=k + 1)]]
        full = full.reshape((m,) * (k + 1) + table.shape[-1:])
        tables.append(np.concatenate([-full[n:], full[:n]]))
    return monomials, tables


def hamiltonian_flow(x: np.ndarray, ham: HamiltonianDeformation, num_vars: int) -> np.ndarray:
    """Classical RK4 flow of the Hamiltonian field V = J grad F on packed jets.

    ``x`` holds the 2n chart coordinates as packed jets in ``num_vars``
    variables, (coefficients, batch, 2n); the flowed jets come back in a new
    array of the same layout.  Inside, the state s is one array shaped
    (coefficients, 2n, batch): the coefficient axis holds each distinct
    partial derivative once (value, then the i, i <= j and i <= j <= k
    partials: 10 rows for 2 variables at order 3), and the batch axis is
    last, so every numpy loop runs over it.

    The field of a stage is the jet of V at s, by Faa di Bruno's formula
    at each node's value x0 = s[0]: row 0 is V(x0), and every other row o
    is DV s[o], plus D^2V(s[i], s[rest]) over the partitions of o's indices
    into a singleton i and the rest, plus D^3V(s[i], s[j], s[k]) on a
    three-index row (``jets._partition_table``).  V(x0) and DV(x0) are one
    matrix product each of a constant table (:func:`_field_tables`) with
    the monomials of x0; a table that needs only the constant monomial is
    its own value, with a batch axis of length 1.  U_i = D^2V(x0)(s[i], .)
    is one matrix product per first-order row i of its table with the
    monomials times s[i], and D^3V(x0)(s[i], s[j], .) one per pair i <= j
    with the monomials times s[i] and s[j]; U_i then meets every row of
    order 1 and 2 in one contraction.  A zero time or a vanishing gradient
    flows by the identity.

    The step loop allocates nothing: every stage writes into buffers
    allocated once per call, as outside the chunk workers a loop that
    allocated its temporaries took a page fault for every page of each (see
    the README's numerical notes).  The RK4 combinations keep their
    operation order, ((k1 + 2 k2) + 2 k3) + k4 and so on, so the jets do
    not depend on how the loop stores them.
    """
    m = x.shape[-1]
    order = jets._packed_order(x, num_vars)
    monomials, tables = _field_tables(ham.coeffs, m, order)
    if ham.epsilon == 0.0 or not tables or not tables[0].any():
        return x.copy()

    # a copy: the loop updates the state in place
    state = np.array(np.moveaxis(x, -1, 1), order="C")
    batch = state.shape[-1]
    v = num_vars
    low = math.comb(v + order - 1, v) if order else 1  # rows below the top order
    mono = np.empty((len(monomials), batch))
    mono[0] = 1.0
    row = {idx: r for r, idx in enumerate(monomials)}
    products = []  # per degree: its monomials, as their parents times their last variables
    for degree in range(1, len(monomials[-1]) + 1):
        block = [r for r, idx in enumerate(monomials) if len(idx) == degree]
        products.append((
            mono[block[0] : block[-1] + 1],
            np.array([row[monomials[r][:-1]] for r in block]),
            np.array([monomials[r][-1] for r in block]),
            *np.empty((2, len(block), batch)),
        ))

    def at_node(table):  # (flat table, value): a constant is its own value
        flat = table.reshape(-1, table.shape[-1])
        if flat.shape[1] == 1:
            return None, table
        return flat, np.empty(table.shape[:-1] + (batch,))

    values = [at_node(t) for t in tables[: min(order, 1) + 1]]
    terms = []  # (output row, its term's buffer, weight), pairs first
    if order >= 2 and len(tables) > 2:
        pairs, triples = jets._partition_table(v, order)
        T2 = tables[2]
        N2 = T2.shape[-1]
        T2 = T2.transpose(0, 2, 3, 1).reshape(m * m, N2 * m)  # rows (mu, j), columns (c, i)
        X2 = np.empty((v, N2, m, batch))  # X2[i] = monomials times s[i]
        U = np.empty((v, m, m, batch))
        P = np.empty((v, low - 1, m, batch))  # P[i, r - 1] = U_i s[r]
        terms = [(o, P[i, r - 1], w) for o, i, r, w in pairs]
        if order >= 3 and len(tables) > 3:
            T3 = tables[3]
            N3 = T3.shape[-1]
            T3 = T3.transpose(0, 3, 4, 1, 2).reshape(m * m, N3 * m * m)
            couples = [(i, j) for i in range(v) for j in range(i, v)]
            first = np.array([i for i, _ in couples])
            second = np.array([j for _, j in couples])
            left = np.empty((len(couples), N3, m, batch))
            right = np.empty((len(couples), m, batch))
            X3 = np.empty((len(couples), N3, m, m, batch))
            Q = np.empty((len(couples), m, m, batch))  # D^3V(s[i], s[j], .)
            R = np.empty((len(couples), v, m, batch))  # R[(i, j), k] = its value at s[k]
            terms += [(o, R[couples.index((i, j)), k], 1) for o, i, j, k in triples]
    term = np.empty((m, batch))

    def field(s, out):
        x0 = s[0]
        for target, parents, variables, gathered, var in products:
            # a "clip" take writes into its out; a "raise" one copies first
            np.take(mono, parents, axis=0, out=gathered, mode="clip")
            np.take(x0, variables, axis=0, out=var, mode="clip")
            np.multiply(gathered, var, out=target)
        for flat, value in values:
            if flat is not None:
                np.matmul(flat, mono[: flat.shape[1]], out=value.reshape(len(flat), batch))
        out[0] = values[0][1]
        if order == 0:
            return
        first_rows = s[1 : v + 1]
        if len(values) > 1:
            np.einsum("mjb,rjb->rmb", values[1][1], s[1:], out=out[1:])
        else:
            out[1:] = 0.0
        if not terms:
            return
        np.multiply(mono[None, :N2, None], first_rows[:, None], out=X2)
        np.matmul(T2, X2.reshape(v, N2 * m, batch), out=U.reshape(v, m * m, batch))
        np.einsum("imjb,rjb->irmb", U, s[1:low], out=P)
        if len(terms) > len(pairs):
            np.take(X2[:, :N3], first, axis=0, out=left, mode="clip")
            np.take(first_rows, second, axis=0, out=right, mode="clip")
            np.multiply(left[:, :, :, None], right[:, None, None], out=X3)
            np.matmul(T3, X3.reshape(len(X3), -1, batch), out=Q.reshape(len(Q), m * m, batch))
            np.einsum("pmlb,klb->pkmb", Q, first_rows, out=R)
        for o, part, w in terms:
            if w != 1:
                part = np.multiply(part, w, out=term)
            out[o] += part

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

#: each Legendrian kind's Kaehler base kind and the parameters it hands that
#: base; a lift names its base kind, and hands it ``_LIFT_KEYS``
_LIFT_BASES = {
    "contact_whitney_r": ("whitney_c0", ("r", "B")),
    "contact_whitney_s": ("whitney_cp", ("theta",)),
    "contact_whitney_b": ("whitney_ch", ("theta",)),
    "lifted": None,
}


def _lift_base(spec: ImmersionSpec) -> ImmersionSpec:
    """The Kaehler base of a Legendrian kind, built (so validated) by :func:`make_spec`.

    ``contact_whitney_r`` hands its base the first 2n entries of B.  A
    flowed base runs for epsilon = 0.02 unless the lift names its own.
    """
    p = spec.params
    kind, keys = _LIFT_BASES[spec.kind] or (p["base"], _LIFT_KEYS[p["base"]])
    params = {k: p[k] for k in keys if k in p}
    if "B" in params:
        params["B"] = params["B"][: 2 * spec.n]
    if kind == "perturbed":
        params = {"epsilon": 0.02, **params}
    return make_spec(kind, spec.n, **params)


_EVALUATORS = {
    "whitney_c0": _eval_whitney_c0,
    "whitney_cp": _eval_whitney_cp,
    "whitney_ch": _eval_whitney_ch,
    "totally_geodesic_cp": _eval_totally_geodesic_cp,
    "perturbed": _eval_perturbed,
    "product_torus": _eval_product_torus,
}


def _base_jets(spec: ImmersionSpec, nodes, order: int) -> np.ndarray:
    """Packed jets of the Kaehler chart coordinates of ``spec`` at ``nodes``,
    or of its base (:func:`_lift_base`) for a Legendrian kind: (coefficients,
    B, 2n), the input of :meth:`~whitneygeo.spaceforms.BaseModel.centre`."""
    base = _lift_base(spec) if spec.kind in _LIFT_BASES else spec
    inner = domain_jets(base, nodes, order)
    return _EVALUATORS[base.kind](base, inner, jets._Ops(spec.n, order))


def eval_immersion(spec: ImmersionSpec, nodes, order: int = 3) -> np.ndarray:
    """Packed order-``order`` jets of the ambient chart coordinates at ``nodes``.

    ``nodes`` are sphere points u, shaped (B, n+1), or torus angles, shaped
    (B, n).  The result is shaped (coefficients, B, chart dim), the rows in
    the order of ``jets._packed_basis(n, order)``; on the sphere the jets
    are in each node's own chart (:func:`node_jets`).  A Legendrian kind is
    its model's lift of its Kaehler base
    (:meth:`~whitneygeo.spaceforms.BoothbyWangModel.lift`): the fiber
    coordinate is 0 at every node, and only its derivatives come from the
    contact condition.  A global fiber exists because the base is an exact
    Lagrangian (H^1(S^n) = 0 for n >= 2), and a Reeb translation, which
    sets its value per node, is an isometry that keeps phi, xi and eta, so
    no invariant reads it.
    """
    x = _base_jets(spec, nodes, order)
    return model_for(spec).lift(x, jets._Ops(spec.n, order)) if spec.kind in _LIFT_BASES else x
