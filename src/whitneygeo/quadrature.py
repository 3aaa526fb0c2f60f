"""Integration grids on the sphere and the flat torus.

Sphere grids are one spherical-coordinate product rule: K Gauss-Legendre
nodes in each polar angle and 2K trapezoid nodes in the periodic angle,
2 K^n nodes in all, with the weights carrying the round density
prod sin^(n-1-i) theta_i (Atkinson & Han, "Spherical Harmonics and
Approximations on the Unit Sphere", Springer LNM 2044, 2012).  Integrands
lifted from smooth fields on the sphere are analytic in the angles, so
convergence is spectral, and :func:`quadrature_error` estimates the error
of a grid from a three-rung convergence ladder.
A grid's ``nodes`` are the points themselves, sphere points or torus
angles; the spherical parameters serve the product rule only.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "IntegrationGrid",
    "build_grid",
    "ladder_resolutions",
    "quadrature_error",
    "sphere_points",
]

#: default resolution per parameter dimension, keyed by sphere dimension
DEFAULT_RESOLUTION = {2: 48, 3: 32, 4: 20}

#: a ladder counts as geometrically converging only when each step shrinks
#: the difference between successive rungs by at least this factor
LADDER_DECAY = 4.0

#: safety factor on the extrapolated error e2**2 / e1; an exactly geometric
#: ladder with the decay above needs at most 4/3
LADDER_SAFETY = 2.0

#: the most nodes a grid may have: 2**21 holds every grid the catalog and
#: its tests build (the largest, n = 4 at K = 24, has 663 552 nodes) and
#: keeps a grid's arrays to tens of MB
MAX_NODES = 2**21

#: rounding floor of an integral relative to the size of its integrand
#: terms (about 450 units in the last place); converged n = 2 integrals of
#: the catalog scatter by up to 5.3e-15 of that size between grids
ROUNDOFF = 1e-13


def sphere_points(t) -> np.ndarray:
    """The points u of spherical parameters ``t = (theta_1..theta_{n-1}, phi)``, (B, n+1).

    u_k = cos t_k sin t_0 ... sin t_(k-1) for k < n and u_n = sin t_0 ...
    sin t_(n-1), multiplied in that order, first axis polar.
    """
    u = np.concatenate([np.cos(t), np.ones_like(t[:, :1])], axis=-1)
    for i, sin in enumerate(np.sin(t).T):
        u[:, i + 1 :] *= sin[:, None]
    return u


def ladder_resolutions(resolution: int) -> tuple[int, int, int]:
    """Rungs K/2, 3K/4, K of the convergence ladder behind an error estimate.

    Floor division keeps the upper step at least as long as the lower one,
    which keeps the extrapolation of :func:`quadrature_error` conservative.
    Below K = 12 the rungs would not be distinct grids (the coarsest grid
    has 8 nodes), and a grid compared with itself certifies nothing.
    """
    if resolution < 12:
        raise ValueError(
            f"resolution {resolution} is below 12, the least that gives an "
            "error estimate three distinct grids"
        )
    return (max(8, resolution // 2), max(8, (3 * resolution) // 4), resolution)


def quadrature_error(values, rungs, floor: float = 0.0, control=None) -> tuple[float, str]:
    """Error estimate for the last of three values on a ladder's ``rungs``.

    For an analytic integrand the quadrature error decays like e^(-aK)
    (Trefethen & Weideman, SIAM Review 2014), so with e1 = |D(K/2) -
    D(3K/4)| and e2 = |D(3K/4) - D(K)| the error of D(K) itself is about
    e2**2 / e1.  That fitted estimate, scaled by ``LADDER_SAFETY``, is used
    only when the ladder decays consistently: both differences have the same
    sign and e1 exceeds e2 by ``LADDER_DECAY``.  Otherwise the conservative
    e2, essentially the error of the 3K/4 grid, is returned.  It counts only
    where the differences contract per unit of resolution, e2 / (K3 - K2) <
    e1 / (K2 - K1) for rungs K1 < K2 < K3, or e2 is 0.  A ladder that does not contract
    is ``"stalled"``: its e2 bounds nothing, as the tail may be many steps
    long.

    Three rungs cannot tell a geometric tail from a pre-asymptotic drop, so
    ``control`` may give the ladder, on the same grids, of an integral whose
    exact value is zero: the fit is then used only if the same rule bounds
    that integral's known error ``|control[-1]|``.  No estimate is below
    ``floor``, the rounding noise of the integral.  The second element names
    the estimate used: ``"fitted"``, ``"fallback"``, ``"stalled"`` or
    ``"roundoff"``.
    """
    coarse, middle, fine = values
    d1, d2 = middle - coarse, fine - middle
    e1, e2 = abs(d1), abs(d2)
    fitted = d1 * d2 > 0 and e1 > LADDER_DECAY * e2
    if fitted and control is not None:
        fitted = quadrature_error(control, rungs, floor)[0] >= abs(control[-1])
    k1, k2, k3 = rungs
    if fitted:
        error, method = LADDER_SAFETY * e2 * e2 / e1, "fitted"
    elif e2 == 0 or e2 * (k2 - k1) < e1 * (k3 - k2):
        error, method = e2, "fallback"
    else:
        error, method = e2, "stalled"
    if error < floor:
        return floor, "roundoff"
    return error, method


def _integer(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int; booleans, non-integers and values below ``least``
    or above ``most`` raise a ``ValueError`` that names ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


class IntegrationGrid:
    """Quadrature nodes over the domain of one immersion family.

    Attributes per node: the point ``nodes`` (a sphere point u, or the torus
    angles), its product-rule parameters ``t`` and its ``weight`` (on the
    sphere it carries the round density, so sum(weight * f) integrates f
    against the round volume).
    """

    def __init__(self, n: int, resolution: int, domain: str = "sphere"):
        n = _integer("n", n, 2)
        resolution = _integer("resolution", resolution, 8)
        if domain not in ("sphere", "torus"):
            raise ValueError(f"unknown integration domain {domain!r}")
        if domain == "sphere" and n > 4:
            raise ValueError("sphere grids support n <= 4 (cost guard)")
        count = (2 if domain == "sphere" else 1) * resolution**n
        if count > MAX_NODES:
            raise ValueError(f"a {domain} grid at n = {n} and resolution {resolution} has "
                             f"{count} nodes, above the budget of {MAX_NODES}")
        self.n = n
        self.resolution = resolution
        self.domain = domain
        K = resolution
        if domain == "torus":
            axes = [(2.0 * math.pi * np.arange(K) / K, np.full(K, 2.0 * math.pi / K))] * n
        else:
            xg, wg = np.polynomial.legendre.leggauss(K)
            polar = (0.5 * math.pi * (xg + 1.0), 0.5 * math.pi * wg)
            azimuth = (math.pi * np.arange(2 * K) / K, np.full(2 * K, math.pi / K))
            axes = [polar] * (n - 1) + [azimuth]
        grids = np.meshgrid(*(x for x, _ in axes), indexing="ij")
        self.t = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*(w for _, w in axes), indexing="ij")
        self.weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        self.nodes = self.t
        if domain == "sphere":
            for i in range(n - 1):
                self.weight *= np.sin(self.t[:, i]) ** (n - 1 - i)
            self.nodes = sphere_points(self.t)

    def chunks(self, max_nodes: int):
        """Node indices in equal consecutive slices of at most ``max_nodes``."""
        count = -(-len(self.nodes) // max_nodes)
        return np.array_split(np.arange(len(self.nodes)), count)


def build_grid(n: int, resolution: int | None = None,
               domain: str = "sphere") -> IntegrationGrid:
    """Grid with Gauss-Legendre polar nodes and trapezoidal periodic nodes."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(n, 16)
    return IntegrationGrid(n, resolution, domain=domain)
