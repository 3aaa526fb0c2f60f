"""Integration grids on the sphere and the flat torus.

Sphere grids are one spherical-coordinate product rule: K Gauss-Legendre
nodes in each polar angle and 2K trapezoid nodes in the periodic angle,
2 K^n nodes in all, with the weights carrying the round density
prod sin^(n-1-i) theta_i (Atkinson & Han, "Spherical Harmonics and
Approximations on the Unit Sphere", Springer LNM 2044, 2012).  Integrands
lifted from smooth fields on the sphere are analytic in the angles, so
convergence is spectral, and :func:`quadrature_error` estimates the error
of a grid from a three-rung convergence ladder.
"""

from __future__ import annotations

import math

import numpy as np

from .immersions import sphere_points

__all__ = [
    "IntegrationGrid",
    "build_grid",
    "ladder_resolutions",
    "quadrature_error",
    "sphere_volume",
]

#: default resolution per parameter dimension, keyed by sphere dimension
DEFAULT_RESOLUTION = {2: 48, 3: 32, 4: 20}

#: a ladder counts as geometrically converging only when each step shrinks
#: the difference between successive rungs by at least this factor
LADDER_DECAY = 4.0

#: safety factor on the extrapolated error e2**2 / e1; an exactly geometric
#: ladder with the decay above needs at most 4/3
LADDER_SAFETY = 2.0

#: rounding floor of an integral relative to the size of its integrand
#: terms (about 450 units in the last place); converged n = 2 integrals of
#: the catalog scatter by up to 5.3e-15 of that size between grids
ROUNDOFF = 1e-13


def sphere_volume(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


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


def quadrature_error(values, floor: float = 0.0, control=None) -> tuple[float, str]:
    """Error estimate for the last of three values on a ladder's rungs.

    For an analytic integrand the quadrature error decays like e^(-aK)
    (Trefethen & Weideman, SIAM Review 2014), so with e1 = |D(K/2) -
    D(3K/4)| and e2 = |D(3K/4) - D(K)| the error of D(K) itself is about
    e2**2 / e1.  That fitted estimate, scaled by ``LADDER_SAFETY``, is used
    only when the ladder decays consistently: both differences have the same
    sign and e1 exceeds e2 by ``LADDER_DECAY``.  Otherwise the conservative
    e2, essentially the error of the 3K/4 grid, is returned.

    Three rungs cannot tell a geometric tail from a pre-asymptotic drop, so
    ``control`` may give the ladder, on the same grids, of an integral whose
    exact value is zero: the fit is then used only if the same rule bounds
    that integral's known error ``|control[-1]|``.  No estimate is below
    ``floor``, the rounding noise of the integral.  The second element names
    the estimate used: ``"fitted"``, ``"fallback"`` or ``"roundoff"``.
    """
    coarse, middle, fine = values
    d1, d2 = middle - coarse, fine - middle
    e1, e2 = abs(d1), abs(d2)
    fitted = d1 * d2 > 0 and e1 > LADDER_DECAY * e2
    if fitted and control is not None:
        fitted = quadrature_error(control, floor)[0] >= abs(control[-1])
    if fitted:
        error, method = LADDER_SAFETY * e2 * e2 / e1, "fitted"
    else:
        error, method = e2, "fallback"
    if error < floor:
        return floor, "roundoff"
    return error, method


class IntegrationGrid:
    """Quadrature nodes over the parameter domain of one immersion family.

    Attributes per node: parameters ``t``, ``weight`` (on the sphere it
    carries the round density, so sum(weight * f) integrates f against the
    round volume) and the sphere point ``u`` (sphere domain only).
    """

    def __init__(self, n: int, resolution: int, domain: str = "sphere"):
        if resolution < 8:
            raise ValueError("resolution must be at least 8")
        if domain not in ("sphere", "torus"):
            raise ValueError(f"unknown integration domain {domain!r}")
        if domain == "sphere" and n > 4:
            raise ValueError("sphere grids support n <= 4 (cost guard)")
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
        self.u = None
        if domain == "sphere":
            for i in range(n - 1):
                self.weight *= np.sin(self.t[:, i]) ** (n - 1 - i)
            self.u = sphere_points(self.t)

    def round_sphere_volume_check(self) -> float:
        """Integrate 1 against the round metric; relative volume error."""
        if self.domain != "sphere":
            raise ValueError("round-metric check applies to sphere grids")
        want = sphere_volume(self.n)
        return abs(float(np.sum(self.weight)) - want) / want

    def chunks(self, max_nodes: int):
        """Node indices in equal consecutive slices of at most ``max_nodes``."""
        count = -(-len(self.t) // max_nodes)
        return np.array_split(np.arange(len(self.t)), count)


def build_grid(n: int, resolution: int | None = None,
               domain: str = "sphere") -> IntegrationGrid:
    """Grid with Gauss-Legendre polar nodes and trapezoidal periodic nodes."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(n, 16)
    return IntegrationGrid(n, resolution, domain=domain)
