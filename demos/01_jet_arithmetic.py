"""Tour of the jet substrate: exact derivatives through formula evaluation.

Seeds a few coordinate jets, pushes them through composite expressions, and
compares the propagated third derivatives against central finite
differences of the same scalar functions.

A packed jet stores each distinct partial once, in the order of
``jets._packed_basis`` (value, d/dx, d/dy, then the second and third
partials), followed by a batch axis of evaluation points.  ``jets._Ops``
multiplies packed jets and applies the elementary functions exp and 1/x to
them.
"""

import numpy as np

from whitneygeo import jets


def seeds(points, order):
    """Coordinate jets at each row of ``points`` (shape (B, v)): packed (coefficients, B)."""
    points = np.asarray(points, dtype=float)
    B, v = points.shape
    out = np.zeros((v, len(jets._packed_basis(v, order)), B))
    out[:, 0] = points.T
    out[range(v), range(1, v + 1)] = 1.0
    return out


def plus(u, c):
    """u + c for a constant c: only the value row moves."""
    out = u.copy()
    out[0] += c
    return out


print("== third-order jets in two variables ==")
ops = jets._Ops(2, 3)
x, y = seeds([[0.4, -0.3]], order=3)
xy = ops.mul(x, y)
f = (ops.mul(ops.fn("recip", plus(ops.mul(xy, xy), 1.0)), ops.fn("exp", 0.5 * x))
     + ops.mul(y, ops.fn("recip", plus(ops.fn("exp", x), 2.0))))
val, d1, d2, d3 = jets._unpack_blocks(f, 2, 3)
print("value            :", val[0])
print("gradient         :", d1[0])
print("Hessian          :\n", d2[0])


def f_np(t):
    a, b = t
    return np.exp(0.5 * a) / (1.0 + (a * b) ** 2) + b / (2.0 + np.exp(a))


h = 1e-3
fd3 = (
    f_np([0.4 + 2 * h, -0.3]) - 2 * f_np([0.4 + h, -0.3])
    + 2 * f_np([0.4 - h, -0.3]) - f_np([0.4 - 2 * h, -0.3])
) / (2 * h**3)
print(f"d^3/dx^3: jet = {d3[0, 0, 0, 0]:+.10f}, finite difference = {fd3:+.10f}")

print()
print("== complex jets: complex128 packed arrays ==")
X, Y = seeds([[0.4, -0.3]], order=3)
z = X + 1j * Y
num = plus(ops.mul(z, z), 1.0)
den = plus(z, -2.0)
w = ops.mul(num, ops.fn("recip", den))
print("(z^2+1)/(z-2)    :", w[0], " exact:", ((0.4 - 0.3j) ** 2 + 1) / (0.4 - 0.3j - 2))
print("d/dx             :", w[1], " exact:", 1 - 5 / (0.4 - 0.3j - 2) ** 2)

print()
print("== batched evaluation: one jet describes many points ==")
pts = np.linspace(0.1, 1.0, 5)[:, None]
one = jets._Ops(1, 2)
(t,) = seeds(pts, order=2)
g = one.fn("recip", plus(one.mul(t, t), 1.0))
print("values      :", g[0])
print("derivatives :", g[1], " exact:", (-2 * pts / (1 + pts**2) ** 2).ravel())
