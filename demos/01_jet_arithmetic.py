"""Tour of the jet substrate: exact derivatives through formula evaluation.

Seeds a few coordinate jets, pushes them through composite expressions, and
compares the propagated third derivatives against central finite
differences of the same scalar functions.
"""

import numpy as np

from whitneygeo import jets
from whitneygeo.jets import seed_variables

print("== third-order jets in two variables ==")
x, y = seed_variables([0.4, -0.3], order=3)
f = jets.sin(x * y) * jets.exp(0.5 * x) + y / (2.0 + jets.cosh(x))
print("value            :", f.val)
print("gradient         :", f.d1)
print("Hessian          :\n", f.d2)


def f_np(t):
    a, b = t
    return np.sin(a * b) * np.exp(0.5 * a) + b / (2.0 + np.cosh(a))


h = 1e-3
fd3 = (
    f_np([0.4 + 2 * h, -0.3]) - 2 * f_np([0.4 + h, -0.3])
    + 2 * f_np([0.4 - h, -0.3]) - f_np([0.4 - 2 * h, -0.3])
) / (2 * h**3)
print(f"d^3/dx^3: jet = {f.d3[0, 0, 0]:+.10f}, finite difference = {fd3:+.10f}")

print()
print("== complex jets: complex128 packed arrays ==")
# a packed jet stores each distinct partial once, in the order of
# jets._packed_basis (value, d/dx, d/dy, then the second and third
# partials), followed by a batch axis, here of one point
ops = jets._Ops(2, 3)
X, Y = np.zeros((2, len(jets._packed_basis(2, 3)), 1))
X[0], X[1], Y[0], Y[2] = 0.4, 1.0, -0.3, 1.0
z = X + 1j * Y
num = ops.mul(z, z)
num[0] += 1.0
den = z.copy()
den[0] -= 2.0
w = ops.mul(num, ops.fn("recip", den))
print("(z^2+1)/(z-2)    :", w[0], " exact:", ((0.4 - 0.3j) ** 2 + 1) / (0.4 - 0.3j - 2))
print("d/dx             :", w[1], " exact:", 1 - 5 / (0.4 - 0.3j - 2) ** 2)

print()
print("== batched evaluation: one jet describes many points ==")
pts = np.linspace(0.1, 1.0, 5)[:, None]
(t,) = seed_variables(pts, order=2, batch=True)
g = jets.sqrt(1.0 + t * t)
print("values      :", g.val.ravel())
print("derivatives :", g.d1[:, 0], " exact:", (pts / np.sqrt(1 + pts**2)).ravel())
