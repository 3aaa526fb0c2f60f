"""Pointwise geometry of the sphere catalog.

Evaluates each family at a few random sphere points (angles for the torus)
and prints the pointwise characterizations: the isotropy
(Lagrangian/Legendrian) residual, the distinguished second-fundamental-form
shape, and the scalar-curvature relation, all of which vanish exactly on
these families.
"""

import numpy as np

from whitneygeo import make_spec, model_for
from whitneygeo.geometry import curvature_data, paper_residuals, pointwise_geometry

rng = np.random.default_rng(0)
# the nodes are the points themselves: unit vectors u in R^3 for the sphere
u = rng.normal(size=(8, 3))
u /= np.linalg.norm(u, axis=1, keepdims=True)

cases = [
    ("whitney_c0", dict(r=1.0)),
    ("whitney_cp", dict(theta=0.5)),
    ("whitney_ch", dict(theta=0.5)),
    ("contact_whitney_r", dict(r=1.0, a=0.2)),
    ("contact_whitney_s", dict(theta=0.5, a=0.8)),
    ("contact_whitney_b", dict(theta=0.5, a=1.2)),
    ("product_torus", dict(radii=(1.0, 1.5))),
    ("totally_geodesic_cp", dict()),
]

print(f"{'case':<20} {'isotropy':>10} {'shape residual':>15} "
      f"{'scalar relation':>16} {'|h|^2 range':>22}")
for kind, kw in cases:
    spec = make_spec(kind, 2, **kw)
    model = model_for(spec)
    nodes = u if spec.domain == "sphere" else rng.uniform(0, 2 * np.pi, (8, 2))
    pg, fields = pointwise_geometry(model, spec, nodes)
    cd = curvature_data(pg, fields)
    res = paper_residuals(pg, cd)
    h2 = res["h_norm2"]
    print(
        f"{kind:<20} {pg.isotropy.max():>10.1e} "
        f"{res['whitney_residual'].max():>15.1e} "
        f"{res['scalar_relation_residual'].max():>16.1e} "
        f"[{h2.min():>8.2e}, {h2.max():>8.2e}]"
    )

print()
print("The six sphere families satisfy the distinguished shape relation and")
print("the scalar-curvature identity to machine precision; the torus is")
print("parallel but not of Whitney type, hence its nonzero shape residual.")
