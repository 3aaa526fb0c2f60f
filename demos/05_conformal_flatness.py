"""Conformal flatness of the contact families.

For n >= 4 the Weyl tensor is the full local obstruction to conformal
flatness; the contact sphere families have vanishing Weyl tensor while
their sectional curvatures vary from point to point and plane to plane.
"""

from whitneygeo import make_spec
from whitneygeo.verify import conformal_block

print("contact family over the flat model, n = 4 (this takes a few seconds)")
conf = conformal_block(make_spec("contact_whitney_r", 4, r=1.0), seed=0)
print(f"  Weyl tensor sup      : {conf['weyl_sup']:.3e}")
print(f"  sectional curvature  : [{conf['sectional_min']:.3f}, "
      f"{conf['sectional_max']:.3f}]  (spread {conf['sectional_spread']:.3f})")

print()
print("totally geodesic control case, n = 2 (constant curvature)")
conf = conformal_block(make_spec("totally_geodesic_cp", 2), resolution=24, seed=0)
print(f"  sectional curvature  : [{conf['sectional_min']:.9f}, "
      f"{conf['sectional_max']:.9f}]  (spread {conf['sectional_spread']:.1e})")

print()
print("flat-space sphere family, n = 4 (also conformally flat)")
conf = conformal_block(make_spec("whitney_c0", 4, r=1.0), seed=0)
print(f"  Weyl tensor sup      : {conf['weyl_sup']:.3e}")
print(f"  sectional spread     : {conf['sectional_spread']:.3f}")
