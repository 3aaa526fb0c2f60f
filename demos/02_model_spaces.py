"""The six ambient models and their mandatory self-tests.

Each model carries its metric and structure tensors as jet-evaluable chart
fields.  The self-test derives the curvature tensor numerically from the
metric and matches it against the closed-form constant-curvature
expression, alongside the full set of structure identities.  Sasakian_S and
Sasakian_B are one construction, a line bundle over CP^n or CH^n.
"""

from whitneygeo import make_model

print(f"{'model':<12} {'n':>2} {'a':>4} {'constant':>10}  worst self-test residuals")
for kind, n, a in [
    ("C_n", 2, 1.0),
    ("CP_n", 2, 1.0),
    ("CH_n", 3, 1.0),
    ("Sasakian_R", 2, 1.0),
    ("Sasakian_S", 2, 1.0),
    ("Sasakian_S", 2, 0.5),   # the bundle over CP^n deformed: phi-sectional 4/a - 3
    ("Sasakian_B", 2, 1.0),
    ("Sasakian_B", 3, 2.0),   # the bundle over CH^n: phi-sectional -1/a - 3
]:
    model = make_model(kind, n, a)
    rep = model.self_test(strict=True)
    const = getattr(model, "c_tilde", None)
    if const is None:
        const = 4 * model.c
        label = f"4c = {const:+.2f}"
    else:
        label = f"c~ = {const:+.3f}"
    worst = sorted(
        ((v, k) for k, v in rep.items() if k != "ok"), reverse=True
    )[:2]
    desc = ", ".join(f"{k} {v:.1e}" for v, k in worst)
    print(f"{kind:<12} {n:>2} {a:>4} {label:>10}  {desc}")

print()
print("Every catalog model passes the oracle match before any submanifold")
print("computation is trusted; a failure raises ModelValidationError.")
