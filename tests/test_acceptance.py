"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (run with ``-s`` to see them live).  The
expensive verification runs are shared through module-scoped fixtures.
The n = 2 runs use the default resolution (48 per dimension); the n = 3
runs use the resolutions of ``N3_PARAMS`` (36, and 40 for ``whitney_ch``,
above the default 32).  All runs use the default tolerance set.
"""

import numpy as np
import pytest

from whitneygeo.immersions import make_spec
from whitneygeo.spaceforms import make_model
from whitneygeo.verify import conformal_block, report_to_json, run_case

pytestmark = pytest.mark.slow

# The hyperbolic-target families converge at rate exp(-K asinh(tanh theta))
# (the chart formulas have complex poles at distance ~tanh theta), so their
# sweep ranges sit where the default grids certify the 1e-8 integral
# tolerances; the projective/sphere targets are unconstrained.
SWEEPS = {
    "whitney_c0": ("r", [0.5, 0.75, 1.0, 1.5, 2.0]),
    "whitney_cp": ("theta", [0.2, 0.35, 0.5, 0.75, 1.0]),
    "whitney_ch": ("theta", [0.8, 0.95, 1.1, 1.25, 1.4]),
    "contact_whitney_r": ("r", [0.5, 0.75, 1.0, 1.5, 2.0]),
    "contact_whitney_s": ("theta", [0.2, 0.35, 0.5, 0.75, 1.0]),
    "contact_whitney_b": ("theta", [0.8, 0.95, 1.1, 1.25, 1.4]),
}

N3_PARAMS = {
    "whitney_c0": (dict(r=1.0), 36),
    "whitney_cp": (dict(theta=0.5), 36),
    "whitney_ch": (dict(theta=1.4), 40),
    "contact_whitney_r": (dict(r=1.0), 36),
    "contact_whitney_s": (dict(theta=0.5, a=0.8), 36),
    "contact_whitney_b": (dict(theta=1.4, a=1.3), 36),
}


@pytest.fixture(scope="module")
def family_reports():
    """Criterion-7 sweep: five parameter values at n = 2, one n = 3 run."""
    out = {}
    for kind, (pname, values) in SWEEPS.items():
        for v in values:
            out[(kind, 2, v)] = run_case(make_spec(kind, 2, **{pname: v}), seed=0)
        kw, res = N3_PARAMS[kind]
        out[(kind, 3, "n3")] = run_case(
            make_spec(kind, 3, **kw), resolution=res, seed=0
        )
    return out


@pytest.fixture(scope="module")
def extra_reports():
    return {
        "product_torus": run_case(make_spec("product_torus", 2), seed=0),
        "totally_geodesic_cp": run_case(
            make_spec("totally_geodesic_cp", 2), seed=0, conformal=True
        ),
        "perturbed": run_case(
            make_spec("perturbed", 2, epsilon=0.05, seed=3), seed=3
        ),
        "perturbed_zero": run_case(
            make_spec("perturbed", 2, epsilon=0.0), seed=3
        ),
        "lifted": run_case(make_spec("lifted", 2, base="whitney_c0"), seed=0),
    }


def _all(family_reports, extra_reports):
    out = dict(family_reports)
    out.update(extra_reports)
    return out


def test_criterion_01_ambient_oracle_match():
    worst = 0.0
    for kind in ("C_n", "CP_n", "CH_n", "Sasakian_R", "Sasakian_S", "Sasakian_B"):
        for n in (2, 3):
            rep = make_model(kind, n).self_test(strict=True, num_points=50)
            worst = max(worst, rep["curvature_oracle"])
            assert rep["curvature_oracle"] <= 1e-8, (kind, n)
    print(f"[criterion 01] PASS ambient curvature matches closed form; "
          f"worst relative error {worst:.2e} <= 1e-8")


def test_criterion_02_sasakian_structure_suite():
    keys_tight = ("eta_vs_metric", "phi_xi", "eta_phi", "phi_squared",
                  "phi_compat", "d_eta")
    worst_tight = worst_nabla = 0.0
    for kind in ("Sasakian_R", "Sasakian_S", "Sasakian_B"):
        for n in (2, 3):
            rep = make_model(kind, n).self_test(strict=True, num_points=50)
            for k in keys_tight:
                worst_tight = max(worst_tight, rep[k])
                assert rep[k] <= 1e-10, (kind, n, k)
            for k in ("nabla_xi", "nabla_phi"):
                worst_nabla = max(worst_nabla, rep[k])
                assert rep[k] <= 1e-8, (kind, n, k)
    print(f"[criterion 02] PASS contact structure identities; worst "
          f"{worst_tight:.2e} <= 1e-10, covariant checks {worst_nabla:.2e} <= 1e-8")


def test_criterion_03_isotropy(family_reports, extra_reports):
    worst_exact = worst_flowed = 0.0
    for key, rep in _all(family_reports, extra_reports).items():
        iso = rep.residual_sup["isotropy"]
        if rep.case in ("perturbed", "lifted"):
            worst_flowed = max(worst_flowed, iso)
        else:
            worst_exact = max(worst_exact, iso)
        assert iso <= 1e-9, (key, iso)
    print(f"[criterion 03] PASS isotropy at all grid nodes <= 1e-9; exact cases "
          f"{worst_exact:.2e}, flowed/lifted {worst_flowed:.2e}")


def test_criterion_04_structure_equations(family_reports, extra_reports):
    tols = {
        "cubic_symmetry": 1e-9,
        "codazzi_total_symmetry": 1e-8,
        "h_contact_component": 1e-8,
        "hcov_xi_vs_h": 1e-8,
        "mean_curvature_symmetry": 1e-9,
        "gauss_cross_check": 1e-8,
    }
    worst = {k: 0.0 for k in tols}
    for key, rep in _all(family_reports, extra_reports).items():
        for name, tol in tols.items():
            if name in rep.residual_sup:
                worst[name] = max(worst[name], rep.residual_sup[name])
                assert rep.residual_sup[name] <= tol, (key, name)
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"[criterion 04] PASS structure-equation suite: {summary}")


def test_criterion_05_identities_and_gaps(family_reports, extra_reports):
    worst_id = 0.0
    worst_gap = 0.0
    for key, rep in _all(family_reports, extra_reports).items():
        for name in ("identity_34", "identity_35"):
            worst_id = max(worst_id, rep.residual_sup[name])
            assert rep.residual_sup[name] <= 1e-10, (key, name)
        for name in ("lemma_gap_31", "lemma_gap_32"):
            worst_gap = min(worst_gap, rep.gap_minima[name])
            assert rep.gap_minima[name] >= -1e-9, (key, name)
    print(f"[criterion 05] PASS pointwise identities <= 1e-10 "
          f"(worst {worst_id:.2e}); gap minima >= -1e-9 (worst {worst_gap:.2e})")


def test_criterion_06_divergence_theorem(family_reports, extra_reports):
    worst = 0.0
    for key, rep in _all(family_reports, extra_reports).items():
        for name, val in rep.yano.items():
            if name == "main_error":
                continue
            worst = max(worst, abs(val))
            assert abs(val) <= 1e-8, (key, name, val)
    print(f"[criterion 06] PASS integrated divergence identity for the mean-"
          f"curvature direction and 3 seeded gradient fields; worst {worst:.2e}")


def test_criterion_07_equality_certification(family_reports):
    worst = dict(defect=0.0, whitney=0.0, scalar=0.0, gap=0.0)
    for key, rep in family_reports.items():
        assert rep.classification == "WHITNEY_BRANCH", (key, rep.classification)
        assert not rep.hard_failures, (key, rep.hard_failures)
        d = abs(rep.integrals["defect_normalized"])
        worst["defect"] = max(worst["defect"], d)
        assert d <= 1e-6, key
        for label, name, tol in (
            ("whitney", "whitney_residual", 1e-8),
            ("scalar", "scalar_relation_residual", 1e-8),
            ("gap", "lemma_gap_32_abs", 1e-8),
        ):
            v = rep.residual_sup[name]
            worst[label] = max(worst[label], v)
            assert v <= tol, (key, name)
    print(f"[criterion 07] PASS equality certification over "
          f"{len(family_reports)} family runs: defect {worst['defect']:.1e} "
          f"<= 1e-6, pointwise characterizations {worst['whitney']:.1e}/"
          f"{worst['scalar']:.1e}/{worst['gap']:.1e} <= 1e-8, all "
          f"WHITNEY_BRANCH")


def test_criterion_08_parallel_branch(extra_reports):
    for name in ("product_torus", "totally_geodesic_cp"):
        rep = extra_reports[name]
        assert rep.classification == "PARALLEL_BRANCH", name
        assert abs(rep.integrals["defect_normalized"]) <= 1e-8
        assert rep.residual_sup["sup_nabla_h"] <= 1e-9
    print("[criterion 08] PASS flat torus and totally geodesic sphere "
          "classify as PARALLEL_BRANCH with parallel second fundamental form")


def test_criterion_09_strictness(extra_reports):
    strict = extra_reports["perturbed"]
    assert strict.classification == "STRICT"
    assert strict.integrals["defect_normalized"] > 1e-4
    assert not strict.hard_failures
    back = extra_reports["perturbed_zero"]
    assert abs(back.integrals["defect_normalized"]) <= 1e-6
    assert back.classification == "WHITNEY_BRANCH"
    print(f"[criterion 09] PASS perturbed sphere is STRICT with normalized "
          f"defect {strict.integrals['defect_normalized']:.3e} > 1e-4; "
          f"defect returns to {back.integrals['defect_normalized']:.1e} at "
          f"epsilon = 0")


def test_criterion_10_conformal_flatness_block(extra_reports):
    conf = conformal_block(make_spec("contact_whitney_r", 4, r=1.0), seed=0)
    assert conf["weyl_sup"] <= 1e-7
    assert conf["sectional_spread"] >= 1e-3
    control = extra_reports["totally_geodesic_cp"].conformal
    assert control["sectional_spread"] <= 1e-9
    print(f"[criterion 10] PASS contact Whitney four-sphere: Weyl sup "
          f"{conf['weyl_sup']:.2e} <= 1e-7, sectional spread "
          f"{conf['sectional_spread']:.3f} >= 1e-3; totally geodesic control "
          f"spread {control['sectional_spread']:.1e} <= 1e-9")


def test_criterion_11_determinism():
    a = run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=24, seed=4)
    b = run_case(make_spec("whitney_cp", 2, theta=0.5), resolution=24, seed=4)
    assert report_to_json(a) == report_to_json(b)
    c = run_case(make_spec("product_torus", 2), resolution=16, seed=4)
    d = run_case(make_spec("product_torus", 2), resolution=16, seed=4)
    assert report_to_json(c) == report_to_json(d)
    print("[criterion 11] PASS identical configurations produce byte-"
          "identical reports")
