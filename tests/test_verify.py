"""Verification pipeline: classification, reports, determinism."""

import json

import numpy as np
import pytest

from whitneygeo import immersions, jets, verify
from whitneygeo.geometry import (
    curvature_data,
    frame_geometry,
    paper_residuals,
    pointwise_geometry,
)
from whitneygeo.quadrature import build_grid, ladder_resolutions
from whitneygeo.immersions import make_spec, model_for, random_quartic
from whitneygeo.verify import (
    Tolerances,
    classify_equality,
    conformal_block,
    report_to_csv_row,
    report_to_json,
    report_to_markdown,
    run_case,
    CSV_COLUMNS,
)


@pytest.fixture(scope="module")
def whitney_report():
    return run_case(make_spec("whitney_c0", 2, r=1.0), resolution=48, seed=0)


@pytest.fixture(scope="module")
def torus_report():
    return run_case(make_spec("product_torus", 2), resolution=24, seed=0)


class TestClassifyLogic:
    def test_branches(self):
        tol = Tolerances()
        f = classify_equality
        assert f(1e-8, 1e-12, 1.0, tol, True) == "PARALLEL_BRANCH"
        assert f(1e-8, 1.0, 1e-10, tol, True) == "WHITNEY_BRANCH"
        assert f(1e-8, 1.0, 1.0, tol, True) == "UNRESOLVED"
        assert f(1e-3, 1.0, 1.0, tol, True) == "STRICT"
        assert f(1e-5, 1.0, 1.0, tol, True) == "UNRESOLVED"
        assert f(1e-8, 1e-12, 1.0, tol, False) == "UNRESOLVED"

    def test_inequality_slack_sets_the_gap_checks(self):
        # the gap minima of a coarse Whitney run are rounding-sized negatives;
        # they fail a slack below that size and pass the default one
        spec = make_spec("whitney_c0", 2)
        tight = run_case(
            spec, resolution=12, tolerances=Tolerances(inequality_slack=1e-30)
        )
        assert min(tight.gap_minima.values()) < -1e-30
        assert any(f.startswith("lemma_gap") for f in tight.hard_failures)
        loose = run_case(spec, resolution=12)
        assert not any(f.startswith("lemma_gap") for f in loose.hard_failures)

    def test_tolerance_ordering_enforced(self):
        with pytest.raises(ValueError):
            Tolerances(strictness=1e-7, classification=1e-6)
        with pytest.raises(ValueError):
            Tolerances(classification=1e-10, inequality_slack=1e-9)


class TestCaseRuns:
    def test_whitney_branch(self, whitney_report):
        r = whitney_report
        assert r.classification == "WHITNEY_BRANCH"
        assert abs(r.integrals["defect_normalized"]) < 1e-10
        assert not r.hard_failures
        assert r.residual_sup["whitney_residual"] < 1e-10

    def test_parallel_branch_torus(self, torus_report):
        r = torus_report
        assert r.classification == "PARALLEL_BRANCH"
        assert abs(r.integrals["defect_normalized"]) < 1e-12
        assert r.residual_sup["sup_nabla_h"] < 1e-12
        assert not r.hard_failures

    def test_parallel_branch_totally_geodesic(self):
        r = run_case(make_spec("totally_geodesic_cp", 2), resolution=24, seed=0)
        assert r.classification == "PARALLEL_BRANCH"
        assert not r.hard_failures

    @pytest.mark.parametrize("K", [24, 36, 48])
    def test_totally_geodesic_stays_parallel_at_every_resolution(self, K):
        # each node sits at the centre of its own affine chart, so the
        # image is linear there and nabla h vanishes to rounding at every K
        r = run_case(make_spec("totally_geodesic_cp", 2), resolution=K, seed=0)
        assert r.residual_sup["sup_nabla_h"] <= 1e-13
        assert r.classification == "PARALLEL_BRANCH"

    @pytest.mark.parametrize("kind", ["whitney_ch", "contact_whitney_b"])
    def test_hyperbolic_families_certify_at_theta_one_half(self, kind):
        # outside the acceptance sweeps: the default n = 2 grid resolves them
        r = run_case(make_spec(kind, 2, theta=0.5), seed=0)
        assert r.classification == "WHITNEY_BRANCH"
        assert not r.hard_failures
        assert abs(r.integrals["defect_normalized"]) <= r.integrals["defect_error"] <= 1e-11

    @pytest.mark.parametrize("spec", [
        make_spec("product_torus", 2, radii=(0.9, 1.2)),
        make_spec("totally_geodesic_cp", 2),
    ], ids=["product_torus", "totally_geodesic_cp"])
    def test_parallel_branch_defect_within_its_error(self, spec):
        # the true defect is 0 and the integrands vanish; what the report
        # holds is rounding noise, which the curvature floor must cover
        r = run_case(spec, seed=7)
        assert r.classification == "PARALLEL_BRANCH"
        assert abs(r.integrals["defect_normalized"]) <= r.integrals["defect_error"]
        assert r.quadrature["defect_normalized"]["estimate"] == "roundoff"

    def test_strict_perturbed(self):
        r = run_case(
            make_spec("perturbed", 2, epsilon=0.05, seed=3), resolution=48, seed=3
        )
        assert r.classification == "STRICT"
        assert r.integrals["defect_normalized"] > 1e-4
        assert not r.hard_failures
        assert r.residual_sup["rk4_step_drift"] < 1e-9

    def test_rk4_check_flows_the_cases_own_hamiltonian(self):
        # the halved-step flow must use the caller's Hamiltonian, not the seed's
        spec = make_spec(
            "perturbed", 2, epsilon=0.05, seed=3, hamiltonian=random_quartic(2, 99)
        )
        r = run_case(spec, resolution=12)
        assert r.residual_sup["rk4_step_drift"] <= 1e-9
        assert not [f for f in r.hard_failures if "RK4" in f]

    def test_borderline_perturbation_reported_unresolved(self):
        # a tiny flow lands between the equality and strictness thresholds
        r = run_case(
            make_spec("perturbed", 2, epsilon=5e-4, seed=3), resolution=48, seed=3
        )
        assert r.classification == "UNRESOLVED"
        assert not r.hard_failures
        assert (
            Tolerances().classification
            < r.integrals["defect_normalized"]
            < Tolerances().strictness
        )

    def test_yano_gradient_fields_vanish(self, whitney_report):
        for key, val in whitney_report.yano.items():
            if key == "main_error":
                continue
            assert abs(val) < 1e-8

    @pytest.mark.slow
    def test_lift_of_the_perturbed_sphere_is_strict_and_clean(self):
        # a Legendrian lift of a flowed sphere: every certificate, the Yano
        # integrals and the isotropy at the exact-case tolerance included
        r = run_case(make_spec("lifted", 2, base="perturbed"), resolution=48, seed=7)
        assert r.classification == "STRICT"
        assert not r.hard_failures
        assert r.residual_sup["isotropy"] <= 1e-9

    def test_coarse_grid_flags_honestly(self):
        # at low resolution the integral certificates must not pass silently:
        # the hyperbolic family, which the default grid certifies, misses
        # them by orders of magnitude at K = 16
        r = run_case(make_spec("whitney_ch", 2, theta=0.5), resolution=16, seed=0)
        assert r.hard_failures
        assert r.classification == "UNRESOLVED"


class TestClassificationStability:
    def test_same_label_under_refinement(self):
        labels = set()
        for K in (24, 48):
            labels.add(
                run_case(make_spec("product_torus", 2), resolution=K).classification
            )
        assert labels == {"PARALLEL_BRANCH"}

    def test_whitney_label_under_refinement(self):
        labels = {
            run_case(make_spec("whitney_c0", 2, r=1.0), resolution=K).classification
            for K in (48, 64)
        }
        assert labels == {"WHITNEY_BRANCH"}


class TestReports:
    def test_json_schema_fields(self, whitney_report):
        doc = json.loads(report_to_json(whitney_report))
        for key in (
            "report_version", "case", "n", "parameters", "model",
            "model_self_test", "resolution", "num_nodes", "seed",
            "residual_sup", "residual_l2", "gap_minima", "integrals",
            "yano", "quadrature", "classification", "unresolved_reason",
            "hard_failures", "conformal", "effective_config",
        ):
            assert key in doc
        assert doc["report_version"] == 2
        for key in ("volume", "ric_direction", "nabla_h_sq", "rhs_scaled",
                    "defect", "defect_normalized", "defect_error"):
            assert key in doc["integrals"]

    def test_csv_row_matches_columns(self, whitney_report):
        row = report_to_csv_row(whitney_report)
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "whitney_c0"
        assert row[3] == "WHITNEY_BRANCH"

    def test_markdown_renders(self, torus_report):
        text = report_to_markdown(torus_report)
        assert "PARALLEL_BRANCH" in text
        assert "| check | sup residual |" in text

    def test_reports_byte_identical_across_runs(self):
        a = run_case(make_spec("product_torus", 2), resolution=16, seed=5)
        b = run_case(make_spec("product_torus", 2), resolution=16, seed=5)
        assert report_to_json(a) == report_to_json(b)

    def test_seed_changes_sampled_quantities_only(self):
        a = run_case(make_spec("product_torus", 2), resolution=16, seed=5)
        b = run_case(make_spec("product_torus", 2), resolution=16, seed=6)
        assert a.classification == b.classification
        assert a.integrals["defect_normalized"] == b.integrals["defect_normalized"]


class TestConformalBlock:
    def test_spread_control_totally_geodesic(self):
        r = run_case(
            make_spec("totally_geodesic_cp", 2), resolution=24, conformal=True
        )
        assert r.conformal["weyl_sup"] is None  # n < 4
        assert r.conformal["sectional_spread"] < 1e-9

    def test_whitney_two_sphere_has_spread(self):
        r = run_case(
            make_spec("whitney_c0", 2, r=1.0), resolution=24, conformal=True
        )
        assert r.conformal["sectional_spread"] > 1e-3

    @pytest.mark.parametrize(
        "kind, n, kw, K",
        [("whitney_c0", 2, dict(r=1.0), 16), ("whitney_cp", 3, dict(theta=0.5), 12)],
    )
    def test_block_rides_on_the_full_pass(self, monkeypatch, kind, n, kw, K):
        # at n <= 3 every rung of the ladder is evaluated once, and the
        # block needs no frame-stage pass of its own; one worker, so that
        # the counts below see every chunk
        monkeypatch.setattr(verify, "_worker_count", lambda jobs: 1)
        grids, evaluated, frame_calls = [], [], []

        def count_grid(*args, **kwargs):
            grids.append(build_grid(*args, **kwargs))
            return grids[-1]

        def count_pass(model, spec, t, **kwargs):
            evaluated.append(len(t))
            return pointwise_geometry(model, spec, t, **kwargs)

        def count_frame(*args, **kwargs):
            frame_calls.append(1)
            return frame_geometry(*args, **kwargs)

        monkeypatch.setattr(verify, "build_grid", count_grid)
        monkeypatch.setattr(verify, "pointwise_geometry", count_pass)
        monkeypatch.setattr(verify, "frame_geometry", count_frame)
        r = run_case(make_spec(kind, n, **kw), resolution=K, conformal=True)
        assert r.conformal["sectional_spread"] > 1e-3
        assert not frame_calls
        assert [g.resolution for g in grids] == [K, *ladder_resolutions(K)[:2]]
        assert sum(evaluated) == sum(len(g.t) for g in grids)

    @pytest.mark.parametrize(
        "kind, kw", [("totally_geodesic_cp", {}), ("whitney_c0", dict(r=1.0))]
    )
    def test_standalone_block_matches_run_case(self, kind, kw):
        spec = make_spec(kind, 2, **kw)
        alone = conformal_block(spec, resolution=24, seed=3)
        assert alone == run_case(spec, resolution=24, seed=3, conformal=True).conformal


class TestProductTorusClosedForm:
    """Pointwise values on the flat torus against their closed forms."""

    @pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.8, 1.25)])
    def test_h_norm2_is_sum_of_inverse_squared_radii(self, radii):
        # each circle of radius r has curvature 1/r, so |h|^2 = sum 1/r_i^2
        spec = make_spec("product_torus", 2, radii=radii)
        t = np.random.default_rng(11).uniform(0, 2 * np.pi, size=(40, 2))
        pg, fields = pointwise_geometry(model_for(spec), spec, t)
        h_norm2 = paper_residuals(pg, curvature_data(pg, fields))["h_norm2"]
        expected = sum(1.0 / r**2 for r in radii)
        np.testing.assert_allclose(h_norm2, expected, rtol=1e-13, atol=0)


class TestPackedCertificatePath:
    """The certificate runs on packed jets and leaves no state behind."""

    def test_no_scalar_jet_is_built(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a scalar Jet was built on the certificate path")

        monkeypatch.setattr(jets.Jet, "__init__", refuse)
        for spec, K in [
            (make_spec("whitney_cp", 2, theta=0.5), 12),
            (make_spec("contact_whitney_b", 2, theta=0.8), 12),
            (make_spec("lifted", 2, base="whitney_c0"), 12),
            (make_spec("perturbed", 2, epsilon=0.05), 16),
            (make_spec("product_torus", 2), 12),
        ]:
            run_case(spec, resolution=K)
        block = conformal_block(make_spec("contact_whitney_r", 4, r=1.0))
        assert block["weyl_sup"] is not None

    def test_cases_leave_no_module_level_dict_grown(self, monkeypatch):
        # one worker: caches that forked workers fill die with them
        monkeypatch.setattr(verify, "_worker_count", lambda jobs: 1)

        def sizes():
            return {k: len(v) for k, v in vars(immersions).items() if isinstance(v, dict)}

        before = sizes()
        # parameters no other test uses, so no earlier run filled a cache
        run_case(make_spec("contact_whitney_b", 2, theta=0.83), resolution=12)
        run_case(make_spec("lifted", 2, base="whitney_c0", r=1.07), resolution=12)
        assert sizes() == before
