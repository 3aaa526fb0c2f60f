"""The quadrature-error estimate: the pure ladder rule on synthetic ladders,
the evidence a report records, and validation against finer reference grids.

The validation runs integrate only the certificate's integrands, on the
ladder rungs of the default resolution and on a much finer reference grid;
the estimate must bound the true error of the default grid.
"""

import math
import operator

import pytest

from whitneygeo.immersions import make_spec, model_for
from whitneygeo.quadrature import (
    LADDER_SAFETY,
    build_grid,
    ladder_resolutions,
    quadrature_error,
)
from whitneygeo.verify import (
    Tolerances,
    _chunk_size,
    _chunk_sums,
    _fold,
    _map_chunks,
    _normalized_integrals,
    _quadrature_estimates,
    report_to_markdown,
    run_case,
)

# every acceptance sweep value, plus the hyperbolic families at theta = 0.5,
# which stay outside the acceptance sweeps (see CHANGES.md)
VALIDATION_CASES = [
    ("whitney_c0", "r", [0.5, 0.75, 1.0, 1.5, 2.0]),
    ("whitney_cp", "theta", [0.2, 0.35, 0.5, 0.75, 1.0]),
    ("whitney_ch", "theta", [0.5, 0.8, 0.95, 1.1, 1.25, 1.4]),
    ("contact_whitney_r", "r", [0.5, 0.75, 1.0, 1.5, 2.0]),
    ("contact_whitney_s", "theta", [0.2, 0.35, 0.5, 0.75, 1.0]),
    ("contact_whitney_b", "theta", [0.5, 0.8, 0.95, 1.1, 1.25, 1.4]),
]


class TestLadderRule:
    def test_rungs(self):
        assert ladder_resolutions(40) == (20, 30, 40)
        assert ladder_resolutions(48) == (24, 36, 48)
        assert ladder_resolutions(16) == (8, 12, 16)
        for K in range(12, 200):
            lo, mid, hi = ladder_resolutions(K)
            # a lower step no longer than the upper keeps the fit conservative
            assert 8 <= lo < mid < hi and mid - lo <= hi - mid

    def test_too_coarse_for_a_ladder(self):
        # at K = 8 every rung is the same grid, whose zero "error" once let a
        # Whitney sphere with defect 5.9e-2 certify as STRICT
        for K in (8, 11):
            with pytest.raises(ValueError, match="below 12"):
                ladder_resolutions(K)
        with pytest.raises(ValueError, match="below 12"):
            run_case(make_spec("whitney_c0", 2, r=1.0), resolution=8)

    def test_geometric_ladder_is_fitted(self):
        limit, rho = 0.3, math.exp(-0.76)
        values = [limit + 2.0 * rho**K for K in (20, 30, 40)]
        error, method = quadrature_error(values, (20, 30, 40))
        assert method == "fitted"
        e1, e2 = abs(values[1] - values[0]), abs(values[2] - values[1])
        assert error == pytest.approx(LADDER_SAFETY * e2**2 / e1, rel=1e-12)
        true = abs(values[-1] - limit)
        assert true <= error <= LADDER_SAFETY * true
        # far below the difference the conservative rule would report
        assert error < 1e-2 * e2

    def test_sign_change_falls_back(self):
        # a ladder that overshoots its limit: the differences change sign
        values = [-6.3e-2, 3.4e-4, -7.2e-5]
        error, method = quadrature_error(values, (24, 36, 48))
        assert method == "fallback"
        assert error == abs(values[2] - values[1])

    def test_slow_decay_falls_back(self):
        values = [1.0e-3, 0.6e-3, 0.3e-3]
        error, method = quadrature_error(values, (24, 36, 48))
        assert method == "fallback"
        assert error == pytest.approx(3e-4, rel=1e-12)

    def test_control_vets_the_fit(self):
        # the defect and divergence-identity ladders of whitney_c0 at K = 8,
        # 12, 16: geometric in appearance, but the fit would claim 5.9e-6
        # against a true error of 7.2e-5, which the control's exact zero shows
        defect = [5.89e-2, 3.45e-4, -7.20e-5]
        control = [-5.89e-2, -3.45e-4, 7.20e-5]
        assert quadrature_error(defect, (8, 12, 16))[1] == "fitted"
        error, method = quadrature_error(defect, (8, 12, 16), control=control)
        assert method == "fallback"
        assert error >= abs(defect[-1])
        # a control whose fit holds leaves the fit in place
        rho = math.exp(-0.8)
        geometric = [rho**K for K in (24, 36, 48)]
        assert quadrature_error(geometric, (24, 36, 48), control=geometric)[1] == "fitted"

    def test_a_ladder_that_does_not_contract_stalls(self):
        # the defect ladder of whitney_ch, n = 2, theta = 0.01 at K = 24, 36,
        # 48, whose true error is 3.11: e2 = 0.31 bounds nothing
        values = [-3.70, -3.42, -3.11]
        assert quadrature_error(values, (24, 36, 48)) == (
            pytest.approx(0.31, rel=1e-12), "stalled")
        # differences that do not shrink per rung step stall at any spacing
        assert quadrature_error([0.0, 1.0, 4.0], (8, 9, 12))[1] == "stalled"

    def test_contraction_is_per_rung_step(self):
        # rungs 8, 9, 12 (K = 12): 0.019 per step, then 0.007 contracts
        # though the second difference is the larger
        values = [0.3, 0.3 + 0.019, 0.3 + 0.019 + 0.021]
        error, method = quadrature_error(values, (8, 9, 12))
        assert method == "fallback"
        assert error == pytest.approx(0.021, rel=1e-12)
        # the same values on evenly spaced rungs do not
        assert quadrature_error(values, (24, 36, 48))[1] == "stalled"
        # a ladder that stopped moving contracts; one within rounding is roundoff
        assert quadrature_error([1.0, 1.0, 1.0], (24, 36, 48)) == (0.0, "fallback")
        assert quadrature_error([0.0, 1e-16, 3e-16], (24, 36, 48), floor=1e-14) == (
            1e-14, "roundoff")

    def test_rounding_floor(self):
        values = [1.4e-10, 3.5e-15, 4.5e-16]
        assert quadrature_error(values, (24, 36, 48))[0] < 1e-18
        error, method = quadrature_error(values, (24, 36, 48), floor=1e-14)
        assert (error, method) == (1e-14, "roundoff")


class TestReportEvidence:
    def test_unresolved_report_names_the_gates(self):
        # the hyperbolic family near its degenerate end: at K = 16 the
        # ladder still decays too slowly for a fit
        r = run_case(make_spec("whitney_ch", 2, theta=0.2), resolution=16, seed=0)
        assert r.classification == "UNRESOLVED"
        q = r.quadrature["defect_normalized"]
        assert [k for k, _ in q["ladder"]] == [8, 12, 16]
        assert q["ladder"][-1][1] == r.integrals["defect_normalized"]
        assert q["error"] == r.integrals["defect_error"]
        assert q["estimate"] == "fallback"
        assert r.yano["main_error"] == r.quadrature["yano_main"]["error"]
        gates = r.quadrature["gates"]
        assert q["error"] > max(gates.values())
        assert "absolute gate" in r.unresolved_reason
        assert "relative gate" in r.unresolved_reason
        assert r.unresolved_reason in report_to_markdown(r)

    @pytest.mark.parametrize("theta", [0.01, 0.005])
    def test_a_stalled_ladder_certifies_nothing(self, theta):
        # a Whitney sphere, defect 0, whose ladder at the default K still
        # moves by more each step: once it read as a violated inequality
        r = run_case(make_spec("whitney_ch", 2, theta=theta), seed=0)
        q = r.quadrature["defect_normalized"]
        assert q["estimate"] == "stalled"
        assert r.classification == "UNRESOLVED"
        assert "does not contract" in r.unresolved_reason
        for k, _ in q["ladder"]:
            assert f"D({k})" in r.unresolved_reason
        assert not any("below" in f for f in r.hard_failures)

    def test_resolved_report_has_no_reason(self):
        # a case the K = 32 ladder resolves by its fit, above the rounding floor
        r = run_case(make_spec("whitney_ch", 2, theta=0.5), resolution=32, seed=0)
        assert r.classification == "WHITNEY_BRANCH"
        assert r.quadrature["defect_normalized"]["estimate"] == "fitted"
        assert r.unresolved_reason is None


def _certificate_sums(spec, nodes, w):
    return _chunk_sums(spec, model_for(spec), nodes, w)[0]


def _sums(spec, K):
    """The certificate's sums over the grid at K, one chunk job per chunk."""
    model, grid = model_for(spec), build_grid(spec.n, K)
    jobs = [(_certificate_sums, spec, grid.nodes[idx], grid.weight[idx])
            for idx in grid.chunks(_chunk_size(model.chart_dim))]
    parts = _map_chunks(jobs)
    return _fold(parts, operator.add, 0.0)


def _validate(spec, K, K_ref):
    """Estimates at K and true errors against the reference grid."""
    ladder = [(k, _sums(spec, k)) for k in ladder_resolutions(K)]
    estimates = _quadrature_estimates(spec.n, ladder)
    top = _normalized_integrals(spec.n, ladder[-1][1])
    ref = _normalized_integrals(spec.n, _sums(spec, K_ref))
    return {
        name: (estimates[name]["error"], abs(top[name] - ref[name]))
        for name in ("defect_normalized", "yano_main")
    }


@pytest.mark.parametrize(
    "kind, pname, value",
    [(kind, p, v) for kind, p, values in VALIDATION_CASES for v in values],
)
def test_estimate_bounds_true_error_n2(kind, pname, value):
    for name, (estimate, true) in _validate(
        make_spec(kind, 2, **{pname: value}), 48, 96
    ).items():
        assert estimate >= true, (name, estimate, true)


@pytest.mark.slow
def test_estimate_bounds_true_error_n3_hyperbolic():
    out = _validate(make_spec("whitney_ch", 3, theta=1.4), 40, 48)
    for name, (estimate, true) in out.items():
        assert estimate >= true, (name, estimate, true)
    # and it certifies the equality decision at the acceptance resolution
    estimate, _ = out["defect_normalized"]
    assert estimate <= 0.5 * Tolerances().classification
