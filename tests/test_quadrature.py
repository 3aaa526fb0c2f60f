"""Grids: closed-form volumes, node counts, refinement behavior."""

import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from whitneygeo.geometry import pointwise_geometry
from whitneygeo.immersions import make_spec, model_for
from whitneygeo.quadrature import IntegrationGrid, build_grid, sphere_points, sphere_volume


def _immersed_volume(spec, grid):
    model = model_for(spec)
    total = 0.0
    for idx in grid.chunks(4096):
        pg, _ = pointwise_geometry(model, spec, grid.nodes[idx])
        total += float(np.sum(grid.weight[idx] * pg.sqrt_det_g))
    return total


def _round_volume_error(grid):
    """Relative error of the weights' sum against vol(S^n)."""
    want = sphere_volume(grid.n)
    return abs(float(np.sum(grid.weight)) - want) / want


class TestRoundVolumes:
    def test_sphere_volume_closed_forms(self):
        assert_allclose(sphere_volume(2), 4 * math.pi, rtol=1e-15)
        assert_allclose(sphere_volume(3), 2 * math.pi**2, rtol=1e-15)

    def test_two_sphere_at_moderate_resolution(self):
        assert _round_volume_error(build_grid(2, 32)) < 1e-12

    def test_three_sphere_at_moderate_resolution(self):
        assert _round_volume_error(build_grid(3, 24)) < 1e-10

    def test_default_resolutions_reach_tolerance(self):
        assert _round_volume_error(build_grid(2, 48)) < 1e-10
        assert _round_volume_error(build_grid(3, 32)) < 1e-10
        assert _round_volume_error(build_grid(4, 24)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weights_sum_to_the_round_volume(self, n):
        # the weights carry the round density, so they sum to vol(S^n)
        for K in (12, build_grid(n).resolution):
            grid = build_grid(n, K)
            assert abs(np.sum(grid.weight) - sphere_volume(n)) <= 1e-13 * sphere_volume(n)


class TestNodes:
    @pytest.mark.parametrize("n, K", [(2, 8), (2, 48), (3, 12), (3, 18), (4, 10)])
    def test_product_rule_has_2_K_to_the_n_nodes(self, n, K):
        # K Gauss nodes per polar angle, 2K trapezoid nodes in the azimuth
        grid = build_grid(n, K)
        assert len(grid.t) == len(grid.weight) == len(grid.nodes) == 2 * K**n
        assert len(np.unique(grid.t[:, -1])) == 2 * K
        assert np.all(grid.weight > 0)
        assert np.array_equal(grid.nodes, sphere_points(grid.t))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sphere_points_are_the_spherical_parametrization(self, n):
        # u_k = cos t_k sin t_0 ... sin t_(k-1), multiplied in that order,
        # and u_n the product of every sine: unit vectors, bitwise
        t = build_grid(n, 8).t
        want = np.ones((len(t), n + 1))
        for k in range(n + 1):
            if k < n:
                want[:, k] = np.cos(t[:, k])
            for i in range(k):
                want[:, k] = want[:, k] * np.sin(t[:, i])
        got = sphere_points(t)
        assert np.array_equal(got, want)
        assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_torus_nodes_are_the_angles(self):
        grid = build_grid(3, 8, domain="torus")
        assert grid.nodes.shape == (8**3, 3)
        assert np.array_equal(grid.nodes, grid.t)

    def test_chunks_are_equal_slices_of_every_node(self):
        grid = build_grid(2, 48)
        chunks = grid.chunks(1000)
        sizes = [len(idx) for idx in chunks]
        assert max(sizes) <= 1000 and max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.concatenate(chunks), np.arange(len(grid.t)))


class TestTorus:
    def test_flat_torus_volume(self):
        radii = (0.7, 1.3)
        spec = make_spec("product_torus", 2, radii=radii)
        grid = build_grid(2, 16, domain="torus")
        want = (2 * math.pi) ** 2 * radii[0] * radii[1]
        assert_allclose(_immersed_volume(spec, grid), want, rtol=1e-13)


class TestRefinement:
    def test_volume_error_shrinks_monotonically(self):
        # the Whitney sphere's induced volume is pi^2 r^2; the round volume
        # is exact from K = 12 on, since the weights carry its density
        spec = make_spec("whitney_c0", 2, r=1.0)
        errs = [abs(_immersed_volume(spec, build_grid(2, K)) - math.pi**2)
                for K in (8, 10, 12, 16)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-10

    def test_immersed_volume_stable_across_resolutions(self):
        spec = make_spec("whitney_c0", 2, r=1.0)
        vols = [_immersed_volume(spec, build_grid(2, K)) for K in (32, 48)]
        assert abs(vols[0] - vols[1]) < 1e-9 * vols[1]


class TestGuards:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            build_grid(2, 4)

    def test_cost_guard_on_dimension(self):
        with pytest.raises(ValueError):
            build_grid(5, 16)

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            IntegrationGrid(2, 16, domain="klein_bottle")


def test_grid_nodes_deterministic():
    g1 = build_grid(2, 24)
    g2 = build_grid(2, 24)
    assert np.array_equal(g1.t, g2.t)
    assert np.array_equal(g1.weight, g2.weight)
    assert np.array_equal(g1.nodes, g2.nodes)


def test_names_the_benchmark_trace_reads():
    # the span counters bind pointwise_geometry's third parameter by its
    # name, t (the nodes), and read the node count of a grid as len(grid.t)
    params = list(inspect.signature(pointwise_geometry).parameters)
    assert params[2] == "t"
    grid = build_grid(2, 12)
    assert grid.t.shape == (2 * 12**2, 2)
    assert len(grid.t) == len(grid.nodes)
