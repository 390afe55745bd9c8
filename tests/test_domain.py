"""Mesh, region and quadrature oracles: areas, exactness, round trips."""

import itertools

import numpy as np
import pytest

from degenlab.domain import (GeometrySpec, Mesh, Region, build_annulus_mesh,
                             build_disk_mesh, integrate_space,
                             integrate_spacetime, snap_window)


class TestGeometry:
    def test_defaults(self, geometry):
        assert geometry.R == 1.0 and geometry.L == 9.0

    def test_ratio_enforced(self):
        with pytest.raises(ValueError):
            GeometrySpec(R=1.0, L=7.0)


class TestRegion:
    def test_partition(self, coarse_mesh):
        inner = coarse_mesh.cell_mask(Region.ball(3.0))
        band = coarse_mesh.cell_mask(Region.annulus(3.0, 6.0))
        outer = coarse_mesh.cell_mask(Region.complement(6.0))
        total = inner.astype(int) + band.astype(int) + outer.astype(int)
        assert np.all(total == 1)

    def test_whole_contains_everything(self, coarse_mesh):
        assert np.all(coarse_mesh.cell_mask(Region.whole()))

    def test_annulus_validation(self):
        with pytest.raises(ValueError):
            Region.annulus(5.0, 3.0)


class TestDiskMesh:
    def test_area(self, geometry, coarse_mesh):
        area = float(np.sum(coarse_mesh.areas))
        exact = np.pi * geometry.L**2
        assert abs(area - exact) / exact < 1e-3

    def test_boundary_on_circle(self, geometry, coarse_mesh):
        b = coarse_mesh.vertices[coarse_mesh.boundary_mask]
        r = np.linalg.norm(b, axis=1)
        assert np.max(np.abs(r - geometry.L)) < 1e-10 * geometry.L

    def test_grading_near_origin(self, geometry):
        mesh = build_disk_mesh(geometry, 0.4)
        r_cent = np.linalg.norm(mesh.centroids, axis=1)
        inner = mesh.areas[r_cent < 1.5]
        outer = mesh.areas[r_cent > 4.0]
        # spacing h/2 inside B_2R means ~4x smaller cells
        assert np.median(inner) < 0.5 * np.median(outer)

    def test_vertex_scaling_under_refinement(self, geometry):
        n1 = build_disk_mesh(geometry, 0.6).num_vertices
        n2 = build_disk_mesh(geometry, 0.3).num_vertices
        assert 4.0 * 0.7 <= n2 / n1 <= 4.0 * 1.3

    def test_too_coarse_rejected(self, geometry):
        with pytest.raises(ValueError):
            build_disk_mesh(geometry, 1.5)

    def test_positive_areas_and_orientation(self, coarse_mesh):
        assert np.all(coarse_mesh.areas > 0.0)

    def test_area_convergence_order(self, geometry):
        # curved-boundary area deficit shrinks at second order
        errs = []
        for h in (0.8, 0.4, 0.2):
            mesh = build_disk_mesh(geometry, h)
            errs.append(abs(float(np.sum(mesh.areas)) - np.pi * geometry.L**2))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestAnnulusMesh:
    def test_area_and_markers(self):
        mesh = build_annulus_mesh(4.0, 9.0, 0.4)
        exact = np.pi * (81.0 - 16.0)
        assert abs(float(np.sum(mesh.areas)) - exact) / exact < 1e-3
        assert set(np.unique(mesh.boundary_markers)) == {Mesh.OUTER, Mesh.INNER}

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_annulus_mesh(4.0, 5.0, 0.5)


class TestQuadrature:
    def test_exact_for_quadratics(self, unit_square_mesh):
        # edge-midpoint rule integrates degree-2 polynomials exactly
        qp = unit_square_mesh.quadrature()
        x, y = qp.points[:, 0], qp.points[:, 1]
        cases = [(np.ones_like(x), 1.0), (x, 0.5), (y, 0.5),
                 (x * x, 1.0 / 3.0), (x * y, 0.25), (y * y, 1.0 / 3.0)]
        for vals, exact in cases:
            assert abs(float(np.dot(qp.weights, vals)) - exact) < 1e-14

    def test_weighted_polar_integral(self, geometry):
        # int_{B_1} |x|^1 * |x|^2 dx = 2 pi / 5 (radial moment oracle)
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 1.0 / 32.0)
        val = integrate_space(mesh, lambda p: np.einsum("nd,nd->n", p, p),
                              weight=lambda p: np.linalg.norm(p, axis=1),
                              subdivide_radius=0.125)
        assert abs(val - 2.0 * np.pi / 5.0) < 0.01 * 2.0 * np.pi / 5.0

    def test_subdivision_refines_near_origin_only(self, coarse_mesh):
        qp0 = coarse_mesh.quadrature()
        qp1 = coarse_mesh.quadrature(0.5)
        assert len(qp1.points) > len(qp0.points)
        assert np.isclose(np.sum(qp0.weights), np.sum(qp1.weights))

    def test_nodal_field_interpolation(self, unit_square_mesh):
        # P1 interpolation of a linear nodal field is exact
        u = unit_square_mesh.vertices @ np.array([2.0, -1.0]) + 0.5
        qp = unit_square_mesh.quadrature()
        vals = qp.values(u)
        expected = qp.points @ np.array([2.0, -1.0]) + 0.5
        assert np.allclose(vals, expected)


class TestInterpolation:
    KEYS = [(0.0, 2), (1.2, 2), (1.2, 3)]

    @pytest.mark.parametrize("sub, levels", KEYS)
    def test_rows_are_shape_values(self, coarse_mesh, sub, levels):
        qp = coarse_mesh.quadrature(sub, levels)
        P = coarse_mesh.interpolation(sub, levels)
        assert P.shape == (len(qp.weights), coarse_mesh.num_vertices)
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0,
                           rtol=0.0, atol=1e-14)
        u = np.random.default_rng(0).standard_normal(coarse_mesh.num_vertices)
        ref = qp.values(u)
        assert np.max(np.abs(P @ u - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_cached_per_key(self, coarse_mesh):
        P = coarse_mesh.interpolation()
        assert coarse_mesh.interpolation(0.0, 2) is P
        Q = coarse_mesh.interpolation(1.2, 3)
        assert Q is not P
        assert coarse_mesh.interpolation(1.2 + 1e-14, 3) is Q
        assert coarse_mesh.interpolation(1.2) is not Q


class TestGradients:
    def test_p1_gradient_of_linear_field(self, coarse_mesh):
        u = coarse_mesh.vertices @ np.array([3.0, -2.0])
        g = coarse_mesh.p1_gradient(u)
        assert np.allclose(g, [3.0, -2.0])
        # G stacks the two columns of p1_gradient, on this field and any other
        G = coarse_mesh.gradient_operator()
        assert G is coarse_mesh.gradient_operator()
        assert G.shape == (2 * coarse_mesh.num_cells, coarse_mesh.num_vertices)
        v = np.random.default_rng(2).standard_normal(coarse_mesh.num_vertices)
        for w in (u, v):
            ref = coarse_mesh.p1_gradient(w)
            got = (G @ w).reshape(2, -1).T
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("annulus", [False, True])
    def test_boundary_edge_average_of_linear_field(self, coarse_mesh, annulus):
        mesh = build_annulus_mesh(4.0, 9.0, 0.4) if annulus else coarse_mesh
        E, lengths = mesh.boundary_edge_average()
        e = mesh.boundary_edges
        bidx = np.flatnonzero(mesh.boundary_mask)
        assert E.shape == (len(e), len(bidx))
        a, b = mesh.vertices[e[:, 0]], mesh.vertices[e[:, 1]]
        assert np.array_equal(lengths, np.linalg.norm(b - a, axis=1))
        coef = np.array([1.5, -0.5])
        got = E @ (mesh.vertices[bidx] @ coef + 2.0)
        expected = 0.5 * (a + b) @ coef + 2.0
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_boundary_normals_radial(self, coarse_mesh):
        normals = coarse_mesh.boundary_edge_normals()
        e = coarse_mesh.boundary_edges
        mids = 0.5 * (coarse_mesh.vertices[e[:, 0]] + coarse_mesh.vertices[e[:, 1]])
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        assert np.all(np.einsum("ed,ed->e", normals, mids) > 0.99)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, geometry):
        mesh = build_disk_mesh(geometry, 0.6)
        path = tmp_path / "mesh.txt"
        mesh.save(str(path))
        back = Mesh.load(str(path))
        assert np.array_equal(mesh.vertices, back.vertices)
        assert np.array_equal(mesh.cells, back.cells)
        assert np.array_equal(mesh.boundary_edges, back.boundary_edges)
        assert np.array_equal(mesh.boundary_markers, back.boundary_markers)
        assert mesh.h == back.h


class TestTimeIntegration:
    def test_snap_window(self):
        times = np.linspace(0.0, 1.0, 17)
        assert snap_window(times, (0.25, 0.75)) == (4, 12)
        with pytest.raises(ValueError):
            snap_window(times, (0.75, 0.25))

    def test_spacetime_constant_field(self, coarse_mesh):
        times = np.linspace(0.0, 1.0, 9)
        fields = np.ones((9, coarse_mesh.num_vertices))
        full = integrate_spacetime(coarse_mesh, times, fields=fields)
        area = float(np.sum(coarse_mesh.areas))
        assert abs(full - area) < 1e-10 * area
        half = integrate_spacetime(coarse_mesh, times, fields=fields,
                                   window=(0.25, 0.75))
        assert abs(half - 0.5 * area) < 1e-10 * area

    @pytest.mark.parametrize("region, sub", itertools.product(
        [None, Region.ball(4.0), Region.annulus(3.0, 6.0),
         Region.complement(5.0)],
        [0.0, 1.2]))
    def test_spacetime_matches_slice_loop(self, coarse_mesh, region, sub):
        # one nodal-weight product against the per-slice space integrals
        times = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(1)
        fields = rng.standard_normal((9, coarse_mesh.num_vertices)) ** 2
        for weight, window in itertools.product(
                [None, lambda p: np.linalg.norm(p, axis=1)],
                [None, (0.25, 0.75)]):
            i0, i1 = (0, 8) if window is None else snap_window(times, window)
            ref = float(np.trapezoid(
                [integrate_space(coarse_mesh, fields[n], region, weight, sub)
                 for n in range(i0, i1 + 1)], times[i0:i1 + 1]))
            got = integrate_spacetime(coarse_mesh, times, fields=fields,
                                      region=region, weight=weight,
                                      window=window, subdivide_radius=sub)
            assert abs(got - ref) <= 1e-13 * abs(ref)
