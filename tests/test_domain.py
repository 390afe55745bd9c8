"""Mesh, region and quadrature oracles: areas, exactness, round trips."""

import ast
import itertools
import pathlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

from degenlab import domain, solver
from degenlab.carleman import BalanceContext, CarlemanParams
from degenlab.domain import (MAX_VERTICES, GeometrySpec, Mesh, Region,
                             _cell_gradient, build_disk_mesh,
                             disk_vertex_bound,
                             integrate_space, integrate_spacetime,
                             time_weights)
from degenlab.spaces import inequality_ratio_table
from degenlab.weights import AbsPowerWeight, RegularizedWeight

from conftest import (gradient_operator, p1_cell_gradient, p1_shape_values,
                      quadrature, traced_peak, weighted_mass)


class TestGeometry:
    def test_defaults(self, geometry):
        assert geometry.R == 1.0 and geometry.L == 9.0

    def test_ratio_enforced(self):
        with pytest.raises(ValueError):
            GeometrySpec(R=1.0, L=7.0)

    def test_radius_positive(self):
        with pytest.raises(ValueError, match="R must be positive"):
            GeometrySpec(R=0.0)


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

    def test_one_half_open_band_rule(self):
        # every constructor is the band r_inner <= |x| < r_outer
        assert Region.whole() == Region(0.0, np.inf)
        assert Region.ball(4.0) == Region.annulus(0.0, 4.0)
        assert Region.complement(5.0) == Region.annulus(5.0, np.inf)
        mesh = Mesh(np.array([[2.0, 4.0], [4.0, 3.0], [3.0, 5.0]]),
                    np.array([[0, 1, 2]]), np.array([[0, 1]]), h=1.0)
        # the one centroid (3, 4) lies at |x| = 5 exactly: inside [5, 6) and
        # the complement of B_5, outside [4, 5) and B_5
        assert np.linalg.norm(mesh.centroids[0]) == 5.0
        assert mesh.cell_mask(Region.annulus(5.0, 6.0))[0]
        assert mesh.cell_mask(Region.complement(5.0))[0]
        assert not mesh.cell_mask(Region.annulus(4.0, 5.0))[0]
        assert not mesh.cell_mask(Region.ball(5.0))[0]


class TestRadii:
    def test_radii_bitwise_norm(self, geometry):
        # sqrt(einsum) radii are the bits of np.linalg.norm's, on vertices,
        # centroids (cell_mask's cached radii) and random points at several
        # scales
        rng = np.random.default_rng(3)
        mesh = build_disk_mesh(geometry, 0.3, local_h=0.01)
        arrays = [mesh.vertices, mesh.centroids,
                  *(scale * rng.standard_normal((20_000, 2))
                    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150))]
        for x in arrays:
            assert np.array_equal(domain._radii(x), np.linalg.norm(x, axis=1))
        mesh.cell_mask(Region.ball(3.0))
        assert np.array_equal(mesh.cached("centroid_radii", None),
                              np.linalg.norm(mesh.centroids, axis=1))

    @pytest.mark.parametrize("radius", [0.0, 0.35, 1.2, 20.0])
    def test_rule_blocks_fine_cells(self, geometry, radius):
        # the refined cells are those with a vertex within the radius: the
        # three column ORs select the cells near[cells].any(axis=1) does
        mesh = build_disk_mesh(geometry, 0.3, local_h=0.02)
        near = np.linalg.norm(mesh.vertices, axis=1) <= radius
        fine = near[mesh.cells].any(axis=1) & (radius > 0.0)
        expected = [ids for ids in (np.flatnonzero(~fine),
                                    *[np.flatnonzero(fine)] * 2) if len(ids)]
        blocks = domain._rule_blocks(mesh, radius, [2, 3])
        assert len(blocks) == len(expected)
        for (ids, *_), ref in zip(blocks, expected):
            assert np.array_equal(ids, ref)


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


class TestCellOrientation:
    def test_clockwise_cell_rejected(self, unit_square_mesh):
        sq = unit_square_mesh
        with pytest.raises(ValueError, match="clockwise cell"):
            Mesh(sq.vertices, sq.cells[:, [0, 2, 1]], sq.boundary_edges,
                 h=1.0)

    def test_degenerate_cell_rejected(self):
        vertices = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="degenerate"):
            Mesh(vertices, [[0, 1, 3], [0, 1, 2]], [[0, 1]], h=1.0)


# Reference ring mesher: the loop-based two-pointer merge, centre fan and
# boundary loop that the array-built meshes must reproduce bit for bit.

def _two_pointer_merge(theta_a, theta_b, idx_a, idx_b):
    na, nb = len(theta_a), len(theta_b)
    tri = []
    i = j = 0
    two_pi = 2.0 * np.pi

    def ang(th, k, n):
        return th[k % n] + two_pi * (k // n)

    while i < na or j < nb:
        adv_a = ang(theta_a, i + 1, na) <= ang(theta_b, j + 1, nb)
        if i >= na:
            adv_a = False
        if j >= nb:
            adv_a = True
        if adv_a:
            tri.append((idx_a[i % na], idx_b[j % nb], idx_a[(i + 1) % na]))
            i += 1
        else:
            tri.append((idx_a[i % na], idx_b[j % nb], idx_b[(j + 1) % nb]))
            j += 1
    return tri


def _reference_rings(radii, spacing_fn):
    verts, cells, ring_idx, ring_theta = [np.zeros((1, 2))], [], [], []
    center, nxt = 0, 1
    for k, r in enumerate(radii[1:]):
        count = max(8, int(np.ceil(2.0 * np.pi * r / spacing_fn(r))))
        pts, theta = domain._ring_points(r, count, stagger=(k % 2 == 1))
        verts.append(pts)
        ring_idx.append(np.arange(nxt, nxt + count))
        ring_theta.append(theta)
        nxt += count
    first = ring_idx[0]
    for i in range(len(first)):
        cells.append((center, first[i], first[(i + 1) % len(first)]))
    for k in range(len(ring_idx) - 1):
        cells.extend(_two_pointer_merge(ring_theta[k], ring_theta[k + 1],
                                        ring_idx[k], ring_idx[k + 1]))
    return np.concatenate(verts), cells, ring_idx


def _reference_loop(ring):
    n = len(ring)
    return [(ring[i], ring[(i + 1) % n]) for i in range(n)]


def _reference_disk(spec, h, local_h=None):
    fine = h / 2.0
    lh = fine if local_h is None else min(local_h, fine)

    def spacing(r):
        return min(fine if r < 2.0 * spec.R else h, max(lh, 0.6 * r))

    radii = domain._ring_radii(spec.L, spacing, s_first=lh)
    verts, cells, rings = _reference_rings(radii, spacing)
    return Mesh(verts, np.array(cells), np.array(_reference_loop(rings[-1])), h)


def _assert_same_mesh(got, ref):
    for name in ("vertices", "cells", "boundary_edges"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestArrayBuiltRings:
    def test_merge_matches_two_pointer(self):
        # equal stagger and a common factor give exactly tied angles
        for na, nb, sa, sb in itertools.product((8, 9, 12, 16, 24, 40),
                                                (8, 9, 12, 16, 24, 40),
                                                (False, True), (False, True)):
            _, ta = domain._ring_points(1.0, na, sa)
            _, tb = domain._ring_points(2.0, nb, sb)
            ia, ib = np.arange(na), np.arange(na, na + nb)
            got = domain._merge_rings(ta, tb, ia, ib)
            ref = np.array(_two_pointer_merge(ta, tb, ia, ib))
            assert np.array_equal(got, ref), (na, nb, sa, sb)

    @pytest.mark.parametrize("h", [0.6, 0.24, 0.18, 1.0 / 16.0])
    def test_disk_bitwise(self, geometry, h):
        _assert_same_mesh(build_disk_mesh(geometry, h),
                          _reference_disk(geometry, h))

    @pytest.mark.parametrize("k", [8, 16, 32, 64, 128])
    def test_graded_disk_bitwise(self, geometry, k):
        local_h = 1.0 / (4.0 * k)
        _assert_same_mesh(build_disk_mesh(geometry, 0.18, local_h=local_h),
                          _reference_disk(geometry, 0.18, local_h))


class TestVertexBound:
    @pytest.mark.parametrize("spec", [GeometrySpec(), GeometrySpec(R=0.12, L=1.0)])
    def test_bounds_built_meshes(self, spec):
        for h, local_h in itertools.product((0.9, 0.6, 0.3, 0.18, 0.12),
                                            (None, 1.0 / 512.0, 1e-6)):
            h *= spec.R
            n = build_disk_mesh(spec, h, local_h=local_h).num_vertices
            bound = disk_vertex_bound(spec, h, local_h)
            assert n <= bound
            if h <= 0.18 * spec.R:
                assert bound <= 1.2 * n

    def test_cap_admits_h_1_32(self, geometry):
        assert disk_vertex_bound(geometry, 1.0 / 32.0) <= MAX_VERTICES

    def test_cap_rejects_before_building(self, geometry, monkeypatch):
        def ring_radii(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(domain, "_ring_radii", ring_radii)
        with pytest.raises(ValueError, match="cap"):
            build_disk_mesh(geometry, 1e-4)
        assert disk_vertex_bound(geometry, 1e-4) > 1000 * MAX_VERTICES
        # h^2 overflows the count near 1e-160 and underflows to 0 near 1e-200
        for h in (1e-160, 1e-200, 5e-324):
            assert disk_vertex_bound(geometry, h) == np.inf
            with pytest.raises(ValueError, match="cap"):
                build_disk_mesh(geometry, h)

    def test_negative_local_h_rejected(self, geometry):
        with pytest.raises(ValueError, match="local_h must not be negative"):
            disk_vertex_bound(geometry, 0.3, local_h=-1.0)


class TestQuadrature:
    def test_exact_for_quadratics(self, unit_square_mesh):
        # edge-midpoint rule integrates degree-2 polynomials exactly
        qp = quadrature(unit_square_mesh)
        x, y = qp.points[:, 0], qp.points[:, 1]
        cases = [(np.ones_like(x), 1.0), (x, 0.5), (y, 0.5),
                 (x * x, 1.0 / 3.0), (x * y, 0.25), (y * y, 1.0 / 3.0)]
        for vals, exact in cases:
            assert abs(float(np.dot(qp.weights, vals)) - exact) < 1e-14

    def test_weighted_polar_integral(self, geometry):
        # int_{B_1} |x|^1 * |x|^2 dx = 2 pi / 5 (radial moment oracle)
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 1.0 / 32.0)
        qp = quadrature(mesh, 0.125)
        val = float(np.dot(qp.weights * AbsPowerWeight(1.0)(qp.points),
                           np.einsum("nd,nd->n", qp.points, qp.points)))
        assert abs(val - 2.0 * np.pi / 5.0) < 0.01 * 2.0 * np.pi / 5.0

    def test_subdivision_refines_near_origin_only(self, coarse_mesh):
        qp0 = quadrature(coarse_mesh)
        qp1 = quadrature(coarse_mesh, 0.5)
        assert len(qp1.points) > len(qp0.points)
        assert np.isclose(np.sum(qp0.weights), np.sum(qp1.weights))

    def test_nodal_field_interpolation(self, unit_square_mesh):
        # P1 interpolation of a linear nodal field is exact
        u = unit_square_mesh.vertices @ np.array([2.0, -1.0]) + 0.5
        qp = quadrature(unit_square_mesh)
        vals = qp.interpolation @ u
        expected = qp.points @ np.array([2.0, -1.0]) + 0.5
        assert np.allclose(vals, expected)


    def test_one_point_rule_in_src(self):
        # every point sum reads the rule blocks: no source file builds a
        # quadrature object, an interpolation operator or a gradient operator
        hits = [f"{path.relative_to(root)}:{i}"
                for root in [pathlib.Path(domain.__file__).parents[1]]
                for path in sorted(root.rglob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"SpaceQuadrature|\.quadrature\(|gradient_operator"
                             r"|\.interpolation\b", line)]
        assert not hits, hits


class TestInterpolation:
    KEYS = [(0.0, 2), (1.2, 2), (1.2, 3)]

    @pytest.mark.parametrize("sub, levels", KEYS)
    def test_rows_are_shape_values(self, coarse_mesh, sub, levels):
        qp = quadrature(coarse_mesh, sub, levels)
        P = qp.interpolation
        assert P.shape == (len(qp.weights), coarse_mesh.num_vertices)
        assert np.all(P.data != 0.0)     # edge midpoints' zeros eliminated
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0,
                           rtol=0.0, atol=1e-14)
        u = np.random.default_rng(0).standard_normal(coarse_mesh.num_vertices)
        nodes, shape = p1_shape_values(coarse_mesh, qp)
        ref = np.einsum("qi,qi->q", shape, u[nodes])
        assert np.max(np.abs(P @ u - ref)) <= 1e-14 * np.max(np.abs(ref))
        # each point is its shape values times its cell's vertices, summed
        # in vertex order
        assert np.array_equal(qp.points, P @ coarse_mesh.vertices)


# test-local 3 x 3 oracles of the pair layout: the pair of each entry (i, j)
# of a cell's block, and the P1 mass block of a unit-area cell
_PAIR_OF = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2]])
_MASS_LOCAL = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def _coo_assemble(mesh, local):
    """The blocks as COO triplets, summed by ``tocsr``: an assembly that
    shares nothing with :meth:`Mesh.assemble`."""
    rows = np.repeat(mesh.cells, 3, axis=1)
    cols = np.tile(mesh.cells, 3)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.num_vertices,) * 2).tocsr()


class TestCellForms:
    def test_assemble_matches_mass_matrix(self, coarse_mesh):
        got = solver.assemble_mass(coarse_mesh)
        ref = _coo_assemble(coarse_mesh, coarse_mesh.areas[:, None, None]
                            * _MASS_LOCAL)
        ref.sort_indices()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.max(np.abs(got.data - ref.data) / ref.data) <= 1e-15
        # the weighted stiffness, on the same pattern
        weight = RegularizedWeight(epsilon=0.5, alpha=1.0)
        wint = solver.cell_weight_integrals(coarse_mesh, weight)
        stiff = solver.assemble_stiffness(coarse_mesh, weight)
        local = wint[:, None, None] * np.einsum(
            "cid,cjd->cij", coarse_mesh.grads, coarse_mesh.grads)
        ref = _coo_assemble(coarse_mesh, local)
        ref.sort_indices()
        assert np.array_equal(stiff.indptr, ref.indptr)
        assert np.array_equal(stiff.indices, ref.indices)
        # entries of both signs: the summation order moves an entry by
        # round-off of the sum of its terms' magnitudes
        scale = _coo_assemble(coarse_mesh, np.abs(local))
        scale.sort_indices()
        assert np.max(np.abs(stiff.data - ref.data) / scale.data) <= 1e-15
        # any pair form: each pair's sum at both of its mirrored entries
        form = np.random.default_rng(0).standard_normal(
            (coarse_mesh.num_cells, 6))
        again = coarse_mesh.assemble(form)
        ref = _coo_assemble(coarse_mesh, form[:, _PAIR_OF])
        ref.sort_indices()
        scale = _coo_assemble(coarse_mesh, np.abs(form[:, _PAIR_OF]))
        scale.sort_indices()
        assert np.array_equal(again.indices, ref.indices)
        assert np.max(np.abs(again.data - ref.data) / scale.data) <= 1e-15
        # the pattern is built once and shared read-only
        assert np.shares_memory(again.indices, got.indices)
        assert np.shares_memory(again.indptr, got.indptr)
        assert np.shares_memory(stiff.indices, got.indices)
        assert not got.indices.flags.writeable

    def test_assemble_past_int32_keys(self):
        # vertex ids on both sides of 2^31 / 50,000 = 42,950, where the CSR
        # map's sort key row * n_vertices + column leaves int32
        vertices = np.zeros((50_000, 2))
        ids = np.array([10, 45_000, 49_999, 20])
        vertices[ids] = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        mesh = Mesh(vertices, ids[[[0, 1, 2], [0, 2, 3]]],
                    ids[[[0, 1], [1, 2], [2, 3], [3, 0]]], 1.0)
        form = np.random.default_rng(1).standard_normal((2, 6))
        got = mesh.assemble(form)
        ref = _coo_assemble(mesh, form[:, _PAIR_OF])
        ref.sort_indices()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        # each entry sums at most two terms: exact in any order
        assert np.array_equal(got.data, ref.data)

    def test_assemble_is_bincount_without_slot_copy(self, geometry):
        # np.add.at adds in np.bincount's order, so the pair values are
        # bitwise those of np.bincount, gathered into CSR order; unlike
        # np.bincount it does not copy the read-only slot map
        mesh = build_disk_mesh(geometry, 0.12)
        weight = RegularizedWeight(epsilon=0.25, alpha=1.0)
        wint = solver.cell_weight_integrals(mesh, weight)
        mass = mesh.areas[:, None] * solver._MASS_PAIRS
        stiff = mesh.gradient_pairs() * wint[:, None]
        got = (mesh.assemble(mass), solver.assemble_stiffness(mesh, weight))
        I, _, slot = mesh._cache["p1_pairs"]
        _, _, pair = mesh._cache["p1_csr"]
        for matrix, form in zip(got, (mass, stiff)):
            ref = np.bincount(slot, weights=form.ravel(), minlength=len(I))
            assert np.array_equal(matrix.data, ref[pair])
        # the assembly holds its pair values and CSR data alone; the
        # stiffness adds its one (n_cells, 6) pair form, scaled in place
        assert traced_peak(lambda: mesh.assemble(mass)) < slot.nbytes
        assert traced_peak(lambda: solver.assemble_stiffness(
            mesh, weight)) < 2 * slot.nbytes

    def test_one_p1_pattern(self):
        # the solver's matrices and the inequality table share one pattern:
        # the symmetric vertex pairs and Mesh.assemble's CSR map onto them
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
        u = np.where(mesh.boundary_mask, 0.0, 1.0)[None]
        solver.assemble_mass(mesh)
        solver.assemble_stiffness(mesh, RegularizedWeight(0.1, 1.0))
        inequality_ratio_table(mesh, u, 1.0, eps=0.1)
        assert {key for key in mesh._cache if isinstance(key, str)} == {
            "p1_pairs", "p1_csr"}
        # and the source keeps no second layout: no 3 x 3 blocks
        hits = [f"{path.name}:{i}"
                for path in sorted(pathlib.Path(domain.__file__).parent
                                   .glob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"_PAIR_OF|_p1_pattern|, 3, 3\)", line)]
        assert not hits, hits

    @pytest.mark.parametrize("weight, levels", itertools.product(
        [None, AbsPowerWeight(1.0)], [2, 3]))
    def test_local_blocks_match_interpolated_form(self, coarse_mesh, weight,
                                                  levels):
        # against P^T diag(w) P and a scatter of w on the same rule
        sub = 1.2
        qp = quadrature(coarse_mesh, sub, levels)
        assert len(qp.weights) > 3 * coarse_mesh.num_cells   # cells refined
        wq = qp.weights * (1.0 if weight is None else weight(qp.points))
        nodes, shape = p1_shape_values(coarse_mesh, qp)
        P = sp.csr_matrix((shape.ravel(), nodes.ravel(),
                           np.arange(0, shape.size + 1, 3)),
                          shape=(len(wq), coarse_mesh.num_vertices))
        ref = (P.T @ sp.diags(wq) @ P).toarray()
        A, sums = weighted_mass(coarse_mesh, weight, sub, levels)
        got = A.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        ref_sums = np.zeros(coarse_mesh.num_cells)
        np.add.at(ref_sums, qp.cell, wq)
        assert np.array_equal(sums, ref_sums)

    def test_pair_forms_regions(self, coarse_mesh):
        # a rule with a region adds only its cells' points, in one pass with
        # rules on other regions and levels: its per-cell sums bitwise the
        # region's cells of its pass alone, its mass the masked rule's
        sub, mesh = 1.2, coarse_mesh
        rules = [(None, 2), (AbsPowerWeight(1.0), 3), (AbsPowerWeight(0.5), 2)]
        regions = [None, Region.ball(4.0), Region.annulus(3.0, 6.0)]
        values = np.zeros((3, mesh.num_pairs))
        sums = mesh.pair_forms(rules, sub, values, regions)
        for r, ((weight, levels), region) in enumerate(zip(rules, regions)):
            alone = np.zeros((1, mesh.num_pairs))
            whole = mesh.pair_forms([rules[r]], sub, alone)[0]
            keep = (np.ones(mesh.num_cells, dtype=bool) if region is None
                    else mesh.cell_mask(region))
            assert np.array_equal(sums[r], np.where(keep, whole, 0.0))
            if region is None:
                assert np.array_equal(values[r], alone[0])
            qp = quadrature(mesh, sub, levels)
            wq = qp.weights * (1.0 if weight is None else weight(qp.points))
            P = qp.interpolation
            ref = P.T @ sp.diags(wq * keep[qp.cell]) @ P
            u = np.random.default_rng(r).standard_normal(mesh.num_vertices)
            got = mesh.quadratic_forms(values[r:r + 1], u[None])[0, 0]
            scale = np.abs(u) @ (abs(ref) @ np.abs(u))
            assert abs(got - u @ (ref @ u)) <= 1e-14 * scale


    def test_pair_forms_rows_or_none(self, coarse_mesh):
        # a rule given None adds no pair sum; the per-cell sums of every
        # rule and the given rows are bitwise a pass with a row per rule
        sub, mesh = 1.2, coarse_mesh
        rules = [(None, 2), (AbsPowerWeight(1.0), 3), (AbsPowerWeight(0.5), 2)]
        regions = [Region.ball(4.0), None, Region.annulus(3.0, 6.0)]
        every = np.zeros((3, mesh.num_pairs))
        whole = mesh.pair_forms(rules, sub, every, regions)
        for given in ([0, 2], [1], []):
            rows = [np.zeros(mesh.num_pairs) if r in given else None
                    for r in range(3)]
            sums = mesh.pair_forms(rules, sub, rows, regions)
            assert np.array_equal(sums, whole)
            for r in given:
                assert np.array_equal(rows[r], every[r])
        assert np.array_equal(mesh.pair_forms(rules, sub, None, regions),
                              whole)

class TestQuadratureWeights:
    def test_cached_equal_fresh(self, coarse_mesh):
        # the rule is refined within the weight's own radius: 0 for |x|^p,
        # 2 eps = 1.2 for the regularized weight
        region = Region.ball(4.0)
        for weight in (AbsPowerWeight(1.0),
                       RegularizedWeight(epsilon=0.6, alpha=1.0)):
            c = coarse_mesh.quadrature_weights(region, weight)
            qp = quadrature(coarse_mesh, weight.quadrature_radius)
            fresh = (qp.weights * weight(qp.points)
                     * coarse_mesh.cell_mask(region)[qp.cell])
            assert np.array_equal(c, qp.interpolation.T @ fresh)
            # the nodal weights scatter each point's weight over its cell
            nodes, shape = p1_shape_values(coarse_mesh, qp)
            ref = np.zeros(coarse_mesh.num_vertices)
            np.add.at(ref, nodes, fresh[:, None] * shape)
            assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("region", [None, Region.annulus(3.0, 6.0),
                                        Region.complement(2.0)])
    def test_unweighted_closed_form(self, geometry, region):
        # sum |c| / 3 over the region's cells round each vertex: bitwise
        # P^T w of the midpoint rule, and no rule kept in the cache
        mesh = build_disk_mesh(geometry, 0.3, local_h=0.02)
        c = mesh.quadrature_weights(region)
        assert set(mesh._cache) <= {("weights", region, None),
                                    "centroid_radii"}
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 1.0
        qp = quadrature(mesh)
        w = qp.weights
        if region is not None:
            w = w * mesh.cell_mask(region)[qp.cell]
        assert np.array_equal(c, qp.interpolation.T @ w)
        mask = (np.ones(mesh.num_cells, dtype=bool) if region is None
                else mesh.cell_mask(region))
        ref = np.zeros(mesh.num_vertices)
        for cell, area in zip(mesh.cells[mask], mesh.areas[mask]):
            ref[cell] += area / 3.0
        assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(ref)
        assert mesh.quadrature_weights(region) is c

    @pytest.mark.parametrize("chunk", [domain._CHUNK_POINTS, 96])
    @pytest.mark.parametrize("weight", [
        None, AbsPowerWeight(1.0), RegularizedWeight(epsilon=0.6, alpha=1.0),
        RegularizedWeight(epsilon=0.05, alpha=1.5)])
    @pytest.mark.parametrize("region", [None, Region.ball(4.0),
                                        Region.annulus(3.0, 6.0),
                                        Region.complement(5.0)])
    def test_bitwise_rule_transpose(self, geometry, monkeypatch, chunk,
                                    weight, region):
        # one chunked np.add.at in point order over the region's cells is
        # bitwise P^T w of the oracle rule, on the rule refined within the
        # weight's radius (0, 1.2 or 0.1 on a core graded to 0.02), whatever
        # the chunk size (96 points: two refined cells a chunk)
        monkeypatch.setattr(domain, "_CHUNK_POINTS", chunk)
        mesh = build_disk_mesh(geometry, 0.3, local_h=0.02)
        c = mesh.quadrature_weights(region, weight)
        qp = quadrature(mesh, 0.0 if weight is None
                        else weight.quadrature_radius)
        if weight is not None and weight.quadrature_radius > 0.0:
            assert len(qp.weights) > 3 * mesh.num_cells   # cells refined
        w = qp.weights if weight is None else qp.weights * weight(qp.points)
        if region is not None:
            w = w * mesh.cell_mask(region)[qp.cell]
        assert np.array_equal(c, qp.interpolation.T @ w)

    @pytest.mark.parametrize("region", [None, Region.annulus(3.0, 6.0)])
    def test_unweighted_traced_peak(self, geometry, region):
        # h = 1/16 (75,192 vertices, 149,477 cells): 3.7 MB unweighted, 5.7
        # MB in the annulus (its cached centroid radii included), against
        # 16.0 and 17.1 MB with a bincount over an (n_cells, 6) index (and
        # 59 MB for a weight, which built the rule's points and P)
        mesh = build_disk_mesh(geometry, 1.0 / 16.0)
        assert traced_peak(lambda: mesh.quadrature_weights(region)) <= (
            6.6 * 2**20)

    def test_regularized_integral_on_refined_rule(self, coarse_mesh):
        # integrate_space with psi_eps^alpha integrates on quadrature(2 eps),
        # as the weights times P u there
        eps, region = 0.6, Region.ball(4.0)
        weight = RegularizedWeight(epsilon=eps, alpha=1.0)
        u = np.random.default_rng(4).standard_normal(coarse_mesh.num_vertices)
        got = integrate_space(coarse_mesh, u, region, weight)
        vals, scale = {}, 0.0
        for radius in (0.0, 2.0 * eps):
            qp = quadrature(coarse_mesh, radius)
            w = (qp.weights * weight(qp.points)
                 * coarse_mesh.cell_mask(region)[qp.cell])
            uq = qp.interpolation @ u
            vals[radius] = float(w @ uq)
            scale = float(np.abs(w) @ np.abs(uq))
        tol = 1e-14 * scale
        assert abs(got - vals[2.0 * eps]) <= tol
        # the unrefined rule is off by far more than round-off
        assert abs(got - vals[0.0]) > 1e3 * tol

    def test_equal_values_share_one_entry(self, geometry):
        mesh = build_disk_mesh(geometry, 0.6)
        times = np.linspace(0.0, 1.0, 5)
        fields = np.ones((5, mesh.num_vertices))

        def entries():
            return sum(1 for key in mesh._cache if key[0] == "weights")

        first = mesh.quadrature_weights(Region.ball(4.0), AbsPowerWeight(1.0))
        for _ in range(3):
            integrate_spacetime(mesh, times, fields=fields, region=Region.ball(4.0),
                                weight=AbsPowerWeight(1.0))
            integrate_space(mesh, fields[0], Region.ball(4.0), AbsPowerWeight(1))
        assert entries() == 1
        assert mesh.quadrature_weights(Region.ball(4.0),
                                       AbsPowerWeight(1.0)) is first
        integrate_spacetime(mesh, times, fields=fields, region=Region.ball(5.0),
                            weight=AbsPowerWeight(1.0))
        assert entries() == 2
        integrate_spacetime(mesh, times, fields=fields, region=Region.ball(4.0),
                            weight=AbsPowerWeight(2.0))
        assert entries() == 3

    def test_closure_weight_rejected(self, coarse_mesh):
        before = len(coarse_mesh._cache)
        with pytest.raises(TypeError, match="frozen dataclass"):
            integrate_space(coarse_mesh, np.ones(coarse_mesh.num_vertices),
                            weight=lambda p: np.linalg.norm(p, axis=1))
        assert len(coarse_mesh._cache) == before

    def test_cached_arrays_read_only(self, coarse_mesh):
        c = coarse_mesh.quadrature_weights(None, AbsPowerWeight(1.0))
        E, lengths = coarse_mesh.boundary_edge_average()
        op = solver.step_operator(coarse_mesh, 1.0, 0.1, 1.0)
        for arr in (c, lengths, E.data,
                    op.stiffness.data, op.explicit.data, op.explicit.indices):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestGradients:
    def test_p1_gradient_of_linear_field(self, coarse_mesh):
        # the one P1 cell gradient (the Carleman fields, the seminorms),
        # (g_0 f_0 + g_1 f_1) + g_2 f_2 added in place: exact on a linear
        # field, within round-off of the einsum oracle, and bitwise the rows
        # of the sparse G
        mesh = coarse_mesh
        u = mesh.vertices @ np.array([3.0, -2.0])
        v = np.random.default_rng(2).standard_normal(mesh.num_vertices)
        f = np.column_stack([u, v])
        cells = np.random.default_rng(3).permutation(mesh.num_cells)[:200]
        got = _cell_gradient(mesh, f, cells)
        assert np.allclose(got[0][:, 0], 3.0) and np.allclose(got[1][:, 0], -2.0)
        G = gradient_operator(mesh)
        for d in (0, 1):
            assert np.array_equal(got[d], G[cells + d * mesh.num_cells] @ f)
        for k, w in enumerate((u, v)):
            ref = p1_cell_gradient(mesh, w)[cells]
            grad = np.column_stack([got[0][:, k], got[1][:, k]])
            assert np.max(np.abs(grad - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_boundary_edge_average_of_linear_field(self, coarse_mesh):
        mesh = coarse_mesh
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


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, geometry):
        # the text format Mesh.save writes (the CLI's mesh file, hashed by
        # criterion 9), read back by a parser of that format
        mesh = build_disk_mesh(geometry, 0.6)
        path = tmp_path / "mesh.txt"
        mesh.save(str(path))
        lines = path.read_text().splitlines()
        pos = 0

        def section(tag):
            nonlocal pos
            head = lines[pos].split()
            assert head[:2] == ["#", tag]
            rows = [ln.split() for ln in lines[pos + 1:pos + 1 + int(head[2])]]
            pos += 1 + len(rows)
            return rows

        verts = np.array(section("vertices"), dtype=float)
        cells = np.array(section("cells"), dtype=np.int64)
        edges = section("boundary_edges")
        assert lines[pos:] == [f"# h {mesh.h!r}"]
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.cells, cells)
        assert np.array_equal(mesh.boundary_edges,
                              np.array([e[:2] for e in edges], dtype=np.int64))
        # every boundary edge lies on the outer circle
        assert all(e[2] == "outer" for e in edges)


class TestTimeIntegration:
    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1e5, 45),
        np.concatenate([[0.0], np.sort(
            np.random.default_rng(2).uniform(0.0, 3.0, 20)), [3.0]])])
    def test_time_weights_full_grid(self, times):
        tau = time_weights(times)
        T = times[-1]
        assert abs(tau.sum() - T) <= 1e-15 * T
        y = np.random.default_rng(3).uniform(0.5, 2.0, len(times))
        ref = np.trapezoid(y, times)
        assert abs(tau @ y - ref) <= 1e-15 * ref

    def test_time_weights_window(self):
        times = np.linspace(0.0, 1.0, 17)
        tau = time_weights(times, (0.25, 0.75))
        assert np.array_equal(np.flatnonzero(tau), np.arange(4, 13))
        assert abs(tau.sum() - 0.5) <= 1e-15
        # endpoints snap to the nearest nodes: 0.3 -> 0.3125, 0.7 -> 0.6875
        tau = time_weights(times, (0.3, 0.7))
        assert np.array_equal(np.flatnonzero(tau), np.arange(5, 12))
        assert abs(tau.sum() - (times[11] - times[5])) <= 1e-15
        for window in [(0.75, 0.25), (-0.1, 0.5), (0.5, 1.1)]:
            with pytest.raises(ValueError):
                time_weights(times, window)

    @pytest.mark.parametrize("T, M", [(1e5, 44), (1.0, 10)])
    def test_carleman_and_spacetime_share_the_window(self, coarse_mesh, T, M):
        # grids where a node sits within round-off of T/4 (or ties between
        # two nodes): the Carleman window and integrate_spacetime's window
        # must still pick the same nodes, the ones time_weights picks
        sol = solver.solve(solver.ParabolicProblem(
            weight=1.0, T=T, data=np.zeros(coarse_mesh.num_vertices)),
            coarse_mesh, M)
        times = sol.times
        window = (T / 4.0, 3.0 * T / 4.0)
        ctx = BalanceContext(sol, CarlemanParams(T=T))
        tau = time_weights(times, window)
        rows = ctx.rows[ctx.tau_window != 0.0]
        assert np.array_equal(rows, np.flatnonzero(tau))
        assert np.array_equal(ctx.tau_window, tau[ctx.rows])
        rng = np.random.default_rng(5)
        fields = rng.standard_normal((M + 1, coarse_mesh.num_vertices)) ** 2
        weight = AbsPowerWeight(1.0)
        ref = float(np.trapezoid(
            [integrate_space(coarse_mesh, fields[n], weight=weight)
             for n in rows], times[rows]))
        got = integrate_spacetime(coarse_mesh, times, fields=fields,
                                  weight=weight, window=window)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_one_time_rule_in_src(self):
        # every time integral in the package reads domain.time_weights: no
        # trapezoid call or helper anywhere else
        hits = []
        for path in sorted(pathlib.Path(domain.__file__).parent.glob("*.py")):
            text = path.read_text()
            skip = set()
            if path.name == "domain.py":
                fn = next(n for n in ast.parse(text).body
                          if isinstance(n, ast.FunctionDef)
                          and n.name == "time_weights")
                skip = set(range(fn.lineno, fn.end_lineno + 1))
            hits += [f"{path.name}:{i}: {line.strip()}"
                     for i, line in enumerate(text.splitlines(), 1)
                     if i not in skip and re.search(r"trapezoid\w*\(", line)]
        assert hits == []

    def test_spacetime_constant_field(self, coarse_mesh):
        times = np.linspace(0.0, 1.0, 9)
        fields = np.ones((9, coarse_mesh.num_vertices))
        full = integrate_spacetime(coarse_mesh, times, fields=fields)
        area = float(np.sum(coarse_mesh.areas))
        assert abs(full - area) < 1e-10 * area
        half = integrate_spacetime(coarse_mesh, times, fields=fields,
                                   window=(0.25, 0.75))
        assert abs(half - 0.5 * area) < 1e-10 * area

    @pytest.mark.parametrize("region, radius", itertools.product(
        [None, Region.ball(4.0), Region.annulus(3.0, 6.0),
         Region.complement(5.0)],
        [0.0, 1.2]))
    def test_spacetime_matches_slice_loop(self, coarse_mesh, region, radius):
        # one nodal-weight product against per-slice point integrals on the
        # rule refined within the weight's radius
        times = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(1)
        fields = rng.standard_normal((9, coarse_mesh.num_vertices)) ** 2
        weights = ([None, AbsPowerWeight(1.0)] if radius == 0.0
                   else [RegularizedWeight(epsilon=radius / 2.0, alpha=1.0)])
        qp = quadrature(coarse_mesh, radius)
        mask = (np.ones(coarse_mesh.num_cells, dtype=bool) if region is None
                else coarse_mesh.cell_mask(region))
        for weight, window in itertools.product(weights,
                                                [None, (0.25, 0.75)]):
            w = qp.weights * mask[qp.cell]
            if weight is not None:
                w = w * weight(qp.points)
            rows = np.flatnonzero(time_weights(times, window))
            ref = float(np.trapezoid(
                [w @ (qp.interpolation @ fields[n]) for n in rows],
                times[rows]))
            got = integrate_spacetime(coarse_mesh, times, fields=fields,
                                      region=region, weight=weight,
                                      window=window)
            assert abs(got - ref) <= 1e-13 * abs(ref)
