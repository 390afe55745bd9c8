"""Weighted norm oracles and inequality-ratio properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quadrature, traced_peak, weighted_mass
from degenlab import domain, spaces
from degenlab.domain import PAIRS, GeometrySpec, Mesh, build_disk_mesh
from degenlab.solver import cell_weight_integrals
from degenlab.spaces import (hardy_ratio, inequality_ratio_table,
                             poincare_ratios, weighted_h1_seminorm,
                             weighted_l2_norm)
from degenlab.weights import AbsPowerWeight, RegularizedWeight


@pytest.fixture(scope="module")
def unit_disk_mesh():
    return build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 1.0 / 24.0)


def _bump_field(mesh, scale=1.0):
    r2 = np.einsum("nd,nd->n", mesh.vertices, mesh.vertices)
    L2 = np.max(r2)
    return scale * (1.0 - r2 / L2) ** 2


class TestNorms:
    def test_weighted_l2_oracle(self, unit_disk_mesh):
        # ||1||^2_{L2(B_1; |x|)} = int |x| dx = 2 pi / 3
        ones = np.ones(unit_disk_mesh.num_vertices)
        val = weighted_l2_norm(unit_disk_mesh, ones, AbsPowerWeight(1.0),
                               0.1) ** 2
        assert abs(val - 2.0 * np.pi / 3.0) < 2e-3

    def test_unweighted_h1_oracle(self, unit_disk_mesh):
        # |x.e|_{H1} over B_1: gradient is a unit vector, norm^2 = pi
        u = unit_disk_mesh.vertices[:, 0]
        val = weighted_h1_seminorm(unit_disk_mesh, u) ** 2
        assert abs(val - np.pi) < 2e-3

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, unit_disk_mesh, c):
        u = _bump_field(unit_disk_mesh)
        w = AbsPowerWeight(1.0)
        base = weighted_l2_norm(unit_disk_mesh, u, w)
        scaled = weighted_l2_norm(unit_disk_mesh, c * u, w)
        assert np.isclose(scaled, abs(c) * base, rtol=1e-12, atol=1e-12)

    def test_triangle_inequality(self, unit_disk_mesh):
        rng = np.random.default_rng(4)
        w = AbsPowerWeight(1.0)
        for _ in range(10):
            u = rng.normal(size=unit_disk_mesh.num_vertices)
            v = rng.normal(size=unit_disk_mesh.num_vertices)
            nu = weighted_l2_norm(unit_disk_mesh, u, w)
            nv = weighted_l2_norm(unit_disk_mesh, v, w)
            nuv = weighted_l2_norm(unit_disk_mesh, u + v, w)
            assert nuv <= nu + nv + 1e-12

    def test_regularized_dominates_exact(self, unit_disk_mesh):
        # psi_eps >= |x| pointwise, so the weighted norm can only grow
        u = _bump_field(unit_disk_mesh)
        reg = RegularizedWeight(epsilon=0.1, alpha=1.0)
        exact = AbsPowerWeight(1.0)
        assert (weighted_l2_norm(unit_disk_mesh, u, reg, 0.1)
                >= weighted_l2_norm(unit_disk_mesh, u, exact, 0.1) - 1e-14)


class TestHardyPoincare:
    def test_boundary_trace_rejected(self, unit_disk_mesh):
        u = np.ones(unit_disk_mesh.num_vertices)
        with pytest.raises(ValueError):
            hardy_ratio(unit_disk_mesh, u, 1.0)

    def test_zero_field(self, unit_disk_mesh):
        z = np.zeros(unit_disk_mesh.num_vertices)
        assert hardy_ratio(unit_disk_mesh, z, 1.0) == 0.0
        assert all(v == 0.0 for v in
                   poincare_ratios(unit_disk_mesh, z, 1.0, eps=0.1).values())

    def test_ratios_below_budget(self, unit_disk_mesh):
        u = _bump_field(unit_disk_mesh)
        assert hardy_ratio(unit_disk_mesh, u, 1.0) <= 1.02
        ratios = poincare_ratios(unit_disk_mesh, u, 1.0, eps=0.1)
        assert all(v <= 1.02 for v in ratios.values())

    def test_alpha_validation(self, unit_disk_mesh):
        u = _bump_field(unit_disk_mesh)
        with pytest.raises(ValueError):
            hardy_ratio(unit_disk_mesh, u, 2.5)
        for alpha in (0.0, 2.0):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\)"):
                poincare_ratios(unit_disk_mesh, u, alpha, eps=0.1)
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\)"):
                inequality_ratio_table(unit_disk_mesh, u[None, :], alpha, eps=0.1)

    def test_batch_matches_single(self, unit_disk_mesh):
        rng = np.random.default_rng(8)
        boundary = unit_disk_mesh.boundary_mask
        fields = []
        for _ in range(5):
            u = rng.normal(size=unit_disk_mesh.num_vertices)
            u[boundary] = 0.0
            fields.append(u)
        # a field peaked at the origin, where the weights degenerate
        r2 = np.einsum("nd,nd->n", unit_disk_mesh.vertices,
                       unit_disk_mesh.vertices)
        fields.append(np.where(boundary, 0.0, np.exp(-r2 / 0.005)))
        fields.append(np.zeros(unit_disk_mesh.num_vertices))
        fields = np.array(fields)
        tab = inequality_ratio_table(unit_disk_mesh, fields, 1.0, eps=0.1)
        for i in range(7):
            h = hardy_ratio(unit_disk_mesh, fields[i], 1.0)
            p = poincare_ratios(unit_disk_mesh, fields[i], 1.0, eps=0.1)
            assert np.isclose(tab["hardy"][i], h, rtol=1e-12)
            for k, v in p.items():
                assert np.isclose(tab[k][i], v, rtol=1e-12)
        assert all(tab[k][6] == 0.0 for k in tab)
        # one row with a boundary trace rejects the whole stack
        fields[2, np.flatnonzero(boundary)[0]] = 1e-3
        with pytest.raises(ValueError, match="boundary trace"):
            inequality_ratio_table(unit_disk_mesh, fields, 1.0, eps=0.1)

    def test_batch_shape_validation(self, unit_disk_mesh):
        with pytest.raises(ValueError):
            inequality_ratio_table(unit_disk_mesh, np.ones(3), 1.0, eps=0.1)


    def test_batch_builds_no_quadrature(self):
        # the forms are assembled cell by cell: no quadrature (and with it
        # no interpolation operator) is built or cached
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
        inequality_ratio_table(mesh, _bump_field(mesh)[None], 1.0, eps=0.1)
        assert not [key for key in mesh._cache if isinstance(key, tuple)
                    and key[0] == "quadrature"]
        # nor a matrix: Mesh.assemble's CSR map is never built
        assert "p1_csr" not in mesh._cache

    @pytest.mark.parametrize("where", ["interior", "boundary"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, unit_disk_mesh, where, bad):
        fields = np.array([_bump_field(unit_disk_mesh)] * 3)
        vertex = np.flatnonzero(unit_disk_mesh.boundary_mask
                                == (where == "boundary"))[5]
        fields[1, vertex] = bad
        with pytest.raises(ValueError, match=r"row 1\) has a NaN or inf"):
            inequality_ratio_table(unit_disk_mesh, fields, 1.0, eps=0.1)
        with pytest.raises(ValueError, match="NaN or inf"):
            hardy_ratio(unit_disk_mesh, fields[1], 1.0)
        with pytest.raises(ValueError, match="NaN or inf"):
            poincare_ratios(unit_disk_mesh, fields[1], 1.0, eps=0.1)

    def test_traced_peak_flat_in_fields(self):
        # the forms are evaluated in blocks of pairs: no temporary is
        # (n_fields x n_vertices), so the peak does not grow with the stack
        mesh = build_disk_mesh(GeometrySpec(), 0.12)
        rng = np.random.default_rng(0)

        def peak(n):
            fields = rng.standard_normal((n, mesh.num_vertices))
            fields[:, mesh.boundary_mask] = 0.0
            return traced_peak(lambda: inequality_ratio_table(
                mesh, fields, 1.0, eps=0.1)), fields.nbytes
        peak(1)                   # the mesh's pattern, cached
        small, _ = peak(5)
        large, nbytes = peak(60)
        assert large - small <= 0.25 * nbytes

    def test_batch_traced_peak(self):
        # tracemalloc peak of one table on a fresh mesh (default disk,
        # h = 0.12, 20,803 vertices, 20 fields, alpha = 1, eps = 0.1).
        # Assembled as P^T diag(w) P on both cached quadratures it peaked at
        # 68.7 MB; from the cell-local forms it peaks at 17.8 MB. The bound
        # is 0.4 of the former.
        assert _fresh_table_peak() <= 0.4 * 68.7 * 2**20

    def test_one_pass_traced_peak(self):
        # the same table with the four weights on one rule pass, their mass
        # pair sums added in place and the stiffnesses made a chunk of cells
        # at a time: 9.97 MB. A pass per weight into an (n_cells, 6) form
        # buffer peaked at 10.8 MB, the bound.
        assert _fresh_table_peak() <= 10.8 * 2**20

    def test_streamed_forms_traced_peak(self):
        # the same table, pattern build included: with every weight's mass
        # form held at once and the weights called on whole rules it peaked
        # at 24.3 MB; one weight and one chunk of cells at a time, into one
        # reused form buffer, it peaks at 11.4 MB. The bound is 0.7 of the
        # former.
        assert _fresh_table_peak() <= 0.7 * 24.3 * 2**20


def _fresh_table_peak():
    """Traced peak of the table on a fresh default disk at h = 0.12 (its
    pattern built inside), 20 fields, alpha = 1, eps = 0.1."""
    mesh = build_disk_mesh(GeometrySpec(), 0.12)
    fields = np.random.default_rng(0).standard_normal((20, mesh.num_vertices))
    fields[:, mesh.boundary_mask] = 0.0
    return traced_peak(lambda: inequality_ratio_table(mesh, fields, 1.0,
                                                      eps=0.1))


@pytest.fixture(scope="module", params=["uniform", "graded"])
def form_mesh(request, unit_disk_mesh):
    if request.param == "uniform":
        return unit_disk_mesh
    return build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1, local_h=0.005)


class TestQuadraticForms:
    @pytest.mark.parametrize("n_fields", [1, 7])
    def test_forms_match_assembled_matrices(self, form_mesh, n_fields):
        mesh = form_mesh
        rng = np.random.default_rng(n_fields)
        U = rng.standard_normal((n_fields, mesh.num_vertices))
        if n_fields > 1:
            U[3] = 0.0
        alpha, eps = 1.0, 0.1
        sub = 4.0 * mesh.h
        exact = AbsPowerWeight(alpha)
        reg = RegularizedWeight(epsilon=eps, alpha=alpha)
        refs = [weighted_mass(mesh, w, sub, levels)[0]
                for w, levels in ((AbsPowerWeight(alpha - 2.0), 3),
                                  (None, 2), (exact, 2), (reg, 2))]
        refs += [mesh.assemble(mesh.gradient_pairs()
                               * weighted_mass(mesh, w, sub)[1][:, None])
                 for w in (exact, reg)]
        got = mesh.quadratic_forms(spaces._table_pair_sums(mesh, alpha, eps),
                                   U)
        assert got.shape == (6, n_fields)
        for A, row in zip(refs, got):
            want = np.einsum("fv,fv->f", U, (A @ U.T).T)
            assert np.allclose(row, want, rtol=1e-13, atol=0.0)
        # the symmetric pattern: the diagonal and one of each off-diagonal
        # pair of the full pattern
        I, J, slot = mesh._cache["p1_pairs"]
        assert np.all(I <= J)
        assert len(I) == (refs[0].nnz + mesh.num_vertices) // 2
        assert slot.shape == (6 * mesh.num_cells,)

    def test_chunk_bounds_keep_bits(self, form_mesh, monkeypatch):
        # chunks of a few cells give the table and the cell weight integrals
        # the bits of the default chunks of up to 16,384 rule points
        mesh = form_mesh
        rng = np.random.default_rng(5)
        U = rng.standard_normal((4, mesh.num_vertices))
        U[:, mesh.boundary_mask] = 0.0
        weights = (None, 1.0, RegularizedWeight(epsilon=0.05, alpha=1.3))
        chunks = []
        monkeypatch.setattr(domain, "_block_points", lambda m, ids, bary, f=(
            domain._block_points): chunks.append(len(ids)) or f(m, ids, bary))

        def run():
            fresh = Mesh(mesh.vertices, mesh.cells, mesh.boundary_edges,
                         mesh.h)
            return (inequality_ratio_table(fresh, U, 1.0, eps=0.1),
                    [cell_weight_integrals(fresh, w) for w in weights])
        table, sums = run()
        n_default = len(chunks)
        monkeypatch.setattr(domain, "_CHUNK_POINTS", 16)
        small_table, small_sums = run()
        # 5 midpoint cells a chunk and 2 refined cells, a block's last
        # chunk one more rather than one cell alone
        assert len(chunks) - n_default > 20 * n_default
        assert 2 <= min(chunks[n_default:]) <= max(chunks[n_default:]) <= 6
        for k in table:
            assert np.array_equal(small_table[k], table[k])
        for a, b in zip(small_sums, sums):
            assert np.array_equal(a, b)

    def test_one_rule_pass_per_table(self, form_mesh, monkeypatch):
        # one table builds each chunk's points once, whatever the number of
        # weights: the midpoint chunks once for all four, the refined chunks
        # once per level (3 for the Hardy weight, 2 for the other three)
        mesh = form_mesh
        U = np.random.default_rng(2).standard_normal((3, mesh.num_vertices))
        U[:, mesh.boundary_mask] = 0.0
        qp = quadrature(mesh, 4.0 * mesh.h)
        midpoint = np.bincount(qp.cell, minlength=mesh.num_cells) == 3
        calls = []
        monkeypatch.setattr(domain, "_block_points", lambda m, ids, bary, f=(
            domain._block_points): calls.append((len(bary), ids)) or f(
                m, ids, bary))
        monkeypatch.setattr(domain, "_CHUNK_POINTS", 256)
        inequality_ratio_table(mesh, U, 1.0, eps=0.1)
        for nq, cells in ((3, np.flatnonzero(midpoint)),
                          (48, np.flatnonzero(~midpoint)),
                          (192, np.flatnonzero(~midpoint))):
            chunks = [ids for n, ids in calls if n == nq]
            assert len(chunks) > 1
            assert np.array_equal(np.concatenate(chunks), cells)
        assert {n for n, _ in calls} == {3, 48, 192}

    def test_pair_pattern_is_unique_keys(self, form_mesh):
        mesh = form_mesh
        nv = mesh.num_vertices
        a, b = mesh.cells[:, PAIRS[:, 0]], mesh.cells[:, PAIRS[:, 1]]
        keys, inverse = np.unique((np.minimum(a, b) * nv
                                   + np.maximum(a, b)).ravel(),
                                  return_inverse=True)
        I, J, slot = mesh._pair_pattern()
        # int32 vertex ids; the slot map stays the index np.add.at reads fastest
        assert I.dtype == J.dtype == np.int32 and slot.dtype == np.intp
        assert np.array_equal(I, keys // nv)
        assert np.array_equal(J, keys % nv)
        assert np.array_equal(slot, inverse.ravel())
