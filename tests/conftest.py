"""Shared fixtures: meshes and configs reused across the test modules."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from degenlab.domain import (GeometrySpec, _at_midpoints, _block_points,
                             _cell_gradient, _radii, _rule_blocks,
                             build_disk_mesh)
from degenlab.experiments import ExperimentConfig
from degenlab.weights import AbsPowerWeight


class Quadrature(NamedTuple):
    points: np.ndarray    # (nq, 2)
    weights: np.ndarray   # (nq,)
    cell: np.ndarray      # (nq,) owning cell
    interpolation: sp.csr_matrix


def quadrature(mesh, subdivide_radius=0.0, levels=2):
    """The rule of :func:`~degenlab.domain._rule_blocks` refined ``levels``
    times within ``subdivide_radius`` as flat arrays, in the point order
    every consumer reads (block by block in the blocks' order, the refined
    cells first, cell by cell), with the sparse (nq, n_vertices) P1
    interpolation P built from the blocks' barycentric points: row q holds
    point q's nonzero shape values in local-vertex order.  ``P @ u``
    samples a nodal field at the points and ``P.T @ w`` turns point weights
    into nodal weights."""
    pts, w, cell, data, cols, row_nnz = [], [], [], [], [], []
    for ids, bary, a, _ in _rule_blocks(mesh, subdivide_radius, [levels]):
        nq = len(bary)
        pts.append(_block_points(mesh, ids, bary).reshape(-1, 2))
        w.append(np.repeat(a, nq))
        cell.append(np.repeat(ids, nq))
        nz = bary != 0.0
        data.append(np.tile(bary[nz], len(ids)))
        cols.append(mesh.cells[ids][:, np.nonzero(nz)[1]].ravel())
        row_nnz.append(np.tile(nz.sum(axis=1), len(ids)))
    cell = np.concatenate(cell)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(row_nnz))])
    P = sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                      shape=(len(cell), mesh.num_vertices))
    return Quadrature(np.concatenate(pts), np.concatenate(w), cell, P)


def gradient_operator(mesh):
    """Sparse (2 n_cells, n_vertices) P1 gradient G: row c of ``G @ u`` is
    the x-derivative and row n_cells + c the y-derivative on cell c, each
    summed over the cell's vertices in local order."""
    nc = mesh.num_cells
    return sp.csr_matrix(
        (mesh.grads.transpose(2, 0, 1).ravel(), np.tile(mesh.cells.ravel(), 2),
         np.arange(0, 6 * nc + 1, 3)), shape=(2 * nc, mesh.num_vertices))


def p1_shape_values(mesh, qp):
    """``(nodes, shape)`` at the points of the quadrature ``qp``.

    nodes[q] are the vertices of point q's cell and shape[q, i] the P1 shape
    value lambda_i(x_q) = delta_i0 + grad(lambda_i) . (x_q - v_0), from the
    cell gradients and vertices alone: an oracle that reads neither the
    quadrature's interpolation P nor the rule it was built from.
    """
    nodes = mesh.cells[qp.cell]
    d = qp.points - mesh.vertices[nodes[:, 0]]
    shape = np.einsum("qid,qd->qi", mesh.grads[qp.cell], d)
    shape[:, 0] += 1.0
    return nodes, shape


def weighted_mass(mesh, weight, subdivide_radius=0.0, levels=2):
    """``(A, sums)`` of one weight: the weighted mass matrix P^T diag(a w) P
    as CSR, its pair sums (:meth:`Mesh.pair_forms`, one rule) mirrored onto
    the full pattern by a COO sum rather than :meth:`Mesh.assemble`, and
    its per-cell sums."""
    values = np.zeros((1, mesh.num_pairs))
    sums = np.zeros((1, mesh.num_cells))
    mesh.pair_forms([(weight, levels)], subdivide_radius, cell_sums=sums,
                    pair_sums=values)
    I, J, _ = mesh.cached("p1_pairs", mesh._pair_pattern)
    off = I != J
    A = sp.coo_matrix((np.concatenate([values[0], values[0, off]]),
                       (np.concatenate([I, J[off]]),
                        np.concatenate([J, I[off]]))),
                      shape=(mesh.num_vertices,) * 2).tocsr()
    return A, sums[0]


def p1_cell_gradient(mesh, u):
    """(n_cells, 2) gradient of the nodal field u on each cell, summed from
    the cell shape gradients: an oracle that reads no mesh operator."""
    return np.einsum("ci,cid->cd", np.asarray(u, dtype=float)[mesh.cells],
                     mesh.grads)


def point_field(ctx, kind, q, cutoff=None):
    """A Carleman field on the midpoints q = 3c + k and every active row of
    the context ``ctx``, the point weights |c| / 3 folded in: the point
    store's arithmetic, as an oracle for the live-block evaluation.

    "u2" and "grad2" are v^2 and |grad v|^2 for v = cutoff * u (v = u
    without a cutoff); "gsrc2" is g^2 for the commutator source
    g = 2 w grad(cutoff).grad(u) + u div(w grad cutoff), w = |x|^alpha.
    """
    mesh = ctx.mesh
    f = np.ascontiguousarray(ctx.sol.fields[ctx.rows].T)   # (nv, active rows)
    if cutoff is not None and kind != "gsrc2":
        f = cutoff.value(mesh.vertices)[:, None] * f
    cells = q // 3
    u = _at_midpoints(mesh, f, q)
    ids, at = np.unique(cells, return_inverse=True)
    gx, gy = (g[at] for g in _cell_gradient(mesh, f, ids))
    if kind == "u2":
        g = u * u
    elif kind == "grad2":
        g = gx * gx + gy * gy
    else:
        x = _at_midpoints(mesh, mesh.vertices, q)
        weight = AbsPowerWeight(ctx.params.alpha)
        r = _radii(x)
        kg = cutoff.gradient(x)
        lap = (cutoff.d2_radial(r)
               + cutoff.d1_radial(r) / np.maximum(r, 1e-300))
        w = weight(x)
        div_wk = np.einsum("qd,qd->q", weight.gradient(x), kg) + w * lap
        g = ((2.0 * w)[:, None] * (kg[:, :1] * gx + kg[:, 1:] * gy)
             + u * div_wk[:, None]) ** 2
    g *= (mesh.areas[cells] / 3.0)[:, None]
    return g


def traced_peak(run):
    """tracemalloc peak of ``run()`` above the memory traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def geometry():
    return GeometrySpec(R=1.0, L=9.0)


@pytest.fixture(scope="session")
def coarse_mesh(geometry):
    """Disk mesh at the coarsest study resolution; shared, do not mutate."""
    return build_disk_mesh(geometry, 0.3)


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def unit_square_mesh():
    """Two-triangle unit square with hand-checked connectivity."""
    from degenlab.domain import Mesh

    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3]])
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return Mesh(vertices, cells, edges, h=1.0)
