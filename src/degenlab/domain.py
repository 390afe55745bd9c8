"""Computational geometry: graded disk triangulations and quadrature.

A mesh of the disk B_L is built from concentric rings of vertices round a
centre vertex; the band between two rings is triangulated by a stable merge
of their angles, with array operations only, so boundary vertices sit
exactly on the outer circle and the radial grading near the degeneracy at
the origin is explicit.  All integrals use a per-cell midpoint rule (exact
for quadratic integrands), with optional dyadic cell subdivision near the
origin where singular weights live.  The rule is defined once, as blocks of
cells sharing a barycentric point set (:meth:`Mesh.point_rule`), and every
point sum of the package reads these blocks.
Every P1 matrix is a symmetric (n_cells, 6) pair form: entry (c, p)
couples cell c's local vertices (i, j) = PAIRS[p], i <= j.
Forms are summed onto the one cached P1 pattern of vertex pairs i <= j:
:meth:`Mesh.assemble` gathers the sums into CSR (the solver's matrices)
through one cached map.  :meth:`Mesh.pair_forms` is the one pass over the
rule: for several weights on one refinement radius it returns their
per-cell sums and adds their masses straight into rows of pair sums, a
bounded chunk of cells at a time, each chunk's points built once for every
weight, with no point array of the whole rule and no form.
:meth:`Mesh.add_stiffness` adds stiffnesses the same way, and
:meth:`Mesh.quadratic_forms` evaluates u^T A u for several rows of pair
sums and a whole stack of fields in one blocked pass, with no matrix.
:meth:`Mesh.nodal_sums` (nodal weights, loads) is bitwise P^T w for the
rule's interpolation P, with no P built.
Everything built from the mesh (the pattern and its CSR map, the boundary
edge average, the nodal weights of each region and weight, the mass matrix,
the solver's step operators and their interior entry map) is built once,
cached on the Mesh and read-only.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .weights import as_weight

_MIDPOINT_BARY = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])

# the local vertex pairs (i, j), i <= j, of a symmetric per-cell form
PAIRS = np.array([[0, 0], [1, 1], [2, 2], [0, 1], [1, 2], [0, 2]])

# vertex pairs per block of Mesh.quadratic_forms: two (n_fields, block)
# temporaries, 0.5 MB each at 60 fields.  At h = 1/16 (299,860 pairs) and
# 60 fields the product loop took 64 / 74 / 99 ms (median of 9) at 1024 /
# 2048 / 4096 pairs, numpy 2.4.6 on one BLAS thread of a 2-core x86-64 box
_PAIR_BLOCK = 1024
# rule points per cell chunk of Mesh.pair_forms (256 KB of coordinates),
# and cells per chunk of Mesh.add_stiffness
_CHUNK_POINTS = 16384


@dataclass(frozen=True)
class GeometrySpec:
    """Disk B_L containing the degeneracy, with observation annulus A_{3R,6R}."""

    R: float = 1.0
    L: float = 9.0

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")
        if self.L <= 8.0 * self.R:
            raise ValueError("need L > 8R so the annulus bands fit inside the disk")


@dataclass(frozen=True)
class Region:
    """Radial band r_inner <= |x| < r_outer (the whole domain by default)."""

    r_inner: float = 0.0
    r_outer: float = np.inf

    @staticmethod
    def ball(r):
        return Region(r_outer=r)

    @staticmethod
    def annulus(a, b):
        if not 0.0 <= a <= b:
            raise ValueError("annulus radii must satisfy 0 <= a <= b")
        return Region(a, b)

    @staticmethod
    def complement(r):
        return Region(r_inner=r)

    @staticmethod
    def whole():
        return Region()


class Mesh:
    """Immutable P1 triangulation with cached geometry; its cells are
    counter-clockwise and its boundary edges lie on one outer circle round
    the origin."""

    def __init__(self, vertices, cells, boundary_edges, h):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        self.h = float(h)
        self._finalize()
        # everything built from the mesh, by key (see cached)
        self._cache: dict = {}

    def _finalize(self):
        p = self.vertices[self.cells]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if np.any(signed <= 0):
            raise ValueError("degenerate or clockwise cell in triangulation")
        self.areas = signed
        self.centroids = p.mean(axis=1)
        # P1 shape gradients: grad lambda_i = rot(opposite edge) / (2A)
        x, y = p[..., 0], p[..., 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        self.grads = np.stack([b, c], axis=2) / (2.0 * self.areas)[:, None, None]
        bmask = np.zeros(len(self.vertices), dtype=bool)
        bmask[self.boundary_edges.ravel()] = True
        self.boundary_mask = bmask
        self.interior = np.flatnonzero(~bmask)

    # -- queries -------------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_mask(self, region: Region) -> np.ndarray:
        """Cells whose centroid lies in ``region`` (radii taken once)."""
        r = self.cached("centroid_radii", lambda: _radii(self.centroids))
        return (r >= region.r_inner) & (r < region.r_outer)

    def cached(self, key, build):
        """``build()``, once per key for the life of the mesh.

        Arrays in the value (alone, in a tuple or a dataclass's fields, or a
        sparse matrix's buffers) are made read-only, since every caller
        shares them.
        """
        if key not in self._cache:
            self._cache[key] = _read_only(build())
        return self._cache[key]

    def boundary_edge_average(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(E, lengths)`` of the boundary edges, cached.

        E is the sparse (n_edges, n_boundary_vertices) matrix with 0.5 at the
        two ends of each edge; its columns are the boundary vertices in id
        order, so ``E @ f`` averages a boundary-vertex field onto the edges.
        """
        def build():
            e = self.boundary_edges
            ends = np.searchsorted(np.flatnonzero(self.boundary_mask), e)
            E = sp.csr_matrix(
                (np.full(e.size, 0.5), ends.ravel(),
                 np.arange(0, e.size + 1, 2)),
                shape=(len(e), int(np.count_nonzero(self.boundary_mask))))
            lengths = np.linalg.norm(self.vertices[e[:, 1]]
                                     - self.vertices[e[:, 0]], axis=1)
            return E, lengths
        return self.cached("edge_average", build)

    # -- quadrature ------------------------------------------------------------

    def point_rule(self, subdivide_radius: float = 0.0, levels: int = 2):
        """The rule refined ``levels`` times within ``subdivide_radius`` as
        blocks ``(ids, bary, a, points)``: cell ``ids[k]`` has the points
        ``points[k]`` (bary @ its vertices), each of weight ``a[k]``."""
        return [(ids, bary, a, _block_points(self, ids, bary))
                for ids, bary, a, _ in _rule_blocks(self, subdivide_radius,
                                                    [levels])]

    def quadrature_weights(self, region: Region | None = None,
                           weight=None) -> np.ndarray:
        """Nodal weights c, cached: the integral of a nodal field u times
        ``weight`` over ``region`` is ``c @ u``.

        c is :meth:`nodal_sums` of the weight over the region, on the rule
        refined within the weight's ``quadrature_radius``.  ``weight`` is
        anything :func:`~degenlab.weights.as_weight` accepts; the cache key
        holds the weight value, so equal parameters share one entry.
        """
        weight = as_weight(weight)
        return self.cached(("weights", region, weight), lambda: self.nodal_sums(
            weight, 0.0 if weight is None else weight.quadrature_radius,
            region))

    def nodal_sums(self, fn=None, subdivide_radius: float = 0.0,
                   region: Region | None = None) -> np.ndarray:
        """c_i = sum_q a_q fn(x_q) lambda_i(x_q) over the points of the
        region's cells (all without one) on the level-2 rule refined within
        ``subdivide_radius``, fn a callable on (n, 2) points (None: 1).

        ``np.add.at`` adds each point's nonzero shape values times a_q fn(x_q)
        in point order, a chunk of at most ``_CHUNK_POINTS`` points at a
        time: bitwise P^T (a fn) for the rule's P1 interpolation P.
        """
        c = np.zeros(self.num_vertices)
        keep = None if region is None else self.cell_mask(region)
        for ids, bary, a, _ in _rule_blocks(self, subdivide_radius, [2]):
            if keep is not None:
                ids, a = ids[keep[ids]], a[keep[ids]]
            # each point's nonzero shape values (an edge midpoint has a zero
            # one), point by point
            point, local = np.nonzero(bary)
            step = _CHUNK_POINTS // len(bary)
            for s in range(0, len(ids), step):
                chunk = ids[s:s + step]
                w = np.repeat(a[s:s + step, None], len(bary), axis=1)
                if fn is not None:
                    x = _block_points(self, chunk, bary).reshape(-1, 2)
                    w *= np.asarray(fn(x), dtype=float).reshape(w.shape)
                np.add.at(c, self.cells[chunk][:, local],
                          w[:, point] * bary[point, local])
        return c

    def pair_forms(self, rules, subdivide_radius: float = 0.0,
                   pair_sums=None, regions=None) -> np.ndarray:
        """(k, n_cells) per-cell sums of k rules ``(weight, levels)`` in one
        pass, and their mass pair sums.

        Rule ``(w, levels)`` is ``point_rule(subdivide_radius, levels)``
        with its weights a_q times w (None: w = 1, else a callable on (n, 2)
        point arrays) at its points, on the cells of ``regions[r]`` if given:

        - sums[r, c] = sum_q a_q w(x_q) over cell c's points, accumulated in
          point order;
        - with ``pair_sums`` one (n_pairs,) row or None per rule (a
          (k, n_pairs) array gives a row to every rule), row r gets the mass
          sum_q a_q w(x_q) lambda_i(x_q) lambda_j(x_q) of each cell's local
          pair (i, j) = PAIRS[p] added at its vertex pair, in the layout of
          :meth:`quadratic_forms`; a rule without a row adds no pair sum.

        The rule blocks are built once: the midpoint cells, shared by every
        rule, and the refined cells once per distinct level.  Each block goes
        in chunks of at most ``_CHUNK_POINTS`` points: a chunk's points are
        built once, every weight of the block is called on them, and its
        pair sums are added through the slot map, so no per-point array of
        the whole rule and no (n_cells, 6) form is made.
        """
        weights, levels = zip(*rules)
        keep = [None if reg is None else self.cell_mask(reg)[:, None]
                for reg in regions or [None] * len(rules)]
        sums = np.empty((len(weights), self.num_cells))
        rows = [None] * len(rules) if pair_sums is None else list(pair_sums)
        if any(row is not None for row in rows):
            slot = self.cached("p1_pairs", self._pair_pattern)[2].reshape(
                -1, len(PAIRS))
        # the refined blocks first: the ring mesher numbers cells from the
        # centre out, so each pair's terms are added in cell order and the
        # sums are the bits :meth:`assemble` gives a form
        blocks = _rule_blocks(self, subdivide_radius, levels)
        for ids, bary, a, members in blocks[::-1]:
            nq = len(bary)
            # a cell's row of wv @ products keeps its bits whatever the chunk
            # bounds with products C-contiguous (transposed, BLAS switches
            # kernels for short chunks) and no chunk of one cell (a GEMV)
            products = np.ascontiguousarray(bary[:, PAIRS[:, 0]]
                                            * bary[:, PAIRS[:, 1]])
            weighted = any(weights[r] is not None for r in members)
            paired = any(rows[r] is not None for r in members)
            step = max(2, _CHUNK_POINTS // nq)
            stops = [*range(step, len(ids) - 1, step), len(ids)]
            for s, e in zip([0, *stops], stops):
                chunk = ids[s:e]
                area = np.repeat(a[s:e, None], nq, axis=1)
                if weighted:
                    points = _block_points(self, chunk, bary).reshape(-1, 2)
                cell = np.repeat(np.arange(len(chunk)), nq)
                if paired:
                    pairs = slot[chunk].ravel()
                for r in members:
                    wv = area
                    if weights[r] is not None:
                        wv = area * np.asarray(weights[r](points),
                                               dtype=float).reshape(area.shape)
                    if keep[r] is not None:
                        wv = np.where(keep[r][chunk], wv, 0.0)
                    if rows[r] is not None:
                        np.add.at(rows[r], pairs, (wv @ products).ravel())
                    sums[r, chunk] = np.bincount(cell, weights=wv.ravel(),
                                                 minlength=len(chunk))
        return sums

    def gradient_pairs(self) -> np.ndarray:
        """(n_cells, 6) grad(lambda_i) . grad(lambda_j) on each cell, for the
        local pairs (i, j) = PAIRS: the stiffness pair form of a unit cell
        weight."""
        return _gradient_pairs(self.grads)

    def quadratic_forms(self, pair_sums, fields) -> np.ndarray:
        """(k, n_fields) array of u^T A u for every matrix A and row u.

        ``pair_sums`` is a (k, n_pairs) array: row r holds matrix r's sum on
        each vertex pair i <= j of the cached symmetric P1 pattern, as
        :meth:`pair_forms` and :meth:`add_stiffness` add them.  ``fields``
        is an (n_fields, n_vertices) stack, read in blocks of
        ``_PAIR_BLOCK`` pairs (i, j): each block gathers F[:, i] * F[:, j]
        and makes one small product with the block's k rows, the
        off-diagonal pairs doubled, so no temporary grows with both the mesh
        and the number of fields.
        """
        I, J, _ = self.cached("p1_pairs", self._pair_pattern)
        off = I != J
        F = np.asarray(fields, dtype=float)
        out = np.zeros((len(F), len(pair_sums)))
        for s in range(0, len(I), _PAIR_BLOCK):
            block = slice(s, s + _PAIR_BLOCK)
            prod = F[:, I[block]]
            prod *= F[:, J[block]]
            out += prod @ (np.where(off[block], 2.0, 1.0)
                           * pair_sums[:, block]).T
        return out.T

    @property
    def num_pairs(self) -> int:
        """Vertex pairs i <= j of the cached symmetric P1 pattern."""
        return len(self.cached("p1_pairs", self._pair_pattern)[0])

    def add_stiffness(self, pair_sums, cell_sums):
        """Add to each row of the (k, n_pairs) ``pair_sums`` the stiffness
        sum_c cell_sums[r, c] grad(lambda_i) . grad(lambda_j) of a row of
        the (k, n_cells) ``cell_sums``: :meth:`gradient_pairs` times the
        sums, made and added a chunk of cells at a time through the slot
        map, in cell order as :meth:`assemble` adds a form, with no
        (n_cells, 6) array."""
        slot = self.cached("p1_pairs", self._pair_pattern)[2]
        n = len(PAIRS)
        for s in range(0, self.num_cells, _CHUNK_POINTS):
            cells = slice(s, s + _CHUNK_POINTS)
            geometric = _gradient_pairs(self.grads[cells])
            for row, sums in zip(pair_sums, cell_sums):
                np.add.at(row, slot[n * s:n * (s + _CHUNK_POINTS)],
                          (geometric * sums[cells, None]).ravel())

    def assemble(self, form) -> sp.csr_matrix:
        """The P1 matrix of the (n_cells, 6) pair form ``form`` as CSR, the
        columns sorted in each row: form[c, p] is added at (cells[c, i],
        cells[c, j]) and its mirror, (i, j) = PAIRS[p].  The form is summed
        onto the cached vertex pairs by ``np.add.at`` (``np.bincount``'s
        additions in its order, without its copy of the read-only slot
        map), then each CSR entry reads its pair's sum through the cached
        map of :meth:`_csr_map`.
        """
        _, _, slot = self.cached("p1_pairs", self._pair_pattern)
        indptr, indices, pair = self.cached("p1_csr", self._csr_map)
        values = np.zeros(self.num_pairs)
        np.add.at(values, slot, np.asarray(form, dtype=float).ravel())
        return sp.csr_matrix((values[pair], indices, indptr),
                             shape=(self.num_vertices,) * 2)

    def _csr_map(self):
        """``(indptr, indices, pair)``: the full P1 pattern as CSR and the
        pair of each entry, merged by one stable sort from the pairs (i, j)
        and their mirrors (j, i), each list sorted by (row, column).  int32,
        as scipy keeps indices: the vertex cap bounds nnz near 7 * 400k."""
        nv = self.num_vertices
        I, J, _ = self.cached("p1_pairs", self._pair_pattern)
        off = np.flatnonzero(I != J)
        # I-sorted pairs sorted stably by J: the mirrors in (row, column)
        lower = off[np.argsort(J[off], kind="stable")]
        rows = np.concatenate([I, J[lower]])
        cols = np.concatenate([J, I[lower]])
        # int64 keys: nv^2 passes int32 from 46,341 vertices on
        order = np.argsort(rows.astype(np.int64) * nv + cols, kind="stable")
        pair = np.concatenate([np.arange(len(I)), lower])[order]
        indptr = np.searchsorted(rows[order], np.arange(nv + 1))
        return (indptr.astype(np.int32), cols[order].astype(np.int32),
                pair.astype(np.int32))

    def _pair_pattern(self):
        """``(I, J, slot)``: the int32 vertex pairs I <= J of the symmetric
        P1 pattern, sorted, and for each cell's local pair (c, p) in C order
        its intp position in I and J (``np.add.at``'s fastest index).  Built
        by one sort of a key min * n_vertices + max per vertex of a cell,
        taken once (i * (n_vertices + 1)), and per cell edge."""
        nv, nc = self.num_vertices, self.num_cells
        used = np.zeros(nv, dtype=bool)
        used[self.cells] = True
        used = np.flatnonzero(used)
        n_used = len(used)
        keys = np.empty(n_used + 3 * nc, dtype=np.int64)
        np.multiply(used, nv + 1, out=keys[:n_used])
        edges = keys[n_used:].reshape(nc, 3)
        a, b = self.cells[:, PAIRS[3:, 0]], self.cells[:, PAIRS[3:, 1]]
        np.minimum(a, b, out=edges)
        edges *= nv
        edges += np.maximum(a, b, out=a)
        del a, b, edges
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        I, J = np.divmod(keys[first], nv)
        del keys
        rank = np.cumsum(first)
        rank -= 1
        position = np.empty_like(order)
        position[order] = rank
        del order, rank
        # PAIRS lists the three diagonal pairs, then the three edges
        vertex = np.zeros(nv, dtype=np.intp)
        vertex[used] = position[:n_used]
        slot = np.empty((nc, len(PAIRS)), dtype=np.intp)
        slot[:, :3] = vertex[self.cells]
        slot[:, 3:] = position[n_used:].reshape(nc, 3)
        return I.astype(np.int32), J.astype(np.int32), slot.ravel()

    # -- plain-text export -----------------------------------------------------

    def save(self, path):
        buf = io.StringIO()
        buf.write(f"# vertices {self.num_vertices}\n")
        for x, y in self.vertices:
            buf.write(f"{float(x)!r} {float(y)!r}\n")
        buf.write(f"# cells {self.num_cells}\n")
        for i, j, k in self.cells:
            buf.write(f"{i} {j} {k}\n")
        buf.write(f"# boundary_edges {len(self.boundary_edges)}\n")
        for i, j in self.boundary_edges:
            buf.write(f"{i} {j} outer\n")
        buf.write(f"# h {self.h!r}\n")
        with open(path, "w") as f:
            f.write(buf.getvalue())


def _rule_blocks(mesh, subdivide_radius, levels):
    """The quadrature rules of the refinement ``levels`` (one per rule) as
    blocks ``(cell ids, bary, a, members)``, ``members`` the positions in
    ``levels`` of the rules the block belongs to.

    Each point of cell ``ids[k]`` is ``bary[q] @ vertices`` with weight
    ``a[k]`` = area / (points per cell).  Cells with a vertex within
    ``subdivide_radius`` of the origin take the midpoint rule refined l
    times (4^l subtriangles) in a rule of level l, one block per distinct
    level; the others, listed first in one block every rule shares, the
    midpoint rule.
    """
    if subdivide_radius > 0.0:
        near = _radii(mesh.vertices) <= subdivide_radius
        corners = mesh.cells.T
        fine = near[corners[0]] | near[corners[1]] | near[corners[2]]
    else:
        fine = np.zeros(mesh.num_cells, dtype=bool)
    blocks = [(np.flatnonzero(~fine), _MIDPOINT_BARY, range(len(levels)))]
    ids = np.flatnonzero(fine)
    for lv in dict.fromkeys(levels):
        bary = _MIDPOINT_BARY
        for _ in range(lv):
            bary = _refine_bary(bary)
        blocks.append((ids, bary, [r for r, x in enumerate(levels)
                                   if x == lv]))
    return [(ids, b, mesh.areas[ids] / len(b), members)
            for ids, b, members in blocks if len(ids)]


def _radii(points):
    """|x| of each row of an (n, 2) array: ``sqrt(einsum)``, bitwise the
    ``np.linalg.norm(points, axis=1)`` radii without its short-axis
    reduction."""
    return np.sqrt(np.einsum("nd,nd->n", points, points))


def _block_points(mesh, ids, bary):
    """(cells, points, 2) coordinates of a rule block's points.

    Each is (b_0 v_0 + b_1 v_1) + b_2 v_2, summed in that order (as
    ``einsum("qi,cid->cqd")`` does), one coordinate at a time, point by
    point over all cells (a long inner loop even for 3 points a cell).
    """
    out = np.empty((len(ids), len(bary), 2))
    corners = mesh.cells[ids].T
    for d in range(2):
        x = mesh.vertices[:, d][corners]
        out[..., d] = ((bary[:, :1] * x[0] + bary[:, 1:2] * x[1])
                       + bary[:, 2:] * x[2]).T
    return out


def _at_midpoints(mesh, values, q):
    """Nodal ``values`` (rows per vertex) at point q = 3c + k of the
    unrefined rule (``_MIDPOINT_BARY``), the midpoint of cell c's edge
    (i, j) = PAIRS[3 + k]: 0.5 v_i + 0.5 v_j, bitwise its shape-value sum."""
    c, k = np.divmod(q, 3)
    i, j = mesh.cells[c[:, None], PAIRS[3 + k]].T
    return 0.5 * values[i] + 0.5 * values[j]


def _cell_gradient(mesh, f, cells):
    """(d/dx, d/dy) of the nodal rows f on each of ``cells``, the one P1
    cell gradient: (g_0 f_0 + g_1 f_1) + g_2 f_2 with the shape gradients
    g_i, each corner's rows gathered once."""
    g, corners = mesh.grads[cells], mesh.cells[cells]
    rows = [f[corners[:, i]] for i in range(3)]
    out = []
    for d in range(2):
        x = g[:, 0, d, None] * rows[0]
        x += g[:, 1, d, None] * rows[1]
        x += g[:, 2, d, None] * rows[2]
        out.append(x)
    return out


def _gradient_pairs(grads):
    """(cells, 6) grad(lambda_i) . grad(lambda_j) of (cells, 3, 2) shape
    gradients, for the local pairs (i, j) = PAIRS."""
    gx, gy = grads[..., 0], grads[..., 1]
    out = np.empty((len(grads), len(PAIRS)))
    for p, (i, j) in enumerate(PAIRS):
        out[:, p] = gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]
    return out


def _read_only(value):
    """``value``, with the arrays it holds marked read-only."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _read_only(getattr(value, f.name))
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    elif sp.issparse(value):
        for a in (value.data, value.indices, value.indptr):
            a.flags.writeable = False
    elif isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def _refine_bary(bary):
    """Replace each barycentric point set by its image on the 4 subtriangles."""
    corners = np.array([
        [[1, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5]],
        [[0.5, 0.5, 0], [0, 1, 0], [0, 0.5, 0.5]],
        [[0.5, 0, 0.5], [0, 0.5, 0.5], [0, 0, 1]],
        [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]],
    ], dtype=float)
    out = np.einsum("qi,sid->sqd", bary, corners)
    return out.reshape(-1, 3)


# ---------------------------------------------------------------------------
# ring-based mesh generation
# ---------------------------------------------------------------------------

def _ring_radii(r_end, spacing_fn, s_first):
    """Ring radii from 0 to r_end, each step at most 1.5 times the last."""
    radii, r, s_prev = [0.0], 0.0, s_first
    while True:
        s = min(spacing_fn(r), 1.5 * s_prev)
        r = r + s
        s_prev = s
        radii.append(r)
        if r >= r_end - 0.25 * s:
            break
    radii = np.array(radii)
    # affine squeeze of the overshoot so the last ring lands exactly on r_end
    return radii * r_end / radii[-1]


def _ring_points(radius, count, stagger):
    theta = 2.0 * np.pi * (np.arange(count) + (0.5 if stagger else 0.0)) / count
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]), theta


def _merge_rings(theta_a, theta_b, idx_a, idx_b):
    """Triangulate the band between two vertex rings by an angular merge.

    Walking round the band, each step advances ring a or ring b to its next
    vertex, whichever comes first in angle (a on ties); the order of the
    steps is the stable sort of both rings' next angles, a's listed first.
    A step takes the current vertex of each ring and the next one of the
    ring it advances.
    """
    na, nb = len(theta_a), len(theta_b)
    two_pi = 2.0 * np.pi
    nxt = np.concatenate([theta_a[1:], theta_a[:1] + two_pi,
                          theta_b[1:], theta_b[:1] + two_pi])
    step_a = np.argsort(nxt, kind="stable") < na
    i = np.cumsum(step_a) - step_a           # a-steps before each step
    j = np.arange(na + nb) - i               # b-steps before each step
    third = np.where(step_a, idx_a[(i + 1) % na], idx_b[(j + 1) % nb])
    return np.column_stack([idx_a[i % na], idx_b[j % nb], third])


def _build_rings(radii, spacing_fn):
    """Vertices (the centre, then ring by ring), the triangles of the centre
    fan and between consecutive rings, and the outer ring's ids."""
    radii = radii[1:]  # the centre stands for the r = 0 entry
    counts = [max(8, int(np.ceil(2.0 * np.pi * r / spacing_fn(r)))) for r in radii]
    rings = [_ring_points(r, n, stagger=(k % 2 == 1))
             for k, (r, n) in enumerate(zip(radii, counts))]
    ends = 1 + np.cumsum(counts)
    ring_idx = [np.arange(e - n, e) for n, e in zip(counts, ends)]
    ids = ring_idx[0]
    cells = [np.column_stack([np.zeros_like(ids), ids, np.roll(ids, -1)])]
    cells += [_merge_rings(rings[k][1], rings[k + 1][1],
                           ring_idx[k], ring_idx[k + 1])
              for k in range(len(rings) - 1)]
    verts = [np.zeros((1, 2))] + [pts for pts, _ in rings]
    return np.concatenate(verts), np.concatenate(cells), ring_idx[-1]


# Measured peak memory of the heaviest per-mesh paths: the inequality table
# (mesh, 60 fields and the table) takes 1.24 KB per vertex by tracemalloc
# at h = 1/8 and 1/16, and 2.2 KB per vertex by peak RSS at 1/16; one
# observability level measured 2.9-3.7 KB per vertex.  So the cap keeps one
# mesh's studies near 1.5 GB.  It admits h = 1/32 on the default disk (about
# 300k vertices).
MAX_VERTICES = 400_000


def disk_vertex_bound(spec: GeometrySpec, h: float,
                      local_h: float | None = None) -> float:
    """Upper bound on the vertex count of ``build_disk_mesh(spec, h, local_h)``.

    Rings at spacing h/2 in B_{2R} and h outside hold about
    pi (L^2 + 12 R^2) / h^2 vertices; rounding each ring up and squeezing the
    last one onto r = L add O((L + 2R) / h), and the graded core round a
    finer ``local_h`` adds about 11 vertices per ring on rings growing by a
    factor 1.6.  Closed form: no mesh is built.  A whole number, or inf
    where h (below about 1e-154) or a zero ``local_h`` makes it overflow.
    """
    if local_h is not None and not local_h >= 0.0:
        raise ValueError(f"local_h must not be negative, got {local_h}")
    R, L, h = spec.R, spec.L, np.float64(h)
    lh = h / 2.0 if local_h is None else min(local_h, h / 2.0)
    with np.errstate(over="ignore", divide="ignore"):
        core = 3.0 + np.log(h / (2.0 * lh)) / np.log(1.6)
        return float(np.ceil(np.pi * (L * L + 12.0 * R * R) / (h * h)
                             + 8.0 * np.pi * (L + 2.0 * R) / h + 11.0 * core))


def build_disk_mesh(spec: GeometrySpec, h: float, local_h: float | None = None) -> Mesh:
    """Graded triangulation of the disk B_L.

    Ring spacing is h outside B_{2R} and h/2 inside (the degeneracy band);
    ``local_h`` forces an even finer spacing right at the origin so a
    regularization ball of comparable radius is resolved.
    """
    if not 0.0 < h < spec.R:
        raise ValueError(
            f"h={h} too coarse: need h < R = {spec.R} so the 3R-wide "
            "observation annulus is crossed by at least 3 element layers")
    bound = disk_vertex_bound(spec, h, local_h)
    if not bound <= MAX_VERTICES:
        raise ValueError(f"h={h} too fine: up to {bound:.0f} vertices, above "
                         f"the cap of {MAX_VERTICES}")
    R = spec.R
    fine = h / 2.0
    lh = fine if local_h is None else min(local_h, fine)

    def spacing(r):
        base = fine if r < 2.0 * R else h
        return min(base, max(lh, 0.6 * r))

    radii = _ring_radii(spec.L, spacing, s_first=lh)
    verts, cells, outer = _build_rings(radii, spacing)
    # the edges (outer[i], outer[i + 1]) close the outer ring into a loop
    return Mesh(verts, cells, np.column_stack([outer, np.roll(outer, -1)]), h)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def integrate_space(mesh: Mesh, u, region: Region | None = None,
                    weight=None) -> float:
    """Integral of the nodal field u times ``weight`` over the region:
    ``c @ u`` with the nodal weights c of :meth:`Mesh.quadrature_weights`,
    the one-slice case of :func:`integrate_spacetime`."""
    return float(mesh.quadrature_weights(region, weight)
                 @ np.asarray(u, dtype=float))


def time_weights(times, window=None) -> np.ndarray:
    """Trapezoid weights tau over the time nodes: tau @ y is the trapezoid
    rule of the per-time values y.

    This is the one time rule of every space-time integral.  With a window
    (t0, t1) the rule runs from the node nearest t0 to the node nearest t1,
    and tau is zero on the other nodes.
    """
    times = np.asarray(times, dtype=float)
    i0, i1 = 0, len(times) - 1
    if window is not None:
        t0, t1 = window
        T = times[-1]
        if t0 < -1e-12 or t1 > T + 1e-12 or t0 >= t1:
            raise ValueError(f"time window {window} outside [0, {T}]")
        i0 = int(np.argmin(np.abs(times - t0)))
        i1 = int(np.argmin(np.abs(times - t1)))
    half = np.diff(times[i0:i1 + 1]) / 2.0
    tau = np.zeros(len(times))
    tau[i0:i1] += half
    tau[i0 + 1:i1 + 1] += half
    return tau


def integrate_spacetime(mesh: Mesh, times, fields, region: Region | None = None,
                        weight=None, window=None) -> float:
    """Integral over the region and the window: per-slice space integrals
    summed with the :func:`time_weights` tau.

    ``fields`` are nodal, with shape (len(times), n_vertices).  The space
    integral is linear in the nodal field, so every slice integrates as
    ``fields @ c`` with the mesh's cached nodal weights c of
    :meth:`Mesh.quadrature_weights`.
    """
    c = mesh.quadrature_weights(region, weight)
    slices = np.asarray(fields, dtype=float) @ c
    return float(time_weights(times, window) @ slices)
