"""Weighted norms and verification ratios for the functional inequalities.

All norms are computed with the midpoint rule of :mod:`.domain` (with
extra subdivision near the origin, where the weights degenerate), and P1
cell gradients for seminorms.  The inequality checkers return the ratio
LHS / RHS with the explicit constants, so a verified inequality reads
``ratio <= 1 + quadrature budget``.  The single-field functions are point
sums over the rule blocks, read here directly so that they stay an oracle
independent of :meth:`~degenlab.domain.Mesh.pair_forms`; the batched table
reads each squared norm of a stack of fields as a quadratic form u^T A u,
with the six matrices held as sums on the mesh's vertex pairs, the four
masses from one pass over the rule
(:meth:`~degenlab.domain.Mesh.pair_forms`), and evaluates all of them in
one pass (:meth:`~degenlab.domain.Mesh.quadratic_forms`).  Every field must
be finite and vanish on the boundary.
"""

from __future__ import annotations

import numpy as np

from .domain import Mesh, _block_points, _cell_gradient, _rule_blocks
from .weights import AbsPowerWeight, RegularizedWeight


def weighted_l2_norm(mesh: Mesh, field, weight=None,
                     subdivide_radius: float = 0.0) -> float:
    """sqrt of the rule's sum of u^2 * w over the mesh (w = 1 when
    ``weight`` is None)."""
    u = np.asarray(field, dtype=float)
    return float(np.sqrt(max(0.0, _rule_sum(mesh, u, None, weight,
                                            subdivide_radius))))


def weighted_h1_seminorm(mesh: Mesh, field, weight=None,
                         subdivide_radius: float = 0.0) -> float:
    """sqrt of the rule's sum of |grad u|^2 * w with the P1 cell gradient."""
    u = np.asarray(field, dtype=float)[:, None]
    gx, gy = (g[:, 0] for g in _cell_gradient(mesh, u, slice(None)))
    return float(np.sqrt(max(0.0, _rule_sum(
        mesh, None, gx ** 2 + gy ** 2, weight, subdivide_radius))))


def _rule_sum(mesh: Mesh, u, per_cell, weight, subdivide_radius, levels=2):
    """sum_q a_q v_q w(x_q) over the points of the rule refined ``levels``
    times within ``subdivide_radius``, a block of :func:`_rule_blocks` at a
    time: v is the square of the nodal field u interpolated at the points,
    or (u None) the cell's ``per_cell`` value."""
    total = 0.0
    for ids, bary, a, _ in _rule_blocks(mesh, subdivide_radius, [levels]):
        if u is None:
            v = np.repeat(per_cell[ids, None], len(bary), axis=1)
        else:
            v = (u[mesh.cells[ids]] @ bary.T) ** 2
        if weight is not None:
            v *= weight(_block_points(mesh, ids, bary).reshape(-1, 2)
                        ).reshape(v.shape)
        total += float(a @ v.sum(axis=1))
    return total


def _require_h10(mesh: Mesh, fields):
    """``(u, peak)``: the nodal field (or each row of a stack), which must be
    finite and vanish on the boundary, and max |u| (per row)."""
    u = np.asarray(fields, dtype=float)
    hi, lo = np.max(u, axis=-1), np.min(u, axis=-1)
    bad = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))
    if len(bad):
        where = f" (row {bad[0]})" if u.ndim == 2 else ""
        raise ValueError(f"field{where} has a NaN or inf value")
    peak = np.maximum(hi, -lo)
    trace = np.max(np.abs(u[..., mesh.boundary_mask]), axis=-1)
    if np.any(trace > 1e-13 * np.maximum(1.0, peak)):
        raise ValueError("field has a nonzero boundary trace; the inequality "
                         "is stated for fields vanishing on the boundary")
    return u, peak


def hardy_ratio(mesh: Mesh, field, alpha: float) -> float:
    """(N-2+alpha) * || |x|^(alpha/2-1) u ||_L2 / (2 ||grad u||_{L2;|x|^alpha}).

    The singular factor |x|^(alpha-2) is integrable in 2D for alpha in (0,2);
    it is handled by extra quadrature subdivision within 4h of the origin.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    u, peak = _require_h10(mesh, field)
    if peak == 0.0:
        return 0.0
    N = 2
    sub = 4.0 * mesh.h
    # |x|^(alpha-2) u^2; the rule never samples x = 0 (its points are
    # inside or on the edges of nondegenerate cells), so the power is finite
    lhs2 = _rule_sum(mesh, u, None, AbsPowerWeight(alpha - 2.0), sub, 3)
    rhs = weighted_h1_seminorm(mesh, u, AbsPowerWeight(alpha), sub)
    return (N - 2 + alpha) * np.sqrt(max(0.0, lhs2)) / (2.0 * rhs)


def poincare_ratios(mesh: Mesh, field, alpha: float, eps: float) -> dict:
    """LHS/RHS of the four explicit-constant Poincare-type inequalities.

    r_22: c/(2m) * ||u||_{L2;w}      <= ||grad u||_{L2;w}       (exact weight)
    r_23: c/(2 m^(1-a/2)) * ||u||_L2 <= ||grad u||_{L2;w}       (exact weight)
    r_36: c/(2m) * ||u||_{L2;we}     <= ||grad u||_{L2;we}      (regularized)
    r_37: c/(2 m^(1-a/2)) * ||u||_L2 <= ||grad u||_{L2;we}      (regularized)

    with c = N - 2 + alpha and m = sup_Omega |x| + 1.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    u, peak = _require_h10(mesh, field)
    m = float(np.max(np.linalg.norm(mesh.vertices, axis=1))) + 1.0
    if peak == 0.0:
        return {"r_22": 0.0, "r_23": 0.0, "r_36": 0.0, "r_37": 0.0}
    N = 2
    c = N - 2 + alpha
    sub = 4.0 * mesh.h
    exact = AbsPowerWeight(alpha)
    reg = RegularizedWeight(epsilon=eps, alpha=alpha)
    l2_w = weighted_l2_norm(mesh, u, exact, sub)
    l2_we = weighted_l2_norm(mesh, u, reg, sub)
    l2 = weighted_l2_norm(mesh, u, None, sub)
    h1_w = weighted_h1_seminorm(mesh, u, exact, sub)
    h1_we = weighted_h1_seminorm(mesh, u, reg, sub)
    return {
        "r_22": c / (2.0 * m) * l2_w / h1_w,
        "r_23": c / (2.0 * m ** (1.0 - 0.5 * alpha)) * l2 / h1_w,
        "r_36": c / (2.0 * m) * l2_we / h1_we,
        "r_37": c / (2.0 * m ** (1.0 - 0.5 * alpha)) * l2 / h1_we,
    }


def inequality_ratio_table(mesh: Mesh, fields, alpha: float,
                           eps: float) -> dict:
    """Hardy and Poincare ratios for a stack of nodal fields at once.

    ``fields`` has shape (n_fields, n_vertices).  Returns arrays keyed
    "hardy", "r_22", "r_23", "r_36", "r_37" that match the single-field
    functions to round-off.  Each squared norm is a quadratic form u^T A u
    of A's sums on the mesh's vertex pairs (:func:`_table_pair_sums`), and
    all six are evaluated for the whole stack in one blocked pass over the
    mesh's symmetric P1 pattern (:meth:`Mesh.quadratic_forms`): no
    quadrature, sparse matrix or transposed copy of the stack is built.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    F = np.asarray(fields, dtype=float)
    if F.ndim != 2 or F.shape[1] != mesh.num_vertices:
        raise ValueError("fields must be (n_fields, n_vertices)")
    F, peak = _require_h10(mesh, F)
    m = float(np.max(np.linalg.norm(mesh.vertices, axis=1))) + 1.0
    N = 2
    c = N - 2 + alpha
    hardy_num, l2, l2_w, l2_we, h1_w, h1_we = np.sqrt(np.maximum(
        0.0, mesh.quadratic_forms(_table_pair_sums(mesh, alpha, eps), F)))
    k_w = c / (2.0 * m)                        # r_22, r_36
    k_1 = c / (2.0 * m ** (1.0 - 0.5 * alpha))  # r_23, r_37
    nz = peak > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return {"hardy": np.where(nz, c * hardy_num / (2.0 * h1_w), 0.0),
                "r_22": np.where(nz, k_w * l2_w / h1_w, 0.0),
                "r_23": np.where(nz, k_1 * l2 / h1_w, 0.0),
                "r_36": np.where(nz, k_w * l2_we / h1_we, 0.0),
                "r_37": np.where(nz, k_1 * l2 / h1_we, 0.0)}


def _table_pair_sums(mesh: Mesh, alpha: float, eps: float) -> np.ndarray:
    """The table's six matrices as (6, n_pairs) sums on the mesh's vertex
    pairs: the Hardy mass of |x|^(alpha-2) on the level-3 rule and the
    unweighted, |x|^alpha and psi_eps^alpha masses on the level-2 rule, all
    refined within 4h of the origin as the single-field functions are, from
    one :meth:`Mesh.pair_forms` pass; then the |x|^alpha and psi_eps^alpha
    stiffnesses from the last two weights' per-cell sums
    (:meth:`Mesh.add_stiffness`)."""
    values = np.zeros((6, mesh.num_pairs))
    sums = np.zeros((2, mesh.num_cells))
    rules = [(AbsPowerWeight(alpha - 2.0), 3), (None, 2),
             (AbsPowerWeight(alpha), 2),
             (RegularizedWeight(epsilon=eps, alpha=alpha), 2)]
    mesh.pair_forms(rules, 4.0 * mesh.h, cell_sums=[None, None, *sums],
                    pair_sums=values[:4])
    mesh.add_stiffness(values[4:], sums)
    return values
