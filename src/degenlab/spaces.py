"""Weighted norms and verification ratios for the functional inequalities.

All norms are computed with the midpoint-rule quadrature of :mod:`.domain`
(with extra subdivision near the origin, where the weights degenerate), and
P1 cell gradients for seminorms.  The inequality checkers return the ratio
LHS / RHS with the explicit constants, so a verified inequality reads
``ratio <= 1 + quadrature budget``.
"""

from __future__ import annotations

import numpy as np

from .domain import Mesh
from .weights import AbsPowerWeight, RegularizedWeight


def weighted_l2_norm(mesh: Mesh, field, weight=None,
                     subdivide_radius: float = 0.0) -> float:
    """sqrt of the quadrature of u^2 * w over the mesh (w = 1 when ``weight``
    is None)."""
    qp = mesh.quadrature(subdivide_radius)
    u = qp.interpolation @ np.asarray(field, dtype=float)
    w = 1.0 if weight is None else weight(qp.points)
    return float(np.sqrt(max(0.0, np.dot(qp.weights, u * u * w))))


def weighted_h1_seminorm(mesh: Mesh, field, weight=None,
                         subdivide_radius: float = 0.0) -> float:
    """sqrt of the quadrature of |grad u|^2 * w with the P1 cell gradient."""
    qp = mesh.quadrature(subdivide_radius)
    g = (mesh.gradient_operator() @ np.asarray(field, dtype=float)).reshape(2, -1)
    g2 = (g[0] ** 2 + g[1] ** 2)[qp.cell]
    w = 1.0 if weight is None else weight(qp.points)
    return float(np.sqrt(max(0.0, np.dot(qp.weights, g2 * w))))


def _require_h10(mesh: Mesh, fields):
    """The nodal field (or each row of a stack) must vanish on the boundary."""
    u = np.asarray(fields, dtype=float)
    trace = np.max(np.abs(u[..., mesh.boundary_mask]), axis=-1)
    if np.any(trace > 1e-13 * np.maximum(1.0, np.max(np.abs(u), axis=-1))):
        raise ValueError("field has a nonzero boundary trace; the inequality "
                         "is stated for fields vanishing on the boundary")
    return u


def hardy_ratio(mesh: Mesh, field, alpha: float) -> float:
    """(N-2+alpha) * || |x|^(alpha/2-1) u ||_L2 / (2 ||grad u||_{L2;|x|^alpha}).

    The singular factor |x|^(alpha-2) is integrable in 2D for alpha in (0,2);
    it is handled by extra quadrature subdivision within 4h of the origin.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    u = _require_h10(mesh, field)
    if not np.any(u):
        return 0.0
    N = 2
    sub = 4.0 * mesh.h
    qp = mesh.quadrature(sub, levels=3)
    uq = qp.interpolation @ u
    # |x|^(alpha-2) u^2; the rule never samples x = 0 (edge midpoints of
    # nondegenerate cells), so the power is finite
    lhs2 = float(np.dot(qp.weights,
                        AbsPowerWeight(alpha - 2.0)(qp.points) * uq * uq))
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
    u = _require_h10(mesh, field)
    m = float(np.max(np.linalg.norm(mesh.vertices, axis=1))) + 1.0
    if not np.any(u):
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
    with A assembled from per-cell 3 x 3 blocks: the weighted P1 mass blocks
    on the quadrature rule for the masses (:meth:`Mesh.cell_forms`,
    :meth:`Mesh.assemble`), and :meth:`Mesh.stiffness` of c_w, the per-cell
    sum of the weighted quadrature weights, for the weighted stiffnesses.
    The forms are built and applied one at a time, so the stack costs one
    sparse product per form and no per-point array outlives its form.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    F = np.asarray(fields, dtype=float)
    if F.ndim != 2 or F.shape[1] != mesh.num_vertices:
        raise ValueError("fields must be (n_fields, n_vertices)")
    _require_h10(mesh, F)
    m = float(np.max(np.linalg.norm(mesh.vertices, axis=1))) + 1.0
    N = 2
    c = N - 2 + alpha
    sub = 4.0 * mesh.h
    Ft = np.ascontiguousarray(F.T)           # one column per field

    def norm(A):
        """sqrt(u^T A u) for every row u of F."""
        return np.sqrt(np.maximum(0.0, np.einsum("vf,vf->f", Ft, A @ Ft)))

    def mass_and_stiffness(weight):
        local, cell_w = mesh.cell_forms(weight, sub)
        A = mesh.assemble(local)
        del local                  # each form's blocks go before its product
        return norm(A), norm(mesh.stiffness(cell_w))

    # the singular factor |x|^(alpha-2) on the finer rule
    hardy_num = norm(mesh.assemble(mesh.cell_forms(
        AbsPowerWeight(alpha - 2.0), sub, levels=3)[0]))
    l2 = norm(mesh.assemble(mesh.cell_forms(None, sub)[0]))
    l2_w, h1_w = mass_and_stiffness(AbsPowerWeight(alpha))
    l2_we, h1_we = mass_and_stiffness(RegularizedWeight(epsilon=eps,
                                                        alpha=alpha))
    k_w = c / (2.0 * m)                        # r_22, r_36
    k_1 = c / (2.0 * m ** (1.0 - 0.5 * alpha))  # r_23, r_37
    nz = np.any(F != 0.0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return {"hardy": np.where(nz, c * hardy_num / (2.0 * h1_w), 0.0),
                "r_22": np.where(nz, k_w * l2_w / h1_w, 0.0),
                "r_23": np.where(nz, k_1 * l2 / h1_w, 0.0),
                "r_36": np.where(nz, k_w * l2_we / h1_we, 0.0),
                "r_37": np.where(nz, k_1 * l2 / h1_we, 0.0)}
