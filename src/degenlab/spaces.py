"""Weighted norms and verification ratios for the functional inequalities.

All norms are computed with the midpoint-rule quadrature of :mod:`.domain`
(with extra subdivision near the origin, where the weights degenerate), and
P1 cell gradients for seminorms.  The inequality checkers return the ratio
LHS / RHS with the explicit constants, so a verified inequality reads
``ratio <= 1 + quadrature budget``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Mesh
from .weights import RegularizedWeight, exact_weight


@dataclass(frozen=True)
class WeightedNormSpec:
    """Selects the spatial weight entering a norm.

    ``weight`` is ``None`` for the unweighted case, a float ``alpha`` for the
    exact weight |x|^alpha, or a RegularizedWeight instance.
    """

    weight: object = None
    subdivide_radius: float = 0.0

    def evaluate(self, points):
        if self.weight is None:
            return np.ones(len(points))
        if isinstance(self.weight, RegularizedWeight):
            return self.weight.value(points)
        return exact_weight(float(self.weight), points)


def weighted_l2_norm(mesh: Mesh, field, spec: WeightedNormSpec) -> float:
    """sqrt of the quadrature of u^2 * w over the mesh."""
    qp = mesh.quadrature(spec.subdivide_radius)
    u = qp.values(field)
    w = spec.evaluate(qp.points)
    return float(np.sqrt(max(0.0, np.dot(qp.weights, u * u * w))))


def weighted_h1_seminorm(mesh: Mesh, field, spec: WeightedNormSpec) -> float:
    """sqrt of the quadrature of |grad u|^2 * w with the P1 cell gradient."""
    qp = mesh.quadrature(spec.subdivide_radius)
    g = mesh.p1_gradient(field)
    g2 = np.einsum("cd,cd->c", g, g)[qp.cell]
    w = spec.evaluate(qp.points)
    return float(np.sqrt(max(0.0, np.dot(qp.weights, g2 * w))))


def _require_h10(mesh: Mesh, field):
    u = np.asarray(field, dtype=float)
    if np.max(np.abs(u[mesh.boundary_mask])) > 1e-13 * max(1.0, np.max(np.abs(u))):
        raise ValueError("field has a nonzero boundary trace; the inequality "
                         "is stated for fields vanishing on the boundary")
    return u


def hardy_ratio(mesh: Mesh, field, alpha: float,
                subdivide_radius: float | None = None) -> float:
    """(N-2+alpha) * || |x|^(alpha/2-1) u ||_L2 / (2 ||grad u||_{L2;|x|^alpha}).

    The singular factor |x|^(alpha-2) is integrable in 2D for alpha in (0,2);
    it is handled by extra quadrature subdivision near the origin.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    u = _require_h10(mesh, field)
    if not np.any(u):
        return 0.0
    N = 2
    sub = 4.0 * mesh.h if subdivide_radius is None else subdivide_radius
    qp = mesh.quadrature(sub, levels=3)
    uq = qp.values(u)
    r2 = np.einsum("qd,qd->q", qp.points, qp.points)
    # |x|^(alpha-2) u^2; the rule never samples x = 0 (edge midpoints of
    # nondegenerate cells), so the power is finite
    lhs2 = float(np.dot(qp.weights, np.power(r2, 0.5 * alpha - 1.0) * uq * uq))
    spec = WeightedNormSpec(weight=alpha, subdivide_radius=sub)
    rhs = weighted_h1_seminorm(mesh, u, spec)
    return (N - 2 + alpha) * np.sqrt(max(0.0, lhs2)) / (2.0 * rhs)


def poincare_ratios(mesh: Mesh, field, alpha: float, eps: float,
                    m: float | None = None) -> dict:
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
    if m is None:
        m = float(np.max(np.linalg.norm(mesh.vertices, axis=1))) + 1.0
    if not np.any(u):
        return {"r_22": 0.0, "r_23": 0.0, "r_36": 0.0, "r_37": 0.0}
    N = 2
    c = N - 2 + alpha
    sub = 4.0 * mesh.h
    exact = WeightedNormSpec(weight=alpha, subdivide_radius=sub)
    reg = WeightedNormSpec(weight=RegularizedWeight(epsilon=eps, alpha=alpha),
                           subdivide_radius=sub)
    plain = WeightedNormSpec(subdivide_radius=sub)
    l2_w = weighted_l2_norm(mesh, u, exact)
    l2_we = weighted_l2_norm(mesh, u, reg)
    l2 = weighted_l2_norm(mesh, u, plain)
    h1_w = weighted_h1_seminorm(mesh, u, exact)
    h1_we = weighted_h1_seminorm(mesh, u, reg)
    return {
        "r_22": c / (2.0 * m) * l2_w / h1_w,
        "r_23": c / (2.0 * m ** (1.0 - 0.5 * alpha)) * l2 / h1_w,
        "r_36": c / (2.0 * m) * l2_we / h1_we,
        "r_37": c / (2.0 * m ** (1.0 - 0.5 * alpha)) * l2 / h1_we,
    }


def inequality_ratio_table(mesh: Mesh, fields, alpha: float, eps: float,
                           m: float | None = None, chunk: int = 20) -> dict:
    """Hardy and Poincare ratios for a stack of nodal fields at once.

    ``fields`` has shape (n_fields, n_vertices).  Returns arrays keyed
    "hardy", "r_22", "r_23", "r_36", "r_37" that match the single-field
    functions exactly; the shared quadrature data is built once, which is what
    makes scanning hundreds of sample fields affordable.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    F = np.asarray(fields, dtype=float)
    if F.ndim != 2 or F.shape[1] != mesh.num_vertices:
        raise ValueError("fields must be (n_fields, n_vertices)")
    if m is None:
        m = float(np.max(np.linalg.norm(mesh.vertices, axis=1))) + 1.0
    N = 2
    c = N - 2 + alpha
    sub = 4.0 * mesh.h
    qp3 = mesh.quadrature(sub, levels=3)     # singular-factor quadrature
    qp2 = mesh.quadrature(sub)               # norm quadrature
    r2_3 = np.einsum("qd,qd->q", qp3.points, qp3.points)
    sing3 = np.power(r2_3, 0.5 * alpha - 1.0) * qp3.weights
    w_exact = exact_weight(alpha, qp2.points)
    w_reg = RegularizedWeight(epsilon=eps, alpha=alpha).value(qp2.points)
    we2 = w_exact * qp2.weights
    wr2 = w_reg * qp2.weights
    ww2 = qp2.weights
    P3 = mesh.interpolation(sub, levels=3)
    P2 = mesh.interpolation(sub)

    out = {k: np.zeros(len(F)) for k in ("hardy", "r_22", "r_23", "r_36", "r_37")}
    for lo in range(0, len(F), chunk):
        B = F[lo:lo + chunk]
        for u in B:
            _require_h10(mesh, u)
        u3 = (P3 @ B.T).T
        u2 = (P2 @ B.T).T
        g = np.einsum("fci,cid->fcd", B[:, mesh.cells], mesh.grads)
        g2 = np.einsum("fcd,fcd->fc", g, g)[:, qp2.cell]
        hardy_num = np.sqrt(np.maximum(0.0, (u3 * u3) @ sing3))
        l2_w = np.sqrt(np.maximum(0.0, (u2 * u2) @ we2))
        l2_we = np.sqrt(np.maximum(0.0, (u2 * u2) @ wr2))
        l2 = np.sqrt(np.maximum(0.0, (u2 * u2) @ ww2))
        h1_w = np.sqrt(np.maximum(0.0, g2 @ we2))
        h1_we = np.sqrt(np.maximum(0.0, g2 @ wr2))
        nz = np.any(B != 0.0, axis=1)
        sl = slice(lo, lo + len(B))
        with np.errstate(divide="ignore", invalid="ignore"):
            out["hardy"][sl] = np.where(nz, c * hardy_num / (2.0 * h1_w), 0.0)
            out["r_22"][sl] = np.where(nz, c / (2.0 * m) * l2_w / h1_w, 0.0)
            out["r_23"][sl] = np.where(
                nz, c / (2.0 * m ** (1.0 - 0.5 * alpha)) * l2 / h1_w, 0.0)
            out["r_36"][sl] = np.where(nz, c / (2.0 * m) * l2_we / h1_we, 0.0)
            out["r_37"][sl] = np.where(
                nz, c / (2.0 * m ** (1.0 - 0.5 * alpha)) * l2 / h1_we, 0.0)
    return out


def sobolev_embedding_ratio(mesh: Mesh, field, k: float, p: float,
                            spec: WeightedNormSpec) -> float:
    """||u||_{L^{kp};w} / ||grad u||_{L^p;w} for the supported (k, p) pairs."""
    N = 2
    if p != 2 or not any(np.isclose(k, v) for v in (1.0, N / (N - 1))):
        raise ValueError(f"unsupported (k, p) = ({k}, {p}); only p = 2 with "
                         f"k in {{1, {N / (N - 1)}}} is exercised")
    u = _require_h10(mesh, field)
    if not np.any(u):
        return 0.0
    qp = mesh.quadrature(spec.subdivide_radius)
    uq = np.abs(qp.values(u))
    w = spec.evaluate(qp.points)
    kp = k * p
    num = float(np.dot(qp.weights, uq ** kp * w)) ** (1.0 / kp)
    g = mesh.p1_gradient(u)
    gq = np.sqrt(np.einsum("cd,cd->c", g, g))[qp.cell]
    den = float(np.dot(qp.weights, gq ** p * w)) ** (1.0 / p)
    return num / den
