"""Carleman weight functions and numerical instantiation of the estimates.

Houses the time factor Theta(t) = [t(T-t)]^-4, the positive annular weight
eta_bar, and one evaluator that integrates both sides of each weighted
inequality for a discrete solution.

Each of the seven variants is data: an exponent profile e (none, 2 s
eta_0(|x|), 2 s eta_0(psi_eps) or -2 s sigma_bar / Theta) and a list of
terms, each naming its side, coefficient, field, region, cutoff, column
factor, time factor and window.  The parameter-free geometry is cached on
the mesh for all its contexts, and a BalanceContext caches balances, no
field.  Unweighted terms are quadratic forms of the nodal rows.  Weighted
ones span thousands of orders of magnitude, so each support region's growth
exp(Theta_t e_q) subtracts one shift (the implied constant is unchanged),
the max of Theta_t e_q over the union of the supports; then a term's field
is built only on its live (row, column) block; off it exp is exactly 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import (_CHUNK_POINTS, Mesh, Region, _at_midpoints,
                     _cell_gradient, _radii, time_weights)
from .solver import DiscreteSolution, boundary_flux
from .weights import (AbsPowerWeight, CutoffFunction, RegularizedWeight,
                      cutoff_kappa, cutoff_zeta)

THETA_CAP = 1e16  # time nodes with Theta beyond this are excluded from quadrature
EXP_FLOOR = -746.0  # np.exp is exactly 0.0 at and below this (from about -745.13)
THETA_SAMPLES = 4001  # interior time nodes of theta_bound_check's grid


@dataclass(frozen=True)
class CarlemanParams:
    """Large parameters and geometry constants entering the weights."""

    s: float = 4.0
    gamma: float = 4.0
    lam: float = 4.0
    T: float = 1.0
    m: float = 10.0
    alpha: float = 1.0
    R: float = 1.0

    def __post_init__(self):
        if min(self.s, self.gamma, self.lam) < 1.0:
            raise ValueError("s, gamma, lambda must all be >= 1")
        if self.T <= 0 or self.m <= 0 or self.R <= 0:
            raise ValueError("T, m, R must be positive")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")


def theta(t, T: float):
    """Time blow-up factor [t(T-t)]^-4 on (0, T)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= T):
        raise ValueError("theta has poles at t = 0 and t = T")
    return (t * (T - t)) ** -4.0


def theta_bound_check(T: float) -> dict:
    """Sharpest empirical constants for the derivative bounds of Theta.

    |Theta' Theta| / Theta^(9/4) equals 4|2t - T| exactly (sup 4T), which is
    certified against the stated budget 12T.  |Theta''| / Theta^(3/2) equals
    20(2t-T)^2 + 8t(T-t) exactly; its sup 20T^2 is reported next to the
    looser reference constant 60T + 8T^2, which dominates it only for T <= 5.
    """
    n = THETA_SAMPLES
    t = np.linspace(T / n, T * (1.0 - 1.0 / n), n)
    g = t * (T - t)
    c1 = np.max(np.abs(4.0 * (2.0 * t - T)))           # |Theta' Theta|/Theta^{9/4}
    c2 = np.max(20.0 * (2.0 * t - T) ** 2 + 8.0 * g)   # |Theta''|/Theta^{3/2}
    ref2 = 60.0 * T + 8.0 * T * T
    return {
        "c1": float(c1),
        "c1_closed_form": 4.0 * T,
        "c1_budget": 12.0 * T,
        "c1_ok": bool(c1 <= 12.0 * T + 1e-12),
        "c2": float(c2),
        "c2_closed_form": 20.0 * T * T,
        "c2_reference": ref2,
        "c2_within_reference": bool(c2 <= ref2 + 1e-12),
    }


@dataclass(frozen=True)
class EtaBar:
    """Radial weight (r - 4R)(L - r)^q on the annulus, normalized to max 1.

    Positive inside A_{4R,L}, zero on both bounding circles, with its unique
    critical radius (L + 4qR)/(q + 1) required to fall inside B_{5R} so the
    gradient never vanishes on the closure minus B_{5R} (the outer circle
    itself is a boundary zero of the gradient's tangential data only).
    """

    R: float
    L: float
    exponent: int = 8

    def __post_init__(self):
        if not 4.0 * self.R < self.L:
            raise ValueError("need 4R < L for the annular weight")
        if self.critical_radius >= 5.0 * self.R:
            raise ValueError(
                f"critical radius {self.critical_radius} is not inside B_5R; "
                "increase the exponent so the gradient is nonvanishing there")

    @property
    def critical_radius(self) -> float:
        q = self.exponent
        return (self.L + 4.0 * q * self.R) / (q + 1.0)

    @property
    def _norm(self) -> float:
        rs = self.critical_radius
        return (rs - 4.0 * self.R) * (self.L - rs) ** self.exponent

    def value_radial(self, r):
        r = np.asarray(r, dtype=float)
        return (r - 4.0 * self.R) * (self.L - r) ** self.exponent / self._norm

    def d1_radial(self, r):
        r = np.asarray(r, dtype=float)
        q = self.exponent
        return ((self.L - r) ** (q - 1)
                * ((self.L - r) - q * (r - 4.0 * self.R)) / self._norm)


def fursikov_eta_bar(R: float, L: float, exponent: int = 8) -> EtaBar:
    """Construct the annular weight with the critical-radius placement check."""
    return EtaBar(R=R, L=L, exponent=exponent)


# ---------------------------------------------------------------------------
# inequality balances
# ---------------------------------------------------------------------------

class BalanceContext:
    """Trajectory data shared by every balance of one trajectory.

    A balance term is coef * sum_t tau_t a_t sum_q G_qt c_q exp(Theta_t e_q
    - shift) over the active time rows (0 < Theta <= THETA_CAP) and the
    term's support columns (the midpoints q = 3c + k of its region's cells
    c, of weight |c| / 3): the time weights tau (window folded in), a time
    factor a, a field G with the point weights folded in, a column factor c
    and the exponent profile e, the only factor reading s, gamma or lambda.
    Only balances are cached: G is built per term, on :meth:`growth`'s live
    block when weighted.
    """

    def __init__(self, sol: DiscreteSolution, params: CarlemanParams):
        self.sol = sol
        self.params = params
        self.mesh: Mesh = sol.mesh
        t = sol.times
        th = np.zeros(len(t))
        th[1:-1] = theta(t[1:-1], params.T)
        active = (th > 0.0) & (th <= THETA_CAP)
        if not active.any():
            raise ValueError(f"no time node of T={params.T} has Theta <= "
                             f"THETA_CAP={THETA_CAP:g}: Theta(T/2) = 256/T^8")
        self.excluded = int(np.sum(~active))
        self.rows = np.flatnonzero(active)
        self.theta_t = th[active]
        self.tau = time_weights(t)[active]
        self.tau_window = time_weights(
            t, (params.T / 4.0, 3.0 * params.T / 4.0))[active]
        self._cache: dict = {}

    def columns(self, region: Region):
        """Indices q = 3c + k of the points of the cells c in ``region``."""
        return self.mesh.cached(("quadrature_columns", region), lambda:
                                np.flatnonzero(np.repeat(
                                    self.mesh.cell_mask(region), 3)))

    def radius(self, region: Region, power: float = 1.0):
        """|x|^power on the columns of ``region``."""
        return self.mesh.cached(("quadrature_radius", region, power),
                                lambda: _radii(_at_midpoints(
                                    self.mesh, self.mesh.vertices,
                                    self.columns(region))) ** power)

    def growth(self, e, shift):
        """(live, rows, exp(Theta_t e_q - shift) on that block): column q is
        live when max_t Theta_t e_q - shift > EXP_FLOOR, active row t when
        Theta_t max_live e_q - shift is.  Rounding is monotone and Theta_t >
        0, so a column's max sits at the smallest or largest Theta_t and a
        row's at the largest live e_q: every dropped entry is exactly 0.0."""
        th = self.theta_t
        top = np.maximum(th.min() * e, th.max() * e) - shift
        live = np.flatnonzero(top > EXP_FLOOR)
        rows = np.flatnonzero(th * np.max(e[live], initial=-np.inf) - shift
                              > EXP_FLOOR)
        X = np.multiply.outer(e[live], th[rows]) - shift
        return live, rows, np.exp(X, out=X)

    def integral(self, field, rows, col=None, time=None, window=False):
        """sum_t tau_t time_t sum_q field_qt col_q over the active ``rows``,
        field on (columns, rows) or per row; a factor left out counts 1.
        No BLAS product, so no thread count moves the sums."""
        tau = (self.tau_window if window else self.tau)[rows]
        y = np.einsum("...t,t->...", field,
                      tau if time is None else tau * time[rows])
        return float(y.sum() if col is None else np.einsum("q,q->", col, y))


def _block_field(ctx, kind, q, rows, cutoff):
    """The ``kind`` field on the points q and active ``rows``, built now, the
    point weights |c| / 3 folded in: "u2", "grad2" are v^2, |grad v|^2 for v
    = cutoff * u (u without one); "gsrc2" is g^2 for the commutator source
    g = 2 w grad(cutoff).grad(u) + u div(w grad cutoff), w = |x|^alpha."""
    mesh, f = ctx.mesh, ctx.sol.fields[ctx.rows[rows]].T   # f on (nv, rows)
    if cutoff is not None and kind != "gsrc2":
        f = mesh.cached(("cutoff", cutoff), lambda: cutoff.value(
            mesh.vertices))[:, None] * f
    if kind == "u2":
        g = _at_midpoints(mesh, f, q) ** 2
    elif kind == "grad2":
        gx, gy = _cell_gradient(mesh, f, q // 3)
        g = gx * gx + gy * gy
    else:
        gx, gy = _cell_gradient(mesh, f, q // 3)
        x, weight = _at_midpoints(mesh, mesh.vertices, q), AbsPowerWeight(
            ctx.params.alpha)
        r, kg, w = _radii(x), cutoff.gradient(x), weight(x)
        lap = cutoff.d2_radial(r) + cutoff.d1_radial(r) / np.maximum(r, 1e-300)
        div_wk = np.einsum("qd,qd->q", weight.gradient(x), kg) + w * lap
        g = ((2.0 * w)[:, None] * (kg[:, :1] * gx + kg[:, 1:] * gy)
             + _at_midpoints(mesh, f, q) * div_wk[:, None]) ** 2
    g *= (mesh.areas[q // 3] / 3.0)[:, None]
    return g


def _quadratic_terms(ctx, terms):
    """An unweighted variant's terms on v = cutoff * u, from one mesh-cached
    :meth:`Mesh.pair_forms` pass: v^T A v for each "u2" term's mass A (the
    "grad2" rules add none), in one :meth:`Mesh.quadratic_forms` call, and
    sum_c s_c |grad v|^2 for a "grad2" term's cell sums s (a stiffness form
    cancels signed products), by :func:`_gradient_sums`."""
    mesh, mass = ctx.mesh, [t.kind == "u2" for t in terms]

    def build():
        A = np.zeros((sum(mass), mesh.num_pairs))
        sums, rows = np.zeros((len(terms), mesh.num_cells)), iter(A)
        mesh.pair_forms([(t.col, 0) for t in terms],
                        regions=[t.region for t in terms], cell_sums=sums,
                        pair_sums=[next(rows) if m else None for m in mass])
        return A, sums

    A, sums = mesh.cached(("term_sums", *((t.kind, t.col, t.region)
                                          for t in terms)), build)
    V, cut = ctx.sol.fields[ctx.rows], terms[0].cutoff
    if cut is not None:
        V = V * mesh.cached(("cutoff", cut), lambda: cut.value(mesh.vertices))
    forms, values = iter(mesh.quadratic_forms(A, V)), []
    for t, s in zip(terms, sums):
        form = (next(forms) if t.kind == "u2" else _gradient_sums(
            mesh, V, s, np.flatnonzero(mesh.cell_mask(t.region))))
        values.append(ctx.integral(form, slice(None), None, t.time, t.window))
    return values


def _gradient_sums(mesh, V, s, cells):
    """sum_c s_c |grad v|^2 over ``cells`` for each row v of V.  The cell
    gradients are taken a chunk of cells at a time over every row, into one
    (rows, cells) array of |grad v|^2, each contiguous row then summed by
    einsum, not a BLAS dot: the bits of a gradient taken row by row."""
    sq = np.empty((len(V), len(cells)))
    step = max(1, _CHUNK_POINTS // len(V))
    for start in range(0, len(cells), step):
        gx, gy = _cell_gradient(mesh, V.T, cells[start:start + step])
        gx *= gx
        gy *= gy
        gx += gy
        sq[:, start:start + step] = gx.T
    return np.einsum("nc,c->n", sq, s[cells])


def _shift(theta_t, *profiles):
    """max of Theta_t e_q over the active rows and the profiles' columns:
    rounding is monotone and Theta_t > 0, so the maximum of the products
    sits at the largest e_q times the smallest or largest Theta_t."""
    top = max(float(np.max(e)) for e in profiles)
    return float(max(theta_t.min() * top, theta_t.max() * top))


def _eta0(p: CarlemanParams, radial):
    """gamma (-2 m^(2-alpha) + radial), radial = |x|^(2-alpha) or psi^(2-alpha)."""
    return p.gamma * (-2.0 * p.m ** (2.0 - p.alpha) + radial)


def _ratio(lhs, rhs):
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else float("inf")
    return lhs / rhs


class Term(NamedTuple):
    """One summand of a balance: ``coef`` times the context integral of the
    ``kind`` field on ``region`` with the factors given; kind "boundary" is
    the outer-circle flux term of _boundary_term instead."""

    side: str                              # "lhs" or "rhs"
    name: str
    coef: float
    kind: str                              # "u2", "grad2", "gsrc2", "boundary"
    region: Region | None = None
    cutoff: CutoffFunction | None = None
    col: np.ndarray | AbsPowerWeight | None = None  # or a point weight
    time: np.ndarray | None = None         # on the active rows
    window: bool = False                   # over (T/4, 3T/4) only


def _band(p: CarlemanParams) -> Region:
    return Region.annulus(3.0 * p.R, 6.0 * p.R)


def _xi0_profile(ctx, p: CarlemanParams):
    """e = 2 s eta_0(|x|) on a region's columns: Theta e = 2 s xi_0."""
    return lambda reg: 2.0 * p.s * _eta0(p, ctx.radius(reg, 2.0 - p.alpha))


# Each builder returns a variant's exponent profile (None when unweighted;
# else region -> e on the region's columns) and its terms.

def _thm41(ctx, p: CarlemanParams, weight: RegularizedWeight, eta_bar):
    """u on the disk under e^(2 s xi_eps), xi_eps = Theta eta_0(psi_eps)."""
    s, al, eps, th = p.s, p.alpha, weight.epsilon, ctx.theta_t
    whole, in_eps = Region.whole(), Region.ball(eps)

    def psi_factors():
        r = ctx.radius(whole)
        psi, dpsi = weight.psi(r), np.abs(weight.psi_prime(r))
        return psi ** al * dpsi ** 2, psi ** (2.0 - al) * dpsi ** 4

    def profile(reg):
        radial = ctx.mesh.cached(("psi_radial", weight, al, reg), lambda:
                                 weight.psi(ctx.radius(reg)) ** (2.0 - al))
        return 2.0 * s * _eta0(p, radial)

    grad_col, func_col = ctx.mesh.cached(("psi", weight, al), psi_factors)
    return profile, [
        Term("lhs", "grad", s, "grad2", whole, col=grad_col, time=th),
        Term("lhs", "func", s ** 3, "u2", whole, col=func_col, time=th ** 3),
        Term("rhs", "boundary", s, "boundary"),
        Term("rhs", "remainder_theta3", s ** 2, "u2", in_eps, time=th ** 3),
        Term("rhs", "remainder_eps", eps ** (al - 2.0) * s ** 2, "u2", in_eps,
             time=th)]


def _thm42(ctx, p: CarlemanParams, weight, eta_bar):
    """u on the disk under e^(2 s xi_0), the gradient outside B_R."""
    s, al, th = p.s, p.alpha, ctx.theta_t
    whole, outer = Region.whole(), Region.complement(p.R)
    return _xi0_profile(ctx, p), [
        Term("lhs", "grad_outer", s, "grad2", outer,
             col=ctx.radius(outer, al), time=th),
        Term("lhs", "func", s ** 3, "u2", whole,
             col=ctx.radius(whole, 2.0 - al), time=th ** 3),
        Term("rhs", "boundary", s, "boundary")]


def _thm43(ctx, p: CarlemanParams, weight, eta_bar):
    """zeta u on B_4R, unweighted; the LHS over (T/4, 3T/4)."""
    R, al, zeta = p.R, p.alpha, cutoff_zeta(p.R)
    ring, ball = Region.annulus(R, 4.0 * R), Region.ball(4.0 * R)
    return None, [
        Term("lhs", "grad_B4R_band", 1.0, "grad2", ring, zeta,
             AbsPowerWeight(al), window=True),
        Term("lhs", "func_B4R", 1.0, "u2", ball, zeta,
             AbsPowerWeight(2.0 - al), window=True),
        Term("rhs", "band_mass", 1.0, "u2", _band(p), zeta)]


def _prop1(ctx, p: CarlemanParams, weight, eta_bar):
    """zeta u on B_4R under e^(2 s xi_0)."""
    R, al, th, zeta = p.R, p.alpha, ctx.theta_t, cutoff_zeta(p.R)
    ring, ball = Region.annulus(R, 4.0 * R), Region.ball(4.0 * R)
    return _xi0_profile(ctx, p), [
        Term("lhs", "grad_B4R_band", 1.0, "grad2", ring, zeta,
             ctx.radius(ring, al), th),
        Term("lhs", "func_B4R", 1.0, "u2", ball, zeta,
             ctx.radius(ball, 2.0 - al), th ** 3),
        Term("rhs", "band_mass", 1.0, "u2", _band(p), zeta,
             time=1.0 + th ** 1.25)]


def _thm51(ctx, p: CarlemanParams, weight, eta_bar):
    """u outside B_5R, unweighted; the LHS over (T/4, 3T/4)."""
    al, out = p.alpha, Region.complement(5.0 * p.R)
    return None, [
        Term("lhs", "grad_outer", 1.0, "grad2", out,
             col=AbsPowerWeight(al), window=True),
        Term("lhs", "func_outer", 1.0, "u2", out,
             col=AbsPowerWeight(2.0 - al), window=True),
        Term("rhs", "band_mass", 1.0, "u2", _band(p))]


def _thm61(ctx, p: CarlemanParams, weight, eta_bar: EtaBar | None):
    """kappa u on the annulus under e^(-2 s sigma_bar), xi_bar weights."""
    s, lam, R, th = p.s, p.lam, p.R, ctx.theta_t
    if eta_bar is None:
        eta_bar = fursikov_eta_bar(R, float(
            np.max(np.linalg.norm(ctx.mesh.vertices, axis=1))))
    kappa, outer, band = cutoff_kappa(R), Region.complement(R), _band(p)
    xi = {}                                  # xi_bar / Theta
    for reg in (outer, band):
        ebar = ctx.mesh.cached(("eta_bar", eta_bar, reg),
                               lambda: eta_bar.value_radial(ctx.radius(reg)))
        xi[reg] = np.exp(lam * (8.0 + ebar))
    c3 = s ** 3 * lam ** 4
    # e = -2 s sigma_bar / Theta, sigma_bar = Theta e^(10 lambda) - xi_bar
    return (lambda reg: -2.0 * s * (np.exp(10.0 * lam) - xi[reg])), [
        Term("lhs", "grad", s * lam ** 2, "grad2", outer, kappa, xi[outer], th),
        Term("lhs", "func", c3, "u2", outer, kappa, xi[outer] ** 3, th ** 3),
        Term("rhs", "g_band", 1.0, "gsrc2", outer, kappa),
        Term("rhs", "band_mass", c3, "u2", band, None, xi[band] ** 3, th ** 3)]


def _caccioppoli(ctx, p: CarlemanParams, weight, eta_bar):
    """u on A(4R, 5R) under e^(2 s xi_0)."""
    R, th = p.R, ctx.theta_t
    return _xi0_profile(ctx, p), [
        Term("lhs", "grad_band45", 1.0, "grad2",
             Region.annulus(4.0 * R, 5.0 * R)),
        Term("rhs", "band_mass", 1.0, "u2", _band(p), time=1.0 + th ** 1.25)]


# variant -> (what its balance reads beyond its context's T, alpha, R and
# m, its term builder); a context evaluates one balance per tuple of those
_TABLE = {
    "thm41": (("s", "gamma", "weight", "flux"), _thm41),
    "thm42": (("s", "gamma", "flux"), _thm42),
    "thm43": ((), _thm43),
    "prop1": (("s", "gamma"), _prop1),
    "thm51": ((), _thm51),
    "thm61": (("s", "lam", "eta_bar"), _thm61),
    "caccioppoli": (("s", "gamma"), _caccioppoli),
}
VARIANTS = tuple(_TABLE)


def carleman_balance(sol: DiscreteSolution, params: CarlemanParams,
                     variant: str, weight: RegularizedWeight | None = None,
                     flux: np.ndarray | None = None,
                     eta_bar: EtaBar | None = None,
                     context: BalanceContext | None = None) -> dict:
    """Evaluate both sides of one weighted inequality for a solved trajectory.

    Returns per-term values (constant-free right-hand side), totals, the
    implied constant lhs/rhs, and the exponent shift applied to both sides.
    ``context`` lets parameter sweeps reuse the cached factors and balances
    of one trajectory; it must have been built from the same solution with
    the same T, alpha, R and m, and neither the solution nor ``flux`` may be
    changed in place while it is in use.
    """
    if variant not in _TABLE:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    ctx = BalanceContext(sol, params) if context is None else context
    c = ctx.params
    if ctx.sol is not sol or (c.T, c.alpha, c.R, c.m) != (
            params.T, params.alpha, params.R, params.m):
        raise ValueError("context was built for a different trajectory "
                         "or horizon, alpha, R or m")
    if variant == "thm41" and weight is None:
        raise ValueError("thm41 needs the regularized weight")
    # the calls that agree on what a variant reads share one evaluation; a
    # flux array is keyed by identity, and the entry holds it so that the id
    # stays unique
    given = {**vars(params), "weight": weight, "eta_bar": eta_bar,
             "flux": None if flux is None else id(flux)}
    key = ("balance", variant, *(given[name] for name in _TABLE[variant][0]))
    if key not in ctx._cache:
        ctx._cache[key] = flux, _evaluate(ctx, params, variant, weight, flux,
                                          eta_bar)
    _, res = ctx._cache[key]
    return {**res, "lhs_terms": dict(res["lhs_terms"]),
            "rhs_terms": dict(res["rhs_terms"])}


def _evaluate(ctx, params, variant, weight, flux, eta_bar):
    profile, terms = _TABLE[variant][1](ctx, params, weight, eta_bar)
    shift, values = 0.0, []
    if profile is None:
        values = _quadratic_terms(ctx, terms)
    else:
        # one shift, the max over the union of the supports (a global max
        # would sit near the outer circle and flush the inner terms to zero)
        e = {reg: profile(reg) for reg in dict.fromkeys(
            t.region for t in terms if t.kind != "boundary")}
        shift = _shift(ctx.theta_t, *e.values())
        growth = {reg: ctx.growth(e[reg], shift) for reg in e}
        for t in terms:
            if t.kind == "boundary":
                values.append(_boundary_term(ctx, params, flux, shift))
                continue
            live, rows, g = growth[t.region]
            g = g * _block_field(ctx, t.kind, ctx.columns(t.region)[live],
                                 rows, t.cutoff)
            values.append(ctx.integral(g, rows, None if t.col is None
                                       else t.col[live], t.time, t.window))
    sides = {"lhs": {}, "rhs": {}}
    for t, value in zip(terms, values):
        sides[t.side][t.name] = t.coef * value
    lhs, rhs = (float(sum(sides[side].values())) for side in ("lhs", "rhs"))
    return {"variant": variant, "lhs_terms": sides["lhs"],
            "rhs_terms": sides["rhs"], "lhs": lhs, "rhs": rhs,
            "implied_C": _ratio(lhs, rhs), "exponent_shift": shift,
            "excluded_time_nodes": ctx.excluded}


def _boundary_term(ctx, p: CarlemanParams, flux, shift):
    """int Theta |x|^alpha (d_nu u)^2 (x . nu) e^(2 s xi_0 - shift) on the
    outer circle (psi = |x| there), the flux averaged onto each edge."""
    E, lengths = ctx.mesh.boundary_edge_average()

    def edges():
        mids = ctx.mesh.vertices[ctx.mesh.boundary_edges].mean(axis=1)
        # the normal is radial, so x . nu = |x| at each edge midpoint
        rb = _radii(mids)
        return rb ** (2.0 - p.alpha), rb ** p.alpha * rb * lengths

    radial, col = ctx.mesh.cached(("boundary_radii", p.alpha), edges)
    live, rows, values = ctx.growth(2.0 * p.s * _eta0(p, radial), shift)
    if flux is None:
        flux = boundary_flux(ctx.sol)
    fl = E[live] @ flux[ctx.rows[rows]].T   # flux on the live block
    return ctx.integral(fl * fl * values, rows, col[live], ctx.theta_t)
