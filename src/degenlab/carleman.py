"""Carleman weight functions and numerical instantiation of the estimates.

Houses the time factor Theta(t) = [t(T-t)]^-4, the negative spatial profiles
eta/xi (regularized and exact-weight variants), the positive annular weight
eta_bar with its exponential lifts xi_bar/sigma_bar, and evaluators that
integrate both sides of each weighted inequality for a discrete solution.

A BalanceContext caches the parameter-free factors of each balance term on
its support, so a parameter point costs one exp per support region and one
multiply-reduce per term.  The exponential factors span thousands of orders
of magnitude, so every balance subtracts a single exponent shift before
exponentiating; the shift multiplies both sides identically and leaves the
implied constant unchanged, while raw inf/sup certificates are reported in
log scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Mesh, Region
from .solver import DiscreteSolution, boundary_flux
from .weights import CutoffFunction, RegularizedWeight, cutoff_kappa, cutoff_zeta

THETA_CAP = 1e16  # time nodes with Theta beyond this are excluded from quadrature


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


def theta_bound_check(T: float, n: int = 4001) -> dict:
    """Sharpest empirical constants for the derivative bounds of Theta.

    |Theta' Theta| / Theta^(9/4) equals 4|2t - T| exactly (sup 4T), which is
    certified against the stated budget 12T.  |Theta''| / Theta^(3/2) equals
    20(2t-T)^2 + 8t(T-t) exactly; its sup 20T^2 is reported next to the
    looser reference constant 60T + 8T^2, which dominates it only for T <= 5.
    """
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


def eta_xi(x, t, params: CarlemanParams,
           weight: RegularizedWeight | None = None) -> dict:
    """Spatial profile eta = gamma(-2 m^(2-a) + psi^(2-a)) and xi = Theta eta.

    ``weight`` selects the regularized psi; None uses psi = |x| (the exact
    variant entering xi_0).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=1)
    psi = weight.psi(r) if weight is not None else r
    eta = _eta0(params, psi ** (2.0 - params.alpha))
    return {"eta": eta, "xi": theta(t, params.T) * eta}


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

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.value_radial(np.linalg.norm(x, axis=1))

    def gradient(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        safe = np.maximum(r, 1e-300)
        return (self.d1_radial(r) / safe)[:, None] * x

    @property
    def sup(self) -> float:
        return 1.0


def fursikov_eta_bar(R: float, L: float, exponent: int = 8) -> EtaBar:
    """Construct the annular weight with the critical-radius placement check."""
    return EtaBar(R=R, L=L, exponent=exponent)


def xi_sigma_bar(x, t, params: CarlemanParams, eta_bar: EtaBar) -> dict:
    """xi_bar = Theta e^(lambda(8|eta|_inf + eta)), sigma_bar = Theta e^(10 lambda |eta|_inf) - xi_bar."""
    th = theta(t, params.T)
    e = eta_bar.value(x)
    xi_b = th * np.exp(params.lam * (8.0 * eta_bar.sup + e))
    sig = th * np.exp(10.0 * params.lam * eta_bar.sup) - xi_b
    return {"xi_bar": xi_b, "sigma_bar": sig}


@dataclass(frozen=True)
class CarlemanWeightSet:
    """Bundle of every weight evaluator for a fixed parameter point."""

    params: CarlemanParams
    weight: RegularizedWeight | None = None
    eta_bar: EtaBar | None = None

    def theta(self, t):
        return theta(t, self.params.T)

    def eta(self, x):
        return eta_xi(x, 0.5 * self.params.T, self.params, self.weight)["eta"]

    def xi(self, x, t):
        return eta_xi(x, t, self.params, self.weight)["xi"]

    def xi_bar(self, x, t):
        return xi_sigma_bar(x, t, self.params, self.eta_bar)["xi_bar"]

    def sigma_bar(self, x, t):
        return xi_sigma_bar(x, t, self.params, self.eta_bar)["sigma_bar"]


def weight_window_bounds(params: CarlemanParams, L: float,
                         n_space: int = 400, n_time: int = 800) -> dict:
    """Log-scale inf/sup certificates for Theta^3 e^(2 s xi_0).

    The raw values underflow for any realistic parameters, so the inf over
    Omega x (T/4, 3T/4) and the sup over Q are certified through
    log(Theta^3 e^(2 s xi_0)) = 3 log Theta + 2 s xi_0, using monotonicity of
    Theta on each half-interval (the window extrema sit on the window edge or
    at T/2).
    """
    T = params.T
    r = np.linspace(0.0, L, n_space)
    eta = _eta0(params, r ** (2.0 - params.alpha))
    t = np.linspace(T / n_time, T * (1.0 - 1.0 / n_time), n_time)
    th = theta(t, T)
    logv = 3.0 * np.log(th)[None, :] + 2.0 * params.s * eta[:, None] * th[None, :]
    in_window = (t >= T / 4.0) & (t <= 3.0 * T / 4.0)
    return {
        "log_inf_window": float(np.min(logv[:, in_window])),
        "log_sup_Q": float(np.max(logv)),
        "inf_window_positive": bool(np.isfinite(np.min(logv[:, in_window]))),
        "sup_Q_finite": bool(np.isfinite(np.max(logv))),
    }


# ---------------------------------------------------------------------------
# inequality balances
# ---------------------------------------------------------------------------

VARIANTS = ("thm41", "thm42", "thm43", "prop1", "thm51", "thm61", "caccioppoli")

# the large parameters each variant's balance reads (its context fixes T,
# alpha, R and m); a context evaluates one balance per distinct tuple of them
PARAMS_READ = {"thm41": ("s", "gamma"), "thm42": ("s", "gamma"),
               "thm43": (), "prop1": ("s", "gamma"), "thm51": (),
               "thm61": ("s", "lam"), "caccioppoli": ("s", "gamma")}


class BalanceContext:
    """Parameter-free factors shared by every balance of one trajectory.

    A balance term is coef * sum_t tau_t a_t sum_q G_tq c_q exp(Theta_t e_q
    - shift) over the active time rows (0 < Theta <= THETA_CAP) and the
    term's support columns (the quadrature points of its region's cells):
    trapezoid weights tau (window folded in), a time factor a, a field G with
    the quadrature weights folded in, a column factor c and the exponent
    profile e, the only factor that reads s, gamma or lambda.
    """

    def __init__(self, sol: DiscreteSolution, params: CarlemanParams):
        self.sol = sol
        self.params = params
        self.mesh: Mesh = sol.mesh
        self.qp = self.mesh.quadrature()
        t = sol.times
        th = np.zeros(len(t))
        th[1:-1] = theta(t[1:-1], params.T)
        active = (th > 0.0) & (th <= THETA_CAP)
        self.excluded = int(np.sum(~active))
        self.rows = np.flatnonzero(active)
        self.theta_t = th[active]
        window = ((t >= params.T / 4.0 - 1e-12)
                  & (t <= 3.0 * params.T / 4.0 + 1e-12))
        tau_window = np.zeros(len(t))
        tau_window[window] = _trapezoid_weights(t[window])
        self.tau = _trapezoid_weights(t)[active]
        self.tau_window = tau_window[active]
        self._cache: dict = {}

    def cached(self, key, build):
        """``build()``, once per key; the key names what it reads beyond T, alpha, R, m."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def columns(self, region: Region):
        """Indices of the quadrature points whose cell lies in ``region``."""
        return self.cached(("columns", region), lambda: np.flatnonzero(
            self.mesh.cell_mask(region)[self.qp.cell]))

    def radius(self, region: Region, power: float = 1.0):
        """|x|^power on the columns of ``region``."""
        return self.cached(("radius", region, power), lambda: np.linalg.norm(
            self.qp.points[self.columns(region)], axis=1) ** power)

    def field(self, kind: str, region: Region,
              cutoff: CutoffFunction | None = None):
        """G on (active rows, columns of ``region``), C-contiguous, cached.

        "u2" and "grad2" are v^2 and |grad v|^2 for v = cutoff * u (v = u
        without a cutoff); "gsrc2" is g^2 for the commutator source
        g = 2 w grad(cutoff).grad(u) + u div(w grad cutoff), w = |x|^alpha.
        """
        key = ("field", kind, region, cutoff)
        if key in self._cache:
            return self._cache[key]
        cols = self.columns(region)
        f = self.sol.fields[self.rows].T                  # (nv, active rows)
        if cutoff is not None and kind != "gsrc2":
            f = cutoff.value(self.mesh.vertices)[:, None] * f
        if kind != "grad2":
            u = (self.mesh.interpolation()[cols] @ f).T
        if kind != "u2":
            grad = self.mesh.gradient_operator()
            cells = self.qp.cell[cols]
            gx = (grad[cells] @ f).T
            gy = (grad[cells + self.mesh.num_cells] @ f).T
        if kind == "u2":
            g = u * u
        elif kind == "grad2":
            g = gx * gx + gy * gy
        else:
            x = self.qp.points[cols]
            al = self.params.alpha
            r = np.linalg.norm(x, axis=1)
            r_safe = np.maximum(r, 1e-300)
            kg = cutoff.gradient(x)
            lap = cutoff.d2_radial(r) + cutoff.d1_radial(r) / r_safe
            w = r ** al
            div_wk = (np.einsum("qd,qd->q", (al * r_safe ** (al - 2.0))[:, None] * x, kg)
                      + w * lap)
            g = (2.0 * w * (kg[:, 0] * gx + kg[:, 1] * gy) + u * div_wk) ** 2
        G = self._cache[key] = np.ascontiguousarray(g * self.qp.weights[cols])
        return G

    def growth(self, e, shift):
        """exp(Theta_t e_q - shift) on the active rows."""
        X = np.multiply.outer(self.theta_t, e)
        X -= shift
        return np.exp(X, out=X)

    def integral(self, field, col=None, time=None, growth=None, window=False):
        """sum_t tau_t time_t sum_q field_tq growth_tq col_q; a factor left
        out counts 1."""
        y = field if growth is None else field * growth
        y = y.sum(axis=1) if col is None else y @ col
        tau = self.tau_window if window else self.tau
        return float((tau if time is None else tau * time) @ y)


def _trapezoid_weights(t):
    """tau with tau @ y equal to the trapezoid rule of y over the nodes t."""
    half = np.diff(t) / 2.0
    tau = np.zeros(len(t))
    tau[:-1] += half
    tau[1:] += half
    return tau


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
    if lhs == 0.0 and rhs == 0.0:
        return 0.0
    if rhs == 0.0:
        return float("inf")
    return lhs / rhs


def carleman_balance(sol: DiscreteSolution, params: CarlemanParams,
                     variant: str, weight: RegularizedWeight | None = None,
                     flux: np.ndarray | None = None,
                     eta_bar: EtaBar | None = None,
                     remainder_prefactor: str = "s2",
                     context: BalanceContext | None = None) -> dict:
    """Evaluate both sides of one weighted inequality for a solved trajectory.

    Returns per-term values (constant-free right-hand side), totals, the
    implied constant lhs/rhs, and the exponent shift applied to both sides.
    ``context`` lets parameter sweeps reuse the cached factors and balances
    of one trajectory; it must have been built from the same solution with
    the same T, alpha, R and m, and neither the solution nor ``flux`` may be
    changed in place while it is in use.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    ctx = BalanceContext(sol, params) if context is None else context
    c = ctx.params
    if ctx.sol is not sol or (c.T, c.alpha, c.R, c.m) != (
            params.T, params.alpha, params.R, params.m):
        raise ValueError("context was built for a different trajectory "
                         "or horizon, alpha, R or m")
    if variant == "thm41" and weight is None:
        raise ValueError("thm41 needs the regularized weight")
    # a balance reads only its variant's parameters, so the rows of a sweep
    # that agree on them share one evaluation; a flux array is keyed by
    # identity, and the entry holds it so that the id stays unique
    reads = tuple(getattr(params, name) for name in PARAMS_READ[variant])
    key = ("balance", variant, reads, weight, eta_bar, remainder_prefactor,
           None if flux is None else id(flux))
    _, res = ctx.cached(key, lambda: (flux, _evaluate(
        ctx, params, variant, weight, flux, eta_bar, remainder_prefactor)))
    return {**res, "lhs_terms": dict(res["lhs_terms"]),
            "rhs_terms": dict(res["rhs_terms"])}


def _evaluate(ctx, params, variant, weight, flux, eta_bar, remainder_prefactor):
    if variant in ("thm41", "thm42") and flux is None:
        flux = boundary_flux(ctx.sol)
    if variant == "thm41":
        terms = _balance_thm41(ctx, params, weight, flux, remainder_prefactor)
    elif variant == "thm42":
        terms = _balance_thm42(ctx, params, flux)
    elif variant == "thm61":
        terms = _balance_thm61(ctx, params, eta_bar)
    elif variant in ("prop1", "caccioppoli"):
        terms = _balance_ball(ctx, params, variant)
    else:
        terms = _balance_unweighted(ctx, params, variant)
    lhs_terms, rhs_terms, shift = terms
    lhs = float(sum(lhs_terms.values()))
    rhs = float(sum(rhs_terms.values()))
    return {"variant": variant, "lhs_terms": lhs_terms, "rhs_terms": rhs_terms,
            "lhs": lhs, "rhs": rhs, "implied_C": _ratio(lhs, rhs),
            "exponent_shift": shift, "excluded_time_nodes": ctx.excluded}


def _balance_unweighted(ctx, p: CarlemanParams, variant):
    """thm43 (zeta u on B_4R) and thm51 (u outside B_5R); LHS over (T/4, 3T/4)."""
    R, al = p.R, p.alpha
    if variant == "thm43":
        cut, names = cutoff_zeta(R), ("grad_B4R_band", "func_B4R")
        grad_reg, func_reg = Region.annulus(R, 4.0 * R), Region.ball(4.0 * R)
    else:
        cut, names = None, ("grad_outer", "func_outer")
        grad_reg = func_reg = Region.complement(5.0 * R)
    lhs_terms = {
        names[0]: ctx.integral(ctx.field("grad2", grad_reg, cut),
                               ctx.radius(grad_reg, al), window=True),
        names[1]: ctx.integral(ctx.field("u2", func_reg, cut),
                               ctx.radius(func_reg, 2.0 - al), window=True),
    }
    band = Region.annulus(3.0 * R, 6.0 * R)
    return lhs_terms, {"band_mass": ctx.integral(ctx.field("u2", band, cut))}, 0.0


def _balance_ball(ctx, p: CarlemanParams, variant):
    """prop1 (zeta u) and caccioppoli (u) under e^(2 s xi_0), xi_0 = Theta eta_0."""
    R, al, th = p.R, p.alpha, ctx.theta_t
    band, ring45 = Region.annulus(3.0 * R, 6.0 * R), Region.annulus(4.0 * R, 5.0 * R)
    ring, ball = Region.annulus(R, 4.0 * R), Region.ball(4.0 * R)
    cut = cutoff_zeta(R) if variant == "prop1" else None
    regions = (ring, ball, band) if variant == "prop1" else (ring45, band)
    e = [2.0 * p.s * _eta0(p, ctx.radius(reg, 2.0 - al)) for reg in regions]
    # one shift on the union of both sides' regions; a global max would sit
    # near the outer boundary and flush every integrand to zero
    shift = _shift(th, *e)
    X = [ctx.growth(ei, shift) for ei in e]
    if variant == "prop1":
        lhs_terms = {
            "grad_B4R_band": ctx.integral(ctx.field("grad2", ring, cut),
                                          ctx.radius(ring, al), th, X[0]),
            "func_B4R": ctx.integral(ctx.field("u2", ball, cut),
                                     ctx.radius(ball, 2.0 - al), th ** 3, X[1]),
        }
    else:
        lhs_terms = {"grad_band45": ctx.integral(ctx.field("grad2", ring45),
                                                 growth=X[0])}
    rhs_terms = {"band_mass": ctx.integral(ctx.field("u2", band, cut),
                                           time=1.0 + th ** 1.25, growth=X[-1])}
    return lhs_terms, rhs_terms, shift


def _balance_thm61(ctx, p: CarlemanParams, eta_bar: EtaBar | None):
    """kappa u on the annulus under e^(-2 s sigma_bar), xi_bar weights."""
    s, lam, R, th = p.s, p.lam, p.R, ctx.theta_t
    if eta_bar is None:
        eta_bar = fursikov_eta_bar(R, float(
            np.max(np.linalg.norm(ctx.mesh.vertices, axis=1))))
    kappa = cutoff_kappa(R)
    outer, band = Region.complement(R), Region.annulus(3.0 * R, 6.0 * R)
    xi, e = {}, {}
    for reg in (outer, band):
        ebar = ctx.cached(("eta_bar", eta_bar, reg),
                          lambda: eta_bar.value_radial(ctx.radius(reg)))
        xi[reg] = np.exp(lam * (8.0 + ebar))                # xi_bar / Theta
        e[reg] = -2.0 * s * (np.exp(10.0 * lam) - xi[reg])  # sigma_bar / Theta
    shift = _shift(th, e[outer])
    Xo, Xb = ctx.growth(e[outer], shift), ctx.growth(e[band], shift)
    c3 = s ** 3 * lam ** 4
    lhs_terms = {
        "grad": s * lam ** 2 * ctx.integral(ctx.field("grad2", outer, kappa),
                                            xi[outer], th, Xo),
        "func": c3 * ctx.integral(ctx.field("u2", outer, kappa),
                                  xi[outer] ** 3, th ** 3, Xo),
    }
    rhs_terms = {
        "g_band": ctx.integral(ctx.field("gsrc2", outer, kappa), growth=Xo),
        "band_mass": c3 * ctx.integral(ctx.field("u2", band), xi[band] ** 3,
                                       th ** 3, Xb),
    }
    return lhs_terms, rhs_terms, shift


def _boundary_term(ctx, p: CarlemanParams, flux, shift):
    """s int Theta |x|^alpha (d_nu u)^2 (x . nu) e^(2 s xi_0 - shift) on the
    outer circle (psi = |x| there), the flux averaged onto each edge."""
    E, lengths = ctx.mesh.boundary_edge_average()

    def edges():
        mesh = ctx.mesh
        e = mesh.boundary_edges
        mids = 0.5 * (mesh.vertices[e[:, 0]] + mesh.vertices[e[:, 1]])
        rb = np.linalg.norm(mids, axis=1)
        xnu = np.einsum("ed,ed->e", mids, mesh.boundary_edge_normals())
        return rb ** (2.0 - p.alpha), rb ** p.alpha * xnu * lengths

    radial, col = ctx.cached(("boundary",), edges)
    fl = (E @ flux[ctx.rows].T).T   # flux on the edges
    e = 2.0 * p.s * _eta0(p, radial)
    return p.s * ctx.integral(fl * fl, col, ctx.theta_t, ctx.growth(e, shift))


def _balance_thm41(ctx, p: CarlemanParams, weight: RegularizedWeight, flux,
                   remainder_prefactor):
    s, al, eps, th = p.s, p.alpha, weight.epsilon, ctx.theta_t
    whole, in_eps = Region.whole(), Region.ball(eps)

    def psi_factors():
        r = ctx.radius(whole)
        psi, dpsi = weight.psi(r), np.abs(weight.psi_prime(r))
        return (psi ** (2.0 - al), psi ** al * dpsi ** 2,
                psi ** (2.0 - al) * dpsi ** 4)

    radial, grad_col, func_col = ctx.cached(("psi", weight), psi_factors)
    e = 2.0 * s * _eta0(p, radial)
    shift = _shift(th, e)
    X = ctx.growth(e, shift)
    lhs_terms = {
        "grad": s * ctx.integral(ctx.field("grad2", whole), grad_col, th, X),
        "func": s ** 3 * ctx.integral(ctx.field("u2", whole), func_col,
                                      th ** 3, X),
    }
    # the columns of the whole domain are 0..nq-1, so X indexes by point
    Xe = X[:, ctx.columns(in_eps)]
    u2 = ctx.field("u2", in_eps)
    pre = s ** 2 if remainder_prefactor == "s2" else s
    rhs_terms = {
        "boundary": _boundary_term(ctx, p, flux, shift),
        "remainder_theta3": pre * ctx.integral(u2, time=th ** 3, growth=Xe),
        "remainder_eps": eps ** (al - 2.0) * pre * ctx.integral(u2, time=th, growth=Xe),
    }
    return lhs_terms, rhs_terms, shift


def _balance_thm42(ctx, p: CarlemanParams, flux):
    s, al, th = p.s, p.alpha, ctx.theta_t
    whole, outer = Region.whole(), Region.complement(p.R)
    e = 2.0 * s * _eta0(p, ctx.radius(whole, 2.0 - al))
    shift = _shift(th, e)
    X = ctx.growth(e, shift)
    lhs_terms = {   # X indexes by point, as in thm41
        "grad_outer": s * ctx.integral(ctx.field("grad2", outer), ctx.radius(outer, al),
                                       th, X[:, ctx.columns(outer)]),
        "func": s ** 3 * ctx.integral(ctx.field("u2", whole),
                                      ctx.radius(whole, 2.0 - al), th ** 3, X),
    }
    return lhs_terms, {"boundary": _boundary_term(ctx, p, flux, shift)}, shift
