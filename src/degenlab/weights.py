"""Degenerate weight |x|^alpha, its quartic regularization, and radial cutoffs.

The regularized profile replaces r -> |r| by a quartic polynomial inside the
ball of radius ``epsilon`` so that the weight ``psi(|x|)^alpha`` is C^{2,1}
with explicit first and second radial derivatives.  The spatial weights
|x|^p (:class:`AbsPowerWeight`) and psi_eps^alpha (:class:`RegularizedWeight`)
are frozen values called on point arrays, with a ``gradient`` and the
``quadrature_radius`` within which their integrals need the refined rule;
:func:`as_weight` maps every public spelling of a weight onto them.
Everything here is closed form; no quadrature except the Muckenhoupt
constant estimator at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a cube average comes out non-finite (under-resolved weight)."""


# ---------------------------------------------------------------------------
# regularized radial profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizedWeight:
    """The family w_eps(x) = psi_eps(|x|)^alpha.

    psi_eps is the quartic 3e/8 + 3r^2/(4e) - r^4/(8e^3) on [0, e] and r
    outside, matched so that value, first and second derivatives are
    continuous at r = e.  Its global minimum is psi_eps(0) = 3e/8.
    """

    epsilon: float
    alpha: float

    def __post_init__(self):
        check_epsilon(self.epsilon)
        _check_alpha(self.alpha)

    @property
    def quadrature_radius(self) -> float:
        """The weight bends within the ball of radius epsilon; its cells
        take the refined rule out to twice that."""
        return 2.0 * self.epsilon

    # -- scalar radial calculus ---------------------------------------------

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        e = self.epsilon
        return self._inside(r, r, lambda q: 3.0 * e / 8.0
                            + 3.0 * q**2 / (4.0 * e) - q**4 / (8.0 * e**3))

    def psi_prime(self, r):
        r = np.asarray(r, dtype=float)
        e = self.epsilon
        return self._inside(r, 1.0, lambda q: 3.0 * q / (2.0 * e)
                            - q**3 / (2.0 * e**3))

    def psi_second(self, r):
        r = np.asarray(r, dtype=float)
        e = self.epsilon
        return self._inside(r, 0.0, lambda q: 3.0 / (2.0 * e)
                            - 3.0 * q**2 / (2.0 * e**3))

    def _inside(self, r, outer, inner):
        """``np.where(r <= epsilon, inner(r), outer)``, the polynomial
        ``inner`` evaluated only at the radii where it is taken."""
        inside = r <= self.epsilon
        out = np.where(inside, 0.0, outer)
        out[inside] = inner(r[inside])
        return out

    # -- the weight itself --------------------------------------------------

    def __call__(self, x):
        """w_eps(x) = psi_eps(|x|)^alpha; accepts (..., dim) arrays."""
        x = np.asarray(x, dtype=float)
        # |x| as np.linalg.norm gives it, without its (..., dim) square
        r = np.sqrt(np.einsum("...d,...d->...", x, x))
        return self.psi(r) ** self.alpha

    def gradient(self, x):
        """grad w_eps = alpha psi^(alpha-1) grad psi, vectorized over points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=-1)
        e = self.epsilon
        psi = self.psi(r)
        # radial factor g(r) with grad psi = g(r) * x
        g_in = 3.0 / (2.0 * e) - r**2 / (2.0 * e**3)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_out = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
        g = np.where(r <= e, g_in, g_out)
        scale = self.alpha * psi ** (self.alpha - 1.0) * g
        return scale[..., None] * x


@dataclass(frozen=True)
class AbsPowerWeight:
    """The weight |x|^p on (n, dim) point arrays, as a value: equal p, equal
    weights, so it can key the mesh's caches.  Its integrals need no refined
    rule beyond what the caller asks for."""

    p: float
    quadrature_radius = 0.0

    def __call__(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        return np.power(np.einsum("nd,nd->n", x, x), 0.5 * self.p)

    def gradient(self, points) -> np.ndarray:
        """p |x|^(p-2) x, with |x| floored at 1e-300."""
        x = np.asarray(points, dtype=float)
        r = np.maximum(np.linalg.norm(x, axis=-1), 1e-300)
        return (self.p * r ** (self.p - 2.0))[..., None] * x


def check_epsilon(epsilon, name="epsilon"):
    """psi_eps divides by eps^3, so its cube must be a normal float."""
    if not epsilon >= np.finfo(float).tiny ** (1.0 / 3.0):
        raise ValueError(f"{name} must be at least finfo.tiny^(1/3) = "
                         f"2.813e-103, got {epsilon!r}")


def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def as_weight(weight):
    """The spatial weight that ``weight`` names.

    None (unweighted) stays None, a real alpha in (0, 2) is the exact weight
    ``AbsPowerWeight(alpha)``, and a weight object passes through.
    """
    if weight is None or isinstance(weight,
                                    (AbsPowerWeight, RegularizedWeight)):
        return weight
    if isinstance(weight, Real) and not isinstance(weight, bool):
        _check_alpha(weight)
        return AbsPowerWeight(float(weight))
    raise TypeError(f"weight must be None, a float alpha or a weight value "
                    f"(a frozen dataclass called on point arrays), got "
                    f"{weight!r}")


def identity_residuals(weight: RegularizedWeight, x):
    """Residuals of the three closed-form identities of the quartic profile on B_eps.

    r1: psi * (3/(2e) - |x|^2/(2e^3)) - |grad psi|^2
            = 3/(16 e^6) (e^2-|x|^2)^2 (3e^2-|x|^2)
    r2: (3/(2e) - |x|^2/(2e^3))^2 - psi/e^3
            = 3/(8 e^6) (e^2-|x|^2) (5e^2-|x|^2)
    r3: psi - x . grad psi = 3/(8 e^3) (e^2-|x|^2)^2
    """
    x = np.asarray(x, dtype=float)
    e = weight.epsilon
    r2 = float(np.dot(x, x))
    if r2 > e * e * (1.0 + 1e-14):
        raise ValueError("identities are stated on the ball |x| <= epsilon")
    a = 3.0 / (2.0 * e) - r2 / (2.0 * e**3)
    psi = 3.0 * e / 8.0 + 3.0 * r2 / (4.0 * e) - r2 * r2 / (8.0 * e**3)
    grad_sq = a * a * r2
    res1 = (psi * a - grad_sq) - 3.0 / (16.0 * e**6) * (e * e - r2) ** 2 * (3.0 * e * e - r2)
    res2 = (a * a - psi / e**3) - 3.0 / (8.0 * e**6) * (e * e - r2) * (5.0 * e * e - r2)
    res3 = (psi - a * r2) - 3.0 / (8.0 * e**3) * (e * e - r2) ** 2
    return {"r1": res1, "r2": res2, "r3": res3}


# ---------------------------------------------------------------------------
# Muckenhoupt constant estimation over a cube family
# ---------------------------------------------------------------------------

@dataclass
class CubeFamily:
    """Axis-aligned squares used to probe the A_p product bound.

    A dyadic hierarchy over the box [-half, half]^2 plus ``random_per_level``
    uniformly placed squares per level.  Random squares concentrate nothing in
    particular; the dyadic ones concentrate near the origin where the constant
    is extremal.
    """

    half: float
    levels: int = 3
    random_per_level: int = 64
    seed: int = 0
    centers: np.ndarray = field(init=False, repr=False)
    half_sides: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        centers, halves = [], []
        for lev in range(1, self.levels + 1):
            n = 2**lev
            side = 2.0 * self.half / n
            h = side / 2.0
            ticks = -self.half + h + side * np.arange(n)
            cx, cy = np.meshgrid(ticks, ticks, indexing="ij")
            centers.append(np.column_stack([cx.ravel(), cy.ravel()]))
            halves.append(np.full(n * n, h))
            # random squares of the same scale, kept inside the box
            rc = rng.uniform(-self.half + h, self.half - h, size=(self.random_per_level, 2))
            centers.append(rc)
            halves.append(np.full(self.random_per_level, h))
        self.centers = np.concatenate(centers)
        self.half_sides = np.concatenate(halves)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)


def _cube_average(fn, center, half, subdivide: int) -> float:
    """Tensor Gauss average of fn over the square, optionally on a sub-grid."""
    pts_w = []
    n = subdivide
    sub = half / n
    for i in range(n):
        for j in range(n):
            cx = center[0] - half + (2 * i + 1) * sub
            cy = center[1] - half + (2 * j + 1) * sub
            gx = cx + sub * _GAUSS_X
            gy = cy + sub * _GAUSS_X
            X, Y = np.meshgrid(gx, gy, indexing="ij")
            W = np.outer(_GAUSS_W, _GAUSS_W) * sub * sub
            pts_w.append((np.column_stack([X.ravel(), Y.ravel()]), W.ravel()))
    total = 0.0
    area = (2.0 * half) ** 2
    for pts, w in pts_w:
        total += float(np.dot(w, fn(pts)))
    return total / area


def ap_constant_estimate(weight_fn, p: float, cubes: CubeFamily,
                         singular_radius: float = 0.0) -> float:
    """sup over the family of (avg w) (avg w^{-1/(p-1)})^{p-1}.

    ``weight_fn`` maps an (n, 2) array of points to weight values.  Cubes that
    come within ``singular_radius`` of the origin get a 4x4 subdivision since
    the weight varies fastest there.  The estimate is >= 1 for any weight by
    Jensen; a constant weight gives exactly 1.
    """
    if p <= 1.0:
        raise ValueError("A_p constant requires p > 1")
    q = 1.0 / (p - 1.0)
    best = 1.0
    for center, half in zip(cubes.centers, cubes.half_sides):
        near = np.max(np.abs(center)) - half <= singular_radius
        touches_origin = np.max(np.abs(center)) <= half
        sub = 4 if (near or touches_origin) else 1
        avg_w = _cube_average(weight_fn, center, half, sub)
        avg_winv = _cube_average(lambda x: weight_fn(x) ** (-q), center, half, sub)
        val = avg_w * avg_winv ** (p - 1.0)
        if not np.isfinite(val):
            raise QuadratureError(
                f"non-finite cube average at center={center}, half={half}; "
                "weight blow-up under-resolved")
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# smooth radial cutoffs
# ---------------------------------------------------------------------------

CUTOFF_SAMPLES = 4000  # radii of CutoffFunction.measured_constants' grid

def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _smoothstep_d1(t):
    t = np.clip(t, 0.0, 1.0)
    return 30.0 * t**2 * (1.0 - t) ** 2


def _smoothstep_d2(t):
    t = np.clip(t, 0.0, 1.0)
    return 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)


@dataclass(frozen=True)
class CutoffFunction:
    """Radial C^2 cutoff built from a quintic smoothstep on [inner, outer].

    orientation "one-inside": 1 on the inner plateau, 0 outside.
    orientation "one-outside": 0 on the inner plateau, 1 outside; value and
    gradient both vanish at the inner radius.
    """

    inner_radius: float
    outer_radius: float
    orientation: str = "one-inside"

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError("need 0 < inner_radius < outer_radius")
        if self.orientation not in ("one-inside", "one-outside"):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def band(self) -> float:
        return self.outer_radius - self.inner_radius

    def _t(self, r):
        return (np.asarray(r, dtype=float) - self.inner_radius) / self.band

    def value_radial(self, r):
        t = self._t(r)
        if self.orientation == "one-outside":
            return _smoothstep(t)
        return 1.0 - _smoothstep(t)

    def d1_radial(self, r):
        s = 1.0 if self.orientation == "one-outside" else -1.0
        return s * _smoothstep_d1(self._t(r)) / self.band

    def d2_radial(self, r):
        s = 1.0 if self.orientation == "one-outside" else -1.0
        return s * _smoothstep_d2(self._t(r)) / self.band**2

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.value_radial(np.linalg.norm(x, axis=-1))

    def gradient(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=-1)
        safe = np.where(r > 0, r, 1.0)
        return (self.d1_radial(r) / safe)[..., None] * x

    def measured_constants(self) -> dict:
        """Dense radial sampling (``CUTOFF_SAMPLES`` radii) of sup|grad| and
        sup|hess entry| on the band, scaled by band width and width^2
        respectively."""
        r = np.linspace(self.inner_radius, self.outer_radius, CUTOFF_SAMPLES)
        g = np.abs(self.d1_radial(r))
        h = np.maximum(np.abs(self.d2_radial(r)),
                       np.abs(self.d1_radial(r)) / np.maximum(r, 1e-300))
        return {
            "grad_constant": float(np.max(g) * self.band),
            "hess_constant": float(np.max(h) * self.band**2),
        }


def cutoff_zeta(R: float) -> CutoffFunction:
    """1 on B_{4R}, 0 outside B_{5R}."""
    return CutoffFunction(4.0 * R, 5.0 * R, "one-inside")


def cutoff_kappa(R: float) -> CutoffFunction:
    """0 (with zero gradient) on B_{4R}, 1 outside B_{5R}."""
    return CutoffFunction(4.0 * R, 5.0 * R, "one-outside")


def cutoff_rho(R: float) -> CutoffFunction:
    """1 on B_{5R} (hence on the 4R..5R annulus), 0 outside B_{6R}."""
    return CutoffFunction(5.0 * R, 6.0 * R, "one-inside")
