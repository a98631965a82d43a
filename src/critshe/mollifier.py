"""Mollifier profiles and the coupling-constant bookkeeping.

The noise-smoothing kernel is a radial bump phi in C_c^infty(R^2) with unit
mass; its self-convolution Phi = phi * phi is the pair-correlation profile
that governs the regularized delta potential delta_eps(x) = eps^-2
Phi(x/eps).  Three derived constants feed the rest of the package:

* the log-moment functional

      beta_phi = int_{R^4} Phi(x) log|x - x'| Phi(x') dx dx'
               = int_{R^2} (Phi * Phi)(u) log|u| du,

  reduced to a one-dimensional radial integral with a dyadically graded mesh
  absorbing the log singularity at u = 0;
* the coupling schedule beta_eps = 2 pi/|log eps| + 2 pi beta0/|log eps|^2;
* the effective constant beta_star = 2 (log 2 + beta0 - beta_phi - gamma),
  gamma the Euler-Mascheroni constant, through which every limiting formula
  depends on (phi, beta0).

All radial convolutions use Gauss-Legendre quadrature in (rho, theta); the
profiles are C^infty with compact support, so fixed-order panels converge
spectrally and no adaptive machinery is needed.  Tabulated profiles are read
back through a not-a-knot cubic spline that reproduces scipy's
``CubicSpline(x, y, extrapolate=False)`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import gauss_legendre
from .errors import DomainError, ResolutionError
from .specfun import _EULER_GAMMA as EULER_GAMMA, BetaStar

__all__ = [
    "EULER_GAMMA",
    "Mollifier",
    "PairProfile",
    "CouplingSchedule",
    "pair_profile",
    "beta_phi",
    "beta_eps",
    "beta_star",
]


def _radial_mass(f: Callable[[np.ndarray], np.ndarray], radius: float) -> float:
    """2 pi int_0^radius f(r) r dr by 800-node Gauss-Legendre."""
    r, w = gauss_legendre(800, 0.0, radius)
    return 2.0 * math.pi * float(np.sum(w * f(r) * r))


def _bump_raw(r: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r^2)) on r < 1, identically zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class Mollifier:
    """A radial mollifier phi(x) = normalization * profile(|x|).

    ``profile`` is the raw radial shape with compact support; the
    normalization enforces unit mass over the plane.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    normalization: float
    support_radius: float

    def __call__(self, r) -> np.ndarray:
        return self.normalization * self.profile(np.asarray(r, dtype=float))

    def mass(self) -> float:
        """2 pi int_0^R phi(r) r dr, for validating unit normalization."""
        return _radial_mass(self, self.support_radius)

    @classmethod
    def bump(cls) -> "Mollifier":
        """The reference bump c exp(-1/(1-|x|^2)) on |x| < 1, unit mass."""
        return cls(profile=_bump_raw, normalization=1.0 / _radial_mass(_bump_raw, 1.0),
                   support_radius=1.0)

    def scaled(self, lam: float) -> "Mollifier":
        """The rescaled mollifier lam^2 phi(lam x), still of unit mass."""
        if lam <= 0.0:
            raise DomainError(f"scale factor must be positive, got {lam}")
        parent = self
        return Mollifier(
            profile=lambda r: parent(lam * np.asarray(r, dtype=float)),
            normalization=lam * lam,
            support_radius=self.support_radius / lam,
        )


def _check_knots(x: np.ndarray) -> None:
    """A spline's knots: at least 4, finite and strictly increasing."""
    if x.ndim != 1 or x.size < 4:
        raise DomainError(
            f"a cubic spline needs a 1-D array of at least 4 knots, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise DomainError("spline knots must be finite")
    steps = np.diff(x)
    if np.any(steps <= 0.0):
        i = int(np.argmax(steps <= 0.0))
        raise DomainError(
            f"spline knots must be strictly increasing, but x[{i + 1}] = {float(x[i + 1])!r} "
            f"does not exceed x[{i}] = {float(x[i])!r}"
        )


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve the tridiagonal system (sub dl, diagonal d, super du) x = b.

    LAPACK dgtsv's Gaussian elimination with partial pivoting, step for step
    in Python floats, including its row interchanges; the lists are
    overwritten and ``b`` returned holding x.  The not-a-knot system of
    strictly increasing knots is nonsingular, so no pivot vanishes.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _Spline:
    """The not-a-knot cubic spline through (x, y), NaN outside [x[0], x[-1]].

    Bit for bit scipy's ``CubicSpline(x, y, extrapolate=False)``: the same
    tridiagonal system for the knot slopes, solved in dgtsv's order, the same
    Hermite coefficients, and the sum c0 + c1 s + c2 s^2 + c3 s^3 in
    s = r - x_i accumulated in ascending powers as ``PPoly`` does, on the
    interval ``searchsorted(x, r, side="right") - 1`` clipped to [0, n - 2].
    On a uniform grid the interval comes from one rounding of (r - x_0)/h and
    one comparison with a knot, which finds the same interval.
    """

    _CHUNK = 8192  # points per evaluation pass, sized to stay in cache

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _check_knots(x)
        if y.shape != x.shape or not np.all(np.isfinite(y)):
            raise DomainError("spline values must be finite and match the knots")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        diag, rhs = np.empty_like(x), np.empty_like(x)
        upper, lower = np.empty_like(dx), np.empty_like(dx)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # not-a-knot ends: the third derivative is continuous at x_1 and x_{n-2}
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        diag[-1], lower[-1] = dx[-2], d
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = np.array(_gtsv(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._x = x
        self._c = (y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx)  # ascending powers
        h = (x[-1] - x[0]) / (x.size - 1)
        self._inv_h = 1.0 / h
        # the nearest-knot rounding is off by at most one interval while
        # every knot lies within half a cell of its uniform position
        self._uniform = bool(np.all(np.abs((x - x[0]) / h - np.arange(x.size)) < 0.25))

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        x = self._x
        inside = r.size == 0 or (x[0] <= r.min() and r.max() <= x[-1])
        flat = (r if inside else np.where((x[0] <= r) & (r <= x[-1]), r, x[0])).reshape(-1)
        flat_out = out.reshape(-1)
        for j in range(0, flat.size, self._CHUNK):
            self._evaluate(flat[j:j + self._CHUNK], flat_out[j:j + self._CHUNK])
        if not inside:
            out[~((x[0] <= r) & (r <= x[-1]))] = np.nan
        return out

    def _evaluate(self, r: np.ndarray, out: np.ndarray) -> None:
        x = self._x
        if self._uniform:
            # nearest knot k; the interval is k or k - 1
            t = r - x[0]
            t *= self._inv_h
            t += 0.5
            i = t.astype(np.intp)
            np.minimum(i, x.size - 2, out=i)
            i -= r < x[i]
        else:
            i = np.searchsorted(x, r, side="right") - 1
            np.minimum(i, x.size - 2, out=i)
        c0, c1, c2, c3 = self._c
        s = r - x[i]
        np.multiply(c1[i], s, out=out)
        out += c0[i]
        s2 = s * s
        s *= s2
        s2 *= c2[i]
        out += s2
        s *= c3[i]
        out += s


class PairProfile:
    """The radial profile of Phi = phi * phi tabulated on [0, 2R].

    Evaluation interpolates with a not-a-knot cubic spline through the
    tabulated radii (at least 4, strictly increasing), is clipped to be
    nonnegative (spline ringing near the support edge can dip a few 1e-17
    below zero), and vanishes identically beyond the support radius.
    """

    def __init__(self, radii: np.ndarray, values: np.ndarray, support_radius: float):
        self.radii = np.asarray(radii, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.support_radius = float(support_radius)
        self._spline = _Spline(self.radii, self.values)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.support_radius
        if inside.any():
            out[inside] = np.maximum(self._spline(r[inside]), 0.0)
        return out

    def mass(self) -> float:
        """2 pi int_0^{2R} Phi(r) r dr; equals (int phi)^2 = 1 for valid input."""
        return _radial_mass(self, self.support_radius)


def _radial_convolution(
    f1: Callable[[np.ndarray], np.ndarray],
    f2: Callable[[np.ndarray], np.ndarray],
    r_grid: np.ndarray,
    radius1: float,
    n_rho: int = 96,
    n_theta: int = 96,
) -> np.ndarray:
    """(f1 * f2)(r e_1) for radial f1, f2, reduced to a (rho, theta) integral.

    (f1 * f2)(x) = int_0^{R1} f1(rho) rho int_0^{2pi}
                   f2(sqrt(|x|^2 + rho^2 - 2 |x| rho cos th)) dth drho;
    the theta integral is folded onto (0, pi) by symmetry.
    """
    rho, w_rho = gauss_legendre(n_rho, 0.0, radius1)
    theta, w_theta = gauss_legendre(n_theta, 0.0, math.pi)
    rho_m, theta_m = np.meshgrid(rho, theta, indexing="ij")
    cos_m = np.cos(theta_m)
    f1_rho = f1(rho) * rho * w_rho
    out = np.empty_like(r_grid)
    for i, r in enumerate(r_grid):
        d = np.sqrt(np.maximum(r * r + rho_m * rho_m - 2.0 * r * rho_m * cos_m, 0.0))
        inner = 2.0 * np.sum(w_theta[None, :] * f2(d), axis=1)
        out[i] = np.sum(f1_rho * inner)
    return out


def pair_profile(m: Mollifier, grid=801) -> PairProfile:
    """Tabulate Phi = phi * phi on a radial grid over [0, 2R].

    ``grid`` is either a point count for a uniform grid or an explicit
    strictly increasing array of radii reaching 2R.  Spacing coarser than
    R/16 cannot represent the profile's curvature and is rejected.
    """
    R = m.support_radius
    if np.ndim(grid) == 0:
        radii = np.linspace(0.0, 2.0 * R, int(grid))
    else:
        radii = np.asarray(grid, dtype=float)
        _check_knots(radii)
    if radii.size < 2 or np.max(np.diff(radii)) > R / 16.0:
        raise ResolutionError(
            f"radial grid spacing exceeds R/16 = {R / 16.0:.3g}; "
            "the pair profile would be under-resolved"
        )
    values = _radial_convolution(m, m, radii, R)
    return PairProfile(radii, values, 2.0 * R)


def beta_phi(p: PairProfile, n_rho: int = 128, n_grid: int = 801) -> float:
    """beta_phi = int (Phi * Phi)(u) log|u| du as a 1-D radial integral.

    Phi * Phi is tabulated by the same radial-convolution reduction (support
    radius 4R) on ``n_grid`` >= 4 uniform radii and read back through a
    not-a-knot cubic spline, then integrated against 2 pi u log u on a
    dyadically graded mesh toward u = 0 where the logarithm is integrably
    singular.
    """
    S = p.support_radius  # 2R
    grid = np.linspace(0.0, 2.0 * S, n_grid)
    conv_vals = _radial_convolution(p, p, grid, S, n_rho=n_rho, n_theta=n_rho)
    conv = _Spline(grid, conv_vals)

    def conv_clipped(u: np.ndarray) -> np.ndarray:
        return np.maximum(conv(np.minimum(u, 2.0 * S)), 0.0)

    total = 0.0
    edges = [2.0 * S * 2.0 ** (-k) for k in range(60)]
    edges = [e for e in edges if e > 1.0e-14] + [0.0]
    for k in range(len(edges) - 1):
        lo, hi = edges[k + 1], edges[k]
        u, w = gauss_legendre(24, lo, hi)
        total += 2.0 * math.pi * float(np.sum(w * conv_clipped(u) * np.log(u) * u))
    return total


@dataclass(frozen=True)
class CouplingSchedule:
    """The fine-tuning constant beta0 and the mollification scale eps."""

    beta_zero: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not math.isfinite(self.beta_zero):
            raise DomainError(f"beta0 must be finite, got {self.beta_zero}")


def beta_eps(s: CouplingSchedule) -> float:
    """The critical-window coupling 2 pi/|log eps| + 2 pi beta0/|log eps|^2."""
    L = abs(math.log(s.epsilon))
    value = 2.0 * math.pi / L + 2.0 * math.pi * s.beta_zero / (L * L)
    if value <= 0.0:
        raise DomainError(
            f"coupling schedule gives nonpositive beta_eps = {value} "
            f"(beta0 = {s.beta_zero} too negative for eps = {s.epsilon})"
        )
    return value


def beta_star(beta_zero: float, beta_phi_value: float) -> BetaStar:
    """beta_star = 2 (log 2 + beta0 - beta_phi - gamma).

    Computed through the difference beta0 - beta_phi so that shifting both
    arguments by the same constant leaves the result bit-identical.
    """
    if not (math.isfinite(beta_zero) and math.isfinite(beta_phi_value)):
        raise DomainError("beta_star requires finite inputs")
    return BetaStar(2.0 * (math.log(2.0) + (beta_zero - beta_phi_value) - EULER_GAMMA))
