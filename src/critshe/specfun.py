"""Special functions for the critical-coupling moment calculus.

This module evaluates the analytic ingredients shared by the moment engine
and its verification suite:

* the interaction weight attached to each double line of a diagram,

      j(t, b) = int_0^inf t^(a-1) e^(b a) / Gamma(a) da,      t > 0,

  together with its Laplace transform, which evaluates in closed form to
  1 / (log(-z) - b) whenever Re z < -e^b;
* the modified Bessel function K0 and the planar resolvent kernel
  (1/pi) K0(sqrt(-2 z) |x|) with principal branches, both taking K0 from
  ``scipy.special`` (``k0`` on the real axis, ``kv`` off it);
* the rising-factorial polynomials p_m(a) = a (a+1) ... (a+m) (with
  p_{-1} := 1) and the exact integral identity they satisfy;
* the convolution identity
  j(t) = int_0^s int_s^t j(t1) (t2 - t1)^(-1) j(t - t2) dt2 dt1, 0 < s < t,
  checked by singularity-adapted quadrature.

Everything involving j is routed through the single-variable reduction

      t * j(t, b) = JW(log t + b),   JW(w) := int_0^inf e^(a w) / Gamma(a) da,

which makes the quadrature nodes independent of t and keeps evaluation
stable when t underflows: only log t enters, so callers integrating against
j near t = 0 should use :func:`jfn_times_t` with the log-time argument.

JW is computed by one two-panel Gauss-Legendre scheme, split at a = 1.
Panel A, on (0, 1), uses 1/Gamma(a) = a / Gamma(1+a); panel B, on (1, acut),
is truncated where its integrand has dropped 45 nats below its peak.  The
same panels give JW, log JW (panel B summed relative to its peak value, for
the Laplace tails) and the small-t moments of the Laplace check.  JW is
calibrated to ~5e-15 relative accuracy against 40-digit reference values for
w in [-3000, 6.5].  Beyond w ~ 6.5 the value overflows double precision (JW
grows like exp(e^w)); log JW has no such ceiling, but a panel-B cut beyond
a = 1e6 (w above ~ 13.8) raises AccuracyError instead of truncating.

:func:`jfn_times_t`, the per-point path of every diagram integrand, reads a
piecewise Chebyshev table of JW instead, built once per process from one
batched call of that scheme on 625 nodes (25 panels of degree 24): JW w^2
in x = -1/w for w < -64, JW on [-64, 0) and log JW on [0, 6.5].  It matches the quadrature to 1e-13
relative for w <= 3 and to 2e-12 up to 6.5, where one ulp of log JW ~ 665
is already 1.5e-13.  :func:`jfn` and the identity checks keep the
quadrature, and :func:`jfn` its embedded-pair error control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import digamma, gammaln, k0, kv, polygamma

from ._quad import gauss_legendre_01
from .errors import AccuracyError, BranchCutError, DomainError, SingularityError

__all__ = [
    "GammaPolynomial",
    "jfn",
    "jfn_times_t",
    "jfn_laplace_residual",
    "bessel_k0",
    "green2d",
    "gamma_identity_check",
    "conv_identity_residual",
]

# Euler-Mascheroni constant, 16 significant digits (re-exported publicly by
# the mollifier module, which owns the coupling-constant bookkeeping).
_EULER_GAMMA = 0.5772156649015329
_PSI_ONE = -_EULER_GAMMA  # digamma(1)

# JW(w) ~ exp(e^w); e^6.5 = 665 keeps the value below the double-precision
# overflow threshold exp(709.8) with margin.
_W_MAX = 6.5

# Number of nats below the running maximum at which integrands are truncated;
# e^-45 = 2.9e-20 is below double-precision resolution of the total.
_NAT_DROP = 45.0

# Panel A covers a in (0, _SPLIT), panel B a in (_SPLIT, acut) with acut at
# most _CUT_CAP; for w <= _W_B_MIN panel B is below e^-45 of the total.
_SPLIT = 1.0
_CUT_CAP = 1.0e6
_W_B_MIN = -48.0

# Largest relative gap jfn accepts between its coarse and fine resolutions.
_JFN_REL_TOL = 1.0e-10

# JW table: _TAB_NODES Chebyshev nodes per panel; panel 0 is w < _TAB_EDGES[0]
# in x = -1/w, panel p >= 1 is [_TAB_EDGES[p-1], _TAB_EDGES[p]) in w.  Panels
# narrow toward w = 0, where e^(a w) / Gamma(a) reaches the largest a; at
# w >= 0 they hold log JW, whose e^w growth a polynomial in w resolves and
# JW's exp(e^w) does not.
_TAB_NODES = 25
_TAB_EDGES = np.concatenate([np.arange(-64.0, -8.0, 8.0), [-8.0, -4.0, -2.0, -1.0],
                             np.arange(0.0, _W_MAX + 0.25, 0.5)])


def _beta_value(beta_star) -> float:
    """The effective coupling constant as a float; any finite real is admissible."""
    b = float(beta_star)
    if not math.isfinite(b):
        raise DomainError(f"coupling constant must be finite, got {b}")
    return b


# ---------------------------------------------------------------------------
# Core reduction JW(w) = int_0^inf e^(a w) / Gamma(a) da
# ---------------------------------------------------------------------------

def _panel_a_rules(w: np.ndarray, ns: int):
    """Quadrature rules of panel A = int_0^_SPLIT e^(a w) a / Gamma(1 + a) da.

    Yields (rows, a, terms, div) for each nonempty one of two row sets of w:
    w >= -2, and w < -2, where the nodes follow s = a |w|.  On those rows
    panel A is sum(terms) / div; the Laplace check weights the same terms by
    1/(a + k).
    """
    xs, ws = gauss_legendre_01(ns)
    near = w >= -2.0
    if near.any():
        a = _SPLIT * xs[None, :]
        yield (near, a, ws * np.exp(a * w[near, None]) * a / np.exp(gammaln(1.0 + a)),
               1.0 / _SPLIT)
    far = ~near
    if far.any():
        # s = a |w| resolves the e^(-s) decay uniformly
        smax = np.minimum(_SPLIT * (-w[far]), _NAT_DROP)[:, None]
        s = xs[None, :] * smax
        a = s / (-w[far, None])
        yield far, a, ws * smax * np.exp(-s) * a / np.exp(gammaln(1.0 + a)), -w[far]


def _panel_a(w: np.ndarray, ns: int) -> np.ndarray:
    """Integral over a in (0, _SPLIT) of e^(a w) a / Gamma(1 + a)."""
    out = np.zeros_like(w)
    for rows, _, terms, div in _panel_a_rules(w, ns):
        out[rows] = np.sum(terms, axis=1) / div
    return out


def _peak_location(w: np.ndarray) -> np.ndarray:
    """Solve psi(a) = w for the maximizer of a w - lgamma(a) (a >= 1)."""
    astar = np.ones_like(w)
    big = w > _PSI_ONE
    if big.any():
        x = np.maximum(np.exp(w[big]), 1.5)
        for _ in range(80):
            step = (digamma(x) - w[big]) / polygamma(1, x)
            x -= step
            if np.all(np.abs(step) <= 1.0e-12 * np.abs(x)):
                break
        astar[big] = np.maximum(x, 1.0)
    return astar


def _panel_b_cut(w: np.ndarray, astar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper truncation acut where a w - lgamma(a) has dropped _NAT_DROP nats
    below its panel-B maximum fmax; returns (acut, fmax).

    Raises AccuracyError where acut would exceed _CUT_CAP.
    """
    peak = np.maximum(astar, _SPLIT)
    fmax = peak * w - gammaln(peak)
    hi = peak + 1.0
    for _ in range(40):
        growing = hi * w - gammaln(hi) > fmax - _NAT_DROP
        if not growing.any():
            break
        hi[growing] *= 1.6
    lo = peak.copy()
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        keep = mid * w - gammaln(mid) > fmax - _NAT_DROP
        lo[keep] = mid[keep]
        hi[~keep] = mid[~keep]
    if np.any(hi > _CUT_CAP):
        raise AccuracyError(
            f"interaction-weight panel B needs a cut beyond a = {_CUT_CAP:g} "
            f"(w up to {float(w.max()):.6g})",
            estimate=math.nan,
            error_bound=math.inf,
        )
    return hi, fmax


def _panel_b(w: np.ndarray, ns: int, nb: int, relative: bool = False):
    """Integral over a in (_SPLIT, acut) of e^(a w - lgamma(a)), with fmax.

    Returns (integral, fmax), fmax being the panel maximum of a w - lgamma(a);
    relative=True divides the integral by e^fmax, so that log JW can add fmax
    back where e^fmax overflows.  Both are 0 for w <= _W_B_MIN.
    """
    out = np.zeros_like(w)
    top = np.zeros_like(w)
    active = w > _W_B_MIN
    if not active.any():
        return out, top
    wv = w[active]
    astar = _peak_location(wv)
    acut, fmax = _panel_b_cut(wv, astar)
    xs, ws = gauss_legendre_01(ns)
    xb, wb = gauss_legendre_01(nb)

    def integral(rows, a0, a1, xn, wn):
        width = np.maximum(a1 - a0, 0.0)
        a = a0[:, None] + width[:, None] * xn[None, :]
        f = a * wv[rows, None] - gammaln(a)
        if relative:
            f -= fmax[rows, None]
        return width * np.sum(wn * np.exp(f, out=f), axis=1)  # in place: one array fewer

    pb = np.zeros_like(wv)
    spv = np.full_like(wv, _SPLIT)
    flat = astar <= max(3.0, _SPLIT)
    pb[flat] = integral(flat, spv[flat], acut[flat], xb, wb)
    # resolve the Gaussian-width-sqrt(astar) peak with its own panel
    peaked = ~flat
    ap, cp, sp = astar[peaked], acut[peaked], spv[peaked]
    sd = np.sqrt(ap)
    lo1 = np.maximum(sp, ap - 10.0 * sd)
    hi1 = np.minimum(cp, ap + 10.0 * sd)
    pb[peaked] = (
        integral(peaked, sp, lo1, xs, ws)
        + integral(peaked, lo1, hi1, xb, wb)
        + integral(peaked, hi1, cp, xs, ws)
    )
    out[active] = pb
    top[active] = fmax
    return out, top


def _check_below_overflow(w: np.ndarray) -> None:
    if np.any(w > _W_MAX):
        raise AccuracyError(
            f"interaction weight overflows double precision for log t + b > {_W_MAX}",
            estimate=math.inf,
            error_bound=math.inf,
        )


def _jw(w, ns: int = 48, nb: int = 96) -> np.ndarray:
    """JW(w) = int_0^inf e^(a w) / Gamma(a) da, vectorized over w <= _W_MAX."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    _check_below_overflow(w)
    shape = w.shape
    w = w.ravel()
    out = _panel_a(w, ns) + _panel_b(w, ns, nb)[0]
    return out.reshape(shape)


def _jw_log(w) -> np.ndarray:
    """log JW(w), stable for arbitrarily large w (used for Laplace tails).

    Panel B is summed relative to its peak value e^fmax, so the exp(e^w)
    growth of JW never materializes as a floating-point value.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    shape = w.shape
    w = w.ravel()
    pb, fmax = _panel_b(w, 48, 96, relative=True)
    with np.errstate(divide="ignore"):  # log 0 = -inf where panel B is empty
        lb = fmax + np.log(pb)
    return np.logaddexp(np.log(_panel_a(w, 48)), lb).reshape(shape)


@lru_cache(maxsize=None)
def _jw_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev coefficients of JW on the panels of _TAB_EDGES, from _jw.

    Returns (centre, half, coef, logged): panel p spans centre[p] +- half[p]
    in its variable, coef[:, p] are its coefficients and logged[p] marks the
    panels holding log JW.  Panel 0 holds JW w^2, which tends to 1 as
    x = -1/w -> 0.
    """
    k = np.arange(_TAB_NODES) + 0.5
    s = np.cos(np.pi * k / _TAB_NODES)  # first-kind nodes on [-1, 1]
    lo = np.concatenate([[0.0], _TAB_EDGES[:-1]])
    hi = np.concatenate([[-1.0 / _TAB_EDGES[0]], _TAB_EDGES[1:]])
    centre, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    w = centre + half * s[:, None]  # (node, panel)
    w[:, 0] = -1.0 / w[:, 0]
    f = _jw(w)
    f[:, 0] *= w[:, 0] ** 2
    logged = np.concatenate([[False], lo[1:] >= 0.0])
    f[:, logged] = np.log(f[:, logged])
    # centred, the cosine sums round at each panel's spread instead of its
    # size: 1.4e-12 relative error near w = 6.3 becomes 5e-13
    mean = f.mean(axis=0)
    cosines = np.cos(np.pi * np.outer(np.arange(_TAB_NODES), k) / _TAB_NODES)
    coef = (2.0 / _TAB_NODES) * cosines @ (f - mean)
    coef[0] = mean  # T_0's coefficient is the node mean
    return centre, half, coef, logged


def _jw_tabulated(w: np.ndarray) -> np.ndarray:
    """JW on a flat array of w <= _W_MAX (NaN propagates) from _jw_table."""
    centre, half, coef, logged = _jw_table()
    p = np.minimum(np.searchsorted(_TAB_EDGES, w, side="right"), _TAB_EDGES.size - 1)
    tail = p == 0
    v = w.copy()
    v[tail] = -1.0 / w[tail]  # w = -inf gives x = 0 and JW = 0
    x = (v - centre[p]) / half[p]
    x2 = 2.0 * x
    # Clenshaw, gathering one coefficient row per step (no (nodes, points) array)
    b1, b2 = coef[-1, p], 0.0
    for row in coef[-2:0:-1]:
        b1, b2 = row[p] + x2 * b1 - b2, b1
    out = coef[0, p] + x * b1 - b2
    out[tail] *= v[tail] ** 2
    top = logged[p]
    out[top] = np.exp(out[top])
    return out


# ---------------------------------------------------------------------------
# Public interaction-weight API
# ---------------------------------------------------------------------------

def jfn(t, beta_star):
    """The interaction weight j(t, b) = int_0^inf t^(a-1) e^(b a)/Gamma(a) da.

    Accepts a scalar or array of times t > 0.  The integral is evaluated by
    the calibrated two-panel scheme at two resolutions; if the embedded pair
    disagrees beyond _JFN_REL_TOL an AccuracyError carrying the fine estimate
    and the observed bound is raised.
    """
    b = _beta_value(beta_star)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(~np.isfinite(t_arr)) or np.any(t_arr <= 0.0):
        raise DomainError(f"time must be positive and finite, got {t!r}")
    w = np.log(t_arr) + b
    coarse = _jw(w, 48, 96)
    fine = _jw(w, 72, 144)
    err = np.abs(fine - coarse) / np.maximum(np.abs(fine), 1.0e-300)
    if np.any(err > _JFN_REL_TOL):
        raise AccuracyError(
            f"interaction-weight quadrature did not converge to {_JFN_REL_TOL:g} relative",
            estimate=fine / t_arr,
            error_bound=float(err.max()),
        )
    out = fine / t_arr
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def jfn_times_t(log_t, beta_star):
    """t * j(t, b) evaluated from log t (vectorized fast path).

    This is the form every time-simplex integrand should use: near the
    simplex boundary t underflows double precision while log t stays finite,
    and the product t * j(t, b) = JW(log t + b) remains O(1).  The caller is
    expected to fold the 1/t jacobian into its substitution analytically.

    Values come from the Chebyshev table of JW that the first call builds
    from the quadrature scheme (1e-13 relative for log t + b <= 3, 2e-12 up
    to 6.5); there is no error control per call, which is what :func:`jfn`
    is for.  NaN gives NaN, log t = -inf gives 0, and log t + b > 6.5
    raises AccuracyError.
    """
    b = _beta_value(beta_star)
    w = np.asarray(log_t, dtype=float) + b
    _check_below_overflow(w)
    out = _jw_tabulated(w.ravel()).reshape(w.shape)
    return float(out) if out.ndim == 0 else out


def jfn_laplace_residual(z, beta_star) -> float:
    """|int_0^inf e^(z t) j(t, b) dt  -  1/(log(-z) - b)| for Re z < -e^b.

    The transform is computed by a hybrid rule: on (0, delta) the exponential
    is expanded so each term reduces to a t-free a-integral (handling the
    1/(t log^2 t) endpoint analytically), and on (delta, T) a composite
    Gauss-Legendre rule in y = log t is used, with T grown until the
    integrand has decayed 50 nats below unity.  Both pieces use JW's panels.
    """
    b = _beta_value(beta_star)
    z = complex(z)
    if not (z.real < -math.exp(b)):
        raise DomainError(
            f"Laplace transform requires Re z < -e^b; got Re z = {z.real}, "
            f"-e^b = {-math.exp(b)}"
        )
    target = 1.0 / (np.log(-z) - b)

    # --- small-t piece: sum_k (z delta)^k / k! * A_k with
    #     A_k = int_0^inf delta^a e^(b a) / ((a + k) Gamma(a)) da,
    #     on panel A's nodes and a 128-node rule over panel B
    delta = min(0.25 / abs(z), 0.25 * math.exp(-b), 0.05)
    w = np.array([math.log(delta) + b])  # < log(0.25) < psi(1): panel B decays
    kmax = 60
    ks = np.arange(kmax)[:, None]
    ((_, a, terms, div),) = _panel_a_rules(w, 64)  # one point, one set of rows
    A = np.sum(terms / (a + ks), axis=1) / div
    if w[0] > _W_B_MIN:
        acut, _ = _panel_b_cut(w, _peak_location(w))
        xb, wb = gauss_legendre_01(128)
        width = acut - _SPLIT
        a = _SPLIT + width * xb
        terms = wb * width * np.exp(a * w - gammaln(a))
        A = A + np.sum(terms / (a + ks), axis=1)
    zd = z * delta  # |zd| <= 0.25 so the series converges rapidly
    terms = np.cumprod(np.concatenate([[1.0 + 0.0j], zd / np.arange(1.0, kmax)]))
    small = np.sum(terms * A)

    # --- mid + tail piece on (delta, T) in y = log t
    T = max(1.0, 4.0 * delta)
    while True:
        decay = z.real * T + float(_jw_log(math.log(T) + b)[0]) - math.log(T)
        if decay < -50.0:
            break
        T *= 1.5
        if T > 1.0e9:
            raise AccuracyError(
                "Laplace tail did not decay within the truncation budget "
                "(z too close to the convergence boundary)",
                estimate=float("nan"),
                error_bound=math.inf,
            )
    ys, yw = gauss_legendre_01(44)
    npan = 16
    edges = np.linspace(math.log(delta), math.log(T), npan + 1)
    mid_tail = 0.0 + 0.0j
    for left, right in zip(edges[:-1], edges[1:]):
        y = left + ys * (right - left)
        t_nodes = np.exp(y)
        log_jw = _jw_log(y + b)
        mid_tail += (right - left) * np.sum(yw * np.exp(z * t_nodes + log_jw))
    return float(abs(small + mid_tail - target))


def conv_identity_residual(s: float, t: float, beta_star) -> float:
    """|j(t) - int_0^s int_s^t j(t1) (t2-t1)^(-1) j(t-t2) dt2 dt1|, 0 < s < t.

    Both inner times are mapped by the logarithmic-endpoint substitution
    t1 = s e^(1 - 1/l1), t - t2 = (t-s) e^(1 - 1/l2); the integrable corner
    of 1/(t2 - t1) at l1 = l2 = 1 is then resolved by splitting the unit
    square in (a, b) = (1-l1, 1-l2) into its two Duffy triangles, whose
    radial jacobian cancels the 1/(t2 - t1) growth exactly.  The interaction
    weights are evaluated from log t1 and log(t - t2) directly, so the
    double-exponential underflow of t1 near l1 = 0 is harmless.
    """
    b = _beta_value(beta_star)
    s = float(s)
    t = float(t)
    if not (0.0 < s < t) or not (math.isfinite(s) and math.isfinite(t)):
        raise DomainError(f"require 0 < s < t, got s={s}, t={t}")
    n_rad, n_ang = 64, 64
    xa, wa = gauss_legendre_01(n_rad)
    xw, ww = gauss_legendre_01(n_ang)

    def duffy_integrand(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        l1 = 1.0 - a
        l2 = 1.0 - c
        log_t1 = math.log(s) + 1.0 - 1.0 / l1
        log_tt2 = math.log(t - s) + 1.0 - 1.0 / l2
        t1 = np.exp(log_t1)  # may underflow; only used inside the difference
        tt2 = np.exp(log_tt2)  # = t - t2
        gap = (t - tt2) - t1  # = t2 - t1 > 0 on the open square
        return (
            _jw(log_t1 + b) / l1**2 * _jw(log_tt2 + b) / l2**2 / gap
        )

    A = np.repeat(xa, n_ang)
    WA = np.repeat(wa, n_ang)
    C = np.tile(xw, n_rad)
    WC = np.tile(ww, n_rad)
    rhs = np.sum(WA * WC * A * duffy_integrand(A, A * C))
    rhs += np.sum(WA * WC * A * duffy_integrand(A * C, A))
    lhs = float(_jw(math.log(t) + b)[0]) / t
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Modified Bessel function K0 and the planar resolvent kernel
# ---------------------------------------------------------------------------

def bessel_k0(x):
    """K0(x) for x > 0, scalar or array, from ``scipy.special.k0`` (Cephes).

    A scalar gives a float; an array keeps its shape.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise DomainError(f"K0 requires x > 0, got {x!r}")
    out = k0(x_arr)
    return float(out) if out.ndim == 0 else out


def green2d(z, x) -> complex:
    """The planar resolvent kernel (1/pi) K0(sqrt(-2 z) |x|).

    Principal branches for the square root and logarithm, with cut on
    (-inf, 0]; hence z must avoid [0, inf) and the kernel is real positive
    for real z < 0.  The real axis takes :func:`bessel_k0`, so the imaginary
    part is exactly 0 there; off it K0 is ``scipy.special.kv(0, zeta)``
    (AMOS; Amos, ACM TOMS 12 (1986) 265).
    """
    x_arr = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.hypot(x_arr[0], x_arr[1])) if x_arr.size == 2 else float(abs(x_arr[0]))
    if r == 0.0:
        raise SingularityError("resolvent kernel diverges at coincident points (x = 0)")
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise BranchCutError(
            f"resolvent kernel requires z off the branch cut [0, inf); got {z}"
        )
    zeta = complex(np.sqrt(-2.0 * z)) * r  # Re zeta > 0 off the cut
    if zeta.imag == 0.0:
        return complex(bessel_k0(zeta.real) / math.pi)
    return complex(kv(0, zeta)) / math.pi


# ---------------------------------------------------------------------------
# Rising-factorial polynomials and the exact integral identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaPolynomial:
    """p_m(a) = a (a+1) ... (a+m) with exact rational coefficients.

    The coefficients are stored in the monomial basis in ascending degree;
    the degenerate index m = -1 denotes the constant polynomial 1.
    """

    m: int
    coefficients: tuple[Fraction, ...]

    @classmethod
    def build(cls, m: int) -> "GammaPolynomial":
        if m < -1:
            raise DomainError(f"rising-factorial index must be >= -1, got {m}")
        coeffs = [Fraction(1)]
        for r in range(m + 1):
            # multiply by (a + r)
            shifted = [Fraction(0)] + coeffs
            coeffs = [shifted[i] + r * (coeffs[i] if i < len(coeffs) else 0)
                      for i in range(len(shifted))]
        return cls(m, tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, a: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * a + c
        return acc


def gamma_identity_check(m: int, alpha: float) -> float:
    """Exact check of p_m(a) = int_0^a sum_k C(m+1, m-k+1) (m-k)! p_{k-1} da1.

    Both sides are evaluated in exact rational arithmetic (the float alpha is
    converted to its exact binary rational), so the returned absolute
    difference is zero up to the final rational-to-float rounding.
    """
    if m < 0:
        raise DomainError(f"identity index must be nonnegative, got {m}")
    a = Fraction(float(alpha))
    lhs = GammaPolynomial.build(m).evaluate(a)
    integrand = [Fraction(0)] * (m + 1)  # degree <= m
    for k in range(m + 1):
        c = Fraction(math.comb(m + 1, m - k + 1) * math.factorial(m - k))
        for i, ci in enumerate(GammaPolynomial.build(k - 1).coefficients):
            integrand[i] += c * ci
    rhs = sum((ci * a ** (i + 1)) / (i + 1) for i, ci in enumerate(integrand))
    return abs(float(lhs - rhs))
