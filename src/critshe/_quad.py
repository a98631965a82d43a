"""Shared quadrature rules.

Plain Gauss-Legendre panels plus the logarithmic-endpoint substitution used
throughout the package for integrands that behave like 1/(tau log^2 tau)
near tau = 0.  The substitution is the exponential map tau = T e^{-u}
composed with the rational compactification u = (1 - l)/l, i.e.

    tau = T * exp(1 - 1/l),   dtau = tau / l^2 dl,   l in (0, 1],

which turns a 1/(tau log^2 tau) endpoint into a bounded smooth integrand on
the unit interval, so a fixed Gauss-Legendre rule converges spectrally.

Because tau underflows to zero double-exponentially as l -> 0, rules expose
``log_tau`` alongside ``tau`` so callers can evaluate log-space forms of the
integrand without materialising the underflowed point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on the interval (a, b)."""
    x, w = gauss_legendre_01(n)
    return a + (b - a) * x, (b - a) * w


def log_endpoint_rule(T: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature for int_0^T g(tau) dtau with a 1/(tau log^2 tau) endpoint.

    Returns ``(tau, log_tau, weight)`` such that sum(weight * g(tau)) is the
    integral; the weights already include the jacobian tau / l^2.  ``g`` is
    to be evaluated as g(tau); if g(tau) = h(log tau)/tau for some smooth h
    (the typical log-singular profile) use ``log_tau`` and multiply by
    weight/tau folded in analytically: weight * g = (weight/tau) * h(log_tau),
    where weight/tau = T' jacobian without the underflow-prone factor.
    For that use-case call :func:`log_endpoint_rule_scaled`.
    """
    l, w = gauss_legendre_01(n)
    log_tau = np.log(T) + 1.0 - 1.0 / l
    tau = np.exp(log_tau)
    weight = w * tau / l**2
    return tau, log_tau, weight

def log_endpoint_rule_scaled(T: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Variant of :func:`log_endpoint_rule` for integrands g(tau) = h(log tau)/tau.

    Returns ``(log_tau, scaled_weight)`` with the 1/tau of the integrand and
    the tau of the jacobian cancelled analytically, so that
    sum(scaled_weight * h(log_tau)) equals int_0^T h(log tau)/tau dtau even
    when tau itself underflows.
    """
    l, w = gauss_legendre_01(n)
    log_tau = np.log(T) + 1.0 - 1.0 / l
    return log_tau, w / l**2


def split_exp_rule(T: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature for int_0^T g with essential boundary layers at both ends.

    Used for integrands such as rho(2s, x) rho(2(T-s), y) that vanish
    double-exponentially at s -> 0+ and s -> T- but have interior boundary
    layers of unknown width.  Splits at T/2 and applies the exponential map
    s = (T/2) e^{-v} (resp. mirrored) on each half, with v truncated where
    the map has compressed the interval by e^{-45}.

    The v-integrand has an O(1)-width layer whose location depends on the
    integrand's own scales, so v is covered by width-3 composite panels with
    16 Gauss-Legendre nodes each, which reach machine precision on the
    heat-kernel products this serves.

    Returns ``(s, complement, weight)``; the complement is T - s computed
    without cancellation (near the right endpoint T - s underflows the
    spacing of T, so forming it from s would yield exactly zero and poison
    1/(T - s) factors).
    """
    edges = np.linspace(0.0, 45.0, 16)
    x, w = gauss_legendre_01(16)
    widths = np.diff(edges)
    v = (edges[:-1, None] + widths[:, None] * x[None, :]).ravel()
    vw = (widths[:, None] * w[None, :]).ravel()
    s_low = 0.5 * T * np.exp(-v)
    w_low = vw * s_low
    s = np.concatenate([s_low, T - s_low])
    comp = np.concatenate([T - s_low, s_low])
    weight = np.concatenate([w_low, w_low])
    return s, comp, weight

