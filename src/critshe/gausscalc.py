"""Closed-form Gaussian kernel calculus for the diagram operators.

States are weighted sums of axis-factorized Gaussians on k planar points:

    F(x_1, ..., x_k) = sum_c w_c N(x-coords; mx_c, S_c) N(y-coords; my_c, S_c),

with one shared k x k covariance per component for both axes — exact here
because every kernel in the expansion (heat kernels, the squeezed kernel,
the pair contractions) is isotropic, so the two axes never mix and undergo
identical covariance updates.  All operators map Gaussians to Gaussians, so
component counts never grow; mixtures only enter through the input data.

The five maps are:

* apply_heat     — P_t, variance += t on every slot;
* apply_out      — P_t S*_{ij}, duplicate the merged slot onto particles i, j
                   and heat (the bare adjoint S* alone is singular and is
                   deliberately not exposed);
* apply_in       — S_{ij} P_t, heat then contract onto x_i = x_j;
* apply_med      — S_{ij} P_t S*_{kl}, the middle link of a diagram chain;
* apply_J        — the interaction step: variance t/2 on the merged slot,
                   t elsewhere, all weights times 4 pi j(t, beta_star).

Slot convention: after a contraction at (i, j) the merged variable is stored
in slot 0 and the surviving particles follow in increasing label order.

Everything is batched: array shapes are (B, C, ...) for B simultaneous
time-vector evaluations of the same C-component mixture, so a Monte Carlo
pass over the time simplex is a handful of einsum sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from ._quad import gauss_legendre_01, log_endpoint_rule_scaled, split_exp_rule
from .errors import AccuracyWarning, DomainError, ParameterError, RankError
from .specfun import _beta_value, bessel_k0, jfn_times_t

__all__ = [
    "GaussianMixtureState",
    "heat2d",
    "product_state",
    "apply_heat",
    "apply_out",
    "apply_in",
    "apply_med",
    "apply_J",
    "squeezed_heat",
    "inner_product",
    "evaluate",
    "second_moment_kernel",
    "second_moment_closed_form",
    "bessel_identity_residual",
]

# Conditioning ratio beyond which covariance solves switch to the
# eigenvalue-clipped fallback.
_COND_LIMIT = 1.0e12


@dataclass(frozen=True)
class GaussianMixtureState:
    """Axis-factorized Gaussian mixture on k planar points, batched.

    weights (B, C); means_x, means_y (B, C, k); cov (B, C, k, k), shared by
    both axes and symmetric positive definite per component.
    """

    weights: np.ndarray
    means_x: np.ndarray
    means_y: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        w, mx, my, cv = (np.asarray(a, dtype=float)
                         for a in (self.weights, self.means_x, self.means_y, self.cov))
        if w.ndim != 2 or mx.ndim != 3 or my.ndim != 3 or cv.ndim != 4:
            raise DomainError("state arrays must be shaped (B,C), (B,C,k), (B,C,k,k)")
        B, C = w.shape
        k = mx.shape[2]
        if mx.shape != (B, C, k) or my.shape != (B, C, k) or cv.shape != (B, C, k, k):
            raise DomainError("state array shapes are inconsistent")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means_x", mx)
        object.__setattr__(self, "means_y", my)
        object.__setattr__(self, "cov", cv)

    @property
    def batch(self) -> int:
        return self.weights.shape[0]

    @property
    def n_components(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.means_x.shape[2]


def heat2d(t: float, x) -> float:
    """The planar heat kernel (2 pi t)^(-1) exp(-|x|^2/(2t))."""
    if t <= 0.0:
        raise DomainError(f"heat kernel needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    return float(np.exp(-np.sum(x * x) / (2.0 * t)) / (2.0 * math.pi * t))


def product_state(
    particles: Sequence[Sequence[tuple[float, tuple[float, float], float]]],
    batch: int = 1,
) -> GaussianMixtureState:
    """Tensor product of per-particle isotropic 2-D Gaussian mixtures.

    ``particles[i]`` lists the (weight, center, variance) components of the
    i-th particle's mixture; the product expands into prod_i C_i components
    with diagonal covariance.
    """
    k = len(particles)
    if k < 1:
        raise DomainError("product state needs at least one particle")
    combos = list(_iter_product(*[range(len(p)) for p in particles]))
    C = len(combos)
    w = np.empty((1, C))
    mx = np.empty((1, C, k))
    my = np.empty((1, C, k))
    cv = np.zeros((1, C, k, k))
    for c, idx in enumerate(combos):
        wt = 1.0
        for slot, comp in enumerate(idx):
            weight, center, var = particles[slot][comp]
            if var <= 0.0:
                raise DomainError(f"component variance must be positive, got {var}")
            wt *= float(weight)
            mx[0, c, slot] = float(center[0])
            my[0, c, slot] = float(center[1])
            cv[0, c, slot, slot] = float(var)
        w[0, c] = wt
    if batch > 1:
        w = np.repeat(w, batch, axis=0)
        mx = np.repeat(mx, batch, axis=0)
        my = np.repeat(my, batch, axis=0)
        cv = np.repeat(cv, batch, axis=0)
    return GaussianMixtureState(w, mx, my, cv)


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------

def _as_batch_times(t, batch: int) -> np.ndarray:
    tau = np.asarray(t, dtype=float).reshape(-1)
    if tau.size == 1:
        tau = np.full(batch, tau[0])
    elif tau.size != batch:
        raise DomainError(f"time array of length {tau.size} does not match batch {batch}")
    if np.any(~np.isfinite(tau)) or np.any(tau <= 0.0):
        raise DomainError("all heat times must be positive and finite")
    return tau


def _psd_fix(mats: np.ndarray) -> np.ndarray:
    """Eigenvalue-clipped repair for covariance batches beyond _COND_LIMIT;
    emits an AccuracyWarning that says how many matrices it changed."""
    evals, evecs = np.linalg.eigh(mats)
    top = evals[..., -1:]
    if np.any(top <= 0.0):
        raise RankError("covariance matrix has no positive eigenvalue")
    floor = top / _COND_LIMIT
    repaired = int(np.count_nonzero(np.any(evals < floor, axis=-1)))
    warnings.warn(
        AccuracyWarning(
            f"singular covariance batch: clipped the eigenvalues of {repaired} of "
            f"{evals.size // evals.shape[-1]} matrices to condition number {_COND_LIMIT:g}"
        ),
        stacklevel=3,
    )
    return np.einsum("...ij,...j,...kj->...ik", evecs, np.maximum(evals, floor), evecs)


def _solve_or_fix(mats: np.ndarray, rhs: np.ndarray):
    """Batched PSD solve with the eigenvalue fallback; returns (solution, mats)."""
    try:
        return np.linalg.solve(mats, rhs), mats
    except np.linalg.LinAlgError:
        fixed = _psd_fix(mats)
        return np.linalg.solve(fixed, rhs), fixed


def _embedding(pair: tuple[int, int], k: int) -> np.ndarray:
    """The k x (k-1) matrix mapping (merged slot first, rest in increasing
    label order) to the full slot-ordered configuration with x_i = x_j."""
    i, j = pair
    if not (1 <= i < j <= k):
        raise DomainError(f"pair {pair} is not ordered within 1..{k}")
    A = np.zeros((k, k - 1))
    col = 1
    for r in range(1, k + 1):
        if r == i or r == j:
            A[r - 1, 0] = 1.0
        else:
            A[r - 1, col] = 1.0
            col += 1
    return A


def _restrict(state: GaussianMixtureState, pair: tuple[int, int]) -> GaussianMixtureState:
    """The bare contraction onto x_i = x_j (merged slot stored first).

    For each component N(.; mu, C) per axis, the restriction along x = A y is
    the Gaussian N(y; m, M^-1) with M = A^T C^-1 A, m = M^-1 A^T C^-1 mu,
    carrying the two-axis weight factor
    (2 pi)^-1 (det C det M)^-1 exp(-(r_x + r_y)/2),
    r = mu^T C^-1 mu - m^T M m.  Exposed only through apply_in / apply_med so
    that a heat step always regularizes the covariance first.
    """
    k = state.k
    if k < 2:
        raise DomainError("contraction needs at least two slots")
    A = _embedding(pair, k)
    C = state.cov
    CinvA, C = _solve_or_fix(C, np.broadcast_to(A, C.shape[:2] + A.shape))
    M = np.einsum("ri,bcrs->bcis", A, CinvA)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    mu = np.stack([state.means_x, state.means_y], axis=0)  # (2, B, C, k)
    Cinv_mu, _ = _solve_or_fix(C[None], mu[..., None])
    At_Cinv_mu = np.einsum("ri,abcr->abci", A, Cinv_mu[..., 0])  # (2, B, C, k-1)
    m, _ = _solve_or_fix(M[None], At_Cinv_mu[..., None])
    m = m[..., 0]
    r = (np.einsum("abck,abck->abc", mu, Cinv_mu[..., 0])
         - np.einsum("abci,abci->abc", m, At_Cinv_mu))
    det_C = np.linalg.det(C)
    det_M = np.linalg.det(M)
    if np.any(det_C <= 0.0) or np.any(det_M <= 0.0):
        raise RankError("covariance lost positive definiteness during contraction")
    factor = np.exp(-0.5 * (r[0] + r[1])) / (2.0 * math.pi * det_C * det_M)
    new_cov = np.linalg.inv(M)
    new_cov = 0.5 * (new_cov + np.swapaxes(new_cov, -1, -2))
    return GaussianMixtureState(state.weights * factor, m[0], m[1], new_cov)


def _heat_diag(state: GaussianMixtureState, diag: np.ndarray) -> GaussianMixtureState:
    """Add per-slot variances diag (B, k) to every component's covariance."""
    cov = state.cov.copy()
    idx = np.arange(state.k)
    cov[:, :, idx, idx] += diag[:, None, :]
    return GaussianMixtureState(state.weights, state.means_x, state.means_y, cov)


# ---------------------------------------------------------------------------
# The five operator maps
# ---------------------------------------------------------------------------

def apply_heat(state: GaussianMixtureState, t) -> GaussianMixtureState:
    """The free evolution P_t: variance += t on every slot, weights unchanged."""
    tau = _as_batch_times(t, state.batch)
    return _heat_diag(state, np.repeat(tau[:, None], state.k, axis=1))


def apply_out(state: GaussianMixtureState, pair: tuple[int, int], t) -> GaussianMixtureState:
    """P_t S*_{ij}: expand the merged slot onto particles i and j, then heat.

    N(.; mu, S) on k-1 slots maps to N(.; A mu, A S A^T + t I) on k slots
    with unchanged weight; the heat step makes the rank-deficient A S A^T
    strictly positive definite, which is why the bare adjoint is not exposed.
    """
    tau = _as_batch_times(t, state.batch)
    k_out = state.k + 1
    A = _embedding(pair, k_out)
    mx = np.einsum("ri,bci->bcr", A, state.means_x)
    my = np.einsum("ri,bci->bcr", A, state.means_y)
    cov = np.einsum("ri,bcij,sj->bcrs", A, state.cov, A)
    idx = np.arange(k_out)
    cov = cov.copy()
    cov[:, :, idx, idx] += tau[:, None, None]
    return GaussianMixtureState(state.weights.copy(), mx, my, cov)


def apply_in(state: GaussianMixtureState, pair: tuple[int, int], t) -> GaussianMixtureState:
    """S_{ij} P_t: heat every slot by t, then contract onto x_i = x_j."""
    return _restrict(apply_heat(state, t), pair)


def apply_med(
    state: GaussianMixtureState,
    pair_in: tuple[int, int],
    pair_out: tuple[int, int],
    t,
) -> GaussianMixtureState:
    """S_{ij} P_t S*_{kl}: the middle link between two interaction steps.

    ``pair_in`` is the pair contracted in the previous (right) step, i.e.
    the slot-0 interpretation of the incoming state; ``pair_out`` the new
    contraction.  Equal pairs are admitted (the result then reproduces the
    squared-kernel identity rho(t,.)^2 = (4 pi t)^-1 rho(t/2,.)); the moment
    engine never requests that case because consecutive diagram pairs differ.
    """
    return _restrict(apply_out(state, pair_in, t), pair_out)


def squeezed_heat(state: GaussianMixtureState, t) -> GaussianMixtureState:
    """The interaction step's heat part alone: variance t/2 on the merged
    slot 0, t elsewhere, weights untouched.

    Unlike the other maps this admits t = 0 (a no-op): simplex quadratures
    whose substitution cancels the 1/t of the interaction weight analytically
    evaluate the weight from log t themselves and need the pure heat map even
    at nodes where t has underflowed to zero.
    """
    tau = np.asarray(t, dtype=float).reshape(-1)
    if tau.size == 1:
        tau = np.full(state.batch, tau[0])
    elif tau.size != state.batch:
        raise DomainError(f"time array of length {tau.size} does not match batch")
    if np.any(~np.isfinite(tau)) or np.any(tau < 0.0):
        raise DomainError("squeezed heat times must be nonnegative and finite")
    diag = np.repeat(tau[:, None], state.k, axis=1)
    diag[:, 0] *= 0.5
    return _heat_diag(state, diag)


def apply_J(state: GaussianMixtureState, t, beta_star) -> GaussianMixtureState:
    """The interaction step: squeezed heat plus the 4 pi j(t, beta) weight.

    Slot 0 (the merged variable) gains variance t/2, every other slot t, and
    all weights are multiplied by 4 pi j(t, beta_star).
    """
    tau = _as_batch_times(t, state.batch)
    b = _beta_value(beta_star)
    out = squeezed_heat(state, tau)
    jw = jfn_times_t(np.log(tau), b) / tau  # j(tau, beta)
    return GaussianMixtureState(out.weights * (4.0 * math.pi * jw)[:, None],
                                out.means_x, out.means_y, out.cov)


def inner_product(f_state: GaussianMixtureState, g_state: GaussianMixtureState) -> np.ndarray:
    """<f, g> = int f g over R^(2k), batched; returns shape (B,).

    Gaussian-overlap formula per component pair: with S = S_f + S_g and
    d = mu_f - mu_g per axis,
    (2 pi)^-k det(S)^-1 exp(-(d_x^T S^-1 d_x + d_y^T S^-1 d_y)/2).
    """
    if f_state.k != g_state.k:
        raise DomainError(f"slot counts differ: {f_state.k} vs {g_state.k}")
    if f_state.batch != g_state.batch:
        raise DomainError("batch sizes differ")
    k = f_state.k
    S = f_state.cov[:, :, None] + g_state.cov[:, None, :]  # (B, Cf, Cg, k, k)
    dx = f_state.means_x[:, :, None] - g_state.means_x[:, None, :]
    dy = f_state.means_y[:, :, None] - g_state.means_y[:, None, :]
    det_S = np.linalg.det(S)
    if np.any(det_S <= 0.0) or np.any(~np.isfinite(det_S)):
        raise RankError("singular covariance sum in Gaussian overlap")
    try:
        sol = np.linalg.solve(S, np.stack([dx, dy], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise RankError(f"covariance solve failed in Gaussian overlap: {exc}") from exc
    quad = np.einsum("bfgk,bfgk->bfg", dx, sol[..., 0]) + np.einsum(
        "bfgk,bfgk->bfg", dy, sol[..., 1]
    )
    overlap = np.exp(-0.5 * quad) / ((2.0 * math.pi) ** k * det_S)
    ww = f_state.weights[:, :, None] * g_state.weights[:, None, :]
    return np.einsum("bfg,bfg->b", ww, overlap)


def evaluate(state: GaussianMixtureState, xs, ys) -> np.ndarray:
    """Evaluate the represented function at points (xs, ys), shape (..., k) each."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if state.batch != 1:
        raise DomainError("pointwise evaluation expects an unbatched state")
    k = state.k
    dx = xs[..., None, :] - state.means_x[0]  # (..., C, k)
    dy = ys[..., None, :] - state.means_y[0]
    cov = state.cov[0]  # (C, k, k)
    sol = np.linalg.solve(cov, np.stack([dx, dy], axis=-1))
    quad = np.einsum("...ck,...ck->...c", dx, sol[..., 0]) + np.einsum(
        "...ck,...ck->...c", dy, sol[..., 1]
    )
    det = np.linalg.det(cov)
    dens = np.exp(-0.5 * quad) / ((2.0 * math.pi) ** k * det)
    return np.einsum("c,...c->...", state.weights[0], dens)


# ---------------------------------------------------------------------------
# Closed-form second moment (two particles, center-of-mass/relative split)
# ---------------------------------------------------------------------------

def bessel_identity_residual(tau: float, r_d: float, r_dp: float) -> float:
    """|int_0^tau rho(2(tau-s), x_d) rho(2s, x_d') ds - closed form|.

    The closed form is (8 pi^2 tau)^-1 exp(-(|x_d|^2+|x_d'|^2)/(4 tau))
    K0(|x_d| |x_d'| / (2 tau)); only the radii enter by isotropy.  The
    quadrature side splits at tau/2 and maps each half exponentially to
    resolve the essential boundary layers of rho(2s, x) at s -> 0.
    """
    if tau <= 0.0 or r_d <= 0.0 or r_dp <= 0.0:
        raise DomainError("Bessel identity check needs positive tau and radii")
    s, comp, w = split_exp_rule(tau, 16)
    lhs = float(np.sum(
        w
        * np.exp(-r_d * r_d / (4.0 * comp)) / (4.0 * math.pi * comp)
        * np.exp(-r_dp * r_dp / (4.0 * s)) / (4.0 * math.pi * s)
    ))
    rhs = (
        math.exp(-(r_d * r_d + r_dp * r_dp) / (4.0 * tau))
        * bessel_k0(r_d * r_dp / (2.0 * tau))
        / (8.0 * math.pi**2 * tau)
    )
    return abs(lhs - rhs)


def _interaction_kernel_direct(t: float, r_d: float, r_dp: float, b: float) -> float:
    """int over the 1-simplex of rho(2 tau0, r_d) 4 pi j(sigma) rho(2 tau1, r_dp),
    by log-endpoint quadrature in the interaction time sigma and a
    boundary-layer-resolving rule in tau0."""
    log_sigma, w_sigma = log_endpoint_rule_scaled(t, 72)
    jw = 4.0 * math.pi * jfn_times_t(log_sigma, b)
    total = 0.0
    sigma = np.exp(log_sigma)
    for ls, ws_, jv, sg in zip(log_sigma, w_sigma, jw, sigma):
        rem = t - sg  # tau0 + tau1 budget left
        if rem <= 0.0:
            continue
        s, comp, w = split_exp_rule(rem, 12)
        inner = np.sum(
            w
            * np.exp(-r_d * r_d / (4.0 * s)) / (4.0 * math.pi * s)
            * np.exp(-r_dp * r_dp / (4.0 * comp)) / (4.0 * math.pi * comp)
        )
        total += ws_ * jv * float(inner)
    return total


def _interaction_kernel_bessel(t: float, r_d: float, r_dp: float, b: float) -> float:
    """Same integral with the inner simplex coordinate collapsed by the
    closed-form Bessel identity, leaving one log-endpoint quadrature."""
    log_sigma, w_sigma = log_endpoint_rule_scaled(t, 96)
    sigma = np.exp(log_sigma)
    rem = t - sigma
    good = rem > 0.0
    jw = 4.0 * math.pi * jfn_times_t(log_sigma[good], b)
    arg = r_d * r_dp / (2.0 * rem[good])
    k0 = bessel_k0(arg)
    vals = (
        np.exp(-(r_d * r_d + r_dp * r_dp) / (4.0 * rem[good]))
        * k0
        / (8.0 * math.pi**2 * rem[good])
    )
    return float(np.sum(w_sigma[good] * jw * vals))


def second_moment_kernel(
    t: float,
    x_c,
    x_d,
    x_cp,
    x_dp,
    beta_star,
    route: str = "bessel",
) -> float:
    """The two-particle limit kernel in center-of-mass/relative coordinates.

    rho(t/2, x_c - x_c') * [ rho(2t, x_d - x_d') + interaction ], where the
    interaction integrates rho(2 tau0, x_d) 4 pi j(sigma) rho(2 tau1, x_d')
    over the time simplex tau0 + sigma + tau1 = t.  ``route`` selects the
    direct two-dimensional time quadrature or the one-dimensional reduction
    through the K0 closed form; the two agree to quadrature accuracy and are
    cross-checked in the test suite.
    """
    if t <= 0.0:
        raise DomainError(f"kernel needs t > 0, got {t}")
    b = _beta_value(beta_star)
    x_c = np.asarray(x_c, dtype=float)
    x_d = np.asarray(x_d, dtype=float)
    x_cp = np.asarray(x_cp, dtype=float)
    x_dp = np.asarray(x_dp, dtype=float)
    r_d = float(np.hypot(*x_d))
    r_dp = float(np.hypot(*x_dp))
    if r_d == 0.0 or r_dp == 0.0:
        raise DomainError("relative coordinates must be nonzero (kernel log-divergence)")
    com = heat2d(t / 2.0, x_c - x_cp)
    free = heat2d(2.0 * t, x_d - x_dp)
    if route == "bessel":
        inter = _interaction_kernel_bessel(t, r_d, r_dp, b)
    elif route == "direct":
        inter = _interaction_kernel_direct(t, r_d, r_dp, b)
    else:
        raise ParameterError(f"unknown route {route!r}; use 'bessel' or 'direct'")
    return com * (free + inter)


def _shared_variance(mix, label: str) -> float:
    vs = {float(comp[2]) for comp in mix}
    if len(vs) != 1:
        raise ParameterError(
            f"{label} components must share one isotropic variance for the "
            f"center-of-mass/relative factorization, got {sorted(vs)}"
        )
    v = vs.pop()
    if v <= 0.0:
        raise DomainError(f"{label} variance must be positive, got {v}")
    return v


def second_moment_closed_form(t: float, beta_star, f1, f2, z) -> float:
    """<f1 x f2, (P_t + D_t) z x z> for isotropic Gaussian mixtures.

    f1, f2, z are per-particle mixtures [(weight, (cx, cy), variance), ...];
    all f-components must share one variance and all z-components another —
    that is what makes the center-of-mass and relative coordinates decouple
    component-wise.  Per component combination the result factorizes as

      N(mu_c^f - mu_c^z; 0, (s_f + t + s_z)/2)
        * [ N(mu_d^f - mu_d^z; 0, 2 s_f + 2 t + 2 s_z)
            + int_0^t 4 pi j(sigma) int_0^{t-sigma}
              rho(2 tau0 + 2 s_f, mu_d^f) rho(2 tau1 + 2 s_z, mu_d^z)
              dtau0 dsigma ],

    the mollified analogue of the pointwise kernel (the data variances act
    as extra heat times on the relative motion).
    """
    if t <= 0.0:
        raise DomainError(f"closed form needs t > 0, got {t}")
    b = _beta_value(beta_star)
    s_f = _shared_variance(list(f1) + list(f2), "test-function")
    s_z = _shared_variance(z, "initial-datum")
    log_sigma, w_sigma = log_endpoint_rule_scaled(t, 72)
    sigma = np.exp(log_sigma)
    jw = 4.0 * math.pi * jfn_times_t(log_sigma, b)
    x01, w01 = gauss_legendre_01(48)
    total = 0.0
    for wa, ca, _ in f1:
        for wb, cb, _ in f2:
            mu_c_f = 0.5 * (np.asarray(ca, float) + np.asarray(cb, float))
            mu_d_f = np.asarray(ca, float) - np.asarray(cb, float)
            for wz1, cz1, _ in z:
                for wz2, cz2, _ in z:
                    mu_c_z = 0.5 * (np.asarray(cz1, float) + np.asarray(cz2, float))
                    mu_d_z = np.asarray(cz1, float) - np.asarray(cz2, float)
                    weight = wa * wb * wz1 * wz2
                    com = heat2d((s_f + t + s_z) / 2.0, mu_c_f - mu_c_z)
                    free = heat2d(2.0 * (s_f + t + s_z), mu_d_f - mu_d_z)
                    # interaction: inner tau0 integral is smooth (the data
                    # variances 2 s_f, 2 s_z cap the kernels), plain GL
                    rem = t - sigma  # remaining tau0 + tau1 budget per sigma node
                    tau0 = rem[:, None] * x01[None, :]
                    v_f = 2.0 * tau0 + 2.0 * s_f
                    v_z = 2.0 * (rem[:, None] - tau0) + 2.0 * s_z
                    rd2 = float(np.sum(mu_d_f * mu_d_f))
                    rz2 = float(np.sum(mu_d_z * mu_d_z))
                    inner = np.sum(
                        w01[None, :]
                        * np.exp(-rd2 / (2.0 * v_f)) / (2.0 * math.pi * v_f)
                        * np.exp(-rz2 / (2.0 * v_z)) / (2.0 * math.pi * v_z),
                        axis=1,
                    ) * rem
                    inter = float(np.sum(w_sigma * jw * inner))
                    total += weight * com * (free + inter)
    return total
