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

Input data enter as mixtures of isotropic planar Gaussians, the one format
shared by the moment engine, the simulator, the oracle and the command line:
``mixture`` checks and normalizes one mixture, ``per_particle`` expands a
test-function argument into one mixture per particle.

Slot convention: after a contraction at (i, j) the merged variable is stored
in slot 0 and the surviving particles follow in increasing label order.

Everything is batched: array shapes are (B, C, ...) for B simultaneous
time-vector evaluations of the same C-component mixture.  No map solves a
linear system: a contraction conditions on x_i - x_j = 0, which needs one
scalar variance per component, the 0/1 embeddings of the pair maps are
index gathers, and the overlaps invert the 1 x 1 to 3 x 3 covariances of
the n <= 3 moment chains in closed form (LAPACK only for k >= 4).  The maps
keep their arrays batch-fastest in memory (Fortran order), so each step is
a few array operations over contiguous runs of B values: the transpose
``a.T`` of such an array is a slot-major C-ordered view, which is how the
maps address single slots and matrix entries.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from ._quad import gauss_legendre_01, log_endpoint_rule_scaled, split_exp_rule
from .errors import AccuracyWarning, DomainError, ParameterError, RankError
from .specfun import _beta_value, bessel_k0, jfn_times_t

__all__ = [
    "Mixture",
    "mixture",
    "per_particle",
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
    "second_moment_closed_form",
    "bessel_identity_residual",
]

# Condition number to which the repair of a singular covariance batch clips
# the eigenvalues.
_COND_LIMIT = 1.0e12


Mixture = tuple[tuple[float, tuple[float, float], float], ...]


def mixture(data, label: str = "mixture") -> Mixture:
    """The canonical ((weight, (cx, cy), variance), ...) form of ``data``.

    ``data`` is any sequence of (weight, (cx, cy), variance) components,
    tuples or lists alike; each entry must convert to a finite float and
    each variance must be positive.  Violations raise DomainError naming
    ``label``.
    """
    try:
        out = tuple((float(w), (float(cx), float(cy)), float(var)) for w, (cx, cy), var in data)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(
            f"{label}: expected [[weight, [cx, cy], variance], ...], got {data!r}"
        ) from None
    if not out:
        raise DomainError(f"{label}: a mixture needs at least one component")
    for w, (cx, cy), var in out:
        if not all(map(math.isfinite, (w, cx, cy, var))):
            raise DomainError(f"{label}: mixture component has non-finite entries: {data!r}")
        if var <= 0.0:
            raise DomainError(f"{label}: mixture variances must be positive, got {var}")
    return out


def per_particle(f, n: int, label: str = "f") -> tuple[Mixture, ...]:
    """n per-particle mixtures from ``f``: either one mixture, shared by all
    n particles, or a sequence of mixtures (n of them, or one to share).

    ``f`` is one mixture when its first component starts with a number
    (the weight); a sequence of mixtures starts with a component instead.
    """
    try:
        bare = isinstance(f[0][0], numbers.Real)
    except (TypeError, IndexError, KeyError):
        bare = True  # malformed: mixture() names the problem
    if bare:
        mixes = (mixture(f, label),)
    else:
        mixes = tuple(mixture(mix, f"{label}[{i}]") for i, mix in enumerate(f))
    if len(mixes) == 1:
        mixes *= n
    if len(mixes) != n:
        raise DomainError(f"{label}: need {n} test mixtures (or one to share), got {len(mixes)}")
    return mixes


@dataclass(frozen=True)
class GaussianMixtureState:
    """Axis-factorized Gaussian mixture on k planar points, batched.

    weights (B, C); means_x, means_y (B, C, k); cov (B, C, k, k), shared by
    both axes and symmetric positive definite per component.  Any memory
    layout is accepted; the maps return batch-fastest arrays.
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
    with diagonal covariance.  The ``batch`` rows are one read-only
    broadcast view of a single row, not copies.
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
    w, mx, my, cv = (np.broadcast_to(a, (batch,) + a.shape[1:]) for a in (w, mx, my, cv))
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
    """Eigenvalue-clipped repair of a covariance batch holding a singular
    matrix; emits an AccuracyWarning that says how many matrices it changed."""
    if not np.all(np.isfinite(mats)):
        raise RankError("covariance matrix has non-finite entries")
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
        stacklevel=4,
    )
    return np.einsum("...ij,...j,...kj->...ik", evecs, np.maximum(evals, floor), evecs)


# Cofactors of a symmetric 3 x 3 matrix with flattened entries X: the upper
# triangle in row order is X[p] X[q] - X[u] X[v] for the index rows below.
_COF3 = tuple(np.array(ix) for ix in ([4, 2, 1, 0, 1, 0], [8, 5, 5, 8, 2, 4],
                                      [5, 1, 2, 2, 0, 1], [5, 8, 4, 2, 5, 1]))
# the upper-triangle position of each entry of a symmetric k x k matrix
_UPPER = {1: np.array([0]), 2: np.array([0, 1, 1, 2]),
          3: np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])}


def _inv_det(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, det) of a batch of symmetric matrices shaped (..., k, k).

    For k <= 3 the inverse is the adjugate (cofactor formulas) over the
    determinant, both formed on the (k*k, N) rows of matrix entries, which
    are contiguous when ``mats`` is in Fortran order; the inverse comes back
    exactly symmetric and in Fortran order.  LAPACK serves k >= 4.  A batch
    holding an exactly singular matrix (det 0 or not finite) is repaired as
    a whole by ``_psd_fix``, which warns; a negative determinant raises
    RankError.
    """
    k = mats.shape[-1]
    if k > 3:
        det = np.linalg.det(mats)
    else:
        X = mats.reshape(-1, k * k, order="F").T  # symmetric: entry r*k+s = r+k*s
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if k == 1:
                cof = np.ones_like(X)
                det = X[0].copy()
            elif k == 2:
                cof = np.stack([X[3], -X[1], X[0]])
                det = X[0] * X[3] - X[1] * X[1]
            else:
                p, q, u, v = _COF3
                cof = X[p]
                cof *= X[q]
                cof -= X[u] * X[v]
                # det from the elimination pivots a, d - b^2/a and their
                # Schur complement: the cofactor expansion would cancel to
                # eps * |A|^3 absolute, lost once two eigenvalues are small
                l1, l2 = X[1] / X[0], X[2] / X[0]
                d1 = X[4] - X[1] * l1
                g = X[5] - X[1] * l2
                det = X[0] * d1 * (X[8] - X[2] * l2 - g * (g / d1))
        det = det.reshape(mats.shape[:-2], order="F")
    if not np.all(np.isfinite(det) & (det != 0.0)):
        fixed = _psd_fix(mats)
        inv = np.linalg.inv(fixed)
        return 0.5 * (inv + np.swapaxes(inv, -1, -2)), np.linalg.det(fixed)
    if np.any(det < 0.0):
        raise RankError("covariance lost positive definiteness")
    if k > 3:
        inv = np.linalg.inv(mats)
        return 0.5 * (inv + np.swapaxes(inv, -1, -2)), det
    cof /= det.reshape(-1, order="F")
    return cof[_UPPER[k]].T.reshape(mats.shape, order="F"), det


def _merge_layout(pair: tuple[int, int], k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """0-based slot maps (j, keep, src) of the contraction of ``pair`` among k
    slots.  After the merge, slot c holds full slot keep[c]: i for the merged
    slot 0, then the others in label order; src[r] is the slot that full slot
    r goes to (0 for both i and j), so the embedding x = A y is
    A[r, src[r]] = 1."""
    i, j = pair
    if not (1 <= i < j <= k):
        raise DomainError(f"pair {pair} is not ordered within 1..{k}")
    rest = [r for r in range(k) if r not in (i - 1, j - 1)]
    src = np.zeros(k, dtype=np.intp)
    src[rest] = np.arange(1, k - 1)
    return j - 1, np.array([i - 1] + rest), src


def _restrict(state: GaussianMixtureState, pair: tuple[int, int]) -> GaussianMixtureState:
    """The bare contraction onto x_i = x_j (merged slot stored first).

    Per axis, N(A y; mu, C) with A the 0/1 embedding is a Gaussian in y: in
    the coordinates z_0 = x_i - x_j and y = x at the kept slots (i, then the
    rest in label order), a change of variables with unit Jacobian, it is the
    density of z_0 at 0 times y's conditional law given z_0 = 0.  With
    D00 = var(z_0), d = cov(y, z_0) and delta = mu_i - mu_j this gives the
    mean mu[kept] - d delta / D00, the covariance C[kept, kept] - d d^T / D00
    and the two-axis weight factor
    (2 pi D00)^-1 exp(-(delta_x^2 + delta_y^2) / (2 D00)).
    No matrix is inverted; D00 = 0 (or not finite) repairs the batch with
    ``_psd_fix``, which warns, and D00 < 0 raises RankError.  Exposed only
    through apply_in / apply_med so that a heat step always regularizes the
    covariance first.
    """
    k = state.k
    if k < 2:
        raise DomainError("contraction needs at least two slots")
    j, keep, _ = _merge_layout(pair, k)
    i = keep[0]
    cov_t = state.cov.T  # slot-major view, (k, k, C, B)
    var = cov_t[i, i] + cov_t[j, j] - 2.0 * cov_t[i, j]
    if not np.all(np.isfinite(var) & (var != 0.0)):
        cov_t = _psd_fix(state.cov).T
        var = cov_t[i, i] + cov_t[j, j] - 2.0 * cov_t[i, j]
    if np.any(var < 0.0):
        raise RankError("covariance lost positive definiteness during contraction")
    d = cov_t[i, keep] - cov_t[j, keep]  # (k-1, C, B)
    new_cov = cov_t[keep[:, None], keep] - d[:, None] * d[None, :] / var
    means, quad = [], 0.0
    for mean in (state.means_x.T, state.means_y.T):
        delta = mean[i] - mean[j]
        means.append((mean[keep] - d * (delta / var)).T)
        quad = quad + delta * delta
    factor = (np.exp(-0.5 * quad / var) / (2.0 * math.pi * var)).T
    return GaussianMixtureState(state.weights * factor, means[0], means[1], new_cov.T)


def _heat_diag(state: GaussianMixtureState, diag: np.ndarray) -> GaussianMixtureState:
    """Add per-slot variances diag (B, k) to every component's covariance."""
    cov_t = state.cov.T.copy()  # (k, k, C, B)
    idx = np.arange(state.k)
    cov_t[idx, idx] += diag.T[:, None, :]
    return GaussianMixtureState(state.weights, state.means_x, state.means_y, cov_t.T)


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
    with unchanged weight (A the 0/1 embedding, applied as an index gather);
    the heat step makes the rank-deficient A S A^T strictly positive
    definite, which is why the bare adjoint is not exposed.
    """
    tau = _as_batch_times(t, state.batch)
    k_out = state.k + 1
    src = _merge_layout(pair, k_out)[2]
    cov_t = state.cov.T[src[:, None], src]  # (k_out, k_out, C, B)
    idx = np.arange(k_out)
    cov_t[idx, idx] += tau
    return GaussianMixtureState(state.weights, state.means_x.T[src].T,
                                state.means_y.T[src].T, cov_t.T)


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
    # slot-major views (slots first, batch last); pair axes ordered (Cg, Cf)
    S_t = f_state.cov.T[:, :, None] + g_state.cov.T[:, :, :, None]  # (k, k, Cg, Cf, B)
    d_t = np.stack([f_state.means_x.T[:, None] - g_state.means_x.T[:, :, None],
                    f_state.means_y.T[:, None] - g_state.means_y.T[:, :, None]], axis=1)
    S_inv, det_S = _inv_det(S_t.T)
    del S_t
    quad = np.einsum("ka...,kl...,la...->...", d_t, S_inv.T, d_t)  # (Cg, Cf, B)
    overlap = np.exp(-0.5 * quad) / ((2.0 * math.pi) ** k * det_S.T)
    ww = g_state.weights.T[:, None] * f_state.weights.T[None]
    return np.einsum("gfb,gfb->b", ww, overlap)


def evaluate(state: GaussianMixtureState, xs, ys) -> np.ndarray:
    """Evaluate the represented function at points (xs, ys), shape (..., k) each."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if state.batch != 1:
        raise DomainError("pointwise evaluation expects an unbatched state")
    k = state.k
    d = np.stack([xs[..., None, :] - state.means_x[0],
                  ys[..., None, :] - state.means_y[0]], axis=-1)  # (..., C, k, 2)
    cov_inv, det = _inv_det(state.cov[0])  # (C, k, k), (C,)
    quad = np.einsum("...cka,...cka->...c", d, cov_inv @ d)
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
    s, comp, w = split_exp_rule(tau)
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


def _shared_variance(mix: Mixture, label: str) -> float:
    """The one variance shared by every component of a normalized mixture."""
    vs = {var for _, _, var in mix}
    if len(vs) != 1:
        raise ParameterError(
            f"{label} components must share one isotropic variance for the "
            f"center-of-mass/relative factorization, got {sorted(vs)}"
        )
    return vs.pop()


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
    f1, f2, z = mixture(f1, "f1"), mixture(f2, "f2"), mixture(z, "z")
    s_f = _shared_variance(f1 + f2, "test-function")
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
