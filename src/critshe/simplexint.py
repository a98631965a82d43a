"""Integration over the time simplex of diagram integrands.

A diagram of order m >= 1 is integrated over the simplex of 2m+1
nonnegative durations (tau_0, tau_1/2, tau_1, ..., tau_m) summing to t.
Integrands carry integrable endpoint singularities of type
1/(tau log^2 tau) at the half-integer (interaction) coordinates, which
drives every design choice here.

An integrand is an object with one method,

    evaluate_scaled(tau_int, log_half) -> (B,) values,

taking the (B, m+1) integer-slot durations and the *logarithms* of the
(B, m) half-slot durations, and returning the integrand multiplied by the
product of the half-slot durations.  The 1/tau singular factors thus cancel
analytically, and no rule below ever forms a half-slot duration that may
have underflowed.  The modes:

* ``adaptive-quadrature`` (m = 1 only): the interaction coordinate is
  integrated with an exponential endpoint substitution that resolves the
  logarithmic singularity to near machine precision, and the two regular
  coordinates with Gauss-Legendre.  The error estimate is the difference
  of an embedded lower-order rule.
* ``monte-carlo``: importance sampling with a proposal density matched to
  the singular profile, q(s) ~ 1/(s log^2(s/(e b))) per interaction
  coordinate with b the remaining time budget, sampled through log s; the
  regular coordinates fill the rest of the simplex uniformly.  The error
  estimate is the sample standard error.
* ``quasi-monte-carlo``: the same map applied to scrambled Sobol points;
  the error estimate is the spread over independent randomizations.

Results are bit-identical for a fixed seed and any worker count.  Monte
Carlo sampling is partitioned into fixed-size blocks; block b draws from a
counter-based stream keyed by (seed, b) and blocks are reduced in index
order.  Quasi-Monte Carlo stacks the points of all randomizations into one
batch, evaluates it in fixed-size contiguous row chunks (every row's value
is independent of the chunking), and takes each randomization's mean over
its own slice of rows.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from ._quad import gauss_legendre_01, log_endpoint_rule_scaled
from ._rng import stream, substream_seed
from .errors import AccuracyWarning, DomainError, IntegrandError, ParameterError

__all__ = [
    "TimeVector",
    "IntegrationPlan",
    "integrate",
]

_MODES = ("adaptive-quadrature", "monte-carlo", "quasi-monte-carlo")
_BLOCK = 8192          # samples per RNG block (part of the determinism contract)
_QMC_RANDOMIZATIONS = 8
_QMC_CHUNK = 4096      # rows per QMC evaluation chunk (memory-bound; not a thread knob)


@dataclass(frozen=True)
class TimeVector:
    """Durations (tau_0, tau_1/2, tau_1, ..., tau_m): 2m+1 nonnegative reals.

    Even positions are the regular (heat) slots tau_0..tau_m, odd positions
    the interaction slots tau_1/2..tau_{m-1/2}.
    """

    durations: tuple[float, ...]

    def __post_init__(self) -> None:
        durations = tuple(float(x) for x in self.durations)
        object.__setattr__(self, "durations", durations)
        if len(durations) % 2 != 1:
            raise DomainError(f"a time vector has 2m+1 entries, got {len(durations)}")
        if any(not math.isfinite(x) or x < 0.0 for x in durations):
            raise DomainError(f"durations must be finite and nonnegative, got {durations}")

    @property
    def m(self) -> int:
        return len(self.durations) // 2

    @property
    def total(self) -> float:
        return math.fsum(self.durations)

    def integer_slots(self) -> tuple[float, ...]:
        return self.durations[0::2]

    def half_slots(self) -> tuple[float, ...]:
        return self.durations[1::2]


@dataclass(frozen=True)
class IntegrationPlan:
    """How to integrate: mode, sampling budget, tolerance, and base seed."""

    mode: str = "adaptive-quadrature"
    samples: int = 65536
    rel_tol: float = 1e-3
    seed: int = 2026

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ParameterError(f"unknown integration mode {self.mode!r}; choose from {_MODES}")
        if self.mode != "adaptive-quadrature" and self.samples < 1000:
            raise ParameterError(f"sampling modes need samples >= 1000, got {self.samples}")
        if not (0.0 < self.rel_tol <= 1e-1):
            raise ParameterError(f"rel_tol must lie in (0, 1e-1], got {self.rel_tol}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")


# ---------------------------------------------------------------------------
# proposal map: uniforms in (0,1)^{2m}  ->  simplex point + importance weight
# ---------------------------------------------------------------------------

def _stick_break(u: np.ndarray, budget: np.ndarray, n_slots: int) -> np.ndarray:
    """Uniform Dirichlet split of ``budget`` into ``n_slots`` parts.

    ``u`` holds n_slots - 1 uniform columns; the map is the sequential
    inverse-CDF stick-breaking construction, so it is smooth in u (QMC
    friendly) and yields the exchangeable uniform law on the simplex.
    """
    out = np.empty((u.shape[0], n_slots))
    rem = budget.astype(float).copy()
    for j in range(n_slots - 1):
        frac = 1.0 - (1.0 - u[:, j]) ** (1.0 / (n_slots - 1 - j))
        out[:, j] = rem * frac
        rem = rem - out[:, j]
    out[:, n_slots - 1] = rem
    return out


def _importance_map_scaled(
    m: int, t: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singularity-matched proposal, sampled in log space (floor-free).

    Each half slot is drawn through its logarithm: w = log budget + 1 - 1/u
    is the inverse CDF of the density 1/(s log^2(s/(e budget))) on
    (0, budget), with the budget the time not yet used by earlier half
    slots.  The far tail is covered all the way down, since log sigma is
    handed to the integrand, never sigma itself.  For integrands of the
    matching 1/(s log^2 s) type, the sample weight per slot is
    sigma * integrand-factor * (1 + log(budget/sigma))^2, which is bounded:
    finite variance with no representability floor.  The integer slots then
    fill the remaining budget uniformly.

    Returns (integer-slot durations (B, m+1), log half-slot durations
    (B, m), log importance weight (B,)); the estimator is
    mean(evaluate_scaled(...) * exp(log weight)).
    """
    bsz = u.shape[0]
    log_half = np.empty((bsz, m))
    log_w = np.zeros(bsz)
    rem = np.full(bsz, t)
    for k in range(m):
        w = np.log(rem) + 1.0 - 1.0 / u[:, k]
        log_half[:, k] = w
        log_w -= 2.0 * np.log(u[:, k])
        rem = rem - np.minimum(np.exp(w), rem * (1.0 - 1e-12))
    tau_int = _stick_break(u[:, m:], rem, m + 1)
    log_w += m * np.log(rem) - math.lgamma(m + 1)
    return tau_int, log_half, log_w


def _weighted_values(
    integrand, tau_int: np.ndarray, log_half: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """``weight * integrand.evaluate_scaled(tau_int, log_half)``; a
    non-finite entry raises IntegrandError carrying its time vector."""
    vals = weight * np.asarray(integrand.evaluate_scaled(tau_int, log_half), dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = bad[0]
        durations = np.empty(tau_int.shape[1] + log_half.shape[1])
        durations[0::2] = tau_int[i]
        durations[1::2] = np.exp(log_half[i])
        raise IntegrandError(
            "integrand returned a non-finite value", time_vector=TimeVector(tuple(durations))
        )
    return vals


# ---------------------------------------------------------------------------
# quadrature (m = 1)
# ---------------------------------------------------------------------------

def _quadrature_m1(t: float, integrand, n_sigma: int, n_gl: int) -> float:
    """One pass of the nested rule on the m=1 simplex.

    Outer: interaction coordinate sigma with the exponential endpoint
    substitution; inner: Gauss-Legendre split of the remainder into
    (tau_0, tau_1).
    """
    x01, w01 = gauss_legendre_01(n_gl)
    log_sigma, w_sigma = log_endpoint_rule_scaled(t, n_sigma)
    rm = np.repeat(t - np.exp(log_sigma), n_gl)
    tau1 = rm * np.tile(x01, n_sigma)
    weight = np.repeat(w_sigma, n_gl) * (rm * np.tile(w01, n_sigma))
    tau_int = np.column_stack([rm - tau1, tau1])
    log_half = np.repeat(log_sigma, n_gl)[:, None]
    return float(np.sum(_weighted_values(integrand, tau_int, log_half, weight)))


def _integrate_quadrature(m: int, t: float, integrand, plan: IntegrationPlan) -> tuple[float, float]:
    if m > 1:
        raise ParameterError(
            f"adaptive quadrature supports m = 1 only (got m={m}); use a sampling mode"
        )
    hi = _quadrature_m1(t, integrand, 72, 48)
    lo = _quadrature_m1(t, integrand, 48, 32)
    return hi, abs(hi - lo)


# ---------------------------------------------------------------------------
# sampling modes
# ---------------------------------------------------------------------------

def _sampled_values(integrand, m: int, t: float, u: np.ndarray) -> np.ndarray:
    """Map uniforms to simplex samples and return integrand/density values."""
    tau_int, log_half, log_w = _importance_map_scaled(
        m, t, np.clip(u, 2.0**-53, 1.0 - 2.0**-53))
    return _weighted_values(integrand, tau_int, log_half, np.exp(log_w))


def _sample_block(m, t, integrand, seed, block_index, block_size):
    rng = stream(seed, block_index)
    vals = _sampled_values(integrand, m, t, rng.random((block_size, 2 * m)))
    return math.fsum(vals), math.fsum(vals * vals), block_size


def _integrate_mc(m, t, integrand, plan, threads) -> tuple[float, float]:
    n = plan.samples
    sizes = [_BLOCK] * (n // _BLOCK)
    if n % _BLOCK:
        sizes.append(n % _BLOCK)
    jobs = [(i, bs) for i, bs in enumerate(sizes)]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ib: _sample_block(m, t, integrand, plan.seed, ib[0], ib[1]), jobs))
    else:
        parts = [_sample_block(m, t, integrand, plan.seed, i, bs) for i, bs in jobs]
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _integrate_qmc(m, t, integrand, plan, threads) -> tuple[float, float]:
    n_per = 1 << max(7, math.ceil(math.log2(max(plan.samples // _QMC_RANDOMIZATIONS, 1))))
    u = np.concatenate([
        qmc.Sobol(d=2 * m, scramble=True, seed=substream_seed(plan.seed, r)).random(n_per)
        for r in range(_QMC_RANDOMIZATIONS)
    ])
    chunks = [u[i:i + _QMC_CHUNK] for i in range(0, len(u), _QMC_CHUNK)]

    def one(chunk: np.ndarray) -> np.ndarray:
        return _sampled_values(integrand, m, t, chunk)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = np.concatenate(list(pool.map(one, chunks)))
    else:
        vals = np.concatenate([one(c) for c in chunks])
    means = np.array([np.mean(vals[r * n_per:(r + 1) * n_per])
                      for r in range(_QMC_RANDOMIZATIONS)])
    value = float(np.mean(means))
    err = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return value, err


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def integrate(
    m: int,
    t: float,
    integrand,
    plan: IntegrationPlan,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Integrate ``integrand`` over the simplex of 2m+1 durations summing to t.

    ``integrand`` exposes ``evaluate_scaled`` (see the module docstring).
    Returns (value, error_estimate): a standard error in the sampling modes,
    an embedded-rule difference in quadrature mode.  Deterministic for a
    fixed seed and any ``threads``; an error estimate exceeding
    ``plan.rel_tol * |value|`` emits an AccuracyWarning (non-fatal).
    """
    if m < 1:
        raise DomainError(f"diagram order must be >= 1, got {m}")
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"total time must be positive and finite, got {t}")
    if plan.mode == "adaptive-quadrature":
        value, err = _integrate_quadrature(m, t, integrand, plan)
    elif plan.mode == "monte-carlo":
        value, err = _integrate_mc(m, t, integrand, plan, threads)
    else:
        value, err = _integrate_qmc(m, t, integrand, plan, threads)
    if err > plan.rel_tol * max(abs(value), np.finfo(float).tiny):
        warnings.warn(
            AccuracyWarning(
                f"integration error estimate {err:.3e} exceeds "
                f"rel_tol * |value| = {plan.rel_tol * abs(value):.3e} (m={m}, t={t})"
            ),
            stacklevel=2,
        )
    return value, err
