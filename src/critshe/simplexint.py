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
  the error estimate is the spread over independent randomizations.  The
  points use Joe and Kuo's direction numbers (SIAM J. Sci. Comput. 30
  (2008) 2635) for up to 64 dimensions, randomized by Matousek's linear
  matrix scrambling plus a digital shift (J. Complexity 14 (1998) 527),
  30 bits; they equal scipy 1.17's ``qmc.Sobol(d, scramble=True,
  seed=seed).random(n)`` bit for bit.

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
from functools import lru_cache

import numpy as np

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
_SOBOL_BITS = 30

# Joe-Kuo primitive polynomials (leading and trailing bits included) and
# initial direction numbers of Sobol dimensions 2..64; dimension 1 is the
# van der Corput sequence, all direction numbers 1.
_JOE_KUO = (
    (3, 1), (7, 1, 3), (11, 1, 3, 1), (13, 1, 1, 1), (19, 1, 1, 3, 3),
    (25, 1, 3, 5, 13), (37, 1, 1, 5, 5, 17), (41, 1, 1, 5, 5, 5), (47, 1, 1, 7, 11, 19),
    (55, 1, 1, 5, 1, 1), (59, 1, 1, 1, 3, 11), (61, 1, 3, 5, 5, 31),
    (67, 1, 3, 3, 9, 7, 49), (91, 1, 1, 1, 15, 21, 21), (97, 1, 3, 1, 13, 27, 49),
    (103, 1, 1, 1, 15, 7, 5), (109, 1, 3, 1, 15, 13, 25), (115, 1, 1, 5, 5, 19, 61),
    (131, 1, 3, 7, 11, 23, 15, 103), (137, 1, 3, 7, 13, 13, 15, 69),
    (143, 1, 1, 3, 13, 7, 35, 63), (145, 1, 3, 5, 9, 1, 25, 53),
    (157, 1, 3, 1, 13, 9, 35, 107), (167, 1, 3, 1, 5, 27, 61, 31),
    (171, 1, 1, 5, 11, 19, 41, 61), (185, 1, 3, 5, 3, 3, 13, 69),
    (191, 1, 1, 7, 13, 1, 19, 1), (193, 1, 3, 7, 5, 13, 19, 59),
    (203, 1, 1, 3, 9, 25, 29, 41), (211, 1, 3, 5, 13, 23, 1, 55),
    (213, 1, 3, 7, 3, 13, 59, 17), (229, 1, 3, 1, 3, 5, 53, 69),
    (239, 1, 1, 5, 5, 23, 33, 13), (241, 1, 1, 7, 7, 1, 61, 123),
    (247, 1, 1, 7, 9, 13, 61, 49), (253, 1, 3, 3, 5, 3, 55, 33),
    (285, 1, 3, 1, 15, 31, 13, 49, 245), (299, 1, 3, 5, 15, 31, 59, 63, 97),
    (301, 1, 3, 1, 11, 11, 11, 77, 249), (333, 1, 3, 1, 11, 27, 43, 71, 9),
    (351, 1, 1, 7, 15, 21, 11, 81, 45), (355, 1, 3, 7, 3, 25, 31, 65, 79),
    (357, 1, 3, 1, 1, 19, 11, 3, 205), (361, 1, 1, 5, 9, 19, 21, 29, 157),
    (369, 1, 3, 7, 11, 1, 33, 89, 185), (391, 1, 3, 3, 3, 15, 9, 79, 71),
    (397, 1, 3, 7, 11, 15, 39, 119, 27), (425, 1, 1, 3, 1, 11, 31, 97, 225),
    (451, 1, 1, 1, 3, 23, 43, 57, 177), (463, 1, 3, 7, 7, 17, 17, 37, 71),
    (487, 1, 3, 1, 5, 27, 63, 123, 213), (501, 1, 1, 3, 5, 11, 43, 53, 133),
    (529, 1, 3, 5, 5, 29, 17, 47, 173, 479), (539, 1, 3, 3, 11, 3, 1, 109, 9, 69),
    (545, 1, 1, 1, 5, 17, 39, 23, 5, 343), (557, 1, 3, 1, 5, 25, 15, 31, 103, 499),
    (563, 1, 1, 1, 11, 11, 17, 63, 105, 183), (601, 1, 1, 5, 11, 9, 29, 97, 231, 363),
    (607, 1, 1, 5, 15, 19, 45, 41, 7, 383), (617, 1, 3, 7, 7, 31, 19, 83, 137, 221),
    (623, 1, 1, 1, 3, 23, 15, 111, 223, 83), (631, 1, 1, 5, 13, 31, 15, 55, 25, 161),
    (637, 1, 1, 3, 13, 25, 47, 39, 87, 257),
)


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


@lru_cache(maxsize=None)
def _directions(d: int) -> np.ndarray:
    """(d, 30) unscrambled direction numbers, bit 29 the most significant,
    by the Bratley-Fox recurrence from the Joe-Kuo initial numbers."""
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for k in range(1, d):
        poly, *row = _JOE_KUO[k - 1]
        s = len(row)
        for j in range(s, _SOBOL_BITS):
            new = row[j - s]
            for i in range(1, s + 1):
                if (poly >> (s - i)) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        v[k] = row
    return (v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32)


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of each uint32 entry, by an XOR fold."""
    for s in (16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint32(s))
    return x & np.uint32(1)


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of a scrambled d-dimensional Sobol sequence.

    Linear matrix scrambling plus a digital shift, both drawn from
    ``default_rng(seed)``; the points come in Gray-code order."""
    if d > len(_JOE_KUO) + 1:
        raise ParameterError(f"Sobol points are tabulated for at most "
                             f"{len(_JOE_KUO) + 1} dimensions, got {d}")
    if n > 1 << _SOBOL_BITS:
        raise ParameterError(f"at most 2**{_SOBOL_BITS} Sobol points, got {n}")
    rng = np.random.default_rng(seed)
    up = np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32)  # 2^b
    shift = rng.integers(0, 2, (d, _SOBOL_BITS), dtype=np.uint32) @ up
    ltm = np.tril(rng.integers(0, 2, (d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    down = up[::-1]  # 2^(29 - b)
    rows = ltm @ down  # row p of each matrix as an integer
    bit = _parity(rows[:, :, None] & _directions(d)[:, None, :])  # (d, row p, direction j)
    v = (bit * down[None, :, None]).sum(axis=1, dtype=np.uint32)
    levels = max(n - 1, 0).bit_length()
    q = np.empty((1 << levels, d), dtype=np.uint32)
    q[0] = shift
    for b in range(levels):
        k = 1 << b
        q[k:2 * k] = q[k - 1::-1] ^ v[:, b]
    return q[:n] * 2.0**-_SOBOL_BITS


def _integrate_qmc(m, t, integrand, plan, threads) -> tuple[float, float]:
    n_per = 1 << max(7, math.ceil(math.log2(max(plan.samples // _QMC_RANDOMIZATIONS, 1))))
    u = np.concatenate([
        _sobol(2 * m, n_per, substream_seed(plan.seed, r))
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
