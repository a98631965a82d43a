"""Assembly of the limiting moment functionals of the critical 2D SHE.

The n-th correlation functional splits into a free heat term plus a sum
over diagrams: sequences of particle pairs with consecutive pairs
distinct.  A diagram of order m contributes a simplex integral over 2m+1
durations of an operator chain acting on the n-fold product of the
initial mixture: reading right to left,

    heat tau_m -> merge last pair -> interaction weight at tau_{m-1/2}
    -> (embed, heat tau_k, merge next pair) -> ... -> embed first pair,
    heat tau_0 -> inner product with the test functions,

where the interaction weight on a merged axis is 4 pi times the
j-function of the elapsed duration (a squeezed heat step of t/2 on the
merged slot and t elsewhere, times 4 pi j(t)).  All Gaussian algebra is
exact (gausscalc); only the time integrals are numerical (simplexint).

Evaluation order is right-to-left so each singular merge is immediately
regularized by a heat step; the 4 pi factors live only on the
interaction weights.  The engine consumes the single effective constant
beta_star -- never a mollifier/coupling pair -- so configurations with
equal beta_star give bit-identical results for equal seeds.

Truncation: the m-sum stops at ``m_max`` and the tail is extrapolated
geometrically from the last two per-order totals.  If the last ratio
exceeds 0.7 the total cannot be trusted: a NonconvergenceWarning carrying
the per-order totals is emitted and the tail estimate is set to infinity.
This truncation rule is a numerical policy, not a theorem; results flag
it in ``MomentResult.truncation_rule``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import gausscalc as gc
from ._quad import log_endpoint_rule, log_endpoint_rule_scaled
from ._rng import substream_seed
from .diagrams import DiagramIndex, classify, count, enumerate_diagrams
from .errors import DomainError, NonconvergenceWarning
from .simplexint import IntegrationPlan, integrate
from .specfun import _beta_value, jfn_times_t

__all__ = [
    "MomentRequest",
    "MomentResult",
    "diagram_contribution",
    "correlation",
    "centered_third_moment",
    "semigroup_residual",
]

_FOUR_PI = 4.0 * math.pi
_TINY_TIME = 1e-300          # heat-time floor: an exact zero duration is a no-op
_DECAY_LIMIT = 0.7           # per-order ratio beyond which no total is trusted

@dataclass(frozen=True)
class MomentRequest:
    """Everything needed for one correlation functional.

    ``f`` is one Gaussian mixture per particle (n of them, or a single
    mixture reused for every particle); ``z_ic`` is the initial-condition
    mixture shared by all particles.  Mixture components are
    (weight, (center_x, center_y), variance) with the unit-mass Gaussian
    normalization; both fields are stored in the canonical form of
    ``gausscalc.per_particle`` and ``gausscalc.mixture``.
    """

    n: int
    t: float
    beta_star: float
    f: tuple[gc.Mixture, ...]
    z_ic: gc.Mixture
    m_max: int = 6
    plan: IntegrationPlan = IntegrationPlan()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"particle number must be an integer >= 1, got {self.n}")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise DomainError(f"time must be positive and finite, got {self.t}")
        if not isinstance(self.m_max, int) or self.m_max < 1:
            raise DomainError(f"m_max must be an integer >= 1, got {self.m_max}")
        object.__setattr__(self, "f", gc.per_particle(self.f, self.n, "f"))
        object.__setattr__(self, "z_ic", gc.mixture(self.z_ic, "z_ic"))
        object.__setattr__(self, "beta_star", _beta_value(self.beta_star))


@dataclass(frozen=True)
class MomentResult:
    """Free term, per-diagram and per-order contributions, and the total.

    ``total = free_term + sum of contributions`` (the tail estimate is
    reported separately, never folded in).  ``truncation_tail_estimate``
    is the geometric extrapolation beyond m_max: exactly 0.0 when no
    higher-order diagrams exist, +inf when the per-order totals showed no
    usable decay (a NonconvergenceWarning accompanies that case).
    """

    free_term: float
    contributions: dict[DiagramIndex, tuple[float, float]]
    per_m: dict[int, float]
    truncation_tail_estimate: float
    total: float
    truncation_rule: str = "geometric-extrapolation"


# ---------------------------------------------------------------------------
# the diagram integrand: exact Gaussian chain evaluation on time batches
# ---------------------------------------------------------------------------

class _DiagramIntegrand:
    """Operator-chain evaluator for one diagram, batched over time vectors.

    ``evaluate_scaled`` takes the interaction durations in log form and
    returns the integrand multiplied by those durations, so quadrature and
    sampling rules with the matching 1/tau weight never form the singular
    factor explicitly.
    """

    def __init__(self, d: DiagramIndex, req: MomentRequest):
        self.pairs = d.pairs
        self.n = req.n
        self.beta = req.beta_star
        self.f = req.f
        self.z = req.z_ic

    def evaluate_scaled(self, tau_int: np.ndarray, log_half: np.ndarray) -> np.ndarray:
        """Run the chain right to left; returns the inner products (B,)
        times the product of the interaction weights."""
        tau_int = np.maximum(np.asarray(tau_int, dtype=float), _TINY_TIME)
        log_half = np.asarray(log_half, dtype=float)
        m = len(self.pairs)
        b = tau_int.shape[0]
        weight = np.ones(b)
        jw = _FOUR_PI * jfn_times_t(log_half, self.beta)  # every step's 4 pi j at once
        state = gc.product_state([list(self.z)] * self.n, batch=b)
        state = gc.apply_in(state, self.pairs[m - 1], tau_int[:, m])
        for k in range(m - 1, -1, -1):
            # interaction step k + 1/2: 4 pi j weight and squeezed heat
            weight = weight * jw[:, k]
            state = gc.squeezed_heat(state, np.exp(log_half[:, k]))
            if k > 0:
                state = gc.apply_med(state, self.pairs[k], self.pairs[k - 1], tau_int[:, k])
        state = gc.apply_out(state, self.pairs[0], tau_int[:, 0])
        f_state = gc.product_state([list(mix) for mix in self.f], batch=b)
        return gc.inner_product(f_state, state) * weight


def _free_term(req: MomentRequest) -> float:
    total = 1.0
    for mix in req.f:
        z_state = gc.apply_heat(gc.product_state([list(req.z_ic)]), req.t)
        total *= float(gc.inner_product(gc.product_state([list(mix)]), z_state)[0])
    return total


def _diagram_plan(d: DiagramIndex, plan: IntegrationPlan) -> IntegrationPlan:
    """Per-diagram plan: a content-derived seed (stable under enumeration
    order) and a sampling fallback where quadrature does not apply."""
    tags = (d.m,) + tuple(x for pair in d.pairs for x in pair)
    seed = substream_seed(plan.seed, *tags)
    mode = plan.mode
    if mode == "adaptive-quadrature" and d.m > 1:
        mode = "quasi-monte-carlo"
    return replace(plan, mode=mode, seed=seed)


def diagram_contribution(
    d: DiagramIndex, req: MomentRequest, *, threads: int = 1
) -> tuple[float, float]:
    """One diagram's simplex integral: (value, error estimate).

    Quadrature handles m = 1; higher orders fall back to quasi-Monte
    Carlo when the request asks for quadrature.  The integration seed is
    derived from (plan seed, diagram content), so a diagram's value does
    not depend on which other diagrams are evaluated.
    """
    if d.n != req.n:
        raise DomainError(f"diagram is for n={d.n} but the request has n={req.n}")
    integrand = _DiagramIntegrand(d, req)
    return integrate(d.m, req.t, integrand, _diagram_plan(d, req.plan), threads=threads)


def correlation(req: MomentRequest, *, threads: int = 1) -> MomentResult:
    """Free term plus all diagram contributions with m <= m_max.

    For n = 1 there are no diagrams and the result is the heat term
    alone.  The m-sum stops early once no diagrams of the next order
    exist (n = 2 has none beyond m = 1, exactly).
    """
    free = _free_term(req)
    contributions: dict[DiagramIndex, tuple[float, float]] = {}
    per_m: dict[int, float] = {}
    for m in range(1, req.m_max + 1 if req.n >= 2 else 1):
        if count(req.n, m) == 0:
            break
        for d in enumerate_diagrams(req.n, m):
            contributions[d] = diagram_contribution(d, req, threads=threads)
        per_m[m] = math.fsum(v for d, (v, _) in contributions.items() if d.m == m)
    tail = _tail_estimate(req, per_m)
    total = free + math.fsum(v for v, _ in contributions.values())
    return MomentResult(
        free_term=free,
        contributions=contributions,
        per_m=per_m,
        truncation_tail_estimate=tail,
        total=total,
    )


def _tail_estimate(req: MomentRequest, per_m: dict[int, float]) -> float:
    """Geometric extrapolation beyond m_max from the last two per-order sums."""
    if req.n < 2 or count(req.n, req.m_max + 1) == 0:
        return 0.0
    orders = sorted(per_m)
    if len(orders) >= 2:
        s_prev, s_last = per_m[orders[-2]], per_m[orders[-1]]
        if s_last == 0.0:
            return 0.0
        ratio = abs(s_last) / abs(s_prev) if s_prev != 0.0 else math.inf
        if ratio < _DECAY_LIMIT:
            return abs(s_last) * ratio / (1.0 - ratio)
    else:
        ratio = math.inf
    warning = NonconvergenceWarning(
        f"per-order totals show no geometric decay at m_max={req.m_max} "
        f"(last ratio {ratio:.3g} >= {_DECAY_LIMIT}); per-m totals: {per_m}"
    )
    warning.per_m_totals = dict(per_m)
    warnings.warn(warning, stacklevel=3)
    return math.inf


def centered_third_moment(
    req: MomentRequest, *, threads: int = 1, with_error: bool = False
):
    """The limiting centered third moment of <f, Z_t>.

    Sums the contributions of the nondegenerate n = 3 diagrams only (the
    degenerate ones cancel against the lower-moment products in the
    cumulant expansion).  ``req.f`` must be a single mixture, used for
    all three particles.  With ``with_error`` the combined integration
    error is returned alongside.
    """
    if req.n != 3:
        raise DomainError(f"the centered third moment needs n=3, got n={req.n}")
    if any(mix != req.f[0] for mix in req.f):
        raise DomainError("the centered third moment needs one test function used three times")
    values, variances = [], []
    per_m: dict[int, float] = {}
    for m in range(1, req.m_max + 1):
        order_values = []
        for d in enumerate_diagrams(3, m):
            if classify(d):
                continue
            v, e = diagram_contribution(d, req, threads=threads)
            order_values.append(v)
            variances.append(e * e)
        per_m[m] = math.fsum(order_values)
        values.extend(order_values)
    _tail_estimate(req, per_m)
    value = math.fsum(values)
    if with_error:
        return value, math.sqrt(math.fsum(variances))
    return value


# ---------------------------------------------------------------------------
# semigroup verification at n = 2
# ---------------------------------------------------------------------------

def _dd_value(
    s: float,
    t: float,
    req: MomentRequest,
    *,
    n_sigma: int = 48,
    n_reg: int = 32,
) -> float:
    """The diagram-diagram cross term of the n=2 semigroup product.

    Two chained m=1 diagrams with a plain heat block in between reduce to
    a 4-dimensional time integral; the inner two regular coordinates meet
    in the heat block's duration w = tau_0(right) + tau_1(left), whose
    1/w short-time singularity is resolved by exponential-endpoint rules
    on both coordinates.
    """
    beta = req.beta_star
    ls_r, ws_r = log_endpoint_rule_scaled(t - s, n_sigma)
    ls_l, ws_l = log_endpoint_rule_scaled(s, n_sigma)
    jw_r = _FOUR_PI * jfn_times_t(ls_r, beta)
    jw_l = _FOUR_PI * jfn_times_t(ls_l, beta)
    # right-simplex tensor block (sigma_R, tau0), shared by every left node
    rem_r = (t - s) - np.exp(ls_r)
    rules = [log_endpoint_rule(rr, n_reg) for rr in rem_r]  # (tau0, _, weights)
    b = n_sigma * n_reg * n_reg
    T1 = np.concatenate([np.repeat(rr - tau0, n_reg) for rr, (tau0, _, _) in zip(rem_r, rules)])
    SR = np.concatenate([np.full(n_reg * n_reg, math.exp(lsr)) for lsr in ls_r])
    TAU0 = np.concatenate([np.repeat(tau0, n_reg) for tau0, _, _ in rules])
    W_R = np.concatenate([wsr * jv * np.repeat(wt0, n_reg)
                          for wsr, jv, (_, _, wt0) in zip(ws_r, jw_r, rules)])
    state_r = gc.product_state([list(req.z_ic)] * 2, batch=b)
    state_r = gc.apply_in(state_r, (1, 2), np.maximum(T1, _TINY_TIME))
    state_r = gc.squeezed_heat(state_r, SR)
    f_state = gc.product_state([list(mix) for mix in req.f], batch=b)
    total = 0.0
    for lsl, wsl, jvl in zip(ls_l, ws_l, jw_l):
        rem_l = s - math.exp(lsl)
        u1, _, wu1 = log_endpoint_rule(rem_l, n_reg)
        u0 = rem_l - u1
        WMID = np.maximum(TAU0 + np.tile(u1, n_sigma * n_reg), _TINY_TIME)
        U0 = np.tile(u0, n_sigma * n_reg)
        # the heat block between the two merges is the equal-pair link
        # S P_w S* = (4 pi w)^-1 squeezed_heat(., w), folded in exactly
        WEIGHT = W_R * np.tile(wu1, n_sigma * n_reg) / (_FOUR_PI * WMID)
        state = gc.squeezed_heat(state_r, WMID)
        state = gc.squeezed_heat(state, np.full(b, math.exp(lsl)))
        state = gc.apply_out(state, (1, 2), np.maximum(U0, _TINY_TIME))
        vals = gc.inner_product(f_state, state)
        total += wsl * jvl * float(np.sum(WEIGHT * vals))
    return total


def _heated(mix: gc.Mixture, dt: float) -> gc.Mixture:
    """P_dt applied to a mixture: every variance grows by dt."""
    return tuple((w, c, var + dt) for w, c, var in mix)


def semigroup_residual(req: MomentRequest, s: float) -> float:
    """| <f,(P_s+D_s)(P_{t-s}+D_{t-s}) z>  -  <f,(P_t+D_t) z> | at n = 2.

    All four cross terms of the product are integrable explicitly: the
    heat-heat term composes exactly, the two heat-diagram terms are m=1
    diagram integrals with the extra heat moved onto the test functions
    (<f, P_s g> = <P_s f, g>) or onto the initial datum, and the
    diagram-diagram term is the 4-dimensional nested integral of
    ``_dd_value``.  The result is an absolute residual; normalize by the
    one-step total to compare against relative tolerances.
    """
    if req.n != 2:
        raise DomainError(f"the semigroup check is defined for n=2, got n={req.n}")
    t = req.t
    if not (0.0 < s < t):
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    zz = gc.product_state([list(req.z_ic)] * 2)
    ff = gc.product_state([list(mix) for mix in req.f])
    lhs_free = float(gc.inner_product(ff, gc.apply_heat(gc.apply_heat(zz, t - s), s))[0])
    quadrature = replace(req.plan, mode="adaptive-quadrature")

    def m1(total_t: float, **heated) -> float:
        # the single n=2 diagram on the simplex of size total_t
        sub = replace(req, t=total_t, plan=quadrature, **heated)
        return diagram_contribution(DiagramIndex(2, ((1, 2),)), sub)[0]

    lhs = (
        lhs_free
        + m1(t - s, f=tuple(_heated(mix, s) for mix in req.f))  # <P_s f, D_{t-s} z>
        + m1(s, z_ic=_heated(req.z_ic, t - s))                  # <f, D_s P_{t-s} z>
        + _dd_value(s, t, req)
    )
    rhs = _free_term(req) + m1(t)
    return abs(lhs - rhs)
