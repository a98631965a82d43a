"""Direct simulation of the mollified SHE and its two-particle PDE oracle.

The field lives on an N x N periodic grid over a torus of side L.  One
Euler step in the Ito interpretation multiplies the field by
(1 + sqrt(beta_eps) * dW) with the noise drawn independently of the
current field, then applies half a unit of exact spectral heat flow:

    Z <- irfft2( exp(-|k|^2 dt / 2) * rfft2( Z * (1 + sqrt(beta_eps) dW) ) )

dW is the mollified white-noise increment: i.i.d. cell Gaussians
convolved with the scaled mollifier phi_eps by FFT, so that
Cov(dW(x), dW(y)) = dt * delta_eps(x - y) with delta_eps = Phi_eps the
pair profile.  Replicas use counter-based generators keyed by
(seed, replica), making trajectories bit-identical for a fixed seed no
matter how replicas are partitioned over workers.

The oracle solves the two-particle moment PDE in the relative
coordinate, d_t u = Laplace(u) + beta_eps * delta_eps(x_d) * u (the
coordinate change doubles the diffusion), by first-order splitting with
exact spectral diffusion and exact pointwise potential flow; the
center-of-mass factor is a single analytic heat kernel.  Both routes are
pre-limit objects at fixed eps: their agreement validates the simulator,
and their trend in eps is what approaches the limiting moment engine.
Test functions and initial data are Gaussian mixtures, checked and
normalized by ``gausscalc.mixture`` as for the moment engine.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import stream
from .errors import BlowupError, DomainError, ParameterError
from .gausscalc import _shared_variance, mixture, per_particle
from .mollifier import Mollifier, pair_profile

__all__ = [
    "FieldParams",
    "FieldState",
    "initial_state",
    "noise_increment",
    "step",
    "moment_time_series",
    "two_particle_oracle",
]

_MIN_CELLS_PER_EPS = 4.0  # mollifier support must span >= 4 cells


@dataclass(frozen=True)
class FieldParams:
    """Static description of one simulation set-up.

    ``epsilon`` is the mollification radius scale, ``beta_eps`` the
    pre-limit coupling (use :func:`critshe.mollifier.beta_eps` to derive
    it from a coupling schedule), ``domain`` the torus side L, ``n_grid``
    the grid size N per side, ``phi`` the mollifier shape.
    """

    epsilon: float
    beta_eps: float
    domain: float
    n_grid: int
    phi: Mollifier = None

    def __post_init__(self) -> None:
        if self.phi is None:
            object.__setattr__(self, "phi", Mollifier.bump())
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.beta_eps >= 0.0 and math.isfinite(self.beta_eps)):
            raise DomainError(
                f"the noise amplitude is sqrt(beta_eps); beta_eps must be >= 0, got {self.beta_eps}"
            )
        if not (self.domain > 0.0 and math.isfinite(self.domain)):
            raise DomainError(f"domain side must be positive, got {self.domain}")
        n = self.n_grid
        if not isinstance(n, int) or n < 2 or (n & (n - 1)) != 0:
            raise ParameterError(f"grid size must be a power of two >= 2, got {n}")
        cells = self.epsilon * n / self.domain
        if cells < _MIN_CELLS_PER_EPS:
            raise ParameterError(
                f"mollifier under-resolved: epsilon*N/L = {cells:.3g} < {_MIN_CELLS_PER_EPS}; "
                f"increase the grid or epsilon"
            )

    @property
    def spacing(self) -> float:
        return self.domain / self.n_grid

    @property
    def cfl_dt(self) -> float:
        """Largest admissible step, (L/N)^2 / 4."""
        return self.spacing**2 / 4.0


@dataclass(frozen=True)
class FieldState:
    """One field configuration: grid values, current time, and parameters.

    ``step_index`` counts completed steps (bookkeeping for blow-up
    reports and for positioning within a counter-based noise stream).
    """

    grid: np.ndarray
    time: float
    params: FieldParams
    step_index: int = 0


def _min_image_sq(params_or_pair, center=(0.0, 0.0)):
    """Squared min-image distance field from ``center`` on the torus grid."""
    L, n = params_or_pair
    x = np.arange(n) * (L / n)
    dx = np.remainder(x - center[0] + L / 2.0, L) - L / 2.0
    dy = np.remainder(x - center[1] + L / 2.0, L) - L / 2.0
    return dx[:, None] ** 2 + dy[None, :] ** 2


def sample_mixture(mix, domain: float, n_grid: int) -> np.ndarray:
    """A Gaussian mixture periodized onto the grid (nearest image only;
    the torus must dominate the mixture widths for this to be accurate)."""
    mix = mixture(mix)
    out = np.zeros((n_grid, n_grid))
    for w, center, var in mix:
        r2 = _min_image_sq((domain, n_grid), center)
        out += (w / (2.0 * math.pi * var)) * np.exp(-r2 / (2.0 * var))
    return out


def initial_state(params: FieldParams, z_ic) -> FieldState:
    return FieldState(
        grid=sample_mixture(z_ic, params.domain, params.n_grid),
        time=0.0,
        params=params,
        step_index=0,
    )


@lru_cache(maxsize=32)
def _kernel_fft(params: FieldParams):
    """rfft2 of the scaled mollifier sampled with the min-image rule."""
    phi_eps = params.phi.scaled(1.0 / params.epsilon)
    r = np.sqrt(_min_image_sq((params.domain, params.n_grid)))
    return np.fft.rfft2(phi_eps(r))


@lru_cache(maxsize=32)
def _heat_fft(params: FieldParams, half_dt: float):
    """Fourier multiplier exp(-|k|^2 * half_dt) on the rfft2 layout."""
    n, L = params.n_grid, params.domain
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    ky = 2.0 * math.pi * np.fft.rfftfreq(n, d=L / n)
    return np.exp(-(kx[:, None] ** 2 + ky[None, :] ** 2) * half_dt)


def noise_increment(params: FieldParams, dt: float, rng) -> np.ndarray:
    """One mollified white-noise increment dW with Cov = dt * delta_eps(x-y).

    Cell Gaussians are circularly convolved with the sampled phi_eps via
    FFT; the sqrt(dt) * h prefactor makes the pointwise variance the
    Riemann sum of dt * phi_eps^2, i.e. dt * delta_eps(0) up to sampling
    error of the smooth compactly supported kernel.
    """
    n = params.n_grid
    white = rng.standard_normal((n, n))
    conv = np.fft.irfft2(_kernel_fft(params) * np.fft.rfft2(white), s=(n, n))
    return math.sqrt(dt) * params.spacing * conv


def step(state: FieldState, dt: float, rng) -> FieldState:
    """One Ito-Euler step with exact spectral heat propagation."""
    params = state.params
    if not (0.0 < dt <= params.cfl_dt * (1.0 + 1e-12)):
        raise ParameterError(
            f"step size {dt} violates dt <= (L/N)^2/4 = {params.cfl_dt:.6g}"
        )
    grid = state.grid
    if params.beta_eps > 0.0:
        grid = grid * (1.0 + math.sqrt(params.beta_eps) * noise_increment(params, dt, rng))
    grid = np.fft.irfft2(
        _heat_fft(params, 0.5 * dt) * np.fft.rfft2(grid), s=grid.shape
    )
    if not np.all(np.isfinite(grid)):
        raise BlowupError(
            f"field became non-finite at step {state.step_index + 1} (t = {state.time + dt:.6g})",
            step=state.step_index + 1,
        )
    return FieldState(grid=grid, time=state.time + dt, params=params, step_index=state.step_index + 1)


def _segment_steps(t0: float, t1: float, dt_max: float) -> tuple[int, float]:
    n = max(1, math.ceil((t1 - t0) / dt_max - 1e-9))
    return n, (t1 - t0) / n


def _replica_products(params, z_grid, f_grids, times, dt_max, rng):
    """One trajectory; returns prod_i <f_i, Z_t> at each recording time."""
    state = FieldState(grid=z_grid, time=0.0, params=params, step_index=0)
    h2 = params.spacing**2
    out = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            n_steps, dt = _segment_steps(t_prev, t, dt_max)
            for _ in range(n_steps):
                state = step(state, dt, rng)
            t_prev = t
        prod = 1.0
        for fg in f_grids:
            prod *= h2 * float(np.sum(fg * state.grid))
        out.append(prod)
    return out


def _jackknife(values: np.ndarray) -> tuple[float, float]:
    """Leave-one-out jackknife mean and standard error."""
    r = values.size
    mean = float(np.mean(values))
    loo = (r * mean - values) / (r - 1)
    se = math.sqrt((r - 1) / r * float(np.sum((loo - mean) ** 2)))
    return mean, se


def moment_time_series(
    n: int,
    times,
    f,
    z_ic,
    params: FieldParams,
    *,
    replicas: int,
    seed: int,
    dt: float = None,
    threads: int = 1,
):
    """Monte Carlo estimates of E prod_i <f_i, Z_t> at several times along
    one set of trajectories; returns (times, estimates, standard_errors).

    ``f`` is one mixture shared by the n particles or one mixture per
    particle (``gausscalc.per_particle``), ``z_ic`` one mixture.  Estimates
    at different times share replicas (correlated across times, independent
    across replicas); each time's error bar is marginally valid.
    Deterministic for a fixed seed and any thread count.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"moment order must be an integer >= 1, got {n}")
    if not (isinstance(replicas, int) and replicas >= 100):
        raise DomainError(f"need at least 100 replicas for a jackknife error, got {replicas}")
    times = [float(t) for t in times]
    if any(t < 0.0 or not math.isfinite(t) for t in times) or times != sorted(times):
        raise DomainError(f"recording times must be sorted and nonnegative, got {times}")
    f = per_particle(f, n, "f")
    z_ic = mixture(z_ic, "z_ic")
    dt_max = params.cfl_dt if dt is None else float(dt)
    if dt_max > params.cfl_dt * (1.0 + 1e-12):
        raise ParameterError(f"dt {dt_max} violates dt <= (L/N)^2/4 = {params.cfl_dt:.6g}")
    z_grid = sample_mixture(z_ic, params.domain, params.n_grid)
    f_grids = [sample_mixture(mix, params.domain, params.n_grid) for mix in f]

    def one(r: int):
        return _replica_products(params, z_grid, f_grids, times, dt_max, stream(seed, r))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, range(replicas)))
    else:
        rows = [one(r) for r in range(replicas)]
    table = np.asarray(rows)  # (replicas, n_times)
    est = np.empty(len(times))
    se = np.empty(len(times))
    for j in range(len(times)):
        est[j], se[j] = _jackknife(table[:, j])
    return np.asarray(times), est, se


# ---------------------------------------------------------------------------
# deterministic two-particle oracle
# ---------------------------------------------------------------------------

def _gauss2d(r2: np.ndarray, var: float) -> np.ndarray:
    return np.exp(-r2 / (2.0 * var)) / (2.0 * math.pi * var)


def two_particle_oracle(
    t: float,
    f,
    z_ic,
    epsilon: float,
    beta_e: float,
    *,
    n_grid: int = 256,
    domain: float = None,
    n_steps: int = None,
    phi: Mollifier = None,
) -> float:
    """E <f, Z_t>^2 at fixed eps by the relative-coordinate moment PDE.

    Per component pair the two-particle second moment factorizes into an
    analytic center-of-mass heat factor of variance (s_f + t + s_z)/2 and
    a relative-coordinate factor <f_d, u(t)> where u solves
    d_t u = Laplace(u) + beta_e * delta_eps * u from the relative Gaussian
    of the data.  The PDE is advanced by first-order splitting: exact
    potential flow exp(beta_e delta_eps dt) then exact spectral diffusion.

    The default step count keeps beta_e * delta_eps(0) * dt <= 0.05 (and
    at least 64 steps), the regime where the splitting bias is far below
    the tolerances used by the verification suite; the default domain
    covers 8 standard deviations of the relative diffusion plus the data
    widths and the interaction range.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"time must be positive and finite, got {t}")
    if not (epsilon > 0.0 and beta_e >= 0.0):
        raise DomainError(f"need epsilon > 0 and beta_eps >= 0, got {epsilon}, {beta_e}")
    f = mixture(f, "f")
    z = mixture(z_ic, "z_ic")
    s_f = _shared_variance(f, "test-function")
    s_z = _shared_variance(z, "initial-condition")
    phi = phi or Mollifier.bump()
    profile = pair_profile(phi)
    if domain is None:
        spread = max(
            abs(c1[0] - c2[0]) + abs(c1[1] - c2[1])
            for c1 in [comp[1] for comp in f] + [comp[1] for comp in z]
            for c2 in [comp[1] for comp in f] + [comp[1] for comp in z]
        )
        domain = 8.0 * math.sqrt(2.0 * t) + 6.0 * (math.sqrt(2.0 * s_f) + math.sqrt(2.0 * s_z))
        domain += 2.0 * spread + 2.0 * profile.support_radius * epsilon
    n = int(n_grid)
    if n < 2 or (n & (n - 1)) != 0:
        raise ParameterError(f"grid size must be a power of two >= 2, got {n}")
    if epsilon * n / domain < _MIN_CELLS_PER_EPS:
        raise ParameterError(
            f"interaction under-resolved: epsilon*M/L = {epsilon * n / domain:.3g} < "
            f"{_MIN_CELLS_PER_EPS}; increase the grid"
        )
    # relative-coordinate grid centered at the origin
    h = domain / n
    x = (np.arange(n) - n // 2) * h
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    delta_eps = profile(np.sqrt(r2) / epsilon) / epsilon**2
    v0 = beta_e * float(delta_eps.max())
    if n_steps is None:
        n_steps = max(64, math.ceil(t * v0 / 0.05)) if v0 > 0.0 else 64
    dt = t / int(n_steps)
    potential = np.exp(beta_e * delta_eps * dt)
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    ky = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    heat = np.exp(-(kx[:, None] ** 2 + ky[None, :] ** 2) * dt)

    total = 0.0
    for wa, mu_a, _ in z:
        for wb, mu_b, _ in z:
            center = (mu_a[0] - mu_b[0], mu_a[1] - mu_b[1])
            rr = (x[:, None] - center[0]) ** 2 + (x[None, :] - center[1]) ** 2
            u = _gauss2d(rr, 2.0 * s_z)
            for _ in range(int(n_steps)):
                u = np.fft.irfft2(heat * np.fft.rfft2(potential * u), s=u.shape)
            for wc, mu_c, _ in f:
                for wd, mu_d, _ in f:
                    fd = (mu_c[0] - mu_d[0], mu_c[1] - mu_d[1])
                    rr_f = (x[:, None] - fd[0]) ** 2 + (x[None, :] - fd[1]) ** 2
                    rel = h * h * float(np.sum(_gauss2d(rr_f, 2.0 * s_f) * u))
                    dc = (
                        (mu_c[0] + mu_d[0] - mu_a[0] - mu_b[0]) / 2.0,
                        (mu_c[1] + mu_d[1] - mu_a[1] - mu_b[1]) / 2.0,
                    )
                    com = float(_gauss2d(np.asarray(dc[0] ** 2 + dc[1] ** 2), (s_f + t + s_z) / 2.0))
                    total += wa * wb * wc * wd * com * rel
    return total
