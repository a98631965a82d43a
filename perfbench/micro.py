"""Layer micro kernels, each timed on fixed inputs built from public functions.

Every kernel reports the median of a few repeats, so one slow repeat on a
shared machine does not set the figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SEED = 20190527  # fixed: the micro inputs do not follow the workload seed


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def jfn_16k_s() -> float:
    """``jfn_times_t`` on 16384 points with log t = 1 - 1/u, u uniform: the
    importance-map law of an interaction slot at t = 1."""
    from critshe import specfun

    u = np.random.default_rng(_SEED).random(16384)
    log_t = 1.0 - 1.0 / np.clip(u, 2.0**-53, 1.0)
    return _median_time(lambda: specfun.jfn_times_t(log_t, 0.0), 3)


def chain_n3m4_2k_s() -> float:
    """One n = 3, m = 4 operator chain on 2048 rows, as the moment engine
    runs it, minus the interaction weight (a specfun call)."""
    from critshe import gausscalc as gc

    rows = 2048
    pairs = ((1, 2), (1, 3), (2, 3), (1, 2))
    rng = np.random.default_rng(_SEED)
    tau = rng.dirichlet(np.ones(9), size=rows)  # 2m+1 durations summing to 1
    tau_int, half = tau[:, 0::2], tau[:, 1::2]
    z = [(1.0, (0.0, 0.1), 0.5)]
    f = [(1.0, (0.3, -0.2), 0.8)]

    def chain():
        state = gc.product_state([z] * 3, batch=rows)
        state = gc.apply_in(state, pairs[3], tau_int[:, 4])
        state = gc.squeezed_heat(state, half[:, 3])
        for k in range(3, 0, -1):
            state = gc.apply_med(state, pairs[k], pairs[k - 1], tau_int[:, k])
            state = gc.squeezed_heat(state, half[:, k - 1])
        state = gc.apply_out(state, pairs[0], tau_int[:, 0])
        return gc.inner_product(gc.product_state([f] * 3, batch=rows), state)

    return _median_time(chain, 5)


def step_ms(n_grid: int, n_steps: int) -> float:
    """Milliseconds per simulator step at grid N (eps = 0.25, L = 8)."""
    from critshe import mollifier, shesim

    eps = 0.25
    be = mollifier.beta_eps(mollifier.CouplingSchedule(epsilon=eps, beta_zero=0.0))
    params = shesim.FieldParams(epsilon=eps, beta_eps=be, domain=8.0, n_grid=n_grid)
    state = shesim.initial_state(params, ((1.0, (4.0, 4.2), 0.5),))
    rng = np.random.default_rng(_SEED)
    dt = params.cfl_dt
    shesim.step(state, dt, rng)  # fills the kernel caches

    def run():
        s = state
        for _ in range(n_steps):
            s = shesim.step(s, dt, rng)

    return _median_time(run, 3) / n_steps * 1e3


def oracle_step_n512_ms() -> float:
    """Milliseconds per oracle step at N = 512, from the difference of an
    explicit 256-step and 64-step solve (cancels the per-call set-up)."""
    from critshe import mollifier, shesim

    eps = 0.1
    be = mollifier.beta_eps(mollifier.CouplingSchedule(epsilon=eps, beta_zero=0.0))
    f = ((1.0, (0.0, 0.0), 0.25),)
    z = ((1.0, (0.2, 0.1), 0.25),)

    def solve(n_steps):
        return lambda: shesim.two_particle_oracle(0.25, f, z, eps, be, n_grid=512,
                                                  domain=12.8, n_steps=n_steps)

    return (_median_time(solve(256), 1) - _median_time(solve(64), 1)) / 192 * 1e3


def run_all() -> dict[str, float]:
    return {
        "specfun.jfn_times_t_16k_s": jfn_16k_s(),
        "gausscalc.chain_n3m4_2k_s": chain_n3m4_2k_s(),
        "shesim.step_n128_ms": step_ms(128, 40),
        "shesim.step_n256_ms": step_ms(256, 10),
        "shesim.oracle_step_n512_ms": oracle_step_n512_ms(),
    }
