"""Lattice simulator and deterministic two-particle oracle.

Independent references:
* spectral heat decay for the beta_eps = 0 step (exact FFT formula);
* Var(noise increment) = dt * Phi(0) / eps^2 with Phi the pair profile
  (the grid value carries a known O(h^2) Riemann bias, far below the 1%
  tolerance at the resolutions used here);
* the free-product value of the two-particle oracle at beta_eps = 0;
* oracle values frozen from its earlier centred-grid form, which differs
  from the torus form only by FFT rounding and wrapped tails below e^-32;
* first-order convergence of the splitting in the oracle, ratio ~ 2 when
  halving dt (requires asymmetric data/test widths, otherwise the leading
  commutator term nearly cancels and the observed order inflates).
"""

import math

import numpy as np
import pytest

from critshe import shesim
from critshe._rng import stream
from critshe.errors import BlowupError, DomainError, ParameterError
from critshe.mollifier import CouplingSchedule, Mollifier, beta_eps, pair_profile
from critshe.shesim import (
    FieldParams,
    FieldState,
    initial_state,
    moment_time_series,
    noise_increment,
    sample_mixture,
    step,
    two_particle_oracle,
)

F = ((1.0, (4.0, 3.8), 0.6),)
Z = ((1.0, (4.0, 4.2), 0.5),)
L, N = 8.0, 64
EPS = 0.5  # eps * N / L = 4, the resolution floor
PHI = Mollifier.bump()


def riemann(f_grid, z_grid) -> float:
    """<f, Z> as the simulator forms it: h^2 * sum f(x) Z(x)."""
    return (L / N) ** 2 * float(np.sum(f_grid * z_grid))


def moment_at(n, t, params, f=F, **kw) -> tuple[float, float]:
    """(estimate, standard error) of E prod_i <f_i, Z_t> at one time."""
    _, est, se = moment_time_series(n, [t], f, Z, params, **kw)
    return float(est[0]), float(se[0])


@pytest.fixture(scope="module")
def coupled_params():
    be = beta_eps(CouplingSchedule(epsilon=EPS, beta_zero=0.0))
    return FieldParams(epsilon=EPS, beta_eps=be, domain=L, n_grid=N, phi=PHI)


class TestFieldParams:
    def test_properties(self):
        p = FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=N)
        assert p.spacing == pytest.approx(0.125)
        assert p.cfl_dt == pytest.approx(0.125**2 / 4.0)

    def test_negative_coupling_rejected(self):
        with pytest.raises(DomainError):
            FieldParams(epsilon=EPS, beta_eps=-0.1, domain=L, n_grid=N)

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=96)

    @pytest.mark.parametrize("n_type", [int, np.int64, np.int32])
    def test_any_integer_grid_size(self, n_type):
        p = FieldParams(0.25, 1.0, 16.0, n_type(256))
        assert type(p.n_grid) is int and p.n_grid == 256
        assert p == FieldParams(0.25, 1.0, 16.0, 256)

    @pytest.mark.parametrize("n_grid", [256.0, "256", None])
    def test_non_integer_grid_size_rejected(self, n_grid):
        with pytest.raises(ParameterError, match="grid size"):
            FieldParams(0.25, 1.0, 16.0, n_grid)

    def test_under_resolved_mollifier_rejected(self):
        with pytest.raises(ParameterError):
            FieldParams(epsilon=0.1, beta_eps=1.0, domain=L, n_grid=N)

    def test_default_mollifier_is_bump(self):
        p = FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=N)
        assert p.phi.support_radius == 1.0


class TestSampling:
    def test_mixture_mass_on_torus(self):
        grid = sample_mixture(Z, L, N)
        assert (L / N) ** 2 * float(np.sum(grid)) == pytest.approx(1.0, abs=1e-6)

    def test_grid_inner_is_riemann_sum(self):
        # at t = 0 every replica's <f, Z> is the Riemann sum of the sampled data
        p = FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=N)
        v, se = moment_at(1, 0.0, p, replicas=100, seed=1)
        assert v == pytest.approx(riemann(sample_mixture(F, L, N), sample_mixture(Z, L, N)),
                                  rel=4e-16)
        assert se == 0.0

    def test_initial_state(self):
        p = FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=N)
        st = initial_state(p, Z)
        assert st.time == 0.0
        assert st.step_index == 0
        assert st.grid.shape == (N, N)


class TestNoise:
    def test_variance_matches_pair_profile(self):
        # Var = dt * Phi(0)/eps^2, pooled over >= 1e6 kernel-correlated draws
        p = FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=N, phi=PHI)
        phi0 = float(pair_profile(PHI)(np.asarray(0.0)))
        dt = 1e-3
        rng = stream(77)
        fields = np.stack([noise_increment(p, dt, rng) for _ in range(800)])
        assert fields.size >= 1_000_000
        target = dt * phi0 / EPS**2
        assert float(np.var(fields)) == pytest.approx(target, rel=1e-2)

    def test_increment_has_zero_mean_scaling(self):
        p = FieldParams(epsilon=EPS, beta_eps=1.0, domain=L, n_grid=N)
        rng = stream(3)
        inc = noise_increment(p, 1e-3, rng)
        # spatial kernel smoothing preserves the white-noise mean of zero
        assert abs(float(np.mean(inc))) < 5.0 / math.sqrt(N * N) * math.sqrt(1e-3)


class TestStep:
    def test_zero_coupling_is_exact_heat(self):
        p0 = FieldParams(epsilon=0.25, beta_eps=0.0, domain=L, n_grid=128, phi=PHI)
        st = initial_state(p0, Z)
        dt = p0.cfl_dt
        out = step(st, dt, stream(1))
        kx = 2 * math.pi * np.fft.fftfreq(128, d=L / 128)
        ky = 2 * math.pi * np.fft.rfftfreq(128, d=L / 128)
        decay = np.exp(-(kx[:, None] ** 2 + ky[None, :] ** 2) * 0.5 * dt)
        expected = np.fft.irfft2(decay * np.fft.rfft2(st.grid), s=(128, 128))
        np.testing.assert_allclose(out.grid, expected, atol=1e-14)
        assert out.time == dt
        assert out.step_index == 1

    def test_cfl_violation_rejected(self, coupled_params):
        st = initial_state(coupled_params, Z)
        with pytest.raises(ParameterError):
            step(st, coupled_params.cfl_dt * 1.01, stream(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # FFT of inf grid
    def test_blowup_reported_with_step_index(self, coupled_params):
        grid = np.ones((N, N))
        grid[3, 5] = np.inf
        st = FieldState(grid=grid, time=0.0, params=coupled_params, step_index=41)
        with pytest.raises(BlowupError) as exc_info:
            step(st, coupled_params.cfl_dt, stream(0))
        assert exc_info.value.step == 42


class TestMomentEstimation:
    def test_time_zero_is_deterministic_grid_product(self, coupled_params):
        v0, s0 = moment_at(2, 0.0, coupled_params, replicas=100, seed=5)
        fz = riemann(sample_mixture(F, L, N), sample_mixture(Z, L, N))
        # replica averaging of identical values costs at most ~1 ulp each
        assert v0 == pytest.approx(fz * fz, rel=4e-16)
        assert s0 == 0.0

    def test_thread_count_does_not_change_bits(self, coupled_params):
        a = moment_at(2, 0.125, coupled_params, replicas=100, seed=5, threads=1)
        b = moment_at(2, 0.125, coupled_params, replicas=100, seed=5, threads=4)
        assert a == b

    def test_mean_preserved_under_noise(self, coupled_params):
        # E <f, Z_t> equals the free evolution; n = 1, 3 jackknife SE
        t = 0.125
        v1, s1 = moment_at(1, t, coupled_params, replicas=300, seed=11, threads=4)
        kx = 2 * math.pi * np.fft.fftfreq(N, d=L / N)
        ky = 2 * math.pi * np.fft.rfftfreq(N, d=L / N)
        decay = np.exp(-(kx[:, None] ** 2 + ky[None, :] ** 2) * t / 2)
        zt = np.fft.irfft2(decay * np.fft.rfft2(sample_mixture(Z, L, N)), s=(N, N))
        free = riemann(sample_mixture(F, L, N), zt)
        assert abs(v1 - free) < 3.0 * s1

    def test_time_series_shares_replicas(self, coupled_params):
        times, est, se = moment_time_series(
            2, [0.0, 0.0625, 0.125], F, Z, coupled_params, replicas=100, seed=9
        )
        np.testing.assert_array_equal(times, [0.0, 0.0625, 0.125])
        single = moment_at(2, 0.125, coupled_params, replicas=100, seed=9)
        # the last recording time reproduces the single-time estimate exactly
        assert (est[2], se[2]) == single
        assert se[0] == 0.0  # t = 0 carries no sampling error

    def test_validation(self, coupled_params):
        with pytest.raises(DomainError):
            moment_at(0, 0.1, coupled_params, replicas=100, seed=1)
        with pytest.raises(DomainError):
            moment_at(2, 0.1, coupled_params, replicas=99, seed=1)
        with pytest.raises(DomainError):
            moment_time_series(2, [0.2, 0.1], F, Z, coupled_params, replicas=100, seed=1)
        with pytest.raises(ParameterError):
            moment_at(2, 0.1, coupled_params, replicas=100, seed=1,
                      dt=coupled_params.cfl_dt * 2.0)
        with pytest.raises(DomainError):
            moment_at(3, 0.1, coupled_params, f=(F, F), replicas=100, seed=1)

    def test_mixture_forms_agree(self, coupled_params):
        # a tuple, a list (as parsed from JSON) and one mixture per particle
        runs = [moment_at(2, 0.0625, coupled_params, f=f, replicas=100, seed=3)
                for f in (F, [[1.0, [4.0, 3.8], 0.6]], (F, F), [[[1.0, [4.0, 3.8], 0.6]]])]
        assert all(r == runs[0] for r in runs)

    @pytest.mark.parametrize("bad", [[[1.0, [0.0, 0.0]]], [[1.0, 0.5, 1.0]],
                                     [[1.0, [0.0, math.inf], 0.5]], [[1.0, [0.0, 0.0], 0.0]], []])
    def test_malformed_mixture_rejected(self, bad, coupled_params):
        with pytest.raises(DomainError, match="^f: "):
            moment_at(2, 0.0, coupled_params, f=bad, replicas=100, seed=1)
        with pytest.raises(DomainError, match="^z_ic: "):
            moment_time_series(2, [0.0], F, bad, coupled_params, replicas=100, seed=1)
        with pytest.raises(DomainError):
            two_particle_oracle(0.25, bad, Z, 0.25, 1.0, n_grid=256, domain=16.0)


F2 = ((0.7, (0.5, -0.3), 0.3), (0.3, (-0.4, 0.6), 0.3))
Z2 = ((0.6, (0.2, 0.4), 0.2), (0.4, (-0.5, -0.1), 0.2))
G = ((1.0, (0.0, 0.0), 0.5),)


class TestTwoParticleOracle:
    @pytest.mark.parametrize("t, f, z, eps, grid, expected", [
        (0.0625, F, Z, 0.25, {"n_grid": 256, "domain": 16.0}, 0.01821283237521705),
        (0.125, F, Z, 0.25, {"n_grid": 256, "domain": 16.0}, 0.019040071340187297),
        (0.1, F2, Z2, 0.25, {"n_grid": 256, "domain": 16.0}, 0.031301078781506245),
        (0.05, G, G, 0.5, {}, 0.02656752256879056),
    ], ids=["prelimit-t0.0625", "prelimit-t0.125", "two-component", "automatic-domain"])
    def test_matches_centred_grid_values(self, t, f, z, eps, grid, expected):
        be = beta_eps(CouplingSchedule(epsilon=eps, beta_zero=0.0))
        assert two_particle_oracle(t, f, z, eps, be, **grid) == pytest.approx(expected, rel=1e-12)

    def test_pair_profile_built_once_per_mollifier(self, monkeypatch):
        builds = []

        def counting(phi):
            builds.append(phi)
            return pair_profile(phi)

        monkeypatch.setattr(shesim, "pair_profile", counting)
        phi = PHI.scaled(1.0)  # a mollifier no earlier call has cached
        be = beta_eps(CouplingSchedule(epsilon=0.25, beta_zero=0.0))
        a, b = (two_particle_oracle(0.0625, F, Z, 0.25, be, n_grid=256, domain=16.0, phi=phi)
                for _ in range(2))
        assert len(builds) == 1 and a == b
        assert Mollifier.bump() == PHI and hash(Mollifier.bump()) == hash(PHI)

    def test_zero_coupling_free_product(self):
        # at beta_eps = 0 the moment is <f, P_t z>^2 exactly
        t = 0.25
        val = two_particle_oracle(t, F, Z, 0.25, 0.0, n_grid=256, domain=16.0)
        n_ref = 128
        kx = 2 * math.pi * np.fft.fftfreq(n_ref, d=L / n_ref)
        ky = 2 * math.pi * np.fft.rfftfreq(n_ref, d=L / n_ref)
        decay = np.exp(-(kx[:, None] ** 2 + ky[None, :] ** 2) * t / 2)
        zt = np.fft.irfft2(decay * np.fft.rfft2(sample_mixture(Z, L, n_ref)),
                           s=(n_ref, n_ref))
        free = (L / n_ref) ** 2 * float(np.sum(sample_mixture(F, L, n_ref) * zt))
        assert val == pytest.approx(free * free, rel=1e-6)

    def test_splitting_is_first_order(self):
        # halving dt should halve the splitting error: ratio ~ 2
        f_a = ((1.0, (0.0, 0.3), 0.1),)
        z_a = ((1.0, (0.2, 0.0), 1.0),)
        be = beta_eps(CouplingSchedule(epsilon=0.25, beta_zero=0.0))
        vs = [
            two_particle_oracle(0.25, f_a, z_a, 0.25, be, n_grid=256, domain=16.0,
                                n_steps=256 * k)
            for k in (1, 2, 4)
        ]
        ratio = (vs[0] - vs[1]) / (vs[1] - vs[2])
        assert 1.5 < ratio < 2.5

    def test_automatic_domain(self):
        g = ((1.0, (0.0, 0.0), 0.5),)
        be = beta_eps(CouplingSchedule(epsilon=0.5, beta_zero=0.0))
        val = two_particle_oracle(0.05, g, g, 0.5, be)
        assert val > 0.0

    def test_under_resolved_interaction_rejected(self):
        with pytest.raises(ParameterError):
            two_particle_oracle(0.25, F, Z, 0.1, 1.0, n_grid=256, domain=16.0)

    def test_mixed_variances_rejected(self):
        bad = ((0.5, (0.0, 0.0), 0.5), (0.5, (1.0, 0.0), 0.7))
        with pytest.raises(ParameterError):
            two_particle_oracle(0.25, bad, Z, 0.25, 1.0, n_grid=256, domain=16.0)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            two_particle_oracle(0.0, F, Z, 0.25, 1.0)
        with pytest.raises(DomainError):
            two_particle_oracle(0.25, F, Z, 0.25, -1.0)

    @pytest.mark.parametrize("domain", [0.0, -16.0])
    def test_nonpositive_domain_rejected(self, domain):
        # FieldParams' own check, not the resolution check (a ParameterError)
        with pytest.raises(DomainError, match="domain side must be positive"):
            two_particle_oracle(0.25, F, Z, 0.25, 1.0, n_grid=256, domain=domain)
