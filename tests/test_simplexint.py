"""Time-simplex integration: the proposal map, modes, determinism, honesty.

Every integrand is given in the scaled form the integrator accepts:
evaluate_scaled(tau_int, log_half) returns the integrand times the product
of the half-slot durations.  Closed-form oracles (Dirichlet integrals over
the simplex of d = 2m+1 durations summing to t, with the d-1 dimensional
Lebesgue measure):
* constant 1 integrates to t^(d-1)/(d-1)!,
* the product of all durations integrates to t^(2d-1) / Gamma(2d) * Gamma(1)...
  concretely for m=1 (d=3): integral of tau0*sigma*tau1 = t^5/120,
* at m=1, 1/(sigma (1 + log(t/sigma))^2) integrates to t e E1(1).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import exp1

from critshe._rng import stream
from critshe.errors import AccuracyWarning, DomainError, IntegrandError, ParameterError
from critshe.simplexint import (
    IntegrationPlan,
    TimeVector,
    _importance_map_scaled,
    _sobol,
    integrate,
)
from critshe.specfun import jfn_times_t


class ConstOne:
    def evaluate_scaled(self, tau_int, log_half):
        return np.exp(np.sum(log_half, axis=1))


class SlotProduct:
    """The product of all durations."""

    def evaluate_scaled(self, tau_int, log_half):
        return np.prod(tau_int, axis=1) * np.exp(2.0 * np.sum(log_half, axis=1))


class LogSingular:
    """1/(sigma (1 + log(t/sigma))^2) at m = 1: the 1/sigma cancels in the
    scaled form, which is then finite even where sigma underflows."""

    def __init__(self, t):
        self.t = t

    def evaluate_scaled(self, tau_int, log_half):
        return 1.0 / (1.0 + math.log(self.t) - log_half[:, 0]) ** 2


class SingularProfile:
    """An integrand with the interaction-weight endpoint profile.

    f(tv) = prod over half slots of JW(log tau + b)/tau with b = 0; its
    scaled form cancels the 1/tau analytically.
    """

    def evaluate_scaled(self, tau_int, log_half):
        vals = np.ones(tau_int.shape[0])
        for k in range(log_half.shape[1]):
            vals = vals * jfn_times_t(log_half[:, k], 0.0)
        return vals


class NotFinite:
    def evaluate_scaled(self, tau_int, log_half):
        return np.full(tau_int.shape[0], math.nan)


def simplex_volume(d: int, t: float) -> float:
    return t ** (d - 1) / math.factorial(d - 1)


def map_points(m, t, seed, n):
    u = np.clip(stream(seed, 0).random((n, 2 * m)), 2.0**-53, 1.0 - 2.0**-53)
    return _importance_map_scaled(m, t, u)


class TestTimeVector:
    def test_properties(self):
        tv = TimeVector((0.1, 0.2, 0.3, 0.15, 0.25))
        assert tv.m == 2
        assert tv.total == pytest.approx(1.0)
        assert tv.integer_slots() == (0.1, 0.3, 0.25)
        assert tv.half_slots() == (0.2, 0.15)

    def test_even_length_rejected(self):
        with pytest.raises(DomainError):
            TimeVector((0.1, 0.2))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            TimeVector((0.1, -0.2, 0.3))

    def test_zero_entries_allowed(self):
        assert TimeVector((0.0, 1.0, 0.0)).total == 1.0


class TestIntegrationPlan:
    def test_defaults(self):
        p = IntegrationPlan()
        assert p.mode == "adaptive-quadrature"

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            IntegrationPlan(mode="trapezoid")

    def test_sampling_needs_budget(self):
        with pytest.raises(ParameterError):
            IntegrationPlan(mode="monte-carlo", samples=999)
        assert IntegrationPlan(mode="monte-carlo", samples=1000).samples == 1000

    def test_rel_tol_range(self):
        with pytest.raises(ParameterError):
            IntegrationPlan(rel_tol=0.0)
        with pytest.raises(ParameterError):
            IntegrationPlan(rel_tol=0.5)

    def test_seed_must_be_int(self):
        with pytest.raises(ParameterError):
            IntegrationPlan(seed=1.5)
        with pytest.raises(ParameterError):
            IntegrationPlan(seed=True)


class TestSampleSimplex:
    """The importance map that every sampling mode draws its points from."""

    def test_sums_to_budget(self):
        tau_int, log_half, _ = map_points(3, 2.5, 42, 1000)
        assert np.all(tau_int >= 0.0)
        total = tau_int.sum(axis=1) + np.exp(log_half).sum(axis=1)
        np.testing.assert_allclose(total, 2.5, rtol=1e-12)

    def test_exchangeable_means(self):
        # the regular slots split what the half slots leave uniformly:
        # Dirichlet(1, 1, 1) shares, each of mean 1/3 and sd 0.24/sqrt(n)
        n, m = 4000, 2
        tau_int, _, _ = map_points(m, 1.0, 7, n)
        share = tau_int / tau_int.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(share.mean(axis=0), 1.0 / (m + 1), atol=5 * 0.24 / math.sqrt(n))

    def test_domain(self):
        # a sampling run needs at least one half-slot pair and a positive budget
        plan = IntegrationPlan(mode="monte-carlo", samples=1024, rel_tol=0.1, seed=0)
        with pytest.raises(DomainError):
            integrate(0, 1.0, ConstOne(), plan)
        with pytest.raises(DomainError):
            integrate(1, 0.0, ConstOne(), plan)


class TestModesOnClosedForms:
    def test_degenerate_m0(self):
        # m = 0 has no half slots for the scaled protocol: rejected in every mode
        for mode in ("adaptive-quadrature", "monte-carlo", "quasi-monte-carlo"):
            plan = IntegrationPlan(mode=mode, samples=1024, rel_tol=0.1, seed=0)
            with pytest.raises(DomainError):
                integrate(0, 0.7, ConstOne(), plan)

    def test_quadrature_constant(self):
        value, err = integrate(1, 1.3, ConstOne(), IntegrationPlan())
        assert value == pytest.approx(simplex_volume(3, 1.3), rel=1e-10)

    def test_quadrature_polynomial(self):
        t = 0.9
        value, _ = integrate(1, t, SlotProduct(), IntegrationPlan())
        assert value == pytest.approx(t**5 / 120.0, rel=1e-9)

    def test_quadrature_scaled_path(self):
        t = 0.9
        value, _ = integrate(1, t, LogSingular(t), IntegrationPlan())
        assert value == pytest.approx(t * math.e * exp1(1.0), rel=1e-10)

    def test_quadrature_rejects_high_order(self):
        with pytest.raises(ParameterError):
            integrate(2, 1.0, ConstOne(), IntegrationPlan())

    @pytest.mark.parametrize("mode", ["monte-carlo", "quasi-monte-carlo"])
    def test_sampling_polynomial_m1(self, mode):
        t = 0.9
        plan = IntegrationPlan(mode=mode, samples=16384, rel_tol=0.1, seed=5)
        value, err = integrate(1, t, SlotProduct(), plan)
        ref = t**5 / 120.0
        assert abs(value - ref) < max(4.0 * err, 1e-3 * ref)

    @pytest.mark.parametrize("mode", ["monte-carlo", "quasi-monte-carlo"])
    def test_sampling_constant_m2(self, mode):
        # d = 5 slots: volume t^4/24
        t = 1.1
        plan = IntegrationPlan(mode=mode, samples=16384, rel_tol=0.1, seed=9)
        value, err = integrate(2, t, ConstOne(), plan)
        ref = simplex_volume(5, t)
        assert abs(value - ref) < max(4.0 * err, 2e-3 * ref)


class TestSingularIntegrand:
    def test_all_three_modes_agree(self):
        # the interaction-weight profile at m=1: quadrature is the reference
        t = 0.8
        ref, ref_err = integrate(1, t, SingularProfile(), IntegrationPlan())
        assert ref_err < 1e-8 * abs(ref)
        for mode in ("monte-carlo", "quasi-monte-carlo"):
            plan = IntegrationPlan(mode=mode, samples=65536, rel_tol=0.05, seed=17)
            value, err = integrate(1, t, SingularProfile(), plan)
            assert abs(value - ref) < max(4.0 * err, 2e-3 * abs(ref)), (mode, value, ref, err)


class TestDeterminismAndDiagnostics:
    def test_threads_do_not_change_bits(self):
        t = 0.8
        for mode in ("monte-carlo", "quasi-monte-carlo"):
            plan = IntegrationPlan(mode=mode, samples=40000, rel_tol=0.1, seed=31)
            a = integrate(1, t, SingularProfile(), plan, threads=1)
            b = integrate(1, t, SingularProfile(), plan, threads=4)
            assert a == b

    def test_seed_changes_samples(self):
        t = 0.8
        a = integrate(1, t, SingularProfile(),
                      IntegrationPlan(mode="monte-carlo", samples=8192, rel_tol=0.1, seed=1))
        b = integrate(1, t, SingularProfile(),
                      IntegrationPlan(mode="monte-carlo", samples=8192, rel_tol=0.1, seed=2))
        assert a[0] != b[0]

    def test_accuracy_warning_on_thin_budget(self):
        plan = IntegrationPlan(mode="monte-carlo", samples=1000, rel_tol=1e-3, seed=3)
        with pytest.warns(AccuracyWarning):
            integrate(1, 0.8, SingularProfile(), plan)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(IntegrandError) as exc_info:
            integrate(1, 1.0, NotFinite(), IntegrationPlan())
        assert exc_info.value.time_vector is not None
        plan = IntegrationPlan(mode="monte-carlo", samples=1024, rel_tol=0.1)
        with pytest.raises(IntegrandError) as exc_info:
            integrate(1, 1.0, NotFinite(), plan)
        assert exc_info.value.time_vector is not None

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            integrate(-1, 1.0, ConstOne(), IntegrationPlan())
        with pytest.raises(DomainError):
            integrate(1, -1.0, ConstOne(), IntegrationPlan())

    @given(st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.2, max_value=3.0))
    @settings(max_examples=12, deadline=None)
    def test_positive_integrand_positive_result(self, m, t):
        plan = IntegrationPlan(mode="monte-carlo", samples=2048, rel_tol=0.1, seed=77)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            value, _ = integrate(m, t, ConstOne(), plan)
        assert value > 0.0


class TestSobol:
    """The package's Sobol generator against the scipy engine it replaces."""

    @pytest.mark.parametrize("d", range(1, 17))
    def test_bit_identical_to_scipy(self, d):
        from scipy.stats import qmc

        for n in (128, 2048):
            for seed in (0, 2026, 2**63, 2**64 - 1):
                want = qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
                assert np.array_equal(_sobol(d, n, seed), want), (d, n, seed)

    def test_last_tabulated_dimension(self):
        from scipy.stats import qmc

        want = qmc.Sobol(d=64, scramble=True, seed=5).random(256)
        assert np.array_equal(_sobol(64, 256, 5), want)

    def test_dimension_limit(self):
        with pytest.raises(ParameterError, match="at most 64 dimensions"):
            _sobol(65, 128, 1)
