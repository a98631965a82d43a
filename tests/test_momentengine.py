"""Moment engine: diagram expansion against closed forms and invariants.

The n = 2 moment has an exact center-of-mass/relative closed form (tested
in its own module); here it serves as the oracle for the general engine.
The n = 1 moment is pure heat flow and has a one-line Gaussian overlap
oracle.  Truncation behavior is pinned in both regimes: geometric decay
(finite tail) and plateau (refuses to extrapolate: warning + infinite tail).
"""

import math
import warnings

import pytest

from critshe.diagrams import DiagramIndex, classify
from critshe.errors import DomainError, NonconvergenceWarning
from critshe.gausscalc import heat2d, second_moment_closed_form
from critshe.momentengine import (
    MomentRequest,
    centered_third_moment,
    correlation,
    diagram_contribution,
    semigroup_residual,
)
from critshe.simplexint import _QMC_CHUNK, IntegrationPlan

F = ((1.0, (0.3, -0.2), 0.8),)
F2 = ((0.6, (0.3, -0.2), 0.8), (0.4, (-1.0, 0.5), 0.8))
Z = ((1.0, (0.0, 0.1), 0.5),)
QUAD = IntegrationPlan(mode="adaptive-quadrature")


class TestMomentRequest:
    def test_bare_mixture_shared_across_particles(self):
        req = MomentRequest(n=3, t=1.0, beta_star=0.0, f=F, z_ic=Z)
        assert len(req.f) == 3
        assert req.f[0] == req.f[1] == req.f[2]

    def test_explicit_per_particle_mixtures(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.0, f=(F, F2), z_ic=Z)
        assert len(req.f) == 2
        assert req.f[0] != req.f[1]

    def test_wrong_mixture_count_rejected(self):
        with pytest.raises(DomainError):
            MomentRequest(n=3, t=1.0, beta_star=0.0, f=(F, F2), z_ic=Z)

    def test_scalar_validation(self):
        with pytest.raises(DomainError):
            MomentRequest(n=0, t=1.0, beta_star=0.0, f=F, z_ic=Z)
        with pytest.raises(DomainError):
            MomentRequest(n=2, t=0.0, beta_star=0.0, f=F, z_ic=Z)
        with pytest.raises(DomainError):
            MomentRequest(n=2, t=1.0, beta_star=0.0, f=F, z_ic=Z, m_max=0)

    def test_bad_mixture_rejected(self):
        with pytest.raises(DomainError):
            MomentRequest(n=2, t=1.0, beta_star=0.0, f=((1.0, (0, 0), -1.0),), z_ic=Z)


class TestFirstMoment:
    def test_matches_heat_overlap(self):
        # <f, P_t z> = w_f w_z rho(s_f + t + s_z, mu_f - mu_z)
        req = MomentRequest(n=1, t=1.3, beta_star=0.7, f=F, z_ic=Z)
        res = correlation(req)
        want = heat2d(0.8 + 1.3 + 0.5, (0.3 - 0.0, -0.2 - 0.1))
        assert res.total == pytest.approx(want, rel=1e-13)
        assert res.free_term == res.total
        assert res.contributions == {}
        assert res.truncation_tail_estimate == 0.0

    def test_beta_independent(self):
        a = correlation(MomentRequest(n=1, t=0.5, beta_star=-2.0, f=F, z_ic=Z)).total
        b = correlation(MomentRequest(n=1, t=0.5, beta_star=3.0, f=F, z_ic=Z)).total
        assert a == b


class TestSecondMomentAgainstClosedForm:
    @pytest.mark.parametrize("t,beta", [(1.0, 0.0), (0.25, -1.0)])
    def test_quadrature_route(self, t, beta):
        req = MomentRequest(n=2, t=t, beta_star=beta, f=(F, F2), z_ic=Z, plan=QUAD)
        res = correlation(req)
        oracle = second_moment_closed_form(t, beta, F, F2, Z)
        assert res.total == pytest.approx(oracle, rel=1e-9)
        assert res.truncation_tail_estimate == 0.0  # m = 2 has no diagrams

    def test_total_is_free_plus_contributions(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.5, f=F, z_ic=Z, plan=QUAD)
        res = correlation(req)
        recon = res.free_term + math.fsum(v for v, _ in res.contributions.values())
        assert res.total == pytest.approx(recon, rel=1e-14)

    def test_sampling_route_within_errors(self):
        plan = IntegrationPlan(mode="quasi-monte-carlo", samples=16384, seed=4)
        req = MomentRequest(n=2, t=1.0, beta_star=0.5, f=F, z_ic=Z, plan=plan)
        res = correlation(req)
        oracle = second_moment_closed_form(1.0, 0.5, F, F, Z)
        err = next(iter(res.contributions.values()))[1]
        assert abs(res.total - oracle) < max(4.0 * err, 1e-6 * abs(oracle))

    def test_per_m_bookkeeping(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.0, f=F, z_ic=Z, m_max=5, plan=QUAD)
        res = correlation(req)
        # only one pair exists at n=2, so the expansion stops at m=1
        assert list(res.per_m) == [1]
        assert res.truncation_rule == "geometric-extrapolation"


class TestDeterminismAndSeeds:
    def test_repeat_and_threads_bit_identical(self):
        plan = IntegrationPlan(mode="quasi-monte-carlo", samples=4096, seed=11)
        req = MomentRequest(n=2, t=1.0, beta_star=0.5, f=F, z_ic=Z, plan=plan)
        a = correlation(req)
        b = correlation(req)
        c = correlation(req, threads=3)
        assert a.total == b.total == c.total
        assert a.contributions == b.contributions == c.contributions

    def test_row_chunks_bit_identical_across_threads(self):
        # n = 3 runs the 3 x 3 closed forms; 8 randomizations of 1024 points
        # give each diagram more than one row chunk to spread over threads
        plan = IntegrationPlan(mode="quasi-monte-carlo", samples=8192, seed=11)
        assert plan.samples > _QMC_CHUNK
        req = MomentRequest(n=3, t=1.0, beta_star=0.0, f=F, z_ic=Z, m_max=2, plan=plan)
        with warnings.catch_warnings():
            # two orders are no basis for the tail rule; not the subject here
            warnings.simplefilter("ignore", NonconvergenceWarning)
            runs = [correlation(req, threads=threads) for threads in (1, 2, 3)]
        assert runs[0].contributions == runs[1].contributions == runs[2].contributions

    def test_contribution_seed_is_content_derived(self):
        # a diagram integrated alone matches its value inside the full sweep
        plan = IntegrationPlan(mode="quasi-monte-carlo", samples=4096, seed=11)
        req = MomentRequest(n=3, t=0.5, beta_star=0.0, f=F, z_ic=Z, m_max=1, plan=plan)
        with warnings.catch_warnings():
            # m_max=1 leaves a one-point extrapolation basis; that warning is
            # the subject of TestTruncation, not of this determinism check
            warnings.simplefilter("ignore", NonconvergenceWarning)
            res = correlation(req)
        d = DiagramIndex(3, ((1, 3),))
        alone = diagram_contribution(d, req)
        assert res.contributions[d] == alone

    def test_diagram_request_mismatch(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.0, f=F, z_ic=Z)
        with pytest.raises(DomainError):
            diagram_contribution(DiagramIndex(3, ((1, 2),)), req)


class TestTruncation:
    @pytest.mark.filterwarnings("ignore::critshe.errors.AccuracyWarning")
    def test_geometric_regime_finite_tail(self):
        # the thin budget trips per-diagram accuracy warnings at m=3; the
        # subject here is the tail rule, which only needs the per-m ratios
        plan = IntegrationPlan(mode="quasi-monte-carlo", samples=8192, seed=2)
        req = MomentRequest(n=3, t=0.1, beta_star=-1.0, f=F, z_ic=Z, m_max=3, plan=plan)
        res = correlation(req)
        ratios = [abs(res.per_m[m + 1] / res.per_m[m]) for m in (1, 2)]
        assert all(r < 0.7 for r in ratios)
        assert 0.0 < res.truncation_tail_estimate < math.inf

    @pytest.mark.filterwarnings("ignore::critshe.errors.AccuracyWarning")
    def test_plateau_regime_refuses_extrapolation(self):
        plan = IntegrationPlan(mode="quasi-monte-carlo", samples=4096, seed=2)
        req = MomentRequest(n=3, t=8.0, beta_star=2.0, f=F, z_ic=Z, m_max=2, plan=plan)
        with pytest.warns(NonconvergenceWarning) as caught:
            res = correlation(req)
        assert res.truncation_tail_estimate == math.inf
        nonconv = [w.message for w in caught
                   if isinstance(w.message, NonconvergenceWarning)]
        assert nonconv and hasattr(nonconv[0], "per_m_totals")
        assert sorted(nonconv[0].per_m_totals) == [1, 2]

    def test_exhausted_expansion_zero_tail(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.0, f=F, z_ic=Z, m_max=4, plan=QUAD)
        assert correlation(req).truncation_tail_estimate == 0.0


@pytest.mark.filterwarnings("ignore::critshe.errors.NonconvergenceWarning")
class TestCenteredThirdMoment:
    PLAN = IntegrationPlan(mode="quasi-monte-carlo", samples=4096, seed=6)

    def test_equals_manual_nondegenerate_filter(self):
        req = MomentRequest(n=3, t=0.5, beta_star=0.0, f=F, z_ic=Z, m_max=2,
                            plan=self.PLAN)
        res = correlation(req)
        manual = math.fsum(
            v for d, (v, _) in res.contributions.items() if not classify(d)
        )
        got = centered_third_moment(req)
        assert abs(got - manual) < 1e-13 * abs(manual)

    def test_with_error_variant(self):
        req = MomentRequest(n=3, t=0.5, beta_star=0.0, f=F, z_ic=Z, m_max=2,
                            plan=self.PLAN)
        value, err = centered_third_moment(req, with_error=True)
        assert err > 0.0
        assert value == centered_third_moment(req)

    def test_requires_three_identical_test_functions(self):
        with pytest.raises(DomainError):
            centered_third_moment(
                MomentRequest(n=2, t=0.5, beta_star=0.0, f=F, z_ic=Z, plan=self.PLAN)
            )
        with pytest.raises(DomainError):
            centered_third_moment(
                MomentRequest(n=3, t=0.5, beta_star=0.0, f=(F, F, F2), z_ic=Z,
                              plan=self.PLAN)
            )

    def test_degenerate_diagrams_factor_exactly(self):
        # each m=1 diagram at n=3 is a pair interaction times a spectator:
        # its value must equal the n=2 diagram value times the free overlap
        req3 = MomentRequest(n=3, t=0.5, beta_star=0.0, f=F, z_ic=Z, m_max=1,
                             plan=QUAD)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonconvergenceWarning)
            res3 = correlation(req3)
        req2 = MomentRequest(n=2, t=0.5, beta_star=0.0, f=F, z_ic=Z, m_max=1,
                             plan=QUAD)
        pair_value = next(iter(correlation(req2).contributions.values()))[0]
        spectator = correlation(
            MomentRequest(n=1, t=0.5, beta_star=0.0, f=F, z_ic=Z)
        ).total
        for d, (v, _) in res3.contributions.items():
            assert classify(d)
            assert v == pytest.approx(pair_value * spectator, rel=1e-10)


class TestSemigroupResidual:
    def test_small_residual_at_midpoint(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.25, f=(F, F2), z_ic=Z)
        scale = abs(second_moment_closed_form(1.0, 0.25, F, F2, Z))
        assert semigroup_residual(req, 0.5) / scale < 1e-6

    def test_domain_checks(self):
        req = MomentRequest(n=2, t=1.0, beta_star=0.0, f=F, z_ic=Z)
        with pytest.raises(DomainError):
            semigroup_residual(req, 0.0)
        with pytest.raises(DomainError):
            semigroup_residual(req, 1.0)
        with pytest.raises(DomainError):
            semigroup_residual(
                MomentRequest(n=3, t=1.0, beta_star=0.0, f=F, z_ic=Z), 0.5
            )
