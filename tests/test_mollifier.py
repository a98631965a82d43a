"""Mollifier, pair profile, and coupling constants.

Frozen oracle values:
* beta_phi for the reference bump from the double-convolution route that
  preceded Newton's theorem, at its default resolution: -0.250063007551472.
  It is not independent of the old code and is 2.0e-11 off the converged
  value below, hence its 5e-11 tolerance;
* a Monte Carlo estimate of the same integral: -0.25007774 +- 6.28e-5;
* int (Phi*Phi)(u) log|u| du on the tabulated profile, with Phi*Phi by a
  radial convolution of 256 x 256 polar nodes on 3201 radii, converged to
  1e-13: -0.2500630075714149;
* Phi(0) = int phi^2 from a plain Riemann sum on a fine Cartesian grid:
  0.5418154448230816;
* beta_star at beta0 = 0 follows the frozen closed form
  2 (log 2 - beta_phi - gamma).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critshe.errors import DomainError, ResolutionError
from critshe.mollifier import (
    EULER_GAMMA,
    CouplingSchedule,
    Mollifier,
    PairProfile,
    _Spline,
    beta_eps,
    beta_phi,
    beta_star,
    pair_profile,
)

BETA_PHI_QUAD_ORACLE = -0.250063007551472  # old convolution route, 2.0e-11 off
BETA_PHI_MC_ORACLE = (-0.25007774, 6.28e-5)  # Monte Carlo route: (mean, SE)
PHI_AT_ZERO_RIEMANN = 0.5418154448230816  # independent Riemann-sum route
BETA_PHI_CONVERGED = -0.2500630075714149  # refined convolution route


@pytest.fixture(scope="module")
def bump():
    return Mollifier.bump()


@pytest.fixture(scope="module")
def profile(bump):
    return pair_profile(bump)


class TestMollifier:
    def test_unit_mass(self, bump):
        assert bump.mass() == pytest.approx(1.0, abs=1e-12)

    def test_compact_support(self, bump):
        r = np.array([1.0, 1.5, 10.0])
        assert np.all(bump(r) == 0.0)

    def test_radial_positive_inside(self, bump):
        r = np.linspace(0.0, 0.999, 50)
        assert np.all(bump(r) > 0.0)

    def test_scaled_preserves_mass(self, bump):
        for lam in (0.5, 2.0, 10.0):
            s = bump.scaled(lam)
            assert s.support_radius == pytest.approx(1.0 / lam)
            assert s.mass() == pytest.approx(1.0, abs=1e-12)

    def test_scaled_pointwise(self, bump):
        lam = 4.0
        s = bump.scaled(lam)
        r = np.array([0.0, 0.1, 0.2])
        np.testing.assert_allclose(s(r), lam * lam * bump(lam * r), rtol=1e-15)

    def test_scaled_rejects_nonpositive(self, bump):
        with pytest.raises(DomainError):
            bump.scaled(0.0)
        with pytest.raises(DomainError):
            bump.scaled(-2.0)


class TestPairProfile:
    def test_unit_mass(self, profile):
        # int Phi = (int phi)^2 = 1
        assert profile.mass() == pytest.approx(1.0, abs=1e-8)

    def test_value_at_origin_against_riemann_oracle(self, profile):
        # Phi(0) = int phi(x)^2 dx; dual-route pin
        assert float(profile(0.0)) == pytest.approx(PHI_AT_ZERO_RIEMANN, abs=5e-11)

    def test_support_radius_doubles(self, profile):
        assert profile.support_radius == pytest.approx(2.0)
        r = np.array([2.0, 2.5, 100.0])
        assert np.all(profile(r) == 0.0)

    def test_nonnegative_everywhere(self, profile):
        r = np.linspace(0.0, 2.5, 400)
        assert np.all(profile(r) >= 0.0)

    def test_symmetric_decreasing_tail(self, profile):
        # Phi inherits radial monotonicity from the bump near the edge
        r = np.linspace(1.0, 1.99, 60)
        v = profile(r)
        assert np.all(np.diff(v) <= 1e-12)

    def test_under_resolved_grid_rejected(self, bump):
        with pytest.raises(ResolutionError):
            pair_profile(bump, grid=8)

    def test_explicit_grid_accepted(self, bump):
        radii = np.linspace(0.0, 2.0, 513)
        p = pair_profile(bump, grid=radii)
        assert p.mass() == pytest.approx(1.0, abs=1e-8)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            PairProfile(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("radii, fault", [
        ([0.0, 0.5, 0.5, 1.0, 1.5, 2.0], r"x\[2\] = 0.5 does not exceed x\[1\] = 0.5"),
        ([0.0, 0.5, 1.0, 0.9, 1.5, 2.0], r"x\[3\] = 0.9 does not exceed x\[2\] = 1.0"),
        ([0.0, 0.5, np.nan, 1.0, 1.5, 2.0], "finite"),
        ([0.0, 1.0, 2.0], "at least 4 knots"),
    ], ids=["repeated", "decreasing", "nan", "three"])
    def test_bad_radii_named(self, radii, fault):
        with pytest.raises(DomainError, match=fault):
            PairProfile(np.array(radii), np.ones(len(radii)), 2.0)

    def test_repeated_grid_radius_rejected(self, bump):
        radii = np.linspace(0.0, 2.0, 65)
        for bad in (np.insert(radii, 10, radii[10]), radii[::-1]):
            with pytest.raises(DomainError, match="strictly increasing"):
                pair_profile(bump, grid=bad)


class TestBetaPhi:
    def test_against_independent_quadrature_oracle(self, profile):
        assert beta_phi(profile) == pytest.approx(BETA_PHI_QUAD_ORACLE, abs=5e-11)

    def test_against_monte_carlo_oracle(self, profile):
        mean, se = BETA_PHI_MC_ORACLE
        assert abs(beta_phi(profile) - mean) < 3.0 * se

    def test_converged_value(self, profile):
        # Newton's-theorem route against the refined convolution route
        assert abs(beta_phi(profile) - BETA_PHI_CONVERGED) < 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scaling_identity(self, bump, profile, lam):
        # Phi_lam(x) = lam^2 Phi(lam x) shifts the log-moment by -log lam
        got = beta_phi(pair_profile(bump.scaled(lam)))
        assert abs(got - (beta_phi(profile) - math.log(lam))) < 1e-11


class TestSpline:
    """The package's spline against the scipy ``CubicSpline`` it replaces."""

    @staticmethod
    def scipy_spline(x, y):
        from scipy.interpolate import CubicSpline

        return CubicSpline(x, y, extrapolate=False)

    @staticmethod
    def probes(x):
        """A fine sweep past both ends, every knot and its two neighbours."""
        return np.concatenate([np.linspace(x[0] - 0.1, x[-1] + 0.1, 20001), x,
                               np.nextafter(x, np.inf), np.nextafter(x, -np.inf), [np.nan]])

    def default_grids(self, profile):
        # pair_profile's 801 radii on [0, 2R]
        return [(profile.radii, profile.values)]

    def test_bit_identical_on_default_grids(self, profile):
        for x, y in self.default_grids(profile):
            ours, theirs = _Spline(x, y), self.scipy_spline(x, y)
            for k in range(4):  # scipy stores the highest power first
                assert np.array_equal(ours._c[k], theirs.c[3 - k])
            r = self.probes(x)
            assert np.array_equal(ours(r), theirs(r), equal_nan=True)
            grid2d = r[:20000].reshape(100, 200).T  # any shape and memory order
            assert np.array_equal(ours(grid2d), theirs(grid2d), equal_nan=True)

    def test_graded_grid_with_row_interchanges(self):
        # after eliminating row 0 the pivot of row 1 is dx0 + dx1 = 3 < dx2 = 5,
        # so the solve takes dgtsv's row-interchange branch; the long last
        # step makes it interchange the last two rows as well
        x = np.cumsum(np.r_[0.0, 2.0, 1.0, 5.0, np.ones(15), 500.0])
        assert x[3] - x[2] > x[2] - x[0]
        y = np.sin(7.0 * x / x[-1])
        ours, theirs = _Spline(x, y), self.scipy_spline(x, y)
        r = self.probes(x)
        assert np.allclose(ours(r), theirs(r), rtol=1e-13, atol=0.0, equal_nan=True)


class TestCoupling:
    def test_beta_eps_leading_order(self):
        s = CouplingSchedule(beta_zero=0.0, epsilon=0.01)
        assert beta_eps(s) == pytest.approx(2.0 * math.pi / abs(math.log(0.01)), rel=1e-14, abs=0.0)

    def test_beta_eps_correction_term(self):
        L = abs(math.log(0.05))
        got = beta_eps(CouplingSchedule(beta_zero=1.5, epsilon=0.05))
        assert got == pytest.approx(2 * math.pi / L + 2 * math.pi * 1.5 / L**2, rel=1e-14, abs=0.0)

    def test_beta_eps_rejects_nonpositive_coupling(self):
        with pytest.raises(DomainError):
            beta_eps(CouplingSchedule(beta_zero=-3.0, epsilon=0.2))

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            CouplingSchedule(beta_zero=0.0, epsilon=1.0)
        with pytest.raises(DomainError):
            CouplingSchedule(beta_zero=math.inf, epsilon=0.1)

    def test_beta_star_frozen_value(self, profile):
        # 2 (log 2 + 0 - beta_phi - gamma) with the frozen beta_phi
        got = beta_star(0.0, beta_phi(profile))
        assert got == pytest.approx(0.7319890464198098, abs=2e-10)

    def test_beta_star_shift_covariance(self):
        # beta0 -> beta0 + c and beta_phi -> beta_phi + c cancel exactly
        a = beta_star(1.0, -0.25)
        b = beta_star(1.0 + 0.37, -0.25 + 0.37)
        assert a == b

    @given(st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_beta_star_is_affine(self, b0, bp):
        got = beta_star(b0, bp)
        want = 2.0 * (math.log(2.0) + (b0 - bp) - EULER_GAMMA)
        assert got == pytest.approx(want, abs=1e-12)

    def test_beta_star_rejects_non_finite(self):
        with pytest.raises(DomainError):
            beta_star(math.nan, 0.0)
