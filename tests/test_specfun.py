"""Special-function layer: interaction weight, K0, resolvent, polynomials.

Reference values frozen from independent oracles:
* K0 at 1, 2, 15, 30, 60 and 700, and the complex resolvent kernel, from
  mpmath's besselk (30- and 50-digit working precision);
* the interaction-weight integral JW(w) = int_0^inf e^(a w)/Gamma(a) da at
  w = log t + b = 0 from an mpmath tanh-sinh quadrature, and at eight w in
  [-700, 6.5] from mpmath 1.3.0 Gauss-Legendre panels in a, split at a = 1,
  at a = k/|w| for w < -2, and at +-5, 10, 20, 40 standard deviations
  sqrt(a*) around the maximizer psi(a*) = w (30-digit working precision,
  18 digits kept; tanh-sinh on the same panels and the Volterra identity
  below agree to 3e-29).  These integrate over a, while specfun sums the
  identity JW(w) = e^(w + e^w) + int e^(y - e^y)/(pi^2 + (y - w)^2) dy, so
  they pin it independently; the Chebyshev table is then pinned to it;
* the Laplace and convolution identities are self-validating residuals.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critshe import specfun
from critshe.errors import AccuracyError, BranchCutError, DomainError, SingularityError
from critshe.specfun import (
    GammaPolynomial,
    bessel_k0,
    conv_identity_residual,
    gamma_identity_check,
    green2d,
    jfn,
    jfn_laplace_residual,
    jfn_times_t,
)

# mpmath besselk(0, x), frozen
K0_AT_1 = 0.4210244382407083
K0_AT_2 = 0.1138938727495334
# mpmath besselk(0, x) at large x, down to near the smallest normal double, frozen
K0_LARGE = (
    (15.0, 9.819536482396435e-08),
    (30.0, 2.1324774964630563e-14),
    (60.0, 1.4138978405591078e-27),
    (700.0, 4.669776431685377e-306),
)
# mpmath tanh-sinh of int_0^inf e^(w a)/Gamma(a) da at w = 0, frozen
JW_AT_0 = 2.8077702420285195
# the same a-integral by mpmath Gauss-Legendre panels (see the module
# docstring), frozen
JW_MPMATH = (
    (-700.0, 2.04416561958783369e-6),
    (-40.0, 6.41495618220809302e-4),
    (-5.0, 0.0434857513820778495),
    (-1.0, 0.61985841414477345),
    (2.0, 11956.8713438623652),
    (4.0, 2.81095057284697744e25),
    (5.5, 4.5391611255089911e108),
    (6.5, 4.90066535726144162e291),
)
# mpmath besselk(0, zeta)/pi for zeta = sqrt(-2 z) at r = 1, frozen
GREEN2D_COMPLEX = (
    (-1j, 0.02552772933654481 - 0.11372494740114737j),  # zeta = 1+1j
    (-2.5 + 6j, -0.006616779410811552 + 0.00773896117288993j),  # 3-2j
    (-32.5 - 36j, -7.546334058430976e-06 + 1.3554320159366145e-05j),  # 9+4j
    (-59.5 - 60j, 3.1216220359513023e-07 + 5.973501954254258e-07j),  # 12+5j
)


class TestCouplingConstant:
    def test_non_finite_coupling_rejected(self):
        for b in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="coupling constant must be finite"):
                jfn_times_t(0.0, b)


class TestInteractionWeight:
    def test_frozen_value_at_origin(self):
        # t * j(t, b) depends only on w = log t + b; w = 0 is the frozen pin
        assert jfn_times_t(0.0, 0.0) == pytest.approx(JW_AT_0, rel=1e-12, abs=0.0)
        assert jfn(1.0, 0.0) == pytest.approx(JW_AT_0, rel=1e-12, abs=0.0)

    def test_scalar_array_consistency(self):
        t = np.array([0.3, 1.0, 2.5])
        vals = jfn(t, 0.7)
        assert vals.shape == (3,)
        for i, ti in enumerate(t):
            assert jfn(float(ti), 0.7) == vals[i]

    def test_depends_only_on_log_t_plus_beta(self):
        # j(t, b) = JW(log t + b)/t: shifting b and rescaling t cancel
        a = jfn(0.5, 1.0) * 0.5
        b = jfn(0.5 * math.e, 0.0) * 0.5 * math.e
        assert a == pytest.approx(b, rel=1e-13, abs=0.0)

    def test_positive_and_increasing_in_beta(self):
        t = 0.8
        vals = [jfn(t, b) for b in (-2.0, -1.0, 0.0, 1.0)]
        assert all(v > 0.0 for v in vals)
        assert vals == sorted(vals)

    def test_deep_tail_matches_inverse_square_law(self):
        # JW(w) = 1/w^2 (1 + O(1/w)) as w -> -inf; exercised far below the
        # underflow threshold of t itself, which only log t survives
        for w in (-50.0, -700.0, -3000.0, -1e6, -9e15):
            val = float(jfn_times_t(np.array([w]), 0.0)[0])
            assert val == pytest.approx(1.0 / w**2, rel=1.3 / abs(w) + 1e-13, abs=0.0)

    @pytest.mark.parametrize("w, expected", JW_MPMATH)
    def test_matches_defining_integral(self, w, expected):
        # _jw sums the Volterra-function identity; the pins integrate over a
        rel = 1e-15 if w <= 2.0 else 5e-14
        assert float(specfun._jw(w)[0]) == pytest.approx(expected, rel=rel, abs=0.0)

    def test_log_matches_log_of_value(self):
        w = np.linspace(-50.0, 6.5, 5001)
        log_jw = specfun._jw_log(w)
        gap = np.abs(log_jw - np.log(specfun._jw(w)))
        assert np.all(gap <= 1e-15 * np.maximum(1.0, np.abs(log_jw)))

    @pytest.mark.parametrize("w", [7.0, 10.0, 14.0, 20.0])
    def test_log_beyond_overflow_is_closed_form(self, w):
        # log JW = w + e^w + log(1 + remainder e^-(w + e^w)), the last term
        # below one ulp here; no cut, no cap
        assert float(specfun._jw_log(w)[0]) == w + math.exp(w)

    def test_far_below_zero_underflows_quietly(self):
        # JW(w) ~ 1/w^2 is below the smallest double once |w| > 1e162
        assert float(specfun._jw(-1e300)[0]) == 0.0
        assert jfn(1.0, -1e300) == 0.0

    def test_table_matches_quadrature(self):
        # jfn_times_t reads a Chebyshev table; _jw is the quadrature it was
        # built from.  Above w = 3 the table holds log JW > 20, whose
        # absolute rounding is JW's relative error
        rng = np.random.default_rng(11)
        for w, tol in (
            (np.concatenate([np.linspace(-3000.0, -64.0, 5001),
                             np.linspace(-64.0, 3.0, 60_001)]), 1e-13),
            (1.0 - 1.0 / rng.uniform(size=200_000), 1e-13),  # the QMC law of log t
            (-np.logspace(2.0, 16.0, 2001), 1e-13),
            (np.linspace(3.0, 6.5, 20_001)[1:], 2e-12),
        ):
            rel = np.abs(jfn_times_t(w, 0.0) / specfun._jw(w) - 1.0)
            assert rel.max() <= tol, (w.min(), w.max(), rel.max())

    def test_table_edge_cases(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = jfn_times_t(np.array([[np.nan, -np.inf], [-1e300, 6.5]]), 0.0)
            assert math.isnan(jfn_times_t(math.nan, 0.0))
        assert out.shape == (2, 2)
        assert math.isnan(out[0, 0]) and out[0, 1] == 0.0 and out[1, 0] == 0.0
        assert out[1, 1] == pytest.approx(float(specfun._jw(6.5)[0]), rel=2e-12, abs=0.0)
        for scalar in (0.25, np.float64(0.25), np.array(0.25)):
            assert type(jfn_times_t(scalar, 0.0)) is float
        assert jfn_times_t(np.zeros((0, 3)), 0.0).shape == (0, 3)
        with pytest.raises(AccuracyError) as table_exc:
            jfn_times_t(np.array([0.0, 6.5 + 1e-9]), 0.0)
        with pytest.raises(AccuracyError) as quad_exc:
            specfun._jw(np.array([0.0, 6.5 + 1e-9]))
        assert str(table_exc.value) == str(quad_exc.value)

    def test_table_built_once_from_few_nodes(self, monkeypatch):
        sizes = []
        jw = specfun._jw

        def counting(w, *args):
            sizes.append(np.size(w))
            return jw(w, *args)

        monkeypatch.setattr(specfun, "_jw", counting)
        specfun._jw_table.cache_clear()
        try:
            jfn_times_t(np.zeros(3), 0.0)
            jfn_times_t(0.5, 1.0)
            info = specfun._jw_table.cache_info()
        finally:
            specfun._jw_table.cache_clear()  # the next call rebuilds from _jw itself
        assert (info.misses, info.hits) == (1, 1)
        assert len(sizes) == 1 and sizes[0] <= 2048

    def test_overflow_guard(self):
        with pytest.raises(AccuracyError):
            jfn_times_t(7.0, 0.0)
        with pytest.raises(AccuracyError):
            jfn(1000.0, 0.0)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(DomainError):
            jfn(0.0, 0.0)
        with pytest.raises(DomainError):
            jfn(-1.0, 0.0)

    def test_embedded_error_control(self, monkeypatch):
        monkeypatch.setattr(specfun, "_JFN_REL_TOL", 1e-30)  # unreachable tolerance must raise
        with pytest.raises(AccuracyError) as exc_info:
            jfn(1.0, 0.0)
        assert exc_info.value.estimate == pytest.approx(JW_AT_0, rel=1e-10, abs=0.0)

    def test_laplace_transform_residual(self):
        # int_0^inf e^(zt) j(t,b) dt = 1/(log(-z) - b) for Re z < -e^b
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = float(rng.uniform(-1.5, 1.5))
            z = -math.exp(b + 0.3) * float(rng.uniform(1.0, 5.0))
            rel = abs(jfn_laplace_residual(z, b)) * abs(math.log(-z) - b)
            assert rel < 1e-6

    def test_laplace_near_boundary_converges(self):
        # 1e-7 from Re z = -e^b the tail reaches T ~ 5e8 and still decays
        z = -(1.0 + 1e-7)
        rel = jfn_laplace_residual(z, 0.0) * abs(math.log(-z))
        assert rel < 1e-6

    def test_laplace_too_near_boundary_raises_instead_of_truncating(self):
        # 1e-8 from the boundary the tail would need T ~ 5e9, beyond the 1e9
        # budget; a truncated tail would return a wrong value silently
        with pytest.raises(AccuracyError, match="truncation budget"):
            jfn_laplace_residual(-(1.0 + 1e-8), 0.0)

    def test_convolution_identity_residual(self):
        # j(t) = int int j(t1) (t2-t1)^-1 j(t-t2), the semigroup identity
        for s, t in ((0.5, 1.0), (0.1, 2.0)):
            for b in (-1.0, 0.0, 2.0):
                rel = conv_identity_residual(s, t, b) / jfn(t, b)
                assert rel < 1e-4, (s, t, b, rel)


class TestBesselK0:
    def test_frozen_values(self):
        assert bessel_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-13, abs=0.0)
        assert bessel_k0(2.0) == pytest.approx(K0_AT_2, rel=1e-13, abs=0.0)

    def test_small_argument_log_singularity(self):
        # K0(x) = -log(x/2) - gamma + O(x^2 log x)
        x = 1e-8
        expected = -math.log(x / 2.0) - 0.5772156649015329
        assert bessel_k0(x) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_frozen_large_argument_values(self):
        for x, expected in K0_LARGE:
            assert bessel_k0(x) == pytest.approx(expected, rel=1e-13, abs=0.0), x

    def test_wronskian_like_recurrence(self):
        # d/dx K0 = -K1 and K1' = -K0 - K1/x give a second-difference check:
        # K0''(x) = K0(x) + K0'(x)/x, verified by central differences
        x, h = 1.7, 1e-4
        k0 = bessel_k0(x)
        d1 = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
        d2 = (bessel_k0(x + h) - 2 * k0 + bessel_k0(x - h)) / h**2
        assert d2 == pytest.approx(k0 - d1 / x, rel=1e-6, abs=0.0)

    def test_array_input(self):
        xs = np.array([0.5, 1.0, 3.0])
        out = bessel_k0(xs)
        assert out.shape == (3,)
        assert float(out[1]) == pytest.approx(K0_AT_1, rel=1e-13, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k0(0.0)
        with pytest.raises(DomainError):
            bessel_k0(-1.0)

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_decreasing(self, x):
        v = bessel_k0(x)
        assert v > 0.0
        assert bessel_k0(x * 1.01) < v


class TestGreen2d:
    def test_real_negative_energy_matches_k0(self):
        z, r = -0.8, 1.3
        expected = bessel_k0(math.sqrt(2.0 * 0.8) * r) / math.pi
        val = green2d(z, (r, 0.0))
        assert val.imag == 0.0
        assert val.real == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("z, expected", GREEN2D_COMPLEX)
    def test_complex_energy_matches_frozen_reference(self, z, expected):
        assert green2d(z, (1.0, 0.0)) == pytest.approx(expected, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("z, expected", GREEN2D_COMPLEX)
    def test_complex_energy_to_machine_precision(self, z, expected):
        # abs=0: approx's default 1e-12 absolute slack is up to 1.5e-6 relative here
        assert green2d(z, (1.0, 0.0)) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_rotation_invariance(self):
        z = -1.0 + 0.5j
        a = green2d(z, (0.6, 0.8))
        b = green2d(z, (1.0, 0.0))
        assert a == pytest.approx(b, rel=1e-7, abs=0.0)

    def test_complex_conjugate_symmetry(self):
        z = -0.5 + 0.7j
        assert green2d(np.conj(z), (1.0, 0.2)) == pytest.approx(
            np.conj(green2d(z, (1.0, 0.2))), rel=1e-7, abs=0.0
        )

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            green2d(0.5, (1.0, 0.0))
        with pytest.raises(BranchCutError):
            green2d(0.0, (1.0, 0.0))

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularityError):
            green2d(-1.0, (0.0, 0.0))

    def test_resolvent_equation_numerically(self):
        # (-(1/2) Laplacian - z) G = 0 away from the source
        z, r, h = -0.6, 1.1, 1e-3

        def g(x, y):
            return green2d(z, (x, y)).real

        lap = (g(r + h, 0) + g(r - h, 0) + g(r, h) + g(r, -h) - 4 * g(r, 0)) / h**2
        assert -0.5 * lap - z * g(r, 0) == pytest.approx(0.0, abs=1e-5)


class TestGammaPolynomial:
    def test_build_matches_rising_factorial(self):
        from fractions import Fraction

        p = GammaPolynomial.build(3)
        for a in (Fraction(1, 2), Fraction(2), Fraction(-3, 4)):
            assert p.evaluate(a) == a * (a + 1) * (a + 2) * (a + 3)

    def test_degenerate_index_is_one(self):
        from fractions import Fraction

        p = GammaPolynomial.build(-1)
        assert p.evaluate(Fraction(17)) == 1

    def test_degree(self):
        assert GammaPolynomial.build(4).degree == 5

    @given(st.integers(min_value=0, max_value=8),
           st.floats(min_value=0.05, max_value=7.5))
    @settings(max_examples=40, deadline=None)
    def test_integral_identity_exact(self, m, alpha):
        assert abs(gamma_identity_check(m, alpha)) <= 1e-12
