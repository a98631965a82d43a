"""Gaussian mixture calculus: heat flow, contractions, overlaps, kernels.

Independent oracles used here:
* the one-slot overlap closed form <w1 N(m1,s1), w2 N(m2,s2)> =
  w1 w2 rho(s1+s2, m1-m2), with rho the planar heat kernel;
* a Monte Carlo estimate of a three-slot correlated overlap, sampling one
  factor and averaging the other;
* K0 frozen values via the special-function layer (tested separately);
* the equal-pair contraction identity S P_t S* = (4 pi t)^(-1) P_(t/2).
"""

import math
import warnings

import numpy as np
import pytest

from critshe.errors import AccuracyWarning, DomainError, ParameterError, RankError
from critshe.gausscalc import (
    GaussianMixtureState,
    _inv_det,
    apply_J,
    apply_heat,
    apply_in,
    apply_med,
    apply_out,
    bessel_identity_residual,
    evaluate,
    heat2d,
    inner_product,
    product_state,
    second_moment_closed_form,
    second_moment_kernel,
    squeezed_heat,
)
from critshe.specfun import jfn


F3 = [[(1.0, (0.1, 0.2), 0.4)], [(0.7, (-0.3, 0.5), 0.6)], [(1.2, (0.0, -0.1), 0.5)]]
G2 = [[(0.9, (0.2, -0.2), 0.3)], [(1.1, (0.4, 0.1), 0.8)]]


class TestStateConstruction:
    def test_product_state_shapes(self):
        s = product_state(F3)
        assert (s.batch, s.n_components, s.k) == (1, 1, 3)

    def test_mixture_expansion(self):
        two = [(0.3, (0.0, 0.0), 0.5), (0.7, (1.0, 0.0), 0.5)]
        s = product_state([two, two])
        assert s.n_components == 4
        assert np.sum(s.weights) == pytest.approx(1.0)

    def test_batch_replication(self):
        s = product_state(F3, batch=5)
        assert s.batch == 5
        np.testing.assert_array_equal(s.weights[0], s.weights[4])

    def test_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            product_state([[(1.0, (0.0, 0.0), 0.0)]])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            product_state([])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            GaussianMixtureState(
                np.ones((1, 2)), np.zeros((1, 2, 3)), np.zeros((1, 2, 3)),
                np.zeros((1, 2, 2, 2)),
            )


class TestHeatFlow:
    def test_heat2d_peak(self):
        assert heat2d(0.7, (0.0, 0.0)) == pytest.approx(1.0 / (2 * math.pi * 0.7))
        with pytest.raises(DomainError):
            heat2d(0.0, (0.0, 0.0))

    def test_semigroup_exact(self):
        s = product_state(F3)
        one = apply_heat(apply_heat(s, 0.3), 0.9)
        both = apply_heat(s, 1.2)
        np.testing.assert_allclose(one.cov, both.cov, rtol=1e-15)
        np.testing.assert_array_equal(one.weights, both.weights)

    def test_heat_matches_density_evolution(self):
        # N(0, s) under P_t is N(0, s+t): check the peak height
        s = product_state([[(2.0, (1.0, -1.0), 0.7)]])
        out = apply_heat(s, 0.5)
        got = float(evaluate(out, np.array([[1.0]]), np.array([[-1.0]]))[0])
        assert got == pytest.approx(2.0 / (2 * math.pi * 1.2), rel=1e-13)

    def test_squeezed_heat_halves_merged_slot(self):
        s = product_state(G2)
        out = squeezed_heat(s, 0.8)
        assert out.cov[0, 0, 0, 0] == pytest.approx(s.cov[0, 0, 0, 0] + 0.4)
        assert out.cov[0, 0, 1, 1] == pytest.approx(s.cov[0, 0, 1, 1] + 0.8)
        np.testing.assert_array_equal(out.weights, s.weights)

    def test_squeezed_heat_zero_time_noop(self):
        s = product_state(G2)
        out = squeezed_heat(s, 0.0)
        np.testing.assert_array_equal(out.cov, s.cov)

    def test_squeezed_heat_rejects_negative(self):
        with pytest.raises(DomainError):
            squeezed_heat(product_state(G2), -0.1)

    def test_apply_J_is_weighted_squeezed_heat(self):
        s = product_state(G2)
        t, b = 0.6, 0.4
        out = apply_J(s, t, b)
        ref = squeezed_heat(s, t)
        np.testing.assert_array_equal(out.cov, ref.cov)
        factor = 4.0 * math.pi * jfn(t, b)
        np.testing.assert_allclose(out.weights, ref.weights * factor, rtol=1e-12)


class TestContractions:
    def test_in_out_adjoint(self):
        # <S_ij P_t f, g> = <f, P_t S*_ij g>
        f = product_state(F3)
        g = product_state(G2)
        for pair in ((1, 2), (1, 3), (2, 3)):
            lhs = float(inner_product(apply_in(f, pair, 0.7), g)[0])
            rhs = float(inner_product(f, apply_out(g, pair, 0.7))[0])
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_equal_pair_contraction_identity(self):
        # S_12 P_t S*_12 = (4 pi t)^(-1) P_(t/2) on the merged variable
        s = product_state([[(1.0, (0.3, -0.2), 0.5)]])
        t = 0.9
        med = apply_med(s, (1, 2), (1, 2), t)
        ref = apply_heat(s, t / 2.0)
        np.testing.assert_allclose(med.cov, ref.cov, rtol=1e-12)
        np.testing.assert_allclose(med.means_x, ref.means_x, atol=1e-14)
        np.testing.assert_allclose(
            med.weights, ref.weights / (4.0 * math.pi * t), rtol=1e-12
        )

    def test_pair_maps_match_dense_embedding(self):
        # reference: the contraction with its embedding A as a dense k x (k-1)
        # matrix and LAPACK solves, on correlated two-component batches
        rng = np.random.default_rng(8)
        B, C, k, t = 5, 2, 3, 0.4
        L = rng.standard_normal((B, C, k, k))
        state = GaussianMixtureState(
            rng.uniform(0.5, 1.5, (B, C)), rng.standard_normal((B, C, k)),
            rng.standard_normal((B, C, k)), L @ np.swapaxes(L, -1, -2) + 0.3 * np.eye(k))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            A = np.zeros((k, k - 1))
            A[[i - 1, j - 1], 0] = 1.0
            A[[r for r in range(k) if r not in (i - 1, j - 1)], range(1, k - 1)] = 1.0
            cov = state.cov + t * np.eye(k)
            mu = np.stack([state.means_x, state.means_y], axis=-1)  # (B, C, k, 2)
            P_A = np.linalg.solve(cov, np.broadcast_to(A, cov.shape[:2] + A.shape))
            P_mu = np.linalg.solve(cov, mu)
            M = A.T @ P_A
            m = np.linalg.solve(M, A.T @ P_mu)
            r = np.sum(mu * P_mu, axis=(-2, -1)) - np.sum(m * (A.T @ P_mu), axis=(-2, -1))
            factor = np.exp(-0.5 * r) / (2 * math.pi * np.linalg.det(cov) * np.linalg.det(M))
            got = apply_in(state, (i, j), t)
            np.testing.assert_allclose(got.weights, state.weights * factor, rtol=1e-12)
            np.testing.assert_allclose(got.means_x, m[..., 0], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(got.means_y, m[..., 1], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(got.cov, np.linalg.inv(M), rtol=1e-12, atol=1e-14)
            back = apply_out(got, (i, j), t)
            np.testing.assert_array_equal(back.means_x, got.means_x @ A.T)
            np.testing.assert_array_equal(back.cov, A @ got.cov @ A.T + t * np.eye(k))

    def test_contraction_of_nearly_coincident_particles(self):
        # C = s 11^T + t I has two eigenvalues t = 1e-9 against s = 0.3;
        # contracting x_1 = x_3 leaves [[s + t/2, s], [s, s + t]], the pair
        # midpoint as mean and the factor rho(2t, mu_1 - mu_3) per axis
        s, t = 0.3, 1e-9
        mx, my = np.array([0.2, -0.4, 0.2 + 3e-5]), np.array([0.1, 0.5, 0.1 - 2e-5])
        state = GaussianMixtureState(np.ones((1, 1)), mx[None, None], my[None, None],
                                     np.full((1, 1, 3, 3), s))
        got = apply_in(state, (1, 3), t)
        np.testing.assert_allclose(got.cov[0, 0], [[s + t / 2, s], [s, s + t]], rtol=1e-7)
        np.testing.assert_allclose(got.means_x[0, 0], [(mx[0] + mx[2]) / 2, mx[1]], rtol=1e-7)
        np.testing.assert_allclose(got.means_y[0, 0], [(my[0] + my[2]) / 2, my[1]], rtol=1e-7)
        rho = heat2d(2 * t, (mx[0] - mx[2], my[0] - my[2]))
        assert got.weights[0, 0] == pytest.approx(rho, rel=1e-6)

    def test_unresolvable_contraction_is_repaired_with_warning(self):
        # S_12 P_t S*_12 with t below the resolution of the variance 0.5:
        # x_1 - x_2 has variance exactly 0 in floating point
        s = product_state([[(1.0, (0.3, -0.2), 0.5)]])
        with pytest.warns(AccuracyWarning, match="clipped the eigenvalues of 1 of 1 matrices"):
            med = apply_med(s, (1, 2), (1, 2), 1e-300)
        assert np.all(np.isfinite(med.weights)) and med.weights[0, 0] > 0.0

    def test_apply_in_reduces_slot_count(self):
        f = product_state(F3)
        out = apply_in(f, (1, 3), 0.5)
        assert out.k == 2

    def test_apply_out_expands_slot_count(self):
        g = product_state(G2)
        out = apply_out(g, (2, 3), 0.5)
        assert out.k == 3
        # slots 2 and 3 carry the merged mean, slot 1 the spectator
        assert out.means_x[0, 0, 1] == out.means_x[0, 0, 2]

    def test_singular_covariance_repair_warns(self):
        # two of three covariances are exactly singular, so the batch falls
        # back to eigenvalue clipping, which must say what it repaired
        mats = np.array([[[1.0, 1.0], [1.0, 1.0]],
                         [[2.0, 0.0], [0.0, 1.0]],
                         [[4.0, 2.0], [2.0, 1.0]]])
        with pytest.warns(AccuracyWarning, match="clipped the eigenvalues of 2 of 3 matrices"):
            inv, det = _inv_det(mats)
        assert np.all(det > 0.0)
        assert np.all(np.linalg.eigvalsh(inv) > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a regular batch is inverted as it is
            _inv_det(mats[1:2])

    def test_bad_pair_rejected(self):
        with pytest.raises(DomainError):
            apply_in(product_state(F3), (3, 1), 0.5)
        with pytest.raises(DomainError):
            apply_out(product_state(G2), (1, 4), 0.5)


class TestInverseDeterminant:
    """The closed-form (inverse, det) behind every contraction and overlap."""

    @staticmethod
    def spd_batch(k: int, cond: float, seed: int, n: int = 64) -> np.ndarray:
        # random rotations of spectra spread geometrically over [1/cond, 1],
        # each matrix scaled by its own factor
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, k, k)))
        lam = np.geomspace(1.0, 1.0 / cond, k) * rng.uniform(0.1, 10.0, (n, 1))
        mats = np.einsum("bij,bj,bkj->bik", q, lam, q)
        return 0.5 * (mats + np.swapaxes(mats, -1, -2))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("cond", [1.0, 1e5, 1e10])
    def test_matches_lapack(self, k, cond):
        mats = self.spd_batch(k, cond, seed=10 * k + round(math.log10(cond)))
        inv, det = _inv_det(mats)
        ref_inv, ref_det = np.linalg.inv(mats), np.linalg.det(mats)
        tol = 100.0 * np.finfo(float).eps * cond  # both routes lose ~eps * cond
        np.testing.assert_allclose(det, ref_det, rtol=tol)
        scale = np.abs(ref_inv).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(inv - ref_inv) <= tol * scale)
        np.testing.assert_array_equal(inv, np.swapaxes(inv, -1, -2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_negative_determinant_raises(self, k):
        mats = np.stack([np.eye(k), np.diag([-2.0, 1.0, 3.0][:k])])
        with pytest.raises(RankError):
            _inv_det(mats)

    @pytest.mark.parametrize("k", [2, 3])
    def test_singular_batch_leaks_no_numpy_warning(self, k):
        # an exactly singular matrix is repaired (with the AccuracyWarning),
        # a zero matrix is rejected; neither divides by zero in the open
        mats = np.stack([np.ones((k, k)), np.eye(k)])
        with pytest.warns(AccuracyWarning) as record:
            inv, det = _inv_det(mats)
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
        assert np.all(np.isfinite(inv)) and np.all(det > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankError):
                _inv_det(np.zeros((2, k, k)))


class TestInnerProduct:
    def test_one_slot_closed_form(self):
        a = product_state([[(1.3, (0.2, -0.4), 0.5)]])
        b = product_state([[(0.8, (-0.1, 0.3), 0.9)]])
        got = float(inner_product(a, b)[0])
        want = 1.3 * 0.8 * heat2d(1.4, (0.3, -0.7))
        assert got == pytest.approx(want, rel=1e-13)

    def test_symmetry(self):
        f = product_state(F3)
        h = apply_heat(f, 0.4)
        assert float(inner_product(f, h)[0]) == pytest.approx(
            float(inner_product(h, f)[0]), rel=1e-13
        )

    def test_monte_carlo_oracle_correlated_three_slots(self):
        # sample the correlated factor, average the product factor
        g = product_state(G2)
        f = product_state(F3)
        fs = apply_out(g, (1, 3), 0.7)  # correlated covariance
        val = float(inner_product(fs, f)[0])
        rng = np.random.default_rng(5)
        L = np.linalg.cholesky(fs.cov[0, 0])
        n = 200_000
        zx = rng.standard_normal((n, 3)) @ L.T + fs.means_x[0, 0]
        zy = rng.standard_normal((n, 3)) @ L.T + fs.means_y[0, 0]
        draws = evaluate(f, zx, zy)
        mc = fs.weights[0, 0] * float(np.mean(draws))
        se = fs.weights[0, 0] * float(np.std(draws)) / math.sqrt(n)
        assert abs(mc - val) < 4.0 * se

    def test_rank_error_on_singular_sum(self):
        z = np.zeros((1, 1, 1, 1))
        s = GaussianMixtureState(np.ones((1, 1)), np.zeros((1, 1, 1)),
                                 np.zeros((1, 1, 1)), z)
        with pytest.raises(RankError):
            inner_product(s, s)

    def test_slot_mismatch_rejected(self):
        with pytest.raises(DomainError):
            inner_product(product_state(F3), product_state(G2))


class TestSecondMomentKernel:
    def test_bessel_identity_spot_checks(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            tau, rd, rdp = rng.uniform(0.1, 2.0, size=3)
            assert bessel_identity_residual(float(tau), float(rd), float(rdp)) < 1e-8

    def test_bessel_identity_domain(self):
        with pytest.raises(DomainError):
            bessel_identity_residual(0.0, 1.0, 1.0)

    def test_routes_agree(self):
        args = (1.0, (0.1, 0.0), (0.5, 0.3), (0.0, 0.2), (-0.4, 0.1), 0.5)
        v_b = second_moment_kernel(*args, route="bessel")
        v_d = second_moment_kernel(*args, route="direct")
        assert v_b == pytest.approx(v_d, rel=1e-8)

    def test_unknown_route_rejected(self):
        with pytest.raises(ParameterError):
            second_moment_kernel(1.0, (0, 0), (1, 0), (0, 0), (1, 0), 0.0, route="x")

    def test_zero_relative_coordinate_rejected(self):
        with pytest.raises(DomainError):
            second_moment_kernel(1.0, (0, 0), (0.0, 0.0), (0, 0), (1, 0), 0.0)


class TestSecondMomentClosedForm:
    F = ((1.0, (0.3, -0.2), 0.8),)
    Z = ((1.0, (0.0, 0.1), 0.5),)

    def test_particle_swap_symmetry(self):
        f1 = ((1.0, (0.4, 0.0), 0.6),)
        f2 = ((1.0, (-0.2, 0.3), 0.6),)
        a = second_moment_closed_form(1.0, 0.5, f1, f2, self.Z)
        b = second_moment_closed_form(1.0, 0.5, f2, f1, self.Z)
        assert a == pytest.approx(b, rel=1e-12)

    def test_bilinearity_in_weights(self):
        scaled = ((2.0, (0.3, -0.2), 0.8),)
        a = second_moment_closed_form(1.0, 0.0, self.F, self.F, self.Z)
        b = second_moment_closed_form(1.0, 0.0, scaled, self.F, self.Z)
        assert b == pytest.approx(2.0 * a, rel=1e-13)

    def test_monotone_in_beta(self):
        vals = [second_moment_closed_form(1.0, b, self.F, self.F, self.Z)
                for b in (-1.0, 0.0, 1.0)]
        assert vals == sorted(vals)

    def test_mixed_variances_rejected(self):
        bad = ((0.5, (0.0, 0.0), 0.5), (0.5, (1.0, 0.0), 0.7))
        with pytest.raises(ParameterError):
            second_moment_closed_form(1.0, 0.0, self.F, self.F, bad)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            second_moment_closed_form(0.0, 0.0, self.F, self.F, self.Z)
