import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.special import hyp2f1

from fbmlab import constants as cst
from fbmlab.constants import Beta3Mode, Regime

import oracles

# pinned against the hand-rolled Lanczos gamma oracle (see oracles.py)
C_H_075 = 0.2674111587579976
C_H_025 = 0.645998003740752
# exact: c_H^2/(H-1/2)^2 (2P-1)/(2H) at H = 0.6, with
# P = Gamma(1-H) Gamma(H+1/2)/(4^H sqrt(pi)), evaluated in mpmath at 40
# digits; the earlier Romberg-oracle pin 0.03517736976811707 was 6.3e-12
# relative above it
BETA3_06_1_0 = 0.035177369767896427


def mp_c_h(H):
    """c_h at 40 digits, from the same Gamma-function formula."""
    with mpmath.workdps(40):
        H = mpmath.mpf(H)
        if H > 0.5:
            sq = (H * (2 * H - 1) * mpmath.gamma(1.5 - H)
                  / (mpmath.gamma(2 - 2 * H) * mpmath.gamma(H - 0.5)))
        else:
            sq = (2 * H * mpmath.gamma(1.5 - H) / ((1 - 2 * H)
                  * mpmath.gamma(1 - 2 * H) * mpmath.gamma(H + 0.5)))
        return mpmath.sqrt(sq)


def mp_beta3(H, x):
    """beta3(H, x, 1) at 40 digits, through J(x) = -(1 - 2 2F1(-2H, 1/2-H;
    1-2H; 1-x) + x^{2H}) / (2H) evaluated at c = 1 - x itself (the code
    goes through the connection formula or a series instead)."""
    with mpmath.workdps(40):
        H, x = mpmath.mpf(H), mpmath.mpf(x)
        J = -(1 - 2 * mpmath.hyp2f1(-2 * H, 0.5 - H, 1 - 2 * H, 1 - x)
              + x ** (2 * H)) / (2 * H)
        pre = mp_c_h(H) ** 2 / ((H - 0.5) ** 2 if H > 0.5 else 1)
        return float(pre * J)


class TestCH:
    def test_brownian_value_exact(self):
        assert cst.c_h(0.5) == 1.0

    def test_pinned_above_half(self):
        assert cst.c_h(0.75) == pytest.approx(C_H_075, rel=1e-12)

    def test_pinned_below_half(self):
        assert cst.c_h(0.25) == pytest.approx(C_H_025, rel=1e-12)

    def test_matches_oracle_across_range(self):
        rng = np.random.default_rng(1)
        for H in rng.uniform(0.02, 0.98, size=50):
            if abs(H - 0.5) < 1e-3:
                continue
            assert cst.c_h(H) == pytest.approx(oracles.oracle_c_h(H),
                                               rel=1e-12)

    def test_one_sided_values_near_half_match_oracle(self):
        # the two one-sided limits at 1/2 differ (1 from below, 0 from
        # above); continuity holds on each side separately
        for H in (0.5 - 1e-6, 0.5 + 1e-6):
            assert cst.c_h(H) == pytest.approx(oracles.oracle_c_h(H),
                                               rel=1e-10)
        assert cst.c_h(0.5 - 1e-6) == pytest.approx(1.0, abs=1e-5)
        assert cst.c_h(0.5 + 1e-6) < 1e-5

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                cst.c_h(bad)

    def test_matches_mpmath(self):
        Hs = np.concatenate([np.random.default_rng(2).uniform(0.01, 0.99, 200),
                             [0.001, 0.5 - 1e-6, 0.5 + 1e-6, 0.999]])
        for H in Hs:
            assert cst.c_h(H) == pytest.approx(float(mp_c_h(H)), rel=1e-15)


#: H values at which beta1 and c_h are pinned to 40 digits: both ends, the
#: critical point and both sides of 1/2, close and far
MP_PIN_H = (0.001, 0.2, 1 / 3, 0.5 - 1e-13, 0.5 + 1e-13, 0.5 - 1e-6,
            0.5 + 1e-6, 0.6, 0.999)


class TestOneGammaRatio:
    @pytest.mark.parametrize("H", MP_PIN_H)
    def test_beta1_and_c_h_match_mpmath(self, H):
        # mp_c_h is the two-branch formula, independent of beta1's one ratio
        c = mp_c_h(H)
        b1 = c / (mpmath.mpf(H) - 0.5) if H > 0.5 else c
        assert cst.beta1(H) == pytest.approx(float(b1), rel=1e-15)
        assert cst.c_h(H) == pytest.approx(float(c), rel=1e-15)

    @pytest.mark.parametrize("d", [5e-13, 1e-12, 1.5e-12])
    def test_c_h_vanishes_continuously_above_half(self, d):
        # c_H = beta1 (H - 1/2) -> 0 as H -> 1/2 from above, with no jump to
        # the Brownian value 1 inside a tolerance band
        assert cst.c_h(0.5 + d) == pytest.approx(d * cst.beta1(0.5 + d),
                                                 rel=1e-3)


class TestBetas:
    def test_brownian_values(self):
        assert cst.beta1(0.5) == 1.0
        assert cst.beta2(0.5) == 1.0

    def test_beta1_above_half_is_scaled_c_h(self):
        assert cst.beta1(0.75) == pytest.approx(4.0 * cst.c_h(0.75), rel=1e-14)

    def test_beta2_below_half(self):
        assert cst.beta2(0.25) == pytest.approx(2.0 * cst.c_h(0.25) ** 2,
                                                rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_beta_relation(self, H):
        assert cst.beta2(H) * 2 * H == pytest.approx(cst.beta1(H) ** 2,
                                                     rel=1e-12)

    def test_beta_relation_dense(self):
        rng = np.random.default_rng(7)
        for H in rng.uniform(0.01, 0.99, size=1000):
            assert math.isclose(cst.beta2(H) * 2 * H, cst.beta1(H) ** 2,
                                rel_tol=1e-12)


class TestBeta3:
    def test_zero_on_diagonal(self):
        for H in (0.25, 1 / 3, 0.5, 0.6, 0.9):
            for s in (0.0, 0.5, 3.0):
                assert cst.beta3(H, s, s) == 0.0

    def test_symmetric(self):
        for H in (0.3, 0.7):
            assert cst.beta3(H, 1.0, 0.25) == pytest.approx(
                cst.beta3(H, 0.25, 1.0), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            H = rng.uniform(0.05, 0.95)
            if abs(H - 0.5) < 1e-3:
                continue
            s1, s2 = rng.uniform(0, 4, size=2)
            assert cst.beta3(H, s1, s2) >= 0.0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            H = rng.uniform(0.05, 0.95)
            if abs(H - 0.5) < 1e-3:
                continue
            s1, s2, c = rng.uniform(0.1, 3.0, size=3)
            lhs = cst.beta3(H, c * s1, c * s2)
            rhs = c ** (2 * H) * cst.beta3(H, s1, s2)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_pinned_regression_value(self):
        assert cst.beta3(0.6, 1.0, 0.0) == pytest.approx(BETA3_06_1_0,
                                                         rel=1e-13)

    def test_matches_brute_force_oracle(self):
        for H, s1, s2 in ((0.7, 2.0, 0.5), (0.4, 2.0, 1.0), (1 / 3, 0.5, 1.0),
                          (0.25, 1.5, 0.0)):
            assert cst.beta3(H, s1, s2) == pytest.approx(
                oracles.oracle_beta3(H, s1, s2), rel=1e-7)
        # both branches of the closed form, at every regime of H
        for H in (0.05, 0.15, 0.25, 1 / 3, 0.45, 0.55, 0.75, 0.95):
            for x in (0.0, 1e-4, 0.3, 0.7, 0.99):
                assert cst.beta3(H, x, 1.0) == pytest.approx(
                    oracles.oracle_beta3(H, x, 1.0), rel=1e-7)

    def test_vectorized_matches_scalar_calls(self):
        s1 = np.array([[0.0], [0.2], [1.0], [3.0]])
        s2 = np.array([0.0, 0.2, 0.7, 1.0, 3.0])
        for H in (0.25, 0.6):
            grid = cst.beta3(H, s1, s2)
            assert grid.shape == (4, 5)
            for i, a in enumerate(s1[:, 0]):
                for j, b in enumerate(s2):
                    want = cst.beta3(H, float(a), float(b))
                    # numpy's vectorized power may differ from its scalar
                    # loop in the last bit
                    assert grid[i, j] == pytest.approx(want, rel=1e-15)
                    if a == b:
                        assert want == 0.0

    def test_near_diagonal_leading_term(self):
        # series branch: J(x) = a^2 c^2 / (2 - 2H) + O(c^3) as c = 1 - x -> 0
        c = 1e-6
        for H in (0.25, 0.75):
            a = H - 0.5
            val = cst.beta3(H, 1.0 - c, 1.0)
            lead = cst.beta1(H) ** 2 * a * a * c * c / (2 - 2 * H)
            assert val > 0.0
            assert val == pytest.approx(lead, rel=1e-5)

    # the H set of the beta3 docstring, and its grid of x = lo/hi
    DOC_HS = (0.05, 0.1, 0.25, 1 / 3, 0.55, 0.6, 0.75, 0.95)
    DOC_XS = np.concatenate([[0.0], np.logspace(-12, -1, 12),
                             np.linspace(0.1, 0.9, 17),
                             1.0 - np.logspace(-1, -7, 13)])

    @pytest.mark.parametrize("H", DOC_HS + (0.45,))
    def test_matches_mpmath_at_the_stated_error(self, H):
        # 2.2e-13 on the stated H set; 9e-13 at H = 0.45, where the 2F1
        # branch cancels towards H = 1/2
        rel = 9e-13 if H == 0.45 else 2.2e-13
        got = cst.beta3(H, self.DOC_XS, 1.0)
        for g, x in zip(got, self.DOC_XS):
            assert g == pytest.approx(mp_beta3(H, x), rel=rel), x

    @pytest.mark.parametrize("H", (0.05, 0.25, 1 / 3, 0.45, 0.55, 0.6, 0.75,
                                   0.95))
    def test_far_branch_series_matches_hyp2f1(self, H):
        # the far branch needs 2F1(1, 1/2-H; H+3/2; x) at 0 <= x < 1/2 only;
        # its series is within 2 ulp of a 40-digit value, while scipy's
        # hyp2f1 is itself up to 1.2e-15 off there
        x = np.linspace(0.0, 0.5, 401)[:-1]
        got = cst._beta3_far_2f1(H, x)
        with mpmath.workdps(40):
            want = [float(mpmath.hyp2f1(1, 0.5 - mpmath.mpf(H),
                                        mpmath.mpf(H) + 1.5, xi)) for xi in x]
        np.testing.assert_allclose(got, want, rtol=4.5e-16, atol=0)
        np.testing.assert_allclose(got, hyp2f1(1.0, 0.5 - H, H + 1.5, x),
                                   rtol=2e-15, atol=0)

    @pytest.mark.parametrize("H", (0.05, 0.25, 1 / 3, 0.45, 0.6, 0.75, 0.95))
    def test_horner_is_polyval_to_the_bit(self, H, monkeypatch):
        # beta3's two series, the far 2F1 and the near-diagonal one, summed
        # by _horner and then by numpy's polyval; x = lo/hi on a grid
        # holding 0, 1/2 and 1, so both branches run
        x = np.linspace(0.0, 1.0, 4097)
        got = cst.beta3(H, x, 1.0)
        horner, coefs = cst._horner, []

        def by_polyval(coef, y):
            coefs.append(coef)
            return polyval(y, coef)

        monkeypatch.setattr(cst, "_horner", by_polyval)
        assert np.array_equal(cst.beta3(H, x, 1.0), got)
        assert len(coefs) == 2
        for coef in coefs:
            assert np.array_equal(horner(coef, x), polyval(x, coef))

    def test_half_default_is_zero(self):
        assert cst.beta3(0.5, 2.0, 1.0) == 0.0

    def test_half_limit_mode_log_integral(self):
        # int_0^inf log^2(th/(th+1)) dth = pi^2/3; scaling gives the rest
        val = cst.beta3(0.5, 0.0, 1.0, mode=Beta3Mode.LIMIT)
        assert val == pytest.approx(math.pi ** 2 / 3.0, rel=1e-8)
        val2 = cst.beta3(0.5, 0.0, 2.0, mode=Beta3Mode.LIMIT)
        assert val2 == pytest.approx(2.0 * math.pi ** 2 / 3.0, rel=1e-8)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            cst.beta3(0.6, -1.0, 1.0)


class TestEll:
    def test_supercritical_is_one(self):
        assert cst.ell(100, 0.5) == 1.0
        assert cst.ell(2, 0.99) == 1.0

    def test_critical_inverse_sqrt_log(self):
        n = math.ceil(math.e ** 4)
        assert cst.ell(n, 1 / 3) == pytest.approx(1 / math.sqrt(math.log(n)),
                                                  rel=1e-15)
        assert cst.ell(n, 1 / 3) == pytest.approx(0.5, abs=2e-3)

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            cst.ell(10, 0.25)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            cst.ell(1, 0.5)


class TestRegime:
    def test_regimes(self):
        assert cst.regime_of(0.2) is Regime.SUBCRITICAL
        assert cst.regime_of(1 / 3) is Regime.CRITICAL
        assert cst.regime_of(0.8) is Regime.SUPERCRITICAL

    @pytest.mark.parametrize("offset, regime", [
        (-5e-13, Regime.CRITICAL), (5e-13, Regime.CRITICAL),
        (-2e-12, Regime.SUBCRITICAL), (2e-12, Regime.SUPERCRITICAL)])
    def test_critical_tolerance_edges(self, offset, regime):
        # CRITICAL_TOL = 1e-12 lies between the two offsets
        assert cst.regime_of(1 / 3 + offset) is regime
