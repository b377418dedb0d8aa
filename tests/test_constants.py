import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmlab import constants as cst
from fbmlab.constants import Beta3Mode, HurstConfig, Regime

import oracles

# pinned against the hand-rolled Lanczos gamma oracle (see oracles.py)
C_H_075 = 0.2674111587579976
C_H_025 = 0.645998003740752
# exact: c_H^2/(H-1/2)^2 (2P-1)/(2H) at H = 0.6, with
# P = Gamma(1-H) Gamma(H+1/2)/(4^H sqrt(pi)), evaluated in mpmath at 40
# digits; the earlier Romberg-oracle pin 0.03517736976811707 was 6.3e-12
# relative above it
BETA3_06_1_0 = 0.035177369767896427


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
            lead = cst._beta3_prefactor(H) * a * a * c * c / (2 - 2 * H)
            assert val > 0.0
            assert val == pytest.approx(lead, rel=1e-5)

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


class TestHurstConfig:
    def test_from_h_consistent(self):
        cfg = HurstConfig.from_h(0.4)
        assert cfg.regime is Regime.SUPERCRITICAL
        assert cfg.beta2 * 2 * cfg.H == pytest.approx(cfg.beta1 ** 2,
                                                      rel=1e-14)

    def test_regimes(self):
        assert HurstConfig.from_h(0.2).regime is Regime.SUBCRITICAL
        assert HurstConfig.from_h(1 / 3).regime is Regime.CRITICAL
        assert HurstConfig.from_h(0.8).regime is Regime.SUPERCRITICAL

    def test_inconsistent_rejected(self):
        good = HurstConfig.from_h(0.6)
        with pytest.raises(ValueError):
            HurstConfig(H=0.6, regime=Regime.SUBCRITICAL, c_h=good.c_h,
                        beta1=good.beta1, beta2=good.beta2)
        with pytest.raises(ValueError):
            HurstConfig(H=0.6, regime=Regime.SUPERCRITICAL, c_h=good.c_h,
                        beta1=good.beta1, beta2=good.beta2 * 1.01)
