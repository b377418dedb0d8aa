import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as sgamma

from fbmlab import constants as cst
from fbmlab import limits
from fbmlab import testfuncs as tf

import oracles

# pinned from the brute-force tensor-grid oracle (oracles.py)
A_H_06_GAUSSDERIV = 0.7226079701334334
# pinned from the 1-d profile-integral oracle, both conventions
A13_PRINTED = 0.5407532588257563
A13_ASYMPTOTIC = 0.797883371769339

GD = tf.gaussian_derivative(1.0)


class TestBEta:
    def test_zero_frequency_vanishes(self):
        for f, g in ((GD, GD), (tf.gaussian_bump(), tf.hat())):
            assert limits.b_eta(f, g, 0.0) == 0.0

    def test_diagonal_real_nonnegative(self):
        rng = np.random.default_rng(1)
        for f in (GD, tf.gaussian_bump(1.0, 0.3), tf.indicator(0, 1)):
            for eta in rng.uniform(-10, 10, size=20):
                val = limits.b_eta(f, f, eta)
                assert abs(val.imag) < 1e-12 * (abs(val) + 1)
                assert val.real >= 0.0

    def test_literal_variant_is_negative_diagonal(self):
        val = limits.b_eta(GD, GD, 1.3, literal=True)
        assert val.real <= 0.0
        assert val == pytest.approx(-limits.b_eta(GD, GD, 1.3), rel=1e-12)

    def test_small_eta_expansion_zero_energy(self):
        # for zero-mass f: b(eta) ~ eta^2 m1(f)^2
        eta = 1e-2
        val = limits.b_eta(GD, GD, eta)
        assert val.real == pytest.approx(eta ** 2, rel=1e-2)

    def test_factorized_matches_double_integral(self):
        # direct quadrature of f(x) g(y) (e^{i eta x}-1)(e^{-i eta y}-1)
        f, g = tf.gaussian_bump(1.0, 0.4), GD
        eta = 1.7

        def re_part():
            fx = integrate.quad(
                lambda x: f(x) * (math.cos(eta * x) - 1), -12, 12)[0]
            fy = integrate.quad(lambda x: f(x) * math.sin(eta * x), -12, 12)[0]
            gx = integrate.quad(
                lambda y: g(y) * (math.cos(eta * y) - 1), -12, 12)[0]
            gy = integrate.quad(lambda y: g(y) * math.sin(eta * y), -12, 12)[0]
            F = complex(fx, fy)
            G = complex(gx, -gy)  # conj side
            return F * G

        assert limits.b_eta(f, g, eta) == pytest.approx(re_part(), rel=1e-8)

    def test_bound_by_norms(self):
        for f, g in ((GD, GD), (tf.indicator(0, 1), tf.hat(-1, 1))):
            nf = tf.weighted_norm(f, 1.0)
            ng = tf.weighted_norm(g, 1.0)
            for eta in (0.05, 0.9, 4.0):
                bound = 4 * min(1, abs(eta) * nf) * min(1, abs(eta) * ng) \
                    * max(1.0, nf * ng)
                assert abs(limits.b_eta(f, g, eta)) <= 4 * nf * ng


class TestAH:
    def test_zero_function(self):
        z = tf.TestFunction(lambda x: np.zeros_like(x), "zero",
                            support=(-1, 1), closed_form_moments=(0.0, 0.0),
                            closed_form_fourier=np.zeros_like)
        assert limits.a_h(z, z, 0.6).value == 0.0

    def test_symmetric(self):
        f, g = GD, tf.gaussian_bump(1.0, 0.5)
        for H in (0.45, 0.7):
            assert limits.a_h(f, g, H).value == pytest.approx(
                limits.a_h(g, f, H).value, rel=1e-10)

    @pytest.mark.parametrize("H", [0.35, 0.5, 0.6, 0.75])
    def test_diagonal_nonnegative_builtins(self, H):
        for f in (GD, tf.gaussian_bump(1.0, 0.3), tf.hat(0, 1),
                  tf.indicator(0, 1)):
            assert limits.a_h(f, f, H).value >= 0.0

    def test_pinned_against_tensor_oracle(self):
        res = limits.a_h(GD, GD, 0.6)
        assert res.value == pytest.approx(A_H_06_GAUSSDERIV, rel=5e-3)
        assert res.error < 1e-3 * res.value

    def test_against_single_scale_closed_form(self):
        # independent route: for zero-energy f the constant collapses to
        # (Gam(1+1/(2H)) 2^(1/(2H))/pi) * Gam((3-1/H)/2) for the unit-width
        # Gaussian derivative
        for H in (0.6, 0.75):
            closed = (sgamma(1 + 1 / (2 * H)) * 2 ** (1 / (2 * H)) / math.pi
                      * sgamma((3 - 1 / H) / 2))
            assert limits.a_h(GD, GD, H).value == pytest.approx(closed,
                                                                rel=2e-3)

    def test_cauchy_schwarz(self):
        f, g = GD, tf.gaussian_bump(1.0, 0.5)
        for H in (0.5, 0.65):
            afg = limits.a_h(f, g, H).value
            aff = limits.a_h(f, f, H).value
            agg = limits.a_h(g, g, H).value
            assert afg ** 2 <= aff * agg * (1 + 1e-6)

    def test_refuses_function_without_closed_form_transform(self):
        numeric = tf.TestFunction(tf.poly_bump().evaluator, "numeric-bump",
                                  support=(-1, 1))
        for f, g in ((numeric, GD), (GD, numeric), (numeric, numeric)):
            with pytest.raises(ValueError, match="numeric-bump"):
                limits.a_h(f, g, 0.6)

    def test_subcritical_guard(self):
        with pytest.raises(ValueError):
            limits.a_h(GD, GD, 1.0 / 3.0)
        with pytest.raises(ValueError):
            limits.a_h(GD, GD, 0.25)


class TestAOneThird:
    def test_zero_first_moment_kills_it(self):
        even = tf.gaussian_bump(1.0, 0.0)
        assert limits.a_one_third(even, even) == 0.0
        assert limits.a_one_third(even, GD) == 0.0

    def test_symmetric(self):
        f, g = GD, tf.gaussian_bump(1.0, 0.5)
        assert limits.a_one_third(f, g) == pytest.approx(
            limits.a_one_third(g, f), rel=1e-12)

    def test_pinned_conventions(self):
        assert limits.a_one_third(GD, GD) == pytest.approx(A13_PRINTED,
                                                           rel=5e-3)
        assert limits.a_one_third(GD, GD, convention="asymptotic") == \
            pytest.approx(A13_ASYMPTOTIC, rel=5e-3)

    def test_asymptotic_equals_closed_form(self):
        # the closed form sqrt(2/pi) m1(f) m1(g) against the profile
        # integral with the covariance-consistent beta3:
        # 3 sqrt(2)/sqrt(pi) beta1^2
        #   * int_0^1 6u^4 (beta2 (1+u^4) + beta3(1/3, u^6, 1))^(-5/2) du
        H = 1.0 / 3.0
        b1, b2 = cst.beta1(H), cst.beta2(H)
        integral, _ = integrate.quad(
            lambda u: 6.0 * u ** 4 * (b2 * (1.0 + u ** 4)
                                      + cst.beta3(H, u ** 6, 1.0)) ** -2.5,
            0.0, 1.0, epsrel=1e-10, limit=200)
        profile = 3.0 * math.sqrt(2.0) / math.sqrt(math.pi) * b1 * b1 \
            * integral
        for f, g in ((GD, GD), (GD, tf.gaussian_bump(1.0, 0.5))):
            m1f = tf.moments(f)[1]
            m1g = tf.moments(g)[1]
            assert limits.a_one_third(f, g, convention="asymptotic") == \
                pytest.approx(profile * m1f * m1g, rel=1e-12)

    def test_printed_integral_runs_once(self, monkeypatch):
        limits.a_one_third(GD, GD)
        calls = []
        beta3 = limits.beta3

        def counting(*args, **kwargs):
            calls.append(args)
            return beta3(*args, **kwargs)

        monkeypatch.setattr(limits, "beta3", counting)
        f, g = GD, tf.gaussian_bump(1.0, 0.5)
        assert limits.a_one_third(f, g) == pytest.approx(
            A13_PRINTED * tf.moments(f)[1] * tf.moments(g)[1], rel=5e-3)
        assert calls == []

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            limits.a_one_third(GD, GD, convention="other")


class TestKernel:
    """``covariance_matrix`` and ``a_h`` run one node-chunked kernel."""

    @staticmethod
    def functions():
        return [tf.gaussian_derivative(1.0), tf.poly_bump(), tf.hat()]

    def test_matrix_entries_are_a_h(self):
        fs = self.functions()
        lm = limits.covariance_matrix(fs, 0.6)
        for i in range(3):
            for j in range(3):
                res = limits.a_h(fs[i], fs[j], 0.6)
                assert lm.quadrature_report[i, j] == res.error
                # the PSD clamp round-trips the matrix through eigh
                assert abs(lm.matrix[i, j] - res.value) <= 1e-12

    def test_one_fourier_profile_per_function(self, monkeypatch):
        labels = []
        fourier = limits.fourier

        def counting(f, eta):
            labels.append(f.label)
            return fourier(f, eta)

        monkeypatch.setattr(limits, "fourier", counting)
        limits.covariance_matrix(self.functions(), 0.6)
        # fhat(0) for each function; the kernel runs the closed forms
        assert sorted(labels) == sorted(fn.label for fn in self.functions())

    def test_peak_memory(self):
        fs = self.functions()
        tracemalloc.start()
        try:
            limits.covariance_matrix(fs, 0.6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_chunking_changes_no_value(self, monkeypatch):
        # 64^2 and 128^2 nodes leave partial last chunks of 96 and 384
        monkeypatch.setattr(limits, "_CHUNK_NODES", 1000)
        chunked = limits.covariance_matrix([GD, tf.hat()], 0.7)
        monkeypatch.setattr(limits, "_CHUNK_NODES", 10 ** 6)
        whole = limits.covariance_matrix([GD, tf.hat()], 0.7)
        assert np.array_equal(chunked.matrix, whole.matrix)
        assert np.array_equal(chunked.quadrature_report,
                              whole.quadrature_report)


class TestCovarianceMatrix:
    def test_single_zero_function(self):
        z = tf.TestFunction(lambda x: np.zeros_like(x), "zero",
                            support=(-1, 1), closed_form_moments=(0.0, 0.0),
                            closed_form_fourier=np.zeros_like)
        lm = limits.covariance_matrix([z], 0.6)
        assert lm.matrix[0, 0] == 0.0
        assert lm.sqrt_matrix[0, 0] == 0.0

    def test_identical_pair_rank_one(self):
        lm = limits.covariance_matrix([GD, GD], 0.6)
        a = lm.matrix[0, 0]
        assert np.allclose(lm.matrix, a * np.ones((2, 2)), rtol=1e-8)
        assert np.allclose(lm.sqrt_matrix,
                           math.sqrt(a / 2.0) * np.ones((2, 2)), rtol=1e-6)

    def test_distinct_pair_psd_with_sqrt(self):
        fs = [GD, tf.gaussian_derivative(2.0)]
        lm = limits.covariance_matrix(fs, 0.6)
        vals = np.linalg.eigvalsh(lm.matrix)
        assert vals.min() >= -1e-8 * np.trace(lm.matrix)
        err = np.linalg.norm(lm.sqrt_matrix @ lm.sqrt_matrix - lm.matrix)
        assert err <= 1e-8 * np.linalg.norm(lm.matrix)
        assert lm.quadrature_report.shape == (2, 2)

    def test_critical_point_uses_product_formula(self):
        lm = limits.covariance_matrix([GD], 1.0 / 3.0)
        assert lm.matrix[0, 0] == pytest.approx(limits.a_one_third(GD, GD),
                                                rel=1e-10)

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            limits.covariance_matrix([GD], 0.25)

    def test_refuses_function_without_closed_form_transform(self):
        numeric = tf.TestFunction(tf.hat().evaluator, "numeric-hat",
                                  support=(-1, 1))
        with pytest.raises(ValueError, match="numeric-hat"):
            limits.covariance_matrix([GD, numeric, tf.hat()], 0.6)
        with pytest.raises(ValueError, match=r"poly_bump\(a=-1,b=1,k=41\)"):
            limits.covariance_matrix([GD, tf.poly_bump(k=41)], 0.6)


def test_import_loads_no_interpolation_module():
    # every a_h profile is a closed form, so nothing needs scipy.interpolate
    # (about 30 modules) at import time
    src = os.path.dirname(os.path.dirname(limits.__file__))
    code = ("import sys, fbmlab; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'interpolate']))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
