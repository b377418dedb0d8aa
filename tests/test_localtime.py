import math
import warnings

import numpy as np
import pytest

from fbmlab import experiments as exp
from fbmlab import fbm
from fbmlab import localtime as lt
from fbmlab import testfuncs as tf

import oracles

SQRT_2_OVER_PI = 0.7978845608028654  # int_0^1 (2 pi s)^{-1/2} ds


def flat_path(N=256, H=0.5, T=1.0):
    """Synthetic path pinned at zero (degenerate, for exact checks)."""
    return fbm.FbmPath(H=H, T=T, N=N, values=np.zeros(N + 1), seed=0,
                       path_index=0, method="synthetic")


class TestHeatKernel:
    def test_peak_value(self):
        assert lt.heat_kernel(1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_prime_odd(self):
        assert lt.heat_kernel_prime(0.7, 0.0) == 0.0
        assert lt.heat_kernel_prime(0.7, 0.3) == pytest.approx(
            -lt.heat_kernel_prime(0.7, -0.3), rel=1e-14)

    def test_fourier_inversion_oracle(self):
        eps, x = 0.5, 1.3
        val = oracles.romberg(
            lambda xi: np.exp(-0.5 * eps * xi ** 2) * np.cos(xi * x),
            -40.0, 40.0, levels=18) / (2 * math.pi)
        assert lt.heat_kernel(eps, x) == pytest.approx(val, abs=1e-8)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            lt.heat_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            lt.heat_kernel_prime(-1.0, 1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_nonfinite_eps(self, eps):
        for kernel in (lt.heat_kernel, lt.heat_kernel_prime):
            with pytest.raises(ValueError, match="positive and finite"):
                kernel(eps, 1.0)

    @pytest.mark.parametrize("a", [
        np.linspace(-1e5, 0.0, 200_001),
        np.linspace(-746.0, -708.0, 100_001),     # underflow and subnormals
        np.array([np.nextafter(-746.0, 0.0), -746.0, -745.2, -745.1, -0.0,
                  0.0, np.inf, -np.inf, np.nan, 1.0]),
        np.linspace(-745.0, 5.0, 10_001),         # no lane underflows
        np.array([np.nan, -1e4]),
        np.empty(0),
    ], ids=["wide", "subnormal-band", "edges", "no-underflow", "nan-first",
            "empty"])
    def test_exp_is_bitwise_numpy_exp(self, a):
        want = np.exp(a).view(np.int64)
        assert np.array_equal(lt._exp(a).view(np.int64), want)
        # into a buffer holding other values, and in place
        out = np.full(a.shape, 7.0)
        assert lt._exp(a, out=out) is out
        assert np.array_equal(out.view(np.int64), want)
        b = a.copy()
        assert lt._exp(b, out=b) is b
        assert np.array_equal(b.view(np.int64), want)

    def test_kernels_are_bitwise_the_plain_formulas(self):
        # lanes whose exponent lies below -746 (|x| > 1.2 at eps = 1e-3),
        # NaN, both infinities and -0.0
        x = np.concatenate([np.linspace(-3.0, 3.0, 60_001),
                            [np.nan, np.inf, -np.inf, -0.0]])
        out = np.empty_like(x)
        for eps in (1e-3, 0.5 ** 20, 1.0):
            # the derivative is inf * 0 = NaN at the infinite lanes
            with np.errstate(invalid="ignore"):
                e = np.exp(-x * x / (2.0 * eps))
                norm = math.sqrt(2 * math.pi * eps)
                for kernel, plain in ((lt.heat_kernel, e / norm),
                                      (lt.heat_kernel_prime,
                                       -(x / eps) * e / norm)):
                    got = kernel(eps, x)
                    out.fill(7.0)
                    assert kernel(eps, x, out=out) is out
                    assert np.array_equal(got, plain, equal_nan=True)
                    assert np.array_equal(out.view(np.int64),
                                          got.view(np.int64))
        assert lt.heat_kernel(1e-6, 1.0) == 0.0

    def test_variance_array_broadcasts_with_scalar_bits(self):
        # each entry of the result has the bits of the scalar-variance call,
        # underflowing lanes included (eps = 1e-4 at |x| = 3)
        eps = np.array([1e-4, 0.3, 1.0, 7.5])
        x = np.array([[-3.0], [-0.0], [0.7], [np.nan]])
        got = lt.heat_kernel(eps, x)
        want = np.stack([lt.heat_kernel(e, x[:, 0]) for e in eps], axis=-1)
        assert got.shape == (4, 4)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        out = np.full((4, 4), 7.0)
        assert lt.heat_kernel(eps, x, out=out) is out
        assert np.array_equal(out.view(np.int64), want.view(np.int64))
        assert np.array_equal(lt.heat_kernel(eps, 0.7), want[2])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_any_bad_variance_entry(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            lt.heat_kernel(np.array([0.5, bad, 2.0]), 1.0)


B = lt._BLOCK


def cumsum_trapezoid(y, dt):
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]))]) * dt


class TestTrapezoidRule:
    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1,
                                   2 ** 17 + 1])
    def test_matches_reference_trapezoids(self, n):
        y = lt.heat_kernel(0.1, np.random.default_rng(n).standard_normal(n))
        dt = 1.0 / n
        curve = lt.trapezoid_prefixes(y, dt)
        np.testing.assert_allclose(curve, cumsum_trapezoid(y, dt),
                                   rtol=1e-13, atol=0.0)
        last = lt.trapezoid_prefixes(y, dt, [n - 1])[0]
        assert last == pytest.approx(np.trapezoid(y, dx=dt), rel=1e-13,
                                     abs=0.0)

    def test_dense_and_sparse_requests_bitwise_equal(self):
        n = 3 * B + 17
        y = np.random.default_rng(1).standard_normal((4, n))
        dense = lt.trapezoid_prefixes(y, 0.1)
        for idx in ([n - 1], [0, B - 1, B, B + 1, 2 * B, n - 1],
                    [3 * B + 5, 7, 7, B]):
            assert np.array_equal(lt.trapezoid_prefixes(y, 0.1, idx),
                                  dense[:, idx])

    def test_row_alone_and_prefix_alone_bitwise_equal(self):
        # the bits at k depend on y[..., :k+1] alone: not on the other rows
        # of a chunk, nor on the values after k
        n = 2 * B + 9
        y = np.random.default_rng(2).standard_normal((5, n))
        idx = [B - 1, B + 4, n - 1]
        chunk = lt.trapezoid_prefixes(y, 0.1, idx)
        for i in range(len(y)):
            assert np.array_equal(lt.trapezoid_prefixes(y[i], 0.1, idx),
                                  chunk[i])
            assert np.array_equal(lt.trapezoid_prefixes(y[i], 0.1),
                                  lt.trapezoid_prefixes(y, 0.1)[i])
        for k in idx:
            assert np.array_equal(
                lt.trapezoid_prefixes(y[:, :k + 1], 0.1)[:, -1],
                lt.trapezoid_prefixes(y, 0.1, [k])[:, 0])


class TestMollified:
    def test_flat_path_exact(self):
        p = flat_path()
        eps = 0.04
        curve = lt.mollified_local_time(p, 0.0, eps)
        expect = p.times * lt.heat_kernel(eps, 0.0)
        assert np.allclose(curve.values, expect, rtol=1e-12)

    def test_far_level_negligible(self):
        p = fbm.sample_paths(0.5, 1.0, 512, 1, seed=5)[0]
        lam = np.abs(p.values).max() + 30 * math.sqrt(1e-3)
        curve = lt.mollified_local_time(p, lam, 1e-3)
        assert curve.final <= 1e-8 * p.T

    def test_level_curve_monotone(self):
        p = fbm.sample_paths(0.5, 1.0, 512, 1, seed=6)[0]
        curve = lt.mollified_local_time(p, 0.0, 1e-3)
        assert np.all(np.diff(curve.values) >= 0)
        assert curve.values[0] == 0.0

    def test_derivative_warns_above_critical(self):
        p = fbm.sample_paths(0.5, 1.0, 64, 1, seed=1)[0]
        with pytest.warns(lt.DivergentEstimatorWarning):
            lt.mollified_local_time(p, 0.0, 1e-2, kind="derivative")

    def test_derivative_is_negative_level_gradient(self):
        # derivative kind == -d/dlam of the level kind, path by path
        p = fbm.sample_paths(0.25, 1.0, 2048, 1, seed=9)[0]
        eps = p.dt ** (2 * p.H)
        h = 1e-3 * math.sqrt(eps)
        lam = 0.1
        d = lt.mollified_local_time(p, lam, eps, kind="derivative")
        up = lt.mollified_local_time(p, lam + h, eps)
        dn = lt.mollified_local_time(p, lam - h, eps)
        fd = -(up.values - dn.values) / (2 * h)
        scale = np.abs(d.values[-1]) + 1.0
        assert np.allclose(d.values, fd, rtol=1e-3, atol=1e-3 * scale)

    def test_mean_matches_exact_expectation(self):
        H, N, M = 0.5, 1024, 3000
        paths = fbm.sample_paths(H, 1.0, N, M, seed=30)
        eps = (1.0 / N) ** (2 * H)
        finals = np.array([lt.mollified_local_time(p, 0.0, eps).final
                           for p in paths])
        target = lt.expected_mollified_local_time(H, 1.0, 0.0, eps, N)
        se = finals.std(ddof=1) / math.sqrt(M)
        assert abs(finals.mean() - target) < 3.5 * se


class TestFourierEstimator:
    def test_flat_path_truncated_mass(self):
        # degenerate path: the estimate is exactly t * Xi / pi
        p = flat_path(N=64)
        xi_max, d_xi = 10.0, 0.01
        curve = lt.fourier_local_time(p, 0.0, xi_max, d_xi)
        assert np.allclose(curve.values, p.times * xi_max / math.pi,
                           rtol=1e-12)

    def test_real_output_residue_zero(self):
        p = fbm.sample_paths(0.5, 1.0, 256, 1, seed=2)[0]
        curve = lt.fourier_local_time(p, 0.0, 50.0, 0.05)
        assert np.isfinite(curve.values).all()

    @pytest.mark.parametrize("H", [1.0 / 3.0, 0.6])
    def test_derivative_warns_from_critical(self, H):
        p = fbm.sample_paths(H, 1.0, 64, 1, seed=1)[0]
        with pytest.warns(lt.DivergentEstimatorWarning):
            lt.fourier_local_time(p, 0.0, 10.0, 0.1, kind="derivative")

    def test_derivative_silent_below_critical(self):
        p = fbm.sample_paths(0.3, 1.0, 64, 1, seed=1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lt.fourier_local_time(p, 0.0, 10.0, 0.1, kind="derivative")

    @pytest.mark.parametrize("kind", ["level", "derivative"])
    def test_explicit_frequency_sum_matches_dirichlet(self, kind):
        # the range-reduced closed form against the explicit frequency sum,
        # from a reach max|B - lam| * d_xi of 3pi/4 (no reduction) to 20pi,
        # with samples placed on lam + j * 2pi/d_xi
        base = fbm.sample_paths(0.25, 1.0, 256, 1, seed=4)[0]
        lam, m = 0.2, 40
        top = int(np.argmax(np.abs(base.values - lam)))
        for reach in (0.75, 3.0, 7.3, 20.0):
            d_xi = reach * math.pi / abs(base.values[top] - lam)
            period = 2.0 * math.pi / d_xi
            js = np.arange(-int(reach / 2), int(reach / 2) + 1)
            idx = [i for i in range(1, 30) if i != top][:len(js)]
            values = base.values.copy()
            values[idx] = lam + js * period
            p = fbm.FbmPath(H=0.25, T=1.0, N=256, values=values, seed=4,
                            path_index=0, method="synthetic")
            x = values - lam
            assert np.abs(x).max() * d_xi == pytest.approx(reach * math.pi)
            curve = lt.fourier_local_time(p, lam, m * d_xi, d_xi, kind=kind)
            acc = oracles.oracle_fourier_sum(x, m, d_xi, kind)
            want = lt.trapezoid_prefixes(acc * d_xi / (2.0 * math.pi),
                                         p.dt)
            assert np.allclose(curve.values, want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max()), reach

    def test_ten_billion_frequencies_in_closed_form(self):
        # 2 * 10^10 frequencies cost O(N): the flat path's estimate is
        # t * xi_max / pi
        p = flat_path(N=16)
        curve = lt.fourier_local_time(p, 0.0, 1e6, 1e-4)
        assert np.allclose(curve.values, p.times * 1e6 / math.pi,
                           rtol=1e-12)

    @pytest.mark.parametrize("kind", ["level", "derivative"])
    def test_frequency_count_bounded_at_two_to_52(self, kind):
        p = flat_path(N=16, H=0.25)
        # 2^52 frequencies per side are the most that are exact
        curve = lt.fourier_local_time(p, 0.0, 2.0 ** 51, 0.5, kind=kind)
        assert np.isfinite(curve.values).all()
        for xi_max, d_xi in (((2.0 ** 52 + 1) * 0.5, 0.5), (1e200, 1e-10)):
            with pytest.raises(ValueError, match=r"exceeds 2\^52"):
                lt.fourier_local_time(p, 0.0, xi_max, d_xi, kind=kind)

    @pytest.mark.parametrize("xi_max, d_xi", [
        (math.inf, 0.1), (10.0, math.inf), (math.nan, 0.1), (10.0, math.nan),
        (1e300, 1e-10), (0.0, 0.1), (10.0, -0.1)])
    def test_nonfinite_or_nonpositive_grid_rejected(self, xi_max, d_xi):
        with pytest.raises(ValueError, match="positive and finite"):
            lt.fourier_local_time(flat_path(N=16), 0.0, xi_max, d_xi)

    def test_matches_mollified_cross_oracle(self):
        # mutual-oracle normalization check: the 100-path means agree within
        # 1% (per-path values carry irreducible sharp-cutoff fluctuations of
        # order eps^(1/4), so only the aggregate is this tight)
        H, N = 0.5, 2 ** 14
        eps = 1e-4
        xi_max = 2.0 / math.sqrt(eps)
        paths = fbm.sample_paths(H, 1.0, N, 100, seed=3)
        mol = np.array([lt.mollified_local_time(p, 0.0, eps).final
                        for p in paths])
        fou = np.array([lt.fourier_local_time(p, 0.0, xi_max, 0.05).final
                        for p in paths])
        assert fou.mean() == pytest.approx(mol.mean(), rel=0.01)
        # the per-path estimates track the same object (a wrong overall
        # normalization would break both checks immediately)
        assert np.corrcoef(mol, fou)[0, 1] > 0.99

    def test_derivative_kind_matches_mollified_in_aggregate(self):
        # the sharp-cutoff derivative estimator carries larger per-path
        # truncation noise; the two estimators must agree statistically
        H, N = 0.25, 4096
        eps = 4e-4
        xi_max = 2.0 / math.sqrt(eps)
        paths = fbm.sample_paths(H, 1.0, N, 60, seed=8)
        lam = 0.1
        a = np.array([lt.mollified_local_time(p, lam, eps,
                                              kind="derivative").final
                      for p in paths])
        b = np.array([lt.fourier_local_time(p, lam, xi_max, 0.05,
                                            kind="derivative").final
                      for p in paths])
        assert np.corrcoef(a, b)[0, 1] > 0.8
        diff = b - a
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) < 3 * se


class TestOccupation:
    def test_zero_function(self):
        p = fbm.sample_paths(0.5, 1.0, 128, 1, seed=4)[0]
        f = tf.TestFunction(lambda x: np.zeros_like(x), "zero")
        lhs, rhs = lt.occupation_density_check(p, f, 1e-3)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_total_time(self):
        p = fbm.sample_paths(0.5, 1.0, 256, 1, seed=4)[0]
        wide = tf.indicator(-100.0, 100.0)
        assert lt.occupation_integral(p, wide) == pytest.approx(p.T,
                                                                rel=1e-12)

    def test_equals_unscaled_additive_functional_bitwise(self):
        # one trapezoid rule: the n = 1, lam = 0 functional of the
        # experiments' kernel is the occupation integral, bit for bit
        p = fbm.sample_paths(0.5, 1.0, 4096, 1, seed=12)[0]
        for f in (tf.gaussian_bump(1.0, 0.0), tf.hat(-1.0, 1.0)):
            assert lt.occupation_integral(p, f) == \
                exp.scaled_additive_functional(p, f, 0.0, 1, p.T)

    def test_identity_smooth_function(self):
        p = fbm.sample_paths(0.5, 1.0, 4096, 1, seed=12)[0]
        f = tf.gaussian_bump(1.0, 0.0)
        lhs, rhs = lt.occupation_density_check(p, f, eps=p.dt)
        assert rhs == pytest.approx(lhs, rel=0.02)


class TestExpectedLocalTime:
    def test_zero_horizon(self):
        assert lt.expected_local_time(0.5, 0.0, 0.3) == 0.0

    def test_brownian_closed_form(self):
        assert lt.expected_local_time(0.5, 1.0, 0.0) == pytest.approx(
            SQRT_2_OVER_PI, rel=1e-10)

    def test_general_h_oracle(self):
        for H in (0.3, 0.75):
            # direct closed form: int_0^1 (2 pi)^{-1/2} s^{-H} ds
            assert lt.expected_local_time(H, 1.0, 0.0) == pytest.approx(
                (2 * math.pi) ** -0.5 / (1 - H), rel=1e-10)

    def test_decays_in_level(self):
        vals = [lt.expected_local_time(0.5, 1.0, lam)
                for lam in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3


class TestExpectedMollifiedLocalTime:
    def test_zero_horizon(self):
        assert lt.expected_mollified_local_time(0.5, 0.0, 0.3, 0.01, 8) == 0.0

    def test_one_step_closed_form(self):
        # N=1: the trapezoid averages p_eps(lam) at s=0 and p_{t^{2H}+eps}
        H, t, lam, eps = 0.7, 0.5, 0.4, 0.02
        want = 0.5 * t * (lt.heat_kernel(eps, lam)
                          + lt.heat_kernel(t ** (2 * H) + eps, lam))
        assert lt.expected_mollified_local_time(H, t, lam, eps, 1) == \
            pytest.approx(want, rel=1e-14)

    def test_bias_vanishes_as_grid_refines(self):
        # at eps = dt^{2H} the gap to E L shrinks along the grid and is
        # below 1% by N = 2^16
        H, t, lam = 0.5, 1.0, 0.3
        true_mean = lt.expected_local_time(H, t, lam)
        gaps = [abs(lt.expected_mollified_local_time(
            H, t, lam, (t / n) ** (2 * H), n) / true_mean - 1)
            for n in (2 ** 8, 2 ** 12, 2 ** 16)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2

    def test_matches_monte_carlo_off_zero(self):
        # level and horizon away from (0, 1) on a coarse grid: the
        # estimator's mean matches the oracle within 3.5 SE, while it sits
        # more than 5 SE from E L (the grid bias is visible)
        H, t, lam, N, M = 0.7, 0.5, 0.2, 8, 4000
        eps = (t / N) ** (2 * H)
        paths = fbm.sample_paths(H, t, N, M, seed=31)
        finals = np.array([lt.mollified_local_time(p, lam, eps).final
                           for p in paths])
        target = lt.expected_mollified_local_time(H, t, lam, eps, N)
        se = finals.std(ddof=1) / math.sqrt(M)
        assert abs(finals.mean() - target) < 3.5 * se
        assert abs(finals.mean() - lt.expected_local_time(H, t, lam)) > 5 * se

    @pytest.mark.parametrize("H, t, lam, eps, N", [
        (0.25, 1.0, 0.0, 1e-4, 4096), (1 / 3, 0.3, -0.4, 1e-12, 7),
        (0.75, 7.5, 1.3, 0.3, 64), (0.95, 1e-6, 25.0, 1e-12, 1)])
    def test_density_is_the_plain_formula(self, H, t, lam, eps, N):
        # bitwise the trapezoid of exp(-lam^2 / 2v) / sqrt(2 pi v), the
        # last case with every exponent below -746
        var = np.linspace(0.0, t, N + 1) ** (2 * H) + eps
        dens = np.exp(-lam * lam / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
        want = float(lt.trapezoid_prefixes(dens, t / N, [N])[0])
        got = lt.expected_mollified_local_time(H, t, lam, eps, N)
        assert np.float64(got).view(np.int64) == \
            np.float64(want).view(np.int64)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lt.expected_mollified_local_time(0.5, 1.0, 0.0, 0.0, 8)
        with pytest.raises(ValueError):
            lt.expected_mollified_local_time(0.5, 1.0, 0.0, 0.01, 0)

    @pytest.mark.parametrize("H, t, eps", [(0.9, 1e300, 1e-3),
                                           (0.5, 1e308, 1e308)])
    def test_refuses_overflowing_variance(self, H, t, eps):
        # t^(2H) overflows in the first case, t^(2H) + eps in the second;
        # the message names t, not an eps the caller never passed
        with pytest.raises(ValueError, match=r"overflows at t=1e\+30") as err:
            lt.expected_mollified_local_time(H, t, 0.0, eps, 8)
        assert "eps must be" not in str(err.value)

    def test_large_finite_variance_accepted(self):
        got = lt.expected_mollified_local_time(0.5, 1e300, 0.0, 1e-3, 8)
        assert math.isfinite(got) and got > 0


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
def test_expected_local_times_refuse_bad_horizon(t):
    # an infinite horizon gave a negative E L (-0.798) and a warning
    for call in (lambda: lt.expected_local_time(0.5, t, 0.0),
                 lambda: lt.expected_mollified_local_time(0.5, t, 0.0,
                                                          1e-3, 8)):
        message = (f"t must be nonnegative and finite, got t={t}" if t < 0
                   else f"t must be a finite real number, got float {t}")
        with pytest.raises(ValueError, match=message):
            call()


class TestLevelAndBandwidthChecks:
    def test_unknown_kind_refused_before_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an unknown kind reached the kernel")

        monkeypatch.setattr(lt, "heat_kernel_prime", fail)
        monkeypatch.setattr(lt, "_dirichlet_sum", fail)
        p = flat_path(N=16, H=0.25)
        for call in (lambda: lt.mollified_local_time(p, 0.0, 0.01,
                                                     kind="bogus"),
                     lambda: lt.fourier_local_time(p, 0.0, 10.0, 0.1,
                                                   kind="bogus")):
            with pytest.raises(ValueError, match="unknown kind 'bogus'"):
                call()

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, "abc",
                                     [1], True])
    def test_level_must_be_finite_real(self, lam):
        p = flat_path(N=16)
        for call in (lambda: lt.mollified_local_time(p, lam, 0.01),
                     lambda: lt.fourier_local_time(p, lam, 10.0, 0.1),
                     lambda: lt.expected_local_time(0.5, 1.0, lam),
                     lambda: lt.expected_mollified_local_time(0.5, 1.0, lam,
                                                              0.01, 8)):
            with pytest.raises(ValueError, match="lambda must be a finite"):
                call()

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_bandwidth_must_be_finite(self, eps):
        p = flat_path(N=16)
        for call in (lambda: lt.mollified_local_time(p, 0.0, eps),
                     lambda: lt.mollified_local_time(p, 0.0, eps,
                                                     kind="derivative"),
                     lambda: lt.occupation_density_check(
                         p, tf.gaussian_bump(1.0, 0.0), eps),
                     lambda: lt.expected_mollified_local_time(0.5, 1.0, 0.0,
                                                              eps, 8)):
            with pytest.raises(ValueError, match="eps must be positive and"):
                call()


class TestStability:
    def test_level_estimates_cauchy_in_eps(self):
        p = fbm.sample_paths(0.5, 1.0, 8192, 1, seed=20)[0]
        eps0 = 16 * p.dt
        vals = [lt.mollified_local_time(p, 0.0, eps0 / 2 ** k).final
                for k in range(4)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        d3 = abs(vals[3] - vals[2])
        assert d2 < 3 * d1
        assert d3 < 3 * d2

    def test_derivative_cauchy_subcritical_divergent_supercritical(self):
        # H=0.25: shrinking bandwidth settles; H=0.6: the same diagnostic
        # visibly grows (logged canary, threshold-free)
        out = {}
        for H, N, seed in ((0.25, 8192, 21), (0.6, 8192, 22)):
            p = fbm.sample_paths(H, 1.0, N, 1, seed=seed)[0]
            eps0 = 32 * p.dt ** (2 * H)
            import warnings as w
            with w.catch_warnings():
                w.simplefilter("ignore", lt.DivergentEstimatorWarning)
                vals = [lt.mollified_local_time(p, 0.0, eps0 / 2 ** k,
                                                kind="derivative").final
                        for k in range(5)]
            diffs = np.abs(np.diff(vals))
            out[H] = diffs
        assert out[0.25][-1] < 3 * out[0.25][-2]
        print(f"\nderivative-estimator bandwidth sweep: "
              f"H=0.25 diffs={np.array2string(out[0.25], precision=4)}, "
              f"H=0.6 diffs={np.array2string(out[0.6], precision=4)} "
              "(supercritical growth expected)")
