import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fbmlab import constants as cst
from fbmlab import fbm
from fbmlab import localtime as lt

import oracles

# pinned against the Romberg oracle (oracles.py)
K_075_2_1 = 1.1149910341991025
MU_075_1_15 = 0.27643161743083194


class TestCovariance:
    def test_variance_case(self):
        for H in (0.2, 0.5, 0.85):
            assert fbm.covariance(H, 1.7, 1.7) == pytest.approx(
                1.7 ** (2 * H), rel=1e-14)

    def test_brownian_is_min(self):
        assert fbm.covariance(0.5, 0.3, 1.2) == pytest.approx(0.3, rel=1e-14)
        assert fbm.covariance(0.5, 2.0, 0.4) == pytest.approx(0.4, rel=1e-14)

    def test_h075_explicit(self):
        assert fbm.covariance(0.75, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            fbm.covariance(0.5, -1.0, 2.0)


class TestKernel:
    def test_brownian_indicator(self):
        assert fbm.volterra_kernel(0.5, 2.0, 1.0) == 1.0
        assert fbm.volterra_kernel(0.5, 1.0, 2.0) == 0.0

    def test_brownian_closed_form_is_exactly_one(self):
        # the 2F1 closed form needs no H = 1/2 branch: every factor is 1
        t = np.geomspace(1e-3, 1e3, 40)
        s = t[:, None] * np.geomspace(1e-6, 1.0 - 1e-9, 30)[None, :]
        assert np.all(fbm.volterra_kernel(0.5, t[:, None], s) == 1.0)

    def test_vanishes_at_and_past_diagonal(self):
        for H in (0.3, 0.75):
            assert fbm.volterra_kernel(H, 1.0, 1.0) == 0.0
            assert fbm.volterra_kernel(H, 1.0, 2.0) == 0.0

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            fbm.volterra_kernel(0.75, 2.0, 0.0)
        with pytest.raises(ValueError):
            fbm.volterra_kernel(0.75, -1.0, 0.5)

    def test_pinned_value(self):
        assert fbm.volterra_kernel(0.75, 2.0, 1.0) == pytest.approx(
            K_075_2_1, rel=1e-9)

    def test_matches_romberg_oracle(self):
        # below s/t = 1e-3 the Romberg oracle, not the kernel, is the limit
        for H in (0.05, 0.2, 1.0 / 3.0, 0.45, 0.55, 0.75, 0.95):
            for t, x in zip((0.3, 1.0, 2.5, 5.0) * 3,
                            np.geomspace(1e-3, 0.999999, 12)):
                s = t * x
                assert fbm.volterra_kernel(H, t, s) == pytest.approx(
                    oracles.oracle_kernel(H, t, s), rel=1e-10)

    def test_bracket_above_half(self):
        # C_H (H-1/2)^-1 (t-s)^(H-1/2) <= K <= (t/s)^(H-1/2) * same
        H = 0.75
        b1 = cst.beta1(H)
        ts = np.geomspace(0.01, 100.0, 20)
        fracs = np.geomspace(1e-3, 0.999, 20)
        for t in ts:
            for x in fracs:
                s = t * x
                base = b1 * (t - s) ** (H - 0.5)
                k = fbm.volterra_kernel(H, t, s)
                assert base * (1 - 1e-9) <= k <= (t / s) ** (H - 0.5) * base \
                    * (1 + 1e-9)

    def test_bracket_below_half(self):
        H = 0.3
        C = cst.c_h(H)
        r = (0.5 - H) / (0.5 + H)
        ts = np.geomspace(0.01, 100.0, 20)
        fracs = np.geomspace(1e-3, 0.999, 20)
        for t in ts:
            for x in fracs:
                s = t * x
                lead = (t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
                lo = C * (lead + r / t * (t / s) ** (H - 0.5)
                          * (t - s) ** (H + 0.5))
                hi = C * (lead + r / s * (t - s) ** (H + 0.5))
                k = fbm.volterra_kernel(H, t, s)
                assert lo * (1 - 1e-9) <= k <= hi * (1 + 1e-9)

    def test_variance_identity(self):
        # int_0^t K^2(t, .) = t^{2H}: pins the normalizing constant, and the
        # theta -> 0 end reaches the 2F1 argument 1 - t/theta -> -infinity
        for H in (0.1, 0.25, 0.3, 0.4, 0.6, 0.75, 0.9):
            assert fbm.mu(H, 0.0, 1.3) == pytest.approx(1.3 ** (2 * H),
                                                        rel=1e-12)

    @pytest.mark.parametrize("H", [0.3, 0.75])
    def test_matrix_peak_memory(self, H):
        # the kernel matrix is built from closed-form values, with no
        # per-value quadrature nodes: peak a few times the matrix itself
        fbm._volterra_matrix.cache_clear()
        tracemalloc.start()
        try:
            K = fbm._volterra_matrix(H, 1.0, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fbm._volterra_matrix.cache_clear()
        assert peak <= 8 * K.nbytes


class TestMu:
    def test_brownian_linear(self):
        assert fbm.mu(0.5, 0.3, 0.9) == pytest.approx(0.6, rel=1e-14)

    def test_empty_interval(self):
        assert fbm.mu(0.7, 1.0, 1.0) == 0.0

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            fbm.mu(0.7, 2.0, 1.0)

    def test_pinned_value_and_oracle(self):
        assert fbm.mu(0.75, 1.0, 1.5) == pytest.approx(MU_075_1_15, rel=1e-8)
        assert fbm.mu(0.3, 1.0, 1.5) == pytest.approx(
            oracles.oracle_mu(0.3, 1.0, 1.5), rel=1e-8)

    def test_bracket_above_half(self):
        # sandwich for n=1, r=1, s=0.5
        H, r, s = 0.75, 1.0, 0.5
        val = fbm.mu(H, r, r + s)
        base = cst.c_h(H) ** 2 * s ** (2 * H) / (2 * H * (H - 0.5) ** 2)
        assert base * (1 - 1e-9) <= val <= base * (1 + s / r) ** (2 * H - 1) \
            * (1 + 1e-9)

    def test_bracket_below_half(self):
        H, r, s = 0.3, 1.0, 0.5
        val = fbm.mu(H, r, r + s)
        base = cst.c_h(H) ** 2 * s ** (2 * H) / (2 * H)
        hi = base * (1 + (0.5 - H) / (0.5 + H) * s / r) ** 2
        assert base * (1 - 1e-9) <= val <= hi * (1 + 1e-9)

    @pytest.mark.parametrize("H", [0.3, 0.75])
    def test_rate_constant_stable(self, H):
        # |n^{2H} mu(r, r+s/n) - beta2 s^{2H}| <= C s^{2H+1}/(rn): the fitted
        # C stays within x1.5 as n doubles
        r = s = 1.0
        b2 = cst.beta2(H)
        cs = []
        for k in range(4, 11):
            n = 2 ** k
            err = abs(n ** (2 * H) * fbm.mu(H, r, r + s / n) - b2)
            cs.append(err * r * n / s ** (2 * H + 1))
        cs = np.array(cs)
        assert cs.max() <= 1.5 * cs.min()


class TestSampling:
    def test_values_start_at_zero(self):
        for method in ("circulant", "cholesky", "volterra"):
            p = fbm.sample_paths(0.7, 1.0, 64, 3, seed=1, method=method)[0]
            assert p.values[0] == 0.0

    def test_deterministic_in_seed_and_index(self):
        a = fbm.sample_paths(0.6, 1.0, 128, 5, seed=9)
        b = fbm.sample_paths(0.6, 1.0, 128, 3, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)

    def test_different_seeds_differ(self):
        a = fbm.sample_paths(0.6, 1.0, 64, 1, seed=1)[0]
        b = fbm.sample_paths(0.6, 1.0, 64, 1, seed=2)[0]
        assert not np.array_equal(a.values, b.values)

    def test_brownian_increments_iid(self):
        paths = fbm.sample_paths(0.5, 1.0, 64, 2000, seed=4)
        inc = np.diff(np.stack([p.values for p in paths]), axis=1)
        dt = 1.0 / 64
        pooled = inc.ravel()
        se = dt * math.sqrt(2.0 / pooled.size)
        assert abs(pooled.var() - dt) < 5 * se

    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_terminal_variance(self, method):
        H, M = 0.3, 4000
        paths = fbm.sample_paths(H, 1.0, 32, M, seed=11, method=method)
        v = np.array([p.values[-1] for p in paths])
        se = math.sqrt(2.0 / M)  # SE of the variance of a unit Gaussian
        assert abs(v.var() - 1.0) < 5 * se

    def test_empirical_covariance_matches_formula(self):
        H, N, M = 0.3, 16, 6000
        paths = fbm.sample_paths(H, 1.0, N, M, seed=5, method="circulant")
        vals = np.stack([p.values for p in paths])[:, 1:]
        emp = vals.T @ vals / M
        t = np.linspace(0, 1, N + 1)[1:]
        exact = fbm.covariance(H, t[:, None], t[None, :])
        # SE of a Gaussian product moment: (R_ii R_jj + R_ij^2) / M
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact))
                      + exact ** 2) / M)
        assert np.all(np.abs(emp - exact) < 5 * se)

    def test_volterra_reproducible_from_increments(self):
        p = fbm.sample_paths(0.7, 1.0, 64, 1, seed=3, method="volterra")[0]
        t = p.times
        theta = (np.arange(p.N) + 0.5) * p.dt
        for k in (1, 17, 64):
            row = fbm.volterra_kernel(p.H, t[k], theta)
            row = np.where(theta < t[k], row, 0.0)
            assert p.values[k] == pytest.approx(
                float(row @ p.wiener_increments), rel=1e-10, abs=1e-12)

    def test_cholesky_size_guard(self):
        with pytest.raises(ValueError):
            fbm.sample_paths(0.5, 1.0, 8192, 1, seed=0, method="cholesky")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fbm.sample_paths(0.5, 1.0, 8, 1, seed=0, method="spectral")

    def test_self_similarity_marginals(self):
        # law of c^{-H} B_{c t} matches B_t at c = 4: two-sample KS on the
        # terminal marginal, below the 1% critical value
        H, M = 0.65, 10000
        a = fbm.sample_paths(H, 4.0, 64, M, seed=21, method="circulant")
        b = fbm.sample_paths(H, 1.0, 64, M, seed=22, method="circulant")
        xa = 4.0 ** -H * np.array([p.values[-1] for p in a])
        xb = np.array([p.values[-1] for p in b])
        d = stats.ks_2samp(xa, xb).statistic
        assert d < 1.628 * math.sqrt(2.0 / M)


class TestHalfSpectrum:
    @pytest.mark.parametrize("H", [0.05, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("N", [1, 2, 7, 1024])
    def test_matches_full_spectrum_oracle(self, H, N):
        # N=1: the half spectrum holds only its two real ends
        got = fbm.sample_values(H, 1.0, N, 5, seed=3)
        want = oracles.oracle_circulant_paths(H, 1.0, N, 5, seed=3)
        assert got.shape == (5, N + 1)
        assert np.all(got[:, 0] == 0.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_rows_do_not_depend_on_the_batch(self, method):
        whole = np.stack([p.values for p in
                          fbm.sample_paths(1.0 / 3.0, 1.0, 64, 7, seed=9,
                                           method=method)])
        part = fbm.sample_values(1.0 / 3.0, 1.0, 64, 4, seed=9, start=3,
                                 method=method)
        one = fbm.sample_values(1.0 / 3.0, 1.0, 64, 1, seed=9, start=3,
                                method=method)
        assert part.tobytes() == whole[3:7].tobytes()
        assert one.tobytes() == whole[3:4].tobytes()

    @pytest.mark.parametrize("N, count, start", [
        (64, 20000, 3), (4096, 1000, 5), (2 ** 17, 8, 1)])
    def test_grouped_rows_equal_the_per_row_loop(self, N, count, start):
        # groups of 1008, 15 and 1 rows: the first two counts end in a
        # partial group, and start shifts every substream
        group = max(1, fbm._GROUP_VALUES // (N + 1))
        assert group == 1 or count % group
        got = fbm.sample_values(1.0 / 3.0, 1.0, N, count, seed=4, start=start)
        want = oracles.oracle_half_spectrum_values(1.0 / 3.0, 1.0, N, count,
                                                   seed=4, start=start)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", [64, 4096, 2 ** 17])
    def test_reused_buffers_give_the_fresh_rows(self, N):
        # draws into one buffer set, each over the last one's values and
        # spent draws: whole groups, a partial one, then a single row
        H, rows = 1.0 / 3.0, fbm.group_rows(N, 40)
        out = fbm.SynthesisBuffers(N, rows)
        for start, count in ((2, rows), (40, max(1, rows - 2)), (7, 1)):
            got = fbm.sample_values(H, 1.0, N, count, seed=4, start=start,
                                    out=out)
            assert np.shares_memory(got, out.values)
            fresh = fbm.sample_values(H, 1.0, N, count, seed=4, start=start)
            want = oracles.oracle_half_spectrum_values(H, 1.0, N, count,
                                                       seed=4, start=start)
            assert got.tobytes() == fresh.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N", [64, 4096, 2 ** 17])
    def test_draws_ignore_what_the_kernel_left(self, N):
        # the experiments' kernel writes its scratch over the spent draws
        # and half spectrum, the imaginary parts at k = 0 and k = N included
        H, rows = 1.0 / 3.0, fbm.group_rows(N, 40)
        out = fbm.SynthesisBuffers(N, rows)
        for start, count in ((2, rows), (40, max(1, rows - 2))):
            out.d.fill(np.nan)
            out.buf.real.fill(np.nan)
            out.buf.imag.fill(np.nan)
            assert np.isnan(out.buf.imag[:, [0, N]]).all()
            got = fbm.sample_values(H, 1.0, N, count, seed=4, start=start,
                                    out=out)
            fresh = fbm.sample_values(H, 1.0, N, count, seed=4, start=start)
            want = oracles.oracle_half_spectrum_values(H, 1.0, N, count,
                                                       seed=4, start=start)
            assert got.tobytes() == fresh.tobytes() == want.tobytes()

    def test_reused_buffers_serve_cholesky(self):
        out = fbm.SynthesisBuffers(64, 5)
        fbm.sample_values(0.3, 1.0, 64, 5, seed=1, out=out)
        got = fbm.sample_values(0.3, 1.0, 64, 3, seed=1, start=4,
                                method="cholesky", out=out)
        fresh = fbm.sample_values(0.3, 1.0, 64, 3, seed=1, start=4,
                                  method="cholesky")
        assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("N, rows, count", [(64, 4, 5), (32, 8, 2)])
    def test_buffers_of_another_shape_rejected(self, N, rows, count):
        with pytest.raises(ValueError, match="cannot hold"):
            fbm.sample_values(0.3, 1.0, 64, count, seed=0,
                              out=fbm.SynthesisBuffers(N, rows))

    def test_synthesis_memory_is_the_output(self):
        # one O(N) buffer set on top of the values, not a (count, 2N)
        # complex batch; the spectrum is built inside the measured call
        H, N, count = 1.0 / 3.0, 2 ** 14, 20
        fbm._half_spectrum.cache_clear()
        tracemalloc.start()
        try:
            fbm.sample_paths(H, 1.0, N, count, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * count * (N + 1) * 8

    def test_spectrum_memory_is_six_vectors(self):
        # built in place: the k vector, the complex length-2N FFT vector
        # and one more vector of N+1 doubles, not a dozen temporaries
        N = 2 ** 14
        fbm._half_spectrum.cache_clear()
        tracemalloc.start()
        try:
            fbm._half_spectrum(1.0 / 3.0, 1.0, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * (N + 1) * 8

    def test_spectrum_cache_is_read_only(self):
        amp = fbm._half_spectrum(0.3, 1.0, 16)
        with pytest.raises(ValueError):
            amp[0] = 1.0

    def test_rejects_volterra_and_negative_start(self):
        with pytest.raises(ValueError):
            fbm.sample_values(0.5, 1.0, 8, 1, seed=0, method="volterra")
        with pytest.raises(ValueError):
            fbm.sample_values(0.5, 1.0, 8, 1, seed=0, start=-1)


class TestConditionalMean:
    def test_requires_increments(self):
        p = fbm.sample_paths(0.7, 1.0, 32, 1, seed=0, method="circulant")[0]
        with pytest.raises(ValueError):
            fbm.conditional_mean_path(p, 0.25, 0.5)

    def test_zero_at_origin(self):
        p = fbm.sample_paths(0.7, 1.0, 32, 1, seed=0, method="volterra")[0]
        assert fbm.conditional_mean_path(p, 0.0, 0.5) == 0.0

    def test_brownian_projection_is_current_value(self):
        p = fbm.sample_paths(0.5, 1.0, 64, 1, seed=6, method="volterra")[0]
        r = 0.5
        k = 32
        for s in (0.5, 0.75, 1.0):
            assert fbm.conditional_mean_path(p, r, s) == pytest.approx(
                float(p.values[k]), rel=1e-12)

    def test_projection_residual_variance_matches_mu(self):
        H, N, M = 0.75, 1024, 10000
        r, s = 0.5, 0.75
        paths = fbm.sample_paths(H, 1.0, N, M, seed=13, method="volterra")
        k = int(0.75 * N)
        resid = np.array([p.values[k] - fbm.conditional_mean_path(p, r, s)
                          for p in paths])
        target = fbm.mu(H, r, s)
        se = target * math.sqrt(2.0 / M)
        assert abs(resid.var() - target) < 5 * se


class TestConditionalIncrementVariance:
    def test_degenerate_cases(self):
        assert fbm.conditional_increment_variance(0.4, 0.0, 1.0, 2.0) == 0.0
        assert fbm.conditional_increment_variance(0.4, 0.5, 1.5, 1.5) == 0.0

    @pytest.mark.parametrize("H", [0.4, 0.75])
    def test_converges_to_beta3(self, H):
        r, s1, s2 = 1.0, 2.0, 1.0
        target = cst.beta3(H, s1, s2)
        errs = []
        for n in (64, 256, 1024):
            v = n ** (2 * H) * fbm.conditional_increment_variance(
                H, r, r + s1 / n, r + s2 / n)
            errs.append(abs(v - target))
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.02 * target

    @pytest.mark.parametrize("H", [0.25, 0.4, 0.6, 0.75])
    @pytest.mark.parametrize("r, t2", [(1.0, 1.5), (0.5, 2.0),
                                       (1.0, 1.0 + 2.0 ** -6)])
    def test_projection_identity_at_r_equal_t1(self, H, r, t2):
        # r = t1: Var[B_r - E(B_t2 | F_r)]
        #   = r^2H + (t2^2H - mu(r, t2)) - 2 Cov(B_r, B_t2)
        want = (r ** (2 * H) + t2 ** (2 * H) - fbm.mu(H, r, t2)
                - 2.0 * fbm.covariance(H, r, t2))
        got = fbm.conditional_increment_variance(H, r, r, t2)
        assert got == pytest.approx(want, rel=1e-6)


_BAD_H = [0.0, 1.0, -0.2, 1.5, float("nan")]
_HURST_CALLS = {
    "covariance": lambda H: fbm.covariance(H, 0.5, 1.0),
    "volterra_kernel": lambda H: fbm.volterra_kernel(H, 1.0, 0.5),
    "mu": lambda H: fbm.mu(H, 0.5, 1.0),
    "conditional_increment_variance":
        lambda H: fbm.conditional_increment_variance(H, 0.5, 1.0, 1.5),
    "sample_paths": lambda H: fbm.sample_paths(H, 1.0, 8, 1, seed=0),
    "sample_values": lambda H: fbm.sample_values(H, 1.0, 8, 1, seed=0),
    "expected_local_time": lambda H: lt.expected_local_time(H, 1.0, 0.0),
    "expected_mollified_local_time":
        lambda H: lt.expected_mollified_local_time(H, 1.0, 0.0, 1e-2, 8),
}


@pytest.mark.parametrize("H", _BAD_H)
@pytest.mark.parametrize("name", sorted(_HURST_CALLS))
def test_rejects_hurst_outside_unit_interval(name, H):
    with pytest.raises(ValueError, match=r"must lie in \(0,1\), got"):
        _HURST_CALLS[name](H)
