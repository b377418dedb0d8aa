import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fbmlab import experiments as exp
from fbmlab import fbm
from fbmlab import limits
from fbmlab import localtime as lt
from fbmlab import testfuncs as tf
from fbmlab.errors import CostGuardError

DATA = os.path.join(os.path.dirname(__file__), "data")
GD_LABEL = "gaussian_derivative(sigma=1)"


def small_config(**kw):
    base = dict(H=0.6, f=("gaussian_derivative:sigma=1",), path_count=50,
                grid_per_unit=512, n_ladder=(4, 16), seed=1, batch_size=16)
    base.update(kw)
    return exp.ExperimentConfig(**base)


class TestConfig:
    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            small_config(n_ladder=(16, 16))

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            small_config(grid_per_unit=2 ** 18, n_ladder=(4, 2 ** 12))

    def test_json_round_trip(self):
        cfg = small_config(lam=0.25, eps_policy="n2h")
        again = exp.ExperimentConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()
        assert again.lam == 0.25

    def test_lambda_key_spelled_out(self):
        assert "lambda" in small_config().to_dict()

    def test_eps_policies(self):
        cfg = small_config()
        dt = 1.0 / cfg.grid_points
        assert cfg.epsilon(16) == pytest.approx(dt ** 1.2)
        assert small_config(eps_policy="n2h").epsilon(16) == \
            pytest.approx(16.0 ** -1.2)
        assert small_config(eps_policy="fixed:0.01").epsilon(16) == 0.01
        with pytest.raises(ValueError):
            small_config(eps_policy="bogus").epsilon(16)

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            small_config(path_count=0)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            small_config(batch_size=batch_size)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            small_config(threads=threads)

    @pytest.mark.parametrize("method", ["volterra", "spectral"])
    def test_method_rejected(self, method):
        with pytest.raises(ValueError, match=method):
            small_config(method=method)

    @pytest.mark.parametrize("policy", ["bogus", "fixed:-1"])
    def test_eps_policy_rejected(self, policy):
        with pytest.raises(ValueError):
            small_config(eps_policy=policy)

    @pytest.mark.parametrize("grid", [0, -8])
    def test_grid_per_unit_rejected(self, grid):
        with pytest.raises(ValueError, match="grid_per_unit"):
            small_config(grid_per_unit=grid)

    def test_off_grid_time_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            small_config(t_list=(1.0 / 3.0, 1.0))

    def test_cholesky_grid_rejected(self):
        with pytest.raises(ValueError, match="cholesky"):
            small_config(method="cholesky", grid_per_unit=8192)
        assert small_config(method="cholesky").method == "cholesky"

    def test_empty_f_rejected(self):
        with pytest.raises(ValueError, match="at least one test function"):
            small_config(f=())

    def test_duplicate_label_rejected(self):
        # both specs build hat(a=-1,b=1): their records could not be told apart
        with pytest.raises(ValueError, match="distinct"):
            small_config(f=("hat", "hat:a=-1,b=1"))


class TestFunctional:
    def test_zero_function(self):
        p = fbm.sample_paths(0.6, 1.0, 128, 1, seed=2)[0]
        z = tf.TestFunction(lambda x: np.zeros_like(x), "zero",
                            support=(-1, 1))
        assert exp.scaled_additive_functional(p, z, 0.0, 16, 1.0) == 0.0

    def test_unit_plateau_returns_time(self):
        p = fbm.sample_paths(0.6, 1.0, 128, 1, seed=2)[0]
        wide = tf.indicator(-1e6, 1e6)
        for t in (0.5, 1.0):
            assert exp.scaled_additive_functional(p, wide, 0.0, 4, t) == \
                pytest.approx(t, rel=1e-12)

    def test_undersampling_warns(self):
        p = fbm.sample_paths(0.5, 1.0, 32, 1, seed=3)[0]
        narrow = tf.gaussian_bump(1e-3, 0.0)
        with pytest.warns(exp.UndersamplingWarning):
            exp.scaled_additive_functional(p, narrow, 0.0, 4096, 1.0)

    def test_off_grid_time_rejected(self):
        p = fbm.sample_paths(0.5, 1.0, 128, 1, seed=3)[0]
        with pytest.raises(ValueError):
            exp.scaled_additive_functional(p, tf.gaussian_bump(), 0.0, 4,
                                           1.0 / 3.0)

    def test_first_order_limit_mean(self):
        # n^H * functional -> L_t(lam) * mass.  For the unit Gaussian bump
        # n^H f(n^H x) = p_{n^{-2H}}(x), so n^H * functional is the mollified
        # local time at eps = n^{-2H}: the M-path mean matches that
        # estimator's exact expectation on the grid within 3.5 SE
        H, N, M, n = 0.5, 2048, 1500, 256
        paths = fbm.sample_paths(H, 1.0, N, M, seed=5)
        f = tf.gaussian_bump(1.0, 0.0)
        vals = np.array([n ** H * exp.scaled_additive_functional(
            p, f, 0.0, n, 1.0) for p in paths])
        target = lt.expected_mollified_local_time(
            H, 1.0, 0.0, float(n) ** (-2 * H), N)  # mass is 1
        se = vals.std(ddof=1) / math.sqrt(M)
        assert abs(vals.mean() - target) < 3.5 * se


class TestCompensatedZ:
    def test_zero_horizon(self):
        p = fbm.sample_paths(0.6, 1.0, 128, 1, seed=4)[0]
        assert exp.compensated_functional_Z(p, tf.gaussian_bump(), 0.0, 16,
                                            0.0) == 0.0

    def test_zero_energy_skips_compensator(self):
        p = fbm.sample_paths(0.6, 1.0, 128, 1, seed=4)[0]
        f = tf.gaussian_derivative(1.0)
        n, t = 16, 1.0
        z = exp.compensated_functional_Z(p, f, 0.0, n, t)
        direct = n ** 0.8 * exp.scaled_additive_functional(p, f, 0.0, n, t)
        assert z == pytest.approx(direct, rel=1e-12)

    def test_subcritical_rejected(self):
        p = fbm.sample_paths(0.25, 1.0, 128, 1, seed=4)[0]
        with pytest.raises(ValueError):
            exp.compensated_functional_Z(p, tf.gaussian_bump(), 0.0, 16, 1.0)

    def test_gaussian_mass_compensation_is_exact_at_matched_bandwidth(self):
        # for the unit Gaussian bump at the probed level, the functional IS
        # the mollified local time at bandwidth n^{-2H}; the compensated
        # value cancels pathwise to rounding
        H, N, n = 0.6, 2048, 64
        paths = fbm.sample_paths(H, 1.0, N, 20, seed=6)
        f = tf.gaussian_bump(1.0, 0.0)
        for p in paths:
            z = exp.compensated_functional_Z(p, f, 0.0, n, 1.0,
                                             eps_policy="n2h")
            assert abs(z) < 1e-10

    def test_compensated_mean_shrinks_with_scale(self):
        # non-Gaussian mass-carrying f: the first-order term is removed only
        # asymptotically; the mean bias decreases along the ladder
        H, N, M = 0.6, 2 ** 13, 400
        paths = fbm.sample_paths(H, 1.0, N, M, seed=6)
        f = tf.hat(-1.0, 1.0)
        means = []
        for n in (16, 256):
            zs = np.array([exp.compensated_functional_Z(
                p, f, 0.0, n, 1.0, eps_policy="n2h") for p in paths])
            means.append(abs(zs.mean()))
        assert means[1] < means[0]


class TestScalingIdentityInLaw:
    def test_ks_between_two_representations(self):
        # int_0^1 f(n^H B_s) ds  vs  n^{-1} int_0^n f(B~_s) ds on
        # independently simulated long paths, two-sample KS below the 5%
        # critical value
        H, n, M = 0.6, 16, 2000
        f = tf.gaussian_bump(1.0, 0.0)
        short = fbm.sample_paths(H, 1.0, 1024, M, seed=7)
        a = np.array([exp.scaled_additive_functional(p, f, 0.0, n, 1.0)
                      for p in short])
        long = fbm.sample_paths(H, float(n), 1024 * n, M, seed=8)
        dt = float(n) / (1024 * n)
        b = np.array([np.trapezoid(f(p.values), dx=dt) / n for p in long])
        d = stats.ks_2samp(a, b).statistic
        assert d < 1.358 * math.sqrt(2.0 / M)


class TestCltExperiment:
    def test_report_structure_and_determinism(self):
        cfg = small_config()
        r1 = exp.clt_experiment(cfg)
        r2 = exp.clt_experiment(small_config(threads=3, batch_size=7))
        assert exp.serialize_report(r1) == exp.serialize_report(r2)
        assert len(r1.per_path) == 50 * 2  # paths x ladder x t_list
        agg = r1.aggregates
        assert GD_LABEL in agg["a_hat"]
        assert set(agg["mean_Z"][GD_LABEL]) == {"4", "16"}

    def test_cholesky_bytes_do_not_depend_on_batches(self):
        # 7 paths in batches of 3 end in a one-path batch
        r1 = exp.clt_experiment(small_config(method="cholesky", path_count=7,
                                             batch_size=3))
        r2 = exp.clt_experiment(small_config(method="cholesky", path_count=7,
                                             batch_size=7, threads=2))
        assert exp.serialize_report(r1) == exp.serialize_report(r2)

    def test_round_trip(self):
        rep = exp.clt_experiment(small_config())
        again = exp.deserialize_report(exp.serialize_report(rep))
        assert again == rep

    def test_csv_serialization(self):
        rep = exp.clt_experiment(small_config())
        csv = exp.serialize_report(rep, fmt="csv").decode()
        lines = csv.strip().split("\n")
        assert lines[0] == "path,f,n,t,value,L"
        assert len(lines) == 1 + len(rep.per_path)

    def test_cross_time_covariance_structure(self):
        cfg = small_config(t_list=(0.5, 1.0), path_count=400,
                           grid_per_unit=1024, n_ladder=(8, 32),
                           batch_size=100)
        rep = exp.clt_experiment(cfg)
        cross = rep.aggregates["cross_time"][GD_LABEL]["32"]["0.5,1"]
        # Cov(Z_{t1}, Z_{t2}) tracks A * E[L_{t1 and t2}] within MC noise
        assert cross["predicted"] > 0
        assert abs(cross["emp_cov"] - cross["predicted"]) < \
            0.5 * cross["predicted"] + 0.05

    def test_golden_bytes(self):
        cfg = exp.ExperimentConfig(
            H=0.6, f=("gaussian_derivative:sigma=1",), lam=0.0,
            t_list=(0.5, 1.0), n_ladder=(4, 8), path_count=2,
            grid_per_unit=256, seed=0, batch_size=2)
        rep = exp.clt_experiment(cfg)
        with open(os.path.join(DATA, "golden_clt_report.json"), "rb") as fh:
            assert exp.serialize_report(rep) == fh.read()

    def test_a_hat_written_at_certified_precision(self):
        agg = exp.clt_experiment(small_config(path_count=4)).aggregates
        q = limits.a_h(tf.gaussian_derivative(1.0),
                       tf.gaussian_derivative(1.0), 0.6)
        a, err = agg["a_hat"][GD_LABEL], agg["a_hat_error"][GD_LABEL]
        assert err == float(f"{q.error:.2g}")
        assert abs(a - q.value) <= err
        digits = -math.floor(math.log10(err))
        assert a == round(a, digits)

    def test_critical_a_hat_has_no_error_estimate(self):
        agg = exp.clt_experiment(small_config(H=1.0 / 3.0,
                                              path_count=4)).aggregates
        assert "a_hat_error" not in agg
        assert agg["a_hat"][GD_LABEL] == limits.a_one_third(
            tf.gaussian_derivative(1.0), tf.gaussian_derivative(1.0))

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            exp.clt_experiment(small_config(H=0.25))

    def test_n2h_records_equal_single_path_definition(self):
        # under n2h every n is compensated at its own bandwidth n^{-2H}
        cfg = small_config(f=("hat:a=-1,b=1",), n_ladder=(4, 64, 1024),
                           path_count=3, eps_policy="n2h")
        rep = exp.clt_experiment(cfg)
        paths = fbm.sample_paths(cfg.H, 1.0, cfg.grid_points, 3, seed=cfg.seed)
        f = tf.hat(-1.0, 1.0)
        assert len(rep.per_path) == 9
        for rec in rep.per_path:
            z = exp.compensated_functional_Z(paths[rec["path"]], f, cfg.lam,
                                             rec["n"], rec["t"],
                                             eps_policy="n2h")
            assert abs(rec["Z"] - z) <= 1e-12, rec


class TestDerivativeExperiment:
    def test_requires_subcritical(self):
        with pytest.raises(ValueError):
            exp.derivative_experiment(small_config(H=0.5))

    def test_golden_bytes(self):
        cfg = exp.ExperimentConfig(
            H=0.25, f=("gaussian_bump:sigma=1,center=0.5",), t_list=(1.0,),
            n_ladder=(4, 8), path_count=2, grid_per_unit=256, seed=0,
            batch_size=2)
        rep = exp.derivative_experiment(cfg)
        with open(os.path.join(DATA, "golden_derivative_report.json"),
                  "rb") as fh:
            assert exp.serialize_report(rep) == fh.read()

    def test_zero_moment_reduction(self):
        # f with both moments zero: e_n is exactly n^{2H} * functional
        g1, g2 = tf.gaussian_bump(1.0, 0.0), tf.gaussian_bump(2.0, 0.0)
        f = tf.TestFunction(lambda x: g1(x) - g2(x), "balanced",
                            closed_form_moments=(0.0, 0.0), scale_hint=2.0)
        p = fbm.sample_paths(0.25, 1.0, 2048, 1, seed=9)[0]
        H, n = 0.25, 16
        func = exp.scaled_additive_functional(p, f, 0.0, n, 1.0)
        eps = p.dt ** (2 * H)
        L = lt.mollified_local_time(p, 0.0, eps).final
        lp = -lt.mollified_local_time(p, 0.0, eps, kind="derivative").final
        e_n = n ** H * (n ** H * func - L * 0.0) - lp * 0.0
        assert e_n == pytest.approx(n ** (2 * H) * func, rel=1e-12)

    def test_l2_error_decreases_at_scale(self):
        cfg = exp.ExperimentConfig(
            H=0.25, f=("gaussian_bump:sigma=1,center=0.5",),
            path_count=400, grid_per_unit=2 ** 13, n_ladder=(32, 128, 512),
            seed=10, batch_size=100)
        rep = exp.derivative_experiment(cfg)
        lbl = "gaussian_bump(sigma=1,center=0.5)"
        l2 = rep.aggregates["l2_error"][lbl]["1.0"]
        assert l2["512"] < l2["128"] < l2["32"]


KINDS = [(exp.clt_experiment, dict(H=0.6, f=("gaussian_derivative:sigma=1",))),
         (exp.derivative_experiment,
          dict(H=0.25, f=("gaussian_bump:sigma=1,center=0.5",)))]
KIND_IDS = ["clt", "derivative"]


class TestFunctionalKernel:
    @pytest.mark.parametrize("run, kind", KINDS, ids=KIND_IDS)
    def test_bytes_do_not_depend_on_row_chunks(self, run, kind):
        # a chunk holds a few rows of this grid, so 7-path batches split
        # into several chunks and 1-path batches into one each
        grid = 2 ** 14
        assert 1 < exp._CHUNK_VALUES // (grid + 1) < 7
        base = dict(kind, t_list=(0.5, 1.0), n_ladder=(4, 16), path_count=7,
                    grid_per_unit=grid, seed=2)
        r1 = run(exp.ExperimentConfig(**base, threads=1, batch_size=1))
        r2 = run(exp.ExperimentConfig(**base, threads=2, batch_size=7))
        assert exp.serialize_report(r1) == exp.serialize_report(r2)

    @pytest.mark.parametrize("run, kind", [
        (exp.clt_experiment, dict(H=1.0 / 3.0,
                                  f=("gaussian_derivative:sigma=1",))),
        KINDS[1]], ids=KIND_IDS)
    def test_peak_memory_is_a_few_value_matrices(self, run, kind):
        # evaluation temporaries are row chunks, not copies of the batch
        cfg = exp.ExperimentConfig(**kind, path_count=20,
                                   grid_per_unit=2 ** 14, batch_size=20)
        limits.a_one_third(tf.gaussian_derivative(1.0),
                           tf.gaussian_derivative(1.0))
        run(cfg)  # warm the beta3 profile and the spectrum caches
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 20 * (cfg.grid_points + 1) * 8


class TestFirstOrderL2Decay:
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_error_decreases_as_n_doubles(self, H):
        # mean squared error of n^H functional vs Lhat * mass along a short
        # ladder
        N, M = 2 ** 12, 300
        paths = fbm.sample_paths(H, 1.0, N, M, seed=11)
        f = tf.gaussian_bump(1.0, 0.0)
        eps = (1.0 / N) ** (2 * H)
        L = np.array([lt.mollified_local_time(p, 0.0, eps).final
                      for p in paths])
        errs = []
        for n in (16, 64, 256):
            vals = np.array([n ** H * exp.scaled_additive_functional(
                p, f, 0.0, n, 1.0) for p in paths])
            errs.append(np.mean((vals - L) ** 2))
        assert errs[2] < errs[1] < errs[0]


class TestNaming:
    def test_default_output_name(self):
        assert exp.default_output_name("clt", 0.6, 7) == "clt_0.6_7.json"
