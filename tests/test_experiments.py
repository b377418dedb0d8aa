import csv
import dataclasses
import io
import json
import math
import os
import re
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

import oracles

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, "abc", [1], True])
    def test_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be a finite"):
            small_config(lam=lam)

    def test_lambda_stored_as_float(self):
        cfg = small_config(lam=1)
        assert type(cfg.lam) is float
        assert repr(cfg.to_dict()["lambda"]) == "1.0"

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

    @pytest.mark.parametrize("policy", ["bogus", "fixed:-1", "fixed:nan",
                                        "fixed:inf"])
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

    @pytest.mark.parametrize("kw, match", [
        (dict(seed=-1), "seed must be >= 0"),
        *((dict(H=H), "Hurst parameter") for H in (0.0, 1.0, 1.5, math.nan)),
        (dict(method="cholesky", grid_per_unit=4097), "cholesky")])
    def test_synthesis_request_refused_up_front(self, monkeypatch, kw, match):
        # the config refuses what synthesis would, before any constant is
        # computed or path drawn
        def fail(*args, **kwargs):
            raise AssertionError("reached a constant or a draw")

        for name in ("a_h", "a_one_third", "sample_values"):
            monkeypatch.setattr(exp, name, fail)
        with pytest.raises(ValueError, match=match):
            exp.clt_experiment(small_config(**kw))

    def test_empty_f_rejected(self):
        with pytest.raises(ValueError, match="at least one test function"):
            small_config(f=())

    def test_duplicate_label_rejected(self):
        # both specs build hat(a=-1,b=1): their records could not be told apart
        with pytest.raises(ValueError, match="distinct"):
            small_config(f=("hat", "hat:a=-1,b=1"))

    def test_duplicate_time_rejected(self):
        # aggregates are keyed by time: one time's would overwrite the other's
        with pytest.raises(ValueError, match="distinct"):
            small_config(t_list=(0.5, 0.5, 1.0))

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one scale"):
            small_config(n_ladder=())

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", "1"), ("path_count", 2.5),
        ("batch_size", 16.0), ("threads", True), ("n_ladder", (4.7, 8)),
        ("n_ladder", (4, 8.0)), ("n_ladder", (False, 8)),
        ("grid_per_unit", 64.7), ("grid_per_unit", True)])
    def test_integer_field_rejected(self, field, value):
        # a float seed or count used to fail in numpy after validation, a
        # float scale was truncated (4.7 ran n = 4), and a grid_per_unit of
        # 64.7 ran 65 grid points while the report echoed 64.7
        with pytest.raises(ValueError, match=f"{field} .*must be an integer"):
            small_config(**{field: value})

    @pytest.mark.parametrize("value", [(True,), (0.5, False), ("1",),
                                       (None,)])
    def test_non_real_time_rejected(self, value):
        # [True] ran at t = 1.0 and was echoed as 1.0; the last time is the
        # bad one, named with its type and value (bool True, str '1', ...)
        bad = value[-1]
        with pytest.raises(ValueError, match=re.escape(
                f"t_list time must be a finite real number, got "
                f"{type(bad).__name__} {bad!r}")):
            small_config(t_list=value)

    def test_threads_default_to_the_usable_cpus(self):
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        cfg = exp.ExperimentConfig(H=0.6)
        assert cfg.threads == cpus
        assert exp.ExperimentConfig.from_dict(cfg.to_dict()).threads == cpus

    @pytest.mark.parametrize("field, value", [
        ("t_list", (math.inf,)), ("t_list", (0.5, math.nan)),
        ("t_list", (math.nan, 1.0)), ("cost_guard", math.nan)])
    def test_nonfinite_field_rejected(self, field, value):
        # an infinite time overflowed the grid size, a NaN one failed in
        # int(), and a NaN cost guard turned the guard off
        with pytest.raises(ValueError, match=f"{field} "):
            small_config(**{field: value})


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


class TestPathFunctionalLevel:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, True])
    def test_level_rejected(self, lam):
        # a NaN or infinite level used to return nan (or 0.0 for the bump's
        # compensated value), and True ran at lam = 1
        p = fbm.sample_paths(0.6, 1.0, 64, 1, seed=4)[0]
        for functional in (exp.scaled_additive_functional,
                           exp.compensated_functional_Z):
            with pytest.raises(ValueError, match="lambda must be a finite"):
                functional(p, tf.gaussian_bump(), lam, 16, 1.0)


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
        text = exp.serialize_report(rep, fmt="csv").decode()
        lines = text.strip().split("\n")
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


class TestRecordsEqualCurves:
    """One trapezoid rule: on a 2^12 grid, which spans several blocks of the
    rule, the records are the single-path curves bit for bit."""

    CLT = dict(H=0.6, eps_policy="n2h", lam=0.3, t_list=(0.25, 1.0),
               grid_per_unit=4096, path_count=3)
    DERIVATIVE = dict(H=0.25, f=("gaussian_bump:sigma=1,center=0.5",),
                      t_list=(0.25, 1.0), grid_per_unit=4096, path_count=3)

    def _records_and_curves(self, run, cfg):
        rep = run(cfg)
        paths = fbm.sample_paths(cfg.H, cfg.horizon, cfg.grid_points,
                                 cfg.path_count, seed=cfg.seed)
        k_of = dict(zip(cfg.t_list, cfg.t_indices()))
        for rec in rep.per_path:
            yield (rec, paths[rec["path"]], cfg.epsilon(rec["n"]),
                   k_of[rec["t"]])

    def test_clt_records_equal_mollified_curves(self):
        cfg = small_config(**self.CLT)
        for rec, p, eps, k in self._records_and_curves(exp.clt_experiment,
                                                        cfg):
            assert rec["L"] == lt.mollified_local_time(
                p, cfg.lam, eps).values[k], rec

    def test_derivative_records_equal_mollified_curves(self):
        cfg = small_config(**self.DERIVATIVE)
        for rec, p, eps, k in self._records_and_curves(
                exp.derivative_experiment, cfg):
            assert rec["L"] == lt.mollified_local_time(
                p, cfg.lam, eps).values[k], rec
            assert rec["Lp"] == -lt.mollified_local_time(
                p, cfg.lam, eps, kind="derivative").values[k], rec

    @pytest.mark.parametrize("run, kw", [
        (exp.clt_experiment, CLT), (exp.derivative_experiment, DERIVATIVE)],
        ids=["clt", "derivative"])
    def test_record_does_not_depend_on_other_times(self, run, kw):
        one, three = (run(small_config(**{**kw, "t_list": ts})).per_path
                      for ts in [(1.0,), (0.25, 0.5, 1.0)])
        for key, col in one.columns.items():
            assert np.array_equal(col[..., 0, :],
                                  three.columns[key][..., 2, :]), key


# finite mass, but no finite weight-1 norm: outside every class the
# experiments need
CAUCHY = tf.TestFunction(lambda x: 1.0 / (1.0 + x * x), "cauchy",
                         xi_declared=0.0)


@pytest.mark.parametrize("run, H", [
    (exp.clt_experiment, 0.6), (exp.clt_experiment, 1.0 / 3.0),
    (exp.derivative_experiment, 0.25)],
    ids=["clt-supercritical", "clt-critical", "derivative"])
def test_non_integrable_function_rejected_before_sampling(monkeypatch, run,
                                                          H):
    def no_sampling(*args, **kw):
        raise AssertionError("drew paths for a non-integrable function")

    monkeypatch.setattr(exp, "sample_values", no_sampling)
    monkeypatch.setattr(exp.ExperimentConfig, "functions",
                        lambda self: [CAUCHY])
    with pytest.raises(ValueError, match="cauchy fails the weight"):
        run(small_config(H=H))


class TestDerivativeExperiment:
    def test_requires_subcritical(self):
        with pytest.raises(ValueError):
            exp.derivative_experiment(small_config(H=0.5))

    def test_one_scale_ladder_rejected(self, monkeypatch):
        # a log-log slope through one point is meaningless; refuse before
        # any path is drawn
        def no_simulation(*args, **kw):
            raise AssertionError("simulated a one-scale ladder")

        monkeypatch.setattr(exp, "_simulate", no_simulation)
        cfg = small_config(H=0.25, f=("gaussian_bump:sigma=1,center=0.5",),
                           n_ladder=(64,), grid_per_unit=64, path_count=2,
                           seed=0)
        with pytest.raises(ValueError, match="two scales"):
            exp.derivative_experiment(cfg)

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

    def test_retained_per_path_data_is_small(self):
        # the deriv-ladder shape at 200 paths: 12,000 records, kept as the
        # kernel's columns (e per record, L and Lp per (n, t, path)), not as
        # one dict per record (~336 B each)
        cfg = exp.ExperimentConfig(
            H=0.25, f=("gaussian_bump:sigma=1,center=0.5", "hat:a=-1,b=1",
                       "indicator:a=0,b=1"),
            t_list=(0.25, 0.5, 0.75, 1.0), n_ladder=(16, 64, 256, 1024, 4096),
            path_count=200, grid_per_unit=2 ** 10, batch_size=100)
        exp.derivative_experiment(cfg)  # warm the spectrum cache
        tracemalloc.start()
        try:
            rep = exp.derivative_experiment(cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rep.per_path) == 12000
        assert retained <= 32 * len(rep.per_path)


KINDS = [(exp.clt_experiment, dict(H=0.6, f=("gaussian_derivative:sigma=1",))),
         (exp.derivative_experiment,
          dict(H=0.25, f=("gaussian_bump:sigma=1,center=0.5",)))]
KIND_IDS = ["clt", "derivative"]


class TestFunctionalKernel:
    @pytest.mark.parametrize("run, kind", KINDS, ids=KIND_IDS)
    def test_bytes_do_not_depend_on_row_chunks(self, run, kind):
        # an FFT group holds a few rows of this grid, so 7-path batches
        # split into several groups and 1-path batches into one each
        grid = 2 ** 14
        assert 1 < fbm.group_rows(grid, 7) < 7
        base = dict(kind, t_list=(0.5, 1.0), n_ladder=(4, 16), path_count=7,
                    grid_per_unit=grid, seed=2)
        r1 = run(exp.ExperimentConfig(**base, threads=1, batch_size=1))
        r2 = run(exp.ExperimentConfig(**base, threads=2, batch_size=7))
        assert exp.serialize_report(r1) == exp.serialize_report(r2)

    @pytest.mark.parametrize("run, kind", KINDS, ids=KIND_IDS)
    def test_bytes_do_not_depend_on_groups_or_workers(self, run, kind):
        # 20-path batches are one whole 15-row group and a partial one, and
        # 70 paths make 4 batches, which 3 workers do not share evenly
        grid = 2 ** 12
        assert fbm.group_rows(grid, 20) == 15
        base = dict(kind, t_list=(0.5, 1.0), n_ladder=(4, 16), path_count=70,
                    grid_per_unit=grid, seed=6)
        one = run(exp.ExperimentConfig(**base, threads=1, batch_size=70))
        many = run(exp.ExperimentConfig(**base, threads=3, batch_size=20))
        assert exp.serialize_report(many) == exp.serialize_report(one)

    @pytest.mark.parametrize("run, kind", [
        (exp.clt_experiment, dict(H=1.0 / 3.0,
                                  f=("gaussian_derivative:sigma=1",))),
        KINDS[1]], ids=KIND_IDS)
    def test_peak_memory_is_a_few_value_matrices(self, run, kind):
        # evaluation temporaries are one FFT group, not copies of the batch,
        # and the kernel's scratch lies over the spent synthesis buffers
        cfg = exp.ExperimentConfig(**kind, path_count=20,
                                   grid_per_unit=2 ** 14, batch_size=20)
        run(cfg)  # warm the spectrum caches
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 20 * (cfg.grid_points + 1) * 8


class TestSynthesisBlocks:
    # at grid 2^14 an FFT group holds 3 rows, so batches of 7, 64 and 400
    # paths end in a partial group
    GRID = 2 ** 14
    BASE = dict(H=1.0 / 3.0, f=("gaussian_derivative:sigma=1",),
                t_list=(0.5, 1.0), n_ladder=(4, 16), path_count=400,
                grid_per_unit=GRID, seed=5)

    def test_peak_memory_is_a_few_blocks_whatever_the_batch(self):
        # one 400-path batch: its value matrix alone would be 52 MB.  The
        # batch holds 5 group-sized matrices of buffers (values, draws 2,
        # complex half spectrum 2; the kernel's 3 scratch matrices lie over
        # the spent draws and spectrum) and gaussian_derivative's output and
        # one temporary of one group
        rows = fbm.group_rows(self.GRID, 400)
        assert rows == 3
        cfg = exp.ExperimentConfig(**self.BASE, batch_size=400, threads=1)
        exp.clt_experiment(cfg)  # warm the spectrum caches
        tracemalloc.start()
        try:
            exp.clt_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (5 + 3) * rows * (self.GRID + 1) * 8

    def test_bytes_do_not_depend_on_batches_or_blocks(self):
        want = None
        for batch_size in (1, 7, 63, 64, 400):
            for threads in (1, 2):
                got = exp.serialize_report(exp.clt_experiment(
                    exp.ExperimentConfig(**self.BASE, batch_size=batch_size,
                                         threads=threads)))
                want = want or got
                assert got == want, (batch_size, threads)


WRITER_KINDS = {
    "clt": (exp.clt_experiment,
            dict(H=0.6, f=("gaussian_derivative:sigma=1", "hat:a=-1,b=1"))),
    "derivative": (exp.derivative_experiment,
                   dict(H=0.25, f=("gaussian_bump:sigma=1,center=0.5",
                                   "hat:a=-1,b=1"))),
}


def with_columns(rep, columns):
    return dataclasses.replace(rep, per_path=dataclasses.replace(
        rep.per_path, columns=columns))


def with_nonfinite(rep):
    """The report with NaN, +inf and -inf written into every column."""
    columns = {k: a.copy() for k, a in rep.per_path.columns.items()}
    for a in columns.values():
        a.reshape(-1)[[0, 7, -1]] = [np.nan, np.inf, -np.inf]
    return with_columns(rep, columns)


def ladder_report(paths):
    """3 functions x 5 scales x 4 times x ``paths`` paths of random values,
    shaped as a derivative ladder writes them."""
    small = exp.derivative_experiment(exp.ExperimentConfig(
        H=0.25, f=("gaussian_bump:sigma=1,center=0.5", "hat:a=-1,b=1",
                   "indicator:a=0,b=1"),
        t_list=(0.25, 0.5, 0.75, 1.0), n_ladder=(16, 64, 256, 1024, 4096),
        path_count=2, grid_per_unit=64, seed=11, batch_size=2))
    rng = np.random.default_rng(0)
    columns = {k: rng.standard_normal(a.shape[:-1] + (paths,))
               for k, a in small.per_path.columns.items()}
    return dataclasses.replace(
        with_columns(small, columns),
        config=dataclasses.replace(small.config, path_count=paths))


class TestPerPathColumns:
    @pytest.fixture(scope="class", params=sorted(WRITER_KINDS))
    def report(self, request):
        # 2 functions x 2 times x 3 scales, each n at its own bandwidth, at
        # a level off zero
        run, kind = WRITER_KINDS[request.param]
        return run(exp.ExperimentConfig(
            **kind, lam=0.3, eps_policy="n2h", t_list=(0.5, 1.0),
            n_ladder=(4, 16, 64), path_count=5, grid_per_unit=256, seed=3,
            batch_size=2))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("nonfinite", [False, True],
                             ids=["finite", "nonfinite"])
    def test_bytes_equal_the_dict_record_oracle(self, report, fmt,
                                                 nonfinite):
        rep = with_nonfinite(report) if nonfinite else report
        data = exp.serialize_report(rep, fmt)
        assert data == oracles.oracle_serialize_report(rep, fmt)
        if nonfinite:
            tokens = ((b":NaN,", b":Infinity,", b":-Infinity,")
                      if fmt == "json" else (b",nan", b",inf", b",-inf"))
            assert all(tok in data for tok in tokens)

    def test_json_writer_memory_is_the_output(self):
        # each block goes into the one output buffer as it is formatted, so
        # nothing near a second copy is ever held
        rep = ladder_report(2000)
        tracemalloc.start()
        try:
            data = exp.serialize_report(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) > 15_000_000
        assert peak < 1.5 * len(data)
        assert data == oracles.oracle_serialize_report(rep)

    def test_csv_writer_memory_is_the_output(self):
        # the same ladder-shaped report as CSV: the blocks go into one
        # buffer, not into a list of lines joined and then encoded
        rep = ladder_report(2000)
        tracemalloc.start()
        try:
            data = exp.serialize_report(rep, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) > 10_000_000
        assert peak < 1.5 * len(data)
        assert data == oracles.oracle_serialize_report(rep, "csv")

    def test_records_equal_the_oracle_records(self, report):
        records = oracles.oracle_records(report)
        pp = report.per_path
        assert len(pp) == len(records) == 2 * 3 * 2 * 5
        assert list(pp) == records
        assert [pp[i] for i in range(len(pp))] == records
        assert pp[-1] == records[-1]
        with pytest.raises(IndexError):
            pp[len(pp)]

    @pytest.mark.parametrize("nonfinite", [False, True],
                             ids=["finite", "nonfinite"])
    def test_round_trip(self, report, nonfinite):
        rep = with_nonfinite(report) if nonfinite else report
        assert exp.deserialize_report(exp.serialize_report(rep)) == rep

    def test_labels_are_written_as_json_writes_them(self, report):
        pp = report.per_path
        label = 'a%s"b\\c\u00e9'
        odd = dataclasses.replace(pp, labels=(label,) + pp.labels[1:])
        rep = dataclasses.replace(report, per_path=odd)
        text = exp.serialize_report(rep).decode()
        assert text.endswith('"per_path":' + json.dumps(
            list(odd), sort_keys=True, separators=(",", ":")) + "}\n")
        text = exp.serialize_report(rep, "csv").decode()
        first = list(csv.reader(io.StringIO(text)))[1]
        assert first[:4] == ["0", label, "4", "0.5"]

    def test_csv_quotes_labels_with_commas(self):
        rep = exp.derivative_experiment(exp.ExperimentConfig(
            H=0.25, f=("hat:a=-1,b=1", "gaussian_derivative:sigma=1"),
            n_ladder=(4, 8), path_count=2, grid_per_unit=64, seed=0))
        header, *rows = csv.reader(io.StringIO(
            exp.serialize_report(rep, "csv").decode()))
        assert len(rows) == len(rep.per_path)
        assert all(len(row) == len(header) for row in rows)
        assert [row[1] for row in rows] == [
            "hat(a=-1,b=1)"] * 4 + ["gaussian_derivative(sigma=1)"] * 4

    def test_csv_carries_the_local_time_columns(self, report):
        header, *rows = csv.reader(io.StringIO(
            exp.serialize_report(report, "csv").decode()))
        pp = report.per_path
        local = ["L", "Lp"] if report.kind == "derivative" else ["L"]
        assert header == ["path", "f", "n", "t", "value", *local]
        for i, k in enumerate(local, start=5):
            want = np.broadcast_to(pp.columns[k], pp.shape).ravel()
            assert np.array_equal([float(r[i]) for r in rows], want)

    def test_reordered_records_rejected(self, report):
        payload = json.loads(exp.serialize_report(report))
        recs = payload["per_path"]
        recs[0], recs[1] = recs[1], recs[0]
        with pytest.raises(ValueError, match="order"):
            exp.deserialize_report(json.dumps(payload).encode())

    def test_shared_column_must_repeat_across_functions(self, report):
        payload = json.loads(exp.serialize_report(report))
        payload["per_path"][-1]["L"] += 1.0
        with pytest.raises(ValueError, match="differs between functions"):
            exp.deserialize_report(json.dumps(payload).encode())

    def test_unknown_kind_rejected(self, report):
        payload = json.loads(exp.serialize_report(report))
        payload["kind"] = "bogus"
        with pytest.raises(ValueError, match="kind"):
            exp.deserialize_report(json.dumps(payload).encode())

    def test_column_shapes_checked(self, report):
        Z = np.zeros((2, 3, 2, 5))
        with pytest.raises(ValueError, match="shaped"):
            with_columns(report, {"Z": Z, "L": np.zeros((3, 2, 4))})
        with pytest.raises(ValueError, match="shaped"):
            with_columns(report, {"Z": Z[:, :2]})


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
