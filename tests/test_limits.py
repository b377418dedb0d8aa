import ast
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
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

    def test_printed_rule_against_adaptive_quadrature(self):
        # the same integrand as the rule, in u with s = u^6, adaptively
        H = 1.0 / 3.0
        b2, b3_scale = cst.beta2(H), (H - 0.5) ** -2
        adaptive, _ = integrate.quad(
            lambda u: 6.0 * u ** 4 * (b2 * (1.0 + u ** 4) + b3_scale
                                      * cst.beta3(H, u ** 6, 1.0)) ** -2.5,
            0.0, 1.0, epsrel=1e-13, limit=200)
        assert limits._printed_profile_integral() == pytest.approx(
            adaptive, rel=1e-13)

    def test_printed_rule_converged_in_order(self, monkeypatch):
        rule = limits._printed_profile_integral()
        monkeypatch.setattr(limits, "_PRINTED_ORDER", 64)
        limits._printed_profile_integral.cache_clear()
        try:
            assert limits._printed_profile_integral() == pytest.approx(
                rule, rel=1e-13)
        finally:
            limits._printed_profile_integral.cache_clear()

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

    def test_closed_form_fourier_read_only_in_testfuncs(self):
        # the kernel takes every transform from testfuncs.fourier; elsewhere
        # the attribute is only tested against None, for the refusal
        src = Path(limits.__file__).parent
        for module in sorted(src.glob("*.py")):
            if module.name == "testfuncs.py":
                continue
            tree = ast.parse(module.read_text())
            presence = {id(node.left) for node in ast.walk(tree)
                        if isinstance(node, ast.Compare)
                        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                        and isinstance(node.comparators[0], ast.Constant)
                        and node.comparators[0].value is None}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "closed_form_fourier"):
                    assert id(node) in presence, (module.name, node.lineno)

    def test_peak_memory(self):
        fs = self.functions()
        tracemalloc.start()
        try:
            limits.covariance_matrix(fs, 0.6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the folded grid peaks near 4.4 MB, the unfolded one near 8.5 MB
        assert peak <= 6 * 2 ** 20

    @pytest.fixture(scope="class")
    def single(self):
        # the reference runs one node per chunk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "_CHUNK_NODES", 1)
            return limits.covariance_matrix([GD, tf.hat()], 0.7)

    def test_chunking_changes_no_value(self, monkeypatch, single):
        # each node is reduced by its own einsum column; the folded grids'
        # 2080 and 8256 nodes leave partial last chunks (of 32 and 64 at the
        # default, 80 and 256 at 1000), and 10**6 is one chunk
        for chunk in (limits._CHUNK_NODES, 1000, 10 ** 6):
            monkeypatch.setattr(limits, "_CHUNK_NODES", chunk)
            chunked = limits.covariance_matrix([GD, tf.hat()], 0.7)
            assert np.array_equal(chunked.matrix, single.matrix), chunk
            assert np.array_equal(chunked.quadrature_report,
                                  single.quadrature_report), chunk

    def test_chunk_temporaries_below_mmap_threshold(self):
        # glibc serves a block of 128 KiB or more (its default mmap
        # threshold) by a fresh mapping, faulted in and unmapped on free; a
        # chunk's largest temporaries, its complex transforms of
        # _GH_ORDER // 2 x _CHUNK_NODES values, must stay below it so that
        # every chunk reuses heap memory
        assert limits._CHUNK_NODES * (limits._GH_ORDER // 2) * 16 <= 128 * 1024


class TestFoldedKernel:
    """The kernel folds the Hermite rule onto its positive nodes and the
    time-scale grid onto i <= j; the unfolded rule is the reference."""

    FUNCTIONS = (tf.gaussian_derivative(1.0), tf.poly_bump(k=2), tf.hat(),
                 tf.gaussian_bump(1.0, 0.5), tf.indicator(0, 1))

    @staticmethod
    def assert_matches_reference(H, order, fs=FUNCTIONS):
        pairs = list(zip(*np.triu_indices(len(fs))))
        got = limits._a_h_tensor(fs, pairs, H, order)
        want = oracles.reference_a_h_tensor(fs, pairs, H, order,
                                            gh_order=limits._GH_ORDER)
        # relative to the pair's Cauchy-Schwarz scale: an odd f against an
        # even g has a form of zero, up to rounding
        diag = {i: want[pairs.index((i, i))] for i in range(len(fs))}
        scale = np.array([math.sqrt(diag[i] * diag[j]) for i, j in pairs])
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        return got, want, scale

    @pytest.mark.parametrize("H", [0.4, 0.6, 0.75, 0.9])
    def test_matches_unfolded_reference(self, H):
        # the shifted Gaussian bump has a complex profile
        (coarse, ref_coarse, _), (fine, ref_fine, scale) = (
            self.assert_matches_reference(H, order)
            for order in limits._GL_ORDERS)
        err, ref_err = np.abs(fine - coarse), np.abs(ref_fine - ref_coarse)
        assert np.all(np.abs(err - ref_err) <= 1e-13 * scale)

    def test_odd_hermite_order(self, monkeypatch):
        # an odd rule's zero node carries y^2 = 0, so the fold drops it
        monkeypatch.setattr(limits, "_GH_ORDER", 47)
        for order in limits._GL_ORDERS:
            self.assert_matches_reference(0.6, order, self.FUNCTIONS[:3])

    @pytest.mark.parametrize("H", [0.4, 0.6, 0.75, 0.9])
    def test_beta3_symmetric_on_the_grid(self, H):
        for order in limits._GL_ORDERS:
            # the kernel's time-scale nodes
            nodes, _ = limits._gauss_legendre(order)
            u = 0.5 * (nodes + 1.0)
            s = (u / (1.0 - u)) ** (1.0 / (H + 0.5))
            S1, S2 = np.meshgrid(s, s, indexing="ij")
            assert np.array_equal(cst.beta3(H, S1, S2), cst.beta3(H, S2, S1))

    def test_hermite_nodes_antisymmetric(self):
        y, wy = limits._gauss_hermite(limits._GH_ORDER)
        assert np.array_equal(y, -y[::-1])
        assert np.array_equal(wy, wy[::-1])


def reference_gauss_legendre(n: int, dps: int = 40):
    """The n-point Gauss-Legendre rule to ``dps`` digits in mpmath: Newton's
    method on the three-term recurrence from cos(pi (i - 1/4) / (n + 1/2))
    for each of the n roots, the weights 2 / ((1 - x^2) P_n'(x)^2)."""
    with mpmath.workdps(dps):
        def legendre(x):
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            return p, n * (x * p - p_prev) / (x * x - 1)

        tol = mpmath.mpf(10) ** (5 - dps)
        nodes, weights = [], []
        for i in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (n + 0.5))
            for _ in range(100):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < tol:
                    break
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        nodes, weights = nodes[::-1], weights[::-1]
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        assert abs(mpmath.fsum(weights) - 2) < tol
        return nodes, weights


class TestGaussRules:
    """The Gauss-Legendre rule comes from the Legendre recurrence and the
    Gauss-Hermite rule is numpy's ``hermgauss`` to the bit, each built once
    per process and order, with no eigensolver of more than 64 x 64."""

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 47, 64, 128])
    def test_legendre_against_mpmath(self, n):
        x, w = limits._gauss_legendre(n)
        ref_x, ref_w = reference_gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.abs(x - np.array(ref_x, dtype=float)) <= 1e-15)
        ref_w = np.array(ref_w, dtype=float)
        assert np.all(np.abs(w - ref_w) <= 1e-12 * ref_w)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 47, 48, 64])
    def test_hermite_is_hermgauss_to_the_bit(self, n):
        y, wy = limits._gauss_hermite(n)
        ref_y, ref_wy = hermgauss(n)
        assert np.array_equal(y, ref_y) and np.array_equal(wy, ref_wy)

    def test_rules_cached_read_only(self):
        for rule in (limits._gauss_legendre, limits._gauss_hermite):
            first = rule(48)
            assert rule(48) is first
            for a in first:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_no_linalg_above_64(self, monkeypatch):
        # every numpy.linalg routine records the shapes of its arguments;
        # the rules are built afresh inside the calls
        shapes = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                shapes.extend(np.shape(a) for a in args
                              if isinstance(a, np.ndarray))
                return fn(*args, **kwargs)
            return wrapper

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, recording(fn))
        for cached in (limits._gauss_legendre, limits._gauss_hermite,
                       limits._printed_profile_integral):
            cached.cache_clear()
        fs = [GD, tf.poly_bump(k=2), tf.hat()]
        limits.a_h(GD, tf.hat(), 0.6)
        limits.covariance_matrix(fs, 0.6)
        limits.covariance_matrix(fs, 1.0 / 3.0)
        # the Hermite rule's 48 x 48 eigvalsh and the matrices' eigh and
        # norms ran
        assert (48, 48) in shapes
        assert max(max(s, default=0) for s in shapes) <= 64

    def test_second_call_builds_no_rule(self, monkeypatch):
        limits.a_h(GD, GD, 0.6)
        limits.a_one_third(GD, GD)
        before = [rule.cache_info() for rule in (limits._gauss_legendre,
                                                 limits._gauss_hermite)]

        def fail(*args, **kwargs):
            raise AssertionError("a rule was built again")

        monkeypatch.setattr(limits, "_legendre", fail)
        monkeypatch.setattr(limits, "_hermite", fail)
        limits.a_h(tf.hat(), GD, 0.7)
        limits.covariance_matrix([GD, tf.hat()], 0.6)
        after = [rule.cache_info() for rule in (limits._gauss_legendre,
                                                limits._gauss_hermite)]
        assert all(a.misses == b.misses and a.hits > b.hits
                   for a, b in zip(after, before))


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

    @pytest.mark.parametrize("H", [1.0 / 3.0, 0.6])
    def test_one_decomposition(self, monkeypatch, H):
        # the clamped matrix and its root come from one eigh call
        calls = []
        eigh = np.linalg.eigh

        def counting(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        lm = limits.covariance_matrix([GD, tf.gaussian_derivative(2.0),
                                       tf.hat()], H)
        assert calls == [(3, 3)]
        err = np.abs(lm.sqrt_matrix @ lm.sqrt_matrix - lm.matrix).max()
        assert err <= 1e-12 * np.abs(lm.matrix).max()

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


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that imports fbmlab from the
    sources under test; returns its standard output."""
    src = os.path.dirname(os.path.dirname(limits.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def test_experiment_paths_leave_scipy_unloaded():
    # scipy is imported only by the adaptive quadratures and the special
    # functions without a cheap replacement, each on its first call; the
    # import, the experiments, the limit constants and the CLI's constants
    # need none of it
    code = """
import sys
loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)
import fbmlab
from fbmlab import experiments as exp, limits, testfuncs as tf
seen = [('import', loaded())]
small = dict(t_list=(1.0,), n_ladder=(4, 8), path_count=2,
             grid_per_unit=64, seed=0, batch_size=2, threads=1)
exp.clt_experiment(exp.ExperimentConfig(
    H=1 / 3, f=('gaussian_derivative:sigma=1',), **small))
seen.append(('clt_experiment', loaded()))
exp.derivative_experiment(exp.ExperimentConfig(
    H=0.25, f=('gaussian_bump:sigma=1,center=0.5',), **small))
seen.append(('derivative_experiment', loaded()))
fs = [tf.gaussian_derivative(1.0), tf.poly_bump(), tf.hat()]
limits.covariance_matrix(fs, 0.6)
limits.covariance_matrix(fs[::2], 1 / 3)
seen.append(('covariance_matrix', loaded()))
sys.argv = ['fbmlab', 'constants', '--H', '0.3']
import runpy
try:
    runpy.run_module('fbmlab.cli', run_name='__main__', alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
seen.append(('cli constants', loaded()))
print(seen)
"""
    out = _fresh_interpreter(code).strip().splitlines()[-1]
    assert out == str([(step, False) for step in (
        "import", "clt_experiment", "derivative_experiment",
        "covariance_matrix", "cli constants")])


def test_workloads_and_constants_leave_numpy_polynomial_unloaded():
    # beta3 sums its series by its own Horner loop and the Gauss-Hermite
    # rule is built in the package, so numpy.polynomial (which numpy loads
    # on first access) is never imported
    code = """
import sys
loaded = lambda: any(m == 'numpy.polynomial'
                     or m.startswith('numpy.polynomial.') for m in sys.modules)
import fbmlab
from fbmlab import constants as cst, experiments as exp
from fbmlab import limits, testfuncs as tf
seen = [('import', loaded())]
small = dict(t_list=(1.0,), n_ladder=(4, 8), path_count=2,
             grid_per_unit=64, seed=0, batch_size=2, threads=1)
exp.clt_experiment(exp.ExperimentConfig(
    H=1 / 3, f=('gaussian_derivative:sigma=1',), **small))
seen.append(('clt_experiment', loaded()))
exp.derivative_experiment(exp.ExperimentConfig(
    H=0.25, f=('gaussian_bump:sigma=1,center=0.5',), **small))
seen.append(('derivative_experiment', loaded()))
fs = [tf.gaussian_derivative(1.0), tf.poly_bump(), tf.hat()]
limits.covariance_matrix(fs, 0.6)
limits.covariance_matrix(fs[::2], 1 / 3)
seen.append(('covariance_matrix', loaded()))
cst.beta3(0.6, [0.1, 0.9, 2.0], 1.0)
seen.append(('beta3', loaded()))
limits.a_one_third(fs[0], fs[2])
seen.append(('a_one_third', loaded()))
import runpy
for argv in (['--H', '0.3'], ['--H', '0.6', '--beta3', '0.25,1']):
    sys.argv = ['fbmlab', 'constants', *argv]
    try:
        runpy.run_module('fbmlab.cli', run_name='__main__', alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
    seen.append(('cli ' + ' '.join(sys.argv[1:]), loaded()))
print(seen)
"""
    out = _fresh_interpreter(code).strip().splitlines()[-1]
    assert out == str([(step, False) for step in (
        "import", "clt_experiment", "derivative_experiment",
        "covariance_matrix", "beta3", "a_one_third", "cli constants --H 0.3",
        "cli constants --H 0.6 --beta3 0.25,1")])


@pytest.mark.parametrize("call, expect", [
    ("fbm.mu(0.3, 0.0, 1.0)", "1.0"),
    ("localtime.expected_local_time(0.5, 1.0, 0.0)", "math.sqrt(2 / math.pi)"),
    ("tf.moments(tf.TestFunction(lambda x: np.exp(-x * x / 2) "
     "/ math.sqrt(2 * math.pi), 'density', support=(-40, 40)))[0]", "1.0")])
def test_adaptive_quadratures_load_integrate_on_demand(call, expect):
    code = f"""
import math, sys
import numpy as np
from fbmlab import fbm, localtime, testfuncs as tf
before = 'scipy.integrate' in sys.modules
value = {call}
print(before, 'scipy.integrate' in sys.modules, abs(value - {expect}) < 1e-10)
"""
    assert _fresh_interpreter(code).strip().splitlines()[-1] == \
        "False True True"


@pytest.mark.parametrize("call, expect", [
    # K_H(2, 1) at H = 0.3, a 40-digit evaluation of its defining integral
    ("fbm.volterra_kernel(0.3, 2.0, 1.0)", "0.7600029290029944"),
    ("fbm.mu(0.3, 0.0, 1.0)", "1.0"),
    # int_0^inf log^2(th/(th+1)) dth = pi^2/3
    ("constants.beta3(0.5, 0.0, 1.0, mode=constants.Beta3Mode.LIMIT)",
     "math.pi ** 2 / 3")])
def test_special_functions_load_scipy_special_on_demand(call, expect):
    code = f"""
import math, sys
from fbmlab import constants, fbm
before = 'scipy.special' in sys.modules
value = {call}
print(before, 'scipy.special' in sys.modules,
      math.isclose(value, {expect}, rel_tol=1e-10))
"""
    assert _fresh_interpreter(code).strip().splitlines()[-1] == \
        "False True True"


def test_import_loads_no_interpolation_module():
    # every a_h profile is a closed form, so nothing needs scipy.interpolate
    # (about 30 modules) at import time
    code = ("import sys, fbmlab; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'interpolate']))")
    assert _fresh_interpreter(code).strip() == "[]"


SUBMODULES = sorted(
    name for name in os.listdir(os.path.dirname(limits.__file__))
    if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("module", [m[:-3] for m in SUBMODULES])
def test_each_submodule_imports_first_without_scipy(module):
    # the submodules import one another (testfuncs takes the heat kernels
    # from localtime, which names TestFunction for annotations only), so an
    # import cycle fails the import, whichever module is asked for first
    code = (f"import sys, fbmlab.{module}; print(sorted({{m.split('.')[0] "
            f"for m in sys.modules}} & {{'scipy'}}))")
    assert _fresh_interpreter(code).strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("module", [m[:-3] for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    # a deletion that leaves its name in __all__ fails only a star import
    mod = importlib.import_module(f"fbmlab.{module}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] \
        == []
