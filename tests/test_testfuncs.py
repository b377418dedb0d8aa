import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmlab import testfuncs as tf

import oracles

GAUSS_NORM_W1 = 1.0 + math.sqrt(2.0 / math.pi)  # int |phi|(1+|x|) dx


def zero_function():
    return tf.TestFunction(lambda x: np.zeros_like(x), "zero",
                           support=(-1.0, 1.0), closed_form_moments=(0.0, 0.0))


class TestWeightedNorm:
    def test_zero_function(self):
        assert tf.weighted_norm(zero_function(), 1.0) == 0.0
        assert tf.weighted_norm(zero_function(), 2.5) == 0.0

    def test_indicator_unit(self):
        f = tf.indicator(0.0, 1.0)
        assert tf.weighted_norm(f, 1.0) == pytest.approx(1.5, rel=1e-10)

    def test_gaussian_weight_one(self):
        f = tf.gaussian_bump(1.0, 0.0)
        assert tf.weighted_norm(f, 1.0) == pytest.approx(GAUSS_NORM_W1,
                                                         rel=1e-8)

    def test_divergent_tail_flags_infinity(self):
        # |x| * cauchy-like tail: the weight-1 mass diverges
        slow = tf.TestFunction(lambda x: 1.0 / (1.0 + x * x), "cauchy",
                               xi_declared=0.0, scale_hint=1.0)
        assert tf.weighted_norm(slow, 1.0) == math.inf
        assert not tf.in_xi(slow, 1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            tf.weighted_norm(tf.gaussian_bump(), 0.0)


class TestMoments:
    def test_gaussian_bump(self):
        assert tf.moments(tf.gaussian_bump(1.0, 0.0)) == (1.0, 0.0)
        assert tf.moments(tf.gaussian_bump(2.0, 0.7)) == (1.0, 0.7)

    def test_gaussian_derivative(self):
        m0, m1 = tf.moments(tf.gaussian_derivative(1.0))
        assert m0 == 0.0
        assert m1 == -1.0

    def test_gaussian_derivative_against_quadrature_oracle(self):
        f = tf.gaussian_derivative(1.0)
        m1 = oracles.romberg(lambda x: x * f(x), -14.0, 14.0, levels=16)
        assert m1 == pytest.approx(-1.0, rel=1e-9)

    def test_poly_bump_mass_against_oracle(self):
        f = tf.poly_bump(-1.0, 3.0, k=3)
        m0 = oracles.romberg(lambda x: f(x), -1.0, 3.0, levels=16)
        assert tf.moments(f)[0] == pytest.approx(m0, rel=1e-9)
        assert tf.moments(f)[1] == pytest.approx(1.0 * tf.moments(f)[0],
                                                 rel=1e-12)

    def test_non_integrable_rejected(self):
        slow = tf.TestFunction(lambda x: 1.0 / (1.0 + x * x), "cauchy",
                               xi_declared=0.0)
        with pytest.raises(ValueError):
            tf.moments(slow)


class TestFourier:
    def test_zero_frequency_is_mass(self):
        for f in (tf.gaussian_bump(1.3, 0.2), tf.indicator(0, 2),
                  tf.hat(-1, 3), tf.poly_bump(-2, 2, 2)):
            assert tf.fourier(f, 0.0) == pytest.approx(tf.moments(f)[0],
                                                       rel=1e-9)

    def test_gaussian_closed_form(self):
        f = tf.gaussian_bump(0.8, 0.0)
        for eta in (0.3, 2.0, 7.5):
            assert tf.fourier(f, eta) == pytest.approx(
                math.exp(-0.8 ** 2 * eta ** 2 / 2), rel=1e-12)

    def test_indicator_closed_form_vs_quadrature(self):
        f = tf.indicator(0.0, 1.0)
        numeric = tf.TestFunction(f.evaluator, "ind-numeric", support=(0, 1),
                                  scale_hint=1.0)
        for eta in (0.7, 3.0, 40.0):
            expect = (np.exp(1j * eta) - 1.0) / (1j * eta)
            assert tf.fourier(f, eta) == pytest.approx(expect, rel=1e-12)
            assert tf.fourier(numeric, eta) == pytest.approx(expect, rel=1e-8)

    def test_numeric_path_matches_closed_form_oscillatory(self):
        closed = tf.gaussian_bump(1.0, 0.0)
        numeric = tf.TestFunction(closed.evaluator, "gauss-numeric",
                                  scale_hint=1.0)
        for eta in (0.5, 5.0, 12.0, 30.0):
            assert tf.fourier(numeric, eta) == pytest.approx(
                tf.fourier(closed, eta), rel=1e-7, abs=1e-12)

    @given(st.floats(min_value=-60.0, max_value=60.0))
    @settings(max_examples=150, deadline=None)
    def test_conjugate_symmetry(self, eta):
        for f in (tf.gaussian_derivative(1.0), tf.indicator(0, 1)):
            a = tf.fourier(f, eta)
            b = tf.fourier(f, -eta)
            assert abs(b - np.conj(a)) < 1e-10

    def test_conjugate_symmetry_numeric_path(self):
        f = tf.TestFunction(tf.poly_bump(-1, 2, 2).evaluator, "poly-num",
                            support=(-1, 2), scale_hint=3.0)
        for eta in (0.9, 17.0):
            assert abs(tf.fourier(f, -eta) - np.conj(tf.fourier(f, eta))) \
                < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-1.0, 3.0), (0.5, 4.0),
                                      (-3.0, -2.5)])
    def test_poly_bump_closed_form_vs_quadrature(self, k, a, b):
        f = tf.poly_bump(a, b, k)
        numeric = tf.TestFunction(f.evaluator, "poly-num", support=(a, b),
                                  scale_hint=b - a)
        m0, m1 = tf.moments(f)
        w = 0.5 * (b - a)
        # the series runs for w |eta| <= k + 2, the recurrence above it
        switch = (k + 2) / w
        etas = [1e-6, 0.5 * switch, switch * (1 - 1e-9), switch * (1 + 1e-9),
                2 * switch, 50 / w]
        for eta in [0.0] + etas + [-e for e in etas]:
            assert abs(tf.fourier(f, eta) - tf.fourier(numeric, eta)) \
                <= 1e-12 * m0, eta
        assert tf.fourier(f, 0.0) == m0
        for eta in etas:
            assert abs(tf.fourier(f, -eta) - np.conj(tf.fourier(f, eta))) \
                <= 1e-15 * m0
        h = 1e-4
        fd = (tf.fourier(f, h) - tf.fourier(f, -h)) / (2 * h)
        assert fd.imag == pytest.approx(m1, rel=1e-7, abs=1e-9)

    def test_poly_bump_exponent(self):
        # the series keeps 1e-12 m0 up to k = 40; beyond it the transform
        # is numeric only
        assert tf.poly_bump(k=40).closed_form_fourier is not None
        assert tf.poly_bump(k=41).closed_form_fourier is None
        for k in (0, 2.5, 2.0):
            with pytest.raises(ValueError, match="integer k"):
                tf.poly_bump(k=k)

    def test_transform_bounded_by_weighted_norm(self):
        rng = np.random.default_rng(11)
        for f in (tf.gaussian_bump(), tf.gaussian_derivative(), tf.hat(),
                  tf.indicator(), tf.poly_bump()):
            bound = tf.weighted_norm(f, 1.0)
            for eta in rng.uniform(-20, 20, size=25):
                assert abs(tf.fourier(f, eta)) <= bound * (1 + 1e-12)

    def test_first_moment_from_transform_derivative(self):
        h = 1e-4
        for f in (tf.gaussian_derivative(1.0), tf.gaussian_bump(1.0, 0.4),
                  tf.hat(0.0, 2.0)):
            m1 = tf.moments(f)[1]
            fd = (tf.fourier(f, h) - tf.fourier(f, -h)) / (2 * h)
            assert fd.imag == pytest.approx(m1, rel=1e-4, abs=1e-8)


class TestOffCentreMass:
    """Functions without support or closed forms whose mass sits away from
    0: the numeric fallbacks integrate over doubling shells around 0."""

    CENTRES = [3.3, 57.1, 300.7]

    @staticmethod
    def density(c):
        return tf.TestFunction(
            lambda x: np.exp(-(x - c) ** 2 / 2) / math.sqrt(2 * math.pi),
            f"density-at-{c:g}")

    @pytest.mark.parametrize("c", CENTRES)
    def test_moments_of_shifted_density(self, c):
        m0, m1 = tf.moments(self.density(c))
        assert m0 == pytest.approx(1.0, rel=1e-8)
        assert m1 == pytest.approx(c, rel=1e-8)

    @pytest.mark.parametrize("c", CENTRES)
    def test_first_moment_of_shifted_derivative(self, c):
        f = tf.TestFunction(
            lambda x: -(x - c) * np.exp(-(x - c) ** 2 / 2)
            / math.sqrt(2 * math.pi), f"derivative-at-{c:g}")
        m0, m1 = tf.moments(f)
        assert abs(m0) < 1e-8
        assert m1 == pytest.approx(-1.0, rel=1e-8)

    @pytest.mark.parametrize("c", CENTRES)
    def test_fourier_at_zero_is_mass(self, c):
        assert tf.fourier(self.density(c), 0.0) == pytest.approx(1.0,
                                                                 rel=1e-8)

    @pytest.mark.parametrize("c", CENTRES)
    def test_weighted_norm_finite(self, c):
        # int phi(x - c) (1 + |x|) dx = 1 + E|c + X|, X standard normal
        mean_abs = c * math.erf(c / math.sqrt(2)) \
            + 2 * math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
        norm = tf.weighted_norm(self.density(c), 1.0)
        assert norm == pytest.approx(1.0 + mean_abs, rel=1e-8)


class TestSpecParsing:
    def test_round_trip_examples(self):
        f = tf.from_spec("gaussian_derivative:sigma=2")
        assert f.label == "gaussian_derivative(sigma=2)"
        g = tf.from_spec("indicator:a=0,b=2")
        assert tf.moments(g)[0] == 2.0
        h = tf.from_spec("poly_bump:a=-1,b=1,k=3")
        assert h.label.endswith("k=3)")
        assert tf.from_spec("gaussian_bump").label.startswith("gaussian_bump")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            tf.from_spec("sinc:width=1")

    def test_malformed_args(self):
        with pytest.raises(ValueError):
            tf.from_spec("gaussian_bump:sigma")

    @pytest.mark.parametrize("name", ["indicator", "hat", "poly_bump"])
    @pytest.mark.parametrize("a, b, end", [
        (0.0, math.inf, "b=inf"), (-math.inf, 0.0, "a=-inf"),
        (math.nan, 1.0, "a=nan"), (0.0, math.nan, "b=nan")])
    def test_infinite_end_rejected(self, name, a, b, end):
        # hat(a=0,b=inf) was 0.0 at x = 1 with moments (inf, inf)
        with pytest.raises(ValueError, match=f"{name} requires finite ends, "
                                             f"got {end}"):
            tf.BUILTINS[name](a=a, b=b)
        with pytest.raises(ValueError, match=end):
            tf.from_spec(f"{name}:a={a},b={b}")

    @pytest.mark.parametrize("name", ["indicator", "hat", "poly_bump"])
    def test_reversed_ends_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} requires a < b"):
            tf.BUILTINS[name](a=1.0, b=1.0)

    def test_builtins_declare_membership(self):
        for name, factory in tf.BUILTINS.items():
            f = factory()
            for w in (1.0, 2.0, 1.5):
                assert tf.in_xi(f, w)


def _around(a, b, rng, count=2000):
    """Random points on [a - w, b + w] (w = b - a), a and b, and the 50
    doubles on each side of each end."""
    near = [a, b]
    for end in (a, b):
        lo = hi = end
        for _ in range(50):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
    return np.concatenate([rng.uniform(2 * a - b, 2 * b - a, count), near])


ORACLES = {"indicator": lambda a, b, k: oracles.oracle_indicator(a, b),
           "hat": lambda a, b, k: oracles.oracle_hat(a, b),
           "poly_bump": oracles.oracle_poly_bump}


#: each built-in evaluator beside its one-line formula, with the points
#: where it bends, jumps or is centred
FORMULAS = [
    (tf.gaussian_bump(1.0, 0.0), oracles.formula_gaussian_bump(1.0, 0.0),
     (-1.0, 0.0, 1.0)),
    (tf.gaussian_bump(0.3, 0.5), oracles.formula_gaussian_bump(0.3, 0.5),
     (0.2, 0.5, 0.8)),
    (tf.gaussian_derivative(1.0), oracles.formula_gaussian_derivative(1.0),
     (-1.0, 0.0, 1.0)),
    (tf.gaussian_derivative(0.7), oracles.formula_gaussian_derivative(0.7),
     (-0.7, 0.0, 0.7)),
    (tf.indicator(0.0, 1.0), oracles.formula_indicator(0.0, 1.0), (0.0, 1.0)),
    (tf.indicator(-0.3, 2.1), oracles.formula_indicator(-0.3, 2.1),
     (-0.3, 2.1)),
    (tf.hat(-1.0, 1.0), oracles.formula_hat(-1.0, 1.0), (-1.0, 0.0, 1.0)),
    (tf.hat(0.1, 0.9), oracles.formula_hat(0.1, 0.9), (0.1, 0.5, 0.9)),
]
FORMULA_IDS = [f.label for f, _, _ in FORMULAS]


def _special(points) -> np.ndarray:
    """NaN, +-inf, +-0.0, the extremes of the doubles, and each point with
    its neighbouring doubles."""
    near = [np.nextafter(p, to) for p in points for to in (-np.inf, np.inf)]
    return np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1e308, -1e308, *points, *near])


class TestEvaluatorBits:
    # the evaluators write their steps into one output array; the bits are
    # those of the one-line formulas, overflow and inf * 0 included
    @pytest.mark.parametrize("f, formula, points", FORMULAS, ids=FORMULA_IDS)
    def test_arrays_match_the_formula_bitwise(self, f, formula, points):
        rng = np.random.default_rng(21)
        x = np.concatenate([_special(points), rng.standard_normal(3000) * 2.0,
                            rng.uniform(-0.5, 2.5, 3000)])
        # strided 2-D views: rows spaced apart as the functional kernel's
        # scratch rows are, and a transposed matrix
        rows = np.full((2, 2 * x.size), 7.0)[:, :x.size]
        rows[:] = x, x[::-1]
        cols = np.stack([x, x[::-1]], axis=1).T
        assert not (rows.flags.c_contiguous or cols.flags.c_contiguous)
        with np.errstate(all="ignore"):
            for arg in (x, rows, cols):
                got = f.evaluator(arg)
                assert got.shape == arg.shape
                assert got.tobytes() == formula(arg).tobytes()

    @pytest.mark.parametrize("f, formula, points", FORMULAS, ids=FORMULA_IDS)
    def test_zero_d_matches_the_formula_bitwise(self, f, formula, points):
        # the quadratures call with 0-d arrays
        with np.errstate(all="ignore"):
            for v in _special(points):
                got = f.evaluator(np.asarray(v))
                assert got.shape == ()
                assert got.tobytes() == np.asarray(
                    formula(np.asarray(v)), dtype=float).tobytes()
                assert f(float(v)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("f, formula, points", FORMULAS, ids=FORMULA_IDS)
    def test_zero_d_gives_the_array_bits(self, f, formula, points):
        x = np.random.default_rng(4).uniform(-3.0, 3.0, 500)
        whole = f.evaluator(x)
        assert all(f.evaluator(np.asarray(v)).tobytes() == whole[i].tobytes()
                   for i, v in enumerate(x))


class TestSupport:
    @pytest.mark.parametrize("spec, name, a, b, k", [
        ("hat:a=-1,b=1", "hat", -1.0, 1.0, None),
        ("indicator:a=0,b=1", "indicator", 0.0, 1.0, None),
        ("poly_bump", "poly_bump", -1.0, 1.0, 2)])
    def test_specs_in_use_match_masked_formula_bitwise(self, spec, name, a,
                                                       b, k):
        # the specs of the goldens, the acceptance criteria and the
        # benchmark: values, and the reports built on them, do not move
        x = _around(a, b, np.random.default_rng(3), count=200_000)
        got = tf.from_spec(spec)(x)
        assert got.tobytes() == ORACLES[name](a, b, k)(x).tobytes()

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_zero_outside_support_by_formula(self, name):
        # one end within 1 of 0 and most widths above 1: there the ulps of
        # that end are finer than those of x - c, where a formula in
        # u = (x - c) / w alone leaked 1e-16 just outside the end
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0)
            a, b = sorted((a, a + rng.choice((-1.0, 1.0))
                           * rng.uniform(1e-3, 6.0)))
            k = int(rng.integers(1, 6))
            f = (tf.poly_bump(a, b, k) if name == "poly_bump"
                 else tf.BUILTINS[name](a, b))
            assert f.support == (a, b)
            x = _around(a, b, rng)
            got = f(x)
            outside = (x < a) | (x > b)
            assert np.all(got[outside] == 0.0)
            ref = ORACLES[name](a, b, k)(x)
            assert np.max(np.abs(got - ref)[~outside]) <= 1e-14

    @pytest.mark.parametrize("f", [
        zero_function(),
        tf.TestFunction(tf.indicator(0, 1).evaluator, "ind", support=(0, 1)),
        tf.TestFunction(tf.hat().evaluator, "hat", support=(-1, 1)),
        tf.TestFunction(tf.poly_bump().evaluator, "poly", support=(-1, 1)),
        tf.TestFunction(tf.poly_bump(-1, 2, 2).evaluator, "poly",
                        support=(-1, 2)),
        *(tf.TestFunction(tf.poly_bump(a, b, k).evaluator, "poly",
                          support=(a, b))
          for k in (1, 2, 3, 5, 40)
          for a, b in ((-1.0, 1.0), (-1.0, 3.0), (0.5, 4.0), (-3.0, -2.5)))])
    def test_custom_functions_with_support_vanish_outside(self, f):
        # the support-carrying functions the other tests build
        a, b = f.support
        x = _around(a, b, np.random.default_rng(5))
        assert np.all(f(x)[(x < a) | (x > b)] == 0.0)

    def test_call_does_not_mask(self):
        # the support is a promise of the evaluator, not a second mask
        one = tf.TestFunction(np.ones_like, "one", support=(0.0, 1.0))
        assert one(2.0) == 1.0

    @pytest.mark.parametrize("support", [(1.0, 0.0), (0.0, math.nan),
                                         (math.nan, 1.0), (0.5, 0.5),
                                         (0.0, 1.0, 2.0)])
    def test_malformed_support_rejected(self, support):
        with pytest.raises(ValueError, match="support must be a pair a < b"):
            tf.TestFunction(np.ones_like, "bad", support=support)

    def test_half_line_support_accepted(self):
        f = tf.TestFunction(lambda x: np.where(x >= 0.0, np.exp(-np.abs(x)),
                                               0.0),
                            "exp", support=(0.0, math.inf))
        assert tf.weighted_norm(f, 1.0) == pytest.approx(2.0, rel=1e-10)
        m0, m1 = tf.moments(f)
        assert m0 == pytest.approx(1.0, rel=1e-10)
        assert m1 == pytest.approx(1.0, rel=1e-10)
