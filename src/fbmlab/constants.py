"""Deterministic constants attached to a Hurst parameter.

Everything here is a pure function of H (and of the pair (s1, s2) for the
increment-variance function ``beta3``).  These constants normalize the
Volterra kernel, the conditional variances of kernel increments, and the
limit laws of the additive-functional experiments.

The kernel amplitude is one Gamma ratio for every H (Decreusefond and
Ustunel, Potential Analysis 10, 1999): ``beta1`` = sqrt(2H Gamma(3/2-H) /
(Gamma(2-2H) Gamma(H+1/2))), exactly 1.0 at H = 1/2 and within 6.8e-16
relative of a 40-digit evaluation on 9801 values of H in [0.001, 0.999].

``beta3`` is a closed form.  With lo <= hi the pair (s1, s2), x = lo/hi,
c = 1 - x and a = H - 1/2, it is beta1(H)^2 hi^{2H} J(x): its prefactor is
the squared kernel amplitude, written once in ``beta1``, as the Gaussian
test functions are the heat kernels of ``localtime``.  Here

    J(x) = int_0^inf ((th+x)^a - (th+1)^a)^2 dth
         = c^{2H} int_0^c r^{-2H-1} (1 - (1-r)^a)^2 dr      (th + 1 = c/r).

J is evaluated in one of two ways, chosen from x alone:

* c > 1/2:  J = -(1 - 2 2F1(-2H, 1/2-H; 1-2H; c) + x^{2H}) / (2H), taken
  through Gauss's connection formula to 2F1 at x < 1/2, where its series
  converges geometrically:

      2H J = 2P c^{2H} - 1 - x^{2H}
             + 4H/(H+1/2) x^{H+1/2} 2F1(1, 1/2-H; H+3/2; x),
      P = Gamma(1-H) Gamma(H+1/2) / (4^H sqrt(pi));

  the 2F1 at x is summed as its power series (``_beta3_far_2f1``; every
  term is at most x^k, so 64 terms leave less than 2^-62), and the Gamma
  values come from ``math.gamma``;
* c <= 1/2: J = sum_{k=2}^{64} b_k c^k / (k - 2H), with b = u * u and u the
  Taylor coefficients of 1 - (1-r)^a.  The closed form cancels O(1) terms
  near the diagonal x -> 1 (5e-6 relative at x = 0.9999, H = 0.25); the
  series does not, and the terms it drops carry c^65 <= 2^-65.

Both series are summed by ``_horner``, which runs numpy ``polyval``'s
operations in its order, so the values are ``polyval``'s to the bit while
``numpy.polynomial``, which numpy imports on first use, is never loaded.

At H = 1/2 the H -> 1/2 limit (``Beta3Mode.LIMIT``) is
2(1-x) Li2(1-x) - x log^2 x, via ``scipy.special.spence``, which that
branch imports when it runs; nothing else here needs scipy.

The argument rules live here, which every module imports: ``_check_h``;
``_integer`` (``operator.index``, no bool, an optional least value) for
seeds, counts, grid sizes N, start indices, ``ExperimentConfig``'s integer
fields and ``poly_bump``'s k; ``_real`` (a finite ``numbers.Real``, no
bool) for levels lambda, horizons T, ``t_list`` times, the n and t of one
path's functional, the built-ins' ends, sigma and center, and the times of
the expected local times and of the Volterra-kernel integrals.  Each
refusal is a ``ValueError`` naming the value.
"""
from __future__ import annotations

import enum
import math
import numbers
import operator
import sys

import numpy as np

#: |H - 1/3| below this is treated as the critical point, and |H - 1/2|
#: below it as standard Brownian motion.
CRITICAL_TOL = 1e-12

_ONE_THIRD = 1.0 / 3.0


class Regime(enum.Enum):
    """Position of H relative to the critical value 1/3."""

    SUBCRITICAL = "subcritical"      # H < 1/3
    CRITICAL = "critical"            # H = 1/3
    SUPERCRITICAL = "supercritical"  # H > 1/3


def regime_of(H: float) -> Regime:
    _check_h(H)
    if abs(H - _ONE_THIRD) <= CRITICAL_TOL:
        return Regime.CRITICAL
    return Regime.SUBCRITICAL if H < _ONE_THIRD else Regime.SUPERCRITICAL


def _check_h(H: float) -> None:
    if not (0.0 < H < 1.0):
        raise ValueError(f"Hurst parameter must lie in (0,1), got {H!r}")


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as ``operator.index`` takes it, a bool excepted, >= least."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got "
                         f"{type(value).__name__} {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a float: a finite ``numbers.Real`` other than a bool.
    Comparing with the largest double also refuses NaN and an integer
    beyond it, which ``float`` and ``math.isfinite`` would overflow on."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"{name} must be a finite real number, got "
                     f"{type(value).__name__} {value!r}")


def c_h(H: float) -> float:
    """Normalizing constant of the Volterra kernel: ``beta1`` (one Gamma
    ratio, within 6.8e-16 relative) at H <= 1/2 and beta1 (H - 1/2) above,
    so it tends to 0 as H -> 1/2 from above and is 1 at H = 1/2."""
    b1 = beta1(H)
    return b1 if H <= 0.5 else b1 * (H - 0.5)


def beta1(H: float) -> float:
    """Amplitude of the Volterra kernel, the prefactor of its closed form
    K_H(t,s) = beta1 (t-s)^(H-1/2) 2F1(...) (see ``fbm``), for every H:
    sqrt(2H Gamma(3/2-H) / (Gamma(2-2H) Gamma(H+1/2))), within 6.8e-16
    relative of a 40-digit evaluation and exactly 1.0 at H = 1/2."""
    _check_h(H)
    return math.sqrt(2 * H * math.gamma(1.5 - H)
                     / (math.gamma(2 - 2 * H) * math.gamma(H + 0.5)))


def beta2(H: float) -> float:
    """Small-increment variance rate: beta1(H)^2 / (2H)."""
    _check_h(H)
    b1 = beta1(H)
    return b1 * b1 / (2 * H)


class Beta3Mode(enum.Enum):
    """Convention for beta3 at exactly H = 1/2, where the integrand formula
    degenerates (the kernel is constant in its first argument, so the
    conditional-mean increments it measures are identically zero)."""

    ZERO = "zero"          # probabilistic value: 0
    LIMIT = "limit"        # H -> 1/2 limit of the formula: int log^2 ratio


#: Taylor terms of the near-diagonal series for J (c <= 1/2, so the terms
#: it drops carry c^65 <= 2^-65)
_BETA3_SERIES_TERMS = 64


def _beta3_series(H: float) -> np.ndarray:
    """Coefficients b_k / (k - 2H), k = 2.._BETA3_SERIES_TERMS, of J / c^2
    as a power series in c, lowest first for ``_horner``: b = u * u, with
    u_1 = a, u_k = u_{k-1} (k-1-a) / k the Taylor coefficients of
    1 - (1-r)^a."""
    a = H - 0.5
    k = np.arange(2, _BETA3_SERIES_TERMS + 1)
    u = a * np.cumprod(np.concatenate([[1.0], (k - 1 - a) / k]))
    return np.convolve(u, u)[:k.size] / (k - 2 * H)


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^k by Horner's rule, in numpy's ``polyval`` order and
    so to its bits: acc = coef[-1] + x*0, then acc = coef[k] + acc*x for k
    from the second last down to 0 (in place; the sum commutes exactly)."""
    acc = coef[-1] + x * 0
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


def _beta3_far_2f1(H: float, x: np.ndarray) -> np.ndarray:
    """2F1(1, 1/2-H; H+3/2; x) for 0 <= x < 1/2: the power series
    sum_k (1/2-H)_k / (H+3/2)_k x^k to _BETA3_SERIES_TERMS terms, by
    ``_horner``.  Every ratio (1/2-H+j) / (H+3/2+j) lies in (-1, 1), so term
    k is at most x^k < 2^-k and the terms dropped sum below 2^-62 of the
    value."""
    j = np.arange(_BETA3_SERIES_TERMS - 1)
    ratios = (0.5 - H + j) / (H + 1.5 + j)
    coef = np.concatenate([[1.0], np.cumprod(ratios)])
    return _horner(coef, x)


def _beta3_raw(H: float, x: np.ndarray) -> np.ndarray:
    """J(x) for 0 <= x <= 1: the 2F1 form for c = 1 - x > 1/2, the series
    near the diagonal (see the module docstring)."""
    c = 1.0 - x
    out = np.empty_like(c)
    far = c > 0.5
    cf, xf, cn = c[far], x[far], c[~far]
    p = (math.gamma(1 - H) * math.gamma(H + 0.5)
         / (4.0 ** H * math.sqrt(math.pi)))
    out[far] = (2 * p * cf ** (2 * H) - 1.0 - xf ** (2 * H)
                + 4 * H / (H + 0.5) * xf ** (H + 0.5)
                * _beta3_far_2f1(H, xf)) / (2 * H)
    out[~far] = cn * cn * _horner(_beta3_series(H), cn)
    return out


def _check_beta3_scale(s1, s2, hi, power: float, factor: float) -> None:
    """Refuse the pair of largest hi when factor * hi^power, compared in
    logarithms so that the check itself cannot overflow, passes the largest
    double (a factor below 1 is taken as 1: hi^power alone must fit)."""
    k = int(np.argmax(hi)) if hi.size else 0
    if hi.size and hi.flat[k] > 0 and (
            power * math.log(hi.flat[k]) + math.log(max(factor, 1.0))
            > math.log(sys.float_info.max)):
        raise ValueError("beta3's value exceeds the largest double, got "
                         f"s1={float(s1.flat[k])!r}, s2={float(s2.flat[k])!r}")


def beta3(H: float, s1, s2, mode: Beta3Mode = Beta3Mode.ZERO):
    """Limiting rescaled variance of a kernel-increment pair,

        beta3(H, s1, s2) = lim n^{2H} Var[ B_{r,r+s1/n} - B_{r,r+s2/n} ],

    vectorized over broadcast (s1, s2); a float for scalar arguments.  It is
    scale-covariant, beta3(H, c*s1, c*s2) = c^{2H} beta3(H, s1, s2), and
    equals ``beta1(H)**2 * hi^{2H} * J(lo/hi)`` with J as in the
    module docstring (closed form, or its series near the diagonal).

    Relative error against a 40-digit evaluation of J, over x = lo/hi from
    0 to 1 - 1e-7: at most 2.2e-13 for H in {0.05, 0.1, 0.25, 1/3, 0.55,
    0.6, 0.75, 0.95}.
    Near H = 1/2 the 2F1 branch cancels O(1) terms down to a J of order
    (H-1/2)^2 and loses a few eps/(H-1/2)^2: 9e-13 at H = 0.45, 5e-10 at
    |H-1/2| = 1e-3, 1.2e-7 at 1e-4, 2e-5 at 1e-5.  That error is small in
    absolute terms, so ``limits.a_h`` (which adds beta3 to an O(1) beta2
    term) does not see it.

    At H = 1/2 the conditional-mean increments vanish; ``Beta3Mode.LIMIT``
    gives the H -> 1/2 limit hi * (2(1-x) Li2(1-x) - x log^2 x).
    """
    _check_h(H)
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    for name, s in (("s1", s1), ("s2", s2)):
        ok = (s >= 0) & (s < math.inf)
        if not ok.all():
            raise ValueError("beta3 requires nonnegative finite s1, s2, got "
                             f"{name}={float(s[~ok][0])!r}")
    s1, s2 = np.broadcast_arrays(s1, s2)
    lo, hi = np.minimum(s1, s2), np.maximum(s1, s2)
    x = np.divide(lo, hi, out=np.ones_like(hi), where=hi > 0)
    if abs(H - 0.5) > CRITICAL_TOL:
        # beta1^2 J(x) < 1, so only hi^{2H} and beta1^2 hi^{2H} can overflow
        _check_beta3_scale(s1, s2, hi, 2 * H, beta1(H) ** 2)
        out = beta1(H) ** 2 * hi ** (2 * H) * _beta3_raw(H, x)
    elif mode is Beta3Mode.ZERO:
        out = np.zeros_like(hi)
    else:
        from scipy.special import spence

        # the bracket is at most 2 Li2(1) = pi^2/3, at x = 0
        _check_beta3_scale(s1, s2, hi, 1.0, math.pi ** 2 / 3)
        # Li2(1-x) = spence(x); x log^2 x -> 0 at x = 0
        logx = np.log(np.where(x > 0, x, 1.0))
        out = hi * (2.0 * (1.0 - x) * spence(x) - x * logx * logx)
    return float(out) if out.ndim == 0 else out


def ell(n: int, H: float) -> float:
    """Normalizing factor of the compensated functional for H >= 1/3.

    1 above the critical point, (log n)^(-1/2) at it.  Undefined below.
    """
    if n < 2:
        raise ValueError(f"ell requires n >= 2, got {n}")
    reg = regime_of(H)
    if reg is Regime.SUBCRITICAL:
        raise ValueError(f"ell is defined only for H >= 1/3, got H={H}")
    return 1.0 / math.sqrt(math.log(n)) if reg is Regime.CRITICAL else 1.0
