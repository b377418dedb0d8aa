"""Deterministic constants attached to a Hurst parameter.

Everything here is a pure function of H (and of the pair (s1, s2) for the
increment-variance function ``beta3``).  These constants normalize the
Volterra kernel, the conditional variances of kernel increments, and the
limit laws of the additive-functional experiments.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma

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


def c_h(H: float) -> float:
    """Normalizing constant of the Volterra kernel.

    Chosen so that the kernel-driven process has variance t^(2H); equals 1
    for standard Brownian motion (H = 1/2).
    """
    _check_h(H)
    if abs(H - 0.5) <= CRITICAL_TOL:
        return 1.0
    if H > 0.5:
        num = H * (2 * H - 1) * _gamma(1.5 - H)
        den = _gamma(2 - 2 * H) * _gamma(H - 0.5)
    else:
        num = 2 * H * _gamma(1.5 - H)
        den = (1 - 2 * H) * _gamma(1 - 2 * H) * _gamma(H + 0.5)
    return math.sqrt(num / den)


def beta1(H: float) -> float:
    """Short-time amplitude of the Volterra kernel near its diagonal: the
    prefactor of its closed form, K_H(t,s) = beta1 (t-s)^(H-1/2) 2F1(...)
    (see ``fbm``)."""
    _check_h(H)
    if H > 0.5 + CRITICAL_TOL:
        return c_h(H) / (H - 0.5)
    return c_h(H)


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


def _beta3_prefactor(H: float) -> float:
    # For H > 1/2 the kernel's time derivative is
    #   d/dt K(t,s) = C_H s^{1/2-H} (t-s)^{H-3/2} t^{H-1/2},
    # whose antiderivative in t contributes 1/(H-1/2) per factor; for
    # H < 1/2 the derivative carries an extra (H-1/2) that cancels it.
    # (Verified against the exact n^{2H} Var[kernel-increment] limit.)
    c2 = c_h(H) ** 2
    if H > 0.5:
        return c2 / (H - 0.5) ** 2
    return c2


def _beta3_raw(H: float, x: float, rtol: float) -> tuple[float, float]:
    """J(x) = int_0^inf ((th+x)^(H-1/2) - (th+1)^(H-1/2))^2 dth, 0 <= x < 1.

    Returns (value, error_estimate).  Split as [0, THETA] plus a 1/theta
    tail; both endpoint singularities are algebraic and handled by QAWS.
    """
    a = H - 0.5

    def f(th):
        return ((th + x) ** a - (th + 1.0) ** a) ** 2

    theta = 8.0
    err_total = 0.0
    if x == 0.0 and H < 0.5:
        # integrand ~ th^(2H-1) * g(th) with g bounded: factor the power out
        def g(th):
            return (1.0 - (1.0 + 1.0 / th) ** a) ** 2 if th > 0 else 1.0

        v1, e1 = integrate.quad(g, 0.0, theta, weight="alg", wvar=(2 * H - 1, 0),
                                epsrel=rtol, epsabs=1e-14, limit=200)
    else:
        v1, e1 = integrate.quad(f, 0.0, theta, epsrel=rtol, epsabs=1e-14,
                                limit=200, points=[x, 1.0])
    err_total += e1

    # tail: th = 1/u, integrand f(1/u)/u^2 ~ u^(1-2H) * bounded
    def g_tail(u):
        if u == 0.0:
            return a * a * (1.0 - x) ** 2
        return f(1.0 / u) * u ** (-(3 - 2 * H))

    v2, e2 = integrate.quad(g_tail, 0.0, 1.0 / theta, weight="alg",
                            wvar=(1 - 2 * H, 0), epsrel=rtol, epsabs=1e-14,
                            limit=200)
    err_total += e2
    return v1 + v2, err_total


def _beta3_limit_raw(x: float, rtol: float) -> tuple[float, float]:
    """int_0^inf log^2((th+x)/(th+1)) dth for 0 <= x < 1 (H=1/2 limit mode)."""

    def f(th):
        return np.log((th + x) / (th + 1.0)) ** 2

    theta = 8.0
    if x == 0.0:
        # log^2(th/(th+1)) ~ log^2 th near 0: integrable, QAGS handles it
        v1, e1 = integrate.quad(f, 0.0, theta, epsrel=rtol, limit=300)
    else:
        v1, e1 = integrate.quad(f, 0.0, theta, epsrel=rtol, limit=300,
                                points=[x, 1.0])
    def f_tail(u):
        return (1.0 - x) ** 2 if u == 0.0 else f(1.0 / u) / u ** 2

    v2, e2 = integrate.quad(f_tail, 0.0, 1.0 / theta, epsrel=rtol, limit=300)
    return v1 + v2, e1 + e2


def beta3_with_error(H: float, s1: float, s2: float, rtol: float = 1e-8,
                     mode: Beta3Mode = Beta3Mode.ZERO) -> tuple[float, float]:
    """Limiting rescaled variance of a kernel-increment pair, with the
    quadrature error estimate.

    beta3(H, s1, s2) = lim n^{2H} Var[ B_{r,r+s1/n} - B_{r,r+s2/n} ],
    scale-covariant: beta3(H, c*s1, c*s2) = c^{2H} beta3(H, s1, s2).
    """
    _check_h(H)
    if s1 < 0 or s2 < 0:
        raise ValueError("beta3 requires nonnegative s1, s2")
    if s1 == s2:
        return 0.0, 0.0
    if abs(H - 0.5) <= CRITICAL_TOL:
        if mode is Beta3Mode.ZERO:
            return 0.0, 0.0
        hi = max(s1, s2)
        raw, err = _beta3_limit_raw(min(s1, s2) / hi, rtol)
        return hi * raw, hi * err
    hi = max(s1, s2)
    x = min(s1, s2) / hi
    raw, err = _beta3_raw(H, x, rtol)
    scale = _beta3_prefactor(H) * hi ** (2 * H)
    value = scale * raw
    err = scale * err
    if value > 0 and err > max(100 * rtol * value, 1e-9 * scale):
        warnings.warn(f"beta3 quadrature error {err:.2e} above requested "
                      f"tolerance for (H={H}, s1={s1}, s2={s2})")
    return value, err


def beta3(H: float, s1: float, s2: float, rtol: float = 1e-8,
          mode: Beta3Mode = Beta3Mode.ZERO) -> float:
    """See :func:`beta3_with_error`; returns the value only."""
    return beta3_with_error(H, s1, s2, rtol=rtol, mode=mode)[0]


def ell(n: int, H: float) -> float:
    """Normalizing factor of the compensated functional for H >= 1/3.

    1 above the critical point, (log n)^(-1/2) at it.  Undefined below.
    """
    if n < 2:
        raise ValueError(f"ell requires n >= 2, got {n}")
    _check_h(H)
    if abs(H - _ONE_THIRD) <= CRITICAL_TOL:
        return 1.0 / math.sqrt(math.log(n))
    if H < _ONE_THIRD:
        raise ValueError(f"ell is defined only for H >= 1/3, got H={H}")
    return 1.0


@dataclass(frozen=True)
class HurstConfig:
    """Bundle of the scalar constants derived from one Hurst parameter."""

    H: float
    regime: Regime
    c_h: float
    beta1: float
    beta2: float

    @classmethod
    def from_h(cls, H: float) -> "HurstConfig":
        _check_h(H)
        return cls(H=H, regime=regime_of(H), c_h=c_h(H),
                   beta1=beta1(H), beta2=beta2(H))

    def __post_init__(self) -> None:
        _check_h(self.H)
        if self.regime is not regime_of(self.H):
            raise ValueError("regime inconsistent with H")
        if not math.isclose(self.beta2 * 2 * self.H, self.beta1 ** 2,
                            rel_tol=1e-12):
            raise ValueError("beta2 must equal beta1^2/(2H)")
        if abs(self.H - 0.5) <= CRITICAL_TOL and self.c_h != 1.0:
            raise ValueError("c_h must be exactly 1 at H=1/2")
