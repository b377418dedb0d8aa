"""Local time estimators along discretized paths.

Two constructions: mollification by the heat kernel (level and spatial
derivative), and truncated Fourier inversion on a symmetric frequency grid.

The heat kernels are also the Gaussian test functions of ``testfuncs``.
IEEE 754 leaves the sign of a NaN product to the machine, so each keeps the
step order of its formula in ``tests/oracles.formula_gaussian_*``, which
pins the bits, NaN signs included: ``heat_kernel`` squares x, then negates
(safe in place on x); ``heat_kernel_prime`` negates x, then multiplies by x.

Every time integral in the package is taken by one trapezoid rule,
``trapezoid_prefixes``: the mollified and Fourier curves, the occupation
integrals, ``expected_mollified_local_time``, and the experiments'
functional kernel (the additive functional F and the compensators L and
L').  It returns (S_k - (y_0 + y_k)/2) dt, where the prefix sum S_k adds,
in order, the pairwise sums of the whole blocks of ``_BLOCK`` = 1024 values
before k's block, then k's own block value by value.  So the bits at k
depend only on y[..., :k+1] and the block size: a whole curve and a request
for a few indices agree bit for bit, a row alone and the same row inside a
matrix agree bit for bit, and ``mollified_local_time(path, lam,
eps).values[k]`` is bitwise the ``L`` that an experiment records at grid
index k (minus the derivative kind, its ``Lp``).

Two exact expectations serve as oracles.  ``expected_local_time`` is
E[L_t(lam)] for the true local time.  ``expected_mollified_local_time`` is
the exact mean of the level-kind mollified estimator on an N-step grid,
``heat_kernel`` at lam with one variance per grid point.  At
a fixed bandwidth eps and finite N the estimator is biased for E[L_t(lam)]:
it smooths each B_s by eps and integrates by the trapezoid rule, so the two
oracles differ (by about -1.5% at H=1/2, N=4096, eps=dt^{2H}) and a Monte
Carlo mean of the estimator must be compared with the second one.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .constants import Regime, _check_h, _integer, _real, regime_of
from .fbm import FbmPath

if TYPE_CHECKING:  # for annotations only: testfuncs imports the kernels
    from .testfuncs import TestFunction

__all__ = [
    "heat_kernel", "heat_kernel_prime", "LocalTimeCurve",
    "mollified_local_time", "fourier_local_time", "occupation_integral",
    "occupation_density_check", "expected_local_time",
    "expected_mollified_local_time", "trapezoid_prefixes",
    "DivergentEstimatorWarning",
]


class DivergentEstimatorWarning(UserWarning):
    """The derivative-kind estimator has no L2 limit for H >= 1/3."""


def _check_eps(eps) -> None:
    """Every entry of eps (a scalar or an array) positive and finite."""
    e = np.asarray(eps)
    if not np.all((e > 0) & (e < math.inf)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")


def _check_kind(kind: str) -> None:
    if kind not in ("level", "derivative"):
        raise ValueError(f"unknown kind {kind!r}")


#: exp(a) rounds to 0.0 for every a below this (the smallest subnormal is
#: exp(-744.44), and exp(-745.14) already rounds down to 0.0)
_EXP_ZERO_BELOW = -746.0


def _exp(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.exp(a)`` bit for bit, into ``out`` when given (which may be
    ``a`` itself), without computing the lanes that underflow: numpy's exp
    takes a slow path below about -708, and on narrow bandwidths a third of
    the heat-kernel arguments lie there.  The masked exp runs at about half
    the speed of the plain one on the other lanes, so it is used only when
    some lane underflows.  A NaN fails ``a < cut`` and so still gives NaN."""
    if not a.min(initial=0.0) < _EXP_ZERO_BELOW:
        return np.exp(a, out=out)
    under = a < _EXP_ZERO_BELOW
    out = np.exp(a, out=out, where=~under)
    np.copyto(out, 0.0, where=under)
    return out


def heat_kernel(eps, x, out: Optional[np.ndarray] = None):
    """Centered Gaussian density of variance eps at x, where eps is a scalar
    or an array broadcast against x; written into and returned as ``out``
    (shaped like the result, and x itself allowed) when given, with the
    same bits; a float for 0-d eps and x without ``out``."""
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    if np.ndim(eps):
        x = np.broadcast_to(x, np.broadcast_shapes(x.shape, np.shape(eps)))
    res = np.square(x, out=np.empty_like(x) if out is None else out)
    np.negative(res, out=res)
    res /= 2.0 * eps
    _exp(res, out=res)
    res /= np.sqrt(2.0 * math.pi * eps)
    return res if out is not None or res.ndim else float(res)


def heat_kernel_prime(eps: float, x, out: Optional[np.ndarray] = None):
    """x-derivative of the heat kernel: -(x/eps) * p_eps(x); written into
    and returned as ``out`` (shaped like x, not x itself) when given."""
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    res = np.negative(x, out=np.empty_like(x) if out is None else out)
    res *= x
    res /= 2.0 * eps
    _exp(res, out=res)
    scaled = np.negative(x)
    scaled /= eps
    np.multiply(scaled, res, out=res)
    res /= math.sqrt(2.0 * math.pi * eps)
    return res if out is not None or res.ndim else float(res)


@dataclass(frozen=True)
class LocalTimeCurve:
    """t -> estimate of the local time (or its spatial derivative) at a
    fixed level, along one path's time grid."""

    path_seed: int
    path_index: int
    H: float
    T: float
    N: int
    lam: float
    kind: str                 # "level" | "derivative"
    estimator: str            # "mollified" | "fourier"
    param: float              # eps (mollified) or xi_max (fourier)
    values: np.ndarray
    d_xi: Optional[float] = None

    def __post_init__(self):
        _check_kind(self.kind)
        if self.estimator not in ("mollified", "fourier"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.values.shape != (self.N + 1,):
            raise ValueError("values must have length N+1")
        if self.values[0] != 0.0:
            raise ValueError("curves start at zero")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)

    @property
    def final(self) -> float:
        return float(self.values[-1])


#: values per block of the trapezoid rule's prefix sums
_BLOCK = 1024


def trapezoid_prefixes(y, dt: float, idx=None) -> np.ndarray:
    """The trapezoid integral of y[..., :k+1] along the last axis at step dt,
    for each grid index k in ``idx`` (every k when None), on the last axis
    of the result; the rule is in the module docstring."""
    y = np.asarray(y, dtype=float)
    n, lead = y.shape[-1], y.shape[:-1]
    top = (n - 1 if idx is None else max(idx)) // _BLOCK
    # ufunc methods rather than np.cumsum and .sum, and index arithmetic on
    # Python ints: the kernel makes thousands of calls on small arrays, where
    # each numpy call's fixed cost adds up
    before = np.zeros(lead + (top + 1,))
    np.add.accumulate(np.add.reduce(
        y[..., :top * _BLOCK].reshape(lead + (top, _BLOCK)), axis=-1),
        axis=-1, out=before[..., 1:])
    if idx is None:
        own = np.zeros(before.shape + (_BLOCK,))
        own.reshape(lead + (-1,))[..., :n] = y
        np.add.accumulate(own, axis=-1, out=own)
        own += before[..., None]
        total = own.reshape(lead + (-1,))[..., :n]
        total -= 0.5 * (y[..., :1] + y)
        total *= dt
        return total
    q = [k // _BLOCK for k in idx]
    own = np.stack([
        np.add.accumulate(y[..., j * _BLOCK:k + 1], axis=-1)[..., -1]
        for k, j in zip(idx, q)], axis=-1)
    return (before[..., q] + own - 0.5 * (y[..., :1] + y[..., idx])) * dt


#: most frequencies per side of the Fourier grid: k + 1/2 is exact in a
#: double for every k below it
_MAX_HALF_FREQUENCIES = 2 ** 52


def _dirichlet_sum(y: np.ndarray, m: int, d: float, kind: str) -> np.ndarray:
    """sum over xi_k = (k+1/2) d, k < m, of 2 cos(xi_k y) (level) or
    -2 xi_k sin(xi_k y) (derivative), in closed form for |y| d <= pi."""
    cut = m * d
    den = 2.0 * np.sin(0.5 * d * y)
    small = np.abs(cut * y) < 1e-5
    safe_den = np.where(np.abs(den) < 1e-300, 1.0, den)
    if kind == "level":
        return np.where(small, 2.0 * m, 2.0 * np.sin(cut * y) / safe_den)
    # -2 sum xi sin(xi y) = 2 d/dy [sum cos(xi y)]; near zero use the series
    # -2 y sum xi^2 + O(y^3)
    sum_xi2 = d * d * (4.0 * m ** 3 - m) / 12.0
    deriv = (cut * np.cos(cut * y) - 0.5 * d * np.cos(0.5 * d * y)
             * 2.0 * np.sin(cut * y) / safe_den) / safe_den
    return np.where(small, -2.0 * y * sum_xi2, 2.0 * deriv)


def mollified_local_time(path: FbmPath, lam: float, eps: float,
                         kind: str = "level") -> LocalTimeCurve:
    """Trapezoidal time integral of the mollified delta (or its derivative)
    applied to the path, at level lam."""
    lam = _real("lambda", lam)
    _check_eps(eps)
    _check_kind(kind)
    if kind == "derivative" and regime_of(path.H) is not Regime.SUBCRITICAL:
        warnings.warn("derivative-kind local time diverges (as the bandwidth "
                      "shrinks) for H >= 1/3", DivergentEstimatorWarning)
    x = path.values - lam
    integrand = heat_kernel(eps, x) if kind == "level" else heat_kernel_prime(eps, x)
    return LocalTimeCurve(
        path_seed=path.seed, path_index=path.path_index, H=path.H, T=path.T,
        N=path.N, lam=lam, kind=kind, estimator="mollified", param=eps,
        values=trapezoid_prefixes(integrand, path.dt))


def fourier_local_time(path: FbmPath, lam: float, xi_max: float,
                       d_xi: float, kind: str = "level") -> LocalTimeCurve:
    """Truncated Fourier inversion on the symmetric midpoint grid
    xi_k = -xi_max + (k + 1/2) d_xi.

    The level weight is 1/(2 pi); the derivative weight -i xi/(2 pi) is the
    one that reproduces the mollified derivative estimator as the cutoff
    grows (both estimators integrate the same heat-kernel derivative in the
    bandwidth -> 0 limit).

    The midpoint sum is antiperiodic in y = B - lam, S(y + 2 pi/d_xi) =
    -S(y), and is taken in closed form at y reduced modulo 2 pi/d_xi, at
    O(N) cost for any number of frequencies: once max|B - lam| d_xi >= pi
    the estimate folds in the levels lam + j 2 pi/d_xi with sign (-1)^j.
    A grid of more than 2^52 frequencies per side is refused."""
    lam = _real("lambda", lam)
    _check_kind(kind)
    if not (0 < xi_max < math.inf and 0 < d_xi < math.inf
            and xi_max / d_xi < math.inf):
        raise ValueError("xi_max, d_xi and their ratio must be positive and "
                         "finite")
    m_half = int(round(xi_max / d_xi))
    if m_half < 1:
        raise ValueError("d_xi exceeds xi_max")
    if m_half > _MAX_HALF_FREQUENCIES:
        raise ValueError(f"xi_max / d_xi = {xi_max / d_xi:g} exceeds 2^52 "
                         "frequencies per side, beyond which k + 1/2 is not "
                         "exact in a double")
    if kind == "derivative" and regime_of(path.H) is not Regime.SUBCRITICAL:
        warnings.warn("derivative-kind local time diverges (as the cutoff "
                      "grows) for H >= 1/3", DivergentEstimatorWarning)

    x = path.values - lam
    period = 2.0 * math.pi / d_xi
    j = np.round(x / period)
    acc = _dirichlet_sum(x - j * period, m_half, d_xi, kind)
    acc = np.where(j % 2 == 0, acc, -acc) * (d_xi / (2.0 * math.pi))
    return LocalTimeCurve(
        path_seed=path.seed, path_index=path.path_index, H=path.H, T=path.T,
        N=path.N, lam=lam, kind=kind, estimator="fourier", param=xi_max,
        d_xi=d_xi, values=trapezoid_prefixes(acc, path.dt))


def occupation_integral(path: FbmPath, f: TestFunction) -> float:
    """Time integral of f along the path (trapezoid)."""
    return float(trapezoid_prefixes(f(path.values), path.dt, [path.N])[0])


def occupation_density_check(path: FbmPath, f: TestFunction,
                             eps: float) -> tuple[float, float]:
    """Both sides of the occupation-density identity:
    lhs = int_0^T f(B_s) ds, rhs = int f(x) Lhat_T(x) dx with the mollified
    estimator evaluated on a 512-point spatial grid."""
    _check_eps(eps)
    lhs = occupation_integral(path, f)
    pad = 4.0 * math.sqrt(eps)
    grid = np.linspace(path.values.min() - pad, path.values.max() + pad, 512)
    # L_T(x_i) by trapezoid in time for every grid level at once
    diffs = path.values[None, :] - grid[:, None]
    dens = heat_kernel(eps, diffs)
    lt = trapezoid_prefixes(dens, path.dt, [path.N])[:, 0]
    rhs = float(trapezoid_prefixes(f(grid) * lt, grid[1] - grid[0],
                                   [grid.size - 1])[0])
    return lhs, rhs


def _check_h_t(H: float, t) -> float:
    _check_h(H)
    t = _real("t", t)
    if t < 0:
        raise ValueError(f"t must be nonnegative and finite, got t={t!r}")
    return t


def expected_local_time(H: float, t: float, lam: float) -> float:
    """E[L_t(lam)] = int_0^t p_{s^{2H}}(lam) ds for the true local time, by
    quadrature with the s -> 0 singularity removed via u = s^(1-H).

    This is the limit of the mollified estimator's mean as eps -> 0 and
    N -> infinity, not its mean at a fixed grid; for that see
    ``expected_mollified_local_time``."""
    t = _check_h_t(H, t)
    lam = _real("lambda", lam)
    if t == 0.0:
        return 0.0
    from scipy import integrate

    p = 1.0 / (1.0 - H)

    def g(u):
        s = u ** p
        return heat_kernel(s ** (2 * H), lam) * p * u ** (p - 1.0)

    val, _ = integrate.quad(g, 0.0, t ** (1.0 - H), limit=200)
    return val


def expected_mollified_local_time(H: float, t: float, lam: float,
                                  eps: float, N: int) -> float:
    """Exact mean of ``mollified_local_time(path, lam, eps).final`` for a
    path of N steps on [0, t].

    B_{t_k} ~ N(0, t_k^{2H}) with t_k = k t / N, so E p_eps(B_{t_k} - lam)
    = p_{t_k^{2H} + eps}(lam) and the trapezoid sum's mean is
    dt * sum'_k p_{t_k^{2H} + eps}(lam), the endpoints weighted by 1/2."""
    t = _check_h_t(H, t)
    lam = _real("lambda", lam)
    _check_eps(eps)
    _integer("N", N, least=1)
    if t == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        var = np.linspace(0.0, t, N + 1) ** (2 * H) + eps
    if var[-1] == math.inf:
        raise ValueError(f"the variance t^(2H) + eps overflows at t={t!r} "
                         f"(H={H!r})")
    return float(trapezoid_prefixes(heat_kernel(var, lam), t / N, [N])[0])
