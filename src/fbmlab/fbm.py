"""Fractional Brownian motion synthesis and the Volterra-kernel objects.

Three path generators are provided: dense Cholesky factorization of the grid
covariance (exact, O(N^3), the reference), circulant embedding of the
increment process (exact, O(N log N), the workhorse), and the moving-average
construction against a Wiener path (approximate, but the only method that
exposes the driving increments needed by the conditional-mean process).

``sample_values`` is the one synthesis entry point for value matrices; the
experiments and ``sample_paths`` both call it.  Its circulant method uses the
half spectrum of the Hermitian embedding and transforms the rows in FFT
groups of about ``_GROUP_VALUES`` values (2^16, at least one row), one
``numpy.fft.irfft`` and one cumulative sum per group: each row comes out
bit for bit as a Hermitian transform of that row alone would give it, and
synthesis memory is the output plus the draw and spectrum buffers of one
group: five group-sized matrices of doubles (values, draws 2, complex half
spectrum 2).  The amplitudes of the circulant embedding are built in
place, in the one complex vector their FFT transforms, at a peak of about
six vectors of N+1 doubles.  The group is the unit of work of the
experiments too: they draw into one ``SynthesisBuffers`` of one group's
rows per batch, passed as ``out``, and integrate each group in its spent
draw and spectrum buffers before drawing the next.

The Volterra kernel has the closed form (Decreusefond and Ustunel,
Potential Analysis 10, 1999)

    K_H(t, s) = beta1(H) (t-s)^(H-1/2) 2F1(H-1/2, 1/2-H; H+1/2; 1 - t/s),

evaluated with ``scipy.special.hyp2f1``; beta1 is ``constants.beta1``, and
at H = 1/2 the formula is exactly 1.  Against a 40-digit evaluation of the
defining integrals it is within 7e-16 relative, and ``mu(H, 0, t)``
reproduces t^{2H} to ~1e-13 (H from 0.1 to 0.9).  ``volterra_kernel`` is
the one masked evaluator (zero for s >= t), behind the volterra method's
matrix and ``conditional_mean_path``'s kernel row.

Importing this module loads no scipy.  The kernel functions
(``volterra_kernel``, ``mu``, ``conditional_increment_variance``,
``conditional_mean_path`` and the volterra method) import
``scipy.special`` on their first call, and ``mu`` and
``conditional_increment_variance`` also ``scipy.integrate``.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CRITICAL_TOL, _check_h, _integer, _real, beta1

__all__ = [
    "covariance", "volterra_kernel", "mu", "conditional_increment_variance",
    "FbmPath", "sample_paths", "sample_values", "conditional_mean_path",
    "path_rng", "group_rows", "SynthesisBuffers", "VALUE_METHODS",
    "CHOLESKY_MAX_N", "VOLTERRA_MAX_N",
]

_METHODS = ("circulant", "cholesky", "volterra")
#: the methods ``sample_values`` serves: those that need no Wiener increments
VALUE_METHODS = ("circulant", "cholesky")
CHOLESKY_MAX_N = 4096
VOLTERRA_MAX_N = 4096
#: values per group of rows that one circulant FFT transforms, the size of
#: its buffers and of the experiments' unit of work
_GROUP_VALUES = 2 ** 16


def covariance(H: float, s, t):
    """Covariance of fBm: (s^2H + t^2H - |t-s|^2H) / 2."""
    _check_h(H)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    for name, times in (("s", s), ("t", t)):
        ok = (times >= 0) & (times < math.inf)
        if not ok.all():
            raise ValueError("covariance requires nonnegative finite times, "
                             f"got {name}={float(times[~ok][0])!r}")
    out = 0.5 * (s ** (2 * H) + t ** (2 * H) - np.abs(t - s) ** (2 * H))
    return float(out) if out.ndim == 0 else out


def _kernel_core(H: float, t, s):
    """K_H(t,s) = beta1(H) (t-s)^(H-1/2) 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s),
    for 0 < s < t guaranteed by the caller (scalars or arrays)."""
    from scipy.special import hyp2f1

    a = H - 0.5
    return beta1(H) * (t - s) ** a * hyp2f1(a, -a, H + 0.5, 1.0 - t / s)


def volterra_kernel(H: float, t, s):
    """Moving-average kernel K_H(t,s), the closed form of the module
    docstring for s < t and zero for s >= t by convention."""
    _check_h(H)
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    for name, times in (("t", t), ("s", s)):
        ok = (times > 0) & (times < math.inf)
        if not ok.all():
            raise ValueError("volterra_kernel requires strictly positive "
                             "finite times, got "
                             f"{name}={float(times[~ok][0])!r}")
    t_arr, s_arr = np.broadcast_arrays(t, s)
    # _kernel_core's 1 - t/s overflows where t > s * (largest double); s is
    # capped at 1 so that the product cannot overflow (t/s < t above it)
    over = t_arr > np.minimum(s_arr, 1.0) * sys.float_info.max
    if over.any():
        raise ValueError("volterra_kernel's ratio t/s exceeds the largest "
                         f"double, got t={float(t_arr[over][0])!r}, "
                         f"s={float(s_arr[over][0])!r}")
    out = np.zeros(t_arr.shape, dtype=float)
    mask = s_arr < t_arr
    out[mask] = _kernel_core(H, t_arr[mask], s_arr[mask])
    return float(out) if out.ndim == 0 else out


def mu(H: float, r: float, s: float) -> float:
    """Conditional variance increment: int_r^s K_H(s, theta)^2 dtheta.

    K_H(s, theta)^2 = (s-theta)^(2H-1) beta1^2 2F1(...; 1 - s/theta)^2, and
    the squared 2F1 factor is smooth up to theta = s, so the right half
    carries the endpoint power as its QAWS weight.
    """
    _check_h(H)
    r, s = _real("r", r), _real("s", s)
    if r < 0 or s < r:
        raise ValueError("mu requires 0 <= r <= s")
    if s == r:
        return 0.0
    if abs(H - 0.5) <= CRITICAL_TOL:
        return s - r
    from scipy import integrate
    from scipy.special import hyp2f1

    b1, a = beta1(H), H - 0.5
    mid = 0.5 * (r + s)

    def g(theta):
        # K_H(s, theta)^2 (s-theta)^(1-2H); equals beta1^2 at theta = s
        return (b1 * hyp2f1(a, -a, H + 0.5, 1.0 - s / theta)) ** 2

    # left piece: smooth for r > 0; for r = 0 QAGS absorbs the algebraic
    # theta -> 0 endpoint (it never evaluates at the endpoints themselves)
    left, _ = integrate.quad(lambda theta: g(theta) * (s - theta) ** (2 * a),
                             r, mid, limit=200, epsabs=1e-13)
    right, _ = integrate.quad(g, mid, s, weight="alg", wvar=(0, 2 * a),
                              limit=200, epsabs=1e-13)
    return left + right


def conditional_increment_variance(H: float, r: float, t1: float, t2: float) -> float:
    """Var[B_{r,t1} - B_{r,t2}] = int_0^r (K_H(t1,th) - K_H(t2,th))^2 dth,
    computed by quadrature (no sampling).  Requires r <= min(t1, t2)."""
    _check_h(H)
    r, t1, t2 = _real("r", r), _real("t1", t1), _real("t2", t2)
    if r < 0 or r > min(t1, t2):
        raise ValueError("requires 0 <= r <= min(t1, t2)")
    if t1 == t2 or r == 0:
        return 0.0
    from scipy import integrate

    # quadrature nodes lie in (0, r), so 0 < theta < t1, t2 throughout
    def d2(theta):
        d = _kernel_core(H, t1, theta) - _kernel_core(H, t2, theta)
        return d * d

    if r < min(t1, t2) * (1.0 - 1e-12):
        def g(theta):
            if theta <= r * 1e-12:   # QAWS may evaluate at theta = 0
                theta = r * 1e-9
            return d2(theta) * theta ** (2 * H - 1)

        val, _ = integrate.quad(g, 0.0, r, weight="alg", wvar=(1 - 2 * H, 0),
                                limit=200)
    else:
        val, _ = integrate.quad(d2, 0.0, r, limit=200)
    return val


@dataclass(frozen=True)
class FbmPath:
    """One trajectory on the uniform grid t_k = k*T/N, values[0] = 0."""

    H: float
    T: float
    N: int
    values: np.ndarray
    seed: int
    path_index: int
    method: str
    wiener_increments: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_h(self.H)
        _check_grid(self.T, self.N)
        _integer("seed", self.seed, least=0)
        _integer("path_index", self.path_index, least=0)
        if self.values.shape != (self.N + 1,):
            raise ValueError("values must have length N+1")
        if self.values[0] != 0.0:
            raise ValueError("paths start at zero")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one path: keyed by (seed, index), so the
    draw is identical no matter which worker or order produced it."""
    return np.random.default_rng([_integer("seed", seed, least=0),
                                  _integer("index", index, least=0)])


@functools.lru_cache(maxsize=8)
def _half_spectrum(H: float, T: float, N: int) -> np.ndarray:
    """Amplitudes sqrt(lam_k / 2N), k = 0..N, of the circulant embedding of
    fGn on N steps of T/N, with the 1/sqrt(2) of the complex draws at
    0 < k < N folded in.  Read-only: every caller shares the cached array.

    Built in place: the autocovariances
    gamma_k = 0.5 dt^2H ((k+1)^2H + |k-1|^2H - 2 k^2H) go straight into the
    real part of the one complex vector the FFT transforms, step by step in
    the formula's operand order, and the amplitudes into the k vector, so
    the peak is about six vectors of N+1 doubles."""
    dt, p = T / N, 2 * H
    k = np.arange(N + 1, dtype=float)
    z = np.zeros(2 * N, dtype=complex)
    gam = z.real[:N + 1]
    np.add(k, 1, out=gam)
    gam **= p
    km1 = np.subtract(k, 1)
    np.abs(km1, out=km1)
    km1 **= p
    gam += km1
    del km1
    k **= p
    k *= 2
    gam -= k
    gam *= 0.5 * dt ** p
    z.real[N + 1:] = gam[-2:0:-1]                    # the circulant's mirror
    lam = np.fft.fft(z, out=z).real[:N + 1]
    if lam.min() < -1e-9 * lam.max():
        raise ValueError(
            "circulant embedding is not nonnegative definite at this size; "
            "retry with the embedding doubled (increase N or use cholesky)")
    amp = np.maximum(lam, 0.0, out=k)
    amp /= 2 * N
    np.sqrt(amp, out=amp)
    amp[1:N] /= math.sqrt(2.0)
    amp.flags.writeable = False
    return amp


@functools.lru_cache(maxsize=8)
def _cholesky_factor(H: float, T: float, N: int) -> np.ndarray:
    t = np.linspace(0.0, T, N + 1)[1:]
    cov = covariance(H, t[:, None], t[None, :])
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "grid covariance is numerically degenerate; cholesky failed"
        ) from exc


@functools.lru_cache(maxsize=4)
def _volterra_matrix(H: float, T: float, N: int) -> np.ndarray:
    """K_H(t_k, theta_j) at grid times and step midpoints; row t_0 is 0."""
    t = np.linspace(0.0, T, N + 1)
    theta = (np.arange(N) + 0.5) * (T / N)
    K = np.zeros((N + 1, N), dtype=float)
    K[1:] = volterra_kernel(H, t[1:, None], theta[None, :])
    return K


def _check_grid(T: float, N: int) -> None:
    """A horizon T > 0 and a step count N >= 1."""
    if _real("T", T) <= 0:
        raise ValueError(f"T must be positive, got {T!r}")
    _integer("N", N, least=1)


def _check_request(H: float, T: float, N: int, count: int, method: str,
                   seed: int):
    """Refuse a request no synthesis method (or experiment) can serve."""
    _check_h(H)
    _integer("seed", seed, least=0)
    _integer("count", count, least=1)
    _check_grid(T, N)
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "cholesky" and N > CHOLESKY_MAX_N:
        raise ValueError(f"cholesky synthesis is limited to N <= {CHOLESKY_MAX_N}")
    if method == "volterra" and N > VOLTERRA_MAX_N:
        raise ValueError(f"volterra synthesis is limited to N <= {VOLTERRA_MAX_N}")


def group_rows(N: int, count: int) -> int:
    """Rows in one circulant FFT group when ``count`` paths of N steps are
    drawn: about ``_GROUP_VALUES`` values, at least one row, at most
    ``count``."""
    return min(count, max(1, _GROUP_VALUES // (N + 1)))


class SynthesisBuffers:
    """The buffers ``sample_values`` draws into: ``values``, ``(rows, N+1)``
    with a zero first column, and for one FFT group of
    ``group_rows(N, rows)`` rows the draws ``d`` and the half spectrum
    ``buf``.  A caller that draws many groups allocates one set and passes
    it as ``out`` each time, so no draw allocates.  Once a draw returns,
    ``d`` and ``buf`` are spent: the caller may write anything into them,
    as the experiments' functional kernel does, since every draw writes
    all of both before it reads them."""

    __slots__ = ("values", "d", "buf")

    def __init__(self, N: int, rows: int):
        group = group_rows(N, rows)
        self.values = np.empty((rows, N + 1))
        self.values[:, 0] = 0.0
        self.d = np.empty((group, 2 * N))
        self.buf = np.empty((group, N + 1), dtype=complex)


def sample_values(H: float, T: float, N: int, count: int, seed: int,
                  start: int = 0, method: str = "circulant",
                  out: Optional[SynthesisBuffers] = None) -> np.ndarray:
    """Values of paths ``start .. start+count-1`` on the grid t_k = k*T/N, as
    a ``(count, N+1)`` matrix whose first column is zero.  With ``out``
    (buffers for N steps and at least ``count`` rows) the matrix is the
    first ``count`` rows of ``out.values`` and nothing is allocated.

    Row i is drawn from the substream ``path_rng(seed, start + i)`` alone,
    so a path's values do not depend on the batch it is drawn in.  Only the
    methods in ``VALUE_METHODS`` are served; volterra paths carry their
    Wiener increments and come from ``sample_paths``.

    The circulant method works on half the spectrum of the Hermitian
    embedding (Davies and Harte 1987; Wood and Chan 1994): the 2N standard
    normal draws fill the N+1 nonnegative frequencies, real parts d[0],
    d[2..N], d[1] and imaginary parts d[N+1..2N-1] (zero at both ends), and
    a real-output inverse transform gives the N fGn increments.  Rows go
    through the transform and the cumulative sum in groups of
    ``group_rows(N, ...)`` rows; both act along each row alone, so a row's
    bits do not depend on the group it falls in.
    """
    _check_request(H, T, N, count, method, seed)
    if method not in VALUE_METHODS:
        raise ValueError(f"sample_values serves {VALUE_METHODS}, "
                         f"not {method!r}; use sample_paths")
    _integer("start", start, least=0)
    # the spectrum first: its temporaries are freed before the buffers exist
    amp = _half_spectrum(H, T, N) if method == "circulant" else None
    if out is None:
        out = SynthesisBuffers(N, count)
    elif out.values.shape[0] < count or out.values.shape[1] != N + 1:
        raise ValueError(f"buffers of shape {out.values.shape} cannot hold "
                         f"{count} paths of {N} steps")
    values = out.values[:count]
    if method == "cholesky":
        # one product per path: a batched product rounds a row differently
        # when the batch holds one path
        L = _cholesky_factor(H, T, N)
        for i in range(count):
            np.matmul(L, path_rng(seed, start + i).standard_normal(N),
                      out=values[i, 1:])
        return values

    d, buf = out.d, out.buf
    group = d.shape[0]
    for g in range(0, count, group):
        rows = min(group, count - g)
        for i in range(rows):
            path_rng(seed, start + g + i).standard_normal(out=d[i])
        re, im = buf.real[:rows], buf.imag[:rows]
        np.multiply(d[:rows, 0], amp[0], out=re[:, 0])
        np.multiply(d[:rows, 2:N + 1], amp[1:N], out=re[:, 1:N])
        np.multiply(d[:rows, 1], amp[N], out=re[:, N])
        # the conjugate of the Hermitian transform, negated in place
        # (negation commutes with rounding); the draws are spent, so the
        # transform writes over them
        np.multiply(d[:rows, N + 1:], amp[1:N], out=im[:, 1:N])
        np.negative(im[:, 1:N], out=im[:, 1:N])
        im[:, 0] = im[:, N] = 0.0
        np.fft.irfft(buf[:rows], 2 * N, axis=-1, norm="forward",
                     out=d[:rows])
        np.cumsum(d[:rows, :N], axis=-1, out=values[g:g + rows, 1:])
    return values


def sample_paths(H: float, T: float, N: int, count: int, seed: int,
                 method: str = "circulant") -> list[FbmPath]:
    """Draw `count` independent paths; deterministic in (seed, path index).

    Circulant and cholesky paths are the rows of ``sample_values``, and
    synthesis memory is the returned values plus the buffers of one group
    of rows.
    """
    increments = None
    if method != "volterra":
        values = sample_values(H, T, N, count, seed, method=method)
    else:
        _check_request(H, T, N, count, method, seed)
        K = _volterra_matrix(H, T, N)
        increments = np.stack([path_rng(seed, i).standard_normal(N)
                               for i in range(count)])
        increments *= math.sqrt(T / N)
        values = increments @ K.T
        values[:, 0] = 0.0

    return [
        FbmPath(H=H, T=T, N=N, values=values[i], seed=seed, path_index=i,
                method=method,
                wiener_increments=None if increments is None else increments[i])
        for i in range(count)
    ]


def conditional_mean_path(path: FbmPath, r: float, s: float) -> float:
    """Projection of the path value at time s onto the driving noise up to
    time r: sum of K_H(s, theta_j) * dW_j over midpoints theta_j < r."""
    if path.wiener_increments is None:
        raise ValueError("conditional_mean_path requires a volterra path "
                         "(wiener_increments missing)")
    if not (0.0 <= r <= s <= path.T + 1e-12):
        raise ValueError("requires 0 <= r <= s <= T")
    if r == 0.0:
        return 0.0
    row = _conditional_kernel_row(path.H, path.T, path.N, float(r), float(s))
    return float(row @ path.wiener_increments)


@functools.lru_cache(maxsize=64)
def _conditional_kernel_row(H: float, T: float, N: int, r: float,
                            s: float) -> np.ndarray:
    """K_H(s, theta_j) at the step midpoints theta_j < r, zero elsewhere."""
    theta = (np.arange(N) + 0.5) * (T / N)
    row = np.zeros(N)
    below = theta < r
    row[below] = volterra_kernel(H, s, theta[below])
    return row
