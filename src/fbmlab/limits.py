"""Limit constants of the compensated additive functionals.

The constants are pure functions of H and f, so every quadrature has fixed
orders.  ``a_h`` evaluates the double-time-scale form for H > 1/3 (Hu,
Nualart and Xu, Ann. Probab. 2014) by 48-node Gauss-Hermite x tensor
Gauss-Legendre quadrature at 64 and 128 nodes per axis, the change between
them being its error estimate.  Each rule is built once per process and
order and shared read-only.  The Gauss-Legendre rule comes from the
Legendre three-term recurrence, by Newton's method from Tricomi's
asymptotic guesses, with no LAPACK call: numpy's Legendre rule takes its
nodes as the eigenvalues of a 128 x 128 matrix, and at that size OpenBLAS
runs its threaded eigensolver, whose idle worker thread then spins beside
the kernel and slows it.  The recurrence's weights are also closer to a
40-digit reference at order 128 (3e-13 against numpy's 1.4e-11).  The
Hermite rule takes numpy ``hermgauss(48)``'s own steps, bit for bit, on a
48 x 48 eigenproblem below the threading size, so that ``numpy.polynomial``
(which numpy imports on first use) is never loaded.  The a_h rule is folded
by two exact symmetries of the integrand: it is even in the frequency
(F(-eta) = conj F(eta) for real f), so the 24 positive Hermite nodes run
at twice their weight, and symmetric in the two time scales (``beta3``
takes their min and max), so only the upper triangle runs, 2080 and 8256
nodes.  ``a_one_third`` is m1(f) m1(g) times one number per convention;
``covariance_matrix`` assembles the limit covariance of a vector of test
functions and its PSD square root.  One kernel, ``_a_h_tensor``, serves a
whole matrix: one node-chunked pass per tensor order (``a_h`` is one pair),
which takes each function's shifted transform F(eta) = fhat(eta) - fhat(0)
from ``testfuncs.fourier``; ``a_h`` and ``covariance_matrix`` refuse a
function without a closed-form transform, which the numeric fallback of
``fourier`` would evaluate node by node.  The chunks are small enough that
their temporaries stay below the C allocator's mmap threshold, so they are
recycled from the heap rather than mapped and unmapped chunk by chunk; each
node is reduced by its own column, so the chunk size moves no bit.

Nothing here loads scipy or ``numpy.polynomial``, and neither does
``import fbmlab``: path synthesis uses ``numpy.fft`` and ``constants`` sums
its series by its own Horner loop.  The package imports scipy only where a
call needs it, on that call:

  * ``scipy.integrate``: the adaptive quadratures ``fbm.mu``,
    ``fbm.conditional_increment_variance``,
    ``localtime.expected_local_time`` and the ``testfuncs`` numeric
    fallbacks of a function with a support (``weighted_norm``, and
    ``moments`` and ``fourier`` without their closed forms).  So
    ``a_one_third`` of a function without closed-form moments, or
    ``require_xi`` of one whose declared class is too small, loads it too;
  * ``scipy.special``: the Volterra kernel's ``hyp2f1`` (``fbm``'s
    ``volterra_kernel``, ``mu``, ``conditional_increment_variance``,
    ``conditional_mean_path`` and the volterra method, and so
    ``fbmlab kernel``) and ``spence`` in ``beta3`` at H = 1/2 with
    ``Beta3Mode.LIMIT``.

Normalization notes (validated against exact second-moment quadrature of
the functionals, and against the classical Brownian constant 4*int F^2 at
H = 1/2):
  * the bilinear kernel pairs the shifted transforms as F * conj(G), which
    is positive-definite; the printed sign -F * conj(G) is negative on the
    diagonal, so it cannot be a variance kernel;
  * the overall factor is beta1^2/(2*pi), and the critical-case factor is
    3*sqrt(2)*beta1^2/sqrt(pi).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .constants import beta1, beta2, beta3, regime_of, Regime
from .testfuncs import TestFunction, fourier, moments, require_xi

__all__ = ["QuadConfig", "QuadResult", "a_h", "a_one_third",
           "LimitMatrix", "covariance_matrix"]


@dataclass(frozen=True)
class QuadConfig:
    """``rtol``: the accuracy target the benchmark checks matrices against."""
    rtol: float = 1e-4


class QuadResult(NamedTuple):
    value: float
    error: float


#: Newton steps from Tricomi's guesses: at orders up to 300 the third
#: corrects no node by more than 1.6e-12 (at order 2; 2.3e-15 at 128), so
#: the error it leaves, of the order of that squared, is below rounding; a
#: fourth would move nodes by rounding noise only
_NEWTON_STEPS = 3


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), n >= 1, |x| < 1: the three-term recurrence
    P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}) in place, then
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    p_prev, p = np.ones_like(x), x.copy()
    t = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, p, out=t)
        p_prev -= t
        p_prev *= -k / (k + 1)
        p_prev += t
        p_prev, p = p, p_prev
    return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending, once
    per process and order.  Read-only: every caller shares the cached
    arrays.

    Only the nonnegative roots of P_n are computed, by Newton's method on
    the recurrence (``_legendre``) from Tricomi's guesses
    (1 - (n-1)/(8n^3)) cos(pi (4i - 1)/(4n + 2)); an odd order's middle root
    is exactly 0.0, where P_n(0) = 0 keeps it.  The weights are
    2 / ((1 - x^2) P_n'(x)^2) at the final nodes.  The negative half
    mirrors the positive one, so x = -x[::-1] and w = w[::-1] hold
    exactly."""
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(
        math.pi * (4 * i - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _hermite(n: int, x: np.ndarray) -> np.ndarray:
    """h_n(x) = H_n(x) / sqrt(2^n n! sqrt(pi)), the normalized Hermite
    polynomial, n >= 0, by numpy ``hermgauss``'s own backward recurrence,
    step for step."""
    c1 = 1.0 / math.sqrt(math.sqrt(math.pi))
    if n == 0:
        return np.full(x.shape, c1)
    c0, nd = 0.0, float(n)
    for _ in range(n - 1):
        c0, c1 = (-c1 * math.sqrt((nd - 1.0) / nd),
                  c0 + c1 * x * math.sqrt(2.0 / nd))
        nd -= 1.0
    return c0 + c1 * x * math.sqrt(2.0)


@functools.cache
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``order``-point Gauss-Hermite rule (weight exp(-y^2)), once per
    process and order, read-only, bit for bit numpy's ``hermgauss``: the
    eigenvalues of the symmetric tridiagonal Jacobi matrix, off-diagonal
    sqrt(k/2), as nodes; one Newton step on ``_hermite``; weights
    1 / h_{n-1}(y)^2 (scaled by their largest h_{n-1} first); both
    symmetrized, and the weights scaled to sum to sqrt(pi)."""
    off = np.sqrt(0.5 * np.arange(1, order))
    jacobi = np.zeros((order, order))
    jacobi.flat[1::order + 1] = jacobi.flat[order::order + 1] = off
    y = np.linalg.eigvalsh(jacobi)
    y -= _hermite(order, y) / (_hermite(order - 1, y)
                               * math.sqrt(2 * order))
    fm = _hermite(order - 1, y)
    fm /= np.abs(fm).max()
    wy = 1.0 / (fm * fm)
    wy = (wy + wy[::-1]) / 2
    y = (y - y[::-1]) / 2
    wy *= math.sqrt(math.pi) / wy.sum()
    y.flags.writeable = wy.flags.writeable = False
    return y, wy


#: Gauss-Hermite nodes of the frequency integral (the kernel runs the 24
#: positive ones)
_GH_ORDER = 48
#: Gauss-Legendre nodes per time-scale axis: coarse, then fine (the value)
_GL_ORDERS = (64, 128)
#: time-scale nodes per chunk of the a_h kernel (x _GH_ORDER // 2 values
#: each); the folded grids of 2080 and 8256 nodes take 9 and 33 chunks.  A
#: chunk's largest temporaries, its complex transforms, are 256 x 24 x 16 B
#: = 96 KiB: below glibc's default 128 KiB mmap threshold, so they are
#: reused from the heap, where a larger block would be a fresh mapping,
#: faulted in and unmapped on every chunk
_CHUNK_NODES = 2 ** 8


def _a_h_tensor(fs: Sequence[TestFunction], pairs, H: float,
                order: int) -> np.ndarray:
    """The a_h kernel at tensor order ``order``: the form of ``fs[i]`` and
    ``fs[j]`` for each (i, j) in ``pairs``, each function entering through
    F(eta) = ``fourier(f, eta)`` - fhat(0), with fhat(0) = ``fourier(f, 0.0)``
    taken once per function.

    The rule is the full ``_GH_ORDER``-point Gauss-Hermite rule times the
    full ``order`` x ``order`` Gauss-Legendre grid, folded by two exact
    symmetries of the integrand:

      * it is even in eta, as F(-eta) = conj F(eta) for real f makes
        Re F conj G even; the Hermite nodes are antisymmetric with equal
        weights, so the positive nodes carry twice their weight (an odd
        rule's zero node has y^2 = 0 and drops out);
      * V(s1, s2) is symmetric, ``beta3`` taking the min and max of its
        arguments, so only the nodes i <= j of the time-scale grid run, an
        off-diagonal one weighted 2 w_i w_j.

    That is a quarter of the unfolded transform values.  Each pair's row is
    reduced by its own dot, so a pair's value does not depend on which
    other pairs share the call."""
    b1, b2 = beta1(H), beta2(H)
    p = 1.0 / (H + 0.5)
    y, wy = _gauss_hermite(_GH_ORDER)
    y, wy = y[y > 0], 2.0 * wy[y > 0]

    # s = (u / (1 - u))^p maps the unit interval onto the half line
    nodes, weights = _gauss_legendre(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights / (1.0 - u) ** 2
    s = (u / (1.0 - u)) ** p

    lo, hi = np.triu_indices(order)
    ww = np.where(lo == hi, 1.0, 2.0) * w[lo] * w[hi]
    V = b2 * (s[lo] ** (2 * H) + s[hi] ** (2 * H)) + beta3(H, s[lo], s[hi])
    # eta-integral with the exact Gaussian weight:
    #   int eta^2 b(eta) exp(-V eta^2 / 2) deta
    #     = (2/V)^{3/2} sum_i w_i y_i^2 b(y_i sqrt(2/V))
    m0 = [fourier(fn, 0.0) for fn in fs]
    inner = np.empty((len(pairs), V.size))
    for start in range(0, V.size, _CHUNK_NODES):
        Vc = V[start:start + _CHUNK_NODES]
        eta = y[:, None] * np.sqrt(2.0 / Vc)[None, :]
        shifted = [fourier(fn, eta) - m for fn, m in zip(fs, m0)]
        for k, (i, j) in enumerate(pairs):
            bvals = (shifted[i] * np.conj(shifted[j])).real
            inner[k, start:start + Vc.size] = (2.0 / Vc) ** 1.5 * np.einsum(
                "q,q,qn->n", wy, y * y, bvals)
    total = np.array([row @ ww for row in inner])
    return b1 * b1 / (2.0 * math.pi) * p * p * total


def _a_h_refined(fs: Sequence[TestFunction], pairs, H: float):
    """a_h of each pair at the fine order, and its change from the coarse
    order as the error estimate."""
    require_xi(fs, 1.0)
    for fn in fs:
        if fn.closed_form_fourier is None:
            raise ValueError(f"{fn.label} has no closed-form Fourier "
                             "transform, which the a_h kernel needs")
    coarse, fine = (_a_h_tensor(fs, pairs, H, order)
                    for order in _GL_ORDERS)
    return fine, np.abs(fine - coarse)


def a_h(f: TestFunction, g: TestFunction, H: float) -> QuadResult:
    """Asymptotic-variance bilinear form for H > 1/3, with an error estimate
    from one tensor-order refinement: the kernel's one-pair call."""
    if regime_of(H) is not Regime.SUPERCRITICAL:
        raise ValueError("the double-time-scale integral diverges for "
                         "H <= 1/3; use a_one_third at the critical point")
    fs = [f] if f is g else [f, g]
    value, err = _a_h_refined(fs, [(0, len(fs) - 1)], H)
    return QuadResult(float(value[0]), float(err[0]))


#: Gauss-Legendre nodes of the printed profile integral
_PRINTED_ORDER = 32


@functools.cache
def _printed_profile_integral() -> float:
    """int_0^1 (beta2 (1 + s^{2/3}) + beta3(1/3, s, 1) / (1/3 - 1/2)^2)^{-5/2}
    ds, once per process, by a fixed 32-node Gauss-Legendre rule in u with
    s = u^6 (one vectorized ``beta3`` call).

    The substitution removes the s^(-1/6) endpoint singularity and leaves an
    integrand analytic on [0, 1]: s^{2H} = u^4, s^{H+1/2} = u^5, and
    ``beta3``'s near-diagonal branch is a power series in 1 - s.  So the
    rule converges exponentially (an n-node rule is exact for polynomials of
    degree 2n - 1): against adaptive quadrature at relative tolerance 1e-13
    it is within 1e-10 at 16 nodes and within 6e-15 at 24, 32 and 64, the
    last digits being ``beta3``'s own rounding."""
    H = 1.0 / 3.0
    b2, b3_scale = beta2(H), (H - 0.5) ** -2
    nodes, weights = _gauss_legendre(_PRINTED_ORDER)
    u = 0.5 * (nodes + 1.0)
    integrand = 6.0 * u ** 4 * (b2 * (1.0 + u ** 4)
                                + b3_scale * beta3(H, u ** 6, 1.0)) ** -2.5
    return float(0.5 * weights @ integrand)


def a_one_third(f: TestFunction, g: TestFunction,
                convention: str = "printed") -> float:
    """Critical-case constant: m1(f) m1(g) times one number per convention.

    * ``printed`` (default): the displayed formula, 6/sqrt(pi) beta1^2 times
      the profile integral with beta3 carrying its |H-1/2|^-2 factor (about
      0.5408).  Desk-scale slope estimates sit near it (the critical case
      approaches its limit only logarithmically).
    * ``asymptotic``: the true n -> infinity slope sqrt(2/pi), which exact
      second-moment quadrature pins, in closed form; the tests integrate it
      as the printed structure with the covariance-consistent beta3 and a
      1/sqrt(2) adjustment.
    """
    require_xi((f, g), 2.0, " (needed at the critical point)")
    if convention == "printed":
        b1 = beta1(1.0 / 3.0)
        return (6.0 / math.sqrt(math.pi) * b1 * b1 * moments(f)[1]
                * moments(g)[1] * _printed_profile_integral())
    if convention == "asymptotic":
        return math.sqrt(2.0 / math.pi) * moments(f)[1] * moments(g)[1]
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class LimitMatrix:
    """Limit covariance of a vector of test functions, with its square root
    and per-entry quadrature error estimates."""

    H: float
    labels: tuple[str, ...]
    matrix: np.ndarray
    sqrt_matrix: np.ndarray
    quadrature_report: np.ndarray

    def __post_init__(self):
        d = len(self.labels)
        if self.matrix.shape != (d, d) or self.sqrt_matrix.shape != (d, d):
            raise ValueError("matrix shapes must match the label count")
        ss = self.sqrt_matrix @ self.sqrt_matrix
        scale = max(float(np.linalg.norm(self.matrix)), 1e-300)
        if np.linalg.norm(ss - self.matrix) > 1e-8 * scale:
            raise ValueError("sqrt_matrix^2 does not reproduce the matrix")


def covariance_matrix(fs: Sequence[TestFunction], H: float) -> LimitMatrix:
    """Fill the d x d limit covariance (above the critical point one
    kernel pass per order over the upper triangle, each entry ``a_h`` of its
    pair; at it the product formula entrywise), and clamp the tolerated
    numerical negativity and take the PSD square root from one ``eigh``."""
    if not fs:
        raise ValueError("need at least one test function")
    reg = regime_of(H)
    if reg is Regime.SUBCRITICAL:
        raise ValueError("no finite limit matrix below the critical point "
                         "(the limit there is a local-time derivative, not "
                         "a mixed Gaussian)")
    d = len(fs)
    iu = np.triu_indices(d)
    upper = list(zip(*iu))
    if reg is Regime.CRITICAL:
        entries, errs = [a_one_third(fs[i], fs[j]) for i, j in upper], 0.0
    else:
        entries, errs = _a_h_refined(fs, upper, H)
    mat, err = np.zeros((2, d, d))
    mat[iu], err[iu] = entries, errs
    mat[iu[::-1]], err[iu[::-1]] = entries, errs
    vals, vecs = np.linalg.eigh(mat)
    tol = 1e-8 * max(np.trace(mat), 1e-300)
    if vals.min() < -tol:
        raise ValueError(f"limit matrix has eigenvalue {vals.min():g} below "
                         "the clamping tolerance; quadrature inconsistent")
    vals = np.maximum(vals, 0.0)
    clamped = vecs @ np.diag(vals) @ vecs.T
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    return LimitMatrix(H=H, labels=tuple(fn.label for fn in fs),
                       matrix=0.5 * (clamped + clamped.T),
                       sqrt_matrix=0.5 * (root + root.T),
                       quadrature_report=err)
