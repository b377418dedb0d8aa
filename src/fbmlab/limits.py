"""Limit constants of the compensated additive functionals.

The constants are pure functions of H and f, so every quadrature has fixed
orders.  ``a_h`` evaluates the double-time-scale form for H > 1/3 (Hu,
Nualart and Xu, Ann. Probab. 2014) by 48-node Gauss-Hermite x tensor
Gauss-Legendre quadrature at 64 and 128 nodes per axis, the change between
them being its error estimate; ``a_one_third`` is m1(f) m1(g) times one
number per convention; ``covariance_matrix`` assembles the limit covariance
of a vector of test functions and its PSD square root.  One kernel,
``_a_h_tensor``, serves a whole matrix: one node-chunked pass per tensor
order with one Fourier profile per function (``a_h`` is one pair), taken
from the function's closed-form transform; ``a_h`` and
``covariance_matrix`` refuse a function without one.

Normalization notes (validated against exact second-moment quadrature of
the functionals, and against the classical Brownian constant 4*int F^2 at
H = 1/2):
  * the bilinear kernel pairs the shifted transforms as F * conj(G), which
    is positive-definite; the as-printed sign -F * conj(G) is kept for
    audit in ``b_eta(literal=True)`` only;
  * the overall factor is beta1^2/(2*pi), and the critical-case factor is
    3*sqrt(2)*beta1^2/sqrt(pi).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .constants import beta1, beta2, beta3, regime_of, Regime
from .gaussian import psd_sqrt
from .testfuncs import TestFunction, fourier, moments, require_xi

__all__ = ["QuadConfig", "QuadResult", "b_eta", "a_h", "a_one_third",
           "LimitMatrix", "covariance_matrix"]


@dataclass(frozen=True)
class QuadConfig:
    """``rtol``: the accuracy target the benchmark checks matrices against."""
    rtol: float = 1e-4


class QuadResult(NamedTuple):
    value: float
    error: float


def b_eta(f: TestFunction, g: TestFunction, eta: float,
          literal: bool = False) -> complex:
    """Bilinear frequency kernel F(eta) * conj(G(eta)) built from the
    zero-subtracted transforms F = fhat - fhat(0).

    With ``literal=True`` the opposite (as-printed) sign -F * conj(G) is
    returned for auditability; that variant is negative on the diagonal and
    cannot be a variance kernel.
    """
    require_xi((f, g), 1.0)
    F = fourier(f, eta) - fourier(f, 0.0)
    G = fourier(g, eta) - fourier(g, 0.0)
    out = F * np.conj(G)
    return -out if literal else out


class _FourierProfile:
    """Vectorized eta -> fhat(eta) - fhat(0) for one test function, from its
    closed-form transform; a function without one is refused."""

    def __init__(self, f: TestFunction):
        if f.closed_form_fourier is None:
            raise ValueError(f"{f.label} has no closed-form Fourier "
                             "transform, which the a_h kernel needs")
        self._ft = f.closed_form_fourier
        self._m0 = complex(fourier(f, 0.0))

    def shifted(self, eta: np.ndarray) -> np.ndarray:
        """F(eta) = fhat(eta) - fhat(0), vectorized, conjugate-symmetric."""
        return np.asarray(self._ft(eta)) - self._m0


#: Gauss-Hermite nodes of the frequency integral
_GH_ORDER = 48
#: Gauss-Legendre nodes per time-scale axis: coarse, then fine (the value)
_GL_ORDERS = (64, 128)
#: time-scale nodes per chunk of the a_h kernel (x _GH_ORDER values each)
_CHUNK_NODES = 2 ** 10


def _a_h_tensor(profiles: Sequence[_FourierProfile], pairs, H: float,
                order: int) -> np.ndarray:
    """The a_h kernel at tensor order ``order``: the form of ``profiles[i]``
    and ``profiles[j]`` for each (i, j) in ``pairs``."""
    b1, b2 = beta1(H), beta2(H)
    p = 1.0 / (H + 0.5)
    y, wy = np.polynomial.hermite.hermgauss(_GH_ORDER)

    # s = (u / (1 - u))^p maps the unit interval onto the half line
    nodes, weights = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights / (1.0 - u) ** 2
    s = (u / (1.0 - u)) ** p

    S1, S2 = np.meshgrid(s, s, indexing="ij")
    V = b2 * (S1 ** (2 * H) + S2 ** (2 * H)) + beta3(H, S1, S2)
    Vf = V.ravel()
    # eta-integral with the exact Gaussian weight:
    #   int eta^2 b(eta) exp(-V eta^2 / 2) deta
    #     = (2/V)^{3/2} sum_i w_i y_i^2 b(y_i sqrt(2/V))
    inner = np.empty((len(pairs), Vf.size))
    for start in range(0, Vf.size, _CHUNK_NODES):
        Vc = Vf[start:start + _CHUNK_NODES]
        eta = y[:, None] * np.sqrt(2.0 / Vc)[None, :]
        shifted = [prof.shifted(eta) for prof in profiles]
        for k, (i, j) in enumerate(pairs):
            bvals = (shifted[i] * np.conj(shifted[j])).real
            inner[k, start:start + Vc.size] = (2.0 / Vc) ** 1.5 * np.einsum(
                "q,q,qn->n", wy, y * y, bvals)
    total = np.array([np.einsum("i,j,ij->", w, w, row.reshape(V.shape))
                      for row in inner])
    return b1 * b1 / (2.0 * math.pi) * p * p * total


def _a_h_refined(fs: Sequence[TestFunction], pairs, H: float):
    """a_h of each pair at the fine order, and its change from the coarse
    order as the error estimate."""
    require_xi(fs, 1.0)
    profiles = [_FourierProfile(fn) for fn in fs]
    coarse, fine = (_a_h_tensor(profiles, pairs, H, order)
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


@functools.cache
def _printed_profile_integral() -> float:
    """int_0^1 (beta2 (1 + s^{2/3}) + beta3(1/3, s, 1) / (1/3 - 1/2)^2)^{-5/2}
    ds to relative tolerance 1e-8, once per process."""
    H = 1.0 / 3.0
    b2, b3_scale = beta2(H), (H - 0.5) ** -2

    # s = u^6 removes the s^(-1/6) endpoint singularity
    def integrand(u):
        return 6.0 * u ** 4 * (b2 * (1.0 + u ** 4)
                               + b3_scale * beta3(H, u ** 6, 1.0)) ** -2.5

    return integrate.quad(integrand, 0.0, 1.0, epsrel=1e-8, limit=200)[0]


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
    pair; at it the product formula entrywise), clamp the tolerated
    numerical negativity, and attach the PSD square root."""
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
    clamped = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
    clamped = 0.5 * (clamped + clamped.T)
    return LimitMatrix(H=H, labels=tuple(fn.label for fn in fs),
                       matrix=clamped, sqrt_matrix=psd_sqrt(clamped),
                       quadrature_report=err)
