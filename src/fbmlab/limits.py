"""Limit constants of the compensated additive functionals.

``a_h`` evaluates the asymptotic-variance bilinear form for H > 1/3 as a
Gauss-Hermite x tensor Gauss-Legendre quadrature of the double-time-scale
integral; ``a_one_third`` evaluates the critical-case product formula; and
``covariance_matrix`` assembles the limit covariance of a vector of test
functions together with its PSD square root.

Above the critical point one kernel, ``_a_h_tensor``, walks the time-scale
nodes in chunks for a list of function pairs: a whole matrix is one pass per
tensor order with one Fourier profile per function, and ``a_h`` is one pair.

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

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .constants import beta1, beta2, beta3, regime_of, Regime
from .gaussian import psd_sqrt
from .testfuncs import TestFunction, fourier, in_xi, moments

__all__ = ["QuadConfig", "QuadResult", "b_eta", "a_h", "a_one_third",
           "LimitMatrix", "covariance_matrix"]


@dataclass(frozen=True)
class QuadConfig:
    rtol: float = 1e-4
    gh_order: int = 48          # Gauss-Hermite nodes for the frequency integral
    gl_order: int = 64          # base tensor order on the time-scale square
    s_max: Optional[float] = None   # truncate the time-scale integrals (diagnostics)


class QuadResult(NamedTuple):
    value: float
    error: float


def _require_xi(fns, w: float, why: str = "") -> None:
    for fn in fns:
        if not in_xi(fn, w):
            raise ValueError(f"{fn.label} fails the weight-{w:g} "
                             f"integrability requirement{why}")


def b_eta(f: TestFunction, g: TestFunction, eta: float,
          literal: bool = False) -> complex:
    """Bilinear frequency kernel F(eta) * conj(G(eta)) built from the
    zero-subtracted transforms F = fhat - fhat(0).

    With ``literal=True`` the opposite (as-printed) sign -F * conj(G) is
    returned for auditability; that variant is negative on the diagonal and
    cannot be a variance kernel.
    """
    _require_xi((f, g), 1.0)
    F = fourier(f, eta) - fourier(f, 0.0)
    G = fourier(g, eta) - fourier(g, 0.0)
    out = F * np.conj(G)
    return -out if literal else out


class _FourierProfile:
    """Vectorized eta -> fhat(eta) - fhat(0) lookup for one test function.

    Uses the closed form when present; otherwise a spline through a dense
    sampled grid, with the Riemann-Lebesgue constant -fhat(0) beyond it.
    """

    def __init__(self, f: TestFunction):
        self._f = f
        self._m0 = complex(fourier(f, 0.0))
        if f.closed_form_fourier is None:
            scale = max(f.scale_hint, 1e-6)
            grid = np.concatenate([[0.0], np.geomspace(1e-4, 600.0 / scale, 1200)])
            vals = fourier(f, grid)
            self._grid = grid
            self._spline_re = PchipInterpolator(grid, vals.real, extrapolate=False)
            self._spline_im = PchipInterpolator(grid, vals.imag, extrapolate=False)

    def shifted(self, eta: np.ndarray) -> np.ndarray:
        """F(eta) = fhat(eta) - fhat(0), vectorized, conjugate-symmetric."""
        if self._f.closed_form_fourier is not None:
            return np.asarray(self._f.closed_form_fourier(eta)) - self._m0
        a = np.abs(eta)
        re = self._spline_re(np.minimum(a, self._grid[-1]))
        im = self._spline_im(np.minimum(a, self._grid[-1]))
        out = re + 1j * np.where(eta >= 0, im, -im)
        out = np.where(a > self._grid[-1], 0.0, out)
        return out - self._m0


_BETA3_PROFILES: dict[float, PchipInterpolator] = {}


def _beta3_profile(H: float) -> PchipInterpolator:
    """Interpolated x -> beta3(H, x, 1) on [0, 1]; beta3 at any (s1, s2)
    follows from the scaling beta3(c s1, c s2) = c^{2H} beta3(s1, s2)."""
    if H not in _BETA3_PROFILES:
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 0.05, 140),
                             np.linspace(0.05, 1.0, 260)[1:]])
        qs = np.array([beta3(H, x, 1.0, rtol=1e-9) for x in xs])
        _BETA3_PROFILES[H] = PchipInterpolator(xs, qs)
    return _BETA3_PROFILES[H]


#: time-scale nodes per chunk of the a_h kernel (x gh_order values per profile)
_CHUNK_NODES = 2 ** 10


def _a_h_tensor(profiles: Sequence[_FourierProfile], pairs, H: float,
                order: int, cfg: QuadConfig) -> np.ndarray:
    """The a_h kernel at tensor order ``order``: the form of ``profiles[i]``
    and ``profiles[j]`` for each (i, j) in ``pairs``."""
    b1 = beta1(H)
    b2 = beta2(H)
    p = 1.0 / (H + 0.5)
    y, wy = np.polynomial.hermite.hermgauss(cfg.gh_order)

    nodes, weights = np.polynomial.legendre.leggauss(order)
    if cfg.s_max is None:
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * weights / (1.0 - u) ** 2
        v = u / (1.0 - u)
    else:
        vmax = cfg.s_max ** (1.0 / p)
        v = 0.5 * vmax * (nodes + 1.0)
        w = 0.5 * vmax * weights
    s = v ** p

    S1, S2 = np.meshgrid(s, s, indexing="ij")
    lo, hi = np.minimum(S1, S2), np.maximum(S1, S2)    # every node s > 0
    V = (b2 * (S1 ** (2 * H) + S2 ** (2 * H))
         + hi ** (2 * H) * _beta3_profile(H)(lo / hi))
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


def _a_h_refined(fs: Sequence[TestFunction], pairs, H: float, cfg: QuadConfig):
    """a_h of each pair at twice the base order, and its change from the
    base order as the error estimate."""
    _require_xi(fs, 1.0)
    profiles = [_FourierProfile(fn) for fn in fs]
    coarse = _a_h_tensor(profiles, pairs, H, cfg.gl_order, cfg)
    fine = _a_h_tensor(profiles, pairs, H, 2 * cfg.gl_order, cfg)
    return fine, np.abs(fine - coarse)


def a_h(f: TestFunction, g: TestFunction, H: float,
        config: Optional[QuadConfig] = None) -> QuadResult:
    """Asymptotic-variance bilinear form for H > 1/3, with an error estimate
    from one tensor-order refinement: the kernel's one-pair call."""
    if regime_of(H) is not Regime.SUPERCRITICAL:
        raise ValueError("the double-time-scale integral diverges for "
                         "H <= 1/3; use a_one_third at the critical point")
    fs = [f] if f is g else [f, g]
    value, err = _a_h_refined(fs, [(0, len(fs) - 1)], H,
                              config or QuadConfig())
    return QuadResult(float(value[0]), float(err[0]))


def a_one_third(f: TestFunction, g: TestFunction,
                convention: str = "printed") -> float:
    """Critical-case constant: product of the first moments with a
    one-dimensional profile integral over the time-scale ratio, to relative
    tolerance 1e-8 (``Beta3Mode`` only acts at H = 1/2, so it has no say).

    Two conventions are exposed:

    * ``printed`` (default): the displayed product formula, prefactor
      6/sqrt(pi) with the increment-variance profile carrying its displayed
      |H-1/2|^-2 factor.  Desk-scale slope estimates sit near this value
      (the critical case approaches its limit only logarithmically).
    * ``asymptotic``: the true n -> infinity variance slope, which exact
      second-moment quadrature pins at sqrt(2/pi) * m1(f) * m1(g); it equals
      the printed structure with the covariance-consistent profile and a
      1/sqrt(2) adjustment.
    """
    _require_xi((f, g), 2.0, " (needed at the critical point)")
    H = 1.0 / 3.0
    b1 = beta1(H)
    b2 = beta2(H)
    prof = _beta3_profile(H)
    if convention == "printed":
        prefactor = 6.0 / math.sqrt(math.pi)
        b3_scale = (H - 0.5) ** -2
    elif convention == "asymptotic":
        prefactor = 3.0 * math.sqrt(2.0) / math.sqrt(math.pi)
        b3_scale = 1.0
    else:
        raise ValueError(f"unknown convention {convention!r}")

    # s = u^6 removes the s^(-1/6) endpoint singularity
    def integrand(u):
        s = u ** 6
        return 6.0 * u ** 4 * (b2 * (1.0 + u ** 4)
                               + b3_scale * prof(s)) ** -2.5

    I, _ = integrate.quad(integrand, 0.0, 1.0, epsrel=1e-8, limit=200)
    return prefactor * b1 * b1 * moments(f)[1] * moments(g)[1] * I


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


def covariance_matrix(fs: Sequence[TestFunction], H: float,
                      config: Optional[QuadConfig] = None) -> LimitMatrix:
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
        entries, errs = _a_h_refined(fs, upper, H, config or QuadConfig())
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
