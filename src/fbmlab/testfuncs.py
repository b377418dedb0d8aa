"""Test functions f: R -> R with the analytic attributes the experiments need.

A :class:`TestFunction` bundles a vectorized evaluator with optional closed
forms for its moments and Fourier transform, a support/scale hint used by
the numeric fallbacks, and its declared integrability against polynomial
weights (membership in the space of f with int |f|(1+|x|^w) dx < inf).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

__all__ = [
    "TestFunction", "weighted_norm", "in_xi", "moments", "fourier",
    "gaussian_bump", "gaussian_derivative", "indicator", "hat", "poly_bump",
    "from_spec", "BUILTINS",
]


@dataclass(frozen=True)
class TestFunction:
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str
    support: Optional[tuple[float, float]] = None
    closed_form_moments: Optional[tuple[float, float]] = None
    closed_form_fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    scale_hint: float = 1.0
    # largest weight exponent w for which membership is declared; inf means
    # integrable against every polynomial weight (all built-ins qualify)
    xi_declared: float = math.inf

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.evaluator(x), dtype=float)
        if self.support is not None:
            a, b = self.support
            out = np.where((x >= a) & (x <= b), out, 0.0)
        return out


def _integration_window(f: TestFunction) -> tuple[float, float]:
    if f.support is not None:
        return f.support
    # doubling-domain probe: grow until the weighted mass stops moving
    return (-512.0 * f.scale_hint, 512.0 * f.scale_hint)


def weighted_norm(f: TestFunction, w: float) -> float:
    """int |f(x)| (1 + |x|^w) dx; returns math.inf when the doubling-domain
    growth test flags divergence."""
    if w <= 0:
        raise ValueError("weight exponent must be positive")

    def g(x):
        return np.abs(f(x)) * (1.0 + np.abs(x) ** w)

    if f.support is not None:
        a, b = f.support
        val, _ = integrate.quad(g, a, b, limit=200)
        return val
    # doubling domains [-R, R], R = scale * 2^k
    total = 0.0
    prev_inc = None
    R_prev = 0.0
    for k in range(0, 18):
        R = f.scale_hint * 2.0 ** k
        inc_pos, _ = integrate.quad(g, R_prev, R, limit=200)
        inc_neg, _ = integrate.quad(g, -R, -R_prev, limit=200)
        inc = inc_pos + inc_neg
        if prev_inc is not None and inc > prev_inc and inc > 1e-12 * max(total, 1.0):
            return math.inf  # shell mass growing: divergent
        if total > 0 and inc < 1e-12 * total:
            return total + inc
        total += inc
        prev_inc = inc
        R_prev = R
    return total if (prev_inc or 0.0) < 1e-9 * max(total, 1.0) else math.inf


def in_xi(f: TestFunction, w: float) -> bool:
    """Membership of f in the weight-w integrability class."""
    if f.xi_declared >= w:
        return True
    return math.isfinite(weighted_norm(f, w))


def moments(f: TestFunction) -> tuple[float, float]:
    """(int f, int x f).  Requires integrability against the weight 1+|x|."""
    if f.closed_form_moments is not None:
        return f.closed_form_moments
    if not in_xi(f, 1.0):
        raise ValueError(f"moments undefined: {f.label} fails the weight-1 "
                         "integrability check")
    a, b = _integration_window(f)
    m0, _ = integrate.quad(f, a, b, limit=200)
    m1, _ = integrate.quad(lambda x: x * f(x), a, b, limit=200)
    return m0, m1


def fourier(f: TestFunction, eta) -> complex | np.ndarray:
    """f_hat(eta) = int f(x) exp(i eta x) dx.

    Uses the closed form when available; otherwise plain quadrature for
    moderate eta and the oscillatory (Clenshaw-Curtis/Filon style) rule for
    |eta| beyond ~8 oscillations per scale hint.
    """
    eta_arr = np.asarray(eta, dtype=float)
    if f.closed_form_fourier is not None:
        out = np.asarray(f.closed_form_fourier(eta_arr), dtype=complex)
        return complex(out) if np.isscalar(eta) or eta_arr.ndim == 0 else out
    vals = np.array([_fourier_numeric(f, e) for e in np.atleast_1d(eta_arr)])
    return complex(vals[0]) if eta_arr.ndim == 0 else vals


def _fourier_numeric(f: TestFunction, eta: float) -> complex:
    sign = 1.0
    if eta < 0:
        eta, sign = -eta, -1.0
    a, b = _integration_window(f)
    if eta * f.scale_hint <= 8.0:
        re, _ = integrate.quad(lambda x: f(x) * np.cos(eta * x), a, b, limit=200)
        im, _ = integrate.quad(lambda x: f(x) * np.sin(eta * x), a, b, limit=200)
    else:
        re, _ = integrate.quad(f, a, b, weight="cos", wvar=eta, limit=400)
        im, _ = integrate.quad(f, a, b, weight="sin", wvar=eta, limit=400)
    return complex(re, sign * im)


# ---------------------------------------------------------------------------
# built-ins


def gaussian_bump(sigma: float = 1.0, center: float = 0.0) -> TestFunction:
    """Normalized Gaussian density with the given width and center."""
    s2 = sigma * sigma

    def ev(x):
        return np.exp(-(x - center) ** 2 / (2 * s2)) / math.sqrt(2 * math.pi * s2)

    def ft(eta):
        return np.exp(1j * eta * center - s2 * np.asarray(eta) ** 2 / 2.0)

    return TestFunction(ev, f"gaussian_bump(sigma={sigma:g},center={center:g})",
                        closed_form_moments=(1.0, center),
                        closed_form_fourier=ft, scale_hint=sigma)


def gaussian_derivative(sigma: float = 1.0) -> TestFunction:
    """x-derivative of the centered Gaussian density: zero total mass,
    first moment -1 (the classic zero-energy example)."""
    s2 = sigma * sigma

    def ev(x):
        return -x / s2 * np.exp(-x * x / (2 * s2)) / math.sqrt(2 * math.pi * s2)

    def ft(eta):
        eta = np.asarray(eta)
        return -1j * eta * np.exp(-s2 * eta ** 2 / 2.0)

    return TestFunction(ev, f"gaussian_derivative(sigma={sigma:g})",
                        closed_form_moments=(0.0, -1.0),
                        closed_form_fourier=ft, scale_hint=sigma)


def indicator(a: float = 0.0, b: float = 1.0) -> TestFunction:
    if not b > a:
        raise ValueError("indicator requires a < b")

    def ev(x):
        return np.where((x >= a) & (x <= b), 1.0, 0.0)

    def ft(eta):
        eta = np.asarray(eta, dtype=float)
        c = 0.5 * (a + b)
        w = 0.5 * (b - a)
        # (e^{i eta b} - e^{i eta a}) / (i eta), written via sinc for
        # stability at (and near) eta = 0
        return np.exp(1j * eta * c) * (b - a) * np.sinc(eta * w / np.pi)

    return TestFunction(ev, f"indicator(a={a:g},b={b:g})", support=(a, b),
                        closed_form_moments=(b - a, (b * b - a * a) / 2.0),
                        closed_form_fourier=ft, scale_hint=b - a)


def hat(a: float = -1.0, b: float = 1.0) -> TestFunction:
    """Triangular bump: 0 at the endpoints, 1 at the midpoint."""
    if not b > a:
        raise ValueError("hat requires a < b")
    c = 0.5 * (a + b)
    w = 0.5 * (b - a)

    def ev(x):
        return np.maximum(0.0, 1.0 - np.abs(x - c) / w)

    def ft(eta):
        eta = np.asarray(eta, dtype=float)
        # 4 sin^2(eta w/2) / (w eta^2) = w sinc^2(eta w / (2 pi))
        return np.exp(1j * eta * c) * w * np.sinc(eta * w / (2 * np.pi)) ** 2

    return TestFunction(ev, f"hat(a={a:g},b={b:g})", support=(a, b),
                        closed_form_moments=(w, c * w),
                        closed_form_fourier=ft, scale_hint=b - a)


def poly_bump(a: float = -1.0, b: float = 1.0, k: int = 2) -> TestFunction:
    """Polynomial window (1-u^2)^k on [a,b] (u the affine map to [-1,1])."""
    if not b > a:
        raise ValueError("poly_bump requires a < b")
    if k < 1:
        raise ValueError("poly_bump requires k >= 1")
    c = 0.5 * (a + b)
    w = 0.5 * (b - a)

    def ev(x):
        u = (x - c) / w
        return np.where(np.abs(u) <= 1.0, (1.0 - u ** 2) ** k, 0.0)

    m0 = w * math.sqrt(math.pi) * math.gamma(k + 1) / math.gamma(k + 1.5)
    return TestFunction(ev, f"poly_bump(a={a:g},b={b:g},k={k})", support=(a, b),
                        closed_form_moments=(m0, c * m0), scale_hint=b - a)


BUILTINS: dict[str, Callable[..., TestFunction]] = {
    "gaussian_bump": gaussian_bump,
    "gaussian_derivative": gaussian_derivative,
    "indicator": indicator,
    "hat": hat,
    "poly_bump": poly_bump,
}


def from_spec(spec: str) -> TestFunction:
    """Build a built-in from a CLI spec string, e.g.
    ``gaussian_derivative:sigma=1`` or ``indicator:a=0,b=2``."""
    name, _, argstr = spec.partition(":")
    name = name.strip()
    if name not in BUILTINS:
        raise ValueError(f"unknown test function {name!r}; "
                         f"choices: {sorted(BUILTINS)}")
    kwargs = {}
    if argstr.strip():
        for item in argstr.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise ValueError(f"malformed argument {item!r} in {spec!r}")
            key = key.strip()
            kwargs[key] = int(val) if key == "k" else float(val)
    return BUILTINS[name](**kwargs)
