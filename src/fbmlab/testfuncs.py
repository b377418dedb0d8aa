"""Test functions f: R -> R with the analytic attributes the experiments need.

A :class:`TestFunction` bundles a vectorized evaluator with optional closed
forms for its moments and Fourier transform, a support and a scale hint for
the numeric quadratures, and its declared integrability against polynomial
weights (membership in the space of f with int |f|(1+|x|^w) dx < inf).

A ``support`` (a, b) states that the evaluator is exactly 0.0 outside
[a, b]; it is the window of the numeric quadratures, and calls do not mask
by it.  The built-ins with a support vanish there by their own formulas.
Without a support the quadratures run over doubling shells around 0 in
units of ``scale_hint`` (``_integrate``).

Every built-in carries closed-form moments and a closed-form Fourier
transform (``poly_bump`` up to k = 40); the numeric quadratures serve the
other functions, and import ``scipy.integrate`` on their first call.

The Gaussian test functions are the heat kernels of ``localtime``, p_s2 at
x - center and p'_s2 with s2 = sigma^2, each keeping the step order of its
formula in ``tests/oracles.formula_gaussian_*`` and so its bits, NaN signs
included.  ``indicator`` and ``hat`` write the steps of their formula, in
its operand order, into one output array laid out like the argument
(``hat`` also needs one temporary), so each step runs the loop the
formula's own temporaries ran and the bits are the formula's.  A 0-d
argument gets the bits of a one-element array: for ``gaussian_bump``
numpy's scalar power could round the square differently.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import _integer
from .localtime import heat_kernel, heat_kernel_prime

__all__ = [
    "TestFunction", "weighted_norm", "in_xi", "require_xi", "moments",
    "fourier", "gaussian_bump", "gaussian_derivative", "indicator", "hat",
    "poly_bump", "from_spec", "BUILTINS",
]


@dataclass(frozen=True)
class TestFunction:
    """A test function f, computed by ``evaluator``.  A ``support`` (a, b),
    a < b, promises that f is 0.0 outside [a, b] and is the window of the
    numeric quadratures; calls do not mask by it."""
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str
    support: Optional[tuple[float, float]] = None
    closed_form_moments: Optional[tuple[float, float]] = None
    closed_form_fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    scale_hint: float = 1.0
    # largest weight exponent w for which membership is declared; inf means
    # integrable against every polynomial weight (all built-ins qualify)
    xi_declared: float = math.inf

    def __post_init__(self):
        if self.support is not None and not (
                len(self.support) == 2 and self.support[0] < self.support[1]):
            raise ValueError(f"{self.label}: support must be a pair a < b, "
                             f"got {self.support!r}")

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)),
                          dtype=float)


#: Without a support, the numeric quadratures integrate over [-r_0, r_0] and
#: then over the doubling shells r_{k-1} <= |x| <= r_k, r_k = 2^k scale_hint:
#: always out to shell ``_MIN_SHELLS``, then on until a shell adds at most
#: ``_SHELL_RTOL`` of the total, and at most out to shell ``_MAX_SHELLS``.
_MIN_SHELLS, _MAX_SHELLS = 9, 40
_SHELL_RTOL = 1e-12


def _quad(g, lo: float, hi: float, **options) -> float:
    """Adaptive quadrature of g over [lo, hi].  ``scipy.integrate`` is
    imported here, on the first call, so importing the package does not
    load it."""
    from scipy import integrate

    return integrate.quad(g, lo, hi, **{"limit": 200, **options})[0]


def _integrate(f: TestFunction, piece) -> Optional[np.ndarray]:
    """The sum of ``piece(lo, hi)``, one or more integrals over [lo, hi],
    over f's support, or else over the doubling shells.  The shells go on
    while the total is still exactly 0, so mass away from 0 counts wherever
    it lies, not only near the centre; growth of the inner shells is no
    sign of divergence.  Returns None, divergence, only when the outermost
    shell still grows the total.  Mass beyond shell ``_MIN_SHELLS`` once
    the total has settled is missed, as is a feature far narrower than its
    shell; such a function needs a support."""
    if f.support is not None:
        return np.asarray(piece(*f.support), dtype=float)
    r = f.scale_hint
    total = np.asarray(piece(-r, r), dtype=float)
    for k in range(1, _MAX_SHELLS + 1):
        r_in, r = r, 2.0 * r
        inc = np.add(piece(r_in, r), piece(-r, -r_in))
        total = total + inc
        settled = np.abs(inc).max() <= _SHELL_RTOL * np.abs(total).max()
        if settled and k >= _MIN_SHELLS and total.any():
            return total
    return total if settled else None


def weighted_norm(f: TestFunction, w: float) -> float:
    """int |f(x)| (1 + |x|^w) dx; math.inf when the doubling shells find it
    divergent."""
    if w <= 0:
        raise ValueError("weight exponent must be positive")

    def g(x):
        return np.abs(f(x)) * (1.0 + np.abs(x) ** w)

    total = _integrate(f, lambda lo, hi: _quad(g, lo, hi))
    return math.inf if total is None else float(total)


def in_xi(f: TestFunction, w: float) -> bool:
    """Membership of f in the weight-w integrability class."""
    if f.xi_declared >= w:
        return True
    return math.isfinite(weighted_norm(f, w))


def require_xi(fns, w: float, why: str = "") -> None:
    """Raise ``ValueError`` for the first of ``fns`` outside the class."""
    for fn in fns:
        if not in_xi(fn, w):
            raise ValueError(f"{fn.label} fails the weight-{w:g} "
                             f"integrability requirement{why}")


def moments(f: TestFunction) -> tuple[float, float]:
    """(int f, int x f).  Requires integrability against the weight 1+|x|."""
    if f.closed_form_moments is not None:
        return f.closed_form_moments
    require_xi((f,), 1.0, " (moments undefined)")
    total = _integrate(f, lambda lo, hi: (
        _quad(f, lo, hi), _quad(lambda x: x * f(x), lo, hi)))
    if total is None:
        raise ValueError(f"{f.label}: moments do not converge")
    return float(total[0]), float(total[1])


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
    if eta * f.scale_hint <= 8.0:
        def piece(lo, hi):
            return (_quad(lambda x: f(x) * np.cos(eta * x), lo, hi),
                    _quad(lambda x: f(x) * np.sin(eta * x), lo, hi))
    else:
        def piece(lo, hi):
            return (_quad(f, lo, hi, weight="cos", wvar=eta, limit=400),
                    _quad(f, lo, hi, weight="sin", wvar=eta, limit=400))
    total = _integrate(f, piece)
    if total is None:
        raise ValueError(f"{f.label}: Fourier integral does not converge")
    return complex(total[0], sign * total[1])


# ---------------------------------------------------------------------------
# built-ins


def _check_gaussian(name: str, sigma: float, center: float = 0.0) -> float:
    """The variance sigma^2 of a Gaussian built-in; the heat kernel divides
    by it and by 2 pi times it, so both must be normal doubles."""
    s2 = sigma * sigma
    if not (sigma > 0 and np.finfo(float).tiny <= s2
            and 2 * math.pi * s2 < math.inf):
        raise ValueError(f"{name} requires a finite sigma > 0 with sigma^2 and"
                         f" 2 pi sigma^2 normal doubles, got sigma={sigma!r}")
    if not math.isfinite(center):
        raise ValueError(f"{name} requires a finite center, got "
                         f"center={center!r}")
    return s2


def gaussian_bump(sigma: float = 1.0, center: float = 0.0) -> TestFunction:
    """Normalized Gaussian density with the given width and center: the
    heat kernel p_{sigma^2}(x - center)."""
    s2 = _check_gaussian("gaussian_bump", sigma, center)

    def ev(x):
        y = np.subtract(x, center, out=np.empty_like(x, dtype=float))
        return heat_kernel(s2, y, out=y)

    def ft(eta):
        return np.exp(1j * eta * center - s2 * np.asarray(eta) ** 2 / 2.0)

    return TestFunction(ev, f"gaussian_bump(sigma={sigma:g},center={center:g})",
                        closed_form_moments=(1.0, center),
                        closed_form_fourier=ft, scale_hint=sigma)


def gaussian_derivative(sigma: float = 1.0) -> TestFunction:
    """x-derivative of the centered Gaussian density, p'_{sigma^2}: zero
    total mass, first moment -1 (the classic zero-energy example)."""
    s2 = _check_gaussian("gaussian_derivative", sigma)

    def ev(x):
        return heat_kernel_prime(s2, x, out=np.empty_like(x, dtype=float))

    def ft(eta):
        eta = np.asarray(eta)
        return -1j * eta * np.exp(-s2 * eta ** 2 / 2.0)

    return TestFunction(ev, f"gaussian_derivative(sigma={sigma:g})",
                        closed_form_moments=(0.0, -1.0),
                        closed_form_fourier=ft, scale_hint=sigma)


def _check_ends(name: str, a: float, b: float) -> None:
    """A built-in's support [a, b] needs finite ends with a < b."""
    for end, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} requires finite ends, got "
                             f"{end}={value!r}")
    if not b > a:
        raise ValueError(f"{name} requires a < b")


def _phase(eta: np.ndarray, c: float):
    """e^{i eta c}, the shift of a transform to the centre c.

    At c = 0 with no eta < 0 (the a_h kernel's frequencies are positive) it
    is 1 + 0j, and the complex exp is skipped: the transforms' products
    with the constant have the bits of their products with exp's (at
    eta = inf both are NaN, their sign bits aside).  For eta < 0 the phase
    is 1 - 0j, whose sign can reach a product's real part (a poly_bump
    profile of -0.0), so exp builds it there."""
    if c == 0.0 and not (eta < 0).any():
        return 1.0 + 0.0j
    return np.exp(1j * eta * c)


def indicator(a: float = 0.0, b: float = 1.0) -> TestFunction:
    _check_ends("indicator", a, b)

    def ev(x):
        out = np.greater_equal(x, a, out=np.empty_like(x, dtype=float))
        out *= x <= b
        return out

    def ft(eta):
        eta = np.asarray(eta, dtype=float)
        c = 0.5 * (a + b)
        w = 0.5 * (b - a)
        # (e^{i eta b} - e^{i eta a}) / (i eta), written via sinc for
        # stability at (and near) eta = 0
        return _phase(eta, c) * (b - a) * np.sinc(eta * w / np.pi)

    return TestFunction(ev, f"indicator(a={a:g},b={b:g})", support=(a, b),
                        closed_form_moments=(b - a, (b * b - a * a) / 2.0),
                        closed_form_fourier=ft, scale_hint=b - a)


def hat(a: float = -1.0, b: float = 1.0) -> TestFunction:
    """Triangular bump: 0 at the endpoints, 1 at the midpoint."""
    _check_ends("hat", a, b)
    c = 0.5 * (a + b)
    w = 0.5 * (b - a)

    def ev(x):
        # max(0, min(x - a, b - x)) / w; the sign of x - a and of b - x is
        # exact, so 0.0 outside [a, b]
        out = np.subtract(x, a, out=np.empty_like(x, dtype=float))
        np.minimum(out, np.subtract(b, x), out=out)
        np.maximum(0.0, out, out=out)
        out /= w
        return out

    def ft(eta):
        eta = np.asarray(eta, dtype=float)
        # 4 sin^2(eta w/2) / (w eta^2) = w sinc^2(eta w / (2 pi))
        return _phase(eta, c) * w * np.sinc(eta * w / (2 * np.pi)) ** 2

    return TestFunction(ev, f"hat(a={a:g},b={b:g})", support=(a, b),
                        closed_form_moments=(w, c * w),
                        closed_form_fourier=ft, scale_hint=b - a)


#: largest poly_bump exponent with a closed-form transform: the series of
#: ``_poly_bump_profile`` loses about 0F1(; k+3/2; (k+2)^2/4) ulps to
#: cancellation, measured 4e-15 at k = 20, 5e-13 at k = 40, 1e-9 at k = 80
_POLY_BUMP_MAX_CLOSED_K = 40


def _poly_bump_profile(z: np.ndarray, k: int) -> np.ndarray:
    """0F1(; k+3/2; -z^2/4) = (2k+1)!! j_k(z) / z^k, even in z.

    For |z| <= k + 2 the 0F1 series in Horner form, summed until the term
    bound at |z| = k + 2 falls below 2^-60.  Above it
    g_n = (2n+1)!! j_n(z) / z^n by the upward recurrence
    g_{n+1} = (2n+3)(2n+1) (g_n - g_{n-1}) / z^2 from g_{-1} = cos z and
    g_0 = sin z / z, which is the stable direction while n < |z|."""
    z = np.abs(z)
    out = np.empty(z.shape)
    low = z <= k + 2.0
    x = -0.25 * z[low] ** 2
    b, x_max = k + 1.5, 0.25 * (k + 2.0) ** 2
    term, terms = 1.0, 0
    while term > 2.0 ** -60 or x_max >= (b + terms) * (terms + 1):
        terms += 1
        term *= x_max / ((b + terms - 1) * terms)
    s = np.ones_like(x)
    for n in range(terms, 0, -1):
        s *= x
        s *= 1.0 / ((b + n - 1) * n)
        s += 1.0
    out[low] = s
    zh = z[~low]
    g_prev, g = np.cos(zh), np.sin(zh) / zh
    inv_z2 = 1.0 / (zh * zh)
    for n in range(k):
        g_prev, g = g, (2 * n + 3) * (2 * n + 1) * inv_z2 * (g - g_prev)
    out[~low] = g
    return out


def poly_bump(a: float = -1.0, b: float = 1.0, k: int = 2) -> TestFunction:
    """Polynomial window (1-u^2)^k on [a,b] (u the affine map to [-1,1]).

    With c and w the midpoint and half-width of [a,b], m0 its mass and
    z = w eta, the transform is
    fhat(eta) = e^{i eta c} m0 0F1(; k+3/2; -z^2/4)
              = e^{i eta c} m0 (2k+1)!! j_k(z) / z^k,
    j_k the spherical Bessel function, evaluated in elementary functions
    (``_poly_bump_profile``) to 1e-12 m0 for k <= 40; above that only the
    numeric transform is offered."""
    _check_ends("poly_bump", a, b)
    k = _integer("poly_bump's integer k", k, least=1)
    c = 0.5 * (a + b)
    w = 0.5 * (b - a)

    def ev(x):
        u = (x - c) / w
        return np.where((x >= a) & (x <= b),
                        np.maximum(0.0, 1.0 - u ** 2) ** k, 0.0)

    m0 = w * math.sqrt(math.pi) * math.gamma(k + 1) / math.gamma(k + 1.5)

    def ft(eta):
        eta = np.asarray(eta, dtype=float)
        return _phase(eta, c) * (m0 * _poly_bump_profile(w * eta, k))

    return TestFunction(ev, f"poly_bump(a={a:g},b={b:g},k={k})", support=(a, b),
                        closed_form_moments=(m0, c * m0),
                        closed_form_fourier=(ft if k <= _POLY_BUMP_MAX_CLOSED_K
                                             else None),
                        scale_hint=b - a)


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
    params = inspect.signature(BUILTINS[name]).parameters
    kwargs = {}
    if argstr.strip():
        for item in argstr.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise ValueError(f"malformed argument {item!r} in {spec!r}")
            key = key.strip()
            if key not in params or key in kwargs:
                what = "repeated" if key in kwargs else "unknown"
                raise ValueError(f"{what} parameter {key!r} in {spec!r}; "
                                 f"{name} takes {list(params)}")
            kwargs[key] = int(val) if key == "k" else float(val)
    return BUILTINS[name](**kwargs)
