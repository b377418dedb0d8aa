"""Independent numerical oracles used to pin expected values.

Everything here avoids the library's own numerical routes: the gamma
function is a hand-rolled Lanczos approximation, the integrals are classic
Romberg (trapezoid + Richardson) on explicitly substituted variables, and
the variance-form oracle is a brute-force tensor-grid trapezoid rule.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import fft as sp_fft

# Lanczos approximation, g = 7, 9 coefficients: relative error well below
# 1e-12 on (0, 3).
_LANCZOS_G = 7.0
_LANCZOS_COEF = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def lanczos_gamma(x: float) -> float:
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * lanczos_gamma(1.0 - x))
    x -= 1.0
    a = _LANCZOS_COEF[0]
    t = x + _LANCZOS_G + 0.5
    for i in range(1, len(_LANCZOS_COEF)):
        a += _LANCZOS_COEF[i] / (x + i)
    return math.sqrt(2 * math.pi) * t ** (x + 0.5) * math.exp(-t) * a


def romberg(f, a: float, b: float, levels: int = 18, tol: float = 1e-12) -> float:
    """Classic Romberg integration with a vectorized integrand."""
    table = []
    n = 1
    xs = np.array([a, b])
    vals = f(xs)
    h = b - a
    total = 0.5 * h * (vals[0] + vals[1])
    table.append([total])
    for k in range(1, levels + 1):
        n *= 2
        h *= 0.5
        xs_new = a + h * np.arange(1, n, 2)
        total = 0.5 * table[-1][0] + h * np.sum(f(xs_new))
        row = [total]
        for m in range(1, k + 1):
            row.append(row[m - 1]
                       + (row[m - 1] - table[-1][m - 1]) / (4.0 ** m - 1.0))
        if k > 3 and abs(row[-1] - table[-1][-1]) < tol * max(1.0, abs(row[-1])):
            return row[-1]
        table.append(row)
    return table[-1][-1]


def oracle_c_h(H: float) -> float:
    """Normalizing constant straight from its closed form, with the
    hand-rolled gamma."""
    if H == 0.5:
        return 1.0
    if H > 0.5:
        num = H * (2 * H - 1) * lanczos_gamma(1.5 - H)
        den = lanczos_gamma(2 - 2 * H) * lanczos_gamma(H - 0.5)
    else:
        num = 2 * H * lanczos_gamma(1.5 - H)
        den = (1 - 2 * H) * lanczos_gamma(1 - 2 * H) * lanczos_gamma(H + 0.5)
    return math.sqrt(num / den)


def oracle_beta1(H: float) -> float:
    return oracle_c_h(H) / (H - 0.5) if H > 0.5 else oracle_c_h(H)


def oracle_beta2(H: float) -> float:
    return oracle_beta1(H) ** 2 / (2 * H)


def oracle_beta3_raw(H: float, s1: float, s2: float) -> float:
    """Brute-force profile integral: Romberg in log-theta from 1e-12 up to
    1e6 plus the analytic theta^(2H-3) tail estimate."""
    a = H - 0.5

    def g(y):
        th = np.exp(y)
        return th * ((th + s1) ** a - (th + s2) ** a) ** 2

    lo, hi = 1e-12, 1e6
    main = romberg(g, math.log(lo), math.log(hi), levels=22, tol=1e-13)
    # [0, lo] sliver
    if min(s1, s2) > 0.0:
        main += lo * (s1 ** a - s2 ** a) ** 2
    elif H < 0.5:
        # one argument vanishes: expand (theta^a - s^a)^2, s = max(s1, s2)
        s = max(s1, s2)
        main += (lo ** (2 * a + 1) / (2 * a + 1)
                 - 2 * s ** a * lo ** (a + 1) / (a + 1) + lo * s ** (2 * a))
    else:
        main += lo * max(s1, s2) ** (2 * a)
    # tail: integrand ~ a^2 (s1-s2)^2 th^(2H-3)
    main += a * a * (s1 - s2) ** 2 * hi ** (2 * H - 2) / (2 - 2 * H)
    return main


def oracle_beta3(H: float, s1: float, s2: float) -> float:
    """Covariance-consistent convention: the |H-1/2|^-2 factor belongs to
    H > 1/2 only (the kernel's time derivative loses it below 1/2)."""
    pref = oracle_c_h(H) ** 2
    if H > 0.5:
        pref /= (H - 0.5) ** 2
    return pref * oracle_beta3_raw(H, s1, s2)


def oracle_kernel(H: float, t: float, s: float) -> float:
    """Moving-average kernel via Romberg on the substituted inner integral."""
    C = oracle_c_h(H)
    if H == 0.5:
        return 1.0 if s < t else 0.0
    if H > 0.5:
        kap = H - 0.5

        def g(w):
            return (s + w ** (1.0 / kap)) ** (H - 0.5)

        I = romberg(g, 0.0, (t - s) ** kap, levels=20, tol=1e-13) / kap
        return C * s ** (0.5 - H) * I
    kap = H + 0.5

    def g2(w):
        return (s + w ** (1.0 / kap)) ** (H - 1.5)

    I = romberg(g2, 0.0, (t - s) ** kap, levels=22, tol=1e-13) / kap
    return C * ((t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
                + (0.5 - H) * s ** (0.5 - H) * I)


def oracle_mu(H: float, r: float, s: float) -> float:
    """int_r^s K^2(s, theta) dtheta by Romberg after y = (s - theta)^(2H),
    which turns the endpoint power K^2 ~ beta1^2 (s-theta)^(2H-1) into a
    finite limit beta1^2/(2H) at y = 0."""
    if H == 0.5:
        return s - r
    p = 1.0 / (2 * H)
    b1 = oracle_beta1(H)

    def g(y):
        out = np.empty_like(y)
        for i, yi in enumerate(y):
            if yi <= 0.0:
                out[i] = b1 * b1 / (2 * H)
                continue
            theta = s - yi ** p
            k = oracle_kernel(H, s, theta)
            out[i] = k * k * p * yi ** (p - 1.0)
        return out

    return romberg(g, 0.0, (s - r) ** (2 * H), levels=12, tol=1e-11)


def _oracle_beta3_table(H: float, pts: int = 600):
    # graded toward 0 where the profile has a fractional-power cusp
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, pts)])
    raw = np.array([oracle_beta3_raw(H, x, 1.0) if x < 1.0 else 0.0
                    for x in xs])
    return xs, raw


def oracle_a_h_tensor(H: float, sigma: float = 1.0, m_s: int = 400,
                      m_z: int = 400, z_max: float = 7.0) -> float:
    """Brute-force tensor-trapezoid evaluation of the variance constant for
    the Gaussian-derivative test function of the given width.

    All three axes are plain midpoint/trapezoid grids: the time-scale plane
    is compactified by s = u/(1-u), and the frequency axis is rescaled per
    node by the local Gaussian width, eta = z * sqrt(2/V), so a fixed z grid
    resolves the weight everywhere.  |F(eta)|^2 = eta^2 exp(-sigma^2 eta^2).
    """
    b1 = oracle_beta1(H)
    b2 = oracle_beta2(H)
    pref = oracle_c_h(H) ** 2
    if H > 0.5:
        pref /= (H - 0.5) ** 2
    xs, raw_tab = _oracle_beta3_table(H)

    u = (np.arange(m_s) + 0.5) / m_s
    s = u / (1.0 - u)
    w = 1.0 / (1.0 - u) ** 2 / m_s
    S1, S2 = np.meshgrid(s, s, indexing="ij")
    lo = np.minimum(S1, S2)
    hi = np.maximum(S1, S2)
    raw = np.interp(lo / hi, xs, raw_tab)
    V = (b2 * (S1 ** (2 * H) + S2 ** (2 * H))
         + pref * hi ** (2 * H) * raw).ravel()

    z = np.linspace(-z_max, z_max, m_z + 1)
    dz = z[1] - z[0]
    wz = np.full(m_z + 1, dz)
    wz[0] = wz[-1] = 0.5 * dz
    # int eta^2 |F|^2 e^{-V eta^2/2} deta, eta = z sqrt(2/V)
    eta = z[:, None] * np.sqrt(2.0 / V)[None, :]
    integrand = eta ** 4 * np.exp(-(sigma ** 2) * eta ** 2) * np.exp(-z[:, None] ** 2)
    inner = np.sqrt(2.0 / V) * np.einsum("q,qn->n", wz, integrand)
    weight = (S1 * S2) ** (H - 0.5)
    total = np.einsum("i,j,ij->", w, w, weight * inner.reshape(S1.shape))
    return b1 * b1 / (2.0 * math.pi) * total


def oracle_a_one_third_s_integral(literal_beta3: bool = True,
                                  pts: int = 2049) -> float:
    """Romberg-style (dense Richardson-free trapezoid refinement) of the
    critical-case profile integral int_0^1 s^(-1/6) (...)^(-5/2) ds after
    the substitution s = u^6, using the tabulated raw profile."""
    H = 1.0 / 3.0
    b2 = oracle_beta2(H)
    pref = oracle_c_h(H) ** 2
    if literal_beta3:
        pref /= (H - 0.5) ** 2
    xs, raw_tab = _oracle_beta3_table(H)

    def g(u):
        s = u ** 6
        b3 = pref * np.interp(s, xs, raw_tab)
        return 6.0 * u ** 4 * (b2 * (1.0 + u ** 4) + b3) ** -2.5

    return romberg(g, 0.0, 1.0, levels=14, tol=1e-11)


def oracle_circulant_paths(H: float, T: float, N: int, count: int,
                           seed: int) -> np.ndarray:
    """Full-spectrum circulant embedding (the construction the library used
    before its half-spectrum kernel): the 2N draws of path i, from the
    substream keyed by (seed, i), fill the whole Hermitian vector Z, and the
    fGn is the real part of its complex FFT against sqrt(lam / 2N)."""
    dt = T / N
    k = np.arange(N + 1, dtype=float)
    gam = 0.5 * dt ** (2 * H) * ((k + 1) ** (2 * H) + np.abs(k - 1) ** (2 * H)
                                 - 2 * k ** (2 * H))
    lam = np.fft.fft(np.concatenate([gam, gam[-2:0:-1]])).real
    scale = np.sqrt(np.maximum(lam, 0.0) / (2 * N))
    draws = np.stack([np.random.default_rng([seed, i]).standard_normal(2 * N)
                      for i in range(count)])
    Z = np.empty((count, 2 * N), dtype=complex)
    Z[:, 0] = draws[:, 0]
    Z[:, N] = draws[:, 1]
    Z[:, 1:N] = (draws[:, 2:N + 1] + 1j * draws[:, N + 1:]) / math.sqrt(2.0)
    Z[:, N + 1:] = np.conj(Z[:, 1:N])[:, ::-1]
    fgn = np.fft.fft(scale[None, :] * Z, axis=1).real[:, :N]
    return np.concatenate([np.zeros((count, 1)), np.cumsum(fgn, axis=1)],
                          axis=1)


def oracle_half_spectrum_values(H: float, T: float, N: int, count: int,
                                seed: int, start: int = 0) -> np.ndarray:
    """The half-spectrum circulant construction one path at a time: the 2N
    draws of path start + i fill one (N+1) complex buffer (real parts d[0],
    d[2..N], d[1], imaginary parts d[N+1..2N-1]) against the amplitudes
    sqrt(lam_k / 2N), divided by sqrt(2) at 0 < k < N, and one real-output
    inverse FFT per path gives its fGn increments."""
    dt = T / N
    k = np.arange(N + 1, dtype=float)
    gam = 0.5 * dt ** (2 * H) * ((k + 1) ** (2 * H) + np.abs(k - 1) ** (2 * H)
                                 - 2 * k ** (2 * H))
    lam = np.fft.fft(np.concatenate([gam, gam[-2:0:-1]])).real[:N + 1]
    amp = np.sqrt(np.maximum(lam, 0.0) / (2 * N))
    amp[1:N] /= math.sqrt(2.0)
    values = np.zeros((count, N + 1))
    buf = np.zeros(N + 1, dtype=complex)
    re, im = buf.real, buf.imag
    for i in range(count):
        d = np.random.default_rng([seed, start + i]).standard_normal(2 * N)
        re[0] = d[0] * amp[0]
        np.multiply(d[2:N + 1], amp[1:N], out=re[1:N])
        re[N] = d[1] * amp[N]
        np.multiply(d[N + 1:], amp[1:N], out=im[1:N])
        np.cumsum(sp_fft.hfft(buf, 2 * N)[:N], out=values[i, 1:])
    return values


def _support_masked(evaluator, a: float, b: float):
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), evaluator(x), 0.0)
    return f


def oracle_indicator(a: float, b: float):
    """The indicator of [a, b] as 1.0 on the support mask."""
    return _support_masked(np.ones_like, a, b)


def oracle_hat(a: float, b: float):
    """The hat 1 - |x - c| / w (c, w the midpoint and half-width of
    [a, b]) clipped at 0 and masked by the support."""
    c, w = 0.5 * (a + b), 0.5 * (b - a)
    return _support_masked(
        lambda x: np.maximum(0.0, 1.0 - np.abs(x - c) / w), a, b)


def oracle_poly_bump(a: float, b: float, k: int):
    """(1 - u^2)^k where |u| <= 1, u = (x - c) / w, masked by the
    support."""
    c, w = 0.5 * (a + b), 0.5 * (b - a)

    def ev(x):
        u = (x - c) / w
        return np.where(np.abs(u) <= 1.0, (1.0 - u ** 2) ** k, 0.0)
    return _support_masked(ev, a, b)


# The built-in evaluators' formulas as one-line expressions.  The evaluators
# compute the same steps in the same operand order into one output array,
# so they must give these bits on every array argument.
def formula_gaussian_bump(sigma: float, center: float):
    s2 = sigma * sigma
    return lambda x: (np.exp(-(x - center) ** 2 / (2 * s2))
                      / math.sqrt(2 * math.pi * s2))


def formula_gaussian_derivative(sigma: float):
    s2 = sigma * sigma
    return lambda x: (-x / s2 * np.exp(-x * x / (2 * s2))
                      / math.sqrt(2 * math.pi * s2))


def formula_indicator(a: float, b: float):
    return lambda x: np.where((x >= a) & (x <= b), 1.0, 0.0)


def formula_hat(a: float, b: float):
    w = 0.5 * (b - a)
    return lambda x: np.maximum(0.0, np.minimum(x - a, b - x)) / w


def oracle_fourier_sum(y, m: int, d: float, kind: str) -> np.ndarray:
    """The symmetric midpoint frequency sum at xi_k = (k + 1/2) d, k < m,
    term by term: sum_k 2 cos(xi_k y) (level) or -2 xi_k sin(xi_k y)
    (derivative)."""
    y = np.asarray(y, dtype=float)
    acc = np.zeros(y.shape)
    for k in range(m):
        xi = (k + 0.5) * d
        acc += (2.0 * np.cos(xi * y) if kind == "level"
                else -2.0 * xi * np.sin(xi * y))
    return acc


def oracle_records(report) -> list[dict]:
    """The per-path records as the dict list the report stands for: every
    column broadcast to [f, n, t, path], the axes taken from the config,
    one dict per record in the order f, n, t, path."""
    config = report.config
    labels = [fn.label for fn in config.functions()]
    shape = (len(labels), len(config.n_ladder), len(config.t_list),
             config.path_count)
    cols = {k: np.broadcast_to(v, shape).tolist()
            for k, v in report.per_path.columns.items()}
    return [{"path": i, "f": label, "n": n, "t": t,
             **{k: v[i_f][i_n][it][i] for k, v in cols.items()}}
            for i_f, label in enumerate(labels)
            for i_n, n in enumerate(config.n_ladder)
            for it, t in enumerate(config.t_list)
            for i in range(config.path_count)]


def oracle_serialize_report(report, fmt: str = "json") -> bytes:
    """The report bytes as ``json.dumps`` writes the dict records (JSON),
    or as ``csv.writer`` writes one row per record, with the statistic and
    the local-time columns (``L``, and ``Lp`` for the derivative kind)
    found by probing the first record (CSV)."""
    records = oracle_records(report)
    if fmt == "json":
        payload = {
            "kind": report.kind,
            "config": report.config.to_dict(),
            "per_path": records,
            "aggregates": report.aggregates,
            "audit": report.audit,
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
    val_key = "Z" if "Z" in records[0] else "e"
    local = [k for k in ("L", "Lp") if k in records[0]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "f", "n", "t", "value", *local])
    for rec in records:
        writer.writerow([rec[k] for k in ("path", "f", "n", "t", val_key,
                                          *local)])
    return buf.getvalue().encode()
