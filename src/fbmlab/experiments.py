"""Monte Carlo experiments on the compensated additive functionals.

``clt_experiment`` measures, along a ladder of scale parameters n, the mean
of the compensated functional Z, the regression slope of Z^2 on the
estimated local time (an estimate of the limit variance), and a
characteristic-function distance to the mixed-Gaussian law.
``derivative_experiment`` measures the L2 error of the second-order
expansion against the local-time derivative in the rough regime H < 1/3.

Monte Carlo bytes are deterministic in (config, seed): every path draws
from its own substream keyed by (seed, path index) and reductions run in
path order, so the serialized bytes do not depend on the worker count.
Quadrature-derived numbers are written only to the precision their error
estimate certifies: the supercritical ``a_hat`` is rounded at the decade of
``a_hat_error``, so its bytes do not depend on the numerical build either.
"""
from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .constants import ell, regime_of, Regime
from .errors import CostGuardError
from .fbm import CHOLESKY_MAX_N, VALUE_METHODS, FbmPath, sample_values
from .limits import QuadConfig, QuadResult, a_h, a_one_third
from .localtime import heat_kernel, heat_kernel_prime, mollified_local_time
from .testfuncs import TestFunction, from_spec, in_xi, moments

__all__ = [
    "ExperimentConfig", "ExperimentReport", "UndersamplingWarning",
    "scaled_additive_functional", "compensated_functional_Z",
    "clt_experiment", "derivative_experiment",
    "serialize_report", "deserialize_report", "default_output_name",
]


class UndersamplingWarning(UserWarning):
    """The scaled test function varies below the path's per-step motion."""


def _epsilon(policy: str, dt: float, H: float, n: int) -> float:
    """Mollifier bandwidth: matched to the grid-scale motion by default."""
    if policy == "dt2h":
        return dt ** (2 * H)
    if policy == "n2h":
        return float(n) ** (-2 * H)
    if policy.startswith("fixed:"):
        val = float(policy.split(":", 1)[1])
        if val <= 0:
            raise ValueError("fixed eps must be positive")
        return val
    raise ValueError(f"unknown eps policy {policy!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    H: float
    f: tuple[str, ...] = ("gaussian_derivative:sigma=1",)
    lam: float = 0.0
    t_list: tuple[float, ...] = (1.0,)
    n_ladder: tuple[int, ...] = (64, 256, 1024)
    path_count: int = 1000
    grid_per_unit: int = 4096
    seed: int = 0
    eps_policy: str = "dt2h"
    method: str = "circulant"
    threads: int = 1
    batch_size: int = 256
    cost_guard: float = 2.0 ** 26
    output_path: Optional[str] = None

    def __post_init__(self):
        if isinstance(self.f, str):
            object.__setattr__(self, "f", (self.f,))
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "t_list", tuple(float(t) for t in self.t_list))
        object.__setattr__(self, "n_ladder", tuple(int(n) for n in self.n_ladder))
        if any(b >= a for a, b in zip(self.n_ladder[1:], self.n_ladder)):
            raise ValueError("n_ladder must be strictly increasing")
        if min(self.n_ladder) < 2:
            raise ValueError("scale parameters must be >= 2")
        if self.path_count < 1:
            raise ValueError("path_count must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.method not in VALUE_METHODS:
            raise ValueError(f"experiments run {VALUE_METHODS} synthesis, "
                             f"not {self.method!r}")
        if not self.t_list or min(self.t_list) <= 0:
            raise ValueError("t_list must contain positive times")
        if self.method == "cholesky" and self.grid_points > CHOLESKY_MAX_N:
            raise ValueError(f"cholesky synthesis is limited to "
                             f"{CHOLESKY_MAX_N} grid points")
        load = self.grid_points * max(self.n_ladder) * max(self.t_list)
        if load > self.cost_guard:
            raise CostGuardError(
                f"configuration load {load:.3g} exceeds the cost guard "
                f"{self.cost_guard:.3g} (grid x max scale x horizon)")

    @property
    def horizon(self) -> float:
        return max(self.t_list)

    @property
    def grid_points(self) -> int:
        return int(round(self.grid_per_unit * self.horizon))

    def epsilon(self, n: int) -> float:
        return _epsilon(self.eps_policy, self.horizon / self.grid_points,
                        self.H, n)

    def functions(self) -> list[TestFunction]:
        return [from_spec(s) for s in self.f]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        d["f"] = list(self.f)
        d["t_list"] = list(self.t_list)
        d["n_ladder"] = list(self.n_ladder)
        # execution knobs do not affect any number and are not echoed, so
        # reruns with a different worker count serialize byte-identically
        d.pop("threads")
        d.pop("batch_size")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        return cls(**d)


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: ExperimentConfig
    per_path: tuple
    aggregates: dict
    audit: dict

    def __eq__(self, other):
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        # configs compare through their serialized form (execution knobs
        # such as the worker count are not part of a report's identity)
        return (self.kind == other.kind
                and self.config.to_dict() == other.config.to_dict()
                and list(self.per_path) == list(other.per_path)
                and self.aggregates == other.aggregates
                and self.audit == other.audit)


def _grid_index(t: float, dt: float, n_points: int) -> int:
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-9 * max(t, dt) or not (0 <= k <= n_points):
        raise ValueError(f"time {t} does not lie on the grid (dt={dt})")
    return k


def _trapz_prefix(y: np.ndarray, dt: float, k: int) -> np.ndarray:
    """Trapezoid integral of y[..., :k+1] along the last axis."""
    if k == 0:
        return np.zeros(y.shape[:-1])
    seg = y[..., :k + 1]
    return (seg.sum(axis=-1) - 0.5 * (seg[..., 0] + seg[..., -1])) * dt


def scaled_additive_functional(path: FbmPath, f: TestFunction, lam: float,
                               n: int, t: float) -> float:
    """Trapezoidal integral of f(n^H (B_s - lam)) up to time t."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _grid_index(t, path.dt, path.N)
    x = n ** path.H * (path.values - lam)
    step = n ** path.H * float(np.median(np.abs(np.diff(path.values))))
    if step > f.scale_hint:
        warnings.warn(
            f"scaled per-step motion {step:.3g} exceeds the test function "
            f"scale {f.scale_hint:.3g}: functional is undersampled",
            UndersamplingWarning)
    return float(_trapz_prefix(f(x), path.dt, k))


def compensated_functional_Z(path: FbmPath, f: TestFunction, lam: float,
                             n: int, t: float,
                             eps_policy: str = "dt2h") -> float:
    """n^{(H+1)/2} ell_n ( functional - n^{-H} Lhat_t(lam) int f ).

    For zero-mass f the compensator vanishes identically and the bandwidth
    policy is inert.  For mass-carrying f the scaled functional is itself a
    smoothed local time at spatial scale n^-H, so the ``n2h`` policy (mollify
    at n^{-2H}) keeps the subtraction bias-free at finite n; it cancels
    pathwise exactly when f is the unit Gaussian bump at the probed level.
    """
    H = path.H
    if regime_of(H) is Regime.SUBCRITICAL:
        raise ValueError("compensated functional is defined for H >= 1/3")
    func = scaled_additive_functional(path, f, lam, n, t)
    m0 = moments(f)[0]
    comp = 0.0
    if m0 != 0.0:
        curve = mollified_local_time(path, lam,
                                     _epsilon(eps_policy, path.dt, H, n))
        k = _grid_index(t, path.dt, path.N)
        comp = n ** (-H) * float(curve.values[k]) * m0
    return n ** ((H + 1) / 2) * ell(n, H) * (func - comp)


def _simulate_batches(config: ExperimentConfig, worker):
    """Run `worker(start_index, values_matrix)` over path batches, possibly
    in threads; results must be written into per-path slots by index."""
    M = config.path_count
    bs = config.batch_size
    starts = list(range(0, M, bs))

    def run(start):
        count = min(bs, M - start)
        worker(start, _batch_values(config, start, count))

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)


def _batch_values(config: ExperimentConfig, start: int, count: int) -> np.ndarray:
    return sample_values(config.H, config.horizon, config.grid_points, count,
                         config.seed, start=start, method=config.method)


def _check_regime_functions(config: ExperimentConfig, fs, need_w: float):
    for fn in fs:
        if not in_xi(fn, need_w):
            raise ValueError(f"{fn.label} fails the weight-{need_w:g} "
                             "integrability requirement for this regime")


def _certified(q: QuadResult) -> tuple[float, float]:
    """Value rounded at the decade of its error estimate, and the error to
    two significant digits; a zero error leaves the value as it is."""
    if q.error <= 0:
        return q.value, q.error
    return (round(q.value, -math.floor(math.log10(q.error))),
            float(f"{q.error:.2g}"))


def clt_experiment(config: ExperimentConfig,
                   quad_config: Optional[QuadConfig] = None) -> ExperimentReport:
    """Mixed-Gaussian limit experiment for H >= 1/3.

    For H > 1/3 the limit variance ``a_hat[label]`` comes from ``a_h`` and
    is written at the precision its quadrature error certifies; the error
    itself is reported as ``a_hat_error[label]``, and ``cf_distance`` and
    ``cross_time.predicted`` are computed from the rounded value.  At the
    critical point ``a_one_third`` carries no error estimate, so ``a_hat`` is
    written as computed and no ``a_hat_error`` is reported."""
    H = config.H
    reg = regime_of(H)
    if reg is Regime.SUBCRITICAL:
        raise ValueError("clt_experiment requires H >= 1/3")
    if config.path_count < 1:
        raise ValueError("empty experiment")
    fs = config.functions()
    _check_regime_functions(config, fs, 2.0 if reg is Regime.CRITICAL else 1.0)

    dt = config.horizon / config.grid_points
    t_idx = [_grid_index(t, dt, config.grid_points) for t in config.t_list]
    m0s = [moments(fn)[0] for fn in fs]
    M = config.path_count

    # limit-variance estimates used by the characteristic-function distance
    a_hat, a_hat_error = {}, {}
    for fn in fs:
        if reg is Regime.CRITICAL:
            a_hat[fn.label] = a_one_third(fn, fn)
        else:
            a_hat[fn.label], a_hat_error[fn.label] = _certified(
                a_h(fn, fn, H, quad_config))

    nf, nn, nt = len(fs), len(config.n_ladder), len(config.t_list)
    Z = np.zeros((nf, nn, nt, M))
    L = np.zeros((nt, M))

    def worker(start, values):
        count = values.shape[0]
        sl = slice(start, start + count)
        eps = config.epsilon(max(config.n_ladder))
        dens = heat_kernel(eps, values - config.lam)
        for it, k in enumerate(t_idx):
            L[it, sl] = _trapz_prefix(dens, dt, k)
        for i_f, fn in enumerate(fs):
            for i_n, n in enumerate(config.n_ladder):
                scaled = fn(n ** H * (values - config.lam))
                pref = n ** ((H + 1) / 2) * ell(n, H)
                for it, k in enumerate(t_idx):
                    func = _trapz_prefix(scaled, dt, k)
                    comp = n ** (-H) * L[it, sl] * m0s[i_f]
                    Z[i_f, i_n, it, sl] = pref * (func - comp)

    _simulate_batches(config, worker)

    per_path = []
    for i_f, fn in enumerate(fs):
        for i_n, n in enumerate(config.n_ladder):
            for it, t in enumerate(config.t_list):
                for i in range(M):
                    per_path.append({
                        "path": i, "f": fn.label, "n": n, "t": t,
                        "Z": float(Z[i_f, i_n, it, i]),
                        "L": float(L[it, i]),
                    })

    aggregates: dict = {"a_hat": a_hat, "mean_Z": {}, "slope_Z2_on_L": {},
                        "cf_distance": {}, "cross_time": {}}
    if a_hat_error:
        aggregates["a_hat_error"] = a_hat_error
    for i_f, fn in enumerate(fs):
        lbl = fn.label
        A = a_hat[lbl]
        for agg in ("mean_Z", "slope_Z2_on_L", "cf_distance", "cross_time"):
            aggregates[agg][lbl] = {}
        for i_n, n in enumerate(config.n_ladder):
            key = str(n)
            mz, sz, cf = {}, {}, {}
            for it, t in enumerate(config.t_list):
                z = Z[i_f, i_n, it]
                lt = L[it]
                mz[str(t)] = {"mean": float(z.mean()),
                              "se": float(z.std(ddof=1) / math.sqrt(M))}
                denom = float((lt * lt).sum())
                sz[str(t)] = float((z * z * lt).sum() / denom) if denom else 0.0
                scale = math.sqrt(max(A * lt.mean(), 1e-300))
                thetas = np.linspace(0.2, 3.0, 16) / scale
                emp = np.cos(thetas[:, None] * z[None, :]).mean(axis=1)
                mix = np.exp(-0.5 * thetas[:, None] ** 2 * A
                             * lt[None, :]).mean(axis=1)
                cf[str(t)] = float(np.abs(emp - mix).max())
            aggregates["mean_Z"][lbl][key] = mz
            aggregates["slope_Z2_on_L"][lbl][key] = sz
            aggregates["cf_distance"][lbl][key] = cf
            cross = {}
            for it1 in range(nt):
                for it2 in range(it1 + 1, nt):
                    t1, t2 = config.t_list[it1], config.t_list[it2]
                    z1, z2 = Z[i_f, i_n, it1], Z[i_f, i_n, it2]
                    it_min = it1 if t1 <= t2 else it2
                    cross[f"{t1:g},{t2:g}"] = {
                        "emp_cov": float(np.mean(z1 * z2)),
                        "predicted": float(A * L[it_min].mean()),
                    }
            if cross:
                aggregates["cross_time"][lbl][key] = cross

    return ExperimentReport(
        kind="clt", config=config, per_path=tuple(per_path),
        aggregates=aggregates, audit=_audit(config))


def derivative_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Local-time-derivative limit experiment for H < 1/3: per-path error
    e_n of the second-order expansion and its L2 norm along the ladder.

    The expansion compensates with the spatial derivative of the level
    curve, d/dlam Lhat_t(lam); per-path records expose it as ``Lp``.  (It is
    the negative of the mollified derivative-kind estimator, which
    integrates the heat-kernel derivative in the path argument.)
    """
    H = config.H
    if regime_of(H) is not Regime.SUBCRITICAL:
        raise ValueError("derivative_experiment requires H < 1/3")
    fs = config.functions()
    _check_regime_functions(config, fs, 1.0 + 1.0)  # weight 1+nu with nu=1

    dt = config.horizon / config.grid_points
    t_idx = [_grid_index(t, dt, config.grid_points) for t in config.t_list]
    mom = [moments(fn) for fn in fs]
    M = config.path_count
    nf, nn, nt = len(fs), len(config.n_ladder), len(config.t_list)
    E = np.zeros((nf, nn, nt, M))
    L = np.zeros((nt, M))
    Lp = np.zeros((nt, M))

    def worker(start, values):
        count = values.shape[0]
        sl = slice(start, start + count)
        eps = config.epsilon(max(config.n_ladder))
        x = values - config.lam
        dens = heat_kernel(eps, x)
        # d/dlam of p_eps(B - lam) is -p'_eps(B - lam)
        dens_p = -heat_kernel_prime(eps, x)
        for it, k in enumerate(t_idx):
            L[it, sl] = _trapz_prefix(dens, dt, k)
            Lp[it, sl] = _trapz_prefix(dens_p, dt, k)
        for i_f, fn in enumerate(fs):
            m0, m1 = mom[i_f]
            for i_n, n in enumerate(config.n_ladder):
                scaled = fn(n ** H * x)
                for it, k in enumerate(t_idx):
                    func = _trapz_prefix(scaled, dt, k)
                    E[i_f, i_n, it, sl] = (n ** H * (n ** H * func
                                                     - L[it, sl] * m0)
                                           - Lp[it, sl] * m1)

    _simulate_batches(config, worker)

    per_path = []
    for i_f, fn in enumerate(fs):
        for i_n, n in enumerate(config.n_ladder):
            for it, t in enumerate(config.t_list):
                for i in range(M):
                    per_path.append({
                        "path": i, "f": fn.label, "n": n, "t": t,
                        "e": float(E[i_f, i_n, it, i]),
                        "L": float(L[it, i]), "Lp": float(Lp[it, i]),
                    })

    aggregates: dict = {"l2_error": {}, "loglog_slope": {}, "moments": {}}
    for i_f, fn in enumerate(fs):
        lbl = fn.label
        aggregates["moments"][lbl] = {"m0": mom[i_f][0], "m1": mom[i_f][1]}
        l2 = {}
        slopes = {}
        for it, t in enumerate(config.t_list):
            per_n = {}
            for i_n, n in enumerate(config.n_ladder):
                per_n[str(n)] = float(np.sqrt(np.mean(E[i_f, i_n, it] ** 2)))
            l2[str(t)] = per_n
            xs = np.log(np.asarray(config.n_ladder, dtype=float))
            ys = np.log(np.maximum([per_n[str(n)] for n in config.n_ladder],
                                   1e-300))
            slopes[str(t)] = float(np.polyfit(xs, ys, 1)[0])
        aggregates["l2_error"][lbl] = l2
        aggregates["loglog_slope"][lbl] = slopes

    return ExperimentReport(
        kind="derivative", config=config, per_path=tuple(per_path),
        aggregates=aggregates, audit=_audit(config))


def _audit(config: ExperimentConfig) -> dict:
    return {
        "rng": "per-path substreams keyed by (seed, path_index)",
        "reduction": "path-indexed slots, order-independent",
        "path_count": config.path_count,
        "seed": config.seed,
    }


def serialize_report(report: ExperimentReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        payload = {
            "kind": report.kind,
            "config": report.config.to_dict(),
            "per_path": list(report.per_path),
            "aggregates": report.aggregates,
            "audit": report.audit,
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
    if fmt == "csv":
        if not report.per_path:
            return b"path,f,n,t,value,L\n"
        keys = ["path", "f", "n", "t"]
        val_key = "Z" if "Z" in report.per_path[0] else "e"
        lines = ["path,f,n,t,value,L"]
        for rec in report.per_path:
            lines.append(",".join([str(rec[k]) for k in keys]
                                  + [repr(rec[val_key]), repr(rec["L"])]))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def deserialize_report(data: bytes, fmt: str = "json") -> ExperimentReport:
    if fmt != "json":
        raise ValueError("only the json format round-trips")
    payload = json.loads(data.decode())
    return ExperimentReport(
        kind=payload["kind"],
        config=ExperimentConfig.from_dict(payload["config"]),
        per_path=tuple(payload["per_path"]),
        aggregates=payload["aggregates"],
        audit=payload["audit"],
    )


def default_output_name(kind: str, H: float, seed: int) -> str:
    return f"{kind}_{H:g}_{seed}.json"
