"""Monte Carlo experiments on the compensated additive functionals.

``clt_experiment`` measures, along a ladder of scale parameters n, the mean
of the compensated functional Z, the regression slope of Z^2 on the
estimated local time (an estimate of the limit variance), and a
characteristic-function distance to the mixed-Gaussian law.
``derivative_experiment`` measures the L2 error of the second-order
expansion against the local-time derivative in the rough regime H < 1/3.

Both experiments and the two single-path functions call one kernel,
``_functionals``, which evaluates f(n^H (B - lam)) and the mollified local
time along the rows of a value matrix.  Memory has one unit, the FFT group
of synthesis; ``fbm`` describes its buffers and how the experiments reuse
them.  Each batch of ``batch_size`` paths allocates one set, and the
kernel's scratch (B - lam, n^H (B - lam) and the heat-kernel values) lies
over the spent draws and half spectrum of each group.  A worker holds
those buffers and the evaluation temporaries of one group, whatever
``batch_size`` and ``path_count`` are: a tracemalloc peak of 3-7 MB on
grids of 2^12 to 2^17 steps, and ``threads`` workers hold that much each.
``batch_size`` only bounds the paths in one unit of work.

Each n is compensated at its own bandwidth ``config.epsilon(n)``: under
``n2h`` it differs per n, and every record of ``clt_experiment`` equals
``compensated_functional_Z`` of its path (both call ``_compensated``).  The
kernel integrates in time by ``localtime.trapezoid_prefixes``, whose bits
at a grid index do not depend on the other indices or rows: at a record's
grid index k its ``L`` is bitwise ``mollified_local_time(path, lam,
config.epsilon(n)).values[k]``, and ``Lp`` minus the derivative kind's.

Monte Carlo bytes are deterministic in (config, seed): every path draws
from its own substream keyed by (seed, path index) and reductions run in
path order, so the serialized bytes do not depend on the worker count, the
batch size or the groups.
Quadrature-derived numbers are written only to the precision their error
estimate certifies: the supercritical ``a_hat`` is rounded at the decade of
``a_hat_error``, so its bytes do not depend on the numerical build either.

A report keeps its per-path data as the kernel's arrays (``PerPath``): the
statistic (``Z`` or ``e``) indexed ``[f, n, t, path]`` and the local-time
columns (``L``, ``Lp``) indexed ``[n, t, path]``.  ``serialize_report``
writes the records straight from these columns, with the bytes
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` gives for a list
of record dicts: keys sorted, floats as ``float.__repr__`` (non-finite ones
as json's ``NaN``, ``Infinity``, ``-Infinity``), records in the order
f, n, t, path.
"""
from __future__ import annotations

import io
import json
import math
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, field, fields
from itertools import combinations, product
from typing import Iterator, Optional

import numpy as np

from .constants import _integer, _real, ell, regime_of, Regime
from .errors import CostGuardError
from .fbm import (VALUE_METHODS, FbmPath, SynthesisBuffers, _check_request,
                  group_rows, sample_values)
from .limits import QuadResult, a_h, a_one_third
from .localtime import (_check_eps, heat_kernel, heat_kernel_prime,
                        trapezoid_prefixes)
from .testfuncs import TestFunction, from_spec, moments, require_xi

__all__ = [
    "ExperimentConfig", "ExperimentReport", "PerPath", "UndersamplingWarning",
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
        _check_eps(val)
        return val
    raise ValueError(f"unknown eps policy {policy!r}")


def _usable_cpus() -> int:
    """The CPUs this process may run on: the default worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    threads: int = field(default_factory=_usable_cpus)
    batch_size: int = 256
    cost_guard: float = 2.0 ** 26
    output_path: Optional[str] = None

    def __post_init__(self):
        if isinstance(self.f, str):
            object.__setattr__(self, "f", (self.f,))
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "lam", _real("lambda", self.lam))
        object.__setattr__(self, "t_list", tuple(
            _real("a t_list time", t) for t in self.t_list))
        object.__setattr__(self, "n_ladder", tuple(
            _integer("an n_ladder entry", n, least=2) for n in self.n_ladder))
        # seed and path_count get their bounds from _check_request below
        for name, least in {"seed": None, "path_count": None,
                            "grid_per_unit": None, "batch_size": 1,
                            "threads": 1}.items():
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name), least))
        for name, value in (*(("an f entry", s) for s in self.f),
                            ("eps_policy", self.eps_policy),
                            ("method", self.method)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a str, got "
                                 f"{type(value).__name__} {value!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise ValueError(f"output_path must be a str or null, got "
                             f"{type(self.output_path).__name__} "
                             f"{self.output_path!r}")
        if isinstance(self.cost_guard, float) and math.isnan(self.cost_guard):
            raise ValueError("cost_guard must not be NaN")
        if not _real("cost_guard", self.cost_guard) > 0:
            raise ValueError(f"cost_guard must be positive, got "
                             f"{self.cost_guard!r}")
        if not self.n_ladder:
            raise ValueError("n_ladder must name at least one scale")
        if any(b >= a for a, b in zip(self.n_ladder[1:], self.n_ladder)):
            raise ValueError("n_ladder must be strictly increasing")
        if self.method not in VALUE_METHODS:
            raise ValueError(f"experiments run {VALUE_METHODS} synthesis, "
                             f"not {self.method!r}")
        if not self.t_list or min(self.t_list) <= 0:
            raise ValueError("t_list must contain positive times")
        if len(set(self.t_list)) < len(self.t_list):
            # aggregates are keyed by time: a repeated one would overwrite
            raise ValueError(f"t_list times must be distinct, got "
                             f"{list(self.t_list)}")
        labels = [fn.label for fn in self.functions()]
        if not labels:
            raise ValueError("f must name at least one test function")
        if len(set(labels)) < len(labels):
            raise ValueError(f"test function labels must be distinct, got "
                             f"{labels}")
        if self.grid_points < 1:
            raise ValueError("grid_per_unit must give at least one grid step")
        _check_request(self.H, self.horizon, self.grid_points,
                       self.path_count, self.method, self.seed)
        self.t_indices()                  # raises for a time off the grid
        self.epsilon(self.n_ladder[-1])   # raises for an unknown eps policy
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

    def t_indices(self) -> list[int]:
        """Grid index of each time in ``t_list``; off-grid times raise."""
        dt = self.horizon / self.grid_points
        return [_grid_index(t, dt, self.grid_points) for t in self.t_list]

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
        """The config a JSON object spells (``lambda`` for ``lam``); any other
        payload, an unknown key or a mistyped value raises ``ValueError``."""
        if not isinstance(d, dict):
            raise ValueError(f"an experiment config is a JSON object, not "
                             f"{type(d).__name__}")
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        unknown = sorted(set(d) - {fl.name for fl in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment config keys: {unknown}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ValueError(f"bad experiment config value: {exc}") from exc


#: per report kind, its value columns; the first is indexed [f, n, t, path],
#: the others, which do not depend on f, [n, t, path]
_COLUMNS = {"clt": ("Z", "L"), "derivative": ("e", "L", "Lp")}


@dataclass(frozen=True, eq=False)
class PerPath(Sequence):
    """Per-path records held as columns.

    ``columns`` maps each value key to an array indexed ``[f, n, t, path]``
    or, for a value that does not depend on f, ``[n, t, path]``; the f, n
    and t axes are ``labels``, ``n_ladder`` and ``t_list``.  As a sequence
    it is the records in the order f, n, t, path, each a dict with the keys
    ``path``, ``f`` (the label), ``n``, ``t`` and one per column."""

    labels: tuple[str, ...]
    n_ladder: tuple[int, ...]
    t_list: tuple[float, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        shape = (len(self.labels), len(self.n_ladder), len(self.t_list))
        paths = {a.shape[-1] for a in self.columns.values()}
        if len(paths) != 1 or any(a.shape[:-1] not in (shape, shape[1:])
                                  for a in self.columns.values()):
            raise ValueError(f"columns must be shaped {shape} or {shape[1:]} "
                             f"plus one common path axis")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """(functions, scales, times, paths)"""
        return (len(self.labels), len(self.n_ladder), len(self.t_list),
                next(iter(self.columns.values())).shape[-1])

    def block(self, key: str, i_f: int, i_n: int, i_t: int) -> np.ndarray:
        """Column ``key`` over the paths at one (f, n, t)."""
        col = self.columns[key]
        return col[i_f, i_n, i_t] if col.ndim == 4 else col[i_n, i_t]

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, i: int) -> dict:
        if not -len(self) <= i < len(self):
            raise IndexError("record index out of range")
        i_f, i_n, i_t, p = np.unravel_index(i % len(self), self.shape)
        return {"path": int(p), "f": self.labels[i_f], "n": self.n_ladder[i_n],
                "t": self.t_list[i_t], **{
                    k: float(self.block(k, i_f, i_n, i_t)[p])
                    for k in self.columns}}

    def __iter__(self) -> Iterator[dict]:
        for (i_f, f), (i_n, n), (i_t, t) in product(
                enumerate(self.labels), enumerate(self.n_ladder),
                enumerate(self.t_list)):
            values = {k: self.block(k, i_f, i_n, i_t).tolist()
                      for k in self.columns}
            for p in range(self.shape[-1]):
                yield {"path": p, "f": f, "n": n, "t": t,
                       **{k: v[p] for k, v in values.items()}}

    def __eq__(self, other):
        if not isinstance(other, PerPath):
            return NotImplemented
        return ((self.labels, self.n_ladder, self.t_list)
                == (other.labels, other.n_ladder, other.t_list)
                and self.columns.keys() == other.columns.keys()
                and all(np.array_equal(a, other.columns[k], equal_nan=True)
                        for k, a in self.columns.items()))


@dataclass(frozen=True)
class ExperimentReport:
    """An experiment's result.  ``per_path`` holds the per-path data as
    columns (see ``PerPath``): the statistic, ``Z`` for the clt kind and
    ``e`` for the derivative kind, indexed ``[f, n, t, path]``, and ``L``
    (with ``Lp`` for the derivative kind) indexed ``[n, t, path]``.

    ``serialize_report`` writes the report as the bytes of
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` plus a
    newline, where ``payload["per_path"]`` lists one dict per record in the
    order f, n, t, path: floats are written as ``float.__repr__`` and
    non-finite ones as ``NaN``, ``Infinity`` and ``-Infinity``."""

    kind: str
    config: ExperimentConfig
    per_path: PerPath
    aggregates: dict
    audit: dict

    def __eq__(self, other):
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        # configs compare through their serialized form (execution knobs
        # such as the worker count are not part of a report's identity)
        return (self.kind == other.kind
                and self.config.to_dict() == other.config.to_dict()
                and self.per_path == other.per_path
                and self.aggregates == other.aggregates
                and self.audit == other.audit)


def _grid_index(t: float, dt: float, n_points: int) -> int:
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-9 * max(t, dt) or not (0 <= k <= n_points):
        raise ValueError(f"time {t} does not lie on the grid (dt={dt})")
    return k


def _functionals(values: np.ndarray, fs, H: float, lam: float, ns, eps,
                 t_idx, dt: float, spent: SynthesisBuffers,
                 slope: bool = False):
    """The functional kernel: along each row of the ``(rows, N+1)`` value
    matrix, the trapezoid prefixes ``F[f, n, t, row]`` of f(n^H (B - lam))
    and the mollified local time ``L[n, t, row]`` at bandwidth ``eps[n]``;
    with ``slope`` also ``Lp[n, t, row]``, its lam-derivative (else None).
    An empty ``eps`` skips the local time.  The heat kernel runs once per
    distinct bandwidth.  Its three scratch matrices, B - lam, n^H (B - lam)
    and the heat-kernel values, lie over the spent draws and half spectrum
    of ``spent``, synthesis buffers for N steps and at least ``rows`` rows;
    the caller passes one FFT group of rows, so the evaluators' temporaries
    are that small too."""
    rows, width = values.shape
    halves = spent.buf[:rows].view(float)
    x, nx, kern = spent.d[:rows, :width], halves[:, :width], halves[:, width:]
    np.subtract(values, lam, out=x)
    F = np.empty((len(fs), len(ns), len(t_idx), rows))
    L = np.empty((len(eps), len(t_idx), rows))
    Lp = np.empty_like(L) if slope else None
    for e in dict.fromkeys(eps):
        same = [i for i, v in enumerate(eps) if v == e]
        L[same] = trapezoid_prefixes(heat_kernel(e, x, out=kern), dt,
                                     t_idx).T
        if slope:
            # d/dlam of p_eps(B - lam) is -p'_eps(B - lam)
            Lp[same] = trapezoid_prefixes(np.negative(
                heat_kernel_prime(e, x, out=kern), out=kern), dt, t_idx).T
    for i_f, fn in enumerate(fs):
        for i_n, n in enumerate(ns):
            F[i_f, i_n] = trapezoid_prefixes(
                fn(np.multiply(x, n ** H, out=nx)), dt, t_idx).T
    return F, L, Lp


def _path_functional(path: FbmPath, f: TestFunction, lam: float, n: int,
                     t: float, eps=()) -> tuple[np.ndarray, np.ndarray]:
    """One-row call of the kernel: its ``F`` and, at a bandwidth given in
    ``eps``, its ``L``, at time t."""
    n, t, lam = _real("n", n), _real("t", t), _real("lambda", lam)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    k = _grid_index(t, path.dt, path.N)
    step = n ** path.H * float(np.median(np.abs(np.diff(path.values))))
    if step > f.scale_hint:
        warnings.warn(
            f"scaled per-step motion {step:.3g} exceeds the test function "
            f"scale {f.scale_hint:.3g}: functional is undersampled",
            UndersamplingWarning)
    return _functionals(path.values[None], [f], path.H, lam, [n], eps, [k],
                        path.dt, SynthesisBuffers(path.N, 1))[:2]


def scaled_additive_functional(path: FbmPath, f: TestFunction, lam: float,
                               n: int, t: float) -> float:
    """Trapezoidal integral of f(n^H (B_s - lam)) up to time t."""
    return _path_functional(path, f, lam, n, t)[0].item()


def compensated_functional_Z(path: FbmPath, f: TestFunction, lam: float,
                             n: int, t: float,
                             eps_policy: str = "dt2h") -> float:
    """n^{(H+1)/2} ell_n ( functional - n^{-H} Lhat_t(lam) int f ).

    For zero-mass f the compensator vanishes identically and the bandwidth
    policy is inert.  For mass-carrying f the scaled functional is itself a
    smoothed local time at spatial scale n^-H, so the ``n2h`` policy (mollify
    at n^{-2H}) keeps the subtraction bias-free at finite n; it cancels
    pathwise exactly when f is the unit Gaussian bump at the probed level.
    ``clt_experiment`` records this value exactly, under every policy.
    """
    H = path.H
    if regime_of(H) is Regime.SUBCRITICAL:
        raise ValueError("compensated functional is defined for H >= 1/3")
    F, L = _path_functional(path, f, lam, n, t,
                            [_epsilon(eps_policy, path.dt, H, n)])
    return _compensated(F, L, [f], [n], H).item()


def _simulate_batches(config: ExperimentConfig, worker):
    """Run ``worker(start_index, values_matrix, buffers)`` over the paths.
    Each batch of ``batch_size`` paths is one unit of work, possibly on a
    pool thread: it allocates the synthesis buffers of one FFT group once,
    then draws its paths one group at a time and hands each group, with the
    buffers whose draws and spectrum it has spent, to the worker before
    drawing the next.  Results must be written into per-path slots by
    index."""
    M, N = config.path_count, config.grid_points
    bs = config.batch_size
    starts = list(range(0, M, bs))

    def run(start):
        stop = min(start + bs, M)
        out = SynthesisBuffers(N, group_rows(N, stop - start))
        rows = out.values.shape[0]
        for g in range(start, stop, rows):
            worker(g, _batch_values(config, g, min(rows, stop - g), out), out)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)


def _batch_values(config: ExperimentConfig, start: int, count: int,
                  out: SynthesisBuffers) -> np.ndarray:
    return sample_values(config.H, config.horizon, config.grid_points, count,
                         config.seed, start=start, method=config.method,
                         out=out)


def _simulate(config: ExperimentConfig, fs, slope: bool):
    """The kernel's ``F``, ``L`` and ``Lp`` over all paths, each n with its
    own bandwidth ``config.epsilon(n)``; the path axis is last."""
    ns = config.n_ladder
    F = np.empty((len(fs), len(ns), len(config.t_list), config.path_count))
    L, Lp = np.empty(F.shape[1:]), (np.empty(F.shape[1:]) if slope else None)
    eps, t_idx = [config.epsilon(n) for n in ns], config.t_indices()

    def worker(start, values, spent):
        parts = _functionals(values, fs, config.H, config.lam, ns, eps,
                             t_idx, config.horizon / config.grid_points, spent,
                             slope)
        for whole, part in zip((F, L, Lp), parts):
            if whole is not None:
                whole[..., start:start + values.shape[0]] = part

    _simulate_batches(config, worker)
    return F, L, Lp


def _along(values, ndim: int) -> np.ndarray:
    """A per-f or per-n list, shaped to broadcast along axis 0 of ndim."""
    return np.reshape(values, (-1,) + (1,) * (ndim - 1))


def _compensated(F: np.ndarray, L: np.ndarray, fs, ns, H: float) -> np.ndarray:
    """Z[f, n, t, path] = n^{(H+1)/2} ell_n (F - n^{-H} L int f) from the
    kernel's ``F`` and ``L``."""
    return _along([n ** ((H + 1) / 2) * ell(n, H) for n in ns], 3) * (
        F - _along([n ** (-H) for n in ns], 3) * L
        * _along([moments(fn)[0] for fn in fs], 4))


def _per_path(config: ExperimentConfig, fs, columns: dict) -> PerPath:
    return PerPath(tuple(fn.label for fn in fs), config.n_ladder,
                   config.t_list, columns)


def _certified(q: QuadResult) -> tuple[float, float]:
    """Value rounded at the decade of its error estimate, and the error to
    two significant digits; a zero error leaves the value as it is."""
    if q.error <= 0:
        return q.value, q.error
    return (round(q.value, -math.floor(math.log10(q.error))),
            float(f"{q.error:.2g}"))


def clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Mixed-Gaussian limit experiment for H >= 1/3.

    Each record's ``Z`` is ``compensated_functional_Z`` of its path: under
    ``n2h`` the record ``L`` and the ``slope_Z2_on_L``, ``cf_distance`` and
    ``cross_time`` values use each n's own bandwidth ``config.epsilon(n)``.

    For H > 1/3 the limit variance ``a_hat[label]`` comes from ``a_h`` and
    is written at the precision its quadrature error certifies; the error
    itself is reported as ``a_hat_error[label]``, and ``cf_distance`` and
    ``cross_time.predicted`` are computed from the rounded value.  At the
    critical point ``a_one_third`` carries no error estimate, so ``a_hat`` is
    written as computed and no ``a_hat_error`` is reported.  Both reject a
    non-integrable f before any path is drawn."""
    H = config.H
    reg = regime_of(H)
    if reg is Regime.SUBCRITICAL:
        raise ValueError("clt_experiment requires H >= 1/3")
    fs = config.functions()

    # limit-variance estimates used by the characteristic-function distance
    a_hat, a_hat_error = {}, {}
    for fn in fs:
        if reg is Regime.CRITICAL:
            a_hat[fn.label] = a_one_third(fn, fn)
        else:
            a_hat[fn.label], a_hat_error[fn.label] = _certified(
                a_h(fn, fn, H))

    F, L, _ = _simulate(config, fs, slope=False)
    ns = config.n_ladder
    Z = _compensated(F, L, fs, ns, H)

    names = ("mean_Z", "slope_Z2_on_L", "cf_distance", "cross_time")
    aggregates: dict = {"a_hat": a_hat} | {
        name: {fn.label: {} for fn in fs} for name in names}
    if a_hat_error:
        aggregates["a_hat_error"] = a_hat_error
    for (i_f, fn), (i_n, n) in product(enumerate(fs), enumerate(ns)):
        A, z_t, l_t = a_hat[fn.label], Z[i_f, i_n], L[i_n]
        mz, sz, cf = {}, {}, {}
        for it, t in enumerate(config.t_list):
            z, lt = z_t[it], l_t[it]
            mz[str(t)] = {"mean": float(z.mean()), "se": float(
                z.std(ddof=1) / math.sqrt(config.path_count))}
            denom = float((lt * lt).sum())
            sz[str(t)] = float((z * z * lt).sum() / denom) if denom else 0.0
            scale = math.sqrt(max(A * lt.mean(), 1e-300))
            thetas = np.linspace(0.2, 3.0, 16) / scale
            emp = np.cos(thetas[:, None] * z[None, :]).mean(axis=1)
            mix = np.exp(-0.5 * thetas[:, None] ** 2 * A
                         * lt[None, :]).mean(axis=1)
            cf[str(t)] = float(np.abs(emp - mix).max())
        cross = {f"{t1:g},{t2:g}": {
            "emp_cov": float(np.mean(z_t[i1] * z_t[i2])),
            "predicted": float(A * l_t[i1 if t1 <= t2 else i2].mean())}
            for (i1, t1), (i2, t2)
            in combinations(enumerate(config.t_list), 2)}
        for name, value in zip(names, (mz, sz, cf, cross)):
            if value:
                aggregates[name][fn.label][str(n)] = value

    return ExperimentReport(
        kind="clt", config=config,
        per_path=_per_path(config, fs, {"Z": Z, "L": L}),
        aggregates=aggregates, audit=_audit(config))


def derivative_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Local-time-derivative limit experiment for H < 1/3: per-path error
    e_n of the second-order expansion and its L2 norm along the ladder.

    The expansion compensates with the spatial derivative of the level
    curve, d/dlam Lhat_t(lam); per-path records expose it as ``Lp``.  (It is
    the negative of the mollified derivative-kind estimator, which
    integrates the heat-kernel derivative in the path argument.)  Under
    ``n2h`` the record ``L`` and ``Lp`` use each n's own ``config.epsilon(n)``.
    """
    H = config.H
    if regime_of(H) is not Regime.SUBCRITICAL:
        raise ValueError("derivative_experiment requires H < 1/3")
    if len(config.n_ladder) < 2:
        # the log-log slope of the L2 error needs two scales to fit
        raise ValueError("derivative_experiment needs at least two scales "
                         "in n_ladder")
    fs = config.functions()
    require_xi(fs, 1.0 + 1.0, " below the critical point")  # 1+nu, nu=1
    mom = [moments(fn) for fn in fs]

    F, L, Lp = _simulate(config, fs, slope=True)
    nh = _along([n ** H for n in config.n_ladder], 3)
    m0, m1 = (_along([m[j] for m in mom], 4) for j in (0, 1))
    E = nh * (nh * F - L * m0) - Lp * m1

    xs = np.log(np.asarray(config.n_ladder, dtype=float))
    aggregates: dict = {"l2_error": {}, "loglog_slope": {}, "moments": {}}
    for i_f, fn in enumerate(fs):
        aggregates["moments"][fn.label] = dict(zip(("m0", "m1"), mom[i_f]))
        l2 = aggregates["l2_error"][fn.label] = {}
        slopes = aggregates["loglog_slope"][fn.label] = {}
        for it, t in enumerate(config.t_list):
            errs = np.sqrt(np.mean(E[i_f, :, it] ** 2, axis=-1))
            l2[str(t)] = dict(zip(map(str, config.n_ladder), errs.tolist()))
            ys = np.log(np.maximum(errs, 1e-300))
            slopes[str(t)] = float(np.polyfit(xs, ys, 1)[0])

    return ExperimentReport(
        kind="derivative", config=config,
        per_path=_per_path(config, fs, {"e": E, "L": L, "Lp": Lp}),
        aggregates=aggregates, audit=_audit(config))


def _audit(config: ExperimentConfig) -> dict:
    return {
        "rng": "per-path substreams keyed by (seed, path_index)",
        "reduction": "path-indexed slots, order-independent",
        "path_count": config.path_count,
        "seed": config.seed,
    }


#: json.dumps' tokens for the floats float.__repr__ writes as nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(values: np.ndarray, nonfinite: dict) -> list[str]:
    """``float.__repr__`` of each value, non-finite ones through
    ``nonfinite``."""
    out = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        out = [nonfinite.get(s, s) for s in out]
    return out


def _record_blocks(per_path: PerPath, fields, template, nonfinite: dict,
                   sep: str) -> Iterator[str]:
    """The text of each block of records at one (f, n, t), in record order,
    joined by ``sep``.  ``template(label, n, t)`` is a %-format with one
    ``%s`` per name in ``fields`` ("path" or a column key).  A column that
    does not depend on f is formatted once per distinct block content (its
    bytes: under ``dt2h`` every n shares one bandwidth, so L and L' repeat
    across n) and kept as one space-joined str (no repr holds a space):
    kept as a list, its small strs would hold about 40% of a report's bytes
    until the last f."""
    paths = list(map(str, range(per_path.shape[-1])))
    shared: dict = {}
    for (i_f, label), (i_n, n), (i_t, t) in product(
            enumerate(per_path.labels), enumerate(per_path.n_ladder),
            enumerate(per_path.t_list)):
        texts = []
        for k in fields:
            if k == "path":
                texts.append(paths)
            elif per_path.columns[k].ndim == 4:
                texts.append(_reprs(per_path.block(k, i_f, i_n, i_t),
                                    nonfinite))
            else:
                block = per_path.block(k, i_f, i_n, i_t)
                key = block.tobytes()
                if key not in shared:
                    shared[key] = " ".join(_reprs(block, nonfinite))
                texts.append(shared[key].split(" "))
        yield sep.join(map(template(label, n, t).__mod__, zip(*texts)))


def _json_records(per_path: PerPath) -> Iterator[str]:
    keys = sorted([*per_path.columns, "path", "f", "n", "t"])
    fields = [k for k in keys if k == "path" or k in per_path.columns]

    def template(label, n, t):
        fixed = {"f": label, "n": n, "t": t}
        return "{" + ",".join(
            json.dumps(k) + ":" + (json.dumps(fixed[k]).replace("%", "%%")
                                   if k in fixed else "%s")
            for k in keys) + "}"
    return _record_blocks(per_path, fields, template, _JSON_NONFINITE, ",")


def _csv_field(text: str) -> str:
    """``text`` quoted as ``csv.QUOTE_MINIMAL`` does (labels hold commas)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(per_path: PerPath, keys) -> Iterator[str]:
    def template(label, n, t):
        fixed = f"{_csv_field(label)},{n},{t!r}"
        return "%s," + fixed.replace("%", "%%") + ",%s" * len(keys)
    return _record_blocks(per_path, ("path", *keys), template, {}, "\n")


def _written(head: bytes, blocks: Iterator[str], sep: bytes,
             tail: bytes) -> bytes:
    """``head``, the blocks separated by ``sep``, then ``tail``: each block
    goes into the one buffer as it is formatted, so no second copy of the
    output is ever held."""
    out = io.BytesIO()
    out.write(head)
    between = b""
    for block in blocks:
        out.write(between)
        out.write(block.encode())
        between = sep
    out.write(tail)
    return out.getvalue()


def serialize_report(report: ExperimentReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        payload = {
            "kind": report.kind,
            "config": report.config.to_dict(),
            "aggregates": report.aggregates,
            "audit": report.audit,
        }
        head = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        # "per_path" sorts after every other top-level key, so the records
        # close the object
        return _written(head[:-1].encode() + b',"per_path":[',
                        _json_records(report.per_path), b",", b"]}\n")
    if fmt == "csv":
        keys = _COLUMNS[report.kind]
        header = ",".join(["path,f,n,t,value", *keys[1:]])
        return _written(header.encode() + b"\n",
                        _csv_lines(report.per_path, keys), b"\n", b"\n")
    raise ValueError(f"unknown format {fmt!r}")


def deserialize_report(data: bytes) -> ExperimentReport:
    payload = json.loads(data.decode())
    if not isinstance(payload, dict):
        raise ValueError(f"a report is a JSON object, not "
                         f"{type(payload).__name__}")
    if not isinstance(payload["kind"], str) or payload["kind"] not in _COLUMNS:
        raise ValueError(f"unknown report kind {payload['kind']!r}")
    config = ExperimentConfig.from_dict(payload["config"])
    labels = tuple(fn.label for fn in config.functions())
    shape = (len(labels), len(config.n_ladder), len(config.t_list),
             config.path_count)
    records = payload["per_path"]
    if not (isinstance(records, list)
            and all(isinstance(r, dict) for r in records)):
        raise ValueError("per_path must hold one JSON object per record")
    if [(r["f"], r["n"], r["t"], r["path"]) for r in records] != list(
            product(labels, config.n_ladder, config.t_list,
                    range(config.path_count))):
        raise ValueError("per-path records are not in the order f, n, t, "
                         "path of the configuration")
    columns = {}
    for i, k in enumerate(_COLUMNS[payload["kind"]]):
        col = np.array([r[k] for r in records], dtype=float).reshape(shape)
        if i:
            if not np.array_equal(col, np.broadcast_to(col[:1], shape),
                                  equal_nan=True):
                raise ValueError(f"per-path {k} differs between functions")
            col = col[0]
        columns[k] = col
    return ExperimentReport(
        kind=payload["kind"], config=config,
        per_path=PerPath(labels, config.n_ladder, config.t_list, columns),
        aggregates=payload["aggregates"],
        audit=payload["audit"],
    )


def default_output_name(kind: str, H: float, seed: int) -> str:
    return f"{kind}_{H:g}_{seed}.json"
