"""The benchmark's workloads, their correctness checks, and one repetition.

Run as a script, this file performs one repetition of one workload in the
fresh interpreter it was started in and prints one JSON line::

    python3 bench/workloads.py --workload clt-critical --seed 777 \
        --spawned <time.time() when the parent started this process> [--traced]

``bench/run.py`` starts it once per repetition, so every repetition pays the
per-process costs every CLI run pays: the scipy import, the beta3 profile
cache and the lru caches.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import fbmlab
from tracer import Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "reference_constants.json")
MB = 2.0 ** 20

# |mean Z| / se under the mixed-Gaussian limit; a false alarm has
# probability below 1e-5 per ladder entry, so a seed chosen at random passes
T_STAT_MAX = 4.5
# the criterion-09 slope bound for the local-time-derivative expansion
DERIV_SLOPE_MAX = -0.05


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    #: seed -> the inputs, built during set-up
    build: Callable[[int], object]
    #: (inputs, span) -> (result, payload bytes); this is the timed call
    run: Callable[[object, Callable], tuple[object, bytes]]
    #: (inputs, result) -> list of failed checks
    check: Callable[[object, object], list[str]]
    #: inputs -> items of work, the divisor of ms_per_path
    units: Callable[[object], int]
    #: inputs -> (H, T, N, count, seed) of one synthesis batch, or None
    synth_batch: Callable[[object], Optional[tuple]]
    #: (inputs, result, payload) -> per-layer metrics read off the result
    result_metrics: Callable[[object, object, bytes], dict]


# ---------------------------------------------------------------------------
# Monte Carlo workloads

# criterion-08 config with the path count cut to two batches
CLT_CRITICAL = dict(
    H=1.0 / 3.0, f=("gaussian_derivative:sigma=1",), t_list=(1.0,),
    n_ladder=(64, 256, 1024), path_count=200, grid_per_unit=2 ** 17,
    batch_size=100, threads=1, cost_guard=2.0 ** 28)

DERIV_LADDER = dict(
    H=0.25, f=("gaussian_bump:sigma=1,center=0.5", "hat:a=-1,b=1",
               "indicator:a=0,b=1"),
    t_list=(0.25, 0.5, 0.75, 1.0), n_ladder=(16, 64, 256, 1024, 4096),
    path_count=2000, grid_per_unit=2 ** 12, batch_size=250, threads=2)


def _mc_build(params: dict) -> Callable[[int], object]:
    def build(seed: int) -> fbmlab.ExperimentConfig:
        config = fbmlab.ExperimentConfig(seed=seed, **params)
        config.functions()
        return config
    return build


def _mc_run(entry: Callable) -> Callable:
    def run(config, span):
        with span("experiments"):
            report = entry(config)
        with span("experiments.serialize"):
            data = fbmlab.serialize_report(report)
        return report, data
    return run


def _check_records(config, report, value_keys) -> list[str]:
    nf, nn = len(config.f), len(config.n_ladder)
    expected = nf * nn * len(config.t_list) * config.path_count
    if len(report.per_path) != expected:
        return [f"{len(report.per_path)} per-path records, want {expected}"]
    if not all(math.isfinite(rec[k]) for rec in report.per_path
               for k in value_keys):
        return ["non-finite per-path value"]
    return []


def _check_clt(config, report) -> list[str]:
    errors = _check_records(config, report, ("Z", "L"))
    agg = report.aggregates
    critical = fbmlab.regime_of(config.H) is fbmlab.Regime.CRITICAL
    for fn in config.functions():
        a_hat = agg["a_hat"][fn.label]
        ref = (fbmlab.a_one_third(fn, fn) if critical
               else fbmlab.a_h(fn, fn, config.H).value)
        if not math.isclose(a_hat, ref, rel_tol=1e-9):
            errors.append(f"a_hat {a_hat!r} != separate call {ref!r}")
        for n in config.n_ladder:
            for t in config.t_list:
                m = agg["mean_Z"][fn.label][str(n)][str(t)]
                if not abs(m["mean"]) < T_STAT_MAX * m["se"]:
                    errors.append(f"mean Z t-stat {m['mean'] / m['se']:.2f} "
                                  f"at f={fn.label}, n={n}, t={t}")
    return errors


def _check_derivative(config, report) -> list[str]:
    errors = _check_records(config, report, ("e", "L", "Lp"))
    l2 = report.aggregates["l2_error"]
    slopes = report.aggregates["loglog_slope"]
    for fn in config.functions():
        for t in config.t_list:
            errs = [l2[fn.label][str(t)][str(n)] for n in config.n_ladder]
            if not all(math.isfinite(e) and e > 0 for e in errs):
                errors.append(f"bad L2 errors {errs} at f={fn.label}, t={t}")
    # The ladder check applies to the smooth bump only: at this grid the
    # scaled per-step motion (n dt)^H reaches 1 at n=4096, the scale of the
    # hat's kink and the indicator's jumps, so their error grows at the top
    # of the ladder (undersampling, not a fault).
    bump = config.functions()[0].label
    for t in config.t_list:
        errs = [l2[bump][str(t)][str(n)] for n in config.n_ladder]
        if not all(b < a for a, b in zip(errs, errs[1:])):
            errors.append(f"L2 error does not fall along the ladder at "
                          f"t={t}: {errs}")
        if not slopes[bump][str(t)] <= DERIV_SLOPE_MAX:
            errors.append(f"log-log slope {slopes[bump][str(t)]} at t={t}")
    return errors


def _mc_batch(config) -> tuple:
    return (config.H, config.horizon, config.grid_points,
            min(config.batch_size, config.path_count), config.seed)


def _mc_result_metrics(config, report, data) -> dict:
    return {"experiments.records": (len(report.per_path), "count"),
            "experiments.report_bytes": (len(data), "bytes"),
            "limits.quad_err_rel": (0.0, "ratio")}


# ---------------------------------------------------------------------------
# deterministic limit constants


def _limits_build(seed: int) -> list:
    # no Monte Carlo: the seed has no input to vary
    with open(REFERENCES) as fh:
        refs = json.load(fh)["matrices"]
    return [([fbmlab.from_spec(s) for s in ref["f"]], ref) for ref in refs]


def _limits_run(inputs, span):
    mats = []
    for fs, ref in inputs:
        with span("limits.covariance_matrix"):
            mats.append(fbmlab.covariance_matrix(fs, ref["H"]))
    data = b"".join(m.matrix.tobytes() + m.quadrature_report.tobytes()
                    for m in mats)
    return mats, data


def _limits_check(inputs, mats) -> list[str]:
    errors = []
    rtol = fbmlab.QuadConfig().rtol
    for (fs, ref), m in zip(inputs, mats):
        want = np.array(ref["matrix"])
        tol = rtol * np.abs(np.diag(want)).max() + np.array(ref["error"])
        off = np.abs(m.matrix - want)
        if m.matrix.shape != want.shape or (off > tol).any():
            errors.append(f"H={ref['H']}: matrix {m.matrix.tolist()} is "
                          f"off the reference by {off.tolist()} > {tol.tolist()}")
    return errors


def _limits_units(inputs) -> int:
    return sum(len(fs) * (len(fs) + 1) // 2 for fs, _ in inputs)


def _limits_result_metrics(inputs, mats, data) -> dict:
    rel = 0.0
    for m in mats:
        scale = np.abs(np.diag(m.matrix)).max()
        big = np.abs(m.matrix) > 1e-3 * scale
        if big.any():
            rel = max(rel, float((m.quadrature_report[big]
                                  / np.abs(m.matrix[big])).max()))
    return {"experiments.records": (0, "count"),
            "experiments.report_bytes": (0, "bytes"),
            "limits.quad_err_rel": (rel, "ratio")}


WORKLOADS = {w.name: w for w in (
    Workload("clt-critical", 777, _mc_build(CLT_CRITICAL),
             _mc_run(fbmlab.clt_experiment), _check_clt,
             lambda c: c.path_count, _mc_batch, _mc_result_metrics),
    Workload("deriv-ladder", 11, _mc_build(DERIV_LADDER),
             _mc_run(fbmlab.derivative_experiment), _check_derivative,
             lambda c: c.path_count, _mc_batch, _mc_result_metrics),
    Workload("limit-constants", 0, _limits_build, _limits_run, _limits_check,
             _limits_units, lambda inputs: None, _limits_result_metrics),
)}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced repetition

#: metric -> (unit, SpanStats field, span names summed)
SPAN_METRICS = {
    "fbm.synth_s": ("s", "self_s", ("fbm.synth",)),
    "fbm.synth_calls": ("count", "calls", ("fbm.synth",)),
    "localtime.heat_kernel_s": ("s", "self_s", ("localtime.heat_kernel",)),
    "localtime.heat_kernel_prime_s": ("s", "self_s",
                                      ("localtime.heat_kernel_prime",)),
    "localtime.heat_kernel_points": ("count", "points",
                                     ("localtime.heat_kernel",
                                      "localtime.heat_kernel_prime")),
    "testfuncs.eval_s": ("s", "self_s", ("testfuncs.eval",)),
    "testfuncs.eval_calls": ("count", "calls", ("testfuncs.eval",)),
    "testfuncs.eval_points": ("count", "points", ("testfuncs.eval",)),
    "testfuncs.fourier_s": ("s", "self_s", ("testfuncs.fourier",)),
    "testfuncs.fourier_calls": ("count", "calls", ("testfuncs.fourier",)),
    "experiments.self_s": ("s", "self_s", ("experiments",
                                           "experiments.batch")),
    "experiments.serialize_s": ("s", "self_s", ("experiments.serialize",)),
    "limits.a_h_s": ("s", "self_s", ("limits.a_h",)),
    "limits.a_one_third_s": ("s", "self_s", ("limits.a_one_third",)),
    "limits.covariance_matrix_s": ("s", "self_s",
                                   ("limits.covariance_matrix",)),
    "constants.beta3_s": ("s", "self_s", ("constants.beta3",)),
    "constants.beta3_calls": ("count", "calls", ("constants.beta3",)),
}


def span_metrics(tracer: Tracer, missing: set[str]) -> dict:
    """Per-layer metrics from the spans; a metric that needs a wrapper
    which could not be installed is left out."""
    out = {}
    for metric, (unit, field, names) in SPAN_METRICS.items():
        if missing.intersection(names):
            continue
        out[metric] = (sum(getattr(tracer.stats[n], field)
                           for n in names if n in tracer.stats), unit)
    return out


def synth_memory(batch: Optional[tuple]) -> dict:
    """tracemalloc peak of one direct ``sample_paths`` call at the
    workload's batch shape, against the bytes of the value matrix."""
    if batch is None:
        return {"fbm.synth_peak_mb": (0.0, "MB"),
                "fbm.synth_out_mb": (0.0, "MB"),
                "fbm.synth_mem_ratio": (0.0, "ratio")}
    H, T, N, count, seed = batch
    tracemalloc.start()
    try:
        fbmlab.sample_paths(H, T, N, count, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = count * (N + 1) * 8
    return {"fbm.synth_peak_mb": (peak / MB, "MB"),
            "fbm.synth_out_mb": (out / MB, "MB"),
            "fbm.synth_mem_ratio": (peak / out, "ratio")}


def span_table(tracer: Tracer) -> list:
    """Parent -> span edges, largest self time first."""
    rows = [[parent, name, st.calls, st.total_s, st.self_s]
            for (parent, name), st in tracer.edges.items()]
    return sorted(rows, key=lambda r: -r[4])


def run_once(workload: Workload, inputs, tracer: Optional[Tracer] = None):
    """Time one call of the workload; with a tracer, inside its wrappers.
    Returns (result, payload, wall_s, span names not wrapped)."""
    if tracer is None:
        t0 = time.perf_counter()
        result, data = workload.run(inputs, lambda name: nullcontext())
        return result, data, time.perf_counter() - t0, set()
    with installed(tracer) as missing:
        t0 = time.perf_counter()
        result, data = workload.run(inputs, tracer.span)
        wall = time.perf_counter() - t0
    return result, data, wall, missing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_s = time.time() - args.spawned

    tracer = Tracer() if args.traced else None
    result, data, wall, missing = run_once(workload, inputs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = workload.check(inputs, result)
    record = {"ok": not errors, "errors": errors, "setup_s": setup_s,
              "wall_s": wall, "units": workload.units(inputs),
              "peak_rss_mb": peak_rss_mb,
              "digest": hashlib.sha256(data).hexdigest()}
    if tracer is not None:
        layers = span_metrics(tracer, missing)
        layers.update(workload.result_metrics(inputs, result, data))
        if hasattr(fbmlab, "sample_paths"):
            layers.update(synth_memory(workload.synth_batch(inputs)))
        else:
            missing.add("fbmlab.sample_paths")
        record["layers"] = layers
        record["missing"] = sorted(missing)
        record["spans"] = span_table(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
