"""Command-line entry point.

Exit codes: 0 success, 2 validation error (bad flags, bad domain), 3
runtime or cost-guard error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import constants as cst
from . import experiments as exp
from . import fbm, limits, localtime, pathio, report as report_mod
from .errors import CostGuardError
from .testfuncs import from_spec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _emit(payload: dict, out: str | None) -> None:
    # a non-finite number is not JSON: refused (exit 2), never written
    text = json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_constants(args) -> int:
    H = args.H
    regime = cst.regime_of(H)
    payload = {
        "H": H,
        "regime": regime.value,
        "c_H": cst.c_h(H),
        "beta1": cst.beta1(H),
        "beta2": cst.beta2(H),
    }
    if args.beta3:
        s1, s2 = (float(x) for x in args.beta3.split(","))
        mode = cst.Beta3Mode.LIMIT if args.beta3_limit_mode else cst.Beta3Mode.ZERO
        payload["beta3"] = {"s1": s1, "s2": s2,
                            "value": cst.beta3(H, s1, s2, mode=mode)}
    if regime is not cst.Regime.SUBCRITICAL:
        payload["ell"] = {str(n): cst.ell(n, H)
                          for n in (2, 10, 100, 1000, 10000)}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    payload = {"H": args.H}
    if args.t is not None and args.s is not None:
        payload["K"] = {"t": args.t, "s": args.s,
                        "value": fbm.volterra_kernel(args.H, args.t, args.s)}
    if args.mu:
        r, s = (float(x) for x in args.mu.split(","))
        payload["mu"] = {"r": r, "s": s, "value": fbm.mu(args.H, r, s)}
    if "K" not in payload and "mu" not in payload:
        raise ValueError("kernel: provide --t/--s and/or --mu r,s")
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    paths = fbm.sample_paths(args.H, args.T, args.N, args.count, args.seed,
                             method=args.method)
    pathio.write_paths(args.out, paths)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(pathio.paths_to_csv(paths))
    return EXIT_OK


def _cmd_localtime(args) -> int:
    paths = pathio.read_paths(args.infile, T=args.T)
    curves = []
    for p in paths:
        eps = p.dt ** (2 * p.H) if args.eps == "auto" else float(args.eps)
        localtime._check_eps(eps)
        if args.estimator == "mollified":
            curves.append(localtime.mollified_local_time(p, args.lam, eps,
                                                         kind=args.kind))
        else:
            xi_max = (args.xi_max if args.xi_max is not None
                      else 2.0 / np.sqrt(eps))
            d_xi = args.d_xi if args.d_xi is not None else xi_max / 2048.0
            curves.append(localtime.fourier_local_time(p, args.lam, xi_max,
                                                       d_xi, kind=args.kind))
    with open(args.out, "w") as fh:
        fh.write(pathio.columns_to_csv(curves[0].times,
                                       [c.values for c in curves]))
    return EXIT_OK


def _cmd_limit_const(args) -> int:
    fs = [from_spec(s) for s in args.f]
    lm = limits.covariance_matrix(fs, args.H)
    payload = {
        "H": args.H,
        "labels": list(lm.labels),
        "matrix": lm.matrix.tolist(),
        "sqrt": lm.sqrt_matrix.tolist(),
        "error_estimates": lm.quadrature_report.tolist(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _run_experiment(args, runner, kind: str) -> int:
    with open(args.config) as fh:
        config = exp.ExperimentConfig.from_dict(json.load(fh))
    if args.threads is not None:
        config = dataclasses.replace(config, threads=args.threads)
    t0 = time.monotonic()
    rep = runner(config)
    elapsed = time.monotonic() - t0
    out = args.out or config.output_path or exp.default_output_name(
        kind, config.H, config.seed)
    with open(out, "wb") as fh:
        fh.write(exp.serialize_report(rep))
    sys.stderr.write(f"{kind} experiment: {config.path_count} paths, "
                     f"{elapsed:.1f}s -> {out}\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    with open(args.infile, "rb") as fh:
        rep = exp.deserialize_report(fh.read())
    written = report_mod.emit_report_plots(rep, args.plots)
    sys.stderr.write("wrote " + ", ".join(written) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fbmlab",
        description="fractional Brownian motion: constants, paths, local "
                    "times, limit constants, and verification experiments")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "constants",
        help="evaluate c_H, beta1 = c_H/(H-1/2 or 1), beta2 = beta1^2/(2H), "
             "the increment-variance profile beta3(s1,s2), and the "
             "normalizer ell(n,H)")
    c.add_argument("--H", type=float, required=True)
    c.add_argument("--beta3", metavar="S1,S2",
                   help="also evaluate beta3 at this pair")
    c.add_argument("--beta3-limit-mode", action="store_true",
                   help="at H=1/2 use the formula limit (int of squared log "
                        "ratio) instead of the probabilistic value 0")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_constants)

    k = sub.add_parser(
        "kernel",
        help="evaluate the moving-average kernel K_H(t,s) and the "
             "conditional variance mu(r,s) = int_r^s K_H(s,.)^2")
    k.add_argument("--H", type=float, required=True)
    k.add_argument("--t", type=float)
    k.add_argument("--s", type=float)
    k.add_argument("--mu", metavar="R,S")
    k.add_argument("--out")
    k.set_defaults(func=_cmd_kernel)

    s = sub.add_parser(
        "simulate",
        help="draw fBm paths with covariance (s^2H + t^2H - |t-s|^2H)/2 "
             "and write the binary container")
    s.add_argument("--H", type=float, required=True)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--method", default="circulant",
                   choices=["circulant", "cholesky", "volterra"])
    s.add_argument("--out", required=True)
    s.add_argument("--csv", help="also export CSV (header: t,value)")
    s.set_defaults(func=_cmd_simulate)

    lt = sub.add_parser(
        "localtime",
        help="estimate the occupation density t -> L_t(lambda) (or its "
             "spatial derivative) along stored paths")
    lt.add_argument("--in", dest="infile", required=True)
    lt.add_argument("--T", type=float, default=1.0,
                    help="time horizon of the stored grid (container does "
                         "not record it)")
    lt.add_argument("--lambda", dest="lam", type=float, default=0.0)
    lt.add_argument("--eps", default="auto",
                    help="mollifier variance; auto = dt^(2H)")
    lt.add_argument("--estimator", default="mollified",
                    choices=["mollified", "fourier"])
    lt.add_argument("--kind", default="level", choices=["level", "derivative"])
    lt.add_argument("--xi-max", type=float, help="fourier cutoff")
    lt.add_argument("--d-xi", type=float,
                    help="fourier grid step; O(N) cost for any number of "
                         "frequencies; once max|B-lambda|*d_xi >= pi the "
                         "levels lambda + j*2pi/d_xi fold in with sign (-1)^j")
    lt.add_argument("--out", required=True)
    lt.set_defaults(func=_cmd_localtime)

    lc = sub.add_parser(
        "limit-const",
        help="evaluate the limit covariance matrix of the compensated "
             "functionals (entries a_h[f_i,f_j], or the critical-case "
             "product formula at H=1/3) and its PSD square root")
    lc.add_argument("--H", type=float, required=True)
    lc.add_argument("--f", action="append", required=True,
                    help="test function spec, e.g. gaussian_derivative:sigma=1 "
                         "(repeatable)")
    lc.add_argument("--out")
    lc.set_defaults(func=_cmd_limit_const)

    ce = sub.add_parser(
        "clt-experiment",
        help="Monte Carlo check that n^{(H+1)/2} ell_n (int f(n^H(B-l)) - "
             "n^{-H} L_t(l) int f) behaves like a Brownian motion "
             "subordinated to the local time (H >= 1/3)")
    ce.add_argument("--config", required=True)
    ce.add_argument("--out")
    ce.add_argument("--threads", type=int)
    ce.set_defaults(func=lambda a: _run_experiment(a, exp.clt_experiment, "clt"))

    de = sub.add_parser(
        "derivative-experiment",
        help="Monte Carlo check that n^H (n^H int f(n^H(B-l)) - L_t(l) "
             "int f) converges to L'_t(l) int y f(y) dy (H < 1/3)")
    de.add_argument("--config", required=True)
    de.add_argument("--out")
    de.add_argument("--threads", type=int)
    de.set_defaults(func=lambda a: _run_experiment(
        a, exp.derivative_experiment, "derivative"))

    r = sub.add_parser(
        "report",
        help="emit plot-ready CSV series and static SVG charts from a "
             "stored experiment report")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--plots", required=True, help="output directory")
    r.set_defaults(func=_cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CostGuardError as exc:
        sys.stderr.write(f"cost guard: {exc}\n")
        return EXIT_RUNTIME
    except (ValueError, KeyError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
