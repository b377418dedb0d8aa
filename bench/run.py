"""fbmlab benchmark: runs one workload for a fixed time and prints its metrics.

    python3 bench/run.py --workload clt-critical [--seed N] [--seconds 42] [--trace 0|1]

Run it from the root of a source checkout; it imports fbmlab from ``src/``.
Each repetition runs in a fresh interpreter (``bench/workloads.py``) and is
checked for correctness. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics (medians over the repetitions);
with ``--trace 1`` untraced and traced repetitions alternate and it carries
the per-layer metrics of the median traced repetition. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3
# every run must end well inside three minutes, whatever --seconds says
HARD_LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _repetition(workload: str, seed: int, traced: bool, timeout: float):
    """One repetition in a fresh interpreter; returns its record, or None
    when it crashed or timed out."""
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--spawned", repr(time.time())] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def _print_spans(rows: list) -> None:
    print(f"{'parent':<26} {'span':<28} {'calls':>8} {'total_s':>10} "
          f"{'self_s':>10}")
    for parent, name, calls, total, self_s in rows:
        print(f"{parent or '-':<26} {name:<28} {calls:>8} {total:>10.4f} "
              f"{self_s:>10.4f}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "fbmlab", "__init__.py")):
        print(f"no fbmlab sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # importing here also compiles the bytecode the repetitions load
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seed = (WORKLOADS[args.workload].default_seed if args.seed is None
            else args.seed)

    start = time.monotonic()
    plain, traced, failed, attempted = [], [], 0, 0
    digests = set()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if attempted >= MIN_REPS and elapsed + longest > args.seconds:
            break
        if elapsed + 1.5 * longest > HARD_LIMIT_S:
            break
        want_trace = bool(args.trace) and attempted % 2 == 1
        t0 = time.monotonic()
        rec = _repetition(args.workload, seed, want_trace,
                          HARD_LIMIT_S - elapsed)
        longest = max(longest, time.monotonic() - t0)
        attempted += 1
        if rec is None:
            failed += 1
            break
        digests.add(rec["digest"])
        if not rec["ok"]:
            failed += 1
            print("check failed: " + "; ".join(rec["errors"]))
        (traced if want_trace else plain).append(rec)
        print(f"rep {attempted} {'traced' if want_trace else 'plain '} "
              f"wall {rec['wall_s']:.4f} s  setup {rec['setup_s']:.4f} s  "
              f"rss {rec['peak_rss_mb']:.1f} MB  "
              f"{'ok' if rec['ok'] else 'FAILED'}")
    if len(digests) > 1:
        # traced and untraced repetitions must produce the same bytes
        print(f"payload differs between repetitions: {sorted(digests)}")
        failed = attempted

    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        # per-layer numbers all come from one traced repetition, so that
        # its self times still add up to its wall time
        rec = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = dict(rec["layers"])
        metrics["trace.wall_s"] = (rec["wall_s"], "s")
        metrics["trace.overhead_s"] = (rec["wall_s"] - wall, "s")
        if rec["missing"]:
            print("wrappers not installed, metrics left out: "
                  + ", ".join(rec["missing"]))
        _print_spans(rec["spans"])
        self_sum = sum(v for k, (v, u) in rec["layers"].items()
                       if u == "s" and k.endswith("_s"))
        print(f"sum of layer self times {self_sum:.4f} s; traced wall "
              f"{rec['wall_s']:.4f} s = untraced wall {wall:.4f} s + "
              f"overhead {rec['wall_s'] - wall:.4f} s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "ms_per_path": (1000.0 * wall / plain[0]["units"], "ms"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                            "MB"),
        }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
