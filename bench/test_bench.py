"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

The timing wrappers must not change a single byte of any result, the self
times of a traced call must add up to its wall time, and a wrapper that can
no longer be installed must cost its metrics, not the run.
"""
import dataclasses
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fbmlab  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "clt-critical": dict(path_count=40, grid_per_unit=2 ** 10,
                         n_ladder=(4, 16), batch_size=16),
    "deriv-ladder": dict(path_count=60, grid_per_unit=2 ** 9,
                         n_ladder=(4, 16, 64), batch_size=16, threads=2),
}


def small_inputs(name):
    if name == "limit-constants":
        fs = [fbmlab.from_spec(s) for s in ("gaussian_derivative:sigma=1",
                                            "hat")]
        return [(fs, {"H": 0.6}), (fs, {"H": 1.0 / 3.0})]
    workload = wl.WORKLOADS[name]
    return dataclasses.replace(workload.build(workload.default_seed),
                               **SMALL[name])


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tracing_changes_no_byte(name):
    workload = wl.WORKLOADS[name]
    inputs = small_inputs(name)
    originals = {p: tr._resolve(p.owner).__dict__[p.attr] for p in tr.PATCHES}
    _, plain, _, _ = wl.run_once(workload, inputs)
    tracer = tr.Tracer()
    _, traced, wall, missing = wl.run_once(workload, inputs, tracer)
    assert traced == plain
    assert not missing
    for p, fn in originals.items():
        assert tr._resolve(p.owner).__dict__[p.attr] is fn
    self_sum = sum(st.self_s for st in tracer.stats.values())
    assert self_sum == pytest.approx(wall, rel=1e-3, abs=1e-3)


def test_thread_pool_spans_have_the_experiment_as_parent():
    tracer = tr.Tracer()
    wl.run_once(wl.WORKLOADS["deriv-ladder"], small_inputs("deriv-ladder"),
                tracer)
    parents = {name: parent for parent, name in tracer.edges}
    assert parents["fbm.synth"] == "experiments"
    assert parents["experiments.batch"] == "experiments"
    assert parents["testfuncs.eval"] == "experiments.batch"
    assert tracer.stats["fbm.synth"].calls == 4


def test_missing_wrapper_drops_its_metrics_only():
    gone = tr.Patch("fbmlab.experiments", "_no_such_batch_values",
                    "fbm.synth")
    patches = tuple(p for p in tr.PATCHES if p.span != "fbm.synth") + (gone,)
    tracer = tr.Tracer()
    inputs = small_inputs("clt-critical")
    with tr.installed(tracer, patches) as missing:
        data = wl.WORKLOADS["clt-critical"].run(inputs, tracer.span)[1]
    assert missing == {"fbm.synth"}
    metrics = wl.span_metrics(tracer, missing)
    assert "fbm.synth_s" not in metrics and "fbm.synth_calls" not in metrics
    assert metrics["testfuncs.eval_calls"][0] > 0
    assert data == wl.run_once(wl.WORKLOADS["clt-critical"], inputs)[1]


def test_metric_names(benchmark_json):
    declared = [m["name"] for key in ("end_to_end", "per_layer")
                for m in benchmark_json[key]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    produced = {name: unit for name, (unit, _, _) in wl.SPAN_METRICS.items()}
    for extra in (wl.synth_memory(None),
                  wl._limits_result_metrics([], [], b"")):
        produced.update((name, unit) for name, (_, unit) in extra.items())
    produced.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert produced == {m["name"]: m["unit"]
                        for m in benchmark_json["per_layer"]}
    assert set(wl.WORKLOADS) == {w["name"] for w in
                                 benchmark_json["workloads"]}
