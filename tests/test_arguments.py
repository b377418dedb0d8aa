"""The two argument rules of ``constants``: ``_integer`` for counts, seeds,
grid sizes and indices, ``_real`` for levels, times and horizons."""
import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fbmlab
from fbmlab import experiments as exp
from fbmlab import fbm
from fbmlab import gaussian
from fbmlab import localtime as lt
from fbmlab import testfuncs as tf

SRC = Path(fbmlab.__file__).parent


def path(N=16):
    return fbm.sample_paths(0.6, 1.0, N, 1, seed=2)[0]


# each call ran, or failed with a TypeError, IndexError or OverflowError,
# before the rules were shared
REFUSED = {
    "sample_paths-seed-bool": (
        lambda: fbm.sample_paths(0.6, 1.0, 8, 1, seed=True),
        "seed must be an integer, got bool True"),
    "sample_paths-seed-float": (
        lambda: fbm.sample_paths(0.6, 1.0, 8, 1, seed=1.5),
        "seed must be an integer, got float 1.5"),
    "sample_paths-seed-str": (
        lambda: fbm.sample_paths(0.6, 1.0, 8, 1, seed="3"),
        "seed must be an integer, got str '3'"),
    "sample_values-N-bool": (
        lambda: fbm.sample_values(0.6, 1.0, True, 1, 0),
        "N must be an integer, got bool True"),
    "sample_values-N-float": (
        lambda: fbm.sample_values(0.6, 1.0, 8.0, 1, 0),
        "N must be an integer, got float 8.0"),
    "sample_values-count-bool": (
        lambda: fbm.sample_values(0.6, 1.0, 8, True, 0),
        "count must be an integer, got bool True"),
    "sample_values-start-bool": (
        lambda: fbm.sample_values(0.6, 1.0, 8, 1, 0, start=True),
        "start must be an integer, got bool True"),
    "sample_values-start-float": (
        lambda: fbm.sample_values(0.6, 1.0, 8, 1, 0, start=1.5),
        "start must be an integer, got float 1.5"),
    "sample_paths-T-bool": (
        lambda: fbm.sample_paths(0.6, True, 8, 1, seed=0),
        "T must be a finite real number, got bool True"),
    "expected_mollified-N-bool": (
        lambda: lt.expected_mollified_local_time(0.6, 1.0, 0.0, 0.01, True),
        "N must be an integer, got bool True"),
    "expected_mollified-N-float": (
        lambda: lt.expected_mollified_local_time(0.6, 1.0, 0.0, 0.01, 8.0),
        "N must be an integer, got float 8.0"),
    "FbmPath-N-bool": (
        lambda: fbm.FbmPath(H=0.6, T=1.0, N=True, values=np.zeros(2),
                            seed=0, path_index=0, method="synthetic"),
        "N must be an integer, got bool True"),
    "poly_bump-k-bool": (
        lambda: tf.poly_bump(k=True),
        "poly_bump's integer k must be an integer, got bool True"),
    "index_of-bool": (
        lambda: gaussian.fbm_vector_spec(0.6, [0.5, 1.0]).index_of(True),
        "index must be an integer, got bool True"),
    "functional-n-bool": (
        lambda: exp.scaled_additive_functional(path(), tf.hat(), 0.0, True,
                                               1.0),
        "n must be a finite real number, got bool True"),
    "functional-t-bool": (
        lambda: exp.scaled_additive_functional(path(), tf.hat(), 0.0, 4,
                                               True),
        "t must be a finite real number, got bool True"),
    "config-time-beyond-double": (
        lambda: exp.ExperimentConfig(H=0.6, t_list=(10 ** 400,)),
        f"a t_list time must be a finite real number, got int {10 ** 400}"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
def test_refused_naming_argument_and_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_real_scale_accepted():
    p = path()
    assert math.isfinite(exp.scaled_additive_functional(p, tf.hat(), 0.0,
                                                        2.5, 1.0))


def test_numpy_integers_draw_the_python_integers_bytes():
    want = fbm.sample_values(0.6, 1.0, 64, 3, 5)
    got = fbm.sample_values(0.6, 1.0, np.int64(64), np.int64(3),
                            np.int64(5), start=np.int64(0))
    assert got.tobytes() == want.tobytes()


def test_numpy_level_accepted():
    p = path(64)
    want = lt.mollified_local_time(p, 0.25, 0.01)
    got = lt.mollified_local_time(p, np.float64(0.25), 0.01)
    assert type(got.lam) is float
    assert got.values.tobytes() == want.values.tobytes()


def test_config_echoes_python_integers():
    cfg = exp.ExperimentConfig(
        H=0.6, path_count=np.int64(2), grid_per_unit=np.int64(64),
        n_ladder=(np.int64(4), np.int64(8)), seed=np.int64(3),
        batch_size=np.int64(2), threads=np.int64(1))
    d = cfg.to_dict()
    for value in (d["path_count"], d["grid_per_unit"], d["seed"],
                  *d["n_ladder"]):
        assert type(value) is int
    assert type(cfg.batch_size) is int and type(cfg.threads) is int


def _defined(module: Path) -> set[str]:
    return {node.name for node in ast.parse(module.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_each_rule_said_once():
    for module in sorted(SRC.glob("*.py")):
        text = module.read_text()
        if module.name != "constants.py":
            assert "numbers.Real" not in text, module.name
            assert "operator.index" not in text, module.name
            assert not _defined(module) & {"_integer", "_real"}, module.name
    for name in ("experiments.py", "localtime.py"):
        assert not _defined(SRC / name) & {"_integer", "_time", "_check_lam"}
    assert {"_integer", "_real"} <= _defined(SRC / "constants.py")
