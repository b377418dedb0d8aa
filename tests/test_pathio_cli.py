import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from fbmlab import cli, fbm, pathio
from fbmlab import experiments as exp


class TestContainer:
    def test_header_is_32_bytes(self):
        assert pathio._HEADER.size == 32

    def test_round_trip_bit_exact(self, tmp_path):
        paths = fbm.sample_paths(0.7, 1.0, 128, 4, seed=9)
        fn = str(tmp_path / "p.fbmp")
        pathio.write_paths(fn, paths)
        again = pathio.read_paths(fn)
        assert len(again) == 4
        for a, b in zip(paths, again):
            assert np.array_equal(a.values, b.values)
            assert (b.H, b.N, b.seed) == (a.H, a.N, a.seed)

    def test_layout(self, tmp_path):
        paths = fbm.sample_paths(0.6, 1.0, 8, 2, seed=3)
        fn = str(tmp_path / "p.fbmp")
        pathio.write_paths(fn, paths)
        raw = Path(fn).read_bytes()
        magic, version, H, N, count, seed = struct.unpack("<4sIdIIQ",
                                                          raw[:32])
        assert magic == b"FBMP"
        assert version == 1
        assert (H, N, count, seed) == (0.6, 8, 2, 3)
        assert len(raw) == 32 + count * (N + 1) * 8

    def test_bad_magic_rejected(self, tmp_path):
        fn = str(tmp_path / "junk.bin")
        with open(fn, "wb") as fh:
            fh.write(b"X" * 64)
        with pytest.raises(ValueError):
            pathio.read_paths(fn)

    def test_truncated_rejected(self, tmp_path):
        paths = fbm.sample_paths(0.6, 1.0, 8, 2, seed=3)
        fn = str(tmp_path / "p.fbmp")
        pathio.write_paths(fn, paths)
        data = Path(fn).read_bytes()
        with open(fn, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(ValueError):
            pathio.read_paths(fn)

    def test_csv_headers(self):
        one = fbm.sample_paths(0.6, 1.0, 4, 1, seed=3)
        many = fbm.sample_paths(0.6, 1.0, 4, 3, seed=3)
        assert pathio.paths_to_csv(one).splitlines()[0] == "t,value"
        assert pathio.paths_to_csv(many).splitlines()[0] == \
            "t,value_0,value_1,value_2"


class TestCli:
    def test_constants_brownian(self, capsys):
        assert cli.main(["constants", "--H", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_H"] == 1.0
        assert payload["beta1"] == 1.0
        assert payload["beta2"] == 1.0

    def test_constants_with_beta3(self, capsys):
        assert cli.main(["constants", "--H", "0.6", "--beta3", "1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta3"]["value"] == pytest.approx(0.0351773697,
                                                          rel=1e-6)

    def test_validation_exit_code(self, capsys):
        assert cli.main(["constants", "--H", "1.5"]) == 2

    def test_kernel_subcommand(self, capsys):
        assert cli.main(["kernel", "--H", "0.5", "--t", "2", "--s", "1",
                         "--mu", "0.25,0.75"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"]["value"] == 1.0
        assert payload["mu"]["value"] == pytest.approx(0.5, rel=1e-12)

    def test_simulate_is_reproducible(self, tmp_path):
        args = ["simulate", "--H", "0.75", "--N", "64", "--count", "5",
                "--seed", "7", "--method", "circulant"]
        f1 = str(tmp_path / "a.fbmp")
        f2 = str(tmp_path / "b.fbmp")
        assert cli.main(args + ["--out", f1]) == 0
        assert cli.main(args + ["--out", f2]) == 0
        assert Path(f1).read_bytes() == Path(f2).read_bytes()

    def test_simulate_localtime_pipeline(self, tmp_path):
        pfile = str(tmp_path / "p.fbmp")
        ltfile = str(tmp_path / "lt.csv")
        assert cli.main(["simulate", "--H", "0.5", "--N", "256", "--count",
                         "2", "--seed", "1", "--out", pfile]) == 0
        assert cli.main(["localtime", "--in", pfile, "--lambda", "0",
                         "--eps", "auto", "--out", ltfile]) == 0
        lines = Path(ltfile).read_text().splitlines()
        assert lines[0] == "t,value_0,value_1"
        assert len(lines) == 258

    def test_limit_const_json(self, tmp_path, capsys):
        out = str(tmp_path / "A.json")
        assert cli.main(["limit-const", "--H", "0.6", "--f",
                         "gaussian_derivative:sigma=1", "--out", out]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["matrix"][0][0] == pytest.approx(0.7222, rel=1e-3)
        assert payload["sqrt"][0][0] == pytest.approx(
            payload["matrix"][0][0] ** 0.5, rel=1e-10)

    def test_experiment_and_report_pipeline(self, tmp_path):
        cfg = {
            "H": 0.6, "f": ["gaussian_derivative:sigma=1"], "lambda": 0.0,
            "t_list": [1.0], "n_ladder": [4, 8], "path_count": 4,
            "grid_per_unit": 256, "seed": 0, "batch_size": 2,
        }
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        out = str(tmp_path / "rep.json")
        assert cli.main(["clt-experiment", "--config", cfg_file,
                         "--out", out]) == 0
        # rerun with a different worker count: byte-identical
        out2 = str(tmp_path / "rep2.json")
        assert cli.main(["clt-experiment", "--config", cfg_file,
                         "--out", out2, "--threads", "3"]) == 0
        assert Path(out).read_bytes() == Path(out2).read_bytes()
        plots = str(tmp_path / "plots")
        assert cli.main(["report", "--in", out, "--plots", plots]) == 0
        names = sorted(os.listdir(plots))
        assert names == ["cf_distance.csv", "cf_distance.svg",
                         "slope_Z2_on_L.csv", "slope_Z2_on_L.svg"]
        svg = Path(os.path.join(plots, "cf_distance.svg")).read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_report_golden_output(self, tmp_path):
        data_dir = os.path.join(os.path.dirname(__file__), "data")
        plots = str(tmp_path / "plots")
        assert cli.main(["report", "--in",
                         os.path.join(data_dir, "golden_clt_report.json"),
                         "--plots", plots]) == 0
        for name in ("cf_distance.csv", "cf_distance.svg",
                     "slope_Z2_on_L.csv", "slope_Z2_on_L.svg"):
            got = Path(os.path.join(plots, name)).read_bytes()
            want = Path(os.path.join(data_dir, "golden_" + name)).read_bytes()
            assert got == want, f"{name} differs from the pinned output"

    def test_cost_guard_exit_code(self, tmp_path):
        cfg = {
            "H": 0.6, "f": ["gaussian_derivative:sigma=1"],
            "t_list": [1.0], "n_ladder": [4, 2 ** 14],
            "path_count": 4, "grid_per_unit": 2 ** 16, "seed": 0,
        }
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        assert cli.main(["clt-experiment", "--config", cfg_file]) == 3

    def test_invalid_grid_exit_code(self, tmp_path):
        cfg = {"H": 0.6, "t_list": [1.0], "n_ladder": [4, 8],
               "path_count": 4, "grid_per_unit": 0, "seed": 0}
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        assert cli.main(["clt-experiment", "--config", cfg_file]) == 2

    def test_missing_input_file(self):
        assert cli.main(["localtime", "--in", "/nonexistent.fbmp",
                         "--lambda", "0", "--out", "/tmp/x.csv"]) == 2

    def test_derivative_experiment_cli(self, tmp_path):
        cfg = {
            "H": 0.25, "f": ["gaussian_bump:sigma=1,center=0.5"],
            "t_list": [1.0], "n_ladder": [4, 8], "path_count": 3,
            "grid_per_unit": 256, "seed": 0,
        }
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        out = str(tmp_path / "rep.json")
        assert cli.main(["derivative-experiment", "--config", cfg_file,
                         "--out", out]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["kind"] == "derivative"
