import csv
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

    def test_rejects_hurst_outside_unit_interval(self, tmp_path):
        fn = str(tmp_path / "bad.fbmp")
        with open(fn, "wb") as fh:
            fh.write(struct.pack("<4sIdIIQ", b"FBMP", 1, 1.5, 8, 1, 0))
            fh.write(np.zeros(9).tobytes())
        with pytest.raises(ValueError, match="Hurst"):
            pathio.read_paths(fn)
        assert cli.main(["localtime", "--in", fn, "--lambda", "0",
                         "--out", str(tmp_path / "lt.csv")]) == 2

    def test_csv_headers(self):
        one = fbm.sample_paths(0.6, 1.0, 4, 1, seed=3)
        many = fbm.sample_paths(0.6, 1.0, 4, 3, seed=3)
        assert pathio.paths_to_csv(one).splitlines()[0] == "t,value"
        assert pathio.paths_to_csv(many).splitlines()[0] == \
            "t,value_0,value_1,value_2"


#: stdout of ``fbmlab constants``, byte for byte, in each regime and at
#: H = 1/2 (beta1 = c_H = 1, beta3's ZERO mode)
CONSTANTS_STDOUT = [
    (['--H', '0.2'], '''\
{
  "H": 0.2,
  "beta1": 0.556342865007197,
  "beta2": 0.7737934586110404,
  "c_H": 0.556342865007197,
  "regime": "subcritical"
}
'''),
    (['--H', '0.3333333333333333'], '''\
{
  "H": 0.3333333333333333,
  "beta1": 0.7833140593307993,
  "beta2": 0.9203713733179426,
  "c_H": 0.7833140593307993,
  "ell": {
    "10": 0.6590102289822608,
    "100": 0.46599060178465607,
    "1000": 0.3804797331016252,
    "10000": 0.3295051144911304,
    "2": 1.2011224087864498
  },
  "regime": "critical"
}
'''),
    (['--H', '0.5', '--beta3', '1,0.5'], '''\
{
  "H": 0.5,
  "beta1": 1.0,
  "beta2": 1.0,
  "beta3": {
    "s1": 1.0,
    "s2": 0.5,
    "value": 0.0
  },
  "c_H": 1.0,
  "ell": {
    "10": 1.0,
    "100": 1.0,
    "1000": 1.0,
    "10000": 1.0,
    "2": 1.0
  },
  "regime": "supercritical"
}
'''),
    (['--H', '0.6', '--beta3', '1,0.5'], '''\
{
  "H": 0.6,
  "beta1": 1.0760051841318075,
  "beta2": 0.9648226302321041,
  "beta3": {
    "s1": 1.0,
    "s2": 0.5,
    "value": 0.00464082766970318
  },
  "c_H": 0.10760051841318072,
  "ell": {
    "10": 1.0,
    "100": 1.0,
    "1000": 1.0,
    "10000": 1.0,
    "2": 1.0
  },
  "regime": "supercritical"
}
'''),
]


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

    @pytest.mark.parametrize("argv, stdout", CONSTANTS_STDOUT,
                             ids=["sub", "critical", "brownian", "super"])
    def test_constants_stdout_pinned(self, capsys, argv, stdout):
        assert cli.main(["constants", *argv]) == 0
        assert capsys.readouterr().out == stdout

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

    @staticmethod
    def assert_numeric_csv(fn, T, N, columns):
        header, *rows = Path(fn).read_text().splitlines()
        assert header.split(",")[0] == "t"
        assert len(header.split(",")) == 1 + columns
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert table.shape == (N + 1, 1 + columns)
        assert np.array_equal(table[:, 0], np.linspace(0, T, N + 1))

    @pytest.mark.parametrize("count", [1, 3])
    def test_simulate_csv_is_numeric(self, tmp_path, count):
        csv = str(tmp_path / "p.csv")
        assert cli.main(["simulate", "--H", "0.6", "--T", "2", "--N", "8",
                         "--count", str(count), "--out",
                         str(tmp_path / "p.fbmp"), "--csv", csv]) == 0
        self.assert_numeric_csv(csv, 2.0, 8, count)

    @pytest.mark.parametrize("count", [1, 2])
    def test_localtime_csv_is_numeric(self, tmp_path, count):
        pfile = str(tmp_path / "p.fbmp")
        csv = str(tmp_path / "lt.csv")
        assert cli.main(["simulate", "--H", "0.6", "--N", "8", "--count",
                         str(count), "--out", pfile]) == 0
        assert cli.main(["localtime", "--in", pfile, "--T", "2",
                         "--lambda", "0", "--out", csv]) == 0
        self.assert_numeric_csv(csv, 2.0, 8, count)

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

    def test_report_derivative_plots(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "data",
                           "golden_derivative_report.json")
        rep = exp.deserialize_report(Path(src).read_bytes())
        plots = str(tmp_path / "plots")
        assert cli.main(["report", "--in", src, "--plots", plots]) == 0
        assert sorted(os.listdir(plots)) == ["l2_error.csv", "l2_error.svg"]
        svg = Path(os.path.join(plots, "l2_error.svg")).read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        with open(os.path.join(plots, "l2_error.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        l2 = rep.aggregates["l2_error"]
        t_last = str(float(rep.config.t_list[-1]))
        assert header == ["n"] + sorted(l2)
        assert len(rows) == len(rep.config.n_ladder)
        for cells, n in zip(rows, rep.config.n_ladder):
            assert len(cells) == 1 + len(l2)
            assert float(cells[0]) == n
            for label, cell in zip(sorted(l2), cells[1:]):
                assert float(cell) == l2[label][t_last][str(n)]

    def test_cost_guard_exit_code(self, tmp_path):
        cfg = {
            "H": 0.6, "f": ["gaussian_derivative:sigma=1"],
            "t_list": [1.0], "n_ladder": [4, 2 ** 14],
            "path_count": 4, "grid_per_unit": 2 ** 16, "seed": 0,
        }
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        assert cli.main(["clt-experiment", "--config", cfg_file]) == 3

    @pytest.mark.parametrize("spec", ["gaussian_bump:sigma=0",
                                      "gaussian_derivative:sigma=-1"])
    def test_degenerate_gaussian_exit_code(self, tmp_path, monkeypatch,
                                           capsys, spec):
        # the spec is refused before any path is drawn or constant computed
        def no_draw(*args, **kwargs):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(exp, "sample_values", no_draw)
        cfg = {"H": 1 / 3, "f": [spec], "t_list": [1.0], "n_ladder": [4, 8],
               "path_count": 4, "grid_per_unit": 64, "seed": 0}
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        assert cli.main(["clt-experiment", "--config", cfg_file]) == 2
        assert cli.main(["limit-const", "--H", "0.6", "--f", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("requires a finite sigma > 0") == 2

    @pytest.mark.parametrize("spec, names", [
        ("hat:c=1", "unknown parameter 'c'"),
        ("hat:a=0,a=2", "repeated parameter 'a'")])
    def test_bad_spec_parameter_exit_code(self, capsys, spec, names):
        assert cli.main(["limit-const", "--H", "0.6", "--f", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and names in err
        assert "Traceback" not in err

    def test_invalid_grid_exit_code(self, tmp_path):
        cfg = {"H": 0.6, "t_list": [1.0], "n_ladder": [4, 8],
               "path_count": 4, "grid_per_unit": 0, "seed": 0}
        cfg_file = str(tmp_path / "exp.json")
        Path(cfg_file).write_text(json.dumps(cfg))
        assert cli.main(["clt-experiment", "--config", cfg_file]) == 2

    @pytest.mark.parametrize("command, content, names", [
        ("clt-experiment", b'{"H": 0.6, "bogus": 1}', "'bogus'"),
        ("clt-experiment", b"[1, 2]", "JSON object"),
        ("clt-experiment", b'{"H": 0.6, "path_count": "3"}', "str"),
        ("localtime", struct.pack("<4sIdIIQ", b"FBMP", 1, 0.6, 8, 0, 0),
         "no path"),
        ("clt-experiment", b'{"H": 0.6, "lambda": NaN}', "lambda must be"),
        ("clt-experiment", b'{"H": 0.6, "lambda": "abc"}', "'abc'"),
        ("clt-experiment", b'{"H": 0.6, "lambda": [1]}', "[1]"),
        ("clt-experiment", b'{"H": 0.6, "eps_policy": "fixed:nan"}',
         "fixed eps must be positive and finite"),
        ("clt-experiment", b'{"H": 0.6, "grid_per_unit": 64.7}',
         "grid_per_unit must be an integer"),
        ("clt-experiment", b'{"H": 0.6, "grid_per_unit": true}',
         "grid_per_unit must be an integer"),
        ("clt-experiment", b'{"H": 0.6, "t_list": [Infinity]}',
         "t_list time must be a finite real number, got float inf"),
        ("clt-experiment", b'{"H": 0.6, "t_list": [NaN]}',
         "t_list time must be a finite real number, got float nan"),
        ("clt-experiment", b'{"H": 0.6, "cost_guard": NaN}',
         "cost_guard must not be NaN"),
        ("clt-experiment", b'{"H": 0.6, "t_list": [true]}',
         "t_list time must be a finite real number, got bool True"),
        ("clt-experiment", b'{"H": 0.6, "f": ["hat:a=0,b=inf"]}',
         "hat requires finite ends, got b=inf"),
        ("clt-experiment",
         b'{"H": 0.6, "f": ["indicator:a=-inf,b=0"]}',
         "indicator requires finite ends, got a=-inf"),
        ("clt-experiment",
         b'{"H": 0.6, "f": ["poly_bump:a=0,b=inf,k=2"]}',
         "poly_bump requires finite ends, got b=inf"),
    ], ids=["unknown-key", "list", "wrong-type", "empty-container",
            "lambda-nan", "lambda-str", "lambda-list", "fixed-eps-nan",
            "grid-float", "grid-bool", "t-inf", "t-nan", "cost-guard-nan",
            "t-bool", "hat-inf", "indicator-inf", "poly-bump-inf"])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, capsys,
                                                 command, content, names):
        fn = tmp_path / "input"
        fn.write_bytes(content)
        if command == "localtime":
            argv = [command, "--in", str(fn), "--lambda", "0",
                    "--out", str(tmp_path / "lt.csv")]
        else:
            argv = [command, "--config", str(fn), "--threads", "2",
                    "--out", str(tmp_path / "rep.json")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert names in err

    @pytest.mark.parametrize("extra, message", [
        (["--estimator", "fourier", "--xi-max", "inf", "--d-xi", "0.1"],
         "finite"),
        (["--estimator", "fourier", "--xi-max", "0"], "positive"),
        (["--estimator", "fourier", "--d-xi", "0"], "positive"),
        (["--T", "-1"], "T must be positive"),
        (["--T", "-1", "--eps", "0.01"], "T must be positive"),
        (["--estimator", "fourier", "--xi-max", "1e200", "--d-xi", "1e-10"],
         "exceeds 2^52"),
        (["--estimator", "fourier", "--xi-max", "1e200", "--d-xi", "1e-10",
          "--kind", "derivative"], "exceeds 2^52"),
        (["--lambda", "nan"], "lambda must be a finite"),
        (["--lambda", "inf", "--estimator", "fourier"],
         "lambda must be a finite"),
        (["--eps", "nan"], "eps must be positive and finite"),
        (["--eps", "inf"], "eps must be positive and finite"),
        (["--eps", "0"], "eps must be positive and finite"),
        (["--estimator", "fourier", "--eps", "0"],
         "eps must be positive and finite"),
        (["--estimator", "fourier", "--eps", "-1"],
         "eps must be positive and finite"),
        (["--estimator", "fourier", "--eps", "nan"],
         "eps must be positive and finite"),
    ], ids=["xi-max-inf", "xi-max-zero", "d-xi-zero", "T-negative",
            "T-negative-fixed-eps", "too-many-frequencies-level",
            "too-many-frequencies-derivative", "lambda-nan",
            "lambda-inf-fourier", "eps-nan", "eps-inf", "eps-zero",
            "eps-zero-fourier", "eps-negative-fourier", "eps-nan-fourier"])
    def test_localtime_bad_grid_exits_2(self, tmp_path, capsys, extra,
                                        message):
        # an explicit 0 is refused, not replaced by the default
        fn = str(tmp_path / "p.fbmp")
        pathio.write_paths(fn, fbm.sample_paths(0.3, 1.0, 16, 1, seed=0))
        out = tmp_path / "lt.csv"
        assert cli.main(["localtime", "--in", fn, "--out", str(out),
                         *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

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
