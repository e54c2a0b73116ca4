import json
import subprocess
import sys

import numpy as np
import pytest

from olskit import kernels
from olskit.cli import (
    ConfigError,
    CsvError,
    config_from_dict,
    load_csv,
    main,
    parse_config,
    serialize_config,
)

from helpers import blobs_2d

MINIMAL = {"kernel": {"family": "se", "lengthscale": 1.0, "variance": 1.0}, "seed": 0}


def write_config(path, extra=None):
    raw = json.loads(json.dumps(MINIMAL))
    if extra:
        raw.update(extra)
    path.write_text(json.dumps(raw))
    return str(path)


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_minimal_with_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path / "c.json"))
        assert config.seed == 0
        assert config.tolerances == {"rcond": 1e-12, "abs_psd": 1e-10}
        assert config.samples == 100000
        assert config.blocks["svm"]["max_iter"] == 200000

    def test_negative_lengthscale_names_field(self):
        raw = {"kernel": {"family": "se", "lengthscale": -1.0}, "seed": 0}
        with pytest.raises(ConfigError, match="kernel.lengthscale"):
            config_from_dict(raw)

    def test_unknown_family(self):
        raw = {"kernel": {"family": "mystery"}, "seed": 0}
        with pytest.raises(ConfigError, match="kernel"):
            config_from_dict(raw)

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"kernel": {"family": "se"}})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    @pytest.mark.parametrize("block, key, value", [
        ("krige", "project", "false"),
        ("svm", "tol", -1),
        ("svm", "tol", True),
        ("svm", "max_iter", 0),
        ("svm", "max_iter", 2.7),
        ("fuzzy", "prior", "0.5"),
    ])
    def test_malformed_block_field_is_input_error(self, tmp_path, capsys,
                                                  block, key, value):
        config = write_config(tmp_path / "c.json", {block: {key: value}})
        code = run_cli(["verify", "uii", "--config", config, "--out", tmp_path / "out"])
        assert code == 2
        assert f"error: {block}.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("extra, path", [
        ({"samples": True}, "samples"),
        ({"kernel": {**MINIMAL["kernel"], "output_dim": True}}, "kernel.output_dim"),
        ({"kernel": {**MINIMAL["kernel"], "degree": True}}, "kernel.degree"),
    ])
    def test_boolean_integer_field_is_input_error(self, tmp_path, capsys, extra, path):
        config = write_config(tmp_path / "c.json", extra)
        code = run_cli(["verify", "uii", "--config", config, "--out", tmp_path / "out"])
        assert code == 2
        assert f"error: {path}: must be an integer >= 1" in capsys.readouterr().err

    def test_valid_block_fields_kept_as_given(self):
        blocks = {"krige": {"project": True}, "svm": {"tol": 1, "max_iter": 5},
                  "fuzzy": {"prior": 0}}
        config = config_from_dict({**MINIMAL, **blocks})
        for name, block in blocks.items():
            assert config.blocks[name] == block

    def test_round_trip_identity(self, tmp_path):
        config = parse_config(write_config(
            tmp_path / "c.json",
            {"samples": 5000, "tolerances": {"rcond": 1e-10}},
        ))
        again = config_from_dict(json.loads(serialize_config(config)))
        assert again == config
        assert serialize_config(again) == serialize_config(config)


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.5,1.0\n1.5,2.0\n")
        data = load_csv(path)
        assert data.points.shape == (2, 1)
        assert np.array_equal(data.values, [[1.0], [2.0]])

    def test_query_points_only(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", "i_1,i_2\n0,0\n1,1\n")
        data = load_csv(path)
        assert data.points.shape == (2, 2)
        assert data.values is None

    def test_non_numeric_cell_location(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.5,1.0\n1.5,oops\n")
        with pytest.raises(CsvError, match="row 3 column 2"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.5\n")
        with pytest.raises(CsvError, match="row 2"):
            load_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\n")
        with pytest.raises(CsvError, match="header"):
            load_csv(path)

    def test_row_order_preserved(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1\n3\n1\n2\n")
        assert np.array_equal(load_csv(path).points[:, 0], [3.0, 1.0, 2.0])

    def test_expected_dimension_arguments(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n0,0,1\n")
        data = load_csv(path, d=2, q=1)
        assert data.points.shape == (1, 2)
        with pytest.raises(CsvError, match="index columns"):
            load_csv(path, d=3)
        with pytest.raises(CsvError, match="value columns"):
            load_csv(path, q=2)


def run_cli(args):
    return main([str(a) for a in args])


class TestKrigeCommand:
    def test_golden_run_reproduces_observations(self, tmp_path):
        config = write_config(tmp_path / "c.json",
                              {"kernel": {"family": "se", "lengthscale": 0.5,
                                          "variance": 1.0}})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,1.0\n0.5,-1.0\n")
        query = write_csv(
            tmp_path / "q.csv", "i_1\n0.0\n0.25\n0.5\n0.75\n1.0\n"
        )
        out = tmp_path / "out"
        code = run_cli(["krige", "--config", config, "--data", data,
                        "--query", query, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert report["metrics"]["reproduction_max_error"] <= 1e-8
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "i_1,v_1"
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert abs(table[0, 1] - 1.0) < 1e-8
        assert abs(table[2, 1] + 1.0) < 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.0\n0.5\n1.0\n")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["krige", "--config", config, "--data", data,
                            "--query", query, "--out", out]) == 0
            outputs.append(
                ((out / "report.json").read_bytes(),
                 (out / "predictions.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]


class TestClassifyCommands:
    def test_fuzzy(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0\n1.0,1\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.0\n0.5\n1.0\n")
        out = tmp_path / "out"
        assert run_cli(["classify-fuzzy", "--config", config, "--data", data,
                        "--query", query, "--out", out]) == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        values = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert abs(values[0.0]) < 1e-8
        assert abs(values[1.0] - 1.0) < 1e-8
        assert abs(values[0.5] - 0.5) < 1e-8

    def test_svm(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        data = write_csv(
            tmp_path / "d.csv",
            "i_1,i_2,v_1\n0.0,0.0,0\n0.3,0.1,0\n3.0,3.0,1\n3.2,2.8,1\n",
        )
        query = write_csv(tmp_path / "q.csv", "i_1,i_2\n0.1,0.1\n3.1,3.1\n")
        out = tmp_path / "out"
        assert run_cli(["classify-svm", "--config", config, "--data", data,
                        "--query", query, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["training_errors"] == 0
        assert report["metrics"]["duality_gap"] <= 1e-10
        model = json.loads((out / "model.json").read_text())
        assert set(model) >= {"kernel", "nu0", "nu1", "rho", "offset", "points_0", "points_1"}
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        labels = [float(l.split(",")[-1]) for l in lines[1:]]
        assert labels == [0.0, 1.0]

    def test_svm_evaluates_training_pairs_at_most_twice(self, tmp_path, monkeypatch):
        # once for the problem's Gram, once for margin_check's pointwise audit
        d0, d1 = blobs_2d(0, n_per_class=60)
        rows = [f"{a!r},{b!r},{label}\n" for label, pts in ((0, d0), (1, d1))
                for a, b in pts.tolist()]
        data = write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n" + "".join(rows))
        config = write_config(tmp_path / "c.json",
                              {"kernel": {"family": "se", "lengthscale": 0.5}})
        scalar_kernel = kernels.scalar_kernel
        entries = []

        def counted(spec, x, y):
            out = scalar_kernel(spec, x, y)
            entries.append(out.size)
            return out

        monkeypatch.setattr(kernels, "scalar_kernel", counted)
        assert run_cli(["classify-svm", "--config", config, "--data", data,
                        "--out", tmp_path / "out"]) == 0
        assert 120 ** 2 <= sum(entries) <= 2 * 120 ** 2

    def test_svm_non_separable_exits_one(self, tmp_path):
        config = write_config(tmp_path / "c.json",
                              {"kernel": {"family": "linear"}})
        data = write_csv(tmp_path / "d.csv",
                         "i_1,v_1\n-1.0,0\n1.0,0\n0.0,1\n")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            code = run_cli(["classify-svm", "--config", config, "--data", data,
                            "--out", out])
        assert code == 1


class TestConditionCommand:
    def test_posterior_samples_on_fiber(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"samples": 500})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,1.0\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.0\n0.4\n0.8\n")
        out = tmp_path / "out"
        assert run_cli(["condition", "--config", config, "--data", data,
                        "--query", query, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["fiber_max_residual"] <= 1e-8
        samples = (out / "samples.csv").read_text().strip().splitlines()
        assert len(samples) == 501  # header + draws

    def test_seed_override_changes_draws(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"samples": 50})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,1.0\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.0\n0.5\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["condition", "--config", config, "--data", data,
                 "--query", query, "--out", out_a])
        run_cli(["condition", "--config", config, "--data", data,
                 "--query", query, "--out", out_b, "--seed", 99])
        assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()


class TestIllConditionedInput:
    """400 sorted uniform points on [0, 10], Matern-5/2, every 4th observed."""

    @pytest.mark.parametrize("ell, cause", [
        (2.0, "leaks off the fiber"),
        (0.5, "residual covariance is not PSD"),
    ])
    def test_condition_is_numerical_failure(self, tmp_path, capsys, ell, cause):
        x = np.sort(np.random.default_rng(0).uniform(0.0, 10.0, 400))
        observed = x[::4]
        queries = np.delete(x, np.arange(0, 400, 4))
        config = write_config(tmp_path / "c.json", {
            "kernel": {"family": "matern52", "lengthscale": ell},
            "samples": 10,
        })
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + "".join(
            f"{float(a)!r},{float(np.sin(a))!r}\n" for a in observed))
        query = write_csv(tmp_path / "q.csv", "i_1\n" + "".join(
            f"{float(a)!r}\n" for a in queries))
        code = run_cli(["condition", "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"])
        assert code == 1
        assert cause in capsys.readouterr().err


class TestIndexDimensions:
    @pytest.mark.parametrize("command, values", [
        ("krige", ["0.5", "-1.0"]),
        ("condition", ["0.5", "-1.0"]),
        ("classify-fuzzy", ["0", "1"]),
    ])
    def test_query_dimension_mismatch(self, tmp_path, capsys, command, values):
        config = write_config(tmp_path / "c.json", {"samples": 10})
        data = write_csv(tmp_path / "d.csv",
                         f"i_1,i_2,v_1\n0,0,{values[0]}\n1,1,{values[1]}\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.5\n")
        code = run_cli([command, "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"])
        assert code == 2
        assert "index dimension mismatch: 1 vs 2" in capsys.readouterr().err

    def test_query_file_without_rows_keeps_its_dimension(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n0,0,1\n1,1,2\n")
        query = write_csv(tmp_path / "q.csv", "i_1,i_2\n")
        assert load_csv(query).points.shape == (0, 2)
        assert run_cli(["krige", "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"]) == 0


class TestVerifyCommands:
    def test_uii(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run_cli(["verify", "uii", "--config", config, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["tv_distance"] >= 1.0 / 16.0
        assert report["metrics"]["forbidden_mass_convolution"] == 1.0 / 16.0
        assert report["passed"] is True

    def test_entropy(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run_cli(["verify", "entropy", "--config", config, "--out", out]) == 0

    def test_continuity(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run_cli(["verify", "continuity", "--config", config, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["delta_strictly_decreasing"] is True


class TestExitCodes:
    def test_unknown_command_usage(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "olskit.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_config_is_input_error(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["verify", "uii", "--config", tmp_path / "nope.json",
                        "--out", out])
        assert code == 2

    def test_bad_csv_is_input_error(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,oops\n")
        out = tmp_path / "out"
        code = run_cli(["krige", "--config", config, "--data", data,
                        "--out", out])
        assert code == 2
