import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from olskit import arrays, cli, kernels, svm
from olskit.cli import (
    ConfigError,
    CsvError,
    _format_csv,
    canonical_json,
    config_from_dict,
    load_csv,
    main,
    parse_config,
)
from olskit.kernels import KernelSpec
from olskit.linalg import Tolerance
from olskit.model import GmtReport
from olskit.verify import VERIFY_TARGETS

from helpers import (
    blobs_2d,
    canonical_json_cellwise,
    closed_form_kernel,
    design_points_tuples,
    first_rows_tuples,
    format_csv_cellwise,
    stationary_kernel_oracle,
)

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
        ("verify", "n_models", 1),
    ])
    def test_malformed_block_field_is_input_error(self, tmp_path, capsys,
                                                  block, key, value):
        config = write_config(tmp_path / "c.json", {block: {key: value}})
        code = run_cli(["verify", "uii", "--config", config, "--out", tmp_path / "out"])
        assert code == 2
        assert f"error: {block}.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1], 5, None], ids=["list", "number", "null"])
    @pytest.mark.parametrize("block", ["tolerances", "krige", "svm", "fuzzy",
                                       "condition", "verify"])
    def test_non_object_block_is_input_error(self, tmp_path, capsys, block, value):
        config = write_config(tmp_path / "c.json", {block: value})
        code = run_cli(["verify", "uii", "--config", config, "--out", tmp_path / "out"])
        assert code == 2
        assert f"error: {block}: must be an object\n" in capsys.readouterr().err

    def test_non_object_root_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[1]")
        code = run_cli(["verify", "uii", "--config", config, "--out", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == "error: config root must be a JSON object\n"

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

    @pytest.mark.parametrize("matrix", [[[True]], [[1, "2"], [2, 5]],
                                        [[1.0, None], [0.0, 1.0]]],
                             ids=["boolean", "string", "null"])
    def test_non_number_coregionalization_is_input_error(self, tmp_path, capsys, matrix):
        config = write_config(tmp_path / "c.json", {"kernel": {
            "family": "se", "output_dim": len(matrix), "coregionalization": matrix}})
        code = run_cli(["verify", "uii", "--config", config, "--out", tmp_path / "out"])
        assert code == 2
        assert "error: kernel.coregionalization: expected a number, got " in (
            capsys.readouterr().err)

    def test_valid_coregionalization_kept_as_given(self):
        matrix = [[2, 1], [1, 1.5]]
        config = config_from_dict({**MINIMAL, "kernel": {
            "family": "se", "output_dim": 2, "coregionalization": matrix}})
        assert canonical_json(config.to_dict()["kernel"]["coregionalization"]) == (
            canonical_json(matrix))
        assert np.array_equal(config.spec.coregionalization, matrix)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("path, raw", [
        ("kernel.lengthscale", {"kernel": {"family": "se", "lengthscale": None}}),
        ("kernel.variance", {"kernel": {"family": "se", "variance": None}}),
        ("kernel.support_radius",
         {"kernel": {"family": "wendland", "support_radius": None}}),
        ("svm.tol", {**MINIMAL, "svm": {"tol": None}}),
        ("fuzzy.prior", {**MINIMAL, "fuzzy": {"prior": None}}),
    ])
    def test_non_finite_number_names_field(self, path, raw, token):
        # the json module reads NaN, Infinity and -Infinity as floats
        block, key = path.split(".")
        raw = {"seed": 0, **raw, block: {**raw[block], key: json.loads(token)}}
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: must be finite"):
            config_from_dict(raw)

    def test_integer_beyond_float_range_names_field(self):
        raw = {**MINIMAL, "svm": {"tol": 10 ** 400}}
        with pytest.raises(ConfigError, match=r"^svm\.tol: must be finite"):
            config_from_dict(raw)

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
        again = config_from_dict(json.loads(canonical_json(config.to_dict())))
        assert again == config
        assert canonical_json(again.to_dict()) == canonical_json(config.to_dict())


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

    def test_first_bad_row_wins(self, tmp_path):
        # a bad cell in row 3 is reported before a ragged row 5, and the reverse
        cell_first = write_csv(tmp_path / "a.csv",
                               "i_1,v_1\n0,1\n1, x \n2,3\n4\n")
        with pytest.raises(CsvError) as err:
            load_csv(cell_first)
        assert str(err.value) == f"{cell_first} row 3 column 2: non-numeric cell 'x'"
        ragged_first = write_csv(tmp_path / "b.csv",
                                 "i_1,v_1\n0,1\n1,2,3\n2,3\nx,4\n")
        with pytest.raises(CsvError) as err:
            load_csv(ragged_first)
        assert str(err.value) == f"{ragged_first} row 3: expected 2 cells, got 3"

    def test_width_checked_before_cells_within_a_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n0,1\nx,y,z\n")
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert str(err.value) == f"{path} row 3: expected 2 cells, got 3"

    def test_blank_lines_do_not_count_as_rows(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n\n0,1\n\n1,oops\n")
        with pytest.raises(CsvError, match="row 3 column 2: non-numeric cell 'oops'"):
            load_csv(path)

    def test_padded_cells_parse(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "i_1 , v_1\n 0.5 ,\t-2e3 \r\n1,2\n")
        data = load_csv(path)
        assert np.array_equal(data.points, [[0.5], [1.0]])
        assert np.array_equal(data.values, [[-2000.0], [2.0]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2], ids=["point", "value"])
    def test_non_finite_cell_location(self, tmp_path, cell, column):
        row = ["1", "2"]
        row[column - 1] = f" {cell} "
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n0,1\n" + ",".join(row) + "\n")
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert str(err.value) == f"{path} row 3 column {column}: non-finite cell '{cell}'"

    @pytest.mark.parametrize("text, message", [
        # file order against a non-numeric cell and a ragged row, both ways
        ("0,1\n1,nan\n2,x\n", "row 3 column 2: non-finite cell 'nan'"),
        ("0,1\n1,x\n2,inf\n", "row 3 column 2: non-numeric cell 'x'"),
        ("-inf,1\n4\n", "row 2 column 1: non-finite cell '-inf'"),
        ("4\n-inf,1\n", "row 2: expected 2 cells, got 1"),
        # within a row: width first, then cells left to right
        ("nan,x\n", "row 2 column 1: non-finite cell 'nan'"),
        ("x,nan\n", "row 2 column 1: non-numeric cell 'x'"),
        ("inf,1,2\n", "row 2: expected 2 cells, got 3"),
    ])
    def test_non_finite_cell_precedence(self, tmp_path, text, message):
        path = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + text)
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert str(err.value) == f"{path} {message}"

    def test_header_only_keeps_widths(self, tmp_path):
        data = load_csv(write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n"))
        assert data.points.shape == (0, 2)
        assert data.values.shape == (0, 1)

    def test_columns_are_contiguous_copies(self, tmp_path):
        data = load_csv(write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n0,1,2\n3,4,5\n"))
        assert data.points.flags.c_contiguous and data.values.flags.c_contiguous
        assert not np.shares_memory(data.points, data.values)
        assert np.array_equal(data.points, [[0.0, 1.0], [3.0, 4.0]])
        assert np.array_equal(data.values, [[2.0], [5.0]])


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e300, -1e300,
               float(2**53 + 1), 1e16, 0.1, -0.1, 1.0, -3.0, 2.0**52,
               1.7976931348623157e308]


def seeded_tables():
    rng = np.random.default_rng(42)
    for rows, cols in [(1, 1), (1, 7), (9, 1), (30, 12), (5, 120)]:
        magnitude = 10.0 ** rng.uniform(-30, 30, (rows, cols))
        yield rng.choice([-1.0, 1.0], (rows, cols)) * magnitude * rng.random((rows, cols))
    yield rng.standard_normal((300, 4))
    yield np.round(rng.standard_normal((6, 5)) * 1000)  # integer-valued floats


def vector_path_tables():
    """Seeded tables of at least ``cli._SMALL_TABLE`` cells, ~10**5 in all."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    yield np.where(np.isfinite(bits), bits, 1.0).reshape(200, 100)
    exponents = np.arange(-324, 309)
    with np.errstate(over="ignore", under="ignore"):
        scaled = rng.uniform(1.0, 10.0, (16, exponents.size)) * 10.0 ** exponents
    scaled[~np.isfinite(scaled)] = 1.7976931348623157e308
    yield scaled * rng.choice([-1.0, 1.0], scaled.shape)
    powers = 10.0 ** np.arange(-30, 31)
    yield np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                          -powers, -np.nextafter(powers, 0.0)]).reshape(5, -1)
    odd = 2 * rng.integers(0, 2**16, 4000) + 1
    yield (1.0 + odd * 2.0**-17).reshape(40, 100)  # ties at the 17th digit
    odd = 2 * rng.integers(0, 2**20, 4000) + 1
    yield (odd * 2.0 ** -rng.integers(1, 60, 4000)).reshape(100, 40)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                      -1e-320, 1e-4, np.nextafter(1e-4, 0.0), 1e16, 1e17,
                      np.nextafter(1e17, 0.0), 99999999999999984.0, 1.0, -1.0, 0.5])
    yield np.tile(edges, (20, 1))
    yield rng.standard_normal((300, 120))
    yield rng.standard_normal((60, 50)).astype(np.float32)
    yield rng.integers(-2**62, 2**62, (40, 50))
    yield rng.random((30, 20)) < 0.5
    labels = np.zeros((400, 4))
    labels[:, :3] = rng.standard_normal((400, 3))
    labels[::3, 2] = 0.0
    labels[:, 3] = rng.integers(0, 2, 400)
    yield labels
    specials = rng.standard_normal((30, 40))
    specials.flat[rng.choice(specials.size, 60, replace=False)] = rng.choice(
        [np.nan, np.inf, -np.inf], 60)
    yield specials
    block = cli._BLOCK
    for cells in (block - 1, block, block + 1):
        yield rng.standard_normal((cells, 1))
        yield rng.standard_normal((1, cells))
    yield rng.standard_normal((2 * block + 3, 2))


class TestFloatFormatting:
    """``%.17g`` text is the bytes of per-cell ``format(x, ".17g")``."""

    def tables(self):
        edge = np.array(EDGE_VALUES)
        yield from seeded_tables()
        yield edge[None, :]
        yield edge[:, None]
        yield edge.reshape(4, 4)
        yield np.zeros((0, 3))
        yield np.array([0.0, -0.0, 1e-45, -1e-40, 3.4e38, 0.1, 1.0, 2.0**24 + 1],
                       dtype=np.float32).reshape(2, 4)
        yield np.random.default_rng(3).standard_normal((7, 3)).astype(np.float32)

    def test_csv_matches_cellwise(self):
        for table in self.tables():
            header = [f"c_{k}" for k in range(1, table.shape[1] + 1)]
            assert _format_csv(header, table) == format_csv_cellwise(header, table)

    def test_csv_of_vector_and_integers(self):
        for rows in (np.array(EDGE_VALUES), np.array([2**53 + 1, -7, 0]),
                     np.array([True, False])):
            header = [f"c_{k}" for k in range(1, rows.size + 1)]
            assert _format_csv(header, rows) == format_csv_cellwise(header, rows)

    def test_json_matches_cellwise(self):
        for table in self.tables():
            for value in (table, table[0] if table.shape[0] else table[:, 0],
                          {"b": table, "a": [table, 1.5], "n": 3}):
                assert canonical_json(value) == canonical_json_cellwise(value)

    def test_json_of_other_arrays_matches_cellwise(self):
        for value in (np.arange(6).reshape(2, 3), np.array([True, False]),
                      np.zeros((2, 2, 2)), np.array(2.5), np.zeros(0), np.zeros((3, 0))):
            assert canonical_json(value) == canonical_json_cellwise(value)

    def test_model_json_shape(self):
        rng = np.random.default_rng(5)
        value = {"kernel": {"family": "se", "lengthscale": 0.7, "support_radius": None},
                 "nu0": rng.random(60), "nu1": rng.random(60),
                 "points_0": rng.standard_normal((60, 2)),
                 "points_1": rng.standard_normal((60, 2)),
                 "rho": np.float64(0.25), "gap": 1e-13, "offset": -0.0}
        assert canonical_json(value) == canonical_json_cellwise(value)

    def test_csv_vector_path_matches_cellwise(self):
        for table in vector_path_tables():
            assert table.size >= cli._SMALL_TABLE
            header = [f"c_{k}" for k in range(1, table.shape[1] + 1)]
            assert _format_csv(header, table) == format_csv_cellwise(header, table)

    def test_json_vector_path_matches_cellwise(self):
        for table in vector_path_tables():
            if np.isfinite(table).all():
                assert canonical_json(table) == canonical_json_cellwise(table)
                assert canonical_json(table.ravel()) == canonical_json_cellwise(table.ravel())

    def test_csv_peak_memory_is_bounded_by_its_text(self):
        # blocks of rows keep the temporaries small: converting the whole
        # 300 x 120 table at once peaks at about 14 times its text
        table = np.random.default_rng(7).standard_normal((300, 120))
        header = [f"c_{k}" for k in range(1, 121)]
        text = _format_csv(header, table)
        tracemalloc.start()
        try:
            _format_csv(header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected_with_one_message(self, bad):
        message = "^reports must not contain non-finite numbers$"
        for value in (bad, np.float64(bad), np.array([1.0, bad]),
                      np.array([[1.0, 2.0], [bad, 3.0]]), {"x": [0.5, bad]},
                      np.array([bad], dtype=np.float32)):
            with pytest.raises(ValueError, match=message):
                canonical_json(value)


STRICT_PD_WARNING = ("warning: kernel gram is not strictly positive definite on the "
                     "training points; hull separability is not guaranteed a priori")


def run_cli(args):
    return main([str(a) for a in args])


class TestCsvOutputsRoundTrip:
    """Every CSV a command writes is the per-cell text of its source array,
    and parses back bit for bit to it."""

    @pytest.mark.parametrize("command", ["krige", "condition", "classify-svm",
                                         "classify-fuzzy"])
    def test_round_trip(self, tmp_path, monkeypatch, command):
        d0, d1 = blobs_2d(1, n_per_class=8)
        labelled = [(p, 0) for p in d0.tolist()] + [(p, 1) for p in d1.tolist()]
        if command in ("krige", "condition"):
            labelled = [(p, np.sin(p[0]) - p[1] / 3.0) for p, _ in labelled[::3]]
        data = write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n" + "".join(
            f"{a!r},{b!r},{float(v)!r}\n" for (a, b), v in labelled))
        query = write_csv(tmp_path / "q.csv", "i_1,i_2\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in
            np.random.default_rng(2).uniform(-2.0, 5.0, (7, 2)).tolist()))
        config = write_config(tmp_path / "c.json", {"samples": 40})
        self.check(tmp_path, monkeypatch, [command, "--config", config, "--data", data,
                                           "--query", query])

    def test_condition_at_benchmark_size(self, tmp_path, monkeypatch):
        # 20 observed and 100 query points, 300 samples: a 300 x 120 samples.csv
        rng = np.random.default_rng(11)
        xo = 0.5 * (np.arange(20) + rng.uniform(0.2, 0.8, 20))
        xq = rng.uniform(0.0, 10.0, 100)
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + "".join(
            f"{a!r},{v!r}\n" for a, v in zip(xo.tolist(), np.sin(xo).tolist())))
        query = write_csv(tmp_path / "q.csv", "i_1\n" + "".join(
            f"{a!r}\n" for a in xq.tolist()))
        config = write_config(tmp_path / "c.json", {
            "kernel": {"family": "matern52", "lengthscale": 1.0}, "samples": 300})
        shapes = self.check(tmp_path, monkeypatch, ["condition", "--config", config,
                                                    "--data", data, "--query", query])
        assert (300, 120) in shapes and 300 * 120 >= cli._SMALL_TABLE

    def check(self, tmp_path, monkeypatch, argv):
        written = []
        format_csv = cli._format_csv

        def recorded(header, rows):
            text = format_csv(header, rows)
            written.append((text, np.atleast_2d(rows).copy()))
            assert text == format_csv_cellwise(header, rows)
            return text

        monkeypatch.setattr(cli, "_format_csv", recorded)
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", out]) == 0
        files = sorted(out.glob("*.csv"))
        assert sorted(f.read_text() for f in files) == sorted(text for text, _ in written)
        for text, rows in written:
            lines = text.splitlines()
            assert len(lines) == rows.shape[0] + 1
            parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            assert parsed.shape == rows.shape
            assert np.array_equal(parsed.view(np.int64), rows.view(np.int64))
        return [rows.shape for _, rows in written]


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

    def test_svm_certified_gram_runs_no_factorization_and_no_warning(
            self, tmp_path, monkeypatch, capsys):
        # the classify-svm benchmark's shape: 2 x 60 blobs, SE with l = 0.7;
        # its computed Gram is singular at the gate's floor, but the kernel
        # is strictly PD at distinct points by theorem (kernels._gram_gate)
        rng = np.random.default_rng([5, 0])
        c = np.array([1.5, 0.0])
        d0 = -c + 0.5 * rng.standard_normal((60, 2))
        d1 = c + 0.5 * rng.standard_normal((60, 2))
        rows = [f"{a!r},{b!r},{label}\n" for label, pts in ((0, d0), (1, d1))
                for a, b in pts.tolist()]
        data = write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n" + "".join(rows))
        query = write_csv(tmp_path / "q.csv", "i_1,i_2\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rng.uniform([-4.0, -3.0], [4.0, 3.0],
                                                     (40, 2)).tolist()))
        config = write_config(tmp_path / "c.json",
                              {"kernel": {"family": "se", "lengthscale": 0.7}})

        def refuse(*args, **kwargs):
            raise AssertionError("factorization called")

        for name in ("cholesky", "eigvalsh", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert run_cli(["classify-svm", "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"]) == 0
        wrote, = capsys.readouterr().err.splitlines()
        assert wrote.startswith("classify-svm: wrote ")

    @pytest.mark.filterwarnings("default:kernel gram is not strictly positive definite")
    def test_svm_non_separable_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json",
                              {"kernel": {"family": "linear"}})
        data = write_csv(tmp_path / "d.csv",
                         "i_1,v_1\n-1.0,0\n1.0,0\n0.0,1\n")
        out = tmp_path / "out"
        code = run_cli(["classify-svm", "--config", config, "--data", data,
                        "--out", out])
        assert code == 1
        warning, failure = capsys.readouterr().err.splitlines()
        assert warning == STRICT_PD_WARNING
        assert failure.startswith("verification failure: hulls are not separable")


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

    def test_small_variance_prior_is_sampled(self, tmp_path):
        # a prior of variance 1e-12 keeps its spread instead of collapsing
        # every draw onto the posterior mean
        config = write_config(tmp_path / "c.json", {
            "samples": 50,
            "kernel": {"family": "se", "lengthscale": 1.0, "variance": 1e-12},
        })
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,1e-6\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.0\n0.4\n0.8\n")
        out = tmp_path / "out"
        assert run_cli(["condition", "--config", config, "--data", data,
                        "--query", query, "--out", out]) == 0
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        assert len(rows) == 50 and len(set(rows)) == 50


class TestDataWithoutRows:
    """A data file with a header and no rows leaves the prior as it is."""

    def run(self, tmp_path, command):
        config = write_config(tmp_path / "c.json", {"samples": 50})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.0\n0.5\n1.0\n")
        out = tmp_path / "out"
        assert run_cli([command, "--config", config, "--data", data,
                        "--query", query, "--out", out]) == 0
        return out, json.loads((out / "report.json").read_text())

    def test_krige_predicts_the_prior_mean(self, tmp_path):
        out, report = self.run(tmp_path, "krige")
        assert report["metrics"]["n_observed"] == 0
        assert report["metrics"]["reproduction_max_error"] == 0.0
        predictions = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1)
        assert np.array_equal(predictions[:, 1], np.zeros(3))

    def test_condition_draws_from_the_prior(self, tmp_path):
        out, report = self.run(tmp_path, "condition")
        assert report["metrics"]["fiber_max_residual"] == 0.0
        assert report["metrics"]["posterior_mean_norm"] == 0.0
        draws = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        assert draws.shape == (50, 3) and np.all(draws.std(axis=0) > 0.0)


class TestIllConditionedInput:
    """400 sorted uniform points on [0, 10], Matern-5/2, every 4th observed."""

    X = np.sort(np.random.default_rng(0).uniform(0.0, 10.0, 400))
    OBSERVED = X[::4]
    QUERIES = np.delete(X, np.arange(0, 400, 4))

    def run_condition(self, tmp_path, ell, samples):
        config = write_config(tmp_path / "c.json", {
            "kernel": {"family": "matern52", "lengthscale": ell},
            "samples": samples,
        })
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + "".join(
            f"{float(a)!r},{float(np.sin(a))!r}\n" for a in self.OBSERVED))
        query = write_csv(tmp_path / "q.csv", "i_1\n" + "".join(
            f"{float(a)!r}\n" for a in self.QUERIES))
        return run_cli(["condition", "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"])

    @pytest.mark.parametrize("ell, cause", [
        (2.0, "leaks off the fiber"),
    ])
    def test_condition_is_numerical_failure(self, tmp_path, capsys, ell, cause):
        assert self.run_condition(tmp_path, ell, 10) == 1
        assert cause in capsys.readouterr().err

    def test_short_lengthscale_is_answered(self, tmp_path):
        # R K rounds to a negative eigenvalue here; draws of the prior
        # mapped onto the fiber never factor it
        assert self.run_condition(tmp_path, 0.5, 200) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["fiber_max_residual"] <= 1e-8
        y = np.sin(self.OBSERVED)
        points = np.concatenate([self.QUERIES, self.OBSERVED])[:, None]
        k = closed_form_kernel("matern52", points, points, 1.0, 0.5)
        factor = cho_factor(k[300:, 300:])
        oracle = np.concatenate([k[:300, 300:] @ cho_solve(factor, y), y])
        mean = np.loadtxt(out / "posterior_mean.csv", delimiter=",", skiprows=1)
        slack = 1e-8 * np.abs(y).max()
        assert np.abs(mean[:, 1] - oracle).max() <= slack
        draws = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        # observed columns have zero variance: the mean's slack covers them
        assert np.all(np.abs(draws.mean(axis=0) - oracle) <= 7.0 * se + slack)


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


def design_cases():
    """Seeded query and observed point sets on a coarse grid: the sets
    overlap, ties in the first coordinate abound, the observed rows are
    shuffled, and the zeros of one file are -0.0."""
    rng = np.random.default_rng(1616)
    values = np.arange(-6, 7) * 0.5
    for case in range(40):
        d = 1 + case % 2
        grid = np.stack(np.meshgrid(*[values] * d, indexing="ij"), axis=-1).reshape(-1, d)
        rows = grid[rng.permutation(len(grid))]
        nq = int(rng.integers(0, 9))
        overlap = int(rng.integers(0, nq + 1))
        query = rows[:nq].copy()
        observed = rows[nq - overlap: nq + int(rng.integers(1, 9))].copy()
        observed = observed[rng.permutation(len(observed))]
        signed = query if case % 4 < 2 else observed
        signed[signed == 0.0] = -0.0
        yield query, observed


class TestDesignIndexing:
    def test_matches_tuple_oracle(self):
        config = config_from_dict(MINIMAL)
        signed_zero_matches = 0
        for query, observed in design_cases():
            design, idx = cli._design(config, query, observed)
            points, want = design_points_tuples(query, observed)
            assert np.array_equal(design.index_points.view(np.int64),
                                  points.view(np.int64))
            assert idx == want
            signed_zero_matches += sum(
                np.array_equal(o, q) and o.tobytes() != q.tobytes()
                for o in observed for q in query)
        assert signed_zero_matches > 0

    @pytest.mark.parametrize("command", ["krige", "condition"])
    @pytest.mark.parametrize("query_rows, data_rows", [
        (["0.5", "0.5"], ["0.0,1.0"]),
        (["0.5"], ["0.0,1.0", "0.0,2.0"]),
        (["0.0"], ["0.0,1.0", "-0.0,2.0"]),
        (["-0.0", "0.0"], ["1.0,1.0"]),
        (["0.5"], ["-0.0,1.0", "0.0,2.0"]),
    ], ids=["query", "data", "data-in-query", "query-signed-zero", "data-signed-zero"])
    def test_duplicate_point_exits_two(self, tmp_path, capsys, command,
                                       query_rows, data_rows):
        config = write_config(tmp_path / "c.json", {"samples": 10})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + "\n".join(data_rows) + "\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n" + "\n".join(query_rows) + "\n")
        code = run_cli([command, "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"])
        assert code == 2
        assert "distinct" in capsys.readouterr().err


class TestOutputBytesUnderOracles:
    """Every output byte is the same with the triangle pass and the row-key
    routine replaced by their closed-form and tuple oracles."""

    def inputs(self, tmp_path, command):
        rng = np.random.default_rng(1617)
        if command == "classify-svm":
            d0, d1 = blobs_2d(3, n_per_class=60)
            rows = [f"{a!r},{b!r},{label}\n" for label, pts in ((0, d0), (1, d1))
                    for a, b in pts.tolist()]
            data = write_csv(tmp_path / "d.csv", "i_1,i_2,v_1\n" + "".join(rows))
            query = write_csv(tmp_path / "q.csv", "i_1,i_2\n" + "".join(
                f"{a!r},{b!r}\n" for a, b in rng.uniform(-1.0, 4.0, (400, 2)).tolist()))
            return write_config(tmp_path / "c.json", {
                "kernel": {"family": "se", "lengthscale": 0.5}}), data, query
        if command == "krige":
            # 500 points at spacing ~0.1, every fifth one observed
            x = 0.1 * (np.arange(500) + rng.uniform(-0.2, 0.2, 500))
            observed = np.arange(500) % 5 == 2
            xo, xq, ell, extra = x[observed], x[~observed], 0.5, {}
        else:
            # 20 observed points, one per cell of width 0.5, and 100 queries
            xo = 0.5 * (np.arange(20) + rng.uniform(0.2, 0.8, 20))
            xq, ell, extra = rng.uniform(0.0, 10.0, 100), 1.0, {"samples": 300}
        k = closed_form_kernel("matern52", xo[:, None], xo[:, None], 1.0, ell)
        y = np.linalg.cholesky(k) @ rng.standard_normal(xo.size)
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + "".join(
            f"{a!r},{v!r}\n" for a, v in zip(xo.tolist(), y.tolist())))
        query = write_csv(tmp_path / "q.csv", "i_1\n" + "".join(
            f"{a!r}\n" for a in xq.tolist()))
        extra["kernel"] = {"family": "matern52", "lengthscale": ell}
        return write_config(tmp_path / "c.json", extra), data, query

    @pytest.mark.parametrize("command", ["krige", "condition", "classify-svm"])
    def test_outputs_identical(self, tmp_path, monkeypatch, command):
        config, data, query = self.inputs(tmp_path, command)
        argv = [command, "--config", config, "--data", data, "--query", query]
        assert run_cli([*argv, "--out", tmp_path / "shipped"]) == 0
        calls = []

        def counted(oracle):
            def wrapped(*args, **kwargs):
                calls.append(oracle.__name__)
                return oracle(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(kernels, "_stationary_pass", counted(stationary_kernel_oracle))
        for module in (kernels, arrays, cli, svm):
            monkeypatch.setattr(module, "_first_rows", counted(first_rows_tuples))
        assert run_cli([*argv, "--out", tmp_path / "oracle"]) == 0
        assert set(calls) == {"stationary_kernel_oracle", "first_rows_tuples"}
        shipped = sorted((tmp_path / "shipped").iterdir())
        assert [p.name for p in shipped] == sorted(
            p.name for p in (tmp_path / "oracle").iterdir())
        for path in shipped:
            assert path.read_bytes() == (tmp_path / "oracle" / path.name).read_bytes(), \
                path.name


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

    @pytest.mark.parametrize("gate", ["mse_pass", "identity_pass"])
    def test_gmt_passes_through_the_report_gates(self, monkeypatch, gate):
        verify_gmt = VERIFY_TARGETS["gmt"]
        assert verify_gmt(n_models=2, n_alternatives=3)["passed"] is True
        monkeypatch.setattr(GmtReport, gate, property(lambda self: False))
        assert verify_gmt(n_models=2, n_alternatives=3)["passed"] is False

    def test_continuity(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run_cli(["verify", "continuity", "--config", config, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["delta_strictly_decreasing"] is True


class TestExitCodes:
    def test_unknown_command_usage(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "olskit.cli", "frobnicate"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
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

    def test_non_finite_csv_is_located_input_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0,1\n1,nan\n")
        code = run_cli(["krige", "--config", config, "--data", data,
                        "--out", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data} row 3 column 2: non-finite cell 'nan'\n"

    @pytest.mark.filterwarnings("error")
    def test_single_sample_disintegration_is_input_error(self, tmp_path, capsys):
        # one draw has no sample standard deviation for the Monte Carlo bound
        config = write_config(tmp_path / "c.json", {"samples": 1})
        out = tmp_path / "out"
        assert run_cli(["verify", "disintegration", "--config", config,
                        "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_samples must be at least 2") and err.count("\n") == 1
        assert not list(out.iterdir())
        # condition keeps accepting a single sample
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        assert run_cli(["condition", "--config", config, "--data", data,
                        "--out", tmp_path / "cond"]) == 0

    @pytest.mark.parametrize("command", ["krige", "condition", "verify"])
    def test_negative_seed_flag_is_input_error(self, tmp_path, capsys, command):
        # the flag obeys the config's seed rule, before any output is written
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        inputs = ["disintegration"] if command == "verify" else ["--data", data]
        out = tmp_path / "out"
        assert run_cli([command, *inputs, "--config", config, "--out", out,
                        "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed: must be an integer >= 0\n"
        assert not out.exists()

    def test_failed_flag_names_its_metric(self, tmp_path, capsys):
        # SE points 0 and 1e-6 pass the rank test at rcond 1e-16, so krige
        # jitters the block and the data are no longer reproduced
        config = write_config(tmp_path / "c.json", {"tolerances": {"rcond": 1e-16}})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0,1\n1e-6,1\n")
        out = tmp_path / "out"
        assert run_cli(["krige", "--config", config, "--data", data, "--out", out]) == 1
        wrote, failed = capsys.readouterr().err.splitlines()
        assert wrote.startswith(f"krige: wrote {out} in ")
        error = json.loads((out / "report.json").read_text())["metrics"]["reproduction_max_error"]
        assert error > 1e-8
        assert failed == (f"krige: flag observations_reproduced is false "
                          f"(reproduction_max_error {error:.6g})")


class TestFlagsDoNotDependOnUnits:
    """Data scaled by 2^k and the variance by 2^2k leave every flag and exit
    code as they are: each flag's bound is relative to the values it compares."""

    X = np.linspace(0.0, 6.0, 40)
    OBSERVED = X[::4]

    def run(self, tmp_path, command, k, values):
        config = write_config(tmp_path / "c.json", {
            "kernel": {"family": "matern52", "lengthscale": 0.7, "variance": 4.0 ** k},
            "samples": 20,
        })
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n" + "".join(
            f"{float(a)!r},{float(v)!r}\n" for a, v in zip(self.OBSERVED, values)))
        query = write_csv(tmp_path / "q.csv", "i_1\n" + "".join(
            f"{float(a)!r}\n" for a in np.delete(self.X, np.arange(0, 40, 4))))
        out = tmp_path / f"{command}-{k}"
        code = run_cli([command, "--config", config, "--data", data, "--query", query,
                        "--out", out])
        return code, json.loads((out / "report.json").read_text())["flags"]

    @pytest.mark.parametrize("command", ["krige", "condition", "classify-fuzzy"])
    def test_scaled_data_keeps_flags_and_exit_code(self, tmp_path, capsys, command):
        labels = (np.sin(self.OBSERVED) > 0.0).astype(float)
        for k in range(-40, 41, 5):
            if command == "classify-fuzzy":
                values = labels  # labels stay 0 and 1; only the variance moves
            else:
                values = 2.0 ** k * np.sin(self.OBSERVED)
            code, flags = self.run(tmp_path, command, k, values)
            assert code == 0 and all(flags.values()), (k, flags, capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["krige", "condition"])
    def test_all_zero_data_passes(self, tmp_path, capsys, command):
        code, flags = self.run(tmp_path, command, 0, np.zeros(self.OBSERVED.size))
        assert code == 0 and all(flags.values()), capsys.readouterr().err


class TestFailedWrite:
    """An output that cannot be written is one ``error:`` line and exit 2."""

    def test_output_file_that_is_a_directory(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        out = tmp_path / "out"
        (out / "predictions.csv").mkdir(parents=True)
        assert run_cli(["krige", "--config", config, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "predictions.csv" in err
        assert sorted(p.name for p in out.iterdir()) == ["predictions.csv"]  # no temp file

    def test_output_directory_that_is_a_file(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        out = tmp_path / "out"
        out.write_text("taken")
        assert run_cli(["krige", "--config", config, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out.read_text() == "taken"

    def test_temporary_file_removed_when_the_write_fails(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            cli.atomic_write(str(tmp_path / "report.json"), "{}\n")
        assert not list(tmp_path.iterdir())


class TestParserReuse:
    def test_runs_in_one_process_match_fresh_calls(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        krige_data = write_csv(tmp_path / "k.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        krige_query = write_csv(tmp_path / "kq.csv", "i_1\n0.25\n0.5\n")
        d0, d1 = blobs_2d(4, n_per_class=6)
        svm_data = write_csv(tmp_path / "s.csv", "i_1,i_2,v_1\n" + "".join(
            f"{a!r},{b!r},{label}\n" for points, label in ((d0, 0), (d1, 1))
            for a, b in points.tolist()))
        svm_query = write_csv(tmp_path / "sq.csv", "i_1,i_2\n0.5,0.5\n2.5,2.5\n")
        runs = [
            ["krige", "--config", config, "--data", krige_data, "--query", krige_query],
            ["krige", "--config", config, "--frobnicate"],
            ["classify-svm", "--config", config, "--data", svm_data,
             "--query", svm_query],
        ]

        def sequence(tag, fresh):
            results = []
            for k, argv in enumerate(runs):
                if fresh:
                    cli._build_parser.cache_clear()
                out = tmp_path / f"{tag}{k}"
                try:
                    code = run_cli([*argv, "--out", out])
                except SystemExit as exc:
                    code = ("exit", exc.code)
                err = capsys.readouterr().err.replace(str(out), "OUT")
                err = re.sub(r"in [0-9.]+ ms", "in T ms", err)
                files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
                results.append((code, err, files))
            return results

        fresh = sequence("fresh", fresh=True)
        cli._build_parser.cache_clear()
        reused = sequence("reused", fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert [r[0] for r in reused] == [0, ("exit", 2), 0]
        assert "arguments are required: --data" in reused[1][1]
        assert reused[0][2] and reused[2][2]
        assert reused == fresh


class TestFailedRunWritesNothing:
    def test_non_finite_config_exits_before_any_output(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"kernel": {"family": "se"}, "seed": 0, '
                          '"fuzzy": {"prior": NaN}}')
        data = write_csv(tmp_path / "d.csv",
                         "i_1,i_2,v_1\n0.0,0.0,0\n0.3,0.1,0\n3.0,3.0,1\n3.2,2.8,1\n")
        out = tmp_path / "out"
        assert run_cli(["classify-svm", "--config", config, "--data", data,
                        "--out", out]) == 2
        assert capsys.readouterr().err == "error: fuzzy.prior: must be finite, got nan\n"
        assert not out.exists()  # the config is refused before run() starts

    def test_unwritable_report_leaves_outputs_unwritten(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.setattr(cli, "entropy_integral", lambda *args: float("nan"))
        config = write_config(tmp_path / "c.json")
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0.3\n1.0,0.7\n")
        out = tmp_path / "out"
        assert run_cli(["krige", "--config", config, "--data", data,
                        "--out", out]) == 2
        assert capsys.readouterr().err == "error: reports must not contain non-finite numbers\n"
        assert out.is_dir() and not list(out.iterdir())


class TestConfigBuiltOnce:
    @pytest.mark.parametrize("command", ["krige", "condition", "classify-fuzzy",
                                         "classify-svm"])
    def test_kernel_and_tolerance_built_once_per_run(self, tmp_path, monkeypatch,
                                                     command):
        config = write_config(tmp_path / "c.json", {"samples": 20})
        data = write_csv(tmp_path / "d.csv", "i_1,v_1\n0.0,0\n1.0,1\n")
        query = write_csv(tmp_path / "q.csv", "i_1\n0.25\n0.5\n")
        calls = {KernelSpec: 0, Tolerance: 0}
        for cls in calls:
            def counted(self, post_init=cls.__post_init__, cls=cls):
                calls[cls] += 1
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        assert run_cli([command, "--config", config, "--data", data,
                        "--query", query, "--out", tmp_path / "out"]) == 0
        assert calls == {KernelSpec: 1, Tolerance: 1}


class TestCommandList:
    def test_parser_follows_the_command_table(self):
        (action,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
        subcommands = action.choices
        assert set(subcommands) == set(cli._COMMANDS) | {"verify"}
        (target,) = [a for a in subcommands["verify"]._actions if a.dest == "target"]
        assert target.choices == sorted(VERIFY_TARGETS)

    def test_readme_names_every_command_and_target(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = readme.split("\nCommands:", 1)[1].split("\n\n", 1)[0]
        names = re.findall(r"`([^`]+)`", paragraph)
        verify = [name for name in names if name.startswith("verify ")]
        assert len(verify) == 1
        targets = re.fullmatch(r"verify \{([a-z|]+)\}", verify[0]).group(1).split("|")
        assert sorted(targets) == sorted(VERIFY_TARGETS)
        commands = {name for name in names if name not in verify}
        assert commands == set(cli._COMMANDS)
