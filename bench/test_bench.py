"""Tests of the benchmark itself: checks, tracer and command.

    PYTHONPATH=src python -m pytest -q bench

Each output check must pass on the program's real output and fail once
that output is corrupted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import olskit
import olskit.cli
from spans import Tracer, layer_totals
from workloads import WORKLOADS, CheckFailed, read_csv, write_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One real solution per workload: name -> its output directory."""
    out = {}
    for name, workload in WORKLOADS.items():
        in_dir = tmp_path_factory.mktemp(name.replace("-", "_"))
        workload.write(SEED, 0, str(in_dir))
        argv = [workload.name, "--config", str(in_dir / "config.json"),
                "--data", str(in_dir / "data.csv"), "--query", str(in_dir / "query.csv"),
                "--out", str(in_dir / "out")]
        assert olskit.cli.main(argv) == 0
        out[name] = in_dir / "out"
    return out


def corrupted(solved, name: str, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(solved[name], copy)
    return copy


def rewrite(path: Path, edit) -> None:
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    table = read_csv(str(path))
    edit(table)
    write_csv(str(path), header, table)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_program_output(solved, name):
    checked = WORKLOADS[name].check(SEED, 0, str(solved[name]))
    assert 0.0 < checked.rel_error < 1e-9


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    a, b, c = WORKLOADS[name].inputs(SEED, 5), WORKLOADS[name].inputs(SEED, 5), \
        WORKLOADS[name].inputs(SEED + 1, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_krige_rejects_shifted_prediction(solved, tmp_path):
    out = corrupted(solved, "krige", tmp_path)

    def shift(table):
        table[7, 1] += 1e-6

    rewrite(out / "predictions.csv", shift)
    with pytest.raises(CheckFailed, match="Cholesky reference"):
        WORKLOADS["krige"].check(SEED, 0, str(out))


def test_condition_rejects_sample_off_the_fiber(solved, tmp_path):
    out = corrupted(solved, "condition", tmp_path)
    observed_column = WORKLOADS["condition"].n_query  # observed points follow the queries

    def move(table):
        table[11, observed_column] += 1e-6

    rewrite(out / "samples.csv", move)
    with pytest.raises(CheckFailed, match="fiber"):
        WORKLOADS["condition"].check(SEED, 0, str(out))


def test_condition_rejects_biased_samples(solved, tmp_path):
    out = corrupted(solved, "condition", tmp_path)
    workload = WORKLOADS["condition"]

    def bias(table):
        sd = table[:, :workload.n_query].std(axis=0)
        table[:, :workload.n_query] += (workload.mean_z + 3.0) * sd / np.sqrt(len(table))

    rewrite(out / "samples.csv", bias)
    with pytest.raises(CheckFailed, match="sample mean"):
        workload.check(SEED, 0, str(out))


def test_svm_rejects_flipped_label(solved, tmp_path):
    out = corrupted(solved, "classify-svm", tmp_path)

    def flip(table):
        row = int(np.argmax(np.abs(table[:, 2])))
        table[row, 3] = 1.0 - table[row, 3]

    rewrite(out / "predictions.csv", flip)
    with pytest.raises(CheckFailed, match="label"):
        WORKLOADS["classify-svm"].check(SEED, 0, str(out))


def test_svm_rejects_weights_off_the_simplex(solved, tmp_path):
    out = corrupted(solved, "classify-svm", tmp_path)
    model = json.loads((out / "model.json").read_text())
    model["nu1"][int(np.argmax(model["nu1"]))] *= 1.001
    (out / "model.json").write_text(json.dumps(model))
    with pytest.raises(CheckFailed, match="simplex"):
        WORKLOADS["classify-svm"].check(SEED, 0, str(out))


def test_svm_rejects_suboptimal_weights(solved, tmp_path):
    out = corrupted(solved, "classify-svm", tmp_path)
    model = json.loads((out / "model.json").read_text())
    n = len(model["nu0"])
    model["nu0"] = [1.0 / n] * n  # feasible but far from optimal
    (out / "model.json").write_text(json.dumps(model))
    with pytest.raises(CheckFailed, match="duality gap"):
        WORKLOADS["classify-svm"].check(SEED, 0, str(out))


def test_tracer_restores_every_binding():
    before = {name: getattr(np.linalg, name) for name in ("svd", "eigvalsh")}
    krige = olskit.cli.krige
    tracer = Tracer()
    tracer.install()
    try:
        assert olskit.cli.krige is not krige
        assert np.linalg.svd is not before["svd"]
    finally:
        tracer.uninstall()
    assert olskit.cli.krige is krige
    assert all(getattr(np.linalg, name) is fn for name, fn in before.items())


def test_tracer_records_nested_spans_and_counters(solved, tmp_path):
    workload = WORKLOADS["krige"]
    workload.write(SEED, 1, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        olskit.cli.main([workload.name, "--config", str(tmp_path / "config.json"),
                         "--data", str(tmp_path / "data.csv"),
                         "--query", str(tmp_path / "query.csv"),
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    totals = layer_totals(tracer.spans)
    assert totals["cli.main.calls"] == 1
    assert totals["kernels.metric_matrix.calls"] == 2
    assert totals["model.FiniteModel.calls"] >= 1
    assert totals["numpy.linalg.calls"] >= 3
    assert tracer.counters["cli.bytes_written"] == sum(
        p.stat().st_size for p in (tmp_path / "out").iterdir())
    n = workload.n_points
    assert tracer.counters["model.estimator_bytes"] >= 2 * n * n * 8  # lift and resid


def test_layer_totals_self_time():
    ns = 1_000_000_000
    spans = [
        ["a", 0, 10 * ns, -1, 0],
        ["b", 1 * ns, 4 * ns, 0, 0],
        ["b", 2 * ns, 3 * ns, 1, 0],   # b reaching itself again
        ["c", 5 * ns, 9 * ns, 0, 0],
    ]
    totals = layer_totals(spans)
    assert totals["a.self_s"] == pytest.approx(3.0)
    assert totals["b.s"] == pytest.approx(3.0)
    assert totals["b.self_s"] == pytest.approx(3.0)
    assert totals["b.calls"] == 2
    assert totals["c.self_s"] == pytest.approx(4.0)


def run_bench(*args, cwd=ROOT):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def test_traced_pass_reports_every_layer_and_repeats_its_counts():
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    reached = set()
    for name in sorted(WORKLOADS):
        runs = []
        for _ in range(2):
            proc = run_bench("--workload", name, "--seed", "5", "--seconds", "0.1",
                             "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            assert sorted(result["metrics"]) == sorted(declared)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        reached |= {k for k, v in runs[0].items() if v > 0}
        for key in runs[0]:
            if key.endswith((".calls", ".gflop", "_written", "iterations", "_mb")) \
                    and key != "peak_rss_mb":
                assert runs[0][key] == runs[1][key], key
    assert reached == set(declared)


def test_timed_pass_reports_every_end_to_end_metric():
    proc = run_bench("--workload", "classify-svm", "--seed", "2", "--seconds", "0.1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    assert result["attempted"] >= 100 and result["failed"] == 0 and result["correct"]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "krige", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
