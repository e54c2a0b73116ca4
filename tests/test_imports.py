"""The runtime depends on numpy alone; scipy is only the tests' oracle."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import olskit

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

# second entry points to a capability that has one; each stays deleted
DELETED = ("delta_norm", "svm_decision", "svm_classify", "psd_eigh", "ObservationMap",
           "TransformSpec", "PsdSpectrum", "_atom_key", "_atom_table", "_KERNEL_DEFAULTS",
           "_as_number", "_as_int")

# the CLI hashes its inputs without OpenSSL wherever the interpreter has its
# own SHA-256 module
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
OPENSSL = ("_hashlib",) if BUILTIN_SHA256 else ()


@pytest.mark.parametrize("path", sorted((SRC / "olskit").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_source_imports_no_scipy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted((SRC / "olskit").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_source_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nested = [
        f"{path.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested


def test_no_function_takes_a_model_and_its_estimator():
    # an OlsEstimator carries the FiniteModel it was built from
    both = []
    for path in sorted((SRC / "olskit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            names = {ast.unparse(a.annotation) for a in args if a.annotation is not None}
            if {"FiniteModel", "OlsEstimator"} <= names:
                both.append(f"{path.name}:{func.name}")
    assert not both


def test_import_leaves_scipy_unloaded():
    # fractions and decimal too: the float writer's tables are built from ints;
    # and OpenSSL's _hashlib, where the interpreter has its own SHA-256
    unloaded = ("scipy", "fractions", "decimal", "_decimal") + OPENSSL
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, olskit, olskit.cli; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {unloaded!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no built-in SHA-256 module")
def test_krige_leaves_openssl_unloaded(tmp_path):
    (tmp_path / "c.json").write_text('{"kernel": {"family": "se"}, "seed": 0}')
    (tmp_path / "d.csv").write_text("i_1,v_1\n0.0,1.0\n1.0,0.5\n")
    (tmp_path / "q.csv").write_text("i_1\n0.5\n2.0\n")
    argv = ["krige", "--config", "c.json", "--data", "d.csv", "--query", "q.csv",
            "--out", "out"]
    probe = ("import sys; from olskit.cli import main; "
             f"print(main({argv!r}), '_hashlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]
    assert (tmp_path / "out" / "report.json").is_file()


def test_deleted_functions_stay_deleted():
    modules = [olskit] + [importlib.import_module(f"olskit.{info.name}")
                          for info in pkgutil.iter_modules(olskit.__path__)]
    assert not [f"{module.__name__}.{name}" for module in modules
                for name in DELETED if hasattr(module, name)]
    for text in (README.read_text(encoding="utf-8"), olskit.__doc__):
        assert not [name for name in DELETED if re.search(rf"\b{name}\b", text)]


def test_deleted_members_stay_deleted():
    assert "__call__" not in vars(olskit.OlsEstimator)  # ols_estimate applies it
    assert "at" not in vars(olskit.KrigeResult)
    # kriging is the least-squares estimator alone: no jitter, no ridge on S
    assert "jitter" not in {f.name for f in dataclasses.fields(olskit.KrigeResult)}
    assert "ridge" not in inspect.signature(olskit.ols_build).parameters
    assert "mean_fn" not in {f.name for f in dataclasses.fields(olskit.ArrayDesign)}
    assert not hasattr(olskit.ArrayDesign, "mean_array")  # the design's mean is an array
    assert "data" not in {f.name for f in dataclasses.fields(olskit.ConditionalModel)}
    assert list(inspect.signature(olskit.risk).parameters)[0] == "est"
    assert list(inspect.signature(importlib.import_module("olskit.cli").load_csv)
                .parameters) == ["path"]
    linalg = importlib.import_module("olskit.linalg")
    assert not {"values", "vectors"} & set(inspect.signature(linalg.check_psd).parameters)
    assert linalg.check_psd(np.eye(1))._fields == ("matrix", "floor")
    assert not hasattr(linalg.Tolerance, "support_rtol")  # support_threshold
