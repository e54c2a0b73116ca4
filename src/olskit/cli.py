"""Batch command-line front end.

Usage:

    olskit <command> --config c.json [--data d.csv] [--query q.csv]
           --out dir/ [--seed n]

Commands map one-to-one onto library operations: ``krige``,
``classify-svm``, ``classify-fuzzy``, ``condition`` (posterior sampling),
and ``verify {gmt|disintegration|uii|entropy|continuity}``.  One table,
``_COMMANDS``, gives each data command its runner and help line; ``run``
dispatches on it and ``_build_parser`` builds the subcommands from it.
Exit code 0 means the run passed, 1 means a verification or numerical
gate failed (stderr names each false flag and the metric it gates), 2
means bad input or an output that cannot be written.  A library warning,
such as the SVM's on a Gram that no theorem certifies strictly PD, is
printed to stderr as one ``warning: <message>`` line.

The config layer names paths and owns no field rule: ``KernelSpec`` and
``Tolerance`` default and check their own fields, and ``config_from_dict``
refuses only what is about the file and puts ``kernel.`` or
``tolerances.`` before the field's own message.

Reports are canonical JSON (sorted keys, floats at 17 significant digits)
so a fixed (config, data, seed) triple produces byte-identical output
across runs; wall time goes to stderr, never into the report.  All output
files are written atomically (temp file plus rename).  The report's
``inputs`` holds each input file's SHA-256 hex digest, from the
interpreter's built-in SHA-256, so only the commands that draw random
numbers load OpenSSL (through ``numpy.random``).

Every float in a CSV table or a JSON array is written as ``"%.17g" % x``
would write it.  Tables of a few hundred cells or more are converted by
numpy (``_float_text``): an exact product with a power of ten gives each
cell's correctly rounded 17 digits, and only ties, very small or large
exponents and non-finite values are formatted one cell at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, fields
from itertools import chain

import numpy as np

from .arrays import ArrayDesign, fuzzy_classify, krige, model_from_design, restriction_map
from .disintegration import conditional_gaussian, stochastic_ols_sample
from .kernels import (
    IndexedDataset,
    KernelSpec,
    _locate,
    default_epsilon_grid,
    entropy_integral,
)
from .linalg import Tolerance, as_int, as_number
from .svm import SvmProblem, margin_check, decision_values, svm_train
from .verify import VERIFY_TARGETS

# Input digests take the interpreter's own SHA-256 (the module hashlib falls
# back to), not hashlib's: hashlib loads OpenSSL's libcrypto, about 3.5 MB
# resident, only to hash two or three files.
try:
    from _sha2 import sha256 as _new_sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # CPython 3.10, 3.11, PyPy
    except ImportError:  # built without its own SHA-2 modules
        from hashlib import sha256 as _new_sha256

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field path."""


class CsvError(ValueError):
    """Malformed CSV; the message carries the 1-based row/column location."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

_NON_FINITE = "reports must not contain non-finite numbers"


_SMALL_TABLE = 200  # cells; below this the row template beats ~60 numpy calls
_BLOCK = 2048  # cells per block of whole rows; bounds the temporaries, of which
# the largest is np.compress's index array, 8 bytes per byte of text
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# One cell's layout: '-', '0', '.', '000', then d0..d16 with a '.' slot after
# each of d0..d15, then the separator.  A mask row picks the cell's bytes.
_WIDTH = 40
_DIGIT_COLS = slice(6, 39, 2)
_LAYOUT = np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", dtype=np.uint8)


def _dekker_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII of every 4-digit group, and the place of its last nonzero digit."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row i: i's digits
    text = np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel()
    last = np.full(10000, -64, dtype=np.int8)  # a zero group never wins the max
    for place in range(4):
        last[digits[:, place] != 0] = place
    return text, last


def _cell_masks() -> np.ndarray:
    """Layout mask of every (sign, exponent, last nonzero digit) as one V40.

    Exponent index ``k + 4`` for k in [-4, 16], 21 for a zero.  For k < 0
    the cell is ``0.`` plus -k-1 zeros and the digits; for k >= 0 the '.'
    follows d_k and is dropped with the fraction when every later digit is
    zero.  Trailing zeros are cut; the separator is always kept.
    """
    mask = np.zeros((2, 22, 17, _WIDTH), dtype=np.uint8)
    mask[1, ..., 0] = 1
    mask[..., -1] = 1
    digit = np.arange(17)
    last = digit[:, None]
    for k in range(-4, 17):
        mask[:, k + 4, :, _DIGIT_COLS] = digit <= np.maximum(last, k)
        if k < 0:
            mask[:, k + 4, :, 1:2 - k] = 1
        elif k < 16:
            mask[:, k + 4, :, 7 + 2 * k] = digit > k
    mask[:, 21, :, 1] = 1
    return mask.reshape(-1, _WIDTH).view(f"V{_WIDTH}").ravel()


_POW10 = np.array([float(10**p) for p in range(21)])  # exact: 5**p < 2**53
_POW10_HI, _POW10_LO = _dekker_split(_POW10)
_QUAD_TEXT, _QUAD_LAST = _quad_tables()
# digit index of place 0 of each 4-digit group of D (d0 is place 3 of the first)
_QUAD_PLACE = np.array([-3, 1, 5, 9, 13], dtype=np.int8)[:, None]
_CELL_MASKS = _cell_masks()


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(D, k, exact)``: D = round(|x| 10**(16-k)) with k = floor(log10|x|).

    ``|x| * 10**p`` is formed as Dekker's error-free product hi + lo; with
    10**16 <= hi, hi is an integer and lo the exact remainder, so rounding
    lo rounds the exact product.  ``exact`` is false wherever the cell must
    go to ``%``: outside [1e-4, 1e17), a remainder within 1e-6 of a tie, or
    a ``log10`` off by one (the exact product outside [10**16, 10**17)).
    """
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e17)
    a = np.where(inside, a, 1.0)
    k = np.minimum(np.floor(np.log10(a)), 16).astype(np.intp)
    p = 16 - k
    hi = a * _POW10[p]
    ah, al = _dekker_split(a)
    lo = al * _POW10_LO[p] - (((hi - ah * _POW10_HI[p]) - al * _POW10_HI[p])
                               - ah * _POW10_LO[p])
    r = np.rint(lo)
    d = hi.astype(np.int64) + r.astype(np.int64)
    t = lo - r
    exact = (inside & (d >= 10**16) & (d < 10**17)
             & (np.abs(np.abs(t) - 0.5) > 1e-6) & ((t >= 0) | (d > 10**16)))
    return d, k, exact


def _digits17(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of each 17-digit D, and the place of its last nonzero one."""
    quads = np.empty((5, d.size), dtype=np.int64)
    for j in range(4, 0, -1):
        d, quads[j] = np.divmod(d, 10000)
    quads[0] = d
    last = np.max(_QUAD_LAST.take(quads) + _QUAD_PLACE, axis=0)
    return _QUAD_TEXT.take(quads.T).view(np.uint8)[:, 3:], last


def _block_text(x: np.ndarray, layout: np.ndarray) -> str:
    """Text of the cells ``x`` with ``layout``'s separators after each."""
    d, k, exact = _decimal17(x)
    zero = x == 0
    layout[:, _DIGIT_COLS], last = _digits17(d)
    row = (np.signbit(x) * 22 + np.where(zero, 21, k + 4)) * 17 + last
    mask = _CELL_MASKS.take(row).view(np.bool_).reshape(-1, _WIDTH)
    other = np.flatnonzero(~(exact | zero))
    if other.size:
        text = "".join([("%.17g" % v).ljust(_WIDTH - 1, "\0")
                        for v in x[other].tolist()])
        cells = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        layout[other, :-1] = cells.reshape(-1, _WIDTH - 1)
        mask[other, :-1] = layout[other, :-1] != 0
    text = np.compress(mask.ravel(), layout.ravel()).tobytes().decode("ascii")
    layout[other, :-1] = _LAYOUT[:-1]  # the next block reuses the layout
    return text


def _float_text(rows: np.ndarray) -> str:
    """Rows of a 2-d array as ``%.17g`` cells joined by commas, each row
    ended by a newline.

    The text is, byte for byte, ``"%.17g" % x`` of every cell.  A table of
    fewer than ``_SMALL_TABLE`` cells goes through one ``"%.17g,...,%.17g\\n"``
    row template.  A larger one is converted by numpy in blocks of whole
    rows, about ``_BLOCK`` cells each: every zero and every finite cell with
    decimal exponent in [-4, 16] gets its correctly rounded 17 digits from
    an exact product (``_decimal17``), which are laid out with trailing zeros
    cut and compressed into ASCII; every other cell (a tie, an exponent
    outside that range, a non-finite value) is formatted by ``%`` on its own.
    """
    nrows, ncols = rows.shape
    if rows.size < _SMALL_TABLE:
        template = ",".join(["%.17g"] * ncols) + "\n"
        return "".join([template % tuple(row.tolist()) for row in rows])
    per_block = max(1, _BLOCK // ncols)
    layout = np.empty((min(per_block, nrows), ncols, _WIDTH), dtype=np.uint8)
    layout[...] = _LAYOUT
    layout[:, -1, -1] = ord("\n")
    layout = layout.reshape(-1, _WIDTH)
    blocks = []
    for start in range(0, nrows, per_block):
        x = np.ascontiguousarray(rows[start:start + per_block], dtype=np.float64).ravel()
        blocks.append(_block_text(x, layout[:x.size]))
    return "".join(blocks)


def _canonical(value) -> str:
    if isinstance(value, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{_canonical(value[k])}" for k in sorted(value)
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)) or value is None:
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(_NON_FINITE)
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim in (1, 2):
            if not np.isfinite(value).all():
                raise ValueError(_NON_FINITE)
            text = _float_text(np.atleast_2d(value))
            body = "[" + text[:-1].replace("\n", "],[") + "]" if text else ""
            return body if value.ndim == 1 else "[" + body + "]"
        return _canonical(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    return _canonical(value) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it there;
    on any failure the temporary file is removed and the error re-raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # never hide the error being raised
            os.remove(tmp)
        raise


def _sha256(path: str) -> str:
    h = _new_sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_BLOCK_DEFAULTS = {
    "krige": {"project": False},
    "svm": {"tol": 1e-10, "max_iter": 200000},
    "fuzzy": {"prior": 0.5},
    "condition": {},
    "verify": {},
}


@dataclass(frozen=True)
class Config:
    """Validated run configuration with every default made explicit; ``spec``
    and ``tol`` are built once from ``kernel`` and ``tolerances``."""

    kernel: dict
    seed: int
    tolerances: dict
    samples: int
    blocks: dict
    spec: KernelSpec
    tol: Tolerance

    def to_dict(self) -> dict:
        return {
            "kernel": dict(self.kernel),
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "samples": self.samples,
            **{name: dict(block) for name, block in sorted(self.blocks.items())},
        }


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}" if path else message)


@contextlib.contextmanager
def _field_errors(prefix: str = ""):
    """Re-raise a field rule's ValueError as a ConfigError, its path under ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _object(raw: dict, name: str) -> dict:
    """``raw[name]``, or ``{}`` when absent; a non-object block is bad input."""
    block = raw.get(name, {})
    _require(isinstance(block, dict), name, "must be an object")
    return block


def _built(cls, raw: dict, name: str, noun: str) -> tuple:
    """``cls`` built from the block ``raw[name]`` (a required field it omits
    passed as None), and its echo: each field as ``cls`` stores it, but a
    string or a list as given (a family's alias, a mixing matrix's rows)."""
    block = _object(raw, name)
    names = [f.name for f in fields(cls) if f.name != "eval_hook"]
    for key in block:
        _require(key in names, f"{name}.{key}", f"unknown {noun} field")
    required = {f.name: None for f in fields(cls) if f.default is MISSING}
    with _field_errors(f"{name}."):
        built = cls(**{**required, **block})
    echo = {key: getattr(built, key) for key in names}
    echo.update((k, v) for k, v in block.items() if isinstance(v, (str, list)))
    return built, echo


def config_from_dict(raw: dict) -> Config:
    _require(isinstance(raw, dict), "", "config root must be a JSON object")
    known = {"kernel", "seed", "tolerances", "samples", *(_BLOCK_DEFAULTS)}
    for key in raw:
        _require(key in known, key, "unknown configuration field")

    _require("kernel" in raw, "kernel", "required field is missing")
    spec, kernel = _built(KernelSpec, raw, "kernel", "kernel")
    tol, tolerances = _built(Tolerance, raw, "tolerances", "tolerance")
    _require("seed" in raw, "seed", "required field is missing")

    blocks = {}
    for name, defaults in _BLOCK_DEFAULTS.items():
        block = dict(defaults)
        for key, value in _object(raw, name).items():
            _require(key in defaults, f"{name}.{key}", "unknown field")
            block[key] = value
        blocks[name] = block
    with _field_errors():
        seed = as_int(raw["seed"], "seed", 0)
        samples = as_int(raw.get("samples", 100000), "samples", 1)
        svm_tol = as_number(blocks["svm"]["tol"], "svm.tol")
        as_int(blocks["svm"]["max_iter"], "svm.max_iter", 1)
        as_number(blocks["fuzzy"]["prior"], "fuzzy.prior")
    _require(svm_tol > 0, "svm.tol", "must be > 0")
    _require(isinstance(blocks["krige"]["project"], bool), "krige.project",
             "must be true or false")
    return Config(kernel=kernel, seed=seed, tolerances=tolerances,
                  samples=samples, blocks=blocks, spec=spec, tol=tol)


def parse_config(path: str) -> Config:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# CSV data
# ---------------------------------------------------------------------------


def load_csv(path: str) -> IndexedDataset:
    """Read ``i_1,...,i_d[,v_1,...,v_q]`` rows, preserving row order.

    The header fixes d and q; the value columns are optional (query files
    carry points only).  Each command checks the widths it needs.
    """
    if not os.path.exists(path):
        raise CsvError(f"data file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line != ""]
    if not lines:
        raise CsvError(f"{path}: file is empty")
    header = [tok.strip() for tok in lines[0].split(",")]
    n_i = sum(1 for tok in header if tok.startswith("i_"))
    n_v = len(header) - n_i
    if header != _point_header(n_i, n_v):
        raise CsvError(
            f"{path} row 1: header must be i_1,...,i_d[,v_1,...,v_q], got "
            f"{','.join(header)}"
        )
    width = len(header)
    rows = [line.split(",") for line in lines[1:]]
    try:
        if any(len(cells) != width for cells in rows):
            raise ValueError("ragged row")
        table = np.fromiter(map(float, chain.from_iterable(rows)), dtype=float,
                            count=len(rows) * width)
        if not np.isfinite(table).all():
            raise ValueError("non-finite cell")
    except ValueError:
        _raise_first_bad_row(path, rows, width)
        raise
    # reshape keeps the header's widths when the file has no data rows
    table = table.reshape(len(rows), width)
    pts = table[:, :n_i].copy()
    vals = table[:, n_i:].copy() if n_v else None
    return IndexedDataset(pts, vals)


def _raise_first_bad_row(path: str, rows: list[list[str]], width: int) -> None:
    """Raise the CsvError of the first malformed data row, in file order.

    Within a row the width is checked before the cells, left to right; a
    cell is malformed when it is not a number or is ``nan`` or infinite.
    """
    for row_no, cells in enumerate(rows, start=2):
        if len(cells) != width:
            raise CsvError(
                f"{path} row {row_no}: expected {width} cells, got {len(cells)}"
            )
        for col_no, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise CsvError(
                    f"{path} row {row_no} column {col_no}: "
                    f"non-numeric cell {cell.strip()!r}"
                ) from exc
            if not math.isfinite(value):
                raise CsvError(
                    f"{path} row {row_no} column {col_no}: "
                    f"non-finite cell {cell.strip()!r}"
                )


def _format_csv(header: list[str], rows: np.ndarray) -> str:
    return ",".join(header) + "\n" + _float_text(np.atleast_2d(rows))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _design(config: Config, query: np.ndarray, observed: np.ndarray):
    """The design of query points first, then observed points not already
    present, and the design index of each observed point.  Points compare
    by value (-0.0 equals 0.0), and an observed point that the query holds
    keeps its query index."""
    n = query.shape[0]
    observed_idx = _locate(observed, query)
    extra = observed_idx >= n  # observed points the query lacks
    observed_idx[extra] = n + np.arange(np.count_nonzero(extra))
    points = np.vstack([query, observed[extra]])
    return ArrayDesign(points, config.spec, tol=config.tol), observed_idx.tolist()


def _agrees(error: float, *values) -> bool:
    """Whether a largest difference between compared values is at most 1e-8
    of their largest magnitude, so the verdict does not depend on units."""
    scale = max(float(np.abs(v).max(initial=0.0)) for v in values)
    return error <= 1e-8 * scale


def _point_header(d: int, q: int) -> list[str]:
    return [f"i_{k}" for k in range(1, d + 1)] + [
        f"v_{k}" for k in range(1, q + 1)
    ]


def _run_krige(config: Config, data: IndexedDataset, query: IndexedDataset,
               seed: int) -> tuple[dict, dict]:
    spec = config.spec
    if data.values is None:
        raise CsvError("krige requires value columns in the data file")
    design, observed_idx = _design(config, query.points, data.points)
    points = design.index_points
    result = krige(design, observed_idx, data.values,
                   project=config.blocks["krige"]["project"])
    reproduced = result.values[observed_idx]
    reproduction = float(np.abs(reproduced - data.values).max(initial=0.0))
    ent_grid = default_epsilon_grid(spec, points) if spec.q == 1 else None
    metrics = {
        "n_design_points": int(points.shape[0]),
        "n_observed": int(len(observed_idx)),
        "observed_rank": result.rank,
        "reproduction_max_error": reproduction,
    }
    if ent_grid is not None:
        metrics["integrated_entropy"] = entropy_integral(spec, points, ent_grid)
    flags = {"observations_reproduced": _agrees(reproduction, reproduced, data.values)}
    table = np.hstack([points, result.values])
    files = {"predictions.csv": _format_csv(_point_header(points.shape[1], spec.q), table)}
    return {"metrics": metrics, "flags": flags}, files


def _split_labels(data: IndexedDataset):
    if data.values is None or data.values.shape[1] != 1:
        raise CsvError("classification data must carry a single value column")
    labels = data.values[:, 0]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise CsvError("classification labels must be 0 or 1")
    return data.points[labels == 0.0], data.points[labels == 1.0]


def _run_classify_svm(config: Config, data: IndexedDataset, query: IndexedDataset,
                      seed: int) -> tuple[dict, dict]:
    d0, d1 = _split_labels(data)
    problem = SvmProblem(config.spec, d0, d1, tol=config.tol)
    block = config.blocks["svm"]
    model = svm_train(problem, tol=block["tol"], max_iter=block["max_iter"])
    audit = margin_check(model, problem)
    g_train = np.concatenate([audit.decision_0, audit.decision_1])
    want = np.concatenate([np.zeros(len(d0)), np.ones(len(d1))])
    train_errors = int(np.sum((g_train >= 0.0).astype(float) != want))
    metrics = {
        "rho": model.rho,
        "offset": model.offset,
        "duality_gap": model.gap,
        "iterations": model.n_iter,
        "training_errors": train_errors,
        "support_margin_defect": audit.support_margin_defect,
    }
    flags = {"margin_check": audit.passed, "zero_training_errors": train_errors == 0}
    files = {
        "model.json": canonical_json({
            "kernel": dict(config.kernel),
            "nu0": model.nu0,
            "nu1": model.nu1,
            "points_0": problem.d0,
            "points_1": problem.d1,
            "rho": model.rho,
            "offset": model.offset,
            "gap": model.gap,
        })
    }
    if query.points.shape[0]:
        g_query = decision_values(model, problem, query.points)
        labels = (g_query >= 0.0).astype(float)
        table = np.hstack([query.points, g_query[:, None], labels[:, None]])
        header = _point_header(query.points.shape[1], 0) + ["decision", "label"]
        files["predictions.csv"] = _format_csv(header, table)
    return {"metrics": metrics, "flags": flags}, files


def _run_classify_fuzzy(config: Config, data: IndexedDataset, query: IndexedDataset,
                        seed: int) -> tuple[dict, dict]:
    d0, d1 = _split_labels(data)
    design, observed_idx = _design(config, query.points, np.vstack([d0, d1]))
    points = design.index_points
    idx0 = observed_idx[: len(d0)]
    idx1 = observed_idx[len(d0):]
    lam = fuzzy_classify(design, idx0, idx1, prior=config.blocks["fuzzy"]["prior"])
    reproduction = max(
        float(np.abs(lam[idx0]).max()),
        float(np.abs(lam[idx1] - 1.0).max()),
    )
    metrics = {
        "n_design_points": int(points.shape[0]),
        "reproduction_max_error": reproduction,
    }
    flags = {"labels_reproduced": _agrees(reproduction, lam[observed_idx], 1.0)}
    header = _point_header(points.shape[1], 0) + ["lambda"]
    files = {"predictions.csv": _format_csv(header, np.hstack([points, lam[:, None]]))}
    return {"metrics": metrics, "flags": flags}, files


def _run_condition(config: Config, data: IndexedDataset, query: IndexedDataset,
                   seed: int) -> tuple[dict, dict]:
    if data.values is None:
        raise CsvError("condition requires value columns in the data file")
    design, observed_idx = _design(config, query.points, data.points)
    points = design.index_points
    model = model_from_design(design)
    obs = restriction_map(design, observed_idx)
    cond = conditional_gaussian(model, obs, data.values.ravel())
    draws = stochastic_ols_sample(cond, seed, config.samples)
    fiber = float(
        np.abs(draws @ obs.T - data.values.ravel()[None, :]).max(initial=0.0)
    )
    metrics = {
        "n_design_points": int(points.shape[0]),
        "n_samples": int(config.samples),
        "fiber_max_residual": fiber,
        "posterior_mean_norm": float(np.linalg.norm(cond.mean)),
    }
    flags = {"samples_on_fiber": _agrees(fiber, draws, data.values)}
    mean_table = np.hstack([points, cond.mean.reshape(points.shape[0], config.spec.q)])
    files = {
        "posterior_mean.csv": _format_csv(
            _point_header(points.shape[1], config.spec.q), mean_table
        ),
        "samples.csv": _format_csv(
            [f"c_{k}" for k in range(1, model.n + 1)], draws
        ),
    }
    return {"metrics": metrics, "flags": flags}, files


def _run_verify(config: Config, target: str, seed: int) -> tuple[dict, dict]:
    if target not in VERIFY_TARGETS:
        raise ConfigError(
            f"verify target must be one of {sorted(VERIFY_TARGETS)}, got {target!r}"
        )
    kwargs = {"n_samples": config.samples} if target == "disintegration" else {}
    body = VERIFY_TARGETS[target](seed=seed, **kwargs)
    return {"metrics": {k: v for k, v in body.items() if k != "passed"},
            "flags": {"passed": body["passed"]}}, {}


# name -> (runner, help); ``verify <target>`` runs as ``verify:<target>``
_COMMANDS = {
    "krige": (_run_krige, "predict an array from observations"),
    "classify-svm": (_run_classify_svm, "max-margin classification"),
    "classify-fuzzy": (_run_classify_fuzzy, "soft labels by kriging"),
    "condition": (_run_condition, "posterior sampling on the fiber"),
}

# flag -> the metric it gates; both are named on stderr when the flag fails
_FLAG_METRICS = {"observations_reproduced": "reproduction_max_error",
                 "labels_reproduced": "reproduction_max_error",
                 "samples_on_fiber": "fiber_max_residual",
                 "margin_check": "support_margin_defect",
                 "zero_training_errors": "training_errors"}


def run(command: str, config: Config, inputs: dict, out_dir: str,
        seed: int | None = None) -> tuple[dict, int]:
    """Execute a command and write its report and outputs atomically.

    Nothing is written unless the report serializes.  Returns (report, exit_code).
    """
    started = time.monotonic()
    with _field_errors():
        seed = config.seed if seed is None else as_int(seed, "--seed", 0)
    os.makedirs(out_dir, exist_ok=True)

    data = inputs.get("data")
    d = data.points.shape[1] if data is not None else 1
    query = inputs.get("query") or IndexedDataset(np.zeros((0, d)))

    if command.startswith("verify:"):
        body, files = _run_verify(config, command.split(":", 1)[1], seed)
    elif command in _COMMANDS:
        body, files = _COMMANDS[command][0](config, data, query, seed)
    else:
        raise ConfigError(f"unknown command {command!r}")

    passed = all(bool(v) for v in body["flags"].values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "inputs": {
            name: _sha256(path)
            for name, path in inputs.get("paths", {}).items()
        },
        "config": config.to_dict(),
        "metrics": body["metrics"],
        "flags": body["flags"],
        "passed": passed,
    }
    files["report.json"] = canonical_json(report)
    for name, text in files.items():
        atomic_write(os.path.join(out_dir, name), text)
    elapsed_ms = 1000.0 * (time.monotonic() - started)
    print(f"{command}: wrote {out_dir} in {elapsed_ms:.1f} ms", file=sys.stderr)
    for flag, ok in body["flags"].items():
        if not ok:
            metric = _FLAG_METRICS.get(flag)
            detail = f" ({metric} {body['metrics'][metric]:.6g})" if metric else ""
            print(f"{command}: flag {flag} is false{detail}", file=sys.stderr)
    return report, 0 if passed else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="olskit",
        description="covariance-structured estimation: kriging, conditioning, "
                    "max-margin classification, and verification fixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inputs):
        p.add_argument("--config", required=True, help="JSON configuration file")
        if inputs:
            p.add_argument("--data", required=True, help="observed CSV data")
            p.add_argument("--query", help="query CSV points")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    for name, (_runner, help_text) in _COMMANDS.items():
        add_common(sub.add_parser(name, help=help_text), inputs=True)
    verify = sub.add_parser("verify", help="run a built-in verification fixture")
    verify.add_argument("target", choices=sorted(VERIFY_TARGETS))
    add_common(verify, inputs=False)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            config = parse_config(args.config)
            paths = {"config": args.config}
            inputs: dict = {"paths": paths}
            if getattr(args, "data", None):
                inputs["data"] = load_csv(args.data)
                paths["data"] = args.data
            if getattr(args, "query", None):
                inputs["query"] = load_csv(args.query)
                paths["query"] = args.query
            command = args.command
            if command == "verify":
                command = f"verify:{args.target}"
            _report, code = run(command, config, inputs, args.out, seed=args.seed)
            return code
        except (ConfigError, CsvError, ValueError, TypeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except RuntimeError as exc:
            # separation, convergence or numerical failures: the inputs parsed
            # but the run could not meet its contract
            print(f"verification failure: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
