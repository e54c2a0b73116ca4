"""Batch command-line front end.

Usage:

    olskit <command> --config c.json [--data d.csv] [--query q.csv]
           --out dir/ [--seed n]

Commands map one-to-one onto library operations: ``krige``,
``classify-svm``, ``classify-fuzzy``, ``condition`` (posterior sampling),
and ``verify {gmt|disintegration|uii|entropy|continuity}``.  Exit code 0
means the run passed, 1 means a verification or numerical gate failed, 2
means bad input.

Reports are canonical JSON (sorted keys, floats at 17 significant digits)
so a fixed (config, data, seed) triple produces byte-identical output
across runs; wall time goes to stderr, never into the report.  All output
files are written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayDesign, fuzzy_classify, krige
from .disintegration import conditional_gaussian, stochastic_ols_sample
from .kernels import (
    IndexedDataset,
    KernelSpec,
    default_epsilon_grid,
    entropy_integral,
)
from .linalg import Tolerance
from .svm import SvmProblem, margin_check, decision_values, svm_train
from .verify import VERIFY_TARGETS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field path."""


class CsvError(ValueError):
    """Malformed CSV; the message carries the 1-based row/column location."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


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
        if not np.isfinite(v):
            raise ValueError("reports must not contain non-finite numbers")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    return _canonical(value) + "\n"


def atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_KERNEL_DEFAULTS = {
    "family": None,
    "lengthscale": 1.0,
    "variance": 1.0,
    "output_dim": 1,
    "coregionalization": None,
    "degree": 2,
    "support_radius": None,
}

_BLOCK_DEFAULTS = {
    "krige": {"project": False},
    "svm": {"tol": 1e-10, "max_iter": 200000},
    "fuzzy": {"prior": 0.5},
    "condition": {},
    "verify": {},
}


@dataclass(frozen=True)
class Config:
    """Validated run configuration with every default made explicit."""

    kernel: dict
    seed: int
    tolerances: dict
    samples: int
    blocks: dict = field(default_factory=dict)

    def kernel_spec(self) -> KernelSpec:
        k = self.kernel
        return KernelSpec(
            family=k["family"],
            lengthscale=k["lengthscale"],
            variance=k["variance"],
            output_dim=k["output_dim"],
            coregionalization=k["coregionalization"],
            degree=k["degree"],
            support_radius=k["support_radius"],
        )

    def tolerance(self) -> Tolerance:
        return Tolerance(self.tolerances["rcond"], self.tolerances["abs_psd"])

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
        raise ConfigError(f"{path}: {message}")


def _as_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str, minimum: int) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= minimum, path, f"must be an integer >= {minimum}")
    return value


def config_from_dict(raw: dict, source: str = "<config>") -> Config:
    _require(isinstance(raw, dict), "", "config root must be a JSON object")
    known = {"kernel", "seed", "tolerances", "samples", *(_BLOCK_DEFAULTS)}
    for key in raw:
        _require(key in known, key, "unknown configuration field")

    _require("kernel" in raw, "kernel", "required field is missing")
    _require(isinstance(raw["kernel"], dict), "kernel", "must be an object")
    kernel = dict(_KERNEL_DEFAULTS)
    for key, value in raw["kernel"].items():
        _require(key in kernel, f"kernel.{key}", "unknown kernel field")
        kernel[key] = value
    _require(isinstance(kernel["family"], str), "kernel.family",
             "required string field")
    kernel["lengthscale"] = _as_number(kernel["lengthscale"], "kernel.lengthscale")
    _require(kernel["lengthscale"] > 0, "kernel.lengthscale", "must be > 0")
    kernel["variance"] = _as_number(kernel["variance"], "kernel.variance")
    _require(kernel["variance"] > 0, "kernel.variance", "must be > 0")
    _as_int(kernel["output_dim"], "kernel.output_dim", 1)
    _as_int(kernel["degree"], "kernel.degree", 1)
    if kernel["support_radius"] is not None:
        kernel["support_radius"] = _as_number(
            kernel["support_radius"], "kernel.support_radius"
        )
        _require(kernel["support_radius"] > 0, "kernel.support_radius",
                 "must be > 0")
    if kernel["coregionalization"] is not None:
        _require(isinstance(kernel["coregionalization"], list),
                 "kernel.coregionalization", "must be a matrix (list of rows)")

    _require("seed" in raw, "seed", "required field is missing")
    _as_int(raw["seed"], "seed", 0)

    tolerances = {"rcond": 1e-12, "abs_psd": 1e-10}
    for key, value in raw.get("tolerances", {}).items():
        _require(key in tolerances, f"tolerances.{key}", "unknown tolerance field")
        tolerances[key] = _as_number(value, f"tolerances.{key}")
        _require(0 < tolerances[key] < 1, f"tolerances.{key}",
                 "must lie strictly between 0 and 1")

    samples = _as_int(raw.get("samples", 100000), "samples", 1)

    blocks = {}
    for name, defaults in _BLOCK_DEFAULTS.items():
        block = dict(defaults)
        for key, value in raw.get(name, {}).items():
            _require(key in defaults or name == "verify",
                     f"{name}.{key}", "unknown field")
            block[key] = value
        blocks[name] = block
    _require(isinstance(blocks["krige"]["project"], bool), "krige.project",
             "must be true or false")
    _require(_as_number(blocks["svm"]["tol"], "svm.tol") > 0, "svm.tol",
             "must be > 0")
    _as_int(blocks["svm"]["max_iter"], "svm.max_iter", 1)
    _as_number(blocks["fuzzy"]["prior"], "fuzzy.prior")

    config = Config(kernel=kernel, seed=raw["seed"], tolerances=tolerances,
                    samples=samples, blocks=blocks)
    try:
        config.kernel_spec()
        config.tolerance()
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    return config


def parse_config(path: str) -> Config:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw, source=path)


def serialize_config(config: Config) -> str:
    return canonical_json(config.to_dict())


# ---------------------------------------------------------------------------
# CSV data
# ---------------------------------------------------------------------------


def load_csv(path: str, d: int | None = None, q: int | None = None) -> IndexedDataset:
    """Read ``i_1,...,i_d[,v_1,...,v_q]`` rows, preserving row order.

    ``d``/``q`` validate the header when given; the value columns are
    optional (query files carry points only).
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
    expected = [f"i_{k}" for k in range(1, n_i + 1)] + [
        f"v_{k}" for k in range(1, n_v + 1)
    ]
    if header != expected:
        raise CsvError(
            f"{path} row 1: header must be i_1,...,i_d[,v_1,...,v_q], got "
            f"{','.join(header)}"
        )
    if d is not None and n_i != d:
        raise CsvError(f"{path} row 1: expected {d} index columns, found {n_i}")
    if q is not None and n_v not in (0, q):
        raise CsvError(f"{path} row 1: expected {q} value columns, found {n_v}")
    points, values = [], []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = [tok.strip() for tok in line.split(",")]
        if len(cells) != len(header):
            raise CsvError(
                f"{path} row {row_no}: expected {len(header)} cells, got {len(cells)}"
            )
        parsed = []
        for col_no, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError as exc:
                raise CsvError(
                    f"{path} row {row_no} column {col_no}: non-numeric cell {cell!r}"
                ) from exc
        points.append(parsed[:n_i])
        values.append(parsed[n_i:])
    # reshape keeps the header's widths when the file has no data rows
    pts = np.array(points, dtype=float).reshape(len(points), n_i)
    vals = np.array(values, dtype=float).reshape(len(values), n_v) if n_v else None
    return IndexedDataset(pts, vals)


def _format_csv(header: list[str], rows: np.ndarray) -> str:
    out = [",".join(header)]
    for row in np.atleast_2d(rows):
        out.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _merge_design_points(query: np.ndarray, observed: np.ndarray):
    """Query points first, then observed points not already present."""
    if query.shape[1] != observed.shape[1]:
        raise ValueError(
            f"index dimension mismatch: {query.shape[1]} vs {observed.shape[1]}"
        )
    seen = {tuple(row) for row in query}
    extra = [row for row in observed if tuple(row) not in seen]
    points = np.vstack([query] + ([np.array(extra)] if extra else []))
    index_of = {tuple(row): i for i, row in enumerate(points)}
    observed_idx = [index_of[tuple(row)] for row in observed]
    return points, observed_idx


def _point_header(d: int, q: int) -> list[str]:
    return [f"i_{k}" for k in range(1, d + 1)] + [
        f"v_{k}" for k in range(1, q + 1)
    ]


def _run_krige(config: Config, data: IndexedDataset,
               query: IndexedDataset) -> tuple[dict, dict]:
    spec = config.kernel_spec()
    if data.values is None:
        raise CsvError("krige requires value columns in the data file")
    points, observed_idx = _merge_design_points(query.points, data.points)
    design = ArrayDesign(points, spec, tol=config.tolerance())
    result = krige(design, observed_idx, data.values,
                   project=config.blocks["krige"]["project"])
    reproduction = float(
        np.abs(result.values[observed_idx] - data.values).max()
    )
    ent_grid = default_epsilon_grid(spec, points) if spec.q == 1 else None
    metrics = {
        "n_design_points": int(points.shape[0]),
        "n_observed": int(len(observed_idx)),
        "jitter": result.jitter,
        "reproduction_max_error": reproduction,
    }
    if ent_grid is not None:
        metrics["integrated_entropy"] = entropy_integral(spec, points, ent_grid)
    flags = {"observations_reproduced": reproduction <= 1e-8}
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


def _run_classify_svm(config: Config, data: IndexedDataset,
                      query: IndexedDataset) -> tuple[dict, dict]:
    spec = config.kernel_spec()
    d0, d1 = _split_labels(data)
    problem = SvmProblem(spec, d0, d1, tol=config.tolerance())
    block = config.blocks["svm"]
    model = svm_train(problem, tol=float(block["tol"]),
                      max_iter=block["max_iter"])
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
        header = [f"i_{k}" for k in range(1, query.points.shape[1] + 1)]
        files["predictions.csv"] = _format_csv(header + ["decision", "label"], table)
    return {"metrics": metrics, "flags": flags}, files


def _run_classify_fuzzy(config: Config, data: IndexedDataset,
                        query: IndexedDataset) -> tuple[dict, dict]:
    spec = config.kernel_spec()
    d0, d1 = _split_labels(data)
    points, observed_idx = _merge_design_points(
        query.points, np.vstack([d0, d1])
    )
    design = ArrayDesign(points, spec, tol=config.tolerance())
    idx0 = observed_idx[: len(d0)]
    idx1 = observed_idx[len(d0):]
    lam = fuzzy_classify(design, idx0, idx1,
                         prior=float(config.blocks["fuzzy"]["prior"]))
    reproduction = max(
        float(np.abs(lam[idx0]).max()),
        float(np.abs(lam[idx1] - 1.0).max()),
    )
    metrics = {
        "n_design_points": int(points.shape[0]),
        "reproduction_max_error": reproduction,
    }
    flags = {"labels_reproduced": reproduction <= 1e-8}
    header = [f"i_{k}" for k in range(1, points.shape[1] + 1)] + ["lambda"]
    files = {"predictions.csv": _format_csv(header, np.hstack([points, lam[:, None]]))}
    return {"metrics": metrics, "flags": flags}, files


def _run_condition(config: Config, data: IndexedDataset, query: IndexedDataset,
                   seed: int) -> tuple[dict, dict]:
    from .arrays import model_from_design, restriction_map

    spec = config.kernel_spec()
    if data.values is None:
        raise CsvError("condition requires value columns in the data file")
    points, observed_idx = _merge_design_points(query.points, data.points)
    design = ArrayDesign(points, spec, tol=config.tolerance())
    model = model_from_design(design)
    obs = restriction_map(design, observed_idx)
    cond = conditional_gaussian(model, obs, data.values.ravel())
    draws = stochastic_ols_sample(cond, seed, config.samples)
    fiber = float(
        np.abs(draws @ obs.matrix.T - data.values.ravel()[None, :]).max()
    )
    metrics = {
        "n_design_points": int(points.shape[0]),
        "n_samples": int(config.samples),
        "fiber_max_residual": fiber,
        "posterior_mean_norm": float(np.linalg.norm(cond.mean)),
    }
    flags = {"samples_on_fiber": fiber <= 1e-8}
    mean_table = np.hstack([points, cond.mean.reshape(points.shape[0], spec.q)])
    files = {
        "posterior_mean.csv": _format_csv(
            _point_header(points.shape[1], spec.q), mean_table
        ),
        "samples.csv": _format_csv(
            [f"c_{k}" for k in range(1, model.n + 1)], draws
        ),
    }
    return {"metrics": metrics, "flags": flags}, files


def run(command: str, config: Config, inputs: dict, out_dir: str,
        seed: int | None = None) -> tuple[dict, int]:
    """Execute a command and write its report and outputs atomically.

    Returns (report, exit_code).
    """
    started = time.monotonic()
    seed = config.seed if seed is None else seed
    os.makedirs(out_dir, exist_ok=True)

    data = inputs.get("data")
    query = inputs.get("query")
    d = data.points.shape[1] if data is not None else 1
    empty = IndexedDataset(np.zeros((0, d)))

    if command == "krige":
        body, files = _run_krige(config, data, query or empty)
    elif command == "classify-svm":
        body, files = _run_classify_svm(config, data, query or empty)
    elif command == "classify-fuzzy":
        body, files = _run_classify_fuzzy(config, data, query or empty)
    elif command == "condition":
        body, files = _run_condition(config, data, query or empty, seed)
    elif command.startswith("verify:"):
        target = command.split(":", 1)[1]
        if target not in VERIFY_TARGETS:
            raise ConfigError(
                f"verify target must be one of {sorted(VERIFY_TARGETS)}, got {target!r}"
            )
        kwargs = {"seed": seed}
        if target == "disintegration":
            kwargs["n_samples"] = config.samples
        report_body = VERIFY_TARGETS[target](**kwargs)
        body = {
            "metrics": {k: v for k, v in report_body.items() if k != "passed"},
            "flags": {"passed": report_body["passed"]},
        }
        files = {}
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
    for name, text in files.items():
        atomic_write(os.path.join(out_dir, name), text)
    atomic_write(os.path.join(out_dir, "report.json"), canonical_json(report))
    elapsed_ms = 1000.0 * (time.monotonic() - started)
    print(f"{command}: wrote {out_dir} in {elapsed_ms:.1f} ms", file=sys.stderr)
    return report, 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olskit",
        description="covariance-structured estimation: kriging, conditioning, "
                    "max-margin classification, and verification fixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=False, query=False):
        p.add_argument("--config", required=True, help="JSON configuration file")
        if data:
            p.add_argument("--data", required=True, help="observed CSV data")
        if query:
            p.add_argument("--query", help="query CSV points")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    add_common(sub.add_parser("krige", help="predict an array from observations"),
               data=True, query=True)
    add_common(sub.add_parser("classify-svm", help="max-margin classification"),
               data=True, query=True)
    add_common(sub.add_parser("classify-fuzzy", help="soft labels by kriging"),
               data=True, query=True)
    add_common(sub.add_parser("condition", help="posterior sampling on the fiber"),
               data=True, query=True)
    verify = sub.add_parser("verify", help="run a built-in verification fixture")
    verify.add_argument("target", choices=sorted(VERIFY_TARGETS))
    add_common(verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except (ConfigError, CsvError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # separation, convergence or numerical failures: the inputs parsed
        # but the run could not meet its contract
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
