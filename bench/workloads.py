"""Seeded inputs and independent output checks for the benchmark workloads.

Each workload turns ``(seed, k)`` into the input files of its k-th
solution and knows how to check that solution's output files.  The
references here use numpy only and never import olskit: kernels are
evaluated from explicit point differences, conditional means come from a
Cholesky solve on the observed block, and the classifier is re-scored
with the benchmark's own squared-exponential Gram.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Smallest relative error reported, so accuracy_digits stays finite when a
# solution matches its reference to the last bit.
ERROR_FLOOR = 1e-17


class CheckFailed(AssertionError):
    """A solution's outputs disagree with the independent reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# kernels, from explicit differences
# ---------------------------------------------------------------------------


def matern52(x: np.ndarray, y: np.ndarray, ell: float) -> np.ndarray:
    """Matern-5/2 covariance between 1-d point arrays x and y."""
    z = np.sqrt(5.0) * np.abs(x[:, None] - y[None, :]) / ell
    return (1.0 + z + z * z / 3.0) * np.exp(-z)


def squared_exponential(x: np.ndarray, y: np.ndarray, ell: float) -> np.ndarray:
    """SE covariance between the rows of (n, d) and (m, d) point arrays."""
    diff = x[:, None, :] - y[None, :, :]
    return np.exp(-0.5 * np.sum(diff * diff, axis=2) / (ell * ell))


def cholesky_solve(k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve K x = b for symmetric positive definite K by Cholesky."""
    low = np.linalg.cholesky(k)
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def gp_draw(rng: np.random.Generator, cov: np.ndarray) -> np.ndarray:
    """One centred Gaussian draw with covariance ``cov``."""
    return np.linalg.cholesky(cov) @ rng.standard_normal(cov.shape[0])


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, value: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)


def read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report["passed"] is True, f"report.json has passed={report['passed']}")
    return report


def _relative(err: float, scale: float) -> float:
    return max(err / scale, ERROR_FLOOR)


@dataclass
class Checked:
    """Outcome of one solution's check."""

    rel_error: float        # largest error against the reference / data scale
    counts: dict            # report figures the traced pass records


# ---------------------------------------------------------------------------
# krige: 1-d Matern-5/2 design, every fifth point observed
# ---------------------------------------------------------------------------


class Krige:
    """``olskit krige`` on 500 points at spacing ~0.1, every fifth observed."""

    name = "krige"  # also the CLI command
    nominal_s = 0.21  # seconds per warm solution on the reference host
    n_points = 500
    stride = 5
    spacing = 0.1
    ell = 0.5
    # prediction error allowed against the Cholesky reference, relative to
    # the data scale; a 1e-6 shift of one prediction must fail
    rtol = 1e-8
    reproduce_atol = 1e-8

    def inputs(self, seed: int, k: int):
        rng = np.random.default_rng([seed, k])
        x = self.spacing * (np.arange(self.n_points)
                            + rng.uniform(-0.2, 0.2, self.n_points))
        obs = np.zeros(self.n_points, dtype=bool)
        obs[int(rng.integers(self.stride))::self.stride] = True
        y = gp_draw(rng, matern52(x[obs], x[obs], self.ell))
        return x[~obs], x[obs], y

    def write(self, seed: int, k: int, in_dir: str) -> None:
        xq, xo, y = self.inputs(seed, k)
        write_json(os.path.join(in_dir, "config.json"), {
            "kernel": {"family": "matern52", "lengthscale": self.ell},
            "seed": k,
        })
        write_csv(os.path.join(in_dir, "data.csv"), ["i_1", "v_1"],
                  np.column_stack([xo, y]))
        write_csv(os.path.join(in_dir, "query.csv"), ["i_1"], xq[:, None])

    def check(self, seed: int, k: int, out_dir: str) -> Checked:
        xq, xo, y = self.inputs(seed, k)
        read_report(out_dir)
        table = read_csv(os.path.join(out_dir, "predictions.csv"))
        _require(table.shape == (xq.size + xo.size, 2),
                 f"predictions.csv has shape {table.shape}")
        pts, pred = table[:, 0], table[:, 1]
        _require(np.array_equal(np.sort(pts), np.sort(np.concatenate([xq, xo]))),
                 "predictions.csv does not list the design points")
        ref = matern52(pts, xo, self.ell) @ cholesky_solve(
            matern52(xo, xo, self.ell), y)
        scale = float(np.abs(y).max())
        err = float(np.abs(pred - ref).max())
        _require(err <= self.rtol * scale,
                 f"predictions differ from the Cholesky reference by {err:.3e}")
        order = np.argsort(pts)
        at_obs = np.searchsorted(pts[order], xo)
        repro = float(np.abs(pred[order][at_obs] - y).max())
        _require(repro <= self.reproduce_atol,
                 f"observed values reproduced only to {repro:.3e}")
        return Checked(_relative(err, scale), {})


# ---------------------------------------------------------------------------
# condition: posterior samples on the fiber
# ---------------------------------------------------------------------------


class Condition:
    """``olskit condition``: 100 query and 20 observed points on [0, 10]."""

    name = "condition"  # also the CLI command
    nominal_s = 0.05  # seconds per warm solution on the reference host
    n_query = 100
    n_observed = 20
    width = 10.0
    ell = 1.0
    samples = 300
    mean_rtol = 1e-8
    fiber_atol = 1e-8
    # Sample means are gated at this many standard errors.  Every column of
    # every solution is one test, about 1e5 per run, so five standard
    # errors (two-sided tail 5.7e-7) would fail correct output a few times
    # per hundred runs; seven (2.6e-12) keeps false alarms out of reach.
    mean_z = 7.0

    def inputs(self, seed: int, k: int):
        rng = np.random.default_rng([seed, k])
        gap = self.width / self.n_observed
        # one observation per cell of width 0.5, kept 0.1 from the cell
        # edges so the observed block stays well conditioned
        xo = gap * (np.arange(self.n_observed)
                    + rng.uniform(0.2, 0.8, self.n_observed))
        xq = rng.uniform(0.0, self.width, self.n_query)
        y = gp_draw(rng, matern52(xo, xo, self.ell))
        return xq, xo, y

    def write(self, seed: int, k: int, in_dir: str) -> None:
        xq, xo, y = self.inputs(seed, k)
        write_json(os.path.join(in_dir, "config.json"), {
            "kernel": {"family": "matern52", "lengthscale": self.ell},
            "seed": k,
            "samples": self.samples,
        })
        write_csv(os.path.join(in_dir, "data.csv"), ["i_1", "v_1"],
                  np.column_stack([xo, y]))
        write_csv(os.path.join(in_dir, "query.csv"), ["i_1"], xq[:, None])

    def check(self, seed: int, k: int, out_dir: str) -> Checked:
        xq, xo, y = self.inputs(seed, k)
        read_report(out_dir)
        table = read_csv(os.path.join(out_dir, "posterior_mean.csv"))
        n = xq.size + xo.size
        _require(table.shape == (n, 2), f"posterior_mean.csv has shape {table.shape}")
        pts, mean = table[:, 0], table[:, 1]
        _require(np.array_equal(np.sort(pts), np.sort(np.concatenate([xq, xo]))),
                 "posterior_mean.csv does not list the design points")
        # Schur complement: mean K_po K_oo^-1 y, variance K_pp - K_po K_oo^-1 K_op
        k_po = matern52(pts, xo, self.ell)
        gain = cholesky_solve(matern52(xo, xo, self.ell), k_po.T)
        ref_mean = gain.T @ y
        ref_var = np.clip(1.0 - np.sum(k_po * gain.T, axis=1), 0.0, None)
        scale = float(np.abs(y).max())
        err = float(np.abs(mean - ref_mean).max())
        _require(err <= self.mean_rtol * scale,
                 f"posterior mean differs from the Schur reference by {err:.3e}")

        draws = read_csv(os.path.join(out_dir, "samples.csv"))
        _require(draws.shape == (self.samples, n), f"samples.csv has shape {draws.shape}")
        observed = np.isin(pts, xo)
        order = np.argsort(xo)
        y_at = y[order][np.searchsorted(xo[order], pts[observed])]
        fiber = float(np.abs(draws[:, observed] - y_at[None, :]).max())
        _require(fiber <= self.fiber_atol,
                 f"samples leave the fiber by {fiber:.3e}")
        stderr = np.sqrt(ref_var / self.samples)
        dev = np.abs(draws.mean(axis=0) - ref_mean)
        limit = self.mean_z * stderr + self.mean_rtol * scale
        worst = int(np.argmax(dev - limit))
        _require(dev[worst] <= limit[worst],
                 f"sample mean of column {worst + 1} is {dev[worst]:.3e} from "
                 f"the reference (limit {limit[worst]:.3e})")
        return Checked(_relative(max(err, fiber), scale), {})


# ---------------------------------------------------------------------------
# classify-svm: two separable 2-d Gaussian blobs
# ---------------------------------------------------------------------------


class ClassifySvm:
    """``olskit classify-svm`` on 2 x 60 blobs with 400 query points."""

    name = "classify-svm"  # also the CLI command
    nominal_s = 0.023  # seconds per warm solution on the reference host
    per_class = 60
    centre = 1.5
    spread = 0.5
    n_query = 400
    ell = 0.7
    tol = 1e-10            # the CLI's default svm.tol
    # Recomputing the gap with another Gram moves it by rounding only
    # (at most 2e-17 here); this slack keeps a gap the program certified
    # just under tol from reading just over it.
    gap_rounding = 1e-14
    simplex_atol = 1e-12
    decision_rtol = 1e-9

    def inputs(self, seed: int, k: int):
        rng = np.random.default_rng([seed, k])
        c = np.array([self.centre, 0.0])
        d0 = -c + self.spread * rng.standard_normal((self.per_class, 2))
        d1 = c + self.spread * rng.standard_normal((self.per_class, 2))
        query = rng.uniform([-4.0, -3.0], [4.0, 3.0], (self.n_query, 2))
        return d0, d1, query

    def write(self, seed: int, k: int, in_dir: str) -> None:
        d0, d1, query = self.inputs(seed, k)
        write_json(os.path.join(in_dir, "config.json"), {
            "kernel": {"family": "se", "lengthscale": self.ell},
            "seed": k,
        })
        labelled = np.vstack([
            np.column_stack([d0, np.zeros(len(d0))]),
            np.column_stack([d1, np.ones(len(d1))]),
        ])
        write_csv(os.path.join(in_dir, "data.csv"), ["i_1", "i_2", "v_1"], labelled)
        write_csv(os.path.join(in_dir, "query.csv"), ["i_1", "i_2"], query)

    def check(self, seed: int, k: int, out_dir: str) -> Checked:
        d0, d1, query = self.inputs(seed, k)
        report = read_report(out_dir)
        with open(os.path.join(out_dir, "model.json"), encoding="utf-8") as fh:
            model = json.load(fh)
        _require(np.array_equal(np.array(model["points_0"]), d0)
                 and np.array_equal(np.array(model["points_1"]), d1),
                 "model.json does not hold the training points")
        nu0, nu1 = np.array(model["nu0"]), np.array(model["nu1"])
        for label, nu in (("nu0", nu0), ("nu1", nu1)):
            _require(nu.min() >= 0.0 and abs(nu.sum() - 1.0) <= self.simplex_atol,
                     f"{label} is off the simplex (min {nu.min():.3e}, "
                     f"sum - 1 = {nu.sum() - 1.0:.3e})")

        # Frank-Wolfe gap of the nearest-point problem, with our own Gram
        k11 = squared_exponential(d1, d1, self.ell)
        k00 = squared_exponential(d0, d0, self.ell)
        k10 = squared_exponential(d1, d0, self.ell)
        p1 = k11 @ nu1 - k10 @ nu0
        p0 = k10.T @ nu1 - k00 @ nu0
        u1, u0 = float(nu1 @ p1), float(nu0 @ p0)
        gap = 2.0 * ((u1 - float(p1.min())) + (float(p0.max()) - u0))
        _require(gap <= self.tol + self.gap_rounding,
                 f"recomputed duality gap {gap:.3e} above {self.tol:.0e}")
        offset = 0.5 * (u1 + u0)

        def decide(points):
            return (squared_exponential(points, d1, self.ell) @ nu1
                    - squared_exponential(points, d0, self.ell) @ nu0 - offset)

        _require(np.all(decide(d1) >= 0.0) and np.all(decide(d0) < 0.0),
                 "a training point is misclassified")
        table = read_csv(os.path.join(out_dir, "predictions.csv"))
        _require(table.shape == (self.n_query, 4), f"predictions.csv has shape {table.shape}")
        _require(np.array_equal(table[:, :2], query),
                 "predictions.csv does not list the query points in order")
        ref = decide(query)
        scale = float(np.abs(ref).max())
        err = float(np.abs(table[:, 2] - ref).max())
        _require(err <= self.decision_rtol * scale,
                 f"decision values differ from the recomputation by {err:.3e}")
        clear = np.abs(ref) > self.decision_rtol * scale
        want = (ref >= 0.0).astype(float)
        _require(np.array_equal(table[clear, 3], want[clear]),
                 "a query label disagrees with the recomputed decision")
        return Checked(_relative(err, scale),
                       {"svm.iterations": int(report["metrics"]["iterations"])})


WORKLOADS = {w.name: w for w in (Krige(), Condition(), ClassifySvm())}
