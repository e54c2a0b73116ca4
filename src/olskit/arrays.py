"""Finite array spaces: restriction and transform maps, kriging, fuzzy labels.

An ArrayDesign discretizes the index space to a finite point list with a
kernel and an optional mean array.  Observing a subset of points is a
row-selection map; the general transform composes a point re-indexing with
a linear value map.  Kriging runs the least-squares estimator through the
restriction map, which reproduces observed values exactly and extends them
to the full design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import KernelSpec, _first_rows, _locate, as_points, gram
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, matrix_rank
from .model import FiniteModel, ObservationMap, ols_build, ols_estimate


@dataclass(frozen=True, eq=False)
class ArrayDesign:
    """Finite index set, covariance kernel, and optional mean array."""

    index_points: np.ndarray
    kernel: KernelSpec
    mean_fn: Callable[[np.ndarray], np.ndarray] | None = None
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        pts = as_points(self.index_points, "index_points")
        if pts.shape[0] == 0:
            raise ValueError("design needs at least one index point")
        if np.any(_first_rows(pts) != np.arange(pts.shape[0])):
            raise ValueError("design index points must be distinct")
        object.__setattr__(self, "index_points", pts)

    @property
    def n_points(self) -> int:
        return self.index_points.shape[0]

    @property
    def q(self) -> int:
        return self.kernel.q

    def mean_array(self) -> np.ndarray:
        """Mean values at every design point as an (n_points, q) array."""
        if self.mean_fn is None:
            return np.zeros((self.n_points, self.q))
        rows = [
            np.atleast_1d(np.asarray(self.mean_fn(p), dtype=float))
            for p in self.index_points
        ]
        out = np.vstack(rows)
        if out.shape != (self.n_points, self.q):
            raise ValueError("mean_fn must return one length-q value per point")
        return out

    def locate(self, point) -> int:
        """Exact-match position of an index point within the design."""
        return _locate(point, self.index_points, "is not a design point")


@dataclass(frozen=True, eq=False)
class TransformSpec:
    """Point re-indexing plus a linear value map w applied at each target."""

    target_points: np.ndarray
    value_map: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_points", as_points(self.target_points))
        object.__setattr__(self, "value_map", as_matrix(self.value_map, "value_map"))


def model_from_design(design: ArrayDesign) -> FiniteModel:
    """Flatten a design to a finite model: n = n_points * q, K = Gram."""
    return FiniteModel(
        design.mean_array().ravel(),
        gram(design.kernel, design.index_points),
        tol=design.tol,
    )


def _validate_subset(design: ArrayDesign, subset: Sequence[int]) -> list[int]:
    idx = [int(i) for i in subset]
    for i in idx:
        if not 0 <= i < design.n_points:
            raise ValueError(f"subset index {i} out of range [0, {design.n_points})")
    if len(set(idx)) != len(idx):
        raise ValueError("subset indices must be distinct")
    return idx


def _value_columns(design: ArrayDesign, idx: list[int]) -> np.ndarray:
    """Flat model coordinates of the values at design positions ``idx``."""
    q = design.q
    return (np.asarray(idx, dtype=int)[:, None] * q + np.arange(q)).ravel()


def restriction_map(design: ArrayDesign, subset: Sequence[int]) -> ObservationMap:
    """Row-selection map evaluating an array at the given design positions."""
    idx = _validate_subset(design, subset)
    cols = _value_columns(design, idx)
    g = np.zeros((cols.size, design.n_points * design.q))
    # row block r is the identity on column block idx[r]
    g[np.arange(cols.size), cols] = 1.0
    return ObservationMap(g)


def transform_map(design: ArrayDesign, spec: TransformSpec) -> ObservationMap:
    """General array transform: (Upsilon a)(d) = w(a(i(d))).

    Each target point must be a member of the design's index set; the
    resulting map has the value block w at that point's column block.
    """
    w = spec.value_map
    if w.shape[1] != design.q:
        raise ValueError(
            f"value_map has {w.shape[1]} columns, design value_dim is {design.q}"
        )
    q_out = w.shape[0]
    n = design.n_points * design.q
    g = np.zeros((spec.target_points.shape[0] * q_out, n))
    for row, point in enumerate(spec.target_points):
        i = design.locate(point)
        g[row * q_out:(row + 1) * q_out, i * design.q:(i + 1) * design.q] = w
    return ObservationMap(g)


@dataclass(frozen=True, eq=False)
class KrigeResult:
    """Predicted array with the solve diagnostics."""

    values: np.ndarray          # (n_points, q)
    jitter: float
    observed_indices: tuple[int, ...]

    def at(self, design: ArrayDesign, point) -> np.ndarray:
        return self.values[design.locate(point)]


def krige(design: ArrayDesign, observed: Sequence[int], values,
          project: bool = False) -> KrigeResult:
    """Best linear unbiased prediction of the whole array from a subset.

    ``values`` holds one length-q observation per observed index.  A jitter
    of 1e-10 * variance is added to the observed covariance block only when
    its condition number exceeds 1e12; the result records the jitter used.
    Predicted values at observed points reproduce the data.
    """
    idx = _validate_subset(design, observed)
    y = np.asarray(values, dtype=float)
    if y.ndim == 1 and design.q == 1:
        y = y[:, None]
    if y.shape != (len(idx), design.q):
        raise ValueError(
            f"values must have shape ({len(idx)}, {design.q}), got {y.shape}"
        )
    model = model_from_design(design)
    obs = restriction_map(design, idx)
    jitter = 0.0
    if len(idx):
        # jitter only rescues blocks that are full rank at tolerance yet
        # ill conditioned; rank-deficient blocks keep the pseudoinverse
        # truncation so inconsistent data still raises a support violation
        cols = _value_columns(design, idx)
        s = model.cov[np.ix_(cols, cols)]  # G K G^T, read by index
        w = np.linalg.eigvalsh(s)  # s is exactly symmetric, as K is
        if matrix_rank(s, design.tol) == s.shape[0] and (
            w[0] <= 0.0 or w[-1] / w[0] > 1e12
        ):
            jitter = 1e-10 * design.kernel.variance
    est = ols_build(model, obs, ridge=jitter)
    predicted = ols_estimate(est, y.ravel(), project=project)
    return KrigeResult(
        values=predicted.reshape(design.n_points, design.q),
        jitter=jitter,
        observed_indices=tuple(idx),
    )


def fuzzy_classify(design: ArrayDesign, d0: Sequence[int], d1: Sequence[int],
                   prior: float = 0.5) -> np.ndarray:
    """Soft labels on the whole design from two labeled subsets.

    Kriges the indicator data (1 on d1, 0 on d0) under a constant prior
    mean, 1/2 by default so mirror-symmetric label sets balance to 1/2 at
    the symmetry point.  Labeled points reproduce their indicators exactly;
    everything in between interpolates continuously.
    """
    if design.q != 1:
        raise ValueError("fuzzy_classify requires a scalar-valued design")
    i0 = _validate_subset(design, d0)
    i1 = _validate_subset(design, d1)
    if not i0 or not i1:
        raise ValueError("both label sets must be nonempty")
    if set(i0) & set(i1):
        raise ValueError("label sets must be disjoint")
    flat = ArrayDesign(
        design.index_points,
        design.kernel,
        mean_fn=lambda _p: np.array([prior]),
        tol=design.tol,
    )
    observed = i0 + i1
    data = np.array([0.0] * len(i0) + [1.0] * len(i1))
    return krige(flat, observed, data).values[:, 0]
