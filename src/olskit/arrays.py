"""Finite array spaces: restriction and transform maps, kriging, fuzzy labels.

An ArrayDesign discretizes the index space to a finite point list with a
kernel and a mean array, one length-q row per point.  Every map returned
here is a plain p x n matrix: observing a subset of points is a
row-selection map, and the general transform composes a point re-indexing
(its target points) with a linear value map.  Kriging runs the
least-squares estimator through the restriction map, which reproduces
observed values exactly and extends them to the full design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelSpec, _first_rows, _locate, as_points, gram
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, matrix_rank
from .model import FiniteModel, ols_build, ols_estimate


@dataclass(frozen=True, eq=False)
class ArrayDesign:
    """Finite index set, covariance kernel, and mean array.

    ``mean`` holds one length-q row per index point, (n_points, q); it is
    zero when omitted.
    """

    index_points: np.ndarray
    kernel: KernelSpec
    mean: np.ndarray | None = None
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        pts = as_points(self.index_points, "index_points")
        if pts.shape[0] == 0:
            raise ValueError("design needs at least one index point")
        if np.any(_first_rows(pts) != np.arange(pts.shape[0])):
            raise ValueError("design index points must be distinct")
        object.__setattr__(self, "index_points", pts)
        shape = (pts.shape[0], self.kernel.q)
        if self.mean is None:
            mean = np.zeros(shape)
        else:
            mean = as_matrix(self.mean, "mean")
            if mean.shape != shape:
                raise ValueError(f"mean must have shape {shape}, got {mean.shape}")
        object.__setattr__(self, "mean", mean)

    @property
    def n_points(self) -> int:
        return self.index_points.shape[0]

    @property
    def q(self) -> int:
        return self.kernel.q


def model_from_design(design: ArrayDesign) -> FiniteModel:
    """Flatten a design to a finite model: n = n_points * q, K = Gram."""
    return FiniteModel(
        design.mean.ravel(),
        gram(design.kernel, design.index_points),
        tol=design.tol,
    )


def _validate_subset(design: ArrayDesign, subset: Sequence[int]) -> list[int]:
    """Positions as ints; each a Python or numpy integer (not a bool) in range."""
    idx = []
    for i in subset:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"subset index must be an integer, got {i!r}")
        if not 0 <= i < design.n_points:
            raise ValueError(f"subset index {i} out of range [0, {design.n_points})")
        idx.append(int(i))
    if len(set(idx)) != len(idx):
        raise ValueError("subset indices must be distinct")
    return idx


def _value_columns(design: ArrayDesign, idx: list[int]) -> np.ndarray:
    """Flat model coordinates of the values at design positions ``idx``."""
    q = design.q
    return (np.asarray(idx, dtype=int)[:, None] * q + np.arange(q)).ravel()


def restriction_map(design: ArrayDesign, subset: Sequence[int]) -> np.ndarray:
    """Row-selection map evaluating an array at the given design positions."""
    idx = _validate_subset(design, subset)
    cols = _value_columns(design, idx)
    g = np.zeros((cols.size, design.n_points * design.q))
    # row block r is the identity on column block idx[r]
    g[np.arange(cols.size), cols] = 1.0
    return g


def transform_map(design: ArrayDesign, target_points, value_map) -> np.ndarray:
    """General array transform: (Upsilon a)(d) = w(a(i(d))).

    ``value_map`` is the q_out x q matrix w applied at each target point.
    Each target point must be a member of the design's index set; the
    resulting map has the value block w at that point's column block.
    """
    targets = as_points(target_points)
    w = as_matrix(value_map, "value_map")
    if w.shape[1] != design.q:
        raise ValueError(
            f"value_map has {w.shape[1]} columns, design value_dim is {design.q}"
        )
    q_out = w.shape[0]
    n = design.n_points * design.q
    g = np.zeros((targets.shape[0] * q_out, n))
    for row, point in enumerate(targets):
        i = _locate(point, design.index_points, "is not a design point")
        g[row * q_out:(row + 1) * q_out, i * design.q:(i + 1) * design.q] = w
    return g


@dataclass(frozen=True, eq=False)
class KrigeResult:
    """Predicted array with the solve diagnostics."""

    values: np.ndarray          # (n_points, q)
    jitter: float


def krige(design: ArrayDesign, observed: Sequence[int], values,
          project: bool = False) -> KrigeResult:
    """Best linear unbiased prediction of the whole array from a subset.

    ``values`` holds one length-q observation per observed index.  A jitter
    of 1e-10 * variance, recorded in the result, is added to the observed
    block S only when S passes the rank test (singular values above
    rcond * p * sigma_max) yet has condition number above 1e12.  The rank
    test bounds cond(S) below 1 / (rcond * p), so the jitter fires only at
    ``design.tol.rcond`` below 1e-12 / p, never at the default 1e-12, and
    then predictions at observed points no longer reproduce the data.
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
        mean=np.full((design.n_points, 1), prior),
        tol=design.tol,
    )
    observed = i0 + i1
    data = np.array([0.0] * len(i0) + [1.0] * len(i1))
    return krige(flat, observed, data).values[:, 0]
