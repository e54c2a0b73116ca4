"""Covariance kernels over finite index sets, co-arrays, and entropy estimates.

Index points live in R^d.  A kernel assigns every pair of points a q x q
covariance block; for q > 1 the block is the separable (intrinsic
coregionalization) form ``B * c_scalar(i, i')`` with a PSD mixing matrix B.
Arbitrary block kernels can be supplied through ``family="custom"`` with an
evaluation hook that honors the same symmetry and PSD contracts.

Co-arrays are finitely supported weighted point masses; applying one to a
dataset is a plain weighted sum, and covariances between co-arrays contract
the kernel blocks on both sides.  The covariance (pseudo-)metric derived
from the kernel drives greedy covering numbers and the integrated entropy
estimate.  Index points are equal when their coordinates are equal by value
(-0.0 equals 0.0): ``_first_rows`` decides it, and ``_locate`` looks up by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (DEFAULT_TOL, PsdGate, Tolerance, _psd_floor, as_int, as_matrix,
                     as_number, as_vector, check_psd)

_STATIONARY = ("se", "matern12", "matern32", "matern52", "wendland")
_DOT_PRODUCT = ("linear", "polynomial")
_GRAM_ROUNDING = 64  # c in the entry bound (c + d) u max|K| of ``_gram_gate``

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 fallback

_FAMILY_ALIASES = {
    "se": "se",
    "squared-exponential": "se",
    "squared_exponential": "se",
    "rbf": "se",
    "matern12": "matern12",
    "matern-1/2": "matern12",
    "matern32": "matern32",
    "matern-3/2": "matern32",
    "matern52": "matern52",
    "matern-5/2": "matern52",
    "linear": "linear",
    "polynomial": "polynomial",
    "wendland": "wendland",
    "wendland-compact": "wendland",
    "custom": "custom",
}


def as_points(points, name: str = "points") -> np.ndarray:
    """Return index points, or any rows given one per point, as a finite
    (n, d) float array (``as_matrix``); a 1-d input is one column."""
    out = np.asarray(points)
    return as_matrix(out[:, None] if out.ndim == 1 else out, name)


def _mixing_matrix(b, q: int) -> np.ndarray:
    """``b`` as a q x q float array: rows of ``as_number`` entries, PSD."""
    rows = b.tolist() if isinstance(b, np.ndarray) else b
    if not (isinstance(rows, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in rows)):
        raise ValueError("coregionalization: must be a matrix (list of rows)")
    rows = [[as_number(v, "coregionalization") for v in row] for row in rows]
    if len(rows) != q or any(len(row) != q for row in rows):
        raise ValueError("coregionalization: must be output_dim x output_dim")
    return check_psd(np.array(rows), name="coregionalization").matrix


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Parametrized covariance kernel.

    ``family`` is se, matern12, matern32, matern52, linear, polynomial,
    wendland or custom, or a spelled-out alias, in any case.  ``variance``
    scales the whole q x q block (q = ``output_dim``) and ``lengthscale``
    the distances; wendland uses ``support_radius`` instead and requires
    it, only the polynomial family reads ``degree``, ``coregionalization``
    is the mixing matrix B (identity when omitted), and the custom family
    requires ``eval_hook(i, j) -> (q, q) block``.

    The spec owns every rule on its fields, and the rules bind library
    callers and the CLI's ``kernel`` block alike.  ``lengthscale``,
    ``variance`` and a given ``support_radius`` pass ``as_number`` (a bool,
    a string, NaN, an infinity or an integer beyond the float range is
    refused), must be > 0 and are stored as floats; ``output_dim`` and
    ``degree`` pass ``as_int`` with minimum 1; ``coregionalization`` is q
    rows of q entries that pass ``as_number``, and ``check_psd``; a given
    ``eval_hook`` is callable.  Every
    ValueError begins with the field's name, as in ``lengthscale: must
    be > 0``.

    Specs compare and hash by value: the mixing matrix by its entries, the
    hook not at all.
    """

    family: str
    lengthscale: float = 1.0
    variance: float = 1.0
    output_dim: int = 1
    coregionalization: np.ndarray | None = None
    degree: int = 2
    support_radius: float | None = None
    eval_hook: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, str):
            raise ValueError("family: required string field")
        key = _FAMILY_ALIASES.get(self.family.lower())
        if key is None:
            raise ValueError(f"family: unknown kernel family {self.family!r}")
        object.__setattr__(self, "family", key)
        for name in ("lengthscale", "variance", "support_radius"):
            if getattr(self, name) is None and name == "support_radius":
                continue
            value = as_number(getattr(self, name), name)
            if value <= 0.0:
                raise ValueError(f"{name}: must be > 0")
            object.__setattr__(self, name, value)
        for name in ("output_dim", "degree"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, 1))
        if key == "wendland" and self.support_radius is None:
            raise ValueError("support_radius: required by the wendland family")
        if key == "custom" and self.eval_hook is None:
            raise ValueError("family: 'custom' requires an eval_hook")
        if self.eval_hook is not None and not callable(self.eval_hook):
            raise ValueError(f"eval_hook: must be callable, got {self.eval_hook!r}")
        if self.coregionalization is not None:
            object.__setattr__(self, "coregionalization",
                               _mixing_matrix(self.coregionalization, self.output_dim))

    def _key(self) -> tuple:
        b = self.coregionalization
        # + 0.0 turns -0.0 into 0.0, so equal matrices have equal bytes
        mixing = None if b is None else (b + 0.0).tobytes()
        return (self.family, self.lengthscale, self.variance, self.output_dim,
                mixing, self.degree, self.support_radius)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def q(self) -> int:
        return self.output_dim

    def mixing(self) -> np.ndarray:
        if self.coregionalization is None:
            return np.eye(self.output_dim)
        return self.coregionalization


_BLOCK = 1 << 15  # entries per tile of a kernel pass, ~256 kB


def _tiles(n: int, m: int | None = None) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of at most ``_BLOCK`` entries each (at least one
    row) that tile an (n, m) array or, when ``m`` is None, whose blocks
    [lo:hi, :hi] tile the lower triangle of an n x n array."""
    tiles, lo = [], 0
    while lo < n:
        if m is None:  # the largest k with k (lo + k) <= _BLOCK
            k = (math.isqrt(lo * lo + 4 * _BLOCK) - lo) // 2
        else:
            k = _BLOCK // max(m, 1)
        tiles.append((lo, min(lo + max(k, 1), n)))
        lo = tiles[-1][1]
    return tiles


def _squared_distances(x: np.ndarray, y: np.ndarray, out: np.ndarray,
                       diff: np.ndarray) -> None:
    """Pairwise squared distances into ``out``, summed from coordinate differences.

    |x|^2 + |y|^2 - 2 x.y cancels catastrophically away from the origin;
    differencing first keeps every digit the points themselves carry.
    ``diff`` is scratch of ``out``'s shape.
    """
    if x.shape[1] == 0:
        out.fill(0.0)
        return
    np.subtract.outer(x[:, 0], y[:, 0], out=out)
    np.square(out, out=out)
    for xc, yc in zip(x.T[1:], y.T[1:]):
        np.subtract.outer(xc, yc, out=diff)
        out += np.square(diff, out=diff)


def _stationary_block(spec: KernelSpec, out: np.ndarray, a: np.ndarray,
                      b: np.ndarray) -> None:
    """Turn squared distances in ``out`` into kernel values, in place.

    ``a`` and ``b`` are scratch of ``out``'s shape.  Each family follows the
    operation order of the closed form in its comment.
    """
    s2, ell = spec.variance, spec.lengthscale
    if spec.family == "se":
        # s2 * exp((-0.5 * d^2) / ell^2)
        out *= -0.5
        out /= ell * ell
        np.exp(out, out=out)
        out *= s2
        return
    np.sqrt(out, out=out)  # r
    if spec.family == "matern12":
        # s2 * exp(-r / ell)
        np.negative(out, out=out)
        out /= ell
        np.exp(out, out=out)
        out *= s2
        return
    if spec.family == "wendland":
        # s2 * where(t < 1, (1 - t)^4 * (4 t + 1), 0) with t = r / R
        out /= spec.support_radius
        outside = out >= 1.0
        np.subtract(1.0, out, out=a)
        a **= 4
        out *= 4.0
        out += 1.0
        out *= a
        out[outside] = 0.0
        out *= s2
        return
    # Matern-3/2: (s2 * (1 + z)) * exp(-z) with z = (sqrt(3) r) / ell;
    # Matern-5/2: (s2 * ((1 + z) + (z z) / 3)) * exp(-z) with sqrt(5)
    out *= np.sqrt(3.0 if spec.family == "matern32" else 5.0)
    out /= ell
    np.negative(out, out=a)
    np.exp(a, out=a)
    if spec.family == "matern52":
        np.square(out, out=b)
        b /= 3.0
        out += 1.0
        out += b
    else:
        out += 1.0
    out *= s2
    out *= a


def _to_distances(blk: np.ndarray, d_rows: np.ndarray, d_cols: np.ndarray,
                  scratch: np.ndarray) -> None:
    """Turn kernel values s_ab in ``blk`` into sqrt(max((s_aa + s_bb) - 2 s_ab, 0)),
    in place, with s_aa from ``d_rows`` and s_bb from ``d_cols``.

    ``scratch`` is of ``blk``'s shape.
    """
    np.add.outer(d_rows, d_cols, out=scratch)
    blk *= 2.0
    np.subtract(scratch, blk, out=blk)
    np.maximum(blk, 0.0, out=blk)
    np.sqrt(blk, out=blk)


def _stationary_pass(spec: KernelSpec, x: np.ndarray, y: np.ndarray,
                     metric: bool = False) -> np.ndarray:
    """Stationary kernel values between the rows of x and of y, or with
    ``metric`` (only for y is x) their sqrt(t_c) distances, one tile at a time.

    Each tile holds at most ``_BLOCK`` entries (or one row) and two
    tile-sized scratch buffers go with it, so a pass stays in cache.  Tiles of an (n, m)
    array are evaluated in place in the output.  A point set against
    itself (y is x) is evaluated on the lower triangle only: (x_a - x_b)^2
    is exactly (x_b - x_a)^2 and every later step is elementwise, so both
    triangles hold the same bits, and each block [lo:hi, :hi] is computed
    in contiguous scratch, written once and mirrored once.  A set small
    enough for one tile is computed in the output itself.  The distances
    are finished in the same pass, with s_aa read from the diagonals of
    the blocks done so far, so no n x n kernel matrix is kept beside them.
    """
    n, m = x.shape[0], y.shape[0]
    triangle = y is x
    tiles = [(lo, hi, hi if triangle else m)
             for lo, hi in _tiles(n, None if triangle else m)]
    size = max(((hi - lo) * w for lo, hi, w in tiles), default=0)
    out = np.empty((n, m))
    mirror = triangle and len(tiles) > 1  # one triangle tile is all of out
    c = np.empty(size) if mirror else None
    a, b = np.empty(size), np.empty(size)
    diag = np.empty(n) if metric else None
    for lo, hi, w in tiles:
        ta, tb = (buf[:(hi - lo) * w].reshape(hi - lo, w) for buf in (a, b))
        blk = c[:(hi - lo) * w].reshape(hi - lo, w) if mirror else out[lo:hi, :w]
        _squared_distances(x[lo:hi], y[:w], blk, ta)
        _stationary_block(spec, blk, ta, tb)
        if metric:
            diag[lo:hi] = blk[:, lo:].diagonal()
            _to_distances(blk, diag[lo:hi], diag[:hi], ta)  # ta is free again
        if mirror:
            out[lo:hi, :hi] = blk
            out[:lo, lo:hi] = blk[:, :lo].T
    return out


def scalar_kernel(spec: KernelSpec, x, y) -> np.ndarray:
    """Scalar kernel values between the rows of x and of y, as an (n, m) array.

    Stationary families take one tiled pass (``_stationary_pass``): tiles
    of about 2^15 entries of the (n, m) output or, for a point set against
    itself (the same array as x and y), of its lower triangle, mirrored.
    Every step is elementwise and keeps the operation order of its
    family's closed form, so each value is bitwise the one that closed
    form gives, whatever the tiling.
    Dot-product families take one ``x @ y.T`` product and finish it in
    place; it is not bitwise symmetric, so they take it for x against x too.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"index dimension mismatch: {x.shape[1]} vs {y.shape[1]}"
        )
    if spec.family in _DOT_PRODUCT:
        # linear: s2 * (x.y / ell^2); polynomial: s2 * (1 + x.y / ell^2)^degree
        # one product, not one per row block: a blocked matmul rounds differently
        s2, ell = spec.variance, spec.lengthscale
        out = x @ y.T
        out /= ell * ell
        if spec.family == "polynomial":
            out += 1.0
            out **= spec.degree  # the same power path as `** degree`
        out *= s2
        return out
    if spec.family not in _STATIONARY:
        raise ValueError(f"scalar form undefined for family {spec.family!r}")
    return _stationary_pass(spec, x, y)


def kernel_eval(spec: KernelSpec, i, j) -> np.ndarray:
    """Covariance block c(i, j) of shape (q, q)."""
    i = as_vector(np.atleast_1d(i), "i")
    j = as_vector(np.atleast_1d(j), "j")
    if i.shape != j.shape:
        raise ValueError(f"index dimension mismatch: {i.shape} vs {j.shape}")
    if spec.family == "custom":
        block = as_matrix(spec.eval_hook(i, j), "custom kernel block")
        if block.shape != (spec.q, spec.q):
            raise ValueError("custom kernel block has wrong shape")
        return block
    s = float(scalar_kernel(spec, i[None, :], j[None, :])[0, 0])
    return spec.mixing() * s


def cross_kernel(spec: KernelSpec, x, y) -> np.ndarray:
    """Covariance blocks c(x_a, y_b) as one (n q) x (m q) matrix.

    Blocks are laid out point-major: rows [a*q, (a+1)*q) belong to x[a]
    and columns [b*q, (b+1)*q) to y[b].  Closed-form families are the
    scalar kernel times the mixing matrix; a custom hook is called once
    per pair, here and nowhere else.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if spec.family != "custom":
        s = scalar_kernel(spec, x, y)
        if spec.q == 1 and spec.coregionalization is None:
            return s
        return np.kron(s, spec.mixing())
    q = spec.q
    out = np.empty((x.shape[0] * q, y.shape[0] * q))
    for a in range(x.shape[0]):
        for b in range(y.shape[0]):
            out[a * q:(a + 1) * q, b * q:(b + 1) * q] = kernel_eval(spec, x[a], y[b])
    return out


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Assemble the (n q) x (n q) Gram matrix over a point list.

    The layout is ``cross_kernel``'s, and the matrix is returned as
    evaluated, neither symmetrized nor checked.  A prior covariance is
    certified PSD by ``FiniteModel``: through ``_gram_gate`` with no
    factorization when ``model_from_design`` builds a closed-form
    stationary Gram the certificate covers, otherwise by ``check_psd``'s
    Cholesky, which symmetrizes an asymmetry within its floor or rejects
    one beyond it.  Stationary families take the triangle tiling of the
    one stationary pass and mirror it, so their matrix is exactly
    symmetric.
    """
    pts = as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("gram requires at least one point")
    return cross_kernel(spec, pts, pts)


def _gram_gate(spec: KernelSpec, points: np.ndarray, k: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> PsdGate | None:
    """The PSD gate of ``k = gram(spec, points)`` by theorem and a rounding
    bound, with no factorization, or None where ``check_psd`` must decide.

    SE and Matern-1/2, 3/2 and 5/2 are positive definite on every R^d, and
    Wendland's (1 - t)^4 (4 t + 1) on R^d for d <= 3 (Wendland, *Scattered
    Data Approximation*, 2005, ch. 6 and 9), so with the identity as mixing
    matrix their Gram K is PSD in exact arithmetic on every point set, and
    ``k`` is computed exactly symmetric (``_stationary_pass``).  Each entry
    is elementwise: a squared distance summed from d rounded squares of
    rounded differences (relative error about (d + 1) u, u the unit
    roundoff), then the family's closed form, which changes by at most
    max|K| times the relative error of its argument and adds a few
    roundings of its own.  So every entry is within (c + d) u max|K| of
    exact, with c = 64 deliberately loose (a seeded sweep over d <= 3 stays
    within c u / 4).  The error matrix E = k - K has ||E||_2 <= N max|E|
    for N = ``k.shape[0]``, so lambda_min(k) >= -N (c + d) u max|K|, which
    the gate's floor ``abs_psd * max|k|`` covers whenever
    N (c + d) u <= abs_psd: N up to about 13,000 at the default tolerance.
    Custom hooks, the dot-product families (their Grams are not bitwise
    symmetric), an explicit mixing matrix (PSD only up to its own floor),
    Wendland for d >= 4 and larger N get None.  The theorem also makes K
    strictly PD at distinct points: disjoint sets have separable hulls.
    """
    d = points.shape[1]
    if (spec.family not in _STATIONARY or spec.coregionalization is not None
            or (spec.family == "wendland" and d > 3)):
        return None
    u = float(np.finfo(float).eps) / 2.0
    if k.shape[0] * (_GRAM_ROUNDING + d) * u > tol.abs_psd:
        return None
    return PsdGate(k, _psd_floor(k, tol))


@dataclass(frozen=True, eq=False)
class CoArray:
    """Finitely supported functional: a list of (weight, point) masses.

    Weights are length-q co-values; a Dirac mass at i with unit weight acts
    on a dataset by evaluation at i.
    """

    weights: np.ndarray  # (k, q)
    points: np.ndarray   # (k, d)

    def __post_init__(self) -> None:
        w = as_points(self.weights, "coarray weights")
        p = as_points(self.points, "coarray points")
        if w.shape[0] != p.shape[0]:
            raise ValueError("weights and points must have equal length")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", p)

    @staticmethod
    def dirac(point, covalue=1.0) -> "CoArray":
        return CoArray(np.atleast_1d(covalue)[None, :], np.atleast_1d(point)[None, :])


@dataclass(frozen=True, eq=False)
class IndexedDataset:
    """Index points with optional observed values (one length-q row each)."""

    points: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = as_points(self.points, "dataset points")
        object.__setattr__(self, "points", p)
        if self.values is not None:
            v = as_points(self.values, "dataset values")
            if v.shape[0] != p.shape[0]:
                raise ValueError("points and values must have equal length")
            object.__setattr__(self, "values", v)


def _first_rows(points: np.ndarray) -> np.ndarray:
    """Index of the first row equal to each row of an (n, d) array.

    Rows compare by value, so -0.0 equals 0.0.  One stable lexsort puts
    equal rows next to each other in index order, and comparing neighbours
    finds each run of equal rows and its first member.
    """
    n = points.shape[0]
    order = np.lexsort(points.T[::-1]) if points.shape[1] else np.arange(n)
    ranked = points[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.empty(n, dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _locate(points, table: np.ndarray, missing: str | None = None) -> np.ndarray:
    """First ``table`` row equal to each row of ``points`` by ``_first_rows``'s
    rule, else an index >= len(table); with ``missing`` set, an error naming
    the first point without a match.  Points of another dimension are
    refused, even when there are none."""
    if points.shape[1] != table.shape[1]:
        raise ValueError(f"index dimension mismatch: {table.shape[1]} vs {points.shape[1]}")
    n = table.shape[0]
    idx = _first_rows(np.vstack([table, points]))[n:]
    if missing is not None and np.any(idx >= n):
        raise ValueError(f"point {points[np.argmax(idx >= n)].tolist()} {missing}")
    return idx


def coarray_apply(phi: CoArray, dataset: IndexedDataset) -> float:
    """Apply a co-array to observed values: sum_k w_k . a(i_k).

    Points must match dataset coordinates exactly; no snapping.
    """
    if dataset.values is None:
        raise ValueError("dataset has no values to apply the co-array to")
    total = 0.0
    rows = _locate(phi.points, dataset.points, "not present in dataset")
    for w, v in zip(phi.weights, dataset.values[rows]):
        total += float(w @ v)
    return total


def coarray_cov(spec: KernelSpec, phi: CoArray, psi: CoArray) -> float:
    """Covariance of two co-arrays under the kernel: phi^T C psi."""
    if phi.weights.shape[1] != spec.q or psi.weights.shape[1] != spec.q:
        raise ValueError("co-value dimension does not match kernel output_dim")
    if phi.points.shape[1] != psi.points.shape[1]:
        raise ValueError("co-array index dimensions differ")
    # the point-major layout matches the row-major ravel of the co-values
    c = cross_kernel(spec, phi.points, psi.points)
    return float(phi.weights.ravel() @ c @ psi.weights.ravel())


def covariance_metric(spec: KernelSpec, e, i, e2, j) -> float:
    """Squared covariance distance t_c between co-values at index points.

    t_c(e,i; e',i') = c(e,i; e,i) - 2 c(e,i; e',i') + c(e',i'; e',i').
    This is the squared quantity (a pseudo-distance: it vanishes on
    maximally correlated pairs, not only identical ones); its square root
    is the metric used for covering, and both conventions are exposed.
    """
    a = CoArray.dirac(i, e)
    b = CoArray.dirac(j, e2)
    t = coarray_cov(spec, a, a) - 2.0 * coarray_cov(spec, a, b) + coarray_cov(spec, b, b)
    return max(float(t), 0.0)


def metric_matrix(spec: KernelSpec, points, covalue=None) -> np.ndarray:
    """Pairwise sqrt(t_c) distances between index points.

    For q > 1 a fixed co-value must be supplied to pull the metric back to
    index space; for q = 1 the unit co-value is implied.

    With s the pulled-back kernel matrix, the distance is
    sqrt(max((s_aa + s_bb) - 2 s_ab, 0)), finished by ``_to_distances``.
    A stationary family with the unit co-value and no mixing matrix takes
    the kernel's own triangle pass, which finishes each tile of s into
    distances as it goes.  Every other kernel builds s first, reads its
    diagonal, and finishes s in place one row tile at a time.  Either way
    the only n x n array is the result.
    """
    pts = as_points(points)
    if spec.q > 1 and covalue is None:
        raise ValueError("metric_matrix needs an explicit covalue when q > 1")
    if spec.family in _STATIONARY and covalue is None and spec.coregionalization is None:
        return _stationary_pass(spec, pts, pts, metric=True)
    n, q = pts.shape[0], spec.q
    c = cross_kernel(spec, pts, pts)
    if q == 1 and covalue is None:
        s = c  # e^T c e with the unit co-value is c itself
    else:
        e = np.atleast_1d(np.asarray(covalue, float))
        s = np.einsum("aibj,ij->ab", c.reshape(n, q, n, q), np.outer(e, e))
    diag = s.diagonal().copy()
    tiles = _tiles(n, n)  # one row is a whole tile once n > _BLOCK
    t = np.empty(max(((hi - lo) * n for lo, hi in tiles), default=0))
    for lo, hi in tiles:
        tb = t[:(hi - lo) * n].reshape(hi - lo, n)
        _to_distances(s[lo:hi], diag[lo:hi], diag, tb)
    return s


def _lexicographic_start(points: np.ndarray) -> int:
    order = np.lexsort(points.T[::-1])
    return int(order[0])


def _cover_radii(dist: np.ndarray, start: int, eps_min: float) -> np.ndarray:
    """Covering radii r_1 >= r_2 >= ... of one farthest-point sweep.

    The sweep (Gonzalez 1985) adds, as centre k + 1, the point farthest
    from the first k centres; r_k is that largest distance.  The centres
    do not depend on eps, so N(eps), the first k with r_k <= eps, can be
    read off for every eps at once.  The sweep stops at the first radius
    <= ``eps_min``, so the last entry answers the smallest eps asked for.
    Each centre is a new point, so there are at most n radii, the last of
    them 0 once every point is a centre; they fill one preallocated array.
    """
    nearest = dist[start].copy()
    radii = np.empty(nearest.size)
    for k in range(nearest.size):
        far = nearest.argmax()
        radii[k] = nearest[far]
        if radii[k] <= eps_min:
            return radii[:k + 1]
        np.minimum(nearest, dist[far], out=nearest)
    return radii


def covering_number(spec: KernelSpec, points, eps: float, covalue=None) -> int:
    """Greedy farthest-point count of eps-balls covering the points.

    Balls are measured in the metric sqrt(t_c); the greedy count is an
    upper bound on the minimal cover size and is nonincreasing in eps.
    The sweep starts at the lexicographically smallest point, which makes
    the result deterministic; the count is the number of covering radii
    the sweep takes to reach eps.
    """
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    pts = as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("covering_number requires a nonempty point set")
    dist = metric_matrix(spec, pts, covalue)
    return int(_cover_radii(dist, _lexicographic_start(pts), float(eps)).size)


def default_epsilon_grid(spec: KernelSpec, points, covalue=None) -> np.ndarray:
    """64 log-spaced eps values from 1e-3 * diameter to the diameter."""
    dist = metric_matrix(spec, as_points(points), covalue)
    diam = float(dist.max())
    if diam <= 0.0:
        return np.array([1.0])
    return np.geomspace(1e-3 * diam, diam, 64)


def entropy_integral(
    spec: KernelSpec, points, grid: Sequence[float], covalue=None
) -> float:
    """Trapezoidal estimate of the integrated entropy over an eps grid.

    Integrates log N(eps) d eps, truncated at the first grid point where
    the covering count reaches 1 (the entropy is zero from there on).
    One farthest-point sweep, run down to the smallest eps, gives the
    covering radii; N(eps) for each grid point is the position of the
    first radius <= eps, the same count ``covering_number`` returns.
    """
    eps = np.asarray(list(grid), dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if not np.all(eps > 0.0) or (eps.size > 1 and not np.all(np.diff(eps) > 0.0)):
        raise ValueError("grid must be strictly increasing and positive")
    pts = as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("entropy_integral requires a nonempty point set")
    dist = metric_matrix(spec, pts, covalue)
    radii = _cover_radii(dist, _lexicographic_start(pts), float(eps[0]))
    # radii are nonincreasing, so -radii is sorted for searchsorted
    counts = (np.searchsorted(-radii, -eps) + 1).astype(float)
    ones = np.flatnonzero(counts == 1.0)
    stop = int(ones[0]) if ones.size else eps.size - 1
    if stop == 0:
        return 0.0
    return float(_trapezoid(np.log(counts[: stop + 1]), eps[: stop + 1]))
