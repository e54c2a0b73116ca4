"""Dense linear-algebra primitives shared by every other module.

All routines are pure functions of their inputs and are deterministic:
pseudoinverses and spectral norms go through SVD, and PSD factorization
through a symmetric eigendecomposition with a fixed ordering and sign
convention, so repeated calls produce bit-identical output.

A PSD gate (``PsdGate``) holds a matrix to one floor, ``abs_psd * max|K|``,
and comes from one of two certificates.  ``check_psd`` decides by a
Cholesky factorization of ``K + floor*I``; it gates every covariance given
as a matrix, every coregionalization matrix, every ``psd_factor`` matrix
and every design prior or SVM Gram the other certificate does not cover.
``kernels._gram_gate`` decides with no factorization, by theorem and a
rounding bound, for the closed-form stationary Grams, and its theorem
also answers the SVM's question of strict definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NotPsdError(ValueError):
    """Raised when a matrix fails a symmetry or positive-semidefinite check."""


class NumericalError(RuntimeError):
    """Valid input on which a computation cannot meet its numerical gates.

    Unlike ``ValueError`` (bad input), this marks ill-conditioning that
    rounding error pushed past a tolerance the result must keep.
    """


_FLOAT_MAX = float(np.finfo(float).max)


def as_number(value, name: str) -> float:
    """``value`` as a finite float: a Python or numpy number, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    # a Python int compares exactly, so one beyond the float range is refused
    if not abs(value if isinstance(value, int) else float(value)) <= _FLOAT_MAX:
        raise ValueError(f"{name}: must be finite, got {value!r}")
    return float(value)


def as_positive(value, name: str) -> float:
    """``value`` as a float > 0 (``as_number``)."""
    value = as_number(value, name)
    if value <= 0.0:
        raise ValueError(f"{name}: must be > 0")
    return value


def as_bool(value, name: str) -> bool:
    """``value`` as a bool: True or False, a Python or numpy bool only."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name}: must be True or False, got {value!r}")
    return bool(value)


def as_int(value, name: str, minimum: int) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name}: must be an integer >= {minimum}")
    return int(value)


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs used throughout the package.

    rcond    : relative singular-value cutoff for rank decisions.
    abs_psd  : PSD slack: ``floor = abs_psd * max|K|`` bounds the asymmetry
               and lambda_min in ``check_psd`` and is ``psd_factor``'s cut.

    Each passes ``as_number``, lies strictly between 0 and 1 and is stored
    as a float, for library callers and the CLI's ``tolerances`` block alike;
    every ValueError begins with the field's name.
    """

    rcond: float = 1e-12
    abs_psd: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rcond", "abs_psd"):
            value = as_number(getattr(self, name), name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name}: must lie strictly between 0 and 1")
            object.__setattr__(self, name, value)

    def support_threshold(self, norm: float) -> float:
        """Residual allowed off an affine support for a vector of this norm,
        relative to it, so ``c * y`` gets the verdict of ``y`` for every c > 0."""
        return (float(np.sqrt(self.rcond)) + 1e-15) * norm


DEFAULT_TOL = Tolerance()


def _numbers(a, name: str) -> np.ndarray:
    """``a`` as a float array, refusing the entries ``as_number`` refuses by
    type: a bool, string or object (non-number) array.

    An ndarray is judged by its dtype alone.  A Python sequence whose numpy
    dtype is numeric or object is read entry by entry through ``as_number``,
    because numpy folds a bool among numbers into them and holds an int
    beyond int64 as an object.  A ragged sequence is refused."""
    try:
        out = np.asarray(a)
    except ValueError:  # numpy's refusal of a ragged sequence names nothing
        raise ValueError(f"{name}: expected an array, got a ragged sequence") from None
    kind = out.dtype.kind
    if not isinstance(a, np.ndarray) and kind in "iufO":
        entries = np.asarray(a, dtype=object)
        return np.array([as_number(v, name) for v in entries.flat],
                        dtype=float).reshape(entries.shape)
    if kind not in "iuf":
        raise ValueError(f"{name}: expected numbers, got dtype {out.dtype}")
    return out.astype(float, copy=False)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-d float array (``_numbers``)."""
    out = _numbers(a, name)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-d float array (``_numbers``)."""
    out = _numbers(v, name)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _svd_cutoff(s: np.ndarray, shape: tuple[int, int], tol: Tolerance) -> float:
    if s.size == 0:
        return 0.0
    return tol.rcond * float(s[0]) * max(shape)


def pinv(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rcond * sigma_max * max(rows, cols)`` are
    treated as exact zeros, so exactly rank-deficient input stays rank
    deficient instead of blowing up.
    """
    a = as_matrix(a)
    if a.size == 0:
        return a.T.copy()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = _svd_cutoff(s, a.shape, tol)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return (vt.T * inv) @ u.T


def spectral_norm(a) -> float:
    """Largest singular value; 0.0 for empty or zero input."""
    a = as_matrix(a)
    if a.size == 0 or not np.any(a):
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def matrix_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    a = as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, a.shape, tol)))


def range_projector(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric idempotent projector onto the column space of ``a``."""
    a = as_matrix(a)
    m = a.shape[0]
    if a.size == 0 or not np.any(a):
        return np.zeros((m, m))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > _svd_cutoff(s, a.shape, tol)
    ur = u[:, keep]
    return symmetrize(ur @ ur.T)


def _fix_eigvec_signs(vecs: np.ndarray) -> np.ndarray:
    """Make each column's first significantly nonzero entry positive."""
    if vecs.size == 0:
        return vecs.copy()
    mag = np.abs(vecs)
    significant = mag > 1e-12 * np.maximum(1.0, mag.max(axis=0))
    first = significant.argmax(axis=0)  # 0 for a column with no such entry
    lead = vecs[first, np.arange(vecs.shape[1])]
    flip = significant.any(axis=0) & (lead < 0.0)
    return np.where(flip, -vecs, vecs)


class PsdGate(NamedTuple):
    """A matrix certified PSD, by ``check_psd`` or ``kernels._gram_gate``,
    with the floor it was held to."""

    matrix: np.ndarray  # the input, symmetrized if it was not exactly
    floor: float        # abs_psd * max|k|, 0 for an empty or zero k


def _psd_floor(k: np.ndarray, tol: Tolerance) -> float:
    return tol.abs_psd * max(float(k.max()), -float(k.min())) if k.size else 0.0


def _cholesky_certifies(sym: np.ndarray, shift: float) -> bool:
    """Whether ``sym + shift * I`` has a Cholesky factor, i.e. lambda_min > -shift:
    at ``+floor`` the PSD gate, at ``-floor`` a test of strict definiteness."""
    shifted = sym.copy()
    shifted.ravel()[:: shifted.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def check_psd(k: np.ndarray, tol: Tolerance = DEFAULT_TOL,
              name: str = "matrix") -> PsdGate:
    """The one PSD gate: ``k`` is square, symmetric and positive semidefinite.

    ``k`` must already be a finite 2-d array (see ``as_matrix``).  The
    asymmetry and the most negative eigenvalue are held to one floor,
    ``abs_psd * max|k|``, so ``c * k`` gets the verdict of ``k`` for every
    c > 0.  An exactly symmetric ``k`` is returned as it is; any other is
    symmetrized once.  The verdict is one Cholesky factorization of
    ``K + floor*I``, which exists exactly when lambda_min(K) > -floor, up
    to rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 10); only when it fails does ``eigvalsh`` run, to settle the
    rounding and name lambda_min.  Raises NotPsdError, naming ``name``.
    """
    n, m = k.shape
    if n != m:
        raise NotPsdError(f"{name} must be square, got {n}x{m}")
    floor = _psd_floor(k, tol)
    sym = k
    if not np.array_equal(k, k.T):
        if float(np.abs(k - k.T).max()) > floor:
            raise NotPsdError(f"{name} is asymmetric beyond tolerance")
        sym = symmetrize(k)
    if not _cholesky_certifies(sym, floor):
        w = float(np.linalg.eigvalsh(sym)[0])
        if w < -floor:
            raise NotPsdError(f"{name} is not PSD: eigenvalue {w:.3e} < -abs_psd*max|K|")
    return PsdGate(sym, floor)


def psd_factor(k, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Square factor F with F F^T ~= K: ``check_psd`` plus an eigenbasis.
    ``k`` may instead be a ``PsdGate`` already certified, taken as it is.

    Columns are eigenvectors of the gated matrix by descending eigenvalue,
    each with its first significantly nonzero entry positive, so F is
    deterministic.  Eigenvalues below the gate's floor (small negatives
    included) become exactly zero, so F keeps the numerically trustworthy
    part of the range, with Frobenius reconstruction error at most
    ``n * floor``; the cut scales with K, as the floor does.  Raises the
    gate's NotPsdError.
    """
    gate = k if isinstance(k, PsdGate) else check_psd(as_matrix(k, "psd matrix"), tol)
    w, v = np.linalg.eigh(gate.matrix)
    order = np.argsort(w)[::-1]
    w = w[order]
    return _fix_eigvec_signs(v[:, order]) * np.sqrt(np.where(w < gate.floor, 0.0, w))
