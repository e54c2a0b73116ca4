"""Dense linear-algebra primitives shared by every other module.

All routines are pure functions of their inputs and are deterministic:
pseudoinverses and spectral norms go through SVD, PSD checks through a
shifted Cholesky factorization, and PSD factorization through a symmetric
eigendecomposition with a fixed ordering and sign convention, so repeated
calls produce bit-identical output.
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


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs used throughout the package.

    rcond    : relative singular-value cutoff for rank decisions.
    abs_psd  : eigenvalue slack: times max(1, max|K|) for PSD checks, times
               max|K| for clipping in ``psd_factor``.
    """

    rcond: float = 1e-12
    abs_psd: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.rcond < 1.0):
            raise ValueError(f"rcond must lie in (0, 1), got {self.rcond}")
        if not (0.0 < self.abs_psd < 1.0):
            raise ValueError(f"abs_psd must lie in (0, 1), got {self.abs_psd}")

    def support_threshold(self, norm: float) -> float:
        """Residual allowed off an affine support for a vector of this norm."""
        return float(np.sqrt(self.rcond)) * norm + 1e-15 * (1.0 + norm)


DEFAULT_TOL = Tolerance()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-d float array."""
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-d float array."""
    out = np.asarray(v, dtype=float)
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


class PsdSpectrum(NamedTuple):
    """A matrix that passed ``check_psd``, with its spectrum when computed."""

    matrix: np.ndarray          # the input, symmetrized if it was not exactly
    values: np.ndarray | None   # ascending eigenvalues, when computed
    vectors: np.ndarray | None  # matching eigenvectors, when asked for
    floor: float                # abs_psd * max(1, scale)
    scale: float                # max|k|, 0 for an empty k


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


def check_psd(k: np.ndarray, tol: Tolerance = DEFAULT_TOL, name: str = "matrix",
              vectors: bool = False) -> PsdSpectrum:
    """The one PSD gate: ``k`` is square, symmetric and positive semidefinite.

    ``k`` must already be a finite 2-d array (see ``as_matrix``).  Both the
    asymmetry and the most negative eigenvalue are held to the same floor,
    ``abs_psd * max(1, max|k|)``.  An exactly symmetric ``k`` is returned as
    it is; any other is symmetrized once.

    The verdict is one Cholesky factorization of ``K + floor*I``, which
    exists exactly when lambda_min(K) > -floor, up to rounding (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10).  Eigenvalues
    are computed in two cases only: when that factorization fails, so that
    ``eigvalsh`` decides and a rejection names lambda_min, and when the
    caller asks for the eigenpairs (``vectors``), whose eigenvalues then
    decide.  Raises NotPsdError, naming ``name``, on failure.
    """
    n, m = k.shape
    if n != m:
        raise NotPsdError(f"{name} must be square, got {n}x{m}")
    scale = max(float(k.max()), -float(k.min())) if k.size else 0.0
    floor = tol.abs_psd * max(1.0, scale)
    sym = k
    if not np.array_equal(k, k.T):
        if float(np.abs(k - k.T).max()) > floor:
            raise NotPsdError(f"{name} is asymmetric beyond tolerance")
        sym = symmetrize(k)
    w = v = None
    if vectors:
        w, v = np.linalg.eigh(sym)
    elif not _cholesky_certifies(sym, floor):
        w = np.linalg.eigvalsh(sym)
    if w is not None and w.size and float(w[0]) < -floor:
        raise NotPsdError(f"{name} is not PSD: eigenvalue {w[0]:.3e} below -abs_psd")
    return PsdSpectrum(sym, w, v, floor, scale)


def psd_factor(k, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Square factor F with F F^T ~= K for PSD input.

    The columns are eigenvectors in descending eigenvalue order, each with
    its first significantly nonzero entry positive, so the factor is
    deterministic.  Eigenvalues below ``abs_psd * max|K|`` (including small
    negatives) are set to exactly zero, which keeps the factor supported
    on the numerically trustworthy part of the range; the reconstruction
    error is bounded by ``n * abs_psd * max|K|`` in Frobenius norm.  The
    cut scales with K, so a covariance of any magnitude keeps its range.
    Raises NotPsdError when ``check_psd`` rejects ``k``.
    """
    gate = check_psd(as_matrix(k, "psd matrix"), tol, vectors=True)
    order = np.argsort(gate.values)[::-1]
    w = gate.values[order]
    cut = tol.abs_psd * gate.scale
    return _fix_eigvec_signs(gate.vectors[:, order]) * np.sqrt(np.where(w < cut, 0.0, w))
