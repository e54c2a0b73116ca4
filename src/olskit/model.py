"""Finite covariance models and the pseudoinverse least-squares estimator.

A model is a mean vector m and a PSD covariance K on R^n; an observation
map is a dense p x n matrix G, passed as a plain 2-d array.  The
least-squares estimator built from them is the affine map

    y  ->  m + B (y - G m),      B = K G^T (G K G^T)^+,

defined on the affine support of the pushforward (the range of S = G K G^T
shifted by G m).  Its lifted operator L = B G and residual R = I - L are
projections, orthogonal in the covariance inner product, which is what the
risk identities and the Gauss-Markov comparisons in this module exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NotPsdError,
    NumericalError,
    PsdGate,
    Tolerance,
    _svd_cutoff,
    as_int,
    as_matrix,
    as_vector,
    check_psd,
    pinv,
    psd_factor,
    range_projector,
    spectral_norm,
    symmetrize,
)


class SupportViolationError(ValueError):
    """Data lies outside the closed affine support.

    Carries the offending residual norm in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class ContractError(ValueError):
    """An estimator matrix fails its right-inverse contract."""


@dataclass(frozen=True, eq=False)
class FiniteModel:
    """Mean vector plus PSD covariance matrix on R^n.

    ``cov`` is given as a matrix, which ``check_psd``'s Cholesky certifies
    (and symmetrizes if needed), or as a ``PsdGate`` that is already
    certified; ``model_from_design`` hands over the gate of a closed-form
    kernel Gram, certified by theorem and a rounding bound.  Either way the
    shape and finiteness checks run, and ``cov`` holds the gated matrix.
    """

    mean: np.ndarray
    cov: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        m = as_vector(self.mean, "mean")
        gate = self.cov if isinstance(self.cov, PsdGate) else None
        k = as_matrix(self.cov if gate is None else gate.matrix, "cov")
        if k.shape != (m.size, m.size):
            raise ValueError(
                f"cov must be {m.size}x{m.size} to match the mean, got {k.shape}"
            )
        if gate is None:
            gate = check_psd(k, self.tol, "cov")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", gate.matrix)

    @property
    def n(self) -> int:
        return self.mean.size


def _obs_matrix(obs, n: int) -> np.ndarray:
    g = as_matrix(obs, "observation map")
    if g.shape[1] != n:
        raise ValueError(f"observation map has {g.shape[1]} columns, model has n={n}")
    return g


@dataclass(frozen=True, eq=False)
class OlsEstimator:
    """Frozen matrices of the least-squares estimator built from one model.

    model   : the model it was built from; its mean, covariance and
              tolerance are read from here, never passed alongside.
    gain    : n x p matrix B = K G^T S^+.
    p_range : projector onto range(S), the support directions in data space.
    lift    : L = B G, a projection onto the lifted subspace that is
              orthogonal in the covariance inner product.
    resid   : R = I - L.
    """

    model: FiniteModel
    gain: np.ndarray
    p_range: np.ndarray
    lift: np.ndarray
    resid: np.ndarray
    data_mean: np.ndarray
    obs: np.ndarray

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def p(self) -> int:
        return self.data_mean.size


def _derived_model(mean, cov, tol: Tolerance, name: str) -> FiniteModel:
    """Model of a covariance PSD by construction from a gated K (G K G^T, R K R^T):
    its rounding scales with K, so a gate rejection is a NumericalError."""
    try:
        return FiniteModel(mean, symmetrize(cov), tol=tol)
    except NotPsdError as err:
        raise NumericalError(f"{name} is PSD in exact arithmetic, but {err}") from err


def pushforward(model: FiniteModel, obs) -> FiniteModel:
    """Model of the observed data: mean G m, covariance G K G^T."""
    g = _obs_matrix(obs, model.n)
    return _derived_model(g @ model.mean, g @ model.cov @ g.T, model.tol, "G K G^T")


def _selected_columns(g: np.ndarray) -> np.ndarray | None:
    """Columns picked by a selection map, or None for any other matrix.

    A selection map has exactly one entry per row, a 1.0, in distinct
    columns; G x is then x[cols].
    """
    p = g.shape[0]
    # p nonzero entries in p distinct columns, one of them 1.0 in each row
    if p == 0 or np.count_nonzero(g) != p or np.count_nonzero(g.any(axis=0)) != p:
        return None
    cols = g.argmax(axis=1)
    return cols if np.all(g[np.arange(p), cols] == 1.0) else None


def ols_build(model: FiniteModel, obs) -> OlsEstimator:
    """Assemble the least-squares estimator matrices.

    A selection map (one 1.0 per row, in distinct columns, as
    ``restriction_map`` builds) is applied by index: K G^T is the column
    gather ``K.take(cols, axis=1)``, S its ``cols`` rows, G m is
    ``m[cols]`` and L = B G scatters B into the ``cols`` columns.  Those
    products only copy entries, so every matrix is bitwise the one the
    dense products give; any other G goes through the dense products.
    """
    g = _obs_matrix(obs, model.n)
    cols = _selected_columns(g)
    if cols is None:
        kg = model.cov @ g.T
        s = symmetrize(g @ model.cov @ g.T)
        data_mean = g @ model.mean
    else:
        # a C-ordered gather: K[:, cols] is Fortran-ordered, and the gain
        # product would round differently on it
        kg = model.cov.take(cols, axis=1)
        s = kg[cols]  # exactly symmetric, as K is
        data_mean = model.mean[cols]
    gain = kg @ pinv(s, model.tol)
    p_range = range_projector(s, model.tol)
    if cols is None:
        lift = gain @ g
    else:
        lift = np.zeros((model.n, model.n))
        lift[:, cols] = gain
    resid = np.eye(model.n)
    resid -= lift
    return OlsEstimator(
        model=model,
        gain=gain,
        p_range=p_range,
        lift=lift,
        resid=resid,
        data_mean=data_mean,
        obs=g,
    )


def ols_estimate(est: OlsEstimator, y, project: bool = False) -> np.ndarray:
    """Estimate the parameter vector from data on the affine support.

    Off-support data raises SupportViolationError unless ``project=True``,
    in which case the data is first projected onto the support (the
    continuous extension choice).  ``project`` must be a bool.
    """
    if not isinstance(project, (bool, np.bool_)):
        raise ValueError(f"project: must be True or False, got {project!r}")
    y = as_vector(y, "data")
    if y.size != est.p:
        raise ValueError(f"data has {y.size} entries, the observation map has {est.p} rows")
    dy = y - est.data_mean
    norm_dy = float(np.linalg.norm(dy))
    resid = float(np.linalg.norm(dy - est.p_range @ dy))
    threshold = est.model.tol.support_threshold(norm_dy)
    if resid > threshold:
        if not project:
            raise SupportViolationError(
                f"data lies off the affine support (residual {resid:.3e}, "
                f"threshold {threshold:.3e}); pass project=True to project",
                residual=resid,
            )
        dy = est.p_range @ dy
    return est.model.mean + est.gain @ dy


def sample(model: FiniteModel, seed: int, n_samples: int) -> np.ndarray:
    """Draw seeded Gaussian samples, one per row.

    Samples are m + F z with F the deterministic PSD factor of K, so every
    draw lies on the affine support m + range(K).  ``seed`` and
    ``n_samples`` are integers >= 0 (``as_int``).
    """
    f = psd_factor(model.cov, model.tol)
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    z = rng.standard_normal((as_int(n_samples, "n_samples", 0), model.n))
    return model.mean[None, :] + z @ f.T


def contravariance_check(model: FiniteModel, obs1, obs2) -> float:
    """Frobenius defect of composed-vs-chained estimation.

    Builds the estimator for the composed map G2 G1 and compares it with
    the chain: estimate through G2 against the pushforward model, then
    through G1 against the original model.
    """
    g1 = _obs_matrix(obs1, model.n)
    mid = pushforward(model, g1)
    g2 = _obs_matrix(obs2, mid.n)
    est_12 = ols_build(model, g2 @ g1)
    est_1 = ols_build(model, g1)
    est_2 = ols_build(mid, g2)
    return float(np.linalg.norm(est_12.gain - est_1.gain @ est_2.gain))


@dataclass(frozen=True)
class RiskReport:
    """Risk functionals of one estimator at one functional f."""

    estvar: float
    mse: float
    bias: float
    identity_residual: float


def risk(est: OlsEstimator, gain_any, f, offset=None) -> RiskReport:
    """Estimated variance, MSE, and bias at f of a right inverse of est's map.

    ``gain_any`` is judged under the model and map ``est`` was built from;
    ContractError when G B is not the range projector of S.  The estimator
    is the affine map y -> c + B y.  With ``offset=None`` the anchor
    c = m - B G m is implied, which makes every right inverse unbiased (the
    convention under which the plain least-squares estimator has bias
    exactly zero); pass an explicit offset to evaluate a biased estimator.
    The returned ``identity_residual`` is the defect of the bias-variance
    identity

        MSE = |bias|^2 + estvar + var(f) - 2 cov(L* f, f)

    and stays at rounding level for any valid input.
    """
    model = est.model
    g = est.obs
    gain_any = as_matrix(gain_any, "estimator matrix")
    f = as_vector(f, "functional")
    gap = float(np.linalg.norm(g @ gain_any - est.p_range))
    if gap > 1e-8 * max(1.0, float(np.linalg.norm(est.p_range))):
        raise ContractError(
            f"G @ B does not equal the range projector (gap {gap:.3e}); "
            "not a right inverse on the support"
        )

    lift_any = gain_any @ g
    resid_any = np.eye(model.n) - lift_any
    if offset is None:
        resid_mean = np.zeros(model.n)
    else:
        c = as_vector(offset, "offset")
        if c.size != model.n:
            raise ValueError(f"offset has {c.size} entries, the model has {model.n}")
        resid_mean = resid_any @ model.mean - c

    k = model.cov
    estvar = float(f @ lift_any @ k @ lift_any.T @ f)
    bias = -float(f @ resid_mean)
    mse = float(f @ resid_any @ k @ resid_any.T @ f) + bias * bias
    var_f = float(f @ k @ f)
    cov_lf = float(f @ lift_any @ k @ f)
    identity = abs(mse - (bias * bias + estvar + var_f - 2.0 * cov_lf))
    return RiskReport(estvar=estvar, mse=mse, bias=bias, identity_residual=identity)


def random_right_inverse(est: OlsEstimator, seed: int) -> np.ndarray:
    """Seeded oblique right inverse B + R N P with N standard normal.

    Requires S = G K G^T to be full rank, so the result satisfies
    G @ result = I exactly up to rounding.
    """
    if float(np.linalg.norm(est.p_range - np.eye(est.p))) > 1e-8 * max(1.0, est.p):
        raise ValueError("random_right_inverse requires full-rank G K G^T")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((est.n, est.p))
    return est.gain + est.resid @ noise @ est.p_range


@dataclass(frozen=True)
class GmtRow:
    """Comparison of one alternative estimator against least squares."""

    estvar: float
    mse: float
    bias: float
    identity_residual: float
    estvar_slack: float      # estvar_alt - estvar_ols; no sign for oblique alternatives
    mse_slack: float         # (mse_alt - bias^2) - mse_ols
    excess: float            # ||(L_alt - L_ols)^T f||^2 in the covariance norm
    adjoint_gap: float       # ||B_alt^T f - B_ols^T f||
    equality: bool


@dataclass(frozen=True)
class GmtReport:
    """Rows of ``gmt_compare``.  ``mse_pass`` and ``identity_pass`` are the
    Gauss-Markov gates, the one place their thresholds are written."""

    estvar_ols: float
    mse_ols: float
    rows: list[GmtRow]

    @property
    def mse_pass(self) -> bool:
        return all(r.mse_slack >= -1e-10 for r in self.rows)

    @property
    def identity_pass(self) -> bool:
        return all(r.identity_residual <= 1e-10 for r in self.rows)


def gmt_compare(model: FiniteModel, obs, f, alternatives,
                offsets=None) -> GmtReport:
    """Risk comparison of alternative right inverses against least squares.

    Every row carries the slack of the Gauss-Markov MSE inequality
    (bias-corrected MSE, nonnegative for every right inverse), the
    estimated-variance difference (which has no sign: an oblique right
    inverse can explain less variance of f than least squares), the
    bias-variance identity residual, and an equality flag that fires exactly
    when the alternative's adjoint action on f coincides with the
    least-squares one, to 1e-8 of the larger of the two, so the flag does
    not depend on the units of f.  ``excess`` is the covariance-norm defect
    ||(L_alt - L_ols)^T f||^2, the quantity the orthogonal-projection
    argument actually controls; it equals ``mse_slack`` up to rounding and
    is nonnegative for every right inverse.
    """
    f = as_vector(f, "functional")
    est = ols_build(model, obs)
    s = est.obs @ model.cov @ est.obs.T
    base = risk(est, est.gain, f)
    rows = []
    if offsets is None:
        offsets = [None] * len(alternatives)
    for gain_alt, off in zip(alternatives, offsets, strict=True):
        rep = risk(est, gain_alt, f, offset=off)
        gain_alt = as_matrix(gain_alt, "estimator matrix")
        diff = (gain_alt - est.gain).T @ f
        excess = float(diff @ s @ diff)
        adjoint_gap = float(np.linalg.norm(diff))
        scale = float(max(np.linalg.norm(est.gain.T @ f), np.linalg.norm(gain_alt.T @ f)))
        rows.append(GmtRow(
            estvar=rep.estvar,
            mse=rep.mse,
            bias=rep.bias,
            identity_residual=rep.identity_residual,
            estvar_slack=rep.estvar - base.estvar,
            mse_slack=(rep.mse - rep.bias ** 2) - base.mse,
            excess=excess,
            adjoint_gap=adjoint_gap,
            equality=adjoint_gap <= 1e-8 * scale,
        ))
    return GmtReport(estvar_ols=base.estvar, mse_ols=base.mse, rows=rows)


def operator_norm(est: OlsEstimator) -> float:
    """Operator norm of the estimator restricted to the support directions.

    Invariant under rescaling K -> c K, since the gain matrix itself is.
    """
    return spectral_norm(est.gain @ est.p_range)


def estimator_delta_norm(model_a: FiniteModel, model_b: FiniteModel, obs) -> float:
    """Operator norm of the difference of the two estimators' linear parts.

    This is the quantity that vanishes as the hyperparameters converge and
    the one that enters the end-to-end perturbation bound
    |est_b(y') - est_a(y)| <= delta * |y'| + M_a * |y' - y| for centered
    data.  Each gain is read on its support directions, B P_range, so equal
    models give exactly 0.
    """
    est_a = ols_build(model_a, obs)
    est_b = ols_build(model_b, obs)
    return spectral_norm(est_b.gain @ est_b.p_range - est_a.gain @ est_a.p_range)


def paley_wiener(model: FiniteModel, u, v) -> float:
    """Centered pairing (K^+ u) . (v - m) for u in the range of K.

    The map u -> paley_wiener(model, u, .) is an isometry from the range of
    K with the covariance norm into L^2 of the model: its variance under
    the model equals u^T K^+ u.
    """
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.size != model.n or v.size != model.n:
        raise ValueError("u and v must match the model dimension")
    # one SVD gives both the range residual and K^+ u, at pinv's cut
    w, s, vt = np.linalg.svd(model.cov)
    keep = s > _svd_cutoff(s, model.cov.shape, model.tol)
    coef = w[:, keep].T @ u
    resid = float(np.linalg.norm(u - w[:, keep] @ coef))
    threshold = model.tol.support_threshold(float(np.linalg.norm(u)))
    if resid > threshold:
        raise SupportViolationError(
            f"u lies outside range(K) (residual {resid:.3e})", residual=resid
        )
    return float((vt[keep].T @ (coef / s[keep])) @ (v - model.mean))
