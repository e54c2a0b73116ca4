"""Stochastic estimation: conditional models, convolution measures, UII checks.

The stochastic estimator attaches residual noise to the point estimate:
given data y it returns the residual measure translated by est(y), which is
supported on the fiber {v : G v = y}.  For Gaussian models this reproduces
the exact conditional law (Schur complement mean and covariance).  For a
general measure the construction disintegrates its *convolution measure*
instead, and agreement with the original measure characterizes the
"uncorrelated implies independent" class; a four-atom discrete measure
provides an exact counterexample, enumerated here without Monte Carlo.

Every function here takes the estimator alone: it carries the model it was
built from.  The sampler, ``convolution_sample`` and both Monte Carlo
audits share one lift est(G v) and one residual map v -> v - est(G v)
applied to prior draws (so the audits check the sampler conditioning
ships); the convolution measure is drawn by one map, ``_convolution``.
Exact enumeration, the total-variation distance and ``verify uii``'s
forbidden-atom indicator share one grouping of atoms, ``_atoms``: points
rounded to 12 decimals and compared by ``kernels._first_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _first_rows
from .linalg import NumericalError, as_int, as_matrix, as_vector, symmetrize
from .model import (
    FiniteModel,
    _derived_model,
    OlsEstimator,
    ols_build,
    ols_estimate,
    sample,
)

_ATOM_DECIMALS = 12
_MAX_ENUMERATED_ATOMS = 10_000


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure: atom probabilities and points."""

    probs: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        p = as_vector(self.probs, "probs")
        x = as_matrix(self.points, "points")
        if p.size != x.shape[0]:
            raise ValueError("probs and points must have equal length")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "points", x)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.probs @ self.points

    def cov(self) -> np.ndarray:
        centered = self.points - self.mean()[None, :]
        return symmetrize(centered.T @ (centered * self.probs[:, None]))

    def expectation(self, s) -> float:
        return float(self.probs @ s(self.points))


def _atoms(points) -> tuple[np.ndarray, np.ndarray]:
    """First row of each atom (rows equal at 12 decimals), in order of first
    appearance, and each row's atom's position in that list."""
    return np.unique(_first_rows(np.round(points, _ATOM_DECIMALS)), return_inverse=True)


def _merge_atoms(probs, points) -> DiscreteMeasure:
    """Atoms in lexicographic order, each with its rows' masses added in order."""
    first, inverse = _atoms(points)
    atoms = np.round(points[first], _ATOM_DECIMALS)
    order = np.lexsort(atoms.T[::-1])
    return DiscreteMeasure(np.bincount(inverse, probs)[order], atoms[order])


@dataclass(frozen=True, eq=False)
class ConditionalModel:
    """Conditional law at one data value: OLS mean and residual covariance.

    The sampler draws from the prior ``estimator.model`` and maps the draws
    onto the fiber.
    """

    mean: np.ndarray
    residual_cov: np.ndarray
    estimator: OlsEstimator

    def __post_init__(self) -> None:
        obs = self.estimator.obs
        fiber = float(np.linalg.norm(obs @ self.residual_cov @ obs.T))
        if fiber > _identity_bound(self.estimator.model):
            raise NumericalError(
                f"residual covariance leaks off the fiber (|G RK G^T| = {fiber:.3e})"
            )


def _identity_bound(model: FiniteModel) -> float:
    """1e-8 max|K|: the rounding allowed in an identity of R K, at the prior's
    scale (that of ``check_psd``'s floor), so it does not depend on units."""
    return 1e-8 * float(np.abs(model.cov).max(initial=0.0))


def residual_model(est: OlsEstimator) -> FiniteModel:
    """Law of v - est(G v) under the estimator's model: centered, R K R^T.

    Verifies the lifted-projection identities R K R^T = R K = K R^T at
    1e-8 max|K| before returning; these hold exactly for the least-squares
    estimator, so a failure is rounding (NumericalError).
    """
    model = est.model
    rk = est.resid @ model.cov
    rkr = rk @ est.resid.T
    bound = _identity_bound(model)
    asym, idem = float(np.abs(rk - rk.T).max()), float(np.abs(rkr - rk).max())
    if max(asym, idem) > bound:
        raise NumericalError(f"residual identities fail: |R K - K R^T| = {asym:.3e}, "
                             f"|R K R^T - R K| = {idem:.3e}, bound {bound:.3e}")
    mean = model.mean - ols_estimate(est, est.data_mean)
    return _derived_model(mean, rkr, model.tol, "R K R^T")


def conditional_gaussian(model: FiniteModel, obs, y) -> ConditionalModel:
    """Gaussian conditional law at data y: mean est(y), covariance R K."""
    est = ols_build(model, obs)
    mean = ols_estimate(est, y)
    rcov = symmetrize(est.resid @ model.cov)
    return ConditionalModel(mean=mean, residual_cov=rcov, estimator=est)


def _lift(est: OlsEstimator, v: np.ndarray) -> np.ndarray:
    """Row-wise est(G v) through the map the estimator was built from."""
    return est.model.mean[None, :] + (v @ est.obs.T - est.data_mean[None, :]) @ est.gain.T


def _residual_noise(est: OlsEstimator, v: np.ndarray) -> np.ndarray:
    """Row-wise residual v - est(G v) = R (v - m) of prior draws v.

    R = I - B G is a projection, so the second pass is a no-op in exact
    arithmetic; it pins the noise to the fiber {G c = 0} at rounding level.
    One pass leaves a fiber error up to several times the posterior mean's
    own, and costs the conditioned draws about half a digit of accuracy.
    """
    c = v - est.model.mean[None, :]
    for _ in range(2):
        c = c - (c @ est.obs.T) @ est.gain.T
    return c


def stochastic_ols_sample(cond: ConditionalModel, seed: int,
                          n_samples: int) -> np.ndarray:
    """Seeded draws est(y) + (v - est(G v)) with v drawn from the prior.

    Every row lies on the fiber {v : G v = y} and the rows follow the
    conditional law N(est(y), R K) without factoring R K (Matheron's rule).
    """
    v = sample(cond.estimator.model, seed, n_samples)
    return cond.mean[None, :] + _residual_noise(cond.estimator, v)


def _convolution(est: OlsEstimator, v: np.ndarray) -> np.ndarray:
    """Convolution draws est(G v1) + (v2 - est(G v2)) from prior draws v.

    v1 and v2 are the first and second halves of the rows of v; v2 goes
    through the sampler's residual map.
    """
    v1, v2 = np.split(v, 2)
    return _lift(est, v1) + _residual_noise(est, v2)


def convolution_sample(est: OlsEstimator, seed: int, n_samples: int) -> np.ndarray:
    """Draws from the convolution measure of the estimator's model.

    v1 and v2 are independent model draws taken from a single seeded
    stream of 2 n_samples rows, so results are reproducible for a given
    seed.
    """
    return _convolution(est, sample(est.model, seed, 2 * as_int(n_samples, "n_samples", 0)))


def default_test_functions(n: int, seed: int = 0, n_random: int = 5):
    """Bounded-evaluable battery: constant, coordinates, pairwise products,
    plus seeded random tanh(w . v + b) functions.

    Each entry is (name, callable) with the callable vectorized over rows.
    ``n``, ``seed`` and ``n_random`` are integers >= 0 (``as_int``).
    """
    n, n_random = as_int(n, "n", 0), as_int(n_random, "n_random", 0)
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    funcs: list[tuple[str, object]] = [("const", lambda v: np.ones(v.shape[0]))]
    for i in range(n):
        funcs.append((f"coord_{i}", lambda v, i=i: v[:, i]))
    for i in range(n):
        for j in range(i, n):
            funcs.append((f"prod_{i}_{j}", lambda v, i=i, j=j: v[:, i] * v[:, j]))
    for k in range(n_random):
        w = rng.standard_normal(n)
        b = rng.standard_normal()
        funcs.append((f"tanh_{k}", lambda v, w=w, b=b: np.tanh(v @ w + b)))
    return funcs


@dataclass(frozen=True)
class DisintegrationRow:
    name: str
    lhs: float
    rhs: float
    difference: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class DisintegrationReport:
    rows: list[DisintegrationRow]
    n_samples: int
    exact: bool

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @classmethod
    def paired_monte_carlo(cls, test_functions, direct: np.ndarray,
                           conv: np.ndarray) -> "DisintegrationReport":
        """Compare E[s] over paired draws of both sides at 4 standard errors."""
        n = direct.shape[0]
        rows = []
        for name, s in test_functions:
            lhs = np.asarray(s(direct), dtype=float)
            rhs = np.asarray(s(conv), dtype=float)
            d = lhs - rhs
            mean_d = float(d.mean())
            bound = 4.0 * float(d.std(ddof=1) / np.sqrt(n)) + 1e-12
            rows.append(DisintegrationRow(
                name=name,
                lhs=float(lhs.mean()),
                rhs=float(rhs.mean()),
                difference=mean_d,
                bound=bound,
                passed=abs(mean_d) <= bound,
            ))
        return cls(rows=rows, n_samples=n, exact=False)


def disintegration_check(measure, obs, test_functions=None, seed: int = 0,
                         n_samples: int = 100_000) -> DisintegrationReport:
    """Verify the disintegration equation E_P[s] = E_PY[ E_{P|Y=y}[s] ].

    Gaussian models are checked by paired Monte Carlo at 4 combined
    standard errors: the right-hand side is realized by drawing data from
    the pushforward and one conditional draw per data value, which is
    exactly a draw from the convolution measure.  Discrete measures are
    checked by exact enumeration (difference bound 1e-12) while the
    convolution stays within the 10^4-atom cap, and by the same Monte
    Carlo comparison beyond it, on atoms drawn by probability; exact
    failures witness non-UII dependence structure.  Both Monte Carlo
    audits take 3 n_samples draws: the first third is the direct side,
    the rest go through ``_convolution``.  They need n_samples >= 2 and a
    seed that is an integer >= 0 (else ValueError); the exact path
    ignores both.
    """
    if isinstance(measure, DiscreteMeasure) and (
            measure.probs.size ** 2 <= _MAX_ENUMERATED_ATOMS):
        return _disintegration_check_discrete(measure, obs, test_functions)
    n = as_int(n_samples, "n_samples", 0)
    if n < 2:  # the Monte Carlo bound takes a sample standard deviation
        raise ValueError(f"n_samples must be at least 2 for a Monte Carlo check, got {n}")
    seed = as_int(seed, "seed", 0)
    if isinstance(measure, DiscreteMeasure):
        est = discrete_ols(measure, obs)
        rng = np.random.default_rng(seed)
        draws = measure.points[rng.choice(measure.probs.size, 3 * n, p=measure.probs)]
        n_random = 0
    elif isinstance(measure, FiniteModel):
        est = ols_build(measure, obs)
        draws = sample(measure, seed, 3 * n)
        n_random = 5
    else:
        raise TypeError("measure must be a FiniteModel or DiscreteMeasure")
    if test_functions is None:
        test_functions = default_test_functions(measure.n, seed=seed, n_random=n_random)
    return DisintegrationReport.paired_monte_carlo(
        test_functions, draws[:n], _convolution(est, draws[n:])
    )


def discrete_ols(measure: DiscreteMeasure, obs) -> OlsEstimator:
    """Least-squares estimator for the mean and covariance of a discrete law."""
    return ols_build(FiniteModel(measure.mean(), measure.cov()), obs)


def discrete_convolution(measure: DiscreteMeasure, obs) -> DiscreteMeasure:
    """Exact OLS convolution measure of a discrete law, atom by atom."""
    est = discrete_ols(measure, obs)
    k = measure.probs.size
    if k * k > _MAX_ENUMERATED_ATOMS:
        raise ValueError(
            f"enumeration needs {k * k} atoms, above the {_MAX_ENUMERATED_ATOMS} cap"
        )
    lifted = _lift(est, measure.points)
    residual = measure.points - lifted
    probs = np.outer(measure.probs, measure.probs).ravel()
    points = (lifted[:, None, :] + residual[None, :, :]).reshape(k * k, measure.n)
    return _merge_atoms(probs, points)


def total_variation(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Exact total-variation distance; repeated atoms add up before comparing."""
    if a.n != b.n:
        raise ValueError(f"index dimension mismatch: {a.n} vs {b.n}")
    first, inverse = _atoms(np.vstack([a.points, b.points]))
    k = a.probs.size
    diff = (np.bincount(inverse[:k], a.probs, first.size)
            - np.bincount(inverse[k:], b.probs, first.size))
    return 0.5 * sum(np.abs(diff).tolist())


def _disintegration_check_discrete(measure: DiscreteMeasure, obs,
                                   test_functions=None) -> DisintegrationReport:
    conv = discrete_convolution(measure, obs)
    if test_functions is None:
        test_functions = default_test_functions(measure.n, n_random=0)
    rows = []
    for name, s in test_functions:
        lhs = measure.expectation(s)
        rhs = conv.expectation(s)
        rows.append(DisintegrationRow(
            name=name,
            lhs=lhs,
            rhs=rhs,
            difference=lhs - rhs,
            bound=1e-12,
            passed=abs(lhs - rhs) <= 1e-12,
        ))
    return DisintegrationReport(rows=rows, n_samples=0, exact=True)


def uii_counterexample():
    """Uncorrelated-but-dependent four-atom measure and its exact audit.

    The uniform measure on {(1,0), (-1,0), (0,1), (0,-1)} observed through
    the first coordinate has uncorrelated coordinates, yet conditioning on
    the observation changes the law: the OLS convolution measure puts mass
    exactly 1/16 on the forbidden point (1,1).  Returns the measure, the
    observation map, and a report with the enumerated evidence.
    """
    measure = DiscreteMeasure(
        np.full(4, 0.25),
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
    )
    obs = np.array([[1.0, 0.0]])
    conv = discrete_convolution(measure, obs)
    forbidden = np.array([1.0, 1.0])

    def mass_at(m: DiscreteMeasure, point: np.ndarray) -> float:
        _, inverse = _atoms(np.vstack([m.points, point]))
        return float(np.bincount(inverse, np.append(m.probs, 0.0))[inverse[-1]])

    coord_cov = float(measure.cov()[0, 1])
    report = {
        "coordinate_covariance": coord_cov,
        "forbidden_point": forbidden.tolist(),
        "forbidden_mass_model": mass_at(measure, forbidden),
        "forbidden_mass_convolution": mass_at(conv, forbidden),
        "tv_distance": total_variation(measure, conv),
        "convolution_atom_count": int(conv.probs.size),
    }
    return measure, obs, report
