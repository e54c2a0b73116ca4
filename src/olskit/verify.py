"""Built-in verification fixtures behind the ``verify`` CLI subcommands.

Each routine runs a deterministic seeded experiment against the library and
returns a JSON-serializable report dict with a top-level ``passed`` flag.
These are operational smoke checks shipped with the package; the full
oracle-backed evidence lives in the test suite.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import disintegration as dis
from .arrays import ArrayDesign, krige, model_from_design, restriction_map
from .kernels import KernelSpec, covering_number, entropy_integral, metric_matrix
from .model import (
    FiniteModel,
    estimator_delta_norm,
    gmt_compare,
    ols_build,
    operator_norm,
    random_right_inverse,
)


def _random_model(rng: np.random.Generator, n: int) -> FiniteModel:
    a = rng.standard_normal((n, n + 2))
    k = a @ a.T / n
    return FiniteModel(rng.standard_normal(n), k)


def verify_gmt(seed: int = 0, n_models: int = 20, n_alternatives: int = 100) -> dict:
    """Gauss-Markov comparison over seeded models and oblique right inverses.

    The pass flag gates on the provable content: the bias-corrected MSE
    inequality and the bias-variance identity (each report's ``mse_pass``
    and ``identity_pass``), and the equality condition.
    The literal estimated-variance inequality of the source material is
    reported for transparency but does not hold for oblique right inverses
    (a two-dimensional counterexample drives it below the OLS value), so it
    does not gate.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_models):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, n))
        model = _random_model(rng, n)
        g = rng.standard_normal((p, n))
        est = ols_build(model, g)
        f = rng.standard_normal(n)
        alts = [est.gain] + [
            random_right_inverse(est, int(rng.integers(0, 2**31)))
            for _ in range(n_alternatives)
        ]
        reports.append(gmt_compare(model, g, f, alts))
    rows = [r for report in reports for r in report.rows]
    # least squares (row 0) must meet the equality condition, no alternative may
    equality_errors = sum((not report.rows[0].equality)
                          + any(r.equality for r in report.rows[1:]) for report in reports)
    worst_estvar_slack = min((r.estvar_slack for r in rows), default=np.inf)
    passed = equality_errors == 0 and all(
        report.mse_pass and report.identity_pass for report in reports)
    return {
        "n_models": n_models,
        "n_alternatives": n_alternatives,
        "worst_mse_slack": float(min((r.mse_slack for r in rows), default=np.inf)),
        "worst_identity_residual": float(max((r.identity_residual for r in rows),
                                             default=0.0)),
        "equality_flag_errors": equality_errors,
        "worst_estvar_slack_literal": float(worst_estvar_slack),
        "estvar_inequality_holds": bool(worst_estvar_slack >= -1e-10),
        "passed": bool(passed),
    }


def verify_disintegration(seed: int = 0, n_samples: int = 100_000) -> dict:
    """Paired Monte Carlo check of the disintegration equation, Gaussian case."""
    rng = np.random.default_rng(seed)
    model = _random_model(rng, 4)
    g = rng.standard_normal((2, 4))
    report = dis.disintegration_check(model, g, seed=seed + 1, n_samples=n_samples)
    worst = max(abs(r.difference) / r.bound for r in report.rows)
    return {
        "n_samples": report.n_samples,
        "n_test_functions": len(report.rows),
        "worst_normalized_difference": float(worst),
        "failures": [r.name for r in report.rows if not r.passed],
        "passed": bool(report.passed),
    }


def verify_uii(seed: int = 0) -> dict:
    """Exact enumeration of the uncorrelated-but-dependent counterexample."""
    measure, obs, audit = dis.uii_counterexample()
    forbidden = np.asarray(audit["forbidden_point"])

    def indicator(v):
        _, inverse = dis._atoms(np.vstack([v, forbidden]))
        return (inverse[:-1] == inverse[-1]).astype(float)

    check = dis.disintegration_check(measure, obs, [("forbidden_atom", indicator)])
    violation = not check.rows[0].passed
    passed = (
        audit["coordinate_covariance"] == 0.0
        and audit["forbidden_mass_model"] == 0.0
        and abs(audit["forbidden_mass_convolution"] - 1.0 / 16.0) == 0.0
        and audit["tv_distance"] >= 1.0 / 16.0
        and violation
    )
    return {
        **audit,
        "indicator_difference": float(check.rows[0].difference),
        "violation_detected": bool(violation),
        "passed": bool(passed),
    }


def minimal_cover_size(dist: np.ndarray, eps: float) -> int:
    """Exhaustive minimal number of eps-balls centered at the points."""
    n = dist.shape[0]
    for size in range(1, n + 1):
        for centers in combinations(range(n), size):
            if float(dist[list(centers)].min(axis=0).max()) <= eps:
                return size
    return n


def verify_entropy(seed: int = 0) -> dict:
    """Covering-number and integrated-entropy sanity fixtures."""
    spec = KernelSpec("se", lengthscale=0.25, variance=1.0)
    singleton = [[0.0]]
    single_ok = (
        covering_number(spec, singleton, 1e-6) == 1
        and entropy_integral(spec, singleton, [0.5, 1.0]) == 0.0
    )

    grid10 = np.linspace(0.0, 1.0, 10)[:, None]
    dist = metric_matrix(spec, grid10)
    ratios = []
    for eps in (0.2, 0.5, 0.9, 1.2):
        greedy = covering_number(spec, grid10, eps)
        exact = minimal_cover_size(dist, eps)
        ratios.append(greedy / exact)
    factor_ok = all(1.0 <= r <= 2.0 for r in ratios)

    grid20 = np.linspace(0.0, 1.0, 20)[:, None]
    eps_grid = np.geomspace(1e-3, 2.0, 48)
    counts = [covering_number(spec, grid20, float(e)) for e in eps_grid]
    monotone_ok = all(a >= b for a, b in zip(counts, counts[1:]))
    beyond_ok = covering_number(spec, grid20, float(dist.max()) * 2.0) == 1

    grid50 = np.linspace(0.0, 1.0, 50)[:, None]
    base = entropy_integral(spec, grid50, np.geomspace(1e-3, 2.0, 128))
    fine = entropy_integral(spec, grid50, np.geomspace(1e-3, 2.0, 256))
    refine_rel = abs(fine - base) / max(abs(base), 1e-30)

    passed = single_ok and factor_ok and monotone_ok and beyond_ok and refine_rel <= 0.05
    return {
        "singleton_ok": bool(single_ok),
        "greedy_over_minimal_ratios": [float(r) for r in ratios],
        "monotone_ok": bool(monotone_ok),
        "beyond_diameter_ok": bool(beyond_ok),
        "integrated_entropy": float(base),
        "refinement_relative_change": float(refine_rel),
        "passed": bool(passed),
    }


def verify_continuity(seed: int = 0) -> dict:
    """Operator-norm continuity diagnostics on a kriging fixture."""
    pts = np.linspace(0.0, 1.0, 6)[:, None]
    observed = [0, 2, 5]
    ell = 0.7

    def model_at(lengthscale: float) -> FiniteModel:
        design = ArrayDesign(pts, KernelSpec("se", lengthscale=lengthscale))
        return model_from_design(design)

    design = ArrayDesign(pts, KernelSpec("se", lengthscale=ell))
    obs = restriction_map(design, observed)
    base = model_at(ell)
    est = ols_build(base, obs)
    m_norm = operator_norm(est)
    scale_invariant = all(
        np.allclose(
            ols_build(FiniteModel(base.mean, c * base.cov), obs).gain,
            est.gain,
            rtol=0.0,
            atol=1e-12,
        )
        for c in (0.1, 1.0, 10.0)
    )

    deltas = []
    for k in range(1, 13):
        other = model_at(ell * (1.0 + 2.0 ** (-k)))
        deltas.append(estimator_delta_norm(base, other, obs))
    decreasing = all(a > b for a, b in zip(deltas, deltas[1:]))
    small_tail = deltas[-1] < 1e-3

    rng = np.random.default_rng(seed)
    y = rng.standard_normal(len(observed))
    dy = 1e-3 * rng.standard_normal(len(observed))
    ell2 = ell * 1.01
    pred_a = krige(design, observed, y).values[:, 0]
    design_b = ArrayDesign(pts, KernelSpec("se", lengthscale=ell2))
    pred_b = krige(design_b, observed, y + dy).values[:, 0]
    delta_b = estimator_delta_norm(base, model_at(ell2), obs)
    lhs = float(np.linalg.norm(pred_b - pred_a))
    rhs = m_norm * float(np.linalg.norm(dy)) + delta_b * float(np.linalg.norm(y + dy))
    bound_ok = lhs <= rhs + 1e-9

    passed = (
        np.isfinite(m_norm) and scale_invariant and decreasing and small_tail and bound_ok
    )
    return {
        "operator_norm": float(m_norm),
        "scale_invariant": bool(scale_invariant),
        "delta_sequence": [float(d) for d in deltas],
        "delta_strictly_decreasing": bool(decreasing),
        "delta_tail_below_1e-3": bool(small_tail),
        "perturbation_lhs": lhs,
        "perturbation_rhs": float(rhs),
        "perturbation_bound_ok": bool(bound_ok),
        "passed": bool(passed),
    }


VERIFY_TARGETS = {
    "gmt": verify_gmt,
    "disintegration": verify_disintegration,
    "uii": verify_uii,
    "entropy": verify_entropy,
    "continuity": verify_continuity,
}
