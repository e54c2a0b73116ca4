"""Maximum-margin classification as a nearest-point problem between hulls.

The two labeled point sets are embedded in the kernel's Hilbert space; the
classifier is determined by the shortest vector between the convex hulls of
the embedded sets.  Training minimizes

    || sum_j nu1_j phi(d1_j) - sum_k nu0_k phi(d0_k) ||^2

over the product of probability simplices with a deterministic
Mitchell-Demyanov-Malozemov style exchange iteration (steepest feasible
pair, exact line search), followed by an exact solve on the active support
set.  The certificate is the Frank-Wolfe duality gap, an upper bound on the
objective suboptimality.  Everything downstream (margin, decision values,
labels) uses kernel evaluations only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, as_points, cross_kernel
from .linalg import DEFAULT_TOL, Tolerance, check_psd


class SeparationError(RuntimeError):
    """The two hulls are not separated at the requested tolerance."""


class ConvergenceError(RuntimeError):
    """Training hit max_iter before certifying the duality gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = float(gap)


@dataclass(frozen=True)
class SvmProblem:
    """Scalar kernel plus two disjoint labeled point sets."""

    kernel: KernelSpec
    d0: np.ndarray
    d1: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self) -> None:
        if self.kernel.q != 1:
            raise ValueError("svm requires a scalar kernel (output_dim == 1)")
        p0 = as_points(self.d0, "d0")
        p1 = as_points(self.d1, "d1")
        if p0.shape[0] == 0 or p1.shape[0] == 0:
            raise ValueError("both labeled sets must be nonempty")
        if p0.shape[1] != p1.shape[1]:
            raise ValueError("labeled sets have different index dimensions")
        set0 = {tuple(row) for row in p0}
        if any(tuple(row) in set0 for row in p1):
            raise ValueError("labeled sets must be disjoint")
        object.__setattr__(self, "d0", p0)
        object.__setattr__(self, "d1", p1)


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier state: simplex weights, margin, offset, certificate."""

    nu0: np.ndarray
    nu1: np.ndarray
    rho: float
    offset: float
    gap: float
    objective: float
    n_iter: int


def _check_strict_pd(problem: SvmProblem) -> None:
    pts = np.vstack([problem.d0, problem.d1])
    uniq = np.array(sorted({tuple(r) for r in pts}))
    gate = check_psd(cross_kernel(problem.kernel, uniq, uniq), problem.tol,
                     "kernel gram")
    if gate.values[0] <= gate.floor:
        warnings.warn(
            "kernel gram is not strictly positive definite on the training "
            "points; hull separability is not guaranteed a priori",
            RuntimeWarning,
            stacklevel=3,
        )


def _initial_weights(n: int, rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return np.full(n, 1.0 / n)
    raw = rng.exponential(size=n)
    return raw / raw.sum()


def _mdm_pair_step(p: np.ndarray, nu: np.ndarray, k_block: np.ndarray,
                   sign: float):
    """Best weight-exchange step on one simplex.

    ``sign=+1`` treats ``p`` as inner products the step should decrease
    (class-1 side), ``sign=-1`` as ones it should increase (class-0 side).
    Returns (decrease, src, dst, t) or None when no feasible progress.
    """
    scores = sign * p
    active = np.flatnonzero(nu > 0.0)
    src = active[int(np.argmax(scores[active]))]
    dst = int(np.argmin(scores))
    num = scores[src] - scores[dst]
    if num <= 0.0:
        return None
    den = k_block[src, src] - 2.0 * k_block[src, dst] + k_block[dst, dst]
    cap = nu[src]
    t = cap if den <= 0.0 else min(cap, num / den)
    if t <= 0.0:
        return None
    return 2.0 * t * num - t * t * max(den, 0.0), int(src), dst, float(t)


def _active_set_polish(k11, k10, k00, nu1, nu0):
    """Solve the equality-constrained QP on the current supports exactly.

    Returns refreshed (nu1, nu0) when the KKT solution stays feasible,
    otherwise None.
    """
    a1 = np.flatnonzero(nu1 > 1e-12)
    a0 = np.flatnonzero(nu0 > 1e-12)
    m1, m0 = a1.size, a0.size
    q = np.block([
        [k11[np.ix_(a1, a1)], -k10[np.ix_(a1, a0)]],
        [-k10[np.ix_(a1, a0)].T, k00[np.ix_(a0, a0)]],
    ])
    c = np.zeros((2, m1 + m0))
    c[0, :m1] = 1.0
    c[1, m1:] = 1.0
    kkt = np.block([[2.0 * q, c.T], [c, np.zeros((2, 2))]])
    rhs = np.concatenate([np.zeros(m1 + m0), [1.0, 1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    x = sol[: m1 + m0]
    if np.any(x < -1e-10):
        return None
    x = np.clip(x, 0.0, None)
    if x[:m1].sum() < 1e-12 or x[m1:].sum() < 1e-12:
        return None
    out1 = np.zeros_like(nu1)
    out0 = np.zeros_like(nu0)
    out1[a1] = x[:m1] / x[:m1].sum()
    out0[a0] = x[m1:] / x[m1:].sum()
    return out1, out0


def svm_train(problem: SvmProblem, tol: float = 1e-10,
              max_iter: int = 200_000, init_seed: int | None = None,
              trace: list | None = None) -> SvmModel:
    """Train the maximum-margin classifier.

    Terminates when the duality-gap certificate drops below ``tol`` (so the
    objective is within ``tol`` of optimal).  ``init_seed=None`` starts from
    uniform weights; a seed starts from a random point of the simplex
    product, which the uniqueness of the separation vector makes
    inconsequential for the trained classifier.  Pass a list as ``trace``
    to collect the objective value after every iteration.
    """
    _check_strict_pd(problem)
    spec = problem.kernel
    k11 = cross_kernel(spec, problem.d1, problem.d1)
    k00 = cross_kernel(spec, problem.d0, problem.d0)
    k10 = cross_kernel(spec, problem.d1, problem.d0)
    n1, n0 = k11.shape[0], k00.shape[0]

    rng = None if init_seed is None else np.random.default_rng(init_seed)
    nu1 = _initial_weights(n1, rng)
    nu0 = _initial_weights(n0, rng)

    def refresh(nu1, nu0):
        p1 = k11 @ nu1 - k10 @ nu0
        p0 = k10.T @ nu1 - k00 @ nu0
        return p1, p0

    p1, p0 = refresh(nu1, nu0)
    iters = 0
    gap = np.inf
    while iters < max_iter:
        u1w = float(nu1 @ p1)
        u0w = float(nu0 @ p0)
        if trace is not None:
            trace.append(u1w - u0w)
        gap = 2.0 * ((u1w - float(p1.min())) + (float(p0.max()) - u0w))
        if gap <= tol:
            break
        step1 = _mdm_pair_step(p1, nu1, k11, +1.0)
        step0 = _mdm_pair_step(p0, nu0, k00, -1.0)
        # pick the steeper of the two feasible exchanges
        cands = []
        if step1 is not None:
            cands.append(("1", *step1))
        if step0 is not None:
            cands.append(("0", *step0))
        if not cands:
            polished = _active_set_polish(k11, k10, k00, nu1, nu0)
            if polished is None:
                break
            nu1, nu0 = polished
            p1, p0 = refresh(nu1, nu0)
            iters += 1
            continue
        side, _dec, src, dst, t = max(cands, key=lambda c: c[1])
        if side == "1":
            nu1[src] -= t
            nu1[dst] += t
            if nu1[src] < 1e-16:
                nu1[src] = 0.0
            p1 += t * (k11[:, dst] - k11[:, src])
            p0 += t * (k10.T[:, dst] - k10.T[:, src])
        else:
            nu0[src] -= t
            nu0[dst] += t
            if nu0[src] < 1e-16:
                nu0[src] = 0.0
            p1 -= t * (k10[:, dst] - k10[:, src])
            p0 -= t * (k00[:, dst] - k00[:, src])
        iters += 1
        if iters % 512 == 0:
            p1, p0 = refresh(nu1, nu0)
        if iters % 64 == 0:
            polished = _active_set_polish(k11, k10, k00, nu1, nu0)
            if polished is not None:
                c1, c0 = polished
                q1, q0 = refresh(c1, c0)
                if float(c1 @ q1 - c0 @ q0) <= float(nu1 @ p1 - nu0 @ p0) + 1e-15:
                    nu1, nu0, p1, p0 = c1, c0, q1, q0

    p1, p0 = refresh(nu1, nu0)
    u1w = float(nu1 @ p1)
    u0w = float(nu0 @ p0)
    objective = u1w - u0w
    gap = 2.0 * ((u1w - float(p1.min())) + (float(p0.max()) - u0w))
    if gap > tol:
        # covers both the iteration cap and a numerical stall
        raise ConvergenceError(
            f"duality gap {gap:.3e} above tol {tol:.3e} after {iters} iterations",
            gap=gap,
        )
    if objective <= tol:
        raise SeparationError(
            f"hulls are not separable at tolerance (rho^2 = {objective:.3e})"
        )
    return SvmModel(
        nu0=nu0,
        nu1=nu1,
        rho=float(np.sqrt(objective)),
        offset=0.5 * (u1w + u0w),
        gap=float(gap),
        objective=float(objective),
        n_iter=iters,
    )


def decision_values(model: SvmModel, problem: SvmProblem, points) -> np.ndarray:
    """Decision function g at each query point, via kernel sums only.

    g(i) = sum_j nu1_j c(i, d1_j) - sum_k nu0_k c(i, d0_k) - offset; the
    margin hyperplanes sit at g = +/- rho^2 / 2 and the boundary at g = 0.
    """
    pts = as_points(points, "query points")
    c1 = cross_kernel(problem.kernel, pts, problem.d1)
    c0 = cross_kernel(problem.kernel, pts, problem.d0)
    return c1 @ model.nu1 - c0 @ model.nu0 - model.offset


def svm_decision(model: SvmModel, problem: SvmProblem, point) -> float:
    return float(decision_values(model, problem, np.atleast_1d(point)[None, :])[0])


def svm_classify(model: SvmModel, problem: SvmProblem, point) -> int:
    """Hard label: 1 iff g >= 0, breaking the tie in favor of label 1."""
    return int(svm_decision(model, problem, point) >= 0.0)


def xi_distance(problem: SvmProblem, model_a: SvmModel, model_b: SvmModel) -> float:
    """RKHS distance between the separation vectors of two trained models."""
    coef_a = np.concatenate([model_a.nu1, -model_a.nu0])
    coef_b = np.concatenate([model_b.nu1, -model_b.nu0])
    pts = np.vstack([problem.d1, problem.d0])
    g = cross_kernel(problem.kernel, pts, pts)
    d = coef_a - coef_b
    return float(np.sqrt(max(0.0, d @ g @ d)))


@dataclass(frozen=True)
class MarginReport:
    support_margin_defect: float
    pair_separation_slack: float
    xi_norm_defect: float
    support_indices_0: tuple[int, ...]
    support_indices_1: tuple[int, ...]
    passed: bool


def margin_check(model: SvmModel, problem: SvmProblem,
                 tol: float = 1e-4) -> MarginReport:
    """Audit the trained geometry.

    Checks that support vectors (weights above ``tol``) sit on their margin
    hyperplanes to ``tol * rho^2``, that every cross pair is separated by
    projected distance at least rho - tol, and that the squared margin from
    the weight quadratic form matches the one recomputed from pointwise
    kernel sums.
    """
    rho2 = model.objective
    g1 = decision_values(model, problem, problem.d1)
    g0 = decision_values(model, problem, problem.d0)
    sv1 = np.flatnonzero(model.nu1 > tol)
    sv0 = np.flatnonzero(model.nu0 > tol)
    margin_defect = max(
        float(np.abs(g1[sv1] - rho2 / 2.0).max()) if sv1.size else 0.0,
        float(np.abs(g0[sv0] + rho2 / 2.0).max()) if sv0.size else 0.0,
    )
    # projected distance between pairs along xi: (xi(d1) - xi(d0)) / rho
    proj = (g1[:, None] - g0[None, :]) / model.rho
    pair_slack = float(proj.min()) - (model.rho - tol)
    # ||xi||^2 two ways: quadratic form in the weights vs pointwise sums
    xi1 = g1 + model.offset
    xi0 = g0 + model.offset
    via_points = float(model.nu1 @ xi1 - model.nu0 @ xi0)
    k11 = cross_kernel(problem.kernel, problem.d1, problem.d1)
    k00 = cross_kernel(problem.kernel, problem.d0, problem.d0)
    k10 = cross_kernel(problem.kernel, problem.d1, problem.d0)
    via_quadratic = float(
        model.nu1 @ k11 @ model.nu1
        - 2.0 * model.nu1 @ k10 @ model.nu0
        + model.nu0 @ k00 @ model.nu0
    )
    xi_defect = abs(via_points - via_quadratic)
    passed = (
        margin_defect <= tol * rho2
        and pair_slack >= 0.0
        and xi_defect <= tol * rho2
    )
    return MarginReport(
        support_margin_defect=margin_defect,
        pair_separation_slack=pair_slack,
        xi_norm_defect=xi_defect,
        support_indices_0=tuple(int(i) for i in sv0),
        support_indices_1=tuple(int(i) for i in sv1),
        passed=passed,
    )
