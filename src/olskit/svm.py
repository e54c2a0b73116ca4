"""Maximum-margin classification as a nearest-point problem between hulls.

The two labeled point sets are embedded in the kernel's Hilbert space; the
classifier is determined by the shortest vector between the convex hulls of
the embedded sets.  Training minimizes

    || sum_j nu1_j phi(d1_j) - sum_k nu0_k phi(d0_k) ||^2

over the product of probability simplices with a primal active-set method
(Wolfe's nearest-point algorithm, Math. Programming 11, 1976).  It starts
at the closest cross pair (as Keerthi et al., IEEE TNN 11, 2000, do), and
every iteration is one exact solve on the current support, which then
drops a point whose weight would turn negative or admits the
lowest-scoring point of each class whose gap term is positive.
The certificate is the Frank-Wolfe duality gap, an upper bound on the
objective suboptimality.  Everything downstream (margin, decision values,
labels) uses kernel evaluations only.

Each problem builds one signed Gram over ``[d1; d0]`` on first use.  The
PSD gate, training, the margin audit's quadratic form and ``xi_distance``
all read it.  A Gram ``kernels._gram_gate`` certifies is strictly PD at
distinct points by theorem, so it is neither factored nor warned about.
Any other is gated on its unique-point block (a point repeated within one
class does not trip it) and warns unless a Cholesky at -floor succeeds.
``margin_check`` recomputes the pointwise side independently through
``decision_values``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import KernelSpec, _first_rows, _gram_gate, _locate, as_points, cross_kernel
from .linalg import DEFAULT_TOL, Tolerance, _cholesky_certifies, as_int, as_number, check_psd


class SeparationError(RuntimeError):
    """The two hulls are not separated at the requested tolerance."""


class ConvergenceError(RuntimeError):
    """Training hit max_iter before certifying the duality gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = float(gap)


@dataclass(frozen=True, eq=False)
class SvmProblem:
    """Scalar kernel plus two disjoint labeled point sets."""

    kernel: KernelSpec
    d0: np.ndarray
    d1: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.kernel.q != 1:
            raise ValueError("svm requires a scalar kernel (output_dim == 1)")
        p0 = as_points(self.d0, "d0")
        p1 = as_points(self.d1, "d1")
        if p0.shape[0] == 0 or p1.shape[0] == 0:
            raise ValueError("both labeled sets must be nonempty")
        if p0.shape[1] != p1.shape[1]:
            raise ValueError("labeled sets have different index dimensions")
        if np.any(_locate(p1, p0) < p0.shape[0]):
            raise ValueError("labeled sets must be disjoint")
        object.__setattr__(self, "d0", p0)
        object.__setattr__(self, "d1", p1)

    @cached_property
    def signed_gram(self) -> np.ndarray:
        """Kernel matrix over ``[d1; d0]`` with the class-0 sign folded in.

        Entry (a, b) is s_a s_b c(x_a, x_b), with s = +1 on d1 and -1 on d0,
        so the nearest-point objective over x = [nu1; nu0] is x^T Q x.  The
        signs leave the spectrum unchanged, so the PSD gate reads Q itself:
        ``_gram_gate``'s theorem, or else ``check_psd`` on one row per
        distinct point and a warning when lambda_min <= floor there.
        """
        pts = np.vstack([self.d1, self.d0])
        q = cross_kernel(self.kernel, pts, pts)
        n1 = self.d1.shape[0]
        q[:n1, n1:] *= -1.0
        q[n1:, :n1] *= -1.0
        if _gram_gate(self.kernel, pts, q, self.tol) is not None:
            return q  # strictly PD at distinct points by theorem
        # the last index of each distinct point, in first-occurrence order
        n = pts.shape[0]
        last = n - 1 - _first_rows(pts[::-1])[::-1]
        uniq = last[_first_rows(pts) == np.arange(n)]
        gate = check_psd(q[np.ix_(uniq, uniq)], self.tol, "kernel gram")
        if not _cholesky_certifies(gate.matrix, -gate.floor):
            warnings.warn(
                "kernel gram is not strictly positive definite on the training "
                "points; hull separability is not guaranteed a priori",
                RuntimeWarning,
                stacklevel=4,  # past cached_property, to the svm function's caller
            )
        return q


@dataclass(frozen=True, eq=False)
class SvmModel:
    """Trained classifier state: simplex weights, margin, offset, certificate."""

    nu0: np.ndarray
    nu1: np.ndarray
    rho: float
    offset: float
    gap: float
    objective: float
    n_iter: int


def _support_solve(q: np.ndarray, a: np.ndarray, n1: int) -> np.ndarray:
    """Minimizer of x^T Q x on the sorted support ``a``, class sums one each.

    Solves the KKT system by least squares, so a singular support block
    (repeated or collinear points) still yields a minimizer.  The Q block
    is scaled to entries at most one, which leaves the minimizer unchanged
    but keeps the cutoff from truncating the constraint rows.
    """
    m, m1 = a.size, int(np.searchsorted(a, n1))
    qa = q[np.ix_(a, a)]
    scale = max(1.0, float(np.abs(qa).max()))
    kkt = np.zeros((m + 2, m + 2))
    kkt[:m, :m] = 2.0 * qa / scale
    kkt[m, :m1] = kkt[:m1, m] = 1.0
    kkt[m + 1, m1:m] = kkt[m1:m, m + 1] = 1.0
    rhs = np.concatenate([np.zeros(m), [1.0, 1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:m]


def _certificate(x: np.ndarray, r: np.ndarray, sides):
    """Objective ||xi||^2, offset, Frank-Wolfe duality gap at ``r = Q x``, and
    each class's gap term x_s.r_s - min r_s (class 1 first)."""
    w1, w0 = (float(x[s] @ r[s]) for s in sides)
    terms = w1 - float(r[sides[0]].min()), w0 - float(r[sides[1]].min())
    return w1 + w0, 0.5 * (w1 - w0), 2.0 * (terms[0] + terms[1]), terms


def _positive_tol(tol) -> float:
    """``tol`` as a number > 0 (``as_number``), else ValueError naming it."""
    tol = as_number(tol, "tol")
    if tol <= 0.0:
        raise ValueError("tol: must be > 0")
    return tol


def svm_train(problem: SvmProblem, tol: float = 1e-10,
              max_iter: int = 200_000, init_seed: int | None = None,
              trace: list | None = None) -> SvmModel:
    """Train the maximum-margin classifier with the active-set method.

    Each iteration solves the equality-constrained QP on the current
    support.  A solution with a negative weight is followed only until the
    first weight reaches zero, and that point leaves the support (a minor
    cycle); a feasible one is accepted and certified, and each class whose
    gap term x_s.r_s - min r_s is positive admits its lowest-scoring point
    unless that point is in the support already (a major cycle).
    Terminates when the duality-gap certificate drops below ``tol`` (so the
    objective is within ``tol`` of optimal).  In exact arithmetic a major
    cycle admits a point and at least one point it admits keeps positive
    weight, so a major cycle that can admit nothing, or minor cycles that
    drop every point the last one admitted, is a rounding stall: training
    stops there and raises ``ConvergenceError``.

    ``init_seed=None`` starts at the vertex of the closest cross pair,
    the d1 and d0 points that minimize Q_ii + Q_jj + 2 Q_ij (the first
    such pair in row order); an integer seed >= 0 picks a random vertex,
    which the uniqueness of the separation vector makes inconsequential
    for the trained classifier.  ``max_iter`` (an integer >= 1) and
    ``n_iter`` count support solves, and ``tol`` must be a number > 0,
    else ValueError.  Pass a list as ``trace`` to collect the objective
    value at the start and after every solve.
    """
    tol = _positive_tol(tol)
    max_iter = as_int(max_iter, "max_iter", 1)
    # weights x = [nu1; nu0] and scores r = Q x
    q = problem.signed_gram
    n1, n = problem.d1.shape[0], q.shape[0]
    sides = (slice(0, n1), slice(n1, n))
    s1, s0 = sides

    def refresh(x):
        # r = Q x class block by class block, reading only Q's upper blocks;
        # this order keeps trained weights and reports bit-identical to the
        # class-wise kernel sums
        x1, x0 = x[s1], x[s0]
        return np.concatenate([q[s1, s1] @ x1 + q[s1, s0] @ x0,
                               x1 @ q[s1, s0] + q[s0, s0] @ x0])

    if init_seed is None:
        # squared RKHS distance of every cross pair, ||phi(d1_i) - phi(d0_j)||^2
        diag = q.diagonal()
        pair = diag[s1, None] + diag[s0] + 2.0 * q[s1, s0]
        i, k = divmod(int(np.argmin(pair)), n - n1)
        start = [i, n1 + k]
    else:
        rng = np.random.default_rng(as_int(init_seed, "init_seed", 0))
        start = [int(rng.integers(n1)), n1 + int(rng.integers(n - n1))]
    support = np.zeros(n, dtype=bool)
    support[start] = True
    a, y = np.flatnonzero(support), np.ones(2)  # a vertex solves its own support
    x = np.zeros(n)
    admitted = set()  # points the last major cycle admitted and no minor cycle dropped
    iters = 0
    while True:
        if y.min() < -1e-10:
            # ratio step: toward y until the first weight reaches zero
            xa = x[a]
            neg = np.flatnonzero(y < 0.0)
            ratios = xa[neg] / (xa[neg] - y[neg])
            k = int(np.argmin(ratios))
            drop = int(a[neg[k]])
            if admitted == {drop}:
                break  # the last admitted point would leave: a rounding stall
            admitted.discard(drop)
            x[a] = np.clip(xa + ratios[k] * (y - xa), 0.0, None)
            x[drop] = 0.0
            support[drop] = False
            if trace is not None:
                trace.append(float(x @ refresh(x)))
        else:
            y = np.clip(y, 0.0, None)
            m1 = int(np.searchsorted(a, n1))
            sums = y[:m1].sum(), y[m1:].sum()
            if max(abs(total - 1.0) for total in sums) > 1e-6:
                break  # the solve lost its constraints; the final check fails
            x[a[:m1]] = y[:m1] / sums[0]
            x[a[m1:]] = y[m1:] / sums[1]
            r = refresh(x)
            objective, _, gap, terms = _certificate(x, r, sides)
            if trace is not None:
                trace.append(objective)
            if gap <= tol:
                break
            # each class with a positive gap term admits its lowest score
            lowest = [side.start + int(np.argmin(r[side]))
                      for side, term in zip(sides, terms) if term > 0.0]
            admitted = {j for j in lowest if not support[j]}
            if not admitted:
                break  # nothing to admit while gap > tol: a rounding stall
            support[list(admitted)] = True
        if iters >= max_iter:
            break
        a = np.flatnonzero(support)
        y = _support_solve(q, a, n1)
        iters += 1

    r = refresh(x)
    objective, offset, gap, _ = _certificate(x, r, sides)
    if gap > tol:
        # covers the iteration cap, a lost constraint and a rounding stall
        raise ConvergenceError(
            f"duality gap {gap:.3e} above tol {tol:.3e} after {iters} iterations",
            gap=gap,
        )
    if objective <= tol:
        raise SeparationError(
            f"hulls are not separable at tolerance (rho^2 = {objective:.3e})"
        )
    return SvmModel(
        nu0=x[s0],
        nu1=x[s1],
        rho=float(np.sqrt(objective)),
        offset=offset,
        gap=gap,
        objective=objective,
        n_iter=iters,
    )


def decision_values(model: SvmModel, problem: SvmProblem, points) -> np.ndarray:
    """Decision function g at each query point, via kernel sums only.

    g(i) = sum_j nu1_j c(i, d1_j) - sum_k nu0_k c(i, d0_k) - offset; the
    margin hyperplanes sit at g = +/- rho^2 / 2 and the boundary at g = 0.
    The hard label is 1 iff g >= 0, so a point on the boundary gets label 1.
    """
    pts = as_points(points, "query points")
    c1 = cross_kernel(problem.kernel, pts, problem.d1)
    c0 = cross_kernel(problem.kernel, pts, problem.d0)
    return c1 @ model.nu1 - c0 @ model.nu0 - model.offset


def xi_distance(problem: SvmProblem, model_a: SvmModel, model_b: SvmModel) -> float:
    """RKHS distance between the separation vectors of two trained models."""
    d = np.concatenate([model_a.nu1 - model_b.nu1, model_a.nu0 - model_b.nu0])
    return float(np.sqrt(max(0.0, d @ problem.signed_gram @ d)))


@dataclass(frozen=True, eq=False)
class MarginReport:
    support_margin_defect: float
    pair_separation_slack: float
    xi_norm_defect: float
    support_indices_0: tuple[int, ...]
    support_indices_1: tuple[int, ...]
    passed: bool
    decision_0: np.ndarray  # g at each point of d0
    decision_1: np.ndarray  # g at each point of d1


def margin_check(model: SvmModel, problem: SvmProblem,
                 tol: float = 1e-4) -> MarginReport:
    """Audit the trained geometry.

    Checks that support vectors (weights above ``tol``) sit on their margin
    hyperplanes to ``tol * rho^2``, that every cross pair is separated by
    projected distance at least rho - tol, and that the squared margin from
    the weight quadratic form matches the one recomputed from pointwise
    kernel sums.  The pointwise side goes through ``decision_values``, not
    the problem's Gram, so the two sides are computed independently.
    ``tol`` must be a number > 0, as in ``svm_train``, else ValueError.
    """
    tol = _positive_tol(tol)
    rho2 = model.objective
    g1 = decision_values(model, problem, problem.d1)
    g0 = decision_values(model, problem, problem.d0)
    sv1 = np.flatnonzero(model.nu1 > tol)
    sv0 = np.flatnonzero(model.nu0 > tol)
    margin_defect = max(
        float(np.abs(g1[sv1] - rho2 / 2.0).max()) if sv1.size else 0.0,
        float(np.abs(g0[sv0] + rho2 / 2.0).max()) if sv0.size else 0.0,
    )
    # least projected distance of a cross pair along xi, (xi(d1) - xi(d0)) / rho;
    # rounding is monotone in each operand, so the closest pair's bits are
    # those of the least entry of the n1 x n0 pair matrix
    pair_slack = float((g1.min() - g0.max()) / model.rho) - (model.rho - tol)
    # ||xi||^2 two ways: quadratic form in the weights vs pointwise sums
    xi1 = g1 + model.offset
    xi0 = g0 + model.offset
    via_points = float(model.nu1 @ xi1 - model.nu0 @ xi0)
    x = np.concatenate([model.nu1, model.nu0])
    via_quadratic = float(x @ problem.signed_gram @ x)
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
        decision_0=g0,
        decision_1=g1,
    )
