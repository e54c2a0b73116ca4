"""Independent oracles used across the test suite.

Everything here is deliberately written against definitions, not against
the library's computation paths: Penrose conditions checked directly,
spectral norms by power iteration, constrained minimizers by KKT solves or
scipy optimizers, covers by exhaustive enumeration or by one greedy sweep
per radius, and moments by seeded Monte Carlo.  Tests freeze expected
values computed by these oracles.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Wishart-style PSD matrix, optionally of exact lower rank."""
    r = n if rank is None else rank
    a = rng.standard_normal((n, r))
    return a @ a.T


def random_rank(rng: np.random.Generator, rows: int, cols: int, rank: int) -> np.ndarray:
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def penrose_defects(a: np.ndarray, aplus: np.ndarray) -> float:
    """Worst violation of the four Penrose conditions."""
    return max(
        float(np.abs(a @ aplus @ a - a).max()),
        float(np.abs(aplus @ a @ aplus - aplus).max()),
        float(np.abs((a @ aplus) - (a @ aplus).T).max()),
        float(np.abs((aplus @ a) - (aplus @ a).T).max()),
    )


def power_iteration_norm(a: np.ndarray, iters: int = 2000, seed: int = 1) -> float:
    """Spectral norm by power iteration on a^T a."""
    rng = np.random.default_rng(seed)
    if a.size == 0:
        return 0.0
    ata = a.T @ a
    v = rng.standard_normal(ata.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = ata @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ ata @ v))


def min_norm_interpolant(k: np.ndarray, g: np.ndarray, m: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Minimizer of (v-m)^T K^{-1} (v-m) subject to G v = y, full-rank K.

    Stationarity gives v = m + K G^T lam with G K G^T lam = y - G m; the
    linear system is solved directly (LU), independent of any pseudoinverse.
    """
    lam = np.linalg.solve(g @ k @ g.T, y - g @ m)
    return m + k @ g.T @ lam


def gls_variances(k: np.ndarray, g: np.ndarray,
                  gain_alt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Markov variances (B'^T K^{-1} B', S^{-1}) for full-rank K and S.

    A right inverse B' of G gives the unbiased linear estimator B'^T K^{-1}
    of beta in the model y = (K G^T) beta + eps, Cov eps = K; its covariance
    is B'^T K^{-1} B', and the GLS covariance is S^{-1} with S = G K G^T.
    Both come from LU solves, independent of any pseudoinverse.
    """
    var_alt = gain_alt.T @ np.linalg.solve(k, gain_alt)
    s = g @ k @ g.T
    var_gls = np.linalg.solve(s, np.eye(s.shape[0]))
    return 0.5 * (var_alt + var_alt.T), 0.5 * (var_gls + var_gls.T)


def exhaustive_min_cover(dist: np.ndarray, eps: float) -> int:
    """Smallest number of eps-balls centered at the points that cover them."""
    n = dist.shape[0]
    for size in range(1, n + 1):
        for centers in combinations(range(n), size):
            if float(dist[list(centers)].min(axis=0).max()) <= eps:
                return size
    return n


def greedy_cover_count(dist: np.ndarray, points: np.ndarray, eps: float) -> int:
    """Greedy farthest-point cover count, one fresh sweep for this eps.

    The sweep starts at the lexicographically smallest point (the first
    one among equal points) and adds the farthest point until every point
    lies within eps of a centre.
    """
    start = min(range(points.shape[0]), key=lambda i: tuple(points[i]))
    nearest = dist[start].copy()
    count = 1
    while True:
        far = int(np.argmax(nearest))
        if nearest[far] <= eps:
            return count
        nearest = np.minimum(nearest, dist[far])
        count += 1


def greedy_entropy(counts: np.ndarray, eps: np.ndarray) -> float:
    """Trapezoid of log N(eps), truncated at the first count of 1."""
    ones = np.flatnonzero(counts == 1)
    stop = int(ones[0]) if ones.size else eps.size - 1
    if stop == 0:
        return 0.0
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(np.log(counts[: stop + 1]), eps[: stop + 1]))


def mc_mean_cov(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (samples.shape[0] - 1)
    return mean, cov


def mean_se(samples: np.ndarray) -> np.ndarray:
    """Per-coordinate standard error of the sample mean."""
    return samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])


def svm_qp_oracle(k11: np.ndarray, k10: np.ndarray, k00: np.ndarray,
                  seed: int = 0, restarts: int = 3) -> float:
    """Reference optimum of the two-simplex nearest-point QP via scipy SLSQP."""
    from scipy.optimize import minimize

    n1, n0 = k11.shape[0], k00.shape[0]

    def objective(x):
        a, b = x[:n1], x[n1:]
        return a @ k11 @ a - 2.0 * a @ k10 @ b + b @ k00 @ b

    def gradient(x):
        a, b = x[:n1], x[n1:]
        return np.concatenate([
            2.0 * (k11 @ a - k10 @ b),
            2.0 * (k00 @ b - k10.T @ a),
        ])

    constraints = [
        {"type": "eq", "fun": lambda x: x[:n1].sum() - 1.0},
        {"type": "eq", "fun": lambda x: x[n1:].sum() - 1.0},
    ]
    bounds = [(0.0, 1.0)] * (n1 + n0)
    rng = np.random.default_rng(seed)
    best = np.inf
    starts = [np.concatenate([np.full(n1, 1.0 / n1), np.full(n0, 1.0 / n0)])]
    for _ in range(restarts):
        a = rng.exponential(size=n1)
        b = rng.exponential(size=n0)
        starts.append(np.concatenate([a / a.sum(), b / b.sum()]))
    for x0 in starts:
        res = minimize(objective, x0, jac=gradient, bounds=bounds,
                       constraints=constraints, method="SLSQP",
                       options={"maxiter": 2000, "ftol": 1e-14})
        if res.fun < best:
            best = float(res.fun)
    return best


def nearest_point_gap(k11: np.ndarray, k10: np.ndarray, k00: np.ndarray,
                      nu1: np.ndarray, nu0: np.ndarray) -> float:
    """Frank-Wolfe duality gap of the two-simplex nearest-point QP at (nu1, nu0).

    With p1 = K11 nu1 - K10 nu0 and p0 = K10^T nu1 - K00 nu0 (the separation
    vector evaluated at each class's points), the gap is
    2 [(nu1.p1 - min p1) + (max p0 - nu0.p0)], an upper bound on the
    objective's distance from its minimum.
    """
    p1 = k11 @ nu1 - k10 @ nu0
    p0 = k10.T @ nu1 - k00 @ nu0
    return float(2.0 * ((nu1 @ p1 - p1.min()) + (p0.max() - nu0 @ p0)))


def blobs_2d(seed: int, n_per_class: int = 12, gap: float = 3.0):
    """Seeded separable point clouds in the plane."""
    rng = np.random.default_rng(seed)
    d0 = rng.standard_normal((n_per_class, 2)) * 0.6 + np.array([0.0, 0.0])
    d1 = rng.standard_normal((n_per_class, 2)) * 0.6 + np.array([gap, gap])
    return d0, d1
