"""Independent oracles used across the test suite.

Everything here is deliberately written against definitions, not against
the library's computation paths: Penrose conditions checked directly,
spectral norms by power iteration, constrained minimizers by KKT solves or
scipy optimizers, covers by exhaustive enumeration or by one greedy sweep
per radius, and moments by seeded Monte Carlo.  Tests freeze expected
values computed by these oracles.
"""

from __future__ import annotations

import json
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


def ols_build_dense(cov: np.ndarray, mean: np.ndarray, g: np.ndarray) -> dict:
    """Least-squares estimator matrices from dense products with any G.

    B = K G^T S^+ with S the symmetrized G K G^T, through the
    package's own pinv and range projector, so a map applied by index must
    agree bit for bit.
    """
    from olskit.linalg import pinv, range_projector, symmetrize

    s = symmetrize(g @ cov @ g.T)
    gain = cov @ g.T @ pinv(s)
    lift = gain @ g
    return {"gain": gain, "p_range": range_projector(s), "lift": lift,
            "resid": np.eye(cov.shape[0]) - lift, "data_mean": g @ mean}


def blobs_2d(seed: int, n_per_class: int = 12, gap: float = 3.0):
    """Seeded separable point clouds in the plane."""
    rng = np.random.default_rng(seed)
    d0 = rng.standard_normal((n_per_class, 2)) * 0.6 + np.array([0.0, 0.0])
    d1 = rng.standard_normal((n_per_class, 2)) * 0.6 + np.array([gap, gap])
    return d0, d1


def closed_form_kernel(family: str, x: np.ndarray, y: np.ndarray, variance: float,
                       lengthscale: float, degree: int = 2,
                       support_radius: float | None = None) -> np.ndarray:
    """Scalar kernel values as whole-array expressions of each closed form.

    Squared distances are summed over explicit coordinate differences from
    zero, and every family is one expression with fresh temporaries, so an
    in-place evaluation that keeps the operation order must agree bit for bit.
    Points given as ``np.longdouble`` are evaluated in that type throughout.
    """
    s2, ell = variance, lengthscale
    if family in ("linear", "polynomial"):
        dots = (x @ y.T) / (ell * ell)
        if family == "linear":
            return s2 * dots
        return s2 * (1.0 + dots) ** degree
    d2 = np.zeros((x.shape[0], y.shape[0]))
    for xc, yc in zip(x.T, y.T):
        d2 = d2 + np.subtract.outer(xc, yc) ** 2
    r = np.sqrt(d2)
    if family == "se":
        return s2 * np.exp(-0.5 * d2 / (ell * ell))
    if family == "matern12":
        return s2 * np.exp(-r / ell)
    if family == "matern32":
        z = np.sqrt(r.dtype.type(3.0)) * r / ell
        return s2 * (1.0 + z) * np.exp(-z)
    if family == "matern52":
        z = np.sqrt(r.dtype.type(5.0)) * r / ell
        return s2 * (1.0 + z + z * z / 3.0) * np.exp(-z)
    if family == "wendland":
        t = r / support_radius
        return s2 * np.where(t < 1.0, (1.0 - t) ** 4 * (4.0 * t + 1.0), 0.0)
    raise ValueError(f"no closed form for {family!r}")


def einsum_metric_matrix(blocks: np.ndarray, covalue: np.ndarray) -> np.ndarray:
    """sqrt(max(t, 0)) of t_ab = s_aa + s_bb - 2 s_ab, s_ab = e^T c(i_a, i_b) e.

    ``blocks`` is the (n q) x (n q) point-major kernel matrix.
    """
    e = np.atleast_1d(np.asarray(covalue, dtype=float))
    q = e.size
    n = blocks.shape[0] // q
    s = np.einsum("aibj,ij->ab", blocks.reshape(n, q, n, q), np.outer(e, e))
    diag = np.diag(s)
    return np.sqrt(np.maximum(diag[:, None] + diag[None, :] - 2.0 * s, 0.0))


def stationary_kernel_oracle(spec, x: np.ndarray, y: np.ndarray,
                             metric: bool = False) -> np.ndarray:
    """A stationary kernel's matrix of x against y, or with ``metric`` (for x
    against itself) its sqrt(t_c) distances, as whole-array closed forms."""
    s = closed_form_kernel(spec.family, x, y, spec.variance, spec.lengthscale,
                           spec.degree, spec.support_radius)
    return einsum_metric_matrix(s, 1.0) if metric else s


def first_rows_tuples(points: np.ndarray) -> np.ndarray:
    """Index of the first row equal to each row, keyed by Python tuples."""
    first: dict[tuple, int] = {}
    return np.array([first.setdefault(tuple(row), a) for a, row in enumerate(points)],
                    dtype=np.intp)


def design_points_tuples(query: np.ndarray, observed: np.ndarray):
    """Query points, then the observed points the query lacks, and the
    position of each observed point in that list, keyed by Python tuples."""
    seen = {tuple(row) for row in query}
    extra = [row for row in observed if tuple(row) not in seen]
    points = np.vstack([query] + ([np.array(extra)] if extra else []))
    index_of = {tuple(row): i for i, row in enumerate(points)}
    return points, [index_of[tuple(row)] for row in observed]


def distinct_rows_last_tuples(points: np.ndarray) -> list[int]:
    """The last index of each distinct row, in first-occurrence order."""
    return list({tuple(row): a for a, row in enumerate(points)}.values())


def atom_table_tuples(probs, points) -> dict[tuple, float]:
    """Mass per atom keyed by the point rounded to 12 decimals, in order of
    first appearance; repeated atoms add up in row order."""
    table: dict[tuple, float] = {}
    for pr, pt in zip(probs, points):
        key = tuple(np.round(pt, 12))
        table[key] = table.get(key, 0.0) + float(pr)
    return table


def merged_atoms_tuples(probs, points) -> tuple[np.ndarray, np.ndarray]:
    """Masses and points of ``atom_table_tuples``, atoms sorted as tuples."""
    table = atom_table_tuples(probs, points)
    keys = sorted(table)
    return np.array([table[k] for k in keys]), np.array([list(k) for k in keys])


def total_variation_tuples(a, b) -> float:
    """Half the summed mass differences over the atoms of a, then b's new ones."""
    ta, tb = atom_table_tuples(a.probs, a.points), atom_table_tuples(b.probs, b.points)
    return 0.5 * sum(abs(ta.get(k, 0.0) - tb.get(k, 0.0)) for k in {**ta, **tb})


def locate_scan(point, table: np.ndarray, missing: str) -> int:
    """First row of ``table`` equal to one point, by a scan of every row."""
    target = np.atleast_1d(np.asarray(point, dtype=float))
    hits = np.flatnonzero(np.all(table == target[None, :], axis=1))
    if hits.size == 0:
        raise ValueError(f"point {target.tolist()} {missing}")
    return int(hits[0])


def transform_map_scan(design, targets: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The transform map built block by block, one ``locate_scan`` per target."""
    q_out, q = w.shape
    g = np.zeros((targets.shape[0] * q_out, design.n_points * q))
    for row, point in enumerate(targets):
        i = locate_scan(point, design.index_points, "is not a design point")
        g[row * q_out:(row + 1) * q_out, i * q:(i + 1) * q] = w
    return g


def coarray_apply_scan(phi, dataset) -> float:
    """sum_k w_k . a(i_k), left to right, one ``locate_scan`` per mass."""
    total = 0.0
    for w, p in zip(phi.weights, phi.points):
        total += float(w @ dataset.values[locate_scan(p, dataset.points,
                                                      "not present in dataset")])
    return total


def first_significant_positive(vecs: np.ndarray) -> np.ndarray:
    """Column loop: negate a column whose first entry above 1e-12 max(1, max|col|) is < 0."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
    return out


def eigh_factor_oracle(k: np.ndarray) -> np.ndarray:
    """Reference PSD factor: ``eigh`` of K, eigenpairs by descending eigenvalue,
    column signs by ``first_significant_positive``, and eigenvalues below
    ``1e-10 * max|K|`` (the default abs_psd) cut to zero."""
    w, v = np.linalg.eigh(k)
    order = np.argsort(w)[::-1]
    w = w[order]
    cut = 1e-10 * float(np.abs(k).max()) if k.size else 0.0
    return first_significant_positive(v[:, order]) * np.sqrt(np.where(w < cut, 0.0, w))


def format_csv_cellwise(header: list[str], rows: np.ndarray) -> str:
    """CSV text with every cell formatted on its own by ``format(x, ".17g")``."""
    out = [",".join(header)]
    for row in np.atleast_2d(rows):
        out.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(out) + "\n"


def canonical_json_cellwise(value) -> str:
    """Canonical JSON built value by value: arrays go through ``tolist()``."""

    def enc(v):
        if isinstance(v, dict):
            items = (f"{json.dumps(str(k))}:{enc(v[k])}" for k in sorted(v))
            return "{" + ",".join(items) + "}"
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(enc(x) for x in v) + "]"
        if isinstance(v, (bool, np.bool_)) or v is None:
            return json.dumps(bool(v) if v is not None else None)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            if not np.isfinite(float(v)):
                raise ValueError("reports must not contain non-finite numbers")
            return format(float(v), ".17g")
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, np.ndarray):
            return enc(v.tolist())
        raise TypeError(f"cannot serialize {type(v).__name__}")

    return enc(value) + "\n"


def support_solve_block(q: np.ndarray, a: np.ndarray, n1: int) -> np.ndarray:
    """SVM support solve with the KKT matrix assembled by ``np.block``."""
    m, m1 = a.size, int(np.searchsorted(a, n1))
    qa = q[np.ix_(a, a)]
    c = np.zeros((2, m))
    c[0, :m1] = 1.0
    c[1, m1:] = 1.0
    scale = max(1.0, float(np.abs(qa).max()))
    kkt = np.block([[2.0 * qa / scale, c.T], [c, np.zeros((2, 2))]])
    rhs = np.concatenate([np.zeros(m), [1.0, 1.0]])
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:m]
