import numpy as np
import pytest

from olskit import kernels
from olskit.arrays import (
    ArrayDesign,
    fuzzy_classify,
    krige,
    model_from_design,
    restriction_map,
    transform_map,
)
from olskit.kernels import (
    CoArray,
    IndexedDataset,
    KernelSpec,
    coarray_apply,
    cross_kernel,
    gram,
    kernel_eval,
)
from olskit.linalg import DEFAULT_TOL, NotPsdError, Tolerance, symmetrize
from olskit.model import (
    FiniteModel,
    SupportViolationError,
    estimator_delta_norm,
    ols_build,
    ols_estimate,
    operator_norm,
)

from helpers import coarray_apply_scan, first_rows_tuples, transform_map_scan


def grid_design(n=5, ell=0.5, q=1, b=None, family="se"):
    pts = np.linspace(0.0, 1.0, n)[:, None]
    spec = KernelSpec(family, lengthscale=ell, output_dim=q, coregionalization=b)
    return ArrayDesign(pts, spec)


class TestModelFromDesign:
    def test_single_point(self):
        design = ArrayDesign([[0.3]], KernelSpec("se", variance=2.0))
        model = model_from_design(design)
        assert model.n == 1
        assert np.allclose(model.cov, [[2.0]], atol=1e-15)
        assert np.array_equal(model.mean, [0.0])

    def test_mean_array(self):
        design = ArrayDesign([[0.0], [1.0]], KernelSpec("se"), mean=[[1.0], [2.0]])
        assert np.array_equal(model_from_design(design).mean, [1.0, 2.0])

    @pytest.mark.parametrize("mean", [[1.0, 2.0], [[1.0]], [[1.0, 0.0], [2.0, 0.0]],
                                      [[1.0], [np.nan]], [[np.inf], [2.0]]],
                             ids=["flat", "short", "wide", "nan", "inf"])
    def test_malformed_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="mean"):
            ArrayDesign([[0.0], [1.0]], KernelSpec("se"), mean=mean)

    def test_two_point_entrywise(self):
        design = grid_design(n=2, ell=0.7)
        model = model_from_design(design)
        spec = design.kernel
        for a in range(2):
            for b in range(2):
                want = kernel_eval(spec, design.index_points[a], design.index_points[b])[0, 0]
                assert abs(model.cov[a, b] - want) < 1e-14

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ArrayDesign([[0.0], [0.0]], KernelSpec("se"))

    def test_non_psd_custom_kernel_rejected(self):
        # unit variances with correlation -0.9 between every pair of three
        # points: the all-ones direction has eigenvalue 1 - 1.8 < 0
        spec = KernelSpec(
            "custom",
            eval_hook=lambda i, j: np.array([[1.0 if np.array_equal(i, j) else -0.9]]),
        )
        design = ArrayDesign([[0.0], [1.0], [2.0]], spec)
        with pytest.raises(NotPsdError, match="eigenvalue"):
            model_from_design(design)
        with pytest.raises(NotPsdError, match="eigenvalue"):
            krige(design, [0], [1.0])

    @staticmethod
    def skewed_design(slope):
        """exp(-(i-j)^2) + slope (i-j) on 6 points of [0, 1]: asymmetry 2 slope."""
        def hook(i, j):
            return np.array([[np.exp(-(i[0] - j[0]) ** 2) + slope * (i[0] - j[0])]])
        return ArrayDesign(np.linspace(0.0, 1.0, 6)[:, None], KernelSpec("custom", eval_hook=hook))

    def test_asymmetric_custom_kernel_rejected(self):
        design = self.skewed_design(0.3)
        with pytest.raises(NotPsdError, match="asymmetric"):
            model_from_design(design)
        with pytest.raises(NotPsdError, match="asymmetric"):
            krige(design, [0], [1.0])

    def test_slightly_asymmetric_custom_kernel_symmetrized_by_the_gate(self):
        design = self.skewed_design(1e-13)
        k = cross_kernel(design.kernel, design.index_points, design.index_points)
        assert not np.array_equal(k, k.T)
        assert np.array_equal(model_from_design(design).cov, symmetrize(k))

    @staticmethod
    def factorization_sizes(monkeypatch):
        """Shapes of the matrices each of np.linalg's eigvalsh, eigh and
        cholesky is called on, from now on."""
        sizes = {"eigvalsh": [], "eigh": [], "cholesky": []}
        for name in sizes:
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _name=name, **kwargs):
                sizes[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return sizes

    def test_krige_certifies_prior_with_one_cholesky_and_no_eigensolve(self, monkeypatch):
        # a Matern-5/2 Gram is PSD by theorem and its rounding is bounded
        # (kernels._gram_gate), so the prior is certified with no n x n
        # factorization at all, not even the gate's Cholesky
        n = 30
        design = grid_design(n=n, ell=0.3, family="matern52")
        sizes = self.factorization_sizes(monkeypatch)
        krige(design, list(range(0, n, 5)), np.arange(6.0))
        assert sizes["eigvalsh"].count((n, n)) == 0
        assert sizes["eigh"].count((n, n)) == 0
        assert sizes["cholesky"].count((n, n)) == 0

    @pytest.mark.parametrize("case", ["custom", "mixing", "wendland-d4", "small-abs-psd",
                                      "plain-array"])
    def test_uncertified_prior_takes_the_gate_cholesky(self, monkeypatch, case):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 1.0, (12, 4 if case == "wendland-d4" else 1))
        base = KernelSpec("se", lengthscale=0.5)
        specs = {
            "custom": KernelSpec("custom", eval_hook=lambda i, j: kernel_eval(base, i, j)),
            "mixing": KernelSpec("se", lengthscale=0.5, output_dim=2,
                                 coregionalization=[[2.0, 0.5], [0.5, 1.0]]),
            "wendland-d4": KernelSpec("wendland", support_radius=1.5),
        }
        # N (c + d) u = 12 * 65 * 2^-53, about 8.7e-14, above this abs_psd
        tol = Tolerance(abs_psd=1e-14) if case == "small-abs-psd" else DEFAULT_TOL
        design = ArrayDesign(pts, specs.get(case, base), tol=tol)
        size = 12 * design.q
        k = gram(design.kernel, pts)
        sizes = self.factorization_sizes(monkeypatch)
        if case == "plain-array":
            model = FiniteModel(np.zeros(size), k)
        else:
            model = model_from_design(design)
        assert np.array_equal(model.cov, k)
        assert sizes["cholesky"].count((size, size)) == 1


class TestRowKeys:
    def test_first_rows_and_distinctness_match_tuple_oracle(self):
        rng = np.random.default_rng(1620)
        for _ in range(80):
            n, d = int(rng.integers(0, 30)), int(rng.integers(0, 4))
            pts = rng.integers(-2, 3, (n, d)) * 0.5
            pts[rng.random((n, d)) < 0.3] *= -1.0  # -0.0 among the zeros
            want = first_rows_tuples(pts)
            assert np.array_equal(kernels._first_rows(pts), want)
            if n == 0:
                continue
            if np.array_equal(want, np.arange(n)):
                ArrayDesign(pts, KernelSpec("se"))
            else:
                with pytest.raises(ValueError, match="distinct"):
                    ArrayDesign(pts, KernelSpec("se"))


def lookup_cases():
    """Seeded designs with d, q <= 2 on a coarse grid; targets and co-array
    masses repeat points, a dataset repeats rows, and in half the cases the
    zeros being looked up are -0.0."""
    rng = np.random.default_rng(2829)
    values = np.arange(-2, 3) * 0.5
    for case in range(200):
        d, q = 1 + case % 2, 1 + (case // 2) % 2
        grid = np.stack(np.meshgrid(*[values] * d, indexing="ij"), axis=-1).reshape(-1, d)
        points = grid[rng.permutation(len(grid))[:int(rng.integers(1, 10))]]
        design = ArrayDesign(points, KernelSpec("se", output_dim=q))
        rows = points[rng.integers(0, len(points), int(rng.integers(1, 12)))]
        dataset = IndexedDataset(rows, rng.standard_normal((len(rows), q)))
        targets = points[rng.integers(0, len(points), int(rng.integers(0, 8)))]
        masses = rows[rng.integers(0, len(rows), int(rng.integers(0, 8)))]
        if case % 4 < 2:
            targets[targets == 0.0] = -0.0
            masses[masses == 0.0] = -0.0
        w = rng.standard_normal((int(rng.integers(1, 3)), q))
        phi = CoArray(rng.standard_normal((len(masses), q)), masses)
        yield design, targets, w, dataset, phi


class TestLookupMatchesScanOracle:
    def test_transform_map_and_coarray_apply(self):
        repeated_rows = 0
        for design, targets, w, dataset, phi in lookup_cases():
            got = transform_map(design, targets, w)
            assert got.tobytes() == transform_map_scan(design, targets, w).tobytes()
            assert repr(coarray_apply(phi, dataset)) == repr(coarray_apply_scan(phi, dataset))
            repeated_rows += not np.array_equal(first_rows_tuples(dataset.points),
                                                np.arange(len(dataset.points)))
        assert repeated_rows > 0

    def test_first_missing_point_is_named(self):
        design = grid_design(n=3)
        targets = np.array([[0.5], [0.31], [1.0], [0.77]])
        with pytest.raises(ValueError) as want:
            transform_map_scan(design, targets, np.eye(1))
        with pytest.raises(ValueError) as got:
            transform_map(design, targets, np.eye(1))
        assert str(got.value) == str(want.value) == "point [0.31] is not a design point"
        dataset = IndexedDataset(design.index_points, np.zeros((3, 1)))
        phi = CoArray(np.ones((4, 1)), targets)
        with pytest.raises(ValueError, match=r"^point \[0\.31\] not present in dataset$"):
            coarray_apply(phi, dataset)


class TestRestrictionMap:
    def test_full_subset_identity(self):
        design = grid_design(n=4)
        obs = restriction_map(design, [0, 1, 2, 3])
        assert np.array_equal(obs, np.eye(4))

    def test_empty_subset_prior_mean(self):
        design = ArrayDesign([[0.0], [1.0]], KernelSpec("se"), mean=[[0.0], [2.0]])
        result = krige(design, [], np.zeros((0, 1)))
        assert np.allclose(result.values[:, 0], [0.0, 2.0], atol=1e-14)

    def test_singleton_one_hot(self):
        design = grid_design(n=3)
        obs = restriction_map(design, [1])
        assert np.array_equal(obs, np.array([[0.0, 1.0, 0.0]]))

    def test_block_rows_for_vector_values(self):
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        design = grid_design(n=3, q=2, b=b)
        obs = restriction_map(design, [2])
        want = np.zeros((2, 6))
        want[:, 4:6] = np.eye(2)
        assert np.array_equal(obs, want)

    def test_invalid_subset(self):
        design = grid_design(n=3)
        with pytest.raises(ValueError, match="out of range"):
            restriction_map(design, [3])
        with pytest.raises(ValueError, match="distinct"):
            restriction_map(design, [1, 1])

    @pytest.mark.parametrize("subset", [[0.5, 2.9], [True, 2]], ids=["float", "bool"])
    def test_non_integer_subset_rejected(self, subset):
        # int() would truncate these to positions (0, 2) and (1, 2)
        design = grid_design(n=4)
        calls = [
            lambda: restriction_map(design, subset),
            lambda: krige(design, subset, np.zeros(2)),
            lambda: fuzzy_classify(design, subset[:1], subset[1:]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be an integer"):
                call()

    def test_numpy_integers_accepted(self):
        design = grid_design(n=4)
        g = restriction_map(design, np.array([2, 0], dtype=np.int32))
        assert np.array_equal(g, np.eye(4)[[2, 0]])


class TestTransformMap:
    def test_inclusion_identity_equals_restriction(self):
        design = grid_design(n=5)
        subset = [1, 3]
        assert np.array_equal(
            transform_map(design, design.index_points[subset], np.eye(1)),
            restriction_map(design, subset),
        )

    def test_permutation(self):
        design = grid_design(n=4)
        order = [2, 0, 3, 1]
        g = transform_map(design, design.index_points[order], np.eye(1))
        assert np.array_equal(g, np.eye(4)[order])

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        b = np.array([[1.5, 0.2], [0.2, 0.8]])
        design = grid_design(n=6, q=2, b=b)
        w = rng.standard_normal((3, 2))
        targets = design.index_points[[4, 1, 1]]
        g = transform_map(design, targets, w)
        for _ in range(20):
            a = rng.standard_normal((6, 2))
            direct = np.vstack([w @ a[4], w @ a[1], w @ a[1]]).ravel()
            assert np.abs(g @ a.ravel() - direct).max() < 1e-12

    def test_target_not_in_design(self):
        design = grid_design(n=3)
        with pytest.raises(ValueError, match="not a design point"):
            transform_map(design, [[0.31]], np.eye(1))

    def test_refuses_a_point_of_another_dimension(self):
        # the per-point scan broadcast the 1-d target onto (1, 1)
        design = ArrayDesign([[1.0, 1.0], [2.0, 3.0]], KernelSpec("se"))
        with pytest.raises(ValueError, match="index dimension mismatch: 2 vs 1"):
            transform_map(design, [[1.0]], [[1.0]])

    def test_estimation_through_general_transform(self):
        # observe weighted combinations of vector values at re-indexed
        # points and recover an array consistent with the transformed data
        rng = np.random.default_rng(12)
        b = np.array([[1.2, 0.3], [0.3, 0.9]])
        design = grid_design(n=5, ell=0.8, q=2, b=b)
        w = np.array([[1.0, -0.5]])  # collapse the two value dims
        targets = design.index_points[[0, 2, 4]]
        obs = transform_map(design, targets, w)
        model = model_from_design(design)
        est = ols_build(model, obs)
        truth = (model_from_design(design).cov @ rng.standard_normal(10))
        y = obs @ truth
        recovered = ols_estimate(est, y)
        assert np.abs(obs @ recovered - y).max() < 1e-8


class TestKrige:
    def test_reproduces_observations(self):
        design = grid_design(n=5, ell=0.5)
        observed = [1, 3]
        y = np.array([0.7, -0.4])
        result = krige(design, observed, y)
        assert np.abs(result.values[observed, 0] - y).max() < 1e-8

    def test_zero_data_zero_mean(self):
        design = grid_design(n=5)
        result = krige(design, [0, 2], np.zeros(2))
        assert np.abs(result.values).max() < 1e-12

    def test_gram_solve_oracle_1d(self):
        design = grid_design(n=5, ell=0.5)
        observed = [0, 3]
        y = np.array([1.0, 2.0])
        result = krige(design, observed, y)
        k = gram(design.kernel, design.index_points)
        direct = k[:, observed] @ np.linalg.solve(k[np.ix_(observed, observed)], y)
        assert np.abs(result.values[:, 0] - direct).max() < 1e-8

    @pytest.mark.parametrize("shift", [1e3, 1e5])
    def test_translation_invariant_far_from_origin(self, shift):
        # a stationary kernel sees only differences; the points sit on a
        # 2^-20 grid, so shifting them by 1e5 is exact and every digit lost
        # here is lost in the kernel arithmetic
        rng = np.random.default_rng(3)
        x = 0.1 * (np.arange(500) + rng.uniform(-0.2, 0.2, 500))
        x = np.round(x * 2.0 ** 20) / 2.0 ** 20
        observed = list(range(2, 500, 5))
        y = np.sin(x[observed])
        spec = KernelSpec("matern52", lengthscale=0.5)
        near = krige(ArrayDesign(x[:, None], spec), observed, y).values
        far = krige(ArrayDesign((x + shift)[:, None], spec), observed, y).values
        assert np.abs(far - near).max() <= 1e-10

    def test_gram_solve_oracle_2d(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((7, 2))
        design = ArrayDesign(pts, KernelSpec("matern32", lengthscale=1.2))
        observed = [0, 2, 5]
        y = rng.standard_normal(3)
        result = krige(design, observed, y)
        k = gram(design.kernel, pts)
        direct = k[:, observed] @ np.linalg.solve(k[np.ix_(observed, observed)], y)
        assert np.abs(result.values[:, 0] - direct).max() < 1e-8

    def test_dense_observation_is_identity(self):
        rng = np.random.default_rng(4)
        design = grid_design(n=6, ell=0.4)
        y = rng.standard_normal(6)
        result = krige(design, list(range(6)), y)
        assert np.abs(result.values[:, 0] - y).max() < 1e-8

    def test_unbiasedness_on_mean_array(self):
        design = ArrayDesign(
            np.linspace(0, 1, 5)[:, None],
            KernelSpec("se", lengthscale=0.5),
            mean=np.sin(3.0 * np.linspace(0, 1, 5))[:, None],
        )
        mean = design.mean
        result = krige(design, [1, 4], mean[[1, 4], 0])
        assert np.abs(result.values - mean).max() < 1e-10

    def test_vector_valued_kriging(self):
        b = np.array([[2.0, 1.0], [1.0, 1.5]])
        design = grid_design(n=4, ell=0.6, q=2, b=b)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((2, 2))
        result = krige(design, [0, 2], y)
        assert result.values.shape == (4, 2)
        assert np.abs(result.values[[0, 2]] - y).max() < 1e-8

    def test_inconsistent_offsupport_data_raises(self):
        # linear kernel on collinear 1-d points has a rank-1 gram; data not
        # proportional to the point coordinates violates the support
        design = ArrayDesign([[1.0], [2.0], [3.0]], KernelSpec("linear"))
        with pytest.raises(SupportViolationError):
            krige(design, [0, 1], np.array([1.0, 5.0]))

    def test_offsupport_projection_optin(self):
        design = ArrayDesign([[1.0], [2.0], [3.0]], KernelSpec("linear"))
        result = krige(design, [0, 1], np.array([1.0, 5.0]), project=True)
        assert np.all(np.isfinite(result.values))

    def test_project_must_be_a_bool(self):
        # a truthy string used to project the off-support data
        design = ArrayDesign([[1.0], [2.0], [3.0]], KernelSpec("linear"))
        with pytest.raises(ValueError, match="^project: must be True or False"):
            krige(design, [0, 1], np.array([1.0, 5.0]), project="no")

    def test_values_must_be_numbers(self):
        # the string used to be read as 1.5
        design = ArrayDesign([[0.0], [1.0]], KernelSpec("se"))
        with pytest.raises(ValueError, match="^data: expected numbers"):
            krige(design, [0], ["1.5"])
        with pytest.raises(ValueError, match="^data: expected numbers"):
            krige(design, [0, 1], [True, False])

    def test_near_duplicate_points_keep_support_semantics(self):
        # a numerically rank-deficient observed block is truncated: nine SE
        # points on [0, 1] keep 7 singular values above the rank cut, data on
        # that range still krige and data off it raise
        pts = np.concatenate([np.linspace(0, 1, 8), [0.5 + 1e-12]])[:, None]
        design = ArrayDesign(pts, KernelSpec("se", lengthscale=1.0))
        ok = krige(design, list(range(9)), np.zeros(9))
        assert ok.rank == 7
        assert np.abs(ok.values).max() < 1e-10
        bad = np.zeros(9)
        bad[8] = 1.0  # off the range of the truncated block
        with pytest.raises(SupportViolationError):
            krige(design, list(range(9)), bad)

    def test_perturbation_bound(self):
        # end-to-end kriging perturbation bounded by M |dy| + Delta |y'|
        rng = np.random.default_rng(6)
        pts = np.linspace(0, 1, 6)[:, None]
        observed = [0, 2, 5]
        design_a = ArrayDesign(pts, KernelSpec("se", lengthscale=0.7))
        design_b = ArrayDesign(pts, KernelSpec("se", lengthscale=0.75))
        y = rng.standard_normal(3)
        dy = 1e-2 * rng.standard_normal(3)
        pred_a = krige(design_a, observed, y).values.ravel()
        pred_b = krige(design_b, observed, y + dy).values.ravel()
        model_a = model_from_design(design_a)
        model_b = model_from_design(design_b)
        obs = restriction_map(design_a, observed)
        m_norm = operator_norm(ols_build(model_a, obs))
        delta = estimator_delta_norm(model_a, model_b, obs)
        lhs = np.linalg.norm(pred_b - pred_a)
        rhs = m_norm * np.linalg.norm(dy) + delta * np.linalg.norm(y + dy)
        assert lhs <= rhs + 1e-9


JITTER_FAMILIES = [
    KernelSpec("se", lengthscale=0.8, variance=1.3),
    KernelSpec("matern12", lengthscale=0.5, variance=0.7),
    KernelSpec("matern32", lengthscale=1.2, variance=2.0),
    KernelSpec("matern52", lengthscale=0.9, variance=1.1),
    KernelSpec("linear", lengthscale=1.5, variance=0.8),
    KernelSpec("polynomial", lengthscale=1.0, variance=0.6, degree=3),
    KernelSpec("wendland", variance=1.0, support_radius=2.5),
]


class TestJitter:
    """``krige`` once solved with S + 1e-10 * variance * I when the observed
    block S passed the rank test yet had cond(S) > 1e12.  The rank test
    bounds cond(S) below 1 / (rcond p), so that jitter never fired at the
    default rcond and broke reproduction below it; kriging is now the
    least-squares estimator alone, and these tests pin the rank it reports."""

    @pytest.mark.parametrize("spec", JITTER_FAMILIES, ids=lambda spec: spec.family)
    def test_never_fires_at_the_default_rcond(self, spec):
        # Three observed points, two of them a distance h apart, sweep cond(S)
        # from O(1) past the cut 1 / (rcond p).  The reported rank counts
        # numpy's singular values of the observed Gram above rcond p sigma_max;
        # the Gram of the three points alone may round differently, so a
        # count may differ only where a singular value lies at the cut.
        rng = np.random.default_rng(31)
        p = 3
        cut = 1.0 / (DEFAULT_TOL.rcond * p)
        conds, ranks = [], set()
        for _ in range(80):
            pts = rng.uniform(0.0, 2.0, (8, 3))
            direction = rng.standard_normal(3)
            h = 10.0 ** -rng.uniform(0.0, 14.0)
            pts[1] = pts[0] + h * direction / np.linalg.norm(direction)
            result = krige(ArrayDesign(pts, spec), [0, 1, 2], rng.standard_normal(p),
                           project=True)
            sv = np.linalg.svd(gram(spec, pts[:p]), compute_uv=False)
            threshold = DEFAULT_TOL.rcond * p * sv[0]
            if result.rank != np.count_nonzero(sv > threshold):
                assert np.abs(sv - threshold).min() <= 1e-8 * threshold
            ranks.add(result.rank)
            if sv[-1] > threshold:
                conds.append(sv[0] / sv[-1])
        assert max(conds) < cut
        assert max(conds) > cut / 10.0  # the sweep reaches the rank cut
        assert p in ranks and min(ranks) < p  # and both sides of it

    def test_reproduces_data_below_the_default_rcond(self):
        # SE points 0 and 1e-6: cond(S) is about 2e12, so S has rank 1 at the
        # default rcond and rank 2 at rcond 1e-16; both reproduce the data
        pts = [[0.0], [1e-6]]
        y = np.ones(2)
        for rcond, rank in ((DEFAULT_TOL.rcond, 1), (1e-16, 2)):
            design = ArrayDesign(pts, KernelSpec("se"), tol=Tolerance(rcond=rcond))
            result = krige(design, [0, 1], y)
            assert result.rank == rank
            assert np.abs(result.values[:, 0] - y).max() < 1e-12


class TestFuzzyClassify:
    def test_reproduces_labels(self):
        design = grid_design(n=7, ell=0.3)
        lam = fuzzy_classify(design, [0, 1], [5, 6])
        assert np.abs(lam[[0, 1]]).max() < 1e-8
        assert np.abs(lam[[5, 6]] - 1.0).max() < 1e-8

    def test_symmetric_midpoint_half(self):
        design = grid_design(n=3, ell=0.5)  # points 0, 0.5, 1
        lam = fuzzy_classify(design, [0], [2])
        assert abs(lam[1] - 0.5) < 1e-8

    def test_mirror_symmetric_sets(self):
        pts = np.array([[0.0], [0.1], [0.5], [0.9], [1.0]])
        design = ArrayDesign(pts, KernelSpec("matern52", lengthscale=0.4))
        lam = fuzzy_classify(design, [0, 1], [3, 4])
        assert abs(lam[2] - 0.5) < 1e-8

    def test_equals_krige_of_indicator_dataset(self):
        design = grid_design(n=6, ell=0.4)
        d0, d1 = [0, 1], [4, 5]
        lam = fuzzy_classify(design, d0, d1)
        shifted = ArrayDesign(design.index_points, design.kernel,
                              mean=np.full((design.n_points, 1), 0.5))
        direct = krige(shifted, d0 + d1, np.array([0.0, 0.0, 1.0, 1.0]))
        assert np.abs(lam - direct.values[:, 0]).max() < 1e-12

    def test_interpolates_between(self):
        design = grid_design(n=11, ell=0.25)
        lam = fuzzy_classify(design, [0], [10])
        assert np.all(lam[1:10] > -0.2) and np.all(lam[1:10] < 1.2)

    @pytest.mark.parametrize("prior", [True, "0.5", float("nan")])
    def test_prior_must_be_a_number(self, prior):
        with pytest.raises(ValueError, match="^prior: "):
            fuzzy_classify(grid_design(n=4), [0], [3], prior=prior)

    def test_overlapping_sets_rejected(self):
        design = grid_design(n=4)
        with pytest.raises(ValueError, match="disjoint"):
            fuzzy_classify(design, [0, 1], [1, 3])
