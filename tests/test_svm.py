import warnings

import numpy as np
import pytest

from olskit import svm
from olskit.kernels import KernelSpec, kernel_eval, scalar_kernel
from olskit.linalg import DEFAULT_TOL, NotPsdError, Tolerance, check_psd
from olskit.svm import (
    ConvergenceError,
    _support_solve,
    SeparationError,
    SvmModel,
    SvmProblem,
    decision_values,
    margin_check,
    svm_train,
    xi_distance,
)

from helpers import (
    blobs_2d,
    distinct_rows_last_tuples,
    nearest_point_gap,
    support_solve_block,
    svm_qp_oracle,
)

LINEAR = KernelSpec("linear")
SE = KernelSpec("se", lengthscale=1.5)


def line_problem():
    # D0 = {0}, D1 = {2} with the plain dot-product kernel:
    # t_c(0, 2) = 0 - 0 + 4, so rho = 2 and the boundary sits at i = 1
    return SvmProblem(LINEAR, [[0.0]], [[2.0]])


def blobs_problem(seed=0):
    d0, d1 = blobs_2d(seed)
    return SvmProblem(SE, d0, d1)


# the classify-svm benchmark's training sets: 2 x 60 blobs, SE with l = 0.7
BENCH_SPEC = KernelSpec("se", lengthscale=0.7)


def benchmark_blobs(seed, k):
    rng = np.random.default_rng([seed, k])
    c = np.array([1.5, 0.0])
    d0 = -c + 0.5 * rng.standard_normal((60, 2))
    d1 = c + 0.5 * rng.standard_normal((60, 2))
    return d0, d1


def recomputed_gap(problem, model):
    """Duality gap of a trained model from a Gram built by ``scalar_kernel``."""
    d0, d1, spec = problem.d0, problem.d1, problem.kernel
    return nearest_point_gap(scalar_kernel(spec, d1, d1), scalar_kernel(spec, d1, d0),
                             scalar_kernel(spec, d0, d0), model.nu1, model.nu0)


@pytest.mark.filterwarnings("ignore:kernel gram is not strictly positive definite")
class TestLineFixture:
    def test_margin_and_offset(self):
        model = svm_train(line_problem())
        assert abs(model.rho - 2.0) < 1e-6
        assert abs(model.offset - 2.0) < 1e-6
        assert np.array_equal(model.nu0, [1.0])
        assert np.array_equal(model.nu1, [1.0])

    def test_boundary_at_one(self):
        problem = line_problem()
        model = svm_train(problem)
        assert abs(decision_values(model, problem, [[1.0]])[0]) < 1e-6

    def test_tie_breaks_to_label_one(self):
        problem = line_problem()
        model = svm_train(problem)
        assert decision_values(model, problem, [[1.0]])[0] >= 0.0

    def test_training_points_classified(self):
        problem = line_problem()
        model = svm_train(problem)
        assert decision_values(model, problem, [[0.0]])[0] < 0.0
        assert decision_values(model, problem, [[2.0]])[0] >= 0.0

    def test_far_point(self):
        problem = line_problem()
        model = svm_train(problem)
        assert decision_values(model, problem, [[50.0]])[0] >= 0.0

    def test_margin_values_at_support_vectors(self):
        problem = line_problem()
        model = svm_train(problem)
        assert abs(decision_values(model, problem, [[2.0]])[0] - model.rho**2 / 2) < 1e-6
        assert abs(decision_values(model, problem, [[0.0]])[0] + model.rho**2 / 2) < 1e-6

    def test_margin_check(self):
        problem = line_problem()
        model = svm_train(problem)
        report = margin_check(model, problem, tol=1e-6)
        assert report.passed
        assert report.support_indices_0 == (0,)
        assert report.support_indices_1 == (0,)

    def test_offset_shift_keeps_training_signs(self):
        problem = SvmProblem(LINEAR, [[1.0]], [[3.0]])  # same geometry shifted
        model = svm_train(problem)
        assert decision_values(model, problem, [[1.0]])[0] < 0.0
        assert decision_values(model, problem, [[3.0]])[0] >= 0.0


class TestSingletonsAndDuplicates:
    def test_singleton_sets_any_kernel(self):
        problem = SvmProblem(SE, [[0.0, 0.0]], [[2.0, 1.0]])
        model = svm_train(problem)
        assert np.array_equal(model.nu0, [1.0])
        assert np.array_equal(model.nu1, [1.0])

    def test_within_class_duplicate_under_se_keeps_gate_quiet(self):
        problem = blobs_problem(0)
        base = svm_train(problem)
        d1 = np.vstack([problem.d1, problem.d1[:1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dup = svm_train(SvmProblem(SE, problem.d0, d1))
        assert abs(dup.rho - base.rho) < 1e-8

    @pytest.mark.filterwarnings("ignore:kernel gram is not strictly positive definite")
    def test_duplicate_support_point_leaves_margin_unchanged(self):
        base = svm_train(line_problem())
        with pytest.warns(RuntimeWarning, match="strictly positive"):
            dup = svm_train(SvmProblem(LINEAR, [[0.0]], [[2.0], [2.0]]))
        assert abs(dup.rho - base.rho) < 1e-8


class TestRowKeys:
    def test_signed_zero_makes_sets_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            SvmProblem(SE, [[0.0, 1.0], [2.0, 2.0]], [[3.0, 3.0], [-0.0, 1.0]])

    def test_gate_reads_the_last_copy_of_each_point(self, monkeypatch):
        gated = []

        def recorded(a, *args, **kwargs):
            gated.append(a.copy())
            return check_psd(a, *args, **kwargs)

        monkeypatch.setattr(svm, "check_psd", recorded)
        # an SE kernel that tells -0.0 from 0.0 in the first coordinate, so
        # the gate matrix shows which copy of a repeated point it kept
        spec = KernelSpec("custom", eval_hook=lambda i, j: np.array([[
            np.exp(-0.5 * np.sum((i - j) ** 2))
            * (1.0 + 0.5 * np.signbit(i[0]) * np.signbit(j[0]))]]))
        rng = np.random.default_rng(1619)
        for _ in range(20):
            d0 = np.round(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 12)), 2)))
            d1 = np.round(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 12)), 2))) + 3.0
            d0[(d0 == 0.0) & (rng.random(d0.shape) < 0.5)] = -0.0
            problem = SvmProblem(spec, d0, d1)
            gated.clear()
            q = problem.signed_gram
            uniq = distinct_rows_last_tuples(np.vstack([d1, d0]))
            assert len(gated) == 1
            assert np.array_equal(gated[0], q[np.ix_(uniq, uniq)])


class TestBlobs:
    def test_zero_training_errors_and_gap(self):
        problem = blobs_problem(0)
        model = svm_train(problem, tol=1e-10)
        assert model.gap <= 1e-10
        g0 = decision_values(model, problem, problem.d0)
        g1 = decision_values(model, problem, problem.d1)
        assert np.all(g0 < 0.0) and np.all(g1 >= 0.0)

    def test_margin_check_random_blobs(self):
        for seed in range(5):
            problem = blobs_problem(seed)
            model = svm_train(problem, tol=1e-10)
            assert margin_check(model, problem, tol=1e-4).passed

    def test_objective_matches_qp_oracle(self):
        problem = blobs_problem(1)
        model = svm_train(problem, tol=1e-12)
        k11 = scalar_kernel(SE, problem.d1, problem.d1)
        k10 = scalar_kernel(SE, problem.d1, problem.d0)
        k00 = scalar_kernel(SE, problem.d0, problem.d0)
        reference = svm_qp_oracle(k11, k10, k00)
        assert abs(model.objective - reference) < 1e-8

    def test_kernel_expansion_equals_objective(self):
        problem = blobs_problem(2)
        model = svm_train(problem, tol=1e-10)
        k11 = scalar_kernel(SE, problem.d1, problem.d1)
        k10 = scalar_kernel(SE, problem.d1, problem.d0)
        k00 = scalar_kernel(SE, problem.d0, problem.d0)
        expansion = (
            model.nu1 @ k11 @ model.nu1
            - 2.0 * model.nu1 @ k10 @ model.nu0
            + model.nu0 @ k00 @ model.nu0
        )
        assert abs(expansion - model.rho**2) < 1e-8

    def test_xi_reproducible_across_initializations(self):
        problem = blobs_problem(3)
        runs = [
            svm_train(problem, tol=2e-13, init_seed=seed)
            for seed in (None, 11, 77)
        ]
        for other in runs[1:]:
            assert xi_distance(problem, runs[0], other) <= 1e-6

    def test_xi_distance_between_different_models(self):
        problem = blobs_problem(3)
        trained = svm_train(problem)
        n0, n1 = len(problem.d0), len(problem.d1)
        uniform = SvmModel(nu0=np.full(n0, 1.0 / n0), nu1=np.full(n1, 1.0 / n1),
                           rho=0.0, offset=0.0, gap=0.0, objective=0.0, n_iter=0)
        c = np.concatenate([trained.nu1 - uniform.nu1, -(trained.nu0 - uniform.nu0)])
        pts = np.vstack([problem.d1, problem.d0])
        expected = np.sqrt(c @ scalar_kernel(SE, pts, pts) @ c)
        assert expected > 0.1
        assert abs(xi_distance(problem, trained, uniform) - expected) <= 1e-12 * expected

    def test_objective_nonincreasing(self):
        problem = blobs_problem(4)
        trace: list = []
        svm_train(problem, tol=1e-10, trace=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)

    def test_decision_continuity(self):
        problem = blobs_problem(5)
        model = svm_train(problem)
        base = decision_values(model, problem, [[1.0, 1.0]])[0]
        for h in (1e-4, 1e-5):
            nearby = decision_values(model, problem, [[1.0 + h, 1.0]])[0]
            assert abs(nearby - base) < 10 * h


class TestFailureModes:
    def test_non_separable_hulls(self):
        # phi(0) lies inside the hull of {phi(-1), phi(1)} for the linear kernel
        with pytest.warns(RuntimeWarning, match="strictly positive"):
            with pytest.raises(SeparationError):
                svm_train(SvmProblem(LINEAR, [[-1.0], [1.0]], [[0.0]]))

    def test_max_iter_exceeded(self):
        problem = blobs_problem(6)
        with pytest.raises(ConvergenceError) as err:
            svm_train(problem, tol=1e-14, max_iter=2)
        assert err.value.gap > 0.0

    @pytest.mark.parametrize("tol, message", [
        (float("nan"), "tol: must be finite"), (0.0, "tol: must be > 0"),
        (-1e-10, "tol: must be > 0"), (True, "tol: expected a number"),
        ("1e-10", "tol: expected a number"),
    ], ids=["nan", "zero", "negative", "bool", "string"])
    def test_tol_must_be_a_positive_number(self, tol, message):
        # a NaN tol made the final gap test false and returned an unchecked model
        with pytest.raises(ValueError, match="^" + message):
            svm_train(blobs_problem(6), tol=tol, max_iter=2)

    @pytest.mark.parametrize("max_iter", [0, True, 2.5])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValueError, match="^max_iter: must be an integer >= 1$"):
            svm_train(blobs_problem(6), max_iter=max_iter)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SvmProblem(SE, [[0.0, 0.0]], [[0.0, 0.0]])

    def test_non_psd_custom_kernel_rejected(self):
        # correlation -0.9 between every pair of three points: the all-ones
        # direction has eigenvalue 1 - 1.8
        spec = KernelSpec(
            "custom",
            eval_hook=lambda i, j: np.array([[1.0 if np.array_equal(i, j) else -0.9]]),
        )
        with pytest.raises(NotPsdError, match=r"^kernel gram is not PSD: "
                           r"eigenvalue -8\.000e-01 < -abs_psd\*max\|K\|$"):
            svm_train(SvmProblem(spec, [[0.0], [1.0]], [[2.0]]))

    def test_vector_kernel_rejected(self):
        spec = KernelSpec("se", output_dim=2)
        with pytest.raises(ValueError, match="scalar"):
            SvmProblem(spec, [[0.0]], [[1.0]])


def prescribed_spectrum_problem(rng, lam_min_over_floor):
    """Points 0..n-1 whose kernel is Q diag(lam) Q^T, lambda_min set in floors.

    Every other eigenvalue lies in [1e-3, 0.9], so max|K| < 1.  The floor,
    abs_psd * max|K|, is read with lambda_min at zero; setting lambda_min
    then moves max|K| by a relative 1e-9 at most.
    """
    n = int(rng.integers(3, 30))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[0.0], rng.uniform(1e-3, 0.9, n - 1)])
    lam[0] = lam_min_over_floor * 1e-10 * np.abs((q * lam) @ q.T).max()
    k = (q * lam) @ q.T
    k = 0.5 * (k + k.T)
    assert np.abs(k).max() < 1.0
    spec = KernelSpec("custom", eval_hook=lambda i, j: k[int(i[0]), int(j[0])][None, None])
    n1 = int(rng.integers(1, n))
    pts = np.arange(float(n))[:, None]
    return SvmProblem(spec, pts[n1:], pts[:n1]), k  # [d1; d0] is points 0..n-1


@pytest.mark.parametrize("lam_min_over_floor, verdict", [
    (10.0, "quiet"), (2.0, "quiet"), (0.5, "warns"), (0.0, "warns"), (-10.0, "rejects"),
])
def test_strict_pd_warning_follows_lambda_min(lam_min_over_floor, verdict, monkeypatch):
    # the warning fires exactly when lambda_min <= floor, decided by Cholesky:
    # an eigensolve runs only to name lambda_min in a rejection
    eigvalsh = np.linalg.eigvalsh
    eigensolves = []

    def recorded(a, *args, **kwargs):
        eigensolves.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    rng = np.random.default_rng([4409, int(lam_min_over_floor * 10) + 100])
    for _ in range(25):
        problem, k = prescribed_spectrum_problem(rng, lam_min_over_floor)
        lam_min = float(eigvalsh(k)[0])
        eigensolves.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if verdict == "rejects":
                assert lam_min < -1e-10 * np.abs(k).max()
                with pytest.raises(NotPsdError, match="eigenvalue"):
                    problem.signed_gram
                assert len(eigensolves) == 1
                continue
            problem.signed_gram
        assert eigensolves == []
        warned = [w for w in caught if "strictly positive definite" in str(w.message)]
        assert len(warned) == (verdict == "warns")
        assert (lam_min <= 1e-10 * np.abs(k).max()) == (verdict == "warns")


class TestGramCertificate:
    """``signed_gram`` asks ``kernels._gram_gate`` first: a Gram it certifies
    is strictly PD at distinct points by theorem, so nothing is factored and
    nothing warns; any other takes ``check_psd`` and the -floor Cholesky."""

    @staticmethod
    def recorded(monkeypatch):
        """From now on, the name of every np.linalg function called, and
        ("check_psd", floor) and ("strict", shift) for svm's two gates."""
        calls, gates = [], []
        for name in np.linalg.__all__:
            original = getattr(np.linalg, name)
            if isinstance(original, type) or not callable(original):
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        check, strict = svm.check_psd, svm._cholesky_certifies

        def checked(*args, **kwargs):
            gate = check(*args, **kwargs)
            gates.append(("check_psd", gate.floor))
            return gate

        def certifies(sym, shift):
            gates.append(("strict", shift))
            return strict(sym, shift)

        monkeypatch.setattr(svm, "check_psd", checked)
        monkeypatch.setattr(svm, "_cholesky_certifies", certifies)
        return calls, gates

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", ["se", "matern12", "matern32", "matern52",
                                        "wendland"])
    def test_certified_gram_is_neither_factored_nor_warned(self, monkeypatch, family, d):
        rng = np.random.default_rng([2024, d])
        d0 = rng.standard_normal((25, d))
        d1 = rng.standard_normal((25, d)) + 3.0
        d1 = np.vstack([d1, d1[:2]])  # repeated points make Q singular
        radius = 2.0 if family == "wendland" else None
        problem = SvmProblem(KernelSpec(family, lengthscale=0.7, support_radius=radius),
                             d0, d1)
        calls, gates = self.recorded(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem.signed_gram
        assert calls == [] and gates == []

    def test_benchmark_gram_is_certified_though_numerically_singular(self, monkeypatch):
        # a benchmark input, whose computed Gram fails the -floor Cholesky,
        # yet the kernel is strictly PD at distinct points
        problem = SvmProblem(BENCH_SPEC, *benchmark_blobs(5, 0))
        calls, gates = self.recorded(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = problem.signed_gram
        assert calls == [] and gates == []
        monkeypatch.undo()
        gate = check_psd(q)
        assert not svm._cholesky_certifies(gate.matrix, -gate.floor)

    @pytest.mark.parametrize("case", ["linear", "polynomial", "custom", "mixing",
                                      "wendland-d4", "small-abs-psd"])
    def test_uncertified_gram_takes_check_psd_then_the_strict_cholesky(
            self, monkeypatch, case):
        rng = np.random.default_rng(77)
        d = 4 if case == "wendland-d4" else 2
        d0 = rng.standard_normal((10, d))
        d1 = rng.standard_normal((10, d)) + 3.0
        base = KernelSpec("se", lengthscale=0.7)
        spec = {
            "linear": KernelSpec("linear"),
            "polynomial": KernelSpec("polynomial", degree=3),
            "custom": KernelSpec("custom", eval_hook=lambda i, j: kernel_eval(base, i, j)),
            "mixing": KernelSpec("se", lengthscale=0.7, coregionalization=[[1.0]]),
            "wendland-d4": KernelSpec("wendland", support_radius=5.0),
        }.get(case, base)
        # N (c + d) u = 20 * 66 * 2^-53, about 1.5e-13, above this abs_psd
        tol = Tolerance(abs_psd=1e-14) if case == "small-abs-psd" else DEFAULT_TOL
        problem = SvmProblem(spec, d0, d1, tol)
        calls, gates = self.recorded(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            problem.signed_gram
        (check, floor), strict = gates
        assert check == "check_psd" and floor > 0.0
        assert strict == ("strict", -floor)
        assert calls[-1] == "cholesky"


@pytest.mark.parametrize("seed", range(6))
def test_support_solve_matches_block_assembly(seed):
    # the KKT matrix is filled in place, entry for entry the np.block one
    rng = np.random.default_rng(seed)
    d0, d1 = blobs_2d(seed, n_per_class=15)
    spec = KernelSpec("polynomial", degree=3) if seed % 2 else SE
    with warnings.catch_warnings():
        # the cubic Gram has rank 10, so its support blocks can be singular
        warnings.simplefilter("ignore", RuntimeWarning)
        q = SvmProblem(spec, d0, d1).signed_gram
    n1 = d1.shape[0]
    for m in (2, 3, 7, 20):
        a = np.sort(np.concatenate([
            rng.choice(n1, m // 2, replace=False),
            n1 + rng.choice(q.shape[0] - n1, m - m // 2, replace=False),
        ]))
        assert np.array_equal(_support_solve(q, a, n1), support_solve_block(q, a, n1))


def overlapping_blobs(offset, n):
    rng = np.random.default_rng(0)
    c = np.array([offset, 0.0])
    d0 = -c + 0.5 * rng.standard_normal((n, 2))
    d1 = c + 0.5 * rng.standard_normal((n, 2))
    return SvmProblem(KernelSpec("se", lengthscale=0.7), d0, d1)


class TestOverlappingBlobs:
    # nearly touching and intersecting hulls, on which pairwise weight
    # exchanges (Mitchell-Demyanov-Malozemov) stall far above tol
    def test_near_touching_hulls_certify(self):
        problem = overlapping_blobs(0.75, 100)
        model = svm_train(problem, max_iter=2000)
        assert recomputed_gap(problem, model) <= 1e-10 + 1e-14
        assert margin_check(model, problem).passed

    def test_thin_margin_certifies(self):
        problem = overlapping_blobs(1.0, 100)
        model = svm_train(problem, max_iter=2000)
        assert recomputed_gap(problem, model) <= 1e-10 + 1e-14
        assert model.rho == pytest.approx(2.1956353e-3, rel=1e-7)

    def test_intersecting_hulls_not_separable(self):
        with pytest.raises(SeparationError):
            svm_train(overlapping_blobs(1.0, 300), max_iter=2000)


@pytest.mark.filterwarnings("ignore:kernel gram is not strictly positive definite")
@pytest.mark.parametrize("seed", range(6))
def test_large_gram_entries_keep_weights_on_simplices(seed):
    # cubic polynomial kernel on points near (12, 12, 12): Gram entries
    # reach 3e8-6e8, where an unscaled KKT solve loses its constraint rows
    # to the least-squares cutoff
    rng = np.random.default_rng(seed)
    d0 = 3.0 * rng.standard_normal((30, 3))
    d1 = 3.0 * (rng.standard_normal((30, 3)) + 4.0)
    problem = SvmProblem(KernelSpec("polynomial", degree=3), d0, d1)
    tol = 1e-13 * float(np.abs(problem.signed_gram).max())
    model = svm_train(problem, tol=tol)
    for nu in (model.nu0, model.nu1):
        assert abs(nu.sum() - 1.0) <= 1e-12
        assert nu.min() >= 0.0
    assert recomputed_gap(problem, model) <= tol


@pytest.mark.filterwarnings("ignore:kernel gram is not strictly positive definite")
@pytest.mark.parametrize("seed", [2, 6, 8])
def test_rounding_stall_fails_at_once(seed):
    # cubic kernel on 1-d points of scale 10: Gram entries reach ~2e8, so
    # rounding in the scores stays above the default absolute tol, and the
    # point just admitted comes back from the solve with a negative weight
    rng = np.random.default_rng(seed)
    d0 = 10.0 * rng.standard_normal((10, 1))
    d1 = 10.0 * (rng.standard_normal((10, 1)) + 1.0)
    problem = SvmProblem(KernelSpec("polynomial", degree=3), d0, d1)
    trace: list = []
    with pytest.raises(ConvergenceError):
        svm_train(problem, max_iter=500, trace=trace)
    assert len(trace) <= 20


SWEEP_SPECS = (
    KernelSpec("se", lengthscale=0.7),
    KernelSpec("se", lengthscale=3.0),
    KernelSpec("matern12"),
    KernelSpec("matern32"),
    KernelSpec("matern52"),
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=2),
    KernelSpec("polynomial", degree=3),
    KernelSpec("wendland", support_radius=3.0),
)


def sweep_cases(count=90):
    """Seeded problems cycling over the kernel families.

    Each draws a dimension of 1-3, 1-39 points per class and a class offset
    along the first axis.  About 30 % are rounded to a half-unit grid (class
    1 shifted by a quarter, so the classes stay disjoint) with two repeated
    points added to each class.
    """
    rng = np.random.default_rng(12345)
    cases = []
    for i in range(count):
        d = int(rng.integers(1, 4))
        n0, n1 = (int(v) for v in rng.integers(1, 40, size=2))
        offset = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        d0 = rng.standard_normal((n0, d))
        d1 = rng.standard_normal((n1, d))
        d1[:, 0] += offset
        if rng.random() < 0.3:
            d0 = np.round(2.0 * d0) / 2.0
            d1 = np.round(2.0 * d1) / 2.0 + 0.25
            d0 = np.vstack([d0, d0[rng.integers(n0, size=2)]])
            d1 = np.vstack([d1, d1[rng.integers(n1, size=2)]])
        spec = SWEEP_SPECS[i % len(SWEEP_SPECS)]
        # only a Gram no theorem certifies may warn
        marks = (pytest.mark.filterwarnings(
            "ignore:kernel gram is not strictly positive definite"),
        ) if spec.family in ("linear", "polynomial") else ()
        cases.append(pytest.param(spec, d0, d1, id=f"{i}-{spec.family}", marks=marks))
    return cases


@pytest.mark.parametrize("spec, d0, d1", sweep_cases())
def test_kernel_family_sweep_certifies_or_reports_overlap(spec, d0, d1):
    problem = SvmProblem(spec, d0, d1)
    try:
        model = svm_train(problem, max_iter=5000)
    except SeparationError:
        return
    assert recomputed_gap(problem, model) <= 1e-10 + 1e-14


@pytest.mark.parametrize("spec, d0, d1", sweep_cases() + [
    pytest.param(BENCH_SPEC, *benchmark_blobs(seed, k), id=f"bench-{seed}-{k}")
    for seed in (3, 11) for k in range(5)])
def test_pair_slack_is_the_pair_matrix_minimum(spec, d0, d1):
    problem = SvmProblem(spec, d0, d1)
    try:
        model = svm_train(problem, max_iter=5000)
    except SeparationError:
        return
    report = margin_check(model, problem)
    pairs = (report.decision_1[:, None] - report.decision_0[None, :]) / model.rho
    assert report.pair_separation_slack == float(pairs.min()) - (model.rho - 1e-4)
