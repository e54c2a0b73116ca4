import numpy as np
import pytest

from olskit.kernels import KernelSpec, scalar_kernel
from olskit.linalg import NotPsdError
from olskit.svm import (
    ConvergenceError,
    SeparationError,
    SvmProblem,
    decision_values,
    margin_check,
    svm_classify,
    svm_decision,
    svm_train,
    xi_distance,
)

from helpers import blobs_2d, svm_qp_oracle

LINEAR = KernelSpec("linear")
SE = KernelSpec("se", lengthscale=1.5)


def line_problem():
    # D0 = {0}, D1 = {2} with the plain dot-product kernel:
    # t_c(0, 2) = 0 - 0 + 4, so rho = 2 and the boundary sits at i = 1
    return SvmProblem(LINEAR, [[0.0]], [[2.0]])


def blobs_problem(seed=0):
    d0, d1 = blobs_2d(seed)
    return SvmProblem(SE, d0, d1)


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
        assert abs(svm_decision(model, problem, [1.0])) < 1e-6

    def test_tie_breaks_to_label_one(self):
        problem = line_problem()
        model = svm_train(problem)
        assert svm_classify(model, problem, [1.0]) == 1

    def test_training_points_classified(self):
        problem = line_problem()
        model = svm_train(problem)
        assert svm_classify(model, problem, [0.0]) == 0
        assert svm_classify(model, problem, [2.0]) == 1

    def test_far_point(self):
        problem = line_problem()
        model = svm_train(problem)
        assert svm_classify(model, problem, [50.0]) == 1

    def test_margin_values_at_support_vectors(self):
        problem = line_problem()
        model = svm_train(problem)
        assert abs(svm_decision(model, problem, [2.0]) - model.rho**2 / 2) < 1e-6
        assert abs(svm_decision(model, problem, [0.0]) + model.rho**2 / 2) < 1e-6

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
        assert svm_classify(model, problem, [1.0]) == 0
        assert svm_classify(model, problem, [3.0]) == 1


@pytest.mark.filterwarnings("ignore:kernel gram is not strictly positive definite")
class TestSingletonsAndDuplicates:
    def test_singleton_sets_any_kernel(self):
        problem = SvmProblem(SE, [[0.0, 0.0]], [[2.0, 1.0]])
        model = svm_train(problem)
        assert np.array_equal(model.nu0, [1.0])
        assert np.array_equal(model.nu1, [1.0])

    def test_duplicate_support_point_leaves_margin_unchanged(self):
        base = svm_train(line_problem())
        with pytest.warns(RuntimeWarning, match="strictly positive"):
            dup = svm_train(SvmProblem(LINEAR, [[0.0]], [[2.0], [2.0]]))
        assert abs(dup.rho - base.rho) < 1e-8


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

    def test_objective_nonincreasing(self):
        problem = blobs_problem(4)
        trace: list = []
        svm_train(problem, tol=1e-10, trace=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)

    def test_decision_continuity(self):
        problem = blobs_problem(5)
        model = svm_train(problem)
        base = svm_decision(model, problem, [1.0, 1.0])
        for h in (1e-4, 1e-5):
            nearby = svm_decision(model, problem, [1.0 + h, 1.0])
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
                           r"eigenvalue -8\.000e-01 below -abs_psd$"):
            svm_train(SvmProblem(spec, [[0.0], [1.0]], [[2.0]]))

    def test_vector_kernel_rejected(self):
        spec = KernelSpec("se", output_dim=2)
        with pytest.raises(ValueError, match="scalar"):
            SvmProblem(spec, [[0.0]], [[1.0]])
