import tracemalloc

import numpy as np
import pytest

from olskit import kernels
from olskit.kernels import (
    CoArray,
    IndexedDataset,
    KernelSpec,
    coarray_apply,
    coarray_cov,
    covariance_metric,
    cross_kernel,
    covering_number,
    default_epsilon_grid,
    entropy_integral,
    gram,
    kernel_eval,
    metric_matrix,
    scalar_kernel,
)
from olskit.linalg import Tolerance, check_psd, pinv
from olskit.svm import SvmProblem, decision_values, svm_train

from helpers import (
    closed_form_kernel,
    einsum_metric_matrix,
    exhaustive_min_cover,
    greedy_cover_count,
    greedy_entropy,
    stationary_kernel_oracle,
)

ALL_FAMILIES = [
    KernelSpec("se", lengthscale=0.8, variance=1.3),
    KernelSpec("matern12", lengthscale=0.5, variance=0.7),
    KernelSpec("matern32", lengthscale=1.2, variance=2.0),
    KernelSpec("matern52", lengthscale=0.9, variance=1.1),
    KernelSpec("linear", lengthscale=1.5, variance=0.8),
    KernelSpec("polynomial", lengthscale=1.0, variance=0.6, degree=3),
    KernelSpec("wendland", variance=1.0, support_radius=2.5),
]

STATIONARY = [spec for spec in ALL_FAMILIES if spec.family not in ("linear", "polynomial")]


def closed_form_blocks(spec, x):
    """``gram``'s point-major matrix of x, from the closed form alone."""
    s = closed_form_kernel(spec.family, x, x, spec.variance, spec.lengthscale,
                           spec.degree, spec.support_radius)
    if spec.q == 1 and spec.coregionalization is None:
        return s
    return np.kron(s, spec.mixing())


class TestKernelEval:
    def test_se_zero_distance(self):
        spec = KernelSpec("se")
        assert kernel_eval(spec, [0.0], [0.0])[0, 0] == 1.0

    def test_se_half_height(self):
        # exp(-r^2/2) = 1/2 at r = sqrt(2 ln 2)
        spec = KernelSpec("se")
        r = np.sqrt(2.0 * np.log(2.0))
        assert abs(kernel_eval(spec, [0.0], [r])[0, 0] - 0.5) < 1e-14

    def test_separable_diagonal_block(self):
        b = np.array([[2.0, 1.0], [1.0, 1.0]])
        spec = KernelSpec("se", variance=1.7, output_dim=2, coregionalization=b)
        blk = kernel_eval(spec, [0.3, -0.2], [0.3, -0.2])
        assert np.allclose(blk, 1.7 * b, atol=1e-14)

    def test_swap_transpose_symmetry(self):
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        for base in ALL_FAMILIES:
            spec = KernelSpec(base.family, base.lengthscale, base.variance,
                              output_dim=2, coregionalization=b,
                              degree=base.degree,
                              support_radius=base.support_radius)
            i, j = np.array([0.4, 1.0]), np.array([-0.3, 0.2])
            assert np.array_equal(kernel_eval(spec, i, j), kernel_eval(spec, j, i).T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_eval(KernelSpec("se"), [0.0], [0.0, 1.0])

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec("sombrero")

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError, match="lengthscale"):
            KernelSpec("se", lengthscale=0.0)
        with pytest.raises(ValueError, match="variance"):
            KernelSpec("se", variance=-1.0)
        with pytest.raises(ValueError, match="support_radius"):
            KernelSpec("wendland")
        with pytest.raises(ValueError, match="not PSD"):
            KernelSpec("se", output_dim=2,
                       coregionalization=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="output_dim"):
            KernelSpec("se", output_dim=2, coregionalization=[[1.0]])

    # each case keeps the id it has always had: its index and what it checks
    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(kwargs, message, id=f"kwargs{k}-{name}")
        for k, (kwargs, message, name) in enumerate([
            ({"family": "polynomial", "degree": 1.5},
             "^degree: must be an integer >= 1$", "degree must be an integer"),
            ({"family": "polynomial", "degree": True},
             "^degree: must be an integer >= 1$", "degree must be an integer"),
            ({"family": "se", "output_dim": 2.5},
             "^output_dim: must be an integer >= 1$", "output_dim must be an integer"),
            ({"family": "se", "output_dim": True},
             "^output_dim: must be an integer >= 1$", "output_dim must be an integer"),
            ({"family": "se", "lengthscale": np.inf},
             "^lengthscale: must be finite, got inf$", "lengthscale must be finite"),
            ({"family": "se", "variance": np.inf},
             "^variance: must be finite, got inf$", "variance must be finite"),
            ({"family": "wendland", "support_radius": np.inf},
             "^support_radius: must be finite, got inf$", "support_radius must be finite"),
            ({"family": "se", "lengthscale": True},
             "^lengthscale: expected a number, got True$", "lengthscale .*, got True"),
            ({"family": "se", "lengthscale": np.True_},
             "^lengthscale: expected a number, got (np.True_|True)$", "lengthscale .*, got (np.)?True"),
            ({"family": "se", "variance": True},
             "^variance: expected a number, got True$", "variance .*, got True"),
            ({"family": "se", "variance": np.True_},
             "^variance: expected a number, got (np.True_|True)$", "variance .*, got (np.)?True"),
            ({"family": "wendland", "support_radius": True},
             "^support_radius: expected a number, got True$", "support_radius .*, got True"),
            ({"family": "wendland", "support_radius": np.True_},
             "^support_radius: expected a number, got (np.True_|True)$", "support_radius .*, got (np.)?True"),
        ])])
    def test_non_integer_or_infinite_hyperparameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"lengthscale": 10 ** 400}, "^lengthscale: must be finite, got 1000"),
        ({"lengthscale": "1"}, "^lengthscale: expected a number, got '1'$"),
        ({"coregionalization": [[True]]}, "^coregionalization: expected a number, got True$"),
        ({"coregionalization": np.array([[True]])},
         "^coregionalization: expected a number, got True$"),
        ({"degree": 0}, "^degree: must be an integer >= 1$"),
        ({"eval_hook": 1}, "^eval_hook: must be callable, got 1$"),
    ], ids=["huge-lengthscale", "string-lengthscale", "bool-mixing", "bool-array-mixing",
            "zero-degree", "hook-not-callable"])
    def test_field_errors_name_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            KernelSpec("se", **kwargs)

    def test_numbers_are_stored_as_floats(self):
        spec = KernelSpec("wendland", lengthscale=2, variance=np.int64(3),
                          support_radius=np.float32(0.5),
                          coregionalization=np.array([[2]]))
        assert (spec.lengthscale, spec.variance, spec.support_radius) == (2.0, 3.0, 0.5)
        assert {type(v) for v in (spec.lengthscale, spec.variance, spec.support_radius)} == {
            float}
        assert spec.coregionalization.dtype == float

    def test_numpy_integers_accepted(self):
        spec = KernelSpec("polynomial", degree=np.int64(3), output_dim=np.int32(2))
        assert (spec.degree, spec.output_dim) == (3, 2)
        assert type(spec.degree) is int and type(spec.output_dim) is int


class TestSpecValue:
    """Specs compare and hash by value, mixing matrix included."""

    B = np.array([[2.0, 1.0], [1.0, 1.0]])

    def test_equal_mixing_matrices(self):
        a = KernelSpec("se", output_dim=2, coregionalization=self.B)
        b = KernelSpec("se", output_dim=2, coregionalization=self.B.copy())
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_signed_zero_entries_hash_alike(self):
        a = KernelSpec("se", output_dim=2, coregionalization=[[1.0, -0.0], [-0.0, 1.0]])
        b = KernelSpec("se", output_dim=2, coregionalization=np.eye(2))
        assert a == b and hash(a) == hash(b)

    def test_different_specs_differ(self):
        base = KernelSpec("se", output_dim=2, coregionalization=self.B)
        others = [KernelSpec("se", output_dim=2),
                  KernelSpec("se", output_dim=2, coregionalization=2.0 * self.B),
                  KernelSpec("matern52", output_dim=2, coregionalization=self.B),
                  KernelSpec("se", lengthscale=2.0, output_dim=2, coregionalization=self.B)]
        for other in others:
            assert base != other and other != base
        assert base != "se"

    def test_specs_without_mixing_matrix(self):
        assert KernelSpec("se", lengthscale=0.5) == KernelSpec("rbf", lengthscale=0.5)
        assert hash(KernelSpec("wendland", support_radius=2.0)) == hash(
            KernelSpec("wendland", support_radius=2.0))
        assert KernelSpec("se") != KernelSpec("se", variance=2.0)


class TestGram:
    def test_single_point(self):
        g = gram(KernelSpec("se", variance=2.5), [[0.7]])
        assert np.allclose(g, [[2.5]], atol=1e-15)

    def test_duplicate_point_is_singular(self):
        g = gram(KernelSpec("se"), [[0.0], [0.0]])
        w = np.linalg.eigvalsh(g)
        assert abs(w[0]) < 1e-12

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_entrywise_and_psd(self, spec):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((10, 2))
        g = gram(spec, pts)
        for a in (0, 3, 9):
            for b in (1, 3, 7):
                assert np.allclose(
                    g[a, b], kernel_eval(spec, pts[a], pts[b])[0, 0], atol=1e-12
                )
        assert np.linalg.eigvalsh(g)[0] >= -1e-10

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_psd_sweep(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(15):
            pts = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(1, 4))))
            g = gram(spec, pts)
            scale = max(1.0, np.abs(g).max())
            assert np.linalg.eigvalsh(g)[0] >= -1e-10 * scale

    def test_matrix_valued_blocks(self):
        b = np.array([[2.0, 1.0], [1.0, 1.0]])
        spec = KernelSpec("se", output_dim=2, coregionalization=b)
        pts = np.array([[0.0], [1.0]])
        g = gram(spec, pts)
        assert g.shape == (4, 4)
        assert np.allclose(g[0:2, 2:4], kernel_eval(spec, pts[0], pts[1]), atol=1e-14)

    def test_custom_hook(self):
        base = KernelSpec("se")
        spec = KernelSpec(
            "custom",
            eval_hook=lambda i, j: kernel_eval(base, i, j),
        )
        pts = np.array([[0.0], [0.5], [2.0]])
        assert np.allclose(gram(spec, pts), gram(base, pts), atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            gram(KernelSpec("se"), np.zeros((0, 1)))


class TestGramCertificate:
    """``_gram_gate``: closed-form stationary Grams are PSD by theorem and
    rounded within (c + d) u max|K|, so the gate needs no factorization."""

    CERTIFIED = ("se", "matern12", "matern32", "matern52", "wendland")

    @staticmethod
    def spec(family, scale, variance=1.0, **kwargs):
        radius = scale if family == "wendland" else None
        return KernelSpec(family, lengthscale=scale, variance=variance,
                          support_radius=radius, **kwargs)

    def test_rounding_bound_and_verdict_sweep(self):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble is no wider than float64 on this platform")
        u = np.finfo(float).eps / 2
        rng = np.random.default_rng(2023)
        for family in self.CERTIFIED:
            for d in (1, 2, 3):
                for _ in range(6):
                    n = int(rng.integers(2, 401))
                    scale = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
                    spec = self.spec(family, scale, float(np.exp(rng.uniform(-3.0, 3.0))))
                    x = rng.uniform(0.0, 1.0, (n, d))
                    k = gram(spec, x)
                    gate = kernels._gram_gate(spec, x, k)
                    assert gate is not None and gate.matrix is k
                    xl = x.astype(np.longdouble)
                    exact = closed_form_kernel(family, xl, xl, spec.variance,
                                               spec.lengthscale,
                                               support_radius=spec.support_radius)
                    err = float(np.abs(k - exact).max() / np.abs(k).max())
                    assert err <= kernels._GRAM_ROUNDING * u / 4, (family, d, n, scale)
                    assert check_psd(k).floor == gate.floor  # and check_psd passes

    def test_value_dimension_without_mixing_is_certified(self):
        x = np.linspace(0.0, 1.0, 7)[:, None]
        spec = KernelSpec("matern32", lengthscale=0.4, output_dim=3)
        k = gram(spec, x)
        gate = kernels._gram_gate(spec, x, k)
        assert gate is not None and gate.matrix is k and k.shape == (21, 21)

    @pytest.mark.parametrize("spec, d", [
        (KernelSpec("custom", eval_hook=lambda i, j: np.eye(1)), 1),
        (KernelSpec("linear"), 1),
        (KernelSpec("polynomial", degree=3), 2),
        (KernelSpec("se", output_dim=2, coregionalization=np.eye(2)), 1),
        (KernelSpec("wendland", support_radius=1.5), 4),
    ], ids=["custom", "linear", "polynomial", "mixing", "wendland-d4"])
    def test_uncovered_families_are_left_to_check_psd(self, spec, d):
        x = np.random.default_rng(4).uniform(0.0, 1.0, (6, d))
        assert kernels._gram_gate(spec, x, gram(spec, x)) is None

    def test_size_bound(self):
        # N (c + d) u <= abs_psd: at abs_psd 1e-10 and d = 1, N up to 13,860
        u = np.finfo(float).eps / 2
        spec = KernelSpec("se", lengthscale=0.3)
        x = np.linspace(0.0, 1.0, 30)[:, None]
        k = gram(spec, x)
        edge = 30 * (kernels._GRAM_ROUNDING + 1) * u
        assert kernels._gram_gate(spec, x, k, Tolerance(abs_psd=edge)) is not None
        assert kernels._gram_gate(spec, x, k, Tolerance(abs_psd=edge * 0.99)) is None


MIX = np.array([[2.0, 0.6], [0.6, 1.0]])


class TestCrossKernel:
    """A custom hook wrapping a closed-form kernel reproduces it everywhere."""

    @pytest.mark.parametrize("base, dim, covalue", [
        (KernelSpec("se", lengthscale=0.8, variance=1.3), 1, None),
        (KernelSpec("matern32", lengthscale=1.2), 2, None),
        (KernelSpec("matern52", coregionalization=[[2.0]]), 2, None),
        (KernelSpec("wendland", output_dim=2, coregionalization=MIX,
                    support_radius=2.5), 2, [1.0, -0.5]),
    ], ids=["se", "matern32-2d", "matern52-mixed", "wendland-q2"])
    def test_custom_hook_matches_closed_form(self, base, dim, covalue):
        hook = KernelSpec("custom", output_dim=base.q,
                          eval_hook=lambda i, j: kernel_eval(base, i, j))
        rng = np.random.default_rng(31)
        x, y = rng.standard_normal((5, dim)), rng.standard_normal((3, dim))
        phi = CoArray(rng.standard_normal((5, base.q)), x)
        psi = CoArray(rng.standard_normal((3, base.q)), y)

        def close(a, b):
            return np.allclose(a, b, rtol=1e-13, atol=1e-13)

        # references from one kernel_eval block per pair
        def blocks(u, v):
            return np.block([[kernel_eval(base, a, b) for b in v] for a in u])

        e = np.ones(1) if covalue is None else np.asarray(covalue)
        s = np.array([[e @ kernel_eval(base, a, b) @ e for b in x] for a in x])
        metric = np.sqrt(np.maximum(
            np.diag(s)[:, None] + np.diag(s)[None, :] - 2.0 * s, 0.0))
        cov = sum(w @ kernel_eval(base, a, b) @ v
                  for w, a in zip(phi.weights, x) for v, b in zip(psi.weights, y))
        for spec in (base, hook):
            assert cross_kernel(spec, x, y).shape == (5 * base.q, 3 * base.q)
            assert close(cross_kernel(spec, x, y), blocks(x, y))
            assert close(gram(spec, x), blocks(x, x))
            assert close(metric_matrix(spec, x, covalue), metric)
            assert close(coarray_cov(spec, phi, psi), cov)
        if base.q == 1:
            d0, d1 = x - 2.0, x + 2.0
            want = svm_train(SvmProblem(base, d0, d1))
            got = svm_train(SvmProblem(hook, d0, d1))
            assert close(got.nu0, want.nu0) and close(got.nu1, want.nu1)
            assert close(decision_values(got, SvmProblem(hook, d0, d1), y),
                         decision_values(want, SvmProblem(base, d0, d1), y))


class TestBitwiseValues:
    """In-place evaluation keeps every closed form's value bit for bit."""

    @pytest.mark.parametrize("base", ALL_FAMILIES + [
        KernelSpec("polynomial", lengthscale=0.7, degree=2),
    ], ids=lambda spec: f"{spec.family}-{spec.degree}")
    @pytest.mark.parametrize("variance", [1.0, 2.3])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_scalar_kernel_matches_closed_form(self, base, variance, dim):
        spec = KernelSpec(base.family, base.lengthscale, variance,
                          degree=base.degree, support_radius=base.support_radius)
        rng = np.random.default_rng([dim, int(10 * variance)])
        x = rng.standard_normal((9, dim)) * 1.5 + 100.0
        y = rng.standard_normal((4, dim)) * 1.5 + 100.0
        x0, y0 = x.copy(), y.copy()
        want = closed_form_kernel(spec.family, x, y, variance, spec.lengthscale,
                                  spec.degree, spec.support_radius)
        got = scalar_kernel(spec, x, y)
        assert np.array_equal(got, want)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        if spec.family == "wendland":
            assert np.any(got == 0.0) and np.any(got > 0.0)

    @pytest.mark.parametrize("spec, covalue", [
        (KernelSpec("matern52", lengthscale=0.9, variance=1.1), None),
        (KernelSpec("se", lengthscale=0.8, variance=1.3), 1.7),
        (KernelSpec("matern32", output_dim=2, coregionalization=MIX), [1.0, -0.5]),
    ], ids=["q1", "q1-covalue", "q2-covalue"])
    def test_metric_matrix_matches_einsum(self, spec, covalue):
        x = np.random.default_rng(41).standard_normal((12, 2))
        e = 1.0 if covalue is None else covalue
        want = einsum_metric_matrix(closed_form_blocks(spec, x), e)
        assert np.array_equal(metric_matrix(spec, x, covalue), want)


@pytest.fixture
def triangle_calls(monkeypatch):
    """The ``metric`` flag of every stationary pass taken on a triangle."""
    calls = []
    stationary_pass = kernels._stationary_pass

    def recorded(spec, x, y, metric=False):
        if y is x:
            calls.append(metric)
        return stationary_pass(spec, x, y, metric)

    monkeypatch.setattr(kernels, "_stationary_pass", recorded)
    return calls


class TestTrianglePass:
    """A point set against itself is evaluated on one triangle, bit for bit."""

    @pytest.mark.parametrize("block", [None, 64], ids=["block-default", "block-64"])
    @pytest.mark.parametrize("n", [1, 2, 65, 66, 700])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("spec", STATIONARY, ids=lambda spec: spec.family)
    def test_matches_closed_form(self, spec, dim, n, block, monkeypatch, triangle_calls):
        if block is not None:
            monkeypatch.setattr(kernels, "_BLOCK", block)
        rng = np.random.default_rng([n, dim])
        x = rng.uniform(0.0, 0.06 * n + 1.0, (n, dim))
        k = stationary_kernel_oracle(spec, x, x)
        dist = stationary_kernel_oracle(spec, x, x, metric=True)
        got = gram(spec, x)
        assert np.array_equal(got, k) and np.array_equal(got, got.T)
        assert np.array_equal(metric_matrix(spec, x), dist)
        assert triangle_calls == [False, True]
        nonzero = dist[dist > 0.0]
        eps = np.geomspace(0.5 * nonzero.min(), 2.0 * dist.max(), 12) if nonzero.size \
            else np.array([0.5, 1.0])
        counts = np.array([greedy_cover_count(dist, x, e) for e in eps])
        for e, count in zip(eps[::4], counts[::4]):
            assert covering_number(spec, x, e) == count
        assert entropy_integral(spec, x, eps) == greedy_entropy(counts.astype(float), eps)

    def test_blocks_tile_the_lower_triangle(self):
        for n in (1, 2, 65, 66, 181, 182, 700, 40000):
            blocks = kernels._tiles(n)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all(hi > lo and ((hi - lo) * hi <= kernels._BLOCK or hi - lo == 1)
                       for lo, hi in blocks)
        sizes = [hi - lo for lo, hi in kernels._tiles(700)]
        assert len(sizes) >= 3 and sizes[-1] < sizes[-2]  # a ragged last block

    @pytest.mark.parametrize("spec, covalue", [
        (KernelSpec("matern52", lengthscale=0.9, coregionalization=[[2.0]]), None),
        (KernelSpec("se", lengthscale=0.8, variance=1.3), 1.7),
        (KernelSpec("polynomial", lengthscale=1.0, variance=0.6, degree=3), None),
        (KernelSpec("custom", eval_hook=lambda i, j: kernel_eval(
            KernelSpec("matern32", lengthscale=1.2), i, j)), None),
    ], ids=["coregionalized", "covalue", "polynomial", "custom"])
    def test_other_metrics_keep_the_general_path(self, spec, covalue, triangle_calls):
        x = np.random.default_rng(47).uniform(0.0, 4.0, (40, 2))
        if spec.family == "custom":
            c = np.block([[spec.eval_hook(a, b) for b in x] for a in x])
        else:
            c = closed_form_blocks(spec, x)
        want = einsum_metric_matrix(c, 1.0 if covalue is None else covalue)
        assert np.array_equal(metric_matrix(spec, x, covalue), want)
        assert True not in triangle_calls


def _block_sizes(n, m):
    return [hi - lo for lo, hi in kernels._tiles(n, m)]


class TestBlockedEvaluation:
    """Row-blocked evaluation keeps every value bit for bit."""

    @pytest.mark.parametrize("shape", [(200, 500), (1, 40000), (5000, 13)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda spec: spec.family)
    @pytest.mark.parametrize("dim", [1, 3])
    def test_scalar_kernel_matches_closed_form(self, spec, shape, dim):
        n, m = shape
        rng = np.random.default_rng([n, m, dim])
        x = rng.uniform(-3.0, 3.0, (n, dim))
        y = rng.uniform(-3.0, 3.0, (m, dim))
        want = closed_form_kernel(spec.family, x, y, spec.variance, spec.lengthscale,
                                  spec.degree, spec.support_radius)
        assert np.array_equal(scalar_kernel(spec, x, y), want)

    def test_shapes_span_ragged_blocks(self):
        sizes = _block_sizes(200, 500)
        assert len(sizes) >= 3 and sizes[-1] < sizes[0]
        assert _block_sizes(1, 40000) == [1]
        assert len(_block_sizes(5000, 13)) >= 2
        assert len(_block_sizes(700, 700)) >= 3

    @pytest.mark.parametrize("spec, covalue, n, block", [
        (KernelSpec("matern52", lengthscale=0.9, variance=1.1), None, 700, None),
        (KernelSpec("se", lengthscale=0.4, variance=2.0), None, 700, None),
        (KernelSpec("wendland", support_radius=1.5), None, 700, None),
        (KernelSpec("polynomial", lengthscale=2.0, degree=3), None, 700, None),
        (KernelSpec("matern32", output_dim=2, coregionalization=MIX), [1.0, -0.5], 300,
         None),
        # the general path with one row wider than a tile
        (KernelSpec("polynomial", lengthscale=2.0, degree=3), None, 700, 64),
        (KernelSpec("matern32", output_dim=2, coregionalization=MIX), [1.0, -0.5], 300,
         64),
    ], ids=["matern52", "se", "wendland", "polynomial", "q2-covalue",
            "polynomial-block-64", "q2-covalue-block-64"])
    def test_metric_matrix_matches_einsum(self, spec, covalue, n, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(kernels, "_BLOCK", block)
            assert kernels._tiles(n, n) == [(a, a + 1) for a in range(n)]
        x = np.random.default_rng(n).uniform(0.0, 8.0, (n, 2))
        e = 1.0 if covalue is None else covalue
        want = einsum_metric_matrix(closed_form_blocks(spec, x), e)
        assert np.array_equal(metric_matrix(spec, x, covalue), want)

    def test_gram_keeps_symmetric_kernel_matrix(self):
        x = np.random.default_rng(45).uniform(0.0, 5.0, (300, 2))
        spec = KernelSpec("matern52", lengthscale=0.9)
        k = gram(spec, x)
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, scalar_kernel(spec, x, x))

    def test_entropy_allocates_one_metric_matrix(self):
        # the two metric builds of a krige report must not bring back an
        # n x n temporary: the peak stays below 1.5 n x n float arrays
        n = 500
        spec = KernelSpec("matern52", lengthscale=0.5)
        x = np.sort(np.random.default_rng(46).uniform(0.0, 50.0, n))[:, None]
        entropy_integral(spec, x[:20], default_epsilon_grid(spec, x[:20]))
        tracemalloc.start()
        try:
            grid = default_epsilon_grid(spec, x)
            entropy_integral(spec, x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8


class TestCoArrays:
    def test_dirac_evaluates(self):
        data = IndexedDataset([[0.0], [1.0]], [[3.0], [5.0]])
        phi = CoArray.dirac([1.0])
        assert coarray_apply(phi, data) == 5.0

    def test_zero_weights(self):
        data = IndexedDataset([[0.0], [1.0]], [[3.0], [5.0]])
        phi = CoArray([[0.0], [0.0]], [[0.0], [1.0]])
        assert coarray_apply(phi, data) == 0.0

    def test_difference_of_masses(self):
        data = IndexedDataset([[0.0], [1.0]], [[3.0], [5.0]])
        phi = CoArray([[1.0], [-1.0]], [[0.0], [1.0]])
        assert coarray_apply(phi, data) == 3.0 - 5.0

    def test_missing_point(self):
        data = IndexedDataset([[0.0]], [[3.0]])
        with pytest.raises(ValueError, match="not present"):
            coarray_apply(CoArray.dirac([2.0]), data)

    def test_refuses_bools_and_strings(self):
        # as the scalar rule refuses "1" and True, so do points, values and weights
        with pytest.raises(ValueError, match="^dataset points: expected numbers"):
            IndexedDataset([["1"], [True]], values=[[2.0], [0.0]])
        with pytest.raises(ValueError, match="^dataset values: expected numbers"):
            IndexedDataset([[1.0], [2.0]], values=["2", False])
        with pytest.raises(ValueError, match="^coarray weights: expected numbers"):
            CoArray([True], [[0.0]])
        with pytest.raises(ValueError, match="^coarray weights: expected numbers"):
            CoArray.dirac([0.0], covalue=True)
        with pytest.raises(ValueError, match="^i: expected numbers"):
            kernel_eval(KernelSpec("se"), [True], [0.0])
        with pytest.raises(ValueError, match="^j: expected numbers"):
            kernel_eval(KernelSpec("se"), [0.0], ["0.5"])

    def test_refuses_a_point_of_another_dimension(self):
        # the per-point scan broadcast the 1-d mass onto (1, 1) and read 10
        data = IndexedDataset([[1.0, 1.0], [2.0, 3.0]], [[10.0], [20.0]])
        with pytest.raises(ValueError, match="index dimension mismatch: 2 vs 1"):
            coarray_apply(CoArray.dirac([1.0]), data)

    def test_cov_dirac_is_kernel(self):
        spec = KernelSpec("matern32", lengthscale=0.6, variance=1.4)
        phi = CoArray.dirac([0.3])
        assert abs(coarray_cov(spec, phi, phi) - 1.4) < 1e-14

    def test_cov_zero_functional(self):
        spec = KernelSpec("se")
        phi = CoArray.dirac([0.0])
        zero = CoArray([[0.0]], [[1.0]])
        assert coarray_cov(spec, phi, zero) == 0.0

    def test_cov_symmetric_bilinear(self):
        spec = KernelSpec("se", lengthscale=0.7)
        rng = np.random.default_rng(3)
        phi = CoArray(rng.standard_normal((3, 1)), rng.standard_normal((3, 2)))
        psi = CoArray(rng.standard_normal((2, 1)), rng.standard_normal((2, 2)))
        assert abs(coarray_cov(spec, phi, psi) - coarray_cov(spec, psi, phi)) < 1e-14
        phi2 = CoArray(2.5 * phi.weights, phi.points)
        assert abs(coarray_cov(spec, phi2, psi) - 2.5 * coarray_cov(spec, phi, psi)) < 1e-13

    def test_cov_psd(self):
        spec = KernelSpec("matern52", lengthscale=1.1)
        rng = np.random.default_rng(8)
        for _ in range(20):
            phi = CoArray(rng.standard_normal((4, 1)), rng.standard_normal((4, 2)))
            assert coarray_cov(spec, phi, phi) >= -1e-10

    def test_cov_monte_carlo_oracle(self):
        # covariance of phi[a], psi[a] under the sampled Gaussian field
        spec = KernelSpec("se", lengthscale=0.9, variance=1.2)
        pts = np.array([[0.0], [0.5], [1.3]])
        phi = CoArray([[1.0], [-2.0], [0.5]], pts)
        psi = CoArray([[0.3], [1.0], [1.0]], pts)
        g = gram(spec, pts)
        n = 100_000
        rng = np.random.default_rng(17)
        w, v = np.linalg.eigh(g)
        samples = rng.standard_normal((n, 3)) @ (v * np.sqrt(np.clip(w, 0, None))).T
        a_phi = samples @ phi.weights[:, 0]
        a_psi = samples @ psi.weights[:, 0]
        emp = np.mean(a_phi * a_psi) - a_phi.mean() * a_psi.mean()
        want = coarray_cov(spec, phi, psi)
        var_phi = coarray_cov(spec, phi, phi)
        var_psi = coarray_cov(spec, psi, psi)
        se = np.sqrt((var_phi * var_psi + want**2) / n)
        assert abs(emp - want) < 4.0 * se

    def test_kernel_trick_matches_cameron_martin_norm(self):
        # ||sum w_k c(., i_k)||^2 in the ambient model equals the co-array
        # variance; the ambient set strictly contains the mass points.
        spec = KernelSpec("se", lengthscale=0.8)
        ambient = np.array([[0.0], [0.4], [1.0], [1.7], [2.2]])
        mass_idx = [1, 3]
        w = np.array([1.5, -0.7])
        phi = CoArray(w[:, None], ambient[mass_idx])
        k = gram(spec, ambient)
        w_ext = np.zeros(5)
        w_ext[mass_idx] = w
        section = k @ w_ext
        cm_norm_sq = section @ pinv(k) @ section
        assert abs(coarray_cov(spec, phi, phi) - cm_norm_sq) < 1e-10


class TestCovarianceMetric:
    def test_identical_arguments_zero(self):
        spec = KernelSpec("se")
        assert covariance_metric(spec, 1.0, [0.3], 1.0, [0.3]) == 0.0

    def test_se_closed_form(self):
        spec = KernelSpec("se", lengthscale=0.7)
        r = 0.9
        t = covariance_metric(spec, 1.0, [0.0], 1.0, [r])
        want = 2.0 * (1.0 - np.exp(-r * r / (2.0 * 0.7**2)))
        assert abs(t - want) < 1e-14

    def test_triangle_inequality_sampled(self):
        spec = KernelSpec("matern32", lengthscale=0.8, variance=1.5)
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b, c = rng.standard_normal((3, 2))
            dab = np.sqrt(covariance_metric(spec, 1.0, a, 1.0, b))
            dbc = np.sqrt(covariance_metric(spec, 1.0, b, 1.0, c))
            dac = np.sqrt(covariance_metric(spec, 1.0, a, 1.0, c))
            assert dac <= dab + dbc + 1e-12


class TestCovering:
    def test_singleton(self):
        spec = KernelSpec("se")
        for eps in (1e-6, 1.0, 100.0):
            assert covering_number(spec, [[0.0]], eps) == 1

    def test_beyond_diameter(self):
        spec = KernelSpec("se")
        pts = np.linspace(0, 1, 7)[:, None]
        diam = metric_matrix(spec, pts).max()
        assert covering_number(spec, pts, float(diam) * 1.001) == 1

    def test_nonincreasing_in_eps(self):
        spec = KernelSpec("se", lengthscale=0.3)
        pts = np.linspace(0, 1, 20)[:, None]
        grid = np.geomspace(1e-3, 2.0, 40)
        counts = [covering_number(spec, pts, float(e)) for e in grid]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_within_factor_two_of_minimal(self):
        spec = KernelSpec("se", lengthscale=0.25)
        pts = np.linspace(0, 1, 12)[:, None]
        dist = metric_matrix(spec, pts)
        for eps in (0.15, 0.35, 0.7, 1.1):
            greedy = covering_number(spec, pts, eps)
            minimal = exhaustive_min_cover(dist, eps)
            assert minimal <= greedy <= 2 * minimal

    def test_invalid_eps(self):
        with pytest.raises(ValueError, match="eps"):
            covering_number(KernelSpec("se"), [[0.0]], 0.0)


def _sweep_cases():
    """Seeded (spec, covalue, points, eps grid) cases for the cover oracle."""
    base = KernelSpec("matern52", lengthscale=0.7)
    custom = KernelSpec("custom", eval_hook=lambda i, j: kernel_eval(base, i, j))
    coreg = KernelSpec("matern32", lengthscale=0.9, output_dim=2,
                       coregionalization=[[2.0, 0.5], [0.5, 1.0]])
    specs = [(spec, None) for spec in ALL_FAMILIES]
    specs += [(custom, None), (coreg, np.array([1.0, -0.5]))]
    rng = np.random.default_rng(404)
    for case in range(5 * len(specs)):
        spec, covalue = specs[case % len(specs)]
        n = 1 + int(rng.integers(0, 16 if spec.family == "custom" else 120))
        d = int(rng.integers(1, 4))
        # coarse rounding makes duplicate points and tied distances
        pts = np.round(rng.uniform(-2.0, 2.0, (n, d)), int(rng.integers(0, 3)))
        dist = metric_matrix(spec, pts, covalue)
        nonzero = dist[dist > 0.0]
        low = 0.5 * nonzero.min() if nonzero.size else 1e-3
        high = 2.0 * dist.max() if nonzero.size else 1.0
        eps = np.geomspace(low, high, int(rng.integers(1, 65)))
        if nonzero.size:
            # radii equal to a pairwise distance test the <= boundary
            eps = np.union1d(eps, rng.choice(nonzero, min(8, nonzero.size)))
        yield spec, covalue, pts, dist, eps


class TestCoverOracle:
    def test_counts_and_entropy_match_per_eps_sweeps(self):
        for spec, covalue, pts, dist, eps in _sweep_cases():
            counts = np.array([greedy_cover_count(dist, pts, e) for e in eps])
            for e, count in zip(eps, counts):
                assert covering_number(spec, pts, e, covalue) == count
            got = entropy_integral(spec, pts, eps, covalue)
            assert got == greedy_entropy(counts.astype(float), eps)


class TestEntropyIntegral:
    def test_singleton_zero(self):
        spec = KernelSpec("se")
        assert entropy_integral(spec, [[0.0]], [0.1, 0.5, 1.0]) == 0.0

    def test_subset_monotone_on_grids(self):
        spec = KernelSpec("se", lengthscale=0.2)
        coarse = np.linspace(0, 1, 9)[:, None]
        fine = np.linspace(0, 1, 17)[:, None]  # contains the coarse grid
        grid = np.geomspace(1e-3, 2.0, 64)
        assert entropy_integral(spec, coarse, grid) <= entropy_integral(spec, fine, grid)

    def test_refinement_stability(self):
        spec = KernelSpec("se", lengthscale=0.25)
        pts = np.linspace(0, 1, 50)[:, None]
        base = entropy_integral(spec, pts, np.geomspace(1e-3, 2.0, 128))
        fine = entropy_integral(spec, pts, np.geomspace(1e-3, 2.0, 256))
        assert np.isfinite(base) and base > 0
        assert abs(fine - base) / base <= 0.05

    def test_invalid_grid(self):
        spec = KernelSpec("se")
        with pytest.raises(ValueError, match="strictly increasing"):
            entropy_integral(spec, [[0.0], [1.0]], [0.5, 0.4])
        with pytest.raises(ValueError, match="strictly increasing"):
            entropy_integral(spec, [[0.0], [1.0]], [-0.5, 0.4])
