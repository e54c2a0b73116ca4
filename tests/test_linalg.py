import numpy as np
import pytest

from olskit.kernels import KernelSpec, gram
from olskit.linalg import (
    NotPsdError,
    Tolerance,
    _fix_eigvec_signs,
    check_psd,
    pinv,
    psd_factor,
    range_projector,
    spectral_norm,
    symmetrize,
)

from helpers import (
    first_significant_positive,
    penrose_defects,
    power_iteration_norm,
    random_psd,
    random_rank,
)


class TestPinv:
    def test_identity(self):
        assert np.array_equal(pinv(np.eye(2)), np.eye(2))

    def test_diagonal_keeps_zero(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15)

    def test_penrose_conditions_random_rank2(self):
        rng = np.random.default_rng(7)
        a = random_rank(rng, 4, 3, 2)
        assert penrose_defects(a, pinv(a)) < 1e-10

    def test_penrose_conditions_seeded_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            rank = int(rng.integers(1, min(rows, cols) + 1))
            a = random_rank(rng, rows, cols, rank)
            assert penrose_defects(a, pinv(a)) < 1e-10

    def test_zero_matrix(self):
        assert np.array_equal(pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pinv(np.array([[1.0, np.nan]]))


class TestPsdFactor:
    def test_identity_exact(self):
        f = psd_factor(np.eye(3))
        assert np.array_equal(f @ f.T, np.eye(3))

    def test_rank_deficient_diagonal(self):
        f = psd_factor(np.diag([4.0, 0.0]))
        assert np.allclose(f @ f.T, np.diag([4.0, 0.0]), atol=1e-15)

    def test_wishart_reconstruction(self):
        rng = np.random.default_rng(3)
        k = random_psd(rng, 6)
        f = psd_factor(k)
        assert np.linalg.norm(f @ f.T - k) <= 1e-9

    def test_reconstruction_bound_rank_deficient(self):
        rng = np.random.default_rng(5)
        for rank in (1, 3, 5):
            k = random_psd(rng, 6, rank=rank)
            f = psd_factor(k)
            assert np.linalg.norm(f @ f.T - k) <= 6 * 1e-10 * max(1.0, np.abs(k).max())

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPsdError, match="asymmetric"):
            psd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsdError, match="eigenvalue"):
            psd_factor(np.diag([1.0, -0.5]))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        k = random_psd(rng, 5)
        assert np.array_equal(psd_factor(k), psd_factor(k))

    @pytest.mark.parametrize("c", [4.0 ** -20, 0.25, 4.0, 4.0 ** 10])
    def test_factor_scales_with_the_matrix(self, c):
        # the eigenvalue cut is relative to max|K|, so scaling K by a power
        # of 4 scales every eigenvalue and the cut alike: F(c K) = sqrt(c) F(K)
        q = np.linalg.qr(np.random.default_rng(17).standard_normal((6, 6)))[0]
        k = symmetrize((q * [2.0, 1.0, 0.5, 1e-3, 1e-13, 1e-15]) @ q.T)
        assert np.array_equal(psd_factor(c * k), np.sqrt(c) * psd_factor(k))

    def test_sign_rule_matches_column_loop(self):
        rng = np.random.default_rng(13)
        vecs = rng.standard_normal((40, 12)) * rng.choice([-1.0, 1.0], 12)
        vecs[:5, 1] = 0.0                   # leading exact zeros
        vecs[:7, 2] = 1e-13 * vecs[:7, 2]   # leading entries below the cut
        vecs[:, 3] = 0.0                    # no significant entry at all
        vecs[:, 4] *= 1e6                   # cut relative to max|col| > 1
        vecs[:9, 4] = 3e-7
        vecs[0, 5] = -0.0
        vecs[:, 6] = 1e-3 * np.abs(vecs[:, 6])  # cut is 1e-12 when max|col| < 1
        vecs[:3, 6] = -2e-13
        for v in (vecs, vecs[:, :0], np.linalg.qr(vecs)[0]):
            assert np.array_equal(_fix_eigvec_signs(v), first_significant_positive(v))


def _gate_accepts(k: np.ndarray) -> bool:
    try:
        check_psd(k)
    except NotPsdError as err:
        assert "eigenvalue" in str(err)
        return False
    return True


class TestCheckPsd:
    @pytest.mark.parametrize("n", [5, 50, 300])
    def test_verdict_matches_eigenvalue_oracle(self, n):
        # Q diag(lam) Q^T with one exact null direction and lambda_min 5 %
        # inside or outside -floor; the verdict must be eigvalsh's
        for seed in range(40):
            rng = np.random.default_rng([seed, n])
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spread = 10.0 ** rng.uniform(-8.0, 0.0, n - 2)
            for scale in (1e-3, 1.0, 1e6):
                base = np.concatenate([[0.0, 0.0], scale * spread])
                floor = 1e-10 * max(1.0, float(np.abs((q * base) @ q.T).max()))
                for factor, inside in ((0.95, True), (1.05, False)):
                    lam = base.copy()
                    lam[0] = -factor * floor
                    k = symmetrize((q * lam) @ q.T)
                    gate_floor = 1e-10 * max(1.0, float(np.abs(k).max()))
                    oracle = float(np.linalg.eigvalsh(k)[0]) >= -gate_floor
                    assert oracle == inside, (seed, scale, factor)
                    assert _gate_accepts(k) == oracle, (seed, scale, factor)

    @pytest.mark.parametrize("spec", [
        KernelSpec("linear"),
        KernelSpec("polynomial", degree=3),
        KernelSpec("se", lengthscale=2.0),
    ], ids=lambda spec: spec.family)
    def test_singular_gram_passes_without_eigensolve(self, spec, monkeypatch):
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, (300, 2))
        k = gram(spec, pts)
        assert np.linalg.matrix_rank(k) < 300

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        gate = check_psd(k)
        assert gate.values is None and gate.matrix is k

    def test_near_symmetric_input_is_symmetrized(self):
        k = np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]])
        gate = check_psd(k)
        assert np.array_equal(gate.matrix, symmetrize(k))
        assert np.array_equal(gate.matrix, gate.matrix.T)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == 1.0

    def test_diagonal_absolute_max(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == 5.0

    def test_against_power_iteration(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 7))
        assert abs(spectral_norm(a) - power_iteration_norm(a)) < 1e-8

    def test_zero(self):
        assert spectral_norm(np.zeros((2, 3))) == 0.0


class TestRangeProjector:
    def test_full_rank_square(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        assert np.allclose(range_projector(a), np.eye(4), atol=1e-12)

    def test_axis_column(self):
        p = range_projector(np.array([[1.0], [0.0]]))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-15)

    def test_random_rank3(self):
        rng = np.random.default_rng(13)
        a = random_rank(rng, 6, 6, 3)
        p = range_projector(a)
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.T).max() < 1e-10
        assert np.abs(p @ a - a).max() < 1e-10

    def test_zero(self):
        assert np.array_equal(range_projector(np.zeros((3, 3))), np.zeros((3, 3)))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rcond == 1e-12 and tol.abs_psd == 1e-10

    @pytest.mark.parametrize("bad", [{"rcond": 0.0}, {"rcond": 1.5}, {"abs_psd": -1e-3}])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)
