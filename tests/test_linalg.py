import re

import numpy as np
import pytest

from olskit.kernels import KernelSpec, gram
from olskit.linalg import (
    NotPsdError,
    PsdGate,
    Tolerance,
    _fix_eigvec_signs,
    as_bool,
    as_int,
    as_matrix,
    as_number,
    as_positive,
    as_vector,
    check_psd,
    pinv,
    psd_factor,
    range_projector,
    spectral_norm,
    symmetrize,
)

from helpers import (
    eigh_factor_oracle,
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

    def test_matches_eigh_oracle(self):
        # full-rank, rank-deficient, indefinite within the floor, tiny and
        # huge scales, and exact zeros: byte for byte the eigh-based factor
        rng = np.random.default_rng(2203)
        cases = [np.zeros((3, 3)), np.zeros((0, 0)), np.diag([4.0, 0.0, 1e-20])]
        for n in (1, 2, 7, 40):
            for rank in sorted({1, n // 2 or 1, n}):
                k = random_psd(rng, n, rank=rank)
                cases += [k, 1e-12 * k, 1e9 * k, k - 0.5e-10 * np.abs(k).max() * np.eye(n)]
        for k in cases:
            assert np.array_equal(psd_factor(k), eigh_factor_oracle(k)), k.shape

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
                floor = 1e-10 * float(np.abs((q * base) @ q.T).max())
                for factor, inside in ((0.95, True), (1.05, False)):
                    lam = base.copy()
                    lam[0] = -factor * floor
                    k = symmetrize((q * lam) @ q.T)
                    gate_floor = 1e-10 * float(np.abs(k).max())
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
        assert check_psd(k).matrix is k

    def test_verdict_is_invariant_under_scaling(self):
        # one floor, abs_psd * max|K|, scales with K: lambda_min at -2 floor
        # is rejected and at -floor/2 accepted, whatever the units
        for seed in range(20):
            rng = np.random.default_rng([seed, 41])
            n = int(rng.integers(3, 40))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.concatenate([[0.0], rng.uniform(1e-3, 1.0, n - 1)])
            floor = 1e-10 * float(np.abs((q * lam) @ q.T).max())
            for factor, inside in ((2.0, False), (0.5, True)):
                lam[0] = -factor * floor
                k = symmetrize((q * lam) @ q.T)
                verdicts = [_gate_accepts(4.0 ** e * k) for e in range(-20, 11)]
                assert verdicts == [inside] * len(verdicts), (seed, factor)

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

    @pytest.mark.parametrize("bad, message", [
        ({"rcond": "0.1"}, "^rcond: expected a number, got '0.1'$"),
        ({"abs_psd": True}, "^abs_psd: expected a number, got True$"),
        ({"rcond": float("nan")}, "^rcond: must be finite, got nan$"),
        ({"abs_psd": 1}, "^abs_psd: must lie strictly between 0 and 1$"),
    ], ids=["string", "bool", "nan", "one"])
    def test_errors_name_the_field(self, bad, message):
        with pytest.raises(ValueError, match=message):
            Tolerance(**bad)

    def test_stored_as_floats(self):
        tol = Tolerance(rcond=np.float32(0.5), abs_psd=np.float64(1e-9))
        assert type(tol.rcond) is float and type(tol.abs_psd) is float


class TestNumberValidators:
    @pytest.mark.parametrize("value", [0, -2, 2.5, np.int64(7), np.float32(0.25),
                                       1e308, -(10 ** 300)])
    def test_number_accepted_as_float(self, value):
        out = as_number(value, "x")
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value, message", [
        (True, "expected a number, got True"), (np.True_, "expected a number, got "),
        ("1", "expected a number, got '1'"), (None, "expected a number, got None"),
        ([1.0], "expected a number, got \\[1.0\\]"), (float("nan"), "must be finite, got nan"),
        (float("inf"), "must be finite, got inf"), (-float("inf"), "must be finite, got -inf"),
        (10 ** 400, "must be finite, got 1000"),
    ], ids=["bool", "numpy-bool", "string", "none", "list", "nan", "inf", "-inf", "huge"])
    def test_number_refused(self, value, message):
        with pytest.raises(ValueError, match="^x: " + message):
            as_number(value, "x")

    @pytest.mark.parametrize("value, dtype", [
        ([True, False], "bool"), (np.array([1, 0], dtype=bool), "bool"),
        (["1", "2"], "<U1"), (np.array([1.0, None]), "object"),
    ], ids=["bool", "numpy-bool", "string", "object"])
    def test_array_refused(self, value, dtype):
        # an array obeys the scalar rule: no bool, string or non-number entries
        message = f"^v: expected numbers, got dtype {re.escape(dtype)}$"
        with pytest.raises(ValueError, match=message):
            as_vector(value, "v")
        # a list around an ndarray would be read entry by entry
        matrix = value[None] if isinstance(value, np.ndarray) else [value]
        with pytest.raises(ValueError, match=message.replace("v:", "m:")):
            as_matrix(matrix, "m")

    def test_array_of_numbers_accepted_as_floats(self):
        out = as_vector([1, np.int8(2), np.float32(2.5)], "v")
        assert out.dtype == float and out.tolist() == [1.0, 2.0, 2.5]

    def test_huge_int_entry_accepted_as_float(self):
        # numpy holds an int beyond int64 as an object, which as_number takes
        assert as_number(2 ** 70, "x") == 2.0 ** 70
        assert as_vector([2 ** 70], "v").tolist() == [2.0 ** 70]
        assert as_matrix([[1, 2 ** 70]], "m").tolist() == [[1.0, 2.0 ** 70]]

    @pytest.mark.parametrize("value, message", [
        ([1, True], "expected a number, got True"),
        ([1.0, True], "expected a number, got True"),
        ([np.int64(1), np.True_], "expected a number, got "),
        ([1.0, None], "expected a number, got None"),
        ([1, 10 ** 400], "must be finite, got 1000"),
    ], ids=["int-bool", "float-bool", "numpy-bool", "none", "huge"])
    def test_sequence_entry_gets_the_scalar_verdict(self, value, message):
        # numpy folds a bool among numbers into them, and makes an object
        # array of the rest; each entry is read as as_number reads it
        with pytest.raises(ValueError, match="^x: " + message):
            as_number(value[1], "x")
        with pytest.raises(ValueError, match="^v: " + message):
            as_vector(value, "v")
        with pytest.raises(ValueError, match="^m: " + message):
            as_matrix([value], "m")

    @pytest.mark.parametrize("value", [[[1, 2], [3]], [1, [2, 3]], [[1.0], [2.0, True]]],
                             ids=["short-row", "scalar-and-row", "mixed"])
    def test_ragged_sequence_names_the_parameter(self, value):
        message = "^v: expected an array, got a ragged sequence$"
        with pytest.raises(ValueError, match=message):
            as_vector(value, "v")
        with pytest.raises(ValueError, match=message.replace("v:", "m:")):
            as_matrix(value, "m")

    def test_positive(self):
        assert as_positive(2, "x") == 2.0 and type(as_positive(np.int64(2), "x")) is float
        assert as_positive(5e-324, "x") == 5e-324
        for value, message in [(0, "must be > 0"), (-0.0, "must be > 0"), (-1e-300, "must be > 0"),
                               (True, "expected a number"), ("1", "expected a number"),
                               (float("inf"), "must be finite"), (float("nan"), "must be finite")]:
            with pytest.raises(ValueError, match=f"^x: {message}"):
                as_positive(value, "x")

    def test_bool(self):
        assert as_bool(True, "b") is True and as_bool(np.False_, "b") is False
        for value in (0, 1, 1.0, "false", None, np.array([True])):
            with pytest.raises(ValueError, match="^b: must be True or False, got "):
                as_bool(value, "b")

    def test_integer(self):
        assert as_int(3, "n", 1) == 3 and type(as_int(np.int32(3), "n", 1)) is int
        assert as_int(0, "n", 0) == 0
        for value in (0, -1, True, np.True_, 2.0, 1.5, "2", None):
            with pytest.raises(ValueError, match="^n: must be an integer >= 1$"):
                as_int(value, "n", 1)
