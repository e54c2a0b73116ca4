import numpy as np
import pytest

from olskit.disintegration import conditional_gaussian
from olskit import linalg
from olskit.linalg import (NotPsdError, NumericalError, Tolerance, check_psd, pinv,
                           range_projector)
from olskit.model import (
    ContractError,
    FiniteModel,
    SupportViolationError,
    contravariance_check,
    estimator_delta_norm,
    gmt_compare,
    ols_build,
    ols_estimate,
    operator_norm,
    paley_wiener,
    pushforward,
    random_right_inverse,
    risk,
    sample,
)

from olskit import model as model_module
from olskit.arrays import ArrayDesign, model_from_design, restriction_map
from olskit.kernels import KernelSpec

from helpers import (
    gls_variances,
    mc_mean_cov,
    mean_se,
    min_norm_interpolant,
    ols_build_dense,
    random_psd,
)


def make_model(seed, n, rank=None, zero_mean=False):
    rng = np.random.default_rng(seed)
    k = random_psd(rng, n, rank)
    m = np.zeros(n) if zero_mean else rng.standard_normal(n)
    return FiniteModel(m, k), rng


HAND_K = np.array([[2.0, 1.0], [1.0, 1.0]])
HAND_G = np.array([[1.0, 0.0]])


class TestFiniteModelGate:
    def test_small_indefinite_covariance_rejected(self):
        # lambda_min = -1e-12 is a third of lambda_max: indefinite in any units
        with pytest.raises(NotPsdError, match="eigenvalue -1.000e-12"):
            FiniteModel(np.zeros(2), 1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPushforward:
    def test_identity_map(self):
        model, _ = make_model(0, 3)
        out = pushforward(model, np.eye(3))
        assert np.allclose(out.mean, model.mean) and np.allclose(out.cov, model.cov)

    def test_zero_map(self):
        model, _ = make_model(1, 3)
        out = pushforward(model, np.zeros((2, 3)))
        assert np.array_equal(out.mean, np.zeros(2))
        assert np.array_equal(out.cov, np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        model, _ = make_model(0, 3)
        with pytest.raises(ValueError, match="columns"):
            pushforward(model, np.zeros((2, 4)))

    def test_gate_rejection_of_a_pushforward_is_a_numerical_failure(self):
        # second differences of a smooth SE prior: G K G^T is PSD in exact
        # arithmetic, but its rounding scales with K, far past its own floor
        design = ArrayDesign(np.linspace(0.0, 1.0, 50)[:, None], KernelSpec("se"))
        with pytest.raises(NumericalError, match=r"^G K G\^T is PSD in exact arithmetic, "
                                                 r"but cov is not PSD: eigenvalue"):
            pushforward(model_from_design(design), np.diff(np.eye(50), 2, axis=0))

    def test_monte_carlo_moments(self):
        model, rng = make_model(2, 3)
        g = rng.standard_normal((2, 3))
        out = pushforward(model, g)
        draws = sample(model, 99, 100_000) @ g.T
        mean, cov = mc_mean_cov(draws)
        assert np.all(np.abs(mean - out.mean) < 4.0 * mean_se(draws))
        # rough 4-SE bound for covariance entries of a Gaussian
        se_cov = 4.0 * np.sqrt(
            (np.outer(np.diag(out.cov), np.diag(out.cov)) + out.cov**2) / draws.shape[0]
        )
        assert np.all(np.abs(cov - out.cov) < se_cov)


class TestOlsBuild:
    def test_orthonormal_rows_identity_cov(self):
        g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        model = FiniteModel(np.zeros(3), np.eye(3))
        est = ols_build(model, g)
        assert np.allclose(est.gain, g.T, atol=1e-12)

    def test_hand_example_gain(self):
        model = FiniteModel(np.zeros(2), HAND_K)
        est = ols_build(model, HAND_G)
        assert np.allclose(est.gain, [[1.0], [0.5]], atol=1e-12)

    def test_full_rank_data_cov_right_inverse(self):
        model, rng = make_model(3, 5)
        g = rng.standard_normal((3, 5))
        est = ols_build(model, g)
        assert np.allclose(g @ est.gain, np.eye(3), atol=1e-10)

    def test_projection_invariants(self):
        model, rng = make_model(4, 6)
        g = rng.standard_normal((3, 6))
        est = ols_build(model, g)
        k = model.cov
        assert np.abs(est.lift @ est.lift - est.lift).max() < 1e-10
        assert np.abs(est.resid @ est.resid - est.resid).max() < 1e-10
        assert np.abs(est.lift @ est.resid).max() < 1e-10
        assert np.abs(est.lift @ k @ est.resid.T).max() < 1e-10

    def test_lifted_and_residual_covariance_identities(self):
        model, rng = make_model(5, 6, rank=4)
        g = rng.standard_normal((3, 6))
        est = ols_build(model, g)
        k = model.cov
        lk = est.lift @ k
        rk = est.resid @ k
        assert np.abs(est.lift @ k @ est.lift.T - lk).max() < 1e-10
        assert np.abs(lk - k @ est.lift.T).max() < 1e-10
        assert np.abs(est.resid @ k @ est.resid.T - rk).max() < 1e-10
        assert np.abs(rk - k @ est.resid.T).max() < 1e-10

    def test_oblique_right_inverse_idempotent_but_not_orthogonal(self):
        model, rng = make_model(6, 5)
        g = rng.standard_normal((2, 5))
        est = ols_build(model, g)
        alt = random_right_inverse(est, 12)
        lift = alt @ g
        resid = np.eye(5) - lift
        assert np.abs(lift @ lift - lift).max() < 1e-8
        assert np.abs(lift @ model.cov @ resid.T).max() > 1e-4


def _model_estimator_conditional():
    model, rng = make_model(7, 4)
    g = rng.standard_normal((2, 4))
    cond = conditional_gaussian(model, g, g @ model.mean)
    return model, cond.estimator, cond


class TestIdentity:
    @pytest.mark.parametrize("which", range(3),
                             ids=["FiniteModel", "OlsEstimator", "ConditionalModel"])
    def test_equality_is_identity_and_hashable(self, which):
        obj = _model_estimator_conditional()[which]
        twin = _model_estimator_conditional()[which]  # equal arrays, new objects
        assert obj == obj
        assert not obj == twin
        assert hash(obj) == hash(obj)

    def test_estimator_holds_the_model_it_was_built_from(self):
        model, est, cond = _model_estimator_conditional()
        assert est.model is model and cond.estimator is est
        assert est.n == model.n


ESTIMATOR_FIELDS = ("gain", "p_range", "lift", "resid", "data_mean")


def assert_matches_dense(model, g):
    est = ols_build(model, g)
    want = ols_build_dense(model.cov, model.mean, g)
    for name in ESTIMATOR_FIELDS:
        assert np.array_equal(getattr(est, name), want[name]), name


class TestSelectionMaps:
    """A restriction map applied by index gives the dense products' bits."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("nugget", [0.0, 1e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restriction_map_matches_dense_build(self, q, nugget, seed):
        rng = np.random.default_rng([seed, q])
        n = 60
        mix = np.array([[1.0, 0.4], [0.4, 0.8]]) if q == 2 else None
        spec = KernelSpec("matern52", lengthscale=0.7, output_dim=q,
                          coregionalization=mix)
        pts = rng.uniform(0.0, 10.0, (n, 2))
        mean = np.repeat((np.sin(pts[:, 0]) + pts[:, 1])[:, None], q, axis=1)
        design = ArrayDesign(pts, spec, mean=mean)
        model = model_from_design(design)
        # a prior with a nugget, K + nugget I, gathers its diagonal bit for bit too
        model = FiniteModel(model.mean, model.cov + nugget * np.eye(model.n))
        subset = rng.permutation(n)[: int(rng.integers(1, n))]
        g = restriction_map(design, subset)
        assert model_module._selected_columns(g) is not None
        assert_matches_dense(model, g)

    @pytest.mark.parametrize("edit", ["two", "double", "negative", "repeat"])
    def test_other_maps_take_the_dense_path(self, edit):
        model, rng = make_model(7, 8)
        g = np.zeros((3, 8))
        g[[0, 1, 2], [5, 1, 6]] = 1.0
        if edit == "two":
            g[1, 3] = 1.0
        elif edit == "double":
            g[2, 6] = 2.0
        elif edit == "negative":
            g[0, 5] = -1.0
        else:
            g[2] = g[0]
        assert model_module._selected_columns(g) is None
        assert_matches_dense(model, g)


class TestOlsEstimate:
    def test_maps_data_mean_to_mean(self):
        model, rng = make_model(7, 4)
        g = rng.standard_normal((2, 4))
        est = ols_build(model, g)
        assert np.array_equal(ols_estimate(est, est.data_mean), model.mean)

    def test_identity_map_full_rank(self):
        model, _ = make_model(8, 3)
        est = ols_build(model, np.eye(3))
        y = np.array([0.3, -1.0, 2.0])
        assert np.allclose(ols_estimate(est, y), y, atol=1e-10)

    @pytest.mark.parametrize("project", ["no", 1, None])
    def test_project_must_be_a_bool(self, project):
        model, _ = make_model(9, 3)
        est = ols_build(model, np.eye(3)[:2])
        with pytest.raises(ValueError, match="^project: must be True or False"):
            ols_estimate(est, [1.0, 2.0], project=project)

    def test_data_of_another_length_is_refused(self):
        # one datum used to broadcast to y = (1, 1) and (5, 5)
        model, rng = make_model(9, 3)
        est = ols_build(model, np.eye(3)[:2])
        with pytest.raises(ValueError, match="data has 1 entries, the observation map has 2"):
            ols_estimate(est, [1.0])
        with pytest.raises(ValueError, match="data has 3 entries, the observation map has 2"):
            ols_estimate(est, np.ones(3))
        with pytest.raises(ValueError, match="data has 1 entries"):
            conditional_gaussian(model, np.eye(3)[:2], [5.0])

    def test_hand_example(self):
        model = FiniteModel(np.zeros(2), HAND_K)
        est = ols_build(model, HAND_G)
        v = ols_estimate(est, [2.0])
        assert np.allclose(v, [2.0, 1.0], atol=1e-12)
        assert abs((HAND_G @ v)[0] - 2.0) < 1e-12

    def test_min_norm_oracle(self):
        model, rng = make_model(9, 6)
        g = rng.standard_normal((3, 6))
        est = ols_build(model, g)
        y = rng.standard_normal(3)
        want = min_norm_interpolant(model.cov, g, model.mean, y)
        assert np.allclose(ols_estimate(est, y), want, atol=1e-8)

    def test_min_norm_oracle_scipy(self):
        from scipy.optimize import minimize

        model, rng = make_model(10, 4, zero_mean=True)
        g = rng.standard_normal((2, 4))
        y = rng.standard_normal(2)
        kinv = np.linalg.inv(model.cov)
        res = minimize(
            lambda v: v @ kinv @ v,
            np.linalg.lstsq(g, y, rcond=None)[0],
            constraints=[{"type": "eq", "fun": lambda v: g @ v - y}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-16},
        )
        est = ols_build(model, g)
        assert np.allclose(ols_estimate(est, y), res.x, atol=1e-6)

    def test_main_theorem_inverse_identity(self):
        # estimating G K G^T e + data mean recovers m + K G^T e
        for seed, rank in ((11, None), (12, 3)):
            model, rng = make_model(seed, 6, rank=rank)
            g = rng.standard_normal((4, 6))
            est = ols_build(model, g)
            s = g @ model.cov @ g.T
            for _ in range(100):
                e = rng.standard_normal(4)
                got = ols_estimate(est, s @ e + est.data_mean)
                want = model.mean + model.cov @ g.T @ e
                assert np.abs(got - want).max() < 1e-8

    def test_support_violation(self):
        model, _ = make_model(13, 3, rank=1)
        est = ols_build(model, np.eye(3))
        bad = model.mean + np.array([1.0, 2.0, -0.5])
        with pytest.raises(SupportViolationError) as err:
            ols_estimate(est, bad)
        assert err.value.residual > 0.0

    def test_support_verdict_does_not_depend_on_units(self):
        # a repeated functional with two values 1e-4 apart is off the support
        # at every scale; an absolute term once accepted it below c ~ 1e-11
        est = ols_build(FiniteModel(np.zeros(2), np.eye(2)), [[1.0, 0.0], [1.0, 0.0]])
        for k in range(-60, 61):
            with pytest.raises(SupportViolationError):
                ols_estimate(est, 2.0 ** k * np.array([1.0, 1.0 + 1e-4]))
            got = ols_estimate(est, [2.0 ** k] * 2)  # on the support at every scale
            assert np.allclose(got, [2.0 ** k, 0.0], rtol=1e-14, atol=0.0)
        assert np.array_equal(ols_estimate(est, [0.0, 0.0]), [0.0, 0.0])

    def test_support_projection_optin(self):
        model, _ = make_model(13, 3, rank=1)
        est = ols_build(model, np.eye(3))
        bad = model.mean + np.array([1.0, 2.0, -0.5])
        v = ols_estimate(est, bad, project=True)
        assert np.abs(est.obs @ v - (est.data_mean + est.p_range @ (bad - est.data_mean))).max() < 1e-10

    def test_empty_observation_returns_prior_mean(self):
        model, _ = make_model(14, 3)
        est = ols_build(model, np.zeros((0, 3)))
        assert np.array_equal(ols_estimate(est, np.zeros(0)), model.mean)


class TestContravariance:
    def test_second_map_identity(self):
        model, rng = make_model(15, 5)
        g1 = rng.standard_normal((3, 5))
        assert contravariance_check(model, g1, np.eye(3)) < 1e-10

    def test_first_map_identity(self):
        model, rng = make_model(16, 5)
        g2 = rng.standard_normal((3, 5))
        assert contravariance_check(model, np.eye(5), g2) < 1e-10

    def test_random_chain(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            model = FiniteModel(rng.standard_normal(8), random_psd(rng, 8))
            g1 = rng.standard_normal((5, 8))
            g2 = rng.standard_normal((3, 5))
            assert contravariance_check(model, g1, g2) < 1e-8


class TestRisk:
    def test_ols_is_unbiased(self):
        model, rng = make_model(17, 5)
        g = rng.standard_normal((2, 5))
        est = ols_build(model, g)
        rep = risk(est, est.gain, rng.standard_normal(5))
        assert rep.bias == 0.0
        assert rep.identity_residual < 1e-10

    def test_identity_observation(self):
        model, rng = make_model(18, 4)
        f = rng.standard_normal(4)
        rep = risk(ols_build(model, np.eye(4)), np.eye(4), f)
        assert abs(rep.mse) < 1e-12
        assert abs(rep.estvar - f @ model.cov @ f) < 1e-10

    def test_offset_of_another_length_is_refused(self):
        model, rng = make_model(20, 4)
        est = ols_build(model, rng.standard_normal((2, 4)))
        with pytest.raises(ValueError, match="offset has 1 entries, the model has 4"):
            risk(est, est.gain, rng.standard_normal(4), offset=[0.5])

    def test_oblique_identity_residual(self):
        model, rng = make_model(19, 6)
        g = rng.standard_normal((3, 6))
        est = ols_build(model, g)
        for seed in range(10):
            alt = random_right_inverse(est, seed)
            rep = risk(est, alt, rng.standard_normal(6))
            assert rep.identity_residual < 1e-10

    def test_monte_carlo_oracle(self):
        model, rng = make_model(20, 4, zero_mean=True)
        g = rng.standard_normal((2, 4))
        est = ols_build(model, g)
        alt = random_right_inverse(est, 5)
        f = rng.standard_normal(4)
        rep = risk(est, alt, f)
        draws = sample(model, 31, 100_000)
        estimates = (draws @ g.T) @ alt.T  # anchored, zero-mean model
        est_vals = estimates @ f
        resid_vals = (draws - estimates) @ f
        se_var = np.sqrt(2.0 / draws.shape[0]) * np.var(est_vals)
        assert abs(np.var(est_vals) - rep.estvar) < 4.0 * se_var + 1e-12
        se_mse = 4.0 * np.std(resid_vals**2, ddof=1) / np.sqrt(draws.shape[0])
        assert abs(np.mean(resid_vals**2) - rep.mse) < se_mse

    def test_explicit_offset_bias(self):
        model, rng = make_model(21, 4)
        g = rng.standard_normal((2, 4))
        est = ols_build(model, g)
        f = rng.standard_normal(4)
        shift = rng.standard_normal(4)
        anchored = model.mean - est.gain @ est.data_mean
        rep = risk(est, est.gain, f, offset=anchored + shift)
        assert abs(rep.bias - f @ shift) < 1e-10
        assert rep.identity_residual < 1e-10

    def test_non_right_inverse_rejected(self):
        model, rng = make_model(22, 4)
        g = rng.standard_normal((2, 4))
        with pytest.raises(ContractError):
            risk(ols_build(model, g), np.zeros((4, 2)), rng.standard_normal(4))


class TestRandomRightInverse:
    def test_contract(self):
        model, rng = make_model(23, 5)
        g = rng.standard_normal((3, 5))
        est = ols_build(model, g)
        for seed in range(20):
            alt = random_right_inverse(est, seed)
            assert np.abs(g @ alt - np.eye(3)).max() < 1e-10

    def test_zero_noise_is_ols(self):
        model, rng = make_model(24, 4)
        g = rng.standard_normal((2, 4))
        est = ols_build(model, g)
        alt = est.gain + est.resid @ np.zeros((4, 2)) @ est.p_range
        assert np.array_equal(alt, est.gain)

    def test_seeds_differ(self):
        model, rng = make_model(25, 4)
        g = rng.standard_normal((2, 4))
        est = ols_build(model, g)
        a = random_right_inverse(est, 0)
        b = random_right_inverse(est, 1)
        assert np.linalg.norm(a - b) > 0.0

    def test_rank_deficient_rejected(self):
        model, _ = make_model(26, 4, rank=1)
        est = ols_build(model, np.eye(4)[:3])
        with pytest.raises(ValueError, match="full-rank"):
            random_right_inverse(est, 0)

    @pytest.mark.parametrize("seed", [True, 2.5, -1, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # True used to pass as seed 1, and 2.5 reached numpy's TypeError
        model, rng = make_model(25, 4)
        est = ols_build(model, rng.standard_normal((2, 4)))
        with pytest.raises(ValueError, match="^seed: must be an integer >= 0$"):
            random_right_inverse(est, seed)


class TestGmtCompare:
    def test_self_comparison_equalities(self):
        model, rng = make_model(27, 5)
        g = rng.standard_normal((2, 5))
        est = ols_build(model, g)
        report = gmt_compare(model, g, rng.standard_normal(5), [est.gain])
        row = report.rows[0]
        assert abs(row.estvar_slack) < 1e-12
        assert abs(row.mse_slack) < 1e-12
        assert row.equality

    def test_seeded_mse_inequality_and_identity(self):
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            model = FiniteModel(rng.standard_normal(5), random_psd(rng, 5))
            g = rng.standard_normal((2, 5))
            est = ols_build(model, g)
            f = rng.standard_normal(5)
            alts = [random_right_inverse(est, s) for s in range(30)]
            report = gmt_compare(model, g, f, alts)
            assert report.mse_pass
            assert report.identity_pass
            assert all(r.excess >= -1e-12 for r in report.rows)
            assert not any(r.equality for r in report.rows)
            # the two formulations agree: mse slack equals the projected excess
            assert all(abs(r.mse_slack - r.excess) < 1e-8 for r in report.rows)

    def test_equality_flag_ignores_the_units_of_f(self):
        # the adjoint gap is held relative to the larger of the two actions
        # on f, so f and c f get one verdict for every c > 0
        model, rng = make_model(0, 5)
        g = rng.standard_normal((3, 5))
        est = ols_build(model, g)
        alts = [est.gain, random_right_inverse(est, 1)]
        for k in range(-60, 61):
            report = gmt_compare(model, g, 2.0 ** k * np.ones(5), alts)
            assert [r.equality for r in report.rows] == [True, False], k

    def test_biased_estimator_mse_still_dominates(self):
        model, rng = make_model(28, 5)
        g = rng.standard_normal((2, 5))
        est = ols_build(model, g)
        f = rng.standard_normal(5)
        alts, offsets = [], []
        for seed in range(10):
            alt = random_right_inverse(est, seed)
            alts.append(alt)
            offsets.append(model.mean - alt @ est.data_mean + rng.standard_normal(5))
        report = gmt_compare(model, g, f, alts, offsets=offsets)
        assert any(abs(r.bias) > 1e-3 for r in report.rows)
        assert report.mse_pass
        assert report.identity_pass

    def test_offsets_pair_with_every_alternative(self):
        # zip used to stop at the shorter list: five alternatives, one row
        model, rng = make_model(29, 5)
        g = rng.standard_normal((2, 5))
        est = ols_build(model, g)
        alts = [random_right_inverse(est, s) for s in range(5)]
        with pytest.raises(ValueError, match="shorter"):
            gmt_compare(model, g, rng.standard_normal(5), alts, offsets=[None])

    def test_estvar_inequality_counterexample(self):
        # The scalar estimated-variance comparison fails for this oblique
        # right inverse, while the bias-corrected MSE inequality and the
        # matrix Gauss-Markov variance inequality B'^T K^-1 B' >= S^-1 (the
        # form gated in test_criterion_03_estvar_literal) both hold.
        model = FiniteModel(np.zeros(2), HAND_K)
        est = ols_build(model, HAND_G)
        alt = np.array([[1.0], [0.0]])  # = gain + resid @ N @ I with N = e1
        f = np.array([0.0, 1.0])
        report = gmt_compare(model, HAND_G, f, [alt])
        row = report.rows[0]
        assert row.estvar_slack < -0.4  # estvar_alt = 0 < 0.5 = estvar_ols
        assert row.mse_slack >= -1e-12
        assert row.identity_residual < 1e-12
        # by hand: K^-1 = [[1, -1], [-1, 2]], S = 2
        var_alt, var_gls = gls_variances(HAND_K, HAND_G, alt)
        assert abs(var_alt[0, 0] - 1.0) < 1e-12
        assert abs(var_gls[0, 0] - 0.5) < 1e-12
        var_ols, _ = gls_variances(HAND_K, HAND_G, est.gain)
        assert abs(var_ols[0, 0] - 0.5) < 1e-12


class TestOperatorNorms:
    def test_orthonormal_identity(self):
        g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        model = FiniteModel(np.zeros(3), np.eye(3))
        assert abs(operator_norm(ols_build(model, g)) - 1.0) < 1e-12

    def test_scale_invariance_exact(self):
        model, rng = make_model(29, 5)
        g = rng.standard_normal((2, 5))
        base = ols_build(model, g)
        for c in (0.1, 10.0):
            scaled = ols_build(FiniteModel(model.mean, c * model.cov), g)
            assert np.allclose(scaled.gain, base.gain, atol=1e-11)
            assert abs(operator_norm(scaled) - operator_norm(base)) < 1e-11

    def test_sampling_oracle(self):
        # maximize |B y| / |y| over sampled support directions, refined by
        # power iteration from the best start
        model, rng = make_model(30, 5)
        g = rng.standard_normal((3, 5))
        est = ols_build(model, g)
        bp = est.gain @ est.p_range
        samples = rng.standard_normal((10_000, 3))
        ratios = np.linalg.norm(samples @ bp.T, axis=1) / np.linalg.norm(samples, axis=1)
        v = samples[int(np.argmax(ratios))]
        for _ in range(500):
            w = bp.T @ (bp @ v)
            v = w / np.linalg.norm(w)
        refined = float(np.linalg.norm(bp @ v))
        assert abs(operator_norm(est) - refined) < 1e-6 * refined

    def test_estimator_delta_decreases_with_lengthscale(self):
        from olskit.arrays import ArrayDesign, model_from_design, restriction_map
        from olskit.kernels import KernelSpec

        pts = np.linspace(0, 1, 6)[:, None]
        obs = restriction_map(ArrayDesign(pts, KernelSpec("se")), [0, 2, 5])

        def model_at(ell):
            return model_from_design(ArrayDesign(pts, KernelSpec("se", lengthscale=ell)))

        base = model_at(0.7)
        deltas = [
            estimator_delta_norm(base, model_at(0.7 * (1 + 2.0**-k)), obs)
            for k in range(1, 13)
        ]
        assert all(x > y for x, y in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1e-3


class TestPaleyWiener:
    def test_zero_functional(self):
        model, rng = make_model(33, 4)
        assert paley_wiener(model, np.zeros(4), rng.standard_normal(4)) == 0.0

    def test_at_the_mean(self):
        model, rng = make_model(34, 4)
        u = model.cov @ rng.standard_normal(4)
        assert paley_wiener(model, u, model.mean) == 0.0

    def test_isometry_monte_carlo(self):
        model, rng = make_model(35, 4, rank=3)
        u = model.cov @ rng.standard_normal(4)
        draws = sample(model, 77, 100_000)
        vals = np.array([(pinv(model.cov) @ u) @ (v - model.mean) for v in draws])
        want = u @ pinv(model.cov) @ u
        se = np.sqrt(2.0 / draws.shape[0]) * want
        assert abs(np.var(vals) - want) < 4.0 * se

    def test_outside_range_rejected(self):
        model, _ = make_model(36, 3, rank=1)
        p = range_projector(model.cov)
        u = (np.eye(3) - p) @ np.array([1.0, 1.0, 1.0])
        assert np.linalg.norm(u) > 1e-3
        with pytest.raises(SupportViolationError):
            paley_wiener(model, u, model.mean)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n, rank", [(6, None), (6, 3), (12, 5)])
    def test_one_svd_matches_projector_and_pinv(self, seed, n, rank):
        # the pairing from pinv(K) and range_projector(K), each its own SVD
        model, rng = make_model(100 + seed, n, rank)
        v = rng.standard_normal(n)
        for u in (model.cov @ rng.standard_normal(n), rng.standard_normal(n)):
            resid = np.linalg.norm(u - range_projector(model.cov, model.tol) @ u)
            outside = resid > model.tol.support_threshold(float(np.linalg.norm(u)))
            if outside:
                with pytest.raises(SupportViolationError):
                    paley_wiener(model, u, v)
                continue
            ku = pinv(model.cov, model.tol) @ u
            want = float(ku @ (v - model.mean))
            got = paley_wiener(model, u, v)
            assert abs(got - want) <= 1e-12 * np.linalg.norm(ku) * np.linalg.norm(v - model.mean)


class TestSample:
    @pytest.mark.parametrize("seed, n_samples, name", [
        (0, 2.5, "n_samples"), (0, True, "n_samples"), (0, -1, "n_samples"),
        (1.5, 3, "seed"), (True, 3, "seed"), (-1, 3, "seed"),
    ])
    def test_counts_and_seeds_are_integers(self, seed, n_samples, name):
        # int() used to take 2.5 as 2 rows and True as 1
        model = FiniteModel(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=f"^{name}: must be an integer >= 0$"):
            sample(model, seed, n_samples)

    def test_factor_reuses_the_model_certificate(self, monkeypatch):
        # the prior was certified when the model was built; sampling takes
        # that certificate and runs no second PSD check
        model, _ = make_model(41, 5, rank=3)
        want = sample(model, 7, 20)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return check_psd(*args, **kwargs)

        monkeypatch.setattr(linalg, "check_psd", counted)
        assert np.array_equal(sample(model, 7, 20), want)
        assert calls == []
        assert model.floor == model.tol.abs_psd * float(np.abs(model.cov).max())

    def test_zero_covariance(self):
        model = FiniteModel(np.array([1.0, -2.0]), np.zeros((2, 2)))
        draws = sample(model, 0, 50)
        assert np.all(draws == model.mean)

    def test_clt_mean_bound(self):
        model, _ = make_model(37, 3)
        n = 100_000
        draws = sample(model, 123, n)
        bound = 4.0 * np.sqrt(np.diag(model.cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - model.mean) < bound)

    def test_rank_deficient_support(self):
        model, _ = make_model(38, 5, rank=2)
        p = range_projector(model.cov)
        draws = sample(model, 5, 200)
        off = (np.eye(5) - p) @ (draws - model.mean).T
        assert np.abs(off).max() < 1e-10

    def test_deterministic(self):
        model, _ = make_model(39, 3)
        assert np.array_equal(sample(model, 7, 10), sample(model, 7, 10))

    def test_small_scale_covariance_keeps_its_spread(self):
        # every eigenvalue of 1e-12 C lies below abs_psd = 1e-10, yet they are
        # the whole covariance: the factor's cut is relative to max|K|
        base, _ = make_model(40, 3)
        k = 1e-12 * base.cov
        n = 100_000
        draws = sample(FiniteModel(np.zeros(3), k), 41, n)
        empirical = draws.T @ draws / n
        stderr = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k * k) / n)
        assert np.all(np.abs(empirical - k) < 5.0 * stderr)
