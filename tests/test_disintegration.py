import dataclasses
import re
import warnings

import numpy as np
import pytest

from olskit import disintegration
from olskit.disintegration import (
    DiscreteMeasure,
    conditional_gaussian,
    convolution_sample,
    default_test_functions,
    discrete_convolution,
    discrete_ols,
    disintegration_check,
    residual_model,
    stochastic_ols_sample,
    total_variation,
    uii_counterexample,
)
from olskit.arrays import ArrayDesign, model_from_design, restriction_map
from olskit.kernels import KernelSpec
from olskit.linalg import NumericalError, psd_factor
from olskit.model import FiniteModel, ols_build, sample

from helpers import (
    mc_mean_cov,
    merged_atoms_tuples,
    random_psd,
    total_variation_tuples,
)

RHO = 0.8
RESIDUAL_IDENTITIES = (r"residual identities fail: \|R K - K R\^T\| = \S+, "
                       r"\|R K R\^T - R K\| = \S+, bound (\S+)")
BIVARIATE = FiniteModel(np.zeros(2), np.array([[1.0, RHO], [RHO, 1.0]]))
FIRST_COORD = np.array([[1.0, 0.0]])
SHORT_X = np.sort(np.random.default_rng(0).uniform(0.0, 10.0, 400))
SHORT_POINTS = np.concatenate([np.delete(SHORT_X, np.arange(0, 400, 4)), SHORT_X[::4]])


def schur_conditional(k, obs_idx, y):
    """Independent oracle: Schur-complement conditional mean and covariance."""
    all_idx = list(range(k.shape[0]))
    rest = [i for i in all_idx if i not in obs_idx]
    k_oo = k[np.ix_(obs_idx, obs_idx)]
    k_ro = k[np.ix_(rest, obs_idx)]
    k_rr = k[np.ix_(rest, rest)]
    mean_rest = k_ro @ np.linalg.solve(k_oo, y)
    cov_rest = k_rr - k_ro @ np.linalg.solve(k_oo, k_ro.T)
    return rest, mean_rest, cov_rest


def short_lengthscale_design():
    """400 sorted uniform points on [0, 10], Matern-5/2 with lengthscale 0.5,
    every 4th observed, queries first."""
    design = ArrayDesign(SHORT_POINTS[:, None], KernelSpec("matern52", lengthscale=0.5))
    return model_from_design(design), restriction_map(design, range(300, 400))


class TestResidualModel:
    def test_identity_observation_gives_zero_measure(self):
        rng = np.random.default_rng(0)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        res = residual_model(ols_build(model, np.eye(3)))
        assert np.abs(res.mean).max() < 1e-10
        assert np.abs(res.cov).max() < 1e-9

    def test_zero_observation_gives_centered_copy(self):
        rng = np.random.default_rng(1)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        res = residual_model(ols_build(model, np.zeros((2, 3))))
        assert np.abs(res.mean).max() < 1e-12
        assert np.allclose(res.cov, model.cov, atol=1e-12)

    def test_random_identities(self):
        rng = np.random.default_rng(2)
        model = FiniteModel(rng.standard_normal(5), random_psd(rng, 5))
        g = rng.standard_normal((2, 5))
        est = ols_build(model, g)
        res = residual_model(est)
        rk = est.resid @ model.cov
        assert np.linalg.norm(res.cov - rk) < 1e-10

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_rounding_on_i400_is_a_numerical_failure(self, ell):
        # I400: the 300 points off every 4th observed; the identities hold in
        # exact arithmetic, so a failure is rounding, never bad input
        design = ArrayDesign(SHORT_X[:, None], KernelSpec("matern52", lengthscale=ell))
        observed = np.delete(np.arange(400), np.arange(0, 400, 4))
        est = ols_build(model_from_design(design), restriction_map(design, observed))
        try:
            residual_model(est)
        except NumericalError as err:
            named = re.fullmatch(RESIDUAL_IDENTITIES, str(err))
            assert named and named[1] == "1.000e-08", str(err)  # max|K| = 1

    def test_gate_rejection_of_the_residual_is_a_numerical_failure(self):
        # two coordinates are the observed four's combinations up to 1e-6, so
        # R K R^T is ~1e-12 of max|K|: the identities pass their bound,
        # 1e-8 max|K|, by far, but R K R^T carries rounding of K's scale,
        # far past its own PSD floor, at every scale of K
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 6))
        f = np.vstack([a, rng.standard_normal((2, 4)) @ a + 1e-6 * rng.standard_normal((2, 6))])
        for scale in (1.0, 1e-6):
            est = ols_build(FiniteModel(np.zeros(6), scale * (f @ f.T)), np.eye(4, 6))
            with pytest.raises(NumericalError, match=r"^R K R\^T is PSD in exact arithmetic, "
                                                     r"but cov is not PSD: eigenvalue"):
                residual_model(est)

    @pytest.mark.parametrize("variance", [1.0, 1e-6])
    def test_identity_and_fiber_verdicts_do_not_depend_on_units(self, variance):
        # 40 points of [0, 1], SE with ell = 0.2, 30 observed: the identities
        # and the fiber fail by rounding at 6 to 70 times their bounds, and
        # both bounds are 1e-8 max|K|, so the verdicts are the same at every
        # variance (under 1e-8 max(1, max|K|) both passed at variance 1e-6)
        x = np.linspace(0.0, 1.0, 40)
        design = ArrayDesign(x[:, None], KernelSpec("se", lengthscale=0.2, variance=variance))
        observed = np.delete(np.arange(40), np.arange(0, 40, 4))
        model = model_from_design(design)
        g = restriction_map(design, observed)
        with pytest.raises(NumericalError) as err:
            residual_model(ols_build(model, g))
        named = re.fullmatch(RESIDUAL_IDENTITIES, str(err.value))
        assert named and named[1] == f"{1e-8 * variance:.3e}", str(err.value)
        with pytest.raises(NumericalError, match="leaks off the fiber"):
            conditional_gaussian(model, g, np.sqrt(variance) * np.sin(x[observed]))

    def test_identity_defects_are_named_with_the_bound(self):
        rng = np.random.default_rng(6)
        model = FiniteModel(np.zeros(4), random_psd(rng, 4))
        est = ols_build(model, rng.standard_normal((2, 4)))
        skewed = dataclasses.replace(est, resid=est.resid + 1e-6 * np.triu(np.ones((4, 4))))
        with pytest.raises(NumericalError) as err:
            residual_model(skewed)
        named = re.fullmatch(RESIDUAL_IDENTITIES, str(err.value))
        assert named and named[1] == f"{1e-8 * np.abs(model.cov).max():.3e}", str(err.value)


class TestConditionalGaussian:
    def test_identity_observation_point_mass(self):
        rng = np.random.default_rng(4)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        y = model.mean + model.cov @ rng.standard_normal(3)
        cond = conditional_gaussian(model, np.eye(3), y)
        assert np.allclose(cond.mean, y, atol=1e-8)
        assert np.abs(cond.residual_cov).max() < 1e-9

    def test_bivariate_schur_oracle(self):
        y = 1.7
        cond = conditional_gaussian(BIVARIATE, FIRST_COORD, [y])
        assert np.allclose(cond.mean, [y, RHO * y], atol=1e-12)
        assert np.allclose(cond.residual_cov, np.diag([0.0, 1.0 - RHO**2]), atol=1e-12)
        rest, mean_rest, cov_rest = schur_conditional(BIVARIATE.cov, [0], np.array([y]))
        assert np.allclose(cond.mean[rest], mean_rest, atol=1e-12)
        assert np.allclose(cond.residual_cov[np.ix_(rest, rest)], cov_rest, atol=1e-12)

    def test_higher_dimensional_schur_oracle(self):
        rng = np.random.default_rng(5)
        k = random_psd(rng, 5)
        model = FiniteModel(np.zeros(5), k)
        obs_idx = [0, 2]
        g = np.zeros((2, 5))
        g[0, 0] = g[1, 2] = 1.0
        y = rng.standard_normal(2)
        cond = conditional_gaussian(model, g, y)
        rest, mean_rest, cov_rest = schur_conditional(k, obs_idx, y)
        assert np.allclose(cond.mean[rest], mean_rest, atol=1e-9)
        assert np.allclose(cond.residual_cov[np.ix_(rest, rest)], cov_rest, atol=1e-9)

    def test_mean_data_gives_prior_mean(self):
        rng = np.random.default_rng(6)
        model = FiniteModel(rng.standard_normal(4), random_psd(rng, 4))
        g = rng.standard_normal((2, 4))
        cond = conditional_gaussian(model, g, g @ model.mean)
        assert np.allclose(cond.mean, model.mean, atol=1e-12)

    def test_continuity_in_hyperparameters_and_data(self):
        # conditional means and residual covariances converge as
        # (lengthscale_k, y_k) -> (lengthscale, y)
        from olskit.arrays import ArrayDesign, model_from_design, restriction_map
        from olskit.kernels import KernelSpec

        pts = np.linspace(0, 1, 5)[:, None]
        obs = restriction_map(ArrayDesign(pts, KernelSpec("se")), [0, 4])
        y = np.array([0.5, -1.0])
        base = conditional_gaussian(
            model_from_design(ArrayDesign(pts, KernelSpec("se", lengthscale=0.6))),
            obs, y,
        )
        gaps = []
        for k in range(1, 11):
            ell = 0.6 * (1 + 2.0**-k)
            yk = y + 2.0**-k * np.array([0.3, -0.2])
            cond = conditional_gaussian(
                model_from_design(ArrayDesign(pts, KernelSpec("se", lengthscale=ell))),
                obs, yk,
            )
            gaps.append(
                np.linalg.norm(cond.mean - base.mean)
                + np.linalg.norm(cond.residual_cov - base.residual_cov)
            )
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2 * gaps[0]


class TestStochasticSampling:
    def test_zero_residual_returns_estimate(self):
        rng = np.random.default_rng(7)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        y = model.mean + model.cov @ rng.standard_normal(3)
        cond = conditional_gaussian(model, np.eye(3), y)
        draws = stochastic_ols_sample(cond, 0, 100)
        assert np.abs(draws - cond.mean).max() < 1e-6

    def test_samples_on_fiber(self):
        rng = np.random.default_rng(8)
        model = FiniteModel(rng.standard_normal(4), random_psd(rng, 4))
        g = rng.standard_normal((2, 4))
        y = g @ (model.mean + model.cov @ rng.standard_normal(4))
        cond = conditional_gaussian(model, g, y)
        draws = stochastic_ols_sample(cond, 1, 10_000)
        assert np.abs(draws @ g.T - y[None, :]).max() < 1e-8

    def test_bivariate_moments(self):
        y = 0.9
        cond = conditional_gaussian(BIVARIATE, FIRST_COORD, [y])
        n = 100_000
        draws = stochastic_ols_sample(cond, 2, n)
        assert np.abs(draws[:, 0] - y).max() < 1e-8
        mean2 = draws[:, 1].mean()
        var2 = draws[:, 1].var(ddof=1)
        true_var = 1.0 - RHO**2
        assert abs(mean2 - RHO * y) < 4.0 * np.sqrt(true_var / n)
        assert abs(var2 - true_var) < 4.0 * true_var * np.sqrt(2.0 / n)

    def test_empirical_cov_matches_conditional(self):
        rng = np.random.default_rng(9)
        model = FiniteModel(rng.standard_normal(4), random_psd(rng, 4))
        g = rng.standard_normal((1, 4))
        y = g @ model.mean + 0.3
        cond = conditional_gaussian(model, g, y)
        draws = stochastic_ols_sample(cond, 3, 100_000)
        _, cov = mc_mean_cov(draws)
        scale = np.abs(cond.residual_cov).max()
        assert np.abs(cov - cond.residual_cov).max() < 4.0 * scale * np.sqrt(2.0 / draws.shape[0]) * 4


class TestConvolution:
    def test_identity_observation_reproduces_first_draws(self):
        rng = np.random.default_rng(10)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        n = 500
        draws = convolution_sample(ols_build(model, np.eye(3)), 11, n)
        f = psd_factor(model.cov, model.tol)
        z = np.random.default_rng(11).standard_normal((2 * n, 3))
        v1 = model.mean[None, :] + z[:n] @ f.T
        assert np.abs(draws - v1).max() < 1e-9

    def test_gaussian_convolution_matches_model(self):
        rng = np.random.default_rng(12)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        g = rng.standard_normal((1, 3))
        n = 100_000
        draws = convolution_sample(ols_build(model, g), 13, n)
        mean, cov = mc_mean_cov(draws)
        sd = np.sqrt(np.diag(model.cov))
        assert np.all(np.abs(mean - model.mean) < 4.0 * sd / np.sqrt(n))
        se_cov = 4.0 * np.sqrt((np.outer(sd**2, sd**2) + model.cov**2) / n)
        assert np.all(np.abs(cov - model.cov) < se_cov)

    @pytest.mark.parametrize("seed", range(5))
    def test_estimator_draws_from_the_model_it_was_built_from(self, seed):
        # same n, mean and map: only the covariance tells the models apart
        rng = np.random.default_rng(seed)
        a = FiniteModel(np.zeros(3), random_psd(rng, 3))
        b = FiniteModel(np.zeros(3), random_psd(rng, 3))
        g = rng.standard_normal((1, 3))
        est_a, est_b = ols_build(a, g), ols_build(b, g)
        rk_a, rk_b = est_a.resid @ a.cov, est_b.resid @ b.cov
        assert np.abs(rk_a - rk_b).max() > 1e-6
        cov = residual_model(est_a).cov
        assert np.abs(cov - rk_a).max() < 1e-10
        assert np.abs(cov - rk_b).max() > 1e-6

        n = 10
        v = sample(a, seed, 2 * n)
        v1, v2 = v[:n], v[n:]
        lifted = (v1 @ g.T - est_a.data_mean) @ est_a.gain.T
        c = v2 - a.mean
        for _ in range(2):
            c = c - (c @ g.T) @ est_a.gain.T
        assert np.array_equal(convolution_sample(est_a, seed, n), a.mean + lifted + c)


class TestDisintegrationCheck:
    def test_constant_function_exact(self):
        rng = np.random.default_rng(14)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        g = rng.standard_normal((1, 3))
        report = disintegration_check(
            model, g, [("const", lambda v: np.ones(v.shape[0]))],
            seed=0, n_samples=2000,
        )
        assert report.rows[0].difference == 0.0
        assert report.passed

    def test_gaussian_battery_passes(self):
        rng = np.random.default_rng(15)
        model = FiniteModel(rng.standard_normal(3), random_psd(rng, 3))
        g = rng.standard_normal((2, 3))
        report = disintegration_check(model, g, seed=42, n_samples=100_000)
        assert not report.exact
        assert report.passed, [r.name for r in report.rows if not r.passed]

    def test_discrete_non_uii_flagged(self):
        measure, obs, _ = uii_counterexample()
        forbidden = np.array([1.0, 1.0])

        def indicator(v):
            return np.all(np.isclose(v, forbidden[None, :], atol=1e-12), axis=1).astype(float)

        report = disintegration_check(measure, obs, [("forbidden", indicator)])
        assert report.exact
        assert not report.passed
        assert abs(report.rows[0].difference + 1.0 / 16.0) < 1e-15

    def test_gaussian_check_shares_the_conditioning_residual_map(self):
        # R K rounds to a negative eigenvalue on this input; neither the
        # check nor the sampler factors it
        model, obs = short_lengthscale_design()
        report = disintegration_check(
            model, obs, [("const", lambda v: np.ones(v.shape[0]))], n_samples=10,
        )
        assert report.rows[0].difference == 0.0
        cond = conditional_gaussian(model, obs, np.sin(SHORT_POINTS[300:]))
        g, b = cond.estimator.obs, cond.estimator.gain
        c = sample(model, 5, 20) - model.mean[None, :]
        for _ in range(2):
            c = c - (c @ g.T) @ b.T
        assert np.array_equal(stochastic_ols_sample(cond, 5, 20), cond.mean[None, :] + c)


class TestSamplerFromPriorDraws:
    @pytest.mark.parametrize("seed", range(10))
    def test_draws_as_close_to_the_fiber_as_the_mean(self, seed):
        # condition-like input: 20 Matern-5/2 observations among 120 points
        rng = np.random.default_rng([seed, 1])
        xo = 0.5 * (np.arange(20) + rng.uniform(0.2, 0.8, 20))
        points = np.concatenate([rng.uniform(0.0, 10.0, 100), xo])
        design = ArrayDesign(points[:, None], KernelSpec("matern52", lengthscale=1.0))
        model = model_from_design(design)
        obs = restriction_map(design, range(100, 120))
        y = sample(FiniteModel(np.zeros(20), model.cov[100:, 100:]), seed, 1)[0]
        cond = conditional_gaussian(model, obs, y)
        draws = stochastic_ols_sample(cond, seed, 300)
        mean_err = float(np.abs(obs @ cond.mean - y).max())
        draw_err = float(np.abs(draws @ obs.T - y[None, :]).max())
        assert draw_err <= 1.5 * max(mean_err, 1e-16 * float(np.abs(y).max()))

    def test_only_the_prior_covariance_is_factored(self, monkeypatch):
        model, obs = short_lengthscale_design()
        cond = conditional_gaussian(model, obs, np.sin(SHORT_POINTS[300:]))
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            if a.shape == (model.n, model.n):
                seen.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        stochastic_ols_sample(cond, 0, 10)
        assert seen and all(np.array_equal(a, model.cov) for a in seen)


class TestMonteCarloSampleCount:
    # the Monte Carlo bound is 4 sample standard deviations of the paired
    # differences, which one draw cannot give
    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_below_two_draws_is_refused(self, n_samples):
        gaussian = FiniteModel(np.zeros(2), np.eye(2))
        rng = np.random.default_rng(22)
        large = DiscreteMeasure(np.full(150, 1.0 / 150.0), rng.standard_normal((150, 2)))
        for measure in (gaussian, large):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="n_samples must be at least 2"):
                    disintegration_check(measure, FIRST_COORD, n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [2.5, True, "3"])
    def test_count_must_be_an_integer(self, n_samples):
        est = ols_build(BIVARIATE, FIRST_COORD)
        with pytest.raises(ValueError, match="^n_samples: must be an integer >= 0$"):
            disintegration_check(BIVARIATE, FIRST_COORD, n_samples=n_samples)
        with pytest.raises(ValueError, match="^n_samples: must be an integer >= 0$"):
            convolution_sample(est, 0, n_samples)

    @pytest.mark.parametrize("seed", [True, 2.5, -1])
    def test_seed_must_be_an_integer_on_every_monte_carlo_path(self, seed):
        # past the enumeration cap a discrete law used to take True as seed 1,
        # and 2.5 reached numpy's TypeError
        large = DiscreteMeasure(np.full(150, 1.0 / 150.0),
                                np.random.default_rng(22).standard_normal((150, 2)))
        for measure in (BIVARIATE, large):
            with pytest.raises(ValueError, match="^seed: must be an integer >= 0$"):
                disintegration_check(measure, FIRST_COORD, seed=seed, n_samples=10)

    @pytest.mark.parametrize("field, value", [
        ("n_random", True), ("n_random", 2.5), ("n_random", -1),
        ("seed", True), ("seed", 2.5), ("n", 2.0)])
    def test_battery_counts_and_seed_are_integers(self, field, value):
        # n_random=True used to build one random function, and 2.5 reached
        # range()'s TypeError
        kwargs = {"n": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field}: must be an integer >= 0$"):
            default_test_functions(**kwargs)

    def test_two_draws_are_enough(self):
        report = disintegration_check(BIVARIATE, FIRST_COORD, n_samples=2)
        assert report.n_samples == 2
        assert all(np.isfinite(r.bound) for r in report.rows)

    def test_exact_path_ignores_the_count(self):
        measure, obs, _ = uii_counterexample()
        report = disintegration_check(measure, obs, n_samples=1)
        assert report.exact and report.n_samples == 0


class TestLargeDiscreteFallback:
    def test_mc_path_used_beyond_enumeration_cap(self):
        # 150 atoms -> 22500 convolution pairs, above the 10^4 cap
        rng = np.random.default_rng(20)
        points = rng.standard_normal((150, 2))
        probs = np.full(150, 1.0 / 150.0)
        measure = DiscreteMeasure(probs, points)
        g = np.array([[1.0, 0.0]])
        report = disintegration_check(measure, g, seed=21, n_samples=40_000)
        assert not report.exact
        assert report.n_samples == 40_000
        # first and second moments along the observed coordinate are
        # preserved by the convolution for any measure, so those rows pass
        by_name = {r.name: r for r in report.rows}
        assert by_name["const"].passed
        assert by_name["coord_0"].passed
        assert by_name["prod_0_0"].passed

    def test_small_measure_still_exact(self):
        measure = DiscreteMeasure(
            np.full(4, 0.25),
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        )
        report = disintegration_check(measure, np.array([[1.0, 0.0]]))
        assert report.exact


class TestUiiCounterexample:
    def test_report_values(self):
        measure, obs, report = uii_counterexample()
        assert report["coordinate_covariance"] == 0.0
        assert report["forbidden_mass_model"] == 0.0
        assert report["forbidden_mass_convolution"] == 1.0 / 16.0
        assert report["tv_distance"] == 0.5
        assert report["tv_distance"] >= 1.0 / 16.0

    def test_uncorrelated_by_enumeration(self):
        measure, _, _ = uii_counterexample()
        assert measure.expectation(lambda v: v[:, 0] * v[:, 1]) == 0.0

    def test_convolution_atoms(self):
        measure, obs, _ = uii_counterexample()
        conv = discrete_convolution(measure, obs)
        # independent product of lifted {(+-1,0): 1/4, (0,0): 1/2} and
        # residual {(0,+-1): 1/4, (0,0): 1/2}
        assert conv.probs.size == 9
        table = {tuple(p): pr for p, pr in zip(conv.points, conv.probs)}
        assert table[(1.0, 1.0)] == 1.0 / 16.0
        assert table[(0.0, 0.0)] == 1.0 / 4.0
        assert table[(1.0, 0.0)] == 1.0 / 8.0
        assert abs(sum(table.values()) - 1.0) < 1e-15

    def test_total_variation_symmetry(self):
        measure, obs, _ = uii_counterexample()
        conv = discrete_convolution(measure, obs)
        assert total_variation(measure, conv) == total_variation(conv, measure)
        assert total_variation(measure, measure) == 0.0

    @pytest.mark.parametrize("a, b", [
        (([0.5, 0.5], [[0.0], [0.0]]), ([1.0], [[0.0]])),
        (([0.25, 0.25, 0.5], [[1.0], [1.0], [2.0]]), ([0.5, 0.5], [[1.0], [2.0]])),
    ])
    def test_total_variation_adds_repeated_atoms(self, a, b):
        a, b = DiscreteMeasure(*a), DiscreteMeasure(*b)
        assert total_variation(a, b) == 0.0
        assert total_variation(b, a) == 0.0


def atom_laws():
    """Seeded laws of up to 8 rows in d <= 3 on a coarse grid: rows repeat,
    some carry +-1e-13 offsets that round away (to -0.0 at zero), and some
    masses are zero."""
    rng = np.random.default_rng(2828)
    for case in range(400):
        d, k = 1 + case % 3, int(rng.integers(1, 9))
        base = rng.integers(-2, 3, (int(rng.integers(1, k + 1)), d)) * 0.5
        points = base[rng.integers(0, len(base), k)]
        points = points + rng.choice([0.0, 1e-13, -1e-13], (k, d))
        probs = rng.random(k)
        probs[rng.random(k) < 0.2] = 0.0
        probs[0] += probs.sum() == 0.0
        yield rng, DiscreteMeasure(probs / probs.sum(), points)


def same_bits(got: DiscreteMeasure, probs: np.ndarray, points: np.ndarray) -> bool:
    return (got.points.shape == points.shape and got.probs.tobytes() == probs.tobytes()
            and got.points.tobytes() == points.tobytes())


class TestAtomsMatchTupleOracle:
    def test_merge_and_convolution(self):
        merged = signed_zeros = zero_masses = 0
        for rng, m in atom_laws():
            got = disintegration._merge_atoms(m.probs, m.points)
            assert same_bits(got, *merged_atoms_tuples(m.probs, m.points))
            merged += got.probs.size < m.probs.size
            signed_zeros += bool(np.any(np.signbit(got.points) & (got.points == 0.0)))
            zero_masses += bool(np.any(got.probs == 0.0))
            # the enumeration written out: lifted atom i plus residual atom j
            obs = rng.standard_normal((int(rng.integers(1, m.n + 1)), m.n))
            est = discrete_ols(m, obs)
            lifted = disintegration._lift(est, m.points)
            pairs = (lifted[:, None, :] + (m.points - lifted)[None, :, :]).reshape(-1, m.n)
            conv = discrete_convolution(m, obs)
            assert same_bits(conv, *merged_atoms_tuples(np.outer(m.probs, m.probs).ravel(),
                                                        pairs))
        assert min(merged, signed_zeros, zero_masses) > 0

    def test_total_variation_both_orders(self):
        laws = [m for _, m in atom_laws()]
        for a, b in zip(laws, laws[3:]):  # case and case + 3 share d
            for x, y in ((a, b), (b, a), (a, discrete_convolution(a, np.eye(a.n)[:1]))):
                assert repr(total_variation(x, y)) == repr(total_variation_tuples(x, y))

    def test_total_variation_refuses_another_dimension(self):
        a = DiscreteMeasure([1.0], [[1.0]])
        b = DiscreteMeasure([1.0], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="index dimension mismatch: 1 vs 2"):
            total_variation(a, b)


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure([0.5, 0.4], [[0.0], [1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteMeasure([1.5, -0.5], [[0.0], [1.0]])

    def test_moments(self):
        m = DiscreteMeasure([0.5, 0.5], [[0.0, 1.0], [2.0, 3.0]])
        assert np.allclose(m.mean(), [1.0, 2.0])
        assert np.allclose(m.cov(), [[1.0, 1.0], [1.0, 1.0]])

    def test_default_battery_contents(self):
        names = [name for name, _ in default_test_functions(2, seed=0)]
        assert names[0] == "const"
        assert "coord_0" in names and "prod_0_1" in names and "tanh_4" in names
