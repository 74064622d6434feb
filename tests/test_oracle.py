import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import integrate, stats

from relfuse import demo, oracle
from relfuse.bsp import (
    BetaStacyProcess,
    DiscreteCdf,
    dp_prior,
)
from relfuse.demo import demo_config
from relfuse.fusion import moments_of
from relfuse.oracle import (
    StructuralLifetime,
    WeibullLifetime,
    censoring_rate,
    exact_three_beta_product_pdf,
    kaplan_meier,
    sample_bsp_paths,
    simulate_lifetimes,
    three_beta_product_cdf_grid,
)
from relfuse.rbd import component, parallel, series
from relfuse.validation import _moment_z


class TestKaplanMeier:
    def test_censored_worked_example(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        np.testing.assert_array_equal(km.grid, [1.0, 3.0])
        np.testing.assert_allclose(km.values, [1 / 3, 1.0], atol=1e-15)

    def test_ties(self):
        km = kaplan_meier([2.0, 2.0, 3.0], [1, 0, 1])
        np.testing.assert_array_equal(km.grid, [2.0, 3.0])
        np.testing.assert_allclose(km.values, [1 / 3, 1.0], atol=1e-15)

    def test_requires_a_failure(self):
        with pytest.raises(ValueError):
            kaplan_meier([1.0], [0])
        with pytest.raises(ValueError):
            kaplan_meier([], [])


class TestPathSimulation:
    def test_deterministic_per_seed(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 3.0)
        a = sample_bsp_paths(prior, 500, seed=11)
        np.testing.assert_array_equal(a, sample_bsp_paths(prior, 500, seed=11))
        assert not np.array_equal(a, sample_bsp_paths(prior, 500, seed=12))

    def test_paths_are_cdfs(self):
        prior = BetaStacyProcess(
            DiscreteCdf(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.3, 0.3, 0.8, 1.0])),
            np.array([2.0, 2.0, 0.5, 1.0]),
        )
        paths = sample_bsp_paths(prior, 2000, seed=3)
        assert paths.shape == (4, 2000)
        assert np.all((paths >= 0.0) & (paths <= 1.0))
        assert np.all(np.diff(paths, axis=0) >= 0.0)

    def test_mean_matches_base_measure(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]), 4.0)
        curve = moments_of(prior)
        assert _moment_z(curve.first, curve.second, sample_bsp_paths(prior, 40000, seed=5)) < 4.0

    def test_zero_precision_interior_jump_rejected(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 0.0)
        with pytest.raises(ValueError, match="nonpositive beta shapes"):
            sample_bsp_paths(prior, 10, seed=1)

    def test_zero_mass_jump_is_skipped(self):
        prior = BetaStacyProcess(
            DiscreteCdf(np.array([1.0, 2.0]), np.array([0.4, 0.4])),
            np.array([2.0, 2.0]),
        )
        paths = sample_bsp_paths(prior, 2000, seed=3)
        np.testing.assert_array_equal(paths[1], paths[0])

    def test_paths_are_one_from_a_terminal_point_on(self):
        prior = BetaStacyProcess(
            DiscreteCdf(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.0])),
            np.array([3.0, 1.0, 1.0]),
        )
        paths = sample_bsp_paths(prior, 2000, seed=4)
        assert np.all(paths[0] < 1.0)
        np.testing.assert_array_equal(paths[1:], 1.0)

    def test_standard_errors_need_two_paths(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 3.0)
        curve = moments_of(prior)
        with pytest.raises(ValueError, match="at least 2 paths"):
            _moment_z(curve.first, curve.second, sample_bsp_paths(prior, 1, seed=1))

    @pytest.mark.parametrize("n_paths, seed", [(10.5, 1), (10, 1.5)], ids=["n_paths", "seed"])
    def test_counts_and_seeds_must_be_integers(self, n_paths, seed):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 3.0)
        with pytest.raises(TypeError):
            sample_bsp_paths(prior, n_paths, seed)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_counts_must_be_positive(self, n_paths):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 3.0)
        with pytest.raises(ValueError, match="n_paths must be positive"):
            sample_bsp_paths(prior, n_paths, seed=1)


class TestThreeBetaProduct:
    def test_density_endpoints(self):
        assert exact_three_beta_product_pdf(0.0) == 0.0
        assert float(exact_three_beta_product_pdf(1.0)) == pytest.approx(0.0, abs=1e-8)

    def test_density_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            exact_three_beta_product_pdf(1.5)

    def test_cdf_grid_is_proper(self):
        grid, cdf = three_beta_product_cdf_grid()
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_matches_beta_product_mc(self):
        # The closed form is the density of Beta(9,3) * Beta(8,3) * Beta(4,2);
        # simulation of that product must match it.
        rng = np.random.default_rng(77)
        draws = (
            rng.beta(9, 3, 200000) * rng.beta(8, 3, 200000) * rng.beta(4, 2, 200000)
        )
        grid, cdf = three_beta_product_cdf_grid()
        emp = np.searchsorted(np.sort(draws), grid) / draws.size
        assert np.max(np.abs(emp - cdf)) < 0.005


class TestSamplers:
    def test_weibull_cdf_matches_scipy(self):
        w = WeibullLifetime(2.2, 1400.0)
        t = np.array([200.0, 900.0, 2500.0])
        np.testing.assert_allclose(
            w.cdf(t), stats.weibull_min.cdf(t, 2.2, scale=1400.0), atol=1e-12
        )

    def test_weibull_sample_moments(self):
        w = WeibullLifetime(2.0, 100.0)
        draws = w.sample(np.random.default_rng(1), 200000)
        assert draws.mean() == pytest.approx(100.0 * np.sqrt(np.pi) / 2, rel=0.01)

    @pytest.mark.parametrize(
        "shape, scale",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1e400, 1.0), (1.0, 1e400), (np.nan, 1.0), (1.0, np.nan)],
    )
    def test_weibull_rejects_nonfinite_or_nonpositive(self, shape, scale):
        with pytest.raises(ValueError, match="finite and positive"):
            WeibullLifetime(shape, scale)

    def test_structural_sampling_matches_exact_cdf(self):
        tree = series(component("a"), parallel(component("b"), component("c")))
        leaves = {
            "a": WeibullLifetime(2.0, 100.0),
            "b": WeibullLifetime(1.5, 80.0),
            "c": WeibullLifetime(2.5, 120.0),
        }
        sampler = StructuralLifetime(tree, leaves)
        draws = sampler.sample(np.random.default_rng(3), 100000)
        for t in (40.0, 80.0, 150.0):
            emp = np.mean(draws <= t)
            assert emp == pytest.approx(sampler.cdf(t), abs=0.01)

    def test_structural_requires_all_leaves(self):
        tree = series(component("a"), component("b"))
        with pytest.raises(ValueError, match="no sampler"):
            StructuralLifetime(tree, {"a": WeibullLifetime(2.0, 1.0)})


class TestCensoringCalibration:
    @pytest.mark.parametrize("scale", [0.5, 100.0])
    @pytest.mark.parametrize("fraction", [0.05, 0.15, 0.6])
    def test_exponential_rate_has_closed_form(self, fraction, scale):
        # With T ~ Exp(1/s) and C ~ Exp(lam), P(C < T) = lam s / (1 + lam s).
        lam = censoring_rate(WeibullLifetime(1.0, scale), fraction)
        assert lam == pytest.approx(fraction / ((1.0 - fraction) * scale), rel=1e-9, abs=0.0)

    def test_weibull_rate_calibrates_share(self):
        w = WeibullLifetime(2.2, 1400.0)
        lam = censoring_rate(w, 0.15)
        rng = np.random.default_rng(9)
        t = w.sample(rng, 400000)
        c = rng.exponential(1.0 / lam, size=400000)
        assert np.mean(c < t) == pytest.approx(0.15, abs=0.005)

    @pytest.mark.parametrize(
        "shape, scale", [(1.0, 1e300), (1e-5, 1.0)], ids=["scale_1e300", "shape_1e-5"]
    )
    def test_rate_missing_the_share_raises(self, shape, scale):
        # The bisection lands on a rate whose share is 1.0 and 0.37 here.
        # The share check reports it; the search's quadrature warnings do not escape.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="reaches a censored share of"):
                censoring_rate(WeibullLifetime(shape, scale), 0.15)
        assert not [w for w in caught if issubclass(w.category, integrate.IntegrationWarning)]

    def test_demo_rates_are_pinned(self):
        # Bit-exact rates: seeded simulations, and the benchmark's recorded
        # outputs, depend on every digit of them.
        expected = {
            "system": "0x1.8d5269dd5c17ep-12",
            "propeller": "0x1.18288378f3102p-13",
            "drive_shaft": "0x1.2c96c58239f1ep-13",
            "gearing": "0x1.6597f97422094p-13",
            "propulsion": "0x1.3db05c666eaf8p-12",
            "electric": "0x1.31540d3fc252ep-11",
            "motor": "0x1.9d84c1a68c990p-13",
            "batteries": "0x1.3334e104e1403p-12",
            "motor_controller": "0x1.74e09a9585ca6p-13",
            "serpentine_belt": "0x1.791ec376341f8p-12",
            "gas": "0x1.6039e79a86218p-12",
            "engine": "0x1.0308d9aac686cp-12",
            "gas_delivery": "0x1.befdf7d12a8b8p-13",
        }
        samplers = demo_config().samplers()
        assert samplers.keys() == expected.keys()
        for label, sampler in samplers.items():
            assert censoring_rate(sampler, 0.15) == float.fromhex(expected[label]), label

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.2, 5.0])
    @pytest.mark.parametrize("scale", [0.5, 100.0, 1e5])
    def test_direct_quadpack_call_is_quad(self, shape, scale):
        # The calibration calls QUADPACK's QAGI itself; it must return what
        # integrate.quad does, to the last bit, and flag exactly when quad warns.
        w = WeibullLifetime(shape, scale)
        for lam in (1e-3 / scale, 0.1 / scale, 0.3 / scale, 1.0 / scale, 7.0 / scale, 1e3 / scale):
            for f in (
                lambda t: lam * math.exp(-lam * t) * (1.0 - w.cdf(t)),
                lambda x: math.exp(-x) * (1.0 - w.cdf(x / lam)),
            ):
                value, ier = oracle._quad_to_inf(f)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    expected, _ = integrate.quad(f, 0.0, np.inf, limit=200)
                assert type(value) is float and value == expected, lam
                assert bool(ier) == bool(caught), lam

    def test_share_check_warns_as_quad_does(self):
        # A lifetime uniform on 1000 equal steps: the share check reaches the
        # target, but QUADPACK runs out of subdivisions on the steps.
        class StepLifetime:
            def cdf(self, t):
                return min(1.0, math.floor(1000.0 * t) / 1000.0)

            def time_scale(self):
                return 1.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rate = censoring_rate(StepLifetime(), 0.15)
        assert rate == float.fromhex("0x1.5601b31e57500p-2")
        [warning] = caught
        assert warning.category is integrate.IntegrationWarning
        assert str(warning.message).startswith("The maximum number of subdivisions (200)")
        assert warning.filename == oracle.__file__

    @pytest.mark.parametrize("label", ["electric", "batteries"])
    def test_survival_evaluated_once_per_time(self, label):
        sampler = demo_config().samplers()[label]
        seen = Counter()
        cdf = sampler.cdf

        def counting_cdf(t):
            seen[t] += 1
            return cdf(t)

        # A WeibullLifetime is frozen; the counting cdf goes on this one instance.
        object.__setattr__(sampler, "cdf", counting_cdf)
        for fraction in (0.15, 0.3):
            seen.clear()
            censoring_rate(sampler, fraction)
            assert seen and max(seen.values()) == 1


class TestSimulateLifetimes:
    def test_deterministic_and_order_independent(self):
        samplers = {"a": WeibullLifetime(2.0, 100.0), "b": WeibullLifetime(1.5, 50.0)}
        flipped = {"b": samplers["b"], "a": samplers["a"]}
        rates = {label: censoring_rate(s, 0.15) for label, s in samplers.items()}
        one = simulate_lifetimes(samplers, 20, rates, seed=4)
        two = simulate_lifetimes(flipped, 20, rates, seed=4)
        assert {d.label: d for d in one} == {d.label: d for d in two}
        three = simulate_lifetimes(samplers, 20, rates, seed=5)
        assert {d.label: d for d in one} != {d.label: d for d in three}

    def test_shapes_and_positivity(self):
        datasets = simulate_lifetimes({"a": WeibullLifetime(2.0, 100.0)}, 30, {"a": 0.01}, seed=1)
        assert len(datasets) == 1
        assert len(datasets[0]) == 30
        assert np.all(datasets[0].times > 0)

    def test_zero_rate_is_uncensored(self):
        (ds,) = simulate_lifetimes({"a": WeibullLifetime(2.0, 100.0)}, 50, {"a": 0.0}, seed=1)
        assert ds.events.all()

    def test_mean_censored_share(self):
        sampler = {"a": WeibullLifetime(2.2, 1400.0)}
        rates = {"a": censoring_rate(sampler["a"], 0.15)}
        total, censored = 0, 0
        for seed in range(10000):
            (ds,) = simulate_lifetimes(sampler, 30, rates, seed=seed)
            total += len(ds)
            censored += int(np.sum(~ds.events))
        assert censored / total == pytest.approx(0.15, abs=0.01)

    def test_rejects_bad_arguments(self):
        sampler = {"a": WeibullLifetime(2.0, 1.0)}
        with pytest.raises(ValueError):
            simulate_lifetimes(sampler, 0, {"a": 0.1}, seed=1)
        with pytest.raises(ValueError):
            simulate_lifetimes(sampler, 5, {"a": 0.1}, seed=-1)
        for rates in ({}, {"b": 0.1}, {"a": -0.1}, {"a": np.inf}, {"a": np.nan}):
            with pytest.raises(ValueError, match="censoring rate"):
                simulate_lifetimes(sampler, 5, rates, seed=1)
        for n, seed in ((2.5, 1), (5, 0.9)):
            with pytest.raises(TypeError):
                simulate_lifetimes(sampler, n, {"a": 0.1}, seed=seed)
        numpy_ints = simulate_lifetimes(sampler, np.int64(5), {"a": 0.1}, seed=np.uint64(1))
        assert numpy_ints == simulate_lifetimes(sampler, 5, {"a": 0.1}, seed=1)


class TestDemoCalibration:
    def test_second_simulate_reuses_rates(self, monkeypatch):
        cfg = demo_config()
        first = cfg.simulate(3)
        calls = []
        calibrate = demo.censoring_rate

        def counting_rate(sampler, fraction):
            calls.append(fraction)
            return calibrate(sampler, fraction)

        monkeypatch.setattr(demo, "censoring_rate", counting_rate)
        assert cfg.simulate(3) == first
        assert calls == []
        assert demo_config().simulate(3) == first
        assert len(calls) == len(cfg.samplers())

    def test_rates_follow_the_configured_fraction(self):
        base = demo_config()
        cfg = demo.DemoConfig(base.rbd_source, base.components, n_per_node=20, censor_fraction=0.3)
        samplers = cfg.samplers()
        rates = {label: censoring_rate(sampler, 0.3) for label, sampler in samplers.items()}
        assert cfg.simulate(5) == simulate_lifetimes(samplers, 20, rates, seed=5)


class TestFrozenDemoConfig:
    # A config calibrates its censoring once, so a field that could change
    # afterwards would leave rates that belong to other values.
    @pytest.mark.parametrize(
        "change",
        [
            lambda cfg: setattr(cfg, "censor_fraction", 0.6),
            lambda cfg: setattr(cfg, "n_per_node", 10**7),
            lambda cfg: cfg.components.__setitem__("motor", WeibullLifetime(1.0, 10.0)),
            lambda cfg: setattr(cfg.components["motor"], "scale", 10.0),
        ],
        ids=["censor_fraction", "n_per_node", "components", "weibull"],
    )
    def test_no_field_changes_after_calibration(self, change):
        cfg = demo_config()
        cfg.simulate(0)
        with pytest.raises((AttributeError, TypeError)):
            change(cfg)
        fresh = demo_config()
        assert cfg.simulate(1) == fresh.simulate(1)
        assert cfg._censor_rates == fresh._censor_rates
        assert (cfg.censor_fraction, cfg.n_per_node) == (0.15, 30)

    def test_components_are_a_copy(self):
        components = {"a": WeibullLifetime(2.0, 100.0)}
        cfg = demo.DemoConfig("a", components)
        components["a"] = WeibullLifetime(1.0, 1.0)
        assert cfg.components["a"] == WeibullLifetime(2.0, 100.0)
