from collections import Counter

import numpy as np
import pytest
from scipy import integrate, stats

from relfuse import demo
from relfuse.bsp import (
    BetaStacyProcess,
    DiscreteCdf,
    LifetimeSample,
    dp_prior,
)
from relfuse.demo import demo_config
from relfuse.oracle import (
    StructuralLifetime,
    WeibullLifetime,
    censoring_rate,
    exact_three_beta_product_pdf,
    kaplan_meier,
    simulate_bsp_paths,
    simulate_lifetimes,
    three_beta_product_cdf_grid,
)
from relfuse.rbd import component, parallel, series


class TestKaplanMeier:
    def test_censored_worked_example(self):
        data = [LifetimeSample(1.0, 1), LifetimeSample(2.0, 0), LifetimeSample(3.0, 1)]
        km = kaplan_meier(data)
        np.testing.assert_array_equal(km.grid, [1.0, 3.0])
        np.testing.assert_allclose(km.values, [1 / 3, 1.0], atol=1e-15)

    def test_ties(self):
        data = [LifetimeSample(2.0, 1), LifetimeSample(2.0, 0), LifetimeSample(3.0, 1)]
        km = kaplan_meier(data)
        np.testing.assert_array_equal(km.grid, [2.0, 3.0])
        np.testing.assert_allclose(km.values, [1 / 3, 1.0], atol=1e-15)

    def test_requires_a_failure(self):
        with pytest.raises(ValueError):
            kaplan_meier([LifetimeSample(1.0, 0)])
        with pytest.raises(ValueError):
            kaplan_meier([])


class TestPathSimulation:
    def test_deterministic_per_seed(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 3.0)
        a = simulate_bsp_paths(prior, 500, seed=11)
        b = simulate_bsp_paths(prior, 500, seed=11)
        np.testing.assert_array_equal(a.mean, b.mean)
        c = simulate_bsp_paths(prior, 500, seed=12)
        assert not np.array_equal(a.mean, c.mean)

    def test_mean_matches_base_measure(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]), 4.0)
        res = simulate_bsp_paths(prior, 40000, seed=5)
        z = np.abs(res.mean - prior.base.values) / np.maximum(res.mean_se, 1e-12)
        assert z[:-1].max() < 4.0
        assert res.mean[-1] == 1.0
        assert res.mean_se[-1] == 0.0

    def test_zero_precision_interior_jump_rejected(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 0.0)
        with pytest.raises(ValueError, match="nonpositive beta shapes"):
            simulate_bsp_paths(prior, 10, seed=1)

    def test_zero_mass_jump_is_skipped(self):
        prior = BetaStacyProcess(
            DiscreteCdf(np.array([1.0, 2.0]), np.array([0.4, 0.4])),
            np.array([2.0, 2.0]),
        )
        res = simulate_bsp_paths(prior, 2000, seed=3)
        np.testing.assert_array_equal(res.mean[0:2][0], res.mean[1])


class TestThreeBetaProduct:
    def test_density_normalizes(self):
        total, err = integrate.quad(lambda y: float(exact_three_beta_product_pdf(y)), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_mean(self):
        m, _ = integrate.quad(lambda y: y * float(exact_three_beta_product_pdf(y)), 0.0, 1.0)
        assert m == pytest.approx(4 / 11, abs=1e-6)

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
        with pytest.raises(ValueError, match="reaches a censored share of"):
            censoring_rate(WeibullLifetime(shape, scale), 0.15)

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

    @pytest.mark.parametrize("label", ["electric", "batteries"])
    def test_survival_evaluated_once_per_time(self, label):
        sampler = demo_config().samplers()[label]
        seen = Counter()
        cdf = sampler.cdf

        def counting_cdf(t):
            seen[t] += 1
            return cdf(t)

        sampler.cdf = counting_cdf
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
        assert all(s.time > 0 for s in datasets[0].samples)

    def test_zero_rate_is_uncensored(self):
        (ds,) = simulate_lifetimes({"a": WeibullLifetime(2.0, 100.0)}, 50, {"a": 0.0}, seed=1)
        assert all(s.event == 1 for s in ds.samples)

    def test_mean_censored_share(self):
        sampler = {"a": WeibullLifetime(2.2, 1400.0)}
        rates = {"a": censoring_rate(sampler["a"], 0.15)}
        total, censored = 0, 0
        for seed in range(10000):
            (ds,) = simulate_lifetimes(sampler, 30, rates, seed=seed)
            total += len(ds)
            censored += sum(1 - s.event for s in ds.samples)
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
