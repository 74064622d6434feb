import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import relfuse.bsp
from relfuse.bsp import (
    BetaStacyProcess,
    DiscreteCdf,
    NotEstimableError,
    _carry,
    _union,
    beta_match,
    credible_interval,
    dp_prior,
    mean,
    posterior_update,
    second_moment,
)
from relfuse.dataio import Dataset
from relfuse.oracle import kaplan_meier

from conftest import bsp_processes, censored_samples, ecdf_posterior


class TestDiscreteCdf:
    def test_step_lookup(self):
        cdf = DiscreteCdf(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.5, 1.0]))
        assert cdf.at(0.5) == 0.0
        assert cdf.at(1.0) == 0.2
        assert cdf.at(1.5) == 0.2
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_vector_lookup(self):
        cdf = DiscreteCdf(np.array([1.0, 2.0]), np.array([0.3, 0.6]))
        np.testing.assert_array_equal(cdf.at(np.array([0.0, 1.0, 5.0])), [0.0, 0.3, 0.6])

    def test_empty_grid_is_zero(self):
        cdf = DiscreteCdf(np.array([]), np.array([]))
        assert cdf.at(123.0) == 0.0

    @pytest.mark.parametrize(
        "cdf, t",
        [
            (DiscreteCdf([1.0, 2.0, 3.0], [0.3, 0.7, 1.0]), math.nan),
            (DiscreteCdf([1.0, 2.0, 3.0], [0.3, 0.7, 1.0]), [1.5, math.nan]),
            (kaplan_meier([1.0, 2.0, 3.0], [1, 1, 0]), math.nan),
        ],
        ids=["scalar", "array", "kaplan_meier"],
    )
    def test_nan_time_is_rejected(self, cdf, t):
        # searchsorted puts NaN past the grid, where the last value would be read.
        with pytest.raises(ValueError, match="NaN"):
            cdf.at(t)

    @pytest.mark.parametrize(
        "grid, values, t, expected",
        [
            ([], [], [0.5, 7.0], [-1.0, -1.0]),
            ([1.0, 2.0], [0.3, 0.6], [0.0, 0.999], [-1.0, -1.0]),
            ([1.0, 2.0], [0.3, 0.6], [1.0, 1.5, 2.0, 1e9], [0.3, 0.3, 0.6, 0.6]),
        ],
        ids=["empty_grid", "before_grid", "on_and_after_grid"],
    )
    def test_carry(self, grid, values, t, expected):
        got = _carry(np.array(grid), np.array(values), np.array(t), -1.0)
        np.testing.assert_array_equal(got, expected)
        assert _carry(np.array(grid), np.array(values), t[0], -1.0).shape == ()

    @pytest.mark.parametrize(
        "grid, values",
        [
            ([1.0, 1.0], [0.1, 0.2]),
            ([2.0, 1.0], [0.1, 0.2]),
            ([0.0, 1.0], [0.1, 0.2]),
            ([1.0, 2.0], [0.5, 0.4]),
            ([1.0, 2.0], [0.5, 1.2]),
            ([1.0, 2.0], [-0.1, 0.4]),
            ([1.0], [0.1, 0.2]),
            ([1.0, 2.0], [0.5, np.nan]),
            ([1.0, np.inf], [0.1, 0.2]),
        ],
    )
    def test_rejects_malformed(self, grid, values):
        with pytest.raises(ValueError):
            DiscreteCdf(np.asarray(grid, dtype=float), np.asarray(values, dtype=float))


class TestPrecisionAt:
    TIMES = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 9.0])

    @pytest.mark.parametrize(
        "values, precision, expected",
        [
            # The first point's precision before it, then the last non-terminal point's.
            ([0.0, 0.5, 1.0], [2.0, 4.0, np.nan], [2.0, 2.0, 2.0, 4.0, 4.0, 4.0]),
            ([0.25, 0.5, 0.75], [1.0, 0.0, 3.0], [1.0, 1.0, 1.0, 0.0, 3.0, 3.0]),
            # No non-terminal point: 0 before the first point, NaN from it on.
            ([1.0, 1.0, 1.0], [np.nan] * 3, [0.0, np.nan, np.nan, np.nan, np.nan, np.nan]),
            ([], [], [0.0] * 6),
        ],
        ids=["terminal-tail", "all-live", "all-terminal", "empty"],
    )
    def test_rule(self, values, precision, expected):
        grid = np.array([1.0, 2.0, 3.0][: len(values)])
        process = BetaStacyProcess(DiscreteCdf(grid, np.array(values)), np.array(precision))
        np.testing.assert_array_equal(process.precision_at(self.TIMES), expected)
        with pytest.raises(ValueError, match="NaN"):
            process.precision_at([1.0, np.nan])


class TestHorizon:
    @pytest.mark.parametrize(
        "grid, horizon",
        [([1.0, 2.0], 2.0), ([1.0, 2.0], 1.5), ([1.0, 2.0], math.nan), ([], 0.0)],
        ids=["at_last_time", "below_last_time", "nan", "zero_on_empty_grid"],
    )
    def test_rejects_horizon_not_after_grid(self, grid, horizon):
        grid = np.asarray(grid, dtype=float)
        base = DiscreteCdf(grid, np.linspace(0.2, 0.4, grid.size))
        with pytest.raises(ValueError, match="horizon"):
            BetaStacyProcess(base, np.zeros(grid.size), horizon)

    @given(bsp_processes(), censored_samples(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_posterior_grid_ends_before_horizon(self, proc, data):
        # Zero prior precision leaves prior points past every sample time uninformed.
        prior = BetaStacyProcess(proc.base, np.zeros(proc.grid.size))
        post = posterior_update(prior, *data)
        union = np.union1d(prior.grid, data[0])
        n = post.grid.size
        np.testing.assert_array_equal(post.grid, union[:n])
        assert post.horizon == (union[n] if n < union.size else math.inf)
        for t in post.grid:
            mean(post, t)
            second_moment(post, t)
        if post.horizon < math.inf:
            with pytest.raises(NotEstimableError):
                mean(post, post.horizon)
            with pytest.raises(NotEstimableError):
                second_moment(post, post.horizon)

    @pytest.mark.parametrize("query", [mean, second_moment, credible_interval])
    def test_nan_time_is_rejected(self, query):
        # searchsorted puts NaN past the grid, where the last value would be read.
        post = posterior_update(dp_prior([1.0, 2.0, 3.0], [0.3, 0.7, 1.0], 2.0), [1.4, 2.1], [1, 0])
        with pytest.raises(ValueError, match="NaN"):
            query(post, math.nan)


# Everything that takes lifetime columns checks them the same way.
LIFETIME_TAKERS = {
    "posterior_update": lambda t, e: posterior_update(BetaStacyProcess.noninformative(), t, e),
    "Dataset": lambda t, e: Dataset("x", t, e),
    "kaplan_meier": kaplan_meier,
}


@pytest.mark.parametrize("take", LIFETIME_TAKERS.values(), ids=LIFETIME_TAKERS.keys())
class TestLifetimeColumns:
    @pytest.mark.parametrize(
        "times, events, message",
        [
            ([0.0], [1], "sample time"),
            ([-1.0], [1], "sample time"),
            ([math.nan], [1], "sample time"),
            ([math.inf], [1], "sample time"),
            ([1.0], [2], "event indicator"),
            ([1.0, 2.0], [1], "equal length"),
            ([(1.0, 1)], [1], "1-d"),
        ],
        ids=["zero", "negative", "nan_time", "inf_time", "event_2", "lengths", "rows_as_pairs"],
    )
    def test_rejects_bad_rows(self, take, times, events, message):
        with pytest.raises(ValueError, match=message):
            take(times, events)

    @pytest.mark.parametrize("event", [0.5, 1.9, 2, -1, math.nan])
    def test_rejects_events_other_than_0_or_1(self, take, event):
        with pytest.raises(ValueError, match="event indicator must be 0 or 1"):
            take([1.0, 2.0], [1, event])


class TestPosteriorCounts:
    """The update's at-risk and failure counts, read back from a zero-precision prior.

    With no prior weight the hazard at a grid time is failures / at-risk and
    the posterior precision is (at-risk - failures) / survival, so the base
    values and precisions together pin both counts.
    """

    def test_uncensored(self):
        post = posterior_update(BetaStacyProcess.noninformative(), [1.0, 2.0, 3.0], [1, 1, 1])
        # at risk 3, 2, 1; one failure each, so the last hazard is 1
        np.testing.assert_array_equal(post.grid, [1.0, 2.0, 3.0])
        hazard = np.diff(post.base.values, prepend=0.0) / (
            1.0 - np.concatenate(([0.0], post.base.values[:-1]))
        )
        np.testing.assert_allclose(hazard, [1 / 3, 1 / 2, 1.0], atol=1e-12)
        np.testing.assert_allclose(post.precision[:2], [3.0, 3.0], atol=1e-12)
        assert post.horizon == math.inf

    def test_censored_tie_is_at_risk(self):
        post = posterior_update(BetaStacyProcess.noninformative(), [1.0, 2.0, 2.0, 3.0], [1, 0, 1, 1])
        # at risk 4, 3, 1: the unit censored at 2 is still at risk there
        np.testing.assert_array_equal(post.grid, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(post.base.values, [1 / 4, 1 / 2, 1.0], atol=1e-12)
        np.testing.assert_allclose(post.precision[:2], [4.0, 4.0], atol=1e-12)

    def test_failures_counted_at_exact_times(self):
        prior = BetaStacyProcess(DiscreteCdf(np.array([1.0, 1.5]), np.array([0.1, 0.2])), np.zeros(2))
        post = posterior_update(prior, [1.0, 1.0, 1.0, 2.0, 4.0], [1, 0, 1, 1, 0])
        np.testing.assert_array_equal(post.grid, [1.0, 1.5, 2.0, 4.0])
        # at risk 5, 2, 2, 1; failures 2, 0, 1, 0 (the prior point at 1.0 adds none)
        np.testing.assert_allclose(post.base.values, [0.4, 0.4, 0.7, 0.7], atol=1e-12)
        np.testing.assert_allclose(post.precision, [5.0, 2 / 0.6, 1 / 0.3, 1 / 0.3], atol=1e-12)

    def test_prior_points_between_data_times(self):
        prior = BetaStacyProcess(
            DiscreteCdf(np.array([0.5, 1.5, 99.0]), np.array([0.1, 0.2, 0.3])), np.zeros(3)
        )
        post = posterior_update(prior, [1.0, 3.0], [1, 1])
        np.testing.assert_array_equal(post.grid, [0.5, 1.0, 1.5, 3.0])
        # at 0.5: 2 at risk, no failure; at 1.5 (between data times): 1 at
        # risk, no failure; at 99, past every sample: none at risk, so the
        # zero-precision prior leaves nothing to estimate from.
        np.testing.assert_allclose(post.base.values, [0.0, 0.5, 0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(post.precision[:3], [2.0, 2.0, 2.0], atol=1e-12)
        assert post.horizon == 99.0


class TestDpPrior:
    def test_constant_precision(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 5.0)
        np.testing.assert_array_equal(prior.base.values, [0.4, 1.0])
        assert prior.precision[0] == 5.0
        assert np.isnan(prior.precision[1])

    def test_requires_proper_cdf(self):
        with pytest.raises(ValueError):
            dp_prior(np.array([1.0, 2.0]), np.array([0.4, 0.9]), 5.0)

    def test_rejects_negative_precision(self):
        with pytest.raises(ValueError):
            dp_prior(np.array([1.0]), np.array([1.0]), -1.0)

    def test_rejects_nan_precision_below_one(self):
        # NaN marks only the points where the base has reached 1.
        with pytest.raises(ValueError, match="precision values must be finite and nonnegative"):
            BetaStacyProcess(DiscreteCdf([1.0, 2.0, 3.0], [0.2, 0.5, 1.0]), [np.nan, 4.0, 4.0])


class TestPosteriorUpdate:
    def test_prior_only_is_identity(self):
        # A zero precision is no reason to cut: conditioning on no data changes nothing.
        for precision in (5.0, 0.0):
            prior = dp_prior(np.array([1.0, 2.0, 4.0]), np.array([0.25, 0.5, 1.0]), precision)
            assert posterior_update(prior, [], []) is prior

    def test_data_only_matches_ecdf(self):
        post = ecdf_posterior()
        np.testing.assert_array_equal(post.base.grid, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(post.base.values, [1 / 3, 2 / 3, 1.0], atol=1e-12)
        np.testing.assert_allclose(post.precision[:2], [3.0, 3.0], atol=1e-12)
        assert np.isnan(post.precision[2])

    def test_zero_precision_base_is_irrelevant(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.9, 1.0]), 0.0)
        post = posterior_update(prior, [1.0, 2.0, 3.0], [1, 1, 1])
        np.testing.assert_allclose(post.base.values, [1 / 3, 2 / 3, 1.0], atol=1e-12)
        np.testing.assert_allclose(post.precision[:2], [3.0, 3.0], atol=1e-12)

    def test_censored_worked_example(self):
        prior = BetaStacyProcess.noninformative()
        post = posterior_update(prior, [1.0, 2.0, 3.0], [1, 0, 1])
        np.testing.assert_allclose(post.base.values, [1 / 3, 1 / 3, 1.0], atol=1e-12)
        np.testing.assert_allclose(post.precision[:2], [3.0, 3.0], atol=1e-12)
        assert np.isnan(post.precision[2])

    def test_union_grid_keeps_prior_points(self):
        prior = dp_prior(np.array([1.5, 4.0]), np.array([0.5, 1.0]), 2.0)
        post = posterior_update(prior, [2.0], [1])
        np.testing.assert_array_equal(post.base.grid, [1.5, 2.0, 4.0])

    def test_estimable_range_ends_at_zero_information(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]), 0.0)
        post = posterior_update(prior, [1.0], [0])
        np.testing.assert_array_equal(post.grid, [1.0])
        assert post.horizon == 2.0
        assert mean(post, 1.5) == 0.0
        with pytest.raises(NotEstimableError):
            mean(post, 2.0)
        with pytest.raises(NotEstimableError):
            second_moment(post, 3.0)

    @pytest.mark.xfail(
        reason="the precision carried past a censoring time still counts the units censored there",
    )
    def test_two_batches_give_the_one_batch_posterior(self):
        # Batch A is one unit censored at 1.0, batch B one failure at 1.5.
        # In one batch the base at 1.5 is 0.475 with precision 2.857; A then
        # B gives 0.375 with precision 4.0.
        prior = dp_prior(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.25, 0.5, 0.75, 1.0]), 2.0)
        batch = posterior_update(prior, [1.0, 1.5], [0, 1])
        sequential = posterior_update(posterior_update(prior, [1.0], [0]), [1.5], [1])
        np.testing.assert_array_equal(sequential.grid, batch.grid)
        np.testing.assert_allclose(sequential.base.values, batch.base.values, atol=1e-12)
        np.testing.assert_allclose(sequential.precision, batch.precision, atol=1e-12)
        assert sequential.horizon == batch.horizon

    def test_query_beyond_grid_holds_last_value(self):
        post = ecdf_posterior()
        assert mean(post, 100.0) == 1.0

    def test_empty_prior_and_data(self):
        post = posterior_update(BetaStacyProcess.noninformative(), [], [])
        assert post.base.grid.size == 0

    @given(bsp_processes(min_precision=0.0))
    @settings(max_examples=60, deadline=None)
    def test_empty_data_identity_property(self, prior):
        assert posterior_update(prior, [], []) is prior

    @given(censored_samples(max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_uncensored_subset_drives_noninformative_fit(self, data):
        times = data[0]
        post = posterior_update(BetaStacyProcess.noninformative(), times, [1] * len(times))
        _, failures = np.unique(times, return_counts=True)
        at_risk = len(times) - np.concatenate(([0], np.cumsum(failures)[:-1]))
        ecdf = 1.0 - np.cumprod(1.0 - failures / at_risk)
        np.testing.assert_allclose(post.base.values, ecdf, atol=1e-12)
        inner = post.base.values < 1.0
        np.testing.assert_allclose(post.precision[inner], float(len(times)), atol=1e-12)


class TestMoments:
    def test_second_moment_single_point(self):
        post = posterior_update(BetaStacyProcess.noninformative(), [1.0, 2.0], [1, 1])
        # F(1) ~ Beta(1, 1) exactly, so E[F(1)^2] = 1*2/(2*3).
        assert second_moment(post, 1.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_second_moment_ecdf(self):
        post = ecdf_posterior()
        got = [second_moment(post, t) for t in (1.0, 2.0, 3.0)]
        np.testing.assert_allclose(got, [1 / 6, 1 / 2, 1.0], atol=1e-12)

    def test_before_first_point(self):
        post = ecdf_posterior()
        assert mean(post, 0.5) == 0.0
        assert second_moment(post, 0.5) == 0.0

    def test_dp_prior_margins_are_beta(self):
        # A constant-precision prior has F(t) ~ Beta(a*G(t), a*(1-G(t)))
        # marginally, which fixes every second moment in closed form.
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        values = np.array([0.1, 0.35, 0.7, 1.0])
        for alpha in (0.5, 3.0, 42.0):
            prior = dp_prior(grid, values, alpha)
            post = posterior_update(prior, [], [])
            for t, g in zip(grid[:-1], values[:-1]):
                a, b = alpha * g, alpha * (1.0 - g)
                closed = stats.beta.moment(2, a, b)
                assert second_moment(post, t) == pytest.approx(closed, abs=1e-12)

    @given(bsp_processes())
    @settings(max_examples=80, deadline=None)
    def test_envelope_property(self, proc):
        post = posterior_update(proc, [], [])
        for t in post.base.grid:
            m = mean(post, t)
            s = second_moment(post, t)
            assert m * m - 1e-12 <= s <= m + 1e-12

    def test_zero_precision_collapses_to_mean(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 0.0)
        post = posterior_update(prior, [1.0], [0])
        assert second_moment(post, 1.0) == pytest.approx(mean(post, 1.0), abs=1e-12)


class TestBetaMatch:
    def test_worked_pairs(self):
        assert beta_match(1 / 3, 1 / 6) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert beta_match(0.5, 0.3) == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            beta_match(0.4, 0.16)
        with pytest.raises(ValueError):
            beta_match(0.4, 0.4)
        with pytest.raises(ValueError):
            beta_match(0.0, 0.0)

    def test_no_shape_for_a_nan_second_moment(self):
        # beta_match and the array band rule raise the same error.
        with pytest.raises(ValueError, match="beta shapes must be finite and strictly positive"):
            beta_match(0.5, math.nan)
        with pytest.raises(ValueError, match="beta shapes must be finite and strictly positive"):
            relfuse.bsp._beta_bands([0.2, 0.5], [0.1, math.nan], 0.95)

    @given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, a, b):
        s = a + b
        assert beta_match(a / s, a * (a + 1.0) / (s * (s + 1.0))) == pytest.approx((a, b), rel=1e-9)


class TestCredibleInterval:
    def test_matches_beta_quantiles(self):
        post = ecdf_posterior()
        lo, hi = credible_interval(post, 1.0, 0.95)
        # F(1) ~ Beta(1, 2): quantile q solves 1-(1-q)^2 = p.
        assert lo == pytest.approx(1.0 - np.sqrt(0.975), abs=1e-12)
        assert hi == pytest.approx(1.0 - np.sqrt(0.025), abs=1e-12)

    @pytest.mark.parametrize(
        "a, b",
        [
            (1e-3, 1e-3),
            (0.02, 5.0),
            (0.5, 0.5),
            (3.0, 0.07),
            (2.0, 2.0),
            (40.0, 1.5),
            (0.3, 900.0),
            (250.0, 250.0),
            (1e5, 1e5),
            (120.0, 9.9e4),
            (8.5e4, 2.0),
        ],
    )
    def test_equals_scipy_stats_quantiles(self, a, b):
        # A one-jump DP prior has F(1) ~ Beta(c G, c (1 - G)) with c = a + b.
        post = posterior_update(dp_prior([1.0, 2.0], [a / (a + b), 1.0], a + b), [], [])
        m = mean(post, 1.0)
        shape = beta_match(m, second_moment(post, 1.0))
        for level in (0.5, 0.9, 0.95, 0.99):
            tail = (1.0 - level) / 2.0
            lo = float(stats.beta.ppf(tail, *shape))
            hi = float(stats.beta.ppf(1.0 - tail, *shape))
            assert credible_interval(post, 1.0, level) == (min(lo, m), max(hi, m))

    def test_degenerate_endpoints(self):
        post = ecdf_posterior()
        assert credible_interval(post, 0.5, 0.95) == (0.0, 0.0)
        assert credible_interval(post, 3.0, 0.95) == (1.0, 1.0)

    def test_huge_precision_pins_band(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 1e9)
        post = posterior_update(prior, [], [])
        lo, hi = credible_interval(post, 1.0, 0.95)
        assert hi - lo < 1e-3
        assert lo <= 0.4 <= hi

    @given(bsp_processes())
    @settings(max_examples=60, deadline=None)
    def test_contains_mean_property(self, proc):
        post = posterior_update(proc, [], [])
        for t in post.base.grid:
            lo, hi = credible_interval(post, t, 0.9)
            m = mean(post, t)
            assert lo - 1e-12 <= m <= hi + 1e-12

    @pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
    def test_level_is_checked_before_the_horizon(self, level):
        post = posterior_update(dp_prior([1.0, 2.0, 3.0], [0.2, 0.6, 1.0], 0.0), [1.0], [0])
        assert post.horizon == 2.0
        with pytest.raises(ValueError, match="level must lie strictly inside"):
            credible_interval(post, 5.0, level)

    def test_degenerate_mean_skips_second_moment(self, monkeypatch):
        post = ecdf_posterior()

        def unread(*args):
            raise AssertionError("second_moment called for a mean of 0 or 1")

        monkeypatch.setattr(relfuse.bsp, "second_moment", unread)
        assert credible_interval(post, 0.5, 0.95) == (0.0, 0.0)
        assert credible_interval(post, 3.0, 0.95) == (1.0, 1.0)


class TestUnion:
    @given(
        st.lists(st.floats(0.01, 40.0).map(lambda t: round(t, 1)), max_size=20),
        st.lists(st.floats(0.01, 40.0).map(lambda t: round(t, 1)), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_union(self, a, b):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        got, want = _union(a, b), np.union1d(a, b)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
