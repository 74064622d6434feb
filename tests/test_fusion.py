import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfuse.bsp import (
    BetaStacyProcess,
    LifetimeSample,
    dp_prior,
    mean,
    posterior_update,
)
from relfuse.errors import PrecisionRecoveryWarning
from relfuse.fusion import (
    PRECISION_CAP,
    MomentCurve,
    align_grids,
    combine_parallel,
    combine_series,
    merge_priors,
    moments_of,
    recover_precision,
)
from relfuse.oracle import StructuralLifetime, WeibullLifetime

from conftest import bsp_processes, moment_curves, rbd_trees


def ecdf_posterior(times=(1.0, 2.0, 3.0)):
    data = [LifetimeSample(t, 1) for t in times]
    return posterior_update(BetaStacyProcess.noninformative(), data)


def curve(grid, first, second):
    return MomentCurve(np.asarray(grid, float), np.asarray(first, float), np.asarray(second, float))


class TestMomentCurve:
    def test_rejects_envelope_violations(self):
        with pytest.raises(ValueError):
            curve([1.0], [0.5], [0.2])
        with pytest.raises(ValueError):
            curve([1.0], [0.5], [0.6])
        with pytest.raises(ValueError):
            curve([1.0, 2.0], [0.5, 0.4], [0.3, 0.2])

    @pytest.mark.parametrize(
        "grid, first, second",
        [
            ([1.0], [np.nan], [np.nan]),
            ([1.0], [0.5], [np.nan]),
            ([1.0], [np.inf], [np.inf]),
            ([np.inf], [0.5], [0.3]),
            ([1.0, np.nan], [0.2, 0.5], [0.1, 0.3]),
        ],
    )
    def test_rejects_nonfinite(self, grid, first, second):
        with pytest.raises(ValueError):
            curve(grid, first, second)

    def test_terminal_and_survival_second(self):
        c = curve([1.0, 2.0], [0.4, 1.0], [0.2, 1.0])
        np.testing.assert_array_equal(c.terminal, [False, True])
        np.testing.assert_allclose(c.survival_second, [0.2 + 1 - 0.8, 0.0])

    def test_moments_of_ecdf(self):
        c = moments_of(ecdf_posterior())
        np.testing.assert_allclose(c.first, [1 / 3, 2 / 3, 1.0], atol=1e-12)
        np.testing.assert_allclose(c.second, [1 / 6, 1 / 2, 1.0], atol=1e-12)

    def test_moments_of_drops_nonestimable_tail(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]), 0.0)
        post = posterior_update(prior, [LifetimeSample(1.0, 0)])
        c = moments_of(post)
        np.testing.assert_array_equal(c.grid, [1.0])


class TestAlignment:
    def test_union_with_carry_and_zero_head(self):
        a = curve([2.0, 4.0], [0.3, 0.6], [0.12, 0.4])
        b = curve([1.0, 4.0], [0.2, 0.5], [0.05, 0.3])
        ea, eb = align_grids(a, b)
        np.testing.assert_array_equal(ea.grid, [1.0, 2.0, 4.0])
        np.testing.assert_allclose(ea.first, [0.0, 0.3, 0.6])
        np.testing.assert_allclose(ea.second, [0.0, 0.12, 0.4])
        np.testing.assert_allclose(eb.first, [0.2, 0.2, 0.5])

    def test_empty_curve_extends_to_zero(self):
        a = curve([1.0], [0.4], [0.2])
        b = curve([], [], [])
        ea, eb = align_grids(a, b)
        np.testing.assert_array_equal(eb.grid, [1.0])
        np.testing.assert_array_equal(eb.first, [0.0])


class TestCombiners:
    def test_parallel_is_product(self):
        a = curve([1.0, 2.0], [0.3, 0.7], [0.15, 0.55])
        b = curve([1.0, 2.0], [0.2, 0.6], [0.08, 0.42])
        c = combine_parallel(a, b)
        np.testing.assert_allclose(c.first, [0.06, 0.42])
        np.testing.assert_allclose(c.second, [0.15 * 0.08, 0.55 * 0.42])

    def test_series_mean_is_survival_product(self):
        a = curve([1.0, 2.0], [0.3, 0.7], [0.15, 0.55])
        b = curve([1.0, 2.0], [0.2, 0.6], [0.08, 0.42])
        c = combine_series(a, b)
        np.testing.assert_allclose(c.first, [1 - 0.7 * 0.8, 1 - 0.3 * 0.4])
        ua = np.asarray([0.15 + 1 - 0.6, 0.55 + 1 - 1.4])
        ub = np.asarray([0.08 + 1 - 0.4, 0.42 + 1 - 1.2])
        np.testing.assert_allclose(c.second, ua * ub + 1 - 2 * (1 - c.first))

    def test_series_of_degenerate_zero_curves(self):
        # Both components surely survive the whole window, so the series
        # must too; the mean-expanded form of the second moment breaks here
        # (it evaluates to 2), the survival form is exact.
        z = curve([1.0, 2.0], [0.0, 0.0], [0.0, 0.0])
        c = combine_series(z, z)
        np.testing.assert_array_equal(c.first, [0.0, 0.0])
        np.testing.assert_array_equal(c.second, [0.0, 0.0])

    def test_series_at_terminal_points(self):
        t = curve([1.0], [1.0], [1.0])
        other = curve([1.0], [0.4], [0.2])
        c = combine_series(t, other)
        np.testing.assert_array_equal(c.first, [1.0])
        np.testing.assert_array_equal(c.second, [1.0])

    def test_parallel_at_terminal_points(self):
        t = curve([1.0], [1.0], [1.0])
        other = curve([1.0], [0.4], [0.2])
        c = combine_parallel(t, other)
        np.testing.assert_allclose(c.first, [0.4])
        np.testing.assert_allclose(c.second, [0.2])

    @given(moment_curves(), moment_curves())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        a, b = align_grids(a, b)
        for combine in (combine_series, combine_parallel):
            x = combine(a, b)
            y = combine(b, a)
            np.testing.assert_array_equal(x.first, y.first)
            np.testing.assert_array_equal(x.second, y.second)

    @given(moment_curves(), moment_curves(), moment_curves())
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        for combine in (combine_series, combine_parallel):
            ab, cc = align_grids(combine(*align_grids(a, b)), c)
            left = combine(ab, cc)
            bc, aa = align_grids(combine(*align_grids(b, c)), a)
            right = combine(aa, bc)
            np.testing.assert_allclose(left.first, right.first, atol=1e-12)
            np.testing.assert_allclose(left.second, right.second, atol=1e-12)

    @given(moment_curves(), moment_curves())
    @settings(max_examples=60, deadline=None)
    def test_envelope_preserved(self, a, b):
        a, b = align_grids(a, b)
        for combine in (combine_series, combine_parallel):
            c = combine(a, b)
            assert np.all(c.second >= c.first * c.first - 1e-9)
            assert np.all(c.second <= c.first + 1e-9)
            assert np.all(np.diff(c.first) >= -1e-12)


class TestRandomTrees:
    GRID = np.linspace(5.0, 400.0, 12)

    @given(rbd_trees(max_depth=4), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_fusion_matches_structural_oracle(self, tree, seed):
        # Known leaf CDFs have zero variance, so folding them through the
        # diagram must reproduce the exact structural CDF and stay degenerate.
        rng = np.random.default_rng(seed)
        leaves = {
            c.id: WeibullLifetime(rng.uniform(0.8, 3.0), rng.uniform(50.0, 150.0))
            for c in tree.iter_components()
        }

        def fold(node):
            if node.kind == "component":
                first = leaves[node.id].cdf(self.GRID)
                return MomentCurve(self.GRID, first, first**2)
            combine = combine_series if node.kind == "series" else combine_parallel
            fused = fold(node.children[0])
            for child in node.children[1:]:
                fused = combine(*align_grids(fused, fold(child)))
            return fused

        fused = fold(tree)
        oracle = StructuralLifetime(tree, leaves)
        exact = oracle.cdf(self.GRID)
        np.testing.assert_allclose(fused.first, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(fused.second, fused.first**2, rtol=0.0, atol=1e-12)
        draws = np.sort(oracle.sample(np.random.default_rng(0), 20000))
        empirical = np.searchsorted(draws, self.GRID, side="right") / draws.size
        se = np.sqrt(exact * (1.0 - exact) / draws.size)
        assert np.all(np.abs(empirical - exact) <= 4.0 * se)


class TestRecoverPrecision:
    def test_constant_precision_curve(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.5, 1.0]), 7.0)
        post = posterior_update(prior, [])
        back = recover_precision(moments_of(post))
        np.testing.assert_allclose(back.base.values, [0.2, 0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(back.precision[:2], [7.0, 7.0], rtol=1e-9)
        assert np.isnan(back.precision[2])

    def test_ecdf_curve(self):
        back = recover_precision(moments_of(ecdf_posterior()))
        np.testing.assert_allclose(back.precision[:2], [3.0, 3.0], rtol=1e-9)
        assert np.isnan(back.precision[2])

    def test_flat_increment_carries_precision(self):
        prior = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 5.0)
        post = posterior_update(prior, [])
        c = moments_of(post)
        widened = MomentCurve(
            np.array([1.0, 1.5, 2.0]),
            np.array([c.first[0], c.first[0], 1.0]),
            np.array([c.second[0], c.second[0], 1.0]),
        )
        back = recover_precision(widened)
        np.testing.assert_allclose(back.precision[:2], [5.0, 5.0], rtol=1e-9)

    def test_leading_zero_mass_gets_zero_precision(self):
        c = curve([1.0, 2.0], [0.0, 0.5], [0.0, 0.3])
        back = recover_precision(c)
        assert back.precision[0] == 0.0

    def test_negative_precision_clamps_to_zero(self):
        # Second moment decays slower than any beta-stacy increment allows.
        c = curve([1.0, 2.0], [0.3, 0.5], [0.15, 0.45])
        with pytest.warns(PrecisionRecoveryWarning):
            back = recover_precision(c)
        assert back.precision[1] == 0.0

    def test_vanishing_denominator_caps(self):
        # Second moment decays faster than any finite precision allows.
        c = curve([1.0, 2.0], [0.3, 0.5], [0.15, 0.26])
        with pytest.warns(PrecisionRecoveryWarning):
            back = recover_precision(c)
        assert back.precision[1] == PRECISION_CAP

    @given(bsp_processes(min_precision=0.05))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_on_process_curves(self, proc):
        post = posterior_update(proc, [])
        c = moments_of(post)
        back = recover_precision(c)
        again = moments_of(posterior_update(back, []))
        np.testing.assert_allclose(again.first, c.first, atol=1e-9)
        np.testing.assert_allclose(again.second, c.second, atol=1e-9)


class TestMergePriors:
    def test_identical_priors_pass_through(self):
        p = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 5.0)
        merged = merge_priors(p, p)
        np.testing.assert_allclose(merged.base.values, [0.4, 1.0], atol=1e-9)

    def test_weighting_favors_precise_prior(self):
        sharp = dp_prior(np.array([1.0, 2.0]), np.array([0.2, 1.0]), 100.0)
        vague = dp_prior(np.array([1.0, 2.0]), np.array([0.8, 1.0]), 1.0)
        merged = merge_priors(sharp, vague)
        m = mean(posterior_update(merged, []), 1.0)
        assert abs(m - 0.2) < abs(m - 0.8)
        assert m == pytest.approx((100 * 0.2 + 1 * 0.8) / 101, abs=1e-9)

    def test_zero_precision_pair_mixes_equally(self):
        a = dp_prior(np.array([1.0, 2.0]), np.array([0.2, 1.0]), 0.0)
        b = dp_prior(np.array([1.0, 2.0]), np.array([0.6, 1.0]), 0.0)
        merged = merge_priors(a, b)
        assert mean(posterior_update(merged, []), 1.0) == pytest.approx(0.4, abs=1e-9)

    def test_empty_pair_rejected(self):
        nothing = BetaStacyProcess.noninformative()
        with pytest.raises(ValueError):
            merge_priors(nothing, nothing)
