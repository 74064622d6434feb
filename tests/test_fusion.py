import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfuse.bsp import (
    BetaStacyProcess,
    DiscreteCdf,
    dp_prior,
    mean,
    posterior_update,
    second_moment,
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

from conftest import bsp_processes, ecdf_posterior, grids, moment_curves, rbd_trees


def curve(grid, first, second):
    return MomentCurve(np.asarray(grid, float), np.asarray(first, float), np.asarray(second, float))


def bits(values):
    """The IEEE-754 bit patterns of ``values``, so that 0.0 and -0.0 differ and NaN equals itself."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


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

    @given(bsp_processes(min_precision=0.0))
    @settings(max_examples=200, deadline=None)
    def test_moments_of_is_the_pointwise_moments_bit_for_bit(self, proc):
        # The validator checks the curve; the pointwise functions share its
        # checks only while both give the same bits.
        c = moments_of(proc)
        points = proc.grid.tolist()
        assert bits(c.first).tolist() == bits([mean(proc, t) for t in points]).tolist()
        assert bits(c.second).tolist() == bits([second_moment(proc, t) for t in points]).tolist()

    def test_moments_of_drops_nonestimable_tail(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]), 0.0)
        post = posterior_update(prior, [1.0], [0])
        c = moments_of(post)
        np.testing.assert_array_equal(c.grid, [1.0])


class TestAlignment:
    def test_union_with_carry_and_zero_head(self):
        a = curve([2.0, 4.0], [0.3, 0.6], [0.12, 0.4])
        b = curve([1.0, 4.0], [0.2, 0.5], [0.05, 0.3])
        c = curve([3.0], [0.1], [0.02])
        ea, eb, ec = align_grids(a, b, c)
        for e in (ea, eb, ec):
            np.testing.assert_array_equal(e.grid, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(ea.first, [0.0, 0.3, 0.3, 0.6])
        np.testing.assert_allclose(ea.second, [0.0, 0.12, 0.12, 0.4])
        np.testing.assert_allclose(eb.first, [0.2, 0.2, 0.2, 0.5])
        np.testing.assert_allclose(ec.first, [0.0, 0.0, 0.1, 0.1])
        np.testing.assert_allclose(ec.second, [0.0, 0.0, 0.02, 0.02])

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
            return combine(*(fold(child) for child in node.children))

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
        post = posterior_update(prior, [], [])
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
        post = posterior_update(prior, [], [])
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

    def test_every_rule_on_one_curve(self):
        # Dyadic moments keep every product exact, so the precisions are exact.
        c = curve(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            [0.0, 0.25, 0.5, 0.5, 0.75, 0.875, 1.0, 1.0],
            [0.0, 0.125, 0.25, 0.25, 0.75, 0.8125 + 2.0**-42, 1.0, 1.0],
        )
        with pytest.warns(PrecisionRecoveryWarning) as record:
            back = recover_precision(c)
        # t=1 no mass yet; t=2 a jump of precision 2; t=3 the degenerate
        # jump (second == first^2); t=4 flat after it; t=5 a second moment
        # too large; t=6 a precision of 2^40 - 4; t=7 terminal, then t=8.
        cap = PRECISION_CAP
        np.testing.assert_array_equal(back.precision, [0.0, 2.0, cap, cap, 0.0, cap, np.nan, np.nan])
        assert [str(w.message) for w in record] == [
            "zero-variance increment at 1 grid points, t=3 to 3: precision capped",
            "negative precision at 1 grid points, t=5 to 5: clamped to 0",
            "precision above cap at 1 grid points, t=6 to 6: capped",
        ]

    def test_one_warning_per_kind_counts_its_points(self):
        # Negative precisions at t=2 and t=4 with a valid jump between them: one warning names both.
        c = curve([1.0, 2.0, 3.0, 4.0], [0.25, 0.5, 0.625, 0.75], [0.125, 0.4375, 0.5, 0.75])
        with pytest.warns(PrecisionRecoveryWarning) as record:
            back = recover_precision(c)
        np.testing.assert_allclose(back.precision, [2.0, 0.0, 40.0, 0.0], rtol=1e-12)
        assert [str(w.message) for w in record] == ["negative precision at 2 grid points, t=2 to 4: clamped to 0"]

    @staticmethod
    def assert_roundtrip(proc):
        post = posterior_update(proc, [], [])
        c = moments_of(post)
        back = recover_precision(c)
        again = moments_of(posterior_update(back, [], []))
        np.testing.assert_allclose(again.first, c.first, atol=1e-9)
        np.testing.assert_allclose(again.second, c.second, atol=1e-9)

    @given(bsp_processes(min_precision=0.05))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_on_process_curves(self, proc):
        self.assert_roundtrip(proc)

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="survival_second cancels to a negative precision at t=0.5, clamped to 0, and the no-data update "
        "then cuts the curve there (ROADMAP items 6 and 13); once either lands this is an @example above",
    )
    def test_roundtrip_on_a_base_one_ulp_below_one(self):
        # A process test_roundtrip_on_process_curves's own strategy can draw.
        base = DiscreteCdf(np.array([0.5, 1.0]), np.array([1.0 - 2.0**-53, 1.0]))
        self.assert_roundtrip(BetaStacyProcess(base, np.array([0.5, np.nan])))


class TestMergePriors:
    def test_identical_priors_pass_through(self):
        p = dp_prior(np.array([1.0, 2.0]), np.array([0.4, 1.0]), 5.0)
        merged = merge_priors(p, p)
        np.testing.assert_allclose(merged.first, [0.4, 1.0], atol=1e-9)

    def test_weighting_favors_precise_prior(self):
        sharp = dp_prior(np.array([1.0, 2.0]), np.array([0.2, 1.0]), 100.0)
        vague = dp_prior(np.array([1.0, 2.0]), np.array([0.8, 1.0]), 1.0)
        m = merge_priors(sharp, vague).first[0]
        assert abs(m - 0.2) < abs(m - 0.8)
        assert m == pytest.approx((100 * 0.2 + 1 * 0.8) / 101, abs=1e-9)

    def test_zero_precision_pair_mixes_equally(self):
        a = dp_prior(np.array([1.0, 2.0]), np.array([0.2, 1.0]), 0.0)
        b = dp_prior(np.array([1.0, 2.0]), np.array([0.6, 1.0]), 0.0)
        assert merge_priors(a, b).first[0] == pytest.approx(0.4, abs=1e-9)

    def test_monotonization_counts_the_raised_points(self):
        # The weights swap after t=1, so the mixed mean falls at t=2 and t=3 and is raised to t=1's.
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        a = BetaStacyProcess(DiscreteCdf(grid, np.array([0.5, 0.55, 0.6, 1.0])), np.array([100.0, 1.0, 1.0, np.nan]))
        b = BetaStacyProcess(DiscreteCdf(grid, np.array([0.1, 0.2, 0.3, 1.0])), np.array([1.0, 100.0, 100.0, np.nan]))
        with pytest.warns(PrecisionRecoveryWarning) as record:
            merged = merge_priors(a, b)
        np.testing.assert_array_equal(merged.first[1:3], merged.first[0])
        assert [str(w.message) for w in record] == [
            "precision-weighted mixture was not monotone; mean monotonized at 2 grid points"
        ]

    def test_empty_pair_rejected(self):
        nothing = BetaStacyProcess.noninformative()
        with pytest.raises(ValueError):
            merge_priors(nothing, nothing)


class TestCombinersAlign:
    @given(moment_curves(), moment_curves(), moment_curves())
    @settings(max_examples=60, deadline=None)
    def test_unaligned_inputs_are_aligned_first(self, a, b, c):
        for combine in (combine_series, combine_parallel):
            got, want = combine(a, b, c), combine(*align_grids(a, b, c))
            for name in ("grid", "first", "second"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@st.composite
def curve_groups(draw):
    """One to five moment curves, each on its own grid, on a prefix of a grid they share, or on no grid."""
    shared = draw(grids())
    group = []
    for _ in range(draw(st.integers(1, 5))):
        where = draw(st.sampled_from(["own", "shared", "empty"]))
        c = draw(moment_curves())
        n = {"own": len(c), "shared": min(len(c), shared.size), "empty": 0}[where]
        grid = shared[:n] if where == "shared" else c.grid[:n]
        group.append(MomentCurve(grid, c.first[:n], c.second[:n]))
    return group


def pairwise_fold(kind, curves):
    """The left fold of two-child combines, written out: the reference a k-child combine must match in bits."""
    fused, *rest = curves
    for c in rest:
        a, b = align_grids(fused, c)
        if kind == "parallel":
            fused = MomentCurve(a.grid, a.first * b.first, a.second * b.second)
        else:
            surv_prod = (1.0 - a.first) * (1.0 - b.first)
            second = a.survival_second * b.survival_second + 1.0 - 2.0 * surv_prod
            fused = MomentCurve(a.grid, 1.0 - surv_prod, second)
    return fused


class TestKChildCombine:
    @given(curve_groups())
    @settings(max_examples=200, deadline=None)
    def test_one_combine_is_the_pairwise_fold_bit_for_bit(self, group):
        for kind, combine in (("series", combine_series), ("parallel", combine_parallel)):
            got, want = combine(*group), pairwise_fold(kind, group)
            for name in ("grid", "first", "second"):
                np.testing.assert_array_equal(bits(getattr(got, name)), bits(getattr(want, name)), err_msg=kind)

    @given(curve_groups())
    @settings(max_examples=100, deadline=None)
    def test_every_aligned_grid_is_the_union_grid(self, group):
        aligned = align_grids(*group)
        assert len(aligned) == len(group)
        union = np.unique(np.concatenate([c.grid for c in group]))
        for c in aligned:
            np.testing.assert_array_equal(c.grid, union)

    @pytest.mark.parametrize("take", [align_grids, combine_series, combine_parallel])
    def test_no_curves_raise(self, take):
        with pytest.raises(ValueError):
            take()
