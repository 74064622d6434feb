"""End-to-end acceptance checks for the whole package.

Each test prints one summary line so a full run reads as a checklist.  All
randomness is seeded; every tolerance is asserted, never loosened at runtime.
"""

import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from relfuse import validation
from relfuse.bsp import BetaStacyProcess, beta_match, dp_prior, posterior_update
from relfuse.cli import EXIT_OK, main
from relfuse.dataio import CurveExport
from relfuse.demo import demo_config
from relfuse.errors import PrecisionRecoveryWarning
from relfuse.fusion import moments_of
from relfuse.oracle import kaplan_meier, sample_bsp_paths, three_beta_product_cdf_grid
from relfuse.pipeline import curve_export, fit_system, fit_system_only
from relfuse.validation import (
    _kaplan_meier_error,
    _moment_z,
    _prior_only_error,
    _random_bsp,
    _random_censored_samples,
    _roundtrip_error,
    check_data_only,
    check_fusion_mc,
    check_series_degenerate,
    check_three_beta_product,
    covers_truth,
    shared_band_widths,
)


def _best_time(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_prior_only_exactness():
    prior = dp_prior([1.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 3.0)
    err = _prior_only_error(prior)
    assert err <= 1e-12
    elapsed = _best_time(lambda: posterior_update(prior, [], []))
    assert elapsed < 1e-3
    print(f"\ncriterion 1 PASS: prior-only identity, max error {err:.2e}, {elapsed*1e6:.0f} us")


def test_02_data_only_exactness():
    result = check_data_only()
    assert result.passed, result.detail
    times, events = [1.0, 2.0, 3.0], [1, 1, 1]
    post = posterior_update(BetaStacyProcess.noninformative(), times, events)
    # The exported precision column carries the left limit through the
    # terminal point, so it reads as the constant sample size.
    exported = curve_export(post).precision
    assert np.max(np.abs(exported - 3.0)) <= 1e-12
    elapsed = _best_time(lambda: posterior_update(BetaStacyProcess.noninformative(), times, events))
    assert elapsed < 1e-3
    print(f"criterion 2 PASS: empirical CDF with precision 3, {result.detail}, {elapsed*1e6:.0f} us")


def test_03_kaplan_meier_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, _kaplan_meier_error(*_random_censored_samples(rng)))
        assert worst <= 1e-12
    print(f"criterion 3 PASS: Kaplan-Meier equivalence on 1000 datasets, worst {worst:.2e}")


def test_04_second_moment_oracle():
    rng = np.random.default_rng(7)
    worst_z = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        proc = _random_bsp(rng, max_points=20)
        paths = sample_bsp_paths(proc, 200000, int(rng.integers(0, 2**63)))
        worst_z = max(worst_z, _moment_z(moments_of(proc), paths))
    elapsed = time.perf_counter() - t0
    assert worst_z <= 4.0
    assert elapsed <= 60.0
    print(
        f"criterion 4 PASS: closed-form moments vs 200000 paths x 100 processes, "
        f"worst |z| {worst_z:.2f}, {elapsed:.1f} s"
    )


def test_nan_errors_are_never_dropped(monkeypatch):
    # Each comparison's reference gets one NaN where it has a finite
    # neighbour; the loops above keep only a worst error that compares.
    rng = np.random.default_rng(3)
    errors = []
    prior = dp_prior([1.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 3.0)
    nan_precision = np.where(np.arange(3) == 1, np.nan, prior.precision)
    post = SimpleNamespace(
        grid=prior.grid, precision_defined=prior.precision_defined, base=prior.base, precision=nan_precision
    )
    monkeypatch.setattr(validation, "posterior_update", lambda *args: post)
    errors.append(_prior_only_error(prior))
    monkeypatch.undo()

    times, events = _random_censored_samples(rng)
    km = kaplan_meier(times, events)
    km_values = np.where(np.arange(km.grid.size) == km.grid.size - 1, np.nan, km.values)
    km_nan = SimpleNamespace(grid=km.grid, values=km_values)
    monkeypatch.setattr(validation, "kaplan_meier", lambda *args: km_nan)
    errors.append(_kaplan_meier_error(times, events))
    monkeypatch.undo()

    proc = _random_bsp(rng)
    paths = sample_bsp_paths(proc, 1000, 0)
    paths[np.flatnonzero(paths.std(axis=1) > 0.0)[-1], 0] = np.nan
    errors.append(_moment_z(moments_of(proc), paths))

    empirical = SimpleNamespace(base=SimpleNamespace(values=np.array([1 / 3, 2 / 3, 1.0])),
                                precision=np.array([np.nan, 3.0, np.nan]))
    monkeypatch.setattr(validation, "posterior_update", lambda *args: empirical)
    data_only = check_data_only()
    assert errors == [math.inf] * 3 and (data_only.passed, data_only.detail) == (False, "max error inf")


def test_05_fusion_against_monte_carlo():
    result = check_fusion_mc(seed=13, n_cases=100)
    assert result.passed, result.detail
    degenerate = check_series_degenerate()
    assert degenerate.passed, degenerate.detail
    print(f"criterion 5 PASS: fusion vs Monte Carlo on 100 cases ({result.detail}); "
          f"degenerate series pair ({degenerate.detail})")


def test_06_moment_match_roundtrip():
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = max(_roundtrip_error(_random_bsp(rng, max_points=12)) for _ in range(100))
    assert worst <= 1e-9
    print(f"criterion 6 PASS: moment roundtrip on 100 curves, sup error {worst:.2e}")


def test_07_beta_approximation_quality():
    # Density integral and mean within 1e-6, and the beta matched to the
    # exact product moments within KS 0.05 of the exact CDF.
    result = check_three_beta_product()
    assert result.passed, result.detail

    # Same conclusion from simulated moments of the product.
    grid, cdf = three_beta_product_cdf_grid()
    rng = np.random.default_rng(23)
    draws = rng.beta(9, 3, 200000) * rng.beta(8, 3, 200000) * rng.beta(4, 2, 200000)
    sampled = beta_match(float(draws.mean()), float((draws * draws).mean()))
    ks_mc = float(np.max(np.abs(stats.beta.cdf(grid, *sampled) - cdf)))
    assert ks_mc <= 0.05
    print(f"criterion 7 PASS: {result.detail} (exact moments), KS {ks_mc:.4f} (sampled moments)")


def test_08_demo_scale_runtime(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--seed", "0", "--out", str(sim_dir)]) == EXIT_OK
    out_dir = tmp_path / "fit"
    args = [
        "fit",
        "--rbd", str(sim_dir / "system.rbd"),
        "--data", str(sim_dir / "lifetimes.csv"),
        "--out", str(out_dir),
        "--svg",
    ]
    t0 = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    assert (out_dir / "system_cdf.csv").exists()
    assert elapsed <= 2.0
    print(f"criterion 8 PASS: 13-node demo fit end to end in {elapsed*1e3:.0f} ms")


def _export(t, lower, upper):
    """A ``CurveExport`` on times ``t`` with the given band around its midpoint."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    mid = (lower + upper) / 2.0
    return CurveExport(np.asarray(t, dtype=float), mid, mid, lower, upper, np.ones(mid.size))


def test_shared_band_widths_average_the_shared_rows():
    hier = _export([1.0, 2.0, 3.0, 4.0], [0.0] * 4, [0.125, 0.25, 0.375, 0.5])
    sysonly = _export([2.0, 4.0, 5.0], [0.25, 0.25, 0.25], [0.75, 1.0, 1.0])
    # Shared times 2 and 4: (0.25 + 0.5) / 2 and (0.5 + 0.75) / 2.
    assert shared_band_widths(hier, sysonly) == (0.375, 0.625)
    assert shared_band_widths(hier, hier) == (0.3125, 0.3125)


def test_shared_band_widths_of_disjoint_grids_are_nan():
    # No shared time: both means are of nothing, so neither fit wins.
    hier = _export([1.0, 3.0], [0.0, 0.0], [0.5, 0.5])
    sysonly = _export([2.0], [0.0], [1.0])
    with pytest.warns(RuntimeWarning):
        widths = shared_band_widths(hier, sysonly)
    assert np.isnan(widths).all()


@pytest.mark.parametrize(
    "size, percent, row",
    [
        *[(5, 10, 0), (5, 25, 1), (5, 50, 2), (5, 75, 3), (5, 90, 4)],
        *[(4, 10, 0), (4, 25, 1), (4, 50, 2), (4, 75, 3), (4, 90, 3)],
    ],
)
def test_covers_truth_reads_the_grid_quantile_row(size, percent, row):
    # Rows i have bands [i/8, i/8 + 1/16]; the truth is asked at one time only.
    lower = np.arange(size) / 8.0
    curve = _export(np.arange(1.0, size + 1.0), lower, lower + 1.0 / 16.0)
    asked = []

    def truth_at(value):
        return lambda t: asked.append(t) or value

    assert covers_truth(curve, truth_at(row / 8.0), percent)
    assert covers_truth(curve, truth_at(row / 8.0 + 1.0 / 16.0), percent)
    assert not covers_truth(curve, truth_at(row / 8.0 + 1.0 / 8.0), percent)
    assert not covers_truth(curve, truth_at(row / 8.0 - 1.0 / 32.0), percent)
    # By default the row is the median's, len // 2.
    assert covers_truth(curve, truth_at(row / 8.0)) == (row == size // 2)
    assert asked == [row + 1.0] * 4 + [size // 2 + 1.0]


@pytest.mark.parametrize(
    "size, percent", [(3, 100), (3, 150), (3, -50), (0, 50)], ids=["100", "150", "-50", "empty"]
)
def test_covers_truth_rejects_a_row_outside_the_export(size, percent):
    # A percent outside [0, 100) would index past the end, or count rows
    # from it; an empty export has no row at all.
    curve = _export(np.arange(1.0, size + 1.0), np.zeros(size), np.ones(size))
    with pytest.raises(ValueError, match="no grid quantile row"):
        covers_truth(curve, lambda t: 0.5, percent)


def test_run_checks_takes_an_integer_seed():
    # int() would run seed 0's checks for 0.5.
    with pytest.raises(TypeError):
        validation.run_checks(0.5)


@pytest.mark.parametrize("seed", [-1, -2])
def test_run_checks_rejects_a_negative_seed(seed):
    # The checks draw from seed + 1 to seed + 4, so -1 would run seeds 0-3.
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        validation.run_checks(seed)


def test_09_hierarchical_bands_are_narrower():
    cfg = demo_config()
    wins = 0
    for seed in range(100):
        datasets = cfg.simulate(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionRecoveryWarning)
            hier = curve_export(fit_system(cfg.spec, datasets).posterior)
        sysonly = curve_export(fit_system_only(cfg.spec, datasets).posterior)
        hier_width, sys_width = shared_band_widths(hier, sysonly)
        wins += hier_width < sys_width
    assert wins >= 95
    print(f"criterion 9 PASS: hierarchical bands narrower in {wins}/100 replicates")


# Grid quantiles at which criteria 10–12 report coverage; only the
# median's is bounded.
COVERAGE_PERCENTS = (10, 25, 50, 75, 90)


def _coverage(withheld=()):
    """Per grid quantile, how many of 200 demo fits cover the true CDF; and the last fit."""
    cfg = demo_config()
    covered = dict.fromkeys(COVERAGE_PERCENTS, 0)
    for seed in range(200):
        datasets = [d for d in cfg.simulate(seed) if d.label not in withheld]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionRecoveryWarning)
            result = fit_system(cfg.spec, datasets)
        curve = curve_export(result.posterior)
        assert len(curve) > 0, f"seed {seed}: empty export"
        for percent in COVERAGE_PERCENTS:
            covered[percent] += covers_truth(curve, cfg.true_system_cdf, percent)
    report = ", ".join(f"{p}% {n}/200" for p, n in covered.items())
    return covered[50] / 200.0, report, result


def test_10_coverage_calibration():
    rate, report, _ = _coverage()
    assert 0.85 <= rate <= 0.99
    print(f"criterion 10 PASS: coverage {rate:.3f} at the median grid time ({report})")


def test_11_coverage_with_a_component_withheld():
    # Criterion 10's loop with no data for 'gearing', a child of the system:
    # the system fits on its own data instead of treating 'gearing' as a
    # part that never fails.
    rate, report, result = _coverage(withheld=("gearing",))
    assert 0.85 <= rate <= 0.99
    assert result.uninformed == {"gearing": "system"}
    print(f"criterion 11 PASS: coverage {rate:.3f} at the median grid time with 'gearing' withheld ({report})")


@pytest.mark.parametrize(
    "withheld, what",
    [(("system",), "'system' withheld"), (("system", "propulsion", "electric", "gas"), "component data alone")],
    ids=["no-system-data", "components-only"],
)
def test_12_system_answer_from_component_data(withheld, what):
    # Criterion 10's loop without the system's data, and without any group's:
    # the system answers with the prior fused from the data below it.
    rate, report, _ = _coverage(withheld)
    assert 0.90 <= rate <= 0.99
    print(f"criterion 12 PASS: coverage {rate:.3f} at the median grid time with {what} ({report})")
