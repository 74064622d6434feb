"""Self-checks behind the ``validate`` command, and the replication statistics.

Each check exercises one estimation route against an independent reference:
closed-form worked examples, the Kaplan-Meier product limit, Monte Carlo
paths of single processes and of the demo diagram, and the exact
three-beta product density.  The estimates checked are the moment curves
and bands a fit exports.  Checks are seeded; every Monte Carlo path comes
from ``sample_bsp_paths``, comparisons use a four-standard-error tolerance,
and ``_moment_z`` alone turns draws into moments and z-scores.  That bound
is not met for every seed: ``run_checks`` fails on 4 of seeds 0-299.
``shared_band_widths`` and ``covers_truth`` are the statistics of
replication studies, read from ``CurveExport``s.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import _scipy
from .bsp import BetaStacyProcess, DiscreteCdf, beta_match, dp_prior, posterior_update
from .demo import demo_config
from .errors import PrecisionRecoveryWarning
from .fusion import MomentCurve, combine_series, moments_of, recover_precision
from .oracle import (
    StructuralLifetime,
    _check_seed,
    exact_three_beta_product_pdf,
    kaplan_meier,
    sample_bsp_paths,
    three_beta_product_cdf_grid,
)
from .pipeline import curve_export, fit_system

__all__ = ["CheckResult", "run_checks", "format_report", "shared_band_widths", "covers_truth"]

_EXACT_TOL = 1e-12
_ROUNDTRIP_TOL = 1e-9
_KM_SETS = 200
_MAX_SAMPLES = 50
_MC_PROCESSES = 5
_MC_PATHS = 100_000
# Paths per component: run_checks(0) peaks near 150 MB with 5,000, and path memory grows with the count.
_DIAGRAM_PATHS = 5_000
_ROUNDTRIP_CURVES = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_bsp(rng: np.random.Generator, max_points: int = 10) -> BetaStacyProcess:
    n = int(rng.integers(2, max_points + 1))
    grid = np.unique(np.round(rng.uniform(0.1, 30.0, n), 6))
    while grid.size < 2:
        grid = np.unique(np.round(rng.uniform(0.1, 30.0, n), 6))
    vals = np.sort(rng.uniform(0.0, 1.0, grid.size))
    vals = np.clip(vals, 1e-4, 0.999)
    if rng.random() < 0.3:
        vals[-1] = 1.0
    prec = rng.lognormal(1.0, 1.2, grid.size)
    return BetaStacyProcess(DiscreteCdf(grid, vals), prec)


def _random_censored_samples(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = int(rng.integers(2, _MAX_SAMPLES + 1))
    times = np.round(rng.exponential(10.0, n), 2) + 0.01
    events = rng.random(n) > 0.3
    if not events.any():
        events[int(rng.integers(0, n))] = True
    return times, events


def _worst(errors) -> float:
    """The largest of ``errors``, or inf when any is NaN, so that no loop's ``max`` can drop it."""
    worst = float(np.max(errors, initial=0.0))
    return math.inf if math.isnan(worst) else worst


def _prior_only_error(prior: BetaStacyProcess) -> float:
    """Largest change an update on no data makes to ``prior``; inf if its grid or NaN points move."""
    post = posterior_update(prior, [], [])
    defined = prior.precision_defined
    if not (np.array_equal(post.grid, prior.grid) and np.array_equal(post.precision_defined, defined)):
        return math.inf
    gaps = (post.base.values - prior.base.values, post.precision[defined] - prior.precision[defined])
    return _worst(np.abs(np.concatenate(gaps)))


def _kaplan_meier_error(times, events) -> float:
    """Largest gap between the zero-precision posterior's mean curve and the product-limit estimate."""
    km = kaplan_meier(times, events)
    post = posterior_update(BetaStacyProcess.noninformative(), times, events)
    return _worst(np.abs(post.base.at(km.grid) - km.values))


def _moment_z(curve: MomentCurve, paths: np.ndarray) -> float:
    """Worst |z| of ``curve``'s moments against draws, one row per grid point.

    Standard errors take ``ddof=1``, so at least 2 draws per row are needed.
    A row without spread must match the curve exactly, else the result is
    inf, as it is for a NaN anywhere.
    """
    if paths.shape[1] < 2:
        raise ValueError("at least 2 paths are needed, so that standard errors exist")
    draws = (paths, paths * paths)
    emp = np.column_stack([d.mean(axis=1) for d in draws])
    se = np.column_stack([d.std(axis=1, ddof=1) for d in draws]) / math.sqrt(paths.shape[1])
    closed = np.column_stack((curve.first, curve.second))
    zero = se == 0.0
    if np.any(emp[zero] != closed[zero]):
        return math.inf
    return _worst(np.abs(emp - closed)[~zero] / se[~zero])


def _roundtrip_error(process: BetaStacyProcess) -> float:
    """Largest change that recovering a process from ``process``'s moment curve makes to that curve."""
    curve = moments_of(process)
    back = moments_of(recover_precision(curve))
    return _worst(np.abs(np.concatenate((back.first - curve.first, back.second - curve.second))))


def shared_band_widths(hier, sysonly) -> tuple[float, float]:
    """Mean band widths of two exports, each over the grid times both share.

    ``hier`` and ``sysonly`` are ``CurveExport``s, as of the hierarchical and
    the system-only fit of one dataset.
    """
    shared = np.intersect1d(hier.t, sysonly.t)
    widths = [(c.upper - c.lower)[np.searchsorted(c.t, shared)] for c in (hier, sysonly)]
    return float(np.mean(widths[0])), float(np.mean(widths[1]))


def covers_truth(curve, true_cdf, percent: int = 50) -> bool:
    """Whether the band of the export ``curve`` holds ``true_cdf`` at a grid quantile.

    The quantile's row is ``len * percent // 100`` for ``percent`` in
    [0, 100); the default is the median row, ``len // 2``.
    """
    if not (0 <= percent < 100 and curve.t.size):
        raise ValueError(f"no grid quantile row at {percent}% of an export with {curve.t.size} rows")
    i = curve.t.size * percent // 100
    truth = float(true_cdf(float(curve.t[i])))
    return bool(curve.lower[i] <= truth <= curve.upper[i])


def check_prior_only() -> CheckResult:
    """No data: posterior base and precision must equal the prior exactly."""
    err = _prior_only_error(dp_prior([1.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 5.0))
    return CheckResult("prior-only update is the identity", err == 0.0, f"max error {err:.3e}")


def check_data_only() -> CheckResult:
    """Zero-precision prior: posterior is the empirical CDF with precision n."""
    post = posterior_update(BetaStacyProcess.noninformative(), [1.0, 2.0, 3.0], [1, 1, 1])
    err = _worst(np.abs(np.concatenate((post.base.values - [1 / 3, 2 / 3, 1.0], post.precision[:2] - 3.0))))
    ok = err <= _EXACT_TOL and np.isnan(post.precision[2])
    return CheckResult("zero-precision posterior is the empirical CDF", ok, f"max error {err:.3e}")


def check_kaplan_meier(seed: int) -> CheckResult:
    """Zero-precision posterior base equals the product-limit estimate."""
    rng = np.random.default_rng(seed)
    worst = max(_kaplan_meier_error(*_random_censored_samples(rng)) for _ in range(_KM_SETS))
    return CheckResult(
        f"matches Kaplan-Meier on {_KM_SETS} censored datasets",
        worst <= _EXACT_TOL,
        f"worst error {worst:.3e}",
    )


def check_second_moment_mc(seed: int) -> CheckResult:
    """Closed-form moments sit within 4 standard errors of simulated paths."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for _ in range(_MC_PROCESSES):
        process = _random_bsp(rng)
        paths = sample_bsp_paths(process, _MC_PATHS, int(rng.integers(0, 2**63)))
        worst_z = max(worst_z, _moment_z(moments_of(process), paths))
    return CheckResult(
        f"closed-form moments match simulated paths ({_MC_PROCESSES} processes)",
        worst_z <= 4.0,
        f"worst |z| {worst_z:.2f}",
    )


def _path_leaf(process: BetaStacyProcess, seed: int) -> SimpleNamespace:
    """A ``StructuralLifetime`` leaf whose ``cdf(t)`` is paths of ``process`` at ``t``, 0 before its grid."""
    paths = np.vstack((np.zeros((1, _DIAGRAM_PATHS)), sample_bsp_paths(process, _DIAGRAM_PATHS, seed)))
    return SimpleNamespace(cdf=lambda t: paths[np.searchsorted(process.grid, t, side="right")])


# The demo's censoring is calibrated once per process.
_demo = functools.cache(demo_config)


def check_diagram_mc(seed: int) -> CheckResult:
    """The demo's system fit from component data matches its law by Monte Carlo.

    That law is the structure function applied to independent component
    posteriors: each component's sampled paths go through the diagram with
    ``StructuralLifetime``.  The fitted moments must sit within 4 standard
    errors of the system paths, and the exported 95% band must hold a mean
    share of them in [0.945, 0.958] over rows with mean in (0.02, 0.98).
    """
    cfg = _demo()
    components = [c.id for c in cfg.spec.root.iter_components()]
    datasets = [d for d in cfg.simulate(seed) if d.label in components]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionRecoveryWarning)
        fit = fit_system(cfg.spec, datasets)
    rng = np.random.default_rng(seed)
    leaves = {c: _path_leaf(fit.node_posteriors[c], int(rng.integers(0, 2**63))) for c in components}
    export = curve_export(fit.posterior)
    paths = StructuralLifetime(cfg.spec.root, leaves).cdf(export.t)
    worst_z = _moment_z(moments_of(fit.posterior), paths)
    inside = (paths >= export.lower[:, None]) & (paths <= export.upper[:, None])
    interior = (export.mean > 0.02) & (export.mean < 0.98)
    share = float(inside[interior].mean())
    return CheckResult(
        f"demo fit matches diagram Monte Carlo ({_DIAGRAM_PATHS} paths)",
        worst_z <= 4.0 and 0.945 <= share <= 0.958,
        f"worst |z| {worst_z:.2f}, band share {share:.4f}",
    )


def check_series_degenerate() -> CheckResult:
    """A pair of all-zero curves must fuse to second moment exactly 0.

    Expanding the series second moment through the means instead of the
    survival moments gives 2 here; this guards that mistake.
    """
    grid = np.array([1.0, 2.0])
    zero = MomentCurve(grid, np.zeros(2), np.zeros(2))
    try:
        fused = combine_series(zero, zero)
        err = float(np.max(np.abs(fused.second)))
    except ValueError as exc:
        return CheckResult("degenerate series pair has zero second moment", False, str(exc))
    return CheckResult(
        "degenerate series pair has zero second moment", err == 0.0, f"max |second| {err:.3e}"
    )


def check_roundtrip(seed: int) -> CheckResult:
    """Moment curves survive recovery to a process and back."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = max(_roundtrip_error(_random_bsp(rng)) for _ in range(_ROUNDTRIP_CURVES))
    return CheckResult(
        f"moment curves round-trip through recovery ({_ROUNDTRIP_CURVES} curves)",
        worst <= _ROUNDTRIP_TOL,
        f"worst error {worst:.3e}",
    )


def check_three_beta_product() -> CheckResult:
    """Moment-matched beta approximates the exact product law.

    The exact density must integrate to 1 with mean 4/11, and the matched
    beta CDF must stay within Kolmogorov-Smirnov distance 0.05 of the exact
    CDF computed by quadrature.
    """
    integrate, betainc = _scipy.integrate(), _scipy.special_ufuncs().betainc
    total, _ = integrate.quad(exact_three_beta_product_pdf, 0.0, 1.0, limit=200)
    mean_val, _ = integrate.quad(lambda y: y * exact_three_beta_product_pdf(y), 0.0, 1.0, limit=200)
    m = (9 / 12) * (8 / 11) * (4 / 6)
    s = (9 * 10 / (12 * 13)) * (8 * 9 / (11 * 12)) * (4 * 5 / (6 * 7))
    a, b = beta_match(m, s)
    ys, cdf = three_beta_product_cdf_grid()
    ks = float(np.max(np.abs(betainc(a, b, ys) - cdf)))
    ok = abs(total - 1.0) <= 1e-6 and abs(mean_val - 4 / 11) <= 1e-6 and ks <= 0.05
    return CheckResult(
        "matched beta approximates the three-beta product",
        ok,
        f"integral {total:.8f}, mean {mean_val:.8f}, KS {ks:.4f}",
    )


def run_checks(seed: int = 0) -> list[CheckResult]:
    seed = _check_seed(seed)
    return [
        check_prior_only(),
        check_data_only(),
        check_kaplan_meier(seed + 1),
        check_second_moment_mc(seed + 2),
        check_diagram_mc(seed + 3),
        check_series_degenerate(),
        check_roundtrip(seed + 4),
        check_three_beta_product(),
    ]


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name.ljust(width)}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
