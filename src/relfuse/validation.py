"""Self-checks behind the ``validate`` command.

Each check exercises one estimation route against an independent reference:
closed-form worked examples, the Kaplan-Meier product limit, Monte Carlo
path and fusion sampling, and the exact three-beta product density.  Checks
are seeded; Monte Carlo comparisons use a four-standard-error tolerance so
they pass for any seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .bsp import (
    BetaStacyProcess,
    DiscreteCdf,
    LifetimeSample,
    beta_match,
    dp_prior,
    mean,
    posterior_update,
    second_moment,
)
from .fusion import MomentCurve, combine_parallel, combine_series, moments_of, recover_precision
from .oracle import (
    exact_three_beta_product_pdf,
    kaplan_meier,
    simulate_bsp_paths,
    three_beta_product_cdf_grid,
)

__all__ = ["CheckResult", "run_checks", "format_report"]

_EXACT_TOL = 1e-12
_ROUNDTRIP_TOL = 1e-9
_KM_SETS = 200
_MAX_SAMPLES = 50
_MC_PROCESSES = 5
_MC_PATHS = 100_000
_FUSION_DRAWS = 50_000
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


def _random_censored_samples(rng: np.random.Generator) -> list[LifetimeSample]:
    n = int(rng.integers(2, _MAX_SAMPLES + 1))
    times = np.round(rng.exponential(10.0, n), 2) + 0.01
    events = (rng.random(n) > 0.3).astype(int)
    if events.sum() == 0:
        events[int(rng.integers(0, n))] = 1
    return [LifetimeSample(float(t), int(e)) for t, e in zip(times, events)]


def check_prior_only() -> CheckResult:
    """No data: posterior base and precision must equal the prior."""
    prior = dp_prior([1.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 5.0)
    post = posterior_update(prior, [])
    err = float(np.max(np.abs(post.base.values - prior.base.values)))
    defined = prior.precision_defined
    err = max(err, float(np.max(np.abs(post.precision[defined] - prior.precision[defined]))))
    same_marker = bool(np.array_equal(post.precision_defined, defined))
    ok = err <= _EXACT_TOL and same_marker and np.array_equal(post.grid, prior.grid)
    return CheckResult("prior-only update is the identity", ok, f"max error {err:.3e}")


def check_data_only() -> CheckResult:
    """Zero-precision prior: posterior is the empirical CDF with precision n."""
    samples = [LifetimeSample(float(t), 1) for t in (1.0, 2.0, 3.0)]
    post = posterior_update(BetaStacyProcess.noninformative(), samples)
    err = float(np.max(np.abs(post.base.values - np.array([1 / 3, 2 / 3, 1.0]))))
    err = max(err, float(np.max(np.abs(post.precision[:2] - 3.0))))
    ok = err <= _EXACT_TOL and np.isnan(post.precision[2])
    return CheckResult("zero-precision posterior is the empirical CDF", ok, f"max error {err:.3e}")


def check_kaplan_meier(seed: int) -> CheckResult:
    """Zero-precision posterior base equals the product-limit estimate."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_KM_SETS):
        samples = _random_censored_samples(rng)
        km = kaplan_meier(samples)
        post = posterior_update(BetaStacyProcess.noninformative(), samples)
        est = np.array([mean(post, float(t)) for t in km.grid])
        worst = max(worst, float(np.max(np.abs(est - km.values))))
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
        proc = _random_bsp(rng)
        ps = simulate_bsp_paths(proc, _MC_PATHS, int(rng.integers(0, 2**63)))
        for i, t in enumerate(proc.grid):
            closed_m = mean(proc, float(t))
            closed_s = second_moment(proc, float(t))
            for emp, se, closed in (
                (ps.mean[i], ps.mean_se[i], closed_m),
                (ps.second_moment[i], ps.second_moment_se[i], closed_s),
            ):
                if se == 0.0:
                    if emp != closed:
                        return CheckResult(
                            "closed-form moments match simulated paths",
                            False,
                            f"degenerate point disagrees at t={t:g}",
                        )
                else:
                    worst_z = max(worst_z, abs(emp - closed) / se)
    return CheckResult(
        f"closed-form moments match simulated paths ({_MC_PROCESSES} processes)",
        worst_z <= 4.0,
        f"worst |z| {worst_z:.2f}",
    )


def check_fusion_mc(seed: int, n_cases: int = 10) -> CheckResult:
    """Fused moments sit within 4 standard errors of pointwise Monte Carlo."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for _ in range(n_cases):
        n_pts = int(rng.integers(2, 6))
        grid = np.arange(1.0, n_pts + 1.0)
        shapes = []
        for _ in range(2):
            ab = [(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)) for _ in range(n_pts)]
            ab.sort(key=lambda p: p[0] / (p[0] + p[1]))
            shapes.append(ab)
        curves = [
            MomentCurve(
                grid,
                np.array([a / (a + b) for a, b in ab]),
                np.array([a * (a + 1) / ((a + b) * (a + b + 1)) for a, b in ab]),
            )
            for ab in shapes
        ]
        for kind in ("series", "parallel"):
            fuse = combine_series if kind == "series" else combine_parallel
            fused = fuse(curves[0], curves[1])
            fa = np.column_stack([rng.beta(a, b, _FUSION_DRAWS) for a, b in shapes[0]])
            fb = np.column_stack([rng.beta(a, b, _FUSION_DRAWS) for a, b in shapes[1]])
            fs = 1.0 - (1.0 - fa) * (1.0 - fb) if kind == "series" else fa * fb
            emp_first = fs.mean(axis=0)
            emp_second = (fs * fs).mean(axis=0)
            se1 = fs.std(axis=0) / np.sqrt(_FUSION_DRAWS)
            se2 = (fs * fs).std(axis=0) / np.sqrt(_FUSION_DRAWS)
            worst_z = max(
                worst_z,
                float(np.max(np.abs(emp_first - fused.first) / se1)),
                float(np.max(np.abs(emp_second - fused.second) / se2)),
            )
    return CheckResult(
        f"fused moments match Monte Carlo ({n_cases} two-node cases)",
        worst_z <= 4.0,
        f"worst |z| {worst_z:.2f}",
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
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(_ROUNDTRIP_CURVES):
            curve = moments_of(_random_bsp(rng))
            back = moments_of(recover_precision(curve))
            worst = max(
                worst,
                float(np.max(np.abs(back.first - curve.first))),
                float(np.max(np.abs(back.second - curve.second))),
            )
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
    total, _ = integrate.quad(exact_three_beta_product_pdf, 0.0, 1.0, limit=200)
    mean_val, _ = integrate.quad(lambda y: y * exact_three_beta_product_pdf(y), 0.0, 1.0, limit=200)
    m = (9 / 12) * (8 / 11) * (4 / 6)
    s = (9 * 10 / (12 * 13)) * (8 * 9 / (11 * 12)) * (4 * 5 / (6 * 7))
    shape = beta_match(m, s)
    ys, cdf = three_beta_product_cdf_grid()
    ks = float(np.max(np.abs(special.betainc(shape.a, shape.b, ys) - cdf)))
    ok = abs(total - 1.0) <= 1e-6 and abs(mean_val - 4 / 11) <= 1e-6 and ks <= 0.05
    return CheckResult(
        "matched beta approximates the three-beta product",
        ok,
        f"integral {total:.8f}, mean {mean_val:.8f}, KS {ks:.4f}",
    )


def run_checks(seed: int = 0) -> list[CheckResult]:
    seed = int(seed)
    return [
        check_prior_only(),
        check_data_only(),
        check_kaplan_meier(seed + 1),
        check_second_moment_mc(seed + 2),
        check_fusion_mc(seed + 3),
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
