"""Independent reference routes used to verify the estimation code.

Everything here is deliberately implemented without reusing the closed-form
moment or posterior machinery: the Kaplan-Meier estimator is a direct
product-limit computation, path simulation draws actual beta jump variables,
and the three-beta product density is an explicit closed form.  Agreement
between these routes and the estimation code is what the test suite and the
``validate`` command check.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .bsp import BetaStacyProcess, DiscreteCdf, _check_lifetimes
from .dataio import Dataset
from .rbd import RbdNode

__all__ = [
    "sample_bsp_paths",
    "kaplan_meier",
    "exact_three_beta_product_pdf",
    "three_beta_product_cdf_grid",
    "WeibullLifetime",
    "StructuralLifetime",
    "censoring_rate",
    "simulate_lifetimes",
]

MAX_SEED = 2**64 - 1


def __getattr__(name: str):
    # ``oracle.integrate`` is read, and replaced while tracing, only by
    # perfbench/tracing.py; relfuse itself calls ``_scipy.integrate()``.
    if name == "integrate":
        return _scipy.integrate()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quad_to_inf(func) -> tuple[float, int]:
    """The integral of ``func`` over ``[0, inf)`` and QUADPACK's ``ier``.

    These are the arguments ``integrate.quad(func, 0.0, np.inf, limit=200)``
    passes to QAGI, so the value is the same to the last bit; only its
    warning for a non-zero ``ier`` is left to the caller.
    """
    value, _, ier = _scipy.quadpack()._qagie(func, 0.0, 1, (), 0, 1.49e-8, 1.49e-8, 200)
    return value, ier


def _check_seed(seed: int) -> int:
    seed = operator.index(seed)
    if not (0 <= seed <= MAX_SEED):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def sample_bsp_paths(process: BetaStacyProcess, n_paths: int, seed: int) -> np.ndarray:
    """Sample CDF paths from a beta-Stacy law: one row per grid point, one column per path.

    A path is built from independent jump variables: at grid point j with
    base value G_j, left value G_{j-1}, and precision a_j,

        W_j ~ Beta(a_j (G_j - G_{j-1}), a_j (1 - G_j)),

    the survival path is the running product of (1 - W_j), and F = 1 - R.
    Zero-mass jumps contribute W_j = 0; a jump where the base reaches 1
    contributes W_j = 1.  Positive-mass jumps require strictly positive
    precision, otherwise the beta shapes degenerate.
    """
    n_paths = operator.index(n_paths)
    seed = _check_seed(seed)
    grid = process.grid
    if grid.size == 0:
        raise ValueError("process grid is empty")
    g = process.base.values
    g_prev = np.concatenate(([0.0], g[:-1]))
    rng = np.random.default_rng(seed)
    surv = np.ones(n_paths)
    f_paths = np.empty((grid.size, n_paths))
    for j in range(grid.size):
        if g[j] >= 1.0:
            w = 1.0
        elif g[j] == g_prev[j]:
            w = 0.0
        else:
            a = process.precision[j] * (g[j] - g_prev[j])
            b = process.precision[j] * (1.0 - g[j])
            if not (a > 0.0 and b > 0.0):
                raise ValueError(
                    f"nonpositive beta shapes at positive-mass jump t={grid[j]:g}"
                )
            w = rng.beta(a, b, size=n_paths)
        surv = surv * (1.0 - w)
        f_paths[j] = 1.0 - surv
    return f_paths


def kaplan_meier(times, events) -> DiscreteCdf:
    """Product-limit estimate of the CDF from right-censored lifetimes.

    ``events`` is 1 (or ``True``) for a failure and 0 for a censored unit.
    Jumps only at distinct observed failure times; censored units tied with
    failures count as still at risk there.  Raises if no failures occurred.
    """
    times, events = _check_lifetimes(times, events)
    if not times.size:
        raise ValueError("Kaplan-Meier needs at least one sample")
    fail_times, deaths = np.unique(times[events], return_counts=True)
    if fail_times.size == 0:
        raise ValueError("Kaplan-Meier needs at least one observed failure")
    sorted_times = np.sort(times)
    at_risk = times.size - np.searchsorted(sorted_times, fail_times, side="left")
    surv = np.cumprod(1.0 - deaths / at_risk)
    return DiscreteCdf(fail_times, 1.0 - surv)


def exact_three_beta_product_pdf(y) -> np.ndarray:
    """Exact density of the product of Beta(9,3), Beta(8,3), Beta(4,2) variables.

    Closed form on [0, 1], with logarithmic terms:

        g(y) = 3960/7 y^3 - 1980 y^4 + 99000 y^7
               + (374220 + 356400 log y) y^8
               - (443520 - 237600 log y) y^9
               - 198000/7 y^10,

    and g(0) = 0.  Used as the quadrature reference when checking how well a
    moment-matched beta approximates a product of betas.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr < 0.0) or np.any(y_arr > 1.0):
        raise ValueError("product density is supported on [0, 1]")
    safe = np.where(y_arr > 0.0, y_arr, 1.0)
    log_y = np.log(safe)
    out = (
        3960.0 / 7.0 * safe**3
        - 1980.0 * safe**4
        + 99000.0 * safe**7
        + (374220.0 + 356400.0 * log_y) * safe**8
        - (443520.0 - 237600.0 * log_y) * safe**9
        - 198000.0 / 7.0 * safe**10
    )
    out = np.where(y_arr > 0.0, out, 0.0)
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def three_beta_product_cdf_grid() -> tuple[np.ndarray, np.ndarray]:
    """Exact CDF of the three-beta product on 4001 uniform points, by quadrature."""
    ys = np.linspace(0.0, 1.0, 4001)
    cdf = _scipy.integrate().cumulative_trapezoid(exact_three_beta_product_pdf(ys), ys, initial=0.0)
    return ys, cdf


@dataclass(frozen=True)
class WeibullLifetime:
    """Weibull lifetime sampler with the usual shape/scale parameterization."""

    shape: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "scale", float(self.scale))
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError("Weibull shape and scale must be finite and positive")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def cdf(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=np.float64)
        out = -np.expm1(-np.power(np.maximum(t_arr, 0.0) / self.scale, self.shape))
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def time_scale(self) -> float:
        return self.scale


class StructuralLifetime:
    """Lifetime of a block diagram node driven by per-component samplers.

    A series group fails when its first child fails (minimum), a parallel
    group when its last child fails (maximum).  The exact CDF follows the
    same recursion with survival products and CDF products.
    """

    def __init__(self, node: RbdNode, leaves: Mapping[str, WeibullLifetime]):
        missing = [c.id for c in node.iter_components() if c.id not in leaves]
        if missing:
            raise ValueError(f"no sampler for components: {', '.join(sorted(missing))}")
        self.node = node
        self.leaves = dict(leaves)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._sample_node(self.node, rng, n)

    def _sample_node(self, node: RbdNode, rng: np.random.Generator, n: int) -> np.ndarray:
        if node.kind == "component":
            return self.leaves[node.id].sample(rng, n)
        draws = np.stack([self._sample_node(c, rng, n) for c in node.children])
        return draws.min(axis=0) if node.kind == "series" else draws.max(axis=0)

    def cdf(self, t):
        return self._cdf_node(self.node, t)

    def _cdf_node(self, node: RbdNode, t):
        if node.kind == "component":
            return self.leaves[node.id].cdf(t)
        parts = [self._cdf_node(c, t) for c in node.children]
        if node.kind == "parallel":
            out = parts[0]
            for p in parts[1:]:
                out = out * p
            return out
        surv = 1.0 - parts[0]
        for p in parts[1:]:
            surv = surv * (1.0 - p)
        return 1.0 - surv

    def time_scale(self) -> float:
        """Median of the leaves' scales, without ``np.median`` and the ``numpy.ma`` import it brings."""
        scales = sorted(s.time_scale() for s in self.leaves.values())
        mid = len(scales) // 2
        return float(scales[mid] if len(scales) % 2 else (scales[mid - 1] + scales[mid]) / 2)


def censoring_rate(sampler, censor_fraction: float) -> float:
    """Exponential censoring rate giving the requested expected censored share.

    Solved by bisection on P(C < T), which increases monotonically in the
    rate.  Within one solve the survival ``1 - sampler.cdf(t)`` is evaluated
    once per distinct time: the quadrature's nodes on ``[0, inf)`` do not
    depend on the rate, so successive bisection steps revisit most of them.
    The share is then integrated again in the censoring's own time scale; a
    rate whose share misses the target by more than 1e-6 raises
    ``ValueError``.  That check decides, so the search ignores QUADPACK's
    error flag.  Both run the QUADPACK routine ``integrate.quad`` runs on
    ``[0, inf)``, called directly (see ``_quad_to_inf``), so the package
    ``scipy.integrate`` is loaded only when the check's flag is raised, to
    warn with ``quad``'s ``IntegrationWarning``.
    """
    censor_fraction = float(censor_fraction)
    if not (0.0 <= censor_fraction < 1.0):
        raise ValueError("censor fraction must lie in [0, 1)")
    if censor_fraction == 0.0:
        return 0.0
    survival_at: dict[float, float] = {}

    def survival(t: float) -> float:
        value = survival_at.get(t)
        if value is None:
            value = survival_at[t] = 1.0 - float(sampler.cdf(t))
        return value

    def censored_share(lam: float) -> float:
        # P(C < T) with C ~ Exp(lam).
        return _quad_to_inf(lambda t: lam * math.exp(-lam * t) * survival(t))[0]

    hi = 1.0 / max(sampler.time_scale(), 1e-300)
    while censored_share(hi) < censor_fraction:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError(f"no censoring rate reaches a censored share of {censor_fraction:g}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if censored_share(mid) < censor_fraction:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    rate = 0.5 * (lo + hi)

    # The same share in the time scale of the censoring, x = rate * t: a
    # rate far from the lifetime's scale can fool the quadrature above.
    def share_in_censoring_time(x: float) -> float:
        return math.exp(-x) * survival(x / rate)

    reached, ier = _quad_to_inf(share_in_censoring_time)
    if ier:
        # Rare: repeat it through quad, whose IntegrationWarning says what QUADPACK met.
        reached, _ = _scipy.integrate().quad(share_in_censoring_time, 0.0, np.inf, limit=200)
    if abs(reached - censor_fraction) > 1e-6:
        raise ValueError(
            f"censoring rate {rate:g} reaches a censored share of {reached:g}, "
            f"not {censor_fraction:g}"
        )
    return rate


def simulate_lifetimes(
    samplers: Mapping[str, object],
    n_per_node: int,
    censor_rates: Mapping[str, float],
    seed: int,
) -> list[Dataset]:
    """Draw right-censored lifetime datasets, one per node label.

    Lifetimes come from each node's sampler; censoring times are exponential
    with the node's rate from ``censor_rates`` (see ``censoring_rate``), and a
    rate of 0 leaves the node uncensored.  The observed time is the minimum
    of the two and ties count as failures.  Draw streams are derived
    deterministically from the seed per sorted node label, so identical
    seeds give byte-identical datasets regardless of mapping order.
    """
    n_per_node = operator.index(n_per_node)
    if n_per_node <= 0:
        raise ValueError("n_per_node must be positive")
    for label in samplers:
        if label not in censor_rates:
            raise ValueError(f"no censoring rate for {label!r}")
        if not (0.0 <= censor_rates[label] < math.inf):
            raise ValueError(f"censoring rate for {label!r} must be finite and nonnegative")
    seed = _check_seed(seed)
    root_seq = np.random.SeedSequence(seed)
    order = sorted(samplers)
    streams = dict(zip(order, root_seq.spawn(len(order))))
    datasets = []
    for label, sampler in samplers.items():
        rng = np.random.default_rng(streams[label])
        lifetimes = np.maximum(np.asarray(sampler.sample(rng, n_per_node), dtype=np.float64), 1e-12)
        rate = censor_rates[label]
        if rate > 0.0:
            censors = rng.exponential(1.0 / rate, size=n_per_node)
            observed = np.minimum(lifetimes, censors)
            events = lifetimes <= censors
        else:
            observed = lifetimes
            events = np.ones(n_per_node, dtype=bool)
        datasets.append(Dataset(label, observed, events))
    return datasets
