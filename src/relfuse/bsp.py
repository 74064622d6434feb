"""Discrete beta-Stacy processes for right-censored lifetime data.

The central object is a random CDF ``F`` whose pointwise mean is a discrete
base measure ``G`` and whose weight of belief is a nonnegative precision
function ``alpha``.  With constant precision the process reduces to a
Dirichlet process.  The family is conjugate under random right censoring:
the posterior given censored lifetimes is again a beta-Stacy process on the
union of the prior grid and the observed times, with closed-form updates to
both the base measure and the precision.

Conventions:

* Time zero is an implicit grid point carrying CDF value 0; grids hold only
  strictly positive jump locations.
* Wherever the base measure equals 1 the random CDF is 1 almost surely; the
  precision carries no information there and is stored as NaN ("undefined").
  Second moments are fixed at 1 on that segment.
* A posterior grid point becomes *not estimable* when neither prior mass nor
  at-risk units remain beyond it (a zero-denominator hazard).  Estimation
  stops there instead of extrapolating, and queries at or past that point
  raise ``NotEstimableError``.
* Queries beyond the last grid point return the last grid value (callers
  exporting curves mark such values explicitly rather than erroring).

All container types are immutable after construction, so values can be
shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import NotEstimableError

__all__ = [
    "DiscreteCdf",
    "BetaStacyProcess",
    "LifetimeSample",
    "BetaShape",
    "dp_prior",
    "posterior_update",
    "mean",
    "second_moment",
    "beta_match",
    "credible_interval",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _check_steps(grid, values, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A step curve's jump times and values as float arrays, checked.

    Both must be 1-d and of equal length; times finite, positive and strictly
    increasing; values finite and nondecreasing within [0, 1].  ``name``
    names the values in error messages.
    """
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if grid.ndim != 1 or grid.shape != values.shape:
        raise ValueError(f"grid and {name} must be 1-d arrays of equal length")
    # Differences taken from time 0 and between the value bounds 0 and 1 also
    # fail on NaN and on infinite values.
    if not (np.all(np.diff(grid, prepend=0.0) > 0.0) and np.isfinite(grid[-1:]).all()):
        raise ValueError("grid times must be finite, positive and strictly increasing")
    if not np.all(np.diff(values, prepend=0.0, append=1.0) >= 0.0):
        raise ValueError(f"{name} must be finite and nondecreasing within [0, 1]")
    return grid, values


def _carry(grid: np.ndarray, values: np.ndarray, t, before):
    """Right-continuous step lookup at ``t``: ``values[i]`` from ``grid[i]`` on.

    Ahead of the first grid time, and everywhere on an empty grid, the result
    is ``before``.
    """
    t = np.asarray(t, dtype=np.float64)
    if grid.size == 0:
        return np.full(t.shape, before, dtype=np.float64)
    idx = np.searchsorted(grid, t, side="right") - 1
    return np.where(idx >= 0, values[np.maximum(idx, 0)], before)


@dataclass(frozen=True)
class DiscreteCdf:
    """Right-continuous step CDF supported on a finite grid of positive times.

    ``values[i]`` is the CDF at ``grid[i]``.  Before ``grid[0]`` the CDF is 0.
    The final value need not be 1: a sub-distribution (mass missing at the
    right end) is a legal state, e.g. a data-only estimate under heavy
    censoring.  An empty grid represents the zero CDF.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid, values = _check_steps(self.grid, self.values, "values")
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "values", _freeze(values))

    def __len__(self) -> int:
        return self.grid.size

    def at(self, t):
        """CDF value at ``t`` (scalar or array), right-continuous."""
        out = _carry(self.grid, self.values, t, 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BetaStacyProcess:
    """Beta-Stacy prior or posterior: a base measure plus a precision function.

    ``precision[i]`` is the precision at ``base.grid[i]``; it is NaN exactly
    where ``base.values[i] == 1`` (undefined by convention).  ``estimable``
    is a prefix mask: once False, estimation has terminated and later grid
    points carry only placeholder values.
    """

    base: DiscreteCdf
    precision: np.ndarray
    estimable: np.ndarray | None = None

    def __post_init__(self):
        prec = np.array(self.precision, dtype=np.float64)
        if prec.shape != self.base.grid.shape:
            raise ValueError("precision must align with the base grid")
        terminal = self.base.values >= 1.0
        prec[terminal] = np.nan
        defined = ~np.isnan(prec)
        if np.any(prec[defined] < 0.0) or not np.isfinite(prec[defined]).all():
            raise ValueError("precision values must be finite and nonnegative")
        est = self.estimable
        if est is None:
            est = np.ones(self.base.grid.size, dtype=bool)
        else:
            est = np.asarray(est, dtype=bool)
            if est.shape != self.base.grid.shape:
                raise ValueError("estimable mask must align with the base grid")
            if est.size and not est.all():
                first_false = int(np.argmin(est))
                if est[first_false:].any():
                    raise ValueError("estimable mask must be a prefix of the grid")
        object.__setattr__(self, "precision", _freeze(prec))
        object.__setattr__(self, "estimable", _freeze(est))

    @property
    def grid(self) -> np.ndarray:
        return self.base.grid

    @property
    def precision_defined(self) -> np.ndarray:
        return ~np.isnan(self.precision)

    @classmethod
    def noninformative(cls) -> "BetaStacyProcess":
        """Empty prior: zero mass, zero precision, everywhere uninformative."""
        empty = np.empty(0)
        return cls(DiscreteCdf(empty, empty), empty)


@dataclass(frozen=True)
class LifetimeSample:
    """One observation: a positive time and an event indicator.

    ``event`` is 1 for an observed failure at ``time`` and 0 when the unit
    was withdrawn still working (right censored) at ``time``.
    """

    time: float
    event: int

    def __post_init__(self):
        time = float(self.time)
        if not np.isfinite(time) or time <= 0.0:
            raise ValueError("sample time must be a finite positive number")
        event = int(self.event)
        if event not in (0, 1):
            raise ValueError("event indicator must be 0 or 1")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)


@dataclass(frozen=True)
class BetaShape:
    """Shape pair (a, b) of a beta distribution, both strictly positive."""

    a: float
    b: float

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0 or b <= 0.0:
            raise ValueError("beta shapes must be finite and strictly positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def second_moment(self) -> float:
        s = self.a + self.b
        return self.a * (self.a + 1.0) / (s * (s + 1.0))


def dp_prior(grid, cdf_values, precision_const: float) -> BetaStacyProcess:
    """Dirichlet-process prior: a discrete base CDF with constant precision.

    The base must be a proper CDF (final value exactly 1).  The returned
    process stores ``precision_const`` at every grid point except those where
    the base has already reached 1, which are flagged undefined.
    """
    precision_const = float(precision_const)
    if not np.isfinite(precision_const) or precision_const < 0.0:
        raise ValueError("precision must be finite and nonnegative")
    base = DiscreteCdf(np.asarray(grid, dtype=np.float64), np.asarray(cdf_values, dtype=np.float64))
    if base.grid.size == 0:
        raise ValueError("prior grid must be nonempty")
    if base.values[-1] != 1.0:
        raise ValueError("prior base measure must end at exactly 1")
    return BetaStacyProcess(base, np.full(base.grid.size, precision_const))


def _extend_precision(process: BetaStacyProcess, grid: np.ndarray) -> np.ndarray:
    """Precision step function sampled on ``grid``.

    Carries the last defined value forward and the first defined value
    backward (a constant-precision prior stays constant off its grid).  If no
    point carries a defined precision the result is 0 everywhere: such a
    prior records no usable weight.
    """
    defined = process.precision_defined
    if process.grid.size == 0 or not defined.any():
        return np.zeros(grid.size)
    src_prec = process.precision[defined]
    return _carry(process.grid[defined], src_prec, grid, src_prec[0])


def posterior_update(prior: BetaStacyProcess, samples: Iterable[LifetimeSample]) -> BetaStacyProcess:
    """Condition a beta-Stacy prior on right-censored lifetimes.

    The posterior lives on the union of the prior grid and the distinct
    sample times (censoring times included: they leave the base measure
    unchanged there but still discount the precision).  Base-measure
    survival products are accumulated as running sums of ``log1p(-hazard)``.

    With no samples the prior is returned unchanged.  A grid point whose
    hazard denominator is zero (no prior mass and no at-risk units) ends the
    estimable range; later points are flagged rather than extrapolated.
    """
    samples = tuple(samples)
    for s in samples:
        if not isinstance(s, LifetimeSample):
            raise TypeError("samples must be LifetimeSample instances")
    if not samples and prior.grid.size == 0:
        return prior

    times = np.array([s.time for s in samples], dtype=np.float64)
    failed = np.array([s.time for s in samples if s.event], dtype=np.float64)
    union = np.union1d(prior.grid, times)

    g = prior.base.at(union)
    g_prev = np.concatenate(([0.0], g[:-1]))
    alpha = _extend_precision(prior, union)
    # Units at risk at t have time >= t (a censored unit tied with a failure
    # still counts); failures count at exactly t, which is on the union grid.
    m_at = (times.size - np.searchsorted(np.sort(times), union, side="left")).astype(np.float64)
    j_at = np.bincount(np.searchsorted(union, failed), minlength=union.size).astype(np.float64)

    terminal = g >= 1.0
    num = alpha * (g - g_prev) + j_at
    den = alpha * (1.0 - g_prev) + m_at
    with np.errstate(invalid="ignore", divide="ignore"):
        hazard = np.where(terminal, 1.0, num / den)
    dead = (den == 0.0) & ~terminal
    cut = int(np.argmax(dead)) if dead.any() else union.size

    with np.errstate(divide="ignore"):
        log_terms = np.where(hazard >= 1.0, -np.inf, np.log1p(-np.minimum(hazard, 1.0)))
    log_surv = np.cumsum(log_terms)
    g_star = -np.expm1(log_surv)

    with np.errstate(invalid="ignore", divide="ignore"):
        prec_star = (alpha * (1.0 - g) + m_at - j_at) / (1.0 - g_star)
    prec_star = np.where(g_star >= 1.0, np.nan, prec_star)

    estimable = np.ones(union.size, dtype=bool)
    if cut < union.size:
        carry = g_star[cut - 1] if cut > 0 else 0.0
        g_star = g_star.copy()
        g_star[cut:] = carry
        prec_star = prec_star.copy()
        prec_star[cut:] = np.nan
        estimable[cut:] = False

    return BetaStacyProcess(DiscreteCdf(union, g_star), prec_star, estimable)


def _check_estimable(process: BetaStacyProcess, t: float) -> None:
    if process.estimable.all():
        return
    cut_time = process.grid[int(np.argmin(process.estimable))]
    if t >= cut_time:
        raise NotEstimableError(
            f"query at t={t:g} is beyond the estimable range (ends before t={cut_time:g})"
        )


def mean(process: BetaStacyProcess, t: float) -> float:
    """Pointwise mean of the random CDF at ``t``: the base-measure value.

    Beyond the last grid point the last value is returned (callers decide
    how to mark such carried values).  Queries at or past a not-estimable
    point raise ``NotEstimableError``.
    """
    t = float(t)
    _check_estimable(process, t)
    return process.base.at(t)


def second_moment(process: BetaStacyProcess, t: float) -> float:
    """Pointwise second moment ``E[F(t)^2]`` of the random CDF at ``t``.

    Computed from the product over grid jumps up to ``t`` of the factors

        (1-G(ti)) (alpha(ti)(1-G(ti)) + 1)
        ----------------------------------- ,
        (1-G(ti-)) (alpha(ti)(1-G(ti-)) + 1)

    which equals ``E[(1-F(t))^2]``; the result is that product minus 1 plus
    twice the mean.  Where the base measure is 1 the result is exactly 1.
    """
    t = float(t)
    _check_estimable(process, t)
    grid = process.grid
    idx = int(np.searchsorted(grid, t, side="right")) - 1
    if idx < 0:
        return 0.0
    g_t = process.base.values[idx]
    if g_t >= 1.0:
        return 1.0
    g = process.base.values[: idx + 1]
    g_prev = np.concatenate(([0.0], g[:-1]))
    a = process.precision[: idx + 1]
    factors = ((1.0 - g) * (a * (1.0 - g) + 1.0)) / ((1.0 - g_prev) * (a * (1.0 - g_prev) + 1.0))
    surv_sq = float(np.prod(factors))
    return surv_sq - 1.0 + 2.0 * g_t


def beta_match(mean_value: float, second_moment_value: float) -> BetaShape:
    """Beta shape pair whose first two moments match the given values.

    With ``v = s - m^2`` the shapes are ``a = m (m(1-m)/v - 1)`` and
    ``b = (1-m) (m(1-m)/v - 1)``.  Requires ``0 < m < 1`` and
    ``m^2 < s < m``; zero variance and Bernoulli-extreme variance are
    rejected (callers should report degenerate point estimates instead).
    """
    m = float(mean_value)
    s = float(second_moment_value)
    if not (0.0 < m < 1.0):
        raise ValueError("mean must lie strictly inside (0, 1)")
    v = s - m * m
    if v <= 0.0:
        raise ValueError("zero or negative variance: moments admit no beta")
    if v >= m * (1.0 - m):
        raise ValueError("variance at or above Bernoulli bound: moments admit no beta")
    k = m * (1.0 - m) / v - 1.0
    return BetaShape(m * k, (1.0 - m) * k)


def credible_interval(process: BetaStacyProcess, t: float, level: float = 0.95) -> tuple[float, float]:
    """Equal-tailed pointwise credible interval for ``F(t)``.

    The pointwise law of ``F(t)`` is approximated by the beta distribution
    matching its first two moments; the interval is the pair of equal-tailed
    beta quantiles at the given level.  Degenerate cases return zero-width
    intervals at the mean (and the maximal interval (0, 1) when the variance
    sits at the Bernoulli bound, where no beta exists).
    """
    level = float(level)
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly inside (0, 1)")
    m = mean(process, t)
    if m <= 0.0:
        return (0.0, 0.0)
    if m >= 1.0:
        return (1.0, 1.0)
    s = second_moment(process, t)
    v = s - m * m
    if v <= 0.0:
        return (m, m)
    if v >= m * (1.0 - m):
        return (0.0, 1.0)
    shape = beta_match(m, s)
    tail = (1.0 - level) / 2.0
    lo = float(special.betaincinv(shape.a, shape.b, tail))
    hi = float(special.betaincinv(shape.a, shape.b, 1.0 - tail))
    # Extreme skew can push both quantiles past the mean; widen minimally so
    # the band always brackets the point estimate.
    return (min(lo, m), max(hi, m))
