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
* An update on no data returns the prior itself.  An update on data stops
  at its *horizon*: the first time where neither prior mass nor at-risk
  units remain (a zero-denominator hazard).  The posterior's grid ends
  before the horizon instead of extrapolating, and queries at or past it
  raise ``NotEstimableError``.
* Queries beyond the last grid point but before the horizon return the last
  grid value.  An export (``pipeline.curve_export``) holds the grid rows
  only, so no such value appears in one.

All container types are immutable after construction, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import special_ufuncs
from .errors import NotEstimableError

__all__ = [
    "DiscreteCdf",
    "BetaStacyProcess",
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


def _check_lifetimes(times, events) -> tuple[np.ndarray, np.ndarray]:
    """Lifetime columns as new float and bool arrays, checked.

    Both must be 1-d and of equal length, times finite and positive, and each
    event exactly 0 or 1 (``False`` or ``True``).
    """
    times = np.array(times, dtype=np.float64)
    events = np.asarray(events)
    if times.ndim != 1 or times.shape != events.shape:
        raise ValueError("times and events must be 1-d arrays of equal length")
    if not (np.all(times > 0.0) and np.isfinite(times).all()):
        raise ValueError("sample time must be a finite positive number")
    if not np.isin(events, (0, 1)).all():
        raise ValueError("event indicator must be 0 or 1")
    return times, events.astype(bool)


def _union(*arrays: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``arrays``, as ``np.union1d`` gives for two, without the ``numpy.ma`` import."""
    values = np.sort(np.concatenate(arrays))
    first = np.ones(values.shape, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


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
        """CDF value at ``t`` (scalar or array), right-continuous; a NaN time raises ``ValueError``."""
        out = _carry(self.grid, self.values, t, 0.0)
        if np.isnan(t).any():
            raise ValueError("query time must not be NaN")
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BetaStacyProcess:
    """Beta-Stacy prior or posterior: a base measure plus a precision function.

    ``precision[i]`` is the precision at ``base.grid[i]``; it is NaN exactly
    where ``base.values[i] == 1`` (undefined by convention).  ``horizon`` is
    the time where estimation stops, after the last grid time; it is
    infinite unless a posterior update ran out of information.
    """

    base: DiscreteCdf
    precision: np.ndarray
    horizon: float = math.inf

    def __post_init__(self):
        prec = np.array(self.precision, dtype=np.float64)
        if prec.shape != self.base.grid.shape:
            raise ValueError("precision must align with the base grid")
        terminal = self.base.values >= 1.0
        live = prec[~terminal]
        if not (np.isfinite(live).all() and np.all(live >= 0.0)):
            raise ValueError("precision values must be finite and nonnegative")
        prec[terminal] = np.nan
        horizon = float(self.horizon)
        if not horizon > (self.base.grid[-1] if self.base.grid.size else 0.0):  # NaN fails too
            raise ValueError("horizon must lie after the last grid time")
        object.__setattr__(self, "precision", _freeze(prec))
        object.__setattr__(self, "horizon", horizon)

    @property
    def grid(self) -> np.ndarray:
        return self.base.grid

    @property
    def precision_defined(self) -> np.ndarray:
        return ~np.isnan(self.precision)

    def precision_at(self, t) -> np.ndarray:
        """Precision at each time ``t``: the one rule for times off the grid.

        From the first grid point on it is the precision of the last
        non-terminal point at or before ``t``, and before that point the first
        point's.  A process with no non-terminal point has precision 0 before
        its first point and NaN from there on.  A NaN time raises ``ValueError``.
        """
        if np.isnan(t).any():
            raise ValueError("query time must not be NaN")
        live = self.precision_defined
        if not live.any():
            return _carry(self.grid[:1], self.precision[:1], t, 0.0)
        return _carry(self.grid[live], self.precision[live], t, self.precision[0])

    @classmethod
    def noninformative(cls) -> "BetaStacyProcess":
        """Empty prior: zero mass, zero precision, everywhere uninformative."""
        empty = np.empty(0)
        return cls(DiscreteCdf(empty, empty), empty)


def dp_prior(grid, cdf_values, precision_const: float) -> BetaStacyProcess:
    """Dirichlet-process prior: a discrete base CDF with constant precision.

    The base must be a proper CDF (final value exactly 1).  The returned
    process stores ``precision_const`` at every grid point except those where
    the base has already reached 1, which are flagged undefined.
    """
    precision_const = float(precision_const)
    if not np.isfinite(precision_const) or precision_const < 0.0:
        raise ValueError("precision must be finite and nonnegative")
    return _proper_prior(grid, cdf_values, precision_const)


def _proper_prior(grid, cdf_values, precision) -> BetaStacyProcess:
    """Prior with a nonempty base CDF ending at exactly 1; ``precision`` is per point or one for all."""
    base = DiscreteCdf(grid, cdf_values)
    if base.grid.size == 0:
        raise ValueError("prior grid must be nonempty")
    if base.values[-1] != 1.0:
        raise ValueError("prior base measure must end at exactly 1")
    return BetaStacyProcess(base, np.broadcast_to(precision, base.grid.shape))


def posterior_update(prior: BetaStacyProcess, times, events) -> BetaStacyProcess:
    """Condition a beta-Stacy prior on right-censored lifetimes.

    ``events`` marks each of ``times`` 1 (or ``True``) for a failure and 0 for
    a right-censored withdrawal; the two columns may be empty.  The posterior
    lives on the union of the prior grid and the distinct sample times
    (censoring times included: they leave the base measure unchanged there
    but still discount the precision).  Base-measure survival products are
    accumulated as running sums of ``log1p(-hazard)``.

    With no samples the posterior is ``prior`` itself.  Otherwise the first
    union time whose hazard denominator is zero (no prior mass and no
    at-risk units) becomes the posterior's horizon: the grid ends before it
    rather than extrapolating.
    """
    times, events = _check_lifetimes(times, events)
    if times.size == 0:
        return prior

    failed = times[events]
    union = _union(prior.grid, times)

    g = prior.base.at(union)
    g_prev = np.concatenate(([0.0], g[:-1]))
    alpha = prior.precision_at(union)
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

    horizon = union[cut] if cut < union.size else math.inf
    return BetaStacyProcess(DiscreteCdf(union[:cut], g_star[:cut]), prec_star[:cut], horizon)


def _check_estimable(process: BetaStacyProcess, t: float) -> None:
    if not t < process.horizon:  # NaN takes this branch too
        if math.isnan(t):
            raise ValueError("query time must not be NaN")
        raise NotEstimableError(
            f"query at t={t:g} is beyond the estimable range (ends before t={process.horizon:g})"
        )


def mean(process: BetaStacyProcess, t: float) -> float:
    """Pointwise mean of the random CDF at ``t``: the base-measure value.

    Beyond the last grid point the last value is returned (callers decide
    how to mark such carried values).  Queries at or past the process's
    horizon raise ``NotEstimableError``.
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


def beta_match(mean_value: float, second_moment_value: float) -> tuple[float, float]:
    """Beta shape pair ``(a, b)`` whose first two moments match the given values.

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
    return _beta_shapes(m, v)


def _beta_shapes(m, v):
    """The shapes of ``beta_match`` for means ``m`` and variances ``v``, floats or arrays.

    Raises ``ValueError`` unless every shape is finite and strictly positive.
    """
    k = m * (1.0 - m) / v - 1.0
    a, b = m * k, (1.0 - m) * k
    if not np.all((0.0 < a) & (a < math.inf) & (0.0 < b) & (b < math.inf)):
        raise ValueError("beta shapes must be finite and strictly positive")
    return a, b


def _check_level(level) -> float:
    level = float(level)
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly inside (0, 1)")
    return level


def _beta_bands(mean, second, level) -> tuple[np.ndarray, np.ndarray]:
    """Equal-tailed credible bands for arrays of first and second moments.

    Row by row, the first of these rules that applies sets the band:
    a mean of 0 or less gives (0, 0), a mean of 1 or more gives (1, 1), zero
    or negative variance gives (mean, mean), and variance at or above the
    Bernoulli bound ``m(1-m)``, where no beta exists, gives (0, 1).  Every
    other row gets the quantiles at ``(1 - level)/2`` and ``(1 + level)/2``
    of the beta that ``beta_match`` would give, from one array
    ``betaincinv`` call per end.
    """
    level = _check_level(level)
    m = np.asarray(mean, dtype=np.float64)
    v = np.asarray(second, dtype=np.float64) - m * m
    degenerate = [m <= 0.0, m >= 1.0, v <= 0.0, v >= m * (1.0 - m)]
    lower = np.select(degenerate, [0.0, 1.0, m, 0.0])
    upper = np.select(degenerate, [0.0, 1.0, m, 1.0])
    fit = ~np.logical_or.reduce(degenerate)
    m, v = m[fit], v[fit]
    a, b = _beta_shapes(m, v)
    betaincinv = special_ufuncs().betaincinv
    tail = (1.0 - level) / 2.0
    # Extreme skew can push both quantiles past the mean; widen minimally so
    # the band always brackets the point estimate.
    lower[fit] = np.minimum(betaincinv(a, b, tail), m)
    upper[fit] = np.maximum(betaincinv(a, b, 1.0 - tail), m)
    return lower, upper


def credible_interval(process: BetaStacyProcess, t: float, level: float = 0.95) -> tuple[float, float]:
    """Equal-tailed pointwise credible interval for ``F(t)``.

    The pointwise law of ``F(t)`` is approximated by the beta distribution
    matching its first two moments; the interval is the pair of equal-tailed
    beta quantiles at the given level.  Degenerate cases return zero-width
    intervals at the mean (and the maximal interval (0, 1) when the variance
    sits at the Bernoulli bound, where no beta exists).  ``curve_export``
    applies the same rule to a whole curve at once.
    """
    level = _check_level(level)
    m = mean(process, t)
    # A mean of 0 or 1 sets the band whatever the second moment.
    s = second_moment(process, t) if 0.0 < m < 1.0 else m
    lower, upper = _beta_bands([m], [s], level)
    return (float(lower[0]), float(upper[0]))
