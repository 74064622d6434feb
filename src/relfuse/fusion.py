"""Fusing lifetime uncertainty through a block diagram via moment algebra.

A fitted node is summarized by its pointwise first and second moments
(``MomentCurve``).  Independent children combine in closed form:

* parallel (fails when the last child fails):
  ``first = fa * fb`` and ``second = sa * sb``;
* series (fails when the first child fails), in terms of the survival
  moments ``E[R] = 1 - first`` and ``E[R^2] = second + 1 - 2 first``:
  ``E[R_s] = E[R_a] E[R_b]`` and ``E[R_s^2] = E[R_a^2] E[R_b^2]``.

The combined curve is generally not the moment curve of any beta-Stacy
process, but one can be fitted to it: ``recover_precision`` inverts the
second-moment product one grid increment at a time, giving a process whose
mean is the fused first moment and whose second moment reproduces the fused
one wherever the increments are consistent.  That process then serves as
the prior for the parent node's own lifetime data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bsp import (
    BetaStacyProcess,
    DiscreteCdf,
    _carry,
    _check_steps,
    _extend_precision,
    _freeze,
    second_moment,
)
from .errors import PrecisionRecoveryWarning

__all__ = [
    "PRECISION_CAP",
    "MomentCurve",
    "moments_of",
    "align_grids",
    "combine_parallel",
    "combine_series",
    "recover_precision",
    "merge_priors",
]

PRECISION_CAP = 1e12

_ENVELOPE_SLACK = 1e-9


@dataclass(frozen=True)
class MomentCurve:
    """Pointwise first and second moments of a random CDF on a grid.

    Valid curves satisfy the moment envelope ``first^2 <= second <= first``
    at every point (up to a small numerical slack).  Points where
    ``first == 1`` are terminal: the random CDF is 1 almost surely there.
    """

    grid: np.ndarray
    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        grid, first = _check_steps(self.grid, self.first, "first moment")
        second = np.asarray(self.second, dtype=np.float64)
        if second.shape != grid.shape:
            raise ValueError("second moment must align with the grid")
        inside = (second >= first * first - _ENVELOPE_SLACK) & (second <= first + _ENVELOPE_SLACK)
        if not inside.all():  # a NaN second moment is outside too
            raise ValueError("moment envelope violated: need first^2 <= second <= first")
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "first", _freeze(first))
        object.__setattr__(self, "second", _freeze(second))

    def __len__(self) -> int:
        return self.grid.size

    @property
    def terminal(self) -> np.ndarray:
        return self.first >= 1.0

    @property
    def survival_second(self) -> np.ndarray:
        """``E[(1-F)^2]`` pointwise."""
        return self.second + 1.0 - 2.0 * self.first


def moments_of(process: BetaStacyProcess) -> MomentCurve:
    """Moment curve of a process on its own grid (estimable points only)."""
    keep = process.estimable
    grid = process.grid[keep]
    first = process.base.values[keep]
    second = np.array([second_moment(process, float(t)) for t in grid])
    return MomentCurve(grid, first, second)


def _extend_curve(curve: MomentCurve, grid: np.ndarray) -> MomentCurve:
    return MomentCurve(
        grid, _carry(curve.grid, curve.first, grid, 0.0), _carry(curve.grid, curve.second, grid, 0.0)
    )


def align_grids(a: MomentCurve, b: MomentCurve) -> tuple[MomentCurve, MomentCurve]:
    """Extend both curves to their union grid by right-continuous carry.

    Before a curve's first grid point both moments are 0 (no mass yet).
    """
    union = np.union1d(a.grid, b.grid)
    return _extend_curve(a, union), _extend_curve(b, union)


def _require_aligned(a: MomentCurve, b: MomentCurve) -> None:
    if not np.array_equal(a.grid, b.grid):
        raise ValueError("curves must be grid-aligned; call align_grids first")


def combine_parallel(a: MomentCurve, b: MomentCurve) -> MomentCurve:
    """Moments of the lifetime of two independent blocks in parallel.

    The pair fails once both children have failed, so the CDF is the product
    ``Fa * Fb`` and independence gives ``first = fa * fb``,
    ``second = sa * sb``.
    """
    _require_aligned(a, b)
    return MomentCurve(a.grid, a.first * b.first, a.second * b.second)


def combine_series(a: MomentCurve, b: MomentCurve) -> MomentCurve:
    """Moments of the lifetime of two independent blocks in series.

    The pair fails with its first child failure, so survival multiplies:
    with ``u = E[(1-F)^2]`` and ``r = E[1-F]`` per child,
    ``first = 1 - ra * rb`` and ``second = ua * ub + 1 - 2 ra rb``.  The
    second moment is computed from the survival moments; expanding it
    through the means alone is wrong (a fully degenerate pair would come
    out with second moment 2 instead of 0).
    """
    _require_aligned(a, b)
    surv_prod = (1.0 - a.first) * (1.0 - b.first)
    first = 1.0 - surv_prod
    second = a.survival_second * b.survival_second + 1.0 - 2.0 * surv_prod
    return MomentCurve(a.grid, first, second)


def _clamp_precision(num: float, den: float) -> tuple[float, str | None]:
    """``num / den`` clamped to ``[0, PRECISION_CAP]``, plus the clamp's message.

    The message is a template for the grid time, or None when no clamp
    applied.
    """
    if den <= 0.0:
        return PRECISION_CAP, "zero-variance increment at t={:g}: precision capped"
    value = num / den
    if not np.isfinite(value):
        return PRECISION_CAP, "non-finite precision at t={:g}: capped"
    if value < 0.0:
        return 0.0, "negative precision at t={:g}: clamped to 0"
    if value > PRECISION_CAP:
        return PRECISION_CAP, "precision above cap at t={:g}: capped"
    return value, None


def recover_precision(curve: MomentCurve) -> BetaStacyProcess:
    """Fit a beta-Stacy process to a moment curve.

    The base measure is the first moment.  The precision at each grid
    increment comes from inverting the second-moment product: with
    ``u_i = E[(1-F(t_i))^2]`` and ``r_i = 1 - first_i`` (and ``u_0 = r_0 = 1``
    at implicit time zero),

        alpha_i = (u_{i-1} r_i - u_i r_{i-1}) / (u_i r_{i-1}^2 - u_{i-1} r_i^2).

    Increments with no mean jump leave the precision unidentified: points
    with zero accumulated mass get precision 0 (no information recorded),
    later flat points carry the previous value forward.  Terminal points
    keep the undefined marker.  A zero denominator (zero-variance increment)
    is capped at ``PRECISION_CAP`` and negative or non-finite results are
    clamped, each with a warning.
    """
    n = len(curve)
    g = curve.first
    u = curve.survival_second
    r = 1.0 - g
    alpha = np.full(n, np.nan)
    prev_u = 1.0
    prev_r = 1.0
    prev_alpha = 0.0
    for i in range(n):
        if g[i] >= 1.0:
            break
        if r[i] == prev_r:
            alpha[i] = 0.0 if g[i] == 0.0 else prev_alpha
            prev_u = u[i]
            continue
        num = prev_u * r[i] - u[i] * prev_r
        den = u[i] * prev_r * prev_r - prev_u * r[i] * r[i]
        value, note = _clamp_precision(num, den)
        if note is not None:
            warnings.warn(note.format(curve.grid[i]), PrecisionRecoveryWarning, stacklevel=2)
        alpha[i] = value
        prev_alpha = value
        prev_u = u[i]
        prev_r = r[i]
    return BetaStacyProcess(DiscreteCdf(curve.grid, g), alpha)


def merge_priors(a: BetaStacyProcess, b: BetaStacyProcess) -> BetaStacyProcess:
    """Blend two priors for the same node into one.

    On the union grid the two pointwise laws are mixed with weights
    proportional to the two precision functions (a terminal point counts as
    maximal precision; two zero precisions mix equally), the mixture's first
    and second moments are taken, and a process is fitted back to them.  If
    the varying weights make the mixed mean locally decreasing it is
    monotonized, with a warning when the adjustment is more than cosmetic.
    This rule is intentionally confined here so it can be swapped out.
    """
    union = np.union1d(a.grid, b.grid)
    if union.size == 0:
        raise ValueError("cannot merge two empty priors")
    ca = _extend_curve(moments_of(a), union)
    cb = _extend_curve(moments_of(b), union)
    wa = np.where(ca.terminal, PRECISION_CAP, _extend_precision(a, union))
    wb = np.where(cb.terminal, PRECISION_CAP, _extend_precision(b, union))
    total = wa + wb
    flat = total == 0.0
    wa = np.where(flat, 0.5, wa)
    wb = np.where(flat, 0.5, wb)
    total = np.where(flat, 1.0, total)
    first = (wa * ca.first + wb * cb.first) / total
    second = (wa * ca.second + wb * cb.second) / total
    mono = np.maximum.accumulate(first)
    if np.any(mono > first + 1e-12):
        warnings.warn(
            "precision-weighted mixture was not monotone; mean monotonized",
            PrecisionRecoveryWarning,
            stacklevel=2,
        )
    first = np.minimum(mono, 1.0)
    second = np.clip(second, first * first, first)
    return recover_precision(MomentCurve(union, first, second))
