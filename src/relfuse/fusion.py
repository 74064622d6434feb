"""Fusing lifetime uncertainty through a block diagram via moment algebra.

A fitted node is summarized by its pointwise first and second moments
(``MomentCurve``).  The k independent children of a group combine in closed
form, one product over all of them on their union grid:

* parallel (fails when the last child fails):
  ``first = f_1 ... f_k`` and ``second = s_1 ... s_k``;
* series (fails when the first child fails), in terms of the survival
  moments ``E[R] = 1 - first`` and ``E[R^2] = second + 1 - 2 first``:
  ``E[R] = E[R_1] ... E[R_k]`` and ``E[R^2] = E[R_1^2] ... E[R_k^2]``.

The combined curve is generally not the moment curve of any beta-Stacy
process, but one can be fitted to it: ``recover_precision`` inverts the
second-moment product one grid increment at a time, giving a process whose
mean is the fused first moment and whose second moment reproduces the fused
one wherever the increments are consistent.  ``merge_priors`` mixes two
priors for one node into a moment curve too; ``recover_precision`` is the
one way back to a process, the prior for the node's own lifetime data.
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
    _freeze,
    _union,
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
    """Moment curve of a process on its own grid, which ends before its horizon."""
    second = np.array([second_moment(process, float(t)) for t in process.grid])
    return MomentCurve(process.grid, process.base.values, second)


def align_grids(*curves: MomentCurve) -> tuple[MomentCurve, ...]:
    """Carry one or more curves onto their union grid: right-continuous, 0 before a curve's first point."""
    union = _union(*(c.grid for c in curves))
    return tuple(MomentCurve(union, *(_carry(c.grid, m, union, 0.0) for m in (c.first, c.second))) for c in curves)


def combine_parallel(*curves: MomentCurve) -> MomentCurve:
    """Moments of the lifetime of one or more independent blocks in parallel.

    The group fails once all k children have failed, so the CDF is the
    product ``F_1 ... F_k`` and independence gives ``first = f_1 ... f_k``,
    ``second = s_1 ... s_k``.  The children are first aligned on their union grid.
    """
    head, *rest = align_grids(*curves)
    first, second = head.first, head.second
    for c in rest:
        first, second = first * c.first, second * c.second
    return MomentCurve(head.grid, first, second)


def combine_series(*curves: MomentCurve) -> MomentCurve:
    """Moments of the lifetime of one or more independent blocks in series.

    The group fails with its first child failure, so survival multiplies:
    with ``r_i = E[1-F_i]`` and ``u_i = E[(1-F_i)^2]`` per child,
    ``first = 1 - r_1 ... r_k`` and ``second = u_1 ... u_k + 1 - 2 r_1 ... r_k``.
    Expanding the second moment through the means alone is wrong (a fully
    degenerate pair would come out with second moment 2 instead of 0).  After
    alignment each step rebuilds the running ``u`` from ``(first, second)``,
    so the result is bit for bit the left fold of pairs.
    """
    head, *rest = align_grids(*curves)
    first, second = head.first, head.second
    for c in rest:
        surv_prod = (1.0 - first) * (1.0 - c.first)
        second = (second + 1.0 - 2.0 * first) * c.survival_second + 1.0 - 2.0 * surv_prod
        first = 1.0 - surv_prod
    return MomentCurve(head.grid, first, second)


# Each clamp kind, in the order they are tried: the clamped precision and its
# one warning per recovery, a template for the kind's number of grid points and
# their first and last time.  No valid curve reaches the non-finite kind
# (|num| <= 2 and a positive den is far above 2 / max float); it stays as a guard.
_CLAMPS = (
    (PRECISION_CAP, "zero-variance increment at {} grid points, t={:g} to {:g}: precision capped"),
    (PRECISION_CAP, "non-finite precision at {} grid points, t={:g} to {:g}: capped"),
    (0.0, "negative precision at {} grid points, t={:g} to {:g}: clamped to 0"),
    (PRECISION_CAP, "precision above cap at {} grid points, t={:g} to {:g}: capped"),
)


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
    clamped, with one warning per kind that counts its points.
    """
    g = curve.first
    u = curve.survival_second
    r = 1.0 - g
    # A flat step leaves r unchanged, so the previous point stands in for the last jump.
    prev_u = np.concatenate(([1.0], u))[:-1]
    prev_r = np.concatenate(([1.0], r))[:-1]
    num = prev_u * r - u * prev_r
    den = u * prev_r * prev_r - prev_u * r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        value = num / den
    kinds = [den <= 0.0, ~np.isfinite(value), value < 0.0, value > PRECISION_CAP]
    value = np.select(kinds, [cap for cap, _ in _CLAMPS], value)
    kind = np.select(kinds, range(len(_CLAMPS)), -1)
    jump = (r != prev_r) & ~curve.terminal
    for k, (_, message) in enumerate(_CLAMPS):
        times = curve.grid[jump & (kind == k)]
        if times.size:
            warnings.warn(message.format(times.size, times[0], times[-1]), PrecisionRecoveryWarning, stacklevel=2)
    # A flat point takes the last jump's precision, 0 before the first jump.
    alpha = _carry(curve.grid[jump], value[jump], curve.grid, 0.0)
    return BetaStacyProcess(DiscreteCdf(curve.grid, g), alpha)


def merge_priors(a: BetaStacyProcess, b: BetaStacyProcess) -> MomentCurve:
    """Blend two priors for the same node into one moment curve.

    On the union grid the two pointwise laws are mixed with weights
    proportional to the two precision functions (a terminal point counts as
    maximal precision; two zero precisions mix equally), and the mixture's
    first and second moments are returned for ``recover_precision`` to fit.
    If the varying weights make the mixed mean locally decreasing it is
    monotonized, with one warning naming how many grid points were raised
    when the adjustment is more than cosmetic.
    This rule is intentionally confined here so it can be swapped out.
    """
    ca, cb = align_grids(moments_of(a), moments_of(b))
    union = ca.grid
    if union.size == 0:
        raise ValueError("cannot merge two empty priors")
    wa = np.where(ca.terminal, PRECISION_CAP, a.precision_at(union))
    wb = np.where(cb.terminal, PRECISION_CAP, b.precision_at(union))
    total = wa + wb
    flat = total == 0.0
    wa = np.where(flat, 0.5, wa)
    wb = np.where(flat, 0.5, wb)
    total = np.where(flat, 1.0, total)
    first = (wa * ca.first + wb * cb.first) / total
    second = (wa * ca.second + wb * cb.second) / total
    mono = np.maximum.accumulate(first)
    if raised := np.count_nonzero(mono > first + 1e-12):
        warnings.warn(
            f"precision-weighted mixture was not monotone; mean monotonized at {raised} grid points",
            PrecisionRecoveryWarning,
            stacklevel=2,
        )
    first = np.minimum(mono, 1.0)
    second = np.clip(second, first * first, first)
    return MomentCurve(union, first, second)
