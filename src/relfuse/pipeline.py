"""Hierarchical fitting: from datasets and a diagram to a system posterior.

The fit walks the diagram bottom-up.  Each component becomes a posterior
from its own prior (elicited, or zero-precision when none is given) and its
own data.  Each group fuses its children's moment curves, converts the
fused curve back to a process, blends in the node's elicited prior if any,
and conditions on the node's own data if any.  The root always ends as a
process, so credible bands are available on the full union grid.

The system-only variant ignores the tree and fits the root's data alone,
with identical output formatting, so band widths are directly comparable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .bsp import BetaStacyProcess, _carry, credible_interval, posterior_update
from .dataio import CurveExport, Dataset
from .errors import BindingError
from .fusion import (
    MomentCurve,
    align_grids,
    combine_parallel,
    combine_series,
    merge_priors,
    moments_of,
    recover_precision,
)
from .rbd import RbdNode, SystemSpec

__all__ = ["FitResult", "fit_system", "fit_system_only", "curve_export"]


@dataclass(frozen=True)
class FitResult:
    """System posterior plus the per-node posteriors computed on the way."""

    posterior: BetaStacyProcess
    node_posteriors: dict[str, BetaStacyProcess] = field(default_factory=dict)


def _dataset_map(datasets: Iterable[Dataset]) -> dict[str, Dataset]:
    out = {}
    for ds in datasets:
        if ds.label in out:
            raise BindingError(f"duplicate dataset for node '{ds.label}'")
        out[ds.label] = ds
    return out


def fit_system(
    spec: SystemSpec,
    datasets: Iterable[Dataset],
    priors: Mapping[str, BetaStacyProcess] | None = None,
) -> FitResult:
    """Fit the full hierarchy described by ``spec``.

    ``datasets`` is an iterable of per-label datasets; ``priors``
    maps labels to elicited prior processes.  Unbound components default to
    zero-precision priors (their posterior is purely empirical).
    """
    data_map = _dataset_map(datasets)
    prior_map = dict(priors) if priors else {}
    posteriors: dict[str, BetaStacyProcess] = {}
    inputs = {label: (data_map.get(label), prior_map.get(label)) for label in spec.labels}

    def update(node: RbdNode, fused: MomentCurve | None) -> BetaStacyProcess:
        # ``fused`` is None exactly for a component, which has no children.
        label = node.binding_label
        ds, elicited = inputs.get(label, (None, None))
        if fused is None:
            prior = elicited if elicited is not None else BetaStacyProcess.noninformative()
        else:
            prior = recover_precision(fused)
            if elicited is not None:
                prior = merge_priors(prior, elicited)
        post = posterior_update(prior, ds.samples if ds else ())
        posteriors[label if label is not None else "<root>"] = post
        return post

    def fuse(node: RbdNode) -> MomentCurve | None:
        combine = combine_series if node.kind == "series" else combine_parallel
        fused = None
        for child in node.children:
            nxt = curve(child)
            fused = nxt if fused is None else combine(*align_grids(fused, nxt))
        return fused

    def curve(node: RbdNode) -> MomentCurve:
        fused = fuse(node)
        ds, elicited = inputs.get(node.binding_label, (None, None))
        # A group below the root with nothing of its own skips recovery.
        if fused is not None and ds is None and elicited is None:
            return fused
        return moments_of(update(node, fused))

    return FitResult(update(spec.root, fuse(spec.root)), posteriors)


def fit_system_only(
    spec: SystemSpec,
    datasets: Iterable[Dataset],
    priors: Mapping[str, BetaStacyProcess] | None = None,
) -> FitResult:
    """Fit from the root's own data alone, ignoring the rest of the tree."""
    data_map = _dataset_map(datasets)
    prior_map = dict(priors) if priors else {}
    label = spec.root.binding_label
    if label is None:
        raise BindingError("system-only fit needs a binding label on the root node")
    ds = data_map.get(label)
    if ds is None:
        raise BindingError(f"system-only fit needs data bound to the root label '{label}'")
    prior = prior_map.get(label)
    if prior is None:
        prior = BetaStacyProcess.noninformative()
    post = posterior_update(prior, ds.samples)
    return FitResult(post, {label: post})


def curve_export(process: BetaStacyProcess, level: float = 0.95) -> CurveExport:
    """Columns for export: estimate, second moment, band, precision, flags.

    Rows cover the estimable grid points.  Terminal rows (base measure 1)
    are flagged and report the precision carried from the last non-terminal
    point, matching the left-limit convention for a precision that is
    undefined exactly at the terminal time.
    """
    moments = moments_of(process)
    bands = [credible_interval(process, float(t), level) for t in moments.grid]
    lower = np.array([b[0] for b in bands]) if bands else np.empty(0)
    upper = np.array([b[1] for b in bands]) if bands else np.empty(0)
    grid = moments.grid
    precision = process.precision[process.estimable]
    defined = ~np.isnan(precision)
    precision = _carry(grid[defined], precision[defined], grid, np.nan)
    flags = tuple("" if d else "terminal" for d in defined)
    return CurveExport(grid, moments.first, moments.second, lower, upper, precision, flags)
