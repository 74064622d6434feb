"""Hierarchical fitting: from datasets and a diagram to a system posterior.

The fit walks the diagram bottom-up.  Each component becomes a posterior
from its own prior (elicited, or zero-precision when none is given) and its
own data.  Each group fuses its children's moment curves, converts the
fused curve back to a process, blends in the node's elicited prior if any,
and conditions on the node's own data if any.  Conditioning on no data is
the identity, so a node with no data answers with its prior: component and
subsystem data alone give a system answer, and an untested component with
an elicited prior keeps that prior, however vague.
The root always ends as a process, so credible bands are available on the
full union grid.

A component with neither data nor a prior carries no information, and
neither does a group with nothing of its own above such a child: moments
cannot stand for a vacuous curve.  The nearest ancestor that has data or a
prior drops its fused prior and fits on those alone, leaving the data and
priors below it unused; a root left without information raises
``BindingError``.

The system-only variant ignores the tree and fits the root's data alone,
with identical output formatting, so band widths are directly comparable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .bsp import BetaStacyProcess, _beta_bands, posterior_update
from .dataio import CurveExport, Dataset
from .errors import BindingError
from .fusion import (
    MomentCurve,
    combine_parallel,
    combine_series,
    merge_priors,
    moments_of,
    recover_precision,
)
from .rbd import RbdNode, SystemSpec, validate_bindings

__all__ = ["FitResult", "fit_system", "fit_system_only", "curve_export"]


@dataclass(frozen=True)
class FitResult:
    """System posterior plus the per-node posteriors computed on the way."""

    posterior: BetaStacyProcess
    node_posteriors: dict[str, BetaStacyProcess] = field(default_factory=dict)
    # Each component with neither data nor a prior, mapped to the label of
    # the ancestor that dropped its fused prior because of it.
    uninformed: dict[str, str] = field(default_factory=dict)
    # Each such ancestor, mapped to the labels below it, in diagram order,
    # whose data or prior it therefore does not use.
    dropped: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _bind(spec: SystemSpec, datasets: Iterable[Dataset], priors: Mapping | None) -> tuple[dict, dict]:
    """Datasets and priors by label; a duplicate dataset or a label naming no node raises."""
    data = {}
    for ds in datasets:
        if ds.label in data:
            raise BindingError(f"duplicate dataset for node '{ds.label}'")
        data[ds.label] = ds
    priors = dict(priors) if priors else {}
    errors = validate_bindings(spec, data, priors)
    if errors:
        raise BindingError("; ".join(errors))
    return data, priors


def _update(prior: BetaStacyProcess | None, ds: Dataset | None) -> BetaStacyProcess:
    """``prior``, the zero-precision one when None, conditioned on ``ds`` if any."""
    prior = BetaStacyProcess.noninformative() if prior is None else prior
    times, events = (ds.times, ds.events) if ds is not None else ((), ())
    return posterior_update(prior, times, events)


def fit_system(
    spec: SystemSpec,
    datasets: Iterable[Dataset],
    priors: Mapping[str, BetaStacyProcess] | None = None,
) -> FitResult:
    """Fit the full hierarchy described by ``spec``.

    ``datasets`` is an iterable of per-label datasets; ``priors``
    maps labels to elicited prior processes.  A dataset or prior whose
    label names no node raises ``BindingError``, as does a root that no
    data or prior informs.  Components with neither are listed in the
    result's ``uninformed``, and the labels whose data or prior their
    ancestors therefore drop in its ``dropped``.
    """
    data, elicited = _bind(spec, datasets, priors)
    informed = data.keys() | elicited.keys()
    posteriors: dict[str, BetaStacyProcess] = {}
    uninformed: dict[str, str] = {}
    dropped: dict[str, tuple[str, ...]] = {}

    def fit(node: RbdNode) -> MomentCurve | BetaStacyProcess | list[str]:
        """The node's moment curve, its posterior at the root, or the uninformed components below it."""
        results = [fit(child) for child in node.children]
        missing = [name for r in results if isinstance(r, list) for name in r]
        label = node.binding_label
        ds, prior = data.get(label), elicited.get(label)
        root = node is spec.root
        if ds is None and prior is None and (missing or not results):
            missing = missing or [label]
            if root:
                names = ", ".join(f"'{name}'" for name in missing)
                raise BindingError(f"no data or prior informs the root; components with neither: {names}")
            return missing
        if missing:
            uninformed.update(dict.fromkeys(missing, label))
            below = (n.binding_label for child in node.children for n in child.iter_nodes())
            dropped[label] = tuple(name for name in below if name in informed)
        combine = combine_series if node.kind == "series" else combine_parallel
        fused = combine(*results) if results and not missing else None
        # A group below the root with nothing of its own skips recovery.
        if fused is not None and ds is None and prior is None and not root:
            return fused
        if fused is not None:
            recovered = recover_precision(fused)
            prior = recovered if prior is None else recover_precision(merge_priors(recovered, prior))
        post = _update(prior, ds)
        posteriors[label if label is not None else "<root>"] = post
        return post if root else moments_of(post)

    return FitResult(fit(spec.root), posteriors, uninformed, dropped)


def fit_system_only(
    spec: SystemSpec,
    datasets: Iterable[Dataset],
    priors: Mapping[str, BetaStacyProcess] | None = None,
) -> FitResult:
    """Fit from the root's own data alone; labels are checked against the whole tree."""
    data, elicited = _bind(spec, datasets, priors)
    label = spec.root.binding_label
    if label is None:
        raise BindingError("system-only fit needs a binding label on the root node")
    if label not in data:
        raise BindingError(f"system-only fit needs data bound to the root label '{label}'")
    post = _update(elicited.get(label), data[label])
    return FitResult(post, {label: post})


def curve_export(process: BetaStacyProcess, level: float = 0.95) -> CurveExport:
    """Columns for export: estimate, second moment, band, precision, flags.

    Rows cover the process's grid, which ends before its horizon, and each
    row's band follows ``credible_interval``'s rule.  Terminal rows (base
    measure 1) are flagged and report the precision carried from the last
    non-terminal point, matching the left-limit convention for a precision
    that is undefined exactly at the terminal time.
    """
    moments = moments_of(process)
    lower, upper = _beta_bands(moments.first, moments.second, level)
    precision = process.precision_at(moments.grid)
    return CurveExport(moments.grid, moments.first, moments.second, lower, upper, precision)
