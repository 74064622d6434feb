"""CSV input and curve export.

Input formats, both with a required header row:

* lifetimes: ``node,time,event`` with one row per observation, times
  positive, event 1 for a failure and 0 for a right-censored withdrawal.
* priors: ``node,time,cdf,precision`` with one row per prior grid point;
  per node the times must be strictly increasing, the cdf column must be
  nondecreasing and end at exactly 1, and precisions must be finite and
  nonnegative.

Exports carry rows of ``t,mean,second_moment,lower,upper,precision,flags``
with 12 significant digits.  The SVG export draws right-continuous step
functions: the mean solid, the credible band dotted, and optionally a true
CDF overlay in gray.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bsp import BetaStacyProcess, DiscreteCdf, LifetimeSample, _check_steps, _freeze
from .errors import DataFormatError

__all__ = [
    "Dataset",
    "CurveExport",
    "load_lifetimes",
    "save_lifetimes",
    "load_prior_spec",
    "export_curves",
]

_FLAGS = ("", "terminal")


@dataclass(frozen=True)
class Dataset:
    """All lifetime observations for one node label, in file order."""

    label: str
    samples: tuple[LifetimeSample, ...]

    def __post_init__(self):
        if not self.label:
            raise ValueError("dataset label must be nonempty")
        samples = tuple(self.samples)
        if not samples:
            raise ValueError("dataset must contain at least one sample")
        if not all(isinstance(s, LifetimeSample) for s in samples):
            raise ValueError("dataset samples must be LifetimeSample instances")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class CurveExport:
    """Point-estimate and band columns for one fitted curve."""

    t: np.ndarray
    mean: np.ndarray
    second_moment: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    precision: np.ndarray
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        t, mean = _check_steps(self.t, self.mean, "mean column")
        cols = {"t": t, "mean": mean}
        for name in ("second_moment", "lower", "upper", "precision"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != t.shape:
                raise ValueError(f"{name} column must be 1-d and as long as t")
            cols[name] = arr
        flags = tuple(self.flags) if self.flags else ("",) * t.size
        if len(flags) != t.size:
            raise ValueError("flags column must match the grid length")
        if any(f not in _FLAGS for f in flags):
            raise ValueError(f"flags must be one of {_FLAGS}")
        slack = 1e-9
        if np.any(cols["lower"] > mean + slack) or np.any(cols["upper"] < mean - slack):
            raise ValueError("band must contain the mean at every row")
        for name, arr in cols.items():
            object.__setattr__(self, name, _freeze(arr))
        object.__setattr__(self, "flags", flags)

    def __len__(self) -> int:
        return self.t.size


def _rows_from(source) -> tuple[list[list[str]], str]:
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "<stream>")
    else:
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        name = str(path)
    try:
        return list(csv.reader(io.StringIO(text))), name
    except csv.Error as exc:
        raise DataFormatError(f"{name}: {exc}") from None


def _parse_float(raw: str, what: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataFormatError(f"{where}: {what} {raw!r} is not a number") from None


def load_lifetimes(source) -> list[Dataset]:
    """Read a ``node,time,event`` CSV into datasets grouped by node.

    Groups appear in order of first appearance; rows within a group keep
    file order.  Raises ``DataFormatError`` with the offending row number.
    """
    rows, name = _rows_from(source)
    rows = [r for r in rows if r]
    if not rows:
        raise DataFormatError(f"{name}: empty file")
    header = [c.strip() for c in rows[0]]
    if header != ["node", "time", "event"]:
        raise DataFormatError(f"{name}: header must be node,time,event")
    grouped: dict[str, list[LifetimeSample]] = {}
    for i, row in enumerate(rows[1:], start=2):
        where = f"{name} row {i}"
        if len(row) != 3:
            raise DataFormatError(f"{where}: expected 3 columns, found {len(row)}")
        node = row[0].strip()
        if not node:
            raise DataFormatError(f"{where}: empty node label")
        time = _parse_float(row[1], "time", where)
        event_raw = row[2].strip()
        if event_raw not in ("0", "1"):
            raise DataFormatError(f"{where}: event must be 0 or 1, found {event_raw!r}")
        try:
            sample = LifetimeSample(time, int(event_raw))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from None
        grouped.setdefault(node, []).append(sample)
    return [Dataset(label, tuple(samples)) for label, samples in grouped.items()]


@contextmanager
def _text_out(destination):
    """``destination`` itself when it is a stream, else that path opened for writing."""
    if hasattr(destination, "write"):
        yield destination
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            yield fh


def save_lifetimes(datasets: Iterable[Dataset], destination) -> None:
    """Write datasets back out in the ``node,time,event`` format."""
    with _text_out(destination) as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "time", "event"])
        for ds in datasets:
            for s in ds.samples:
                writer.writerow([ds.label, format(s.time, ".12g"), s.event])


def load_prior_spec(source) -> dict[str, BetaStacyProcess]:
    """Read a ``node,time,cdf,precision`` CSV into per-node prior processes.

    Per-point precisions are kept as given, except where the cdf reaches 1:
    there the precision is undefined and stored as NaN.
    """
    rows, name = _rows_from(source)
    rows = [r for r in rows if r]
    if not rows:
        raise DataFormatError(f"{name}: empty file")
    header = [c.strip() for c in rows[0]]
    if header != ["node", "time", "cdf", "precision"]:
        raise DataFormatError(f"{name}: header must be node,time,cdf,precision")
    grouped: dict[str, list[tuple[float, float, float, str]]] = {}
    for i, row in enumerate(rows[1:], start=2):
        where = f"{name} row {i}"
        if len(row) != 4:
            raise DataFormatError(f"{where}: expected 4 columns, found {len(row)}")
        node = row[0].strip()
        if not node:
            raise DataFormatError(f"{where}: empty node label")
        time = _parse_float(row[1], "time", where)
        cdf = _parse_float(row[2], "cdf", where)
        prec = _parse_float(row[3], "precision", where)
        if not np.isfinite(prec) or prec < 0.0:
            raise DataFormatError(
                f"{where} (node '{node}'): precision {row[3]!r} must be finite and nonnegative"
            )
        grouped.setdefault(node, []).append((time, cdf, prec, where))
    priors: dict[str, BetaStacyProcess] = {}
    for node, entries in grouped.items():
        times = np.array([e[0] for e in entries])
        cdfs = np.array([e[1] for e in entries])
        precs = np.array([e[2] for e in entries])
        first_row = entries[0][3]
        try:
            base = DiscreteCdf(times, cdfs)
            if base.values[-1] != 1.0:
                raise ValueError("prior base measure must end at exactly 1")
            priors[node] = BetaStacyProcess(base, precs)
        except ValueError as exc:
            raise DataFormatError(f"{first_row} (node '{node}'): {exc}") from None
    return priors


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_csv(curve: CurveExport, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["t", "mean", "second_moment", "lower", "upper", "precision", "flags"])
    for i in range(len(curve)):
        writer.writerow(
            [
                _fmt(curve.t[i]),
                _fmt(curve.mean[i]),
                _fmt(curve.second_moment[i]),
                _fmt(curve.lower[i]),
                _fmt(curve.upper[i]),
                _fmt(curve.precision[i]),
                curve.flags[i],
            ]
        )


def _step_points(xs, ys, x_left, y_left, x_right) -> list[tuple[float, float]]:
    """Vertex list of a right-continuous step path from (x_left, y_left)."""
    pts = [(x_left, y_left)]
    prev = y_left
    for x, y in zip(xs, ys):
        pts.append((x, prev))
        pts.append((x, y))
        prev = y
    pts.append((x_right, prev))
    return pts


def _polyline(points, x0, y0, sx, sy, height) -> str:
    return " ".join(f"{x0 + sx * x:.2f},{height - (y0 + sy * y):.2f}" for x, y in points)


def _write_svg(curve: CurveExport, fh, overlay=None) -> None:
    width, height = 800, 500
    ml, mr, mt, mb = 70.0, 24.0, 24.0, 56.0
    t_max = float(curve.t[-1]) * 1.05 if len(curve) else 1.0
    if overlay is not None:
        t_max = max(t_max, float(np.max(overlay[0])))
    sx = (width - ml - mr) / t_max
    sy = height - mt - mb
    y0 = mb

    def poly(points, stroke, dash=None, sw=2.0):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{sw}"{dash_attr} '
            f'points="{_polyline(points, ml, y0, sx, sy, height)}" />'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white" />',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1" />',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black" stroke-width="1" />',
    ]
    for k in range(6):
        frac = k / 5.0
        x = ml + frac * (width - ml - mr)
        y = height - mb - frac * sy
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" y2="{height - mb + 5}" '
            'stroke="black" stroke-width="1" />'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 20}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{frac * t_max:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black" stroke-width="1" />'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{frac:.1f}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">time</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(mt + height - mb) / 2:.2f})">'
        "probability of failure</text>"
    )
    if overlay is not None:
        ot, ov = np.asarray(overlay[0], dtype=float), np.asarray(overlay[1], dtype=float)
        pts = list(zip(ot, ov))
        parts.append(poly(pts, "#999999", sw=2.0))
    if len(curve):
        ts = curve.t
        parts.append(poly(_step_points(ts, curve.lower, 0.0, 0.0, t_max), "#444444", dash="5 4", sw=1.5))
        parts.append(poly(_step_points(ts, curve.upper, 0.0, 0.0, t_max), "#444444", dash="5 4", sw=1.5))
        parts.append(poly(_step_points(ts, curve.mean, 0.0, 0.0, t_max), "black"))
    legend = [("estimated CDF", "black", None), ("credible band", "#444444", "5 4")]
    if overlay is not None:
        legend.append(("true CDF", "#999999", None))
    for k, (text, color, dash) in enumerate(legend):
        y = mt + 16 + 18 * k
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{ml + 10}" y1="{y}" x2="{ml + 40}" y2="{y}" stroke="{color}" '
            f'stroke-width="2"{dash_attr} />'
        )
        parts.append(
            f'<text x="{ml + 46}" y="{y + 4}" font-size="12" font-family="sans-serif">{text}</text>'
        )
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")


def export_curves(curve: CurveExport, destination, format: str = "csv", overlay=None) -> None:
    """Write a fitted curve as CSV (12 significant digits) or SVG.

    ``overlay`` (SVG only) is an optional ``(times, values)`` pair drawn in
    gray behind the estimate, used for known true CDFs in simulations.
    """
    if format not in ("csv", "svg"):
        raise ValueError("format must be 'csv' or 'svg'")
    if format == "csv" and overlay is not None:
        raise ValueError("overlay applies only to SVG output")
    with _text_out(destination) as fh:
        if format == "csv":
            _write_csv(curve, fh)
        else:
            _write_svg(curve, fh, overlay=overlay)
