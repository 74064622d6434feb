"""CSV input and curve export.

Input formats, both with a required header row:

* lifetimes: ``node,time,event`` with one row per observation, times
  positive, event 1 for a failure and 0 for a right-censored withdrawal.
* priors: ``node,time,cdf,precision`` with one row per prior grid point;
  per node the times must be strictly increasing, the cdf column must be
  nondecreasing and end at exactly 1, and precisions must be finite and
  nonnegative.
* true CDF: ``t,cdf`` with one row per point, as ``relfuse simulate`` writes
  it; times finite and nonnegative, cdf values in [0, 1], at least one row.

Every input file is read by ``read_text``: UTF-8, one leading byte-order
mark dropped, and a byte that is not UTF-8 reported by file, line and column.

Exports carry rows of ``t,mean,second_moment,lower,upper,precision,flags``
with 12 significant digits.  The SVG export draws right-continuous step
functions: the mean solid, the credible band dotted, and optionally a true
CDF overlay in gray.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bsp import BetaStacyProcess, _check_lifetimes, _check_steps, _freeze, _proper_prior
from .errors import DataFormatError

__all__ = [
    "Dataset",
    "CurveExport",
    "load_lifetimes",
    "save_lifetimes",
    "load_prior_spec",
    "load_cdf_table",
    "save_cdf_table",
    "export_curves",
    "read_text",
]

@dataclass(frozen=True, eq=False)
class Dataset:
    """All lifetime observations for one node label, in file order.

    ``times`` and ``events`` (bool, ``True`` for a failure) are read-only copies
    of the columns passed in, checked as ``posterior_update`` checks them.  A
    dataset is never empty.
    """

    label: str
    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        if not self.label:
            raise ValueError("dataset label must be nonempty")
        times, events = _check_lifetimes(self.times, self.events)
        if not times.size:
            raise ValueError("dataset must contain at least one sample")
        object.__setattr__(self, "times", _freeze(times))
        object.__setattr__(self, "events", _freeze(events))

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        columns = zip((self.times, self.events), (other.times, other.events))
        return self.label == other.label and all(np.array_equal(a, b) for a, b in columns)


@dataclass(frozen=True)
class CurveExport:
    """Point-estimate and band columns for one fitted curve, all finite but ``precision``."""

    t: np.ndarray
    mean: np.ndarray
    second_moment: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        t, mean = _check_steps(self.t, self.mean, "mean column")
        cols = {"t": t, "mean": mean}
        for name in ("second_moment", "lower", "upper", "precision"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != t.shape:
                raise ValueError(f"{name} column must be 1-d and as long as t")
            if name != "precision" and not np.isfinite(arr).all():
                raise ValueError(f"{name} column must be finite")
            cols[name] = arr
        slack = 1e-9
        if np.any(cols["lower"] > mean + slack) or np.any(cols["upper"] < mean - slack):
            raise ValueError("band must contain the mean at every row")
        for name, arr in cols.items():
            object.__setattr__(self, name, _freeze(arr))

    @property
    def flags(self) -> tuple[str, ...]:
        """Per row ``"terminal"`` where the mean reaches 1, else ``""``."""
        return tuple("terminal" if m >= 1.0 else "" for m in self.mean.tolist())

    def __len__(self) -> int:
        return self.t.size


def _source_name(source) -> str:
    return getattr(source, "name", "<stream>") if hasattr(source, "read") else str(Path(source))


def _where(source, line: int) -> str:
    """The file and line that error messages name; built only to raise."""
    return f"{_source_name(source)} row {line}"


def read_text(source) -> str:
    """The text of an input file, after one leading byte-order mark.

    A path is read as UTF-8 in text mode, so a CRLF or a lone CR ends a line
    as LF does; a text stream is read as it is.  A byte that is not UTF-8
    raises ``DataFormatError`` naming the file and the byte's line and
    column, counted in characters from 1 after the mark.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            # The whole file is decoded at once, so the offsets count from its first byte.
            head = exc.object[: exc.start].decode("utf-8").removeprefix("\ufeff")
            lines = head.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            where = f"{_source_name(source)} line {len(lines)}, column {len(lines[-1]) + 1}"
            raise DataFormatError(f"{where}: not UTF-8 text (byte {exc.object[exc.start]:#04x})") from None
    return text.removeprefix("\ufeff")


def _records(source, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` for each data row of a CSV with ``header``.

    Each row is checked as ``csv`` reads it, so the first fault in file
    order is the one raised.  Blank rows are dropped; ``line`` is the line
    the row ends on.
    """
    name = _source_name(source)
    reader = csv.reader(io.StringIO(read_text(source)))
    rows = filter(None, reader)
    try:
        if (first := next(rows, None)) is None:
            raise DataFormatError(f"{name}: empty file")
        if [c.strip() for c in first] != header:
            raise DataFormatError(f"{name}: header must be {','.join(header)}")
        for row in rows:
            if len(row) != len(header):
                where = _where(source, reader.line_num)
                raise DataFormatError(f"{where}: expected {len(header)} columns, found {len(row)}")
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataFormatError(f"{name}: {exc}") from None


def _node_label(row: list[str], source, line: int) -> str:
    node = row[0].strip()
    if not node:
        raise DataFormatError(f"{_where(source, line)}: empty node label")
    return node


def _parse_float(raw: str, what: str, source, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataFormatError(f"{_where(source, line)}: {what} {raw!r} is not a number") from None


def load_lifetimes(source) -> list[Dataset]:
    """Read a ``node,time,event`` CSV into datasets grouped by node.

    Groups appear in order of first appearance; rows within a group keep
    file order.  Raises ``DataFormatError`` with the offending row number.
    """
    grouped: dict[str, tuple[list[float], list[bool]]] = {}
    for line, row in _records(source, ["node", "time", "event"]):
        node = _node_label(row, source, line)
        time = _parse_float(row[1], "time", source, line)
        event_raw = row[2].strip()
        if event_raw not in ("0", "1"):
            raise DataFormatError(f"{_where(source, line)}: event must be 0 or 1, found {event_raw!r}")
        if not 0.0 < time < math.inf:
            raise DataFormatError(f"{_where(source, line)}: sample time must be a finite positive number")
        times, events = grouped.setdefault(node, ([], []))
        times.append(time)
        events.append(event_raw == "1")
    return [Dataset(label, times, events) for label, (times, events) in grouped.items()]


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
            codes = ds.events.astype(np.uint8).tolist()
            writer.writerows([ds.label, format(t, ".12g"), e] for t, e in zip(ds.times.tolist(), codes))


def load_prior_spec(source) -> dict[str, BetaStacyProcess]:
    """Read a ``node,time,cdf,precision`` CSV into per-node prior processes.

    Per-point precisions are kept as given, except where the cdf reaches 1:
    there the precision is undefined and stored as NaN.
    """
    grouped: dict[str, list[tuple[float, float, float, int]]] = {}
    for line, row in _records(source, ["node", "time", "cdf", "precision"]):
        node = _node_label(row, source, line)
        time = _parse_float(row[1], "time", source, line)
        cdf = _parse_float(row[2], "cdf", source, line)
        prec = _parse_float(row[3], "precision", source, line)
        if not np.isfinite(prec) or prec < 0.0:
            raise DataFormatError(
                f"{_where(source, line)} (node '{node}'): precision {row[3]!r} must be finite and nonnegative"
            )
        grouped.setdefault(node, []).append((time, cdf, prec, line))
    priors: dict[str, BetaStacyProcess] = {}
    for node, entries in grouped.items():
        times, cdfs, precs, lines = zip(*entries)
        try:
            priors[node] = _proper_prior(times, cdfs, precs)
        except ValueError as exc:
            raise DataFormatError(f"{_where(source, lines[0])} (node '{node}'): {exc}") from None
    return priors


def load_cdf_table(source) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``t,cdf`` CSV into its time and cdf columns, in file order."""
    rows = []
    for line, (t_raw, cdf_raw) in _records(source, ["t", "cdf"]):
        t = _parse_float(t_raw, "time", source, line)
        cdf = _parse_float(cdf_raw, "cdf", source, line)
        if not 0.0 <= t < math.inf:
            raise DataFormatError(f"{_where(source, line)}: time {t_raw!r} must be finite and nonnegative")
        if not 0.0 <= cdf <= 1.0:
            raise DataFormatError(f"{_where(source, line)}: cdf {cdf_raw!r} must lie in [0, 1]")
        rows.append((t, cdf))
    if not rows:
        raise DataFormatError(f"{_source_name(source)}: no t,cdf rows")
    return tuple(np.array(rows).T)


def save_cdf_table(times, cdf, destination) -> None:
    """Write a ``t,cdf`` CSV with 12 significant digits."""
    rows = zip(np.asarray(times, dtype=float).tolist(), np.asarray(cdf, dtype=float).tolist())
    with _text_out(destination) as fh:
        fh.write("t,cdf\n")
        fh.writelines(f"{t:.12g},{v:.12g}\n" for t, v in rows)


def _write_csv(curve: CurveExport, fh) -> None:
    columns = (curve.t, curve.mean, curve.second_moment, curve.lower, curve.upper, curve.precision)
    rows = zip(*(c.tolist() for c in columns), curve.flags)
    fh.write("t,mean,second_moment,lower,upper,precision,flags\r\n")
    fh.writelines("{:.12g},{:.12g},{:.12g},{:.12g},{:.12g},{:.12g},{}\r\n".format(*row) for row in rows)


def _step_path(xs: list[str], ys: list[str]) -> str:
    """Path data of a step function from (``xs[0]``, ``ys[0]``) to ``xs[-1]``, turning where y changes."""
    d, last = [f"M{xs[0]} {ys[0]}"], ys[0]
    for x, y in zip(xs[1:-1], ys[1:]):
        if y != last:
            d.append(f"H{x}V{y}")
            last = y
    return "".join(d) + f"H{xs[-1]}"


def _path(d: str, stroke: str, sw: float = 2.0, dash: str | None = None) -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<path fill="none" stroke="{stroke}" stroke-width="{sw}"{dash_attr} d="{d}" />'


def _write_svg(curve: CurveExport, fh, overlay=None) -> None:
    width, height = 800, 500
    ml, mr, mt, mb = 70.0, 24.0, 24.0, 56.0
    # The 5% margin stops at the largest float, so that t_max stays finite.
    t_max = min(float(curve.t[-1]) * 1.05, sys.float_info.max) if len(curve) else 1.0
    if overlay is not None:
        t_max = max(t_max, float(np.max(overlay[0])))
    sy = height - mt - mb
    plot_w = width - ml - mr

    # Drawn coordinates at two decimals; t / t_max first, since plot_w / t_max
    # overflows when t_max is subnormal.
    def x_of(t):
        return [f"{x:.2f}" for x in (ml + plot_w * (np.asarray(t, dtype=float) / t_max)).tolist()]

    def y_of(cdf):
        return [f"{y:.2f}" for y in (height - (mb + sy * np.asarray(cdf, dtype=float))).tolist()]

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
        points = zip(x_of(overlay[0]), y_of(overlay[1]))
        parts.append(_path("M" + "L".join(f"{x} {y}" for x, y in points), "#999999"))
    if len(curve):
        xs = x_of(np.concatenate(([0.0], curve.t, [t_max])))
        band = ("#444444", 1.5, "5 4")
        for column, style in ((curve.lower, band), (curve.upper, band), (curve.mean, ("black",))):
            parts.append(_path(_step_path(xs, y_of(np.concatenate(([0.0], column)))), *style))
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
