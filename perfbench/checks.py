"""Output checks for the benchmark's operations.

* ``check_export``: the invariants ``relfuse.dataio.CurveExport`` promises,
  re-checked here so a change to the class cannot weaken them, plus at least
  one estimable row.
* ``compare_reference``: exported columns against those recorded by
  ``record_reference.py``: the same ``t`` grid and flags, ``mean``,
  ``second_moment``, ``lower`` and ``upper`` within 1e-9 absolute and
  ``precision`` within 1e-9 relative.  ``compare_stats`` does the same for
  the study's guardrail statistics.
* ``shared_band_widths`` and ``covers_truth``: the arithmetic of acceptance
  criteria 9 and 10 (``tests/test_acceptance.py``), step for step, so the
  guardrail statistics mean what those criteria mean.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

COLUMNS = ("t", "mean", "second_moment", "lower", "upper", "precision")
CSV_HEADER = "t,mean,second_moment,lower,upper,precision,flags"
FLAGS = ("", "terminal", "beyond_data")
BAND_SLACK = 1e-9
ABS_TOL = 1e-9
REL_TOL = 1e-9

# Message prefixes of relfuse's PrecisionRecoveryWarning, by clamp kind.
CLAMP_KINDS = {
    "zero_variance": "zero-variance increment",
    "negative": "negative precision",
    "non_finite": "non-finite precision",
    "over_cap": "precision above cap",
}
_STDERR_WARNING = re.compile(r"PrecisionRecoveryWarning: (.*)$")


class CheckError(Exception):
    """An operation's output failed a check."""


def columns_of(curve) -> dict:
    """The export columns of a ``CurveExport`` as plain arrays."""
    cols = {name: np.asarray(getattr(curve, name), dtype=np.float64) for name in COLUMNS}
    cols["flags"] = tuple(curve.flags)
    return cols


def read_export_csv(path: Path) -> dict:
    """Columns of a ``system_cdf.csv`` written by ``relfuse fit``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckError(f"{path}: header is not {CSV_HEADER}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(COLUMNS) + 1 for row in rows):
        raise CheckError(f"{path}: a row does not have {len(COLUMNS) + 1} fields")
    values = np.array([[float(x) for x in row[:-1]] for row in rows], dtype=np.float64)
    values = values.reshape(len(rows), len(COLUMNS))
    cols = {name: values[:, k].copy() for k, name in enumerate(COLUMNS)}
    cols["flags"] = tuple(row[-1] for row in rows)
    return cols


def check_export(cols: dict) -> None:
    n = cols["t"].size
    if n == 0:
        raise CheckError("export has no estimable row")
    if any(cols[name].ndim != 1 or cols[name].size != n for name in COLUMNS):
        raise CheckError("export columns differ in length")
    if len(cols["flags"]) != n or any(f not in FLAGS for f in cols["flags"]):
        raise CheckError("export flags are missing or unknown")
    if np.any(np.diff(cols["t"]) <= 0.0):
        raise CheckError("export times are not strictly increasing")
    if np.any(np.diff(cols["mean"]) < 0.0):
        raise CheckError("export mean is decreasing somewhere")
    mean = cols["mean"]
    if np.any(cols["lower"] > mean + BAND_SLACK) or np.any(cols["upper"] < mean - BAND_SLACK):
        raise CheckError("export band does not contain the mean at every row")


def compare_reference(cols: dict, ref: dict) -> None:
    if cols["t"].shape != ref["t"].shape or not np.array_equal(cols["t"], ref["t"]):
        raise CheckError("t grid differs from the reference")
    if tuple(cols["flags"]) != tuple(ref["flags"]):
        raise CheckError("flags differ from the reference")
    for name in ("mean", "second_moment", "lower", "upper"):
        err = float(np.max(np.abs(cols[name] - ref[name])))
        if not err <= ABS_TOL:
            raise CheckError(f"{name} differs from the reference by {err:.3g}")
    got, want = cols["precision"], ref["precision"]
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        raise CheckError("precision is undefined at other rows than in the reference")
    defined = ~np.isnan(want)
    rel = np.abs(got[defined] - want[defined]) / np.maximum(np.abs(want[defined]), np.finfo(float).tiny)
    if rel.size and not float(rel.max()) <= REL_TOL:
        raise CheckError(f"precision differs from the reference by {float(rel.max()):.3g} relative")


def save_reference(path: Path, outputs: list[list[dict]], stats: dict[str, float]) -> None:
    """Store the columns of ``outputs[op][k]`` and the statistics for ``load_reference``."""
    arrays = {f"stats.{name}": np.float64(value) for name, value in stats.items()}
    for i, op_outputs in enumerate(outputs):
        for k, cols in enumerate(op_outputs):
            for name in COLUMNS:
                arrays[f"{i}.{k}.{name}"] = cols[name]
            arrays[f"{i}.{k}.flags"] = np.array([FLAGS.index(f) for f in cols["flags"]], dtype=np.int8)
    np.savez_compressed(path, **arrays)


def load_reference(path: Path) -> tuple[dict[int, list[dict]], dict[str, float]]:
    """Reference columns by operation index, and reference statistics by name."""
    out: dict[int, dict[int, dict]] = {}
    stats: dict[str, float] = {}
    with np.load(path) as data:
        for key in data.files:
            value = data[key]
            if key.startswith("stats."):
                stats[key[len("stats."):]] = float(value)
                continue
            i, k, name = key.split(".")
            cols = out.setdefault(int(i), {}).setdefault(int(k), {})
            cols[name] = tuple(FLAGS[j] for j in value) if name == "flags" else value
    return {i: [per_k[k] for k in sorted(per_k)] for i, per_k in out.items()}, stats


def compare_stats(stats: dict[str, float], ref: dict[str, float]) -> None:
    """Statistics against the reference, within 1e-9 relative."""
    for name, want in ref.items():
        got = stats.get(name)
        if got is None or not abs(got - want) <= REL_TOL * max(abs(want), 1.0):
            raise CheckError(f"{name} is {got}, the reference has {want}")


def shared_band_widths(hier: dict, sysonly: dict) -> tuple[float, float]:
    """Mean band widths of both fits at their shared grid times (criterion 9)."""
    shared = np.intersect1d(hier["t"], sysonly["t"])
    hi = np.searchsorted(hier["t"], shared)
    si = np.searchsorted(sysonly["t"], shared)
    hier_width = float(np.mean(hier["upper"][hi] - hier["lower"][hi]))
    sys_width = float(np.mean(sysonly["upper"][si] - sysonly["lower"][si]))
    return hier_width, sys_width


def covers_truth(curve: dict, true_cdf) -> bool:
    """Whether the band covers the true CDF at the median grid time (criterion 10)."""
    i = curve["t"].size // 2
    truth = float(true_cdf(float(curve["t"][i])))
    return bool(curve["lower"][i] <= truth <= curve["upper"][i])


def count_clamps(messages) -> dict[str, int]:
    """Number of warning messages of each clamp kind."""
    messages = list(messages)
    return {
        kind: sum(m.startswith(prefix) for m in messages) for kind, prefix in CLAMP_KINDS.items()
    }


def stderr_warning_messages(stderr: str) -> list[str]:
    """Messages of the PrecisionRecoveryWarning lines a CLI process printed."""
    found = (_STDERR_WARNING.search(line) for line in stderr.splitlines())
    return [m.group(1) for m in found if m]
