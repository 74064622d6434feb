"""Check that the working tree fits and exports exactly what a parent revision does.

Each side runs a fixed matrix of 312 cases in its own child interpreter:
demo seeds 0-9 at 30 observations per node and 0-2 at 300, each with and
without Dirichlet-process priors (precision 5 on 40 times of the exact
``system`` and ``electric`` CDFs), fitted by ``fit_system`` and by
``fit_system_only``.  Six variants of the demo diagram, fitted on the
same seeds, reach the branches of the fold that the demo leaves out: an
unlabelled group passing its fused curve up, a labelled group with a prior
and no data, a component with a prior, a component with a prior and no
data, an unlabelled root with no data of its own, and a component with
neither data nor a prior.  A variant binds only data and priors whose
labels it has.  Per case the child keeps every ``curve_export`` column
and flag of every node posterior (the system posterior is one of them),
or the ``BindingError`` text, the components the fit reports as
uninformed, and the ordered ``PrecisionRecoveryWarning`` messages.  Per
simulated set it keeps the lines ``save_lifetimes`` writes, so a change in
the drawn data shows up before the fits it feeds.  It also
calls ``censoring_rate`` directly, on every demo node at censored shares
0.15 and 0.3 and on a grid of Weibull shapes, scales (1e-250 to 1e250) and
shares, and keeps each rate's hex or the ``ValueError`` text, followed by
the warnings raised; so a calibration change shows up as such, not only
through the datasets it draws.  It keeps the ``curve_export`` bands of five
hand-built processes at levels 0.5, 0.9, 0.95 and 0.99, whose rows reach
every branch of the band rule (zero mass, terminal, zero variance, the
Bernoulli bound and a quantile widened to the mean), which the demo fits
may never reach.  It updates five hand-built priors (a DP prior, a
zero-precision one, one with a zero-mass point and a flat step, one
terminal point and two terminal points) on no data and on lifetimes before,
between, at and past their grid points and tied, and keeps each posterior's
precision and horizon and every ``curve_export`` column, and each prior's
``merge_priors`` with a DP prior, or the type and text of the error, with
the warnings raised: so a change in a process's precision off its grid
shows up per branch.  It keeps every ``run_checks`` result (name, pass
flag and detail) of the validator for seeds 0-2, so a changed comparison
in ``validation`` shows up even when the check still passes.  Last, for
demo seeds 0 and 3 it runs ``relfuse simulate`` and then ``relfuse fit
--priors --svg`` (the DP priors above, written as CSV) through
``relfuse.cli.main`` in a temporary directory, and keeps the bytes of the
five files they write.  It also feeds a fixed corpus of ``node,time,event``,
``node,time,cdf,precision`` and ``t,cdf`` texts to the three loaders and
keeps the arrays each parses or its ``DataFormatError`` text, so a change in
how rows are read or which fault is reported first shows up per text.
Those loaders and ``load_sim_config`` also read byte-level files by path
(CRLF and lone CR line ends, byte-order marks, a byte that is not UTF-8),
and the child keeps the arrays each parses or the type and text of
whatever it raises, so a change in how files are decoded shows up too.
Two arrays match when their dtype, shape, values and float sign bits agree,
NaN matching NaN.

Two more variants, fitted on the same seeds, put the nine demo components
in one ``system@series`` group, with and without the ``system`` prior, so
that one combine folds nine children where the demo's widest group has
four.  Two last ones withhold the ``system`` data, and the data of every
group, so that the system answers from the data below it.

It also feeds a fixed corpus of diagram texts, in both the text and the
JSON form, to ``load_system_source`` and keeps the ``format_rbd`` text and
the labels of each diagram it reads, or the type and message of its error.
The corpus reaches every fault message of both grammars, comments at the
end of input, CRLF line endings, tabs, no-break spaces, names that start
with a numeral, label chains, the depth limit and one level past it, JSON
after blank lines, byte-order marks, an integer id past Python's
4,300-digit limit and a series of 1,000 labelled parallel pairs.

The parent revision is exported with ``git archive`` into a temporary
directory, as ``bench_pairs.py`` does.

Usage:
    python3 scripts/identity_check.py --parent HEAD~1

Prints one summary line, then one line per case with mismatching arrays
that names each of them; exits 0 only when no array differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from bench_pairs import ROOT, export_revision  # noqa: E402

SEEDS = {30: range(10), 300: range(3)}
PRIOR_NODES = ("system", "electric")
PRIOR_PRECISION = 5.0
PRIOR_POINTS = 40
CALIBRATION_DEMO_FRACTIONS = (0.15, 0.3)
CALIBRATION_SHAPES = (0.5, 1.0, 2.2, 5.0)
CALIBRATION_SCALES = (1e-250, 1e-4, 1e-2, 0.5, 100.0, 1e5, 1e6, 1e250)
CALIBRATION_FRACTIONS = (0.05, 0.15, 0.6)
BAND_LEVELS = (0.5, 0.9, 0.95, 0.99)
VALIDATE_SEEDS = range(3)
CLI_SEEDS = (0, 3)
EXPORT_COLUMNS = ("t", "mean", "second_moment", "lower", "upper", "precision")
CLI_FILES = (
    "sim/system.rbd", "sim/lifetimes.csv", "sim/true_system_cdf.csv", "fit/system_cdf.csv", "fit/system_cdf.svg"
)


def _cut(*texts: str):
    """An edit of a diagram source that deletes each of ``texts``."""

    def edit(source: str) -> str:
        for text in texts:
            source = source.replace(text, "")
        return source

    return edit


def _flat_series(source: str) -> str:
    """Every component of the diagram ``source``, in order, as the children of one ``system@series`` group."""
    from relfuse.rbd import parse_rbd

    return f"system@series({', '.join(c.id for c in parse_rbd(source).root.iter_components())})\n"


# Demo diagram variants: the edit of its source, the labels whose data is
# withheld, and the labels given a DP prior.
VARIANTS = {
    "unlabelled-groups": (_cut("propulsion@", "gas@"), (), ()),
    "group-prior-no-data": (_cut(), ("electric",), ("electric",)),
    "component-prior": (_cut(), (), ("batteries",)),
    "component-prior-no-data": (_cut(), ("batteries",), ("batteries",)),
    "unlabelled-root": (_cut("system@"), (), ()),
    "withheld-gearing": (_cut(), ("gearing",), ()),
    "flat-series": (_flat_series, (), ()),
    "flat-series-dp": (_flat_series, (), ("system",)),
    "components-only": (_cut(), ("system", "propulsion", "electric", "gas"), ()),
    "no-system-data": (_cut(), ("system",), ()),
}


def _prior_points(cfg, label) -> tuple[np.ndarray, np.ndarray]:
    """``PRIOR_POINTS`` times up to where the exact CDF of ``label`` passes 0.999, and that CDF, ending at 1."""
    sampler = cfg.samplers()[label]
    t_hi = sampler.time_scale()
    while sampler.cdf(t_hi) < 0.999:
        t_hi *= 2.0
    times = np.linspace(t_hi / PRIOR_POINTS, t_hi, PRIOR_POINTS)
    cdf = np.asarray(sampler.cdf(times), dtype=np.float64)
    cdf[-1] = 1.0
    return times, cdf


def _dp_priors(cfg, labels=PRIOR_NODES) -> dict:
    """DP priors on ``PRIOR_POINTS`` times of the exact CDFs of ``labels``."""
    from relfuse.bsp import dp_prior

    return {label: dp_prior(*_prior_points(cfg, label), PRIOR_PRECISION) for label in labels}


def variants(cfg) -> dict:
    """Per variant of ``cfg``'s diagram: its spec, the labels whose data it withholds, its priors."""
    from relfuse.rbd import parse_rbd

    out = {}
    for name, (edit, withheld, prior_labels) in VARIANTS.items():
        out[name] = (parse_rbd(edit(cfg.rbd_source)), withheld, _dp_priors(cfg, prior_labels) or None)
    return out


def variant_cases(variant_specs: dict, datasets: list, suffix: str) -> dict:
    """Case name to ``(spec, datasets, priors)``, binding only the labels each variant has."""
    out = {}
    for name, (spec, withheld, priors) in variant_specs.items():
        bound = [d for d in datasets if d.label in spec.labels and d.label not in withheld]
        out[f"{name}-{suffix}"] = (spec, bound, priors)
    return out


def calibration_probes(demo) -> dict:
    """Named ``(sampler, censor_fraction)`` pairs: the demo's nodes and the Weibull grid."""
    from relfuse.oracle import WeibullLifetime

    probes = {
        f"calibration/demo-{label}-{fraction:g}": (sampler, fraction)
        for label, sampler in demo.samplers().items()
        for fraction in CALIBRATION_DEMO_FRACTIONS
    }
    for shape, scale, fraction in itertools.product(
        CALIBRATION_SHAPES, CALIBRATION_SCALES, CALIBRATION_FRACTIONS
    ):
        probes[f"calibration/weibull-{shape:g}-{scale:g}-{fraction:g}"] = (
            WeibullLifetime(shape, scale),
            fraction,
        )
    return probes


def calibrate(probes: dict) -> dict:
    """Per probe, the rate's hex or the ``ValueError`` text, then each warning raised."""
    from relfuse.oracle import censoring_rate

    out = {}
    for name, (sampler, fraction) in probes.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = censoring_rate(sampler, fraction).hex()
            except ValueError as exc:
                result = f"ValueError: {exc}"
        lines = [result, *(f"{w.category.__name__}: {w.message}" for w in caught)]
        out[name] = np.array(lines, dtype=str)
    return out


def band_processes() -> dict:
    """Processes named for the branch of the band rule their rows reach, built from public names."""
    from relfuse.bsp import BetaStacyProcess, DiscreteCdf

    def process(values, precision):
        grid = np.arange(1.0, len(values) + 1.0)
        return BetaStacyProcess(DiscreteCdf(grid, values), np.full(len(values), precision))

    return {
        "zero-mass": process([0.0, 0.5, 1.0], 2.0),
        "terminal": process([0.25, 1.0, 1.0], 4.0),
        # Near 0 and 1 the second moment rounds to the squared mean or below.
        "zero-variance": process([1e-5, 0.5, 1.0 - 1e-5, 1.0], 1e12),
        # Zero precision makes F a Bernoulli variable at every point.
        "bernoulli": process([0.1, 0.3, 0.7, 1.0], 0.0),
        # Beta(1e-4, 1 - 1e-4): every upper quantile falls below the mean.
        "skew": process([1e-4, 1.0], 1.0),
    }


def band_probes() -> dict:
    """The ``curve_export`` lower and upper columns of each band process at each level."""
    from relfuse.pipeline import curve_export

    out = {}
    for name, process in band_processes().items():
        for level in BAND_LEVELS:
            export = curve_export(process, level)
            out[f"bands/{name}-{level:g}/lower"] = export.lower
            out[f"bands/{name}-{level:g}/upper"] = export.upper
    return out


def precision_priors() -> dict:
    """Priors named for the branch of the off-grid precision rule they reach, built from public names."""
    from relfuse.bsp import BetaStacyProcess, DiscreteCdf, dp_prior

    def process(grid, values, precision):
        return BetaStacyProcess(DiscreteCdf(np.array(grid), np.array(values)), np.array(precision))

    return {
        "dp": dp_prior([1.0, 2.0, 3.0], [0.25, 0.5, 1.0], 4.0),
        "dp-zero": dp_prior([1.0, 2.0, 3.0], [0.25, 0.5, 1.0], 0.0),
        # No mass at t=1 and a flat step at t=3, each with its own precision.
        "flat-step": process([1.0, 2.0, 3.0, 4.0], [0.0, 0.375, 0.375, 1.0], [2.0, 4.0, 1.0, np.nan]),
        "one-terminal": process([2.0], [1.0], [np.nan]),
        "two-terminal": process([1.0, 3.0], [1.0, 1.0], [np.nan, np.nan]),
    }


# Lifetimes against the priors' grids: failures and withdrawals before,
# between, at and past the grid points, and failures tied with a withdrawal.
PRECISION_DATA = {
    "none": ((), ()),
    "before": ((0.5, 0.75), (1, 0)),
    "between": ((1.5, 2.5), (1, 0)),
    "at": ((1.0, 2.0, 3.0), (1, 0, 1)),
    "past": ((5.0, 6.0), (1, 0)),
    "tied": ((1.5, 1.5, 1.5, 2.0), (1, 1, 0, 1)),
}


def _probe(name: str, fn) -> dict:
    """The arrays ``fn()`` returns, under ``name``, or the type and text of what it raises; then its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {f"{name}/{key}": np.asarray(value) for key, value in fn().items()}
        except Exception as exc:
            out = {f"{name}/error": np.array([f"{type(exc).__name__}: {exc}"], dtype=str)}
    out[f"{name}/warnings"] = np.array([f"{w.category.__name__}: {w.message}" for w in caught], dtype=str)
    return out


def _export_arrays(export) -> dict:
    """Every column and the flags of a ``curve_export``."""
    columns = {column: getattr(export, column) for column in EXPORT_COLUMNS}
    return {**columns, "flags": np.array(export.flags, dtype=str)}


def precision_probes() -> dict:
    """Per precision prior and lifetime set, the posterior and its export; per prior, its merge with a DP prior."""
    from relfuse.bsp import dp_prior, posterior_update
    from relfuse.fusion import merge_priors
    from relfuse.pipeline import curve_export

    dp = dp_prior([1.5, 2.5, 4.5], [0.125, 0.625, 1.0], 3.0)

    def merge(prior):
        curve = merge_priors(prior, dp)
        return {"grid": curve.grid, "first": curve.first, "second": curve.second}

    def update(prior, times, events):
        post = posterior_update(prior, times, events)
        return {"process_precision": post.precision, "horizon": post.horizon, **_export_arrays(curve_export(post))}

    out = {}
    for name, prior in precision_priors().items():
        out.update(_probe(f"precision/{name}-merge", lambda: merge(prior)))
        for data, (times, events) in PRECISION_DATA.items():
            out.update(_probe(f"precision/{name}-{data}", lambda: update(prior, times, events)))
    return out


def validator_reports(seeds=VALIDATE_SEEDS) -> dict:
    """Per seed, one ``(name, passed, detail)`` row per ``run_checks`` result."""
    from relfuse.validation import run_checks

    return {
        f"validate/seed{seed}": np.array([(r.name, str(r.passed), r.detail) for r in run_checks(seed)], dtype=str)
        for seed in seeds
    }


def cli_outputs(seeds=CLI_SEEDS) -> dict:
    """Per seed, the bytes of each of ``CLI_FILES`` that ``simulate`` and ``fit --priors --svg`` write."""
    from relfuse.cli import main
    from relfuse.demo import demo_config

    cfg = demo_config()
    rows = [
        f"{label},{t:.12g},{c:.12g},{PRIOR_PRECISION:g}\n"
        for label in PRIOR_NODES
        for t, c in zip(*_prior_points(cfg, label))
    ]
    out = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "priors.csv").write_text("node,time,cdf,precision\n" + "".join(rows), encoding="utf-8")
            sim = tmp / "sim"
            inputs = ["--rbd", sim / "system.rbd", "--data", sim / "lifetimes.csv"]
            inputs += ["--priors", tmp / "priors.csv"]
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                main(["simulate", "--seed", str(seed), "--out", str(sim)])
                main(["fit", *map(str, inputs), "--out", str(tmp / "fit"), "--svg"])
            for name in CLI_FILES:
                if (tmp / name).exists():
                    out[f"cli/seed{seed}/{name}"] = np.frombuffer((tmp / name).read_bytes(), dtype=np.uint8)
    return out


# csv's own errors: a lone carriage return in an unquoted field of a stream,
# and a field over its 131,072-character limit.
_BIG = "x" * 131_073
_LIFE, _PRIOR, _TABLE = "node,time,event\n", "node,time,cdf,precision\n", "t,cdf\n"
# Per loader: valid files, blank lines, a quoted label, a leading byte-order
# mark, each single fault the loader names, and pairs of faults in either
# order, among them a bad row before and after each of csv's own errors.
LOADER_CORPUS = {
    "lifetimes": {
        "valid": _LIFE + "motor,120.5,1\nmotor,340,0\nbattery,88.25,1\nmotor,91,1\n",
        "header-only": _LIFE,
        "blank-lines": "\n" + _LIFE + "\nmotor,1,1\n\n\nmotor,2,0\n",
        "quoted-label": _LIFE + '"pump, main",1.5,1\n" pump ",2,0\n',
        "crlf": "node,time,event\r\nmotor,1,1\r\nmotor,2,0\r\n",
        "byte-order-mark": "\ufeff" + _LIFE + "motor,1,1\n",
        "spaced-header": " node , time ,event\nmotor, 1 , 1 \n",
        "empty-file": "",
        "blank-file": "\n\n",
        "bad-header": "node,time\nmotor,1\n",
        "columns-short": _LIFE + "motor,1\n",
        "columns-long": _LIFE + "motor,1,1,1\n",
        "time-not-a-number": _LIFE + "motor,abc,1\n",
        "time-zero": _LIFE + "motor,0,1\n",
        "time-negative": _LIFE + "motor,-1,1\n",
        "time-infinite": _LIFE + "motor,inf,1\n",
        "time-nan": _LIFE + "motor,nan,1\n",
        "event": _LIFE + "motor,1,2\n",
        "event-fraction": _LIFE + "motor,1,0.5\n",
        "empty-label": _LIFE + " ,1,1\n",
        "blank-lines-then-bad-row": _LIFE + "\n\nmotor,1,1\nmotor,x,1\n",
        "lone-cr": _LIFE + "mo\rtor,1,1\n",
        "oversized-field": _LIFE + f"{_BIG},1,1\n",
        "two-bad-rows": _LIFE + "motor,1,2\nmotor,x,1\n",
        "two-bad-rows-swapped": _LIFE + "motor,x,1\nmotor,1,2\n",
        "bad-row-then-lone-cr": _LIFE + "motor,x,1\nmo\rtor,1,1\n",
        "lone-cr-then-bad-row": _LIFE + "mo\rtor,1,1\nmotor,x,1\n",
        "bad-row-then-oversized-field": _LIFE + f"motor,x,1\n{_BIG},1,1\n",
        "oversized-field-then-bad-row": _LIFE + f"{_BIG},1,1\nmotor,x,1\n",
        "columns-then-lone-cr": _LIFE + "motor,1\nmo\rtor,1,1\n",
        "bad-header-then-lone-cr": "node,time\nmo\rtor,1,1\n",
    },
    "priors": {
        "valid": _PRIOR + "system,100,0.2,5\nsystem,200,0.7,5\nsystem,400,1.0,5\npump,50,0.5,2\npump,80,1.0,4\n",
        "header-only": _PRIOR,
        "blank-lines": _PRIOR + "\npump,50,0.5,2\n\n\npump,80,1.0,4\n",
        "quoted-label": _PRIOR + '"pump, main",50,0.5,2\n"pump, main",80,1,4\n',
        "byte-order-mark": "\ufeff" + _PRIOR + "x,1,0.5,1\nx,2,1,1\n",
        "empty-file": "",
        "bad-header": "node,time,cdf\nx,1,0.5\n",
        "columns": _PRIOR + "x,1,0.5\n",
        "empty-label": _PRIOR + ",1,1,1\n",
        "time-not-a-number": _PRIOR + "x,t,1,1\n",
        "cdf-not-a-number": _PRIOR + "x,1,oops,1\n",
        "precision-not-a-number": _PRIOR + "x,1,1,p\n",
        "precision-negative": _PRIOR + "x,1,0.5,-1\nx,2,1,1\n",
        "precision-nan": _PRIOR + "x,1,0.5,nan\nx,2,1,1\n",
        "precision-infinite": _PRIOR + "x,1,0.5,inf\nx,2,1,1\n",
        "times-not-increasing": _PRIOR + "x,2,0.5,1\nx,2,1,1\n",
        "time-zero": _PRIOR + "x,0,0.5,1\nx,1,1,1\n",
        "cdf-decreasing": _PRIOR + "x,1,0.5,1\nx,2,0.4,1\nx,3,1,1\n",
        "cdf-nan": _PRIOR + "x,1,nan,1\nx,2,1,1\n",
        "cdf-not-ending-at-one": _PRIOR + "x,1,0.5,1\nx,2,0.9,1\n",
        "node-fault-then-bad-row": _PRIOR + "x,1,0.5,1\nx,2,0.9,1\ny,1,0.5,-1\n",
        "lone-cr": _PRIOR + "x\r,1,1,1\n",
        "oversized-field": _PRIOR + f"{_BIG},1,1,1\n",
        "bad-row-then-lone-cr": _PRIOR + "x,1,0.5,-1\nx\r,2,1,1\n",
        "lone-cr-then-bad-row": _PRIOR + "x\r,2,1,1\nx,1,0.5,-1\n",
        "bad-row-then-oversized-field": _PRIOR + f"x,1,0.5,-1\n{_BIG},2,1,1\n",
        "oversized-field-then-bad-row": _PRIOR + f"{_BIG},2,1,1\nx,1,0.5,-1\n",
        "node-fault-then-lone-cr": _PRIOR + "x,1,0.5,1\nx,2,0.9,1\nx\r,3,1,1\n",
    },
    "table": {
        "valid": _TABLE + "0,0\n0.5,0.25\n1,1\n",
        "blank-lines": _TABLE + "\n0,0\n\n1,1\n\n",
        "quoted": _TABLE + '"0.5","0.25"\n',
        "byte-order-mark": "\ufeff" + _TABLE + "0,0\n1,1\n",
        "header-only": _TABLE,
        "empty-file": "",
        "bad-header": "t,F\n0,0\n",
        "columns": _TABLE + "1\n",
        "time-not-a-number": _TABLE + "t,0.5\n",
        "time-negative": _TABLE + "-1,0.5\n",
        "time-infinite": _TABLE + "inf,0.5\n",
        "time-nan": _TABLE + "nan,0.5\n",
        "cdf-not-a-number": _TABLE + "1,c\n",
        "cdf-above-one": _TABLE + "1,1.5\n",
        "cdf-negative": _TABLE + "1,-0.5\n",
        "cdf-nan": _TABLE + "1,nan\n",
        "lone-cr": _TABLE + "0\r5,0.5\n",
        "oversized-field": _TABLE + f"1,{_BIG}\n",
        "bad-row-then-lone-cr": _TABLE + "-1,0.5\n0\r5,0.5\n",
        "lone-cr-then-bad-row": _TABLE + "0\r5,0.5\n-1,0.5\n",
        "bad-row-then-oversized-field": _TABLE + f"-1,0.5\n1,{_BIG}\n",
        "oversized-field-then-bad-row": _TABLE + f"1,{_BIG}\n-1,0.5\n",
    },
}


def _component(name: str, **fields) -> dict:
    """A JSON component node."""
    return {"type": "component", "id": name, **fields}


def _group(kind: str, *children, **fields) -> dict:
    """A JSON group node."""
    return {"type": kind, **fields, "children": list(children)}


def _nested(depth: int) -> str:
    """Diagram text of ``depth`` series groups, each nested in the next."""
    return "series(" * depth + "a" + "".join(f", b{k})" for k in range(depth))


def _nested_json(depth: int) -> str:
    """JSON text of the same diagram as ``_nested(depth)``."""
    node = _component("a")
    for k in range(depth):
        node = _group("series", node, _component(f"b{k}"))
    return json.dumps(node)


def _pairs(count: int) -> tuple[str, str]:
    """Text and JSON of ``system@series`` over ``count`` labelled parallel pairs: the paper's scale."""
    text = ",\n".join(f"  pair{i}@parallel(a{i}, b{i})" for i in range(count))
    pairs = [_group("parallel", _component(f"a{i}"), _component(f"b{i}"), label=f"pair{i}") for i in range(count)]
    return f"system@series(\n{text}\n)\n", json.dumps(_group("series", *pairs, label="system"))


_AB = (_component("a"), _component("b"))
# A JSON integer one digit past the 4,300 that Python converts by default.
_HUGE = "1" * 4301
_PAPER_TEXT, _PAPER_JSON = _pairs(1000)
# Diagram texts in both forms; the module docstring lists what they reach.
DIAGRAM_CORPUS = {
    "component": "pump",
    "labelled-groups": "sys@series(a, parallel(b, spare@c))",
    "names": "series(_m1.x-2, a², x-Ⅷ, Sub_3@é)",
    "comments": "# head\nseries(a, # inline note\n b) # tail\n",
    "crlf": "system@series(\r\n    a,\r\n    b\r\n)\r\n",
    "tabs-and-no-break-spaces": "series(\ta,\xa0b,\x0bc\u2028)",
    "crlf-fault": "series(a,\r\n\t$)",
    "no-break-space-fault": "series(a,\xa0\n\xa0 3)",
    "empty": "",
    "blank": " \t\n",
    "comment-only": "# nothing here",
    "trailing-comment": "series(a, # note",
    "trailing-comment-line": "series(a,\n  # note",
    "trailing-comment-after-name": "series(a, b # note",
    "digit-start": "series(a, 3b)",
    "superscript-two-start": "²a",
    "roman-eight-start": "series(a, Ⅷ)",
    "dot-start": "x@.a",
    "dash-start": "series(-a, b)",
    "dollar": "series(a, b $",
    "bad-character-after-parse-error": "xor(a)\n$",
    "open-group": "series(a",
    "missing-child": "series(a,",
    "empty-group": "series()",
    "missing-comma": "series(a b)",
    "one-child": "series(a)",
    "trailing-comma": "series(a, b,)",
    "unknown-keyword": "xor(a, b)",
    "keyword-component": "series(a, parallel)",
    "keyword-label": "series@a",
    "label-twice": "x@@a",
    "label-missing-node": "x@",
    "label-chain": "x@y@a",
    "label-chain-on-keyword": "x@series@a",
    "label-chain-long": "x@" * 1200 + "a",
    "trailing-paren": "series(a, b))",
    "trailing-name": "series(a, b) extra",
    "duplicate-id": "series(a, a)",
    "duplicate-label": "x@series(a, x@parallel(b, c))",
    "label-shadows-id": "series(a, a@b)",
    "depth-limit": _nested(100),
    "depth-past-limit": _nested(101),
    "json": json.dumps(_group("series", _component("c", label="spare"), _group("parallel", *_AB), label="sys")),
    "json-blank-lines": "\n\n  " + json.dumps(_component("a")),
    "json-blank-lines-fault": '\n\n  {"type": "component", "id": 1x}',
    "json-no-break-space": "\xa0\x0c" + json.dumps(_component("a")),
    "json-no-break-space-fault": '\xa0\n\t{"type": 1x}',
    "json-property-name": '{"type": "series",}',
    "json-colon": '{"type" 1}',
    "json-extra-data": '{"type": "component", "id": "a"} a',
    "json-unterminated": '{"type": "a',
    "json-control-character": '{"type": "\x01"}',
    "json-escape": '{"type": "\\q"}',
    "json-value": '{"type": tru}',
    "json-nested-too-deeply": '{"a": ' * 3000 + "1" + "}" * 3000,
    "json-not-an-object": json.dumps(_group("series", 1, 2)),
    "json-id-number": json.dumps(_component(5)),
    "json-label-list": json.dumps(_group("series", *_AB, label=["g"])),
    "json-id-missing": json.dumps({"type": "component"}),
    "json-id-digit-start": json.dumps(_component("1a")),
    "json-id-superscript-two-start": json.dumps(_component("²a")),
    "json-id-roman-eight-start": json.dumps(_component("Ⅷ")),
    "json-id-keyword": json.dumps(_component("series")),
    "json-id-empty": json.dumps(_component("")),
    "json-label-space": json.dumps(_component("a", label="sub system")),
    "json-label-comment": json.dumps(_component("a", label="#x")),
    "json-no-children": json.dumps({"type": "series"}),
    "json-one-child": json.dumps(_group("parallel", _component("a"))),
    "json-unknown-type": json.dumps(_group("loop", *_AB)),
    "json-duplicate-id": json.dumps(_group("series", _component("a"), _component("a"))),
    "json-duplicate-label": json.dumps(_group("series", *_AB, label="a")),
    "json-depth-limit": _nested_json(100),
    "json-depth-past-limit": _nested_json(101),
    "byte-order-mark": "\ufeffseries(a, b)",
    "byte-order-mark-fault": "\ufeffseries(a",
    "byte-order-mark-json": "\ufeff" + json.dumps(_group("series", *_AB)),
    "byte-order-mark-twice": "\ufeff\ufeffa",
    "byte-order-mark-after-blank": " \ufeffa",
    "paper-scale": _PAPER_TEXT,
    "paper-scale-json": _PAPER_JSON,
    "json-id-past-digit-limit": f'{{"type": "component", "id": {_HUGE}}}',
}


def diagram_outputs(corpus=DIAGRAM_CORPUS) -> dict:
    """Per corpus text, the ``format_rbd`` text and labels ``load_system_source`` reads, or its error."""
    from relfuse.errors import RbdError
    from relfuse.rbd import format_rbd, load_system_source

    out = {}
    for case, text in corpus.items():
        try:
            spec = load_system_source(text)
        except (RbdError, ValueError) as exc:  # the parent may raise ValueError
            out[f"diagrams/{case}/error"] = np.array([f"{type(exc).__name__}: {exc}"], dtype=str)
            continue
        out[f"diagrams/{case}/text"] = np.array([format_rbd(spec.root)], dtype=str)
        out[f"diagrams/{case}/labels"] = np.array(list(spec.labels), dtype=str)
    return out


def _load(fmt: str, source) -> dict:
    """Per label, the columns that the ``fmt`` loader reads from ``source``."""
    from relfuse.dataio import load_cdf_table, load_lifetimes, load_prior_spec
    from relfuse.demo import load_sim_config

    if fmt == "lifetimes":
        return {d.label: {"times": d.times, "events": d.events} for d in load_lifetimes(source)}
    if fmt == "priors":
        return {
            label: {"grid": p.grid, "cdf": p.base.values, "precision": p.precision, "horizon": p.horizon}
            for label, p in load_prior_spec(source).items()
        }
    if fmt == "table":
        return {"table": dict(zip(("t", "cdf"), load_cdf_table(source)))}
    cfg = load_sim_config(source)
    laws = cfg.components.values()
    return {"config": {
        "rbd": np.array([cfg.rbd_source], dtype=str), "components": np.array(list(cfg.components), dtype=str),
        "shape": np.array([w.shape for w in laws]), "scale": np.array([w.scale for w in laws]),
        "n_per_node": np.array([cfg.n_per_node]), "censor_fraction": np.array([cfg.censor_fraction]),
    }}


def _parsed_arrays(name: str, parsed: dict) -> dict:
    out = {f"{name}/labels": np.array(list(parsed), dtype=str)}
    for i, columns in enumerate(parsed.values()):
        out.update({f"{name}/{i}/{column}": np.asarray(v) for column, v in columns.items()})
    return out


def loader_outputs(corpus=LOADER_CORPUS) -> dict:
    """Per corpus text, the arrays its loader parses from a stream, or its ``DataFormatError`` text."""
    from relfuse.errors import DataFormatError

    out = {}
    for fmt, cases in corpus.items():
        for case, text in cases.items():
            name = f"loaders/{fmt}-{case}"
            try:
                out.update(_parsed_arrays(name, _load(fmt, io.StringIO(text))))
            except DataFormatError as exc:
                out[f"{name}/error"] = np.array([str(exc)], dtype=str)
    return out


def _byte_files(text: str) -> dict:
    """The byte-level files made from ``text``, a valid input of at least three LF-ended lines."""
    lines = text.splitlines(keepends=True)
    # NUL marks where the bad byte goes: line 3, column 3.
    marked = "".join(lines[:2]) + lines[2][:2] + "\0" + "".join([lines[2][2:], *lines[3:]])

    def encode(text: str, end: bytes = b"\n") -> bytes:
        return text.encode("utf-8").replace(b"\n", end).replace(b"\0", b"\xff")

    return {
        "bad-byte-line-3": encode(marked),
        "crlf": encode(text, b"\r\n"),
        "crlf-bad-byte-line-3": encode(marked, b"\r\n"),
        "lone-cr": encode(text, b"\r"),
        "lone-cr-bad-byte-line-3": encode(marked, b"\r"),
        "byte-order-mark-crlf": b"\xef\xbb\xbf" + encode(text, b"\r\n"),
        "byte-order-mark-bad-byte": b"\xef\xbb\xbf\x80" + encode(text),
    }


_CONFIG = {
    "rbd": "sys@series(a, sub@parallel(b, c))",
    "components": {"a": {"shape": 2.5, "scale": 90.0}, "b": {"shape": 1.5, "scale": 40.0},
                   "c": {"shape": 0.8, "scale": 120.0}},
    "n_per_node": 12,
    "censor_fraction": 0.2,
}
# Per loader, files read by path: a bad byte on line 3 after LF, CRLF or lone
# CR line ends, valid CRLF and lone CR rows, a byte-order mark before CRLF
# rows and a mark before a bad byte; and a configuration whose ``n_per_node``
# is an integer past Python's 4,300-digit limit.
FILE_CORPUS = {
    **{fmt: _byte_files(LOADER_CORPUS[fmt]["valid"]) for fmt in ("lifetimes", "priors", "table")},
    "config": {
        **_byte_files(json.dumps(_CONFIG, indent=1) + "\n"),
        "n-past-digit-limit": json.dumps(_CONFIG).replace(": 12,", f": {_HUGE},").encode("utf-8"),
    },
}


def file_outputs(corpus=FILE_CORPUS) -> dict:
    """Per corpus file, the arrays its loader parses from the path, or the type and text of any exception.

    Messages name the file without its temporary directory, so that both sides agree.
    """
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, cases in corpus.items():
            for case, data in cases.items():
                name = f"files/{fmt}-{case}"
                path = Path(tmp) / f"{fmt}-{case}"
                path.write_bytes(data)
                try:
                    out.update(_parsed_arrays(name, _load(fmt, path)))
                except Exception as exc:  # the parent may raise UnicodeDecodeError
                    text = f"{type(exc).__name__}: {exc}".replace(f"{tmp}{os.sep}", "")
                    out[f"{name}/error"] = np.array([text], dtype=str)
    return out


def record(src: str, out: str) -> None:
    """Run the case matrix with the ``relfuse`` under ``src`` and save its arrays to ``out``."""
    # Imported here, not at the top, so each child binds the relfuse of its own side.
    import relfuse
    from relfuse.dataio import save_lifetimes
    from relfuse.demo import DemoConfig, demo_config
    from relfuse.errors import BindingError, PrecisionRecoveryWarning
    from relfuse.pipeline import curve_export, fit_system, fit_system_only

    if not Path(relfuse.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {relfuse.__file__}, not the relfuse under {src}")
    demo = demo_config()
    arrays = {}
    for n, seeds in SEEDS.items():
        cfg = DemoConfig(demo.rbd_source, demo.components, n_per_node=n)
        dp = _dp_priors(cfg)
        variant_specs = variants(cfg)
        for seed in seeds:
            datasets = cfg.simulate(seed)
            text = io.StringIO()
            save_lifetimes(datasets, text)
            arrays[f"datasets/n{n}-seed{seed}"] = np.array(text.getvalue().splitlines(keepends=True), dtype=str)
            cases = {f"n{n}-seed{seed}-{'dp' if p else 'nodp'}": (cfg.spec, datasets, p) for p in (None, dp)}
            cases.update(variant_cases(variant_specs, datasets, f"n{n}-seed{seed}"))
            for prefix, (spec, bound, priors) in cases.items():
                for fit in (fit_system, fit_system_only):
                    case = f"{prefix}-{fit.__name__}"
                    exports = {}
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            result = fit(spec, bound, priors)
                            exports = {k: curve_export(p) for k, p in result.node_posteriors.items()}
                            # Revisions before the uninformed-component rule have no such field.
                            uninformed = getattr(result, "uninformed", None)
                            if uninformed:
                                arrays[f"{case}/uninformed"] = np.array(list(uninformed.items()), dtype=str)
                        except BindingError as exc:
                            arrays[f"{case}/error"] = np.array([str(exc)], dtype=str)
                    for label, curve in exports.items():
                        arrays.update({f"{case}/{label}/{k}": v for k, v in _export_arrays(curve).items()})
                    arrays[f"{case}/warnings"] = np.array(
                        [str(w.message) for w in caught if issubclass(w.category, PrecisionRecoveryWarning)],
                        dtype=str,
                    )
    arrays.update(calibrate(calibration_probes(demo)))
    arrays.update(band_probes())
    arrays.update(precision_probes())
    arrays.update(validator_reports())
    arrays.update(cli_outputs())
    arrays.update(loader_outputs())
    arrays.update(file_outputs())
    arrays.update(diagram_outputs())
    np.savez(out, **arrays)


def mismatches(parent: dict, change: dict) -> list[str]:
    """Sorted names of the arrays that differ between two sides.

    An array differs when one side lacks it or the two differ in dtype,
    shape, value or, for floats, sign bit; NaN equals NaN.
    """
    out = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None or a.dtype != b.dtype or a.shape != b.shape:
            out.append(name)
            continue
        floating = a.dtype.kind == "f"
        if not np.array_equal(a, b, equal_nan=floating) or (
            floating and not np.array_equal(np.signbit(a), np.signbit(b))
        ):
            out.append(name)
    return out


def by_case(names: list[str]) -> list[str]:
    """One line per case prefix of ``names``, in first-seen order: the prefix, its count and the rest of each name."""
    groups: dict[str, list[str]] = {}
    for name in names:
        case, _, rest = name.partition("/")
        groups.setdefault(case, []).append(rest)
    return [f"  {case}: {len(rest)} ({', '.join(rest)})" for case, rest in groups.items()]


def summary(commit: str, change: dict, bad: list[str]) -> str:
    """The one line that counts what the working tree's arrays cover and how many differ."""
    families = {"bands", "calibration", "cli", "datasets", "diagrams", "files", "loaders", "precision", "validate"}
    cases = {name.split("/")[0] for name in change} - families
    n_calibrations = sum(name.startswith("calibration/") for name in change)
    n_bands = len({name.rsplit("/", 1)[0] for name in change if name.startswith("bands/")})
    n_datasets = sum(name.startswith("datasets/") for name in change)
    n_precision = len({name.split("/")[1] for name in change if name.startswith("precision/")})
    n_reports = sum(name.startswith("validate/") for name in change)
    n_cli = sum(name.startswith("cli/") for name in change)
    n_loaders = len({name.split("/")[1] for name in change if name.startswith("loaders/")})
    n_files = len({name.split("/")[1] for name in change if name.startswith("files/")})
    n_diagrams = len({name.split("/")[1] for name in change if name.startswith("diagrams/")})
    n_warnings = sum(change[name].size for name in change if name.endswith("/warnings"))
    return (
        f"identity {commit[:12]} -> working tree: {len(cases)} cases, {n_datasets} datasets, "
        f"{n_calibrations} calibrations, {n_bands} band probes, {n_precision} precision probes, "
        f"{n_reports} validator reports, {n_cli} CLI files, {n_loaders} loader texts, {n_files} byte files, "
        f"{n_diagrams} diagram texts, "
        f"{len(change)} arrays, {n_warnings} warnings, {len(bad)} mismatches"
        + (f" ({', '.join(bad[:5])})" if bad else "")
    )


def run_side(tree: Path, out: Path) -> dict:
    """The arrays ``record`` saves for the source tree ``tree``, run in a child interpreter."""
    src = tree / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import identity_check; "
        f"identity_check.record({str(src)!r}, {str(out)!r})"
    )
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    with np.load(out, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="identity_check_"))
    try:
        commit = export_revision(args.parent, tmp / "parent")
        parent = run_side(tmp / "parent", tmp / "parent.npz")
        change = run_side(ROOT, tmp / "change.npz")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    bad = mismatches(parent, change)
    print(summary(commit, change, bad))
    for line in by_case(bad):
        print(line)
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
