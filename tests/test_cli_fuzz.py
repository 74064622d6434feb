"""Fuzzing of the command line: ``main`` returns an exit code and raises nothing.

Each example writes fuzzed input files to a fresh directory and runs
``relfuse fit`` or ``relfuse simulate`` on them.  Whatever the input, the
call must end in exit code 0, 1 or 2; an exception escaping ``main`` would
reach the user as a traceback.  Fuzzed bytes in one input file, the others
being good, must end in exit code 1 or 2.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from relfuse.cli import main

from conftest import HUGE_ID_DIAGRAM, HUGE_N_CONFIG, csv_texts, diagram_nodes, file_bytes, json_values

FUZZ = settings(max_examples=200, deadline=None)

# Each input is drawn from a plausible branch, which mostly reaches a fit or
# a simulation, a hostile branch mixing in bad cells, or arbitrary text.
_GOOD_DIAGRAMS = ["sys@parallel(a, sub@series(b, c))", "sys@series(a, sub@parallel(b, c))"]
_DIAGRAMS = st.one_of(
    st.sampled_from(_GOOD_DIAGRAMS),
    st.sampled_from(["sys", "series(a, b)", "sys@series(a,", "series(a)"]),
    diagram_nodes.map(json.dumps),
    st.text(max_size=20),
)
_NODES = ["sys", "sys", "a", "b", "c", "sub"]  # root data makes most fits estimable
_TIMES = ["0.5", "1", "2.5", "7", "12"]
_BAD_TIMES = ["0", "-1", "1e400", "nan", "x", ""]


def _csv(header, good, bad):
    """Rows of plausible cells, rows with hostile cells mixed in, or any text."""
    plausible = st.tuples(*map(st.sampled_from, good))
    hostile = st.tuples(*(st.sampled_from(g + b) for g, b in zip(good, bad)))
    files = (
        st.lists(cells.map(",".join), min_size=1, max_size=12).map(lambda r: "\n".join([header, *r]))
        for cells in (plausible, hostile)
    )
    return st.one_of(*files, csv_texts(header))


_LIFETIMES = _csv(
    "node,time,event",
    [_NODES, _TIMES, ["1", "1", "0"]],
    [["x", ""], _BAD_TIMES, ["2", "x"]],
)
_PRIORS = _csv(
    "node,time,cdf,precision",
    [_NODES, _TIMES, ["0.2", "0.7", "1"], ["0", "5", "20"]],
    [["x"], _BAD_TIMES, ["0", "-0.5", "nan", "1.5"], ["-5", "inf", "nan"]],
)
_OVERLAYS = _csv("t,cdf", [_TIMES, ["0", "0.5", "1"]], [_BAD_TIMES, ["nan", "x"]])

_WEIBULL = st.sampled_from([0.5, 1.5, 3.0, 80.0, 200.0])
_BAD_WEIBULL = st.sampled_from([0, -1, 1e400, float("nan"), 1e-300, 1e300, "x", None])
_COMPONENTS = st.one_of(
    st.fixed_dictionaries({c: st.fixed_dictionaries({"shape": _WEIBULL, "scale": _WEIBULL}) for c in "abc"}),
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.fixed_dictionaries({"shape": _WEIBULL | _BAD_WEIBULL, "scale": _WEIBULL | _BAD_WEIBULL})
        | json_values,
        max_size=4,
    ),
)
_SIM_CONFIGS = (
    st.fixed_dictionaries(
        {"rbd": st.sampled_from(_GOOD_DIAGRAMS + ["a", "sys@series(a,"]), "components": _COMPONENTS},
        optional={
            "n_per_node": st.integers(1, 50) | st.sampled_from([0, -2, 1.5, 1e400, "x", None]),
            "censor_fraction": st.sampled_from([0, 0.15, 0.6])
            | st.sampled_from([1, -0.1, 1e400, float("nan"), "x"]),
        },
    )
    | json_values
)


def _run(argv, err=None):
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err or io.StringIO()),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("ignore")
        code = main(argv)
    event(f"exit code {code}")
    return code


@given(
    rbd=_DIAGRAMS,
    lifetimes=_LIFETIMES,
    priors=st.none() | _PRIORS,
    overlay=st.none() | _OVERLAYS,
    system_only=st.booleans(),
)
@FUZZ
def test_fit_returns_an_exit_code(rbd, lifetimes, priors, overlay, system_only):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "system.rbd").write_text(rbd, encoding="utf-8")
        (tmp / "lifetimes.csv").write_text(lifetimes, encoding="utf-8")
        argv = ["fit", "--rbd", str(tmp / "system.rbd"), "--data", str(tmp / "lifetimes.csv")]
        argv += ["--out", str(tmp / "out"), "--svg"]
        if priors is not None:
            (tmp / "priors.csv").write_text(priors, encoding="utf-8")
            argv += ["--priors", str(tmp / "priors.csv")]
        if overlay is not None:
            (tmp / "true_system_cdf.csv").write_text(overlay, encoding="utf-8")
        if system_only:
            argv.append("--system-only")
        assert _run(argv) in (0, 1, 2)


@given(_SIM_CONFIGS, st.integers(0, 3))
@FUZZ
def test_simulate_returns_an_exit_code(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sim.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["simulate", "--config", str(tmp / "sim.json"), "--seed", str(seed), "--out", str(tmp / "sim")]
        assert _run(argv) in (0, 1, 2)


# Per flag, the file it names and the texts that bytes are spliced into.
_BYTE_INPUTS = {
    "--rbd": ("system.rbd", _DIAGRAMS),
    "--data": ("lifetimes.csv", _LIFETIMES),
    "--priors": ("priors.csv", _PRIORS),
    "--config": ("sim.json", _SIM_CONFIGS.map(json.dumps)),
}
_GOOD_FILES = {
    "system.rbd": _GOOD_DIAGRAMS[0],
    "lifetimes.csv": "node,time,event\nsys,1,1\nsys,2.5,0\na,2,1\nb,7,1\nc,0.5,1\n",
    "priors.csv": "node,time,cdf,precision\nsys,1,0.2,5\nsys,12,1,5\n",
}


@given(flag=st.sampled_from(list(_BYTE_INPUTS)), data=st.data())
@FUZZ
def test_bytes_in_one_input_file_end_in_exit_one_or_two(flag, data):
    name, texts = _BYTE_INPUTS[flag]
    raw = data.draw(file_bytes(texts))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for good, text in _GOOD_FILES.items():
            (tmp / good).write_text(text, encoding="utf-8")
        (tmp / name).write_bytes(raw)
        if flag == "--config":
            argv = ["simulate", "--config", str(tmp / name), "--out", str(tmp / "out")]
        else:
            argv = ["fit", *(f"{f}={tmp / n}" for f, (n, _) in _BYTE_INPUTS.items() if f != "--config")]
            argv += ["--out", str(tmp / "out")]
        assert _run(argv, err) in (1, 2)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"error: {tmp / name} line ") and "not UTF-8 text" in line, line


@pytest.mark.parametrize("flag", ["--rbd", "--config"])
def test_json_integer_past_the_digit_limit_ends_in_exit_one(flag):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for good, text in _GOOD_FILES.items():
            (tmp / good).write_text(text, encoding="utf-8")
        if flag == "--config":
            (tmp / "sim.json").write_text(HUGE_N_CONFIG, encoding="utf-8")
            argv = ["simulate", "--config", str(tmp / "sim.json"), "--out", str(tmp / "out")]
        else:
            (tmp / "system.rbd").write_text(HUGE_ID_DIAGRAM, encoding="utf-8")
            argv = ["fit", "--rbd", str(tmp / "system.rbd"), "--data", str(tmp / "lifetimes.csv")]
            argv += ["--out", str(tmp / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 1
        name = _BYTE_INPUTS[flag][0]
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"error: {tmp / name}: invalid JSON: Exceeds the limit (4300 digits)"), line
