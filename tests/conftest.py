import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

import relfuse
from relfuse.bsp import BetaStacyProcess, DiscreteCdf, posterior_update
from relfuse.cli import EXIT_OK, main
from relfuse.fusion import moments_of
from relfuse.rbd import RbdNode


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports relfuse from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(relfuse.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def priors_fit_args(tmp_path) -> list[str]:
    """``relfuse fit --priors --svg`` arguments on simulated demo data with a DP prior on ``system``."""
    sim_dir, fit_dir = tmp_path / "sim", tmp_path / "fit"
    assert main(["simulate", "--seed", "0", "--out", str(sim_dir)]) == EXIT_OK
    times = np.linspace(200.0, 2000.0, 10)
    cdf = -np.expm1(-((times / 800.0) ** 2))
    cdf[-1] = 1.0
    rows = ["node,time,cdf,precision"] + [f"system,{t:g},{c:.12g},40" for t, c in zip(times, cdf)]
    (tmp_path / "priors.csv").write_text("\n".join(rows) + "\n")
    return [
        "fit",
        "--rbd", str(sim_dir / "system.rbd"),
        "--data", str(sim_dir / "lifetimes.csv"),
        "--priors", str(tmp_path / "priors.csv"),
        "--out", str(fit_dir),
        "--svg",
    ]


# A JSON integer one digit past the 4,300 that Python converts by default.
HUGE_INTEGER = "1" * 4301
HUGE_ID_DIAGRAM = f'{{"type": "component", "id": {HUGE_INTEGER}}}'
HUGE_N_CONFIG = f'{{"rbd": "sys", "components": {{"sys": {{"shape": 2, "scale": 9}}}}, "n_per_node": {HUGE_INTEGER}}}'


def rejected_inputs_args(tmp_path) -> list[list[str]]:
    """A ``relfuse simulate`` with a bad seed, a ``relfuse fit`` on a CSV with a bad time,
    a ``relfuse fit`` and a ``relfuse simulate --config`` on files that are not UTF-8, and
    the same two on JSON files holding an integer past Python's digit limit."""
    (tmp_path / "sys.rbd").write_text("sys")
    (tmp_path / "d.csv").write_text("node,time,event\nsys,1,1\nsys,x,1\n")
    (tmp_path / "bad.rbd").write_bytes(b"sys@series(a,\xff b)")
    (tmp_path / "bad.json").write_bytes(b'{"rbd": "sys\xff", "components": {}}')
    (tmp_path / "huge.rbd").write_text(HUGE_ID_DIAGRAM)
    (tmp_path / "huge.json").write_text(HUGE_N_CONFIG)

    def fit(rbd):
        return ["fit", "--rbd", str(tmp_path / rbd), "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "fit")]

    def simulate(config):
        return ["simulate", "--config", str(tmp_path / config), "--out", str(tmp_path / "sim")]

    bad_seed = ["simulate", "--seed", "-1", "--out", str(tmp_path / "sim")]
    return [bad_seed, fit("sys.rbd"), fit("bad.rbd"), simulate("bad.json"), fit("huge.rbd"), simulate("huge.json")]


# Per entry point, the module a new interpreter imports and the ``main``
# argument lists it runs, given a scratch directory.
ENTRY_POINTS = {
    "import relfuse": lambda tmp: ("relfuse", []),
    "import relfuse.cli": lambda tmp: ("relfuse.cli", []),
    "rejected inputs": lambda tmp: ("relfuse.cli", rejected_inputs_args(tmp)),
    "relfuse simulate": lambda tmp: ("relfuse.cli", [["simulate", "--seed", "0", "--out", str(tmp)]]),
    "relfuse fit --priors --svg": lambda tmp: ("relfuse.cli", [priors_fit_args(tmp)]),
}

# After recording what loaded, the interpreter imports scipy.integrate and
# scipy.special the usual way and checks that they reuse what relfuse loaded.
_ENTRY_CODE = """\
import sys, warnings, {module}
warnings.simplefilter("ignore")
codes = [relfuse.cli.main(args) for args in {argvs!r}]
loaded = sorted(sys.modules)
quadpack = sys.modules.get("scipy.integrate._quadpack")
ufuncs = sys.modules.get("scipy.special._ufuncs")
import json, scipy.integrate, scipy.special
bound = getattr(sys.modules.get("relfuse.oracle"), "integrate", None)
reuse = {{
    "quadpack": scipy.integrate._quadpack_py._quadpack is quadpack,
    "integrate": bound is sys.modules["scipy.integrate"] and bound.quad is scipy.integrate.quad,
    "ufuncs": scipy.special._ufuncs is ufuncs and scipy.special.betaincinv is getattr(ufuncs, "betaincinv", None),
}}
print(json.dumps({{"codes": codes, "loaded": loaded, "reuse": reuse}}))
"""


class EntryRun(NamedTuple):
    codes: list[int]
    loaded: frozenset[str]
    reuse: dict[str, bool]
    tmp: Path


@pytest.fixture(scope="session")
def entry_run(tmp_path_factory):
    """``entry_run(name)``: the ``EntryRun`` of ``ENTRY_POINTS[name]``, one new interpreter per name per session."""
    runs = {}

    def run(name: str) -> EntryRun:
        if name not in runs:
            tmp = tmp_path_factory.mktemp("entry")
            module, argvs = ENTRY_POINTS[name](tmp)
            out = json.loads(run_fresh(_ENTRY_CODE.format(module=module, argvs=argvs)).splitlines()[-1])
            runs[name] = EntryRun(out["codes"], frozenset(out["loaded"]), out["reuse"], tmp)
        return runs[name]

    return run


def ecdf_posterior(times=(1.0, 2.0, 3.0)):
    """Zero-precision posterior on failures at ``times``: the empirical CDF."""
    return posterior_update(BetaStacyProcess.noninformative(), times, [1] * len(times))


@st.composite
def grids(draw, min_points=1, max_points=8):
    n = draw(st.integers(min_points, max_points))
    raw = draw(
        st.lists(
            st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    grid = np.unique(np.round(np.asarray(raw), 6))
    grid = grid[grid > 0.0]
    if grid.size < min_points:
        extra = np.arange(1.0, min_points - grid.size + 1.0)
        grid = np.unique(np.concatenate([grid, grid.max() + extra if grid.size else extra]))
    return grid


@st.composite
def bsp_processes(draw, min_points=1, max_points=8, allow_terminal=True, min_precision=1e-3):
    grid = draw(grids(min_points, max_points))
    n = grid.size
    raw = draw(st.lists(st.floats(1e-4, 1.0), min_size=n, max_size=n))
    values = np.sort(np.asarray(raw))
    if allow_terminal and draw(st.booleans()):
        values[-1] = 1.0
    else:
        values = np.minimum(values, 0.999)
    precs = draw(st.lists(st.floats(min_precision, 100.0), min_size=n, max_size=n))
    return BetaStacyProcess(DiscreteCdf(grid, values), np.asarray(precs))


@st.composite
def moment_curves(draw, **kwargs):
    return moments_of(draw(bsp_processes(**kwargs)))


@st.composite
def censored_samples(draw, min_size=1, max_size=30, force_failure=True):
    """A ``(times, events)`` pair of equal-length lists."""
    n = draw(st.integers(min_size, max_size))
    times = draw(st.lists(st.floats(0.01, 40.0), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if force_failure and sum(events) == 0:
        events[0] = 1
    return [round(t, 4) for t in times], events


_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("series", "parallel")
)


@st.composite
def rbd_trees(draw, max_depth=3):
    names = iter(draw(st.permutations([f"c{i}" for i in range(64)])))

    def build(depth):
        if depth >= max_depth or draw(st.booleans()):
            node = RbdNode("component", id=next(names))
        else:
            kind = draw(st.sampled_from(["series", "parallel"]))
            count = draw(st.integers(2, 3))
            node = RbdNode(kind, children=tuple(build(depth + 1) for _ in range(count)))
        if draw(st.integers(0, 3)) == 0 and node.kind != "component":
            node = RbdNode(node.kind, label=f"g{next(names)}", children=node.children)
        return node

    return build(0)


def nested_series_dsl(depth):
    """Diagram text of ``depth`` series groups, each nested in the next."""
    return "series(" * depth + "a" + "".join(f", b{k})" for k in range(depth))


def nested_series_json(depth):
    """JSON text of the same diagram as ``nested_series_dsl(depth)``."""
    leaf = '{{"type": "component", "id": "{}"}}'
    return (
        '{"type": "series", "children": [' * depth
        + leaf.format("a")
        + "".join(f", {leaf.format(f'b{k}')}]}}" for k in range(depth))
    )


# Fuzzing strategies for the input loaders and the command line.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["series", "parallel", "component", "a", "b", ""])
    | st.text(max_size=6)
)
_KEYS = st.sampled_from(["type", "id", "label", "children"]) | st.text(max_size=4)
json_values = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=25,
)
# Diagram-shaped objects whose fields may hold any JSON value.
_NAMES = st.text(max_size=3) | json_values
diagram_nodes = st.recursive(
    st.fixed_dictionaries({"type": st.just("component")}, optional={"id": _NAMES, "label": _NAMES}),
    lambda inner: st.fixed_dictionaries(
        {"type": st.sampled_from(["series", "parallel"]), "children": st.lists(inner | json_values, max_size=4)},
        optional={"label": _NAMES, "id": _NAMES},
    ),
    max_leaves=10,
)

_CELLS = st.sampled_from(
    ["a", "b", "1", "0", "0.5", "1.0", "-5", "nan", "inf", "1e400", "", '"', " "]
) | st.text(max_size=5)
_ROWS = st.lists(st.lists(_CELLS, max_size=5).map(",".join), max_size=6)


def csv_texts(header):
    """Arbitrary text, or a header line followed by rows of likely and unlikely cells."""
    return st.text() | _ROWS.map(lambda rows: "\n".join([header, *rows]))


@st.composite
def _spliced(draw, texts):
    data = draw(texts).encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


def file_bytes(texts):
    """Arbitrary bytes, or one of ``texts`` in UTF-8 with a byte from 0x80-0xff spliced in.

    One byte of 0x80-0xff added to valid UTF-8 never leaves it valid: a lead
    byte lacks its continuation bytes, and a continuation byte has no lead.
    """
    return st.binary() | _spliced(texts)
