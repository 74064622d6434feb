"""Fuzzing of the three input loaders: any input ends in the loader's own error type.

A diagram loader may raise only ``RbdError`` and the CSV loaders only
``DataFormatError``; anything else would reach the CLI as a traceback.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from relfuse.dataio import load_lifetimes, load_prior_spec
from relfuse.errors import DataFormatError, RbdError
from relfuse.rbd import load_system_source

FUZZ = settings(max_examples=200, deadline=None)

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


@given(diagram_nodes | json_values)
@FUZZ
def test_load_system_source_raises_only_rbd_errors(value):
    try:
        load_system_source(json.dumps(value))
    except RbdError:
        pass


@given(csv_texts("node,time,event"))
@FUZZ
def test_load_lifetimes_raises_only_format_errors(text):
    try:
        load_lifetimes(io.StringIO(text))
    except DataFormatError:
        pass


@given(csv_texts("node,time,cdf,precision"))
@FUZZ
def test_load_prior_spec_raises_only_format_errors(text):
    try:
        load_prior_spec(io.StringIO(text))
    except DataFormatError:
        pass
