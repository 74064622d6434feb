"""Fuzzing of the input loaders: any input ends in the loader's own error type.

A diagram loader may raise only ``RbdError`` and the file loaders only
``DataFormatError``; anything else would reach the CLI as a traceback.
The file loaders are also given bytes, read from a file by path.
"""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfuse.dataio import load_cdf_table, load_lifetimes, load_prior_spec
from relfuse.demo import load_sim_config
from relfuse.errors import DataFormatError, RbdError
from relfuse.rbd import format_rbd, load_system_source, parse_rbd

from conftest import HUGE_ID_DIAGRAM, HUGE_N_CONFIG, csv_texts, diagram_nodes, file_bytes, json_values

FUZZ = settings(max_examples=200, deadline=None)


@given(diagram_nodes | json_values)
@FUZZ
def test_load_system_source_raises_only_rbd_errors(value):
    try:
        load_system_source(json.dumps(value))
    except RbdError:
        pass


def test_json_integer_past_the_digit_limit_is_an_rbd_error():
    with pytest.raises(RbdError, match=r"^invalid JSON: Exceeds the limit \(4300 digits\)"):
        load_system_source(HUGE_ID_DIAGRAM)


def test_json_integer_past_the_digit_limit_is_a_format_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_N_CONFIG)
    with pytest.raises(DataFormatError, match=r"huge\.json: invalid JSON: Exceeds the limit \(4300 digits\)"):
        load_sim_config(path)


@given(diagram_nodes)
@FUZZ
def test_accepted_json_diagrams_round_trip_through_text(value):
    # Both grammars accept the same names, so any accepted JSON diagram has a text form.
    try:
        spec = load_system_source(json.dumps(value))
    except RbdError:
        return
    assert parse_rbd(format_rbd(spec.root)).root == spec.root


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


_CONFIG = json.dumps({"rbd": "sys@series(a, b)", "components": {c: {"shape": 2, "scale": 9} for c in "ab"}})
# Per file loader, the texts that bytes are spliced into.
FILE_LOADERS = {
    "load_lifetimes": (load_lifetimes, csv_texts("node,time,event")),
    "load_prior_spec": (load_prior_spec, csv_texts("node,time,cdf,precision")),
    "load_cdf_table": (load_cdf_table, csv_texts("t,cdf")),
    "load_sim_config": (load_sim_config, json_values.map(json.dumps) | st.just(_CONFIG)),
}


@pytest.mark.parametrize("name", FILE_LOADERS)
@given(data=st.data())
@FUZZ
def test_file_loaders_raise_only_format_errors_on_any_bytes(name, data):
    loader, texts = FILE_LOADERS[name]
    raw = data.draw(file_bytes(texts))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(raw)
        try:
            loader(path)
        except DataFormatError as exc:
            message = str(exc)
        else:
            message = None
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        assert message is not None and message.startswith(f"{path} line "), message
        assert "not UTF-8 text (byte 0x" in message
