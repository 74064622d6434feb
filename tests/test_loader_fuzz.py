"""Fuzzing of the three input loaders: any input ends in the loader's own error type.

A diagram loader may raise only ``RbdError`` and the CSV loaders only
``DataFormatError``; anything else would reach the CLI as a traceback.
"""

import io
import json

from hypothesis import given, settings

from relfuse.dataio import load_lifetimes, load_prior_spec
from relfuse.errors import DataFormatError, RbdError
from relfuse.rbd import format_rbd, load_system_source, parse_rbd

from conftest import csv_texts, diagram_nodes, json_values

FUZZ = settings(max_examples=200, deadline=None)


@given(diagram_nodes | json_values)
@FUZZ
def test_load_system_source_raises_only_rbd_errors(value):
    try:
        load_system_source(json.dumps(value))
    except RbdError:
        pass


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
