import json

import pytest
from hypothesis import given, settings

from relfuse.errors import RbdError, RbdSyntaxError
from relfuse.rbd import (
    MAX_DEPTH,
    component,
    format_rbd,
    load_system_source,
    parallel,
    parse_rbd,
    rbd_from_json,
    series,
    validate_bindings,
)

from conftest import nested_series_dsl, nested_series_json, rbd_trees

NESTED = """
# hybrid-electric propulsion demo
system@series(
    propeller,
    drive_shaft,
    gearing,
    propulsion@parallel(
        electric@series(motor, batteries, motor_controller, serpentine_belt),
        gas@series(engine, gas_delivery)
    )
)
"""


class TestParse:
    def test_minimal_series(self):
        spec = parse_rbd("series(a, b)")
        root = spec.root
        assert root.kind == "series"
        assert [c.id for c in root.children] == ["a", "b"]

    def test_single_component(self):
        spec = parse_rbd("pump")
        assert spec.root.kind == "component"
        assert spec.root.id == "pump"
        assert spec.root.binding_label == "pump"

    def test_labels_and_nesting(self):
        spec = parse_rbd(NESTED)
        labels = set(spec.labels)
        assert labels == {
            "system",
            "propeller",
            "drive_shaft",
            "gearing",
            "propulsion",
            "electric",
            "motor",
            "batteries",
            "motor_controller",
            "serpentine_belt",
            "gas",
            "engine",
            "gas_delivery",
        }
        assert spec.labels["propulsion"].kind == "parallel"
        assert spec.root.label == "system"

    def test_comments_are_skipped(self):
        spec = parse_rbd("series(a, # inline note\n b)")
        assert len(spec.root.children) == 2

    def test_trailing_comma_is_rejected(self):
        with pytest.raises(RbdSyntaxError):
            parse_rbd("series(a, b,)")

    def test_component_label(self):
        spec = parse_rbd("series(m@motor_a, motor_b)")
        assert spec.root.children[0].binding_label == "m"
        assert spec.root.children[0].id == "motor_a"


class TestParseErrors:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("series(a", "expected"),
            ("series(a, b))", "trailing"),
            ("series(a)", "at least 2"),
            ("xor(a, b)", "unknown"),
            ("series(a, series)", "reserved"),
            ("series(a, 3b)", "unexpected"),
            ("", "end of input"),
            ("series(a, b) extra", "trailing"),
        ],
    )
    def test_messages(self, source, fragment):
        with pytest.raises(RbdSyntaxError, match=fragment):
            parse_rbd(source)

    def test_positions_are_reported(self):
        with pytest.raises(RbdSyntaxError) as err:
            parse_rbd("series(a,\n xor(b, c))")
        assert err.value.line == 2
        assert "column" in str(err.value)

    def test_duplicate_component_ids(self):
        with pytest.raises(RbdError, match="duplicate"):
            parse_rbd("series(a, a)")

    def test_duplicate_labels(self):
        with pytest.raises(RbdError, match="duplicate"):
            parse_rbd("x@series(a, x@parallel(b, c))")

    def test_nesting_limit(self):
        assert parse_rbd(nested_series_dsl(MAX_DEPTH)).root.kind == "series"
        with pytest.raises(RbdSyntaxError, match="levels deep"):
            parse_rbd(nested_series_dsl(MAX_DEPTH + 1))

    @pytest.mark.parametrize("count", [2, 1200])
    def test_chained_labels_rejected(self, count):
        with pytest.raises(RbdSyntaxError, match="already labeled"):
            parse_rbd("x@" * count + "a")


class TestJson:
    def test_equivalent_to_dsl(self):
        data = {
            "type": "series",
            "label": "sys",
            "children": [
                {"type": "component", "id": "a"},
                {"type": "parallel", "children": [
                    {"type": "component", "id": "b"},
                    {"type": "component", "id": "c", "label": "spare"},
                ]},
            ],
        }
        assert rbd_from_json(data) == parse_rbd("sys@series(a, parallel(b, spare@c))").root

    def test_load_system_source_dispatches(self):
        spec = load_system_source('  {"type": "component", "id": "a"}')
        assert spec.root.id == "a"
        spec = load_system_source("series(a, b)")
        assert spec.root.kind == "series"

    def test_bad_json_reports_position(self):
        with pytest.raises(RbdSyntaxError, match="invalid JSON"):
            load_system_source('{"type": "series",}')

    def test_unknown_type_rejected(self):
        with pytest.raises(RbdError, match="unknown node type"):
            rbd_from_json({"type": "loop", "children": []})

    def test_missing_children_rejected(self):
        with pytest.raises(RbdError, match="children"):
            rbd_from_json({"type": "series"})

    @pytest.mark.parametrize(
        "node",
        [
            {"type": "component", "id": "a", "label": {}},
            {"type": "component", "id": ["x"]},
            {"type": "component", "id": "a", "label": 5},
            {"type": "component", "id": 5},
            {"type": "component"},
            {"type": "series", "label": ["g"], "children": [
                {"type": "component", "id": "a"},
                {"type": "component", "id": "b"},
            ]},
        ],
        ids=["label_object", "id_list", "label_number", "id_number", "id_missing", "group_label_list"],
    )
    def test_non_string_id_or_label_rejected(self, node):
        with pytest.raises(RbdError, match="must be a string"):
            rbd_from_json(node)

    @pytest.mark.parametrize(
        "node",
        [
            {"type": "series", "children": [
                {"type": "component", "id": "a, b"},
                {"type": "component", "id": "c"},
            ]},
            {"type": "component", "id": ""},
            {"type": "component", "id": "series"},
            {"type": "component", "id": "1a"},
            {"type": "component", "id": "a", "label": "parallel"},
            {"type": "component", "id": "a", "label": "sub system"},
            {"type": "series", "label": "", "children": [
                {"type": "component", "id": "a"},
                {"type": "component", "id": "b"},
            ]},
        ],
        ids=["comma", "empty_id", "keyword_id", "digit_start", "keyword_label", "space_label", "empty_label"],
    )
    def test_names_follow_the_text_identifier_rule(self, node):
        with pytest.raises(RbdError, match="not a valid name"):
            rbd_from_json(node)

    def test_identifier_characters_accepted(self):
        node = rbd_from_json({"type": "component", "id": "_m1.x-2", "label": "Sub_3"})
        assert node == parse_rbd("Sub_3@_m1.x-2").root

    def test_nesting_limit(self):
        assert rbd_from_json(json.loads(nested_series_json(MAX_DEPTH))).kind == "series"
        with pytest.raises(RbdError, match="levels deep"):
            rbd_from_json(json.loads(nested_series_json(MAX_DEPTH + 1)))


class TestFormat:
    def test_canonical_text(self):
        spec = parse_rbd("sys@series(a, parallel(b, spare@c))")
        assert format_rbd(spec.root) == "sys@series(a, parallel(b, spare@c))"

    @given(rbd_trees())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, tree):
        assert parse_rbd(format_rbd(tree)).root == tree


class TestBindings:
    def test_dangling_names_are_errors(self):
        spec = parse_rbd("sys@series(a, b)")
        assert validate_bindings(spec, ["a", "zombie", "ghost"], ["phantom"]) == [
            "dataset 'ghost' does not match any node label",
            "dataset 'zombie' does not match any node label",
            "prior 'phantom' does not match any node label",
        ]

    def test_unbound_component_is_left_to_the_fit(self):
        # A component without data or a prior is no binding error; the fit reports it.
        spec = parse_rbd("sys@series(a, b)")
        assert validate_bindings(spec, ["a"]) == []

    def test_fully_bound_is_clean(self):
        spec = parse_rbd("sys@series(a, b)")
        assert validate_bindings(spec, ["a", "b", "sys"]) == []

    def test_helper_constructors_validate(self):
        with pytest.raises(RbdError):
            series(component("a"))
        tree = parallel(component("a"), component("b"), label="pair")
        assert tree.binding_label == "pair"
