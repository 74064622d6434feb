import io
import json
import re

import pytest
from hypothesis import given, settings

from relfuse.dataio import read_text
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

    @pytest.mark.parametrize(
        "source, line, col",
        [
            ("series(a, # note", 1, 17),
            ("series(a,\n  # note", 2, 9),
            ("series(a,\r\n\t\xa0b", 2, 4),
            ("", 1, 1),
        ],
        ids=["trailing_comment", "comment_line", "crlf_tab_nbsp", "empty"],
    )
    def test_end_of_input_is_one_past_the_last_character(self, source, line, col):
        # Columns count characters, comment characters included.
        with pytest.raises(RbdSyntaxError, match="found end of input") as err:
            parse_rbd(source)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "source, char, line, col",
        [("series(a, ²b)", "²", 1, 11), ("a\n Ⅷ", "Ⅷ", 2, 2), ("x@.a", ".", 1, 3), ("series(a, b $", "$", 1, 13)],
        ids=["superscript_two", "roman_eight", "dot", "dollar"],
    )
    def test_a_name_starts_with_a_letter_or_underscore(self, source, char, line, col):
        with pytest.raises(RbdSyntaxError, match=re.escape(f"unexpected character '{char}'")) as err:
            parse_rbd(source)
        assert (err.value.line, err.value.col) == (line, col)

    def test_numerals_may_follow_the_first_character(self):
        assert parse_rbd("series(a², x-Ⅷ, _1.b)").labels.keys() == {"a²", "x-Ⅷ", "_1.b"}

    def test_a_bad_character_is_reported_before_a_parse_error(self):
        with pytest.raises(RbdSyntaxError, match=re.escape("unexpected character '$'")):
            parse_rbd("xor(a)\n$")

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

    @pytest.mark.parametrize(
        "source, line, col",
        [('\n\n  {"type": "component", "id": 1x}', 3, 32), ('\xa0\n\t{"type": 1x}', 2, 12)],
        ids=["blank_lines", "no_break_space"],
    )
    def test_json_positions_count_the_blanks_before_it(self, source, line, col):
        with pytest.raises(RbdSyntaxError, match="invalid JSON: Expecting ',' delimiter") as err:
            load_system_source(source)
        assert (err.value.line, err.value.col) == (line, col)

    def test_blanks_json_does_not_know_are_skipped(self):
        assert load_system_source('\xa0\x0c{"type": "component", "id": "a"}').root == component("a")

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


def read_diagram(text):
    """The diagram of a file holding ``text``, read as ``relfuse fit`` reads one."""
    return load_system_source(read_text(io.StringIO(text)))


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "source",
        ["series(a, b)", json.dumps({"type": "series", "children": [{"type": "component", "id": i} for i in "ab"]})],
        ids=["text", "json"],
    )
    def test_one_leading_mark_is_dropped(self, source):
        assert read_diagram("\ufeff" + source).root == series(component("a"), component("b"))
        with pytest.raises(RbdSyntaxError, match=re.escape("line 1, column 1: unexpected character '\\ufeff'")):
            read_diagram("\ufeff\ufeff" + source)

    def test_positions_count_from_the_text_after_the_mark(self):
        message = "line 1, column 9: expected ',' or ')', found end of input"
        with pytest.raises(RbdSyntaxError, match=re.escape(message)):
            read_diagram("\ufeffseries(a")


class TestPaperScale:
    """A series of 1,000 labelled parallel pairs: 2,000 components, as in the paper's large systems."""

    PAIRS = 1000

    def test_text_and_json_forms_agree(self):
        lines = ",\n".join(f"  pair{i}@parallel(a{i}, b{i})" for i in range(self.PAIRS))
        spec = load_system_source(f"system@series(\n{lines}\n)\n")
        pairs = [
            {"type": "parallel", "label": f"pair{i}", "children": [
                {"type": "component", "id": f"a{i}"},
                {"type": "component", "id": f"b{i}"},
            ]}
            for i in range(self.PAIRS)
        ]
        data = {"type": "series", "label": "system", "children": pairs}
        assert load_system_source(json.dumps(data)).root == spec.root
        assert len(list(spec.root.iter_components())) == 2 * self.PAIRS
        assert len(spec.labels) == 3 * self.PAIRS + 1
        assert parse_rbd(format_rbd(spec.root)).root == spec.root
        components = [c.id for c in spec.root.iter_components()]
        assert validate_bindings(spec, ["system", *components], [f"pair{i}" for i in range(self.PAIRS)]) == []


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
