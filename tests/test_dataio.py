import io
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from relfuse.dataio import (
    CurveExport,
    Dataset,
    export_curves,
    load_cdf_table,
    load_lifetimes,
    load_prior_spec,
    read_text,
    save_cdf_table,
    save_lifetimes,
)
from relfuse.errors import DataFormatError

LIFETIMES = """node,time,event
motor,120.5,1
motor,340,0
battery,88.25,1
motor,91,1
"""

PRIORS = """node,time,cdf,precision
system,100,0.2,5
system,200,0.7,5
system,400,1.0,5
pump,50,0.5,2
pump,80,1.0,4
"""


def small_export(**overrides):
    fields = dict(
        t=np.array([1.0, 2.0, 3.0]),
        mean=np.array([0.2, 0.5, 1.0]),
        second_moment=np.array([0.1, 0.3, 1.0]),
        lower=np.array([0.05, 0.2, 1.0]),
        upper=np.array([0.5, 0.8, 1.0]),
        precision=np.array([4.0, 4.0, 4.0]),
    )
    fields.update(overrides)
    return CurveExport(**fields)


# The plot's frame: x from 70 at t = 0 to 776 at t_max, y from 444 at 0 up to 24 at 1.
def drawn(t, value, t_max):
    return f"{70.0 + 706.0 * (t / t_max):.2f}", f"{500 - (56.0 + 420.0 * value):.2f}"


def step_corners(times, values, t_max):
    """Corners of a step curve from (0, 0): two at each row whose drawn y changes, then one at t_max."""
    corners = [drawn(0.0, 0.0, t_max)]
    for t, value in zip(times, values):
        x, y = drawn(t, value, t_max)
        if y != corners[-1][1]:
            corners += [(x, corners[-1][1]), (x, y)]
    return corners + [(drawn(t_max, 0.0, t_max)[0], corners[-1][1])]


def path_corners(d):
    """The points an SVG path of M, L, H and V commands visits, as drawn."""
    corners = []
    for command, args in re.findall("([MLHV])([^MLHV]*)", d):
        x, y = corners[-1] if corners else (None, None)
        if command in "ML":
            x, y = args.split()
        elif command == "H":
            x = args
        else:
            y = args
        corners.append((x, y))
    return corners


class TestLoadLifetimes:
    def test_groups_by_first_appearance(self):
        datasets = load_lifetimes(io.StringIO(LIFETIMES))
        assert [d.label for d in datasets] == ["motor", "battery"]
        motor = datasets[0]
        assert motor.times.tolist() == [120.5, 340.0, 91.0]
        assert motor.events.tolist() == [1, 0, 1]

    def test_empty_body_yields_no_datasets(self):
        assert load_lifetimes(io.StringIO("node,time,event\n")) == []

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("", "empty file"),
            ("node,time\nmotor,1", "header"),
            ("node,time,event\nmotor,1", "row 2: expected 3 columns"),
            ("node,time,event\nmotor,abc,1", "row 2"),
            ("node,time,event\nmotor,1,2", "row 2: event"),
            ("node,time,event\nmotor,-1,1", "row 2"),
            ("node,time,event\n,1,1", "row 2: empty node"),
            ("node,time,event\nmotor,1,1\nmotor,0,1", "row 3"),
            ("node,time,event\n\n\nsys,1,1\nsys,x,1", "row 5: time"),
        ],
    )
    def test_errors_carry_row_numbers(self, body, fragment):
        with pytest.raises(DataFormatError, match=fragment):
            load_lifetimes(io.StringIO(body))

    def test_roundtrip(self):
        datasets = load_lifetimes(io.StringIO(LIFETIMES))
        out = io.StringIO()
        save_lifetimes(datasets, out)
        again = load_lifetimes(io.StringIO(out.getvalue()))
        assert again == datasets


class TestCdfTable:
    def test_roundtrip(self):
        out = io.StringIO()
        save_cdf_table(np.array([0.0, 1.5, 1 / 3]), [0.0, 0.25, 1.0], out)
        assert out.getvalue() == "t,cdf\n0,0\n1.5,0.25\n0.333333333333,1\n"
        times, cdf = load_cdf_table(io.StringIO(out.getvalue()))
        assert times.tolist() == [0.0, 1.5, 0.333333333333] and cdf.tolist() == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("", "empty file"),
            ("t,cdf\n", "no t,cdf rows"),
            ("time,cdf\n1,0.5", "header must be t,cdf"),
            ("t,cdf\n1,0.5,2", "row 2: expected 2 columns"),
            ("t,cdf\n1,x", "row 2: cdf 'x' is not a number"),
            ("t,cdf\n-1e308,0", "row 2: time '-1e308' must be finite and nonnegative"),
            ("t,cdf\ninf,1", "row 2: time 'inf'"),
            ("t,cdf\n1,1e308", r"row 2: cdf '1e308' must lie in \[0, 1\]"),
            ("t,cdf\n\n1,0.5\n2,nan", "row 4: cdf 'nan'"),
        ],
    )
    def test_errors_carry_row_numbers(self, body, fragment):
        with pytest.raises(DataFormatError, match=fragment):
            load_cdf_table(io.StringIO(body))


@pytest.mark.parametrize(
    "loader, header",
    [(load_lifetimes, "node,time,event"), (load_prior_spec, "node,time,cdf,precision")],
    ids=["lifetimes", "priors"],
)
def test_oversized_field_names_the_file(tmp_path, loader, header):
    # Past the csv module's 131,072-character field limit.
    path = tmp_path / "big.csv"
    path.write_text(f"{header}\n{'x' * 131_073},1,1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="big.csv: field larger than field limit"):
        loader(path)


def with_bom(text, tmp_path, as_path):
    """``text`` after a UTF-8 byte-order mark, as a file path or as a stream."""
    if not as_path:
        return io.StringIO("\ufeff" + text)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return path


@pytest.mark.parametrize("as_path", [True, False], ids=["path", "stream"])
class TestByteOrderMark:
    # Spreadsheets' "CSV UTF-8" exports start with a byte-order mark.
    def test_lifetimes(self, tmp_path, as_path):
        assert load_lifetimes(with_bom(LIFETIMES, tmp_path, as_path)) == load_lifetimes(io.StringIO(LIFETIMES))
        # Only one mark is dropped.
        with pytest.raises(DataFormatError, match="header must be node,time,event"):
            load_lifetimes(with_bom("\ufeff" + LIFETIMES, tmp_path, as_path))

    def test_prior_spec(self, tmp_path, as_path):
        got = load_prior_spec(with_bom(PRIORS, tmp_path, as_path))
        want = load_prior_spec(io.StringIO(PRIORS))
        assert list(got) == list(want)
        for label, prior in want.items():
            np.testing.assert_array_equal(got[label].grid, prior.grid)
            np.testing.assert_array_equal(got[label].base.values, prior.base.values)
            np.testing.assert_array_equal(got[label].precision, prior.precision)

    def test_cdf_table(self, tmp_path, as_path):
        times, cdf = load_cdf_table(with_bom("t,cdf\n0,0\n1.5,0.25\n", tmp_path, as_path))
        assert times.tolist() == [0.0, 1.5] and cdf.tolist() == [0.0, 0.25]


class TestReadText:
    def test_a_path_ends_lines_as_text_mode_does(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xef\xbb\xbfa\r\nb\rc\n\xc3\xa9")
        assert read_text(path) == read_text(str(path)) == "a\nb\nc\n\u00e9"

    def test_a_stream_loses_one_mark_and_nothing_else(self):
        assert read_text(io.StringIO("\ufeff\ufeffa\r\nb\r")) == "\ufeffa\r\nb\r"

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"node,time,event\nx,1\xff,1\n", "line 2, column 4: not UTF-8 text (byte 0xff)"),
            (b"\xef\xbb\xbfab\xfe", "line 1, column 3: not UTF-8 text (byte 0xfe)"),
            (b"\xef\xbb\xbf\xef\xbb\xbf\x80", "line 1, column 2: not UTF-8 text (byte 0x80)"),
            # A lone CR ends a line; a character of several bytes is one column.
            (b"a\r\n\r\xc3\xa9\xe2\x82\xac\x80", "line 3, column 3: not UTF-8 text (byte 0x80)"),
            # The byte reported is the first of a sequence cut short.
            (b"ab\n\xe2\x82x", "line 2, column 1: not UTF-8 text (byte 0xe2)"),
        ],
        ids=["example", "after-mark", "after-two-marks", "line-ends", "cut-short"],
    )
    def test_a_bad_byte_is_named_by_file_line_and_column(self, tmp_path, data, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path} {where}')}$"):
            read_text(path)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset("", [1.0], [1])
        with pytest.raises(ValueError):
            Dataset("x", [], [])
        with pytest.raises(ValueError):
            Dataset("x", [(1.0, 1)], [1])

    @pytest.mark.parametrize("wrap", [list, np.array], ids=["lists", "arrays"])
    def test_owns_frozen_copies(self, wrap):
        times, events = wrap([1.0, 2.0]), wrap([True, False])
        ds = Dataset("x", times, events)
        times[0], events[0] = 9.0, False
        assert ds.times.tolist() == [1.0, 2.0] and ds.events.tolist() == [True, False]
        for column in (ds.times, ds.events):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_equality_compares_columns(self):
        ds = Dataset("x", [1.0, 2.0], [True, False])
        assert ds == Dataset("x", np.array([1.0, 2.0]), [1, 0])
        assert ds != Dataset("x", [1.0, 2.0], [1, 1])
        assert ds != Dataset("y", [1.0, 2.0], [1, 0])


class TestLoadPriorSpec:
    def test_constant_precision_becomes_dp(self):
        priors = load_prior_spec(io.StringIO(PRIORS))
        assert set(priors) == {"system", "pump"}
        system = priors["system"]
        np.testing.assert_array_equal(system.base.grid, [100.0, 200.0, 400.0])
        np.testing.assert_array_equal(system.base.values, [0.2, 0.7, 1.0])
        np.testing.assert_array_equal(system.precision[:2], [5.0, 5.0])
        assert np.isnan(system.precision[2])

    def test_varying_precision_kept_pointwise(self):
        pump = load_prior_spec(io.StringIO(PRIORS))["pump"]
        assert pump.precision[0] == 2.0
        assert np.isnan(pump.precision[1])

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("node,time,cdf\nx,1,0.5", "header"),
            ("node,time,cdf,precision\nx,1,0.5,1\nx,1,1.0,1", "node 'x'"),
            ("node,time,cdf,precision\nx,1,0.5,1\nx,2,0.4,1", "node 'x'"),
            ("node,time,cdf,precision\nx,1,0.5,1\nx,2,0.9,1", "node 'x'"),
            ("node,time,cdf,precision\nx,1,0.5,-1\nx,2,1.0,-1", "node 'x'"),
            ("node,time,cdf,precision\nx,1,0.5,1\nx,2,1.0,-5", r"row 3 \(node 'x'\)"),
            ("node,time,cdf,precision\nx,1,oops,1", "row 2"),
            ("node,time,cdf,precision\nx,1,0.5,nan\nx,2,1.0,1", "row 2"),
            ("node,time,cdf,precision\nx,1,nan,1\nx,2,1.0,1", "node 'x'"),
            ("node,time,cdf,precision\n\nx,1,0.5,1\n\nx,2,1.0,-5", r"row 5 \(node 'x'\)"),
        ],
    )
    def test_malformed_priors(self, body, fragment):
        with pytest.raises(DataFormatError, match=fragment):
            load_prior_spec(io.StringIO(body))


class TestCurveExport:
    def test_rejects_band_excluding_mean(self):
        with pytest.raises(ValueError, match="band"):
            small_export(lower=np.array([0.3, 0.2, 1.0]))

    @pytest.mark.parametrize("column", ["second_moment", "lower", "upper"])
    def test_rejects_nan_columns(self, column):
        values = getattr(small_export(), column).copy()
        values[0] = np.nan
        with pytest.raises(ValueError, match=f"{column} column must be finite"):
            small_export(**{column: values})

    def test_flags_mark_the_rows_where_the_mean_reaches_one(self):
        assert small_export().flags == ("", "", "terminal")
        below_one = small_export(mean=np.array([0.2, 0.5, 0.9]), lower=np.array([0.05, 0.2, 0.8]))
        assert below_one.flags == ("", "", "")

    def test_rejects_decreasing_mean(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            small_export(
                mean=np.array([0.5, 0.2, 1.0]),
                lower=np.array([0.0, 0.0, 1.0]),
                upper=np.array([1.0, 1.0, 1.0]),
                second_moment=np.array([0.3, 0.1, 1.0]),
            )

    @pytest.mark.parametrize(
        "column, values",
        [
            ("t", [1.0, 2.0, np.inf]),
            ("t", [1.0, 2.0, np.nan]),
            ("t", [0.0, 2.0, 3.0]),
            ("mean", [np.nan, 0.5, 1.0]),
            ("mean", [0.2, 0.5, np.inf]),
        ],
    )
    def test_rejects_nonfinite_steps(self, column, values):
        with pytest.raises(ValueError):
            small_export(**{column: np.array(values)})

    def test_columns_frozen(self):
        exp = small_export()
        with pytest.raises(ValueError):
            exp.t[0] = 9.0


class TestExportFormats:
    def test_csv_layout_and_digits(self):
        exp = small_export(mean=np.array([0.123456789012345, 0.5, 1.0]))
        out = io.StringIO()
        export_curves(exp, out, format="csv")
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "t,mean,second_moment,lower,upper,precision,flags"
        assert lines[1].split(",")[1] == "0.123456789012"
        assert lines[3].endswith("terminal")
        assert len(lines) == 4

    def test_svg_is_wellformed_xml(self):
        out = io.StringIO()
        export_curves(small_export(), out, format="svg")
        root = ET.fromstring(out.getvalue())
        assert root.tag.endswith("svg")

    def test_svg_overlay_adds_curve(self):
        plain, overlaid = io.StringIO(), io.StringIO()
        export_curves(small_export(), plain, format="svg")
        export_curves(
            small_export(),
            overlaid,
            format="svg",
            overlay=(np.array([1.0, 2.0]), np.array([0.3, 0.9])),
        )
        assert overlaid.getvalue().count("<path") > plain.getvalue().count("<path")

    @pytest.mark.parametrize(
        "times", [(5e-324, 1e-320, 2e-320), (1e308, 1.5e308, 1.75e308)], ids=["subnormal", "near_max"]
    )
    def test_svg_numbers_are_finite_at_extreme_times(self, times):
        out = io.StringIO()
        export_curves(small_export(t=np.array(times)), out, format="svg", overlay=(times, [0.1, 0.5, 0.9]))
        root = ET.fromstring(out.getvalue())
        points = [float(v) for el in root.iter() for v in re.split("[MHVL ]", el.get("d", "")) if v]
        # Tick labels are the texts that start like a number; nan and inf have no digit.
        ticks = [el.text for el in root.findall(".//{*}text") if el.text[0] in "-.0123456789ni"]
        # The overlay's three points, then per step path its start, two
        # numbers per row and its end.
        assert len(points) == 2 * 3 + 3 * (2 + 2 * 3 + 1) and len(ticks) == 12
        assert np.isfinite(points).all() and all(any(c.isdigit() for c in text) for text in ticks)

    @pytest.mark.parametrize(
        "times",
        [np.arange(1.0, 7.0), np.arange(1.0, 7.0) * 5e-324, np.linspace(1e308, 1.75e308, 6)],
        ids=["plain", "subnormal", "near_max"],
    )
    def test_step_paths_turn_at_every_drawn_jump(self, times):
        # Flat steps, a rise too small to draw, and a terminal row.
        exp = small_export(
            t=times,
            mean=np.array([0.2, 0.2, 0.2 + 1e-6, 0.5, 0.5, 1.0]),
            second_moment=np.array([0.1, 0.1, 0.1, 0.3, 0.3, 1.0]),
            lower=np.array([0.0, 0.05, 0.05, 0.2, 0.2, 1.0]),
            upper=np.array([0.5, 0.5, 0.6, 0.8, 0.9, 1.0]),
            precision=np.full(6, 4.0),
        )
        out = io.StringIO()
        export_curves(exp, out, format="svg")
        paths = ET.fromstring(out.getvalue()).findall(".//{*}path")
        t_max = min(float(times[-1]) * 1.05, sys.float_info.max)
        assert [path_corners(el.get("d")) for el in paths] == [
            step_corners(times, column, t_max) for column in (exp.lower, exp.upper, exp.mean)
        ]

    def test_overlay_rejected_for_csv(self):
        with pytest.raises(ValueError, match="overlay"):
            export_curves(small_export(), io.StringIO(), overlay=([1.0], [0.5]))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            export_curves(small_export(), io.StringIO(), format="png")
