import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from relfuse.bsp import LifetimeSample
from relfuse.dataio import (
    CurveExport,
    Dataset,
    export_curves,
    load_lifetimes,
    load_prior_spec,
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
        flags=("", "", "terminal"),
    )
    fields.update(overrides)
    return CurveExport(**fields)


class TestLoadLifetimes:
    def test_groups_by_first_appearance(self):
        datasets = load_lifetimes(io.StringIO(LIFETIMES))
        assert [d.label for d in datasets] == ["motor", "battery"]
        motor = datasets[0]
        assert [s.time for s in motor.samples] == [120.5, 340.0, 91.0]
        assert [s.event for s in motor.samples] == [1, 0, 1]

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


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset("", (LifetimeSample(1.0, 1),))
        with pytest.raises(ValueError):
            Dataset("x", ())
        with pytest.raises(ValueError):
            Dataset("x", ((1.0, 1),))


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
        ],
    )
    def test_malformed_priors(self, body, fragment):
        with pytest.raises(DataFormatError, match=fragment):
            load_prior_spec(io.StringIO(body))


class TestCurveExport:
    def test_rejects_band_excluding_mean(self):
        with pytest.raises(ValueError, match="band"):
            small_export(lower=np.array([0.3, 0.2, 1.0]))

    @pytest.mark.parametrize("flag", ["weird", "beyond_data"])
    def test_rejects_unknown_flags(self, flag):
        with pytest.raises(ValueError, match="flags"):
            small_export(flags=("", "", flag))

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
        assert overlaid.getvalue().count("polyline") > plain.getvalue().count("polyline")

    def test_overlay_rejected_for_csv(self):
        with pytest.raises(ValueError, match="overlay"):
            export_curves(small_export(), io.StringIO(), overlay=([1.0], [0.5]))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            export_curves(small_export(), io.StringIO(), format="png")
