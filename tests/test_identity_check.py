"""The comparison rule of scripts/identity_check.py: which arrays count as different."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from relfuse.demo import demo_config
from relfuse.errors import BindingError, PrecisionRecoveryWarning
from relfuse.fusion import moments_of
from relfuse.oracle import WeibullLifetime, censoring_rate
from relfuse.pipeline import fit_system, fit_system_only

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity_check.py"
_spec = importlib.util.spec_from_file_location("identity_check", _SCRIPT)
identity_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_check)

BASE = {
    "case/t": np.array([1.0, 2.0, 3.0]),
    "case/precision": np.array([0.0, 2.5, np.nan]),
    "case/flags": np.array(["", "", "terminal"], dtype=str),
    "case/warnings": np.array(["negative precision at t=2: clamped to 0", "precision capped"], dtype=str),
    "datasets/n30-seed0": np.array(["node,time,event\r\n", "a,1.5,1\r\n", "a,2.25,0\r\n"], dtype=str),
    "validate/seed0": np.array([("matches Kaplan-Meier", "True", "worst error 1.110e-16")], dtype=str),
}


def changed(name, value):
    return {**BASE, name: value}


def test_identical_sides_match_with_nan():
    copy = {name: arr.copy() for name, arr in BASE.items()}
    assert identity_check.mismatches(BASE, copy) == []


@pytest.mark.parametrize(
    "name, value",
    [
        ("case/t", np.array([1.0, 2.0, 3.0], dtype=np.float32)),
        ("case/t", np.array([1.0, np.nextafter(2.0, 3.0), 3.0])),
        ("case/t", np.array([1.0, 2.0])),
        ("case/precision", np.array([0.0, 2.5, 0.0])),
        ("case/precision", np.array([-0.0, 2.5, np.nan])),
        ("case/flags", np.array(["", "terminal", "terminal"], dtype=str)),
        ("case/warnings", BASE["case/warnings"][::-1]),
        ("datasets/n30-seed0", np.array(["node,time,event\r\n", "a,1.5,1\r\n", "a,2.25,1\r\n"], dtype=str)),
        ("validate/seed0", np.array([("matches Kaplan-Meier", "True", "worst error 2.220e-16")], dtype=str)),
    ],
    ids=[
        "dtype", "one_ulp", "shape", "nan_to_number", "sign_of_zero", "flag", "warning_order", "dataset_row",
        "check_detail",
    ],
)
def test_each_difference_is_flagged(name, value):
    assert identity_check.mismatches(BASE, changed(name, value)) == [name]


def test_array_missing_on_one_side_is_flagged():
    change = dict(BASE)
    del change["case/flags"]
    assert identity_check.mismatches(BASE, change) == ["case/flags"]
    assert identity_check.mismatches(change, BASE) == ["case/flags"]


def test_mismatches_are_listed_in_full_by_case():
    bad = [f"n30-seed0-dp-fit_system/system/{c}" for c in ("lower", "mean", "precision", "t", "upper")]
    bad += ["n30-seed0-dp-fit_system/warnings", "calibration/weibull-1-0.5-0.15", "n30-seed1-nodp-fit_system/uninformed"]
    assert identity_check.by_case(bad) == [
        "  n30-seed0-dp-fit_system: 6 (system/lower, system/mean, system/precision, system/t, system/upper, warnings)",
        "  calibration: 1 (weibull-1-0.5-0.15)",
        "  n30-seed1-nodp-fit_system: 1 (uninformed)",
    ]
    assert identity_check.by_case([]) == []


def test_calibration_keeps_the_rate_bits_or_the_error():
    exp = WeibullLifetime(1.0, 0.5)
    got = identity_check.calibrate(
        {"calibration/ok": (exp, 0.15), "calibration/missed": (WeibullLifetime(1.0, 1e300), 0.15)}
    )
    assert got["calibration/ok"].tolist() == [censoring_rate(exp, 0.15).hex()]
    [text] = got["calibration/missed"].tolist()
    assert text.startswith("ValueError: censoring rate ") and "reaches a censored share of 1" in text


def test_calibration_probes_cover_demo_and_grid():
    probes = identity_check.calibration_probes(demo_config())
    assert len(probes) == 13 * 2 + 4 * 8 * 3
    sampler, fraction = probes["calibration/weibull-2.2-100000-0.15"]
    assert (sampler.shape, sampler.scale, fraction) == (2.2, 1e5, 0.15)


def test_band_probes_reach_every_branch():
    # Each probe must keep a row on its namesake branch, with that branch's
    # band, at every level: a changed degenerate branch fails here and is a
    # mismatch in the identity check.
    arrays = identity_check.band_probes()
    processes = identity_check.band_processes()
    assert len(arrays) == 2 * len(processes) * len(identity_check.BAND_LEVELS)
    for name, process in processes.items():
        moments = moments_of(process)
        m, v = moments.first, moments.second - moments.first**2
        inside = (0.0 < m) & (m < 1.0)
        for level in identity_check.BAND_LEVELS:
            lo, hi = (arrays[f"bands/{name}-{level:g}/{end}"] for end in ("lower", "upper"))
            rows = {
                "zero-mass": (m <= 0.0) & (lo == 0.0) & (hi == 0.0),
                "terminal": (m >= 1.0) & (lo == 1.0) & (hi == 1.0),
                "zero-variance": inside & (v <= 0.0) & (lo == m) & (hi == m),
                "bernoulli": inside & (v >= m * (1.0 - m)) & (lo == 0.0) & (hi == 1.0),
                "skew": inside & (v > 0.0) & (v < m * (1.0 - m)) & ((lo == m) | (hi == m)),
            }[name]
            assert rows.any(), f"{name} at level {level:g}"


def test_precision_probes_reach_every_branch():
    arrays = identity_check.precision_probes()
    priors = identity_check.precision_priors()
    updates = [f"{name}-{data}" for name in priors for data in identity_check.PRECISION_DATA]
    merges = [f"{name}-merge" for name in priors]
    assert {name.split("/")[1] for name in arrays} == {*updates, *merges}
    columns = {"process_precision", "horizon", *identity_check.EXPORT_COLUMNS, "flags", "warnings"}
    for probe, keys in ((updates, columns), (merges, {"grid", "first", "second", "warnings"})):
        for case in probe:
            got = {name.split("/", 2)[2] for name in arrays if name.split("/")[1] == case}
            assert got in (keys, {"error", "warnings"}), case

    def export(case, column):
        return arrays[f"precision/{case}/{column}"]

    # An update on no data is the prior, whole, even at zero precision.
    np.testing.assert_array_equal(export("dp-zero-none", "t"), priors["dp-zero"].grid)
    assert export("dp-zero-none", "horizon") == np.inf
    # A terminal row reports the last non-terminal precision; with no such point it is NaN.
    np.testing.assert_array_equal(export("flat-step-none", "precision"), [2.0, 4.0, 1.0, 1.0])
    for case in ("one-terminal-none", "two-terminal-none", "two-terminal-past"):
        assert np.isnan(export(case, "precision")).all(), case
    # Before an all-terminal grid the prior weighs nothing: the data alone set the precision.
    np.testing.assert_array_equal(export("two-terminal-before", "process_precision"), [2.0, 2.0, np.nan, np.nan])
    for name in priors:
        assert np.isin(priors[name].grid, export(f"{name}-merge", "grid")).all(), name


def fold_branches(spec, data_labels, prior_labels) -> set[str]:
    """The branches of ``fit_system``'s fold that the nodes of ``spec`` take."""
    out = set()
    for node in spec.root.iter_nodes():
        label = node.binding_label
        has_data, has_prior = label in data_labels, label in prior_labels
        if node.kind == "component" and has_prior:
            out.add("component-prior" if has_data else "component-prior-no-data")
        elif node.kind == "component":
            out.add("component" if has_data else "component-uninformed")
        elif node is spec.root:
            out.add("labelled-root" if label is not None else "unlabelled-root")
            if not has_data:
                out.add("labelled-root-no-data" if label is not None else "unlabelled-root-no-data")
        elif not (has_data or has_prior):
            out.add("group-pass-up")
        elif not has_data:
            out.add("group-prior-no-data")
        else:
            out.add("group-data")
    return out


def test_variants_reach_the_fold_branches_the_demo_leaves_out():
    cfg = demo_config()
    datasets = cfg.simulate(0)
    everything = {d.label for d in datasets}
    demo_branches = fold_branches(cfg.spec, everything, identity_check.PRIOR_NODES)
    cases = identity_check.variant_cases(identity_check.variants(cfg), datasets, "n30-seed0")
    # The flat series reaches no new branch; it widens the group one combine folds.
    want = {
        "unlabelled-groups": "group-pass-up",
        "group-prior-no-data": "group-prior-no-data",
        "component-prior": "component-prior",
        "component-prior-no-data": "component-prior-no-data",
        "unlabelled-root": "unlabelled-root-no-data",
        "withheld-gearing": "component-uninformed",
        "flat-series": None,
        "flat-series-dp": None,
        "components-only": "labelled-root-no-data",
        "no-system-data": "labelled-root-no-data",
    }
    assert want.keys() == identity_check.VARIANTS.keys()
    for name, branch in want.items():
        spec, bound, priors = cases[f"{name}-n30-seed0"]
        data_labels, prior_labels = {d.label for d in bound}, set(priors or ())
        # Only labels the variant has are bound, so a parent that ignores
        # unmatched labels fits the same inputs.
        assert data_labels <= spec.labels.keys() and prior_labels <= spec.labels.keys()
        if branch is not None:
            assert branch in fold_branches(spec, data_labels, prior_labels) - demo_branches, name
        # Every node keeps a posterior but a group that passes its curve up
        # and a component with neither data nor a prior.
        kept = {
            n.binding_label or "<root>"
            for n in spec.root.iter_nodes()
            if n is spec.root or n.binding_label in data_labels | prior_labels
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionRecoveryWarning)
            assert set(fit_system(spec, bound, priors).node_posteriors) == kept, name
    with pytest.raises(BindingError, match="binding label on the root"):
        fit_system_only(*cases["unlabelled-root-n30-seed0"])


def test_docstring_counts_the_case_matrix():
    # Per seed: the demo without and with priors, and each variant; each fitted two ways.
    n_seeds = sum(len(seeds) for seeds in identity_check.SEEDS.values())
    n_cases = n_seeds * (2 + len(identity_check.VARIANTS)) * 2
    assert f"a fixed matrix of {n_cases} cases" in " ".join(identity_check.__doc__.split())


def test_flat_series_folds_the_nine_demo_components_in_one_group():
    cfg = demo_config()
    datasets = cfg.simulate(0)
    cases = identity_check.variant_cases(identity_check.variants(cfg), datasets, "n30-seed0")
    components = [c.id for c in cfg.spec.root.iter_components()]
    assert len(components) == 9
    widest = max(len(n.children) for n in cfg.spec.root.iter_nodes())
    for name, prior_labels in (("flat-series", set()), ("flat-series-dp", {"system"})):
        spec, bound, priors = cases[f"{name}-n30-seed0"]
        root = spec.root
        assert (root.kind, root.binding_label) == ("series", "system"), name
        assert [c.id for c in root.children] == components, name
        assert len(root.children) > widest
        # The same seed's data for every node the flat diagram has.
        assert {d.label for d in bound} == {"system", *components}
        assert set(priors or ()) == prior_labels, name


def test_cli_outputs_keep_the_bytes_of_every_written_file():
    got = identity_check.cli_outputs(seeds=(3,))
    assert list(got) == [f"cli/seed3/{name}" for name in identity_check.CLI_FILES]
    text = {name.split("/", 2)[2]: arr.tobytes().decode("utf-8") for name, arr in got.items()}
    assert text["sim/system.rbd"] == demo_config().rbd_source
    assert text["sim/lifetimes.csv"].startswith("node,time,event\r\n")
    assert text["sim/true_system_cdf.csv"].startswith("t,cdf\n0,0\n")
    assert text["fit/system_cdf.csv"].startswith("t,mean,second_moment,lower,upper,precision,flags\r\n")
    assert text["fit/system_cdf.svg"].endswith("</svg>\n") and "true CDF" in text["fit/system_cdf.svg"]


# One fragment of each fault message the three loaders name.
LOADER_FAULTS = (
    "empty file", "header must be", "expected 2 columns", "expected 3 columns", "expected 4 columns",
    "is not a number", "event must be 0 or 1", "sample time must be a finite positive number", "empty node label",
    "(node 'x'): precision '-1' must be finite and nonnegative", "strictly increasing", "nondecreasing",
    "end at exactly 1", "time '-1' must be finite and nonnegative", "must lie in [0, 1]", "no t,cdf rows",
    "new-line character seen in unquoted field", "field larger than field limit",
)


def test_loader_outputs_keep_each_parse_or_error():
    got = identity_check.loader_outputs()
    corpus = identity_check.LOADER_CORPUS
    for fmt, cases in corpus.items():
        for case in cases:
            arrays = {name.split("/", 2)[2] for name in got if name.startswith(f"loaders/{fmt}-{case}/")}
            assert arrays == {"error"} or "labels" in arrays and "error" not in arrays, (fmt, case)
    assert got["loaders/lifetimes-valid/labels"].tolist() == ["motor", "battery"]
    assert got["loaders/lifetimes-valid/0/times"].tolist() == [120.5, 340.0, 91.0]
    assert got["loaders/priors-quoted-label/labels"].tolist() == ["pump, main"]
    assert got["loaders/table-valid/0/cdf"].tolist() == [0.0, 0.25, 1.0]
    assert [got[f"loaders/{fmt}-byte-order-mark/labels"].tolist() for fmt in corpus] == [["motor"], ["x"], ["table"]]
    errors = [str(got[name][0]) for name in got if name.endswith("/error")]
    assert [f for f in LOADER_FAULTS if not any(f in text for text in errors)] == []
    # The first fault in file order is the one reported, csv's own errors included.
    for fmt in corpus:
        for csv_fault, message in (("lone-cr", "new-line character"), ("oversized-field", "field larger")):
            [before] = got[f"loaders/{fmt}-bad-row-then-{csv_fault}/error"].tolist()
            [after] = got[f"loaders/{fmt}-{csv_fault}-then-bad-row/error"].tolist()
            assert before.startswith("<stream> row 2") and after.startswith(f"<stream>: {message}"), fmt


# One fragment of each fault message of the two diagram grammars; the depth
# limit is named by both.
DIAGRAM_FAULTS = (
    "RbdSyntaxError: line 1, column 11: unexpected character", "expected component name or group keyword, found",
    "expected ',' or ')', found", "is reserved and cannot be a label", "node already labeled",
    "unknown keyword", "RbdSyntaxError: line 1, column 701: groups nest more than 100 levels deep",
    "'series' group needs at least 2 children", "is reserved and cannot be a component name",
    "unexpected trailing input", "duplicate component id", "duplicate binding label", "invalid JSON: Expecting",
    "invalid JSON: Extra data", "invalid JSON: nested too deeply", "RbdError: JSON diagram nodes must be objects",
    "must be a string, not", "is not a valid name", "node needs a children array", "unknown node type",
    "RbdError: groups nest more than 100 levels deep", "RbdError: 'parallel' group needs at least 2 children",
    "RbdSyntaxError: invalid JSON: Exceeds the limit (4300 digits)",
)


def test_diagram_outputs_keep_each_parse_or_error():
    got = identity_check.diagram_outputs()
    for case in identity_check.DIAGRAM_CORPUS:
        arrays = {name.split("/", 2)[2] for name in got if name.startswith(f"diagrams/{case}/")}
        assert arrays in ({"error"}, {"text", "labels"}), case
    errors = [str(got[name][0]) for name in got if name.endswith("/error")]
    assert [f for f in DIAGRAM_FAULTS if not any(f in text for text in errors)] == []

    def error(case):
        [text] = got[f"diagrams/{case}/error"].tolist()
        return text

    # End of input is one past the last character, comment included.
    assert error("trailing-comment").startswith("RbdSyntaxError: line 1, column 17: expected component name")
    assert error("json-blank-lines-fault") == "RbdSyntaxError: line 3, column 32: invalid JSON: Expecting ',' delimiter"
    assert error("superscript-two-start") == "RbdSyntaxError: line 1, column 1: unexpected character '²'"
    assert error("bad-character-after-parse-error").endswith("unexpected character '$'")
    assert "levels deep" not in error("label-chain-long")
    for case in ("depth-limit", "json-depth-limit", "crlf", "names"):
        assert f"diagrams/{case}/text" in got, case
    # A byte-order mark is dropped by the file reader, not by the diagram reader.
    for case in ("byte-order-mark", "byte-order-mark-json", "byte-order-mark-fault"):
        assert error(case) == "RbdSyntaxError: line 1, column 1: unexpected character '\\ufeff'", case
    assert got["diagrams/paper-scale/text"].tolist() == got["diagrams/paper-scale-json/text"].tolist()
    assert got["diagrams/paper-scale/labels"].size == 3001


def test_file_outputs_keep_each_parse_or_error():
    got = identity_check.file_outputs()
    streams = identity_check.loader_outputs()
    for fmt, cases in identity_check.FILE_CORPUS.items():
        for case in cases:
            arrays = {name.split("/", 2)[2] for name in got if name.startswith(f"files/{fmt}-{case}/")}
            if "digit-limit" in case:
                [text] = got[f"files/{fmt}-{case}/error"].tolist()
                assert text.startswith(f"DataFormatError: {fmt}-{case}: invalid JSON: Exceeds the limit (4300 digits)")
                continue
            if "bad-byte" not in case:
                assert "labels" in arrays and "error" not in arrays, (fmt, case)
                continue
            assert arrays == {"error"}, (fmt, case)
            where = "line 1, column 1" if case.startswith("byte-order-mark") else "line 3, column 3"
            byte = "0x80" if case.startswith("byte-order-mark") else "0xff"
            assert got[f"files/{fmt}-{case}/error"].tolist() == [
                f"DataFormatError: {fmt}-{case} {where}: not UTF-8 text (byte {byte})"
            ]
        # Every line end and a leading mark read as the LF text read from a stream.
        if fmt != "config":
            valid = {name.split("/", 2)[2]: arr for name, arr in streams.items() if name.startswith(f"loaders/{fmt}-valid/")}
            for case in ("crlf", "lone-cr", "byte-order-mark-crlf"):
                read = {name.split("/", 2)[2]: arr for name, arr in got.items() if name.startswith(f"files/{fmt}-{case}/")}
                assert identity_check.mismatches(valid, read) == [], (fmt, case)
    config = {name.split("/", 3)[3]: arr.tolist() for name, arr in got.items() if name.startswith("files/config-crlf/0/")}
    assert config == {
        "rbd": ["sys@series(a, sub@parallel(b, c))"], "components": ["a", "b", "c"], "shape": [2.5, 1.5, 0.8],
        "scale": [90.0, 40.0, 120.0], "n_per_node": [12], "censor_fraction": [0.2],
    }


def test_summary_counts_each_family():
    change = {
        **BASE,
        "n30-seed0-dp-fit_system/warnings": BASE["case/warnings"],
        "calibration/weibull-1-0.5-0.15": np.array(["0x1p-1"], dtype=str),
        "bands/skew-0.9/lower": np.zeros(2),
        "bands/skew-0.9/upper": np.ones(2),
        "precision/dp-none/t": np.ones(2),
        "precision/dp-none/horizon": np.array(np.inf),
        "cli/seed0/sim/system.rbd": np.zeros(3, dtype=np.uint8),
        "loaders/lifetimes-valid/labels": np.array(["motor"], dtype=str),
        "loaders/lifetimes-valid/0/times": np.ones(1),
        "files/table-crlf/labels": np.array(["table"], dtype=str),
        "files/table-bad-byte-line-3/error": np.array(["DataFormatError: ..."], dtype=str),
        "diagrams/crlf/text": np.array(["system@series(a, b)"], dtype=str),
        "diagrams/crlf/labels": np.array(["system", "a", "b"], dtype=str),
        "diagrams/empty/error": np.array(["RbdSyntaxError: ..."], dtype=str),
    }
    assert identity_check.summary("0123456789abcdef", change, ["case/t"]) == (
        "identity 0123456789ab -> working tree: 2 cases, 1 datasets, 1 calibrations, 1 band probes, "
        "1 precision probes, 1 validator reports, 1 CLI files, 1 loader texts, 2 byte files, 2 diagram texts, "
        "20 arrays, 4 warnings, 1 mismatches (case/t)"
    )
