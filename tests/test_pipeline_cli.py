import fnmatch
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import relfuse
from relfuse._scipy import special_ufuncs
from relfuse.bsp import BetaStacyProcess, beta_match, dp_prior, posterior_update
from relfuse.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main
from relfuse.dataio import Dataset
from relfuse.demo import MAX_N_PER_NODE, DemoConfig, demo_config, load_sim_config
from relfuse.errors import BindingError, PrecisionRecoveryWarning
from relfuse.fusion import (
    align_grids,
    combine_parallel,
    combine_series,
    merge_priors,
    moments_of,
    recover_precision,
)
from relfuse.oracle import MAX_SEED
from relfuse.pipeline import curve_export, fit_system, fit_system_only
from relfuse.rbd import MAX_DEPTH, SystemSpec, parse_rbd

from conftest import (
    bsp_processes,
    censored_samples,
    nested_series_dsl,
    nested_series_json,
    priors_fit_args,
    rbd_trees,
    run_fresh,
)


def scalar_band(m, s, level):
    """The band rule for one point, branch by branch: the reference for the array rule."""
    if m <= 0.0:
        return (0.0, 0.0)
    if m >= 1.0:
        return (1.0, 1.0)
    v = s - m * m
    if v <= 0.0:
        return (m, m)
    if v >= m * (1.0 - m):
        return (0.0, 1.0)
    a, b = beta_match(m, s)
    tail = (1.0 - level) / 2.0
    lo = float(special.betaincinv(a, b, tail))
    hi = float(special.betaincinv(a, b, 1.0 - tail))
    return (min(lo, m), max(hi, m))


def dataset(label, times, events=None):
    events = events if events is not None else [1] * len(times)
    return Dataset(label, times, events)


LEAF_DATA = {
    "a": dataset("a", [1.0, 2.0, 4.0], [1, 1, 0]),
    "b": dataset("b", [1.5, 3.0, 3.5]),
    "c": dataset("c", [2.5, 5.0], [1, 0]),
}
SYS_DATA = dataset("sys", [1.2, 2.2, 6.0], [1, 1, 0])
SUB_DATA = dataset("sub", [1.8, 2.8])


def leaf_curve(label):
    return moments_of(posterior_update(BetaStacyProcess.noninformative(), LEAF_DATA[label].times, LEAF_DATA[label].events))


def assert_same_process(got, want):
    np.testing.assert_array_equal(got.grid, want.grid)
    np.testing.assert_array_equal(got.base.values, want.base.values)
    np.testing.assert_array_equal(got.precision, want.precision)


class TestFitSystem:
    def test_single_component_root_is_empirical(self):
        spec = parse_rbd("sys")
        result = fit_system(spec, [dataset("sys", [1.0, 2.0, 3.0])])
        np.testing.assert_allclose(result.posterior.base.values, [1 / 3, 2 / 3, 1.0], atol=1e-12)
        assert set(result.node_posteriors) == {"sys"}

    def test_hierarchy_collects_node_posteriors(self):
        spec = parse_rbd("sys@series(a, b)")
        result = fit_system(
            spec,
            [
                dataset("a", [1.0, 2.0]),
                dataset("b", [1.5, 2.5]),
                dataset("sys", [1.2, 2.2]),
            ],
        )
        assert set(result.node_posteriors) == {"a", "b", "sys"}
        for t in (1.0, 1.5, 2.0, 2.5):
            assert t in result.posterior.grid

    def test_unlabeled_root_is_stored_under_marker(self):
        spec = parse_rbd("series(a, b)")
        result = fit_system(spec, [dataset("a", [1.0]), dataset("b", [2.0])])
        assert "<root>" in result.node_posteriors

    def test_component_prior_feeds_fit(self):
        spec = parse_rbd("sys")
        prior = dp_prior(np.array([0.5, 4.0]), np.array([0.3, 1.0]), 2.0)
        result = fit_system(spec, [dataset("sys", [1.0])], {"sys": prior})
        assert 0.5 in result.posterior.grid
        assert 4.0 in result.posterior.grid

    def test_duplicate_dataset_labels_rejected(self):
        spec = parse_rbd("sys")
        with pytest.raises(BindingError, match="duplicate"):
            fit_system(spec, [dataset("sys", [1.0]), dataset("sys", [2.0])])

    def test_system_data_tightens_fused_estimate(self):
        spec = parse_rbd("sys@series(a, b)")
        comp_data = [dataset("a", [1.0, 3.0]), dataset("b", [2.0, 4.0])]
        without = fit_system(spec, comp_data)
        with_sys = fit_system(spec, comp_data + [dataset("sys", [1.5, 2.5])])
        t = 2.0
        assert with_sys.posterior.precision[np.searchsorted(with_sys.posterior.grid, t)] > (
            without.posterior.precision[np.searchsorted(without.posterior.grid, t)]
        )


    def test_unlabelled_group_passes_fused_curve_up(self):
        spec = parse_rbd("sys@series(parallel(a, b), c)")
        result = fit_system(spec, [*LEAF_DATA.values(), SYS_DATA])
        ab = combine_parallel(*align_grids(leaf_curve("a"), leaf_curve("b")))
        fused = combine_series(*align_grids(ab, leaf_curve("c")))
        want = posterior_update(recover_precision(fused), SYS_DATA.times, SYS_DATA.events)
        assert set(result.node_posteriors) == {"a", "b", "c", "sys"}
        assert_same_process(result.posterior, want)

    def test_labelled_subsystem_applies_its_own_data(self):
        spec = parse_rbd("sys@series(sub@parallel(a, b), c)")
        result = fit_system(spec, [*LEAF_DATA.values(), SUB_DATA, SYS_DATA])
        ab = combine_parallel(*align_grids(leaf_curve("a"), leaf_curve("b")))
        sub = posterior_update(recover_precision(ab), SUB_DATA.times, SUB_DATA.events)
        fused = combine_series(*align_grids(moments_of(sub), leaf_curve("c")))
        want = posterior_update(recover_precision(fused), SYS_DATA.times, SYS_DATA.events)
        assert set(result.node_posteriors) == {"a", "b", "c", "sub", "sys"}
        assert_same_process(result.node_posteriors["sub"], sub)
        assert_same_process(result.posterior, want)

    @pytest.mark.parametrize("sub_data", [None, SUB_DATA], ids=["prior_only", "with_data"])
    def test_group_prior_is_merged(self, sub_data):
        spec = parse_rbd("sys@series(sub@parallel(a, b), c)")
        elicited = dp_prior(np.array([1.5, 3.0, 5.0]), np.array([0.1, 0.4, 1.0]), 2.0)
        datasets = [*LEAF_DATA.values(), SYS_DATA]
        result = fit_system(spec, datasets + ([sub_data] if sub_data else []), {"sub": elicited})
        ab = combine_parallel(*align_grids(leaf_curve("a"), leaf_curve("b")))
        sub = recover_precision(merge_priors(recover_precision(ab), elicited))
        # With no data of its own 'sub' answers with its merged prior, whole.
        assert sub.grid.size > 0
        if sub_data is not None:
            sub = posterior_update(sub, sub_data.times, sub_data.events)
        fused = combine_series(*align_grids(moments_of(sub), leaf_curve("c")))
        want = posterior_update(recover_precision(fused), SYS_DATA.times, SYS_DATA.events)
        assert set(result.node_posteriors) == {"a", "b", "c", "sub", "sys"}
        assert_same_process(result.node_posteriors["sub"], sub)
        assert_same_process(result.posterior, want)


    @given(rbd_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_component_data_alone_answers_at_every_node(self, tree, data):
        # No group has data of its own: each answers with its fused prior.
        datasets = [Dataset(c.id, *data.draw(censored_samples(max_size=8))) for c in tree.iter_components()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionRecoveryWarning)
            result = fit_system(SystemSpec(tree), datasets)
        assert len(curve_export(result.posterior)) > 0
        assert [label for label, post in result.node_posteriors.items() if not post.grid.size] == []

    def test_root_without_information_is_rejected(self):
        # Three failures of 'a' say nothing about 'b', so nothing informs the system.
        spec = parse_rbd("sys@series(a, b)")
        with pytest.raises(BindingError, match="no data or prior informs the root; components with neither: 'b'$"):
            fit_system(spec, [dataset("a", [1.0, 2.0, 3.0])])

    def test_uninformed_component_drops_the_fused_prior(self):
        spec = parse_rbd("sys@series(a, b)")
        datasets = [dataset("a", [1.0, 2.0, 3.0]), SYS_DATA]
        result = fit_system(spec, datasets)
        assert_same_process(result.posterior, fit_system_only(spec, datasets).posterior)
        assert set(result.node_posteriors) == {"a", "sys"}
        assert result.uninformed == {"b": "sys"}
        assert result.dropped == {"sys": ("a",)}

    def test_uninformed_subtree_reaches_the_nearest_informed_ancestor(self):
        # The unlabelled group holds no information of its own, so 'sub' drops its fused prior.
        spec = parse_rbd("sys@series(sub@series(parallel(a, b), c), d)")
        data = [LEAF_DATA["a"], LEAF_DATA["c"], SUB_DATA, dataset("d", [2.0, 3.0])]
        result = fit_system(spec, data)
        sub = posterior_update(BetaStacyProcess.noninformative(), SUB_DATA.times, SUB_DATA.events)
        assert_same_process(result.node_posteriors["sub"], sub)
        assert result.uninformed == {"b": "sub"}
        # The data of 'a' and 'c' never reach 'sub'; 'd' still reaches 'sys'.
        assert result.dropped == {"sub": ("a", "c")}
        with pytest.raises(BindingError, match="neither: 'b'$"):
            fit_system(spec, [LEAF_DATA["a"], LEAF_DATA["c"], dataset("d", [2.0, 3.0])])

class TestFitSystemOnly:
    def test_uses_root_data_alone(self):
        spec = parse_rbd("sys@series(a, b)")
        result = fit_system_only(
            spec, [dataset("a", [9.0]), dataset("sys", [1.0, 2.0])]
        )
        np.testing.assert_array_equal(result.posterior.grid, [1.0, 2.0])

    def test_requires_root_label_and_data(self):
        with pytest.raises(BindingError, match="binding label"):
            fit_system_only(parse_rbd("series(a, b)"), [dataset("a", [1.0])])
        with pytest.raises(BindingError, match="data bound"):
            fit_system_only(parse_rbd("sys@series(a, b)"), [dataset("a", [1.0])])


class TestCurveExport:
    def test_ecdf_export_reports_sample_size_precision(self):
        spec = parse_rbd("sys")
        result = fit_system(spec, [dataset("sys", [1.0, 2.0, 3.0])])
        curve = curve_export(result.posterior)
        np.testing.assert_allclose(curve.precision, [3.0, 3.0, 3.0], atol=1e-12)
        assert curve.flags == ("", "", "terminal")
        assert np.all(curve.lower <= curve.mean + 1e-12)
        assert np.all(curve.upper >= curve.mean - 1e-12)

    @pytest.mark.parametrize("with_prior", [False, True], ids=["data_only", "with_prior"])
    def test_columns_are_the_moment_curve(self, with_prior):
        spec = parse_rbd("sys@series(a, parallel(b, c))")
        priors = {"a": dp_prior(np.array([2.0, 5.0]), np.array([0.5, 1.0]), 2.0)} if with_prior else None
        post = fit_system(spec, [*LEAF_DATA.values(), SYS_DATA], priors).posterior
        curve = curve_export(post)
        moments = moments_of(post)
        np.testing.assert_array_equal(curve.t, moments.grid)
        np.testing.assert_array_equal(curve.mean, moments.first)
        np.testing.assert_array_equal(curve.second_moment, moments.second)

    def test_nonestimable_tail_is_dropped(self):
        prior = dp_prior(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.6, 1.0]), 0.0)
        spec = parse_rbd("sys")
        result = fit_system(spec, [dataset("sys", [1.0], [0])], {"sys": prior})
        curve = curve_export(result.posterior)
        np.testing.assert_array_equal(curve.t, [1.0])

    @pytest.mark.parametrize("level", [1.5, -1.0, float("nan")], ids=["above_one", "negative", "nan"])
    def test_level_is_checked_on_an_empty_grid(self, level):
        post = posterior_update(dp_prior([1.0, 2.0], [0.5, 1.0], 0.0), [], [])
        assert post.grid.size == 0
        with pytest.raises(ValueError, match="level must lie strictly inside"):
            curve_export(post, level=level)

    @given(bsp_processes(min_precision=0.0), st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    @settings(max_examples=100, deadline=None)
    def test_bands_follow_the_scalar_rule(self, proc, level):
        curve = curve_export(proc, level)
        moments = zip(curve.mean.tolist(), curve.second_moment.tolist())
        want = [scalar_band(m, s, level) for m, s in moments]
        assert list(zip(curve.lower.tolist(), curve.upper.tolist())) == want

    def test_two_array_quantile_calls_per_export(self, monkeypatch):
        ufuncs = special_ufuncs()
        quantile = ufuncs.betaincinv
        sizes = []

        def counted(a, b, q):
            sizes.append(np.size(a))
            return quantile(a, b, q)

        def per_point(*args, **kwargs):
            raise AssertionError("curve_export called credible_interval")

        monkeypatch.setattr(ufuncs, "betaincinv", counted)
        monkeypatch.setattr(relfuse.bsp, "credible_interval", per_point)
        spec = parse_rbd("sys@series(a, parallel(b, c))")
        curve = curve_export(fit_system(spec, [*LEAF_DATA.values(), SYS_DATA]).posterior)
        assert len(sizes) == 2 and sizes[0] == sizes[1] > 1
        assert sizes[0] == np.count_nonzero((curve.mean > 0.0) & (curve.mean < 1.0))


class TestDemoConfig:
    def test_binds_every_labeled_node(self):
        cfg = demo_config()
        assert len(cfg.samplers()) == 13
        assert {"system", "propulsion", "electric", "gas"} <= set(cfg.samplers())

    def test_true_cdf_is_proper(self):
        cfg = demo_config()
        ts = np.linspace(0.0, 20000.0, 50)
        vals = np.asarray(cfg.true_system_cdf(ts))
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_simulation_shape(self):
        datasets = demo_config().simulate(3)
        assert len(datasets) == 13
        assert all(len(d) == 30 for d in datasets)

    def test_n_per_node_must_be_an_integer(self):
        base = demo_config()
        with pytest.raises(TypeError):
            DemoConfig(base.rbd_source, base.components, n_per_node=2.5)

    def test_load_sim_config_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "rbd": "sys@series(a, b)",
                    "components": {
                        "a": {"shape": 2.0, "scale": 100.0},
                        "b": {"shape": 1.5, "scale": 80.0},
                    },
                    "n_per_node": 5,
                    "censor_fraction": 0.1,
                }
            )
        )
        cfg = load_sim_config(cfg_path)
        assert isinstance(cfg, DemoConfig)
        assert cfg.n_per_node == 5
        datasets = cfg.simulate(1)
        assert {d.label for d in datasets} == {"a", "b", "sys"}

    def test_n_per_node_ceiling_is_accepted(self, tmp_path):
        # Nothing is simulated at this size.
        cfg_path = tmp_path / "sim.json"
        components = {"a": {"shape": 2.0, "scale": 100.0}}
        config = {"rbd": "a", "components": components, "n_per_node": MAX_N_PER_NODE}
        cfg_path.write_text(json.dumps(config))
        assert load_sim_config(cfg_path).n_per_node == MAX_N_PER_NODE


class TestCliRoundTrip:
    def test_simulate_fit_validate(self, tmp_path, capsys):
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--seed", "7", "--out", str(sim_dir)]) == EXIT_OK
        for name in ("system.rbd", "lifetimes.csv", "true_system_cdf.csv"):
            assert (sim_dir / name).exists()

        fit_dir = tmp_path / "fit"
        code = main(
            [
                "fit",
                "--rbd", str(sim_dir / "system.rbd"),
                "--data", str(sim_dir / "lifetimes.csv"),
                "--out", str(fit_dir),
                "--svg",
            ]
        )
        assert code == EXIT_OK
        csv_text = (fit_dir / "system_cdf.csv").read_text()
        assert csv_text.startswith("t,mean,second_moment,lower,upper,precision,flags")
        svg = (fit_dir / "system_cdf.svg").read_text()
        ET.fromstring(svg)
        assert "<path" in svg

        assert main(["validate", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out

    def test_system_only_band_is_wider(self, tmp_path):
        sim_dir = tmp_path / "sim"
        main(["simulate", "--seed", "2", "--out", str(sim_dir)])
        args = ["fit", "--rbd", str(sim_dir / "system.rbd"), "--data", str(sim_dir / "lifetimes.csv")]
        assert main(args + ["--out", str(tmp_path / "h")]) == EXIT_OK
        assert main(args + ["--system-only", "--out", str(tmp_path / "s")]) == EXIT_OK

        def band(path):
            raw = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 3, 4))
            return raw[:, 0], raw[:, 2] - raw[:, 1]

        ht, hw = band(tmp_path / "h" / "system_cdf.csv")
        st_, sw = band(tmp_path / "s" / "system_cdf.csv")
        shared = np.intersect1d(ht, st_)
        hi = np.searchsorted(ht, shared)
        si = np.searchsorted(st_, shared)
        assert hw[hi].mean() < sw[si].mean()

    def test_precision_clamps_name_the_fit(self, tmp_path):
        # Every clamp, the merged prior's included, is raised from the fold in pipeline.py.
        args = priors_fit_args(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PrecisionRecoveryWarning)
            assert main(args) == EXIT_OK
        files = [w.filename for w in caught if issubclass(w.category, PrecisionRecoveryWarning)]
        assert files
        assert all(f.endswith("relfuse/pipeline.py") for f in files), set(files)

    def test_fit_on_component_rows_alone(self, tmp_path):
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--seed", "0", "--out", str(sim_dir)]) == EXIT_OK
        components = {c.id for c in demo_config().spec.root.iter_components()}
        header, *rows = (sim_dir / "lifetimes.csv").read_text().splitlines()
        kept = [row for row in rows if row.split(",")[0] in components]
        assert 0 < len(kept) < len(rows)
        (tmp_path / "components.csv").write_text("\n".join([header, *kept]) + "\n")
        args = ["fit", "--rbd", str(sim_dir / "system.rbd"), "--data", str(tmp_path / "components.csv")]
        assert main([*args, "--out", str(tmp_path / "fit")]) == EXIT_OK
        header, *rows = (tmp_path / "fit" / "system_cdf.csv").read_text().splitlines()
        assert header.startswith("t,mean,") and rows

    def test_fit_reads_a_diagram_with_a_byte_order_mark(self, tmp_path):
        (tmp_path / "d.csv").write_text("node,time,event\na,1,1\nb,2,0\nsys,1.5,1\n")
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            (tmp_path / f"{name}.rbd").write_text(mark + "sys@series(a, b)\n", encoding="utf-8")
            args = ["fit", "--rbd", str(tmp_path / f"{name}.rbd"), "--data", str(tmp_path / "d.csv")]
            assert main([*args, "--out", str(tmp_path / name)]) == EXIT_OK
        marked, plain = (tmp_path / name / "system_cdf.csv" for name in ("marked", "plain"))
        assert marked.read_bytes() == plain.read_bytes()

    def test_simulate_reads_a_config_with_a_byte_order_mark(self, tmp_path):
        components = {"a": {"shape": 2.0, "scale": 100.0}, "b": {"shape": 1.5, "scale": 80.0}}
        config = {"rbd": "sys@series(a, b)", "components": components}
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            (tmp_path / f"{name}.json").write_text(mark + json.dumps(config), encoding="utf-8")
            args = ["simulate", "--config", str(tmp_path / f"{name}.json"), "--seed", "4"]
            assert main([*args, "--out", str(tmp_path / name)]) == EXIT_OK
        marked, plain = (tmp_path / name / "lifetimes.csv" for name in ("marked", "plain"))
        assert marked.read_bytes() == plain.read_bytes()

    def test_simulate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--seed", "11", "--out", str(a)])
        main(["simulate", "--seed", "11", "--out", str(b)])
        assert (a / "lifetimes.csv").read_bytes() == (b / "lifetimes.csv").read_bytes()


class TestCliErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(
            ["fit", "--rbd", str(tmp_path / "no.rbd"), "--data", str(tmp_path / "no.csv")]
        )
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_bad_rbd_syntax(self, tmp_path, capsys):
        (tmp_path / "bad.rbd").write_text("series(a,")
        (tmp_path / "d.csv").write_text("node,time,event\na,1,1\n")
        code = main(
            ["fit", "--rbd", str(tmp_path / "bad.rbd"), "--data", str(tmp_path / "d.csv")]
        )
        assert code == EXIT_INPUT
        assert "line 1" in capsys.readouterr().err

    def test_diagram_fault_names_the_file(self, tmp_path, capsys):
        (tmp_path / "s.rbd").write_text("series(a,\n b c)")
        (tmp_path / "d.csv").write_text("node,time,event\na,1,1\n")
        code = main(["fit", "--rbd", str(tmp_path / "s.rbd"), "--data", str(tmp_path / "d.csv")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {tmp_path / 's.rbd'}: line 2, column 4: expected ',' or ')', found 'c'\n"

    def test_config_diagram_fault_names_the_file(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"rbd": "series(a", "components": {}}))
        code = main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "sim")])
        assert code == EXIT_INPUT and not (tmp_path / "sim").exists()
        error = f"error: {tmp_path / 'c.json'}: rbd: line 1, column 9: expected ',' or ')', found end of input\n"
        assert capsys.readouterr().err == error

    # Per input kind, its file with one byte that is not UTF-8, and where that byte is.
    BAD_BYTES = {
        "diagram": ("s.rbd", b"sys@series(\n  a, \xff b)\n", "line 2, column 6: not UTF-8 text (byte 0xff)"),
        "lifetimes": ("d.csv", b"node,time,event\na,1,1\nb,2\xfe,0\n", "line 3, column 4: not UTF-8 text (byte 0xfe)"),
        "priors": ("p.csv", b"node,time,cdf,precision\r\nsys,1,0.5,2\r\nsys,2,1,\x802\r\n",
                   "line 3, column 9: not UTF-8 text (byte 0x80)"),
        "overlay": ("true_system_cdf.csv", b"\xef\xbb\xbft,cdf\r0,0\r1,1\xc3\r",
                    "line 3, column 4: not UTF-8 text (byte 0xc3)"),
        "config": ("c.json", b'{"rbd": "sys@series(a, b)",\n "components": {"\xe9": {}}}',
                   "line 2, column 18: not UTF-8 text (byte 0xe9)"),
    }

    @pytest.mark.parametrize("kind", BAD_BYTES)
    def test_a_bad_byte_names_its_file_line_and_column(self, tmp_path, capsys, kind):
        # A CRLF or a lone CR ends a line, a leading byte-order mark is not counted.
        (tmp_path / "s.rbd").write_text("sys@series(a, b)\n")
        (tmp_path / "d.csv").write_text("node,time,event\na,1,1\nb,2,0\nsys,1.5,1\n")
        (tmp_path / "p.csv").write_text("node,time,cdf,precision\nsys,1,0.5,2\nsys,2,1,2\n")
        (tmp_path / "true_system_cdf.csv").write_text("t,cdf\n0,0\n1,1\n")
        name, data, where = self.BAD_BYTES[kind]
        (tmp_path / name).write_bytes(data)
        out = tmp_path / "out"
        if kind == "config":
            args = ["simulate", "--config", str(tmp_path / name), "--out", str(out)]
        else:
            args = ["fit", "--rbd", str(tmp_path / "s.rbd"), "--data", str(tmp_path / "d.csv"),
                    "--priors", str(tmp_path / "p.csv"), "--svg", "--out", str(out)]
        assert main(args) == EXIT_INPUT and not out.exists()
        assert capsys.readouterr() == ("", f"error: {tmp_path / name} {where}\n")

    def test_dangling_dataset_label(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys@series(a, b)")
        (tmp_path / "d.csv").write_text("node,time,event\nzz,2,1\nghost,1,1\na,1,1\n")
        out = tmp_path / "out"
        code = main(["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv"), "--out", str(out)])
        assert code == EXIT_INPUT and not out.exists()
        # The fit's one BindingError is the only line: it stops the fit before 'b' is reported.
        error = "error: dataset 'ghost' does not match any node label; dataset 'zz' does not match any node label\n"
        assert capsys.readouterr() == ("", error)

    def test_bad_level(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys")
        (tmp_path / "d.csv").write_text("node,time,event\nsys,1,1\n")
        code = main(
            [
                "fit",
                "--rbd", str(tmp_path / "sys.rbd"),
                "--data", str(tmp_path / "d.csv"),
                "--level", "1.5",
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_seed_out_of_range(self, tmp_path, capsys, monkeypatch, command, seed):
        # The flag is checked before any work: no censoring calibration, no checks.
        def work(*args):
            raise AssertionError("ran before checking --seed")

        monkeypatch.setattr(relfuse.demo, "censoring_rate", work)
        monkeypatch.setattr(relfuse.cli, "run_checks", work)
        args = [command, "--seed", str(seed)]
        if command == "simulate":
            args += ["--out", str(tmp_path / "sim")]
        assert main(args) == EXIT_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: --seed ") and str(seed) in line
        assert not (tmp_path / "sim").exists()

    def test_degenerate_inputs_exit_two(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys")
        (tmp_path / "d.csv").write_text("node,time,event\n")
        (tmp_path / "p.csv").write_text(
            "node,time,cdf,precision\nsys,1,0.4,0\nsys,2,1.0,0\n"
        )
        code = main(
            [
                "fit",
                "--rbd", str(tmp_path / "sys.rbd"),
                "--data", str(tmp_path / "d.csv"),
                "--priors", str(tmp_path / "p.csv"),
            ]
        )
        assert code == EXIT_DEGENERATE
        assert "estimable" in capsys.readouterr().err

    def test_unbound_component_is_reported_not_fatal(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys@series(a, b)")
        (tmp_path / "d.csv").write_text(
            "node,time,event\na,1,1\na,2,1\nsys,1.5,1\nsys,2.5,1\n"
        )
        code = main(
            [
                "fit",
                "--rbd", str(tmp_path / "sys.rbd"),
                "--data", str(tmp_path / "d.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_OK
        warning = (
            "warning: component 'b' has neither data nor a prior; the fused prior of 'sys' is dropped, "
            "so 'sys' uses none of the data or priors of 'a'\n"
        )
        assert capsys.readouterr().err == warning

    def test_uninformed_warnings_name_the_unused_labels(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys@series(sub@series(parallel(a, b), c@series(e, f)), d)")
        (tmp_path / "d.csv").write_text(
            "node,time,event\na,1,1\nc,2,1\nf,2,1\nd,3,1\nsub,1.5,1\nsys,2.5,1\n"
        )
        code = main(
            ["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        head = "warning: component '{}' has neither data nor a prior; the fused prior of '{}' is dropped"
        # Bottom-up: 'c' drops its own fused prior before 'sub' drops everything below it.
        assert capsys.readouterr().err.splitlines() == [
            head.format("e", "c") + ", so 'c' uses none of the data or priors of 'f'",
            head.format("b", "sub") + ", so 'sub' uses none of the data or priors of 'a', 'c', 'f'",
        ]

    def test_uninformed_warning_without_unused_labels(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys@series(a, b)")
        (tmp_path / "d.csv").write_text("node,time,event\nsys,1.5,1\nsys,2.5,1\n")
        code = main(
            ["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        head = "warning: component '{}' has neither data nor a prior; the fused prior of 'sys' is dropped"
        assert capsys.readouterr().err.splitlines() == [head.format("a"), head.format("b")]

    @pytest.mark.parametrize(
        "row",
        ["system,100,0.5,nan", "system,100,nan,20"],
        ids=["nan_precision", "nan_cdf"],
    )
    def test_nan_prior_is_rejected(self, tmp_path, capsys, row):
        (tmp_path / "sys.rbd").write_text("system")
        (tmp_path / "d.csv").write_text("node,time,event\nsystem,150,1\n")
        (tmp_path / "p.csv").write_text(f"node,time,cdf,precision\n{row}\nsystem,200,1.0,20\n")
        code = main(
            [
                "fit",
                "--rbd", str(tmp_path / "sys.rbd"),
                "--data", str(tmp_path / "d.csv"),
                "--priors", str(tmp_path / "p.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT
        assert "row 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCliHostileInputs:
    """Hostile diagrams, configs and paths end in ``error:`` and exit 1; ``main`` raises nothing."""

    def fit(self, tmp_path, rbd, data):
        return main(["fit", "--rbd", str(rbd), "--data", str(data), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "source",
        [nested_series_dsl(1200), nested_series_json(MAX_DEPTH + 1), nested_series_json(1200)],
        ids=["dsl_1200", "json_past_limit", "json_1200"],
    )
    def test_deep_diagram(self, tmp_path, capsys, source):
        (tmp_path / "deep.rbd").write_text(source)
        (tmp_path / "d.csv").write_text("node,time,event\na,1,1\n")
        assert self.fit(tmp_path, tmp_path / "deep.rbd", tmp_path / "d.csv") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "node",
        [
            {"type": "component", "id": "a", "label": {}},
            {"type": "component", "id": ["x"]},
            {"type": "component", "id": "a", "label": 5},
        ],
        ids=["label_object", "id_list", "label_number"],
    )
    def test_non_string_json_fields(self, tmp_path, capsys, node):
        (tmp_path / "sys.json").write_text(json.dumps(node))
        (tmp_path / "d.csv").write_text("node,time,event\na,1,1\n")
        assert self.fit(tmp_path, tmp_path / "sys.json", tmp_path / "d.csv") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_oversized_csv_field(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("a")
        (tmp_path / "d.csv").write_text(f"node,time,event\n{'a' * 131_073},1,1\n")
        assert self.fit(tmp_path, tmp_path / "sys.rbd", tmp_path / "d.csv") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_deep_sim_config(self, tmp_path, capsys):
        (tmp_path / "deep.json").write_text(nested_series_json(3000))
        args = ["simulate", "--config", str(tmp_path / "deep.json"), "--out", str(tmp_path / "sim")]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "shape, scale, n",
        [
            (2.0, "1e400", 5),
            ("1e400", 100.0, 5),
            ("NaN", 100.0, 5),
            (2.0, 100.0, "1e400"),
            (2.0, 100.0, MAX_N_PER_NODE + 1),
        ],
        ids=["scale_1e400", "shape_1e400", "shape_nan", "n_per_node_1e400", "n_per_node_past_max"],
    )
    def test_nonfinite_config_value(self, tmp_path, capsys, shape, scale, n):
        # Written as raw JSON text: json reads 1e400 as inf and NaN as nan.
        (tmp_path / "sim.json").write_text(
            f'{{"rbd": "sys@series(a, b)", "n_per_node": {n}, "components": '
            f'{{"a": {{"shape": {shape}, "scale": {scale}}}, "b": {{"shape": 1.5, "scale": 80.0}}}}}}'
        )
        args = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sim.json" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "n, shown",
        [("30.7", "30.7"), ("true", "true"), ('"300"', '"300"'), ("1e2", "100.0")],
        ids=["fraction", "bool", "string", "exponent"],
    )
    def test_n_per_node_not_an_integer(self, tmp_path, capsys, n, shown):
        (tmp_path / "sim.json").write_text(
            f'{{"rbd": "a", "n_per_node": {n}, "components": {{"a": {{"shape": 2.0, "scale": 100.0}}}}}}'
        )
        args = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")]
        assert main(args) == EXIT_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {tmp_path / 'sim.json'}: n_per_node must be an integer, got {shown}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "component, extra, field, shown",
        [
            ({"shape": "2", "scale": 100.0}, {}, "components.a.shape", '"2"'),
            ({"shape": 2.0, "scale": True}, {}, "components.a.scale", "true"),
            ({"shape": 2.0, "scale": None}, {}, "components.a.scale", "null"),
            ({"shape": 2.0, "scale": 100.0}, {"censor_fraction": False}, "censor_fraction", "false"),
            ({"shape": 2.0, "scale": 100.0}, {"censor_fraction": "0.15"}, "censor_fraction", '"0.15"'),
        ],
        ids=["shape_string", "scale_bool", "scale_null", "censor_fraction_bool", "censor_fraction_string"],
    )
    def test_config_value_not_a_number(self, tmp_path, capsys, component, extra, field, shown):
        config = {"rbd": "a", "components": {"a": component}, "n_per_node": 5, **extra}
        (tmp_path / "sim.json").write_text(json.dumps(config))
        args = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")]
        assert main(args) == EXIT_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {tmp_path / 'sim.json'}: {field} must be a number, got {shown}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "rbd, component, message",
        [
            ("a", [2, 1], "components.a must be an object with shape and scale, got [2, 1]"),
            (5, {"shape": 2.0, "scale": 100.0}, "rbd must be diagram source text, got 5"),
            ("a", {"shape": 2.0}, "components.a is missing required key 'scale'"),
        ],
        ids=["component_list", "rbd_number", "scale_missing"],
    )
    def test_malformed_config_names_the_field(self, tmp_path, capsys, rbd, component, message):
        config = {"rbd": rbd, "components": {"a": component}, "n_per_node": 5}
        (tmp_path / "sim.json").write_text(json.dumps(config))
        args = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")]
        assert main(args) == EXIT_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {tmp_path / 'sim.json'}: {message}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "shape, scale", [(1.0, 1e300), (1e-5, 1.0)], ids=["scale_1e300", "shape_1e-5"]
    )
    def test_censoring_share_missed(self, tmp_path, capsys, shape, scale):
        config = {
            "rbd": "a",
            "components": {"a": {"shape": shape, "scale": scale}},
            "n_per_node": 5,
        }
        (tmp_path / "sim.json").write_text(json.dumps(config))
        args = ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == EXIT_INPUT
        assert caught == []
        # One line naming the config file and the node whose calibration failed.
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {tmp_path / 'sim.json'}: node 'a': ")
        assert "reaches a censored share of" in line
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "text, where",
        [
            ("t,cdf\n", ""),
            ("t,cdf\n1,0.5,2\n", " row 2"),
            ("t,cdf\n1,nan\n", " row 2"),
            ("t,cdf\n1,x\n", " row 2"),
            ("1.0,0.2\n1.5,0.5\n", ""),
            ("", ""),
            ("t,cdf\n-1e308,0\n", " row 2"),
            ("t,cdf\n1,1e308\n", " row 2"),
            ("t,cdf\n\n0,0\n2,inf\n", " row 4"),
        ],
        ids=[
            "header_only", "three_columns", "nan", "not_a_number", "no_header", "empty",
            "negative_time", "cdf_above_one", "infinite_cdf_after_blank_line",
        ],
    )
    def test_malformed_overlay(self, tmp_path, capsys, text, where):
        (tmp_path / "sys.rbd").write_text("sys")
        (tmp_path / "d.csv").write_text("node,time,event\nsys,1,1\nsys,2,1\n")
        (tmp_path / "true_system_cdf.csv").write_text(text)
        args = ["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv")]
        assert main([*args, "--svg", "--out", str(tmp_path / "out")]) == EXIT_INPUT
        # One line naming the file, and the bad row's line in it when one row is at fault.
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {tmp_path / 'true_system_cdf.csv'}{where}: ")
        assert not (tmp_path / "out").exists()

    def test_one_row_overlay_is_drawn(self, tmp_path):
        (tmp_path / "sys.rbd").write_text("sys")
        (tmp_path / "d.csv").write_text("node,time,event\nsys,1,1\nsys,2,1\n")
        (tmp_path / "true_system_cdf.csv").write_text("t,cdf\n1.5,0.5\n")
        args = ["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv")]
        assert main([*args, "--svg", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "true CDF" in (tmp_path / "out" / "system_cdf.svg").read_text()

    @pytest.mark.parametrize("which", ["rbd", "data"])
    def test_directory_path(self, tmp_path, capsys, which):
        (tmp_path / "sys.rbd").write_text("sys")
        (tmp_path / "d.csv").write_text("node,time,event\nsys,1,1\n")
        paths = {"rbd": tmp_path / "sys.rbd", "data": tmp_path / "d.csv"}
        paths[which] = tmp_path
        assert self.fit(tmp_path, paths["rbd"], paths["data"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")


# What each entry point of ``conftest.ENTRY_POINTS`` does in a new
# interpreter: its exit codes, the modules it must load (exact names) and must
# not load (``fnmatch`` patterns), the ``reuse`` checks that must hold, and the
# paths under its scratch directory that it writes, or must not create.  Each
# test below checks one row, or one row's module facts on a single package.
FIT = "relfuse fit --priors --svg"
FOOTPRINT = {
    # relfuse reaches scipy only through relfuse._scipy, when a function first
    # needs it: importing relfuse loads not even the scipy package (scipy.stats
    # alone would be the bulk of every CLI start's import time).
    "import relfuse": {"codes": [], "unloaded": ["scipy", "scipy.*"]},
    "import relfuse.cli": {"codes": [], "unloaded": ["scipy", "scipy.*"]},
    # scipy.special is imported inside the functions that draw a band or check
    # the matched beta, so a rejected input, a file that is not UTF-8 or a JSON
    # integer past the digit limit included, neither loads it nor writes.
    "rejected inputs": {"codes": [EXIT_INPUT] * 6, "unloaded": ["scipy.special", "scipy.special.*"],
                        "absent": ["sim", "fit"]},
    # The calibration loads QUADPACK's extension alone, not the scipy.integrate
    # package and the subpackages it imports; a later import of the package
    # reuses the extension and is ``relfuse.oracle.integrate``, which
    # perfbench's tracing reads and replaces.  The median of the leaf scales
    # does without np.median, which imports numpy.ma.
    "relfuse simulate": {
        "codes": [EXIT_OK],
        "loaded": ["scipy.integrate._quadpack"],
        "unloaded": ["scipy.integrate._quadpack_py", "scipy.optimize", "scipy.sparse", "scipy.special",
                     "scipy.linalg", "numpy.ma"],
        "reuse": ["quadpack", "integrate"],
        "writes": ["system.rbd", "lifetimes.csv", "true_system_cdf.csv"],
    },
    # The bands load the compiled special ufuncs alone, not the scipy.special
    # package and, through its array-API backends, numpy.testing and f2py; a
    # later import of the package reuses them.  The fit integrates nothing, and
    # its grid unions do without np.union1d, which imports numpy.ma.
    FIT: {
        "codes": [EXIT_OK],
        "loaded": ["scipy.special._ufuncs"],
        "unloaded": ["scipy.special", "scipy._lib.array_api_compat", "numpy.f2py", "numpy.testing",
                     "scipy.integrate.*", "numpy.ma"],
        "reuse": ["ufuncs"],
        "writes": ["fit/system_cdf.csv", "fit/system_cdf.svg"],
    },
}


def footprint_violations(entry_run, entry: str, package: str = "") -> list[str]:
    """The facts of ``FOOTPRINT[entry]`` that its run breaks; with ``package``, its module facts on that package alone."""
    row, run = FOOTPRINT[entry], entry_run(entry)

    def on_package(module: str) -> bool:
        return not package or module == package or module.startswith(package + ".")

    broken = [f"exit codes {run.codes}"] if run.codes != row["codes"] else []
    broken += [f"{m} not loaded" for m in row.get("loaded", []) if on_package(m) and m not in run.loaded]
    broken += [f"{m} loaded" for pattern in row["unloaded"]
               for m in fnmatch.filter(sorted(run.loaded), pattern) if on_package(m)]
    broken += [f"reuse {key} fails" for key in row.get("reuse", []) if not run.reuse[key]]
    broken += [f"{f} not written" for f in row.get("writes", []) if not (run.tmp / f).is_file()]
    broken += [f"{d} created" for d in row.get("absent", []) if (run.tmp / d).exists()]
    return broken


@pytest.mark.parametrize("module", ["relfuse", "relfuse.cli"])
def test_import_loads_no_scipy(entry_run, module):
    assert footprint_violations(entry_run, f"import {module}", "scipy") == []


@pytest.mark.parametrize("module", ["relfuse", "relfuse.cli"])
def test_import_leaves_scipy_special_unloaded(entry_run, module):
    assert footprint_violations(entry_run, f"import {module}", "scipy.special") == []


@pytest.mark.parametrize("module", ["relfuse", "relfuse.cli"])
def test_import_leaves_scipy_integrate_unloaded(entry_run, module):
    assert footprint_violations(entry_run, f"import {module}", "scipy.integrate") == []


def test_cli_import_skips_scipy_stats(entry_run):
    assert footprint_violations(entry_run, "import relfuse.cli", "scipy.stats") == []


def test_input_errors_leave_scipy_special_unloaded(entry_run):
    assert footprint_violations(entry_run, "rejected inputs") == []


def test_simulate_skips_the_scipy_integrate_package(entry_run):
    assert footprint_violations(entry_run, "relfuse simulate", "scipy") == []


def test_simulate_loads_the_bound_module(entry_run):
    assert footprint_violations(entry_run, "relfuse simulate", "scipy.integrate") == []


def test_simulate_leaves_numpy_ma_unloaded(entry_run):
    assert footprint_violations(entry_run, "relfuse simulate", "numpy.ma") == []


def test_fit_loads_the_special_ufuncs_alone(entry_run):
    assert footprint_violations(entry_run, FIT) == []


def test_fit_leaves_scipy_integrate_unloaded(entry_run):
    assert footprint_violations(entry_run, FIT, "scipy.integrate") == []


def test_fit_leaves_numpy_ma_unloaded(entry_run):
    assert footprint_violations(entry_run, FIT, "numpy.ma") == []


# The finder misses one extension, the list names an extension this scipy
# does not ship, or an extension is run before the ones it imports and fails
# partway: each time the module is imported through the package, and no
# half-run module stays registered.
LOADER_FAULTS = {
    "missing_spec": (
        "real = _scipy._finder\n"
        "class Missing:\n"
        "    def __init__(self, finder):\n"
        "        self.finder = finder\n"
        "    def find_spec(self, name):\n"
        "        return None if name == 'scipy.special._gufuncs' else self.finder.find_spec(name)\n"
        "_scipy._finder = lambda subpackage: Missing(real(subpackage))\n"
        "ufuncs = _scipy.special_ufuncs()\n"
    ),
    "absent_name": (
        "names = list(_scipy._SPECIAL_UFUNCS)\n"
        "names.insert(2, '_no_such_extension')\n"
        "ufuncs = _scipy._load('special', tuple(names))\n"
    ),
    "failed_exec": "ufuncs = _scipy._load('special', ('_ufuncs',))\n",
}


@pytest.mark.parametrize("fault", sorted(LOADER_FAULTS))
def test_loader_falls_back_to_the_package_import(fault):
    code = (
        "import sys\n"
        "from relfuse import _scipy\n"
        f"{LOADER_FAULTS[fault]}"
        "packaged = 'scipy.special' in sys.modules\n"
        "import scipy.special\n"
        "loaded = {name: m for name, m in sys.modules.items() if name.startswith('scipy.special.')}\n"
        "running = [name for name, m in loaded.items() if getattr(m.__spec__, '_initializing', False)]\n"
        "print(packaged, ufuncs is sys.modules['scipy.special._ufuncs'], scipy.special._ufuncs is ufuncs,\n"
        "      scipy.special.betaincinv is ufuncs.betaincinv, _scipy.special_ufuncs() is ufuncs,\n"
        "      'scipy.special._no_such_extension' in loaded, running)"
    )
    assert run_fresh(code).splitlines()[-1] == "True True True True True False []"


def test_concurrent_first_bands_load_the_ufuncs_once():
    # Seven threads export while the eighth imports scipy.special the usual
    # way: none may see a module the other side has registered but not run.
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from relfuse.bsp import dp_prior, posterior_update\n"
        "from relfuse.pipeline import curve_export\n"
        "grid = np.linspace(1.0, 40.0, 40)\n"
        "post = posterior_update(dp_prior(grid, grid / 40.0, 5.0), grid[::3] + 0.5, grid[::3] < 30.0)\n"
        "before = 'scipy.special._ufuncs' in sys.modules\n"
        "barrier = threading.Barrier(8)\n"
        "results = [None] * 8\n"
        "def work(i):\n"
        "    barrier.wait(timeout=60)\n"
        "    if i == 0:\n"
        "        import scipy.special\n"
        "        results[i] = scipy.special.betaincinv\n"
        "    else:\n"
        "        results[i] = (curve_export(post), sys.modules['scipy.special._ufuncs'])\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=120)\n"
        "alive = any(t.is_alive() for t in threads)\n"
        "ref = curve_export(post)\n"
        "exports = list(filter(None, results[1:]))\n"
        "equal = all(np.array_equal(ex.lower, ref.lower) and np.array_equal(ex.upper, ref.upper)\n"
        "            for ex, _ in exports)\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "same = all(m is ufuncs for _, m in exports) and results[0] is ufuncs.betaincinv\n"
        "print(before, alive, None in results, equal, same)"
    )
    assert run_fresh(code).splitlines()[-1] == "False False False True True"


def test_concurrent_first_use_of_scipy_integrate():
    # After ``import relfuse``, eight threads first use scipy.integrate at
    # once, two per route: the user's own import, the three-beta CDF grid,
    # ``relfuse.oracle.integrate`` and a cold censoring calibration.  No
    # thread may see a module that another has registered but not run.
    code = (
        "import sys, threading\n"
        "import relfuse\n"
        "from relfuse.oracle import WeibullLifetime, censoring_rate\n"
        "def user_quad():\n"
        "    import scipy.integrate\n"
        "    return scipy.integrate.quad(lambda y: y * y, 0.0, 1.0)[0].hex()\n"
        "def cdf_grid():\n"
        "    return relfuse.three_beta_product_cdf_grid()[1].tobytes()\n"
        "def oracle_quad():\n"
        "    return relfuse.oracle.integrate.quad(lambda y: y * y, 0.0, 1.0)[0].hex()\n"
        "def calibration():\n"
        "    return censoring_rate(WeibullLifetime(2.0, 880.0), 0.15).hex()\n"
        "calls = [user_quad, cdf_grid, oracle_quad, calibration] * 2\n"
        "loaded = any(m.startswith('scipy') for m in sys.modules)\n"
        "barrier = threading.Barrier(len(calls))\n"
        "results, errors = {}, []\n"
        "def work(i):\n"
        "    barrier.wait(timeout=60)\n"
        "    try:\n"
        "        results[i] = calls[i]()\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=120)\n"
        "alive = any(t.is_alive() for t in threads)\n"
        "equal = all(results.get(i) == results.get(i + 4) == calls[i]() for i in range(4))\n"
        "print(loaded, alive, errors, equal, results.get(0) == results.get(2))"
    )
    assert run_fresh(code).splitlines()[-1] == "False False [] True True"


@pytest.mark.parametrize("fit", [fit_system, fit_system_only])
@pytest.mark.parametrize(
    "extra_data, extra_prior, message",
    [
        ("sytem", None, "dataset 'sytem' does not match any node label"),
        (None, "ghost", "prior 'ghost' does not match any node label"),
        ("x", "y", "dataset 'x' does not match any node label; prior 'y' does not match any node label"),
    ],
    ids=["dataset", "prior", "both"],
)
def test_unmatched_labels_are_rejected(fit, extra_data, extra_prior, message):
    # A misspelt label must not leave its data or prior out of the fit silently.
    datasets = [dataset("a", [1.0, 2.0]), dataset("b", [1.5]), dataset("sys", [1.2, 2.2])]
    prior = dp_prior(np.array([1.0, 3.0]), np.array([0.4, 1.0]), 2.0)
    priors = {"sys": prior}
    if extra_data is not None:
        datasets.append(dataset(extra_data, [1.0]))
    if extra_prior is not None:
        priors[extra_prior] = prior
    with pytest.raises(BindingError) as info:
        fit(parse_rbd("sys@series(a, b)"), datasets, priors)
    assert str(info.value) == message
