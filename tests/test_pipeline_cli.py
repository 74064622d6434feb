import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import relfuse
from relfuse.bsp import BetaStacyProcess, LifetimeSample, dp_prior, posterior_update
from relfuse.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main
from relfuse.dataio import Dataset
from relfuse.demo import MAX_N_PER_NODE, DemoConfig, demo_config, load_sim_config
from relfuse.errors import BindingError
from relfuse.fusion import (
    align_grids,
    combine_parallel,
    combine_series,
    merge_priors,
    moments_of,
    recover_precision,
)
from relfuse.pipeline import curve_export, fit_system, fit_system_only
from relfuse.rbd import MAX_DEPTH, parse_rbd

from conftest import nested_series_dsl, nested_series_json


def dataset(label, times, events=None):
    events = events if events is not None else [1] * len(times)
    return Dataset(label, tuple(LifetimeSample(t, e) for t, e in zip(times, events)))


LEAF_DATA = {
    "a": dataset("a", [1.0, 2.0, 4.0], [1, 1, 0]),
    "b": dataset("b", [1.5, 3.0, 3.5]),
    "c": dataset("c", [2.5, 5.0], [1, 0]),
}
SYS_DATA = dataset("sys", [1.2, 2.2, 6.0], [1, 1, 0])
SUB_DATA = dataset("sub", [1.8, 2.8])


def leaf_curve(label):
    return moments_of(posterior_update(BetaStacyProcess.noninformative(), LEAF_DATA[label].samples))


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
        want = posterior_update(recover_precision(fused), SYS_DATA.samples)
        assert set(result.node_posteriors) == {"a", "b", "c", "sys"}
        assert_same_process(result.posterior, want)

    def test_labelled_subsystem_applies_its_own_data(self):
        spec = parse_rbd("sys@series(sub@parallel(a, b), c)")
        result = fit_system(spec, [*LEAF_DATA.values(), SUB_DATA, SYS_DATA])
        ab = combine_parallel(*align_grids(leaf_curve("a"), leaf_curve("b")))
        sub = posterior_update(recover_precision(ab), SUB_DATA.samples)
        fused = combine_series(*align_grids(moments_of(sub), leaf_curve("c")))
        want = posterior_update(recover_precision(fused), SYS_DATA.samples)
        assert set(result.node_posteriors) == {"a", "b", "c", "sub", "sys"}
        assert_same_process(result.node_posteriors["sub"], sub)
        assert_same_process(result.posterior, want)

    @pytest.mark.parametrize("sub_data", [(), SUB_DATA.samples], ids=["prior_only", "with_data"])
    def test_group_prior_is_merged(self, sub_data):
        spec = parse_rbd("sys@series(sub@parallel(a, b), c)")
        elicited = dp_prior(np.array([1.5, 3.0, 5.0]), np.array([0.1, 0.4, 1.0]), 2.0)
        datasets = [*LEAF_DATA.values(), SYS_DATA]
        if sub_data:
            datasets.append(Dataset("sub", sub_data))
        result = fit_system(spec, datasets, {"sub": elicited})
        ab = combine_parallel(*align_grids(leaf_curve("a"), leaf_curve("b")))
        sub = posterior_update(merge_priors(recover_precision(ab), elicited), sub_data)
        fused = combine_series(*align_grids(moments_of(sub), leaf_curve("c")))
        want = posterior_update(recover_precision(fused), SYS_DATA.samples)
        assert set(result.node_posteriors) == {"a", "b", "c", "sub", "sys"}
        assert_same_process(result.node_posteriors["sub"], sub)
        assert_same_process(result.posterior, want)


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
        assert "polyline" in svg

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

    def test_dangling_dataset_label(self, tmp_path, capsys):
        (tmp_path / "sys.rbd").write_text("sys@series(a, b)")
        (tmp_path / "d.csv").write_text("node,time,event\nghost,1,1\n")
        code = main(
            ["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv")]
        )
        assert code == EXIT_INPUT
        assert "ghost" in capsys.readouterr().err

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
        assert "info" in capsys.readouterr().out

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
        assert main(args) == EXIT_INPUT
        assert "reaches a censored share of" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "t,cdf\n",
            "t,cdf\n1,0.5,2\n",
            "t,cdf\n1,nan\n",
            "t,cdf\n1,x\n",
            "1.0,0.2\n1.5,0.5\n",
            "",
        ],
        ids=["header_only", "three_columns", "nan", "not_a_number", "no_header", "empty"],
    )
    def test_malformed_overlay(self, tmp_path, capsys, text):
        (tmp_path / "sys.rbd").write_text("sys")
        (tmp_path / "d.csv").write_text("node,time,event\nsys,1,1\nsys,2,1\n")
        (tmp_path / "true_system_cdf.csv").write_text(text)
        args = ["fit", "--rbd", str(tmp_path / "sys.rbd"), "--data", str(tmp_path / "d.csv")]
        assert main([*args, "--svg", "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "true_system_cdf.csv" in err
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


def test_cli_import_skips_scipy_stats():
    # scipy.stats would be the bulk of every CLI start's import time.
    env = dict(os.environ, PYTHONPATH=str(Path(relfuse.__file__).parent.parent))
    code = "import sys, relfuse.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
