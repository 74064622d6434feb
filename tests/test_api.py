"""The package's public API is its library modules' ``__all__``, re-exported."""

import relfuse
from relfuse import bsp, dataio, errors, fusion, oracle, pipeline, rbd

MODULES = (bsp, dataio, errors, fusion, oracle, pipeline, rbd)

# Every name the package exported before it re-exported the modules' lists,
# but three. ``BetaShape`` is gone: ``beta_match`` returns a plain ``(a, b)``
# pair instead. ``PathStats`` and ``simulate_bsp_paths`` are gone:
# ``sample_bsp_paths`` returns the raw paths, and ``validation._moment_z``
# alone turns draws into moments and z-scores.
EARLIER_NAMES = {
    "BetaStacyProcess", "BindingError", "CurveExport", "DataFormatError", "Dataset",
    "DiscreteCdf", "FitResult", "MomentCurve", "NotEstimableError", "PRECISION_CAP",
    "PrecisionRecoveryWarning", "RbdError", "RbdNode", "RbdSyntaxError", "RelfuseError", "StructuralLifetime",
    "SystemSpec", "WeibullLifetime", "__version__", "align_grids", "beta_match", "combine_parallel",
    "combine_series", "credible_interval", "curve_export", "dp_prior", "exact_three_beta_product_pdf",
    "export_curves", "fit_system", "fit_system_only", "format_rbd", "kaplan_meier", "load_lifetimes",
    "load_prior_spec", "load_system_source", "mean", "merge_priors", "moments_of", "parse_rbd",
    "posterior_update", "rbd_from_json", "recover_precision", "save_lifetimes", "second_moment",
    "simulate_lifetimes", "validate_bindings",
}


def test_all_is_the_union_of_the_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "module lists overlap"
    assert sorted(relfuse.__all__) == sorted([*declared, "__version__"])


def test_each_name_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(relfuse, name) is obj, f"{module.__name__}.{name}"
            # A module declares only what it defines, not what it imports.
            assert getattr(obj, "__module__", module.__name__) == module.__name__, f"{module.__name__}.{name}"


# Names the modules declared but the package did not export until then.
JOINED_NAMES = {
    "censoring_rate", "component", "load_cdf_table", "parallel", "save_cdf_table", "series",
    "three_beta_product_cdf_grid",
}


def test_no_earlier_name_is_lost():
    assert EARLIER_NAMES | JOINED_NAMES <= set(relfuse.__all__)


def test_import_loads_only_the_library_modules(entry_run):
    # No front-end module (cli, demo, validation) loads with the package.
    loaded = sorted(m for m in entry_run("import relfuse").loaded if m.startswith("relfuse"))
    assert loaded == ["relfuse", "relfuse._scipy", *(module.__name__ for module in MODULES)]
