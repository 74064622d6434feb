"""In-memory span tracer for relfuse, installed from outside the package.

``install_probes`` replaces relfuse's public layer functions with wrappers
that record one span per call: name, start, end, the enclosing span and the
operation it belongs to.  Each function is replaced in every loaded relfuse
module that binds it, so calls through ``from .bsp import second_moment`` in
``fusion`` or ``pipeline`` are caught as well as calls inside ``bsp``.
Nothing under ``src/`` is modified; ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of the spans nested
directly inside it.  Counters (calls to ``scipy.integrate.quad`` from the
oracle, points of ``moments_of`` curves, root grid sizes, bytes written by
the CSV/SVG writers) are kept beside the spans.

This module imports nothing from relfuse or numpy at import time, so the CLI
child can time its own ``import relfuse.cli``.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  Several functions may share a span name:
# the series/parallel combine is reported as one layer.
SPAN_PROBES = (
    ("relfuse.bsp", "posterior_update", "bsp.posterior_update"),
    ("relfuse.bsp", "second_moment", "bsp.second_moment"),
    ("relfuse.bsp", "credible_interval", "bsp.credible_interval"),
    ("relfuse.fusion", "moments_of", "fusion.moments_of"),
    ("relfuse.fusion", "recover_precision", "fusion.recover_precision"),
    ("relfuse.fusion", "align_grids", "fusion.combine"),
    ("relfuse.fusion", "combine_series", "fusion.combine"),
    ("relfuse.fusion", "combine_parallel", "fusion.combine"),
    ("relfuse.fusion", "merge_priors", "fusion.merge_priors"),
    ("relfuse.pipeline", "fit_system", "pipeline.fit_system"),
    ("relfuse.pipeline", "fit_system_only", "pipeline.fit_system_only"),
    ("relfuse.pipeline", "curve_export", "pipeline.curve_export"),
    ("relfuse.oracle", "censoring_rate", "oracle.censoring_rate"),
    ("relfuse.oracle", "simulate_lifetimes", "oracle.simulate_lifetimes"),
    ("relfuse.dataio", "load_lifetimes", "dataio.load_lifetimes"),
    ("relfuse.dataio", "load_prior_spec", "dataio.load_prior_spec"),
    ("relfuse.dataio", "save_lifetimes", "dataio.save_lifetimes"),
    ("relfuse.dataio", "export_curves", None),  # named by its format argument
    ("relfuse.rbd", "load_system_source", "rbd.load_system_source"),
    ("relfuse.rbd", "validate_bindings", "rbd.validate_bindings"),
    ("relfuse.cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(
    sorted({name for _, _, name in SPAN_PROBES if name} | {"dataio.export_csv", "dataio.export_svg"})
)
# Span names whose call counts are reported.
CALL_COUNTED = ("bsp.second_moment", "bsp.credible_interval")
COUNTERS = (
    "oracle.quad_calls",
    "fusion.moments_of.points",
    "pipeline.root_grid_points",
    "dataio.bytes_written",
    "cli.import_s",
)


def _export_span_name(args, kwargs) -> str:
    fmt = kwargs.get("format", args[2] if len(args) > 2 else "csv")
    return f"dataio.export_{fmt}"


def _bytes_written(destination) -> int:
    if isinstance(destination, (str, os.PathLike)) and os.path.exists(destination):
        return os.path.getsize(destination)
    return 0


def _after_moments_of(tracer, args, kwargs, result) -> None:
    tracer.count("fusion.moments_of.points", len(result))


def _after_fit_system(tracer, args, kwargs, result) -> None:
    tracer.count("pipeline.root_grid_points", int(result.posterior.grid.size))


def _after_write(tracer, args, kwargs, result) -> None:
    destination = kwargs.get("destination", args[1] if len(args) > 1 else None)
    tracer.count("dataio.bytes_written", _bytes_written(destination))


_AFTER = {
    "moments_of": _after_moments_of,
    "fit_system": _after_fit_system,
    "save_lifetimes": _after_write,
    "export_curves": _after_write,
}


class _CountingModule:
    """Stands in for a module inside one relfuse module, counting calls to one function."""

    def __init__(self, module, attr: str, wrapped):
        self._module = module
        self._attr = attr
        self._wrapped = wrapped

    def __getattr__(self, name):
        if name == self._attr:
            return self._wrapped
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a span name, or a function of ``(args, kwargs)`` giving one.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(self.start)
            self.name_id.append(self._intern(span_name))
            self.parent.append(self._open[-1] if self._open else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "relfuse" or mod_name.startswith("relfuse.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install_probes(self) -> None:
        """Wrap every probe of a loaded module and count the oracle's quadratures."""
        for mod_name, attr, name in SPAN_PROBES:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            original = getattr(module, attr)
            span_name = name if name is not None else _export_span_name
            self._replace_everywhere(original, self.wrap(original, span_name, _AFTER.get(attr)))
        oracle = sys.modules["relfuse.oracle"]
        integrate = oracle.integrate
        quad = integrate.quad

        def counted_quad(*args, **kwargs):
            self.count("oracle.quad_calls")
            return quad(*args, **kwargs)

        self._patched.append((oracle, "integrate", integrate))
        oracle.integrate = _CountingModule(integrate, "quad", counted_quad)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its direct children's."""
        child = [0.0] * len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        return [d - c for d, c in zip(durations, child)]

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for nid, value in zip(self.name_id, self.self_times()):
            name = self.names[nid]
            self_s[name] = self_s.get(name, 0.0) + value
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "counters": self.counters,
        }

    def merge_json(self, data: dict, op_id: int) -> None:
        """Append another process's spans, tagging them with ``op_id``."""
        offset = len(self.start)
        ids = [self._intern(n) for n in data["names"]]
        self.name_id.extend(ids[i] for i in data["name_id"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.op.extend([op_id] * len(data["name_id"]))
        for name, value in data["counters"].items():
            self.count(name, value)
