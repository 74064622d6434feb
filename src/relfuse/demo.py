"""Built-in demonstration: a hybrid-electric propulsion system.

Nine components in a two-branch layout: three drivetrain parts in series
with a parallel pair of propulsion branches (an electric branch of four
parts and a gas branch of two), every branch and the system itself carrying
their own test data.  The Weibull parameters below are synthetic stand-ins
chosen to give lifetimes on the order of hundreds of hours; they are not
measurements of any real hardware.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .dataio import Dataset, read_text
from .errors import DataFormatError, RbdError
from .oracle import StructuralLifetime, WeibullLifetime, censoring_rate, simulate_lifetimes
from .rbd import SystemSpec, parse_rbd

__all__ = ["DemoConfig", "demo_config", "load_sim_config"]

# 100 times the largest benchmarked size; a config cannot ask for more.
MAX_N_PER_NODE = 100_000

DEMO_RBD_SOURCE = """\
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

_DEMO_WEIBULLS: dict[str, tuple[float, float]] = {
    "propeller": (2.2, 1400.0),
    "drive_shaft": (2.4, 1300.0),
    "gearing": (2.0, 1100.0),
    "motor": (2.1, 950.0),
    "batteries": (1.6, 640.0),
    "motor_controller": (2.3, 1050.0),
    "serpentine_belt": (1.5, 520.0),
    "engine": (1.7, 760.0),
    "gas_delivery": (2.0, 880.0),
}


@dataclass(frozen=True)
class DemoConfig:
    """A simulation configuration: diagram plus per-component Weibulls.

    Frozen, ``components`` included, so the censoring rates calibrated by
    the first ``simulate`` always belong to the fields.
    """

    rbd_source: str
    components: Mapping[str, WeibullLifetime]
    n_per_node: int = 30
    censor_fraction: float = 0.15
    spec: SystemSpec = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))
        object.__setattr__(self, "spec", parse_rbd(self.rbd_source))
        missing = {c.id for c in self.spec.root.iter_components()} - self.components.keys()
        if missing:
            raise ValueError(f"no Weibull parameters for: {', '.join(sorted(missing))}")
        if not (0 < operator.index(self.n_per_node) <= MAX_N_PER_NODE):
            raise ValueError(f"n_per_node must lie in [1, {MAX_N_PER_NODE:,}]")
        if not (0.0 <= self.censor_fraction < 1.0):
            raise ValueError("censor_fraction must lie in [0, 1)")

    def samplers(self) -> dict[str, object]:
        """One lifetime sampler per bindable node label, in diagram order."""
        leaves = self.components
        return {
            n.binding_label: leaves[n.id] if n.kind == "component" else StructuralLifetime(n, leaves)
            for n in self.spec.root.iter_nodes()
            if n.binding_label is not None
        }

    def true_system_cdf(self, t):
        """Exact system CDF under the configured Weibulls."""
        return StructuralLifetime(self.spec.root, self.components).cdf(t)

    @cached_property
    def _censor_rates(self) -> dict[str, float]:
        rates = {}
        for label, sampler in self.samplers().items():
            try:
                rates[label] = censoring_rate(sampler, self.censor_fraction)
            except ValueError as exc:
                raise ValueError(f"node {label!r}: {exc}") from None
        return rates

    def simulate(self, seed: int) -> list[Dataset]:
        """Simulated datasets for ``seed``; censoring is calibrated on the first call."""
        return simulate_lifetimes(self.samplers(), self.n_per_node, self._censor_rates, seed)


def demo_config() -> DemoConfig:
    components = {name: WeibullLifetime(*params) for name, params in _DEMO_WEIBULLS.items()}
    return DemoConfig(DEMO_RBD_SOURCE, components)


def load_sim_config(path) -> DemoConfig:
    """Read a simulation configuration from a JSON file, through ``dataio.read_text``.

    Expected keys: ``rbd`` (diagram source text), ``components`` (map of
    component id to ``{"shape": ..., "scale": ...}``, both finite and
    positive numbers), and optional ``n_per_node`` (an integer, at most
    ``MAX_N_PER_NODE``) and ``censor_fraction`` (a number in [0, 1)).
    """
    path = Path(path)
    text = read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DataFormatError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: configuration must be a JSON object")
    try:
        rbd_source = data["rbd"]
        raw_components = data["components"]
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing required key {exc}") from None
    if not isinstance(rbd_source, str):
        raise DataFormatError(f"{path}: rbd must be diagram source text, got {json.dumps(rbd_source)}")
    if not isinstance(raw_components, dict):
        raise DataFormatError(f"{path}: components must be an object")
    n_per_node = data.get("n_per_node", 30)
    if type(n_per_node) is not int:  # a JSON integer; bool is a subclass of int
        raise DataFormatError(f"{path}: n_per_node must be an integer, got {json.dumps(n_per_node)}")

    def number(field: str, value) -> float:
        if type(value) not in (int, float):  # a JSON number, not a bool or a string
            raise DataFormatError(f"{path}: {field} must be a number, got {json.dumps(value)}")
        return float(value)

    def weibull(name: str, params) -> WeibullLifetime:
        field = f"components.{name}"
        if not isinstance(params, dict):
            raise DataFormatError(
                f"{path}: {field} must be an object with shape and scale, got {json.dumps(params)}"
            )
        for key in ("shape", "scale"):
            if key not in params:
                raise DataFormatError(f"{path}: {field} is missing required key {key!r}")
        return WeibullLifetime(
            number(f"{field}.shape", params["shape"]), number(f"{field}.scale", params["scale"])
        )

    try:
        components = {name: weibull(name, params) for name, params in raw_components.items()}
        return DemoConfig(
            rbd_source,
            components,
            n_per_node=n_per_node,
            censor_fraction=number("censor_fraction", data.get("censor_fraction", 0.15)),
        )
    except RbdError as exc:
        raise DataFormatError(f"{path}: rbd: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
