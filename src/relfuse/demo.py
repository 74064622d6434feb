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
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import Dataset
from .errors import DataFormatError
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


@dataclass
class DemoConfig:
    """A simulation configuration: diagram plus per-component Weibulls."""

    rbd_source: str
    components: dict[str, WeibullLifetime]
    n_per_node: int = 30
    censor_fraction: float = 0.15
    spec: SystemSpec = field(init=False, repr=False)

    def __post_init__(self):
        self.spec = parse_rbd(self.rbd_source)
        have = {c.id for c in self.spec.root.iter_components()}
        missing = have - self.components.keys()
        if missing:
            raise ValueError(f"no Weibull parameters for: {', '.join(sorted(missing))}")
        if not (0 < self.n_per_node <= MAX_N_PER_NODE):
            raise ValueError(f"n_per_node must lie in [1, {MAX_N_PER_NODE:,}]")
        if not (0.0 <= self.censor_fraction < 1.0):
            raise ValueError("censor_fraction must lie in [0, 1)")
        self._samplers: dict[str, object] | None = None
        self._censor_rates: dict[str, float] | None = None

    def samplers(self) -> dict[str, object]:
        """One lifetime sampler per bindable node label, leaves first."""
        if self._samplers is None:
            out: dict[str, object] = {}
            for node in self.spec.root.iter_nodes():
                label = node.binding_label
                if label is None:
                    continue
                if node.kind == "component":
                    out[label] = self.components[node.id]
                else:
                    out[label] = StructuralLifetime(node, self.components)
            self._samplers = out
        return self._samplers

    def true_system_cdf(self, t):
        """Exact system CDF under the configured Weibulls."""
        return StructuralLifetime(self.spec.root, self.components).cdf(t)

    def simulate(self, seed: int) -> list[Dataset]:
        """Simulated datasets for ``seed``; censoring is calibrated on the first call."""
        samplers = self.samplers()
        if self._censor_rates is None:
            self._censor_rates = {
                label: censoring_rate(sampler, self.censor_fraction)
                for label, sampler in samplers.items()
            }
        return simulate_lifetimes(samplers, self.n_per_node, self._censor_rates, seed)


def demo_config() -> DemoConfig:
    components = {name: WeibullLifetime(*params) for name, params in _DEMO_WEIBULLS.items()}
    return DemoConfig(DEMO_RBD_SOURCE, components)


def load_sim_config(path) -> DemoConfig:
    """Read a simulation configuration from JSON.

    Expected keys: ``rbd`` (diagram source text), ``components`` (map of
    component id to ``{"shape": ..., "scale": ...}``, both finite and
    positive), and optional ``n_per_node`` (at most ``MAX_N_PER_NODE``) and
    ``censor_fraction``.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
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
    if not isinstance(raw_components, dict):
        raise DataFormatError(f"{path}: components must be an object")
    try:
        components = {
            name: WeibullLifetime(float(p["shape"]), float(p["scale"]))
            for name, p in raw_components.items()
        }
        return DemoConfig(
            rbd_source,
            components,
            n_per_node=int(data.get("n_per_node", 30)),
            censor_fraction=float(data.get("censor_fraction", 0.15)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
