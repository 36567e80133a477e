"""Scenario files: one JSON document per deployment question.

A scenario names the provider, pricing and catalog fixtures it builds on
and holds the blocks a command reads: ``package``, ``memory_mb``,
``profile``, ``traffic``, ``simulation``, ``memory_sweep_mb``, ``cost``
and ``vm``. Loading checks the keys of the file, of every block and of
the objects nested in one (``simulation.scaling`` and an inline
``package.model``). A block is built, and its values checked, when a
command first reads it, so ``validate`` builds no simulation and never
loads the simulator.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from . import _schema
from ._schema import Block
from .errors import ScenarioError, Where
from .units import MB, UNLIMITED

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ModelArtifact
    from .cli import ProfileStore
    from .cost import VmBaseline
    from .packaging import DeploymentPackage
    from .simulator import LatencyProfile, SimulationConfig, TrafficPattern

SCENARIO_SCHEMA_VERSION = 1

_SCENARIO_KEYS = {
    "version", "name", "description", "provider", "pricing", "catalog", "package",
    "memory_mb", "profile", "traffic", "simulation", "memory_sweep_mb", "cost", "vm",
}
_PACKAGE_KEYS = {"code_mb", "code_bytes", "runtime", "model"}
_PROFILE_KEYS = {
    "reference_memory_mb", "reference_memory_bytes",
    "constant_ms", "quantile_anchors", "n_samples", "samples_csv",
}
_SIMULATION_KEYS = {
    "seed", "memory_mb", "memory_bytes", "scaling", "keep_alive_s", "cold_start_ms", "max_instances",
}
_SCALING_KEYS = {"mb_per_full_cpu", "bytes_per_full_cpu", "max_useful_cpus"}
_COST_KEYS = {"n_requests", "billed_ms_per_request", "memory_mb", "memory_bytes", "months"}
_VM_KEYS = {"monthly_price", "memory_mb", "memory_bytes"}
# Traffic kind -> the keys its TrafficPattern constructor of the same name takes, in order.
_TRAFFIC_KEYS = {
    "steady": ("rate_rps", "duration_s"),
    "poisson": ("rate_rps", "duration_s"),
    "burst": ("high_rate", "low_rate", "period_s", "duty", "duration_s"),
    "trace": ("timestamps",),
}
_TRAFFIC_ALIASES = {"poisson_constant": "poisson", "on_off_burst": "burst", "trace_replay": "trace"}


def _parse_profile(block: Block, scenario: Scenario) -> LatencyProfile:
    from .simulator import LatencyProfile

    reference = block.size("reference_memory_mb", "reference_memory_bytes")
    sources = [k for k in ("constant_ms", "quantile_anchors", "samples_csv") if k in block.raw]
    if len(sources) != 1:
        raise ScenarioError(
            f"{block.context}: give exactly one of constant_ms / quantile_anchors / samples_csv"
        )
    kind = sources[0]
    if kind == "constant_ms":
        return LatencyProfile.constant(block.get("constant_ms", float), reference)
    if kind == "quantile_anchors":
        anchors = block.block("quantile_anchors")
        try:
            quantiles = {float(q): anchors.get(q, float) for q in anchors.raw}
        except ValueError:
            raise ScenarioError(f"{anchors.context}: keys must be quantiles such as \"0.5\"") from None
        return LatencyProfile.from_quantile_anchors(quantiles, block.get("n_samples", int), reference)
    from .metrics import read_samples_csv

    csv_path = scenario.path.parent / block.get("samples_csv", str)
    try:
        samples = read_samples_csv(csv_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{block.context}: samples_csv: cannot read {csv_path}: {exc}") from exc
    return LatencyProfile(reference, samples)


def _traffic_kind(block: Block) -> str:
    """The traffic block's kind, an alias resolved to its name in ``_TRAFFIC_KEYS``."""
    kind = block.get("kind", str)
    kind = _TRAFFIC_ALIASES.get(kind, kind)
    if kind not in _TRAFFIC_KEYS:
        raise ScenarioError(f"{block.context}: kind: unknown traffic kind {kind!r}")
    return kind


def _parse_traffic(block: Block, scenario: Scenario) -> TrafficPattern:
    from .simulator import TrafficPattern

    kind = _traffic_kind(block)
    if kind == "trace":
        return TrafficPattern.trace(block.get_list("timestamps", float))
    return getattr(TrafficPattern, kind)(*(block.get(key, float) for key in _TRAFFIC_KEYS[kind]))


def _parse_simulation(block: Block, scenario: Scenario) -> SimulationConfig:
    from .providers import CpuScaling
    from .simulator import DEFAULT_COLD_START_MS, DEFAULT_KEEP_ALIVE_S, SimulationConfig

    seed = block.get("seed", int, 0)
    scaling = block.block("scaling", _SCALING_KEYS, default={})
    keep_alive = block.raw.get("keep_alive_s")
    return SimulationConfig(
        seed=seed if scenario.seed_override is None else scenario.seed_override,
        memory_bytes=block.size("memory_mb", "memory_bytes"),
        scaling=CpuScaling(
            bytes_per_full_cpu=scaling.size("mb_per_full_cpu", "bytes_per_full_cpu",
                                            CpuScaling.bytes_per_full_cpu),
            max_useful_cpus=scaling.get("max_useful_cpus", float, CpuScaling.max_useful_cpus),
        ),
        keep_alive_s=(
            float("inf") if keep_alive == "inf"
            else block.get("keep_alive_s", float, DEFAULT_KEEP_ALIVE_S)
        ),
        cold_start_ms=block.get("cold_start_ms", float, DEFAULT_COLD_START_MS),
        max_instances=block.get("max_instances", int, UNLIMITED),
    )


def _parse_package(block: Block, scenario: Scenario) -> DeploymentPackage:
    from .packaging import DEFAULT_CODE_BYTES, DeploymentPackage

    with Where(f"{block.context}: runtime"):
        runtime = scenario.store.runtime(block.get("runtime", str))
    model = _resolve_model(block.get("model"), scenario, block.context)
    code_bytes = block.size("code_mb", "code_bytes", DEFAULT_CODE_BYTES)
    return DeploymentPackage(code_bytes=code_bytes, runtime=runtime, model=model)


def _parse_cost(block: Block, scenario: Scenario) -> dict:
    return {
        "n_requests": block.get("n_requests", int),
        "billed_ms_per_request": block.get("billed_ms_per_request", Decimal, Decimal(0)),
        "memory_bytes": block.size("memory_mb", "memory_bytes", 1024 * MB),
        "months": block.get("months", Decimal, Decimal(1)),
    }


def _parse_vm(block: Block, scenario: Scenario) -> VmBaseline:
    from .cost import VmBaseline

    return VmBaseline(
        monthly_price=block.get("monthly_price", Decimal),
        memory_bytes=block.size("memory_mb", "memory_bytes", 1024 * MB),
    )


def _resolve_model(entry, scenario: Scenario, context: str) -> ModelArtifact:
    if isinstance(entry, str):
        if scenario.catalog is None:
            raise ScenarioError(f"{context}: model {entry!r} needs a 'catalog' to look it up in")
        for model in scenario.catalog:
            if model.name == entry:
                return model
        raise ScenarioError(f"{context}: model {entry!r} not found in catalog")
    if isinstance(entry, dict):
        from .catalog import CATALOG_SCHEMA_VERSION, parse_catalog
        return parse_catalog({"version": CATALOG_SCHEMA_VERSION, "models": [entry]}, context)[0]
    raise ScenarioError(f"{context}: model must be a name or an inline object")


# Attribute of a Scenario -> its key in the file, the keys its block may hold
# (None for a fixture name; a traffic block's depend on its kind), and what
# builds it: the ProfileStore method that resolves the name, or a _parse_*.
_BLOCKS = {
    "provider": ("provider", None, "provider"),
    "pricing": ("pricing", None, "pricing_profile"),
    "catalog": ("catalog", None, "catalog"),
    "package": ("package", _PACKAGE_KEYS, _parse_package),
    "profile": ("profile", _PROFILE_KEYS, _parse_profile),
    "traffic": ("traffic", lambda block: {"kind", *_TRAFFIC_KEYS[_traffic_kind(block)]}, _parse_traffic),
    "sim_config": ("simulation", _SIMULATION_KEYS, _parse_simulation),
    "cost_block": ("cost", _COST_KEYS, _parse_cost),
    "vm": ("vm", _VM_KEYS, _parse_vm),
}


class Scenario:
    """A scenario file resolved against the fixture store, one block at a time.

    ``path``, ``name``, ``memory_bytes`` and ``memory_sweep_mb`` are read on
    load. Each attribute in ``_BLOCKS`` is built when first read, its errors
    named as ``<path>: <block>: ...``, and then kept; it is None when the
    file does not hold its block.
    """

    def __init__(self, path: str | Path, store: ProfileStore, seed_override: int | None = None):
        self.path, self.store, self.seed_override = Path(path), store, seed_override
        # Exact decimals throughout: money stays Decimal, and float() of a
        # parsed Decimal is the same float json would have produced.
        raw, context = _schema.load(self.path, "scenario", parse_float=Decimal)
        self._top = top = Block(raw, context, _SCENARIO_KEYS)
        if top.get("version", int) != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"{context}: scenario version must be {SCENARIO_SCHEMA_VERSION}")
        for key, keys, _ in _BLOCKS.values():
            if keys is not None:
                _block(top, key, keys)
        # And those of the objects nested in a block, named as the commands that read them do.
        simulation = top.block("simulation", default=None)
        if simulation is not None:
            simulation.block("scaling", _SCALING_KEYS, default=None)
        model = (top.raw.get("package") or {}).get("model")
        if isinstance(model, dict):
            Block(model, f"{context}: package: model entry", _schema.MODEL_KEYS)
        self.name = top.get("name", str, None)
        self.memory_bytes = top.megabytes("memory_mb", 1024 * MB)
        self.memory_sweep_mb = top.get_list("memory_sweep_mb", int, None)

    def __getattr__(self, attr: str):
        if attr not in _BLOCKS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        key, keys, build = _BLOCKS[attr]
        if keys is None:  # a fixture name
            name = self._top.get(key, str, None)
            with Where(f"{self._top.context}: {key}"):
                value = None if name is None else getattr(self.store, build)(name)
        elif (block := _block(self._top, key, keys)) is None:
            value = None
        else:
            with block:
                value = build(block, self)
        setattr(self, attr, value)
        return value


def _block(top: Block, key: str, keys) -> Block | None:
    """The block at ``key``, checked to hold only ``keys`` (or ``keys(block)``); None if absent."""
    block = top.block(key, None if callable(keys) else keys, default=None)
    if block is not None and callable(keys):
        block = Block(block.raw, block.context, keys(block))
    return block


def load_scenario(path: str | Path, store: ProfileStore, seed_override: int | None = None) -> Scenario:
    """Load a scenario file, checking its keys and those of every block it holds.

    Raises:
        ScenarioError: on unreadable files and schema violations.
    """
    return Scenario(path, store, seed_override)
