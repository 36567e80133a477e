"""Scenario files: one JSON document per deployment question.

A scenario names the provider, pricing and catalog fixtures it builds on
and holds the blocks a command reads: ``package``, ``memory_mb``,
``profile``, ``traffic``, ``simulation``, ``memory_sweep_mb``, ``cost``
and ``vm``. Each block loads the faasplan module that builds it, so a
scenario without a simulation never loads the simulator.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from . import _schema
from ._record import dataclass
from ._schema import Block
from .errors import ScenarioError, Where
from .units import MB, UNLIMITED

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ModelArtifact
    from .cli import ProfileStore
    from .cost import PricingModel, VmBaseline
    from .packaging import DeploymentPackage
    from .providers import ProviderLimits
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


@dataclass
class Scenario:
    """A scenario file resolved against the fixture store."""

    path: Path
    name: str | None
    provider: ProviderLimits | None
    pricing: PricingModel | None
    catalog: list[ModelArtifact] | None
    package: DeploymentPackage | None
    memory_bytes: int
    profile: LatencyProfile | None
    traffic: TrafficPattern | None
    sim_config: SimulationConfig | None
    memory_sweep_mb: list[int] | None
    cost_block: dict | None
    vm: VmBaseline | None


def _parse_profile(block: Block, scenario_dir: Path) -> LatencyProfile:
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

    csv_path = scenario_dir / block.get("samples_csv", str)
    try:
        samples = read_samples_csv(csv_path)
    except OSError as exc:
        raise ScenarioError(f"{block.context}: samples_csv: cannot read {csv_path}: {exc}") from exc
    return LatencyProfile(reference, samples)


def _parse_traffic(block: Block) -> TrafficPattern:
    from .simulator import TrafficPattern

    kind = block.get("kind", str)
    kind = _TRAFFIC_ALIASES.get(kind, kind)
    if kind not in _TRAFFIC_KEYS:
        raise ScenarioError(f"{block.context}: kind: unknown traffic kind {kind!r}")
    block = Block(block.raw, block.context, {"kind", *_TRAFFIC_KEYS[kind]})
    if kind == "trace":
        return TrafficPattern.trace(block.get_list("timestamps", float))
    return getattr(TrafficPattern, kind)(*(block.get(key, float) for key in _TRAFFIC_KEYS[kind]))


def _parse_simulation(block: Block, seed_override: int | None) -> SimulationConfig:
    from .providers import CpuScaling
    from .simulator import DEFAULT_COLD_START_MS, DEFAULT_KEEP_ALIVE_S, SimulationConfig

    seed = block.get("seed", int, 0)
    if seed < 0:
        raise ScenarioError(f"{block.context}: seed: must be a non-negative integer, got {seed}")
    scaling = block.block("scaling", _SCALING_KEYS, default={})
    keep_alive = block.raw.get("keep_alive_s")
    return SimulationConfig(
        seed=seed if seed_override is None else seed_override,
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


def _parse_package(block: Block, store: ProfileStore, models) -> DeploymentPackage:
    from .packaging import DEFAULT_CODE_BYTES, DeploymentPackage

    with Where(f"{block.context}: runtime"):
        runtime = store.runtime(block.get("runtime", str))
    model = _resolve_model(block.get("model"), models, block.context)
    code_bytes = block.size("code_mb", "code_bytes", DEFAULT_CODE_BYTES)
    return DeploymentPackage(code_bytes=code_bytes, runtime=runtime, model=model)


def _parse_vm(block: Block) -> VmBaseline:
    from .cost import VmBaseline

    return VmBaseline(
        monthly_price=block.get("monthly_price", Decimal),
        memory_bytes=block.size("memory_mb", "memory_bytes", 1024 * MB),
    )


def _resolve_model(entry, scenario_catalog, context: str) -> ModelArtifact:
    if isinstance(entry, str):
        if scenario_catalog is None:
            raise ScenarioError(f"{context}: model {entry!r} needs a 'catalog' to look it up in")
        for model in scenario_catalog:
            if model.name == entry:
                return model
        raise ScenarioError(f"{context}: model {entry!r} not found in catalog")
    if isinstance(entry, dict):
        from .catalog import CATALOG_SCHEMA_VERSION, parse_catalog
        parsed = parse_catalog({"version": CATALOG_SCHEMA_VERSION, "models": [entry]}, context)
        return parsed[0]
    raise ScenarioError(f"{context}: model must be a name or an inline object")


def load_scenario(path: str | Path, store: ProfileStore, seed_override: int | None = None) -> Scenario:
    """Load and resolve a scenario file.

    Raises:
        ScenarioError: on unreadable files, schema violations, or names
            that do not resolve against the fixture store.
    """
    path = Path(path)
    # Exact decimals throughout: money stays Decimal, and float() of a
    # parsed Decimal is the same float json would have produced.
    raw, context = _schema.load(path, "scenario", parse_float=Decimal)
    top = Block(raw, context, _SCENARIO_KEYS)
    if top.get("version", int) != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(f"{context}: scenario version must be {SCENARIO_SCHEMA_VERSION}")

    def lookup(key: str, find):
        """The fixture that the name at top-level ``key`` resolves to, None if absent."""
        name = top.get(key, str, None)
        if name is None:
            return None
        with Where(f"{context}: {key}"):
            return find(name)

    def parse(key: str, keys, parse_block, *args):
        """What ``parse_block`` builds from the block at ``key``, None if absent."""
        block = top.block(key, keys, default=None)
        if block is None:
            return None
        with block:
            return parse_block(block, *args)

    provider = lookup("provider", store.provider)
    pricing = lookup("pricing", store.pricing_profile)
    models = lookup("catalog", store.catalog)
    package = parse("package", _PACKAGE_KEYS, _parse_package, store, models)
    memory_bytes = top.megabytes("memory_mb", 1024 * MB)
    profile = parse("profile", _PROFILE_KEYS, _parse_profile, path.parent)
    traffic = parse("traffic", None, _parse_traffic)
    sim_config = parse("simulation", _SIMULATION_KEYS, _parse_simulation, seed_override)

    # Priced, and so checked, only by `cost` (as ``<path>: cost: ...``).
    cost_block = None
    block = top.block("cost", _COST_KEYS, default=None)
    if block is not None:
        cost_block = {
            "n_requests": block.get("n_requests", int),
            "billed_ms_per_request": block.get("billed_ms_per_request", Decimal, Decimal(0)),
            "memory_bytes": block.size("memory_mb", "memory_bytes", 1024 * MB),
            "months": block.get("months", Decimal, Decimal(1)),
        }
    vm = parse("vm", _VM_KEYS, _parse_vm)

    return Scenario(
        path=path,
        name=top.get("name", str, None),
        provider=provider,
        pricing=pricing,
        catalog=models,
        package=package,
        memory_bytes=memory_bytes,
        profile=profile,
        traffic=traffic,
        sim_config=sim_config,
        memory_sweep_mb=top.get_list("memory_sweep_mb", int, None),
        cost_block=cost_block,
        vm=vm,
    )
