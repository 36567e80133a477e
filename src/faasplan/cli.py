"""Command-line front end: validate, select, simulate, cost, bench.

Every command reads its inputs from flags and JSON scenario files, so a
run is reproducible from the scenario alone. Exit codes: 0 success, 1
domain failure (plan rejected, nothing feasible, error budget blown), 2
configuration or usage problems.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import json
import math
import os
import sys
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the faasplan modules it runs inside the functions
# that run them, so a short-lived process pays only for what it uses.
from . import _schema
from ._record import asdict, dataclass, replace
from ._schema import Block
from .errors import DomainError, FaasPlanError, PreflightError, ScenarioError
from .units import MB, UNLIMITED, Unlimited, mb_bytes, mb_text

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ModelArtifact
    from .cost import CostReport, PricingModel, VmBaseline
    from .packaging import DeploymentPackage, RuntimeLibrary
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


class ProfileStore:
    """Resolves named fixtures, preferring files in ``--profile-dir``.

    Each fixture file is read at most once per store.
    """

    def __init__(self, profile_dir: Path | None = None):
        self.profile_dir = Path(profile_dir) if profile_dir is not None else None
        self._tables: dict[str, dict] = {}

    def _override(self, filename: str) -> Path | None:
        if self.profile_dir is not None:
            candidate = self.profile_dir / filename
            if candidate.exists():
                return candidate
        return None

    def _lookup(self, filename: str, loader, kind: str, name: str):
        if filename not in self._tables:
            self._tables[filename] = loader(self._override(filename))
        table = self._tables[filename]
        if name not in table:
            raise ScenarioError(f"unknown {kind} {name!r}; available: {', '.join(table)}")
        return table[name]

    def provider(self, name: str) -> ProviderLimits:
        from .providers import load_provider_limits
        return self._lookup("providers.json", load_provider_limits, "provider", name)

    def pricing_profile(self, name: str) -> PricingModel:
        from .cost import load_pricing
        return self._lookup("pricing.json", load_pricing, "pricing profile", name)

    def runtime(self, name: str) -> RuntimeLibrary:
        from .packaging import load_runtime_libraries
        return self._lookup("runtimes.json", load_runtime_libraries, "runtime", name)

    def catalog(self, source: str) -> list[ModelArtifact]:
        from .catalog import BUILTIN_CATALOGS, load_catalog
        if source not in BUILTIN_CATALOGS:
            override = self._override(source)
            if override is not None:
                return load_catalog(override)
        return load_catalog(source)


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


def _naming_block(parse):
    """Re-raise a value check's DomainError from ``parse(block, ...)`` as ``<path>: <block>: ...``."""
    @functools.wraps(parse)
    def wrapped(block: Block, *args):
        try:
            return parse(block, *args)
        except DomainError as exc:
            raise ScenarioError(f"{block.context}: {exc}") from exc
    return wrapped


@_naming_block
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


@_naming_block
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


@_naming_block
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

    provider_name = top.get("provider", str, None)
    pricing_name = top.get("pricing", str, None)
    catalog_source = top.get("catalog", str, None)
    provider = store.provider(provider_name) if provider_name is not None else None
    pricing = store.pricing_profile(pricing_name) if pricing_name is not None else None
    models = store.catalog(catalog_source) if catalog_source is not None else None

    package = None
    block = top.block("package", _PACKAGE_KEYS, default=None)
    if block is not None:
        from .packaging import DEFAULT_CODE_BYTES, DeploymentPackage
        runtime = store.runtime(block.get("runtime", str))
        model = _resolve_model(block.get("model"), models, block.context)
        code_bytes = block.size("code_mb", "code_bytes", DEFAULT_CODE_BYTES)
        package = DeploymentPackage(code_bytes=code_bytes, runtime=runtime, model=model)

    memory_bytes = top.megabytes("memory_mb", 1024 * MB)

    block = top.block("profile", _PROFILE_KEYS, default=None)
    profile = _parse_profile(block, path.parent) if block is not None else None
    block = top.block("traffic", default=None)
    traffic = _parse_traffic(block) if block is not None else None
    block = top.block("simulation", _SIMULATION_KEYS, default=None)
    sim_config = _parse_simulation(block, seed_override) if block is not None else None

    cost_block = None
    block = top.block("cost", _COST_KEYS, default=None)
    if block is not None:
        cost_block = {
            "n_requests": block.get("n_requests", int),
            "billed_ms_per_request": block.get("billed_ms_per_request", Decimal, Decimal(0)),
            "memory_bytes": block.size("memory_mb", "memory_bytes", 1024 * MB),
            "months": block.get("months", Decimal, Decimal(1)),
        }

    vm = None
    block = top.block("vm", _VM_KEYS, default=None)
    if block is not None:
        from .cost import VmBaseline
        vm = VmBaseline(
            monthly_price=block.get("monthly_price", Decimal),
            memory_bytes=block.size("memory_mb", "memory_bytes", 1024 * MB),
        )

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


def _emit(args, report, table, dumps=functools.partial(json.dumps, indent=2)) -> None:
    """Print ``report`` in the ``--format`` asked for: ``dumps(report)`` or ``table(report)``."""
    print(dumps(report) if args.format == "json" else table(report))


def _fields(rows, gap: str = "  ") -> str:
    """``label``/``value`` lines, each value ``gap`` after the longest label."""
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}{gap}{value}" for label, value in rows)


def _violation_line(v: dict) -> str:
    return f"  {v['limit_name']}: {v['actual_value']} B > {v['limit_value']} B limit"


def _validate_table(report: dict) -> str:
    return "\n".join([
        _fields([
            ("provider", report["provider"]),
            ("package", f"{report['package_bytes']} B ({mb_text(report['package_bytes'])})"),
            ("memory", f"{report['memory_bytes']} B ({mb_text(report['memory_bytes'])})"),
        ]),
        "PASS" if report["passed"] else "FAIL",
        *map(_violation_line, report["violations"]),
    ])


def cmd_validate(args, store: ProfileStore) -> int:
    from .packaging import DeploymentPlan
    from .providers import validate_plan, validation_report_to_dict

    scenario = load_scenario(args.scenario, store)
    provider = store.provider(args.provider) if args.provider else scenario.provider
    if provider is None:
        raise ScenarioError(f"{scenario.path}: no provider given (scenario key or --provider)")
    if scenario.package is None:
        raise ScenarioError(f"{scenario.path}: validate needs a 'package' block")
    memory_bytes = scenario.memory_bytes if args.memory_mb is None else args.memory_mb * MB
    plan = DeploymentPlan(provider=provider.name, package=scenario.package, memory_bytes=memory_bytes)
    report = {
        **validation_report_to_dict(validate_plan(plan, provider)),
        "provider": provider.name,
        "package_bytes": plan.package.total_bytes,
        "memory_bytes": plan.memory_bytes,
    }
    _emit(args, report, _validate_table)
    return 0 if report["passed"] else 1


def _select_table(report: dict) -> str:
    metric, selected, candidates = report["objective_metric"], report["selected"], report["candidates"]
    if selected is not None:
        winner = next(c for c in candidates if c["name"] == selected["name"])
        head = (f"selected  {winner['name']}  {metric}={winner['score']:g}  "
                f"package {mb_text(winner['package_bytes'])}")
    else:
        head = f"no feasible model for {metric} within {mb_text(report['max_package_bytes'])}"
    name_w = max((len(c["name"]) for c in candidates), default=0)
    lines = [head, ""]
    for c in candidates:
        pkg = mb_text(c["package_bytes"]) if c["package_bytes"] is not None else "-"
        score = f"{c['score']:g}" if c["score"] is not None else "-"
        outcome = "feasible" if c["feasible"] else c["reason"]
        lines.append(f"{c['name'].ljust(name_w)}  {pkg:>9}  {score:>7}  {outcome}")
    return "\n".join(lines)


def cmd_select(args, store: ProfileStore) -> int:
    from . import catalog as catalog_mod

    models = store.catalog(args.catalog)
    runtime = store.runtime(args.runtime)
    if args.max_package_mb is not None:
        budget = mb_bytes(args.max_package_mb)
    elif args.provider:
        cap = store.provider(args.provider).max_package_bytes
        if isinstance(cap, Unlimited):
            raise ScenarioError(
                f"provider {args.provider!r} does not cap package size; use --max-package-mb"
            )
        budget = cap
    else:
        raise ScenarioError("select needs --provider or --max-package-mb")
    constraints = catalog_mod.SelectionConstraints(
        max_package_bytes=budget,
        code_bytes=mb_bytes(args.code_mb),
        runtime=runtime,
        objective_metric=args.metric,
        min_score=args.min_score,
    )
    evaluations = catalog_mod.evaluate_candidates(models, constraints)
    selected = None
    if any(ev.feasible for ev in evaluations):
        selected = catalog_mod.select_model(models, constraints)
    report = {
        "selected": None if selected is None else asdict(selected),
        "objective_metric": args.metric,
        "max_package_bytes": budget,
        "candidates": [
            {
                "name": ev.model.name,
                "package_bytes": ev.package_bytes,
                "score": ev.score,
                "feasible": ev.feasible,
                "reason": ev.reason,
            }
            for ev in evaluations
        ],
    }
    _emit(args, report, _select_table)
    return 0 if selected is not None else 1


@contextlib.contextmanager
def _writing(path: Path):
    """Report a failed write of ``path`` as ``<path>: cannot write: <reason>`` (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise FaasPlanError(f"{path}: cannot write: {exc.strerror or exc}") from exc


# Columns of the sweep CSV: a sweep row's keys, its latency summary's keys in between.
_SWEEP_CSV = ("memory_mb", "count", "mean_ms", "q50_ms", "q95_ms", "q99_ms",
              "cold_fraction", "total_billed_gb_s")


def _sweep_table(report: dict) -> str:
    from .metrics import format_summary_table, summary_from_dict

    return format_summary_table(
        (f"{row['memory_mb']} MB", summary_from_dict(row["latency_summary"]))
        for row in report["sweep"] if row["latency_summary"] is not None
    )


def _result_table(result) -> str:
    from .metrics import format_summary_table

    lines = []
    if result.latency_summary is not None:
        lines.append(format_summary_table({"latency_ms": result.latency_summary}))
    lines += ["", _fields([
        ("requests", len(result.records)),
        ("instances", len({r.instance_id for r in result.records})),
        ("cold fraction", f"{result.cold_fraction:.4f}"),
        ("billed GB-seconds", f"{result.total_billed_gb_s:.6f}"),
    ], gap=" ")]
    return "\n".join(lines)


def cmd_simulate(args, store: ProfileStore) -> int:
    from .simulator import (export_result_csv, render_result_json, result_header, save_result_json,
                            simulate)

    scenario = load_scenario(args.scenario, store, seed_override=args.seed)
    for field_name in ("profile", "traffic", "sim_config"):
        if getattr(scenario, field_name) is None:
            block = "simulation" if field_name == "sim_config" else field_name
            raise ScenarioError(f"{scenario.path}: simulate needs a {block!r} block")
    pricing = scenario.pricing or store.pricing_profile("aws")

    sweep_mb = args.memory_sweep or scenario.memory_sweep_mb
    if sweep_mb:
        rows = []
        for memory_mb in sweep_mb:
            config = replace(scenario.sim_config, memory_bytes=memory_mb * MB)
            row = {"memory_mb": memory_mb,
                   **result_header(simulate(scenario.profile, scenario.traffic, config, pricing))}
            del row["memory_bytes"]  # the row's memory_mb says it
            rows.append(row)
        _emit(args, {"sweep": rows}, _sweep_table)
        if args.out:
            out = Path(f"{args.out}_sweep.csv")
            with _writing(out), open(out, "w") as fh:
                fh.write(",".join(_SWEEP_CSV) + "\n")
                for row in rows:
                    cells = {**row, **(row["latency_summary"] or {"count": 0})}
                    fh.write(",".join(str(cells.get(key, "")) for key in _SWEEP_CSV) + "\n")
        return 0

    result = simulate(scenario.profile, scenario.traffic, scenario.sim_config, pricing)
    _emit(args, result, _result_table, render_result_json)
    if args.out:
        csv_path, json_path = Path(f"{args.out}.csv"), Path(f"{args.out}.json")
        with _writing(csv_path):
            export_result_csv(result, csv_path)
        with _writing(json_path):
            save_result_json(result, json_path)
    return 0


def cmd_cost(args, store: ProfileStore) -> int:
    from . import cost as cost_mod

    if bool(args.scenario) == bool(args.result):
        raise ScenarioError("cost needs exactly one of --scenario / --result")
    try:
        report = _cost_report(args, store)
        cost_mod.check_printable(report)
        _emit(args, report, cost_mod.render_cost_table,
              lambda r: json.dumps(cost_mod.cost_report_to_dict(r), indent=2))
    except (OverflowError, decimal.DecimalException) as exc:
        # Finite but huge or tiny prices and horizons give amounts that
        # check_printable refuses (Underflow when too close to 0), or that
        # overflow the Decimal arithmetic.
        size = "small" if isinstance(exc, decimal.Underflow) else "large"
        raise FaasPlanError(f"cost: amounts too {size} to price; check --vm, --months and the "
                            f"scenario's cost and vm blocks ({type(exc).__name__})") from exc
    return 0


def _cost_report(args, store: ProfileStore) -> CostReport:
    from . import cost as cost_mod

    baseline_override = (
        cost_mod.VmBaseline(monthly_price=args.vm) if args.vm is not None else None
    )
    if args.scenario:
        scenario = load_scenario(args.scenario, store)
        if scenario.cost_block is None:
            raise ScenarioError(f"{scenario.path}: cost needs a 'cost' block")
        pricing = (
            store.pricing_profile(args.pricing) if args.pricing
            else scenario.pricing or store.pricing_profile("aws")
        )
        baseline = baseline_override or scenario.vm or cost_mod.DEFAULT_VM_BASELINE
        block = scenario.cost_block
        months = Decimal(str(args.months)) if args.months is not None else block["months"]
        return cost_mod.build_cost_report(
            n_requests=block["n_requests"],
            billed_ms_per_request=block["billed_ms_per_request"],
            memory_bytes=block["memory_bytes"],
            pricing=pricing,
            baseline=baseline,
            months=months,
        )
    else:
        pricing = store.pricing_profile(args.pricing or "aws")
        baseline = baseline_override or cost_mod.DEFAULT_VM_BASELINE
        months = args.months if args.months is not None else 1
        result_path = Path(args.result)
        if result_path.suffix == ".json":
            from .simulator import load_result_json
            result = load_result_json(result_path)
            return cost_mod.cost_from_simulation(result, pricing, baseline, months)
        else:
            from .metrics import read_samples_csv
            memory_bytes = (1024 if args.memory_mb is None else args.memory_mb) * MB
            try:
                samples = read_samples_csv(result_path)
            except (OSError, UnicodeDecodeError) as exc:
                raise ScenarioError(f"cannot read result {result_path}: {exc}") from exc
            return cost_mod.cost_from_samples(samples, pricing, baseline, memory_bytes, months)


def _bench_table(report: dict) -> str:
    from .metrics import format_summary_table, summary_from_dict

    errors = " ".join(f"{k}={v}" for k, v in sorted(report["errors"].items())) or "none"
    lines = [_fields([
        ("attempts", report["attempts"]),
        ("samples", report["samples"]),
        ("warmup excluded", report["warmup_excluded"]),
        ("errors", errors),
        ("max schedule error", f"{report['max_schedule_error_ms']:.2f} ms"),
    ])]
    summaries = [(label, summary_from_dict(report[key]))
                 for label, key in (("latency_ms", "summary"), ("server_ms", "server_exec_summary"))
                 if report[key] is not None]
    if summaries:
        lines += ["", format_summary_table(summaries)]
    return "\n".join(lines)


def cmd_bench(args, store: ProfileStore) -> int:
    # Only bench needs the HTTP stack; the planner commands never load it.
    from .harness import BenchRun, BenchTarget, StubServer, export_run, run_bench
    from .metrics import summarize, summary_to_dict
    from .simulator import TrafficPattern

    if not args.url and not args.stub:
        raise ScenarioError("bench needs --url (or --stub for an offline run)")
    payload = b""
    if args.payload_file:
        try:
            payload = Path(args.payload_file).read_bytes()
        except OSError as exc:
            raise ScenarioError(f"cannot read payload file: {exc}") from exc
    if args.pattern == "steady":
        pattern = TrafficPattern.steady(args.rate, args.duration)
    else:
        pattern = TrafficPattern.poisson(args.rate, args.duration)
    limits = store.provider(args.limits_profile) if args.limits_profile else None

    stub = None
    try:
        if args.stub:
            stub = StubServer(
                delay_ms=args.stub_delay_ms,
                jitter_ms=args.stub_jitter_ms,
                fail_every=args.stub_fail_every,
            ).start()
            url = stub.url
        else:
            url = args.url
        target = BenchTarget(
            url=url,
            method=args.method,
            payload=payload,
            timeout_ms=args.timeout_ms,
        )
        run = BenchRun(
            target=target,
            pattern=pattern,
            n_warmup=args.warmup,
            provider_limits=limits,
            seed=args.seed,
        )
        result = run_bench(run)
    finally:
        if stub is not None:
            stub.stop()

    summary = summarize(result.samples) if len(result.samples) else None
    server_summary = summarize(result.server_exec) if result.server_exec else None
    _emit(args, {
        "attempts": result.attempts,
        "samples": len(result.samples),
        "warmup_excluded": result.warmup_excluded,
        "errors": dict(result.errors),
        "error_ratio": result.error_ratio,
        "max_schedule_error_ms": result.max_schedule_error_ms,
        "summary": None if summary is None else summary_to_dict(summary),
        "server_exec_summary": None if server_summary is None else summary_to_dict(server_summary),
    }, _bench_table)
    if args.out:
        export_run(result, args.out)
    if args.max_error_ratio is not None and result.error_ratio > args.max_error_ratio:
        print(
            f"error ratio {result.error_ratio:.4f} exceeds budget {args.max_error_ratio}",
            file=sys.stderr,
        )
        return 1
    return 0


def _mb_list(text: str) -> list[int]:
    """``--memory-sweep`` value: comma-separated integer MB sizes, at least one."""
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer MB sizes, got {text!r}")
    return sizes


def _finite(kind: type):
    """argparse ``type=`` for a float or Decimal flag that rejects NaN and ±inf (exit 2)."""
    def parse(text: str):
        try:
            value = kind(text)
        except (ValueError, ArithmeticError):  # Decimal signals InvalidOperation
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (value.is_finite() if kind is Decimal else math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        return value
    return parse


_finite_float = _finite(float)
_finite_decimal = _finite(Decimal)


def _megabytes(text: str) -> float:
    """A size flag in MB: a finite float that stays finite in bytes."""
    value = _finite_float(text)
    try:
        mb_bytes(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    return value


def _ratio(text: str) -> float:
    """A share flag: a float in [0, 1]."""
    value = _finite_float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _seed(text: str) -> int:
    """``--seed`` value: a non-negative integer, as numpy's seeding requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: table)")
    parser.add_argument("--profile-dir", type=Path, default=None,
                        help="directory with providers.json / pricing.json / runtimes.json overrides")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faasplan",
        description="Plan, simulate and benchmark serverless deployments of compact ML models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a deployment plan against provider limits")
    _add_common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON with a package block")
    p.add_argument("--provider", help="override the scenario provider")
    p.add_argument("--memory-mb", type=int, default=None, help="override the plan memory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("select", help="pick the best model that fits a size budget")
    _add_common(p)
    p.add_argument("--catalog", required=True, help="built-in catalog name or a JSON path")
    p.add_argument("--provider", help="take the package budget from this provider")
    p.add_argument("--max-package-mb", type=_megabytes, default=None,
                   help="explicit package budget in MB")
    p.add_argument("--metric", required=True, help="objective metric name")
    p.add_argument("--min-score", type=_finite_float, default=None, help="minimum acceptable score")
    p.add_argument("--runtime", default="onnxruntime", help="runtime library (default: onnxruntime)")
    p.add_argument("--code-mb", type=_megabytes, default=1.0,
                   help="function code size (default: 1 MB)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="run a seeded deployment simulation")
    _add_common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON with profile/traffic/simulation")
    p.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    p.add_argument("--memory-sweep", type=_mb_list, default=None,
                   help="comma-separated memory sizes in MB, one run per size")
    p.add_argument("--out", default=None,
                   help="output prefix; writes <out>.csv and <out>.json (or <out>_sweep.csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cost", help="price a workload against a VM baseline")
    _add_common(p)
    p.add_argument("--scenario", default=None, help="scenario JSON with a cost block")
    p.add_argument("--result", default=None,
                   help="price a simulation result (.json) or sample CSV instead")
    p.add_argument("--pricing", default=None, help="pricing profile name (default: aws)")
    p.add_argument("--vm", type=_finite_decimal, default=None, help="override the VM monthly price")
    p.add_argument("--months", type=_finite_decimal, default=None, help="billing horizon (default: 1)")
    p.add_argument("--memory-mb", type=int, default=None,
                   help="memory for CSV results (default: 1024)")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bench", help="open-loop load generation against a live endpoint")
    _add_common(p)
    p.add_argument("--url", default=None, help="endpoint to hit")
    p.add_argument("--payload-file", default=None, help="request body file")
    p.add_argument("--method", default="POST", help="HTTP method (default: POST)")
    p.add_argument("--rate", type=_finite_float, default=1.0, help="requests per second (default: 1)")
    p.add_argument("--duration", type=_finite_float, default=10.0,
                   help="run length in seconds (default: 10)")
    p.add_argument("--pattern", choices=("steady", "poisson"), default="steady",
                   help="send schedule (default: steady)")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the poisson schedule (default: 0)")
    p.add_argument("--warmup", type=int, default=10,
                   help="successful responses to exclude up front (default: 10)")
    p.add_argument("--timeout-ms", type=_finite_float, default=10_000.0,
                   help="per-request timeout (default: 10000)")
    p.add_argument("--limits-profile", default=None,
                   help="provider whose request cap the payload must pass")
    p.add_argument("--max-error-ratio", type=_ratio, default=None,
                   help="fail the run when the error ratio exceeds this")
    p.add_argument("--out", default=None, help="write post-warmup samples to this CSV")
    p.add_argument("--stub", action="store_true",
                   help="bench the built-in stub server instead of a real endpoint")
    p.add_argument("--stub-delay-ms", type=_finite_float, default=50.0,
                   help="stub response delay (default: 50)")
    p.add_argument("--stub-jitter-ms", type=_finite_float, default=0.0,
                   help="uniform extra stub delay (default: 0)")
    p.add_argument("--stub-fail-every", type=int, default=None,
                   help="stub fails every k-th request with HTTP 500")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    store = ProfileStore(args.profile_dir)
    try:
        return args.func(args, store)
    except BrokenPipeError:
        # Downstream consumer (head, less) went away; suppress the flush error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except PreflightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.report.violations:
            print(_violation_line(asdict(v)), file=sys.stderr)
        return 1
    except FaasPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
