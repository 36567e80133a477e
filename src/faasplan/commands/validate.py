"""``faasplan validate``: check a scenario's deployment plan against provider limits."""

from __future__ import annotations

from ..errors import ScenarioError, Where
from ..units import MB, mb_text
from . import emit, fields, violation_line


def _table(report: dict) -> str:
    return "\n".join([
        fields([
            ("provider", report["provider"]),
            ("package", f"{report['package_bytes']} B ({mb_text(report['package_bytes'])})"),
            ("memory", f"{report['memory_bytes']} B ({mb_text(report['memory_bytes'])})"),
        ]),
        "PASS" if report["passed"] else "FAIL",
        *map(violation_line, report["violations"]),
    ])


def run(args, store) -> int:
    from ..packaging import DeploymentPlan
    from ..providers import validate_plan, validation_report_to_dict
    from ..scenario import load_scenario

    scenario = load_scenario(args.scenario, store)
    provider = store.provider(args.provider) if args.provider else scenario.provider
    if provider is None:
        raise ScenarioError(f"{scenario.path}: no provider given (scenario key or --provider)")
    if scenario.package is None:
        raise ScenarioError(f"{scenario.path}: validate needs a 'package' block")
    memory_bytes = scenario.memory_bytes if args.memory_mb is None else args.memory_mb * MB
    with Where(f"{scenario.path}: memory_mb"):  # a --memory-mb flag is positive already
        plan = DeploymentPlan(provider=provider.name, package=scenario.package,
                              memory_bytes=memory_bytes)
    report = {
        **validation_report_to_dict(validate_plan(plan, provider)),
        "provider": provider.name,
        "package_bytes": plan.package.total_bytes,
        "memory_bytes": plan.memory_bytes,
    }
    emit(args, report, _table)
    return 0 if report["passed"] else 1
