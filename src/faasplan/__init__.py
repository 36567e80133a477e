"""Plan, simulate and benchmark serverless deployments of compact ML models.

The pieces compose in deployment order: pick a model that fits the
platform's package cap (``catalog``, ``packaging``), check the plan
against hard limits (``providers``), predict latency and cold starts
under load (``simulator``, with its result files in ``results``), price
the workload against an always-on VM (``cost``), and finally measure a
real endpoint (``harness``).
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule. Names resolve on first access, so
# ``import faasplan`` loads no submodule and the planner commands never
# pay for numpy or the HTTP stack they do not use.
_EXPORTS = {
    name: module
    for module, names in {
        "catalog": "CandidateEvaluation ModelArtifact SelectionConstraints evaluate_candidates "
                   "load_catalog select_model",
        "cost": "DEFAULT_VM_BASELINE CostAssumptions CostReport PricingModel VmBaseline "
                "billed_duration breakeven build_cost_report cost_from_simulation load_pricing "
                "serverless_cost serverless_cost_total vm_baseline_cost",
        "errors": "CatalogError DomainError FaasPlanError IncompatibleFormatError "
                  "NoFeasibleModelError PreflightError ScenarioError",
        "harness": "BenchResult BenchRun BenchTarget StubServer export_run preflight run_bench",
        "metrics": "SampleSet Summary format_summary_table quantile read_samples_csv summarize "
                   "warmup_filter write_samples_csv",
        "packaging": "DeploymentPackage DeploymentPlan FitRow RuntimeLibrary bytes_on_disk "
                     "fit_matrix load_runtime_libraries",
        "providers": "CpuScaling ProviderLimits ValidationReport Violation default_provider_limits "
                     "effective_cpu load_provider_limits validate_plan",
        "results": "InvocationRecord SimulationResult",
        "simulator": "LatencyProfile SimulationConfig TrafficPattern generate_arrivals "
                     "scale_duration simulate simulate_sweep",
        "units": "GB MB UNLIMITED Unlimited",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
