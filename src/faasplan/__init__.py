"""Plan, simulate and benchmark serverless deployments of compact ML models.

The pieces compose in deployment order: pick a model that fits the
platform's package cap (``catalog``, ``packaging``), check the plan
against hard limits (``providers``), predict latency and cold starts
under load (``simulator``), price the workload against an always-on VM
(``cost``), and finally measure a real endpoint (``harness``).
"""

from .catalog import (
    CandidateEvaluation,
    ModelArtifact,
    SelectionConstraints,
    evaluate_candidates,
    load_catalog,
    select_model,
)
from .cost import (
    DEFAULT_VM_BASELINE,
    CostAssumptions,
    CostReport,
    PricingModel,
    VmBaseline,
    billed_duration,
    breakeven,
    build_cost_report,
    cost_from_simulation,
    load_pricing,
    serverless_cost,
    serverless_cost_total,
    vm_baseline_cost,
)
from .errors import (
    CatalogError,
    DomainError,
    FaasPlanError,
    IncompatibleFormatError,
    NoFeasibleModelError,
    PreflightError,
    ScenarioError,
)
from .harness import (
    BenchResult,
    BenchRun,
    BenchTarget,
    StubServer,
    export_run,
    preflight,
    run_bench,
)
from .metrics import (
    SampleSet,
    Summary,
    format_summary_table,
    quantile,
    read_samples_csv,
    summarize,
    warmup_filter,
    write_samples_csv,
)
from .packaging import (
    DeploymentPackage,
    DeploymentPlan,
    FitRow,
    RuntimeLibrary,
    bytes_on_disk,
    fit_matrix,
    load_runtime_libraries,
)
from .providers import (
    CpuScaling,
    ProviderLimits,
    ValidationReport,
    Violation,
    default_provider_limits,
    effective_cpu,
    load_provider_limits,
    validate_plan,
)
from .simulator import (
    InvocationRecord,
    LatencyProfile,
    SimulationConfig,
    SimulationResult,
    TrafficPattern,
    generate_arrivals,
    scale_duration,
    simulate,
)
from .units import GB, MB, UNLIMITED, Unlimited

__version__ = "0.1.0"

__all__ = [
    "BenchResult", "BenchRun", "BenchTarget", "CandidateEvaluation", "CatalogError",
    "CostAssumptions", "CostReport", "CpuScaling", "DEFAULT_VM_BASELINE",
    "DeploymentPackage", "DeploymentPlan", "DomainError", "FaasPlanError", "FitRow",
    "GB", "IncompatibleFormatError", "InvocationRecord", "LatencyProfile", "MB",
    "ModelArtifact", "NoFeasibleModelError", "PreflightError", "PricingModel",
    "ProviderLimits", "RuntimeLibrary", "SampleSet",
    "ScenarioError", "SelectionConstraints", "SimulationConfig", "SimulationResult",
    "StubServer", "Summary", "TrafficPattern", "UNLIMITED", "Unlimited",
    "ValidationReport", "Violation", "VmBaseline", "billed_duration",
    "breakeven", "build_cost_report", "bytes_on_disk",
    "cost_from_simulation", "default_provider_limits", "effective_cpu",
    "evaluate_candidates", "export_run", "fit_matrix", "format_summary_table",
    "generate_arrivals", "load_catalog", "load_pricing", "load_provider_limits",
    "load_runtime_libraries", "preflight", "quantile", "read_samples_csv",
    "run_bench", "scale_duration", "select_model", "serverless_cost",
    "serverless_cost_total", "simulate", "summarize", "validate_plan",
    "vm_baseline_cost", "warmup_filter", "write_samples_csv",
]
