"""Serverless platform limits and the memory-to-CPU scaling law.

Hard limits for the major platforms ship as a versioned fixture
(``data/providers.json``). Deployment plans are checked against a chosen
profile, and the slice of a vCPU a function receives at a given memory
size follows a proportional law that saturates once extra cores stop
helping a single-request inference workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from . import _schema
from ._record import asdict, dataclass
from .errors import DomainError, check_int
from .units import MB, UNLIMITED, Limit, Unlimited

if TYPE_CHECKING:  # pragma: no cover
    from .packaging import DeploymentPlan

PROVIDERS_SCHEMA_VERSION = 1

_LIMIT_FIELDS = (
    "max_package_bytes",
    "max_memory_bytes",
    "max_request_bytes",
)
_FINITE_FIELDS = ("max_memory_bytes", "max_request_bytes")


@dataclass(frozen=True)
class ProviderLimits:
    """Hard limits of one serverless platform.

    ``max_package_bytes`` may be UNLIMITED on platforms that do not
    restrict it; memory and request size are always finite byte counts.
    """

    name: str
    max_package_bytes: Limit
    max_memory_bytes: int
    max_request_bytes: int

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise DomainError("provider name must be a non-empty string")
        for field in _LIMIT_FIELDS:
            object.__setattr__(self, field, check_int(getattr(self, field), field, positive=True,
                                                     unlimited=field not in _FINITE_FIELDS))


@dataclass(frozen=True)
class CpuScaling:
    """Proportional memory-to-vCPU law with a usefulness ceiling.

    ``bytes_per_full_cpu`` is the memory grant that buys one full vCPU.
    ``max_useful_cpus`` caps the speedup a single-request inference
    worker can actually exploit, regardless of how many cores the
    platform would allocate at large memory sizes.
    """

    bytes_per_full_cpu: int = 1769 * MB
    max_useful_cpus: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "bytes_per_full_cpu",
                           check_int(self.bytes_per_full_cpu, "bytes_per_full_cpu", positive=True))
        if not self.max_useful_cpus >= 1:
            raise DomainError(f"max_useful_cpus must be at least 1, got {self.max_useful_cpus}")


def effective_cpu(memory_bytes: int, scaling: CpuScaling) -> float:
    """Fraction of vCPU time a function receives at ``memory_bytes`` of RAM.

    Grows in proportion to memory and saturates at ``scaling.max_useful_cpus``.

    Raises:
        DomainError: ``memory_bytes must be a positive integer, got <value>``.
    """
    memory_bytes = check_int(memory_bytes, "memory_bytes", positive=True)
    return min(memory_bytes / scaling.bytes_per_full_cpu, scaling.max_useful_cpus)


@dataclass(frozen=True)
class Violation:
    """One exceeded limit: which limit, its value, and the offending value."""

    limit_name: str
    limit_value: int
    actual_value: int


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a plan against provider limits.

    ``passed`` is derived from ``violations``, so the two can never
    disagree.
    """

    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_plan(plan: "DeploymentPlan", limits: ProviderLimits) -> ValidationReport:
    """Check a deployment plan against one platform's hard limits.

    Produces one violation per exceeded limit. UNLIMITED limits can never
    be violated. A plan that does not fit yields a failing report, not an
    exception.
    """
    violations = []
    package_bytes = plan.package.total_bytes
    if not isinstance(limits.max_package_bytes, Unlimited) and package_bytes > limits.max_package_bytes:
        violations.append(Violation("package_size", limits.max_package_bytes, package_bytes))
    if plan.memory_bytes > limits.max_memory_bytes:
        violations.append(Violation("memory", limits.max_memory_bytes, plan.memory_bytes))
    return ValidationReport(tuple(violations))


def validation_report_to_dict(report: ValidationReport) -> dict:
    """JSON-ready dict of the report."""
    return {"passed": report.passed, "violations": [asdict(v) for v in report.violations]}


def parse_provider_limits(payload: Mapping, source: str = "<providers>") -> dict[str, ProviderLimits]:
    """Parse the providers fixture schema into an ordered name -> limits map.

    Unknown or missing fields are rejected rather than ignored, so a typo
    in a limits file cannot silently validate plans against nothing. A
    null limit is UNLIMITED.
    """
    out: dict[str, ProviderLimits] = {}
    fields = {"name", *_LIMIT_FIELDS}
    for name, entry in _schema.entries(payload, "providers", PROVIDERS_SCHEMA_VERSION, source,
                                       keys=fields, required=fields):
        with entry:
            out[name] = ProviderLimits(name, **{f: entry.get(f, int, UNLIMITED) for f in _LIMIT_FIELDS})
    return out


def load_provider_limits(path: str | Path | None = None) -> dict[str, ProviderLimits]:
    """Load provider limits from ``path``, or the bundled defaults if None."""
    return parse_provider_limits(*_schema.load(path, "provider limits", bundled="providers.json"))


def default_provider_limits() -> dict[str, ProviderLimits]:
    """The bundled platform profiles (aws, aws-container, azure, gcp)."""
    return load_provider_limits(None)

