"""Deployment package composition and provider fit.

A deployment package is function code plus an inference runtime plus a
model artifact; platform size limits bite on the sum. The runtime must be
able to execute the model's serialization format, otherwise the bundle
would deploy and then fail on first invocation.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from . import _schema
from ._record import dataclass
from .errors import DomainError, IncompatibleFormatError, check_int
from .providers import ProviderLimits
from .units import MB, Limit, Unlimited

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ModelArtifact

RUNTIMES_SCHEMA_VERSION = 1

# Plain handler code is negligible next to runtime and model; 1 MB is the
# working convention when the real bundle has not been measured.
DEFAULT_CODE_BYTES = 1 * MB


@dataclass(frozen=True)
class RuntimeLibrary:
    """An inference runtime: its on-disk size and the formats it can run."""

    name: str
    size_bytes: int
    model_formats: frozenset[str]

    def __post_init__(self):
        if not self.name:
            raise DomainError("runtime name must be non-empty")
        object.__setattr__(self, "size_bytes", check_int(self.size_bytes, "size_bytes", positive=True))
        object.__setattr__(self, "model_formats", frozenset(self.model_formats))
        if not self.model_formats:
            raise DomainError("must support at least one model format")

    def supports(self, model_format: str) -> bool:
        return model_format in self.model_formats


@dataclass(frozen=True)
class DeploymentPackage:
    """Code + runtime + model, sized as the platform will see it."""

    code_bytes: int
    runtime: RuntimeLibrary
    model: "ModelArtifact"

    def __post_init__(self):
        object.__setattr__(self, "code_bytes", check_int(self.code_bytes, "code_bytes"))
        if not self.runtime.supports(self.model.format):
            raise IncompatibleFormatError(
                f"model {self.model.name!r} is {self.model.format!r}, which runtime "
                f"{self.runtime.name!r} cannot execute (supports: "
                f"{', '.join(sorted(self.runtime.model_formats))})"
            )

    @property
    def total_bytes(self) -> int:
        return self.code_bytes + self.runtime.size_bytes + self.model.size_bytes


@dataclass(frozen=True)
class DeploymentPlan:
    """A package destined for one provider at one memory size."""

    provider: str
    package: DeploymentPackage
    memory_bytes: int

    def __post_init__(self):
        object.__setattr__(self, "memory_bytes", check_int(self.memory_bytes, "memory_bytes", positive=True))


@dataclass(frozen=True)
class FitRow:
    """Whether a package fits one provider, and how much room is left.

    ``headroom_bytes`` is UNLIMITED when the provider does not cap package
    size; negative when the package overshoots the cap.
    """

    provider: str
    passed: bool
    headroom_bytes: Limit


def fit_matrix(package: DeploymentPackage, providers: Iterable[ProviderLimits]) -> list[FitRow]:
    """Size check of one package against several providers, in input order."""
    rows = []
    for limits in providers:
        cap = limits.max_package_bytes
        if isinstance(cap, Unlimited):
            rows.append(FitRow(limits.name, True, cap))
        else:
            rows.append(FitRow(limits.name, package.total_bytes <= cap, cap - package.total_bytes))
    if not rows:
        raise DomainError("fit_matrix needs at least one provider")
    return rows


def bytes_on_disk(path: str | Path) -> int:
    """Measured size of a file, or the recursive sum for a directory."""
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def parse_runtime_libraries(payload: Mapping, source: str = "<runtimes>") -> dict[str, RuntimeLibrary]:
    """Parse the runtimes fixture schema into an ordered name -> runtime map."""
    out: dict[str, RuntimeLibrary] = {}
    for name, entry in _schema.entries(payload, "runtimes", RUNTIMES_SCHEMA_VERSION, source,
                                       keys={"name", "size_bytes", "size_mb", "model_formats"}):
        with entry:
            out[name] = RuntimeLibrary(
                name=name,
                size_bytes=entry.size("size_mb", "size_bytes"),
                model_formats=frozenset(entry.get_list("model_formats", str, [])),
            )
    return out


def load_runtime_libraries(path: str | Path | None = None) -> dict[str, RuntimeLibrary]:
    """Load runtime definitions from ``path``, or the bundled set if None."""
    return parse_runtime_libraries(*_schema.load(path, "runtimes", bundled="runtimes.json"))
