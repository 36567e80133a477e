"""Model catalogs and constrained model selection.

A catalog lists candidate models with their sizes, formats and quality
scores. Selection picks the best-scoring model whose deployment package
fits the size budget, with deterministic tie-breaking so repeated runs
agree byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping

from . import _schema
from ._record import dataclass, field
from .errors import CatalogError, DomainError, NoFeasibleModelError
from .packaging import DeploymentPackage, RuntimeLibrary
from .units import mb_text

CATALOG_SCHEMA_VERSION = 1

BUILTIN_CATALOGS = {
    "sentiment": "sentiment_models.json",
    "sts": "sts_models.json",
}


@dataclass(frozen=True)
class ModelArtifact:
    """One deployable model: size, format, quality scores.

    ``metrics`` maps metric names to scores. F1-style metrics must lie in
    [0, 1]; every score must be finite. ``embedding_dim`` applies to
    encoder models whose output is a fixed-size vector.
    """

    name: str
    size_bytes: int
    format: str
    metrics: Mapping[str, float] = field(default_factory=dict)
    embedding_dim: int | None = None

    def __post_init__(self):
        if not self.name:
            raise DomainError("model name must be non-empty")
        if self.size_bytes <= 0:
            raise DomainError(f"model {self.name}: size_bytes must be positive")
        if not self.format:
            raise DomainError(f"model {self.name}: format must be non-empty")
        object.__setattr__(self, "metrics", dict(self.metrics))
        for metric, score in self.metrics.items():
            if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
                raise DomainError(f"model {self.name}: score for {metric!r} must be finite")
            if "f1" in metric.lower() and not 0.0 <= score <= 1.0:
                raise DomainError(
                    f"model {self.name}: {metric} = {score} is outside [0, 1]"
                )
        if self.embedding_dim is not None and self.embedding_dim <= 0:
            raise DomainError(f"model {self.name}: embedding_dim must be positive")

    def score(self, metric: str) -> float | None:
        return self.metrics.get(metric)


@dataclass(frozen=True)
class SelectionConstraints:
    """Size budget and objective for picking a model from a catalog.

    The budget applies to the whole deployment package, so code and
    runtime must leave some room for an actual model.
    """

    max_package_bytes: int
    code_bytes: int
    runtime: RuntimeLibrary
    objective_metric: str
    min_score: float | None = None

    def __post_init__(self):
        if self.max_package_bytes <= 0:
            raise DomainError("max_package_bytes must be positive")
        if self.code_bytes < 0:
            raise DomainError("code_bytes must be non-negative")
        if not self.objective_metric:
            raise DomainError("objective_metric must be non-empty")
        if self.max_package_bytes <= self.code_bytes + self.runtime.size_bytes:
            raise DomainError(
                f"size budget {self.max_package_bytes} B leaves no room for a model after "
                f"code ({self.code_bytes} B) and runtime {self.runtime.name!r} "
                f"({self.runtime.size_bytes} B)"
            )

    @property
    def model_budget_bytes(self) -> int:
        return self.max_package_bytes - self.code_bytes - self.runtime.size_bytes


@dataclass(frozen=True)
class CandidateEvaluation:
    """How one candidate fared against the constraints.

    ``reason`` names the first violated constraint for infeasible
    candidates and is None for feasible ones.
    """

    model: ModelArtifact
    package_bytes: int | None
    score: float | None
    feasible: bool
    reason: str | None


def evaluate_candidates(
    models: Iterable[ModelArtifact], constraints: SelectionConstraints
) -> list[CandidateEvaluation]:
    """Judge every candidate against the constraints, in catalog order."""
    out = []
    for model in models:
        if not constraints.runtime.supports(model.format):
            out.append(CandidateEvaluation(
                model, None, None, False,
                f"format {model.format!r} not executable by runtime {constraints.runtime.name!r}",
            ))
            continue
        package = DeploymentPackage(constraints.code_bytes, constraints.runtime, model)
        total = package.total_bytes
        if total > constraints.max_package_bytes:
            out.append(CandidateEvaluation(
                model, total, None, False,
                f"package {mb_text(total)} exceeds {mb_text(constraints.max_package_bytes)} budget",
            ))
            continue
        score = model.score(constraints.objective_metric)
        if score is None:
            out.append(CandidateEvaluation(
                model, total, None, False,
                f"no {constraints.objective_metric!r} score",
            ))
            continue
        if constraints.min_score is not None and score < constraints.min_score:
            out.append(CandidateEvaluation(
                model, total, score, False,
                f"{constraints.objective_metric} {score:g} below minimum {constraints.min_score:g}",
            ))
            continue
        out.append(CandidateEvaluation(model, total, score, True, None))
    return out


def select_model(models: Iterable[ModelArtifact], constraints: SelectionConstraints) -> ModelArtifact:
    """Best-scoring model whose package fits the budget.

    Ties break by higher score, then smaller size, then name, so the
    choice is a pure function of the candidate set.

    Raises:
        DomainError: if the catalog is empty.
        NoFeasibleModelError: if every candidate violates a constraint.
    """
    models = list(models)
    if not models:
        raise DomainError("cannot select from an empty catalog")
    evaluations = evaluate_candidates(models, constraints)
    feasible = [ev for ev in evaluations if ev.feasible]
    if not feasible:
        rejections = {ev.model.name: ev.reason for ev in evaluations}
        raise NoFeasibleModelError(
            f"no model satisfies {constraints.objective_metric} selection within "
            f"{mb_text(constraints.max_package_bytes)}",
            rejections,
        )
    best = min(feasible, key=lambda ev: (-ev.score, ev.model.size_bytes, ev.model.name))
    return best.model


def parse_catalog(payload, source: str = "<catalog>") -> list[ModelArtifact]:
    """Parse the catalog schema, rejecting duplicates and invalid entries."""
    models: list[ModelArtifact] = []
    for name, entry in _schema.entries(
        payload, "models", CATALOG_SCHEMA_VERSION, source, error=CatalogError,
        keys={"name", "size_bytes", "size_mb", "format", "metrics", "embedding_dim"},
    ):
        metrics = entry.block("metrics", default={})
        try:
            models.append(ModelArtifact(
                name=name,
                size_bytes=entry.size("size_mb", "size_bytes"),
                format=entry.get("format", str, ""),
                metrics={metric: metrics.get(metric, float) for metric in metrics.raw},
                embedding_dim=entry.get("embedding_dim", int, None),
            ))
        except DomainError as exc:
            raise CatalogError(f"{source}: {exc}") from exc
    return models


def load_catalog(source: str | Path) -> list[ModelArtifact]:
    """Load a model catalog from a file or a built-in name.

    Built-in names: ``sentiment`` (classifier models scored by macro F1)
    and ``sts`` (sentence encoders scored by rank correlation).

    Raises:
        CatalogError: on unreadable files, parse errors (with line
            numbers), duplicates, or entries that violate model
            invariants.
    """
    bundled = BUILTIN_CATALOGS.get(source) if isinstance(source, str) else None
    path = None if bundled else source
    return parse_catalog(*_schema.load(path, "catalog", CatalogError, bundled=bundled))
