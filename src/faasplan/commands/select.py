"""``faasplan select``: pick the best catalog model that fits a package budget."""

from __future__ import annotations

from .._record import asdict
from ..errors import ScenarioError
from ..units import Unlimited, mb_bytes, mb_text
from . import emit


def _table(report: dict) -> str:
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


def run(args, store) -> int:
    from .. import catalog as catalog_mod

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
    selected = catalog_mod._best(evaluations)
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
    emit(args, report, _table)
    return 0 if selected is not None else 1
