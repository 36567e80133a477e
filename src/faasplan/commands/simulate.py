"""``faasplan simulate``: run a scenario's seeded simulation, or a memory sweep of it."""

from __future__ import annotations

from pathlib import Path

from ..errors import ScenarioError, Where, create_outputs, writing
from ..units import MB
from . import emit, fields


# Columns of the sweep CSV: a sweep row's keys, its latency summary's keys in between.
_SWEEP_CSV = ("memory_mb", "count", "mean_ms", "q50_ms", "q95_ms", "q99_ms",
              "cold_fraction", "total_billed_gb_s")


def _sweep_table(report: dict) -> str:
    from ..metrics import format_summary_table, summary_from_dict

    return format_summary_table(
        (f"{row['memory_mb']} MB", summary_from_dict(row["latency_summary"]))
        for row in report["sweep"] if row["latency_summary"] is not None
    )


def _result_table(result) -> str:
    from ..metrics import format_summary_table

    lines = []
    if result.latency_summary is not None:
        lines.append(format_summary_table({"latency_ms": result.latency_summary}))
    lines += ["", fields([
        ("requests", len(result.arrival_ms)),
        ("instances", len(set(result.instance_id))),
        ("cold fraction", f"{result.cold_fraction:.4f}"),
        ("billed GB-seconds", f"{result.total_billed_gb_s:.6f}"),
    ], gap=" ")]
    return "\n".join(lines)


def run(args, store) -> int:
    from ..results import _result_json_parts
    from ..scenario import load_scenario
    from ..simulator import export_result_csv, result_header, save_result_json, simulate, simulate_sweep

    scenario = load_scenario(args.scenario, store, seed_override=args.seed)
    for field_name in ("profile", "traffic", "sim_config"):
        if getattr(scenario, field_name) is None:
            block = "simulation" if field_name == "sim_config" else field_name
            raise ScenarioError(f"{scenario.path}: simulate needs a {block!r} block")
    pricing = scenario.pricing or store.pricing_profile("aws")

    sweep_mb = args.memory_sweep or scenario.memory_sweep_mb
    if not args.out:
        outputs = ()
    elif sweep_mb:
        outputs = (Path(f"{args.out}_sweep.csv"),)
    else:
        outputs = (Path(f"{args.out}.csv"), Path(f"{args.out}.json"))
    create_outputs(*outputs)

    if sweep_mb:
        # --memory-sweep sizes are positive already, so a bad size is the scenario's.
        with Where(f"{scenario.path}: memory_sweep_mb"):
            results = simulate_sweep(scenario.profile, scenario.traffic, scenario.sim_config,
                                     pricing, [memory_mb * MB for memory_mb in sweep_mb])
        rows = []
        for memory_mb in sweep_mb:
            # next() in the row, so no result outlives its row.
            row = {"memory_mb": memory_mb, **result_header(next(results))}
            del row["memory_bytes"]  # the row's memory_mb says it
            rows.append(row)
        emit(args, {"sweep": rows}, _sweep_table)
        if outputs:
            out, = outputs
            with writing(out), open(out, "w") as fh:
                fh.write(",".join(_SWEEP_CSV) + "\n")
                for row in rows:
                    cells = {**row, **(row["latency_summary"] or {"count": 0})}
                    fh.write(",".join(str(cells.get(key, "")) for key in _SWEEP_CSV) + "\n")
        return 0

    result = simulate(scenario.profile, scenario.traffic, scenario.sim_config, pricing)
    emit(args, result, _result_table, _result_json_parts)  # in parts, as save_result_json writes
    if outputs:
        csv_path, json_path = outputs
        with writing(csv_path):
            export_result_csv(result, csv_path)
        with writing(json_path):
            save_result_json(result, json_path)
    return 0
