"""``faasplan cost``: price a scenario's cost block, a saved result or a sample CSV."""

from __future__ import annotations

import decimal
import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import FaasPlanError, ScenarioError, Where
from ..units import MB
from . import emit

if TYPE_CHECKING:  # pragma: no cover
    from ..cost import CostReport


def run(args, store) -> int:
    from .. import cost as cost_mod

    if bool(args.scenario) == bool(args.result):
        raise ScenarioError("cost needs exactly one of --scenario / --result")
    if args.memory_mb is not None and (args.scenario or _is_json(args.result)):
        raise ScenarioError("cost: --memory-mb applies only to a CSV --result")
    try:
        report = _cost_report(args, store)
        cost_mod.check_printable(report)
        emit(args, report, cost_mod.render_cost_table,
             lambda r: json.dumps(cost_mod.cost_report_to_dict(r), indent=2))
    except (OverflowError, decimal.DecimalException) as exc:
        # Finite but huge or tiny prices and horizons give amounts that
        # check_printable refuses (Underflow when too close to 0), or that
        # overflow the Decimal arithmetic.
        size = "small" if isinstance(exc, decimal.Underflow) else "large"
        if args.scenario:
            source, inputs = f"{args.scenario}: cost", " and the scenario's cost and vm blocks"
        elif _is_json(args.result):
            source, inputs = args.result, " and the result's exec_ms and memory_bytes"
        else:
            source, inputs = args.result, ", --memory-mb and the samples"
        raise FaasPlanError(f"{source}: amounts too {size} to price; check --vm, --months"
                            f"{inputs} ({type(exc).__name__})") from exc
    return 0


def _cost_report(args, store) -> CostReport:
    from .. import cost as cost_mod

    scenario = block = None
    if args.scenario:
        from ..scenario import load_scenario
        scenario = load_scenario(args.scenario, store)
        block = scenario.cost_block
        if block is None:
            raise ScenarioError(f"{scenario.path}: cost needs a 'cost' block")
    # Each input is its flag's, else the scenario's, else the default.
    pricing = (
        store.pricing_profile(args.pricing) if args.pricing
        else scenario and scenario.pricing or store.pricing_profile("aws")
    )
    baseline = (
        cost_mod.VmBaseline(monthly_price=args.vm) if args.vm is not None
        else scenario and scenario.vm or cost_mod.DEFAULT_VM_BASELINE
    )
    months = args.months if args.months is not None else block["months"] if block else 1
    if block:
        # The flags are non-negative already, so a bad amount is the cost block's.
        with Where(f"{scenario.path}: cost"):
            return cost_mod.build_cost_report(
                n_requests=block["n_requests"],
                billed_ms_per_request=block["billed_ms_per_request"],
                memory_bytes=block["memory_bytes"],
                pricing=pricing,
                baseline=baseline,
                months=months,
            )
    result_path = Path(args.result)
    if _is_json(result_path):
        from ..results import load_result_json
        result = load_result_json(result_path)
        return cost_mod.cost_from_simulation(result, pricing, baseline, months)
    from ..metrics import read_samples_csv
    memory_bytes = (1024 if args.memory_mb is None else args.memory_mb) * MB
    try:
        samples = read_samples_csv(result_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read result {result_path}: {exc}") from exc
    return cost_mod.cost_from_samples(samples, pricing, baseline, memory_bytes, months)


def _is_json(result) -> bool:
    """Whether ``result`` names a saved simulation (``.json``, any case) rather than a sample CSV."""
    return Path(result).suffix.lower() == ".json"
