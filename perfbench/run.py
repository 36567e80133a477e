"""faasplan's benchmark: one command, three workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-burst-coldstart --seed 1 --seconds 40 --trace 0

Every run executes all three phases (sim, cli, bench; see phases.py) in
cycles, so every end-to-end metric is measured on every workload; the
workload names the phase that does more work than it does elsewhere (see
WEIGHTS). Cycles repeat while another fits in ``--seconds`` (at least
three). ``--trace 1`` runs the same phases with spans around faasplan's
public functions and reports the per-layer metrics instead.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
from spans import Patches, Tracer, descendants, self_times, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 20210317
# Never tune against this seed; re-check a claimed gain on it.
HELD_OUT_SEED = 8675309

WORKLOADS = {
    "sim-burst-coldstart": "sim",
    "plan-cli": "cli",
    "bench-stub-open-loop": "bench",
}
PHASES = ("sim", "cli", "bench")
# Units of work per cycle. The CLI timings spread most between runs, so
# every workload runs at least two rounds of commands per cycle; the
# workload's own phase runs more than it does elsewhere.
WEIGHTS = {
    "sim-burst-coldstart": {"sim": 2, "cli": 2, "bench": 1},
    "plan-cli": {"sim": 1, "cli": 3, "bench": 1},
    "bench-stub-open-loop": {"sim": 1, "cli": 2, "bench": 2},
}
MIN_CYCLES = 3
CLI_METRICS = {
    "validate": "cli_validate_ms", "select": "cli_select_ms", "cost": "cli_cost_ms",
    "simulate": "cli_simulate_ms", "cost_result": "cli_cost_result_ms", "cost_csv": "cli_cost_csv_ms",
}
# (module, function) pairs a traced run wraps; span name is "<module>.<function>".
TRACED_FUNCTIONS = [
    ("cli", "load_scenario"),
    ("catalog", "load_catalog"), ("catalog", "select_model"),
    ("providers", "load_provider_limits"), ("providers", "validate_plan"),
    ("packaging", "load_runtime_libraries"), ("packaging", "fit_matrix"),
    ("simulator", "generate_arrivals"), ("simulator", "simulate"),
    ("simulator", "export_result_csv"), ("simulator", "save_result_json"),
    ("simulator", "load_result_json"),
    ("metrics", "summarize"), ("metrics", "read_samples_csv"),
    ("cost", "load_pricing"), ("cost", "build_cost_report"), ("cost", "cost_from_simulation"),
]
# per-layer metric -> (span name, factor from seconds)
LAYER_TIMES = {
    "cli.load_scenario_ms": ("cli.load_scenario", 1e3),
    "catalog.load_catalog_ms": ("catalog.load_catalog", 1e3),
    "catalog.select_model_ms": ("catalog.select_model", 1e3),
    "providers.load_provider_limits_ms": ("providers.load_provider_limits", 1e3),
    "providers.validate_plan_ms": ("providers.validate_plan", 1e3),
    "packaging.fit_matrix_ms": ("packaging.fit_matrix", 1e3),
    "simulator.generate_arrivals_s": ("simulator.generate_arrivals", 1.0),
    "simulator.simulate_s": ("simulator.simulate", 1.0),
    "simulator.export_result_csv_s": ("simulator.export_result_csv", 1.0),
    "simulator.save_result_json_s": ("simulator.save_result_json", 1.0),
    "simulator.load_result_json_s": ("simulator.load_result_json", 1.0),
    "metrics.summarize_ms": ("metrics.summarize", 1e3),
    "metrics.read_samples_csv_s": ("metrics.read_samples_csv", 1.0),
    "cost.load_pricing_ms": ("cost.load_pricing", 1e3),
    "cost.build_cost_report_ms": ("cost.build_cost_report", 1e3),
    "cost.cost_from_simulation_ms": ("cost.cost_from_simulation", 1e3),
}
SIM_STATS = ("records", "instances_created", "cold_fraction", "latency_ms_q50", "latency_ms_q99",
             "queue_wait_ms_q50", "queue_wait_ms_q99", "instance_scan_steps")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import faasplan from this checkout's src/, and nowhere else."""
    if not (SRC / "faasplan" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'faasplan'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import faasplan
    if Path(faasplan.__file__).resolve().parent != (SRC / "faasplan").resolve():
        sys.exit(f"error: imported faasplan from {faasplan.__file__}, not from {SRC}")
    return faasplan


def metric(value, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def end_to_end(setup_s: list[float], phases: dict, process_scale: float,
               python_scale: float) -> tuple[dict, dict]:
    """Gated metrics, with timings scaled to the reference host (see phases.py), and raw values.

    Timings and rates are trimmed means (see reference.trimmed_mean).
    """
    sim, cli, bench = (phases[p].data for p in PHASES)
    mean = reference.trimmed_mean
    raw = {"setup_s": mean(setup_s), "sim_requests_per_s": mean(sim["rates"])}
    out = {"setup_s": metric(raw["setup_s"] * process_scale, "s", len(setup_s)),
           "sim_requests_per_s": metric(raw["sim_requests_per_s"] / python_scale, "1/s",
                                        len(sim["rates"]))}
    for name, key in CLI_METRICS.items():
        walls = cli["walls"][name]
        if walls:
            raw[key] = mean(walls) * 1000
            out[key] = metric(raw[key] * process_scale, "ms", len(walls))
    due = bench["due_latency"]
    out["bench_latency_ms_q50"] = metric(reference.nearest_rank(due, Fraction(1, 2)), "ms", len(due))
    out["bench_achieved_rate_ratio"] = metric(
        statistics.median(bench["ratio"]), "ratio", len(bench["ratio"]))
    return out, raw


def per_layer(primary: str, tracer, phase_spans: dict, phases: dict, probe: dict) -> dict:
    self_time = self_times(tracer.spans)
    by_phase = {p: set().union(*(descendants(tracer.spans, s.id) for s in spans))
                for p, spans in phase_spans.items()}

    def pick(per_phase: dict) -> list:
        # The workload's own phase where it touches the layer, else the first that does.
        for p in (primary, *PHASES):
            if per_phase.get(p):
                return per_phase[p]
        return []

    def spans_named(name: str) -> dict:
        return {p: [s for s in tracer.spans if s.id in ids and s.name == name]
                for p, ids in by_phase.items()}

    out = {name: metric(value, "count" if name.endswith("numpy") else "ms")
           for name, value in probe.items()}
    missing = []
    for name, (span_name, factor) in LAYER_TIMES.items():
        found = pick(spans_named(span_name))
        if not found:
            missing.append(span_name)
        value = statistics.median(self_time[s.id] for s in found) * factor if found else 0.0
        out[name] = metric(value, "ms" if factor == 1e3 else "s", len(found))

    phase = "cli" if primary == "cli" else "sim"
    stats = phases[phase].data["stats"]
    for field in SIM_STATS:
        unit = "ms" if "_ms_" in field else ("share" if field == "cold_fraction" else "count")
        out[f"simulator.{field}"] = metric(getattr(stats, field), unit)
    out["simulator.result_json_bytes"] = metric(phases["cli"].data["json_bytes"], "bytes")

    ops = spans_named("op.sim")["sim"] if phase == "sim" else spans_named("cli.simulate")["cli"]
    sims = {s.parent: s for s in spans_named("simulator.simulate")[phase]}
    shares = [self_time[sims[op.id].id] / op.duration for op in ops if op.id in sims]
    out["simulator.simulate_share"] = metric(statistics.median(shares) if shares else 0.0, "share")
    cmd = spans_named("cli.simulate")["cli"]
    io_names = ("simulator.save_result_json", "simulator.export_result_csv")
    io_shares = [sum(self_time[s.id] for s in tracer.spans if s.parent == c.id and s.name in io_names)
                 / c.duration for c in cmd]
    out["cli.simulate_io_share"] = metric(statistics.median(io_shares) if io_shares else 0.0, "share")

    b = phases["bench"].data
    half, q99 = Fraction(1, 2), Fraction(99, 100)
    out.update({
        "harness.send_lag_ms_q50": metric(reference.nearest_rank(b["lag"], half), "ms", len(b["lag"])),
        "harness.send_lag_ms_q99": metric(reference.nearest_rank(b["lag"], q99), "ms", len(b["lag"])),
        "harness.send_lag_ms_max": metric(max(b["lag"]), "ms", len(b["lag"])),
        "harness.due_latency_ms_q99": metric(reference.nearest_rank(b["due_latency"], q99), "ms",
                                             len(b["due_latency"])),
        "harness.reported_latency_ms_q50": metric(reference.nearest_rank(b["reported"], half), "ms"),
        "harness.reported_latency_ms_q99": metric(reference.nearest_rank(b["reported"], q99), "ms"),
        "harness.client_overhead_ms_q50": metric(reference.nearest_rank(b["overhead"], half), "ms"),
        "harness.client_overhead_ms_q99": metric(reference.nearest_rank(b["overhead"], q99), "ms"),
        "harness.server_exec_ms_q50": metric(reference.nearest_rank(b["exec"], half), "ms"),
        "harness.peak_threads": metric(b["peak_threads"], "count"),
        "harness.unaccounted": metric(b["unaccounted"], "count"),
    })
    for kind in ("http", "timeout", "transport"):
        out[f"harness.errors.{kind}"] = metric(b["errors"].get(kind, 0), "count")

    cost_us = span_cost_s() * 1e6
    out["trace.spans"] = metric(len(tracer.spans), "count")
    out["trace.span_cost_us"] = metric(cost_us, "us")
    out["trace.overhead_ms"] = metric(len(tracer.spans) * cost_us / 1000, "ms")
    return out, missing


def provenance(faasplan, args, state, seeds: dict) -> dict:
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text("utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "faasplan_version": faasplan.__version__,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "phase_seeds": seeds,
        "scenario_sha256": state.hashes,
        "src_lines": src_lines,
    }


def main(argv=None, sizes=None) -> int:
    """Run one workload and print its report; ``sizes`` shrinks the ops for self-tests."""
    args = parse_args(argv)
    faasplan = import_program()
    import phases as ph  # imports faasplan, so only once src/ is on the path

    sizes = sizes or ph.Sizes()
    primary = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = base / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    state = None
    try:
        setup_s, probes = [], []
        for _ in range(sizes.setups):
            if state is not None:
                state.stub.stop()
            probes.append(ph.import_probe_s(ph.child_env(ROOT)))
            t0 = time.perf_counter()
            state = ph.set_up(ROOT, work, args.seed, sizes)
            setup_s.append(time.perf_counter() - t0)

        units = {"sim": ph.SimPhase(state, tracer),
                 "cli": ph.CliPhase(ROOT, state, work, tracer),
                 "bench": ph.BenchPhase(state, args.seed, sizes, tracer)}
        weights = WEIGHTS[args.workload]
        phase_spans = {p: [] for p in PHASES}
        with Patches(tracer) if tracer else contextlib.nullcontext() as patches:
            if tracer:
                for module, func in TRACED_FUNCTIONS:
                    patches.wrap(f"faasplan.{module}", func, f"{module}.{func}")
            started, cycles, last = time.perf_counter(), 0, 0.0
            # Whole cycles, so every phase samples the full run and slow drift
            # of the host's speed reaches all metrics alike.
            while cycles < MIN_CYCLES or time.perf_counter() - started + last <= args.seconds:
                t_cycle = time.perf_counter()
                for phase in PHASES:
                    with tracer.span("phase." + phase) if tracer else contextlib.nullcontext() as span:
                        units[phase].step(weights[phase])
                    phase_spans[phase].append(span)
                cycles += 1
                last = time.perf_counter() - t_cycle
        results = {p: unit.finish() for p, unit in units.items()}
        seeds = {"sim": args.seed, "cli_simulate": args.seed + 1,
                 "bench_ops": results["bench"].data["seeds"]}
        prov = provenance(faasplan, args, state, seeds)
    finally:
        if state is not None:
            state.stub.stop()

    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    probes += results["cli"].data["probes"]
    calibrations = results["sim"].data["calibrations"]
    # Factors that turn this host's times into the reference host's.
    process_scale = ph.REF_IMPORT_PROBE_S / reference.trimmed_mean(probes)
    python_scale = ph.REF_CALIBRATION_S / reference.trimmed_mean(calibrations)
    e2e, raw = end_to_end(setup_s, results, process_scale, python_scale)
    report = {"provenance": prov, "end_to_end": e2e, "attempted": attempted, "failed": failed,
              "error_share": failed / attempted,
              "problems": [p for r in results.values() for p in r.problems],
              "cost_result_totals": results["cli"].data["totals"],
              "bench_errors": results["bench"].data["errors"],
              "unscaled": raw,
              "samples": {"setup_s": setup_s, "import_probes_s": probes,
                          "calibrations_s": calibrations,
                          "sim_rates": results["sim"].data["rates"],
                          "cli_walls_s": results["cli"].data["walls"],
                          "bench_due_latency": results["bench"].data["due_latency"]}}
    if tracer:
        probe = ph.interpreter_probe(ROOT, repeats=5)
        layers, missing = per_layer(primary, tracer, phase_spans, results, probe)
        report.update(per_layer=layers, missing_spans=missing)
        tracer.write(base / f"spans-{tag}.json")
        final = {name: {"value": m["value"], "unit": m["unit"]} for name, m in layers.items()}
    else:
        final = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    (base / f"result-{tag}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"primary phase {primary}")
    label = "traced end-to-end (compare with an untraced run for overhead)" if tracer else "end-to-end"
    print(f"# {label}:")
    for name, m in e2e.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:32s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}{unscaled}")
    print(f"{'error_share':32s} {report['error_share']:14.6g} share  "
          f"failed={failed} attempted={attempted}")
    if tracer:
        print("# per-layer:")
        for name, m in report["per_layer"].items():
            print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
        if missing:
            print(f"# spans not seen: {', '.join(missing)}")
    print(f"# cost --result totals (csv prices end-to-end latency): {report['cost_result_totals']}")
    for problem in report["problems"]:
        print(f"# FAILED CHECK: {problem}")
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": not any(r.wrong for r in results.values()),
                      "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
