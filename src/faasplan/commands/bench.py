"""``faasplan bench``: open-loop load against a live endpoint or the built-in stub."""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

from ..errors import ScenarioError, create_outputs
from . import emit, fields


def _table(report: dict) -> str:
    from ..metrics import format_summary_table, summary_from_dict

    errors = " ".join(f"{k}={v}" for k, v in sorted(report["errors"].items())) or "none"
    lines = [fields([
        ("attempts", report["attempts"]),
        ("samples", report["samples"]),
        ("warmup excluded", report["warmup_excluded"]),
        ("errors", errors),
        ("max schedule error", f"{report['max_schedule_error_ms']:.2f} ms"),
    ])]
    summaries = [(label, summary_from_dict(report[key]))
                 for label, key in (("latency_ms", "summary"), ("server_ms", "server_exec_summary"))
                 if report[key] is not None]
    if summaries:
        lines += ["", format_summary_table(summaries)]
    return "\n".join(lines)


def run(args, store) -> int:
    from ..harness import BenchRun, BenchTarget, StubServer, export_run, run_bench
    from ..metrics import summarize, summary_to_dict
    from ..simulator import TrafficPattern

    if not args.url and not args.stub:
        raise ScenarioError("bench needs --url (or --stub for an offline run)")
    if args.url and args.stub:
        raise ScenarioError("bench takes --url or --stub, not both")
    payload = b""
    if args.payload_file:
        try:
            payload = Path(args.payload_file).read_bytes()
        except OSError as exc:
            raise ScenarioError(f"cannot read payload file {args.payload_file}: {exc}") from exc
    if args.pattern == "steady":
        pattern = TrafficPattern.steady(args.rate, args.duration)
    else:
        pattern = TrafficPattern.poisson(args.rate, args.duration)
    limits = store.provider(args.limits_profile) if args.limits_profile else None
    if args.out:
        create_outputs(args.out)

    with (StubServer(
        delay_ms=args.stub_delay_ms,
        jitter_ms=args.stub_jitter_ms,
        fail_every=args.stub_fail_every,
    ) if args.stub else contextlib.nullcontext()) as stub:
        target = BenchTarget(
            url=stub.url if args.stub else args.url,
            method=args.method,
            payload=payload,
            timeout_ms=args.timeout_ms,
        )
        bench_run = BenchRun(
            target=target,
            pattern=pattern,
            n_warmup=args.warmup,
            provider_limits=limits,
            seed=args.seed,
        )
        result = run_bench(bench_run)

    summary = summarize(result.samples) if len(result.samples) else None
    server_summary = summarize(result.server_exec) if result.server_exec else None
    emit(args, {
        "attempts": result.attempts,
        "samples": len(result.samples),
        "warmup_excluded": result.warmup_excluded,
        "errors": dict(result.errors),
        "error_ratio": result.error_ratio,
        "max_schedule_error_ms": result.max_schedule_error_ms,
        "summary": None if summary is None else summary_to_dict(summary),
        "server_exec_summary": None if server_summary is None else summary_to_dict(server_summary),
    }, _table)
    if args.out:
        export_run(result, args.out)
    if args.max_error_ratio is not None and result.error_ratio > args.max_error_ratio:
        print(
            f"error ratio {result.error_ratio:.4f} exceeds budget {args.max_error_ratio}",
            file=sys.stderr,
        )
        return 1
    return 0
