import argparse
import contextlib
import io
import json
import math
import re
import resource
import subprocess
import sys
import threading
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan import GB, SampleSet, load_pricing, serverless_cost_total, write_samples_csv
from faasplan.cli import _finite_decimal, _finite_float, _megabytes, _ratio, build_parser, main
from faasplan.simulator import load_result_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# The longest stub delay or jitter a flag takes, in ms: threading.TIMEOUT_MAX s.
STUB_MAX_MS = f"{threading.TIMEOUT_MAX * 1000:.0f}"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_validate_passing_plan(capsys):
    code = run_cli("validate", "--scenario", SCENARIOS / "tinybert_aws.json")
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "provider  aws" in out


def test_validate_failing_plan(capsys):
    code = run_cli("validate", "--scenario", SCENARIOS / "bert_base_aws.json")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "package_size" in out


def test_validate_provider_override_rescues_plan(capsys):
    # the same package fits gcp's larger cap
    code = run_cli("validate", "--scenario", SCENARIOS / "bert_base_aws.json",
                   "--provider", "gcp")
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_json_format(capsys):
    code = run_cli("validate", "--scenario", SCENARIOS / "bert_base_aws.json",
                   "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["passed"] is False
    assert payload["violations"][0]["limit_name"] == "package_size"
    assert payload["provider"] == "aws"


def test_select_from_provider_budget(capsys):
    code = run_cli("select", "--catalog", "sentiment", "--provider", "aws",
                   "--metric", "f1_macro")
    out = capsys.readouterr().out
    assert code == 0
    assert "selected  MobileBERT" in out
    assert "exceeds" in out  # rationale table shows why larger models lost


def test_select_tight_budget(capsys):
    code = run_cli("select", "--catalog", "sentiment", "--max-package-mb", "90",
                   "--metric", "f1_macro")
    assert code == 0
    assert "selected  TinyBERT" in capsys.readouterr().out


def test_select_sts_target_metric(capsys):
    code = run_cli("select", "--catalog", "sts", "--provider", "aws",
                   "--metric", "spearman_target", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["selected"]["name"] == "AugSMobileBERT_target"
    assert payload["selected"]["metrics"]["spearman_target"] == 61.75
    assert len(payload["candidates"]) == 12


def test_select_no_feasible_model(capsys):
    code = run_cli("select", "--catalog", "sentiment", "--max-package-mb", "100",
                   "--metric", "f1_macro", "--min-score", "0.9")
    out = capsys.readouterr().out
    assert code == 1
    assert "no feasible model" in out


def test_select_unlimited_provider_needs_explicit_budget(capsys):
    code = run_cli("select", "--catalog", "sentiment", "--provider", "azure",
                   "--metric", "f1_macro")
    err = capsys.readouterr().err
    assert code == 2
    assert "does not cap package size" in err


def test_select_missing_catalog_file(capsys):
    code = run_cli("select", "--catalog", "/nonexistent/models.json",
                   "--max-package-mb", "100", "--metric", "f1_macro")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_replay_scenario(capsys):
    code = run_cli("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json")
    out = capsys.readouterr().out
    assert code == 0
    assert "requests          5000" in out
    assert "latency_ms" in out


def test_simulate_json_is_deterministic(capsys):
    args = ("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json", "--format", "json")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["latency_summary"]["count"] == 5000


class _Writes(io.StringIO):
    """A stdout that keeps the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_simulate_json_prints_the_rendered_text_in_blocks(monkeypatch):
    from faasplan import results, simulator
    from faasplan.cli import ProfileStore, load_scenario

    # 5,000 records in blocks of 1,000: the header, five blocks, the close and a newline.
    monkeypatch.setattr(results, "_JSON_BLOCK", 1000)
    monkeypatch.setattr(sys, "stdout", _Writes())
    assert run_cli("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json",
                   "--format", "json") == 0
    out, sizes = sys.stdout.getvalue(), sys.stdout.sizes
    monkeypatch.undo()
    scenario = load_scenario(SCENARIOS / "smobilebert_replay.json", ProfileStore(None))
    result = simulator.simulate(scenario.profile, scenario.traffic, scenario.sim_config,
                                scenario.pricing)
    assert out == simulator.render_result_json(result) + "\n"
    assert len(sizes) == 8
    assert max(sizes) < len(out) / 4


def test_simulate_seed_override_changes_draws(capsys):
    args = ("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json", "--format", "json")
    run_cli(*args)
    base = capsys.readouterr().out
    run_cli(*args, "--seed", "999")
    reseeded = capsys.readouterr().out
    assert base != reseeded


def test_simulate_writes_outputs(tmp_path, capsys):
    prefix = tmp_path / "run"
    code = run_cli("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json",
                   "--out", prefix)
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "run.csv").exists()
    result = load_result_json(tmp_path / "run.json")
    assert len(result.records) == 5000


def test_simulate_memory_sweep(capsys):
    code = run_cli("simulate", "--scenario", SCENARIOS / "memory_sweep.json",
                   "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = payload["sweep"]
    assert [r["memory_mb"] for r in rows] == [256, 512, 1024, 2048, 4096]
    q50s = [r["latency_summary"]["q50_ms"] for r in rows]
    assert q50s == sorted(q50s, reverse=True)


def test_simulate_memory_sweep_draws_once(monkeypatch, capsys):
    """The sizes share one set of draws, and each row is the plain run at its size."""
    from faasplan import MB, simulator
    from faasplan._record import replace
    from faasplan.cli import ProfileStore, load_scenario

    walk, calls = simulator._walk, []
    monkeypatch.setattr(simulator, "_walk", lambda *args: calls.append(args) or walk(*args))
    code = run_cli("simulate", "--scenario", SCENARIOS / "memory_sweep.json", "--format", "json")
    rows = json.loads(capsys.readouterr().out)["sweep"]
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 1
    assert len(rows) == 5
    scenario = load_scenario(SCENARIOS / "memory_sweep.json", ProfileStore(None))
    for row in rows:
        config = replace(scenario.sim_config, memory_bytes=row.pop("memory_mb") * MB)
        header = simulator.result_header(
            simulator.simulate(scenario.profile, scenario.traffic, config, scenario.pricing))
        del header["memory_bytes"]
        assert row == header


def test_simulate_sweep_csv(tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = run_cli("simulate", "--scenario", SCENARIOS / "memory_sweep.json",
                   "--out", prefix)
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "sweep_sweep.csv").read_text().splitlines()
    assert lines[0] == "memory_mb,count,mean_ms,q50_ms,q95_ms,q99_ms,cold_fraction,total_billed_gb_s"
    assert len(lines) == 6


@pytest.mark.parametrize("scenario, first_file", [
    ("smobilebert_replay.json", "run.csv"),
    ("memory_sweep.json", "run_sweep.csv"),
])
def test_simulate_out_into_missing_directory_exits_2(tmp_path, capsys, scenario, first_file):
    missing = tmp_path / "nodir"
    code = run_cli("simulate", "--scenario", SCENARIOS / scenario, "--out", missing / "run")
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {missing / first_file}: cannot write: No such file or directory\n"


@pytest.mark.parametrize("argv, work, first_file", [
    (("bench", "--stub", "--rate", "5", "--duration", "0.2"), "faasplan.harness.run_bench", "out"),
    (("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json"),
     "faasplan.simulator.simulate", "out.csv"),
    (("simulate", "--scenario", SCENARIOS / "memory_sweep.json"),
     "faasplan.simulator.simulate_sweep", "out_sweep.csv"),
], ids=["bench", "simulate", "simulate-sweep"])
def test_out_that_cannot_be_written_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                         argv, work, first_file):
    # bench and simulate once did their whole run and printed its report before this exit.
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(work, never)
    missing = tmp_path / "nodir"
    code = run_cli(*argv, "--out", missing / "out")
    assert capsys.readouterr() == ("", f"error: {missing / first_file}: cannot write: "
                                       "No such file or directory\n")
    assert code == 2


def test_simulate_sweep_flag_overrides_scenario(capsys):
    code = run_cli("simulate", "--scenario", SCENARIOS / "memory_sweep.json",
                   "--memory-sweep", "512,1024", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["memory_mb"] for r in payload["sweep"]] == [512, 1024]


def test_cost_scenario_table(capsys):
    code = run_cli("cost", "--scenario", SCENARIOS / "million_predictions.json")
    out = capsys.readouterr().out
    assert code == 0
    assert "1.8667" in out
    assert "8.00" in out
    assert "4285707 requests/month" in out


def test_cost_scenario_json_is_exact(capsys):
    code = run_cli("cost", "--scenario", SCENARIOS / "million_predictions.json",
                   "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["serverless_total"] == "1.86667"
    assert payload["vm_total"] == "8"
    assert payload["breakeven_requests_per_month"] == 4285707


def test_cost_from_simulation_result(tmp_path, capsys):
    prefix = tmp_path / "run"
    run_cli("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json", "--out", prefix)
    capsys.readouterr()
    code = run_cli("cost", "--result", tmp_path / "run.json", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["assumptions"]["n_requests"] == 5000
    assert Decimal(payload["serverless_total"]) > 0


@pytest.mark.parametrize("pricing, total, billed_ms", [
    ("aws", "0.0057836929007", "57.4042"),
    # The run was simulated at aws's 1 ms; gcp rounds each exec_ms up to 100 ms.
    # Summing the records' billed_ms once priced it at 0.0067358465 and 57.4042.
    ("gcp", "0.0103952", "101.76"),
])
def test_cost_from_simulation_result_bills_at_the_chosen_granularity(tmp_path, capsys, pricing,
                                                                       total, billed_ms):
    run_cli("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json", "--out", tmp_path / "run")
    capsys.readouterr()
    code = run_cli("cost", "--result", tmp_path / "run.json", "--pricing", pricing,
                   "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["serverless_total"] == total
    assert payload["assumptions"]["billed_ms_per_request"] == billed_ms


def test_cost_reads_a_json_result_whatever_the_suffix_case(tmp_path, capsys):
    # run.JSON was once read as a sample CSV and exited 2 with a header error.
    run_cli("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json", "--out", tmp_path / "run")
    (tmp_path / "run.JSON").write_bytes((tmp_path / "run.json").read_bytes())
    outputs = []
    for name in ("run.json", "run.JSON"):
        capsys.readouterr()
        assert run_cli("cost", "--result", tmp_path / name, "--format", "json") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cost_from_samples_csv_rebills_durations(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    write_samples_csv(SampleSet.from_values([100.0, 150.5]), path)
    code = run_cli("cost", "--result", path, "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    # aws granularity 1 ms: 100 + 151 billed ms at the default 1024 MB
    expected = serverless_cost_total(2, 251, GB, load_pricing()["aws"])
    assert Decimal(payload["serverless_total"]) == expected
    assert payload["assumptions"]["billed_ms_per_request"] == "125.5"


@pytest.mark.parametrize("fmt, line", [
    ("table", "break-even               unknown (no requests to derive it from)"),
    ("json", '  "breakeven_requests_per_month": null,'),
])
def test_cost_of_a_header_only_csv_derives_no_break_even(tmp_path, capsys, fmt, line):
    path = tmp_path / "samples.csv"
    write_samples_csv(SampleSet.from_values([]), path)
    code = run_cli("cost", "--result", path, "--format", fmt)
    assert code == 0
    assert line in capsys.readouterr().out.splitlines()


def test_cost_needs_exactly_one_source(capsys):
    code = run_cli("cost", "--scenario", SCENARIOS / "million_predictions.json",
                   "--result", "x.json")
    assert code == 2
    assert "exactly one" in capsys.readouterr().err
    code = run_cli("cost")
    assert code == 2
    capsys.readouterr()


def test_cost_vm_override(capsys):
    code = run_cli("cost", "--scenario", SCENARIOS / "million_predictions.json",
                   "--vm", "40", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["vm_total"] == "40"
    assert payload["breakeven_requests_per_month"] > 4285707


def test_bench_stub_offline(capsys):
    code = run_cli("bench", "--stub", "--stub-delay-ms", "5", "--rate", "20",
                   "--duration", "1", "--warmup", "5", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["attempts"] == 20
    assert payload["samples"] == 15
    assert payload["errors"] == {}
    assert payload["summary"]["q50_ms"] >= 5.0
    assert payload["server_exec_summary"]["q50_ms"] == 5.0


def test_bench_error_budget_enforced(capsys):
    code = run_cli("bench", "--stub", "--stub-delay-ms", "0", "--stub-fail-every", "2",
                   "--rate", "20", "--duration", "0.5", "--warmup", "0",
                   "--max-error-ratio", "0.1")
    captured = capsys.readouterr()
    assert code == 1
    assert "exceeds budget" in captured.err


def test_bench_writes_samples(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--stub", "--stub-delay-ms", "1", "--rate", "10",
                   "--duration", "0.5", "--warmup", "0", "--out", out)
    capsys.readouterr()
    assert code == 0
    assert len(out.read_text().splitlines()) == 6  # header + 5 samples


def test_bench_needs_url_or_stub(capsys):
    code = run_cli("bench", "--rate", "1", "--duration", "1")
    assert code == 2
    assert "bench needs --url" in capsys.readouterr().err


def test_bench_refuses_url_with_stub(capsys):
    # Once benched the stub and ignored --url without a word.
    code = run_cli("bench", "--url", "http://127.0.0.1:1/", "--stub", "--rate", "5",
                   "--duration", "0.4", "--warmup", "0")
    assert code == 2
    assert capsys.readouterr().err == "error: bench takes --url or --stub, not both\n"


def test_bench_out_into_missing_directory_exits_2(tmp_path, capsys):
    # The form simulate --out uses; bench once wrote "cannot write samples to <path>: [Errno 2] ...".
    out = tmp_path / "nodir" / "bench.csv"
    code = run_cli("bench", "--stub", "--stub-delay-ms", "1", "--rate", "10",
                   "--duration", "0.2", "--warmup", "0", "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"error: {out}: cannot write: No such file or directory\n"


def test_bench_missing_payload_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "body.json"
    code = run_cli("bench", "--stub", "--payload-file", missing)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read payload file {missing}: ")


def test_bench_payload_over_the_request_cap_exits_1(tmp_path, capsys):
    payload = tmp_path / "body.bin"
    payload.write_bytes(b"x" * 7_000_000)
    code = run_cli("bench", "--stub", "--limits-profile", "aws", "--payload-file", payload)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: payload of 7000000 B exceeds aws's request cap\n"
                   "  request_size: 7000000 B > 6291456 B limit\n")


TABLES = {
    "validate-pass": (("validate", "--scenario", SCENARIOS / "tinybert_aws.json"), 0, """\
provider  aws
package   74448896 B (71 MB)
memory    1073741824 B (1024 MB)
PASS
"""),
    "validate-fail": (("validate", "--scenario", SCENARIOS / "bert_base_aws.json"), 1, """\
provider  aws
package   456130560 B (435 MB)
memory    1073741824 B (1024 MB)
FAIL
  package_size: 456130560 B > 262144000 B limit
"""),
    "select": (("select", "--catalog", "sentiment", "--provider", "aws", "--metric", "f1_macro"), 0, """\
selected  MobileBERT  f1_macro=0.84  package 113 MB

BERT_BASE_GRU     441 MB        -  package 441 MB exceeds 250 MB budget
BERT_BASE_CLS     435 MB        -  package 435 MB exceeds 250 MB budget
TinyBERT           71 MB     0.82  feasible
MobileBERT        113 MB     0.84  feasible
"""),
    "select-none-feasible": (("select", "--catalog", "sentiment", "--provider", "aws",
                              "--metric", "f1_macro", "--min-score", "0.99"), 1, """\
no feasible model for f1_macro within 250 MB

BERT_BASE_GRU     441 MB        -  package 441 MB exceeds 250 MB budget
BERT_BASE_CLS     435 MB        -  package 435 MB exceeds 250 MB budget
TinyBERT           71 MB     0.82  f1_macro 0.82 below minimum 0.99
MobileBERT        113 MB     0.84  f1_macro 0.84 below minimum 0.99
"""),
    "simulate": (("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json"), 0, """\
            count   mean    q50    q95     q99
latency_ms   5000  56.91  50.64  83.97  103.68

requests          5000
instances         6
cold fraction     0.0012
billed GB-seconds 287.021000
"""),
    "simulate-sweep": (("simulate", "--scenario", SCENARIOS / "memory_sweep.json"), 0, """\
         count    mean     q50     q95     q99
256 MB     500  227.08  200.16  318.42  419.84
512 MB     500  113.54  100.08  159.21  209.92
1024 MB    500   56.77   50.04   79.61  104.96
2048 MB    500   32.86   28.97   46.08   60.76
4096 MB    500   32.86   28.97   46.08   60.76
"""),
    "cost": (("cost", "--scenario", SCENARIOS / "million_predictions.json"), 0, """\
requests                 1000000
billed ms/request        100
memory                   1024 MB
serverless total (USD)   1.8667
vm baseline (USD/month)  8.00
break-even               4285707 requests/month (~1.65 rps)
"""),
    "bench-no-requests": (("bench", "--stub", "--rate", "0"), 0, """\
attempts            0
samples             0
warmup excluded     0
errors              none
max schedule error  0.00 ms
"""),
}


@pytest.mark.parametrize("case", list(TABLES))
def test_table_output_is_pinned(capsys, case):
    argv, expected_code, expected_out = TABLES[case]
    code = run_cli(*argv)
    assert (code, capsys.readouterr().out) == (expected_code, expected_out)


def test_unknown_provider_exits_2(capsys):
    code = run_cli("validate", "--scenario", SCENARIOS / "tinybert_aws.json",
                   "--provider", "ibm")
    assert code == 2
    assert "unknown provider" in capsys.readouterr().err


def test_missing_scenario_exits_2(capsys):
    code = run_cli("validate", "--scenario", "/nonexistent/s.json")
    assert code == 2
    capsys.readouterr()


def test_profile_dir_override(tmp_path, capsys):
    # the override file replaces the bundled table, so it must also carry
    # the profile the scenario itself names
    (tmp_path / "pricing.json").write_text(json.dumps({
        "version": 1,
        "profiles": [
            {"name": "aws", "per_million_requests": 0.20, "per_gb_second": 0.0000166667},
            {"name": "flat", "per_million_requests": 1.0, "per_gb_second": 0.0},
        ],
    }))
    code = run_cli("cost", "--scenario", SCENARIOS / "million_predictions.json",
                   "--profile-dir", tmp_path, "--pricing", "flat", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["serverless_total"] == "1"  # 1M requests at 1.0 per million


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "faasplan.cli", "validate",
         "--scenario", str(SCENARIOS / "tinybert_aws.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def scenario_file(tmp_path, doc_or_name, edit=lambda doc: None):
    doc = doc_or_name
    if isinstance(doc_or_name, str):
        doc = json.loads((SCENARIOS / doc_or_name).read_text())
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def run_error(capsys, *argv):
    code = run_cli(*argv)
    return code, capsys.readouterr().err


# Each of these once ended in a traceback instead of exit 2.
BAD_SCENARIO_VALUES = {
    "poisson-without-rate": (
        "simulate", "smobilebert_replay.json",
        lambda d: d.update(traffic={"kind": "poisson", "duration_s": 1}),
        "traffic: rate_rps: missing required key"),
    "reference-memory-not-a-number": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["profile"].update(reference_memory_mb="x"),
        "profile: reference_memory_mb: must be a number, got 'x'"),
    "seed-not-an-integer": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["simulation"].update(seed="abc"),
        "simulation: seed: must be an integer, got 'abc'"),
    "seed-negative": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["simulation"].update(seed=-1),
        "simulation: seed must be a non-negative integer, got -1"),
    "n-requests-not-an-integer": (
        "cost", "million_predictions.json",
        lambda d: d["cost"].update(n_requests="many"),
        "cost: n_requests: must be an integer, got 'many'"),
    "vm-price-not-a-number": (
        "cost", "million_predictions.json",
        lambda d: d["vm"].update(monthly_price="abc"),
        "vm: monthly_price: must be a number, got 'abc'"),
    # The constructors' own value checks, named by file and block.
    "traffic-rate-negative": (
        "simulate", "smobilebert_replay.json",
        lambda d: d.update(traffic={"kind": "poisson", "rate_rps": -1, "duration_s": 1}),
        "traffic: rate_rps must be non-negative"),
    "traffic-duty-above-1": (
        "simulate", "smobilebert_replay.json",
        lambda d: d.update(traffic={"kind": "burst", "high_rate": 10, "low_rate": 0,
                                    "period_s": 10, "duty": 2, "duration_s": 10}),
        "traffic: duty must lie in [0, 1], got 2.0"),
    "keep-alive-negative": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["simulation"].update(keep_alive_s=-1),
        "simulation: keep_alive_s must be non-negative (math.inf allowed)"),
    "n-samples-below-anchors": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["profile"].update(n_samples=1),
        "profile: n_samples=1 is too small to separate the anchor quantiles"),
    # A size in MB must stay finite in bytes, as the MB flags must.
    "memory-mb-huge": (
        "validate", "tinybert_aws.json", lambda d: d.update(memory_mb=1e308),
        "memory_mb: too large for a size in bytes, got 1e+308"),
    "memory-mb-infinite": (
        "validate", "tinybert_aws.json", lambda d: d.update(memory_mb=math.inf),
        "memory_mb: must be a finite number, got inf"),
    "memory-mb-nan": (
        "validate", "tinybert_aws.json", lambda d: d.update(memory_mb=math.nan),
        "memory_mb: must be a finite number, got nan"),
    "code-mb-infinite": (
        "validate", "tinybert_aws.json", lambda d: d["package"].update(code_mb=math.inf),
        "package: code_mb: must be a finite number, got inf"),
    "reference-memory-huge": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["profile"].update(reference_memory_mb=1e308),
        "profile: reference_memory_mb: too large for a size in bytes, got 1e+308"),
    "mb-per-full-cpu-nan": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["simulation"].update(scaling={"mb_per_full_cpu": math.nan}),
        "simulation: scaling: mb_per_full_cpu: must be a finite number, got nan"),
    "cost-memory-huge": (
        "cost", "million_predictions.json", lambda d: d["cost"].update(memory_mb=-1e308),
        "cost: memory_mb: too large for a size in bytes, got -1e+308"),
    "steady-rate-nan": (
        "simulate", "smobilebert_replay.json", lambda d: d["traffic"].update(rate_rps=math.nan),
        "traffic: rate_rps must be finite, got nan"),
    "steady-duration-infinite": (
        "simulate", "smobilebert_replay.json", lambda d: d["traffic"].update(duration_s=math.inf),
        "traffic: duration_s must be finite, got inf"),
    "anchor-duration-nan": (
        "simulate", "smobilebert_replay.json",
        lambda d: d["profile"]["quantile_anchors"].update({"0.99": math.nan}),
        "profile: anchor duration nan must be finite"),
    # Non-finite amounts are named by file and key, not reported as unpriceable.
    "months-nan": (
        "cost", "million_predictions.json", lambda d: d["cost"].update(months=math.nan),
        "cost: months: must be a finite number, got nan"),
    "billed-ms-infinite": (
        "cost", "million_predictions.json",
        lambda d: d["cost"].update(billed_ms_per_request=math.inf),
        "cost: billed_ms_per_request: must be a finite number, got inf"),
    "vm-price-infinite": (
        "cost", "million_predictions.json", lambda d: d["vm"].update(monthly_price=-math.inf),
        "vm: monthly_price: must be a finite number, got -inf"),
    # Each of these once named no file at all.
    "code-bytes-negative": (
        "validate", "tinybert_aws.json",
        lambda d: d.update(package={**d["package"], "code_mb": None, "code_bytes": -1}),
        "package: code_bytes must be a non-negative integer, got -1"),
    "vm-price-negative": (
        "cost", "million_predictions.json", lambda d: d["vm"].update(monthly_price=-1),
        "vm: monthly_price must be non-negative"),
    "n-requests-negative": (
        "cost", "million_predictions.json", lambda d: d["cost"].update(n_requests=-1),
        "cost: n_requests must be a non-negative integer, got -1"),
    "months-negative": (
        "cost", "million_predictions.json", lambda d: d["cost"].update(months=-1),
        "cost: months must be non-negative"),
    "memory-mb-negative": (
        "validate", "tinybert_aws.json", lambda d: d.update(memory_mb=-5),
        "memory_mb: memory_bytes must be a positive integer, got -5242880"),
    "memory-sweep-negative": (
        "simulate", "memory_sweep.json", lambda d: d.update(memory_sweep_mb=[512, -1]),
        "memory_sweep_mb: memory_bytes must be a positive integer, got -1048576"),
    "runtime-cannot-run-model": (
        "validate", "tinybert_aws.json", lambda d: d["package"].update(runtime="tflite"),
        "package: model 'TinyBERT' is 'onnx', which runtime 'tflite' cannot execute "
        "(supports: tflite)"),
    "provider-unknown": (
        "validate", "tinybert_aws.json", lambda d: d.update(provider="x"),
        "provider: unknown provider 'x'; available: aws, aws-container, azure, gcp"),
    "catalog-unreadable": (
        "validate", "tinybert_aws.json", lambda d: d.update(catalog="sentimnet"),
        "catalog: cannot read catalog sentimnet: [Errno 2] No such file or directory: 'sentimnet'"),
    # Amounts past what prints once named no file.
    "n-requests-unpriceable": (
        "cost", "million_predictions.json", lambda d: d["cost"].update(n_requests=10**40),
        "cost: amounts too large to price; check --vm, --months and the scenario's cost and vm "
        "blocks (OverflowError)"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIO_VALUES))
def test_bad_scenario_value_exits_2(tmp_path, capsys, case):
    command, base, edit, message = BAD_SCENARIO_VALUES[case]
    path = scenario_file(tmp_path, base, edit)
    code, err = run_error(capsys, command, "--scenario", path)
    assert code == 2
    assert err == f"error: {path}: {message}\n"


def with_every_block(doc):
    """Add smobilebert_replay.json's simulation blocks and million_predictions.json's cost blocks."""
    for name, keys in (("smobilebert_replay.json", ("pricing", "profile", "traffic", "simulation")),
                       ("million_predictions.json", ("cost", "vm"))):
        other = json.loads((SCENARIOS / name).read_text())
        doc.update({key: other[key] for key in keys})


@pytest.mark.parametrize("block, key", [
    ("profile", "n_sample"), ("traffic", "rate"), ("simulation", "keepalive_s"),
    ("cost", "month"), ("vm", "monthly"),
])
def test_typod_key_in_a_block_validate_does_not_read_exits_2(tmp_path, capsys, block, key):
    # Keys are checked on load, so a typo fails every command, not only the one reading it.
    path = scenario_file(tmp_path, "tinybert_aws.json",
                         lambda d: (with_every_block(d), d[block].update({key: 1})))
    assert run_error(capsys, "validate", "--scenario", path) == (
        2, f"error: {path}: {block}: unknown keys [{key!r}]\n")


def test_validate_does_not_check_the_values_of_a_block_it_does_not_read(tmp_path, capsys):
    # simulate refuses this profile ("n-samples-below-anchors"); validate never builds it.
    path = scenario_file(tmp_path, "tinybert_aws.json",
                         lambda d: (with_every_block(d), d["profile"].update(n_samples=1)))
    assert run_cli("validate", "--scenario", path) == 0
    assert "PASS" in capsys.readouterr().out


INLINE_MODEL = {"name": "inline", "size_mb": 50, "format": "onnx"}
NESTED_TYPOS = {
    "scaling": (lambda d: d["simulation"].update(scaling={"mb_per_ful_cpu": 1769}),
                "simulation: scaling: unknown keys ['mb_per_ful_cpu']"),
    "inline-model": (lambda d: (d.pop("catalog"), d["package"].update(model={**INLINE_MODEL, "metrix": {}})),
                     "package: model entry: unknown keys ['metrix']"),
}


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("nested", sorted(NESTED_TYPOS))
def test_typod_key_in_a_nested_object_fails_every_command(tmp_path, capsys, nested, command):
    # Checked on load, as a block's own keys are: each typo once passed the command not reading it.
    edit, message = NESTED_TYPOS[nested]
    path = scenario_file(tmp_path, "tinybert_aws.json", lambda d: (with_every_block(d), edit(d)))
    assert run_error(capsys, command, "--scenario", path) == (2, f"error: {path}: {message}\n")


def test_validate_an_inline_model_without_a_catalog(tmp_path, capsys):
    path = scenario_file(tmp_path, "tinybert_aws.json",
                         lambda d: (d.pop("catalog"), d["package"].update(model=INLINE_MODEL)))
    assert run_cli("validate", "--scenario", path, "--format", "json") == 0
    # 1 MB of code, onnxruntime's 14 MB and the 50 MB model.
    assert json.loads(capsys.readouterr().out)["package_bytes"] == 68_157_440


def test_samples_csv_profile_resolves_against_the_scenario_directory(tmp_path):
    # How measured latencies enter a simulation: the file next to the scenario, resampled.
    from faasplan import LatencyProfile, simulate
    from faasplan.cli import ProfileStore, load_scenario
    from faasplan.metrics import read_samples_csv

    (tmp_path / "run").mkdir()
    csv_path = tmp_path / "run" / "samples.csv"
    write_samples_csv(SampleSet.from_values([40.0, 52.5, 61.0, 75.25, 90.0]), csv_path)
    path = scenario_file(tmp_path / "run", "smobilebert_replay.json", lambda d: (
        d.update(profile={"reference_memory_mb": 1024, "samples_csv": "samples.csv"}),
        d["traffic"].update(duration_s=2)))
    scenario = load_scenario(path, ProfileStore())
    run = simulate(scenario.profile, scenario.traffic, scenario.sim_config, scenario.pricing)
    expected = simulate(LatencyProfile(GB, read_samples_csv(csv_path)), scenario.traffic,
                        scenario.sim_config, scenario.pricing)
    assert len(run.records) == 100
    assert run.records == expected.records


def test_infinite_traffic_rate_exits_2(tmp_path, capsys):
    # JSON's Infinity once made simulate draw zero-length gaps without end.
    path = scenario_file(tmp_path, "smobilebert_replay.json", lambda d: d.update(
        traffic={"kind": "poisson", "rate_rps": math.inf, "duration_s": 1}))
    assert run_error(capsys, "simulate", "--scenario", path) == (
        2, f"error: {path}: traffic: rate_rps must be finite, got inf\n")


def _cap_address_space():
    # A regression then ends in a MemoryError here, not on the host's memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*argv):
    proc = subprocess.run([sys.executable, "-m", "faasplan.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_cap_address_space)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("traffic, count", [
    ({"kind": "steady", "rate_rps": 1e9, "duration_s": 1}, "1e+09"),
    ({"kind": "poisson", "rate_rps": 1e9, "duration_s": 1}, "1e+09"),
    ({"kind": "burst", "high_rate": 4e7, "low_rate": 1e6, "period_s": 10, "duty": 0.5,
      "duration_s": 25}, "6.1e+08"),
    ({"kind": "steady", "rate_rps": 1e300, "duration_s": 1e300}, "inf"),
], ids=["steady", "poisson", "burst", "overflowing"])
def test_oversized_traffic_exits_2_before_allocating(tmp_path, traffic, count):
    # Arrival lists of this size once filled memory.
    path = scenario_file(tmp_path, "smobilebert_replay.json", lambda d: d.update(traffic=traffic))
    assert run_capped("simulate", "--scenario", path) == (
        2, "", f"error: {path}: traffic: expected request count {count} exceeds the limit of "
               "10,000,000\n")


def test_burst_with_too_many_periods_exits_2_before_allocating(tmp_path):
    # No requests expected, but 10^8 periods once filled memory with segments.
    traffic = {"kind": "burst", "high_rate": 0, "low_rate": 0, "period_s": 1e-6, "duty": 0.5,
               "duration_s": 100}
    path = scenario_file(tmp_path, "smobilebert_replay.json", lambda d: d.update(traffic=traffic))
    assert run_capped("simulate", "--scenario", path) == (
        2, "", f"error: {path}: traffic: period count 1e+08 exceeds the limit of 10,000,000\n")


@pytest.mark.parametrize("pattern", ["steady", "poisson"])
def test_oversized_bench_rate_exits_2_before_allocating(pattern):
    assert run_capped("bench", "--stub", "--pattern", pattern, "--rate", "1e9", "--duration", "1") == (
        2, "", "error: expected request count 1e+09 exceeds the limit of 10,000,000\n")


def test_traffic_at_the_request_limit_is_accepted():
    from faasplan.simulator import MAX_REQUESTS, TrafficPattern
    assert TrafficPattern.poisson(MAX_REQUESTS / 10, 10).rate_rps == MAX_REQUESTS / 10
    assert TrafficPattern.burst(MAX_REQUESTS / 5, 0, 10, 0.5, 10).high_rate == MAX_REQUESTS / 5


BAD_FIXTURE_VALUES = {
    "pricing-rate-not-a-number": (
        "pricing.json",
        {"version": 1, "profiles": [
            {"name": "aws", "per_million_requests": "abc", "per_gb_second": 0.0000166667}]},
        ("cost", "--scenario", SCENARIOS / "million_predictions.json"),
        "profile 'aws': per_million_requests: must be a number, got 'abc'"),
    "runtime-size-not-a-number": (
        "runtimes.json",
        {"version": 1, "runtimes": [
            {"name": "onnxruntime", "size_mb": "x", "model_formats": ["onnx"]}]},
        ("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
        "runtime 'onnxruntime': size_mb: must be a number, got 'x'"),
    "provider-with-execution-limit": (
        "providers.json",
        {"version": 1, "providers": [
            {"name": "aws", "max_package_bytes": 262144000, "max_execution_ms": 900000,
             "max_memory_bytes": 10737418240, "max_request_bytes": 6291456}]},
        ("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
        "provider entry: unknown keys ['max_execution_ms']"),
    "pricing-rate-nan": (
        "pricing.json",
        {"version": 1, "profiles": [
            {"name": "aws", "per_million_requests": 0.2, "per_gb_second": math.nan}]},
        ("cost", "--scenario", SCENARIOS / "million_predictions.json"),
        "profile 'aws': per_gb_second: must be a finite number, got nan"),
    "runtime-size-infinite": (
        "runtimes.json",
        {"version": 1, "runtimes": [
            {"name": "onnxruntime", "size_mb": math.inf, "model_formats": ["onnx"]}]},
        ("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
        "runtime 'onnxruntime': size_mb: must be a finite number, got inf"),
    "catalog-size-huge": (
        "models.json",
        {"version": 1, "models": [{"name": "big", "size_mb": 1e308, "format": "onnx"}]},
        ("select", "--catalog", "models.json", "--provider", "aws", "--metric", "f1_macro"),
        "model 'big': size_mb: too large for a size in bytes, got 1e+308"),
    # The value classes' own checks, named by file and entry.
    "provider-memory-zero": (
        "providers.json",
        {"version": 1, "providers": [
            {"name": "aws", "max_package_bytes": 262144000, "max_memory_bytes": 0,
             "max_request_bytes": 6291456}]},
        ("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
        "provider 'aws': max_memory_bytes must be a positive integer, got 0"),
    "pricing-rate-negative": (
        "pricing.json",
        {"version": 1, "profiles": [
            {"name": "aws", "per_million_requests": 0.2, "per_gb_second": -1}]},
        ("cost", "--scenario", SCENARIOS / "million_predictions.json"),
        "profile 'aws': pricing rates must be non-negative"),
    "runtime-size-zero": (
        "runtimes.json",
        {"version": 1, "runtimes": [
            {"name": "onnxruntime", "size_mb": 0, "model_formats": ["onnx"]}]},
        ("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
        "runtime 'onnxruntime': size_bytes must be a positive integer, got 0"),
    "catalog-f1-above-1": (
        "models.json",
        {"version": 1, "models": [
            {"name": "big", "size_mb": 10, "format": "onnx", "metrics": {"f1_macro": 2}}]},
        ("select", "--catalog", "models.json", "--provider", "aws", "--metric", "f1_macro"),
        "model 'big': f1_macro = 2.0 is outside [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIXTURE_VALUES))
def test_bad_fixture_value_exits_2(tmp_path, capsys, case):
    filename, doc, argv, message = BAD_FIXTURE_VALUES[case]
    (tmp_path / filename).write_text(json.dumps(doc))
    code, err = run_error(capsys, *argv, "--profile-dir", tmp_path)
    assert code == 2
    assert err == f"error: {tmp_path / filename}: {message}\n"


def test_provider_entry_without_a_memory_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "providers.json"
    path.write_text(json.dumps({"version": 1, "providers": [
        {"name": "aws", "max_package_bytes": 262144000, "max_request_bytes": 6291456}]}))
    code, err = run_error(capsys, "validate", "--scenario", SCENARIOS / "tinybert_aws.json",
                          "--profile-dir", tmp_path)
    assert (code, err) == (2, f"error: {path}: provider entry: missing keys ['max_memory_bytes']\n")


@pytest.mark.parametrize("command, base, block, typo, correct", [
    ("simulate", "smobilebert_replay.json", "simulation", "keepalive_s", "keep_alive_s"),
    ("simulate", "smobilebert_replay.json", "simulation", "cold_start", "cold_start_ms"),
    ("cost", "million_predictions.json", "cost", "monthz", None),
])
def test_typoed_block_key_is_rejected(tmp_path, capsys, command, base, block, typo, correct):
    def edit(doc):
        doc[block][typo] = doc[block].pop(correct) if correct else 3
    path = scenario_file(tmp_path, base, edit)
    code, err = run_error(capsys, command, "--scenario", path)
    assert code == 2
    assert err == f"error: {path}: {block}: unknown keys [{typo!r}]\n"


@pytest.mark.parametrize("keep_alive, cold_fraction", [
    (None, 1.0),      # null is the 600 s default, shorter than the 1000 s gaps
    ("absent", 1.0),
    ("inf", 0.25),    # only the first request starts an instance
])
def test_keep_alive_null_means_the_default(tmp_path, capsys, keep_alive, cold_fraction):
    simulation = {"memory_mb": 1024, "cold_start_ms": 0}
    if keep_alive != "absent":
        simulation["keep_alive_s"] = keep_alive
    path = scenario_file(tmp_path, {
        "version": 1, "pricing": "aws",
        "profile": {"reference_memory_mb": 1024, "constant_ms": 10},
        "traffic": {"kind": "trace", "timestamps": [0, 1e6, 2e6, 3e6]},
        "simulation": simulation,
    })
    assert run_cli("simulate", "--scenario", path, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["cold_fraction"] == cold_fraction


def test_unreadable_profile_samples_exit_2(tmp_path, capsys):
    def edit(doc):
        doc["profile"] = {"reference_memory_mb": 1024, "samples_csv": "missing.csv"}
    path = scenario_file(tmp_path, "smobilebert_replay.json", edit)
    code, err = run_error(capsys, "simulate", "--scenario", path)
    assert code == 2
    assert err.startswith(f"error: {path}: profile: samples_csv: cannot read ")


def test_profile_samples_not_in_utf8_exit_2(tmp_path, capsys):
    # A samples_csv that did not decode once ended in a UnicodeDecodeError traceback.
    (tmp_path / "samples.csv").write_bytes(b"\xff\xfetimestamp_ms,duration_ms,cold,instance\n")

    def edit(doc):
        doc["profile"] = {"reference_memory_mb": 1024, "samples_csv": "samples.csv"}
    path = scenario_file(tmp_path, "smobilebert_replay.json", edit)
    code, err = run_error(capsys, "simulate", "--scenario", path)
    assert code == 2
    assert err.startswith(f"error: {path}: profile: samples_csv: cannot read "
                          f"{tmp_path / 'samples.csv'}: 'utf-8' codec can't decode ")


def test_profile_samples_with_an_oversized_field_exit_2(tmp_path, capsys):
    # A field past csv.field_size_limit() once ended in a _csv.Error traceback.
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("timestamp_ms,duration_ms,cold,instance\n0.0,1.0,0," + "x" * 131_073 + "\n")

    def edit(doc):
        doc["profile"] = {"reference_memory_mb": 1024, "samples_csv": "samples.csv"}
    path = scenario_file(tmp_path, "smobilebert_replay.json", edit)
    assert run_error(capsys, "simulate", "--scenario", path) == (
        2, f"error: {path}: profile: {csv_path}:2: field larger than field limit (131072)\n")


def test_inline_catalog_list_is_rejected(tmp_path, capsys):
    inline = [{"name": "TinyBERT", "size_mb": 56, "format": "onnx"}]
    path = scenario_file(tmp_path, "tinybert_aws.json", lambda d: d.update(catalog=inline))
    code, err = run_error(capsys, "validate", "--scenario", path)
    assert code == 2
    assert f"{path}: catalog: must be a string" in err


@pytest.mark.parametrize("name", ["missing.json", "missing.csv"])
def test_cost_missing_result_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    code, err = run_error(capsys, "cost", "--result", path)
    assert code == 2
    assert err.startswith(f"error: cannot read result {path}: ")


def test_cost_result_without_records_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"a": 1}')
    code, err = run_error(capsys, "cost", "--result", path)
    assert code == 2
    assert err == f"error: {path}: records: missing required key\n"


SAVED_RESULT = {"records": [{}], "cold_fraction": 0, "latency_summary": None,
                "total_billed_gb_s": 0, "memory_bytes": 1}
RECORD = {"arrival_ms": 0.0, "start_ms": 0.0, "end_ms": 12.0, "cold": False, "instance_id": 0,
          "exec_ms": 12.0, "billed_ms": 12.0}


# The first three once ended in a traceback instead of exit 2.
@pytest.mark.parametrize("edit, message", [
    ({}, "records[0]: missing keys ['arrival_ms', 'billed_ms', 'cold', 'end_ms', 'exec_ms', "
         "'instance_id', 'start_ms']"),
    ({"records": [], "latency_summary": {"count": 1}}, "latency_summary: mean_ms: missing required key"),
    ({"records": [], "memory_bytes": "x"}, "memory_bytes: must be an integer, got 'x'"),
    ({"records": [], "memory_bytes": 0}, "memory_bytes must be a positive integer, got 0"),
    ({"records": [dict(RECORD, billed_ms=float("nan"))]},
     "records[0]: billed_ms: must be a finite non-negative number, got nan"),
    ({"records": [RECORD, dict(RECORD, cold=1)]}, "records[1]: cold: must be true or false, got 1"),
    ({"records": [RECORD, dict(RECORD, instance_id=True)]},
     "records[1]: instance_id: must be an integer, got True"),
    ({"records": [RECORD, dict(RECORD, start_ms=-1)]},
     "records[1]: start_ms: must be a finite non-negative number, got -1"),
    ({"records": [RECORD, 5]}, "records[1]: must be an object, got 5"),
    # A number past the float range once read as amounts too large to price,
    # and an id outside the instance_id column once loaded.
    ({"records": [dict(RECORD, arrival_ms=10**400)]},
     "records[0]: arrival_ms: must be a finite non-negative number, got "
     "100000000000000000...0000000000000000000"),
    ({"records": [RECORD, dict(RECORD, exec_ms=10**400)]},
     "records[1]: exec_ms: must be a finite non-negative number, got "
     "100000000000000000...0000000000000000000"),
    ({"records": [dict(RECORD, instance_id=2**63)]},
     "records[0]: instance_id: must be an integer in [0, 2**63), got 9223372036854775808"),
    ({"records": [RECORD, dict(RECORD, instance_id=-1)]},
     "records[1]: instance_id: must be an integer in [0, 2**63), got -1"),
    # Amounts past what prints once named no file.
    ({"records": [RECORD], "memory_bytes": 10**40},
     "amounts too large to price; check --vm, --months and the result's exec_ms and memory_bytes "
     "(OverflowError)"),
    ("timestamp_ms,duration_ms,cold,instance\n,1e300,,\n",
     "amounts too large to price; check --vm, --months, --memory-mb and the samples "
     "(OverflowError)"),
])
def test_cost_malformed_result_exits_2(tmp_path, capsys, edit, message):
    if isinstance(edit, str):
        path = tmp_path / "samples.csv"
        path.write_text(edit)
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**SAVED_RESULT, **edit}))
    code, err = run_error(capsys, "cost", "--result", path)
    assert code == 2
    assert err == f"error: {path}: {message}\n"


# An integer literal past CPython's int-string limit (4,300 digits) once ended in a
# ValueError traceback from json.loads. json.dumps cannot write one, so it goes in as text.
DIGITS = "9" * 5000


@pytest.mark.parametrize("filename, text, argv", [
    ("scenario.json", (SCENARIOS / "million_predictions.json").read_text().replace(
        '"n_requests": 1000000', f'"n_requests": -{DIGITS}'), ("cost", "--scenario")),
    ("providers.json", f'{{"version": 1, "providers": [{{"name": "aws", "max_memory_bytes": {DIGITS}}}]}}',
     ("validate", "--scenario", SCENARIOS / "tinybert_aws.json", "--profile-dir")),
    ("run.json", json.dumps(SAVED_RESULT).replace('"memory_bytes": 1', f'"memory_bytes": {DIGITS}'),
     ("cost", "--result")),
], ids=["scenario", "fixture", "result"])
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, filename, text, argv):
    path = tmp_path / filename
    assert DIGITS in text
    path.write_text(text)
    code, err = run_error(capsys, *argv, tmp_path if filename == "providers.json" else path)
    assert code == 2
    assert err.startswith(f"error: {path}: Exceeds the limit (4300 digits) for integer string "
                          "conversion")


# A bad duration once named no line, and a bad cold cell loaded as False.
@pytest.mark.parametrize("rows, message", [
    (",12.0,,\n,-3.0,,\n", "3: durations must be finite and non-negative, got -3.0"),
    (",1.0,,\n,2.0,,\n,inf,,\n,nan,,\n", "4: durations must be finite and non-negative, got inf"),
    ("0.0,1.0,1,\n0.0,1.0,2,\n", "3: cold must be 0, 1 or empty, got '2'"),
    ("0.0,1.0,true,\n", "2: cold must be 0, 1 or empty, got 'true'"),
])
def test_cost_malformed_samples_csv_names_the_line(tmp_path, capsys, rows, message):
    path = tmp_path / "samples.csv"
    path.write_text("timestamp_ms,duration_ms,cold,instance\n" + rows)
    code, err = run_error(capsys, "cost", "--result", path)
    assert code == 2
    assert err == f"error: {path}:{message}\n"


def test_cost_samples_csv_row_of_three_cells_exits_2(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("timestamp_ms,duration_ms,cold,instance\n0.0,1.0,0\n")
    assert run_error(capsys, "cost", "--result", path) == (
        2, f"error: {path}:2: expected 4 columns, got 3\n")


def test_cost_samples_csv_with_an_oversized_field_exits_2(tmp_path, capsys):
    # A field past csv.field_size_limit() once ended in a _csv.Error traceback.
    path = tmp_path / "samples.csv"
    path.write_text("timestamp_ms,duration_ms,cold,instance\n0.0,1.0,0,\n0.0,1.0,0,"
                    + "x" * 131_073 + "\n")
    assert run_error(capsys, "cost", "--result", path) == (
        2, f"error: {path}:3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("argv", [
    ("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
    ("select", "--catalog", "sentiment", "--provider", "aws", "--metric", "f1_macro"),
    ("cost", "--scenario", SCENARIOS / "million_predictions.json"),
])
def test_seed_is_only_an_option_where_it_is_read(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv, "--seed", "1")
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# An empty list once ran a plain simulation instead of a sweep.
@pytest.mark.parametrize("value", ["abc", ""])
def test_bad_memory_sweep_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("simulate", "--scenario", SCENARIOS / "memory_sweep.json", "--memory-sweep", value)
    assert exc_info.value.code == 2
    assert f"argument --memory-sweep: expected comma-separated integer MB sizes, got {value!r}" in (
        capsys.readouterr().err)


def test_cost_csv_result_at_zero_memory_exits_2(tmp_path, capsys):
    # 0 MB once priced the run at the 1024 MB default.
    path = tmp_path / "samples.csv"
    write_samples_csv(SampleSet.from_values([12.0, 15.0]), path)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("cost", "--result", path, "--memory-mb", "0")
    assert exc_info.value.code == 2
    assert "argument --memory-mb: must be positive, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize("source", [
    ("--scenario", SCENARIOS / "million_predictions.json"),
    ("--result", "run.json"),
    ("--result", "run.JSON"),
])
def test_cost_memory_flag_outside_csv_results_exits_2(capsys, source):
    # It was once ignored: the scenario still priced its cost block's 1024 MB.
    code, err = run_error(capsys, "cost", *source, "--memory-mb", "4096")
    assert code == 2
    assert err == "error: cost: --memory-mb applies only to a CSV --result\n"


# Every float and Decimal flag. Each value once ended in a traceback or was
# accepted silently.
FINITE_FLAGS = [
    (("select", "--catalog", "sentiment", "--provider", "aws", "--metric", "f1_macro"), flag)
    for flag in ("--max-package-mb", "--min-score", "--code-mb")
] + [
    (("cost", "--scenario", SCENARIOS / "million_predictions.json"), flag)
    for flag in ("--vm", "--months")
] + [
    (("bench", "--stub"), flag)
    for flag in ("--rate", "--duration", "--timeout-ms", "--max-error-ratio",
                 "--stub-delay-ms", "--stub-jitter-ms")
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag", FINITE_FLAGS, ids=[flag for _, flag in FINITE_FLAGS])
def test_non_finite_flag_is_a_usage_error(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv, f"{flag}={value}")
    assert exc_info.value.code == 2
    assert f"argument {flag}: must be a finite number, got {value!r}" in capsys.readouterr().err


def number_flags() -> list[tuple[str, str]]:
    """``(command, flag)`` of every flag of ``build_parser()`` that converts its text, but to a path."""
    subcommands = build_parser()._subparsers._group_actions[0].choices
    return [(name, action.option_strings[0])
            for name, sub in subcommands.items() for action in sub._actions
            if action.type is not None and action.type is not Path]


def parse_flag(command: str, flag: str, text: str):
    """``flag=text`` parsed on ``command``, its required flags given: the value, or SystemExit.

    Returns ``(value, exit, stdout, stderr)``; ``exit`` is None when the text parsed.
    """
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    required = [arg for action in sub._actions if action.required
                for arg in (action.option_strings[0], "x")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args([command, *required, f"{flag}={text}"])
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()
    dest = next(a.dest for a in sub._actions if flag in a.option_strings)
    return getattr(args, dest), None, out.getvalue(), err.getvalue()


def test_every_number_flag_rejects_non_finite_values():
    # A flag that parses "0.5" to a number takes floats or Decimals; each must refuse nan.
    fractional = {(command, flag) for command, flag in number_flags()
                  if isinstance(parse_flag(command, flag, "0.5")[0], (float, Decimal))}
    assert fractional == {(argv[0], flag) for argv, flag in FINITE_FLAGS}
    for command, flag in fractional:
        _, code, out, err = parse_flag(command, flag, "nan")
        assert (code, out) == (2, "")
        assert f"argument {flag}: must be a finite number, got 'nan'" in err


# One row per check of the number-flag parser: the type, finiteness, the
# range, and a size's range in whole bytes.
@pytest.mark.parametrize("parse, text, message", [
    (_finite_decimal, "abc", "invalid Decimal value: 'abc'"),
    (_finite_float, "-inf", "must be a finite number, got '-inf'"),
    (_ratio, "2", "must lie in [0, 1], got '2'"),
    (_megabytes, "1e-9", "must be positive, got '1e-9'"),  # 0 bytes; once refused naming no flag
])
def test_number_flag_parsers_word_the_rule(parse, text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=re.escape(message)):
        parse(text)


# Text a number flag may be given: finite and non-finite floats in several
# spellings, negatives, zero, huge values and junk.
FLAG_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3e}"),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["0", "-0", "-0.0", "1e308", "-1e308", "1e999999", "1e-999999", "nan",
                     "-nan", "sNaN", "inf", "-Infinity", "1_000", "0x10", "", " ", "1,2", ",",
                     "abc", "1e", "5e-324", "2.5"]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(number_flags()), text=FLAG_TEXT)
def test_number_flag_text_parses_or_names_the_flag(flag, text):
    command, option = flag
    value, code, out, err = parse_flag(command, option, text)
    if code is None:
        values = value if isinstance(value, list) else [value]
        assert all(v.is_finite() if isinstance(v, Decimal) else math.isfinite(v) for v in values)
    else:
        assert (code, out) == (2, "")
        assert f"argument {option}: " in err


MILLION = ("cost", "--scenario", SCENARIOS / "million_predictions.json")


# Each of these once ended in a traceback (OverflowError, decimal.InvalidOperation,
# ValueError), or in JSON printed megabytes of digits with exit 0.
@pytest.mark.parametrize("argv, message", [
    (("select", "--catalog", "sentiment", "--metric", "f1_macro", "--max-package-mb", "1e308"),
     "argument --max-package-mb: too large for a size in bytes, got '1e308'"),
    ((*MILLION, "--vm", "1e999999"), f"error: {MILLION[2]}: cost: amounts too large to price"),
    ((*MILLION, "--months", "1e999999"), f"error: {MILLION[2]}: cost: amounts too large to price"),
    ((*MILLION, "--vm", "1e999999", "--format", "json"),
     f"error: {MILLION[2]}: cost: amounts too large to price"),
    ((*MILLION, "--months", "1e999999", "--format", "json"),
     f"error: {MILLION[2]}: cost: amounts too large to price"),
    ((*MILLION, "--months", "1e-999999"), f"error: {MILLION[2]}: cost: amounts too small to price"),
    ((*MILLION, "--months", "1e-999999", "--format", "json"),
     f"error: {MILLION[2]}: cost: amounts too small to price"),
], ids=["select-max-package-mb", "cost-vm", "cost-months", "cost-vm-json", "cost-months-json",
        "cost-months-tiny", "cost-months-tiny-json"])
def test_huge_finite_flag_exits_2(capsys, argv, message):
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # rejected by argparse
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("value", ["-1", "1.5"])
def test_error_ratio_outside_unit_interval_is_a_usage_error(capsys, value):
    # -1 once failed every run, and a budget above 1 could never fail.
    with pytest.raises(SystemExit) as exc_info:
        run_cli("bench", "--stub", "--rate", "10", "--duration", "0.1", f"--max-error-ratio={value}")
    assert exc_info.value.code == 2
    assert f"argument --max-error-ratio: must lie in [0, 1], got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("cost", "--scenario", SCENARIOS / "million_predictions.json", "--months", "sNaN"),
     "argument --months: must be a finite number, got 'sNaN'"),
    (("cost", "--scenario", SCENARIOS / "million_predictions.json", "--vm", "abc"),
     "argument --vm: invalid Decimal value: 'abc'"),
    (("bench", "--stub", "--rate", "abc"), "argument --rate: invalid float value: 'abc'"),
    # Sizes, prices and horizons below their range once exited 2 naming no flag.
    (("validate", "--scenario", SCENARIOS / "tinybert_aws.json", "--memory-mb", "-5"),
     "argument --memory-mb: must be positive, got '-5'"),
    (("simulate", "--scenario", SCENARIOS / "memory_sweep.json", "--memory-sweep", "512,-1"),
     "argument --memory-sweep: sizes must be positive, got '512,-1'"),
    (("cost", "--scenario", SCENARIOS / "million_predictions.json", "--months", "-1"),
     "argument --months: must be non-negative, got '-1'"),
    (("cost", "--scenario", SCENARIOS / "million_predictions.json", "--vm", "-1"),
     "argument --vm: must be non-negative, got '-1'"),
    # Each of these once exited 2 through a value class, naming no flag.
    (("bench", "--stub", "--rate", "-1"), "argument --rate: must be non-negative, got '-1'"),
    (("bench", "--stub", "--duration", "0"), "argument --duration: must be positive, got '0'"),
    (("bench", "--stub", "--timeout-ms", "0"), "argument --timeout-ms: must be positive, got '0'"),
    (("bench", "--stub", "--stub-delay-ms", "-1"),
     f"argument --stub-delay-ms: must lie in [0, {STUB_MAX_MS}], got '-1'"),
    (("bench", "--stub", "--stub-jitter-ms", "-0.5"),
     f"argument --stub-jitter-ms: must lie in [0, {STUB_MAX_MS}], got '-0.5'"),
    # A finite delay past threading.TIMEOUT_MAX s once passed, then killed every stub handler.
    (("bench", "--stub", "--stub-delay-ms", "1e300", "--timeout-ms", "500"),
     f"argument --stub-delay-ms: must lie in [0, {STUB_MAX_MS}], got '1e300'"),
    (("bench", "--stub", "--stub-jitter-ms", f"{STUB_MAX_MS}1"),
     f"argument --stub-jitter-ms: must lie in [0, {STUB_MAX_MS}], got '{STUB_MAX_MS}1'"),
    (("bench", "--stub", "--warmup", "-1"), "argument --warmup: must be non-negative, got '-1'"),
    (("bench", "--stub", "--stub-fail-every", "0"),
     "argument --stub-fail-every: must be positive, got '0'"),
    (("select", "--catalog", "sentiment", "--metric", "f1_macro", "--max-package-mb", "-1"),
     "argument --max-package-mb: must be positive, got '-1'"),
    (("select", "--catalog", "sentiment", "--provider", "aws", "--metric", "f1_macro",
      "--code-mb", "-1"), "argument --code-mb: must be non-negative, got '-1'"),
], ids=["months-snan", "vm-not-a-number", "rate-not-a-number", "memory-mb-negative",
        "memory-sweep-negative", "months-negative", "vm-negative", "rate-negative",
        "duration-zero", "timeout-ms-zero", "stub-delay-ms-negative", "stub-jitter-ms-negative",
        "stub-delay-ms-huge", "stub-jitter-ms-huge",
        "warmup-negative", "stub-fail-every-zero", "max-package-mb-negative", "code-mb-negative"])
def test_unparsable_number_flag_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv)
    assert exc_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json"),
    ("bench", "--stub", "--pattern", "poisson", "--duration", "0.1"),
])
def test_negative_seed_flag_is_a_usage_error(capsys, argv):
    # numpy's seeding once raised "expected non-negative integer" here.
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv, "--seed", "-1")
    assert exc_info.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err


# Modules a planner command must not pay for: numpy and the HTTP stack it
# does not run, and dataclasses with the inspect module it loads.
HEAVY = {"numpy", "http.server", "asyncio", "dataclasses", "inspect"}

# Runs one command in a fresh interpreter, then names the heavy modules it
# loaded on one line and the faasplan submodules (as "cost" or
# "commands.cost") on the next.
FOOTPRINT = f"""\
import sys
HEAVY = {HEAVY!r}
from faasplan.cli import _finite_decimal, _finite_float, build_parser, main
code = main(sys.argv[1:])
print(*sorted(HEAVY & sys.modules.keys()), file=sys.stderr)
print(*sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("faasplan.")), file=sys.stderr)
sys.exit(code)
"""


def footprint(*argv) -> tuple[list[str], set[str]]:
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *map(str, argv)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heavy, faasplan_modules = proc.stderr.splitlines()[-2:]
    return heavy.split(), set(faasplan_modules.split())


@pytest.fixture(scope="module")
def saved_result(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("footprint") / "run"
    assert main(["simulate", "--scenario", str(SCENARIOS / "smobilebert_replay.json"),
                 "--out", str(prefix)]) == 0
    return prefix


COMMANDS = ("validate", "select", "simulate", "cost", "bench")


def other_commands(name: str) -> set[str]:
    """The modules of every CLI command but ``name``: no command loads another's."""
    return {f"commands.{command}" for command in COMMANDS if command != name}


# Planner command -> the faasplan modules it never runs, and so must not load.
PLANNER_COMMANDS = {
    "validate": (("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
                 {"cost", "metrics", "simulator", "results", *other_commands("validate")}),
    "select": (("select", "--catalog", "sentiment", "--provider", "aws", "--metric", "f1_macro"),
               {"cost", "metrics", "simulator", "scenario", "results", *other_commands("select")}),
    "cost": (("cost", "--scenario", SCENARIOS / "million_predictions.json"),
             {"simulator", "catalog", "packaging", "providers", "metrics", "results",
              *other_commands("cost")}),
    "cost-result-json": (("cost", "--result", ".json"),
                         {"catalog", "packaging", "scenario", "simulator", "providers",
                          *other_commands("cost")}),
    "cost-result-csv": (("cost", "--result", ".csv"),
                        {"simulator", "scenario", "results", *other_commands("cost")}),
}


# Both formats: perfbench times the JSON output, users read the table.
@pytest.fixture(scope="module",
                params=[(name, fmt) for fmt in ("table", "json") for name in PLANNER_COMMANDS],
                ids=lambda param: param[0] if param[1] == "table" else f"{param[0]}-json")
def planner_footprint(request, saved_result):
    """Heavy modules, faasplan modules and forbidden modules of one planner command."""
    name, fmt = request.param
    argv, unused = PLANNER_COMMANDS[name]
    if argv[1] == "--result":
        argv = ("cost", "--result", f"{saved_result}{argv[2]}")
    return (*footprint(*argv, "--format", fmt), unused)


def test_planner_commands_load_no_numpy_or_http_stack(planner_footprint):
    heavy, _, _ = planner_footprint
    assert heavy == []


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_validate_loads_no_module_of_a_block_it_does_not_read(tmp_path, fmt):
    # tinybert_aws.json with a pricing, profile, traffic, simulation, cost and vm block.
    path = scenario_file(tmp_path, "tinybert_aws.json", with_every_block)
    heavy, loaded = footprint("validate", "--scenario", path, "--format", fmt)
    assert heavy == []
    assert "commands.validate" in loaded  # the control
    assert loaded & PLANNER_COMMANDS["validate"][1] == set()


def test_harness_import_loads_no_dataclasses_or_inspect():
    # perfbench's stub child imports only this module.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, faasplan.harness; "
                               "print(*sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_harness_import_loads_no_simulator():
    # A stub server sends nothing, so it needs no arrivals, prices or limits.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, faasplan.harness; "
                               "print(*sorted(m for m in sys.modules if m.startswith('faasplan.')))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "faasplan.harness" in loaded
    assert loaded & {"faasplan.simulator", "faasplan.cost", "faasplan.providers",
                     "faasplan._schema"} == set()


def test_harness_import_loads_no_http_server():
    # The stub is built on socketserver: http.server would load http.client, email and ssl.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, faasplan.harness; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "socketserver" in loaded
    assert loaded & {"http.server", "http.client", "email", "ssl"} == set()


def test_planner_commands_load_only_the_modules_they_run(planner_footprint):
    _, loaded, unused = planner_footprint
    assert "cli" in loaded  # the control: the probe does see faasplan modules
    assert loaded & unused == set()
    assert len(loaded & {f"commands.{command}" for command in COMMANDS}) == 1


# Runs ``python -m faasplan.cli ARGV...`` as runpy does for -m, then names on
# stderr whether the module was also imported under its own name.
AS_MAIN = """\
import runpy, sys
try:
    runpy.run_module("faasplan.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("faasplan.cli" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    *(argv for argv, _ in PLANNER_COMMANDS.values()),
    ("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json"),
    ("bench", "--stub", "--rate", "0"),
], ids=[*PLANNER_COMMANDS, "simulate", "bench"])
def test_command_run_as_main_never_imports_faasplan_cli(saved_result, argv):
    # Importing faasplan.cli from a command module would compile and run cli.py
    # a second time, next to __main__, with a second ProfileStore class.
    if argv[1] == "--result":
        argv = ("cost", "--result", f"{saved_result}{argv[2]}")
    proc = subprocess.run([sys.executable, "-c", AS_MAIN, *map(str, argv), "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)  # the command ran and printed its report
    assert proc.stderr.splitlines()[-1] == "False"


def test_scenario_names_resolve_through_cli():
    from faasplan import cli, scenario

    for name in ("Scenario", "load_scenario", "SCENARIO_SCHEMA_VERSION"):
        assert getattr(cli, name) is getattr(scenario, name)
    with pytest.raises(AttributeError, match="nosuch"):
        cli.nosuch  # noqa: B018


def poisson_scenario(tmp_path, requests: float):
    """smobilebert_replay.json with Poisson traffic that expects ``requests`` over 100 s."""
    return scenario_file(tmp_path, "smobilebert_replay.json", lambda doc: doc.update(
        traffic={"kind": "poisson", "rate_rps": requests / 100, "duration_s": 100}))


# Expected requests from which a Poisson run imports numpy to draw (simulator._IMPORT_NUMPY_NS
# over _GAP_NS + _INDEX_NS).
NUMPY_BREAK_EVEN = 80_000


@pytest.mark.parametrize("requests", [NUMPY_BREAK_EVEN - 1, None])
def test_simulate_below_the_break_even_count_loads_no_numpy(tmp_path, requests):
    # It draws in pure Python: the poisson run just below the break-even
    # count, and the 5,000-request trace replay.
    scenario = SCENARIOS / "smobilebert_replay.json" if requests is None else poisson_scenario(
        tmp_path, requests)
    heavy, _ = footprint("simulate", "--scenario", scenario, "--format", "json")
    assert heavy == []


def test_simulate_at_the_break_even_count_loads_numpy(tmp_path):
    # The control for the tests above and below: the footprint probe does see numpy.
    heavy, _ = footprint("simulate", "--scenario", poisson_scenario(tmp_path, NUMPY_BREAK_EVEN))
    assert "numpy" in heavy


def test_bench_stub_loads_no_numpy():
    heavy, _ = footprint("bench", "--stub", "--rate", "50", "--duration", "0.5", "--format", "json")
    assert "numpy" not in heavy


# Runs the CLI with numpy unimportable: any ``import numpy`` raises ImportError.
NO_NUMPY = """\
import sys
sys.modules["numpy"] = None
from faasplan.cli import main
sys.exit(main(sys.argv[1:]))
"""


def burst_scenario(tmp_path):
    """An on/off burst of about 6,000 requests whose keep-alive is shorter than its off phase."""
    return scenario_file(tmp_path, "smobilebert_replay.json", lambda doc: doc.update(
        traffic={"kind": "burst", "high_rate": 400, "low_rate": 2, "period_s": 20, "duty": 0.25,
                 "duration_s": 60},
        simulation={"seed": 11, "memory_mb": 1024, "keep_alive_s": 5, "cold_start_ms": 300,
                    "max_instances": None}))


# The last two draw at and above the count from which a run with numpy installed imports it.
@pytest.mark.parametrize("scenario", ["smobilebert_replay.json", "memory_sweep.json", "burst",
                                      "poisson-break-even", "sweep-above-break-even"])
def test_simulate_without_numpy_writes_the_same_bytes(tmp_path, capsys, scenario):
    import numpy  # noqa: F401 - the in-process run draws with numpy, as it does once loaded

    sweep = ["--memory-sweep", "512,2048"] if scenario == "sweep-above-break-even" else []
    if scenario == "burst":
        path = burst_scenario(tmp_path)
    elif scenario == "poisson-break-even":
        path = poisson_scenario(tmp_path, NUMPY_BREAK_EVEN)
    elif sweep:
        path = poisson_scenario(tmp_path, NUMPY_BREAK_EVEN * 5 // 4)
    else:
        path = SCENARIOS / scenario
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, "simulate", "--scenario", str(path),
                           *sweep, "--out", str(tmp_path / "pure"), "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["simulate", "--scenario", str(path), *sweep, "--out", str(tmp_path / "numpy"),
                 "--format", "json"]) == 0
    assert proc.stdout == capsys.readouterr().out
    written = sorted(p.name[len("pure"):] for p in tmp_path.glob("pure*"))
    swept = sweep or scenario == "memory_sweep.json"
    assert written == (["_sweep.csv"] if swept else [".csv", ".json"])
    for suffix in written:
        assert (tmp_path / f"pure{suffix}").read_bytes() == (tmp_path / f"numpy{suffix}").read_bytes()
