import json
import math
import resource
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from faasplan import GB, SampleSet, load_pricing, serverless_cost_total, write_samples_csv
from faasplan.cli import _finite_decimal, _finite_float, _megabytes, _ratio, build_parser, main
from faasplan.simulator import load_result_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
        "simulation: seed: must be a non-negative integer, got -1"),
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
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIO_VALUES))
def test_bad_scenario_value_exits_2(tmp_path, capsys, case):
    command, base, edit, message = BAD_SCENARIO_VALUES[case]
    path = scenario_file(tmp_path, base, edit)
    code, err = run_error(capsys, command, "--scenario", path)
    assert code == 2
    assert err == f"error: {path}: {message}\n"


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
}


@pytest.mark.parametrize("case", sorted(BAD_FIXTURE_VALUES))
def test_bad_fixture_value_exits_2(tmp_path, capsys, case):
    filename, doc, argv, message = BAD_FIXTURE_VALUES[case]
    (tmp_path / filename).write_text(json.dumps(doc))
    code, err = run_error(capsys, *argv, "--profile-dir", tmp_path)
    assert code == 2
    assert err == f"error: {tmp_path / filename}: {message}\n"


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
    ({"records": [], "memory_bytes": 0}, "memory_bytes: must be positive"),
    ({"records": [dict(RECORD, billed_ms=float("nan"))]},
     "records[0]: billed_ms: must be a finite non-negative number, got nan"),
    ({"records": [RECORD, dict(RECORD, cold=1)]}, "records[1]: cold: must be true or false, got 1"),
    ({"records": [RECORD, dict(RECORD, instance_id=True)]},
     "records[1]: instance_id: must be an integer, got True"),
    ({"records": [RECORD, dict(RECORD, start_ms=-1)]},
     "records[1]: start_ms: must be a finite non-negative number, got -1"),
    ({"records": [RECORD, 5]}, "records[1]: must be an object, got 5"),
])
def test_cost_malformed_result_exits_2(tmp_path, capsys, edit, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SAVED_RESULT, **edit}))
    code, err = run_error(capsys, "cost", "--result", path)
    assert code == 2
    assert err == f"error: {path}: {message}\n"


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
    code, err = run_error(capsys, "cost", "--result", path, "--memory-mb", "0")
    assert code == 2
    assert err == "error: memory_bytes must be positive\n"


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


def test_every_number_flag_rejects_non_finite_values():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    flags = {(name, action.option_strings[0])
             for name, sub in subcommands.items() for action in sub._actions
             if action.type in (float, Decimal, _finite_float, _finite_decimal, _megabytes, _ratio)}
    assert flags == {(argv[0], flag) for argv, flag in FINITE_FLAGS}


MILLION = ("cost", "--scenario", SCENARIOS / "million_predictions.json")


# Each of these once ended in a traceback (OverflowError, decimal.InvalidOperation,
# ValueError), or in JSON printed megabytes of digits with exit 0.
@pytest.mark.parametrize("argv, message", [
    (("select", "--catalog", "sentiment", "--metric", "f1_macro", "--max-package-mb", "1e308"),
     "argument --max-package-mb: too large for a size in bytes, got '1e308'"),
    ((*MILLION, "--vm", "1e999999"), "error: cost: amounts too large to price"),
    ((*MILLION, "--months", "1e999999"), "error: cost: amounts too large to price"),
    ((*MILLION, "--vm", "1e999999", "--format", "json"), "error: cost: amounts too large to price"),
    ((*MILLION, "--months", "1e999999", "--format", "json"),
     "error: cost: amounts too large to price"),
    ((*MILLION, "--months", "1e-999999"), "error: cost: amounts too small to price"),
    ((*MILLION, "--months", "1e-999999", "--format", "json"),
     "error: cost: amounts too small to price"),
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
], ids=["months-snan", "vm-not-a-number", "rate-not-a-number"])
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
# loaded on one line and the faasplan submodules on the next.
FOOTPRINT = f"""\
import sys
HEAVY = {HEAVY!r}
from faasplan.cli import _finite_decimal, _finite_float, build_parser, main
code = main(sys.argv[1:])
print(*sorted(HEAVY & sys.modules.keys()), file=sys.stderr)
print(*sorted(m.split(".")[1] for m in sys.modules if m.startswith("faasplan.")), file=sys.stderr)
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


# Planner command -> the faasplan modules it never runs, and so must not load.
PLANNER_COMMANDS = {
    "validate": (("validate", "--scenario", SCENARIOS / "tinybert_aws.json"),
                 {"cost", "metrics", "simulator"}),
    "select": (("select", "--catalog", "sentiment", "--provider", "aws", "--metric", "f1_macro"),
               {"cost", "metrics", "simulator"}),
    "cost": (("cost", "--scenario", SCENARIOS / "million_predictions.json"),
             {"simulator", "catalog", "packaging", "providers", "metrics"}),
    "cost-result-json": (("cost", "--result", ".json"), {"catalog", "packaging"}),
    "cost-result-csv": (("cost", "--result", ".csv"), {"simulator"}),
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


def test_harness_import_loads_no_dataclasses_or_inspect():
    # perfbench's stub child imports only this module.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, faasplan.harness; "
                               "print(*sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_planner_commands_load_only_the_modules_they_run(planner_footprint):
    _, loaded, unused = planner_footprint
    assert "cli" in loaded  # the control: the probe does see faasplan modules
    assert loaded & unused == set()


def test_simulate_loads_numpy():
    # The control for the test above: the footprint probe does see numpy.
    heavy, _ = footprint("simulate", "--scenario", SCENARIOS / "smobilebert_replay.json")
    assert "numpy" in heavy
