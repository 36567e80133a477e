import decimal
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faasplan import (
    DEFAULT_VM_BASELINE,
    GB,
    MB,
    DomainError,
    PricingModel,
    ScenarioError,
    VmBaseline,
    billed_duration,
    breakeven,
    build_cost_report,
    cost_from_simulation,
    load_pricing,
    serverless_cost,
    serverless_cost_total,
    vm_baseline_cost,
)
from faasplan.cost import (
    ceil_ms,
    cost_from_samples,
    parse_pricing,
    render_cost_table,
    round_up,
)
from faasplan.metrics import SampleSet
from faasplan.simulator import SimulationResult

AWS = load_pricing()["aws"]
GCP = load_pricing()["gcp"]


def oracle_breakeven(pricing, vm_price, billed_ms, memory_bytes):
    """Exact rational break-even, computed without the cost module."""
    per_request = Fraction(pricing.per_million_requests) / 10**6
    per_request += Fraction(billed_ms, 1000) * Fraction(memory_bytes, GB) * Fraction(pricing.per_gb_second)
    return math.ceil(Fraction(vm_price) / per_request)


def test_billed_duration_rounds_up_to_granularity():
    assert billed_duration(1.0, 1) == 1.0
    assert billed_duration(0.5, 1) == 1.0
    assert billed_duration(101.0, 100) == 200.0
    assert billed_duration(250.0, 100) == 300.0


def test_billed_duration_boundary_not_pushed_up():
    # values already on the boundary stay put, including float-noisy ones
    assert billed_duration(100.0, 100) == 100.0
    assert billed_duration(0.1 + 0.2, 1) == 1.0
    assert billed_duration(0.0, 100) == 0.0


def test_billed_duration_rejects_bad_inputs():
    with pytest.raises(DomainError):
        billed_duration(-1.0, 1)
    with pytest.raises(DomainError):
        billed_duration(float("inf"), 1)
    with pytest.raises(DomainError):
        billed_duration(10.0, 0)


GRANULARITIES = st.sampled_from([1, 100]) | st.integers(1, 10**4)


@given(
    value=st.floats(0, allow_nan=False, allow_infinity=False)  # subnormals and values near 1e308
    | st.builds(lambda k, g: float(k * g), st.integers(0, 10**6), st.sampled_from([1, 100])),  # exact multiples
    granularity=GRANULARITIES,
)
def test_ceil_ms_matches_exact_rational_round_up(value, granularity):
    assert ceil_ms(value, granularity) == round_up(Fraction(value), granularity)


@pytest.mark.parametrize("value", [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 100.0, 1e308, 1.7976931348623157e308])
@pytest.mark.parametrize("granularity", [1, 100])
def test_ceil_ms_matches_exact_rational_round_up_at_the_edges(value, granularity):
    assert ceil_ms(value, granularity) == round_up(Fraction(value), granularity)


def test_coarser_multiple_granularity_never_cheaper():
    # only integer-multiple coarsening: 100 -> 300 keeps old boundaries
    rng = random.Random(7)
    for _ in range(200):
        exec_ms = rng.uniform(0, 2000)
        g = rng.choice([1, 10, 100])
        k = rng.randint(1, 5)
        assert billed_duration(exec_ms, g * k) >= billed_duration(exec_ms, g)


def test_serverless_cost_reference_workload():
    # 1M requests at 100 ms and 1 GB: 0.20 request fee + 100000 GB-s compute
    total = serverless_cost(1_000_000, 100, GB, AWS)
    assert total == Decimal("1.86667")


def test_serverless_cost_gcp_profile():
    total = serverless_cost(1_000_000, 100, GB, GCP)
    assert total == Decimal("2.05")


def test_serverless_cost_is_linear():
    one = serverless_cost(1, 100, GB, AWS)
    assert serverless_cost(1_000, 100, GB, AWS) == 1000 * one
    assert serverless_cost(0, 100, GB, AWS) == 0


def test_serverless_cost_scales_with_memory():
    at_1gb = serverless_cost(1000, 100, GB, AWS)
    at_2gb = serverless_cost(1000, 100, 2 * GB, AWS)
    request_fee = Decimal(1000) * AWS.per_million_requests / 1_000_000
    assert at_2gb - request_fee == 2 * (at_1gb - request_fee)


def test_serverless_cost_half_gb_exact():
    # memory/GB ratios with denominator 2**30 must not round
    total = serverless_cost(1_000_000, 100, GB // 2, AWS)
    assert total == Decimal("0.20") + Decimal("50000") * Decimal("0.0000166667")


def test_serverless_cost_total_matches_uniform_case():
    assert serverless_cost_total(500, 500 * 120, GB, AWS) == serverless_cost(500, 120, GB, AWS)


def test_cost_rejects_negatives():
    with pytest.raises(DomainError):
        serverless_cost(-1, 100, GB, AWS)
    with pytest.raises(DomainError):
        serverless_cost(1, -100, GB, AWS)
    with pytest.raises(DomainError):
        serverless_cost(1, 100, 0, AWS)


def test_vm_baseline_cost():
    assert vm_baseline_cost(DEFAULT_VM_BASELINE) == Decimal("8")
    assert vm_baseline_cost(VmBaseline(8, GB), months=Decimal("2.5")) == Decimal("20.0")
    with pytest.raises(DomainError):
        vm_baseline_cost(DEFAULT_VM_BASELINE, months=-1)


def test_breakeven_default_workload():
    n = breakeven(AWS, DEFAULT_VM_BASELINE, 100, GB)
    assert n == 4_285_707
    assert n == oracle_breakeven(AWS, 8, 100, GB)


def test_breakeven_boundary_property():
    n = breakeven(AWS, DEFAULT_VM_BASELINE, 100, GB)
    assert serverless_cost(n - 1, 100, GB, AWS) < Decimal("8") <= serverless_cost(n, 100, GB, AWS)


def test_breakeven_matches_oracle_across_workloads():
    rng = random.Random(31)
    for _ in range(50):
        billed = rng.choice([1, 50, 100, 900, 1500])
        memory = rng.choice([128 * MB, 256 * MB, GB, 2 * GB])
        price = rng.choice([1, 8, 40])
        got = breakeven(AWS, VmBaseline(price, GB), billed, memory)
        assert got == oracle_breakeven(AWS, price, billed, memory)


def test_breakeven_free_vm_is_zero():
    assert breakeven(AWS, VmBaseline(0, GB), 100, GB) == 0


def test_breakeven_free_requests_is_none():
    free = PricingModel(per_million_requests=0, per_gb_second=0)
    assert breakeven(free, DEFAULT_VM_BASELINE, 100, GB) is None


def test_build_cost_report_fields():
    report = build_cost_report(1_000_000, 100, GB, AWS)
    assert report.serverless_total == Decimal("1.86667")
    assert report.vm_total == Decimal("8")
    assert report.breakeven_requests_per_month == 4_285_707
    assert report.assumptions.n_requests == 1_000_000
    assert report.currency == "USD"


def test_render_cost_table():
    table = render_cost_table(build_cost_report(1_000_000, 100, GB, AWS))
    assert "1.8667" in table
    assert "8.00" in table
    assert "4285707 requests/month" in table
    assert "memory" in table and "1024 MB" in table


def test_render_handles_free_request_pricing():
    free = PricingModel(per_million_requests=0, per_gb_second=0)
    table = render_cost_table(build_cost_report(10, 100, GB, free))
    assert "never" in table


def synthetic_result(billed_list, memory_bytes=GB):
    n = len(billed_list)
    arrivals = [float(i) for i in range(n)]
    return SimulationResult(
        arrival_ms=arrivals, start_ms=arrivals, end_ms=[a + b for a, b in zip(arrivals, billed_list)],
        cold=[False] * n, instance_id=[0] * n, exec_ms=billed_list, billed_ms=billed_list,
        cold_fraction=0.0, latency_summary=None,
        total_billed_gb_s=sum(billed_list) / 1000 * memory_bytes / GB,
        memory_bytes=memory_bytes,
    )


def test_cost_from_simulation_bills_each_record():
    result = synthetic_result([100.0, 100.0, 400.0, 200.0])
    report = cost_from_simulation(result, AWS)
    assert report.serverless_total == serverless_cost_total(4, 800, GB, AWS)
    assert report.assumptions.billed_ms_per_request == Decimal(200)
    # uniform mean billed feeds the break-even column
    assert report.breakeven_requests_per_month == oracle_breakeven(AWS, 8, 200, GB)


def test_cost_from_simulation_empty_is_free():
    result = synthetic_result([])
    report = cost_from_simulation(result, AWS)
    assert report.serverless_total == 0
    assert report.breakeven_requests_per_month is None
    assert report.assumptions.billed_ms_per_request is None


def test_render_zero_requests_derives_no_break_even():
    # aws charges a request fee, so "never (requests are free)" was false here.
    table = render_cost_table(cost_from_simulation(synthetic_result([]), AWS))
    assert table.splitlines()[-1].split(None, 1)[1] == "unknown (no requests to derive it from)"


@pytest.mark.parametrize("billed", [[100.0, 150.0, 151.0], [1.0] * 7, []])
def test_samples_and_simulation_share_one_report(billed):
    # The mean of 401 / 3 or 7 / 7 billed ms must not depend on which file it came from.
    from_samples = cost_from_samples(SampleSet.from_values(billed), AWS, DEFAULT_VM_BASELINE, GB, 2)
    assert from_samples == cost_from_simulation(synthetic_result(billed), AWS, DEFAULT_VM_BASELINE, 2)


def reports_past_60_digits():
    # A 52-digit billed duration at 1536 MB, and a mean of 200 / 3 billed ms:
    # amounts whose exact values do not fit in 60 digits, so a context's
    # rounding and traps would decide them.
    billed = Decimal("66.66666666666666666666666666666666666666666666666667")
    durations = [66.0, 67.0, 67.0]
    return (
        build_cost_report(3, billed, 1536 * MB, AWS),
        cost_from_samples(SampleSet.from_values(durations), AWS),
        cost_from_simulation(synthetic_result(durations), AWS),
    )


@pytest.mark.parametrize("caller", [
    lambda ctx: setattr(ctx, "rounding", decimal.ROUND_DOWN),
    lambda ctx: ctx.traps.__setitem__(decimal.Inexact, True),
    lambda ctx: setattr(ctx, "prec", 5),
], ids=["round-down", "inexact-trapped", "prec-5"])
def test_amounts_do_not_depend_on_the_callers_decimal_context(caller):
    expected = reports_past_60_digits()
    with decimal.localcontext() as ctx:
        caller(ctx)
        reports = reports_past_60_digits()
    assert reports == expected


# Durations on, just below and just above a granularity boundary, and anywhere else.
EXEC_MS = st.sampled_from([0.0, 5e-324, 0.001, 1.0, 10.0, 100.0, 1000.0]) | st.builds(
    lambda k, g, side: math.nextafter(float(k * g), side),
    st.integers(0, 10**4), st.sampled_from([1, 10, 100, 1000]), st.sampled_from([0.0, math.inf]),
) | st.floats(0, 10**7, allow_nan=False, allow_infinity=False)


@given(exec_ms=st.lists(EXEC_MS, max_size=40), granularity=st.sampled_from([1, 10, 100, 1000]),
       memory_bytes=st.integers(1, 10 * GB), months=st.decimals("0", "36", places=2))
def test_simulation_bills_exec_ms_at_the_chosen_granularity(exec_ms, granularity, memory_bytes, months):
    # Whatever the records' billed_ms say, each exec_ms is rounded afresh.
    result = synthetic_result(exec_ms, memory_bytes)
    pricing = PricingModel(AWS.per_million_requests, AWS.per_gb_second, granularity)
    report = cost_from_simulation(result, pricing, DEFAULT_VM_BASELINE, months)
    billed = sum(math.ceil(Fraction(e) / granularity) * granularity for e in exec_ms)
    expected = (len(exec_ms) * Fraction(pricing.per_million_requests) / 10**6
                + Fraction(billed, 1000) * Fraction(memory_bytes, GB) * Fraction(pricing.per_gb_second))
    assert Fraction(report.serverless_total) == expected
    assert report == cost_from_samples(SampleSet.from_values(exec_ms), pricing, DEFAULT_VM_BASELINE,
                                       memory_bytes, months)


@given(n=st.integers(1, 300), billed=st.integers(0, 10**6), memory_bytes=st.integers(1, 10 * GB),
       months=st.decimals("0", "36", places=2))
def test_uniform_report_equals_billing_each_request(n, billed, memory_bytes, months):
    # At 1 ms granularity an integer duration bills as itself, so pricing n copies
    # of it one by one must give the closed-form report, field for field.
    samples = SampleSet.from_values([billed] * n)
    assert build_cost_report(n, billed, memory_bytes, AWS, months=months) == cost_from_samples(
        samples, AWS, DEFAULT_VM_BASELINE, memory_bytes, months)


def test_cost_from_samples_rounds_each_duration_up():
    report = cost_from_samples(SampleSet.from_values([0.5, 100.0, 100.25]), GCP)
    assert report.serverless_total == serverless_cost_total(3, 100 + 100 + 200, GB, GCP)


def test_pricing_rates_stay_decimal():
    assert AWS.per_gb_second == Decimal("0.0000166667")
    assert isinstance(AWS.per_gb_second, Decimal)
    assert AWS.billing_granularity_ms == 1
    assert GCP.billing_granularity_ms == 100


def test_pricing_model_validation():
    with pytest.raises(DomainError):
        PricingModel(per_million_requests=-1, per_gb_second=0)
    with pytest.raises(DomainError):
        PricingModel(per_million_requests=0, per_gb_second=0, billing_granularity_ms=0)
    with pytest.raises(DomainError):
        PricingModel(per_million_requests=0, per_gb_second=0, billing_granularity_ms=True)


def test_parse_pricing_rejects_unknown_keys():
    payload = {"version": 1, "profiles": [
        {"name": "p", "per_million_requests": 1, "per_gb_second": 1, "vat": 19},
    ]}
    with pytest.raises(ScenarioError, match="unknown keys"):
        parse_pricing(payload)


def test_parse_pricing_rejects_duplicates():
    entry = {"name": "p", "per_million_requests": 1, "per_gb_second": 1}
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_pricing({"version": 1, "profiles": [entry, dict(entry)]})


def test_load_pricing_from_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "version": 1,
        "profiles": [{"name": "x", "per_million_requests": 0.1,
                      "per_gb_second": 0.0000123456789, "billing_granularity_ms": 10}],
    }))
    pricing = load_pricing(path)["x"]
    # parse_float=Decimal: the rate is the file's digits, not a float
    assert pricing.per_gb_second == Decimal("0.0000123456789")
