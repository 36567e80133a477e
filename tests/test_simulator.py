import math
import time

import numpy as np
import pytest

from faasplan import (
    GB,
    MB,
    UNLIMITED,
    CpuScaling,
    DomainError,
    LatencyProfile,
    PricingModel,
    ScenarioError,
    SimulationConfig,
    TrafficPattern,
    generate_arrivals,
    read_samples_csv,
    scale_duration,
    simulate,
    summarize,
)
from faasplan.simulator import (
    export_result_csv,
    load_result_json,
    result_from_dict,
    result_to_dict,
    save_result_json,
)

PER_MS = PricingModel(per_million_requests="0.20", per_gb_second="0.0000166667",
                      billing_granularity_ms=1)


def config(**kwargs):
    defaults = dict(seed=1, memory_bytes=GB, keep_alive_s=math.inf, cold_start_ms=0.0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestLatencyProfile:
    def test_constant(self):
        p = LatencyProfile.constant(100.0, GB)
        assert p.samples.values == (100.0,)

    def test_anchor_quantiles_reproduced_verbatim(self):
        anchors = {0.5: 50.08, 0.95: 80.14, 0.99: 102.65}
        p = LatencyProfile.from_quantile_anchors(anchors, n_samples=5000, reference_memory_bytes=GB)
        s = summarize(p.samples)
        assert (s.q50, s.q95, s.q99) == (50.08, 80.14, 102.65)
        assert s.count == 5000

    def test_anchor_values_monotone_in_rank(self):
        anchors = {"0.5": 10.0, "0.9": 90.0}
        p = LatencyProfile.from_quantile_anchors(anchors, n_samples=1000, reference_memory_bytes=GB)
        values = sorted(p.samples.values)
        assert p.samples.values == tuple(values)

    def test_head_and_tail_ramp(self):
        p = LatencyProfile.from_quantile_anchors({0.5: 100.0}, n_samples=100,
                                                 reference_memory_bytes=GB)
        assert p.samples.values[0] == pytest.approx(80.0)
        assert p.samples.values[49] == 100.0
        assert p.samples.values[-1] == pytest.approx(105.0)

    def test_rejects_decreasing_anchors(self):
        with pytest.raises(DomainError, match="non-decreasing"):
            LatencyProfile.from_quantile_anchors({0.5: 100.0, 0.95: 90.0}, 100, GB)

    def test_rejects_n_too_small_to_separate(self):
        with pytest.raises(DomainError, match="too small"):
            LatencyProfile.from_quantile_anchors({0.95: 10.0, 0.99: 20.0}, 10, GB)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            LatencyProfile.from_quantile_anchors({}, 100, GB)
        with pytest.raises(DomainError):
            LatencyProfile(GB, __import__("faasplan").SampleSet(values=()))


class TestTrafficPattern:
    def test_steady_spacing_is_exact(self):
        p = TrafficPattern.steady(50, 100)
        assert len(p.timestamps) == 5000
        assert p.timestamps[0] == 0.0
        assert p.timestamps[1] == 20.0
        assert p.timestamps[-1] == 20.0 * 4999

    def test_steady_zero_rate(self):
        assert TrafficPattern.steady(0, 10).timestamps == ()

    def test_trace_must_be_sorted(self):
        with pytest.raises(DomainError, match="non-decreasing"):
            TrafficPattern.trace([0.0, 5.0, 3.0])

    def test_poisson_requires_fields(self):
        with pytest.raises(DomainError, match="duration_s"):
            TrafficPattern(kind="poisson_constant", rate_rps=5.0)

    def test_burst_duty_bounds(self):
        with pytest.raises(DomainError, match="duty"):
            TrafficPattern.burst(100, 1, period_s=10, duty=1.5, duration_s=60)

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown traffic kind"):
            TrafficPattern(kind="sawtooth")

    @pytest.mark.parametrize("pattern, expected", [
        (TrafficPattern.poisson(10, 5), 50),
        # Two whole periods of 5 s at 100 rps and 5 s at 2 rps, then 5 s that start high.
        (TrafficPattern.burst(100, 2, period_s=10, duty=0.5, duration_s=25), 2 * 510 + 500),
        (TrafficPattern.burst(100, 2, period_s=10, duty=0.5, duration_s=27), 2 * 510 + 504),
        (TrafficPattern.trace([0.0, 1.0, 1.0]), 3),
    ])
    def test_expected_requests(self, pattern, expected):
        assert pattern.expected_requests == pytest.approx(expected)

    @pytest.mark.parametrize("build, name", [
        (lambda v: TrafficPattern.poisson(v, 1), "rate_rps"),
        (lambda v: TrafficPattern.poisson(5, v), "duration_s"),
        (lambda v: TrafficPattern.burst(v, 1, 10, 0.5, 60), "high_rate"),
        (lambda v: TrafficPattern.burst(100, v, 10, 0.5, 60), "low_rate"),
        (lambda v: TrafficPattern.burst(100, 1, v, 0.5, 60), "period_s"),
    ])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rates_and_durations_are_rejected(self, build, name, value):
        # An infinite rate once drew zero-length gaps forever; an infinite duration never ends.
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            build(value)


class TestGenerateArrivals:
    def test_deterministic_per_seed(self):
        p = TrafficPattern.poisson(50, 10)
        assert generate_arrivals(p, 42) == generate_arrivals(p, 42)
        assert generate_arrivals(p, 42) != generate_arrivals(p, 43)

    def test_poisson_stays_in_window(self):
        arrivals = generate_arrivals(TrafficPattern.poisson(100, 5), 7)
        assert all(0 <= t < 5000 for t in arrivals)
        assert arrivals == sorted(arrivals)
        assert 300 < len(arrivals) < 700  # 500 expected

    def test_trace_ignores_seed(self):
        p = TrafficPattern.trace([1.0, 2.0, 3.0])
        assert generate_arrivals(p, 1) == generate_arrivals(p, 999) == [1.0, 2.0, 3.0]

    def test_burst_respects_windows(self):
        # 100 rps on, 0 off, 50% duty over two periods: off windows stay empty
        p = TrafficPattern.burst(100, 0, period_s=2, duty=0.5, duration_s=4)
        arrivals = generate_arrivals(p, 3)
        assert len(arrivals) > 100
        for t in arrivals:
            assert (0 <= t < 1000) or (2000 <= t < 3000)

    @pytest.mark.parametrize("high, low, duty", [(0, 0, 0.5), (5, 0, 0.0), (0, 5, 1.0)])
    def test_burst_that_cannot_draw_returns_at_once(self, high, low, duty):
        # 10^7 periods, none with a positive rate over a positive length: the
        # walk once stepped through every one of them, about 1 s, to return [].
        p = TrafficPattern.burst(high, low, period_s=0.001, duty=duty, duration_s=10_000)
        started = time.perf_counter()
        assert generate_arrivals(p, 1) == []
        assert time.perf_counter() - started < 0.25


class TestScaleDuration:
    SCALING = CpuScaling(bytes_per_full_cpu=1024 * MB, max_useful_cpus=1.0)

    def test_identity_at_same_memory(self):
        assert scale_duration(80.0, GB, GB, self.SCALING) == 80.0

    def test_half_memory_doubles(self):
        assert scale_duration(100.0, 1024 * MB, 512 * MB, self.SCALING) == pytest.approx(200.0)

    def test_saturated_memory_stops_helping(self):
        a = scale_duration(100.0, 1024 * MB, 2048 * MB, self.SCALING)
        b = scale_duration(100.0, 1024 * MB, 4096 * MB, self.SCALING)
        assert a == b == 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scale_duration(0.0, GB, GB, self.SCALING)


def test_single_cold_invocation():
    profile = LatencyProfile.constant(100.0, GB)
    result = simulate(profile, TrafficPattern.trace([0.0]),
                      config(cold_start_ms=1500.0), PER_MS)
    r, = result.records
    assert (r.arrival_ms, r.start_ms, r.end_ms) == (0.0, 0.0, 1600.0)
    assert r.cold and r.instance_id == 0
    assert r.exec_ms == 100.0
    assert r.billed_ms == 100.0  # the cold penalty is not billed
    assert result.cold_fraction == 1.0
    assert result.latencies_ms == (1600.0,)


def test_hand_trace_one_cold_then_warm_reuse():
    """10 arrivals 1 s apart on one instance: one cold start then 9 warm hits."""
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([i * 1000.0 for i in range(10)])
    result = simulate(profile, pattern, config(cold_start_ms=500.0), PER_MS)
    assert sorted(result.latencies_ms) == [100.0] * 9 + [600.0]
    assert result.cold_fraction == 0.1
    assert {r.instance_id for r in result.records} == {0}
    assert result.total_billed_gb_s == 1.0  # 10 x 100 ms at 1 GB


def test_hand_trace_fifo_queue_at_instance_cap():
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 10.0, 20.0])
    result = simulate(profile, pattern, config(max_instances=1), PER_MS)
    assert [r.start_ms for r in result.records] == [0.0, 100.0, 200.0]
    assert result.latencies_ms == (100.0, 190.0, 280.0)
    assert [r.cold for r in result.records] == [True, False, False]
    assert {r.instance_id for r in result.records} == {0}


def test_hand_trace_concurrency_fans_out():
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 10.0, 20.0])
    result = simulate(profile, pattern, config(), PER_MS)
    assert [r.instance_id for r in result.records] == [0, 1, 2]
    assert all(r.cold for r in result.records)
    assert result.latencies_ms == (100.0, 100.0, 100.0)


def test_keep_alive_zero_never_reuses():
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 1000.0, 2000.0])
    result = simulate(profile, pattern, config(keep_alive_s=0.0, cold_start_ms=50.0), PER_MS)
    assert result.cold_fraction == 1.0
    assert [r.instance_id for r in result.records] == [0, 1, 2]


def test_expired_instance_reinitializes_under_cap():
    # the only instance expired while idle: next request pays cold again
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 1000.0])
    result = simulate(profile, pattern,
                      config(keep_alive_s=0.0, cold_start_ms=50.0, max_instances=1), PER_MS)
    assert [r.cold for r in result.records] == [True, True]
    assert result.records[1].start_ms == 1000.0
    assert result.records[1].end_ms == 1150.0


def test_keep_alive_boundary_is_inclusive():
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 1100.0])
    result = simulate(profile, pattern, config(keep_alive_s=1.0), PER_MS)
    assert [r.cold for r in result.records] == [True, False]


def test_warm_choice_prefers_most_recently_used():
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 50.0, 1000.0])
    result = simulate(profile, pattern, config(), PER_MS)
    # instance 1 finished later (150 vs 100), so it is the fresher choice
    assert result.records[2].instance_id == 1
    assert not result.records[2].cold


def test_billed_rounds_up_per_record():
    profile = LatencyProfile.constant(150.0, GB)
    pricing = PricingModel(per_million_requests=0, per_gb_second="0.0000165",
                           billing_granularity_ms=100)
    result = simulate(profile, TrafficPattern.trace([0.0, 1000.0]), config(), pricing)
    assert all(r.billed_ms == 200.0 for r in result.records)
    assert result.total_billed_gb_s == pytest.approx(0.4)


def test_memory_scaling_applies_to_every_record():
    scaling = CpuScaling(bytes_per_full_cpu=1024 * MB, max_useful_cpus=1.0)
    profile = LatencyProfile.constant(100.0, 1024 * MB)
    pattern = TrafficPattern.trace([i * 1000.0 for i in range(5)])
    halved = simulate(profile, pattern, config(memory_bytes=512 * MB, scaling=scaling), PER_MS)
    assert all(r.exec_ms == 200.0 for r in halved.records)
    saturated = simulate(profile, pattern, config(memory_bytes=4 * GB, scaling=scaling), PER_MS)
    assert all(r.exec_ms == 100.0 for r in saturated.records)


def test_simulation_is_deterministic():
    profile = LatencyProfile.from_quantile_anchors({0.5: 50.0, 0.95: 80.0}, 500, GB)
    pattern = TrafficPattern.poisson(50, 20)
    a = simulate(profile, pattern, config(seed=7, keep_alive_s=600.0, cold_start_ms=1500.0), PER_MS)
    b = simulate(profile, pattern, config(seed=7, keep_alive_s=600.0, cold_start_ms=1500.0), PER_MS)
    assert a == b
    c = simulate(profile, pattern, config(seed=8, keep_alive_s=600.0, cold_start_ms=1500.0), PER_MS)
    assert a.latencies_ms != c.latencies_ms


def test_conservation_invariants():
    profile = LatencyProfile.from_quantile_anchors({0.5: 50.0, 0.95: 80.0}, 500, GB)
    pattern = TrafficPattern.poisson(80, 30)
    cfg = config(seed=11, keep_alive_s=2.0, cold_start_ms=300.0)
    result = simulate(profile, pattern, cfg, PER_MS)
    arrivals = generate_arrivals(pattern, __import__("numpy").random.SeedSequence(11).spawn(2)[0])
    assert len(result.records) == len(arrivals)
    penalty = cfg.cold_start_ms
    for r in result.records:
        assert r.arrival_ms <= r.start_ms <= r.end_ms
        expected = r.exec_ms + (penalty if r.cold else 0.0)
        assert r.end_ms - r.start_ms == pytest.approx(expected, abs=1e-9)
    ids = {r.instance_id for r in result.records}
    assert ids == set(range(len(ids)))  # contiguous pool ids


def test_instance_cap_is_respected():
    profile = LatencyProfile.constant(500.0, GB)
    pattern = TrafficPattern.poisson(100, 5)
    result = simulate(profile, pattern, config(seed=3, max_instances=4), PER_MS)
    assert len({r.instance_id for r in result.records}) <= 4
    # the cap forces queueing: some request waits past its arrival
    assert any(r.start_ms > r.arrival_ms for r in result.records)


def test_empty_pattern_gives_empty_result():
    profile = LatencyProfile.constant(100.0, GB)
    result = simulate(profile, TrafficPattern.steady(0, 10), config(), PER_MS)
    assert result.records == ()
    assert result.cold_fraction == 0.0
    assert result.latency_summary is None
    assert result.total_billed_gb_s == 0.0


def test_config_validation():
    with pytest.raises(DomainError):
        SimulationConfig(seed=1, memory_bytes=0)
    with pytest.raises(DomainError):
        SimulationConfig(seed=1, memory_bytes=GB, keep_alive_s=-1.0)
    with pytest.raises(DomainError):
        SimulationConfig(seed=1, memory_bytes=GB, cold_start_ms=math.inf)
    with pytest.raises(DomainError):
        SimulationConfig(seed=1, memory_bytes=GB, max_instances=0)
    # A NaN cap once failed in the event loop with IndexError, 2.5 ran 3 instances,
    # and a NaN memory size failed only when the run converted it.
    for cap in (math.nan, 2.5, 3.0, True, "4", None):
        with pytest.raises(DomainError, match="max_instances must be a positive integer or UNLIMITED"):
            SimulationConfig(seed=1, memory_bytes=GB, max_instances=cap)
    for memory_bytes in (math.nan, -GB):
        with pytest.raises(DomainError, match="memory_bytes must be a positive integer"):
            SimulationConfig(seed=1, memory_bytes=memory_bytes)
    SimulationConfig(seed=1, memory_bytes=GB, max_instances=UNLIMITED)
    SimulationConfig(seed=1, memory_bytes=GB, max_instances=1)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, 2.0])
def test_config_rejects_a_bad_seed(seed):
    # It once constructed, and the run failed at draw time with numpy's ValueError.
    with pytest.raises(DomainError, match=f"seed must be a non-negative integer, got {seed!r}"):
        SimulationConfig(seed=seed, memory_bytes=GB)


@pytest.mark.parametrize("seed", [7, np.int64(7), np.uint8(7)])
def test_config_takes_any_integer_seed_as_a_plain_int(seed):
    # A sweep over np.arange(...) passes numpy integers, which numpy's seeding takes.
    config = SimulationConfig(seed=seed, memory_bytes=GB)
    assert type(config.seed) is int and config.seed == 7


def test_export_csv_round_trips_latencies(tmp_path):
    profile = LatencyProfile.constant(100.0, GB)
    pattern = TrafficPattern.trace([0.0, 1000.0, 2000.0])
    result = simulate(profile, pattern, config(cold_start_ms=500.0), PER_MS)
    path = tmp_path / "run.csv"
    export_result_csv(result, path)
    samples = read_samples_csv(path)
    assert samples.values == result.latencies_ms
    assert samples.cold == tuple(r.cold for r in result.records)
    assert samples.instances == tuple(str(r.instance_id) for r in result.records)


def test_result_json_round_trip(tmp_path):
    profile = LatencyProfile.from_quantile_anchors({0.5: 50.0, 0.99: 90.0}, 300, GB)
    result = simulate(profile, TrafficPattern.poisson(40, 10),
                      config(seed=5, keep_alive_s=60.0, cold_start_ms=800.0), PER_MS)
    assert result_from_dict(result_to_dict(result)) == result
    path = tmp_path / "run.json"
    save_result_json(result, path)
    assert load_result_json(path) == result


def test_result_from_dict_checks_records():
    record = {"arrival_ms": 0.0, "start_ms": 0.0, "end_ms": 12.0, "cold": False, "instance_id": 0,
              "exec_ms": math.nan, "billed_ms": 12.0}
    payload = {"records": [record], "cold_fraction": 0.0, "latency_summary": None,
               "total_billed_gb_s": 0.0, "memory_bytes": GB}
    with pytest.raises(ScenarioError, match=r"^<result>: records\[0\]: exec_ms: must be a finite"):
        result_from_dict(payload)
    with pytest.raises(ScenarioError, match=r"^run\.json: records\[0\]: exec_ms: "):
        result_from_dict(payload, "run.json")
