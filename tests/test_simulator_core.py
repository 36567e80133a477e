"""The simulator core against the per-arrival scan it replaced, and pinned seeded outputs."""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan import (
    GB,
    MB,
    UNLIMITED,
    LatencyProfile,
    PricingModel,
    SampleSet,
    SimulationConfig,
    TrafficPattern,
    simulate,
    simulate_sweep,
    summarize,
)
from faasplan._record import replace
from faasplan.cli import ProfileStore, load_scenario, main
from faasplan.cost import round_up
from faasplan.simulator import (
    InvocationRecord,
    SimulationResult,
    generate_arrivals,
    result_to_dict,
    scale_duration,
)
from faasplan.units import Unlimited

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PER_MS = PricingModel(per_million_requests="0.20", per_gb_second="0.0000166667",
                      billing_granularity_ms=1)


@dataclass(slots=True)
class _Instance:
    id: int
    free_at_us: int


def scan_simulate(profile, pattern, config, pricing) -> SimulationResult:
    """Differential oracle: the simulator core that scanned every instance ever created per arrival."""
    seed_seq = np.random.SeedSequence(config.seed)
    arrival_seed, service_seed = seed_seq.spawn(2)
    arrivals_ms = generate_arrivals(pattern, arrival_seed)
    n = len(arrivals_ms)

    # One factor serves every draw; scale_duration(d) == d * factor for d > 0.
    factor = scale_duration(
        1.0, profile.reference_memory_bytes, config.memory_bytes, config.scaling
    )
    base_values = profile.samples.values
    rng = np.random.default_rng(service_seed)
    draw_index = rng.integers(0, len(base_values), size=n) if n else ()

    keep_alive_us = math.inf if math.isinf(config.keep_alive_s) else round(config.keep_alive_s * 1e6)
    cold_us = round(config.cold_start_ms * 1000)
    granularity_us = pricing.billing_granularity_ms * 1000
    unlimited_pool = isinstance(config.max_instances, Unlimited)

    instances: list[_Instance] = []
    records: list[InvocationRecord] = []
    latencies: list[float] = []
    n_cold = 0

    for i in range(n):
        t = round(arrivals_ms[i] * 1000)
        exec_us = round(base_values[draw_index[i]] * 1000 * factor)
        warm_pool = [
            inst for inst in instances
            if inst.free_at_us <= t and t - inst.free_at_us <= keep_alive_us
        ]
        if warm_pool:
            # Most recently used warm instance; lowest id on ties.
            chosen = max(warm_pool, key=lambda inst: (inst.free_at_us, -inst.id))
            start, cold = t, False
        elif unlimited_pool or len(instances) < config.max_instances:
            chosen = _Instance(len(instances), 0)
            instances.append(chosen)
            start, cold = t, True
        else:
            chosen = min(instances, key=lambda inst: (inst.free_at_us, inst.id))
            start = max(t, chosen.free_at_us)
            cold = start - chosen.free_at_us > keep_alive_us
        end = start + exec_us + (cold_us if cold else 0)
        chosen.free_at_us = end
        billed_us = round_up(exec_us, granularity_us)
        n_cold += cold
        records.append(InvocationRecord(
            arrival_ms=t / 1000,
            start_ms=start / 1000,
            end_ms=end / 1000,
            cold=cold,
            instance_id=chosen.id,
            exec_ms=exec_us / 1000,
            billed_ms=billed_us / 1000,
        ))
        latencies.append((end - t) / 1000)

    memory_gb = config.memory_bytes / GB
    columns = zip(*records) if records else [()] * len(InvocationRecord._fields)
    return SimulationResult(
        *columns,
        cold_fraction=n_cold / n if n else 0.0,
        latency_summary=summarize(latencies) if latencies else None,
        total_billed_gb_s=math.fsum(r.billed_ms for r in records) * memory_gb / 1000,
        memory_bytes=config.memory_bytes,
    )


def _trace(gaps_ms):
    timestamps, t = [], 0.0
    for gap in gaps_ms:
        t += gap
        timestamps.append(t)
    return TrafficPattern.trace(timestamps)


# Zero gaps give duplicate timestamps, and with a zero-length profile equal free times.
traces = st.lists(st.sampled_from([0.0, 0.0, 0.5, 3.0, 20.0, 50.0, 400.0, 2000.0]),
                  max_size=80).map(_trace)
generated = st.one_of(
    st.builds(TrafficPattern.poisson, st.floats(1.0, 400.0), st.just(1.0)),
    # Off phases of 0.5 s: longer than most keep-alives below.
    st.builds(lambda high: TrafficPattern.burst(high, 2.0, 1.0, 0.5, 3.0), st.floats(10.0, 300.0)),
)
profiles = st.one_of(
    st.just([0.0]), st.just([50.0]), st.lists(st.floats(0.0, 300.0), min_size=1, max_size=6),
).map(lambda values: LatencyProfile(GB, SampleSet.from_values(values)))


@settings(deadline=None, max_examples=300)
@given(
    profile=profiles,
    pattern=st.one_of(traces, generated),
    seed=st.integers(0, 2**32 - 1),
    max_instances=st.one_of(st.just(UNLIMITED), st.integers(1, 40)),
    keep_alive_s=st.one_of(st.sampled_from([0.0, 0.001, 0.05, 0.5, math.inf]), st.floats(0.0, 2.0)),
    cold_start_ms=st.floats(0.0, 1500.0),
    memory_mb=st.sampled_from([512, 1024, 3008]),
)
def test_simulate_matches_scan_oracle(profile, pattern, seed, max_instances, keep_alive_s,
                                      cold_start_ms, memory_mb):
    config = SimulationConfig(seed=seed, memory_bytes=memory_mb * MB, keep_alive_s=keep_alive_s,
                              cold_start_ms=cold_start_ms, max_instances=max_instances)
    assert simulate(profile, pattern, config, PER_MS) == scan_simulate(profile, pattern, config, PER_MS)


@pytest.mark.parametrize("max_instances, ids", [(UNLIMITED, [0, 0, 0, 1, 1]), (1, [0] * 5)])
def test_zero_length_exec_frees_at_its_own_arrival(max_instances, ids):
    """An instance freed at the arrival time serves that arrival warm, even at keep-alive 0."""
    config = SimulationConfig(seed=1, memory_bytes=GB, keep_alive_s=0.0, cold_start_ms=0.0,
                              max_instances=max_instances)
    profile = LatencyProfile.constant(0.0, GB)
    pattern = TrafficPattern.trace([0.0, 0.0, 0.0, 5.0, 5.0])
    result = simulate(profile, pattern, config, PER_MS)
    assert [r.instance_id for r in result.records] == ids
    assert [r.cold for r in result.records] == [True, False, False, True, False]
    assert result == scan_simulate(profile, pattern, config, PER_MS)


def test_simultaneous_instances_serve_lowest_id_first():
    """Two instances created at the same µs and freed at the same µs: id 0 serves before id 1."""
    config = SimulationConfig(seed=1, memory_bytes=GB, keep_alive_s=600.0, cold_start_ms=5.0)
    profile = LatencyProfile.constant(10.0, GB)
    pattern = TrafficPattern.trace([0.0, 0.0, 30.0, 30.0, 60.0, 100.0])
    result = simulate(profile, pattern, config, PER_MS)
    assert [r.instance_id for r in result.records] == [0, 1, 0, 1, 0, 0]
    assert [r.cold for r in result.records] == [True, True, False, False, False, False]
    assert result == scan_simulate(profile, pattern, config, PER_MS)


def test_equal_free_times_from_separate_drains():
    """A zero-length run frees id 0 at the free time id 1 already idles with, one arrival later."""
    config = SimulationConfig(seed=1, memory_bytes=GB, keep_alive_s=600.0, cold_start_ms=10.0)
    profile = LatencyProfile.constant(0.0, GB)
    pattern = TrafficPattern.trace([0.0, 0.0, 10.0, 10.0, 10.0, 20.0])
    result = simulate(profile, pattern, config, PER_MS)
    assert [r.instance_id for r in result.records] == [0, 1, 0, 0, 0, 0]
    assert [r.end_ms for r in result.records] == [10.0, 10.0, 10.0, 10.0, 10.0, 20.0]
    assert result == scan_simulate(profile, pattern, config, PER_MS)


def test_a_large_tie_leaves_idle_in_id_order():
    """Hundreds of instances freed at the same µs serve later arrivals in ascending id."""
    config = SimulationConfig(seed=1, memory_bytes=GB, keep_alive_s=600.0, cold_start_ms=5.0)
    profile = LatencyProfile.constant(10.0, GB)
    pattern = TrafficPattern.trace([0.0] * 500 + [50.0] * 500 + [200.0] * 3)
    result = simulate(profile, pattern, config, PER_MS)
    assert [r.instance_id for r in result.records] == [*range(500), *range(500), 0, 1, 2]
    assert result == scan_simulate(profile, pattern, config, PER_MS)


def _edge(profile_ms, timestamps, max_instances=UNLIMITED, keep_alive_s=600.0, cold_start_ms=5.0):
    config = SimulationConfig(seed=5, memory_bytes=GB, keep_alive_s=keep_alive_s,
                              cold_start_ms=cold_start_ms, max_instances=max_instances)
    profile = LatencyProfile(GB, SampleSet.from_values(profile_ms))
    return profile, TrafficPattern.trace(timestamps), config


# A pool entry is the int free_at_us << S | id, S = len(arrivals).bit_length().
_TIES_AT_ONE_US = [0.0, 0.0, 0.0, 0.0006, 0.001, 0.001, 0.0014]  # the last four round to 1 µs
KEY_EDGES = [
    # S grows by one between 2**k - 1 and 2**k arrivals. All but the last overlap, 1 µs
    # apart, so an uncapped pool's ids reach n - 2 and the last arrival reuses that
    # newest instance; a capped pool queues.
    *(pytest.param(*_edge([3.0], [i / 1000 for i in range(n - 1)] + [20.0], max_instances=cap),
                   id=f"{n}-arrivals-cap-{cap}")
      for n in (2**k + d for k in (1, 4, 8) for d in (-1, 0, 1))
      for cap in (UNLIMITED, max(1, n // 2))),
    # Arrival times past 2**64 µs, so every key is wider than 64 bits.
    *(pytest.param(*_edge([10.0], [1e16, 1e16, 1e16 + 30, 2e16, 2e16, 2e16 + 32, 2e16 + 100],
                          max_instances=cap, keep_alive_s=keep_alive_s),
                   id=f"past-2**64-us-cap-{cap}-keep-alive-{keep_alive_s}")
      for cap in (UNLIMITED, 1) for keep_alive_s in (0.01, math.inf)),
    # Keep-alive 0 and infinite, on equal arrival and free times.
    *(pytest.param(*_edge([0.0, 0.5, 3.0], [0.0, 0.0, 0.5, 3.0, 3.0, 3.5, 20.0, 20.0],
                          max_instances=cap, keep_alive_s=keep_alive_s, cold_start_ms=0.5),
                   id=f"keep-alive-{keep_alive_s}-cap-{cap}")
      for keep_alive_s in (0.0, math.inf) for cap in (UNLIMITED, 2)),
    # Zero-length runs freeing instances at 1 µs: a drained tie, then a run on idle[-1].
    *(pytest.param(*_edge([0.0], _TIES_AT_ONE_US, max_instances=cap, keep_alive_s=keep_alive_s,
                          cold_start_ms=0.001),
                   id=f"ties-at-1-us-cap-{cap}-keep-alive-{keep_alive_s}")
      for cap in (UNLIMITED, 2) for keep_alive_s in (0.0, 600.0)),
]


@pytest.mark.parametrize("profile, pattern, config", KEY_EDGES)
def test_packed_keys_match_scan_oracle_at_their_edges(profile, pattern, config):
    assert simulate(profile, pattern, config, PER_MS) == scan_simulate(profile, pattern, config, PER_MS)


def test_simulate_sweep_is_simulate_at_each_size():
    config = SimulationConfig(seed=11, memory_bytes=GB, keep_alive_s=0.5, cold_start_ms=100.0)
    pattern = TrafficPattern.burst(200.0, 5.0, 2.0, 0.5, 4.0)
    sizes = [512 * MB, GB, 3 * GB]
    swept = list(simulate_sweep(ANCHORED, pattern, config, PER_MS, sizes))
    assert swept == [simulate(ANCHORED, pattern, replace(config, memory_bytes=size), PER_MS)
                     for size in sizes]


def test_records_are_invocation_records():
    # Tuple equality ignores the type, so the oracle comparisons cannot see it.
    config = SimulationConfig(seed=3, memory_bytes=GB, cold_start_ms=100.0)
    result = simulate(ANCHORED, TrafficPattern.poisson(50, 1), config, PER_MS)
    assert result.records
    assert all(type(r) is InvocationRecord for r in result.records)
    assert list(result.records[0]._asdict()) == list(InvocationRecord._fields)
    assert result.records[0]._asdict()["instance_id"] == result.records[0].instance_id


@settings(deadline=None, max_examples=4)
@given(
    profile=st.lists(st.floats(20.0, 300.0), min_size=1, max_size=6).map(
        lambda values: LatencyProfile(GB, SampleSet.from_values(values))),
    high_rate=st.floats(800.0, 2000.0),
    seed=st.integers(0, 2**32 - 1),
    max_instances=st.one_of(st.just(UNLIMITED), st.integers(100, 400)),
    keep_alive_s=st.floats(0.0, 0.4),
    cold_start_ms=st.floats(0.0, 300.0),
)
def test_simulate_matches_scan_oracle_on_a_large_pool(profile, high_rate, seed, max_instances,
                                                      keep_alive_s, cold_start_ms):
    """Hundreds of instances, and 0.5 s off phases that outlast keep-alive."""
    config = SimulationConfig(seed=seed, memory_bytes=GB, keep_alive_s=keep_alive_s,
                              cold_start_ms=cold_start_ms, max_instances=max_instances)
    pattern = TrafficPattern.burst(high_rate, 2.0, 1.0, 0.5, 2.0)
    assert simulate(profile, pattern, config, PER_MS) == scan_simulate(profile, pattern, config, PER_MS)


def _replay_run():
    scenario = load_scenario(SCENARIOS / "smobilebert_replay.json", ProfileStore(None))
    return scenario.profile, scenario.traffic, scenario.sim_config, scenario.pricing


ANCHORED = LatencyProfile.from_quantile_anchors({0.5: 50.08, 0.95: 80.14, 0.99: 102.65}, 5000, GB)
# sha256 of the JSON result (records, cold fraction, latency summary, GB-s) for each seeded run.
GOLDEN = {
    "smobilebert_replay": (
        _replay_run,
        "57077bbfc67063bb1839927e2eec148fb34e04ccb2bf5c11a17aca10188ee7a7",
    ),
    # Cap 12 binds: requests queue, and instances idle past keep-alive restart cold.
    "capped_poisson": (
        lambda: (ANCHORED, TrafficPattern.poisson(150, 5),
                 SimulationConfig(seed=11, memory_bytes=GB, keep_alive_s=0.02,
                                  cold_start_ms=100.0, max_instances=12), PER_MS),
        "41130d54afb0ad486bfc0c417b3c883618eebb64d15fbc227ff901ff3ad5e843",
    ),
    # Keep-alive 5 s against 10 s off phases: every burst meets an expired pool.
    "burst": (
        lambda: (ANCHORED, TrafficPattern.burst(200, 2, 20, 0.5, 40),
                 SimulationConfig(seed=12, memory_bytes=GB, keep_alive_s=5.0,
                                  cold_start_ms=1500.0), PER_MS),
        "7b46ad80476b31c07aeedf657c48d4943f9f9a32c99f2b00a7066ee8f8468bd3",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_seeded_results_are_pinned(name):
    build, expected = GOLDEN[name]
    result = simulate(*build())
    assert hashlib.sha256(json.dumps(result_to_dict(result)).encode()).hexdigest() == expected


# The capped Poisson run that perfbench times, at its own seed. Queueing at
# cap 64 makes start, end and latency differ from arrival and exec.
CAPPED_SCENARIO = {
    "version": 1, "name": "capped-poisson", "pricing": "aws",
    "profile": {"reference_memory_mb": 1024, "n_samples": 5000,
                "quantile_anchors": {"0.5": 50.08, "0.95": 80.14, "0.99": 102.65}},
    "traffic": {"kind": "poisson", "rate_rps": 1000.0, "duration_s": 5.0},
    "simulation": {"seed": 7, "memory_mb": 1024, "keep_alive_s": 600.0, "cold_start_ms": 1500.0,
                   "max_instances": 64},
}
# sha256 of the bytes users get: the --out files and the --format json stdout.
RESULT_JSON_SHA256 = "61b68a8e54085bae06c362dcf4d9a352d89628ad525c3365251e0174db2f89c9"
RESULT_CSV_SHA256 = "bc20ac834202b18c7c827ce7389ecf5dd314fcdf41fd46fc99c190af968c405a"


def test_simulate_output_bytes_are_pinned(tmp_path, capsys):
    scenario = tmp_path / "capped.json"
    scenario.write_text(json.dumps(CAPPED_SCENARIO), "utf-8")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario), "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == RESULT_JSON_SHA256
    assert hashlib.sha256((tmp_path / "run.json").read_bytes()).hexdigest() == RESULT_JSON_SHA256
    assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == RESULT_CSV_SHA256
