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
    summarize,
)
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
    return SimulationResult(
        records=tuple(records),
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
