"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import phases  # noqa: E402
import reference  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from faasplan import simulator  # noqa: E402
from faasplan.cost import PricingModel  # noqa: E402
from faasplan.units import GB  # noqa: E402

SMOKE = phases.Sizes(sim_duration_s=4.0, cli_sim_duration_s=1.0, bench_chunk_s=1.0, setups=1)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),    # overlaps a: [1, 5] covered once
        Span(3, "c", 8.0, 12.0, 0),   # clipped to the parent's end: [8, 10]
        Span(4, "grandchild", 1.5, 2.5, 1),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10 - 4 - 2)
    assert got[1] == pytest.approx(2 - 1)
    assert got[3] == pytest.approx(4)


def test_tracer_nests_spans_under_the_open_one():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", request_id=7) as inner:
            pass
    assert inner.parent == outer.id and inner.request_id == 7
    assert outer.parent is None and outer.end >= inner.end


def test_pairing_recovers_the_schedule_of_each_sample():
    sent = [10.5, 20.25, 20.25, 31.0]
    scheduled = [10.0, 20.0, 20.1, 30.0]
    # Samples are in timestamp order; the third send never produced one,
    # and 99.0 matches no send at all.
    got = reference.pair_by_timestamp([10.5, 20.25, 31.0, 99.0], sent, scheduled)
    assert got == [10.0, 20.0, 30.0, None]
    due = [v + (ts - p) for v, ts, p in zip([5.0, 6.0, 7.0], [10.5, 20.25, 31.0], got)]
    assert due == [5.5, 6.25, 8.0]


def test_trimmed_mean_drops_a_fifth_at_each_end():
    assert reference.trimmed_mean([100.0, 2.0, 3.0, 1.0, 4.0]) == 3.0
    assert reference.trimmed_mean([5.0, 7.0]) == 6.0


def test_instance_scan_steps_on_a_hand_traced_run():
    # 100 ms requests, no cold penalty, 1 s keep-alive:
    #   t=0     new instance 0        (scan walks 0 instances)
    #   t=50    0 busy -> new 1       (walks 1)
    #   t=120   0 free -> warm 0      (walks 2)
    #   t=130   0, 1 busy -> new 2    (walks 2)
    #   t=2000  all idle > 1 s -> new 3 (walks 3)
    pattern = simulator.TrafficPattern.trace([0, 50, 120, 130, 2000])
    config = simulator.SimulationConfig(seed=0, memory_bytes=GB, keep_alive_s=1.0, cold_start_ms=0)
    profile = simulator.LatencyProfile.constant(100.0, GB)
    result = simulator.simulate(profile, pattern, config, PricingModel(0, 0))
    ids = [r.instance_id for r in result.records]
    assert ids == [0, 1, 0, 2, 3]
    assert reference.scan_steps(ids) == 0 + 1 + 2 + 2 + 3


@pytest.mark.parametrize("traffic, keep_alive_s, cold_ms, cap", [
    (phases.burst_traffic(6.0), 5.0, 1500.0, None),
    ({"kind": "poisson", "rate_rps": 400.0, "duration_s": 2.0}, 600.0, 1500.0, 16),
    ({"kind": "poisson", "rate_rps": 200.0, "duration_s": 2.0}, 0.05, 20.0, 4),
])
def test_reference_simulator_matches_the_program(traffic, keep_alive_s, cold_ms, cap):
    profile = simulator.LatencyProfile.from_quantile_anchors({0.5: 50.0, 0.99: 90.0}, 300, GB)
    if traffic["kind"] == "burst":
        pattern = simulator.TrafficPattern.burst(*(traffic[k] for k in (
            "high_rate", "low_rate", "period_s", "duty", "duration_s")))
    else:
        pattern = simulator.TrafficPattern.poisson(traffic["rate_rps"], traffic["duration_s"])
    config = simulator.SimulationConfig(seed=5, memory_bytes=GB, keep_alive_s=keep_alive_s,
                                        cold_start_ms=cold_ms,
                                        max_instances=cap if cap else simulator.UNLIMITED)
    result = simulator.simulate(profile, pattern, config, PricingModel(0, 0, 1))
    want = reference.simulate(profile.samples.values, traffic, 5, keep_alive_s, cold_ms, cap, 1)
    assert reference.records_from_dicts(result.records) == want


def _names(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], sizes=SMOKE) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == _names("per_layer" if trace else "end_to_end")
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())
